//! Statistical-efficiency integration tests: the quality claims of the
//! paper hold across the workspace's quantizer and precision axes.

use std::num::NonZeroU32;

use buckwild::{Backend, Loss, PrngKind, Rounding, SgdConfig};
use buckwild_dataset::generate;
use buckwild_kernels::cost::QuantizerKind;

fn loss_with_quantizer(kind: QuantizerKind, seed: u64) -> f64 {
    let problem = generate::logistic_dense(64, 800, seed);
    SgdConfig::new(Loss::Logistic)
        .signature("D8M8".parse().expect("test signature"))
        .quantizer(kind)
        .rounding(Rounding::Unbiased)
        .step_size(0.3)
        .step_decay(0.85)
        .epochs(8)
        .seed(seed)
        .train(&problem.data)
        .expect("valid config")
        .final_loss()
}

/// Figure 5a: the three unbiased quantizer strategies are statistically
/// indistinguishable.
#[test]
fn quantizer_strategies_statistically_indistinguishable() {
    let mt = loss_with_quantizer(QuantizerKind::MersenneScalar, 41);
    let fresh = loss_with_quantizer(QuantizerKind::XorshiftFresh, 41);
    let shared = loss_with_quantizer(QuantizerKind::XorshiftShared, 41);
    let max = mt.max(fresh).max(shared);
    let min = mt.min(fresh).min(shared);
    assert!(
        max - min < 0.05,
        "spread too large: mt {mt}, fresh {fresh}, shared {shared}"
    );
}

/// Sharing randomness with a longer period trades statistical efficiency
/// smoothly — long periods still converge.
#[test]
fn shared_period_trade_off_is_smooth() {
    let problem = generate::logistic_dense(64, 800, 43);
    for period in [
        None,
        NonZeroU32::new(8),
        NonZeroU32::new(64),
        NonZeroU32::new(1024),
    ] {
        let report = SgdConfig::new(Loss::Logistic)
            .signature("D8M8".parse().expect("test signature"))
            .quantizer(QuantizerKind::XorshiftShared)
            .shared_period(period)
            .step_size(0.3)
            .step_decay(0.85)
            .epochs(8)
            .train(&problem.data)
            .expect("valid config");
        assert!(
            report.final_loss() < 0.55,
            "period {period:?}: loss {}",
            report.final_loss()
        );
    }
}

/// The PrngKind abstraction produces working generators for both families
/// used by the paper.
#[test]
fn prng_kinds_behave() {
    use buckwild_prng::Prng;
    for kind in PrngKind::ALL {
        let mut rng = kind.build(7);
        let mean: f64 = (0..4000).map(|_| rng.next_f32() as f64).sum::<f64>() / 4000.0;
        assert!((mean - 0.5).abs() < 0.05, "{kind}: mean {mean}");
    }
}

/// Unbiased rounding preserves convergence at 8 bits even with tiny steps,
/// where biased rounding visibly stalls (the §3 mechanism).
#[test]
fn unbiased_rounding_survives_tiny_steps() {
    let problem = generate::logistic_dense(64, 800, 47);
    let run = |rounding: Rounding| {
        SgdConfig::new(Loss::Logistic)
            .signature("D8M8".parse().expect("test signature"))
            .rounding(rounding)
            .step_size(0.02)
            .epochs(10)
            .train(&problem.data)
            .expect("valid config")
            .final_loss()
    };
    let unbiased = run(Rounding::Unbiased);
    let biased = run(Rounding::Biased);
    assert!(
        unbiased <= biased + 1e-9,
        "unbiased {unbiased} should not lose to biased {biased}"
    );
}

/// Quantizing the dataset once (the D term) costs little accuracy at 8
/// bits on this problem class.
#[test]
fn dataset_quantization_is_cheap_statistically() {
    let problem = generate::logistic_dense(64, 1000, 53);
    let run = |sig: &str| {
        SgdConfig::new(Loss::Logistic)
            .signature(sig.parse().expect("test signature"))
            .step_size(0.5)
            .step_decay(0.85)
            .epochs(10)
            .train(&problem.data)
            .expect("valid config")
            .final_loss()
    };
    let full = run("D32fM32f");
    let d8_only = run("D8M32f"); // quantize dataset, keep model full
    assert!(
        (d8_only - full).abs() < 0.05,
        "D8M32f {d8_only} vs full {full}"
    );
}

/// Two workers racing on one small shared model lose updates and still
/// converge like one worker ("Taming the Wild", PAPERS.md). The model is
/// 64 D8 words, a single cache line, so the workers collide on nearly
/// every write whatever the granularity of the store's race: one word per
/// lost update, or a whole line.
#[test]
fn two_worker_race_on_a_small_shared_model_converges_like_one() {
    for seed in [61, 62, 63] {
        let problem = generate::logistic_dense(64, 800, seed);
        let run = |threads: usize| {
            SgdConfig::new(Loss::Logistic)
                .backend(Backend::SharedModel)
                .signature("D8M8".parse().expect("test signature"))
                .step_size(0.3)
                .step_decay(0.85)
                .epochs(8)
                .threads(threads)
                .seed(seed)
                .train(&problem.data)
                .expect("valid config")
                .final_loss()
        };
        let (one, two) = (run(1), run(2));
        assert!(
            (two - one).abs() < 0.05,
            "seed {seed}: 2 workers {two} vs 1 worker {one}"
        );
    }
}
