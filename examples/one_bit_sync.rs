//! The DMGC communication term in action: synchronous SGD with gradients
//! quantized for the wire, down to Seide-style 1-bit (`Cs1` in Table 1).
//!
//! ```text
//! cargo run --release --example one_bit_sync
//! ```

use buckwild::prelude::*;
use buckwild_dataset::generate;

fn main() {
    let problem = generate::logistic_dense(96, 2400, 77);
    println!("synchronous data-parallel SGD, 4 workers, logistic regression\n");
    println!(
        "{:<10} {:>14} {:>12}",
        "signature", "comm bits", "final loss"
    );
    for bits in [32u32, 8, 4, 1] {
        let config = SyncSgdConfig::new(Loss::Logistic, bits).epochs(10);
        let report = config.train(&problem.data).expect("valid config");
        println!(
            "{:<10} {:>14} {:>12.4}",
            config.signature().to_string(),
            bits,
            report.final_loss()
        );
    }
    println!();
    let with = SyncSgdConfig::new(Loss::Logistic, 1)
        .error_feedback(true)
        .epochs(10)
        .train(&problem.data)
        .expect("valid config");
    let without = SyncSgdConfig::new(Loss::Logistic, 1)
        .error_feedback(false)
        .epochs(10)
        .train(&problem.data)
        .expect("valid config");
    println!(
        "1-bit with error feedback: {:.4}; without: {:.4}",
        with.final_loss(),
        without.final_loss()
    );
    println!(
        "\nCarrying the quantization residual (Seide et al.'s trick) is what makes \
         1-bit communication viable — exactly why the paper's Table 1 classifies \
         that system as Cs1 with a full-precision carried error."
    );
}
