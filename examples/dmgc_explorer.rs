//! DMGC explorer: parse signatures, classify prior work, predict throughput.
//!
//! ```text
//! cargo run --release --example dmgc_explorer -- D8i8M16
//! ```
//!
//! Pass any DMGC signature (default `D8M8`) to see its structure, which
//! number classes it quantizes, and the paper-calibrated performance
//! model's throughput predictions across thread counts and model sizes.

use buckwild::Signature;
use buckwild_dmgc::{taxonomy, PerfModel};

fn main() {
    let text = std::env::args().nth(1).unwrap_or_else(|| "D8M8".to_owned());
    let signature: Signature = match text.parse() {
        Ok(sig) => sig,
        Err(e) => {
            eprintln!("{e}");
            eprintln!("examples: D8M8, D8i8M16, D32fi32M32f, G10, Cs1, D8M16G32C32");
            std::process::exit(1);
        }
    };

    println!("signature: {signature}");
    println!(
        "  dataset:  {} ({} bits)",
        signature.dataset(),
        signature.dataset_bits()
    );
    if let Some(bits) = signature.index_bits() {
        println!("  index:    {bits} bits (sparse problem)");
    }
    println!(
        "  model:    {} ({} bits)",
        signature.model(),
        signature.model_bits()
    );
    println!("  gradient: {}", signature.gradient());
    match signature.comm() {
        Some((format, sync)) => println!("  comm:     explicit {format} ({sync:?})"),
        None => println!(
            "  comm:     implicit via cache coherence (carries model precision {})",
            signature.effective_comm()
        ),
    }
    println!(
        "  dataset stream: {:.1} bytes per number",
        signature.dataset_bytes_per_number()
    );

    let quantized = taxonomy::quantized_classes(&signature);
    if quantized.is_empty() {
        println!("  no number class is quantized (full-precision algorithm)");
    } else {
        let names: Vec<String> = quantized.iter().map(|c| c.to_string()).collect();
        println!("  quantized classes: {}", names.join(", "));
    }

    // Prior systems with the same signature.
    for system in &taxonomy::TABLE1 {
        if system.signature_text == signature.to_string() {
            println!("  matches prior work: {}", system.name);
        }
    }

    // Performance predictions with the paper's Xeon calibration.
    let model = PerfModel::paper_xeon();
    match model.base_throughput(&signature) {
        Some(t1) => {
            println!("\npaper-Xeon performance model (GNPS):");
            println!("  base throughput T1 = {t1:.3}");
            println!(
                "{:>12} {:>10} {:>10} {:>10}",
                "model size", "t=1", "t=9", "t=18"
            );
            for log_n in [10u32, 14, 18, 22] {
                let n = 1usize << log_n;
                let row: Vec<f64> = [1usize, 9, 18]
                    .iter()
                    .map(|&t| model.predict(&signature, n, t).expect("calibrated"))
                    .collect();
                println!(
                    "{:>12} {:>10.3} {:>10.3} {:>10.3}",
                    format!("2^{log_n}"),
                    row[0],
                    row[1],
                    row[2]
                );
            }
        }
        None => println!(
            "\nno Table 2 calibration for {signature}; run `buckwild-bench table2` \
             to calibrate on this host"
        ),
    }
}
