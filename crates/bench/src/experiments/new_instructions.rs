//! §6.1: proposed vector ALU instructions.
//!
//! The paper proposes two fused instructions (a dot-product instruction and
//! an AXPY-with-hardware-rounding instruction) and measures them by proxy:
//! substituting existing instructions with the assumed latency. Our proxy
//! is the instruction-count cost model; the arithmetic itself is identical
//! to the optimized kernels.

use buckwild_dmgc::Signature;
use buckwild_kernels::cost::{estimate_gnps, iteration_mix, QuantizerKind};
use buckwild_kernels::KernelFlavor;
use buckwild_telemetry::{ExperimentResult, Series};

/// Estimates current-ISA vs proposed-ISA throughput per signature.
#[must_use]
pub fn result() -> ExperimentResult {
    let mut r = ExperimentResult::new(
        "new_instructions",
        "Proposed fused dot/AXPY instructions (proxy cost model)",
    );
    let mut table = Series::new(
        "estimates",
        "signature",
        &["avx2-est", "new-est", "gain %", "instr/elem"],
    );
    for text in ["D8M8", "D8M16", "D16M8", "D16M16"] {
        let sig: Signature = text.parse().expect("static");
        let current = estimate_gnps(&sig, KernelFlavor::Optimized, QuantizerKind::XorshiftShared);
        let proposed = estimate_gnps(&sig, KernelFlavor::Proposed, QuantizerKind::XorshiftShared);
        let mix = iteration_mix(&sig, KernelFlavor::Optimized, QuantizerKind::XorshiftShared);
        table.push_row(
            text,
            &[
                current,
                proposed,
                (proposed / current - 1.0) * 100.0,
                mix.total_instrs(),
            ],
        );
    }
    r.push_series(table);
    r.note("paper: the new instructions consistently improved throughput by 5-15%");
    r
}
