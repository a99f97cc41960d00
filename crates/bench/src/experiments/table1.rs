//! Table 1: DMGC signatures of prior low-precision systems.

use buckwild_dmgc::taxonomy::TABLE1;
use buckwild_telemetry::ExperimentResult;

/// Builds the taxonomy as a structured result: each prior system becomes a
/// metadata entry, with the §3.1 classification rationale as notes.
#[must_use]
pub fn result() -> ExperimentResult {
    let mut r = ExperimentResult::new("table1", "DMGC signatures of previous algorithms");
    for system in &TABLE1 {
        r.meta(system.name, system.signature_text);
    }
    r.note("Rationale (paper §3.1):");
    for system in &TABLE1 {
        let sig = system.signature().expect("built-in signatures parse");
        r.note(format!("* {} = {}: {}", system.name, sig, system.rationale));
    }
    r
}
