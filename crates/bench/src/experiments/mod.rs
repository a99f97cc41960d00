//! One module per table/figure of the paper's evaluation.
//!
//! Every module exposes `result()`, which runs the experiment and returns
//! a structured [`ExperimentResult`] (metadata, measured series, scalar
//! summaries, notes). [`REGISTRY`] names them in paper order; the
//! `buckwild-bench` command line ([`crate::cli`]) dispatches, runs `all`
//! and prints its usage from that one table.
//!
//! Budget knobs (environment variables):
//!
//! * `BUCKWILD_SECONDS` — wall-clock budget per measured point
//!   (default 0.25; an unparsable value is ignored with a warning).
//! * `BUCKWILD_FULL=1` — use the paper-scale parameter sweeps instead of
//!   the laptop-scale defaults.

use std::sync::OnceLock;

use buckwild_telemetry::ExperimentResult;

pub mod ablations;
pub mod chaos_sweep;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5a;
pub mod fig5b;
pub mod fig5c;
pub mod fig6ab;
pub mod fig6c;
pub mod fig6d;
pub mod fig6e;
pub mod fig6f;
pub mod fig7a;
pub mod fig7b;
pub mod fig7c;
pub mod fig7de;
pub mod fig7f;
pub mod new_instructions;
pub mod table1;
pub mod table2;
pub mod table3;

/// A registry entry: the `buckwild-bench` subcommand name and the function
/// that runs it. The argument is the `--seed` flag, which only the seeded
/// experiment (`chaos_sweep`) reads.
pub type Experiment = (&'static str, fn(Option<u64>) -> ExperimentResult);

/// Every experiment, in paper order.
pub static REGISTRY: [Experiment; 22] = [
    ("table1", |_| table1::result()),
    ("table2", |_| table2::result()),
    ("fig2", |_| fig2::result()),
    ("fig3", |_| fig3::result()),
    ("fig4", |_| fig4::result()),
    ("fig5a", |_| fig5a::result()),
    ("fig5b", |_| fig5b::result()),
    ("fig5c", |_| fig5c::result()),
    ("fig6ab", |_| fig6ab::result()),
    ("fig6c", |_| fig6c::result()),
    ("fig6d", |_| fig6d::result()),
    ("fig6e", |_| fig6e::result()),
    ("fig6f", |_| fig6f::result()),
    ("new_instructions", |_| new_instructions::result()),
    ("fig7a", |_| fig7a::result()),
    ("fig7b", |_| fig7b::result()),
    ("fig7c", |_| fig7c::result()),
    ("fig7de", |_| fig7de::result()),
    ("fig7f", |_| fig7f::result()),
    ("table3", |_| table3::result()),
    ("ablations", |_| ablations::result()),
    ("chaos_sweep", |seed| {
        chaos_sweep::result(seed.unwrap_or(chaos_sweep::DEFAULT_SEED))
    }),
];

/// Per-point measurement budget in seconds (`BUCKWILD_SECONDS`).
#[must_use]
pub fn seconds() -> f64 {
    static FROM_ENV: OnceLock<f64> = OnceLock::new();
    *FROM_ENV.get_or_init(|| seconds_from_env(std::env::var("BUCKWILD_SECONDS").ok().as_deref()))
}

/// The budget a `BUCKWILD_SECONDS` value selects. Only a finite value > 0
/// is a budget: `inf` would never finish a timing loop, `0`, a negative
/// or `nan` would time a single call, and a typo (`0.02s`) would silently
/// run the default. Anything else falls back to the default with a
/// warning on stderr.
fn seconds_from_env(value: Option<&str>) -> f64 {
    let Some(text) = value else {
        return crate::QUICK_SECONDS;
    };
    match text.parse::<f64>() {
        Ok(seconds) if seconds.is_finite() && seconds > 0.0 => seconds,
        _ => {
            eprintln!(
                "buckwild: ignoring BUCKWILD_SECONDS: `{text}` is not a finite number of \
                 seconds above 0"
            );
            crate::QUICK_SECONDS
        }
    }
}

/// True if paper-scale sweeps were requested (`BUCKWILD_FULL=1`).
#[must_use]
pub fn full_scale() -> bool {
    std::env::var("BUCKWILD_FULL")
        .map(|v| v == "1")
        .unwrap_or(false)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seconds_env_value_parses_or_falls_back() {
        assert_eq!(seconds_from_env(Some("0.02")), 0.02);
        assert_eq!(seconds_from_env(Some("3")), 3.0);
        assert_eq!(seconds_from_env(None), crate::QUICK_SECONDS);
        // Each of these warns on stderr and selects the default.
        for bad in ["0.02s", "", "inf", "-inf", "0", "-1", "nan"] {
            assert_eq!(seconds_from_env(Some(bad)), crate::QUICK_SECONDS, "{bad:?}");
        }
    }
}
