//! `buckwild-bench <experiment> [flags]` — see [`buckwild_bench::cli`].
use std::process::ExitCode;

fn main() -> ExitCode {
    buckwild_bench::cli::run(
        std::env::args().skip(1),
        &mut std::io::stdout(),
        &mut std::io::stderr(),
    )
}
