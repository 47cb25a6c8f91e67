//! `burstbench`: run one workload and print every metric by name with its
//! unit and scope, then one JSON result line.
//!
//! ```text
//! cargo run --release --manifest-path burstbench/Cargo.toml -- \
//!     --workload train-burst-causal --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics (tracing off); `--trace 1`
//! reports the per-layer metrics. The last line of standard output is
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.

use std::process::ExitCode;

use burstbench::workload::{Scale, Workload};
use burstbench::{run, Opts};

fn parse(argv: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        workload: Workload::TrainBurstCausal,
        seed: 0,
        seconds: 10.0,
        trace: false,
        scale: Scale::Full,
        corrupt: false,
    };
    let mut workload = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::parse(name).ok_or_else(|| format!("unknown workload `{name}`"))?,
                );
            }
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(opts.seconds.is_finite() && opts.seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".to_string());
                }
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    opts.workload = workload.ok_or("--workload is required")?;
    Ok(opts)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&argv) {
        Ok(o) => o,
        Err(e) => {
            let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
            eprintln!(
                "burstbench: {e}\nusage: burstbench --workload <{}> [--seed N] \
                 [--seconds S] [--trace 0|1]",
                names.join("|")
            );
            return ExitCode::from(2);
        }
    };
    println!(
        "burstbench workload={} seed={} seconds={} trace={}",
        opts.workload.name(),
        opts.seed,
        opts.seconds,
        u8::from(opts.trace)
    );
    let report = run(&opts);
    for n in &report.notes {
        println!("{n}");
    }
    for e in &report.tally.errors {
        println!("FAILED {e}");
    }
    println!("{:<28} {:>20}  {:<13} scope", "metric", "value", "unit");
    for m in &report.metrics {
        println!(
            "{:<28} {:>20.6e}  {:<13} {}",
            m.name, m.value, m.unit, m.scope
        );
    }
    println!(
        "failed_frac = {} ({} of {} attempted iterations and checks failed)",
        report.failed_frac(),
        report.tally.failed,
        report.tally.attempted
    );
    println!("{}", report.json());
    ExitCode::SUCCESS
}
