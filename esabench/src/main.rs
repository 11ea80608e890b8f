//! `esabench`: the ESA pipeline's benchmark.
//!
//! ```text
//! cargo run --release --manifest-path esabench/Cargo.toml -- \
//!     --workload ingest-burst --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Runs one seeded workload against the real pipeline, checks its output,
//! and prints a table of every metric (value, unit, how it was sampled)
//! followed by one JSON result line. `--trace 0` reports the end-to-end
//! metrics; `--trace 1` runs an untraced and a traced window and reports
//! the per-layer metrics, writing the spans to
//! `esabench/spans/<workload>-<seed>.jsonl`. The exit code is non-zero when
//! any correctness check fails.

mod calib;
mod checks;
mod fabric;
mod gen;
mod ingest;
mod pipeline;
mod poll;
mod procfs;
mod report;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use checks::Checks;
use report::Metrics;

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

pub const WORKLOADS: &[&str] = &["ingest-burst", "ingest-steady", "split-fabric"];

/// What one run measured and found.
pub struct Run {
    pub metrics: Metrics,
    pub checks: Checks,
    pub attempted: u64,
    pub failed: u64,
}

/// Forwarded ÷ received over a window's epochs.
pub fn forwarded_frac<'a>(
    epochs: impl Iterator<Item = &'a prochlo_core::shuffler::ShufflerStats>,
) -> f64 {
    let (forwarded, received) = epochs.fold((0, 0), |(f, r), s| (f + s.forwarded, r + s.received));
    forwarded as f64 / received.max(1) as f64
}

/// The crypto floor of this run's reports; call after the window's
/// `shuffler.forwarded_frac` is set.
pub fn set_floor(metrics: &mut Metrics, floor: &calib::Floor, split: bool) {
    let forwarded = metrics.get("shuffler.forwarded_frac").unwrap_or(1.0);
    metrics.set("crypto.open_us", floor.open_us);
    metrics.set(
        "crypto.open_batch_us_per_record",
        floor.open_batch_us_per_record,
    );
    metrics.set("crypto.elgamal_us", floor.elgamal_us);
    metrics.set(
        "crypto.floor_us_per_report",
        floor.us_per_report(forwarded, split),
    );
}

/// `setup_s`: the median of the set-ups' durations.
pub fn set_setup(metrics: &mut Metrics, setups: &[f64]) {
    metrics.set("setup_s", stats::median(setups));
    metrics.note("setup_s", format!("median of {} set-ups", setups.len()));
}

/// The CPU ledger per report; the deployment's cost per report (the ledger
/// without the load generator's row) in µs and in multiples of the
/// reference sample the window's [`calib::SpeedProbe`] timed; and the
/// pipeline's share against the crypto floor (see [`set_floor`]).
pub fn set_ledger(metrics: &mut Metrics, ledger: &procfs::Ledger, reports: f64, reference_us: f64) {
    let us = |seconds: f64| seconds * 1e6 / reports;
    println!(
        "cpu ledger: total {:.2} s = serve {:.2} + gen {:.2} + pipeline {:.2} (imbalance {:.3} s)",
        ledger.total,
        ledger.serve,
        ledger.gen,
        ledger.pipeline,
        ledger.imbalance()
    );
    let deployment_us = us(ledger.serve + ledger.pipeline);
    metrics.set("cpu_per_report", deployment_us / reference_us);
    metrics.note(
        "cpu_per_report",
        format!("cpu_us_per_report / bench.reference_us, {reports} reports"),
    );
    metrics.set("cpu_us_per_report", deployment_us);
    metrics.note("cpu_us_per_report", "serve + pipeline CPU".into());
    metrics.set("bench.reference_us", reference_us);
    metrics.note("bench.reference_us", "median reference sample".into());
    metrics.set("cpu.total_us_per_report", us(ledger.total));
    metrics.set("cpu.serve_us_per_report", us(ledger.serve));
    metrics.set("cpu.gen_us_per_report", us(ledger.gen));
    metrics.set("cpu.pipeline_us_per_report", us(ledger.pipeline));
    if let Some(floor) = metrics.get("crypto.floor_us_per_report") {
        metrics.set("crypto.floor_ratio", us(ledger.pipeline) / floor);
    }
}

/// Writes the traced window's spans next to the benchmark's sources.
pub fn write_spans(tracer: &trace::Tracer, workload: &str, seed: u64) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("spans")
        .join(format!("{workload}-{seed}.jsonl"));
    match tracer.write_jsonl(&path) {
        Ok(()) => println!("spans: {}", path.display()),
        Err(e) => eprintln!("warning: could not write spans to {}: {e}", path.display()),
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn run(args: &Args) -> Run {
    let Args {
        workload,
        seed,
        seconds,
        trace,
    } = args;
    let mut run = match workload.as_str() {
        "ingest-burst" => ingest::run(workload, &ingest::BURST, *seed, *seconds, *trace),
        "ingest-steady" => ingest::run(workload, &ingest::STEADY, *seed, *seconds, *trace),
        _ => fabric::run(workload, *seed, *seconds, *trace),
    };
    run.metrics.set("peak_rss_mb", procfs::peak_rss_mb());
    run.metrics.note("peak_rss_mb", "VmHWM at exit".into());
    if *trace {
        run.metrics.copy_wall();
    }
    run
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "esabench: workload {} seed {} seconds {} trace {} ({} cpus)",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    // Everything runs on a named thread so the CPU ledger can tell the
    // harness from the program.
    let trace = args.trace;
    let run = std::thread::Builder::new()
        .name("bench-main".into())
        .spawn(move || run(&args))
        .expect("spawn bench-main")
        .join();
    let Ok(run) = run else {
        eprintln!("error: the benchmark panicked");
        return ExitCode::from(3);
    };
    let (names, extra) = if trace {
        (report::PER_LAYER, &[][..])
    } else {
        (report::END_TO_END, report::TABLE_ONLY)
    };
    for failure in &run.checks.failures {
        println!("CHECK FAILED: {failure}");
    }
    let correct = run.checks.passed();
    report::emit(
        names,
        extra,
        &run.metrics,
        run.attempted,
        run.failed,
        correct,
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
