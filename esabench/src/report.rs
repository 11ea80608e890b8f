//! The metrics a run reports and the result line it ends with.
//!
//! Every run prints every end-to-end metric (untraced) or every per-layer
//! metric (traced), in the order of the lists below, which match
//! `BENCHMARK.json`. A per-layer metric of a layer the workload bypasses
//! reads 0.

use std::collections::BTreeMap;

use crate::stats::Quantile;

/// `(name, unit)` of every end-to-end metric `BENCHMARK.json` bounds.
///
/// `cpu_per_report` is the CPU time the deployment (serving path,
/// shufflers, analyzer, fabric; not the load generator) spends per report
/// it releases, counted in samples of a fixed reference computation timed on
/// the same cores during the window ([`crate::calib::SpeedProbe`]). On a
/// saturated pipeline throughput is the cores it gets divided by its CPU per
/// report, so this is the capacity figure with the share of the host a run
/// receives and the speed of that host both taken out: the kernel leaves
/// time stolen by other guests and other processes out of a thread's CPU
/// time, and the reference sample slows down with the cores. On a shared
/// 2-vCPU host the reference sample's time drifted by up to a third
/// between runs minutes apart, and CPU µs per report with it.
pub const END_TO_END: &[(&str, &str)] = &[("setup_s", "s"), ("cpu_per_report", "ref")];

/// Printed in the table of an untraced run, after the bounded metrics,
/// but left out of the result line: the two figures `cpu_per_report` is made
/// of, then the wall-clock ones. Wall-clock throughput and latency move
/// with how much of a shared 2-vCPU host a run gets: under neighbours'
/// load the same code spread by 80-100% between runs, so no bound the
/// benchmark may set holds them, and the traced run records them unbounded
/// (the `wall.*` per-layer metrics). Peak RSS holds the harness's own
/// per-submission records, which grow with throughput. The CPU ledger and
/// crypto floor are per-layer figures, shown here so every run reports its
/// efficiency against the floor.
pub const TABLE_ONLY: &[(&str, &str)] = &[
    ("cpu_us_per_report", "us"),
    ("bench.reference_us", "us"),
    ("e2e_reports_per_s", "reports/s"),
    ("ack_p50_ms", "ms"),
    ("ack_p99_ms", "ms"),
    ("release_p50_ms", "ms"),
    ("release_p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("cpu.total_us_per_report", "us"),
    ("cpu.pipeline_us_per_report", "us"),
    ("crypto.floor_us_per_report", "us"),
    ("crypto.floor_ratio", "ratio"),
];

/// Wall-clock figures of the traced run's untraced window, recorded as
/// per-layer metrics under their own names: `(per-layer name, source)`.
pub const WALL: &[(&str, &str)] = &[
    ("wall.reports_per_s", "e2e_reports_per_s"),
    ("wall.ack_p50_ms", "ack_p50_ms"),
    ("wall.release_p50_ms", "release_p50_ms"),
    ("wall.release_p99_ms", "release_p99_ms"),
    ("process.peak_rss_mb", "peak_rss_mb"),
];

/// `(name, unit)` of every per-layer metric.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("cpu.total_us_per_report", "us"),
    ("cpu.serve_us_per_report", "us"),
    ("cpu.gen_us_per_report", "us"),
    ("cpu.pipeline_us_per_report", "us"),
    ("collector.epoch_busy_frac", "ratio"),
    ("collector.epoch_ms_p50", "ms"),
    ("collector.epoch_ms_max", "ms"),
    ("collector.epoch_self_us_per_report", "us"),
    ("collector.epoch_reports_p50", "count"),
    ("collector.epochs", "count"),
    ("collector.backlog_slope_per_s", "reports/s"),
    ("collector.queue_peak", "count"),
    ("collector.retry_after_frac", "ratio"),
    ("collector.duplicates", "count"),
    ("net.turns_per_report", "ratio"),
    ("core.canonicalize_us_per_report", "us"),
    ("shuffler.process_us_per_report", "us"),
    ("shuffler.peel_us_per_report", "us"),
    ("shuffler.threshold_us_per_report", "us"),
    ("shuffler.shuffle_us_per_report", "us"),
    ("shuffler.forwarded_frac", "ratio"),
    ("shuffle.attempts_per_epoch", "count"),
    ("analyzer.ingest_us_per_item", "us"),
    ("analyzer.merge_ms_p50", "ms"),
    ("analyzer.recovered_secrets", "count"),
    ("analyzer.pending_secret_reports", "count"),
    ("crypto.open_us", "us"),
    ("crypto.open_batch_us_per_record", "us"),
    ("crypto.elgamal_us", "us"),
    ("crypto.floor_us_per_report", "us"),
    ("crypto.floor_ratio", "ratio"),
    ("fabric.bytes_per_report", "bytes"),
    ("fabric.send_ms_p50", "ms"),
    ("fabric.recv_wait_ms_p50", "ms"),
    ("split.s1_us_per_report", "us"),
    ("split.s2_us_per_report", "us"),
    ("bench.gen_late_p99_ms", "ms"),
    ("bench.trace_overhead_frac", "ratio"),
    ("bench.reference_us", "us"),
    ("wall.reports_per_s", "reports/s"),
    ("wall.ack_p50_ms", "ms"),
    ("wall.release_p50_ms", "ms"),
    ("wall.release_p99_ms", "ms"),
    ("process.peak_rss_mb", "MB"),
];

/// Metric values of one run, with how each was sampled.
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, (f64, String)>,
}

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, (value, String::new()));
    }

    /// Records an order statistic with its percentile and sample count.
    pub fn set_quantile(&mut self, name: &'static str, q: Quantile) {
        let note = format!("p{} of {} samples", q.percentile, q.samples);
        self.values.insert(name, (q.value, note));
    }

    pub fn note(&mut self, name: &'static str, note: String) {
        if let Some(entry) = self.values.get_mut(name) {
            entry.1 = note;
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).map(|v| v.0)
    }

    /// Records each [`WALL`] source under its per-layer name.
    pub fn copy_wall(&mut self) {
        for (name, source) in WALL {
            if let Some(entry) = self.values.get(source).cloned() {
                self.values.insert(name, entry);
            }
        }
    }
}

/// A finite number as JSON; `null` for `+∞` or `NaN` (a failed operation
/// in a percentile), which also makes the run incorrect.
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".to_string()
    }
}

/// Prints the table of `names` and `extra`, then the one-line result
/// over `names`.
pub fn emit(
    names: &[(&'static str, &'static str)],
    extra: &[(&'static str, &'static str)],
    metrics: &Metrics,
    attempted: u64,
    failed: u64,
    correct: bool,
) {
    println!("{:<36} {:>16} {:<10} sampled as", "metric", "value", "unit");
    for (name, unit) in names.iter().chain(extra) {
        let (value, note) = metrics
            .values
            .get(name)
            .cloned()
            .unwrap_or((0.0, "layer bypassed by this workload".to_string()));
        println!("{name:<36} {value:>16.4} {unit:<10} {note}");
    }
    let fail_frac = failed as f64 / attempted.max(1) as f64;
    println!("fail_frac = {failed} / {attempted} = {fail_frac}");
    let fields: Vec<String> = names
        .iter()
        .map(|(name, unit)| {
            let value = metrics.get(name).unwrap_or(0.0);
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        fields.join(", ")
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every `"name": "…"` in a JSON array field of `BENCHMARK.json`.
    fn names_in(json: &str, field: &str) -> Vec<String> {
        let start = json.find(&format!("\"{field}\"")).expect("field present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("array closes")];
        body.split("\"name\"")
            .skip(1)
            .map(|rest| rest.split('"').nth(1).expect("quoted name").to_string())
            .collect()
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        let names =
            |list: &[(&str, &str)]| list.iter().map(|m| m.0.to_string()).collect::<Vec<_>>();
        assert_eq!(names_in(json, "end_to_end"), names(END_TO_END));
        assert_eq!(names_in(json, "per_layer"), names(PER_LAYER));
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(
                json.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "{name} must carry unit {unit} in BENCHMARK.json"
            );
        }
    }

    #[test]
    fn non_finite_values_are_null() {
        assert_eq!(json_number(1.5), "1.5");
        assert_eq!(json_number(f64::INFINITY), "null");
        assert_eq!(json_number(f64::NAN), "null");
    }
}
