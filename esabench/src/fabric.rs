//! `split-fabric`: the split-shuffler topology (§4.3) over the TCP fabric,
//! driven epoch by epoch through a shard's [`RemoteSplitPipeline`].
//!
//! Shuffler 1 and Shuffler 2 run [`serve_shuffler_one`] and
//! [`serve_shuffler_two`] on their own threads over [`TcpTransport`] on
//! 127.0.0.1, for one shard. Both split stages are single-threaded and the
//! shard waits for each epoch, so the workload keeps about one core busy;
//! its CPU per report is not inflated by its own threads contending for
//! the host's two cores. Reports are pre-sealed with El Gamal-blinded
//! crowd IDs.
//! There is no collector in front: the workload bypasses the serving path
//! and the shuffle engines (this topology shuffles inline), and its
//! traffic crosses the loopback interface, not a real link.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::{Scope, ScopedJoinHandle};
use std::time::{Duration, Instant};

use prochlo_collector::EpochPipeline;
use prochlo_core::{
    AnalyzerDatabase, ClientReport, Deployment, EngineConfig, EpochSpec, PipelineReport,
    ShuffleBackend, ShufflerConfig, Topology,
};
use prochlo_fabric::transport::{ChannelId, FabricError, Peer, Stage, Transport};
use prochlo_fabric::{
    serve_shuffler_one, serve_shuffler_two, RemoteSplitPipeline, TcpTransport, TcpTransportBuilder,
};

use crate::checks::{self, Checks};
use crate::gen::{self, Crowd, Pool};
use crate::ingest::PIPELINE_THREADS;
use crate::pipeline::{EpochEntry, SPAN_EPOCH, SPAN_MERGE};
use crate::procfs::{self, Ledger, Part};
use crate::report::Metrics;
use crate::stats::Dist;
use crate::trace::{self, Key, SpanRecord, Tracer};
use crate::{calib, Run, SETUP_REPS};

/// Reports per epoch batch.
pub const EPOCH_REPORTS: usize = 2048;
/// Distinct sealed reports: two epochs' worth, alternated.
pub const POOL_REPORTS: usize = 2 * EPOCH_REPORTS;
/// Epochs re-run in-process to check the fabric's determinism contract.
const DETERMINISM_EPOCHS: usize = 2;

const SPAN_PIPELINE: &str = "fabric.pipeline";
const SPAN_SEND: &str = "fabric.send";
const SPAN_RECV: &str = "fabric.recv";

fn engine() -> EngineConfig {
    EngineConfig {
        backend: ShuffleBackend::Trusted,
        num_threads: PIPELINE_THREADS,
    }
}

fn deployment(seed: u64) -> Deployment {
    Deployment::builder()
        .shuffler(Topology::Split)
        .config(ShufflerConfig::default())
        .engine(engine())
        .payload_size(32)
        .build(&mut gen::rng(seed, gen::STREAM_DEPLOYMENT))
}

/// The traced run's [`Transport`]: counts the bytes it sends and records
/// a span around every send and receive.
struct Counting {
    inner: TcpTransport,
    tracer: Arc<Tracer>,
    bytes_sent: AtomicU64,
}

impl Counting {
    fn new(inner: TcpTransport, tracer: &Arc<Tracer>) -> Self {
        Self {
            inner,
            tracer: Arc::clone(tracer),
            bytes_sent: AtomicU64::new(0),
        }
    }

    fn bytes_sent(&self) -> u64 {
        self.bytes_sent.load(Ordering::Relaxed)
    }
}

impl Transport for Counting {
    fn identity(&self) -> Peer {
        self.inner.identity()
    }

    fn send(&self, to: Peer, stage: Stage, payload: &[u8]) -> Result<(), FabricError> {
        self.bytes_sent
            .fetch_add(payload.len() as u64, Ordering::Relaxed);
        let span = self.tracer.start(SPAN_SEND, Key::None);
        let sent = self.inner.send(to, stage, payload);
        span.finish();
        sent
    }

    fn recv(&self, channel: ChannelId) -> Result<Vec<u8>, FabricError> {
        let span = self.tracer.start(SPAN_RECV, Key::None);
        let got = self.inner.recv(channel);
        span.finish();
        got
    }
}

fn fabric_err(e: FabricError) -> String {
    e.to_string()
}

/// Runs a shuffler's service loop over `inner`, counted when traced;
/// returns the bytes it sent (0 untraced).
fn serve(
    inner: TcpTransport,
    tracer: Option<&Arc<Tracer>>,
    service: impl FnOnce(&dyn Transport) -> Result<(), FabricError>,
) -> Result<u64, String> {
    match tracer {
        None => service(&inner).map(|()| 0),
        Some(tracer) => {
            let counted = Counting::new(inner, tracer);
            service(&counted).map(|()| counted.bytes_sent())
        }
    }
    .map_err(fabric_err)
}

/// The two shuffler threads and the shard's end of the fabric.
struct Fabric<'scope> {
    pipeline: RemoteSplitPipeline,
    /// The shard's transport when traced, for its byte count.
    counted: Option<Arc<Counting>>,
    shufflers: Vec<ScopedJoinHandle<'scope, Result<u64, String>>>,
}

impl<'scope> Fabric<'scope> {
    fn start<'env>(
        scope: &'scope Scope<'scope, 'env>,
        deployment: &'env Deployment,
        tracer: Option<&Arc<Tracer>>,
    ) -> Result<Self, String> {
        let split = deployment
            .role()
            .as_split()
            .ok_or("split-fabric needs the split topology")?;
        let loopback: SocketAddr = "127.0.0.1:0".parse().expect("loopback address");
        let mut two = TcpTransportBuilder::new(Peer::ShufflerTwo);
        let two_addr = two.listen(loopback).map_err(fabric_err)?;
        let mut one = TcpTransportBuilder::new(Peer::ShufflerOne);
        let one_addr = one.listen(loopback).map_err(fabric_err)?;
        // Dialing only needs the peer's listen backlog; the accepts run on
        // the shuffler threads.
        one.connect(Peer::ShufflerTwo, two_addr)
            .map_err(fabric_err)?;
        let mut shard = TcpTransportBuilder::new(Peer::Shard(0));
        shard
            .connect(Peer::ShufflerOne, one_addr)
            .map_err(fabric_err)?;
        shard
            .connect(Peer::ShufflerTwo, two_addr)
            .map_err(fabric_err)?;

        let two_tracer = tracer.cloned();
        let s2 = std::thread::Builder::new()
            .name("fabric-s2".into())
            .spawn_scoped(scope, move || {
                two.accept(2).map_err(fabric_err)?;
                serve(two.build().map_err(fabric_err)?, two_tracer.as_ref(), |t| {
                    serve_shuffler_two(t, &split.two)
                })
            })
            .map_err(|e| e.to_string())?;
        let one_tracer = tracer.cloned();
        let elgamal = *split.two.elgamal_public();
        let s1 = std::thread::Builder::new()
            .name("fabric-s1".into())
            .spawn_scoped(scope, move || {
                one.accept(1).map_err(fabric_err)?;
                serve(one.build().map_err(fabric_err)?, one_tracer.as_ref(), |t| {
                    serve_shuffler_one(t, &split.one, &elgamal, 1)
                })
            })
            .map_err(|e| e.to_string())?;

        let shard = shard.build().map_err(fabric_err)?;
        let (transport, counted): (Arc<dyn Transport>, _) = match tracer {
            None => (Arc::new(shard), None),
            Some(tracer) => {
                let counted = Arc::new(Counting::new(shard, tracer));
                (Arc::clone(&counted) as Arc<dyn Transport>, Some(counted))
            }
        };
        let pipeline = RemoteSplitPipeline::new(transport, 0, deployment.analyzer().clone());
        Ok(Self {
            pipeline,
            counted,
            shufflers: vec![s1, s2],
        })
    }

    /// Sends the done marker and joins both shufflers; returns the bytes
    /// every endpoint sent (0 untraced).
    fn stop(self) -> Result<u64, String> {
        let Self {
            pipeline,
            counted,
            shufflers,
        } = self;
        pipeline.finish().map_err(fabric_err)?;
        let mut bytes = counted.map_or(0, |c| c.bytes_sent());
        for handle in shufflers {
            bytes += handle.join().map_err(|_| "shuffler thread panicked")??;
        }
        Ok(bytes)
    }
}

/// Epoch `k`'s batch: one half of the pool, alternating.
fn window(k: usize) -> std::ops::Range<usize> {
    let start = (k % 2) * EPOCH_REPORTS;
    start..start + EPOCH_REPORTS
}

fn spec(seed: u64, k: usize) -> EpochSpec {
    EpochSpec::new(k as u64, seed).with_engine(engine())
}

struct Window {
    epochs: Vec<EpochEntry>,
    reports: Vec<Result<PipelineReport, String>>,
    /// When the fabric returned each epoch to the shard.
    returned: Vec<Instant>,
    merged: AnalyzerDatabase,
    wall_s: f64,
    ledger: Result<Ledger, String>,
    bytes: u64,
    /// Median time of one reference sample during the window.
    reference_us: f64,
}

/// The shard's record of the window: its fabric, per epoch what it held,
/// what the fabric returned and when, the released database, and the batch
/// generator's CPU ticks.
type ShardRun<'scope> = (
    Fabric<'scope>,
    Vec<EpochEntry>,
    Vec<Result<PipelineReport, String>>,
    Vec<Instant>,
    AnalyzerDatabase,
    u64,
);

/// The shard for `seconds`: a `bench-gen` thread cuts batches from the
/// pool, the calling thread ships each through the fabric and merges the
/// result into the released database. Epoch `k` holds the pool half
/// `k % 2`.
fn drive<'scope>(
    mut fabric: Fabric<'scope>,
    pool: &Pool,
    seed: u64,
    end: Instant,
    tracer: Option<&Tracer>,
) -> ShardRun<'scope> {
    let (tx, rx) = mpsc::sync_channel::<(usize, Vec<ClientReport>)>(0);
    std::thread::scope(|scope| {
        let gen = std::thread::Builder::new()
            .name("bench-gen".into())
            .spawn_scoped(scope, move || {
                let mut k = 0;
                while Instant::now() < end {
                    let batch = pool.reports[window(k)].to_vec();
                    if tx.send((k, batch)).is_err() {
                        break;
                    }
                    k += 1;
                }
                procfs::thread_ticks()
            })
            .expect("spawn batch generator");
        let mut epochs = Vec::new();
        let mut reports = Vec::new();
        let mut returned = Vec::new();
        let mut released = AnalyzerDatabase::default();
        for (k, batch) in rx {
            let key = Key::Epoch(k as u64);
            let started = Instant::now();
            let epoch = tracer.map(|t| t.start(SPAN_EPOCH, key));
            let span = tracer.map(|t| t.start(SPAN_PIPELINE, key));
            let outcome = fabric.pipeline.process(&spec(seed, k), batch);
            returned.push(Instant::now());
            if let Some(span) = span {
                span.finish();
            }
            let span = tracer.map(|t| t.start(SPAN_MERGE, key));
            if let Ok(report) = &outcome {
                released.merge_from(&report.database);
            }
            if let Some(span) = span {
                span.finish();
            }
            if let Some(epoch) = epoch {
                epoch.finish();
            }
            epochs.push(EpochEntry {
                index: k as u64,
                slots: window(k).map(|s| s as u32).collect(),
                started,
                released: Instant::now(),
            });
            reports.push(outcome.map_err(|e| e.to_string()));
        }
        let gen_ticks = gen.join().expect("batch generator panicked");
        (fabric, epochs, reports, returned, released, gen_ticks)
    })
}

/// Drives the shard for `seconds` on a `fabric-shard` thread, then stops
/// the fabric.
fn measure(
    fabric: Fabric<'_>,
    pool: &Pool,
    seed: u64,
    seconds: f64,
    tracer: Option<&Tracer>,
) -> Result<Window, String> {
    let threads = procfs::threads().len();
    let serve0 = procfs::live_ticks(Part::Serve);
    let main0 = procfs::thread_ticks();
    let total0 = procfs::process_ticks();
    let t0 = Instant::now();
    let end = t0 + Duration::from_secs_f64(seconds);
    let probe = calib::SpeedProbe::start();

    let (fabric, epochs, reports, returned, merged, gen_ticks) = std::thread::scope(|scope| {
        std::thread::Builder::new()
            .name("fabric-shard".into())
            .spawn_scoped(scope, move || drive(fabric, pool, seed, end, tracer))
            .expect("spawn shard")
            .join()
            .expect("shard thread panicked")
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let (reference_us, probe_ticks) = probe.finish();
    let serve = procfs::live_ticks(Part::Serve).saturating_sub(serve0);
    let gen = procfs::thread_ticks() - main0 + probe_ticks + gen_ticks;
    let total = procfs::process_ticks() - total0;
    Ok(Window {
        epochs,
        reports,
        returned,
        merged,
        wall_s,
        ledger: Ledger::from_ticks(total, serve, gen, threads + 8),
        bytes: fabric.stop()?,
        reference_us,
    })
}

fn evaluate(
    w: &Window,
    pool: &Pool,
    deployment: &Deployment,
    seed: u64,
    metrics: &mut Metrics,
    checks: &mut Checks,
) {
    let reports: usize = w.epochs.iter().map(|e| e.slots.len()).sum();
    metrics.set("e2e_reports_per_s", reports as f64 / w.wall_s);
    let ok = w.reports.iter().filter_map(|r| r.as_ref().ok());
    metrics.set(
        "shuffler.forwarded_frac",
        crate::forwarded_frac(ok.map(|r| &r.shuffler_stats)),
    );
    // No serving path: a report is acknowledged when the fabric returns its
    // epoch, and released once the epoch is merged into the database.
    let mut ack = Vec::with_capacity(reports);
    let mut release = Vec::with_capacity(reports);
    for ((entry, report), returned) in w.epochs.iter().zip(&w.reports).zip(&w.returned) {
        let n = entry.slots.len();
        let since_start = |at: &Instant| at.duration_since(entry.started).as_secs_f64() * 1e3;
        let (returned, released) = match report {
            Ok(_) => (since_start(returned), since_start(&entry.released)),
            Err(_) => (f64::INFINITY, f64::INFINITY),
        };
        ack.extend(std::iter::repeat_n(returned, n));
        release.extend(std::iter::repeat_n(released, n));
    }
    let ack = Dist::new(ack);
    metrics.set_quantile("ack_p50_ms", ack.p50());
    metrics.set_quantile("ack_p99_ms", ack.tail(99));
    let release = Dist::new(release);
    metrics.set_quantile("release_p50_ms", release.p50());
    metrics.set_quantile("release_p99_ms", release.tail(99));

    let threshold = deployment.analyzer().share_threshold();
    let mut submitted_slots = Vec::new();
    for (entry, report) in w.epochs.iter().zip(&w.reports) {
        match report {
            Ok(report) => {
                checks::check_epoch(
                    checks,
                    pool,
                    &entry.slots,
                    &report.shuffler_stats,
                    &report.database,
                    threshold,
                );
                submitted_slots.extend_from_slice(&entry.slots);
            }
            Err(e) => checks
                .failures
                .push(format!("epoch {} failed: {e}", entry.index)),
        }
    }
    let submitted = checks::value_counts(pool, submitted_slots);
    checks::check_histogram(checks, &submitted, &w.merged, "released database");

    // The determinism contract: an epoch through the fabric releases the
    // same histogram, byte for byte, as the in-process split deployment on
    // the same canonical batch and spec.
    let n = w.epochs.len();
    let mut checked: Vec<usize> = vec![0, n.saturating_sub(1)];
    checked.dedup();
    for &pos in checked.iter().take(DETERMINISM_EPOCHS) {
        let (Some(entry), Some(Ok(remote))) = (w.epochs.get(pos), w.reports.get(pos)) else {
            continue;
        };
        let mut batch: Vec<ClientReport> = entry
            .slots
            .iter()
            .map(|&s| pool.reports[s as usize].clone())
            .collect();
        batch.sort_by_cached_key(|r| r.outer.to_bytes());
        let k = entry.index;
        match deployment.ingest(&spec(seed, k as usize), &batch) {
            Ok(local) => checks.require(
                local.database.canonical_histogram_bytes()
                    == remote.database.canonical_histogram_bytes(),
                || format!("epoch {k}: fabric histogram differs from the in-process split run"),
            ),
            Err(e) => checks
                .failures
                .push(format!("epoch {k}: in-process replay failed: {e}")),
        }
    }
    if let Err(e) = &w.ledger {
        checks.failures.push(e.clone());
    }
}

/// Sum over epoch spans of `f(epoch's pipeline span, its send, its recv)`.
fn per_epoch(
    spans: &[SpanRecord],
    f: impl Fn(&SpanRecord, Option<&SpanRecord>, Option<&SpanRecord>) -> u64,
) -> u64 {
    spans
        .iter()
        .filter(|s| s.name == SPAN_PIPELINE)
        .map(|p| {
            let child = |name: &str| {
                spans
                    .iter()
                    .find(|c| c.parent == Some(p.id) && c.name == name)
            };
            f(p, child(SPAN_SEND), child(SPAN_RECV))
        })
        .sum()
}

fn layers(w: &Window, tracer: &Tracer, metrics: &mut Metrics) {
    let reports = w.epochs.iter().map(|e| e.slots.len()).sum::<usize>().max(1) as f64;
    if let Ok(ledger) = &w.ledger {
        crate::set_ledger(metrics, ledger, reports, w.reference_us);
    }
    let spans = tracer.spans();
    let ms_of = |name: &str| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e6)
            .collect()
    };
    let epoch_ms = Dist::new(ms_of(SPAN_EPOCH));
    metrics.set(
        "collector.epoch_busy_frac",
        ms_of(SPAN_EPOCH).iter().sum::<f64>() / 1e3 / w.wall_s,
    );
    metrics.set_quantile("collector.epoch_ms_p50", epoch_ms.p50());
    metrics.set("collector.epoch_ms_max", epoch_ms.max());
    metrics.set(
        "collector.epoch_self_us_per_report",
        trace::total_self_time_ns(&spans, SPAN_EPOCH) as f64 / 1e3 / reports,
    );
    metrics.set("collector.epoch_reports_p50", EPOCH_REPORTS as f64);
    metrics.set("collector.epochs", w.epochs.len() as f64);

    // Outside-in split of the shard's blocking call: canonicalize and
    // serialize until the send starts, wait on the shufflers until the
    // items arrive, analyze after.
    let canonicalize = per_epoch(&spans, |p, send, _| {
        send.map_or(0, |s| s.start_ns - p.start_ns)
    });
    let remote = per_epoch(&spans, |_, _, recv| recv.map_or(0, SpanRecord::duration_ns));
    let analyze = per_epoch(&spans, |p, _, recv| recv.map_or(0, |r| p.end_ns - r.end_ns));
    metrics.set(
        "core.canonicalize_us_per_report",
        canonicalize as f64 / 1e3 / reports,
    );
    metrics.set(
        "shuffler.process_us_per_report",
        remote as f64 / 1e3 / reports,
    );

    let ok: Vec<&PipelineReport> = w.reports.iter().filter_map(|r| r.as_ref().ok()).collect();
    let sum = |f: &dyn Fn(&PipelineReport) -> f64| -> f64 { ok.iter().map(|r| f(r)).sum() };
    let per_report = |seconds: f64| seconds * 1e6 / reports;
    metrics.set(
        "shuffler.peel_us_per_report",
        per_report(sum(&|r| r.shuffler_stats.timings.peel_seconds)),
    );
    metrics.set(
        "shuffler.threshold_us_per_report",
        per_report(sum(&|r| r.shuffler_stats.timings.threshold_seconds)),
    );
    metrics.set(
        "shuffler.shuffle_us_per_report",
        per_report(sum(&|r| r.shuffler_stats.timings.shuffle_seconds)),
    );
    let forwarded = sum(&|r| r.shuffler_stats.forwarded as f64);
    metrics.set(
        "shuffle.attempts_per_epoch",
        sum(&|r| r.shuffler_stats.shuffle_attempts as f64) / ok.len().max(1) as f64,
    );
    metrics.set(
        "analyzer.ingest_us_per_item",
        analyze as f64 / 1e3 / forwarded.max(1.0),
    );
    metrics.set_quantile("analyzer.merge_ms_p50", Dist::new(ms_of(SPAN_MERGE)).p50());
    metrics.set(
        "analyzer.recovered_secrets",
        w.merged.recovered_secrets() as f64,
    );
    metrics.set(
        "analyzer.pending_secret_reports",
        w.merged.pending_secret_reports() as f64,
    );
    metrics.set("fabric.bytes_per_report", w.bytes as f64 / reports);
    let shard_ms = |name: &str| -> Dist {
        let ids: Vec<u64> = spans
            .iter()
            .filter(|s| s.name == SPAN_PIPELINE)
            .map(|s| s.id)
            .collect();
        Dist::new(
            spans
                .iter()
                .filter(|s| s.name == name && s.parent.is_some_and(|p| ids.contains(&p)))
                .map(|s| s.duration_ns() as f64 / 1e6)
                .collect(),
        )
    };
    metrics.set_quantile("fabric.send_ms_p50", shard_ms(SPAN_SEND).p50());
    metrics.set_quantile("fabric.recv_wait_ms_p50", shard_ms(SPAN_RECV).p50());
    metrics.set(
        "split.s1_us_per_report",
        per_report(sum(&|r| r.stage_stats[0].timings.total_seconds())),
    );
    metrics.set(
        "split.s2_us_per_report",
        per_report(sum(&|r| r.stage_stats[1].timings.total_seconds())),
    );
}

/// Runs `split-fabric`, set up and measured like the ingest workloads.
pub fn run(name: &str, seed: u64, seconds: f64, traced: bool) -> Run {
    let mut metrics = Metrics::default();
    let mut checks = Checks::default();
    let reps = if traced { 1 } else { SETUP_REPS };
    let window_s = if traced { seconds / 2.0 } else { seconds };
    let mut setup_s = Vec::new();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    for rep in 0..reps {
        let started = Instant::now();
        let deployment = deployment(seed);
        let pool = Pool::seal(
            &deployment.client_keys(),
            deployment.payload_size(),
            deployment.analyzer().share_threshold(),
            Crowd::Blinded,
            seed,
            POOL_REPORTS,
        );
        let phases: Vec<Option<Arc<Tracer>>> = if rep + 1 < reps {
            vec![]
        } else if traced {
            vec![None, Some(Arc::new(Tracer::new()))]
        } else {
            vec![None]
        };
        std::thread::scope(|scope| {
            let start = |tracer: Option<&Arc<Tracer>>| -> Fabric<'_> {
                Fabric::start(scope, &deployment, tracer).expect("start fabric")
            };
            let mut fabric = Some(start(None));
            setup_s.push(started.elapsed().as_secs_f64());
            let floor = calib::measure(seed);
            for tracer in &phases {
                let fabric = match (fabric.take(), tracer) {
                    (Some(plain), None) => plain,
                    (plain, Some(tracer)) => {
                        if let Some(plain) = plain {
                            plain.stop().expect("stop fabric");
                        }
                        start(Some(tracer))
                    }
                    (None, None) => unreachable!("an untraced phase runs first"),
                };
                let w = match measure(fabric, &pool, seed, window_s, tracer.as_deref()) {
                    Ok(w) => w,
                    Err(e) => {
                        checks.failures.push(format!("fabric: {e}"));
                        attempted += 1;
                        failed += 1;
                        continue;
                    }
                };
                attempted += w.reports.len() as u64;
                failed += w.reports.iter().filter(|r| r.is_err()).count() as u64;
                let mut phase_metrics = Metrics::default();
                evaluate(
                    &w,
                    &pool,
                    &deployment,
                    seed,
                    &mut phase_metrics,
                    &mut checks,
                );
                match tracer {
                    None => {
                        metrics = phase_metrics;
                        crate::set_floor(&mut metrics, &floor, true);
                        if let Ok(ledger) = &w.ledger {
                            let reports = w.epochs.iter().map(|e| e.slots.len()).sum::<usize>();
                            crate::set_ledger(
                                &mut metrics,
                                ledger,
                                reports.max(1) as f64,
                                w.reference_us,
                            );
                        }
                    }
                    Some(tracer) => {
                        layers(&w, tracer, &mut metrics);
                        let plain = metrics.get("e2e_reports_per_s");
                        let traced = phase_metrics.get("e2e_reports_per_s");
                        metrics.set(
                            "bench.trace_overhead_frac",
                            plain.zip(traced).map_or(f64::NAN, |(p, t)| (p - t) / p),
                        );
                        crate::write_spans(tracer, name, seed);
                    }
                }
            }
            if let Some(fabric) = fabric {
                fabric.stop().expect("stop fabric");
            }
        });
    }
    crate::set_setup(&mut metrics, &setup_s);
    Run {
        metrics,
        checks,
        attempted,
        failed,
    }
}
