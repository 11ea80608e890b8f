//! `ingest-burst` and `ingest-steady`: sealed reports through a live
//! reactor collector over TCP, into the single-shuffler pipeline with the
//! Stash (SGX) engine, thresholding on, and a share of the reports
//! secret-shared.
//!
//! * `ingest-burst` is a closed loop: two threads, each with one
//!   [`CollectorClient`], submit as fast as acks return and retry a
//!   `RetryAfter` with the same nonce. The queue stays full, so the epoch
//!   pipeline is the bottleneck. Epochs are cut by size.
//! * `ingest-steady` is an open loop at one fixed rate: one thread writes
//!   pipelined `SUBMIT` frames on schedule over two connections, one
//!   thread reads the answers. Every [`STEADY_REPLAY_EVERY`]-th submission
//!   replays the nonce of the latest acknowledged one, as a client does
//!   after a lost ack, and must be answered `Duplicate`. Epochs are cut by
//!   deadline.
//!
//! Both seal a pool of distinct reports at set-up and cycle it with fresh
//! nonces; a slot is reused only a whole pool of submissions later, which
//! is more than one epoch, so no epoch holds the same ciphertext twice.

use std::collections::VecDeque;
use std::io::BufReader;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use prochlo_collector::protocol::{read_frame, write_frame};
use prochlo_collector::{
    Collector, CollectorClient, CollectorConfig, CollectorSummary, EpochPipeline, ReportSink,
    Request, Response, NONCE_LEN,
};
use prochlo_core::{AnalyzerDatabase, Deployment, EngineConfig, ShuffleBackend, ShufflerConfig};
use prochlo_obs::Registry;
use rand::RngCore;

use crate::checks::{self, Checks};
use crate::gen::{self, Crowd, Pool};
use crate::pipeline::{self, EpochLog, RecordingPipeline, TracedPipeline};
use crate::procfs::{self, Ledger, Part};
use crate::report::Metrics;
use crate::stats::{self, Dist};
use crate::trace::{self, Key, Tracer};
use crate::{calib, Run, SETUP_REPS};

/// Program settings of one live-collector workload.
#[derive(Debug, Clone, Copy)]
pub struct Settings {
    /// Size cut: an epoch is cut as soon as this many reports are queued.
    pub epoch_reports: usize,
    /// Deadline cut: an epoch is cut with whatever arrived by then.
    pub epoch_deadline: Duration,
    pub queue_capacity: usize,
    pub retry_after_ms: u32,
    /// Distinct sealed reports cycled through.
    pub pool: usize,
    /// Offered rate of the open loop, reports per second (0: closed loop).
    pub rate: f64,
}

/// `ingest-burst`: 2048-report size cuts behind a two-epoch queue.
pub const BURST: Settings = Settings {
    epoch_reports: 2048,
    epoch_deadline: Duration::from_secs(60),
    queue_capacity: 4096,
    retry_after_ms: 5,
    pool: 4096,
    rate: 0.0,
};

/// `ingest-steady`: 500 ms deadline cuts at a fixed offered rate, about
/// a third of `ingest-burst`'s throughput on a 2-vCPU host, so an epoch's
/// processing ends well inside the next deadline even when neighbours slow
/// the host. Nearer saturation a late epoch makes the next one bigger and
/// slower in turn, and the run measures that feedback rather than the
/// program. The size cut is only a cap below the pool: no epoch may hold a
/// pool slot twice.
pub const STEADY: Settings = Settings {
    epoch_reports: 4096,
    epoch_deadline: Duration::from_millis(500),
    queue_capacity: 1 << 16,
    retry_after_ms: 5,
    pool: 6144,
    rate: 3000.0,
};

/// Shuffle and analyzer worker threads.
pub const PIPELINE_THREADS: usize = 2;
/// Every this-many-th open-loop submission is a deliberate replay.
pub const STEADY_REPLAY_EVERY: u64 = 50;
/// `RetryAfter` answers one submission may get before it counts as failed.
const RETRY_BUDGET: u32 = 20_000;
/// How often the harness samples the collector's backlog.
const BACKLOG_SAMPLE: Duration = Duration::from_millis(100);

pub fn engine() -> EngineConfig {
    EngineConfig {
        backend: ShuffleBackend::Sgx { params: None },
        num_threads: PIPELINE_THREADS,
    }
}

/// The single-topology deployment; its keys are a function of the seed,
/// so every rebuild can open the same sealed pool.
fn deployment(seed: u64) -> Deployment {
    Deployment::builder()
        .config(ShufflerConfig {
            backend: ShuffleBackend::Sgx { params: None },
            num_threads: PIPELINE_THREADS,
            ..ShufflerConfig::default()
        })
        .engine(engine())
        .payload_size(32)
        .build(&mut gen::rng(seed, gen::STREAM_DEPLOYMENT))
}

fn collector_config(settings: &Settings, seed: u64, registry: Arc<Registry>) -> CollectorConfig {
    CollectorConfig {
        worker_threads: 1,
        conn_backlog: 64,
        queue_capacity: settings.queue_capacity,
        max_epoch_reports: settings.epoch_reports,
        epoch_deadline: settings.epoch_deadline,
        retry_after_ms: settings.retry_after_ms,
        io_timeout: Duration::from_secs(120),
        rate_limit_per_conn: Some(u32::MAX),
        seed,
        engine: Some(engine()),
        registry: Some(registry),
        ..CollectorConfig::default()
    }
}

/// A running collector plus what the harness keeps beside it.
struct Live {
    collector: Collector,
    registry: Arc<Registry>,
    log: EpochLog,
    /// The traced pipeline's released database.
    released: Option<Arc<Mutex<AnalyzerDatabase>>>,
}

fn start(
    settings: &Settings,
    seed: u64,
    deployment: Deployment,
    pool: &Arc<Pool>,
    tracer: Option<&Arc<Tracer>>,
) -> Live {
    let registry = Arc::new(Registry::new(prochlo_obs::global().is_enabled()));
    let log = EpochLog::default();
    let mut released = None;
    let pipeline: Box<dyn EpochPipeline> = match tracer {
        None => Box::new(RecordingPipeline::new(
            deployment,
            Arc::clone(pool),
            Arc::clone(&log),
        )),
        Some(tracer) => {
            let db = Arc::new(Mutex::new(AnalyzerDatabase::default()));
            released = Some(Arc::clone(&db));
            Box::new(TracedPipeline::new(
                deployment,
                Arc::clone(pool),
                Arc::clone(&log),
                Arc::clone(tracer),
                db,
            ))
        }
    };
    let collector = Collector::start_with_pipeline(
        pipeline,
        collector_config(settings, seed, Arc::clone(&registry)),
    )
    .expect("start collector");
    Live {
        collector,
        registry,
        log,
        released,
    }
}

/// One submission as the harness saw it.
#[derive(Debug, Clone, Copy)]
struct Sub {
    /// Scheduled (open loop) or first-attempt (closed loop) send time,
    /// seconds after the first submit.
    due_s: f64,
    /// To the final answer; `+∞` if none came or it was wrong.
    latency_ms: f64,
    slot: u32,
    replay: bool,
    /// A fresh submission answered `Ack`.
    acked: bool,
}

/// What the load threads did in one measured window.
#[derive(Debug, Default)]
struct Load {
    subs: Vec<Sub>,
    round_trips: u64,
    retry_afters: u64,
    replays: u64,
    failed: u64,
    late_ms: Vec<f64>,
    /// CPU ticks the load threads reported for themselves at exit.
    gen_ticks: u64,
    backlog: Vec<(f64, f64)>,
}

fn nonce(rng: &mut impl RngCore) -> [u8; NONCE_LEN] {
    let mut nonce = [0u8; NONCE_LEN];
    rng.fill_bytes(&mut nonce);
    nonce
}

/// Closed loop: each client submits its half of the pool in order.
fn burst_client(
    client: &mut CollectorClient,
    t: usize,
    pool: &Pool,
    seed: u64,
    t0: Instant,
    end: Instant,
    tracer: Option<&Tracer>,
) -> Load {
    let mut rng = gen::rng(seed ^ (t as u64 + 1), gen::STREAM_NONCES);
    let half = pool.len() / 2;
    let mut load = Load::default();
    let mut fresh = 0usize;
    while Instant::now() < end {
        let slot = (t + 2 * (fresh % half)) as u32;
        fresh += 1;
        let nonce = nonce(&mut rng);
        let seq = (fresh as u64) << 1 | t as u64;
        let span = tracer.map(|tr| tr.start("client.submit", Key::Seq(seq)));
        let started = Instant::now();
        let mut attempts = 0;
        let verdict = loop {
            attempts += 1;
            load.round_trips += 1;
            match client.submit(&nonce, &pool.wire[slot as usize]) {
                Ok(Response::RetryAfter { millis }) if attempts < RETRY_BUDGET => {
                    load.retry_afters += 1;
                    std::thread::sleep(Duration::from_millis(u64::from(millis)));
                }
                Ok(Response::RetryAfter { .. }) => {
                    load.retry_afters += 1;
                    break None;
                }
                Ok(verdict) => break Some(verdict),
                Err(_) => break None,
            }
        };
        if let Some(span) = span {
            span.finish();
        }
        let acked = matches!(verdict, Some(Response::Ack { .. }));
        load.failed += u64::from(!acked);
        load.subs.push(Sub {
            due_s: started.duration_since(t0).as_secs_f64(),
            latency_ms: if acked {
                started.elapsed().as_secs_f64() * 1e3
            } else {
                f64::INFINITY
            },
            slot,
            replay: false,
            acked,
        });
    }
    load.gen_ticks = procfs::thread_ticks();
    load
}

/// A submission written but not yet answered.
#[derive(Debug, Clone, Copy)]
struct Pending {
    seq: usize,
    attempts: u32,
    replay: bool,
}

/// State the open-loop sender and receiver share.
struct OpenLoop {
    /// Per connection, the submissions in the order their frames went out.
    pending: [Mutex<VecDeque<Pending>>; 2],
    /// Per connection, the latest submission answered `Ack`.
    last_acked: [AtomicU64; 2],
    sending_done: AtomicBool,
    /// Submissions sent but not finally answered.
    outstanding: AtomicU64,
}

const NONE_ACKED: u64 = u64::MAX;

struct Sent {
    nonce: [u8; NONCE_LEN],
    slot: u32,
    conn: usize,
    replay: bool,
}

fn write_submit(stream: &mut &TcpStream, nonce: &[u8; NONCE_LEN], report: &[u8]) -> bool {
    let body = Request::Submit {
        nonce: *nonce,
        report: report.to_vec(),
    }
    .to_bytes();
    write_frame(stream, &body).is_ok()
}

/// The open loop's timetable: submission `i` is due `i / rate` seconds
/// after the start, whenever the sender actually gets to it. Latency is
/// timed from the due time, so a stalled sender charges its stall to every
/// submission it delayed.
#[derive(Debug, Clone, Copy)]
struct Schedule {
    t0: Instant,
    rate: f64,
}

impl Schedule {
    fn due_s(&self, i: usize) -> f64 {
        i as f64 / self.rate
    }

    fn due(&self, i: usize) -> Instant {
        self.t0 + Duration::from_secs_f64(self.due_s(i))
    }

    /// How far behind its due time submission `i` went out.
    fn late_ms(&self, i: usize, sent: Instant) -> f64 {
        sent.saturating_duration_since(self.due(i)).as_secs_f64() * 1e3
    }

    /// Due time to final answer.
    fn latency_ms(&self, i: usize, answered: Instant) -> f64 {
        (answered.duration_since(self.t0).as_secs_f64() - self.due_s(i)) * 1e3
    }
}

/// Re-sends every waiting retry whose back-off hint has expired; returns
/// how many writes failed.
fn resend_due(
    waiting: &mut Vec<(usize, u32, Instant)>,
    resend: &dyn Fn(usize, u32) -> bool,
) -> u64 {
    let now = Instant::now();
    let mut failures = 0;
    waiting.retain(|&(seq, attempts, at)| {
        if at > now {
            return true;
        }
        failures += u64::from(!resend(seq, attempts));
        false
    });
    failures
}

/// Open-loop sender: submission `i` is due `i / rate` after the start and
/// goes out on connection `i % 2`; `RetryAfter` answers come back over
/// `retries` and are re-sent (same nonce) when their hint expires.
#[allow(clippy::too_many_arguments)]
fn steady_sender(
    streams: &[TcpStream; 2],
    shared: &OpenLoop,
    retries: &mpsc::Receiver<(usize, u32, Instant)>,
    pool: &Pool,
    schedule: Schedule,
    seed: u64,
    seconds: f64,
    tracer: Option<&Tracer>,
) -> (Vec<Sent>, Vec<f64>, u64) {
    let mut rng = gen::rng(seed, gen::STREAM_NONCES);
    let mut sent: Vec<Sent> = Vec::new();
    let mut late_ms = Vec::new();
    let mut waiting: Vec<(usize, u32, Instant)> = Vec::new();
    let mut fresh = 0usize;
    let total = (seconds * schedule.rate).ceil() as usize;
    let resend = |seq: usize, attempts: u32, sent: &[Sent]| {
        let s = &sent[seq];
        shared.pending[s.conn]
            .lock()
            .expect("pending poisoned")
            .push_back(Pending {
                seq,
                attempts,
                replay: s.replay,
            });
        write_submit(&mut &streams[s.conn], &s.nonce, &pool.wire[s.slot as usize])
    };
    let mut write_failures = 0;
    for i in 0..total {
        let due = schedule.due(i);
        waiting.extend(retries.try_iter());
        write_failures += resend_due(&mut waiting, &|seq, attempts| resend(seq, attempts, &sent));
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        late_ms.push(schedule.late_ms(i, Instant::now()));
        let conn = i % 2;
        let last = shared.last_acked[conn].load(Ordering::SeqCst);
        let replay_of = (i as u64 % STEADY_REPLAY_EVERY == STEADY_REPLAY_EVERY - 1
            && last != NONE_ACKED)
            .then_some(last as usize);
        let entry = match replay_of {
            Some(orig) => Sent {
                nonce: sent[orig].nonce,
                slot: sent[orig].slot,
                conn,
                replay: true,
            },
            None => {
                let slot = (fresh % pool.len()) as u32;
                fresh += 1;
                Sent {
                    nonce: nonce(&mut rng),
                    slot,
                    conn,
                    replay: false,
                }
            }
        };
        sent.push(entry);
        shared.outstanding.fetch_add(1, Ordering::SeqCst);
        let span = tracer.map(|tr| tr.start("client.send", Key::Seq(i as u64)));
        write_failures += u64::from(!resend(i, 0, &sent));
        if let Some(span) = span {
            span.finish();
        }
    }
    shared.sending_done.store(true, Ordering::SeqCst);
    // Serve retries until every submission has its final answer.
    while shared.outstanding.load(Ordering::SeqCst) > 0 {
        match retries.recv_timeout(Duration::from_millis(20)) {
            Ok(retry) => waiting.push(retry),
            Err(mpsc::RecvTimeoutError::Timeout) => {}
            Err(mpsc::RecvTimeoutError::Disconnected) => break,
        }
        write_failures += resend_due(&mut waiting, &|seq, attempts| resend(seq, attempts, &sent));
    }
    (sent, late_ms, write_failures)
}

/// Final answer of each submission: latency and verdict.
#[derive(Debug, Clone, Copy, Default)]
struct Answer {
    at: Option<Instant>,
    acked: bool,
    duplicate: bool,
}

/// Open-loop receiver: reads answers off both connections in arrival
/// order and matches each to the oldest unanswered frame on its
/// connection (the collector answers a connection's frames in order).
fn steady_receiver(
    streams: &[TcpStream; 2],
    shared: &OpenLoop,
    retries: mpsc::Sender<(usize, u32, Instant)>,
) -> (Vec<Answer>, u64, u64) {
    let mut readers = [
        BufReader::new(streams[0].try_clone().expect("clone stream")),
        BufReader::new(streams[1].try_clone().expect("clone stream")),
    ];
    let mut answers: Vec<Answer> = Vec::new();
    let mut retry_afters = 0;
    let mut round_trips = 0;
    let finished = |shared: &OpenLoop| {
        shared.sending_done.load(Ordering::SeqCst) && shared.outstanding.load(Ordering::SeqCst) == 0
    };
    while !finished(shared) {
        let ready =
            match crate::poll::readable(&[&streams[0], &streams[1]], Duration::from_millis(50)) {
                Ok(ready) => ready,
                Err(_) => break,
            };
        for conn in 0..2 {
            if !ready[conn] {
                continue;
            }
            loop {
                let Ok(frame) = read_frame(&mut readers[conn], 1 << 16) else {
                    return (answers, retry_afters, round_trips);
                };
                let now = Instant::now();
                round_trips += 1;
                let pending = shared.pending[conn]
                    .lock()
                    .expect("pending poisoned")
                    .pop_front();
                let Some(Pending {
                    seq,
                    attempts,
                    replay,
                }) = pending
                else {
                    return (answers, retry_afters, round_trips);
                };
                if answers.len() <= seq {
                    answers.resize(seq + 1, Answer::default());
                }
                match Response::from_bytes(&frame) {
                    Ok(Response::RetryAfter { millis }) if attempts + 1 < RETRY_BUDGET => {
                        retry_afters += 1;
                        let at = now + Duration::from_millis(u64::from(millis));
                        if retries.send((seq, attempts + 1, at)).is_err() {
                            return (answers, retry_afters, round_trips);
                        }
                    }
                    verdict => {
                        let acked = !replay && matches!(verdict, Ok(Response::Ack { .. }));
                        let duplicate = replay && matches!(verdict, Ok(Response::Duplicate));
                        if acked {
                            shared.last_acked[conn].store(seq as u64, Ordering::SeqCst);
                        }
                        answers[seq] = Answer {
                            at: Some(now),
                            acked,
                            duplicate,
                        };
                        shared.outstanding.fetch_sub(1, Ordering::SeqCst);
                    }
                }
                if readers[conn].buffer().is_empty() {
                    break;
                }
            }
        }
    }
    (answers, retry_afters, round_trips)
}

/// Clients connected during set-up.
enum Clients {
    Burst(Vec<CollectorClient>),
    Steady([TcpStream; 2]),
}

fn connect(live: &Live, settings: &Settings) -> Clients {
    let addr = live.collector.local_addr();
    if settings.rate > 0.0 {
        let open = || {
            let stream = TcpStream::connect(addr).expect("connect");
            stream.set_nodelay(true).expect("nodelay");
            stream
                .set_read_timeout(Some(Duration::from_secs(60)))
                .expect("read timeout");
            stream
        };
        Clients::Steady([open(), open()])
    } else {
        Clients::Burst(
            (0..2)
                .map(|_| {
                    CollectorClient::connect_with_timeout(addr, Duration::from_secs(60))
                        .expect("connect")
                })
                .collect(),
        )
    }
}

/// Everything one measured window produced.
struct Window {
    load: Load,
    summary: CollectorSummary,
    merged: AnalyzerDatabase,
    epochs: Vec<pipeline::EpochEntry>,
    t0: Instant,
    wall_s: f64,
    ledger: Result<Ledger, String>,
    turns: f64,
    released: Option<AnalyzerDatabase>,
    /// Median time of one reference sample during the window.
    reference_us: f64,
}

/// Runs the load for `seconds`, then drains the collector into the
/// released database. The clock runs from the first submit until the
/// merged database exists.
fn measure(
    live: Live,
    clients: Clients,
    pool: &Pool,
    settings: &Settings,
    seed: u64,
    seconds: f64,
    tracer: Option<&Tracer>,
) -> Window {
    let threads = procfs::threads().len();
    let serve0 = procfs::live_ticks(Part::Serve);
    let main0 = procfs::thread_ticks();
    let total0 = procfs::process_ticks();
    let t0 = Instant::now();
    let end = t0 + Duration::from_secs_f64(seconds);
    let probe = calib::SpeedProbe::start();

    let sample_backlog = |backlog: &mut Vec<(f64, f64)>| {
        let stats = live.collector.stats();
        backlog.push((
            t0.elapsed().as_secs_f64(),
            stats.ingest.accepted as f64 - stats.reports_processed as f64,
        ));
    };

    let mut load = match clients {
        Clients::Burst(mut clients) => std::thread::scope(|scope| {
            let handles: Vec<_> = clients
                .iter_mut()
                .enumerate()
                .map(|(t, client)| {
                    std::thread::Builder::new()
                        .name(format!("bench-gen-{t}"))
                        .spawn_scoped(scope, move || {
                            burst_client(client, t, pool, seed, t0, end, tracer)
                        })
                        .expect("spawn load thread")
                })
                .collect();
            let mut backlog = Vec::new();
            while !handles.iter().all(|h| h.is_finished()) {
                sample_backlog(&mut backlog);
                std::thread::sleep(BACKLOG_SAMPLE);
            }
            let mut total = Load {
                backlog,
                ..Load::default()
            };
            for handle in handles {
                let load = handle.join().expect("load thread panicked");
                total.subs.extend(load.subs);
                total.round_trips += load.round_trips;
                total.retry_afters += load.retry_afters;
                total.failed += load.failed;
                total.gen_ticks += load.gen_ticks;
            }
            total
        }),
        Clients::Steady(streams) => {
            let shared = OpenLoop {
                pending: [Mutex::default(), Mutex::default()],
                last_acked: [AtomicU64::new(NONE_ACKED), AtomicU64::new(NONE_ACKED)],
                sending_done: AtomicBool::new(false),
                outstanding: AtomicU64::new(0),
            };
            let (retry_tx, retry_rx) = mpsc::channel();
            let schedule = Schedule {
                t0,
                rate: settings.rate,
            };
            std::thread::scope(|scope| {
                let streams = &streams;
                let shared = &shared;
                let sender = std::thread::Builder::new()
                    .name("bench-send".into())
                    .spawn_scoped(scope, move || {
                        let out = steady_sender(
                            streams, shared, &retry_rx, pool, schedule, seed, seconds, tracer,
                        );
                        (out, procfs::thread_ticks())
                    })
                    .expect("spawn sender");
                let receiver = std::thread::Builder::new()
                    .name("bench-recv".into())
                    .spawn_scoped(scope, move || {
                        let out = steady_receiver(streams, shared, retry_tx);
                        (out, procfs::thread_ticks())
                    })
                    .expect("spawn receiver");
                let mut backlog = Vec::new();
                while !(sender.is_finished() && receiver.is_finished()) {
                    sample_backlog(&mut backlog);
                    std::thread::sleep(BACKLOG_SAMPLE);
                }
                let ((sent, late_ms, write_failures), send_ticks) =
                    sender.join().expect("sender panicked");
                let ((answers, retry_afters, round_trips), recv_ticks) =
                    receiver.join().expect("receiver panicked");
                let mut load = Load {
                    late_ms,
                    backlog,
                    retry_afters,
                    round_trips,
                    gen_ticks: send_ticks + recv_ticks,
                    failed: write_failures,
                    ..Load::default()
                };
                for (seq, s) in sent.iter().enumerate() {
                    let answer = answers.get(seq).copied().unwrap_or_default();
                    let ok = answer.acked || answer.duplicate;
                    load.replays += u64::from(s.replay);
                    load.failed += u64::from(!ok);
                    load.subs.push(Sub {
                        due_s: schedule.due_s(seq),
                        latency_ms: match (ok, answer.at) {
                            (true, Some(at)) => schedule.latency_ms(seq, at),
                            _ => f64::INFINITY,
                        },
                        slot: s.slot,
                        replay: s.replay,
                        acked: answer.acked,
                    });
                }
                load
            })
        }
    };

    let serve_end = procfs::live_ticks(Part::Serve);
    let main_end = procfs::thread_ticks();
    let turns = live.registry.snapshot().get("net.loop.turn").unwrap_or(0.0);
    let Live {
        collector,
        log,
        released,
        ..
    } = live;
    let summary = collector.shutdown();
    let merged = summary.merged_database();
    let wall_s = t0.elapsed().as_secs_f64();
    let (reference_us, probe_ticks) = probe.finish();
    let total = procfs::process_ticks() - total0;
    load.gen_ticks += main_end - main0 + probe_ticks;
    let ledger = Ledger::from_ticks(
        total,
        serve_end.saturating_sub(serve0),
        load.gen_ticks,
        threads + 4,
    );
    let mut epochs = std::mem::take(&mut *log.lock().expect("epoch log poisoned"));
    epochs.sort_by_key(|e| e.index);
    let released = released.map(|db| std::mem::take(&mut *db.lock().expect("released poisoned")));
    Window {
        load,
        summary,
        merged,
        epochs,
        t0,
        wall_s,
        ledger,
        turns,
        released,
        reference_us,
    }
}

/// One sealed pool, a collector in front of it, and connected clients.
struct Setup {
    pool: Arc<Pool>,
    live: Live,
    clients: Clients,
    share_threshold: usize,
}

fn set_up(settings: &Settings, seed: u64) -> Setup {
    let deployment = deployment(seed);
    let share_threshold = deployment.analyzer().share_threshold();
    let pool = Arc::new(Pool::seal(
        &deployment.client_keys(),
        deployment.payload_size(),
        share_threshold,
        Crowd::Hashed,
        seed,
        settings.pool,
    ));
    let live = start(settings, seed, deployment, &pool, None);
    let clients = connect(&live, settings);
    Setup {
        pool,
        live,
        clients,
        share_threshold,
    }
}

/// End-to-end figures of one window, and its correctness checks.
fn evaluate(
    w: &Window,
    pool: &Pool,
    share_threshold: usize,
    metrics: &mut Metrics,
    checks: &mut Checks,
) {
    let stats = &w.summary.stats;
    let reports = stats.reports_processed;
    let epochs = w
        .summary
        .epochs
        .iter()
        .filter_map(|e| e.outcome.as_ref().ok());
    metrics.set(
        "shuffler.forwarded_frac",
        crate::forwarded_frac(epochs.map(|r| &r.shuffler_stats)),
    );
    metrics.set("e2e_reports_per_s", reports as f64 / w.wall_s);
    let ack = Dist::new(w.load.subs.iter().map(|s| s.latency_ms).collect());
    metrics.set_quantile("ack_p50_ms", ack.p50());
    metrics.set_quantile("ack_p99_ms", ack.tail(99));

    let accepted: Vec<(usize, u32)> = w
        .load
        .subs
        .iter()
        .enumerate()
        .filter(|(_, s)| s.acked)
        .map(|(i, s)| (i, s.slot))
        .collect();
    match checks::attribute(accepted.iter().copied(), w.load.subs.len(), &w.epochs) {
        Ok(epoch_of) => {
            let ages: Vec<f64> = w
                .load
                .subs
                .iter()
                .zip(&epoch_of)
                .filter(|(s, _)| !s.replay)
                .map(|(s, pos)| match pos {
                    Some(pos) => {
                        let released = w.epochs[*pos].released.duration_since(w.t0);
                        (released.as_secs_f64() - s.due_s) * 1e3
                    }
                    None => f64::INFINITY,
                })
                .collect();
            let release = Dist::new(ages);
            metrics.set_quantile("release_p50_ms", release.p50());
            metrics.set_quantile("release_p99_ms", release.tail(99));
        }
        Err(e) => checks.failures.push(e),
    }

    let acked = accepted.len() as u64;
    let epoch_received: usize = w.epochs.iter().map(|e| e.slots.len()).sum();
    checks.require(
        acked == stats.ingest.accepted
            && acked == epoch_received as u64
            && acked == stats.reports_processed,
        || {
            format!(
                "acked {acked}, accepted {}, epochs received {epoch_received}, processed {}",
                stats.ingest.accepted, stats.reports_processed
            )
        },
    );
    checks.require(stats.ingest.duplicates == w.load.replays, || {
        format!(
            "{} duplicates answered for {} replays sent",
            stats.ingest.duplicates, w.load.replays
        )
    });
    checks.require(w.summary.epochs.len() == w.epochs.len(), || {
        format!(
            "collector cut {} epochs, the pipeline saw {}",
            w.summary.epochs.len(),
            w.epochs.len()
        )
    });
    for (result, entry) in w.summary.epochs.iter().zip(&w.epochs) {
        match &result.outcome {
            Ok(report) => checks::check_epoch(
                checks,
                pool,
                &entry.slots,
                &report.shuffler_stats,
                &report.database,
                share_threshold,
            ),
            Err(e) => checks
                .failures
                .push(format!("epoch {} failed: {e}", result.index)),
        }
    }
    let submitted = checks::value_counts(pool, accepted.iter().map(|a| a.1));
    checks::check_histogram(checks, &submitted, &w.merged, "released database");
    if let Some(released) = &w.released {
        checks.require(
            released.canonical_histogram_bytes() == w.merged.canonical_histogram_bytes(),
            || "the traced pipeline's released database differs from the collector's".into(),
        );
    }
    if let Err(e) = &w.ledger {
        checks.failures.push(e.clone());
    }
}

/// Per-layer figures of a traced window.
fn layers(w: &Window, tracer: &Tracer, metrics: &mut Metrics) {
    let reports = w.summary.stats.reports_processed.max(1) as f64;
    if let Ok(ledger) = &w.ledger {
        crate::set_ledger(metrics, ledger, reports, w.reference_us);
    }
    let spans = tracer.spans();
    let secs_of = |name: &str| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e9)
            .collect()
    };
    let epoch_s = secs_of(pipeline::SPAN_EPOCH);
    metrics.set(
        "collector.epoch_busy_frac",
        epoch_s.iter().sum::<f64>() / w.wall_s,
    );
    let epoch_ms = Dist::new(epoch_s.iter().map(|s| s * 1e3).collect());
    metrics.set_quantile("collector.epoch_ms_p50", epoch_ms.p50());
    metrics.set("collector.epoch_ms_max", epoch_ms.max());
    metrics.set(
        "collector.epoch_self_us_per_report",
        trace::total_self_time_ns(&spans, pipeline::SPAN_EPOCH) as f64 / 1e3 / reports,
    );
    let sizes: Vec<f64> = w.epochs.iter().map(|e| e.slots.len() as f64).collect();
    metrics.set("collector.epoch_reports_p50", stats::median(&sizes));
    metrics.set("collector.epochs", w.epochs.len() as f64);
    // Backlog is a sawtooth that drops by a whole epoch at every cut; a
    // fit over whole cut-to-cut cycles keeps its phase out of the slope.
    let cuts: Vec<f64> = w
        .epochs
        .iter()
        .map(|e| e.started.duration_since(w.t0).as_secs_f64())
        .collect();
    let (first, last) = (cuts.first().copied(), cuts.last().copied());
    let cycles: Vec<(f64, f64)> = w
        .load
        .backlog
        .iter()
        .copied()
        .filter(|(t, _)| first.zip(last).is_some_and(|(a, b)| (a..=b).contains(t)))
        .collect();
    metrics.set("collector.backlog_slope_per_s", stats::slope(&cycles));
    let s = &w.summary.stats;
    metrics.set("collector.queue_peak", s.ingest.peak_queue_depth as f64);
    metrics.set(
        "collector.retry_after_frac",
        w.load.retry_afters as f64 / w.load.round_trips.max(1) as f64,
    );
    metrics.set("collector.duplicates", s.ingest.duplicates as f64);
    metrics.set("net.turns_per_report", w.turns / reports);

    let per_report_us = |name: &str| secs_of(name).iter().sum::<f64>() * 1e6 / reports;
    metrics.set(
        "core.canonicalize_us_per_report",
        per_report_us(pipeline::SPAN_CANONICALIZE),
    );
    metrics.set(
        "shuffler.process_us_per_report",
        per_report_us(pipeline::SPAN_SHUFFLE),
    );
    let stage: Vec<_> = w
        .summary
        .epochs
        .iter()
        .filter_map(|e| e.outcome.as_ref().ok())
        .map(|r| &r.shuffler_stats)
        .collect();
    let sum = |f: &dyn Fn(&prochlo_core::shuffler::ShufflerStats) -> f64| -> f64 {
        stage.iter().map(|s| f(s)).sum()
    };
    metrics.set(
        "shuffler.peel_us_per_report",
        sum(&|s| s.timings.peel_seconds) * 1e6 / reports,
    );
    metrics.set(
        "shuffler.threshold_us_per_report",
        sum(&|s| s.timings.threshold_seconds) * 1e6 / reports,
    );
    metrics.set(
        "shuffler.shuffle_us_per_report",
        sum(&|s| s.timings.shuffle_seconds) * 1e6 / reports,
    );
    let forwarded = sum(&|s| s.forwarded as f64);
    metrics.set(
        "shuffle.attempts_per_epoch",
        sum(&|s| s.shuffle_attempts as f64) / stage.len().max(1) as f64,
    );
    metrics.set(
        "analyzer.ingest_us_per_item",
        secs_of(pipeline::SPAN_ANALYZE).iter().sum::<f64>() * 1e6 / forwarded.max(1.0),
    );
    let merge_ms = Dist::new(
        secs_of(pipeline::SPAN_MERGE)
            .iter()
            .map(|s| s * 1e3)
            .collect(),
    );
    metrics.set_quantile("analyzer.merge_ms_p50", merge_ms.p50());
    metrics.set(
        "analyzer.recovered_secrets",
        w.merged.recovered_secrets() as f64,
    );
    metrics.set(
        "analyzer.pending_secret_reports",
        w.merged.pending_secret_reports() as f64,
    );
    if !w.load.late_ms.is_empty() {
        metrics.set_quantile(
            "bench.gen_late_p99_ms",
            Dist::new(w.load.late_ms.clone()).tail(99),
        );
    }
}

/// Runs `ingest-burst` or `ingest-steady`.
///
/// Untraced: set up [`SETUP_REPS`] times (the last set-up is measured),
/// then one window of `seconds`. Traced: an untraced and a traced window of
/// `seconds / 2` each, on fresh collectors over the same pool, so tracing
/// overhead is measured in the same process.
pub fn run(name: &str, settings: &Settings, seed: u64, seconds: f64, traced: bool) -> Run {
    let mut metrics = Metrics::default();
    let mut checks = Checks::default();
    let reps = if traced { 1 } else { SETUP_REPS };
    let mut setup_s = Vec::new();
    let mut setup = None;
    for _ in 0..reps {
        let started = Instant::now();
        let next = set_up(settings, seed);
        setup_s.push(started.elapsed().as_secs_f64());
        if let Some(old) = setup.replace(next) {
            let Setup { live, clients, .. } = old;
            drop(clients);
            live.collector.shutdown();
        }
    }
    let Setup {
        pool,
        live,
        clients,
        share_threshold,
    } = setup.expect("at least one set-up");
    crate::set_setup(&mut metrics, &setup_s);

    let window_s = if traced { seconds / 2.0 } else { seconds };
    let plain = measure(live, clients, &pool, settings, seed, window_s, None);
    evaluate(&plain, &pool, share_threshold, &mut metrics, &mut checks);
    let floor = calib::measure(seed);
    crate::set_floor(&mut metrics, &floor, false);
    if let Ok(ledger) = &plain.ledger {
        let reports = plain.summary.stats.reports_processed.max(1) as f64;
        crate::set_ledger(&mut metrics, ledger, reports, plain.reference_us);
    }
    let mut attempted = plain.load.subs.len() as u64;
    let mut failed = plain.load.failed;

    if traced {
        let tracer = Arc::new(Tracer::new());
        let deployment = deployment(seed);
        let live = start(settings, seed, deployment, &pool, Some(&tracer));
        let clients = connect(&live, settings);
        let w = measure(
            live,
            clients,
            &pool,
            settings,
            seed,
            window_s,
            Some(&tracer),
        );
        let mut traced_metrics = Metrics::default();
        evaluate(&w, &pool, share_threshold, &mut traced_metrics, &mut checks);
        attempted += w.load.subs.len() as u64;
        failed += w.load.failed;
        layers(&w, &tracer, &mut metrics);
        let overhead = if settings.rate > 0.0 {
            let (plain, traced) = (metrics.get("ack_p50_ms"), traced_metrics.get("ack_p50_ms"));
            traced.zip(plain).map(|(t, p)| (t - p) / p)
        } else {
            let (plain, traced) = (
                metrics.get("e2e_reports_per_s"),
                traced_metrics.get("e2e_reports_per_s"),
            );
            traced.zip(plain).map(|(t, p)| (p - t) / p)
        };
        metrics.set("bench.trace_overhead_frac", overhead.unwrap_or(f64::NAN));
        crate::write_spans(&tracer, name, seed);
    }
    Run {
        metrics,
        checks,
        attempted,
        failed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_loop_times_from_the_schedule_not_the_send() {
        let t0 = Instant::now();
        let schedule = Schedule { t0, rate: 1000.0 };
        let ms = |m: f64| Duration::from_secs_f64(m / 1e3);
        // Submission 10 is due at 10 ms.
        assert_eq!(schedule.due(10), t0 + ms(10.0));
        // Sent on time: not late. Sent early (the sender never does, but a
        // coarse clock could say so): not negatively late.
        assert_eq!(schedule.late_ms(10, t0 + ms(10.0)), 0.0);
        assert_eq!(schedule.late_ms(10, t0 + ms(9.0)), 0.0);
        // A 5 ms stall makes it 5 ms late, and its answer 1 ms after the
        // send counts 6 ms of latency, not 1.
        assert!((schedule.late_ms(10, t0 + ms(15.0)) - 5.0).abs() < 1e-6);
        assert!((schedule.latency_ms(10, t0 + ms(16.0)) - 6.0).abs() < 1e-6);
    }
}
