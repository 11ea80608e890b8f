//! The collector service: reactor event loops and the epoch manager.
//!
//! Thread layout (all plain `std::thread`, no async runtime):
//!
//! * **event loops** (N) — each owns a [`prochlo_net::Reactor`] and
//!   multiplexes thousands of nonblocking connections: accept → register →
//!   on-readable: incremental frame parse → [`IngestCore`] → queue the
//!   response for writability. Loop 0 additionally owns the `TcpListener`
//!   and deals fresh connections round-robin across all loops through
//!   per-loop intake queues. A connection is one [`prochlo_net::Conn`]
//!   state machine plus an optional [`TokenBucket`] rate limiter; a
//!   connection that completes no frame within `io_timeout` is evicted by
//!   the reactor's deadline sweep (slow-loris defense), and one that
//!   out-runs its rate limit is answered with the same `RetryAfter`
//!   backpressure the bounded queue uses.
//! * **epoch** — owns the [`Deployment`]; drains the report queue with a
//!   count-or-deadline policy and feeds each batch through an
//!   [`prochlo_core::EpochSession`], which canonicalizes it and runs
//!   shuffling + analysis under a deterministic [`EpochSpec`].
//!
//! Shutdown is graceful and ordered: set the flag and wake every loop,
//! flush what the sockets will take, close the connections, then close the
//! report queue so the epoch manager drains every in-flight report into
//! final epochs before exiting. Acknowledged reports are by construction
//! already in the queue, so none are lost.

use std::collections::{BTreeMap, VecDeque};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::Mutex;

use prochlo_core::framing::{FrameError, FramePolicy};
use prochlo_core::{
    AnalyzerDatabase, ClientReport, Deployment, EngineConfig, EpochSpec, PipelineError,
    PipelineReport,
};
use prochlo_net::reactor::Event;
use prochlo_net::{Conn, ConnStatus, FlushStatus, Interest, Reactor, Token, TokenBucket, Waker};
use prochlo_obs::{Counter, Gauge};

use crate::error::CollectorError;
use crate::ingest::{IngestConfig, IngestCore, IngestStats};
use crate::knobs;
use crate::protocol::{frame_policy, write_frame, Request, Response};

/// How long one reactor turn may block before re-checking the shutdown
/// flag even without traffic, wakes, or deadlines.
const POLL_INTERVAL: Duration = Duration::from_millis(100);

/// Pending-write ceiling per connection: past this, the loop stops reading
/// from the peer (read interest drops) until the backlog flushes, so one
/// slow reader pipelining requests cannot balloon its response buffer.
const WRITE_PAUSE_BYTES: usize = 256 << 10;

/// Configuration of a running collector.
#[derive(Debug, Clone)]
pub struct CollectorConfig {
    /// Address to bind; port 0 picks an ephemeral port.
    pub addr: SocketAddr,
    /// Event-loop threads, each multiplexing its share of the open
    /// connections. `0` means auto: the `PROCHLO_COLLECTOR_EVENT_THREADS`
    /// knob when set, otherwise every available core — matching the
    /// `PROCHLO_SHUFFLE_THREADS` convention (and like every knob, a set-
    /// but-invalid value is a hard startup error, never a silent default).
    pub worker_threads: usize,
    /// Maximum concurrently open connections across all event loops;
    /// arrivals past the cap are answered `RetryAfter` and closed.
    pub conn_backlog: usize,
    /// Reports queued but not yet cut into an epoch (the memory bound).
    pub queue_capacity: usize,
    /// Cut an epoch as soon as this many reports are queued.
    pub max_epoch_reports: usize,
    /// Cut an epoch with whatever arrived once this much time passes.
    pub epoch_deadline: Duration,
    /// Back-off hint sent with `RetryAfter` responses.
    pub retry_after_ms: u32,
    /// Maximum frame size accepted from a peer.
    pub max_frame_len: usize,
    /// Maximum serialized report size accepted.
    pub max_report_len: usize,
    /// Nonces remembered for replay dedup.
    pub dedup_capacity: usize,
    /// Per-connection progress deadline: a connection that completes no
    /// frame (and drains no pending response) for this long is evicted.
    pub io_timeout: Duration,
    /// Per-connection submission rate limit in reports per second
    /// (token bucket with a one-second burst). `None` defers to the
    /// `PROCHLO_COLLECTOR_RATE_LIMIT` knob, whose absence means unlimited.
    /// A limited connection is answered `RetryAfter`, the same structured
    /// backpressure the bounded queue produces.
    pub rate_limit_per_conn: Option<u32>,
    /// Deployment seed; with the epoch index it fixes every noise draw
    /// (see [`prochlo_core::epoch_rng`]).
    pub seed: u64,
    /// Shuffle-engine override the epoch manager attaches to every
    /// [`EpochSpec`]: backend selection plus worker-thread count. `None`
    /// uses the deployment's own engine. Either way the thread count
    /// resolves through the `PROCHLO_SHUFFLE_THREADS` knob when left at
    /// `0` (see [`prochlo_core::exec::resolve_threads`]).
    pub engine: Option<EngineConfig>,
    /// Telemetry registry the service reports into; `None` (the default)
    /// uses the process-wide [`prochlo_obs::global`] registry. Tests that
    /// assert exact metric counts supply their own so concurrently
    /// running collectors cannot cross-contaminate.
    pub registry: Option<Arc<prochlo_obs::Registry>>,
}

impl Default for CollectorConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".parse().expect("loopback address"),
            worker_threads: 4,
            conn_backlog: 1024,
            queue_capacity: 1 << 16,
            max_epoch_reports: 8192,
            epoch_deadline: Duration::from_millis(500),
            retry_after_ms: 100,
            max_frame_len: 64 << 10,
            max_report_len: 16 << 10,
            dedup_capacity: 1 << 20,
            io_timeout: Duration::from_secs(10),
            rate_limit_per_conn: None,
            seed: 0,
            engine: None,
            registry: None,
        }
    }
}

/// The processing stage behind the epoch manager: everything that happens
/// to a canonical batch once it has been cut.
///
/// The default is [`LocalPipeline`] — shuffle and analyze in-process via a
/// [`Deployment`] — but a collector shard in a networked topology plugs in
/// a pipeline that ships the batch to out-of-process shufflers (see the
/// fabric crate's `RemoteSplitPipeline`). Implementations receive batches
/// in arrival order and **must canonicalize** them with
/// [`prochlo_core::canonicalize_batch`] before consuming epoch randomness,
/// so identically-seeded runs replay byte-identically regardless of client
/// scheduling.
pub trait EpochPipeline: Send {
    /// Processes one epoch batch under `spec`.
    fn process(
        &mut self,
        spec: &EpochSpec,
        batch: Vec<ClientReport>,
    ) -> Result<PipelineReport, PipelineError>;
}

/// The in-process pipeline: an [`prochlo_core::EpochSession`] per batch —
/// canonicalize, shuffle, analyze — against an owned [`Deployment`].
#[derive(Debug)]
pub struct LocalPipeline {
    deployment: Deployment,
}

impl LocalPipeline {
    /// Wraps a deployment; the epoch manager becomes the only thread to
    /// touch it.
    pub fn new(deployment: Deployment) -> Self {
        Self { deployment }
    }
}

impl EpochPipeline for LocalPipeline {
    fn process(
        &mut self,
        spec: &EpochSpec,
        batch: Vec<ClientReport>,
    ) -> Result<PipelineReport, PipelineError> {
        // An epoch session canonicalizes the batch at finish() (ordering by
        // ciphertext bytes erases arrival order one stage before the
        // shuffler even sees it, and makes the batch a pure function of its
        // *contents*).
        let mut session = self.deployment.session(spec.clone());
        session.extend(batch);
        session.finish()
    }
}

/// What one epoch produced.
#[derive(Debug)]
pub struct EpochResult {
    /// Epoch index, starting at 0.
    pub index: u64,
    /// Reports the epoch batch contained.
    pub reports: usize,
    /// Wall-clock seconds the pipeline spent on the batch (the
    /// `collector.epoch.process` span), the sample behind epoch-cut
    /// latency percentiles. `0.0` when telemetry is disabled.
    pub process_seconds: f64,
    /// The pipeline's output for the batch.
    pub outcome: Result<PipelineReport, PipelineError>,
}

/// A point-in-time snapshot of the service counters.
#[derive(Debug, Clone, Default)]
pub struct CollectorStats {
    /// Parse/dedup/enqueue counters.
    pub ingest: IngestStats,
    /// Connections accepted.
    pub connections: u64,
    /// Connections refused because the open-connection cap was reached.
    pub connections_refused: u64,
    /// Connections evicted at the progress deadline (slow loris, stalled
    /// readers).
    pub connections_evicted: u64,
    /// Epochs cut so far.
    pub epochs_cut: u64,
    /// Reports handed to the pipeline across all epochs.
    pub reports_processed: u64,
}

/// Everything the service threads share. Counted facts live in cells
/// this collector owns in its registry (`collector.conns.*`,
/// `collector.epoch.*`); [`CollectorStats`] is read from them.
#[derive(Debug)]
struct Shared {
    ingest: IngestCore,
    shutting_down: AtomicBool,
    connections: Counter,
    connections_refused: AtomicU64,
    connections_evicted: Counter,
    open_conns: Gauge,
    epochs_cut: Counter,
    reports_processed: Counter,
    epochs: Mutex<Vec<EpochResult>>,
}

impl Shared {
    fn new(ingest: IngestCore) -> Self {
        let registry = Arc::clone(ingest.registry());
        Shared {
            ingest,
            shutting_down: AtomicBool::new(false),
            connections: registry.owned_counter("collector.conns.accepted"),
            connections_refused: AtomicU64::new(0),
            connections_evicted: registry.owned_counter("collector.conns.evicted"),
            open_conns: registry.owned_gauge("collector.conns.open"),
            epochs_cut: registry.owned_counter("collector.epoch.cut"),
            reports_processed: registry.owned_counter("collector.epoch.reports"),
            epochs: Mutex::new(Vec::new()),
        }
    }

    fn stats_snapshot(&self) -> CollectorStats {
        CollectorStats {
            ingest: self.ingest.stats(),
            connections: self.connections.get(),
            connections_refused: self.connections_refused.load(Ordering::Relaxed),
            connections_evicted: self.connections_evicted.get(),
            epochs_cut: self.epochs_cut.get(),
            reports_processed: self.reports_processed.get(),
        }
    }
}

/// The final accounting a shutdown returns.
#[derive(Debug)]
pub struct CollectorSummary {
    /// Counter snapshot at shutdown.
    pub stats: CollectorStats,
    /// Every epoch the service cut, in order.
    pub epochs: Vec<EpochResult>,
}

impl CollectorSummary {
    /// Merges the analyzer databases of all successful epochs, the view a
    /// long-running analyzer accumulates across batch boundaries.
    pub fn merged_database(&self) -> AnalyzerDatabase {
        let mut merged = AnalyzerDatabase::default();
        for epoch in &self.epochs {
            if let Ok(report) = &epoch.outcome {
                merged.merge_from(&report.database);
            }
        }
        merged
    }
}

/// A running collector service bound to a local address.
#[derive(Debug)]
pub struct Collector {
    local_addr: SocketAddr,
    shared: Arc<Shared>,
    loop_wakers: Vec<Waker>,
    loop_threads: Vec<JoinHandle<()>>,
    epoch_thread: JoinHandle<()>,
}

impl Collector {
    /// Binds the listener and spawns the service threads. The deployment
    /// moves into the epoch manager, which becomes the only thread to touch
    /// it.
    pub fn start(deployment: Deployment, config: CollectorConfig) -> Result<Self, CollectorError> {
        Self::start_with_pipeline(Box::new(LocalPipeline::new(deployment)), config)
    }

    /// Like [`Self::start`], but with an explicit [`EpochPipeline`] — the
    /// seam a collector shard uses to run its epochs through
    /// out-of-process shufflers while keeping the whole serving layer
    /// (framing, dedup, backpressure, epoch cutting) unchanged.
    pub fn start_with_pipeline(
        pipeline: Box<dyn EpochPipeline>,
        config: CollectorConfig,
    ) -> Result<Self, CollectorError> {
        let listener = TcpListener::bind(config.addr)?;
        // The listener joins loop 0's poll set; acceptance is just another
        // readiness event.
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;

        let event_threads = match config.worker_threads {
            0 => knobs::event_threads()?,
            n => n,
        };
        let rate_limit = match config.rate_limit_per_conn {
            Some(limit) => Some(limit),
            None => knobs::rate_limit()?,
        };

        let registry = config
            .registry
            .clone()
            .unwrap_or_else(|| Arc::clone(prochlo_obs::global()));
        let shared = Arc::new(Shared::new(IngestCore::with_registry(
            IngestConfig {
                queue_capacity: config.queue_capacity,
                max_report_len: config.max_report_len,
                dedup_capacity: config.dedup_capacity,
                retry_after_ms: config.retry_after_ms,
            },
            registry,
        )));

        // Reactors are created on this thread so every loop's waker (and
        // intake queue) exists before any loop runs; each reactor then
        // moves into its loop thread.
        let mut reactors = Vec::with_capacity(event_threads);
        let mut intakes = Vec::with_capacity(event_threads);
        for _ in 0..event_threads {
            let reactor = Reactor::new()?;
            intakes.push(Arc::new(LoopIntake {
                waker: reactor.waker(),
                queue: Mutex::new(VecDeque::new()),
            }));
            reactors.push(reactor);
        }
        let loop_wakers: Vec<Waker> = intakes.iter().map(|i| i.waker.clone()).collect();

        let mut listener = Some(listener);
        let loop_threads = reactors
            .into_iter()
            .enumerate()
            .map(|(index, mut reactor)| {
                let listener = listener.take().map(|l| {
                    let token = reactor.register(&l, Interest::READ);
                    (l, token)
                });
                let event_loop = EventLoop {
                    index,
                    reactor,
                    policy: frame_policy(config.max_frame_len),
                    listener,
                    intake: Arc::clone(&intakes[index]),
                    intakes: intakes.clone(),
                    next_loop: 0,
                    conns: BTreeMap::new(),
                    shared: Arc::clone(&shared),
                    config: config.clone(),
                    rate_limit,
                };
                std::thread::Builder::new()
                    .name(format!("collector-loop-{index}"))
                    .spawn(move || event_loop.run())
            })
            .collect::<Result<Vec<_>, _>>()?;

        let epoch_thread = {
            let shared = Arc::clone(&shared);
            let config = config.clone();
            std::thread::Builder::new()
                .name("collector-epoch".to_string())
                .spawn(move || epoch_loop(pipeline, &shared, &config))?
        };

        Ok(Self {
            local_addr,
            shared,
            loop_wakers,
            loop_threads,
            epoch_thread,
        })
    }

    /// The address clients connect to.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A live snapshot of the service counters.
    pub fn stats(&self) -> CollectorStats {
        self.shared.stats_snapshot()
    }

    /// A live snapshot of the telemetry registry this collector reports
    /// into — the same view the wire `STATS` request returns.
    pub fn obs_snapshot(&self) -> prochlo_obs::Snapshot {
        self.shared.ingest.registry().snapshot()
    }

    /// Shuts the service down gracefully: stop accepting, flush what the
    /// open connections will take, then drain every queued report into
    /// final epochs.
    pub fn shutdown(self) -> CollectorSummary {
        let Self {
            local_addr: _,
            shared,
            loop_wakers,
            loop_threads,
            epoch_thread,
        } = self;
        shared.shutting_down.store(true, Ordering::SeqCst);
        // Every loop observes the flag on its next turn; the wakes make
        // that turn happen now rather than at the next poll interval.
        for waker in &loop_wakers {
            waker.wake();
        }
        for thread in loop_threads {
            let _ = thread.join();
        }
        // No loop can push anymore; the epoch manager drains what is left.
        shared.ingest.queue().close();
        let _ = epoch_thread.join();

        let stats = shared.stats_snapshot();
        let epochs = match Arc::try_unwrap(shared) {
            Ok(shared) => shared.epochs.into_inner(),
            // A caller cloned the Arc (not possible through the public API);
            // fall back to draining the shared vector.
            Err(shared) => std::mem::take(&mut *shared.epochs.lock()),
        };
        CollectorSummary { stats, epochs }
    }
}

/// Hand-off slot for connections dealt to another loop: loop 0 pushes,
/// the owning loop drains at the top of its next turn (the wake makes that
/// turn immediate).
struct LoopIntake {
    waker: Waker,
    queue: Mutex<VecDeque<TcpStream>>,
}

/// Per-connection serving state owned by exactly one event loop.
struct ConnState {
    conn: Conn,
    peer: SocketAddr,
    bucket: Option<TokenBucket>,
    /// The peer closed its write side; serve out pending responses, then
    /// close.
    read_done: bool,
    /// A protocol violation made the stream unrecoverable; flush the final
    /// response (the rejection), then close.
    close_after_flush: bool,
}

/// One event-loop thread: a reactor, its share of the connections, and —
/// on loop 0 — the listener.
struct EventLoop {
    index: usize,
    reactor: Reactor,
    policy: FramePolicy,
    listener: Option<(TcpListener, Token)>,
    intake: Arc<LoopIntake>,
    intakes: Vec<Arc<LoopIntake>>,
    next_loop: usize,
    conns: BTreeMap<Token, ConnState>,
    shared: Arc<Shared>,
    config: CollectorConfig,
    rate_limit: Option<u32>,
}

impl EventLoop {
    fn run(mut self) {
        let registry = Arc::clone(self.shared.ingest.registry());
        let mut events: Vec<Event> = Vec::new();
        let mut frames: Vec<Vec<u8>> = Vec::new();
        loop {
            if self.reactor.poll(&mut events, Some(POLL_INTERVAL)).is_err() {
                break;
            }
            if self.shared.shutting_down.load(Ordering::SeqCst) {
                break;
            }
            // The turn span covers the work, not the idle wait above.
            let turn = registry.span("net.loop.turn");
            self.drain_intake();
            for event in events.drain(..) {
                self.handle_event(event, &mut frames);
            }
            let _ = turn.finish();
        }
        // Exit: give each socket one chance to take the remaining bytes
        // (acknowledged reports are already queued for the epoch manager;
        // this is only response-delivery best effort), then close.
        let tokens: Vec<Token> = self.conns.keys().copied().collect();
        for token in tokens {
            if let Some(state) = self.conns.get_mut(&token) {
                let _ = state.conn.flush();
            }
            self.close_conn(token, false);
        }
    }

    fn drain_intake(&mut self) {
        loop {
            let Some(stream) = self.intake.queue.lock().pop_front() else {
                break;
            };
            self.install(stream);
        }
    }

    fn handle_event(&mut self, event: Event, frames: &mut Vec<Vec<u8>>) {
        if self
            .listener
            .as_ref()
            .is_some_and(|(_, token)| *token == event.token)
        {
            self.accept_ready();
            return;
        }
        if event.timed_out {
            self.close_conn(event.token, true);
            return;
        }
        if event.readable {
            let Some(state) = self.conns.get_mut(&event.token) else {
                return;
            };
            frames.clear();
            let outcome = state.conn.on_readable(frames);
            let mut fatal = false;
            match outcome {
                Ok(ConnStatus::Open) => {}
                Ok(ConnStatus::PeerClosed) => state.read_done = true,
                Err(FrameError::TooLarge { .. }) => {
                    // The peer announced more than we will read; answering
                    // and resynchronizing is impossible, so reject, flush,
                    // hang up.
                    let reject = Response::Rejected {
                        reason: "frame exceeds maximum size".to_string(),
                    };
                    fatal = state.conn.queue_body(&reject.to_bytes()).is_err();
                    state.close_after_flush = true;
                }
                Err(_) => fatal = true,
            }
            if fatal {
                self.close_conn(event.token, false);
                return;
            }
            let progressed = !frames.is_empty();
            if progressed {
                let Some(state) = self.conns.get_mut(&event.token) else {
                    return;
                };
                answer_frames(&self.shared, &self.config, state, frames);
                // Completed frames are progress: re-arm the eviction
                // deadline. (Bytes alone are not — a slow loris dribbling
                // one byte per poll would never be evicted otherwise.)
                self.reactor
                    .set_deadline(event.token, Some(self.config.io_timeout));
            }
        }
        self.settle(event.token);
    }

    /// Flushes what the socket will take and reconciles interest/lifecycle
    /// with what remains.
    fn settle(&mut self, token: Token) {
        let Some(state) = self.conns.get_mut(&token) else {
            return;
        };
        let had_pending = state.conn.wants_write();
        match state.conn.flush() {
            Ok(FlushStatus::Drained) => {
                if state.close_after_flush || state.read_done {
                    self.close_conn(token, false);
                } else {
                    if had_pending {
                        // Fully draining a response backlog is progress:
                        // without this a bulk reader of a large stats
                        // response could be evicted mid-conversation.
                        self.reactor
                            .set_deadline(token, Some(self.config.io_timeout));
                    }
                    self.reactor.set_interest(token, Interest::READ);
                }
            }
            Ok(FlushStatus::Pending) => {
                let paused = state.read_done
                    || state.close_after_flush
                    || state.conn.pending_write() > WRITE_PAUSE_BYTES;
                self.reactor.set_interest(
                    token,
                    if paused {
                        Interest::WRITE
                    } else {
                        Interest::READ_WRITE
                    },
                );
            }
            Err(_) => self.close_conn(token, false),
        }
    }

    fn close_conn(&mut self, token: Token, evicted: bool) {
        if self.conns.remove(&token).is_none() {
            return;
        }
        self.reactor.deregister(token);
        self.shared.open_conns.sub(1);
        if evicted {
            self.shared.connections_evicted.inc();
        }
    }

    /// Accepts until the listener would block (loop 0 only).
    fn accept_ready(&mut self) {
        loop {
            let Some((listener, _)) = &self.listener else {
                return;
            };
            match listener.accept() {
                Ok((stream, _)) => self.dispatch(stream),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                // Transient accept failures (EMFILE bursts, aborted
                // handshakes): leave the rest for the next readiness
                // report instead of spinning.
                Err(_) => break,
            }
        }
    }

    /// Deals a fresh connection to a loop, enforcing the open-connection
    /// cap.
    fn dispatch(&mut self, stream: TcpStream) {
        if self.shared.shutting_down.load(Ordering::SeqCst) {
            return;
        }
        // Only loop 0 admits, so the check and the add cannot race
        // another admission.
        if self.shared.open_conns.get() >= self.config.conn_backlog as i64 {
            self.shared
                .connections_refused
                .fetch_add(1, Ordering::Relaxed);
            refuse(stream, &self.config);
            return;
        }
        self.shared.open_conns.add(1);
        self.shared.connections.inc();
        let target = self.next_loop % self.intakes.len();
        self.next_loop += 1;
        if target == self.index {
            self.install(stream);
        } else {
            let intake = &self.intakes[target];
            intake.queue.lock().push_back(stream);
            intake.waker.wake();
        }
    }

    /// Registers a dealt connection with this loop's reactor.
    fn install(&mut self, stream: TcpStream) {
        let _ = stream.set_nodelay(true);
        let peer = match stream.peer_addr() {
            Ok(peer) => peer,
            Err(_) => {
                self.release_slot();
                return;
            }
        };
        let conn = match Conn::new(stream, self.policy) {
            Ok(conn) => conn,
            Err(_) => {
                self.release_slot();
                return;
            }
        };
        let token = self.reactor.register(conn.stream(), Interest::READ);
        self.reactor
            .set_deadline(token, Some(self.config.io_timeout));
        self.conns.insert(
            token,
            ConnState {
                conn,
                peer,
                bucket: self.rate_limit.map(TokenBucket::new),
                read_done: false,
                close_after_flush: false,
            },
        );
    }

    /// Un-counts a connection that died between dispatch and registration.
    fn release_slot(&mut self) {
        self.shared.open_conns.sub(1);
    }
}

/// Answers every complete frame of one readable burst, queuing responses
/// in request order. A malformed request poisons the stream: it is
/// answered with a rejection and the rest of the burst is dropped, exactly
/// like the blocking implementation's reject-and-hang-up.
fn answer_frames(
    shared: &Shared,
    config: &CollectorConfig,
    state: &mut ConnState,
    frames: &mut Vec<Vec<u8>>,
) {
    for body in frames.drain(..) {
        if state.close_after_flush {
            break;
        }
        let response = match Request::from_bytes(&body) {
            Ok(Request::Submit { nonce, report })
            | Ok(Request::SubmitRouted { nonce, report, .. }) => {
                // The rate limiter sits in front of ingest so a limited
                // submission costs neither a dedup slot nor queue space.
                if state.bucket.as_mut().is_some_and(|b| !b.try_take()) {
                    Response::RetryAfter {
                        millis: config.retry_after_ms,
                    }
                } else {
                    shared.ingest.ingest(&nonce, &report, state.peer)
                }
            }
            Ok(Request::Ping) => Response::Ack {
                pending: shared.ingest.queue().len() as u32,
            },
            // The live telemetry snapshot, flattened to (name, value)
            // pairs — what an operator dashboard polls.
            Ok(Request::Stats) => Response::Stats {
                entries: shared.ingest.registry().snapshot().flat(),
            },
            Err(_) => {
                // A desynchronized or hostile peer; reject and hang up.
                state.close_after_flush = true;
                Response::Rejected {
                    reason: "malformed request".to_string(),
                }
            }
        };
        if state.conn.queue_body(&response.to_bytes()).is_err() {
            state.close_after_flush = true;
            break;
        }
    }
}

/// Best-effort `RetryAfter` for a connection refused at the cap; the
/// socket is fresh, so the handful of bytes lands in the send buffer
/// without blocking beyond the configured timeout.
fn refuse(mut stream: TcpStream, config: &CollectorConfig) {
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_write_timeout(Some(config.io_timeout));
    let busy = Response::RetryAfter {
        millis: config.retry_after_ms,
    };
    let _ = write_frame(&mut stream, &busy.to_bytes());
}

fn epoch_loop(mut pipeline: Box<dyn EpochPipeline>, shared: &Shared, config: &CollectorConfig) {
    let queue = shared.ingest.queue();
    let registry = shared.ingest.registry();
    // The epoch flight recorder: one JSONL line per cut epoch when
    // PROCHLO_OBS_PATH names a sink.
    let flight = prochlo_obs::FlightRecorder::from_env();
    let mut spec = EpochSpec::new(0, config.seed);
    if let Some(engine) = &config.engine {
        spec = spec.with_engine(engine.clone());
    }
    loop {
        let batch = queue.drain_when(config.max_epoch_reports, config.epoch_deadline);
        if batch.is_empty() {
            if queue.is_closed() {
                break;
            }
            continue;
        }
        // The pipeline canonicalizes the batch before consuming epoch
        // randomness, so identically-seeded runs replay identically
        // regardless of client thread scheduling.
        let reports = batch.len();
        let span = registry.span("collector.epoch.process");
        let outcome = pipeline.process(&spec, batch);
        let process_seconds = span.finish();
        shared.reports_processed.add(reports as u64);
        shared.epochs_cut.inc();
        if let Some(flight) = &flight {
            flight.record(
                "collector",
                spec.epoch_index,
                reports as f64,
                &[
                    ("process_seconds", process_seconds),
                    ("queue_depth", queue.len() as f64),
                    ("ok", if outcome.is_ok() { 1.0 } else { 0.0 }),
                ],
            );
        }
        shared.epochs.lock().push(EpochResult {
            index: spec.epoch_index,
            reports,
            process_seconds,
            outcome,
        });
        // Age the replay filter with the epoch boundary so its memory and
        // its capacity headroom are tied to epochs, not process lifetime.
        shared.ingest.rotate_dedup();
        spec = spec.next();
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{CollectorClient, ReportSink};
    use crate::protocol::NONCE_LEN;
    use prochlo_core::encoder::CrowdStrategy;
    use prochlo_core::ShufflerConfig;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    fn test_config() -> CollectorConfig {
        CollectorConfig {
            worker_threads: 2,
            epoch_deadline: Duration::from_millis(50),
            io_timeout: Duration::from_secs(5),
            ..CollectorConfig::default()
        }
    }

    fn start_collector(seed: u64, config: CollectorConfig) -> (Collector, prochlo_core::Encoder) {
        let mut rng = StdRng::seed_from_u64(seed);
        let deployment = Deployment::builder()
            .config(ShufflerConfig::default().without_thresholding())
            .payload_size(32)
            .build(&mut rng);
        let encoder = deployment.encoder();
        let collector = Collector::start(deployment, config).unwrap();
        (collector, encoder)
    }

    fn fresh_nonce(rng: &mut StdRng) -> [u8; NONCE_LEN] {
        let mut nonce = [0u8; NONCE_LEN];
        rng.fill_bytes(&mut nonce);
        nonce
    }

    #[test]
    fn submissions_flow_into_epochs_and_shutdown_drains() {
        let (collector, encoder) = start_collector(11, test_config());
        let mut rng = StdRng::seed_from_u64(12);
        let mut client = CollectorClient::connect(collector.local_addr()).unwrap();
        for i in 0..20u64 {
            let report = encoder
                .encode_plain(b"value", CrowdStrategy::None, i, &mut rng)
                .unwrap();
            let response = client
                .submit(&fresh_nonce(&mut rng), &report.outer.to_bytes())
                .unwrap();
            assert!(matches!(response, Response::Ack { .. }));
        }
        drop(client);
        let summary = collector.shutdown();
        assert_eq!(summary.stats.ingest.accepted, 20);
        assert_eq!(summary.stats.reports_processed, 20);
        assert!(summary.stats.epochs_cut >= 1);
        let total: usize = summary.epochs.iter().map(|e| e.reports).sum();
        assert_eq!(total, 20);
        assert_eq!(summary.merged_database().count(b"value"), 20);
    }

    #[test]
    fn ping_reports_queue_depth() {
        let config = CollectorConfig {
            // A deadline long enough that nothing is drained mid-test.
            epoch_deadline: Duration::from_secs(60),
            max_epoch_reports: 1000,
            ..test_config()
        };
        let (collector, encoder) = start_collector(21, config);
        let mut rng = StdRng::seed_from_u64(22);
        let mut client = CollectorClient::connect(collector.local_addr()).unwrap();
        assert_eq!(client.ping().unwrap(), Response::Ack { pending: 0 });
        let report = encoder
            .encode_plain(b"x", CrowdStrategy::None, 0, &mut rng)
            .unwrap();
        client
            .submit(&fresh_nonce(&mut rng), &report.outer.to_bytes())
            .unwrap();
        assert_eq!(client.ping().unwrap(), Response::Ack { pending: 1 });
        drop(client);
        collector.shutdown();
    }

    #[test]
    fn malformed_submissions_are_rejected_and_connection_survives_reconnect() {
        let (collector, encoder) = start_collector(31, test_config());
        let mut rng = StdRng::seed_from_u64(32);
        let mut client = CollectorClient::connect(collector.local_addr()).unwrap();
        let response = client.submit(&fresh_nonce(&mut rng), &[1, 2, 3]).unwrap();
        assert!(matches!(response, Response::Rejected { .. }));
        // The protocol stream is still synchronized: a valid submit works.
        let report = encoder
            .encode_plain(b"ok", CrowdStrategy::None, 0, &mut rng)
            .unwrap();
        assert!(matches!(
            client
                .submit(&fresh_nonce(&mut rng), &report.outer.to_bytes())
                .unwrap(),
            Response::Ack { .. }
        ));
        drop(client);
        let summary = collector.shutdown();
        assert_eq!(summary.stats.ingest.rejected, 1);
        assert_eq!(summary.stats.ingest.accepted, 1);
    }

    #[test]
    fn shutdown_completes_while_a_client_is_still_connected() {
        let config = CollectorConfig {
            // The only wait shutdown may incur for a silent-but-connected
            // client is one io_timeout; keep it short for the test.
            io_timeout: Duration::from_millis(200),
            ..test_config()
        };
        let (collector, encoder) = start_collector(51, config);
        let mut rng = StdRng::seed_from_u64(52);
        let mut client = CollectorClient::connect(collector.local_addr()).unwrap();
        let report = encoder
            .encode_plain(b"lingering", CrowdStrategy::None, 0, &mut rng)
            .unwrap();
        client
            .submit(&fresh_nonce(&mut rng), &report.outer.to_bytes())
            .unwrap();
        // The client stays connected and idle; shutdown must not wait on it
        // beyond the io_timeout.
        let start = std::time::Instant::now();
        let summary = collector.shutdown();
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "shutdown must not hang on a connected client"
        );
        assert_eq!(summary.stats.reports_processed, 1);
        drop(client);
    }

    #[test]
    fn configured_engine_overrides_the_pipeline_backend() {
        let config = CollectorConfig {
            engine: Some(EngineConfig {
                backend: prochlo_core::ShuffleBackend::Batcher,
                num_threads: 2,
            }),
            ..test_config()
        };
        let (collector, encoder) = start_collector(61, config);
        let mut rng = StdRng::seed_from_u64(62);
        let mut client = CollectorClient::connect(collector.local_addr()).unwrap();
        for i in 0..10u64 {
            let report = encoder
                .encode_plain(b"value", CrowdStrategy::None, i, &mut rng)
                .unwrap();
            assert!(matches!(
                client
                    .submit(&fresh_nonce(&mut rng), &report.outer.to_bytes())
                    .unwrap(),
                Response::Ack { .. }
            ));
        }
        drop(client);
        let summary = collector.shutdown();
        assert_eq!(summary.merged_database().count(b"value"), 10);
        assert!(!summary.epochs.is_empty());
        for epoch in &summary.epochs {
            let report = epoch.outcome.as_ref().expect("epoch ok");
            // The deployment's shuffler defaults to "trusted"; the
            // collector's engine override must win.
            assert_eq!(report.shuffler_stats.backend, "batcher");
        }
    }

    #[test]
    fn stats_request_reflects_the_live_registry() {
        let registry = Arc::new(prochlo_obs::Registry::new(true));
        let config = CollectorConfig {
            registry: Some(Arc::clone(&registry)),
            ..test_config()
        };
        let (collector, encoder) = start_collector(71, config);
        let mut rng = StdRng::seed_from_u64(72);
        let mut client = CollectorClient::connect(collector.local_addr()).unwrap();
        for i in 0..5u64 {
            let report = encoder
                .encode_plain(b"value", CrowdStrategy::None, i, &mut rng)
                .unwrap();
            client
                .submit(&fresh_nonce(&mut rng), &report.outer.to_bytes())
                .unwrap();
        }
        let entries = client.stats().unwrap();
        let get = |name: &str| {
            entries
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .unwrap_or_else(|| panic!("missing metric {name}"))
        };
        assert_eq!(get("collector.ingest.accepted"), 5.0);
        assert_eq!(get("collector.ingest.submit.count"), 5.0);
        // Names arrive sorted, mirroring Snapshot::flat.
        let names: Vec<&String> = entries.iter().map(|(n, _)| n).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
        drop(client);
        let summary = collector.shutdown();
        // The wire snapshot and the legacy summary agree.
        assert_eq!(summary.stats.ingest.accepted, 5);
        let snap = registry.snapshot();
        assert_eq!(
            snap.get("collector.epoch.reports"),
            Some(summary.stats.reports_processed as f64)
        );
        assert_eq!(
            snap.get("collector.epoch.cut"),
            Some(summary.stats.epochs_cut as f64)
        );
    }

    #[test]
    fn collectors_sharing_a_registry_keep_exact_stats_and_sum_in_snapshots() {
        let registry = Arc::new(prochlo_obs::Registry::new(true));
        let config = || CollectorConfig {
            registry: Some(Arc::clone(&registry)),
            ..test_config()
        };
        let (first, first_encoder) = start_collector(101, config());
        let (second, second_encoder) = start_collector(102, config());
        let mut rng = StdRng::seed_from_u64(103);
        for (collector, encoder, submits) in
            [(&first, &first_encoder, 3), (&second, &second_encoder, 5)]
        {
            let mut client = CollectorClient::connect(collector.local_addr()).unwrap();
            for i in 0..submits {
                let report = encoder
                    .encode_plain(b"v", CrowdStrategy::None, i, &mut rng)
                    .unwrap();
                let nonce = fresh_nonce(&mut rng);
                let bytes = report.outer.to_bytes();
                assert!(matches!(
                    client.submit(&nonce, &bytes).unwrap(),
                    Response::Ack { .. }
                ));
                if i == 0 {
                    assert_eq!(client.submit(&nonce, &bytes).unwrap(), Response::Duplicate);
                }
            }
        }
        let first = first.shutdown().stats;
        let second = second.shutdown().stats;
        for (stats, submits) in [(&first, 3), (&second, 5)] {
            assert_eq!(stats.ingest.accepted, submits);
            assert_eq!(stats.ingest.duplicates, 1);
            assert_eq!(stats.connections, 1);
            assert_eq!(stats.reports_processed, submits);
        }
        // Snapshots taken after shutdown still hold both collectors'
        // cells, summed per name.
        let snap = registry.snapshot();
        assert_eq!(snap.get("collector.ingest.accepted"), Some(8.0));
        assert_eq!(snap.get("collector.ingest.duplicates"), Some(2.0));
        assert_eq!(snap.get("collector.conns.accepted"), Some(2.0));
        assert_eq!(snap.get("collector.conns.open"), Some(0.0));
        assert_eq!(snap.get("collector.epoch.reports"), Some(8.0));
        assert_eq!(
            snap.get("collector.epoch.cut"),
            Some((first.epochs_cut + second.epochs_cut) as f64)
        );
    }

    #[test]
    fn rate_limited_connection_gets_retry_after_then_recovers() {
        let config = CollectorConfig {
            // Burst of 2, then the bucket refills at 2/s — far slower than
            // the test submits.
            rate_limit_per_conn: Some(2),
            ..test_config()
        };
        let (collector, encoder) = start_collector(81, config);
        let mut rng = StdRng::seed_from_u64(82);
        let mut client = CollectorClient::connect(collector.local_addr()).unwrap();
        let mut acked = 0;
        let mut limited = 0;
        for i in 0..6u64 {
            let report = encoder
                .encode_plain(b"v", CrowdStrategy::None, i, &mut rng)
                .unwrap();
            match client
                .submit(&fresh_nonce(&mut rng), &report.outer.to_bytes())
                .unwrap()
            {
                Response::Ack { .. } => acked += 1,
                Response::RetryAfter { .. } => limited += 1,
                other => panic!("unexpected response {other:?}"),
            }
        }
        assert_eq!(acked, 2, "burst capacity admits exactly two");
        assert_eq!(limited, 4, "the rest are rate-limited");
        // The limit is per connection, not per service: a fresh connection
        // gets a fresh bucket.
        let mut second = CollectorClient::connect(collector.local_addr()).unwrap();
        let report = encoder
            .encode_plain(b"v", CrowdStrategy::None, 99, &mut rng)
            .unwrap();
        assert!(matches!(
            second
                .submit(&fresh_nonce(&mut rng), &report.outer.to_bytes())
                .unwrap(),
            Response::Ack { .. }
        ));
        drop(client);
        drop(second);
        let summary = collector.shutdown();
        assert_eq!(summary.stats.ingest.accepted, 3);
    }

    #[test]
    fn idle_connection_is_evicted_at_the_deadline() {
        let registry = Arc::new(prochlo_obs::Registry::new(true));
        let config = CollectorConfig {
            io_timeout: Duration::from_millis(150),
            registry: Some(Arc::clone(&registry)),
            ..test_config()
        };
        let (collector, encoder) = start_collector(91, config);
        let mut rng = StdRng::seed_from_u64(92);
        // A slow loris: connects, never completes a frame.
        let loris = std::net::TcpStream::connect(collector.local_addr()).unwrap();
        // A healthy client on the same service keeps being served while the
        // loris sits idle past its deadline.
        let mut client = CollectorClient::connect(collector.local_addr()).unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            let report = encoder
                .encode_plain(b"alive", CrowdStrategy::None, 0, &mut rng)
                .unwrap();
            assert!(matches!(
                client
                    .submit(&fresh_nonce(&mut rng), &report.outer.to_bytes())
                    .unwrap(),
                Response::Ack { .. }
            ));
            if collector.stats().connections_evicted >= 1 {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "loris was never evicted"
            );
            std::thread::sleep(Duration::from_millis(20));
        }
        drop(loris);
        drop(client);
        let summary = collector.shutdown();
        assert_eq!(summary.stats.connections_evicted, 1);
        let snap = registry.snapshot();
        assert_eq!(snap.get("collector.conns.evicted"), Some(1.0));
        assert_eq!(
            snap.get("collector.conns.accepted"),
            Some(summary.stats.connections as f64)
        );
    }

    #[test]
    fn duplicate_nonce_over_the_wire_is_flagged() {
        let (collector, encoder) = start_collector(41, test_config());
        let mut rng = StdRng::seed_from_u64(42);
        let mut client = CollectorClient::connect(collector.local_addr()).unwrap();
        let report = encoder
            .encode_plain(b"v", CrowdStrategy::None, 0, &mut rng)
            .unwrap();
        let nonce = fresh_nonce(&mut rng);
        let bytes = report.outer.to_bytes();
        assert!(matches!(
            client.submit(&nonce, &bytes).unwrap(),
            Response::Ack { .. }
        ));
        assert_eq!(client.submit(&nonce, &bytes).unwrap(), Response::Duplicate);
        drop(client);
        let summary = collector.shutdown();
        assert_eq!(summary.stats.ingest.accepted, 1);
        assert_eq!(summary.stats.ingest.duplicates, 1);
        assert_eq!(summary.stats.reports_processed, 1);
    }
}
