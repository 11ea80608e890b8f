//! The shard router: one submission endpoint in front of N collector
//! shards.
//!
//! Clients speak the ordinary collector protocol to the router, but must
//! use routed submissions (`SUBMIT_ROUTED`, carrying the crowd-routing
//! prefix): the router reduces the prefix with
//! [`ShardedDeployment::shard_index_from_prefix`] and forwards the report
//! to that shard through a [`ReportSink`], relaying the shard's verdict
//! verbatim — backpressure and replay dedup remain end to end. Plain
//! `SUBMIT` is rejected loudly: silently routing it (e.g. round-robin)
//! would break the per-crowd shard affinity thresholding depends on.
//!
//! The router never sees crowd labels, payloads, or the inside of a report
//! — only the prefix, which a hashed crowd ID already exposes to any
//! shuffler.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use prochlo_collector::protocol::{read_frame, write_frame, Request, Response};
use prochlo_collector::queue::{BoundedQueue, PushError};
use prochlo_collector::{CollectorError, ReportSink};
use prochlo_core::ShardedDeployment;
use prochlo_obs::Counter;

/// Configuration of a running router.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Address to bind; port 0 picks an ephemeral port.
    pub addr: SocketAddr,
    /// Protocol worker threads; each holds its own sinks to every shard.
    pub worker_threads: usize,
    /// Accepted connections waiting for a worker.
    pub conn_backlog: usize,
    /// Maximum frame size accepted from a peer.
    pub max_frame_len: usize,
    /// Per-connection read/write timeout.
    pub io_timeout: Duration,
}

impl Default for RouterConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".parse().expect("loopback address"),
            worker_threads: 4,
            conn_backlog: 1024,
            max_frame_len: 64 << 10,
            io_timeout: Duration::from_secs(10),
        }
    }
}

/// Builds one worker's forwarding legs: a [`ReportSink`] per shard, in
/// shard order. Called once per worker thread, so TCP-backed sinks get one
/// connection per worker per shard with no cross-worker locking.
pub type SinkFactory =
    Box<dyn Fn() -> Result<Vec<Box<dyn ReportSink + Send>>, CollectorError> + Send + Sync>;

/// A point-in-time snapshot of the router counters.
#[derive(Debug, Clone, Default)]
pub struct RouterStats {
    /// Connections accepted.
    pub connections: u64,
    /// Connections refused because the backlog queue was full.
    pub connections_refused: u64,
    /// Routed submissions forwarded to a shard.
    pub routed: u64,
    /// Requests rejected (plain submits, malformed frames).
    pub rejected: u64,
    /// Forwarding legs that failed mid-submission.
    pub forward_failures: u64,
}

/// Everything the router threads share. Forwarding outcomes are counted
/// once, in cells this router owns in the global registry
/// (`fabric.router.*`); [`RouterStats`] is read from them.
struct Shared {
    shutting_down: AtomicBool,
    connections: AtomicU64,
    connections_refused: AtomicU64,
    routed: Counter,
    rejected: Counter,
    forward_failures: Counter,
}

impl Shared {
    fn new() -> Self {
        let registry = prochlo_obs::global();
        Shared {
            shutting_down: AtomicBool::new(false),
            connections: AtomicU64::new(0),
            connections_refused: AtomicU64::new(0),
            routed: registry.owned_counter("fabric.router.routed"),
            rejected: registry.owned_counter("fabric.router.rejected"),
            forward_failures: registry.owned_counter("fabric.router.forward_failures"),
        }
    }

    fn stats(&self) -> RouterStats {
        RouterStats {
            connections: self.connections.load(Ordering::Relaxed),
            connections_refused: self.connections_refused.load(Ordering::Relaxed),
            routed: self.routed.get(),
            rejected: self.rejected.get(),
            forward_failures: self.forward_failures.get(),
        }
    }
}

/// A running shard router bound to a local address.
///
/// ```no_run
/// use prochlo_collector::{CollectorClient, ReportSink};
/// use prochlo_fabric::router::{RouterConfig, ShardRouter};
///
/// let shard_addrs = vec!["127.0.0.1:7101".parse().unwrap()];
/// let router = ShardRouter::start(
///     RouterConfig::default(),
///     Box::new(move || {
///         shard_addrs
///             .iter()
///             .map(|&addr| {
///                 CollectorClient::connect(addr)
///                     .map(|c| Box::new(c) as Box<dyn ReportSink + Send>)
///             })
///             .collect()
///     }),
/// )
/// .unwrap();
/// println!("routing on {}", router.local_addr());
/// # router.shutdown();
/// ```
pub struct ShardRouter {
    local_addr: SocketAddr,
    shared: Arc<Shared>,
    conn_queue: Arc<BoundedQueue<TcpStream>>,
    accept_thread: JoinHandle<()>,
    worker_threads: Vec<JoinHandle<()>>,
}

impl ShardRouter {
    /// Binds the listener and spawns the worker pool. Each worker calls
    /// `make_sinks` once to build its own forwarding legs; the factory's
    /// vector length fixes the shard count every prefix is reduced by.
    pub fn start(config: RouterConfig, make_sinks: SinkFactory) -> Result<Self, CollectorError> {
        let listener = TcpListener::bind(config.addr)?;
        // Poll instead of blocking so shutdown works on any bind address
        // (same pattern as the collector's accept loop).
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;

        let shared = Arc::new(Shared::new());
        let conn_queue = Arc::new(BoundedQueue::new(config.conn_backlog));
        let make_sinks = Arc::new(make_sinks);

        let accept_thread = {
            let shared = Arc::clone(&shared);
            let conn_queue = Arc::clone(&conn_queue);
            std::thread::Builder::new()
                .name("router-accept".to_string())
                .spawn(move || accept_loop(listener, &shared, &conn_queue))?
        };

        let worker_threads = (0..config.worker_threads.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                let conn_queue = Arc::clone(&conn_queue);
                let make_sinks = Arc::clone(&make_sinks);
                let config = config.clone();
                std::thread::Builder::new()
                    .name(format!("router-worker-{i}"))
                    .spawn(move || {
                        let mut sinks = match make_sinks() {
                            Ok(sinks) => sinks,
                            // A worker that cannot reach the shards serves
                            // nothing; the remaining workers still run.
                            Err(_) => return,
                        };
                        while let Some(stream) = conn_queue.pop() {
                            let _ = serve_connection(stream, &mut sinks, &shared, &config);
                        }
                    })
            })
            .collect::<Result<Vec<_>, _>>()?;

        Ok(Self {
            local_addr,
            shared,
            conn_queue,
            accept_thread,
            worker_threads,
        })
    }

    /// The address clients connect to.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A live snapshot of the router counters.
    pub fn stats(&self) -> RouterStats {
        self.shared.stats()
    }

    /// Stops accepting, drains connected clients, and returns the final
    /// counters.
    pub fn shutdown(self) -> RouterStats {
        self.shared.shutting_down.store(true, Ordering::SeqCst);
        let _ = self.accept_thread.join();
        self.conn_queue.close();
        for worker in self.worker_threads {
            let _ = worker.join();
        }
        self.shared.stats()
    }
}

fn accept_loop(listener: TcpListener, shared: &Shared, conn_queue: &BoundedQueue<TcpStream>) {
    loop {
        if shared.shutting_down.load(Ordering::SeqCst) {
            break;
        }
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                std::thread::sleep(Duration::from_millis(10));
                continue;
            }
        };
        if stream.set_nonblocking(false).is_err() {
            continue;
        }
        match conn_queue.try_push(stream) {
            Ok(()) => {
                shared.connections.fetch_add(1, Ordering::Relaxed);
            }
            Err(PushError::Full(stream) | PushError::Closed(stream)) => {
                shared.connections_refused.fetch_add(1, Ordering::Relaxed);
                drop(stream);
            }
        }
    }
}

fn serve_connection(
    stream: TcpStream,
    sinks: &mut [Box<dyn ReportSink + Send>],
    shared: &Shared,
    config: &RouterConfig,
) -> Result<(), CollectorError> {
    stream.set_read_timeout(Some(config.io_timeout))?;
    stream.set_write_timeout(Some(config.io_timeout))?;
    stream.set_nodelay(true)?;
    let mut reader = std::io::BufReader::new(stream.try_clone()?);
    let mut writer = std::io::BufWriter::new(stream);
    loop {
        if shared.shutting_down.load(Ordering::SeqCst) {
            return Err(CollectorError::ShuttingDown);
        }
        let body = match read_frame(&mut reader, config.max_frame_len) {
            Ok(body) => body,
            Err(CollectorError::ConnectionClosed) => return Ok(()),
            Err(e) => return Err(e),
        };
        let response = match Request::from_bytes(&body) {
            Ok(Request::SubmitRouted {
                crowd_prefix,
                nonce,
                report,
            }) => {
                let shard = ShardedDeployment::shard_index_from_prefix(crowd_prefix, sinks.len());
                let span = prochlo_obs::span("fabric.router.forward");
                let forwarded = sinks[shard].submit_routed(crowd_prefix, &nonce, &report);
                span.finish();
                match forwarded {
                    Ok(verdict) => {
                        shared.routed.inc();
                        verdict
                    }
                    Err(_) => {
                        // The forwarding leg died; tell the client to retry
                        // (the next attempt may land on a healthy worker).
                        shared.forward_failures.inc();
                        Response::RetryAfter { millis: 100 }
                    }
                }
            }
            Ok(Request::Submit { .. }) => {
                shared.rejected.inc();
                Response::Rejected {
                    reason: "router requires routed submissions (SUBMIT_ROUTED)".to_string(),
                }
            }
            Ok(Request::Ping) => Response::Ack { pending: 0 },
            // The router has no ingest core of its own; answer with the
            // process-wide registry (its fabric.router.* counters live
            // there).
            Ok(Request::Stats) => Response::Stats {
                entries: prochlo_obs::snapshot().flat(),
            },
            Err(_) => {
                shared.rejected.inc();
                let reject = Response::Rejected {
                    reason: "malformed request".to_string(),
                };
                let _ = write_frame(&mut writer, &reject.to_bytes());
                return Err(CollectorError::Protocol("malformed request"));
            }
        };
        write_frame(&mut writer, &response.to_bytes())?;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prochlo_collector::protocol::NONCE_LEN;
    use prochlo_collector::{Collector, CollectorClient, CollectorConfig};
    use prochlo_core::{crowd_prefix, Deployment, ShufflerConfig};
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    fn fresh_nonce(rng: &mut StdRng) -> [u8; NONCE_LEN] {
        let mut nonce = [0u8; NONCE_LEN];
        rng.fill_bytes(&mut nonce);
        nonce
    }

    #[test]
    fn routes_by_prefix_and_rejects_plain_submits() {
        let mut rng = StdRng::seed_from_u64(70);
        // Two real collector shards.
        let shards: Vec<Collector> = (0..2u64)
            .map(|i| {
                let deployment = Deployment::builder()
                    .config(ShufflerConfig::default().without_thresholding())
                    .build(&mut StdRng::seed_from_u64(70 + i));
                Collector::start(
                    deployment,
                    CollectorConfig {
                        epoch_deadline: Duration::from_millis(50),
                        ..CollectorConfig::default()
                    },
                )
                .unwrap()
            })
            .collect();
        let shard_addrs: Vec<SocketAddr> = shards.iter().map(|s| s.local_addr()).collect();
        let factory_addrs = shard_addrs.clone();
        let router = ShardRouter::start(
            RouterConfig::default(),
            Box::new(move || {
                factory_addrs
                    .iter()
                    .map(|&addr| {
                        CollectorClient::connect(addr)
                            .map(|c| Box::new(c) as Box<dyn ReportSink + Send>)
                    })
                    .collect()
            }),
        )
        .unwrap();

        // The shards have different keys; encode against the shard the
        // crowd routes to, like a real sharded client would.
        let mut client = CollectorClient::connect(router.local_addr()).unwrap();
        let label: &[u8] = b"crowd-a";
        let prefix = crowd_prefix(label);
        let shard = ShardedDeployment::shard_index_from_prefix(prefix, 2);
        // A fresh deployment per shard was built above with seed 70 + i;
        // rebuild the matching encoder.
        let deployment = Deployment::builder()
            .config(ShufflerConfig::default().without_thresholding())
            .build(&mut StdRng::seed_from_u64(70 + shard as u64));
        let encoder = deployment.encoder();
        for i in 0..5u64 {
            let report = encoder
                .encode_plain(label, prochlo_core::CrowdStrategy::Hash(label), i, &mut rng)
                .unwrap();
            let verdict = client
                .submit_routed(prefix, &fresh_nonce(&mut rng), &report.outer.to_bytes())
                .unwrap();
            assert!(matches!(verdict, Response::Ack { .. }), "{verdict:?}");
        }
        // Plain submits are rejected, not misrouted.
        let report = encoder
            .encode_plain(
                label,
                prochlo_core::CrowdStrategy::Hash(label),
                99,
                &mut rng,
            )
            .unwrap();
        let verdict = client
            .submit(&fresh_nonce(&mut rng), &report.outer.to_bytes())
            .unwrap();
        assert!(matches!(verdict, Response::Rejected { .. }));
        // Ping answers locally.
        assert!(matches!(client.ping().unwrap(), Response::Ack { .. }));

        drop(client);
        let stats = router.shutdown();
        assert_eq!(stats.routed, 5);
        assert_eq!(stats.rejected, 1);

        // The reports landed on exactly the shard the prefix names.
        let mut summaries: Vec<_> = shards.into_iter().map(Collector::shutdown).collect();
        let on_shard = summaries.remove(shard).stats.ingest.accepted;
        assert_eq!(on_shard, 5);
        for other in summaries {
            assert_eq!(other.stats.ingest.accepted, 0);
        }
    }
}
