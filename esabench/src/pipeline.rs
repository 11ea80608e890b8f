//! Benchmark-owned [`EpochPipeline`]s the live collector runs its epochs
//! through.
//!
//! Both record, per epoch, which pool slots the cut batch held and when the
//! epoch was released; that is how a report's release age is measured from
//! outside the program. [`RecordingPipeline`] delegates to
//! [`LocalPipeline`] unchanged (the untraced run). [`TracedPipeline`] makes
//! `LocalPipeline`'s public calls itself, in the same order, and records a
//! span around each one.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use prochlo_collector::{EpochPipeline, LocalPipeline};
use prochlo_core::{
    epoch_rng, exec, AnalyzerDatabase, ClientReport, Deployment, EpochSpec, PipelineError,
    PipelineReport,
};

use crate::gen::Pool;
use crate::trace::{Key, Tracer};

/// What the benchmark learns about one epoch from outside.
#[derive(Debug, Clone)]
pub struct EpochEntry {
    pub index: u64,
    /// Pool slot of every report in the batch (`u32::MAX` if unknown).
    pub slots: Vec<u32>,
    pub started: Instant,
    pub released: Instant,
}

/// Epoch entries in release order, shared with the harness.
pub type EpochLog = Arc<Mutex<Vec<EpochEntry>>>;

fn slots_of(pool: &Pool, batch: &[ClientReport]) -> Vec<u32> {
    batch
        .iter()
        .map(|r| pool.slot(r).unwrap_or(u32::MAX))
        .collect()
}

fn log_epoch(log: &EpochLog, index: u64, slots: Vec<u32>, started: Instant) {
    log.lock().expect("epoch log poisoned").push(EpochEntry {
        index,
        slots,
        started,
        released: Instant::now(),
    });
}

pub struct RecordingPipeline {
    inner: LocalPipeline,
    pool: Arc<Pool>,
    log: EpochLog,
}

impl RecordingPipeline {
    pub fn new(deployment: Deployment, pool: Arc<Pool>, log: EpochLog) -> Self {
        Self {
            inner: LocalPipeline::new(deployment),
            pool,
            log,
        }
    }
}

impl EpochPipeline for RecordingPipeline {
    fn process(
        &mut self,
        spec: &EpochSpec,
        batch: Vec<ClientReport>,
    ) -> Result<PipelineReport, PipelineError> {
        let slots = slots_of(&self.pool, &batch);
        let started = Instant::now();
        let outcome = self.inner.process(spec, batch);
        log_epoch(&self.log, spec.epoch_index, slots, started);
        outcome
    }
}

/// Span names the traced pipeline records, children of `collector.epoch`.
pub const SPAN_EPOCH: &str = "collector.epoch";
pub const SPAN_CANONICALIZE: &str = "core.canonicalize";
pub const SPAN_EPOCH_RNG: &str = "core.epoch_rng";
pub const SPAN_SHUFFLE: &str = "shuffler.process";
pub const SPAN_ANALYZE: &str = "analyzer.ingest";
pub const SPAN_MERGE: &str = "analyzer.merge";

pub struct TracedPipeline {
    deployment: Deployment,
    pool: Arc<Pool>,
    log: EpochLog,
    tracer: Arc<Tracer>,
    /// The released database every epoch is merged into.
    released: Arc<Mutex<AnalyzerDatabase>>,
}

impl TracedPipeline {
    pub fn new(
        deployment: Deployment,
        pool: Arc<Pool>,
        log: EpochLog,
        tracer: Arc<Tracer>,
        released: Arc<Mutex<AnalyzerDatabase>>,
    ) -> Self {
        Self {
            deployment,
            pool,
            log,
            tracer,
            released,
        }
    }
}

impl EpochPipeline for TracedPipeline {
    fn process(
        &mut self,
        spec: &EpochSpec,
        mut batch: Vec<ClientReport>,
    ) -> Result<PipelineReport, PipelineError> {
        let slots = slots_of(&self.pool, &batch);
        let started = Instant::now();
        let key = Key::Epoch(spec.epoch_index);
        let tracer = &self.tracer;
        let epoch = tracer.start(SPAN_EPOCH, key);

        let span = tracer.start(SPAN_CANONICALIZE, key);
        batch.sort_by_cached_key(|report| report.outer.to_bytes());
        span.finish();

        let span = tracer.start(SPAN_EPOCH_RNG, key);
        let engine = spec
            .engine
            .clone()
            .unwrap_or_else(|| self.deployment.default_engine());
        let mut rng = epoch_rng(spec.seed, spec.epoch_index);
        span.finish();

        let span = tracer.start(SPAN_SHUFFLE, key);
        let outcome = self.deployment.role().process(&engine, &batch, &mut rng);
        span.finish();
        let outcome = outcome?;

        let threads = exec::resolve_threads(engine.num_threads)?;
        let span = tracer.start(SPAN_ANALYZE, key);
        let database = self
            .deployment
            .analyzer()
            .ingest_items_parallel(&outcome.items, threads);
        span.finish();
        let database = database?;

        let span = tracer.start(SPAN_MERGE, key);
        self.released
            .lock()
            .expect("released database poisoned")
            .merge_from(&database);
        span.finish();

        epoch.finish();
        log_epoch(&self.log, spec.epoch_index, slots, started);
        Ok(PipelineReport {
            database,
            shuffler_stats: outcome.stats,
            stage_stats: outcome.stage_stats,
        })
    }
}
