//! The metrics registry: named counters, gauges, and latency histograms.
//!
//! A [`Registry`] is a process-wide (or test-local) table of instruments
//! keyed by dotted name. Lookups hand back cheap `Arc` handles
//! ([`Counter`], [`Gauge`], [`Histogram`]) that hot paths cache and bump
//! with single atomic operations; the registry itself is only locked when
//! an instrument is first created or when a [`Snapshot`] is taken. The
//! name table is sharded across several `RwLock`-protected maps so that
//! concurrent first-registrations from different subsystems do not
//! serialize on one lock.
//!
//! Counters and gauges are always-on accounting: they are the single
//! record of what a collector or router did, so they count whether or not
//! the registry is enabled. An instance that needs exact per-instance
//! numbers registers *owned* cells ([`Registry::owned_counter`],
//! [`Registry::owned_gauge`]); snapshots report a name as the sum of its
//! cells. Disabling a registry ([`Registry::set_enabled`]) gates only what
//! reads the clock: histograms and spans.
//!
//! Instruments never touch an RNG stream and never reorder work: every
//! recording is a relaxed atomic on a pre-existing cell, which is what
//! keeps the seeded determinism contract trivially intact whether
//! telemetry is on or off.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

use crate::snapshot::{HistogramSnapshot, Snapshot, SnapshotEntry, SnapshotValue};
use crate::span::Span;

/// Number of fixed histogram buckets. Bucket `0` covers `[0, 1µs)`;
/// bucket `i >= 1` covers `[2^(i-1), 2^i)` microseconds; the last bucket
/// is unbounded above. See [`bucket_bounds`].
pub const NUM_BUCKETS: usize = 32;

/// Number of name shards in the registry. Power of two so the name hash
/// can be masked.
const NUM_SHARDS: usize = 8;

/// Inclusive-lower / exclusive-upper bounds of histogram bucket `index`,
/// in **seconds**. The buckets partition `[0, +inf)`: `lower(0) == 0`,
/// `upper(i) == lower(i + 1)`, and the final bucket's upper bound is
/// `f64::INFINITY`.
///
/// ```
/// let (lo, hi) = prochlo_obs::bucket_bounds(1);
/// assert_eq!((lo, hi), (1e-6, 2e-6)); // [1µs, 2µs)
/// ```
pub fn bucket_bounds(index: usize) -> (f64, f64) {
    assert!(index < NUM_BUCKETS, "bucket index {index} out of range");
    let lower = if index == 0 {
        0.0
    } else {
        (1u64 << (index - 1)) as f64 * 1e-6
    };
    let upper = if index == NUM_BUCKETS - 1 {
        f64::INFINITY
    } else {
        (1u64 << index) as f64 * 1e-6
    };
    (lower, upper)
}

/// Bucket index a duration of `seconds` falls into. Total on `[0, +inf)`
/// (negative inputs clamp to bucket 0), matching [`bucket_bounds`].
pub fn bucket_index(seconds: f64) -> usize {
    let micros = seconds * 1e6;
    if micros.is_nan() || micros < 1.0 {
        // Sub-microsecond, zero, negative, and NaN all land in bucket 0.
        return 0;
    }
    let n = micros as u64; // truncation keeps [2^(i-1), 2^i) intact
    let bits = 64 - n.leading_zeros() as usize; // n in [2^(bits-1), 2^bits)
    bits.min(NUM_BUCKETS - 1)
}

/// FNV-1a over the instrument name; only used to pick a shard, never to
/// order output (snapshots sort by name).
fn shard_of(name: &str) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    (h as usize) & (NUM_SHARDS - 1)
}

/// Shared cell behind a [`Histogram`] handle.
struct HistogramCell {
    counts: [AtomicU64; NUM_BUCKETS],
    /// Total recorded time in nanoseconds. Nanosecond integers keep the
    /// sum a single `fetch_add` instead of a CAS loop over f64 bits.
    sum_nanos: AtomicU64,
}

impl Default for HistogramCell {
    fn default() -> Self {
        HistogramCell {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            sum_nanos: AtomicU64::new(0),
        }
    }
}

/// A monotonically increasing event count (dedup hits, frames sent,
/// reports accepted). Handles are `Arc`-backed: clone freely, cache in
/// hot structs, and bump lock-free. Always counts, enabled or not; each
/// event is one relaxed atomic add.
#[derive(Debug, Clone)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    fn fresh() -> Self {
        Counter {
            cell: Arc::default(),
        }
    }

    /// Add 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value of this handle's cell.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// A point-in-time level (queue depth, EPC bytes in use). Signed so that
/// matched `add`/`sub` pairs can momentarily cross zero under races
/// without wrapping. Always records, enabled or not.
#[derive(Debug, Clone)]
pub struct Gauge {
    cell: Arc<AtomicI64>,
}

impl Gauge {
    fn fresh() -> Self {
        Gauge {
            cell: Arc::default(),
        }
    }

    /// Set the level outright.
    #[inline]
    pub fn set(&self, v: i64) {
        self.cell.store(v, Ordering::Relaxed);
    }

    /// Raise the level by `n`.
    #[inline]
    pub fn add(&self, n: i64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Lower the level by `n`.
    #[inline]
    pub fn sub(&self, n: i64) {
        self.add(-n);
    }

    /// Ratchet the level up to `v` if `v` is higher (peak tracking).
    #[inline]
    pub fn set_max(&self, v: i64) {
        self.cell.fetch_max(v, Ordering::Relaxed);
    }

    /// Current level of this handle's cell.
    pub fn get(&self) -> i64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// A fixed-bucket latency histogram (exponential microsecond buckets,
/// see [`bucket_bounds`]). Record durations directly or through a
/// [`Span`]. Records nothing while its registry is disabled.
#[derive(Clone)]
pub struct Histogram {
    enabled: Arc<AtomicBool>,
    cell: Arc<HistogramCell>,
}

impl Histogram {
    /// Record one observation of `seconds`.
    #[inline]
    pub fn record(&self, seconds: f64) {
        if self.enabled.load(Ordering::Relaxed) {
            self.cell.counts[bucket_index(seconds)].fetch_add(1, Ordering::Relaxed);
            let nanos = (seconds.max(0.0) * 1e9) as u64;
            self.cell.sum_nanos.fetch_add(nanos, Ordering::Relaxed);
        }
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.cell
            .counts
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .sum()
    }

    /// Sum of all observations, in seconds.
    pub fn sum_seconds(&self) -> f64 {
        self.cell.sum_nanos.load(Ordering::Relaxed) as f64 * 1e-9
    }

    fn snapshot(&self) -> HistogramSnapshot {
        let mut counts = [0u64; NUM_BUCKETS];
        for (dst, src) in counts.iter_mut().zip(self.cell.counts.iter()) {
            *dst = src.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            counts,
            sum_seconds: self.sum_seconds(),
        }
    }
}

/// One instrument slot in the name table. Counter and gauge slots hold
/// every cell registered under the name: the shared cell first, then
/// each owned cell. Snapshots report their sum.
enum Instrument {
    Counter(Vec<Counter>),
    Gauge(Vec<Gauge>),
    Histogram(Histogram),
}

impl Instrument {
    fn counter() -> Self {
        Instrument::Counter(vec![Counter::fresh()])
    }

    fn gauge() -> Self {
        Instrument::Gauge(vec![Gauge::fresh()])
    }
}

fn type_mismatch(name: &str) -> ! {
    panic!("metric {name:?} already registered with a different type")
}

/// A named-instrument table with on-demand snapshots.
///
/// One process-wide instance lives behind [`crate::global`]; tests that
/// assert exact counts construct their own so concurrently running
/// suites cannot cross-contaminate.
///
/// ```
/// use prochlo_obs::Registry;
///
/// let registry = Registry::new(true);
/// let accepted = registry.counter("collector.ingest.accepted");
/// accepted.add(3);
///
/// let span = registry.span("collector.epoch.process");
/// // ... work ...
/// let elapsed_seconds = span.finish();
/// assert!(elapsed_seconds >= 0.0);
///
/// let snap = registry.snapshot();
/// assert_eq!(snap.get("collector.ingest.accepted"), Some(3.0));
/// ```
pub struct Registry {
    enabled: Arc<AtomicBool>,
    shards: [RwLock<BTreeMap<String, Instrument>>; NUM_SHARDS],
}

impl fmt::Debug for Registry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Registry")
            .field("enabled", &self.is_enabled())
            .finish_non_exhaustive()
    }
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new(true)
    }
}

impl Registry {
    /// Create a registry, initially enabled or disabled.
    pub fn new(enabled: bool) -> Self {
        Registry {
            enabled: Arc::new(AtomicBool::new(enabled)),
            shards: std::array::from_fn(|_| RwLock::new(BTreeMap::new())),
        }
    }

    /// Whether histograms and spans currently record. Counters and gauges
    /// record either way.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Flip histogram and span recording on or off. Existing handles
    /// observe the change immediately; disabled histograms cost one
    /// relaxed load per call, and disabled spans never read the clock.
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::Relaxed);
    }

    /// Look up or create the shared counter cell named `name`.
    pub fn counter(&self, name: &str) -> Counter {
        self.instrument(name, Instrument::counter, |i| match i {
            Instrument::Counter(cells) => Some(cells[0].clone()),
            _ => None,
        })
    }

    /// Look up or create the shared gauge cell named `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        self.instrument(name, Instrument::gauge, |i| match i {
            Instrument::Gauge(cells) => Some(cells[0].clone()),
            _ => None,
        })
    }

    /// Look up or create the histogram named `name`.
    pub fn histogram(&self, name: &str) -> Histogram {
        let make = || {
            Instrument::Histogram(Histogram {
                enabled: Arc::clone(&self.enabled),
                cell: Arc::new(HistogramCell::default()),
            })
        };
        self.instrument(name, make, |i| match i {
            Instrument::Histogram(h) => Some(h.clone()),
            _ => None,
        })
    }

    /// Register a fresh counter cell under `name`, owned by the caller:
    /// the handle reads only what it recorded itself, while snapshots
    /// report `name` as the sum of every cell registered under it. This
    /// is how one of several instances sharing a registry (two collectors
    /// in one process) keeps exact per-instance counts. Owned cells are
    /// never deregistered.
    ///
    /// ```
    /// let registry = prochlo_obs::Registry::new(false);
    /// let a = registry.owned_counter("collector.ingest.accepted");
    /// let b = registry.owned_counter("collector.ingest.accepted");
    /// a.add(2);
    /// b.add(3);
    /// assert_eq!((a.get(), b.get()), (2, 3));
    /// assert_eq!(registry.snapshot().get("collector.ingest.accepted"), Some(5.0));
    /// ```
    pub fn owned_counter(&self, name: &str) -> Counter {
        let cell = Counter::fresh();
        match self.shards[shard_of(name)]
            .write()
            .entry(name.to_owned())
            .or_insert_with(Instrument::counter)
        {
            Instrument::Counter(cells) => cells.push(cell.clone()),
            _ => type_mismatch(name),
        }
        cell
    }

    /// Register a fresh gauge cell under `name`, owned by the caller; see
    /// [`Self::owned_counter`]. Snapshots report the sum of the cells.
    pub fn owned_gauge(&self, name: &str) -> Gauge {
        let cell = Gauge::fresh();
        match self.shards[shard_of(name)]
            .write()
            .entry(name.to_owned())
            .or_insert_with(Instrument::gauge)
        {
            Instrument::Gauge(cells) => cells.push(cell.clone()),
            _ => type_mismatch(name),
        }
        cell
    }

    /// Start a [`Span`] that records into the histogram named `name` when
    /// finished. When the registry is disabled the span never reads the
    /// clock.
    pub fn span(&self, name: &str) -> Span {
        if self.is_enabled() {
            Span::started(self.histogram(name))
        } else {
            Span::disabled()
        }
    }

    /// Reads `pick` from the slot for `name`, creating the slot with
    /// `make` on first use.
    fn instrument<T>(
        &self,
        name: &str,
        make: impl FnOnce() -> Instrument,
        pick: impl Fn(&Instrument) -> Option<T>,
    ) -> T {
        let shard = &self.shards[shard_of(name)];
        let found = shard.read().get(name).map(&pick);
        found
            .unwrap_or_else(|| pick(shard.write().entry(name.to_owned()).or_insert_with(make)))
            .unwrap_or_else(|| type_mismatch(name))
    }

    /// Collect a point-in-time [`Snapshot`] of every instrument, sorted
    /// by name. Safe to call while writers are recording; each cell is
    /// read with relaxed atomics, so a snapshot is a consistent *per
    /// instrument* view, not a cross-instrument barrier.
    pub fn snapshot(&self) -> Snapshot {
        let mut entries: Vec<SnapshotEntry> = Vec::new();
        for shard in &self.shards {
            let map = shard.read();
            for (name, inst) in map.iter() {
                let value = match inst {
                    Instrument::Counter(cells) => {
                        SnapshotValue::Counter(cells.iter().map(Counter::get).sum())
                    }
                    Instrument::Gauge(cells) => {
                        SnapshotValue::Gauge(cells.iter().map(Gauge::get).sum())
                    }
                    Instrument::Histogram(h) => SnapshotValue::Histogram(Box::new(h.snapshot())),
                };
                entries.push(SnapshotEntry {
                    name: name.clone(),
                    value,
                });
            }
        }
        entries.sort_by(|a, b| a.name.cmp(&b.name));
        Snapshot { entries }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_matches_bounds() {
        for (secs, want) in [
            (0.0, 0),
            (0.5e-6, 0),
            (1.0e-6, 1),
            (1.5e-6, 1),
            (2.0e-6, 2),
            (3.9e-6, 2),
            (4.0e-6, 3),
            (1.0, 20),
            (1e9, NUM_BUCKETS - 1),
        ] {
            let idx = bucket_index(secs);
            assert_eq!(idx, want, "bucket_index({secs})");
            let (lo, hi) = bucket_bounds(idx);
            assert!(lo <= secs && secs < hi, "{secs} not in [{lo}, {hi})");
        }
    }

    #[test]
    fn disabled_registry_records_nothing() {
        // Disabled means no clock reads: histograms and spans record
        // nothing, while counters and gauges keep counting.
        let r = Registry::new(false);
        let c = r.counter("x");
        c.add(5);
        let g = r.gauge("g");
        g.add(2);
        let h = r.histogram("y");
        h.record(1.0);
        assert_eq!(c.get(), 5);
        assert_eq!(g.get(), 2);
        assert_eq!(h.count(), 0);
        let span = r.span("z");
        assert_eq!(span.finish(), 0.0);
        assert_eq!(
            r.snapshot().get("z"),
            None,
            "a disabled span registers nothing"
        );
    }

    #[test]
    fn reenabling_applies_to_existing_handles() {
        let r = Registry::new(false);
        let h = r.histogram("x");
        h.record(1.0);
        r.set_enabled(true);
        h.record(1.0);
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn owned_cells_are_exact_and_snapshots_sum_them() {
        let r = Registry::new(true);
        let shared = r.counter("c");
        let a = r.owned_counter("c");
        let b = r.owned_counter("c");
        shared.inc();
        a.add(10);
        b.add(100);
        assert_eq!((shared.get(), a.get(), b.get()), (1, 10, 100));
        assert_eq!(r.counter("c").get(), 1, "lookups return the shared cell");
        let ga = r.owned_gauge("g");
        let gb = r.owned_gauge("g");
        ga.add(3);
        gb.add(4);
        gb.sub(1);
        let snap = r.snapshot();
        assert_eq!(snap.get("c"), Some(111.0));
        assert_eq!(snap.get("g"), Some(6.0));
    }

    #[test]
    #[should_panic(expected = "different type")]
    fn type_mismatch_panics() {
        let r = Registry::new(true);
        r.counter("metric");
        r.gauge("metric");
    }

    #[test]
    fn gauge_set_max_ratchets() {
        let r = Registry::new(true);
        let g = r.gauge("peak");
        g.set_max(10);
        g.set_max(4);
        assert_eq!(g.get(), 10);
    }
}
