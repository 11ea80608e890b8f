//! Correctness checks, run after the timed region.
//!
//! A run is correct only if every check passes; each failure is reported
//! by what it found, and the benchmark then exits non-zero.

use std::collections::{BTreeMap, VecDeque};

use prochlo_core::shuffler::ShufflerStats;
use prochlo_core::AnalyzerDatabase;

use crate::gen::{Pool, Value};
use crate::pipeline::EpochEntry;

/// Reports of the Zipf head an epoch must hold before the head must also
/// survive thresholding: above T + D + 6σ of both noise draws
/// (20 + 10 + 12 + 12), so a miss is a bug, not bad luck.
pub const HEAD_MIN_REPORTS: u64 = 60;

#[derive(Debug, Default)]
pub struct Checks {
    pub failures: Vec<String>,
}

impl Checks {
    pub fn require(&mut self, ok: bool, failure: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(failure());
        }
    }

    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Submitted count of each value among `slots`.
pub fn value_counts(pool: &Pool, slots: impl IntoIterator<Item = u32>) -> BTreeMap<Value, u64> {
    let mut counts = BTreeMap::new();
    for slot in slots {
        if let Some(value) = pool.values.get(slot as usize) {
            *counts.entry(*value).or_insert(0) += 1;
        }
    }
    counts
}

/// One epoch: shuffler accounting, analyzer accounting, and the released
/// histogram against what the batch actually held.
pub fn check_epoch(
    checks: &mut Checks,
    pool: &Pool,
    slots: &[u32],
    stats: &ShufflerStats,
    db: &AnalyzerDatabase,
    share_threshold: usize,
) {
    let epoch = |msg: String| format!("epoch of {} reports: {msg}", slots.len());
    checks.require(slots.iter().all(|&s| (s as usize) < pool.len()), || {
        epoch("holds a report the workload never sealed".into())
    });
    let mut distinct = slots.to_vec();
    distinct.sort_unstable();
    distinct.dedup();
    checks.require(distinct.len() == slots.len(), || {
        epoch(format!(
            "holds {} repeated ciphertexts; the pool must outlast an epoch",
            slots.len() - distinct.len()
        ))
    });
    checks.require(stats.received == slots.len(), || {
        epoch(format!("shuffler received {}", stats.received))
    });
    let accounted =
        stats.forwarded + stats.dropped_noise + stats.dropped_threshold + stats.rejected;
    checks.require(stats.received == accounted, || {
        epoch(format!(
            "received {} != forwarded {} + dropped {} + {} + rejected {}",
            stats.received,
            stats.forwarded,
            stats.dropped_noise,
            stats.dropped_threshold,
            stats.rejected
        ))
    });
    checks.require(stats.rejected == 0, || {
        epoch(format!("{} reports rejected", stats.rejected))
    });
    checks.require(db.undecryptable() == 0, || {
        epoch(format!("{} items undecryptable", db.undecryptable()))
    });
    // Every forwarded item is a row, or a share still waiting for its
    // group to reach the threshold.
    checks.require(
        db.rows().len() + db.pending_secret_reports() == stats.forwarded,
        || {
            epoch(format!(
                "{} rows + {} pending shares != {} forwarded",
                db.rows().len(),
                db.pending_secret_reports(),
                stats.forwarded
            ))
        },
    );
    let submitted = value_counts(pool, slots.iter().copied());
    check_histogram(checks, &submitted, db, "epoch");
    for (label, count) in db.histogram().iter() {
        if let Some(value) = Value::parse(label).filter(|v| v.secret) {
            let shares = submitted.get(&value).copied().unwrap_or(0);
            let threshold = share_threshold as u64;
            checks.require(shares >= threshold && count >= threshold, || {
                epoch(format!(
                    "secret {value:?} recovered as {count} rows from {shares} shares, \
                     threshold {threshold}"
                ))
            });
        }
    }
    let head = submitted.get(&Value::HEAD).copied().unwrap_or(0);
    if head >= HEAD_MIN_REPORTS {
        checks.require(db.count(&Value::HEAD.label()) > 0, || {
            epoch(format!(
                "the Zipf head ({head} reports) was thresholded away"
            ))
        });
    }
}

/// No released value was never submitted, and none is counted more often
/// than it was submitted.
pub fn check_histogram(
    checks: &mut Checks,
    submitted: &BTreeMap<Value, u64>,
    db: &AnalyzerDatabase,
    scope: &str,
) {
    for (label, count) in db.histogram().iter() {
        match Value::parse(label) {
            None => checks.failures.push(format!(
                "{scope}: released value {:?} was never submitted",
                String::from_utf8_lossy(label)
            )),
            Some(value) => {
                let sent = submitted.get(&value).copied().unwrap_or(0);
                checks.require(count <= sent, || {
                    format!("{scope}: {value:?} released {count} times, submitted {sent}")
                });
            }
        }
    }
}

/// Maps every report of every epoch back to the accepted submission it
/// came from. A slot's submissions are accepted in the order they were
/// made (a pool slot is reused only a whole pool of submissions later),
/// so the k-th time slot `s` shows up in an epoch is the k-th accepted
/// submission of `s`. Returns the epoch position of each submission, or
/// what did not add up: an epoch report no submission explains, or an
/// accepted submission no epoch released.
pub fn attribute(
    accepted: impl IntoIterator<Item = (usize, u32)>,
    submissions: usize,
    epochs: &[EpochEntry],
) -> Result<Vec<Option<usize>>, String> {
    let mut by_slot: BTreeMap<u32, VecDeque<usize>> = BTreeMap::new();
    for (sub, slot) in accepted {
        by_slot.entry(slot).or_default().push_back(sub);
    }
    let mut epoch_of = vec![None; submissions];
    for (pos, epoch) in epochs.iter().enumerate() {
        for &slot in &epoch.slots {
            let sub = by_slot
                .get_mut(&slot)
                .and_then(VecDeque::pop_front)
                .ok_or_else(|| {
                    format!(
                        "epoch {} released slot {slot} more often than it was accepted",
                        epoch.index
                    )
                })?;
            epoch_of[sub] = Some(pos);
        }
    }
    let unreleased: usize = by_slot.values().map(VecDeque::len).sum();
    if unreleased > 0 {
        return Err(format!("{unreleased} accepted reports were never released"));
    }
    Ok(epoch_of)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    fn epoch(index: u64, slots: &[u32]) -> EpochEntry {
        let now = Instant::now();
        EpochEntry {
            index,
            slots: slots.to_vec(),
            started: now,
            released: now,
        }
    }

    #[test]
    fn attribution_follows_per_slot_order() {
        // Submissions 0..5 used slots 0,1,0,1,2; submission 3 failed.
        let accepted = [(0, 0), (1, 1), (2, 0), (4, 2)];
        let epochs = [epoch(0, &[1, 0]), epoch(1, &[2, 0])];
        let got = attribute(accepted, 5, &epochs).unwrap();
        assert_eq!(got, vec![Some(0), Some(0), Some(1), None, Some(1)]);
    }

    #[test]
    fn attribution_refuses_extra_and_missing_reports() {
        let accepted = [(0, 0), (1, 1)];
        assert!(attribute(accepted, 2, &[epoch(0, &[0, 0, 1])]).is_err());
        assert!(attribute(accepted, 2, &[epoch(0, &[0])]).is_err());
    }
}
