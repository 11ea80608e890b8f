//! Seeded workload inputs: Zipf-distributed values sealed into a pool of
//! distinct client reports.
//!
//! The pool is a pure function of the seed. Plain reports carry the value
//! `w<rank>`, secret-shared ones (§4.2) `s<rank>`, so the two never merge
//! in the analyzer's histogram and a recovered secret can be told apart
//! from a plain report of the same word. Each report's crowd ID is its own
//! value, hashed (single topology) or El Gamal-blinded (split topology).
//!
//! Plain reports are padded to the length of the secret-shared ones, so
//! every record of a batch has one length: the Stash shuffle requires it,
//! and a length that differed by encoding would tell the shuffler which
//! reports are secret-shared.

use std::collections::HashMap;

use prochlo_core::{ClientKeys, ClientReport, CrowdStrategy, Encoder};
use prochlo_stats::Zipf;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Distinct values the Zipf draws range over.
pub const ZIPF_VALUES: usize = 1000;
/// Zipf exponent of the value distribution.
pub const ZIPF_EXPONENT: f64 = 1.0;
/// Share of reports that are secret-shared instead of plain.
pub const SECRET_FRACTION: f64 = 0.2;

/// Domain-separated RNG streams derived from the workload seed.
pub fn rng(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

pub const STREAM_DEPLOYMENT: u64 = 1;
pub const STREAM_DRAWS: u64 = 2;
pub const STREAM_SEAL: u64 = 3;
pub const STREAM_NONCES: u64 = 4;

/// One report's value: its Zipf rank and whether it is secret-shared.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Value {
    pub rank: u32,
    pub secret: bool,
}

impl Value {
    pub fn label(&self) -> Vec<u8> {
        format!("{}{:04}", if self.secret { 's' } else { 'w' }, self.rank).into_bytes()
    }

    /// Inverse of [`Self::label`]; `None` for anything the workload never
    /// submits.
    pub fn parse(label: &[u8]) -> Option<Self> {
        let text = std::str::from_utf8(label).ok()?;
        let (kind, digits) = text.split_at_checked(1)?;
        let secret = match kind {
            "w" => false,
            "s" => true,
            _ => return None,
        };
        if digits.len() != 4 || !digits.bytes().all(|b| b.is_ascii_digit()) {
            return None;
        }
        let rank: u32 = digits.parse().ok()?;
        ((rank as usize) < ZIPF_VALUES).then_some(Self { rank, secret })
    }

    /// The most frequent value: the Zipf head, submitted plain.
    pub const HEAD: Value = Value {
        rank: 0,
        secret: false,
    };
}

/// The value of each pool slot, drawn from the seed alone.
pub fn draw_values(seed: u64, n: usize) -> Vec<Value> {
    let zipf = Zipf::new(ZIPF_VALUES, ZIPF_EXPONENT);
    let mut rng = rng(seed, STREAM_DRAWS);
    (0..n)
        .map(|_| {
            let rank = zipf.sample(&mut rng) as u32;
            let secret = rng.gen_bool(SECRET_FRACTION);
            Value { rank, secret }
        })
        .collect()
}

/// How a pool's reports name their crowd.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Crowd {
    Hashed,
    Blinded,
}

/// Pre-sealed distinct reports and what is inside each.
pub struct Pool {
    pub reports: Vec<ClientReport>,
    /// The outer ciphertext's wire bytes, what a client submits.
    pub wire: Vec<Vec<u8>>,
    pub values: Vec<Value>,
    /// Outer ephemeral key → slot: identifies a report inside a cut batch.
    slot_of: HashMap<[u8; 32], u32>,
}

/// The payload size that makes a plain report exactly as long as a
/// secret-shared one sealed with `payload_size`.
fn plain_payload_size(
    keys: &ClientKeys,
    payload_size: usize,
    threshold: usize,
    crowd: Crowd,
) -> usize {
    let encoder = Encoder::new(keys.clone(), payload_size);
    let mut rng = rng(0, STREAM_SEAL);
    let label = Value::HEAD.label();
    let strategy = match crowd {
        Crowd::Hashed => CrowdStrategy::Hash(&label),
        Crowd::Blinded => CrowdStrategy::Blind(&label),
    };
    let len = |report: Result<ClientReport, _>| {
        report
            .expect("the probe value fits the payload size")
            .outer
            .wire_len()
    };
    let secret = len(encoder.encode_secret_shared(&label, threshold, strategy, 0, &mut rng));
    let plain = len(encoder.encode_plain(&label, strategy, 0, &mut rng));
    payload_size + secret.saturating_sub(plain)
}

impl Pool {
    /// Seals one report per drawn value; secret-shared reports use
    /// `payload_size`, plain ones the size that matches their length.
    pub fn seal(
        keys: &ClientKeys,
        payload_size: usize,
        share_threshold: usize,
        crowd: Crowd,
        seed: u64,
        n: usize,
    ) -> Self {
        let secret_encoder = Encoder::new(keys.clone(), payload_size);
        let plain_encoder = Encoder::new(
            keys.clone(),
            plain_payload_size(keys, payload_size, share_threshold, crowd),
        );
        let values = draw_values(seed, n);
        let seal = |i: usize| {
            // One RNG per slot: the pool is the same however many threads
            // seal it.
            let mut rng = rng(seed ^ ((i as u64) << 20), STREAM_SEAL);
            let value = values[i];
            let label = value.label();
            let strategy = match crowd {
                Crowd::Hashed => CrowdStrategy::Hash(&label),
                Crowd::Blinded => CrowdStrategy::Blind(&label),
            };
            let sealed = if value.secret {
                secret_encoder.encode_secret_shared(
                    &label,
                    share_threshold,
                    strategy,
                    i as u64,
                    &mut rng,
                )
            } else {
                plain_encoder.encode_plain(&label, strategy, i as u64, &mut rng)
            };
            sealed.expect("the workload's values fit the payload size")
        };
        // Two sealing threads, one per core of the reference host.
        let half = n / 2;
        let (first, second) = std::thread::scope(|scope| {
            let first = std::thread::Builder::new()
                .name("bench-seal".into())
                .spawn_scoped(scope, || (0..half).map(seal).collect::<Vec<_>>())
                .expect("spawn sealing thread");
            let second: Vec<ClientReport> = (half..n).map(seal).collect();
            (first.join().expect("sealing thread panicked"), second)
        });
        let reports: Vec<ClientReport> = first.into_iter().chain(second).collect();
        let wire = reports.iter().map(|r| r.outer.to_bytes()).collect();
        let slot_of = reports
            .iter()
            .enumerate()
            .map(|(i, r)| (r.outer.ephemeral, i as u32))
            .collect();
        Self {
            reports,
            wire,
            values,
            slot_of,
        }
    }

    pub fn len(&self) -> usize {
        self.reports.len()
    }

    /// The pool slot a (possibly re-parsed) report was sealed into.
    pub fn slot(&self, report: &ClientReport) -> Option<u32> {
        self.slot_of.get(&report.outer.ephemeral).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_draws_other_seed_other_draws() {
        let a = draw_values(7, 4096);
        assert_eq!(a, draw_values(7, 4096));
        assert_ne!(a, draw_values(8, 4096));
        // A prefix of a longer draw is the shorter draw.
        assert_eq!(a[..100], draw_values(7, 100)[..]);
    }

    #[test]
    fn draws_are_zipf_headed_with_a_secret_share() {
        let draws = draw_values(1, 20_000);
        let head = draws.iter().filter(|v| v.rank == 0).count() as f64 / 20_000.0;
        // Zipf(1000, 1): the head has mass 1/H(1000) ≈ 0.134.
        assert!((0.12..0.15).contains(&head), "head share {head}");
        let secret = draws.iter().filter(|v| v.secret).count() as f64 / 20_000.0;
        assert!((0.19..0.21).contains(&secret), "secret share {secret}");
    }

    #[test]
    fn labels_round_trip_and_foreign_labels_are_refused() {
        for v in [
            Value::HEAD,
            Value {
                rank: 999,
                secret: true,
            },
        ] {
            assert_eq!(Value::parse(&v.label()), Some(v));
        }
        for bad in [&b"w1000"[..], b"x0001", b"w01", b"", b"w00a1"] {
            assert_eq!(Value::parse(bad), None);
        }
    }

    #[test]
    fn same_seed_same_sealed_pool_of_one_record_length() {
        let mut rng = rng(5, STREAM_DEPLOYMENT);
        let deployment = prochlo_core::Deployment::builder().build(&mut rng);
        let keys = deployment.client_keys();
        let a = Pool::seal(&keys, 32, 20, Crowd::Hashed, 5, 64);
        let b = Pool::seal(&keys, 32, 20, Crowd::Hashed, 5, 64);
        assert_eq!(a.wire, b.wire);
        assert!(a.values.iter().any(|v| v.secret) && a.values.iter().any(|v| !v.secret));
        assert!(a.wire.iter().all(|w| w.len() == a.wire[0].len()));
        for (i, report) in a.reports.iter().enumerate() {
            assert_eq!(a.slot(report), Some(i as u32));
        }
    }
}
