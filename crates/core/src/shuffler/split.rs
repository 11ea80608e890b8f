//! The split shuffler with blinded crowd IDs (§4.3).
//!
//! Two non-colluding parties jointly threshold on crowd IDs without either
//! seeing them in the clear:
//!
//! * **Shuffler 1** holds the hybrid key for the outer encryption layer. It
//!   peels reports, *blinds* each El Gamal-encrypted crowd ID with a
//!   per-batch secret exponent α (and re-randomizes it), shuffles the batch
//!   and forwards it. It never holds the El Gamal private key, so it cannot
//!   dictionary-attack the crowd IDs it relays.
//! * **Shuffler 2** holds the El Gamal private key. It decrypts each blinded
//!   crowd ID to the pseudonymous handle `α·H(crowd ID)` — equal handles
//!   mean equal crowd IDs, so it can count and apply the same randomized
//!   thresholding as the single shuffler — but without α it cannot test
//!   guesses against the handles. It shuffles again and forwards the inner
//!   ciphertexts to the analyzer.

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use prochlo_crypto::edwards::{CompressedPoint, FixedBase, Point};
use prochlo_crypto::elgamal::{BlindingSecret, ElGamalCiphertext, ElGamalKeypair};
use prochlo_crypto::hybrid::{HybridCiphertext, HybridKeypair};
use prochlo_crypto::PublicKey;
use prochlo_stats::{Gaussian, RoundedNormal};

use crate::encoder::SHUFFLER_AAD;
use crate::error::PipelineError;
use crate::record::{ClientReport, CrowdId, ShufflerEnvelope};
use crate::shuffler::{ShuffleOutcome, ShufflerConfig, ShufflerStats};

/// A report in transit between the two shufflers: the blinded crowd ID plus
/// the untouched inner ciphertext.
#[derive(Debug, Clone)]
pub struct BlindedRecord {
    /// The El Gamal ciphertext after blinding and re-randomization.
    pub blinded_crowd: ElGamalCiphertext,
    /// The inner ciphertext (sealed to the analyzer).
    pub inner: Vec<u8>,
}

/// Shuffler 1: peels, blinds, shuffles, forwards.
#[derive(Debug, Clone)]
pub struct ShufflerOne {
    keys: HybridKeypair,
}

/// Shuffler 2: unblinds to pseudonymous handles, thresholds, shuffles.
#[derive(Debug)]
pub struct ShufflerTwo {
    elgamal: ElGamalKeypair,
    config: ShufflerConfig,
}

/// The two-shuffler deployment as a unit.
#[derive(Debug)]
pub struct SplitShuffler {
    /// Shuffler 1 (outer-layer key holder).
    pub one: ShufflerOne,
    /// Shuffler 2 (El Gamal key holder, thresholder).
    pub two: ShufflerTwo,
}

impl ShufflerOne {
    /// Creates Shuffler 1 with fresh keys.
    pub fn new<R: Rng + ?Sized>(rng: &mut R) -> Self {
        Self {
            keys: HybridKeypair::generate(rng),
        }
    }

    /// The public key clients embed for the outer layer.
    pub fn public_key(&self) -> &PublicKey {
        self.keys.public_key()
    }

    /// Peels, blinds and shuffles one batch, forwarding blinded records
    /// together with this stage's own [`ShufflerStats`].
    ///
    /// Shuffler 1 never observes crowd IDs (that is the point of blinding),
    /// so `crowds_seen`/`crowds_forwarded` stay `0` in its stats and the
    /// thresholding counters are always zero; its stage is accounted under
    /// the backend name `"blind"`.
    pub fn process_batch<R: Rng + ?Sized>(
        &self,
        reports: &[ClientReport],
        elgamal_public: &Point,
        rng: &mut R,
    ) -> Result<(Vec<BlindedRecord>, ShufflerStats), PipelineError> {
        let peel_span = prochlo_obs::span("shuffler.s1.peel");
        let blinding = BlindingSecret::random(rng);
        // Every record is rerandomized under the same key: one comb table
        // per batch replaces a variable-base multiplication per record.
        let elgamal_table = FixedBase::new(elgamal_public);
        let opened = HybridCiphertext::open_batch(
            reports.iter().map(|report| &report.outer),
            self.keys.secret(),
            SHUFFLER_AAD,
        );
        let mut rejected = 0usize;
        let mut records = Vec::with_capacity(reports.len());
        for bytes in opened {
            let envelope = match bytes.and_then(|bytes| ShufflerEnvelope::from_bytes(&bytes).ok()) {
                Some(e) => e,
                None => {
                    rejected += 1;
                    continue;
                }
            };
            let blinded_crowd = match envelope.crowd_id {
                CrowdId::Blinded(ct) => ct.blind(&blinding).rerandomize(rng, &elgamal_table),
                _ => {
                    // The split shuffler is only deployed for blinded crowd
                    // IDs; anything else indicates a misconfigured encoder.
                    rejected += 1;
                    continue;
                }
            };
            records.push(BlindedRecord {
                blinded_crowd,
                inner: envelope.inner,
            });
        }
        let peel_seconds = peel_span.finish();
        let shuffle_span = prochlo_obs::span("shuffler.s1.shuffle");
        records.shuffle(rng);
        let mut stats = ShufflerStats {
            received: reports.len(),
            forwarded: records.len(),
            rejected,
            shuffle_attempts: 1,
            backend: "blind",
            ..ShufflerStats::default()
        };
        stats.timings.peel_seconds = peel_seconds;
        stats.timings.shuffle_seconds = shuffle_span.finish();
        Ok((records, stats))
    }
}

impl ShufflerTwo {
    /// Creates Shuffler 2 with fresh El Gamal keys and the given thresholding
    /// configuration.
    pub fn new<R: Rng + ?Sized>(config: ShufflerConfig, rng: &mut R) -> Self {
        Self {
            elgamal: ElGamalKeypair::generate(rng),
            config,
        }
    }

    /// The El Gamal public key clients use to encrypt crowd IDs.
    pub fn elgamal_public(&self) -> &Point {
        self.elgamal.public_key()
    }

    /// The thresholding configuration this shuffler applies.
    pub fn config(&self) -> &ShufflerConfig {
        &self.config
    }

    /// Unblinds crowd IDs to pseudonymous handles, applies randomized
    /// thresholding and shuffles.
    pub fn process_batch<R: Rng + ?Sized>(
        &self,
        records: Vec<BlindedRecord>,
        rng: &mut R,
    ) -> Result<(Vec<Vec<u8>>, ShufflerStats), PipelineError> {
        let peel_span = prochlo_obs::span("shuffler.s2.peel");
        let mut stats = ShufflerStats {
            received: records.len(),
            backend: "inline",
            ..ShufflerStats::default()
        };

        // Decrypt to handles and group by handle.
        // Deterministic iteration order: the per-crowd noise draws below
        // must be a pure function of the seeded rng (see threshold() in
        // shuffler/mod.rs for the same fix).
        let mut groups: BTreeMap<[u8; 32], Vec<usize>> = BTreeMap::new();
        let handles = self.handles(&records);
        let mut inners: Vec<Vec<u8>> = Vec::with_capacity(records.len());
        for (idx, (handle, record)) in handles.into_iter().zip(records).enumerate() {
            groups.entry(handle.0).or_default().push(idx);
            inners.push(record.inner);
        }
        stats.crowds_seen = groups.len();
        // Unblinding to handles is this stage's "peel".
        stats.timings.peel_seconds = peel_span.finish();
        let threshold_span = prochlo_obs::span("shuffler.s2.threshold");

        let drop_dist = if self.config.drop_mean > 0.0 || self.config.drop_sigma > 0.0 {
            Some(RoundedNormal::new(
                self.config.drop_mean,
                self.config.drop_sigma,
            ))
        } else {
            None
        };
        let noise_dist = if self.config.threshold_noise_sigma > 0.0 {
            Some(Gaussian::new(0.0, self.config.threshold_noise_sigma))
        } else {
            None
        };

        let mut keep = vec![false; inners.len()];
        for (_, mut members) in groups {
            if let Some(dist) = &drop_dist {
                let d = (dist.sample(rng) as usize).min(members.len());
                members.shuffle(rng);
                members.truncate(members.len() - d);
                stats.dropped_noise += d;
            }
            let noise = noise_dist.as_ref().map_or(0.0, |d| d.sample(rng));
            if (members.len() as f64) > self.config.cardinality_threshold as f64 + noise {
                stats.crowds_forwarded += 1;
                for idx in members {
                    keep[idx] = true;
                }
            } else {
                stats.dropped_threshold += members.len();
            }
        }

        stats.timings.threshold_seconds = threshold_span.finish();

        let shuffle_span = prochlo_obs::span("shuffler.s2.shuffle");
        let mut survivors: Vec<Vec<u8>> = inners
            .into_iter()
            .zip(keep)
            .filter_map(|(inner, kept)| kept.then_some(inner))
            .collect();
        survivors.shuffle(rng);
        stats.forwarded = survivors.len();
        stats.shuffle_attempts = 1;
        stats.timings.shuffle_seconds = shuffle_span.finish();
        Ok((survivors, stats))
    }

    /// Decrypts each blinded crowd ID to its pseudonymous handle; the whole
    /// batch is compressed with one field inversion.
    fn handles(&self, records: &[BlindedRecord]) -> Vec<CompressedPoint> {
        let points: Vec<Point> = records
            .iter()
            .map(|record| self.elgamal.decrypt(&record.blinded_crowd))
            .collect();
        Point::batch_compress(&points)
    }
}

impl SplitShuffler {
    /// Creates both shufflers.
    pub fn new<R: Rng + ?Sized>(config: ShufflerConfig, rng: &mut R) -> Self {
        Self {
            one: ShufflerOne::new(rng),
            two: ShufflerTwo::new(config, rng),
        }
    }

    /// Draws the two per-stage sub-seeds one batch consumes from the
    /// master stream: Shuffler 1's first, Shuffler 2's second.
    ///
    /// Each stage runs on its own `StdRng` seeded from one `u64` — that is
    /// the whole interface between the batch's master randomness and the
    /// stages, which is what lets the two shufflers run in separate
    /// processes (each receives its sub-seed on the wire) while remaining
    /// byte-identical to the in-process run. A wire driver replaying a
    /// batch must draw the seeds with exactly this function.
    pub fn stage_seeds<R: Rng + ?Sized>(rng: &mut R) -> (u64, u64) {
        let s1_seed = rng.next_u64();
        let s2_seed = rng.next_u64();
        (s1_seed, s2_seed)
    }

    /// Runs a batch through both shufflers, returning the shuffled inner
    /// ciphertexts with both a merged batch-level view and the per-stage
    /// statistics of each shuffler (Shuffler 1 first).
    ///
    /// Consumes exactly two `u64`s from `rng` (see [`Self::stage_seeds`]);
    /// everything else each stage does derives from its own sub-seed.
    pub fn process_batch<R: Rng + ?Sized>(
        &self,
        reports: &[ClientReport],
        rng: &mut R,
    ) -> Result<ShuffleOutcome, PipelineError> {
        let (s1_seed, s2_seed) = Self::stage_seeds(rng);
        self.process_batch_with_seeds(reports, s1_seed, s2_seed)
    }

    /// [`Self::process_batch`] with the per-stage sub-seeds already drawn —
    /// the form a networked deployment uses, where the driver draws the
    /// seeds and ships one to each shuffler process.
    pub fn process_batch_with_seeds(
        &self,
        reports: &[ClientReport],
        s1_seed: u64,
        s2_seed: u64,
    ) -> Result<ShuffleOutcome, PipelineError> {
        let mut rng_one = StdRng::seed_from_u64(s1_seed);
        let (blinded, stage_one) =
            self.one
                .process_batch(reports, self.two.elgamal_public(), &mut rng_one)?;
        let mut rng_two = StdRng::seed_from_u64(s2_seed);
        let (items, stage_two) = self.two.process_batch(blinded, &mut rng_two)?;
        let stats = Self::merge_stage_stats(reports.len(), &stage_one, &stage_two);
        Ok(ShuffleOutcome {
            items,
            stats,
            stage_stats: vec![stage_one, stage_two],
        })
    }

    /// The merged batch-level view of a split run, preserving the
    /// pre-redesign contract: batch-level counts span both stages
    /// (`received` is what entered Shuffler 1, `rejected` is what its peel
    /// refused), everything else is the thresholding stage's accounting.
    /// Timings combine phase-wise across the stages. Public so a wire
    /// driver that ran the stages remotely can reassemble the identical
    /// merged view from the per-stage stats it received.
    pub fn merge_stage_stats(
        received: usize,
        stage_one: &ShufflerStats,
        stage_two: &ShufflerStats,
    ) -> ShufflerStats {
        let mut stats = stage_two.clone();
        stats.rejected = stage_one.rejected;
        stats.received = received;
        stats.timings.peel_seconds =
            stage_one.timings.peel_seconds + stage_two.timings.peel_seconds;
        stats.timings.shuffle_seconds =
            stage_one.timings.shuffle_seconds + stage_two.timings.shuffle_seconds;
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::{ClientKeys, CrowdStrategy, Encoder};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(rng: &mut StdRng) -> (Encoder, SplitShuffler, HybridKeypair) {
        let analyzer = HybridKeypair::generate(rng);
        let split = SplitShuffler::new(ShufflerConfig::default(), rng);
        let keys = ClientKeys {
            shuffler: *split.one.public_key(),
            analyzer: *analyzer.public_key(),
            crowd_blinding: Some(*split.two.elgamal_public()),
        };
        (Encoder::new(keys, 32), split, analyzer)
    }

    fn blinded_reports(
        encoder: &Encoder,
        word: &[u8],
        count: usize,
        rng: &mut StdRng,
    ) -> Vec<ClientReport> {
        (0..count)
            .map(|i| {
                encoder
                    .encode_plain(word, CrowdStrategy::Blind(word), i as u64, rng)
                    .unwrap()
            })
            .collect()
    }

    #[test]
    fn blinded_thresholding_keeps_popular_crowds() {
        let mut rng = StdRng::seed_from_u64(1);
        let (encoder, split, _analyzer) = setup(&mut rng);
        let mut reports = blinded_reports(&encoder, b"common-word", 120, &mut rng);
        reports.extend(blinded_reports(&encoder, b"rare-word", 4, &mut rng));
        let outcome = split.process_batch(&reports, &mut rng).unwrap();
        assert_eq!(outcome.stats.crowds_seen, 2);
        assert_eq!(outcome.stats.crowds_forwarded, 1);
        let items = &outcome.items;
        assert!(items.len() >= 100 && items.len() <= 115, "{}", items.len());
        // Per-stage symmetry: Shuffler 1 saw every report but no crowds;
        // Shuffler 2 did the thresholding.
        assert_eq!(outcome.stage_stats.len(), 2);
        assert_eq!(outcome.stage_stats[0].backend, "blind");
        assert_eq!(outcome.stage_stats[0].received, 124);
        assert_eq!(outcome.stage_stats[0].crowds_seen, 0);
        assert_eq!(outcome.stage_stats[1].backend, "inline");
        assert_eq!(outcome.stage_stats[1].crowds_seen, 2);
        assert_eq!(outcome.stage_stats[1].forwarded, outcome.stats.forwarded);
    }

    #[test]
    fn shuffler_two_sees_handles_not_crowd_ids() {
        // The handle Shuffler 2 derives must not equal the unblinded
        // hash-to-group point of the crowd label (no dictionary attack).
        let mut rng = StdRng::seed_from_u64(2);
        let (encoder, split, _analyzer) = setup(&mut rng);
        let report = &blinded_reports(&encoder, b"guessable", 1, &mut rng)[0];
        let (blinded, _) = split
            .one
            .process_batch(
                std::slice::from_ref(report),
                split.two.elgamal_public(),
                &mut rng,
            )
            .unwrap();
        let handle = split.two.elgamal.decrypt(&blinded[0].blinded_crowd);
        assert_ne!(handle, Point::hash_to_point(b"guessable"));
    }

    #[test]
    fn non_blinded_reports_are_rejected_by_shuffler_one() {
        let mut rng = StdRng::seed_from_u64(3);
        let (encoder, split, _analyzer) = setup(&mut rng);
        let mut reports = blinded_reports(&encoder, b"w", 30, &mut rng);
        reports.push(
            encoder
                .encode_plain(b"w", CrowdStrategy::Hash(b"w"), 99, &mut rng)
                .unwrap(),
        );
        let outcome = split.process_batch(&reports, &mut rng).unwrap();
        assert_eq!(outcome.stats.rejected, 1);
        assert_eq!(outcome.stage_stats[0].rejected, 1);
    }

    /// Reference for Shuffler 1: open, blind and rerandomize each record
    /// under the bare key, and serialize each ciphertext on its own.
    fn per_record_shuffler_one(
        one: &ShufflerOne,
        reports: &[ClientReport],
        elgamal_public: &Point,
        rng: &mut StdRng,
    ) -> Vec<([u8; 64], Vec<u8>)> {
        let blinding = BlindingSecret::random(rng);
        let mut records = Vec::new();
        for report in reports {
            let Some(envelope) = report
                .outer
                .open(one.keys.secret(), SHUFFLER_AAD)
                .ok()
                .and_then(|bytes| ShufflerEnvelope::from_bytes(&bytes).ok())
            else {
                continue;
            };
            if let CrowdId::Blinded(ct) = envelope.crowd_id {
                let crowd = ct.blind(&blinding).rerandomize(rng, elgamal_public);
                records.push((crowd.to_bytes(), envelope.inner));
            }
        }
        records.shuffle(rng);
        records
    }

    #[test]
    fn batched_crypto_matches_the_per_record_path() {
        let mut rng = StdRng::seed_from_u64(5);
        let (encoder, split, _analyzer) = setup(&mut rng);
        let mut reports = blinded_reports(&encoder, b"alpha", 12, &mut rng);
        reports.extend(blinded_reports(&encoder, b"beta", 9, &mut rng));
        // A garbage ephemeral key, a flipped tag byte and a hashed crowd ID
        // must each be rejected without shifting their neighbours.
        reports[3].outer.ephemeral = [0x11; 32];
        let last = reports[7].outer.sealed.len() - 1;
        reports[7].outer.sealed[last] ^= 1;
        reports.insert(
            10,
            encoder
                .encode_plain(b"alpha", CrowdStrategy::Hash(b"alpha"), 99, &mut rng)
                .unwrap(),
        );
        let elgamal_public = split.two.elgamal_public();

        let (records, stats) = split
            .one
            .process_batch(&reports, elgamal_public, &mut StdRng::seed_from_u64(11))
            .unwrap();
        assert_eq!(stats.rejected, 3);
        assert_eq!(records.len(), reports.len() - 3);
        let reference = per_record_shuffler_one(
            &split.one,
            &reports,
            elgamal_public,
            &mut StdRng::seed_from_u64(11),
        );
        let forwarded: Vec<([u8; 64], Vec<u8>)> = records
            .iter()
            .map(|r| (r.blinded_crowd.to_bytes(), r.inner.clone()))
            .collect();
        assert_eq!(forwarded, reference);

        let handles = split.two.handles(&records);
        assert_eq!(handles.len(), records.len());
        for (handle, record) in handles.iter().zip(&records) {
            assert_eq!(
                *handle,
                split.two.elgamal.decrypt(&record.blinded_crowd).compress()
            );
        }
    }

    #[test]
    fn staged_seeds_reproduce_the_joint_run() {
        // The process-separability contract: drawing the two sub-seeds and
        // running the stages on their own RNGs (what the wire topology
        // does) is byte-identical to the joint in-process run.
        let mut rng = StdRng::seed_from_u64(7);
        let (encoder, split, _analyzer) = setup(&mut rng);
        let reports = blinded_reports(&encoder, b"word", 80, &mut rng);
        let mut joint_rng = StdRng::seed_from_u64(99);
        let joint = split.process_batch(&reports, &mut joint_rng).unwrap();
        let mut seed_rng = StdRng::seed_from_u64(99);
        let (s1_seed, s2_seed) = SplitShuffler::stage_seeds(&mut seed_rng);
        let staged = split
            .process_batch_with_seeds(&reports, s1_seed, s2_seed)
            .unwrap();
        assert_eq!(joint.items, staged.items);
        assert_eq!(joint.stats, staged.stats);
        assert_eq!(joint.stage_stats, staged.stage_stats);
    }

    #[test]
    fn analyzer_can_decrypt_forwarded_items() {
        let mut rng = StdRng::seed_from_u64(4);
        let (encoder, split, analyzer) = setup(&mut rng);
        let reports = blinded_reports(&encoder, b"hello-world", 60, &mut rng);
        let outcome = split.process_batch(&reports, &mut rng).unwrap();
        assert!(outcome.stats.forwarded > 20);
        let analyzer_obj = crate::analyzer::Analyzer::new(analyzer);
        let db = analyzer_obj.ingest_items(&outcome.items).unwrap();
        assert_eq!(
            db.histogram().count(&b"hello-world".to_vec()),
            outcome.items.len() as u64
        );
    }
}
