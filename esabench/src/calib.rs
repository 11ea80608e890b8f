//! The crypto floor: what the per-report public-key work costs on this
//! host, measured on every run so the pipeline's efficiency can be stated
//! relative to the hardware it ran on; and the speed probe, which times a
//! computation that is not the program's while a window runs, so the
//! deployment's CPU per report can be stated in units that do not drift
//! with the host's speed.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use prochlo_core::encoder::SHUFFLER_AAD;
use prochlo_crypto::elgamal::{BlindingSecret, ElGamalCiphertext, ElGamalKeypair};
use prochlo_crypto::hybrid::{HybridCiphertext, HybridKeypair};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::stats::median;

/// Each figure is the median of repetitions spread over at least this
/// long, so one slow moment of a shared host does not set the floor.
const SPAN: Duration = Duration::from_millis(100);
/// And of at least this many repetitions.
const MIN_REPS: usize = 11;
/// Records per `open_batch` call, the analyzer's chunk scale.
const BATCH: usize = 64;
/// Plaintext length of an outer layer: a sealed inner report plus the
/// crowd ID, what the shuffler peels.
const PLAINTEXT: usize = 200;

#[derive(Debug, Clone, Copy)]
pub struct Floor {
    pub open_us: f64,
    pub open_batch_us_per_record: f64,
    /// Blind + rerandomize + decrypt of one El Gamal crowd ID.
    pub elgamal_us: f64,
}

impl Floor {
    /// Public-key work per report: the shuffler's peel, the analyzer's
    /// decrypt for the `forwarded` share of reports that survive
    /// thresholding (both batched hybrid opens in the program), plus the
    /// §4.3 blind, rerandomize and decrypt in the split topology.
    pub fn us_per_report(&self, forwarded: f64, split: bool) -> f64 {
        (1.0 + forwarded) * self.open_batch_us_per_record
            + if split { self.elgamal_us } else { 0.0 }
    }
}

fn time_us(mut f: impl FnMut()) -> f64 {
    let begin = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < MIN_REPS || begin.elapsed() < SPAN {
        let start = Instant::now();
        f();
        samples.push(start.elapsed().as_secs_f64() * 1e6);
    }
    median(&samples)
}

pub fn measure(seed: u64) -> Floor {
    let mut rng = StdRng::seed_from_u64(seed);
    let keys = HybridKeypair::generate(&mut rng);
    let plaintext = vec![0x5a; PLAINTEXT];
    let batch: Vec<HybridCiphertext> = (0..BATCH)
        .map(|_| {
            HybridCiphertext::seal(&mut rng, keys.public_key(), SHUFFLER_AAD, &plaintext)
                .expect("seal calibration record")
        })
        .collect();
    let open_us = time_us(|| {
        black_box(black_box(&batch[0]).open(keys.secret(), SHUFFLER_AAD)).expect("open");
    });
    let open_batch_us_per_record = time_us(|| {
        black_box(HybridCiphertext::open_batch(
            black_box(&batch),
            keys.secret(),
            SHUFFLER_AAD,
        ));
    }) / BATCH as f64;

    let elgamal = ElGamalKeypair::generate(&mut rng);
    let crowd = ElGamalCiphertext::encrypt_hashed(&mut rng, elgamal.public_key(), b"w0000");
    let blinding = BlindingSecret::random(&mut rng);
    let elgamal_us = time_us(|| {
        let blinded = black_box(&crowd).blind(&blinding);
        let fresh = blinded.rerandomize(&mut rng, elgamal.public_key());
        black_box(elgamal.decrypt(&fresh));
    });
    Floor {
        open_us,
        open_batch_us_per_record,
        elgamal_us,
    }
}

/// Rounds of the reference computation per probe sample (about 75 µs on
/// a 2-vCPU Xeon VM).
const REFERENCE_ROUNDS: u64 = 8192;
/// The probe wakes this often and takes [`PROBE_SAMPLES`] samples.
const PROBE_EVERY: Duration = Duration::from_millis(200);
const PROBE_SAMPLES: usize = 8;

/// A fixed computation that shares no code with the program: four
/// independent multiply-and-reduce chains modulo 2^61 - 1, the wide
/// multiplies that dominate the pipeline's curve arithmetic. It is the
/// unit of `cpu_per_report`, so it must not change.
pub fn reference_work(rounds: u64) -> u64 {
    const P: u128 = (1 << 61) - 1;
    let fold = |v: u128| (v & P) + (v >> 61);
    let mut x: [u128; 4] = [3, 5, 7, 11];
    for round in 0..rounds {
        for (i, v) in x.iter_mut().enumerate() {
            // Two folds keep `v` below 2^62, so the square cannot overflow.
            *v = fold(fold(*v * *v + u128::from(round) + i as u128));
        }
    }
    x.iter().fold(0, |acc, v| acc ^ (*v as u64))
}

/// Times [`reference_work`] on a `bench-probe` thread while a window runs,
/// so a run can tell how fast the host's cores were while it measured. It
/// wakes every [`PROBE_EVERY`] for a few samples, about 0.3% of a core, and
/// the median of its samples skips those a preemption stretched.
pub struct SpeedProbe {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<(Vec<f64>, u64)>,
}

impl SpeedProbe {
    pub fn start() -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("bench-probe".into())
            .spawn(move || {
                let mut samples = Vec::new();
                while !flag.load(Ordering::Relaxed) {
                    for _ in 0..PROBE_SAMPLES {
                        let start = Instant::now();
                        black_box(reference_work(black_box(REFERENCE_ROUNDS)));
                        samples.push(start.elapsed().as_secs_f64() * 1e6);
                    }
                    std::thread::park_timeout(PROBE_EVERY);
                }
                (samples, crate::procfs::thread_ticks())
            })
            .expect("spawn speed probe");
        Self { stop, handle }
    }

    /// Median µs of one reference sample, and the probe thread's CPU ticks.
    pub fn finish(self) -> (f64, u64) {
        self.stop.store(true, Ordering::Relaxed);
        self.handle.thread().unpark();
        let (samples, ticks) = self.handle.join().expect("speed probe panicked");
        (median(&samples), ticks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_work_is_fixed_and_the_probe_times_it() {
        // Pinned from an arbitrary-precision evaluation of the same chains.
        assert_eq!(reference_work(REFERENCE_ROUNDS), 0x17e4_d7bc_7031_f248);
        let probe = SpeedProbe::start();
        std::thread::sleep(Duration::from_millis(50));
        let (us, _ticks) = probe.finish();
        assert!(us.is_finite() && us > 0.0, "median sample {us} µs");
    }
}
