//! Seeded, phase-structured sample traces for the daemon workloads.
//!
//! Uniform features defeat the incremental fitter: with no structure
//! every refit re-searches the whole tree. Real profiles are phased, so
//! each trace here is a sequence of phases drawn from a few phase kinds.
//! A kind owns a private set of EIPs (hot ones drawn more often) and a
//! CPI level with multiplicative noise. The same `(seed, stream)` always
//! yields the same samples, bit for bit.

use fuzzyphase_profiler::Sample;

/// SplitMix64: a tiny, well-mixed generator. Owned here so the traces
/// depend on nothing but the seed.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Phase kinds per trace.
const PHASE_KINDS: u64 = 6;
/// Phase length bounds in samples: 20 to 80 vectors at 100 samples per
/// vector.
const MIN_PHASE: u64 = 2_000;
const MAX_PHASE: u64 = 8_000;

struct PhaseKind {
    base: u64,
    eips: u64,
    cpi: f64,
    noise: f64,
}

/// `samples` samples of stream `stream` (one stream per connection)
/// under `seed`.
pub fn phased_trace(seed: u64, stream: u64, samples: usize) -> Vec<Sample> {
    let mut rng = SplitMix::new(seed ^ (stream + 1).wrapping_mul(0xD6E8_FEB8_6659_FD93));
    let kinds: Vec<PhaseKind> = (0..PHASE_KINDS)
        .map(|k| PhaseKind {
            base: 0x40_0000 + (stream << 24) + (k << 16),
            eips: 8 + rng.below(24),
            // Distinct CPI levels per kind, so phases differ in CPI.
            cpi: (0.6 + 0.45 * k as f64) * (0.9 + 0.2 * rng.unit()),
            noise: 0.05 + 0.2 * rng.unit(),
        })
        .collect();
    let mut out = Vec::with_capacity(samples);
    while out.len() < samples {
        let kind = &kinds[rng.below(PHASE_KINDS) as usize];
        let len = (MIN_PHASE + rng.below(MAX_PHASE - MIN_PHASE)) as usize;
        for _ in 0..len.min(samples - out.len()) {
            // Squaring a uniform draw skews picks toward low indices:
            // a few hot EIPs per phase, as in a real loop nest.
            let u = rng.unit();
            let eip = kind.base + ((u * u * kind.eips as f64) as u64) * 0x40;
            let jitter = rng.unit() + rng.unit() - 1.0;
            out.push(Sample {
                eip,
                thread: stream as u32,
                is_os: rng.below(50) == 0,
                cpi: kind.cpi * (1.0 + kind.noise * jitter),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fuzzyphase_profiler::write_samples_v2;

    fn frames(seed: u64) -> Vec<Vec<u8>> {
        phased_trace(seed, 1, 20_000)
            .chunks(500)
            .map(|c| write_samples_v2(c).to_vec())
            .collect()
    }

    #[test]
    fn one_seed_gives_identical_frames_another_seed_different_ones() {
        let a = frames(42);
        assert_eq!(a.len(), 40);
        assert_eq!(a, frames(42));
        let b = frames(43);
        assert_eq!(b.len(), a.len());
        assert!(a.iter().zip(&b).all(|(x, y)| x != y));
    }

    #[test]
    fn streams_use_disjoint_eips_and_phases_have_distinct_cpi() {
        let a = phased_trace(7, 0, 30_000);
        let b = phased_trace(7, 1, 30_000);
        let max_a = a.iter().map(|s| s.eip).max().expect("samples");
        let min_b = b.iter().map(|s| s.eip).min().expect("samples");
        assert!(max_a < min_b);
        // Phase structure: the CPI of 100-sample windows varies far more
        // across windows than a uniform trace would allow.
        let means: Vec<f64> = a
            .chunks(100)
            .map(|w| w.iter().map(|s| s.cpi).sum::<f64>() / w.len() as f64)
            .collect();
        let lo = means.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = means.iter().cloned().fold(0.0, f64::max);
        assert!(hi > 1.5 * lo, "window CPI range {lo}..{hi}");
    }
}
