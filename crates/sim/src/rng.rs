//! Deterministic random-number utilities.
//!
//! Everything stochastic in the reproduction — operation latencies drawn
//! from the paper's measured ranges (Table 1), workload inter-arrivals,
//! heavy-tailed runtimes — flows through [`SimRng`], a seedable PRNG with
//! explicit stream forking. Forking gives each simulated component its own
//! independent stream, so adding a random draw in one component never
//! perturbs another component's sequence (a classic source of accidental
//! non-reproducibility in simulators).
//!
//! The generator is SplitMix64: tiny, fast, passes BigCrush for these
//! purposes, and trivially forkable. Heavier distributions (exponential,
//! bounded Pareto, normal) are implemented by inverse-transform /
//! Box–Muller on top of it rather than pulling in `rand_distr`.

use rand::{Error, RngCore, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::time::SimDuration;

/// A seedable, forkable PRNG for simulation use.
///
/// Implements [`rand::RngCore`] so it composes with the `rand` ecosystem
/// (`gen_range`, shuffles, proptest interop) while keeping a stable
/// algorithm under our control. The state serializes, so a checkpointed
/// simulation resumes its streams mid-sequence exactly where they were.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimRng {
    state: u64,
}

const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(GOLDEN_GAMMA);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SimRng {
    /// Creates a generator from a seed. The same seed always yields the
    /// same sequence.
    pub fn new(seed: u64) -> Self {
        SimRng { state: seed }
    }

    /// Derives an independent child stream.
    ///
    /// `stream` labels the child (component id, replica index, …); children
    /// with different labels, or forked from different parents, produce
    /// uncorrelated sequences. Forking does not advance the parent.
    pub fn fork(&self, stream: u64) -> SimRng {
        let mut s = self.state ^ stream.wrapping_mul(GOLDEN_GAMMA) ^ 0xD1B5_4A32_D192_ED03;
        // Mix once so adjacent stream ids land far apart.
        let mixed = splitmix64(&mut s);
        SimRng { state: mixed }
    }

    /// Derives the seed of an independent child stream, such that
    /// `SimRng::new(SimRng::stream_seed(base, s))` generates the exact
    /// sequence of `SimRng::new(base).fork(s)`.
    ///
    /// This is how replica sweeps fan one base seed out into per-replica
    /// streams: each replica's randomness is a pure function of
    /// `(base, replica_index)`, so replicas can run in any order — or in
    /// parallel — and still reproduce the sequential sweep exactly.
    pub fn stream_seed(base: u64, stream: u64) -> u64 {
        SimRng::new(base).fork(stream).state
    }

    /// Next raw 64-bit value.
    pub fn next_raw(&mut self) -> u64 {
        splitmix64(&mut self.state)
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // 53 random mantissa bits.
        (self.next_raw() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[lo, hi]` (inclusive). Panics if `lo > hi`.
    pub fn uniform_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "uniform_u64: lo={lo} > hi={hi}");
        let span = hi - lo;
        if span == u64::MAX {
            return self.next_raw();
        }
        // Rejection-free Lemire-style bounded draw is overkill here; a
        // multiply-shift is unbiased enough for latency jitter, but stay
        // exact with simple rejection sampling on the top bits.
        let bound = span + 1;
        let zone = u64::MAX - (u64::MAX % bound);
        loop {
            let v = self.next_raw();
            if v < zone {
                return lo + v % bound;
            }
        }
    }

    /// Uniform duration in `[lo, hi]` (inclusive, millisecond resolution).
    ///
    /// This is how the paper's measured ranges ("7~15 s") are sampled.
    pub fn uniform_duration(&mut self, lo: SimDuration, hi: SimDuration) -> SimDuration {
        SimDuration::from_millis(self.uniform_u64(lo.as_millis(), hi.as_millis()))
    }

    /// Exponentially distributed duration with the given mean (inverse
    /// transform). Used for Poisson arrival processes.
    pub fn exponential(&mut self, mean: SimDuration) -> SimDuration {
        let u = loop {
            let u = self.next_f64();
            if u > 0.0 {
                break u;
            }
        };
        SimDuration::from_secs_f64(-mean.as_secs_f64() * u.ln())
    }

    /// Bounded-Pareto distributed duration on `[lo, hi]` with shape
    /// `alpha` (> 0). Classic heavy-tailed job-runtime model for the
    /// "representative data-center workload" experiments.
    pub fn bounded_pareto(&mut self, lo: SimDuration, hi: SimDuration, alpha: f64) -> SimDuration {
        assert!(alpha > 0.0, "bounded_pareto: alpha must be positive");
        let l = lo.as_secs_f64().max(1e-9);
        let h = hi.as_secs_f64().max(l);
        let u = self.next_f64();
        let la = l.powf(alpha);
        let ha = h.powf(alpha);
        let x = (-(u * ha - u * la - ha) / (ha * la)).powf(-1.0 / alpha);
        SimDuration::from_secs_f64(x.clamp(l, h))
    }

    /// Normally distributed duration (Box–Muller), truncated at zero.
    pub fn normal(&mut self, mean: SimDuration, std_dev: SimDuration) -> SimDuration {
        let (u1, u2) = (self.next_f64().max(f64::MIN_POSITIVE), self.next_f64());
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        let v = mean.as_secs_f64() + std_dev.as_secs_f64() * z;
        SimDuration::from_secs_f64(v.max(0.0))
    }

    /// Bernoulli draw with probability `p` of `true`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Picks a uniformly random index in `[0, len)`. Panics if `len == 0`.
    pub fn index(&mut self, len: usize) -> usize {
        assert!(len > 0, "index: empty range");
        self.uniform_u64(0, len as u64 - 1) as usize
    }
}

impl RngCore for SimRng {
    fn next_u32(&mut self) -> u32 {
        (self.next_raw() >> 32) as u32
    }

    fn next_u64(&mut self) -> u64 {
        self.next_raw()
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let bytes = self.next_raw().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
    }

    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), Error> {
        self.fill_bytes(dest);
        Ok(())
    }
}

impl SeedableRng for SimRng {
    type Seed = [u8; 8];

    fn from_seed(seed: Self::Seed) -> Self {
        SimRng::new(u64::from_le_bytes(seed))
    }

    fn seed_from_u64(state: u64) -> Self {
        SimRng::new(state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_raw(), b.next_raw());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..100).filter(|_| a.next_raw() == b.next_raw()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn fork_is_independent_of_parent_consumption() {
        let parent = SimRng::new(7);
        let mut child1 = parent.fork(3);
        let mut parent2 = parent.clone();
        parent2.next_raw(); // advance a copy of the parent
        let mut child2 = parent.fork(3);
        for _ in 0..100 {
            assert_eq!(child1.next_raw(), child2.next_raw());
        }
    }

    #[test]
    fn stream_seed_matches_fork() {
        for base in [0u64, 42, u64::MAX] {
            for stream in [0u64, 1, 7, 1 << 40] {
                let mut via_seed = SimRng::new(SimRng::stream_seed(base, stream));
                let mut via_fork = SimRng::new(base).fork(stream);
                for _ in 0..100 {
                    assert_eq!(via_seed.next_raw(), via_fork.next_raw());
                }
            }
        }
    }

    #[test]
    fn stream_seeds_are_distinct_and_stable() {
        // The replica seeds of a scenario sweep: pure in (base, i), no
        // collisions, and a different base gives different streams.
        let seeds =
            |base: u64| -> Vec<u64> { (0..32).map(|i| SimRng::stream_seed(base, i)).collect() };
        let a = seeds(0xC0FFEE);
        assert_eq!(a, seeds(0xC0FFEE), "seed derivation must be pure");
        let mut dedup = a.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 32, "derived seeds must not collide");
        assert_ne!(a, seeds(0xC0FFEE + 1));
    }

    #[test]
    fn forked_streams_are_uncorrelated() {
        let parent = SimRng::new(99);
        let mut c1 = parent.fork(1);
        let mut c2 = parent.fork(2);
        let equal = (0..1000).filter(|_| c1.next_raw() == c2.next_raw()).count();
        assert_eq!(equal, 0);
    }

    #[test]
    fn uniform_u64_respects_bounds() {
        let mut rng = SimRng::new(5);
        for _ in 0..10_000 {
            let v = rng.uniform_u64(10, 20);
            assert!((10..=20).contains(&v));
        }
        // Degenerate range.
        assert_eq!(rng.uniform_u64(7, 7), 7);
    }

    #[test]
    fn uniform_u64_covers_range() {
        let mut rng = SimRng::new(5);
        let mut seen = [false; 11];
        for _ in 0..10_000 {
            seen[(rng.uniform_u64(0, 10)) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all values in range should appear");
    }

    #[test]
    fn uniform_duration_matches_paper_ranges() {
        // Table 1: local-vm processing time 7~15 s.
        let mut rng = SimRng::new(11);
        let lo = SimDuration::from_secs(7);
        let hi = SimDuration::from_secs(15);
        for _ in 0..1000 {
            let d = rng.uniform_duration(lo, hi);
            assert!(d >= lo && d <= hi);
        }
    }

    #[test]
    fn exponential_has_roughly_right_mean() {
        let mut rng = SimRng::new(13);
        let mean = SimDuration::from_secs(5);
        let n = 20_000;
        let total: f64 = (0..n).map(|_| rng.exponential(mean).as_secs_f64()).sum();
        let sample_mean = total / n as f64;
        assert!(
            (sample_mean - 5.0).abs() < 0.2,
            "sample mean {sample_mean} too far from 5.0"
        );
    }

    #[test]
    fn bounded_pareto_stays_in_bounds() {
        let mut rng = SimRng::new(17);
        let lo = SimDuration::from_secs(10);
        let hi = SimDuration::from_secs(1000);
        for _ in 0..5000 {
            let d = rng.bounded_pareto(lo, hi, 1.5);
            assert!(d >= lo && d <= hi, "got {d}");
        }
    }

    #[test]
    fn bounded_pareto_is_heavy_tailed() {
        // Most mass should sit near the lower bound for alpha > 1.
        let mut rng = SimRng::new(19);
        let lo = SimDuration::from_secs(10);
        let hi = SimDuration::from_secs(1000);
        let below_100 = (0..10_000)
            .filter(|_| rng.bounded_pareto(lo, hi, 1.5).as_secs() < 100)
            .count();
        assert!(below_100 > 8000, "only {below_100} of 10000 below 100s");
    }

    #[test]
    fn normal_truncates_at_zero() {
        let mut rng = SimRng::new(23);
        let mean = SimDuration::from_secs(1);
        let sd = SimDuration::from_secs(10);
        for _ in 0..2000 {
            // Must not panic (negative draws get clamped).
            let _ = rng.normal(mean, sd);
        }
    }

    #[test]
    fn normal_mean_is_close() {
        let mut rng = SimRng::new(29);
        let mean = SimDuration::from_secs(100);
        let sd = SimDuration::from_secs(10);
        let n = 20_000;
        let total: f64 = (0..n).map(|_| rng.normal(mean, sd).as_secs_f64()).sum();
        let m = total / n as f64;
        assert!((m - 100.0).abs() < 1.0, "sample mean {m}");
    }

    #[test]
    fn chance_is_calibrated() {
        let mut rng = SimRng::new(31);
        let hits = (0..10_000).filter(|_| rng.chance(0.25)).count();
        assert!((2200..2800).contains(&hits), "hits={hits}");
    }

    #[test]
    fn rngcore_fill_bytes() {
        let mut rng = SimRng::new(37);
        let mut buf = [0u8; 13];
        rng.fill_bytes(&mut buf);
        assert_ne!(buf, [0u8; 13]);
    }

    #[test]
    fn seedable_from_u64() {
        let mut a = SimRng::seed_from_u64(55);
        let mut b = SimRng::new(55);
        assert_eq!(a.next_raw(), b.next_raw());
    }

    #[test]
    fn index_in_range() {
        let mut rng = SimRng::new(41);
        for _ in 0..1000 {
            assert!(rng.index(10) < 10);
        }
    }
}
