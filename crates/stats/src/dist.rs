//! Sampling distributions used by the synthetic workload models.
//!
//! `rand` 0.8 ships only uniform primitives in-tree; the heavier-tailed
//! distributions the workload generators need (Zipf for code popularity,
//! log-normal for service times, Pareto for working-set skew, alias tables
//! for arbitrary discrete mixes) are implemented here from scratch.

use rand::Rng;
use std::sync::Arc;

/// Zipf distribution over `{0, 1, …, n-1}` with exponent `s`.
///
/// Sampling inverts the cumulative table exactly: the draw is the first
/// rank whose CDF reaches the uniform `u`. A guide table (Chen & Asau's
/// indexed search) narrows the binary search to the ranks whose CDF
/// crosses `u`'s bucket, so a sample costs O(1) expected probes plus a
/// search over one bucket (DESIGN.md D16).
///
/// Code popularity is famously Zipf-like: a handful of hot basic blocks
/// dominate execution, with a long tail of cold code. The ODB-C model uses a
/// *low* exponent to reproduce the paper's near-uniform EIP spread, while the
/// SPEC models use higher exponents for loopy kernels.
///
/// The tables are immutable and shared between clones: the workload
/// models give every thread its own clone of one code region.
///
/// ```
/// use fuzzyphase_stats::Zipf;
/// use rand::SeedableRng;
/// let z = Zipf::new(100, 1.0);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let x = z.sample(&mut rng);
/// assert!(x < 100);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Zipf {
    table: Arc<ZipfTable>,
}

#[derive(Debug, PartialEq)]
struct ZipfTable {
    cdf: Vec<f64>,
    /// `guide[j]` is the first rank whose CDF reaches `j / m` (clamped to
    /// the last rank), for `m = guide.len() - 1` buckets. `m` is a power
    /// of two, so `u * m` and `j / m` are exact in `f64`.
    guide: Vec<u32>,
}

impl Zipf {
    /// Creates a Zipf distribution over `n` ranks with exponent `s >= 0`.
    ///
    /// `s == 0` degenerates to the uniform distribution.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `s < 0` or `s` is not finite.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf needs at least one rank");
        assert!(s >= 0.0 && s.is_finite(), "Zipf exponent must be >= 0");
        assert!(u32::try_from(n).is_ok(), "Zipf rank count must fit a u32");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += (k as f64).powf(-s);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        // One merge walk of ranks against bucket bounds: rank i is the
        // first to reach every still-unassigned bound j / m <= cdf[i],
        // i.e. j <= floor(cdf[i] * m) (exact: m is a power of two).
        // Bounds no rank reaches clamp to the last rank. m is the largest
        // power of two <= n: at most about two ranks per bucket on a flat
        // distribution, and a table no longer than the CDF.
        let m = 1 << n.ilog2();
        let mut guide = Vec::with_capacity(m + 1);
        for (i, &c) in cdf.iter().enumerate() {
            let reached = ((c * m as f64) as usize + 1).min(m + 1);
            while guide.len() < reached {
                guide.push(i as u32);
            }
        }
        guide.resize(m + 1, (n - 1) as u32);
        Self {
            table: Arc::new(ZipfTable { cdf, guide }),
        }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.table.cdf.len()
    }

    /// Whether the distribution is over zero ranks (never true by
    /// construction, provided for API completeness).
    pub fn is_empty(&self) -> bool {
        self.table.cdf.is_empty()
    }

    /// Draws one rank in `0..n`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        self.rank_of(rng.gen())
    }

    /// The first rank whose CDF reaches `u ∈ [0, 1)`, clamped to the last.
    #[inline]
    fn rank_of(&self, u: f64) -> usize {
        // u ∈ [j/m, (j+1)/m), so the first rank with cdf >= u lies in
        // guide[j] ..= guide[j + 1] (or past the end, clamped below).
        let ZipfTable { cdf, guide } = &*self.table;
        let m = guide.len() - 1;
        let j = ((u * m as f64) as usize).min(m - 1);
        let lo = guide[j] as usize;
        let hi = guide[j + 1] as usize;
        let i = lo + cdf[lo..=hi].partition_point(|&c| c < u);
        i.min(cdf.len() - 1)
    }

    /// Probability mass of rank `k`.
    pub fn pmf(&self, k: usize) -> f64 {
        let cdf = &self.table.cdf;
        if k >= cdf.len() {
            0.0
        } else if k == 0 {
            cdf[0]
        } else {
            cdf[k] - cdf[k - 1]
        }
    }
}

/// Log-normal distribution parameterized by the underlying normal's
/// `mu` and `sigma`.
///
/// Sampling is via Box–Muller on the uniform source.
///
/// ```
/// use fuzzyphase_stats::LogNormal;
/// use rand::SeedableRng;
/// let d = LogNormal::new(0.0, 0.25);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(2);
/// assert!(d.sample(&mut rng) > 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    mu: f64,
    sigma: f64,
}

impl LogNormal {
    /// Creates a log-normal distribution.
    ///
    /// # Panics
    ///
    /// Panics if `sigma < 0` or parameters are not finite.
    pub fn new(mu: f64, sigma: f64) -> Self {
        assert!(
            mu.is_finite() && sigma.is_finite(),
            "parameters must be finite"
        );
        assert!(sigma >= 0.0, "sigma must be >= 0");
        Self { mu, sigma }
    }

    /// Draws one sample (always positive).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        (self.mu + self.sigma * standard_normal(rng)).exp()
    }

    /// Mean of the distribution: `exp(mu + sigma^2 / 2)`.
    pub fn mean(&self) -> f64 {
        (self.mu + self.sigma * self.sigma / 2.0).exp()
    }
}

/// Draws a standard normal deviate via Box–Muller.
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // Avoid u == 0 which would send ln to -inf.
    let u: f64 = loop {
        let u: f64 = rng.gen();
        if u > f64::MIN_POSITIVE {
            break u;
        }
    };
    let v: f64 = rng.gen();
    (-2.0 * u.ln()).sqrt() * (2.0 * std::f64::consts::PI * v).cos()
}

/// Pareto (type I) distribution with scale `x_min > 0` and shape `alpha > 0`.
///
/// ```
/// use fuzzyphase_stats::Pareto;
/// use rand::SeedableRng;
/// let p = Pareto::new(1.0, 2.0);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(3);
/// assert!(p.sample(&mut rng) >= 1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pareto {
    x_min: f64,
    alpha: f64,
}

impl Pareto {
    /// Creates a Pareto distribution.
    ///
    /// # Panics
    ///
    /// Panics if `x_min <= 0` or `alpha <= 0`.
    pub fn new(x_min: f64, alpha: f64) -> Self {
        assert!(x_min > 0.0, "x_min must be positive");
        assert!(alpha > 0.0, "alpha must be positive");
        Self { x_min, alpha }
    }

    /// Draws one sample (always >= `x_min`).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let u: f64 = loop {
            let u: f64 = rng.gen();
            if u > f64::MIN_POSITIVE {
                break u;
            }
        };
        self.x_min / u.powf(1.0 / self.alpha)
    }
}

/// Exponential distribution with rate `lambda`.
///
/// Used for inter-arrival times (context switches, I/O waits, transaction
/// arrivals).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    lambda: f64,
}

impl Exponential {
    /// Creates an exponential distribution with rate `lambda > 0`.
    ///
    /// # Panics
    ///
    /// Panics if `lambda <= 0`.
    pub fn new(lambda: f64) -> Self {
        assert!(lambda > 0.0, "lambda must be positive");
        Self { lambda }
    }

    /// Draws one sample.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let u: f64 = loop {
            let u: f64 = rng.gen();
            if u > f64::MIN_POSITIVE {
                break u;
            }
        };
        -u.ln() / self.lambda
    }

    /// Mean (`1 / lambda`).
    pub fn mean(&self) -> f64 {
        1.0 / self.lambda
    }
}

/// Discrete distribution over arbitrary weights, cumulative-table backed.
///
/// O(log n) sampling; prefer [`Alias`] when millions of samples are drawn
/// from the same distribution.
///
/// ```
/// use fuzzyphase_stats::Discrete;
/// use rand::SeedableRng;
/// let d = Discrete::new(&[1.0, 0.0, 3.0]);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(4);
/// let i = d.sample(&mut rng);
/// assert!(i == 0 || i == 2); // index 1 has zero weight
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Discrete {
    cdf: Vec<f64>,
}

impl Discrete {
    /// Creates a discrete distribution from non-negative weights.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty, contains a negative or non-finite
    /// value, or sums to zero.
    pub fn new(weights: &[f64]) -> Self {
        assert!(!weights.is_empty(), "need at least one weight");
        let mut cdf = Vec::with_capacity(weights.len());
        let mut acc = 0.0;
        for &w in weights {
            assert!(w >= 0.0 && w.is_finite(), "weights must be >= 0 and finite");
            acc += w;
            cdf.push(acc);
        }
        assert!(acc > 0.0, "weights must not all be zero");
        for c in &mut cdf {
            *c /= acc;
        }
        Self { cdf }
    }

    /// Number of outcomes.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// Always false by construction; for API completeness.
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// Draws one outcome index.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen();
        let mut idx = match self.cdf.binary_search_by(|c| c.total_cmp(&u)) {
            Ok(i) => i + 1,
            Err(i) => i,
        }
        .min(self.cdf.len() - 1);
        // Skip zero-weight outcomes that share a cdf value with their
        // predecessor.
        while idx > 0 && self.cdf[idx] == self.cdf[idx - 1] {
            idx -= 1;
        }
        idx
    }
}

/// Walker alias table for O(1) discrete sampling.
///
/// The workload generators draw billions of code-region indices; the alias
/// method makes each draw two uniforms and one table lookup.
///
/// ```
/// use fuzzyphase_stats::Alias;
/// use rand::SeedableRng;
/// let a = Alias::new(&[0.5, 0.25, 0.25]);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(5);
/// assert!(a.sample(&mut rng) < 3);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Alias {
    prob: Vec<f64>,
    alias: Vec<u32>,
}

impl Alias {
    /// Builds an alias table from non-negative weights.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`Discrete::new`], or if more
    /// than `u32::MAX` outcomes are supplied.
    pub fn new(weights: &[f64]) -> Self {
        assert!(!weights.is_empty(), "need at least one weight");
        assert!(weights.len() <= u32::MAX as usize, "too many outcomes");
        let n = weights.len();
        let total: f64 = weights
            .iter()
            .inspect(|&&w| {
                assert!(w >= 0.0 && w.is_finite(), "weights must be >= 0 and finite");
            })
            .sum();
        assert!(total > 0.0, "weights must not all be zero");

        let mut prob: Vec<f64> = weights.iter().map(|&w| w * n as f64 / total).collect();
        let mut alias = vec![0u32; n];
        let mut small: Vec<u32> = Vec::new();
        let mut large: Vec<u32> = Vec::new();
        for (i, &p) in prob.iter().enumerate() {
            if p < 1.0 {
                small.push(i as u32);
            } else {
                large.push(i as u32);
            }
        }
        while let (Some(&s), Some(&l)) = (small.last(), large.last()) {
            small.pop();
            alias[s as usize] = l;
            prob[l as usize] -= 1.0 - prob[s as usize];
            if prob[l as usize] < 1.0 {
                large.pop();
                small.push(l);
            }
        }
        // Residuals are 1.0 up to float error.
        for &i in small.iter().chain(large.iter()) {
            prob[i as usize] = 1.0;
        }
        Self { prob, alias }
    }

    /// Number of outcomes.
    pub fn len(&self) -> usize {
        self.prob.len()
    }

    /// Always false by construction; for API completeness.
    pub fn is_empty(&self) -> bool {
        self.prob.is_empty()
    }

    /// Draws one outcome index in O(1).
    #[inline]
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let i = rng.gen_range(0..self.prob.len());
        if rng.gen::<f64>() < self.prob[i] {
            i
        } else {
            self.alias[i] as usize
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded_rng;
    use proptest::prelude::*;

    fn empirical(dist: impl Fn(&mut rand::rngs::StdRng) -> usize, n: usize, k: usize) -> Vec<f64> {
        let mut rng = seeded_rng(42);
        let mut counts = vec![0usize; k];
        for _ in 0..n {
            counts[dist(&mut rng)] += 1;
        }
        counts.iter().map(|&c| c as f64 / n as f64).collect()
    }

    #[test]
    fn zipf_rank_order() {
        let z = Zipf::new(8, 1.2);
        let freq = empirical(|r| z.sample(r), 40_000, 8);
        // Heavier ranks come first.
        assert!(freq[0] > freq[1]);
        assert!(freq[1] > freq[3]);
        // PMF sums to 1.
        let total: f64 = (0..8).map(|k| z.pmf(k)).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zipf_zero_exponent_is_uniform() {
        let z = Zipf::new(4, 0.0);
        for k in 0..4 {
            assert!((z.pmf(k) - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn zipf_empirical_matches_pmf() {
        let z = Zipf::new(5, 0.8);
        let freq = empirical(|r| z.sample(r), 100_000, 5);
        for (k, &f) in freq.iter().enumerate() {
            assert!((f - z.pmf(k)).abs() < 0.01, "rank {k}");
        }
    }

    /// The plain binary search over the CDF that the guide table narrows.
    fn binary_search_rank(cdf: &[f64], u: f64) -> usize {
        match cdf.binary_search_by(|c| c.total_cmp(&u)) {
            Ok(i) => i,
            Err(i) => i.min(cdf.len() - 1),
        }
    }

    /// The neighbouring `f64`s of `x` (both directions).
    fn neighbours(x: f64) -> [f64; 2] {
        [
            f64::from_bits(x.to_bits().saturating_sub(1)),
            f64::from_bits(x.to_bits() + 1),
        ]
    }

    proptest! {
        /// Guided sampling picks the same rank as the binary search for
        /// random uniforms and for every kind of boundary: bucket edges
        /// `j / m`, CDF values themselves and their neighbours.
        #[test]
        fn zipf_guide_matches_binary_search(
            n in 1usize..5000,
            s in 0.0f64..3.0,
            draws in prop::collection::vec(any::<u64>(), 64),
        ) {
            let z = Zipf::new(n, s);
            // Exact CDF hits only agree with a binary search when the hit
            // value is unique; in this parameter range every tail term is
            // far above an ulp, so the CDF is strictly increasing.
            prop_assert!(z.table.cdf.windows(2).all(|w| w[0] < w[1]));
            let m = z.table.guide.len() - 1;
            prop_assert!(m.is_power_of_two() && m <= n && 2 * m > n);
            for (j, &g) in z.table.guide.iter().enumerate() {
                let bound = j as f64 / m as f64;
                let first = z.table.cdf.partition_point(|&c| c < bound).min(n - 1);
                prop_assert_eq!(g as usize, first, "bucket {}", j);
            }
            let mut us = vec![0.0, 1.0 - f64::EPSILON / 2.0];
            for &d in &draws {
                // The StdRng f64 construction: 53 random bits.
                let u = (d >> 11) as f64 / (1u64 << 53) as f64;
                let edge = (d % m as u64) as f64 / m as f64;
                let cdf = z.table.cdf[(d % n as u64) as usize];
                us.extend([u, edge, cdf]);
                us.extend(neighbours(edge).into_iter().chain(neighbours(cdf)));
            }
            for u in us.into_iter().filter(|u| (0.0..1.0).contains(u)) {
                prop_assert_eq!(z.rank_of(u), binary_search_rank(&z.table.cdf, u), "u = {}", u);
            }
        }
    }

    #[test]
    fn zipf_guide_is_exact_at_small_sizes() {
        for n in 1..40 {
            for s in [0.0, 0.3, 1.0, 2.5] {
                let z = Zipf::new(n, s);
                for k in 0..4096u32 {
                    let u = f64::from(k) / 4096.0;
                    assert_eq!(
                        z.rank_of(u),
                        binary_search_rank(&z.table.cdf, u),
                        "n {n} s {s} u {u}"
                    );
                }
            }
        }
    }

    #[test]
    fn lognormal_mean() {
        let d = LogNormal::new(0.0, 0.5);
        let mut rng = seeded_rng(7);
        let n = 200_000;
        let mean: f64 = (0..n).map(|_| d.sample(&mut rng)).sum::<f64>() / n as f64;
        assert!(
            (mean - d.mean()).abs() < 0.02,
            "got {mean}, want {}",
            d.mean()
        );
    }

    #[test]
    fn pareto_lower_bound() {
        let p = Pareto::new(2.0, 1.5);
        let mut rng = seeded_rng(8);
        for _ in 0..1000 {
            assert!(p.sample(&mut rng) >= 2.0);
        }
    }

    #[test]
    fn exponential_mean() {
        let e = Exponential::new(4.0);
        let mut rng = seeded_rng(9);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| e.sample(&mut rng)).sum::<f64>() / n as f64;
        assert!((mean - 0.25).abs() < 0.01);
    }

    #[test]
    fn discrete_zero_weight_never_drawn() {
        let d = Discrete::new(&[1.0, 0.0, 1.0]);
        let mut rng = seeded_rng(10);
        for _ in 0..5000 {
            assert_ne!(d.sample(&mut rng), 1);
        }
    }

    #[test]
    fn discrete_single_outcome() {
        let d = Discrete::new(&[7.0]);
        let mut rng = seeded_rng(11);
        assert_eq!(d.sample(&mut rng), 0);
    }

    #[test]
    fn alias_matches_weights() {
        let weights = [4.0, 1.0, 3.0, 2.0];
        let a = Alias::new(&weights);
        let freq = empirical(|r| a.sample(r), 200_000, 4);
        let total: f64 = weights.iter().sum();
        for (i, &w) in weights.iter().enumerate() {
            assert!((freq[i] - w / total).abs() < 0.01, "outcome {i}");
        }
    }

    #[test]
    fn alias_zero_weight_never_drawn() {
        let a = Alias::new(&[1.0, 0.0, 2.0]);
        let mut rng = seeded_rng(12);
        for _ in 0..5000 {
            assert_ne!(a.sample(&mut rng), 1);
        }
    }

    #[test]
    #[should_panic(expected = "all be zero")]
    fn discrete_rejects_all_zero() {
        Discrete::new(&[0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zipf_rejects_empty() {
        Zipf::new(0, 1.0);
    }

    #[test]
    fn standard_normal_moments() {
        let mut rng = seeded_rng(13);
        let n = 200_000;
        let xs: Vec<f64> = (0..n).map(|_| standard_normal(&mut rng)).collect();
        let mean = crate::mean(&xs);
        let var = crate::variance(&xs);
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "var {var}");
    }
}

/// Probabilistic rounding: returns `floor(x)` or `ceil(x)` such that the
/// expectation equals `x`. Used to convert fractional expected event counts
/// into integer per-quantum counts without bias.
///
/// # Panics
///
/// Panics if `x` is negative or not finite.
pub fn prob_round<R: Rng + ?Sized>(rng: &mut R, x: f64) -> u64 {
    assert!(x >= 0.0 && x.is_finite(), "prob_round needs finite x >= 0");
    let base = x.floor();
    let frac = x - base;
    base as u64 + u64::from(rng.gen::<f64>() < frac)
}

/// Draws a Poisson-distributed count with mean `lambda` (Knuth's method
/// for small lambda, normal approximation above 64).
///
/// # Panics
///
/// Panics if `lambda` is negative or not finite.
pub fn poisson<R: Rng + ?Sized>(rng: &mut R, lambda: f64) -> u64 {
    assert!(
        lambda >= 0.0 && lambda.is_finite(),
        "poisson needs finite lambda >= 0"
    );
    if lambda == 0.0 {
        return 0;
    }
    if lambda > 64.0 {
        let x = lambda + lambda.sqrt() * standard_normal(rng);
        return x.round().max(0.0) as u64;
    }
    let l = (-lambda).exp();
    let mut k = 0u64;
    let mut p = 1.0;
    loop {
        p *= rng.gen::<f64>();
        if p <= l {
            return k;
        }
        k += 1;
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;
    use crate::rng::seeded_rng;

    #[test]
    fn prob_round_unbiased() {
        let mut rng = seeded_rng(20);
        let n = 100_000;
        let sum: u64 = (0..n).map(|_| prob_round(&mut rng, 2.3)).sum();
        let mean = sum as f64 / n as f64;
        assert!((mean - 2.3).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn prob_round_integer_is_exact() {
        let mut rng = seeded_rng(21);
        for _ in 0..100 {
            assert_eq!(prob_round(&mut rng, 3.0), 3);
            assert_eq!(prob_round(&mut rng, 0.0), 0);
        }
    }

    #[test]
    fn poisson_mean_and_variance() {
        let mut rng = seeded_rng(22);
        for lambda in [0.5, 4.0, 30.0, 120.0] {
            let n = 50_000;
            let xs: Vec<f64> = (0..n).map(|_| poisson(&mut rng, lambda) as f64).collect();
            let mean = crate::mean(&xs);
            let var = crate::variance(&xs);
            assert!(
                (mean - lambda).abs() < 0.05 * lambda + 0.05,
                "mean {mean} for {lambda}"
            );
            assert!(
                (var - lambda).abs() < 0.1 * lambda + 0.1,
                "var {var} for {lambda}"
            );
        }
    }

    #[test]
    fn poisson_zero() {
        let mut rng = seeded_rng(23);
        assert_eq!(poisson(&mut rng, 0.0), 0);
    }
}
