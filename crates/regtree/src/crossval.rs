//! Ten-fold cross-validation and the relative-error curve (§4.4).
//!
//! The data set is shuffled into 10 parts; each part is held out once
//! while a tree is grown on the other nine. Every held-out EIPV is dropped
//! through the tree and its CPI predicted as the chamber mean `v_C`. The
//! per-`k` squared errors, normalized by the population CPI variance,
//! give the relative error `RE_k`; its asymptote bounds how well EIPs can
//! ever predict CPI.
//!
//! One deliberate formalization: the paper's `RE_k = E_k / E` divides a
//! *sum* of squared errors by a *variance*; for `RE ≈ 1` to mean "no
//! better than the mean" the sum must be per-point, so we compute
//! `RE_k = MSE_k / Var(CPI)` — the quantity the paper's plots actually
//! show.

use crate::dataset::Dataset;
use crate::incremental::Fitter;
use crate::tree::RegressionTree;
use fuzzyphase_stats::KFold;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

/// The relative-error curve and its summary statistics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReCurve {
    /// `re[k-1]` is `RE_k` for `k = 1..=k_max`.
    pub re: Vec<f64>,
    /// Population variance of the targets (the paper's `E`).
    pub variance: f64,
    /// Number of data points.
    pub n: usize,
}

impl ReCurve {
    /// Maximum chamber count evaluated.
    pub fn k_max(&self) -> usize {
        self.re.len()
    }

    /// `RE_k` for a chamber count (1-based).
    ///
    /// # Panics
    ///
    /// Panics if `k` is 0 or exceeds `k_max`.
    pub fn at(&self, k: usize) -> f64 {
        assert!(k >= 1 && k <= self.re.len(), "k out of range");
        self.re[k - 1]
    }

    /// The minimum relative error and the `k` achieving it — the paper's
    /// `RE_kopt` (Table 2).
    pub fn re_min(&self) -> (f64, usize) {
        let (mut best, mut best_k) = (f64::INFINITY, 1);
        for (i, &r) in self.re.iter().enumerate() {
            if r < best {
                best = r;
                best_k = i + 1;
            }
        }
        (best, best_k)
    }

    /// The asymptotic relative error `RE_k=∞`, approximated by the value
    /// at `k_max` (§4.4).
    pub fn re_asymptote(&self) -> f64 {
        // fuzzylint: allow(panic) — run() always produces k_max >= 1 points
        *self.re.last().expect("curve is non-empty")
    }

    /// The smallest `k` whose error is within 0.005 (the paper's 0.5 %)
    /// of the asymptote — `k_opt`.
    pub fn k_opt(&self) -> usize {
        let target = self.re_asymptote() + 0.005;
        self.re
            .iter()
            .position(|&r| r <= target)
            .map(|i| i + 1)
            .unwrap_or(self.re.len())
    }

    /// Fraction of CPI variance explainable from EIPVs:
    /// `1 − min(RE)` clamped to `[0, 1]` (§4.5: "RE_k=∞ = 0.15 means 85 %
    /// of the CPI variance can be explained").
    pub fn explained_variance(&self) -> f64 {
        (1.0 - self.re_min().0).clamp(0.0, 1.0)
    }
}

/// Cross-validation configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrossValidation {
    /// Number of folds (paper: 10).
    pub folds: usize,
    /// Maximum chambers (paper: 50).
    pub k_max: usize,
    /// Shuffle seed.
    pub seed: u64,
    /// Minimum rows per chamber during growth.
    pub min_leaf: usize,
    /// Worker threads evaluating folds: `1` runs in the calling thread
    /// (default), `0` spawns one per available core, `n` spawns exactly
    /// `n` (both capped at the fold count). The resulting [`ReCurve`] is
    /// bit-identical for every setting: each fold accumulates its own
    /// partial error vector and partials are merged in fold order.
    pub workers: usize,
}

impl Default for CrossValidation {
    fn default() -> Self {
        Self {
            folds: 10,
            k_max: 50,
            seed: 0x5EED,
            min_leaf: 1,
            workers: 1,
        }
    }
}

impl CrossValidation {
    /// Runs the cross-validation and returns the RE curve.
    ///
    /// # Panics
    ///
    /// Panics if the dataset has fewer rows than folds, or `folds < 2`.
    pub fn run(&self, ds: &Dataset) -> ReCurve {
        assert!(self.folds >= 2, "need at least two folds");
        assert!(
            ds.len() >= self.folds,
            "dataset smaller than the number of folds"
        );
        let variance = ds.target_variance();
        let n = ds.len();
        let kf = KFold::new(n, self.folds, self.seed);
        let fitter = Fitter::new().max_leaves(self.k_max).min_leaf(self.min_leaf);
        let splits: Vec<(Vec<usize>, &[usize])> = kf.splits().collect();

        // Each fold produces its own partial sum-of-squared-errors
        // vector; partials are merged in fold order below, so the
        // floating-point reduction — and therefore the curve — is
        // bit-identical no matter how many workers evaluated the folds.
        let workers = match self.workers {
            0 => std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
                .min(self.folds),
            w => w.min(self.folds),
        };
        let partials: Vec<Vec<f64>> = if workers <= 1 {
            splits
                .iter()
                .map(|(train, test)| self.fold_sse(ds, &fitter, train, test))
                .collect()
        } else {
            // Work-queue over fold indices (same idiom as the suite
            // runner in fuzzyphase::pipeline): workers pull the next
            // unclaimed fold until none remain.
            let results: Mutex<Vec<(usize, Vec<f64>)>> =
                Mutex::new(Vec::with_capacity(splits.len()));
            let next: Mutex<usize> = Mutex::new(0);
            crossbeam::scope(|scope| {
                for _ in 0..workers {
                    scope.spawn(|_| loop {
                        let i = {
                            let mut n = next.lock();
                            if *n >= splits.len() {
                                break;
                            }
                            let i = *n;
                            *n += 1;
                            i
                        };
                        let sse = self.fold_sse(ds, &fitter, &splits[i].0, splits[i].1);
                        results.lock().push((i, sse));
                    });
                }
            })
            // fuzzylint: allow(panic) — a fold-worker panic is a bug in the
            // tree builder; re-raising it here is the correct propagation
            .expect("fold workers must not panic");
            let mut results = results.into_inner();
            results.sort_by_key(|(i, _)| *i);
            results.into_iter().map(|(_, sse)| sse).collect()
        };

        // Merge in fold order: sum_sq_err[k-1] over all held-out points.
        let mut sum_sq_err = vec![0.0f64; self.k_max];
        for partial in &partials {
            for (acc, &p) in sum_sq_err.iter_mut().zip(partial) {
                *acc += p;
            }
        }

        let re = sum_sq_err
            .iter()
            .map(|&sse| {
                let mse = sse / n as f64;
                if variance <= 1e-15 {
                    // Degenerate: constant CPI. Define RE as 1 (EIPVs add
                    // nothing over the mean).
                    1.0
                } else {
                    mse / variance
                }
            })
            .collect();
        ReCurve { re, variance, n }
    }

    /// Evaluates one fold: grows a tree on `train`, drops every `test`
    /// point through it, and returns the fold's partial per-`k`
    /// sum-of-squared-errors vector.
    fn fold_sse(&self, ds: &Dataset, fitter: &Fitter, train: &[usize], test: &[usize]) -> Vec<f64> {
        let train_ds = ds.subset(train);
        let tree = fitter.full(&train_ds);
        #[cfg(feature = "scalar-ref")]
        {
            eval_sse_scalar(&tree, ds, test, self.k_max)
        }
        #[cfg(not(feature = "scalar-ref"))]
        {
            eval_sse_batch(&tree, ds, test, self.k_max)
        }
    }
}

/// Per-`k` sum of squared errors of `tree` over the `test` rows of
/// `ds`, as a batch kernel: along a point's descent path, the `T_k`
/// prediction is constant over a contiguous range of `k`, so each path
/// segment contributes one squared error added across a slice of the
/// accumulator — a branch-light constant-add the compiler vectorizes,
/// instead of a per-`k` pointer walk.
///
/// Adds exactly one `err²` per `(test point, k)` pair, in test-point
/// order — the same additions in the same order as
/// [`eval_sse_scalar`], so fold partials (and therefore RE curves) are
/// bit-identical between the two.
pub fn eval_sse_batch(
    tree: &RegressionTree,
    ds: &Dataset,
    test: &[usize],
    k_max: usize,
) -> Vec<f64> {
    let mut sse = vec![0.0f64; k_max];
    for &t in test {
        let y = ds.target(t);
        let path = tree.path_means(ds.row(t));
        // Path entry `pi` (entered after split order `path[pi].0 - 1`)
        // is the prediction for k in [path[pi].0 + 1, path[pi+1].0],
        // the last entry through k_max.
        for pi in 0..path.len() {
            let lo = (path[pi].0 as usize + 1).max(1);
            let hi = if pi + 1 < path.len() {
                (path[pi + 1].0 as usize).min(k_max)
            } else {
                k_max
            };
            if lo > hi {
                continue;
            }
            let err = y - path[pi].1;
            let e2 = err * err;
            for s in &mut sse[lo - 1..hi] {
                *s += e2;
            }
        }
    }
    sse
}

/// Scalar reference for [`eval_sse_batch`]: the per-`k` walk that
/// advances a path cursor for every chamber count. Retained as the
/// bit-identity oracle (and as the kernel behind cross-validation when
/// the `scalar-ref` feature is enabled).
pub fn eval_sse_scalar(
    tree: &RegressionTree,
    ds: &Dataset,
    test: &[usize],
    k_max: usize,
) -> Vec<f64> {
    let mut sse = vec![0.0f64; k_max];
    for &t in test {
        let y = ds.target(t);
        let path = tree.path_means(ds.row(t));
        // path[(needed_k_minus_1, mean)]: prediction for T_k is
        // the deepest path entry with needed ≤ k - 1.
        let mut pi = 0;
        for k in 1..=k_max {
            while pi + 1 < path.len() && (path[pi + 1].0 as usize) < k {
                pi += 1;
            }
            let err = y - path[pi].1;
            sse[k - 1] += err * err;
        }
    }
    sse
}

/// Repeats the cross-validation over several shuffle seeds and returns
/// the per-k mean RE together with its across-seed standard deviation —
/// error bars for RE curves.
///
/// # Panics
///
/// Panics if `seeds` is empty, or under [`CrossValidation::run`]'s
/// conditions.
pub fn cross_validate_ensemble(
    ds: &Dataset,
    cv: &CrossValidation,
    seeds: &[u64],
) -> (Vec<f64>, Vec<f64>) {
    assert!(!seeds.is_empty(), "need at least one seed");
    let curves: Vec<ReCurve> = seeds
        .iter()
        .map(|&seed| CrossValidation { seed, ..*cv }.run(ds))
        .collect();
    let k_max = cv.k_max;
    let mut mean = vec![0.0; k_max];
    let mut std = vec![0.0; k_max];
    for k in 0..k_max {
        let vals: Vec<f64> = curves.iter().map(|c| c.re[k]).collect();
        mean[k] = fuzzyphase_stats::mean(&vals);
        std[k] = fuzzyphase_stats::variance(&vals).sqrt();
    }
    (mean, std)
}

/// Convenience: default 10-fold, 50-chamber cross-validation.
pub fn cross_validate(ds: &Dataset, seed: u64) -> ReCurve {
    CrossValidation {
        seed,
        ..Default::default()
    }
    .run(ds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fuzzyphase_stats::{seeded_rng, SparseVec};
    use rand::Rng;

    /// Dataset where feature 0's count determines y exactly.
    fn separable(n: usize, seed: u64) -> Dataset {
        let mut rng = seeded_rng(seed);
        let mut rows = Vec::new();
        let mut ys = Vec::new();
        for _ in 0..n {
            let phase = rng.gen_range(0..3u32);
            let count = match phase {
                0 => rng.gen_range(1.0..10.0),
                1 => rng.gen_range(40.0..60.0),
                _ => rng.gen_range(90.0..100.0),
            };
            rows.push(SparseVec::from_pairs([
                (0, count),
                (1, rng.gen_range(0.0..100.0)),
            ]));
            ys.push(phase as f64 + 1.0 + rng.gen_range(-0.01..0.01));
        }
        Dataset::new(rows, ys)
    }

    /// Dataset where y is pure noise, independent of the features.
    fn noise(n: usize, seed: u64) -> Dataset {
        let mut rng = seeded_rng(seed);
        let mut rows = Vec::new();
        let mut ys = Vec::new();
        for i in 0..n {
            // Every row has unique features: nothing can generalize.
            rows.push(SparseVec::from_pairs([
                (i as u32 * 2, rng.gen_range(1.0..50.0)),
                (i as u32 * 2 + 1, rng.gen_range(1.0..50.0)),
            ]));
            ys.push(rng.gen_range(0.0..2.0));
        }
        Dataset::new(rows, ys)
    }

    #[test]
    fn separable_data_has_low_re() {
        let ds = separable(200, 1);
        let curve = cross_validate(&ds, 7);
        let (re_min, k) = curve.re_min();
        assert!(re_min < 0.05, "re_min {re_min}");
        assert!((3..=25).contains(&k), "k at min {k}");
        assert!(curve.explained_variance() > 0.95);
    }

    #[test]
    fn noise_data_has_re_near_or_above_one() {
        let ds = noise(200, 2);
        let curve = cross_validate(&ds, 8);
        assert!(
            curve.re_min().0 > 0.8,
            "noise should be unpredictable, re_min {}",
            curve.re_min().0
        );
        // "more complex models performing worse than simple ones (RE>1)!"
        assert!(
            curve.re_asymptote() > 0.95,
            "asymptote {}",
            curve.re_asymptote()
        );
    }

    #[test]
    fn re_at_k1_is_about_one() {
        // T_1 predicts the fold-training mean: RE_1 ≈ 1 (slightly above,
        // because fold means differ from the global mean).
        for ds in [separable(150, 3), noise(150, 4)] {
            let curve = cross_validate(&ds, 9);
            assert!(
                (curve.at(1) - 1.0).abs() < 0.15,
                "RE_1 {} should be near 1",
                curve.at(1)
            );
        }
    }

    #[test]
    fn deterministic_for_seed() {
        let ds = separable(100, 5);
        assert_eq!(cross_validate(&ds, 11), cross_validate(&ds, 11));
        assert_ne!(cross_validate(&ds, 11), cross_validate(&ds, 12));
    }

    #[test]
    fn constant_targets_define_re_one() {
        let rows: Vec<SparseVec> = (0..40)
            .map(|i| SparseVec::from_pairs([(i as u32, 2.0)]))
            .collect();
        let ds = Dataset::new(rows, vec![3.0; 40]);
        let curve = cross_validate(&ds, 13);
        assert!(curve.re.iter().all(|&r| r == 1.0));
        assert_eq!(curve.explained_variance(), 0.0);
    }

    #[test]
    fn k_opt_reaches_asymptote_quickly_on_separable() {
        let ds = separable(300, 6);
        let curve = cross_validate(&ds, 14);
        assert!(curve.k_opt() <= 15, "k_opt {}", curve.k_opt());
    }

    #[test]
    fn ensemble_reports_low_spread_on_clean_data() {
        let ds = separable(200, 10);
        let (mean, std) =
            cross_validate_ensemble(&ds, &CrossValidation::default(), &[1, 2, 3, 4, 5]);
        assert_eq!(mean.len(), 50);
        // RE_1 ~ 1 with tiny spread; deep-k RE small with tiny spread.
        assert!((mean[0] - 1.0).abs() < 0.1);
        assert!(std.iter().all(|&s| s < 0.2), "spreads {std:?}");
        assert!(mean[9] < 0.1);
    }

    #[test]
    fn parallel_folds_bit_identical_to_serial() {
        let ds = separable(240, 15);
        let serial = CrossValidation {
            workers: 1,
            ..Default::default()
        }
        .run(&ds);
        for workers in [2, 3, 7, 0] {
            let parallel = CrossValidation {
                workers,
                ..Default::default()
            }
            .run(&ds);
            assert_eq!(serial, parallel, "workers {workers}");
            for (a, b) in serial.re.iter().zip(&parallel.re) {
                assert_eq!(a.to_bits(), b.to_bits(), "workers {workers}");
            }
        }
    }

    #[test]
    fn worker_count_above_fold_count_is_capped() {
        let ds = separable(60, 16);
        let cv = CrossValidation {
            workers: 64,
            ..Default::default()
        };
        assert_eq!(cv.run(&ds), cross_validate(&ds, cv.seed));
    }

    #[test]
    #[should_panic(expected = "smaller than the number of folds")]
    fn too_few_rows_rejected() {
        let ds = separable(5, 7);
        cross_validate(&ds, 0);
    }

    #[test]
    fn batch_sse_bit_identical_to_scalar() {
        for (ds, seed) in [(separable(150, 20), 21u64), (noise(120, 22), 23)] {
            let tree = Fitter::new().full(&ds);
            let test: Vec<usize> = (0..ds.len()).step_by(3).collect();
            for k_max in [1, 2, 7, 50, 80] {
                let batch = eval_sse_batch(&tree, &ds, &test, k_max);
                let scalar = eval_sse_scalar(&tree, &ds, &test, k_max);
                assert_eq!(batch.len(), scalar.len(), "seed {seed} k_max {k_max}");
                for (a, b) in batch.iter().zip(&scalar) {
                    assert_eq!(a.to_bits(), b.to_bits(), "seed {seed} k_max {k_max}");
                }
            }
        }
    }
}
