//! Property-based tests (proptest) on the core invariants of the
//! analysis stack.

use fuzzyphase::arch::{Cache, CacheConfig};
use fuzzyphase::regtree::{Dataset, Fitter};
use fuzzyphase::stats::{variance, KFold, SparseVec, Welford};
use proptest::prelude::*;

fn finite_f64() -> impl Strategy<Value = f64> {
    (-1e6f64..1e6).prop_filter("finite", |x| x.is_finite())
}

proptest! {
    /// Welford matches the naive two-pass variance.
    #[test]
    fn welford_matches_naive(xs in prop::collection::vec(finite_f64(), 1..200)) {
        let w: Welford = xs.iter().copied().collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let naive = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / xs.len() as f64;
        let scale = naive.abs().max(1.0);
        prop_assert!((w.variance_population() - naive).abs() / scale < 1e-6);
    }

    /// unpush is the exact inverse of push.
    #[test]
    fn welford_unpush_inverts(
        xs in prop::collection::vec(-1e3f64..1e3, 1..50),
        extra in -1e3f64..1e3,
    ) {
        let mut w: Welford = xs.iter().copied().collect();
        let before = (w.count(), w.mean(), w.sum_sq_dev());
        w.push(extra);
        w.unpush(extra);
        prop_assert_eq!(w.count(), before.0);
        prop_assert!((w.mean() - before.1).abs() < 1e-6);
        prop_assert!((w.sum_sq_dev() - before.2).abs() < 1e-3);
    }

    /// K-fold is a partition: every index exactly once, sizes balanced.
    #[test]
    fn kfold_partitions(n in 10usize..200, k in 2usize..10, seed in any::<u64>()) {
        prop_assume!(k <= n);
        let kf = KFold::new(n, k, seed);
        let mut seen = vec![false; n];
        for fold in kf.folds() {
            for &i in fold {
                prop_assert!(!seen[i]);
                seen[i] = true;
            }
        }
        prop_assert!(seen.iter().all(|&s| s));
        let sizes: Vec<usize> = kf.folds().iter().map(|f| f.len()).collect();
        let (lo, hi) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
        prop_assert!(hi - lo <= 1);
    }

    /// Sparse dot/distance agree with dense arithmetic.
    #[test]
    fn sparse_matches_dense(
        a in prop::collection::vec((0u32..64, -100f64..100.0), 0..20),
        b in prop::collection::vec((0u32..64, -100f64..100.0), 0..20),
    ) {
        let sa = SparseVec::from_pairs(a.iter().copied());
        let sb = SparseVec::from_pairs(b.iter().copied());
        let mut da = [0.0f64; 64];
        let mut db = [0.0f64; 64];
        sa.add_into_dense(&mut da);
        sb.add_into_dense(&mut db);
        let dot: f64 = da.iter().zip(&db).map(|(x, y)| x * y).sum();
        let dist2: f64 = da.iter().zip(&db).map(|(x, y)| (x - y) * (x - y)).sum();
        prop_assert!((sa.dot(&sb) - dot).abs() < 1e-6);
        prop_assert!((sa.dist2(&sb) - dist2).abs() < 1e-6);
    }

    /// Tree invariants: leaves partition the training set, predictions are
    /// chamber means, and training SSE is non-increasing in k.
    #[test]
    fn tree_invariants(
        rows in prop::collection::vec(
            prop::collection::vec((0u32..16, 0f64..100.0), 1..6),
            10..60,
        ),
        ys in prop::collection::vec(0f64..10.0, 60),
    ) {
        let n = rows.len();
        let vectors: Vec<SparseVec> = rows
            .into_iter()
            .map(SparseVec::from_pairs)
            .collect();
        let ds = Dataset::new(vectors, ys[..n].to_vec());
        let tree = Fitter::new().max_leaves(8).full(&ds);

        // Leaf counts partition the dataset.
        let leaf_total: u32 = tree
            .nodes()
            .iter()
            .filter(|nd| nd.is_leaf())
            .map(|nd| nd.count)
            .sum();
        prop_assert_eq!(leaf_total as usize, n);

        // Training SSE non-increasing in k.
        let mut prev = f64::INFINITY;
        for k in 1..=tree.num_splits() + 1 {
            let sse = tree.training_sse_k(k);
            prop_assert!(sse <= prev + 1e-9);
            prev = sse;
        }

        // Every row's full-tree prediction is the mean of its chamber:
        // rows landing in the same leaf share a prediction.
        let mut chamber_sum: std::collections::HashMap<u64, (f64, u32)> = Default::default();
        for i in 0..n {
            let pred = tree.predict(ds.row(i));
            let key = pred.to_bits();
            let e = chamber_sum.entry(key).or_insert((0.0, 0));
            e.0 += ds.target(i);
            e.1 += 1;
        }
        for (key, (sum, count)) in chamber_sum {
            let pred = f64::from_bits(key);
            prop_assert!((pred - sum / count as f64).abs() < 1e-6);
        }
    }

    /// Caches never return a hit for a line that was never accessed, and
    /// always hit an immediate re-access.
    #[test]
    fn cache_hit_correctness(addrs in prop::collection::vec(0u64..1_000_000, 1..200)) {
        let mut c = Cache::new(CacheConfig::new(4096, 64, 2, 1));
        let mut touched = std::collections::HashSet::new();
        for &a in &addrs {
            let line = a >> 6;
            let hit = c.access(a);
            if hit {
                prop_assert!(touched.contains(&line), "hit on untouched line");
            }
            touched.insert(line);
            prop_assert!(c.access(a), "immediate re-access must hit");
        }
        prop_assert_eq!(c.hits() + c.misses(), 2 * addrs.len() as u64);
    }

    /// Population variance is translation-invariant and scales
    /// quadratically.
    #[test]
    fn variance_axioms(
        xs in prop::collection::vec(-1e3f64..1e3, 2..100),
        shift in -1e3f64..1e3,
        scale in 0.1f64..10.0,
    ) {
        let v = variance(&xs);
        let shifted: Vec<f64> = xs.iter().map(|x| x + shift).collect();
        let scaled: Vec<f64> = xs.iter().map(|x| x * scale).collect();
        prop_assert!((variance(&shifted) - v).abs() < 1e-6 * v.max(1.0));
        prop_assert!((variance(&scaled) - v * scale * scale).abs() < 1e-6 * (v * scale * scale).max(1.0));
    }
}
