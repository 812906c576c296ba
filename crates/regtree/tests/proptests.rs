//! Property tests for the regression-tree analysis core.

use std::collections::BTreeMap;

use fuzzyphase_regtree::{
    cross_validate, eval_sse_batch, eval_sse_scalar, ColumnarDataset, CrossValidation, Dataset,
    FitDelta, Fitter,
};
use fuzzyphase_stats::SparseVec;
use proptest::prelude::*;

fn dataset_strategy() -> impl Strategy<Value = Dataset> {
    (20usize..80).prop_flat_map(|n| {
        (
            prop::collection::vec(prop::collection::vec((0u32..12, 1f64..100.0), 1..5), n..=n),
            prop::collection::vec(0f64..5.0, n..=n),
        )
            .prop_map(|(rows, ys)| {
                Dataset::new(rows.into_iter().map(SparseVec::from_pairs).collect(), ys)
            })
    })
}

proptest! {
    /// Every split strictly reduces training SSE (the builder never adds
    /// a useless split).
    #[test]
    fn splits_strictly_reduce_sse(ds in dataset_strategy()) {
        let tree = Fitter::new().max_leaves(16).full(&ds);
        for k in 2..=tree.num_splits() + 1 {
            prop_assert!(
                tree.training_sse_k(k) < tree.training_sse_k(k - 1) + 1e-9,
                "split {} did not reduce SSE", k
            );
        }
    }

    /// T_k predictions refine monotonically on training data: the full
    /// tree's training MSE is the smallest of all k.
    #[test]
    fn full_tree_is_best_on_training(ds in dataset_strategy()) {
        let tree = Fitter::new().max_leaves(12).full(&ds);
        let mse = |k: usize| -> f64 {
            (0..ds.len())
                .map(|i| {
                    let e = ds.target(i) - tree.predict_k(ds.row(i), k);
                    e * e
                })
                .sum::<f64>()
        };
        let full = tree.num_splits() + 1;
        for k in 1..=full {
            prop_assert!(mse(full) <= mse(k) + 1e-9);
        }
    }

    /// The RE curve is invariant to exact (power-of-two) target scaling:
    /// RE is dimensionless. Powers of two keep every float operation
    /// exact, so split selection — which may sit on ties — is bit-for-bit
    /// unchanged. (Arbitrary affine transforms can flip near-tied splits
    /// through rounding, legitimately changing the curve slightly.)
    #[test]
    fn re_is_dimensionless(ds in dataset_strategy(), exp in -2i32..4) {
        prop_assume!(ds.target_variance() > 1e-6);
        let scale = 2f64.powi(exp);
        let transformed = Dataset::new(
            ds.rows().to_vec(),
            ds.targets().iter().map(|y| y * scale).collect(),
        );
        let a = cross_validate(&ds, 3);
        let b = cross_validate(&transformed, 3);
        for (x, y) in a.re.iter().zip(&b.re) {
            prop_assert!((x - y).abs() < 1e-9, "{x} vs {y}");
        }
    }

    /// The cached, columnar split search is invisible: [`Fitter::full`]
    /// grows exactly the tree the scalar oracle ([`Fitter::fit_scalar`])
    /// grows, bit for bit, on arbitrary sparse data and across leaf caps
    /// and leaf minima.
    #[test]
    fn cached_split_search_matches_rescan(
        ds in dataset_strategy(),
        cap in 2usize..20,
        min_leaf in 1usize..4,
    ) {
        let b = Fitter::new().max_leaves(cap).min_leaf(min_leaf);
        let (fit, oracle) = (b.full(&ds), b.fit_scalar(&ds));
        prop_assert_eq!(&fit, &oracle);
        for (a, o) in fit.nodes().iter().zip(oracle.nodes()) {
            prop_assert_eq!(a.mean.to_bits(), o.mean.to_bits());
            prop_assert_eq!(a.sse.to_bits(), o.sse.to_bits());
            prop_assert_eq!(
                a.split.map(|s| s.threshold.to_bits()),
                o.split.map(|s| s.threshold.to_bits())
            );
        }
    }

    /// Fold-parallel cross-validation returns the bit-identical curve to
    /// the serial run, for any worker count.
    #[test]
    fn parallel_cv_is_bit_identical(ds in dataset_strategy(), workers in 2usize..6) {
        let serial = CrossValidation { workers: 1, folds: 5, ..Default::default() };
        let parallel = CrossValidation { workers, ..serial };
        let a = serial.run(&ds);
        let b = parallel.run(&ds);
        prop_assert_eq!(&a, &b);
        for (x, y) in a.re.iter().zip(&b.re) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    /// The columnar layout round-trips the row-sparse representation
    /// exactly: every stored entry appears in its feature's column,
    /// columns are value-sorted with ties in row order, and the cached
    /// per-column group statistics are bit-identical to an accumulation
    /// in that order ([`ColumnarDataset`]'s documented invariants).
    #[test]
    fn columnar_roundtrips_row_sparse(ds in dataset_strategy()) {
        let cols = ColumnarDataset::from_dataset(&ds);
        prop_assert_eq!(cols.num_rows(), ds.len());
        prop_assert_eq!(cols.targets(), ds.targets());
        prop_assert_eq!(cols.nnz(), ds.rows().iter().map(|r| r.nnz()).sum::<usize>());

        // Regroup the row-sparse entries by feature, keeping row order.
        let mut by_feat: BTreeMap<u32, Vec<(f64, u32)>> = BTreeMap::new();
        for (row, r) in ds.rows().iter().enumerate() {
            for (f, v) in r.iter() {
                by_feat.entry(f).or_default().push((v, row as u32));
            }
        }
        let feats: Vec<u32> = by_feat.keys().copied().collect();
        prop_assert_eq!(cols.feat_ids(), &feats[..]);

        for (c, pairs) in by_feat.values_mut().enumerate() {
            pairs.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            let (values, rows) = cols.column(c);
            let (mut sum, mut sumsq) = (0.0f64, 0.0f64);
            for (i, &(v, row)) in pairs.iter().enumerate() {
                prop_assert_eq!(values[i].to_bits(), v.to_bits());
                prop_assert_eq!(rows[i], row);
                let y = ds.target(row as usize);
                sum += y;
                sumsq += y * y;
            }
            let (cs, csq) = cols.col_stats(c);
            prop_assert_eq!(cs.to_bits(), sum.to_bits());
            prop_assert_eq!(csq.to_bits(), sumsq.to_bits());
        }
    }

    /// Batch SSE fold partials are bit-identical to the scalar per-`k`
    /// walk on every fold, and therefore merge (in fold order) to a
    /// bit-identical total — the property the fold-parallel CV relies on
    /// when it sums per-fold partial vectors.
    #[test]
    fn batch_sse_partials_merge_bit_identically(
        ds in dataset_strategy(),
        folds in 2usize..6,
        cap in 2usize..16,
    ) {
        let tree = Fitter::new().max_leaves(cap).full(&ds);
        let k_max = tree.num_splits() + 1;
        let mut merged_batch = vec![0.0f64; k_max];
        let mut merged_scalar = vec![0.0f64; k_max];
        for fold in 0..folds {
            let test: Vec<usize> = (0..ds.len()).filter(|i| i % folds == fold).collect();
            let batch = eval_sse_batch(&tree, &ds, &test, k_max);
            let scalar = eval_sse_scalar(&tree, &ds, &test, k_max);
            for k in 0..k_max {
                prop_assert_eq!(batch[k].to_bits(), scalar[k].to_bits(),
                    "fold {} k {}", fold, k);
                merged_batch[k] += batch[k];
                merged_scalar[k] += scalar[k];
            }
        }
        for k in 0..k_max {
            prop_assert_eq!(merged_batch[k].to_bits(), merged_scalar[k].to_bits());
        }
    }

    /// Delta-maintained incremental refits are bit-identical to the
    /// scratch oracle: feeding the rows through an arbitrary schedule
    /// of frame-batch deltas — including empty batches and single-row
    /// deltas — yields, after every refit, exactly the tree the scalar
    /// oracle [`Fitter::fit_scalar`] grows from scratch on the
    /// accumulated prefix (DESIGN.md D15).
    #[test]
    fn incremental_refit_matches_scratch_oracle(
        ds in dataset_strategy(),
        batches in prop::collection::vec(0usize..9, 1..14),
        cap in 2usize..20,
        min_leaf in 1usize..4,
    ) {
        // Make the first batch non-empty: a refit needs ≥ 1 row.
        let mut batches = batches;
        batches[0] = batches[0].max(1);

        let fitter = Fitter::new().max_leaves(cap).min_leaf(min_leaf);

        let mut state = fitter.begin();
        let mut fed = 0usize;
        for b in batches {
            let hi = (fed + b).min(ds.len());
            let delta = FitDelta::new(
                ds.rows()[fed..hi].to_vec(),
                ds.targets()[fed..hi].to_vec(),
            );
            fed = hi;
            let tree = fitter.incremental(&mut state, &delta);
            let scratch = fitter.fit_scalar(&Dataset::new(
                ds.rows()[..fed].to_vec(),
                ds.targets()[..fed].to_vec(),
            ));
            prop_assert_eq!(&tree, &scratch, "diverged at {} rows", fed);
            for (a, b) in tree.nodes().iter().zip(scratch.nodes()) {
                prop_assert_eq!(a.mean.to_bits(), b.mean.to_bits());
                prop_assert_eq!(a.sse.to_bits(), b.sse.to_bits());
            }
        }
    }

    /// Prediction is a pure function: same input, same output, and always
    /// within the training-target range.
    #[test]
    fn predictions_bounded_by_targets(ds in dataset_strategy()) {
        let tree = Fitter::new().full(&ds);
        let lo = ds.targets().iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = ds.targets().iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        for i in 0..ds.len() {
            let p = tree.predict(ds.row(i));
            prop_assert!(p >= lo - 1e-9 && p <= hi + 1e-9);
            prop_assert_eq!(p.to_bits(), tree.predict(ds.row(i)).to_bits());
        }
    }
}
