//! Columnar (struct-of-arrays) EIPV storage and the batch tree-fit
//! kernels that run on it (DESIGN.md D13).
//!
//! The row-sparse [`Dataset`] stores one `SparseVec` per interval — the
//! natural shape for ingest, but the wrong one for split search, which
//! wants every candidate `(feature, value)` pair of a node in one
//! contiguous, presorted sweep. The scalar oracle
//! ([`crate::Fitter::fit_scalar`]) rebuilds that shape per fit by gathering
//! `(feature, value, row)` triples and sorting them with an
//! `O(E log E)` comparison sort. The columnar
//! layout makes it the *primary* storage instead: per-feature contiguous
//! `(value, row)` arrays built by a bucket-then-sort kernel — entries
//! are placed into per-feature buckets through a dense `feature →
//! offset` table in `O(E)`, then each (small) column is sorted
//! independently on an order-preserving `u64` key ([`value_order_key`]),
//! so the global comparison sort disappears.
//!
//! The growth machinery downstream lives in [`crate::kernel`] (the
//! shared split kernel — also the substrate of `fuzzyphase-diff`'s
//! discriminant trees); [`crate::Fitter::full`] and
//! [`crate::Fitter::full_on_columns`]
//! are its entry points. The kernel keeps the scalar algorithm's structure — per-node
//! flat `(feature, value, row)` entry caches, stably partitioned into
//! the children on expansion — but cuts the root cache directly from
//! the columnar storage (no per-fit gather/sort) and batches the
//! per-entry work:
//!
//! * a shared **squared-target table** replaces one multiply per entry
//!   visit with a load of the identical product bits;
//! * **singleton columns** (one non-zero row) resolve through a
//!   per-row gain memo — their single candidate's
//!   gain depends only on the node statistics and the row, and most
//!   singleton rows repeat across a node's thousands of columns;
//! * a **sound one-sided screen** (`node_sse - lsse <= bar` ⇒ the gain
//!   cannot clear the bar, because the clamped right-side SSE is
//!   non-negative) skips the right half of most candidate evaluations;
//! * split sides are derived from the split feature's entry range
//!   alone (no per-row binary search).
//!
//! Every floating-point accumulation keeps the scalar path's operation
//! order, so the fitted tree is **bit-identical** to
//! [`crate::Fitter::fit_scalar`] — asserted by unit, property, and CI
//! tests, and enforced end-to-end by building the whole workspace with
//! `--features scalar-ref` (which swaps the scalar oracle back in as
//! the default fit).

use crate::dataset::Dataset;

/// Maps an `f64` to a `u64` whose unsigned order equals the IEEE 754
/// total order ([`f64::total_cmp`]): flip the sign bit of non-negatives,
/// flip every bit of negatives. Sorting columns by this key is both
/// faster than a comparison sort on `f64` and *exactly* equivalent to
/// the scalar path's `total_cmp` sort, ties included.
#[inline]
pub fn value_order_key(v: f64) -> u64 {
    let b = v.to_bits();
    b ^ ((((b as i64) >> 63) as u64) | 0x8000_0000_0000_0000)
}

/// Inverse of [`value_order_key`].
#[inline]
pub fn value_from_order_key(k: u64) -> f64 {
    let b = if k & 0x8000_0000_0000_0000 != 0 {
        k ^ 0x8000_0000_0000_0000
    } else {
        !k
    };
    f64::from_bits(b)
}

/// Past this many distinct feature ids the dense `feature → offset`
/// build table would dwarf the entry arrays; fall back to a sort-based
/// build instead. (`max_feat` is compared against `4·nnz + 1024`.)
const DENSE_BUILD_SLACK: usize = 1024;

/// A regression dataset in columnar form: per-feature contiguous
/// `(value, row)` arrays plus a dense target vector and per-column
/// group statistics.
///
/// Invariants (property-tested against the row-sparse representation):
///
/// * `feat_ids` is strictly ascending and lists exactly the features
///   that are non-zero somewhere in the dataset.
/// * Column `c` occupies `values[col_starts[c]..col_starts[c+1]]` and
///   the parallel slice of `rows`; within a column, entries are sorted
///   ascending by value (`f64::total_cmp` order) with ties in row
///   order, and every `(feature, row)` pair appears at most once.
/// * `col_sums[c]` / `col_sumsqs[c]` are `Σ y[row]` / `Σ y[row]²` over
///   column `c`'s entries, accumulated in column (value-sorted) order —
///   the exact reduction the scalar split search's group pass performs.
/// * The total number of stored entries equals the sum of the row
///   vectors' `nnz()`.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnarDataset {
    feat_ids: Vec<u32>,
    col_starts: Vec<u32>,
    values: Vec<f64>,
    rows: Vec<u32>,
    col_sums: Vec<f64>,
    col_sumsqs: Vec<f64>,
    y: Vec<f64>,
}

impl ColumnarDataset {
    /// Builds the columnar layout from a row-sparse dataset.
    ///
    /// Bucket-then-sort: entries are counted and placed into per-feature
    /// buckets through a dense `feature → offset` table (row order
    /// preserved — the tie order the sort must keep), then each column
    /// is sorted on `(`[`value_order_key`]`, row)` — per-column sorts of
    /// small slices instead of one global `O(E log E)` comparison sort.
    /// `(feature, row)` pairs are unique, so the unstable sort is
    /// equivalent to a stable sort by value alone.
    pub fn from_dataset(ds: &Dataset) -> Self {
        let total: usize = ds.rows().iter().map(|r| r.nnz()).sum();
        let max_feat = ds
            .rows()
            .iter()
            .filter_map(|r| r.iter().map(|(f, _)| f).max())
            .max();

        let (feat_ids, col_starts, mut keyed) = match max_feat {
            Some(mf) if (mf as usize) < 4 * total + DENSE_BUILD_SLACK => {
                Self::bucket_entries(ds, total, mf)
            }
            Some(_) => Self::sort_entries(ds, total),
            None => (Vec::new(), vec![0], Vec::new()),
        };

        // Sort each column on (value key, row). Rows are unique within
        // a column, so this equals a stable sort by value with ties in
        // row order — exactly the order the scalar path's global stable
        // sort produces.
        for c in 0..feat_ids.len() {
            let (a, b) = (col_starts[c] as usize, col_starts[c + 1] as usize);
            if b - a > 1 {
                keyed[a..b].sort_unstable();
            }
        }

        // Unpack, and accumulate each column's group statistics in the
        // final (value-sorted) entry order — the reduction order the
        // scalar split search's group pass uses.
        let y = ds.targets().to_vec();
        let mut values = Vec::with_capacity(total);
        let mut rows = Vec::with_capacity(total);
        let mut col_sums = Vec::with_capacity(feat_ids.len());
        let mut col_sumsqs = Vec::with_capacity(feat_ids.len());
        for c in 0..feat_ids.len() {
            let (a, b) = (col_starts[c] as usize, col_starts[c + 1] as usize);
            let mut sum = 0.0;
            let mut sumsq = 0.0;
            for &(k, r) in &keyed[a..b] {
                values.push(value_from_order_key(k));
                rows.push(r);
                let yv = y[r as usize];
                sum += yv;
                sumsq += yv * yv;
            }
            col_sums.push(sum);
            col_sumsqs.push(sumsq);
        }
        Self {
            feat_ids,
            col_starts,
            values,
            rows,
            col_sums,
            col_sumsqs,
            y,
        }
    }

    /// Dense-table bucket placement: one `u32` slot per feature id up
    /// to `max_feat`. No per-entry searches, no branches in the
    /// placement loop.
    fn bucket_entries(
        ds: &Dataset,
        total: usize,
        max_feat: u32,
    ) -> (Vec<u32>, Vec<u32>, Vec<(u64, u32)>) {
        let mut counts = vec![0u32; max_feat as usize + 1];
        for r in ds.rows() {
            for (f, _) in r.iter() {
                counts[f as usize] += 1;
            }
        }
        // Compress non-empty features and turn `counts` into the dense
        // feature -> next-write-offset table in one pass.
        let mut feat_ids = Vec::new();
        let mut col_starts = vec![0u32];
        let mut acc = 0u32;
        for (f, slot) in counts.iter_mut().enumerate() {
            let c = *slot;
            if c > 0 {
                feat_ids.push(f as u32);
                *slot = acc;
                acc += c;
                col_starts.push(acc);
            }
        }
        let mut keyed: Vec<(u64, u32)> = vec![(0, 0); total];
        for (row, r) in ds.rows().iter().enumerate() {
            for (f, v) in r.iter() {
                let at = counts[f as usize];
                keyed[at as usize] = (value_order_key(v), row as u32);
                counts[f as usize] = at + 1;
            }
        }
        (feat_ids, col_starts, keyed)
    }

    /// Fallback for pathologically large feature ids: sort
    /// `(feature, key, row)` triples globally, then split into columns.
    fn sort_entries(ds: &Dataset, total: usize) -> (Vec<u32>, Vec<u32>, Vec<(u64, u32)>) {
        let mut triples: Vec<(u32, u64, u32)> = Vec::with_capacity(total);
        for (row, r) in ds.rows().iter().enumerate() {
            for (f, v) in r.iter() {
                triples.push((f, value_order_key(v), row as u32));
            }
        }
        // (feature, row) pairs are unique, so the unstable sort is
        // deterministic; the per-column re-sort afterwards is a no-op
        // but keeps one code path.
        triples.sort_unstable();
        let mut feat_ids = Vec::new();
        let mut col_starts = vec![0u32];
        let mut keyed = Vec::with_capacity(total);
        for (i, &(f, k, r)) in triples.iter().enumerate() {
            if feat_ids.last() != Some(&f) {
                if i > 0 {
                    col_starts.push(i as u32);
                }
                feat_ids.push(f);
            }
            keyed.push((k, r));
        }
        if !triples.is_empty() {
            col_starts.push(total as u32);
        }
        (feat_ids, col_starts, keyed)
    }

    /// Number of data rows.
    pub fn num_rows(&self) -> usize {
        self.y.len()
    }

    /// Distinct feature ids, ascending.
    pub fn feat_ids(&self) -> &[u32] {
        &self.feat_ids
    }

    /// Total number of stored entries (the dataset's nnz).
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// All targets.
    pub fn targets(&self) -> &[f64] {
        &self.y
    }

    /// Column `c`'s `(values, rows)` slices (`c` indexes `feat_ids`).
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of range.
    pub fn column(&self, c: usize) -> (&[f64], &[u32]) {
        let (a, b) = (self.col_starts[c] as usize, self.col_starts[c + 1] as usize);
        (&self.values[a..b], &self.rows[a..b])
    }

    /// Column `c`'s group statistics `(Σy, Σy²)` over its entries,
    /// accumulated in column order.
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of range.
    pub fn col_stats(&self, c: usize) -> (f64, f64) {
        (self.col_sums[c], self.col_sumsqs[c])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Fitter;
    use fuzzyphase_stats::{seeded_rng, SparseVec};
    use rand::Rng;

    #[test]
    fn value_order_key_matches_total_cmp() {
        let vals = [
            0.0,
            -0.0,
            1.0,
            -1.0,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            f64::MAX,
            f64::MIN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
            3.5,
            -2.25,
            1e-300,
        ];
        for &a in &vals {
            assert_eq!(
                value_from_order_key(value_order_key(a)).to_bits(),
                a.to_bits(),
                "key round-trip for {a}"
            );
            for &b in &vals {
                assert_eq!(
                    value_order_key(a).cmp(&value_order_key(b)),
                    a.total_cmp(&b),
                    "order of {a} vs {b}"
                );
            }
        }
    }

    fn random_dataset(seed: u64, n: usize, features: u32) -> Dataset {
        let mut rng = seeded_rng(seed);
        let mut rows = Vec::new();
        let mut ys = Vec::new();
        for _ in 0..n {
            let nnz = rng.gen_range(1..8);
            let pairs: Vec<(u32, f64)> = (0..nnz)
                .map(|_| (rng.gen_range(0..features), rng.gen_range(1.0..50.0)))
                .collect();
            rows.push(SparseVec::from_pairs(pairs));
            ys.push(rng.gen_range(0.0..4.0));
        }
        Dataset::new(rows, ys)
    }

    #[test]
    fn columnar_roundtrips_row_representation() {
        for seed in 0..4 {
            let ds = random_dataset(seed, 60, 20);
            let cols = ColumnarDataset::from_dataset(&ds);
            let total: usize = ds.rows().iter().map(|r| r.nnz()).sum();
            assert_eq!(cols.nnz(), total);
            assert_eq!(cols.num_rows(), ds.len());
            // Rebuild every row from the columns and compare.
            let mut rebuilt = vec![Vec::new(); ds.len()];
            for (c, &f) in cols.feat_ids().iter().enumerate() {
                let (vals, rows) = cols.column(c);
                for (&v, &r) in vals.iter().zip(rows) {
                    rebuilt[r as usize].push((f, v));
                }
            }
            for (i, pairs) in rebuilt.into_iter().enumerate() {
                assert_eq!(
                    SparseVec::from_pairs(pairs),
                    *ds.row(i),
                    "row {i} (seed {seed})"
                );
            }
        }
    }

    #[test]
    fn columns_sorted_with_row_order_ties() {
        // Duplicate values within a feature: ties must keep row order.
        let rows = vec![
            SparseVec::from_pairs([(3, 5.0), (7, 1.0)]),
            SparseVec::from_pairs([(3, 5.0)]),
            SparseVec::from_pairs([(3, 2.0), (7, 1.0)]),
            SparseVec::from_pairs([(3, 5.0)]),
        ];
        let ds = Dataset::new(rows, vec![1.0, 2.0, 3.0, 4.0]);
        let cols = ColumnarDataset::from_dataset(&ds);
        assert_eq!(cols.feat_ids(), &[3, 7]);
        let (vals, rws) = cols.column(0);
        assert_eq!(vals, &[2.0, 5.0, 5.0, 5.0]);
        assert_eq!(rws, &[2, 0, 1, 3], "ties keep row order");
        let (vals, rws) = cols.column(1);
        assert_eq!(vals, &[1.0, 1.0]);
        assert_eq!(rws, &[0, 2]);
    }

    #[test]
    fn col_stats_match_column_order_reduction() {
        for seed in 0..4 {
            let ds = random_dataset(seed, 60, 20);
            let cols = ColumnarDataset::from_dataset(&ds);
            for c in 0..cols.feat_ids().len() {
                let (_, rows) = cols.column(c);
                let mut sum = 0.0;
                let mut sumsq = 0.0;
                for &r in rows {
                    let yv = cols.targets()[r as usize];
                    sum += yv;
                    sumsq += yv * yv;
                }
                let (s, sq) = cols.col_stats(c);
                assert_eq!(s.to_bits(), sum.to_bits(), "col {c} sum (seed {seed})");
                assert_eq!(sq.to_bits(), sumsq.to_bits(), "col {c} sumsq (seed {seed})");
            }
        }
    }

    #[test]
    fn sorted_fallback_matches_dense_build() {
        // Huge feature ids push the build over the dense-table budget;
        // the sort-based fallback must produce the identical layout.
        let mut rng = seeded_rng(7);
        let mut rows = Vec::new();
        let mut ys = Vec::new();
        for _ in 0..40 {
            let nnz = rng.gen_range(1..6);
            let pairs: Vec<(u32, f64)> = (0..nnz)
                .map(|_| {
                    (
                        rng.gen_range(0..20u32) * 100_000_000 + 5,
                        rng.gen_range(1.0..9.0),
                    )
                })
                .collect();
            rows.push(SparseVec::from_pairs(pairs));
            ys.push(rng.gen_range(0.0..4.0));
        }
        let ds = Dataset::new(rows, ys);
        let via_fallback = ColumnarDataset::from_dataset(&ds);
        // Same data with ids remapped to a dense range.
        let mut ids: Vec<u32> = ds
            .rows()
            .iter()
            .flat_map(|r| r.iter().map(|(f, _)| f))
            .collect();
        ids.sort_unstable();
        ids.dedup();
        let remapped: Vec<SparseVec> = ds
            .rows()
            .iter()
            .map(|r| {
                SparseVec::from_pairs(r.iter().map(|(f, v)| {
                    // fuzzylint: allow(panic) — f was collected into ids above
                    (ids.binary_search(&f).expect("id present") as u32, v)
                }))
            })
            .collect();
        let via_dense =
            ColumnarDataset::from_dataset(&Dataset::new(remapped, ds.targets().to_vec()));
        assert_eq!(via_fallback.col_starts, via_dense.col_starts);
        assert_eq!(via_fallback.values, via_dense.values);
        assert_eq!(via_fallback.rows, via_dense.rows);
        // The trees agree too.
        let b = Fitter::new().min_leaf(2);
        assert_eq!(b.full(&ds), b.fit_scalar(&ds));
    }

    #[test]
    fn columnar_fit_matches_scalar_on_paper_example() {
        let ds = Dataset::paper_example();
        for cap in 1..=8 {
            let b = Fitter::new().max_leaves(cap);
            assert_eq!(
                b.full_on_columns(ds.columnar()),
                b.fit_scalar(&ds),
                "cap {cap}"
            );
        }
    }

    #[test]
    fn columnar_fit_bit_identical_to_scalar_on_random_data() {
        for seed in 0..6 {
            let ds = random_dataset(seed, 90, 15);
            for min_leaf in [1, 2, 3] {
                let b = Fitter::new().min_leaf(min_leaf);
                let col = b.full_on_columns(ds.columnar());
                let sca = b.fit_scalar(&ds);
                assert_eq!(col, sca, "seed {seed} min_leaf {min_leaf}");
                for (cn, sn) in col.nodes().iter().zip(sca.nodes()) {
                    assert_eq!(cn.mean.to_bits(), sn.mean.to_bits());
                    assert_eq!(cn.sse.to_bits(), sn.sse.to_bits());
                }
            }
        }
    }

    #[test]
    fn duplicate_values_and_zero_thresholds_agree() {
        // Integer-valued counts force value ties; marker features force
        // threshold-0 splits — the paths the tie rules exist for.
        let mut rng = seeded_rng(42);
        for _ in 0..5 {
            let mut rows = Vec::new();
            let mut ys = Vec::new();
            for _ in 0..60 {
                let nnz = rng.gen_range(1..5);
                let pairs: Vec<(u32, f64)> = (0..nnz)
                    .map(|_| (rng.gen_range(0..6), rng.gen_range(1..4) as f64))
                    .collect();
                rows.push(SparseVec::from_pairs(pairs));
                ys.push(rng.gen_range(0..5) as f64);
            }
            let ds = Dataset::new(rows, ys);
            let b = Fitter::new().min_leaf(2);
            assert_eq!(b.full_on_columns(ds.columnar()), b.fit_scalar(&ds));
        }
    }
}
