//! The (EIPV, CPI) sample collection regression trees are fitted to.

use std::sync::OnceLock;

use crate::columnar::ColumnarDataset;
use fuzzyphase_stats::SparseVec;

/// A regression dataset: sparse feature vectors with scalar targets.
///
/// Rows are EIPVs (feature = unique-EIP id, value = sample count in the
/// interval), targets are the intervals' instantaneous CPIs. Absent
/// features are zero — "each EIPV contains one execution count entry for
/// each unique EIP in the program, even if the count is zero" (§4.4).
#[derive(Debug, Clone)]
pub struct Dataset {
    rows: Vec<SparseVec>,
    y: Vec<f64>,
    /// Columnar form of the same data, built on first use and reused by
    /// every subsequent fit ([`crate::Fitter::full`] runs directly
    /// on it). Rows and targets are immutable after construction, so
    /// the cache can never go stale.
    columnar: OnceLock<ColumnarDataset>,
}

impl PartialEq for Dataset {
    fn eq(&self, other: &Self) -> bool {
        self.rows == other.rows && self.y == other.y
    }
}

impl Dataset {
    /// Creates a dataset from rows and targets.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ, the dataset is empty, or a target is not
    /// finite.
    pub fn new(rows: Vec<SparseVec>, y: Vec<f64>) -> Self {
        assert_eq!(rows.len(), y.len(), "rows and targets must align");
        assert!(!rows.is_empty(), "dataset must be non-empty");
        assert!(y.iter().all(|v| v.is_finite()), "targets must be finite");
        Self {
            rows,
            y,
            columnar: OnceLock::new(),
        }
    }

    /// The dataset's columnar primary storage, built on first call and
    /// memoized for the dataset's lifetime. Fitting repeatedly on the
    /// same dataset (cross-validation folds, the serve daemon's
    /// steady state) pays the bucket-and-sort build exactly once.
    pub fn columnar(&self) -> &ColumnarDataset {
        self.columnar
            .get_or_init(|| ColumnarDataset::from_dataset(self))
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the dataset has no rows (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Row `i`'s feature vector.
    pub fn row(&self, i: usize) -> &SparseVec {
        &self.rows[i]
    }

    /// Row `i`'s target.
    pub fn target(&self, i: usize) -> f64 {
        self.y[i]
    }

    /// All targets.
    pub fn targets(&self) -> &[f64] {
        &self.y
    }

    /// All rows.
    pub fn rows(&self) -> &[SparseVec] {
        &self.rows
    }

    /// Population variance of the targets (the paper's `E`).
    pub fn target_variance(&self) -> f64 {
        fuzzyphase_stats::variance(&self.y)
    }

    /// Restricts to a subset of row indices (used for CV folds).
    ///
    /// # Panics
    ///
    /// Panics if `indices` is empty or contains an out-of-range index.
    pub fn subset(&self, indices: &[usize]) -> Dataset {
        assert!(!indices.is_empty(), "subset must be non-empty");
        Dataset::new(
            indices.iter().map(|&i| self.rows[i].clone()).collect(),
            indices.iter().map(|&i| self.y[i]).collect(),
        )
    }

    /// The worked example from the paper's Table 1 / Figure 1: eight
    /// EIPVs over three unique EIPs, whose optimal 4-chamber tree splits
    /// on (EIP0 ≤ 20), then (EIP2 ≤ 60) on the left and (EIP1 ≤ 0) on the
    /// right.
    ///
    /// The published table's numbers are unreadable in our source copy,
    /// so the counts are reconstructed to produce exactly the tree in
    /// Figure 1 (chambers {4,5}, {2,6}, {0,1}, {3,7} with CPIs
    /// 2.0/2.1, 2.6/2.5, 1.0/1.1, 0.6/0.7).
    pub fn paper_example() -> Dataset {
        let raw: [(f64, f64, f64, f64); 8] = [
            // (EIP0, EIP1, EIP2, CPI)
            (40.0, 0.0, 10.0, 1.0),  // EIPV0
            (45.0, 0.0, 20.0, 1.1),  // EIPV1
            (10.0, 10.0, 80.0, 2.6), // EIPV2
            (44.0, 15.0, 15.0, 0.6), // EIPV3
            (15.0, 5.0, 60.0, 2.0),  // EIPV4
            (20.0, 12.0, 40.0, 2.1), // EIPV5
            (16.0, 9.0, 70.0, 2.5),  // EIPV6
            (35.0, 20.0, 25.0, 0.7), // EIPV7
        ];
        let rows = raw
            .iter()
            .map(|&(e0, e1, e2, _)| SparseVec::from_pairs([(0, e0), (1, e1), (2, e2)]))
            .collect();
        let y = raw.iter().map(|&(_, _, _, cpi)| cpi).collect();
        Dataset::new(rows, y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_shape() {
        let ds = Dataset::paper_example();
        assert_eq!(ds.len(), 8);
        assert_eq!(ds.target(2), 2.6);
        assert_eq!(ds.row(0).get(0), 40.0);
        assert!(ds.target_variance() > 0.0);
    }

    #[test]
    fn subset_selects() {
        let ds = Dataset::paper_example();
        let sub = ds.subset(&[2, 4]);
        assert_eq!(sub.len(), 2);
        assert_eq!(sub.target(0), 2.6);
        assert_eq!(sub.target(1), 2.0);
    }

    #[test]
    #[should_panic(expected = "must align")]
    fn mismatched_lengths_rejected() {
        Dataset::new(vec![SparseVec::new()], vec![1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_rejected() {
        Dataset::new(vec![], vec![]);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn nan_target_rejected() {
        Dataset::new(vec![SparseVec::new()], vec![f64::NAN]);
    }
}
