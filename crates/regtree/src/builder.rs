//! Variance-minimizing best-first tree growth (§4.1–§4.3).
//!
//! The paper's algorithm evaluates, for every unique EIP and every
//! observed execution count, the two-way split that most reduces the
//! weighted CPI variance, then recurses. We grow *best-first*: the leaf
//! whose best split reduces variance the most is expanded next, so the
//! first `k − 1` splits form the `k`-chamber tree `T_k` for every `k` up
//! to the leaf cap (§4.3 caps at 50 chambers). Split search exploits EIPV
//! sparsity: only counts that are non-zero somewhere in a node can define
//! a useful threshold, so the scan is O(non-zeros · log) per node rather
//! than O(features · rows).
//!
//! This module holds the scalar reference implementation of that
//! algorithm, [`Fitter::fit_scalar`] — the one independent oracle the
//! production growers in `kernel.rs` and [`crate::incremental`]
//! are checked against (DESIGN.md D13). On top of the sparse scan it
//! keeps a presorted split-entry cache: the root's `(feature, value,
//! row)` triples are sorted once, and each expansion stably partitions
//! its node's triples into the two children. A stable partition of a
//! sorted sequence is still sorted — and ties stay in node-row order,
//! exactly as a fresh per-node sort would leave them — so every node's
//! split search sees the entry sequence a per-node gather-and-sort would
//! build, at O(non-zeros) per expansion instead of O(non-zeros · log
//! non-zeros).

use crate::dataset::Dataset;
use crate::incremental::Fitter;
use crate::tree::{Node, RegressionTree, Split};

/// Running (count, sum, sum-of-squares) statistics of a row subset.
/// Shared with the columnar kernels, which must reproduce the exact
/// accumulation this type defines.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct Stats {
    pub(crate) n: f64,
    pub(crate) sum: f64,
    pub(crate) sumsq: f64,
}

impl Stats {
    pub(crate) fn push(&mut self, y: f64) {
        self.n += 1.0;
        self.sum += y;
        self.sumsq += y * y;
    }

    pub(crate) fn minus(&self, other: &Stats) -> Stats {
        Stats {
            n: self.n - other.n,
            sum: self.sum - other.sum,
            sumsq: self.sumsq - other.sumsq,
        }
    }

    pub(crate) fn sse(&self) -> f64 {
        if self.n <= 0.0 {
            0.0
        } else {
            (self.sumsq - self.sum * self.sum / self.n).max(0.0)
        }
    }

    pub(crate) fn mean(&self) -> f64 {
        if self.n == 0.0 {
            0.0
        } else {
            self.sum / self.n
        }
    }
}

/// A candidate split for a leaf.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Candidate {
    pub(crate) feature: u32,
    pub(crate) threshold: f64,
    pub(crate) gain: f64,
}

/// A non-zero count in a node: `(feature, value, row)`. Kept sorted by
/// `(feature, value)` with ties in node-row order — the order the split
/// scan consumes.
type Entry = (u32, f64, u32);

/// One growable leaf.
#[derive(Debug)]
struct LeafState {
    node: u32,
    rows: Vec<u32>,
    /// The node's sorted split entries (see [`Entry`]).
    entries: Vec<Entry>,
    best: Option<Candidate>,
}

impl Fitter {
    /// The scalar reference fit, kept as the one independent oracle for
    /// the production growers ([`Fitter::full`], [`Fitter::incremental`]):
    /// gather and sort the non-zeros once at the root, stably partition
    /// them on every expansion, and search each node with a plain scalar
    /// scan. It shares no expansion code with the columnar kernels and
    /// grows the bit-identical tree (property-tested). Building with
    /// `--features scalar-ref` makes it the implementation behind
    /// [`Fitter::full`].
    ///
    /// ```
    /// use fuzzyphase_regtree::{Dataset, Fitter};
    /// let ds = Dataset::paper_example();
    /// let fitter = Fitter::new().max_leaves(4);
    /// assert_eq!(fitter.fit_scalar(&ds), fitter.full(&ds));
    /// ```
    pub fn fit_scalar(&self, ds: &Dataset) -> RegressionTree {
        let all_rows: Vec<u32> = (0..ds.len() as u32).collect();
        let root_stats = subset_stats(ds, &all_rows);
        let root_entries = gather_sorted(ds, &all_rows);
        let mut nodes = vec![Node {
            mean: root_stats.mean(),
            count: all_rows.len() as u32,
            sse: root_stats.sse(),
            split: None,
            left: None,
            right: None,
        }];
        let mut leaves = vec![LeafState {
            node: 0,
            best: self.search(ds, &root_stats, &root_entries),
            rows: all_rows,
            entries: root_entries,
        }];
        // Row → side-of-split lookup, reused across expansions; only the
        // expanded node's rows are consulted, so stale slots are harmless.
        let mut goes_left = vec![false; ds.len()];

        let mut order = 0u32;
        while nodes.iter().filter(|n| n.is_leaf()).count() < self.max_leaves {
            // Pick the expandable leaf with the largest gain
            // (deterministic tie-break: lowest node index).
            let Some((leaf_idx, cand)) = leaves
                .iter()
                .enumerate()
                .filter_map(|(i, l)| l.best.map(|c| (i, l.node, c)))
                .max_by(|(_, na, ca), (_, nb, cb)| ca.gain.total_cmp(&cb.gain).then(nb.cmp(na)))
                .map(|(i, _, c)| (i, c))
            else {
                break;
            };

            let leaf = leaves.swap_remove(leaf_idx);

            // Partition rows.
            let mut left_rows = Vec::new();
            let mut right_rows = Vec::new();
            for &r in &leaf.rows {
                let left = ds.row(r as usize).get(cand.feature) <= cand.threshold;
                goes_left[r as usize] = left;
                if left {
                    left_rows.push(r);
                } else {
                    right_rows.push(r);
                }
            }
            debug_assert!(!left_rows.is_empty() && !right_rows.is_empty());

            // Partition the node's sorted entries into the children. The
            // partition is stable, so both children stay sorted with ties
            // in node-row order — byte-for-byte what `gather_sorted`
            // would rebuild.
            let mut left_entries = Vec::new();
            let mut right_entries = Vec::new();
            for e in &leaf.entries {
                if goes_left[e.2 as usize] {
                    left_entries.push(*e);
                } else {
                    right_entries.push(*e);
                }
            }

            let ls = subset_stats(ds, &left_rows);
            let rs = subset_stats(ds, &right_rows);
            let li = nodes.len() as u32;
            let ri = li + 1;
            nodes.push(Node {
                mean: ls.mean(),
                count: left_rows.len() as u32,
                sse: ls.sse(),
                split: None,
                left: None,
                right: None,
            });
            nodes.push(Node {
                mean: rs.mean(),
                count: right_rows.len() as u32,
                sse: rs.sse(),
                split: None,
                left: None,
                right: None,
            });
            let parent = &mut nodes[leaf.node as usize];
            parent.split = Some(Split {
                feature: cand.feature,
                threshold: cand.threshold,
                order,
            });
            parent.left = Some(li);
            parent.right = Some(ri);
            order += 1;

            leaves.push(LeafState {
                node: li,
                best: self.search(ds, &ls, &left_entries),
                rows: left_rows,
                entries: left_entries,
            });
            leaves.push(LeafState {
                node: ri,
                best: self.search(ds, &rs, &right_entries),
                rows: right_rows,
                entries: right_entries,
            });
        }

        RegressionTree::from_nodes(nodes)
    }

    /// Finds the variance-minimizing split of a node, if any, given the
    /// node's presorted split entries.
    fn search(&self, ds: &Dataset, node_stats: &Stats, entries: &[Entry]) -> Option<Candidate> {
        // Degeneracy and tie thresholds are *relative* to the node's scale
        // so that fitted trees are invariant under exact rescaling of the
        // targets (RE is dimensionless).
        let scale = node_stats.sumsq.max(f64::MIN_POSITIVE);
        if (node_stats.n as usize) < 2 * self.min_leaf || node_stats.sse() <= scale * 1e-12 {
            return None;
        }

        let node_sse = node_stats.sse();
        let mut best: Option<Candidate> = None;
        let min = self.min_leaf as f64;

        let mut i = 0;
        while i < entries.len() {
            let feature = entries[i].0;
            let mut j = i;
            // Group totals for this feature.
            let mut group = Stats::default();
            while j < entries.len() && entries[j].0 == feature {
                group.push(ds.target(entries[j].2 as usize));
                j += 1;
            }
            // Rows where this feature is zero.
            let zeros = node_stats.minus(&group);

            // Scan thresholds: zeros-only split first (threshold 0), then
            // after each distinct non-zero value.
            let mut left = zeros;
            let mut prev_value = 0.0;
            let mut have_left = zeros.n > 0.0;
            for e in &entries[i..j] {
                if e.1 > prev_value && have_left {
                    let right = node_stats.minus(&left);
                    if left.n >= min && right.n >= min {
                        let gain = node_sse - left.sse() - right.sse();
                        if gain > best.map_or(scale * 1e-12, |b| b.gain + scale * 1e-12) {
                            best = Some(Candidate {
                                feature,
                                threshold: prev_value,
                                gain,
                            });
                        }
                    }
                }
                left.push(ds.target(e.2 as usize));
                prev_value = e.1;
                have_left = true;
            }
            i = j;
        }
        best
    }
}

fn subset_stats(ds: &Dataset, rows: &[u32]) -> Stats {
    let mut s = Stats::default();
    for &r in rows {
        s.push(ds.target(r as usize));
    }
    s
}

/// Collects a row subset's non-zero `(feature, value, row)` triples,
/// sorted by `(feature, value)`. The sort is stable and rows are visited
/// in node order, so ties keep node-row order.
fn gather_sorted(ds: &Dataset, rows: &[u32]) -> Vec<Entry> {
    let mut entries = Vec::new();
    for &r in rows {
        for (f, v) in ds.row(r as usize).iter() {
            entries.push((f, v, r));
        }
    }
    entries.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)));
    entries
}

#[cfg(test)]
mod tests {
    use super::*;
    use fuzzyphase_stats::SparseVec;

    #[test]
    fn paper_example_tree_matches_figure_1() {
        let ds = Dataset::paper_example();
        let tree = Fitter::new().max_leaves(4).full(&ds);
        let root = tree.root();
        let rs = root.split.expect("root split");
        assert_eq!((rs.feature, rs.threshold), (0, 20.0), "root is (EIP0, 20)");

        let left = &tree.nodes()[root.left.unwrap() as usize];
        let right = &tree.nodes()[root.right.unwrap() as usize];
        let lsplit = left.split.expect("left split");
        let rsplit = right.split.expect("right split");
        assert_eq!(lsplit.feature, 2, "left subtree splits on EIP2");
        assert_eq!(lsplit.threshold, 60.0);
        assert_eq!(rsplit.feature, 1, "right subtree splits on EIP1");
        assert_eq!(rsplit.threshold, 0.0);
        assert_eq!(tree.num_leaves(), 4);
    }

    #[test]
    fn root_tie_prefers_lowest_feature() {
        // EIP0 and EIP2 in the paper example give identical root
        // reductions; the builder must pick EIP0 deterministically.
        let ds = Dataset::paper_example();
        let tree = Fitter::new().max_leaves(2).full(&ds);
        assert_eq!(tree.root().split.unwrap().feature, 0);
    }

    #[test]
    fn constant_targets_yield_single_leaf() {
        let rows: Vec<SparseVec> = (0..10)
            .map(|i| SparseVec::from_pairs([(i as u32, 1.0)]))
            .collect();
        let ds = Dataset::new(rows, vec![2.0; 10]);
        let tree = Fitter::new().full(&ds);
        assert_eq!(tree.num_leaves(), 1);
        assert_eq!(tree.predict(ds.row(3)), 2.0);
    }

    #[test]
    fn perfectly_separable_reaches_zero_sse() {
        // Feature 0 high -> y 5, low -> y 1.
        let mut rows = Vec::new();
        let mut ys = Vec::new();
        for i in 0..20 {
            let v = if i % 2 == 0 { 100.0 } else { 3.0 };
            rows.push(SparseVec::from_pairs([(0, v), (1, i as f64)]));
            ys.push(if i % 2 == 0 { 5.0 } else { 1.0 });
        }
        let ds = Dataset::new(rows, ys);
        let tree = Fitter::new().max_leaves(2).full(&ds);
        assert!(tree.training_sse_k(2) < 1e-12);
        let s = tree.root().split.unwrap();
        assert_eq!(s.feature, 0);
        assert!((3.0..100.0).contains(&s.threshold));
    }

    #[test]
    fn min_leaf_respected() {
        let ds = Dataset::paper_example();
        let tree = Fitter::new().max_leaves(8).min_leaf(2).full(&ds);
        for n in tree.nodes() {
            assert!(n.count >= 2);
        }
    }

    #[test]
    fn leaf_cap_respected() {
        let ds = Dataset::paper_example();
        for cap in 1..=8 {
            let tree = Fitter::new().max_leaves(cap).full(&ds);
            assert!(tree.num_leaves() <= cap);
        }
    }

    #[test]
    fn children_partition_parent() {
        let ds = Dataset::paper_example();
        let tree = Fitter::new().max_leaves(6).full(&ds);
        for n in tree.nodes() {
            if let (Some(l), Some(r)) = (n.left, n.right) {
                let (l, r) = (&tree.nodes()[l as usize], &tree.nodes()[r as usize]);
                assert_eq!(l.count + r.count, n.count);
            }
        }
    }

    #[test]
    fn zero_threshold_split_on_sparse_feature() {
        // Feature present in half the rows; presence determines y.
        let mut rows = Vec::new();
        let mut ys = Vec::new();
        for i in 0..12 {
            if i % 2 == 0 {
                rows.push(SparseVec::from_pairs([(7, 4.0)]));
                ys.push(10.0);
            } else {
                rows.push(SparseVec::from_pairs([(3, 1.0)]));
                ys.push(0.0);
            }
        }
        let ds = Dataset::new(rows, ys);
        let tree = Fitter::new().max_leaves(2).full(&ds);
        let s = tree.root().split.unwrap();
        // Splitting on either marker feature at threshold 0 separates
        // perfectly; the builder picks the lowest feature id.
        assert_eq!(s.feature, 3);
        assert_eq!(s.threshold, 0.0);
        assert!(tree.training_sse_k(2) < 1e-12);
    }
}
