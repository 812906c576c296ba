//! The fitted regression tree and its nested `T_k` sub-trees.

use fuzzyphase_stats::SparseVec;
use serde::{Deserialize, Serialize};

/// A split decision: "is the count of `feature` ≤ `threshold`?".
///
/// The paper writes nodes as `(EIP_root, n_root)`: vectors with at most
/// `n_root` executions of the EIP go left, the rest go right (§4.1).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Split {
    /// Feature (unique-EIP) id.
    pub feature: u32,
    /// Count threshold (left side: value ≤ threshold).
    pub threshold: f64,
    /// Order in which this split was added during best-first growth:
    /// the tree `T_k` contains exactly the splits with `order < k - 1`.
    pub order: u32,
}

/// One tree node.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Node {
    /// Mean target of the training rows in this node (the chamber value
    /// `v_C`).
    pub mean: f64,
    /// Number of training rows.
    pub count: u32,
    /// Sum of squared deviations of the training targets.
    pub sse: f64,
    /// The split, if this node is internal; `None` for leaves.
    pub split: Option<Split>,
    /// Index of the left child (`value ≤ threshold`), if internal.
    pub left: Option<u32>,
    /// Index of the right child, if internal.
    pub right: Option<u32>,
}

impl Node {
    /// Whether the node is a leaf of the fully-grown tree.
    pub fn is_leaf(&self) -> bool {
        self.split.is_none()
    }
}

/// A fitted regression tree.
///
/// Grown best-first, so every prefix of its splits is itself the best
/// `k`-chamber tree the growth procedure found; [`predict_k`] evaluates
/// any `T_k` without re-fitting.
///
/// [`predict_k`]: RegressionTree::predict_k
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RegressionTree {
    nodes: Vec<Node>,
}

impl RegressionTree {
    /// Builds from a node arena whose entry 0 is the root.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is empty.
    pub(crate) fn from_nodes(nodes: Vec<Node>) -> Self {
        assert!(!nodes.is_empty(), "tree needs a root");
        Self { nodes }
    }

    /// The root node.
    pub fn root(&self) -> &Node {
        &self.nodes[0]
    }

    /// All nodes (root first).
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Number of leaves of the fully-grown tree.
    pub fn num_leaves(&self) -> usize {
        self.nodes.iter().filter(|n| n.is_leaf()).count()
    }

    /// Number of splits performed during growth.
    pub fn num_splits(&self) -> usize {
        self.nodes.iter().filter(|n| !n.is_leaf()).count()
    }

    /// Predicts with the fully-grown tree.
    pub fn predict(&self, x: &SparseVec) -> f64 {
        self.predict_k(x, self.num_splits() + 1)
    }

    /// Predicts with the `k`-chamber prefix tree `T_k` (`k ≥ 1`).
    ///
    /// `T_1` is the global mean; `T_k` uses the first `k − 1` splits of
    /// the best-first growth. Along any root-to-leaf path split orders
    /// strictly increase, so prediction truncates the descent at the
    /// first split whose order exceeds `k − 2`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn predict_k(&self, x: &SparseVec, k: usize) -> f64 {
        assert!(k >= 1, "k must be at least 1");
        let mut node = &self.nodes[0];
        // A node missing a child is treated as a leaf: the walk never
        // panics, even on a malformed arena.
        while let (Some(split), Some(l), Some(r)) = (node.split, node.left, node.right) {
            if split.order as usize + 1 >= k {
                break;
            }
            let v = x.get(split.feature);
            node = if v <= split.threshold {
                &self.nodes[l as usize]
            } else {
                &self.nodes[r as usize]
            };
        }
        node.mean
    }

    /// The descent path of `x`: `(order_of_split_entered_after, mean)`
    /// pairs from root to the deepest node, used to evaluate all `T_k`
    /// predictions in one walk.
    pub fn path_means(&self, x: &SparseVec) -> Vec<(u32, f64)> {
        let mut out = Vec::new();
        let mut node = &self.nodes[0];
        // The root is "entered" before any split.
        out.push((0, node.mean));
        while let (Some(split), Some(l), Some(r)) = (node.split, node.left, node.right) {
            let v = x.get(split.feature);
            node = if v <= split.threshold {
                &self.nodes[l as usize]
            } else {
                &self.nodes[r as usize]
            };
            // Entering this node required split `split.order`, available
            // from T_{order+2} onward.
            out.push((split.order + 1, node.mean));
        }
        out
    }

    /// Total variance-reduction contributed by each feature across all
    /// splits, sorted descending — "which EIPs carry the CPI signal".
    ///
    /// Gains are computed from the stored node SSEs, so this is exact for
    /// the training data. Equal gains tie-break on ascending feature id,
    /// so the ranking is byte-stable run-to-run.
    pub fn feature_importance(&self) -> Vec<(u32, f64)> {
        let mut gains: std::collections::BTreeMap<u32, f64> = Default::default();
        for n in self.nodes() {
            if let (Some(split), Some(l), Some(r)) = (n.split, n.left, n.right) {
                let gain = n.sse - self.nodes[l as usize].sse - self.nodes[r as usize].sse;
                *gains.entry(split.feature).or_insert(0.0) += gain.max(0.0);
            }
        }
        let mut out: Vec<(u32, f64)> = gains.into_iter().collect();
        out.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        out
    }

    /// Training relative error of the full tree: the leaves' summed SSE
    /// over the root SSE (`0.0` when the root has no variance to
    /// explain). The cheap, CV-free figure the daemon's interim
    /// `RefitDelta` lines report — deterministic, and bit-identical for
    /// bit-identical trees.
    pub fn training_re(&self) -> f64 {
        let root_sse = self.root().sse;
        if root_sse <= 0.0 {
            return 0.0;
        }
        self.training_sse_k(self.num_splits() + 1) / root_sse
    }

    /// How many arena nodes of `self` differ from `prev` — compared
    /// positionally (index by index, plus any length difference), which
    /// is exact because bit-identical growth assigns identical indices.
    /// The "nodes changed" figure of the daemon's `RefitDelta`.
    pub fn nodes_changed_from(&self, prev: &RegressionTree) -> usize {
        let (a, b) = (self.nodes(), prev.nodes());
        let common = a.len().min(b.len());
        let differing = a[..common]
            .iter()
            .zip(&b[..common])
            .filter(|(x, z)| x != z)
            .count();
        differing + a.len().max(b.len()) - common
    }

    /// Training sum of squared errors of `T_k` (sum of the SSE of the
    /// chambers that exist at `k`).
    pub fn training_sse_k(&self, k: usize) -> f64 {
        assert!(k >= 1, "k must be at least 1");
        let mut sse = 0.0;
        let mut stack = vec![0u32];
        while let Some(i) = stack.pop() {
            let n = &self.nodes[i as usize];
            match (n.split, n.left, n.right) {
                (Some(s), Some(l), Some(r)) if (s.order as usize) < k - 1 => {
                    stack.push(l);
                    stack.push(r);
                }
                _ => sse += n.sse,
            }
        }
        sse
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Dataset;
    use crate::Fitter;

    fn paper_tree() -> (Dataset, RegressionTree) {
        let ds = Dataset::paper_example();
        let tree = Fitter::new().max_leaves(4).full(&ds);
        (ds, tree)
    }

    #[test]
    fn t1_is_global_mean() {
        let (ds, tree) = paper_tree();
        let mean: f64 = ds.targets().iter().sum::<f64>() / ds.len() as f64;
        let pred = tree.predict_k(ds.row(0), 1);
        assert!((pred - mean).abs() < 1e-12);
    }

    #[test]
    fn full_tree_reproduces_chamber_means() {
        let (ds, tree) = paper_tree();
        // Figure 1 chambers: {4,5} -> 2.05, {2,6} -> 2.55, {0,1} -> 1.05,
        // {3,7} -> 0.65.
        assert!((tree.predict(ds.row(4)) - 2.05).abs() < 1e-9);
        assert!((tree.predict(ds.row(5)) - 2.05).abs() < 1e-9);
        assert!((tree.predict(ds.row(2)) - 2.55).abs() < 1e-9);
        assert!((tree.predict(ds.row(6)) - 2.55).abs() < 1e-9);
        assert!((tree.predict(ds.row(0)) - 1.05).abs() < 1e-9);
        assert!((tree.predict(ds.row(1)) - 1.05).abs() < 1e-9);
        assert!((tree.predict(ds.row(3)) - 0.65).abs() < 1e-9);
        assert!((tree.predict(ds.row(7)) - 0.65).abs() < 1e-9);
    }

    #[test]
    fn training_sse_non_increasing_in_k() {
        let (_, tree) = paper_tree();
        let mut prev = f64::INFINITY;
        for k in 1..=tree.num_splits() + 1 {
            let sse = tree.training_sse_k(k);
            assert!(sse <= prev + 1e-12, "k={k}: {sse} > {prev}");
            prev = sse;
        }
    }

    #[test]
    fn predict_k_beyond_leaves_equals_full() {
        let (ds, tree) = paper_tree();
        for i in 0..ds.len() {
            assert_eq!(tree.predict_k(ds.row(i), 100), tree.predict(ds.row(i)));
        }
    }

    #[test]
    fn path_means_orders_increase() {
        let (ds, tree) = paper_tree();
        for i in 0..ds.len() {
            let path = tree.path_means(ds.row(i));
            for w in path.windows(2) {
                assert!(w[0].0 < w[1].0, "orders must strictly increase");
            }
        }
    }

    #[test]
    fn feature_importance_ranks_root_first() {
        let (ds, tree) = paper_tree();
        let imp = tree.feature_importance();
        assert_eq!(imp.len(), 3, "three features split");
        // EIP0's root split removes by far the most variance.
        assert_eq!(imp[0].0, 0);
        assert!(imp[0].1 > imp[1].1);
        // Total importance equals the overall SSE reduction.
        let total: f64 = imp.iter().map(|(_, g)| g).sum();
        let reduction = tree.root().sse - tree.training_sse_k(tree.num_splits() + 1);
        assert!((total - reduction).abs() < 1e-9);
        let _ = ds;
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn k_zero_panics() {
        let (ds, tree) = paper_tree();
        tree.predict_k(ds.row(0), 0);
    }
}
