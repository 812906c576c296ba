//! The fit configuration [`Fitter`] and the delta-maintained
//! incremental refits behind it (DESIGN.md D15).
//!
//! The daemon accumulates `(EIPV, CPI)` rows and refits on a cadence.
//! Refitting from scratch is O(non-zeros · depth) plus a columnar
//! rebuild per refit; this module maintains the fitted tree *under
//! append-only row deltas* instead: every node of the last tree keeps
//! its row list, its presorted split-entry cache (the same `(feature,
//! value, row)` triples the D13 kernel partitions) and its SSE partials
//! ([`Stats`]), a delta is merged into exactly the nodes it routes
//! through, and only subtrees whose best split actually changed are
//! rebuilt. Everything else — the clean majority — is reused verbatim.
//!
//! # Bit-identity (the oracle policy)
//!
//! [`Fitter::incremental`] is *not* an approximation:
//! the tree it returns is bit-identical to what
//! [`Fitter::full`] would grow from scratch on the same accumulated
//! dataset, for every delta schedule (property-tested, and re-proven
//! against the scalar oracle under `--features scalar-ref`). The
//! soundness argument is spelled out in DESIGN.md D15; the short form:
//!
//! * rows only ever *append*, so a node's row list stays an ascending
//!   subset of dataset order, and pushing the new targets onto its
//!   [`Stats`] in row order reproduces the exact accumulation order of
//!   the scratch fit's `stats_of`;
//! * a node's entry cache is sorted by `(feature, value, row)` — a
//!   *total* order, because appended rows carry larger row ids than
//!   every earlier row — so merging the delta's presorted entries
//!   reproduces the scratch-sorted sequence exactly;
//! * therefore a changed ("dirty") node re-searched over its merged
//!   cache sees the same floats in the same order as scratch, and a
//!   clean node's cached candidate already *is* the scratch result;
//! * gains being bit-equal, the best-first growth replay picks the same
//!   leaf with the same tie-breaks at every step, so node indices and
//!   split orders come out identical too.

use crate::builder::{Candidate, Stats};
use crate::columnar::{value_order_key, ColumnarDataset};
use crate::dataset::Dataset;
use crate::kernel::{
    grow_on_columns, leaf_node, pick_leaf, push_children, search_flat, split_sides, ColCache,
    Entry, RowGainCache, Side,
};
use crate::tree::{Node, RegressionTree};
use fuzzyphase_stats::SparseVec;

#[inline]
fn entry_key(e: &Entry) -> (u32, u64, u32) {
    (e.0, value_order_key(e.1), e.2)
}

/// The one fit configuration: it runs the one-shot fit
/// ([`Fitter::full`]), the delta-maintained incremental refit
/// ([`Fitter::incremental`]) and the scalar oracle
/// ([`Fitter::fit_scalar`]), all growing the bit-identical tree.
///
/// ```
/// use fuzzyphase_regtree::{Dataset, Fitter};
/// let ds = Dataset::paper_example();
/// let fitter = Fitter::new().max_leaves(4);
/// let tree = fitter.full(&ds);
/// assert_eq!(tree.num_leaves(), 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fitter {
    pub(crate) max_leaves: usize,
    pub(crate) min_leaf: usize,
}

impl Default for Fitter {
    fn default() -> Self {
        Self {
            // §4.3: "we chose to restrict the maximum number of chambers
            // to be no more than 50".
            max_leaves: 50,
            min_leaf: 1,
        }
    }
}

impl Fitter {
    /// Default configuration (≤ 50 chambers, leaves of ≥ 1 row).
    pub fn new() -> Self {
        Self::default()
    }

    /// Caps the number of chambers.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn max_leaves(mut self, k: usize) -> Self {
        assert!(k >= 1, "need at least one leaf");
        self.max_leaves = k;
        self
    }

    /// Requires at least `n` training rows per chamber.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn min_leaf(mut self, n: usize) -> Self {
        assert!(n >= 1, "min leaf size must be positive");
        self.min_leaf = n;
        self
    }

    /// One-shot fit of the whole dataset: the columnar batch kernels
    /// (DESIGN.md D13) on the dataset's memoized columnar storage.
    /// Building with `--features scalar-ref` swaps the scalar oracle
    /// ([`Fitter::fit_scalar`]) in behind this method, so the entire
    /// downstream stack (cross-validation, the serve daemon, the figures
    /// pipeline) can run on the oracle path; both grow bit-identical
    /// trees, so the feature changes performance only.
    pub fn full(&self, ds: &Dataset) -> RegressionTree {
        #[cfg(feature = "scalar-ref")]
        {
            self.fit_scalar(ds)
        }
        #[cfg(not(feature = "scalar-ref"))]
        {
            self.full_on_columns(ds.columnar())
        }
    }

    /// One-shot fit on prebuilt columnar storage — for callers that
    /// manage [`ColumnarDataset`] construction themselves (benches).
    /// Always the columnar kernels; same tree as [`Fitter::full`].
    pub fn full_on_columns(&self, cols: &ColumnarDataset) -> RegressionTree {
        grow_on_columns(self, cols)
    }

    /// Starts an empty incremental fit state for this configuration.
    pub fn begin(&self) -> FitState {
        FitState {
            fitter: *self,
            y: Vec::new(),
            ysq: Vec::new(),
            nodes: Vec::new(),
            cache: Vec::new(),
        }
    }

    /// Applies `delta` (possibly empty) to the accumulated state and
    /// returns the refitted tree — bit-identical to
    /// [`Fitter::full`] from scratch on all rows fed so far.
    ///
    /// # Panics
    ///
    /// Panics if `state` was begun by a differently-configured
    /// `Fitter`, or if no rows have been fed at all (a tree needs at
    /// least one row, exactly like [`Dataset::new`]).
    pub fn incremental(&self, state: &mut FitState, delta: &FitDelta) -> RegressionTree {
        assert_eq!(
            state.fitter, *self,
            "FitState was begun by a differently-configured Fitter"
        );
        state.apply_delta(delta);
        assert!(
            !state.y.is_empty(),
            "incremental fit needs at least one accumulated row"
        );
        state.replay()
    }
}

/// An append-only batch of new `(EIPV, CPI)` rows for
/// [`Fitter::incremental`]. May be empty (the refit then just re-emits
/// the current tree).
#[derive(Debug, Clone, Default)]
pub struct FitDelta {
    rows: Vec<SparseVec>,
    targets: Vec<f64>,
}

impl FitDelta {
    /// Packs a batch of rows and their targets.
    ///
    /// # Panics
    ///
    /// Panics on length mismatch or a non-finite target — the same
    /// contract as [`Dataset::new`].
    pub fn new(rows: Vec<SparseVec>, targets: Vec<f64>) -> Self {
        assert_eq!(
            rows.len(),
            targets.len(),
            "rows and targets must have the same length"
        );
        assert!(
            targets.iter().all(|t| t.is_finite()),
            "targets must be finite"
        );
        Self { rows, targets }
    }

    /// Number of rows in the batch.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

/// Per-node maintained state: the node's rows (ascending dataset
/// order), presorted split-entry cache and SSE partials ([`Side`]),
/// per-column aggregates for the search's column-skip bound
/// ([`ColCache`]), and the cached best candidate (valid while `dirty`
/// is false).
#[derive(Debug, Default, Clone)]
struct CacheSlot {
    side: Side,
    cols: Vec<ColCache>,
    best: Option<Candidate>,
    dirty: bool,
}

/// The accumulated state of an incremental fit: all targets fed so
/// far, the last emitted tree, and a [`CacheSlot`] per node of it.
///
/// Created by [`Fitter::begin`], advanced by [`Fitter::incremental`].
/// Rebuilding a `FitState` by replaying the same rows in any batch
/// schedule (including one big batch) reproduces the identical state —
/// which is how the daemon's crash recovery restores it from spools.
#[derive(Debug, Clone)]
pub struct FitState {
    fitter: Fitter,
    y: Vec<f64>,
    ysq: Vec<f64>,
    /// Node arena of the last emitted tree (empty before the first
    /// refit; a single placeholder leaf while bootstrapping).
    nodes: Vec<Node>,
    /// Parallel to `nodes`.
    cache: Vec<CacheSlot>,
}

impl FitState {
    /// Total rows accumulated so far.
    pub fn rows(&self) -> usize {
        self.y.len()
    }

    /// Whether any rows have been accumulated.
    pub fn is_empty(&self) -> bool {
        self.y.is_empty()
    }

    /// Routes the delta's rows down the last tree, merging each row's
    /// entries, stats and row id into every node on its descent path
    /// (and only those — untouched subtrees stay clean).
    fn apply_delta(&mut self, delta: &FitDelta) {
        let old_n = self.y.len();
        for &t in &delta.targets {
            self.y.push(t);
            self.ysq.push(t * t);
        }
        if delta.rows.is_empty() {
            return;
        }
        if self.nodes.is_empty() {
            // Bootstrap: a placeholder root leaf; the first replay
            // emits the real arena.
            self.nodes.push(leaf_node(&Stats::default(), 0));
            self.cache.push(CacheSlot::default());
        }

        let new_rows: Vec<u32> = (old_n as u32..self.y.len() as u32).collect();
        let mut stack: Vec<(usize, Vec<u32>)> = vec![(0, new_rows)];
        while let Some((idx, routed)) = stack.pop() {
            // Gather the routed rows' entries, presorted by the total
            // `(feature, value, row)` key; `routed` is ascending so a
            // stable sort on `(feature, value)` would give the same
            // sequence — the key is total, `sort_unstable` is safe.
            let mut fresh: Vec<Entry> = Vec::new();
            for &r in &routed {
                for (f, v) in delta.rows[r as usize - old_n].iter() {
                    fresh.push((f, v, r));
                }
            }
            fresh.sort_unstable_by_key(entry_key);

            let slot = &mut self.cache[idx];
            let side = &mut slot.side;
            merge_entries(&mut side.entries, &fresh);
            update_cols(&mut slot.cols, &side.entries, &fresh, old_n as u32, &self.y);
            for &r in &routed {
                side.stats.push(self.y[r as usize]);
            }
            side.rows.extend_from_slice(&routed);
            slot.dirty = true;

            let nd = &self.nodes[idx];
            if let (Some(split), Some(l), Some(r)) = (nd.split, nd.left, nd.right) {
                let (lrows, rrows): (Vec<u32>, Vec<u32>) = routed.iter().partition(|&&row| {
                    delta.rows[row as usize - old_n].get(split.feature) <= split.threshold
                });
                if !lrows.is_empty() {
                    stack.push((l as usize, lrows));
                }
                if !rrows.is_empty() {
                    stack.push((r as usize, rrows));
                }
            }
        }
    }

    /// Replays the best-first growth loop over the maintained caches:
    /// clean leaves answer from their cached candidate, dirty leaves
    /// re-search their merged cache, and an expansion whose winning
    /// split is unchanged adopts its old children wholesale instead of
    /// re-partitioning. Emits the new arena (and the cache parallel to
    /// it) — bit-identical to `grow_on_columns` from scratch.
    fn replay(&mut self) -> RegressionTree {
        let n = self.y.len();
        let fitter = self.fitter;
        let y = std::mem::take(&mut self.y);
        let ysq = std::mem::take(&mut self.ysq);
        let old_nodes = std::mem::take(&mut self.nodes);
        let mut old_cache: Vec<Option<CacheSlot>> = std::mem::take(&mut self.cache)
            .into_iter()
            .map(Some)
            .collect();

        // A growable leaf of the replay: its (new) arena index, the
        // old arena index whose maintained cache backs it (None for
        // freshly partitioned nodes), and the cache itself.
        struct Live {
            node: u32,
            old: Option<u32>,
            slot: CacheSlot,
        }

        let mut memo = RowGainCache::new(n);
        let mut research = |slot: &mut CacheSlot| {
            if slot.dirty {
                let side = &slot.side;
                slot.best = search_flat(
                    &fitter,
                    &side.stats,
                    &side.entries,
                    Some(&slot.cols),
                    &y,
                    &ysq,
                    &mut memo,
                );
                slot.dirty = false;
            }
        };
        let take_old = |cache: &mut Vec<Option<CacheSlot>>, i: u32| -> Option<CacheSlot> {
            cache.get_mut(i as usize).and_then(Option::take)
        };

        // fuzzylint: allow(panic) — apply_delta bootstraps slot 0
        // before replay ever runs, and each slot is consumed once
        let mut root = take_old(&mut old_cache, 0).expect("root cache slot must exist");
        research(&mut root);
        let mut nodes = vec![leaf_node(&root.side.stats, root.side.rows.len())];
        let mut leaves = vec![Live {
            node: 0,
            old: Some(0),
            slot: root,
        }];
        // The retired cache of every finalized arena index (expanded
        // parents at expansion time, surviving leaves at the end).
        let mut finished: Vec<Option<CacheSlot>> = Vec::new();
        let mut goes_left = vec![false; n];

        // Same selection rule (and tie-break) as the one-shot kernel.
        // Gains are bit-equal to scratch, so the pick is too.
        while let Some((leaf_idx, cand)) = pick_leaf(
            &nodes,
            fitter.max_leaves,
            leaves.iter().map(|l| (l.node, l.slot.best)),
        ) {
            let leaf = leaves.swap_remove(leaf_idx);

            // Unchanged split ⇒ adopt the old children: their caches
            // already absorbed the delta during routing.
            let reuse = leaf.old.and_then(|o| {
                let nd = &old_nodes[o as usize];
                match (nd.split, nd.left, nd.right) {
                    (Some(s), Some(l), Some(r))
                        if s.feature == cand.feature
                            && s.threshold.to_bits() == cand.threshold.to_bits() =>
                    {
                        Some((l, r))
                    }
                    _ => None,
                }
            });
            let reused = reuse.and_then(|(lo, ro)| {
                let ls = take_old(&mut old_cache, lo)?;
                let rs = take_old(&mut old_cache, ro)?;
                Some([(Some(lo), ls), (Some(ro), rs)])
            });
            // Otherwise the split changed (or the node is brand new):
            // partition exactly as the one-shot kernel does and rebuild
            // both children's caches from scratch.
            let children = reused.unwrap_or_else(|| {
                let side = &leaf.slot.side;
                split_sides(&side.rows, &side.entries, &cand, &y, &mut goes_left).map(|side| {
                    let cols = build_cols(&side.entries, &y);
                    let slot = CacheSlot {
                        side,
                        cols,
                        best: None,
                        dirty: true,
                    };
                    (None, slot)
                })
            });

            let [(_, l), (_, r)] = &children;
            let indices = push_children(&mut nodes, leaf.node, &cand, &l.side, &r.side);
            store(&mut finished, leaf.node, leaf.slot);
            for (node, (old, mut slot)) in indices.into_iter().zip(children) {
                research(&mut slot);
                leaves.push(Live { node, old, slot });
            }
        }

        for l in leaves {
            store(&mut finished, l.node, l.slot);
        }
        self.cache = finished
            .into_iter()
            // fuzzylint: allow(panic) — every arena index is either an
            // expanded parent (stored at expansion) or a surviving
            // leaf (stored in the drain above)
            .map(|s| s.expect("replay must fill every cache slot"))
            .collect();
        self.y = y;
        self.ysq = ysq;
        self.nodes = nodes.clone();
        RegressionTree::from_nodes(nodes)
    }
}

/// Stores `slot` at arena index `node`, growing the table as needed.
fn store(finished: &mut Vec<Option<CacheSlot>>, node: u32, slot: CacheSlot) {
    let i = node as usize;
    if finished.len() <= i {
        finished.resize_with(i + 1, || None);
    }
    finished[i] = Some(slot);
}

/// Builds the per-column aggregates of a node from its (presorted)
/// entry cache in one pass: column group totals plus the summed SSE of
/// the finest per-distinct-value partition — the inputs of the
/// search's column-skip bound (see [`ColCache`]).
fn build_cols(entries: &[Entry], y: &[f64]) -> Vec<ColCache> {
    let mut cols: Vec<ColCache> = Vec::new();
    let mut i = 0;
    while i < entries.len() {
        let feature = entries[i].0;
        let mut group = Stats::default();
        let mut finest = 0.0;
        while i < entries.len() && entries[i].0 == feature {
            let vbits = entries[i].1.to_bits();
            let mut g = Stats::default();
            while i < entries.len() && entries[i].0 == feature && entries[i].1.to_bits() == vbits {
                g.push(y[entries[i].2 as usize]);
                i += 1;
            }
            group.n += g.n;
            group.sum += g.sum;
            group.sumsq += g.sumsq;
            finest += g.sse();
        }
        cols.push(ColCache {
            feature,
            group,
            finest,
        });
    }
    cols
}

/// Folds a node's routed delta entries (`fresh`, sorted by the total
/// key) into its per-column aggregates after the entry merge: touched
/// columns get their group totals extended and the SSE of each touched
/// distinct-value group replaced (old contribution out, new in). Rows
/// with id `>= old_n` are the delta's, so the pre-delta group is
/// recoverable from the merged range alone. Only touched `(column,
/// value)` groups are visited — O(delta entries · log) per node, not
/// O(cache).
///
/// The aggregates feed a *comparison bound* only, never an emitted
/// float, so the accumulation order here (incremental folds vs. a
/// scratch [`build_cols`] pass) affecting the low bits is harmless —
/// the search's skip margin dominates it.
fn update_cols(
    cols: &mut Vec<ColCache>,
    entries: &[Entry],
    fresh: &[Entry],
    old_n: u32,
    y: &[f64],
) {
    // Two sequential cursors — merged entries and the column table —
    // advanced in lockstep with the fresh entries. Untouched columns
    // are jumped over via their cached entry counts (`group.n` is
    // exactly the column's entry count), so the walk is O(#columns +
    // touched entries), not O(total entries).
    let mut ei = 0usize;
    let mut pos = 0usize;
    let mut fi = 0usize;
    while fi < fresh.len() {
        let feature = fresh[fi].0;
        while pos < cols.len() && cols[pos].feature < feature {
            ei += cols[pos].group.n as usize;
            pos += 1;
        }
        if pos == cols.len() || cols[pos].feature != feature {
            cols.insert(
                pos,
                ColCache {
                    feature,
                    ..ColCache::default()
                },
            );
        }
        let col_start = ei;
        while fi < fresh.len() && fresh[fi].0 == feature {
            let vbits = fresh[fi].1.to_bits();
            let key = value_order_key(fresh[fi].1);
            let f0 = fi;
            while fi < fresh.len() && fresh[fi].0 == feature && fresh[fi].1.to_bits() == vbits {
                fi += 1;
            }
            while ei < entries.len()
                && entries[ei].0 == feature
                && value_order_key(entries[ei].1) < key
            {
                ei += 1;
            }
            let mut all = Stats::default();
            let mut old = Stats::default();
            while ei < entries.len() && entries[ei].0 == feature && entries[ei].1.to_bits() == vbits
            {
                let yy = y[entries[ei].2 as usize];
                all.push(yy);
                if entries[ei].2 < old_n {
                    old.push(yy);
                }
                ei += 1;
            }
            let cc = &mut cols[pos];
            cc.finest += all.sse() - old.sse();
            for e in &fresh[f0..fi] {
                cc.group.push(y[e.2 as usize]);
            }
        }
        // Close the column: after the pushes, `group.n` is the merged
        // entry count, so it carries the cursor past the column's tail.
        ei = col_start + cols[pos].group.n as usize;
        pos += 1;
    }
}

/// Merges `fresh` (sorted by the total entry key) into `old` (same
/// invariant). Both inputs being sorted by a *total* order, the merge
/// is the unique sorted interleaving — exactly the sequence a scratch
/// sort of the union produces.
fn merge_entries(old: &mut Vec<Entry>, fresh: &[Entry]) {
    if fresh.is_empty() {
        return;
    }
    debug_assert!(fresh
        .windows(2)
        .all(|w| entry_key(&w[0]) < entry_key(&w[1])));
    debug_assert!(old.windows(2).all(|w| entry_key(&w[0]) < entry_key(&w[1])));
    // Backward in-place merge: the keys are a total order (the row id
    // breaks every tie), so the sorted interleaving is unique — any
    // correct merge produces the identical array. Fresh runs are few
    // and old runs are long, so locate each insertion point with a
    // binary search and move the old run with one bulk `copy_within`
    // instead of a per-entry interleave.
    let old_len = old.len();
    old.resize(old_len + fresh.len(), (0, 0.0, 0));
    let mut dst = old_len + fresh.len();
    let mut src_end = old_len;
    for k in (0..fresh.len()).rev() {
        let key = entry_key(&fresh[k]);
        // Gallop backward from the previous insertion point: successive
        // points are a short hop apart, so the probes stay inside the
        // cache lines the bulk copy is about to touch anyway, unlike a
        // full-width binary search from cold memory.
        let ins = {
            let sl = &old[..src_end];
            let mut w = 1usize;
            while w <= sl.len() && entry_key(&sl[sl.len() - w]) >= key {
                w *= 2;
            }
            let lo = sl.len().saturating_sub(w);
            lo + sl[lo..].partition_point(|e| entry_key(e) < key)
        };
        let run = src_end - ins;
        old.copy_within(ins..src_end, dst - run);
        dst -= run + 1;
        old[dst] = fresh[k];
        src_end = ins;
    }
    debug_assert_eq!(dst, src_end);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(pairs: &[(u32, f64)]) -> SparseVec {
        SparseVec::from_pairs(pairs.iter().copied())
    }

    /// Deterministic synthetic EIPV rows (no RNG: mixed-congruential
    /// hash of the row index).
    fn synth_rows(n: usize, features: u32, nnz: usize) -> (Vec<SparseVec>, Vec<f64>) {
        let mut rows = Vec::with_capacity(n);
        let mut ys = Vec::with_capacity(n);
        for i in 0..n {
            let mut h = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xD1B5_4A32_D192_ED03;
            let mut pairs = Vec::with_capacity(nnz);
            for _ in 0..nnz {
                h = h
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let f = ((h >> 33) % features as u64) as u32;
                let v = ((h >> 13) % 97 + 1) as f64;
                pairs.push((f, v));
            }
            pairs.sort_by_key(|&(f, _)| f);
            pairs.dedup_by_key(|&mut (f, _)| f);
            let y = pairs
                .iter()
                .map(|&(f, v)| (f as f64 + 1.0).recip() * v)
                .sum::<f64>()
                / 10.0;
            rows.push(sv(&pairs));
            ys.push(y);
        }
        (rows, ys)
    }

    fn assert_trees_bit_identical(a: &RegressionTree, b: &RegressionTree) {
        let (an, bn) = (a.nodes(), b.nodes());
        assert_eq!(an.len(), bn.len(), "arena sizes differ");
        for (i, (x, z)) in an.iter().zip(bn).enumerate() {
            assert_eq!(x.mean.to_bits(), z.mean.to_bits(), "node {i} mean");
            assert_eq!(x.sse.to_bits(), z.sse.to_bits(), "node {i} sse");
            assert_eq!(x.count, z.count, "node {i} count");
            assert_eq!(x.left, z.left, "node {i} left");
            assert_eq!(x.right, z.right, "node {i} right");
            match (x.split, z.split) {
                (None, None) => {}
                (Some(s), Some(t)) => {
                    assert_eq!(s.feature, t.feature, "node {i} split feature");
                    assert_eq!(
                        s.threshold.to_bits(),
                        t.threshold.to_bits(),
                        "node {i} split threshold"
                    );
                    assert_eq!(s.order, t.order, "node {i} split order");
                }
                other => panic!("node {i} split mismatch: {other:?}"),
            }
        }
    }

    /// Feeds `rows` in the given batch sizes and checks the tree after
    /// every refit against a scratch fit of the prefix.
    fn check_schedule(fitter: &Fitter, rows: &[SparseVec], ys: &[f64], batches: &[usize]) {
        let mut state = fitter.begin();
        let mut fed = 0usize;
        for &b in batches {
            let hi = (fed + b).min(rows.len());
            let delta = FitDelta::new(rows[fed..hi].to_vec(), ys[fed..hi].to_vec());
            fed = hi;
            let tree = fitter.incremental(&mut state, &delta);
            let scratch = fitter.full(&Dataset::new(rows[..fed].to_vec(), ys[..fed].to_vec()));
            assert_trees_bit_identical(&tree, &scratch);
        }
    }

    #[test]
    fn paper_example_incremental_matches_full() {
        let ds = Dataset::paper_example();
        let rows: Vec<SparseVec> = (0..ds.len()).map(|i| ds.row(i).clone()).collect();
        let ys = ds.targets().to_vec();
        let fitter = Fitter::new().max_leaves(4);
        // One big batch, then row-by-row, then mixed with empties.
        check_schedule(&fitter, &rows, &ys, &[rows.len()]);
        check_schedule(&fitter, &rows, &ys, &[1; 8]);
        check_schedule(&fitter, &rows, &ys, &[3, 0, 1, 0, 4]);
    }

    #[test]
    fn empty_delta_reemits_identical_tree() {
        let ds = Dataset::paper_example();
        let rows: Vec<SparseVec> = (0..ds.len()).map(|i| ds.row(i).clone()).collect();
        let ys = ds.targets().to_vec();
        let fitter = Fitter::new().max_leaves(4);
        let mut state = fitter.begin();
        let t1 = fitter.incremental(&mut state, &FitDelta::new(rows, ys));
        let t2 = fitter.incremental(&mut state, &FitDelta::default());
        assert_trees_bit_identical(&t1, &t2);
    }

    #[test]
    fn synthetic_stream_matches_scratch_at_every_cadence() {
        let (rows, ys) = synth_rows(120, 300, 12);
        for fitter in [
            Fitter::new().max_leaves(16).min_leaf(1),
            Fitter::new().max_leaves(50).min_leaf(2),
            Fitter::new().max_leaves(8).min_leaf(4),
        ] {
            check_schedule(&fitter, &rows, &ys, &[7; 18]);
            check_schedule(&fitter, &rows, &ys, &[40, 1, 0, 39, 40]);
        }
    }

    #[test]
    fn full_matches_tree_builder_oracle() {
        // `Fitter::full` and `Fitter::full_on_columns` must grow the
        // scalar oracle's tree (the `builder` module), bit for bit.
        let (rows, ys) = synth_rows(90, 200, 10);
        let ds = Dataset::new(rows, ys);
        let a = Fitter::new().max_leaves(20).min_leaf(2).full(&ds);
        let b = Fitter::new().max_leaves(20).min_leaf(2).fit_scalar(&ds);
        assert_trees_bit_identical(&a, &b);
        let c = Fitter::new()
            .max_leaves(20)
            .min_leaf(2)
            .full_on_columns(ds.columnar());
        assert_trees_bit_identical(&a, &c);
    }

    #[test]
    fn state_rebuild_from_replay_is_exact() {
        // The recovery property: replaying the same rows in a
        // different batching (as spool recovery does) rebuilds a state
        // whose *next* refit is still bit-identical.
        let (rows, ys) = synth_rows(100, 250, 10);
        let fitter = Fitter::new().max_leaves(24).min_leaf(1);

        let mut a = fitter.begin();
        for chunk in rows[..90].chunks(9).zip(ys[..90].chunks(9)) {
            fitter.incremental(&mut a, &FitDelta::new(chunk.0.to_vec(), chunk.1.to_vec()));
        }
        // "Crashed" state b: rebuilt in one replay batch.
        let mut b = fitter.begin();
        fitter.incremental(
            &mut b,
            &FitDelta::new(rows[..90].to_vec(), ys[..90].to_vec()),
        );

        let ta = fitter.incremental(
            &mut a,
            &FitDelta::new(rows[90..].to_vec(), ys[90..].to_vec()),
        );
        let tb = fitter.incremental(
            &mut b,
            &FitDelta::new(rows[90..].to_vec(), ys[90..].to_vec()),
        );
        assert_trees_bit_identical(&ta, &tb);
        let scratch = fitter.full(&Dataset::new(rows, ys));
        assert_trees_bit_identical(&ta, &scratch);
    }

    #[test]
    #[should_panic(expected = "at least one accumulated row")]
    fn refit_with_no_rows_panics() {
        let fitter = Fitter::new();
        let mut state = fitter.begin();
        fitter.incremental(&mut state, &FitDelta::default());
    }

    #[test]
    #[should_panic(expected = "differently-configured")]
    fn state_is_pinned_to_its_fitter() {
        let mut state = Fitter::new().max_leaves(4).begin();
        let ds = Dataset::paper_example();
        let rows: Vec<SparseVec> = (0..ds.len()).map(|i| ds.row(i).clone()).collect();
        Fitter::new()
            .max_leaves(8)
            .incremental(&mut state, &FitDelta::new(rows, ds.targets().to_vec()));
    }
}
