//! The shared best-first tree-growth kernel over columnar storage.
//!
//! This module is the split-search machinery extracted from the
//! columnar fit path so that every tree the workspace grows — the
//! regression trees of [`Fitter`] *and* the discriminant
//! (classification) trees of `fuzzyphase-diff` — runs the one
//! implementation instead of copy-pasting the search loop.
//!
//! The kernel grows a binary tree best-first, at every step expanding
//! the leaf whose best split removes the most weighted within-node
//! variance of the target vector. For real-valued targets (interval
//! CPI) that is the paper's CART criterion. For 0/1 class-indicator
//! targets the same maximizer *is* weighted Gini impurity reduction:
//! a group of `n` indicator targets with class-1 fraction `p` has
//! `SSE = n·p·(1−p) = n·Gini/2`, so SSE gain and weighted Gini gain
//! differ by the constant factor ½ and rank every candidate split
//! identically. The discriminant engine therefore reuses this kernel
//! bit-for-bit — no parallel Gini search loop exists anywhere.
//!
//! Both production growers — the one-shot [`grow_on_columns`] and the
//! incremental `FitState::replay` (DESIGN.md D15) — expand leaves
//! through the same step here: [`pick_leaf`], [`split_sides`] and
//! [`push_children`]. The scalar oracle ([`Fitter::fit_scalar`]) shares
//! none of them, so it stays an independent check.
//!
//! Everything here preserves the scalar oracle's floating-point
//! operation order (see [`crate::columnar`] and DESIGN.md D13): the
//! grown tree is bit-identical to [`Fitter::fit_scalar`].

use crate::builder::{Candidate, Stats};
use crate::columnar::ColumnarDataset;
use crate::incremental::Fitter;
use crate::tree::{Node, RegressionTree, Split};

/// A non-zero count in a node: `(feature, value, row)`, sorted by
/// feature then value with ties in node-row order — the presorted
/// split-entry cache every node carries.
pub(crate) type Entry = (u32, f64, u32);

/// One side of an expansion: its rows in node order, its entries (still
/// sorted, see [`Entry`]) and its target statistics.
#[derive(Debug, Default, Clone)]
pub(crate) struct Side {
    pub(crate) rows: Vec<u32>,
    pub(crate) entries: Vec<Entry>,
    pub(crate) stats: Stats,
}

/// One growable leaf of the one-shot grower.
struct FlatLeaf {
    node: u32,
    side: Side,
    best: Option<Candidate>,
}

/// Grows a tree on the prebuilt columnar storage. Best-first growth:
/// the leaf with the largest gain expands next, deterministic tie-break
/// on lowest node index — the same rule as the scalar path, producing
/// bit-identical trees.
pub(crate) fn grow_on_columns(fitter: &Fitter, cols: &ColumnarDataset) -> RegressionTree {
    let n = cols.num_rows();
    let y = cols.targets();
    // Squared targets, shared by every group-pass reduction below: the
    // product bits are the same wherever `y·y` is computed, so one table
    // replaces a multiply per entry visit.
    let ysq: Vec<f64> = y.iter().map(|&v| v * v).collect();
    let all_rows: Vec<u32> = (0..n as u32).collect();

    // The root's split-entry cache is the primary storage itself,
    // flattened: columns are laid out by ascending feature, values
    // ascending within a column with ties in row order — exactly the
    // order the scalar path's gather-and-sort produces.
    let mut entries: Vec<Entry> = Vec::with_capacity(cols.nnz());
    for (c, &f) in cols.feat_ids().iter().enumerate() {
        let (vals, rows) = cols.column(c);
        for (&v, &r) in vals.iter().zip(rows) {
            entries.push((f, v, r));
        }
    }
    let root = Side {
        stats: stats_of(y, &all_rows),
        rows: all_rows,
        entries,
    };

    let mut nodes = vec![leaf_node(&root.stats, n)];
    let mut memo = RowGainCache::new(n);
    let mut leaves = vec![FlatLeaf {
        node: 0,
        best: search_flat(fitter, &root.stats, &root.entries, None, y, &ysq, &mut memo),
        side: root,
    }];
    // Row -> side-of-split lookup, reused across expansions; only the
    // expanded node's rows are consulted, so stale slots are harmless.
    let mut goes_left = vec![false; n];

    while let Some((leaf_idx, cand)) = pick_leaf(
        &nodes,
        fitter.max_leaves,
        leaves.iter().map(|l| (l.node, l.best)),
    ) {
        let leaf = leaves.swap_remove(leaf_idx);
        let sides = split_sides(
            &leaf.side.rows,
            &leaf.side.entries,
            &cand,
            y,
            &mut goes_left,
        );
        let children = push_children(&mut nodes, leaf.node, &cand, &sides[0], &sides[1]);
        for (node, side) in children.into_iter().zip(sides) {
            leaves.push(FlatLeaf {
                node,
                best: search_flat(fitter, &side.stats, &side.entries, None, y, &ysq, &mut memo),
                side,
            });
        }
    }

    RegressionTree::from_nodes(nodes)
}

/// A leaf node holding `rows` rows with target statistics `stats`.
pub(crate) fn leaf_node(stats: &Stats, rows: usize) -> Node {
    Node {
        mean: stats.mean(),
        count: rows as u32,
        sse: stats.sse(),
        split: None,
        left: None,
        right: None,
    }
}

/// Picks the next leaf to expand among `leaves` (`(node index, best
/// candidate)` pairs): the largest gain, lowest node index on ties.
/// `None` once the tree has `max_leaves` leaves or no leaf can split.
pub(crate) fn pick_leaf(
    nodes: &[Node],
    max_leaves: usize,
    leaves: impl Iterator<Item = (u32, Option<Candidate>)>,
) -> Option<(usize, Candidate)> {
    // Every expansion turns one leaf into two, so an arena of `n` nodes
    // holds `(n + 1) / 2` leaves.
    if nodes.len().div_ceil(2) >= max_leaves {
        return None;
    }
    leaves
        .enumerate()
        .filter_map(|(i, (node, best))| best.map(|c| (i, node, c)))
        .max_by(|(_, na, ca), (_, nb, cb)| ca.gain.total_cmp(&cb.gain).then(nb.cmp(na)))
        .map(|(i, _, c)| (i, c))
}

/// Splits a leaf's rows and entries by `cand` into its `[left, right]`
/// children. Both partitions are stable: rows keep node order, and a
/// stable partition of a sorted entry sequence is still sorted, so
/// neither child re-gathers or re-sorts.
pub(crate) fn split_sides(
    rows: &[u32],
    entries: &[Entry],
    cand: &Candidate,
    y: &[f64],
    goes_left: &mut [bool],
) -> [Side; 2] {
    // Derive the split sides from the split feature's entry range
    // alone: rows absent from it hold the implicit zero, so they side
    // with `0.0 <= threshold`; rows present use their stored value —
    // the same predicate the scalar path evaluates with a per-row
    // binary search.
    let zero_left = 0.0 <= cand.threshold;
    for &r in rows {
        goes_left[r as usize] = zero_left;
    }
    let lo = entries.partition_point(|e| e.0 < cand.feature);
    let hi = lo + entries[lo..].partition_point(|e| e.0 == cand.feature);
    for &(_, v, r) in &entries[lo..hi] {
        goes_left[r as usize] = v <= cand.threshold;
    }

    let (left_rows, right_rows): (Vec<u32>, Vec<u32>) =
        rows.iter().partition(|&&r| goes_left[r as usize]);
    debug_assert!(!left_rows.is_empty() && !right_rows.is_empty());
    let mut le = Vec::with_capacity(entries.len());
    let mut re = Vec::with_capacity(entries.len());
    for &e in entries {
        if goes_left[e.2 as usize] {
            le.push(e);
        } else {
            re.push(e);
        }
    }
    [
        Side {
            stats: stats_of(y, &left_rows),
            rows: left_rows,
            entries: le,
        },
        Side {
            stats: stats_of(y, &right_rows),
            rows: right_rows,
            entries: re,
        },
    ]
}

/// Appends the two children of `parent` as leaves and links them under
/// `cand`'s split; returns their arena indices. The split's order is
/// the number of expansions before it, which the arena size gives.
pub(crate) fn push_children(
    nodes: &mut Vec<Node>,
    parent: u32,
    cand: &Candidate,
    left: &Side,
    right: &Side,
) -> [u32; 2] {
    let li = nodes.len() as u32;
    let order = (li - 1) / 2;
    nodes.push(leaf_node(&left.stats, left.rows.len()));
    nodes.push(leaf_node(&right.stats, right.rows.len()));
    let p = &mut nodes[parent as usize];
    p.split = Some(Split {
        feature: cand.feature,
        threshold: cand.threshold,
        order,
    });
    p.left = Some(li);
    p.right = Some(li + 1);
    [li, li + 1]
}

/// Per-row memo of the "split this row off alone" gain, valid for one
/// node's search (`stamp[r] == epoch` marks a filled slot).
///
/// Every singleton column evaluates exactly one candidate: threshold 0,
/// the column's lone row on the right. Its gain depends only on the
/// node statistics and that row's target — singleton group stats are
/// `(0.0 + y, 0.0 + y·y)` regardless of which column they come from —
/// so all singleton columns naming the same row produce bit-identical
/// gains. The scan accepts a candidate only on *strictly* greater gain
/// (beyond the tie epsilon), so after the first such column wins,
/// repeats of the same gain are rejected — exactly what the memo
/// reproduces at a fraction of the arithmetic.
pub(crate) struct RowGainCache {
    gain: Vec<f64>,
    stamp: Vec<u32>,
    epoch: u32,
}

impl RowGainCache {
    pub(crate) fn new(rows: usize) -> Self {
        Self {
            gain: vec![0.0; rows],
            stamp: vec![0; rows],
            epoch: 0,
        }
    }
}

/// Target statistics of a row subset, accumulated in row order — the
/// same reduction order as the scalar path's `subset_stats`.
fn stats_of(y: &[f64], rows: &[u32]) -> Stats {
    let mut s = Stats::default();
    for &r in rows {
        s.push(y[r as usize]);
    }
    s
}

/// Per-column aggregate a node's maintained cache keeps so the search
/// can *skip* the column outright (DESIGN.md D15): the column's nonzero
/// group totals plus the summed SSE of its finest partition (one group
/// per distinct stored value). Any threshold split of the node along
/// this column partitions it into unions of those finest groups (plus
/// the implicit-zeros group), and SSE only shrinks under refinement, so
///
/// ```text
///   gain(any threshold) <= node_sse - zeros_sse - finest
/// ```
///
/// is an upper bound computable in O(1) from the node statistics. A
/// column whose bound cannot clear the scan's current acceptance bar
/// (minus a safety margin dominating float round-off) produces no
/// accepted candidate, so skipping it leaves the scan's record chain —
/// and therefore the returned candidate's bits — untouched.
#[derive(Debug, Clone, Default)]
pub(crate) struct ColCache {
    pub(crate) feature: u32,
    /// Totals over the column's nonzero rows in this node.
    pub(crate) group: Stats,
    /// Sum of per-distinct-value group SSEs (the finest partition).
    pub(crate) finest: f64,
}

/// Batch best-split search over a node's presorted entry cache.
///
/// Structurally this is the scalar oracle's search — per column a
/// register-resident group pass then a threshold scan, in the same
/// floating-point order — with batch shortcuts that cannot change any
/// accepted candidate's bits:
///
/// - squared targets come from the shared `ysq` table (same product
///   bits, one multiply saved per entry visit);
/// - singleton columns resolve through the per-row gain memo
///   ([`RowGainCache`]) instead of re-deriving the identical gain;
/// - the last entry of a column only closes its scan, so its (dead)
///   accumulation is skipped;
/// - with `cols` provided (the incremental path's maintained per-column
///   aggregates), a column whose [`ColCache`] upper bound cannot clear
///   the current bar is skipped without scanning — see [`ColCache`] for
///   why that cannot change the accepted candidate.
pub(crate) fn search_flat(
    fitter: &Fitter,
    node_stats: &Stats,
    entries: &[Entry],
    cols: Option<&[ColCache]>,
    y: &[f64],
    ysq: &[f64],
    memo: &mut RowGainCache,
) -> Option<Candidate> {
    let scale = node_stats.sumsq.max(f64::MIN_POSITIVE);
    if (node_stats.n as usize) < 2 * fitter.min_leaf || node_stats.sse() <= scale * 1e-12 {
        return None;
    }

    let node_sse = node_stats.sse();
    memo.epoch = memo.epoch.wrapping_add(1);
    let mut best: Option<Candidate> = None;
    // The bar a candidate must clear: `scale * 1e-12` initially, then
    // `best.gain + scale * 1e-12` — cached so the hot loop compares
    // against a register. Same expression as the scalar search, so the
    // comparisons (and every tie-break) are bit-identical.
    let mut bar = scale * 1e-12;
    // Margin for the per-column skip bound: three orders of magnitude
    // above the tie epsilon, so it dominates any round-off in the
    // cached aggregates while staying far below real gain gaps. The
    // margin only makes skipping *more* conservative — a column is
    // scanned unless its bound sits clearly under the bar.
    let margin = scale * 1e-9;
    let mut ci = 0usize;
    let min = fitter.min_leaf as f64;

    // Probe pass (incremental path only): before the ordered scan, find
    // the column with the highest upper bound and compute its best
    // *achievable* gain with the scan's exact arithmetic and viability
    // rules, touching neither the record chain nor the memo. That gain
    // is a lower bound `lb` on the final accepted gain (when the probed
    // candidate is reached in order it is either accepted or the bar
    // already sits within one tie epsilon of it), so a column whose
    // upper bound cannot clear `lb - margin` cannot contain the final
    // candidate nor anything accepted after it — it is skippable even
    // before the bar has risen. Cold columns ahead of the first strong
    // column in feature order are pruned this way.
    let mut lb = 0.0_f64;
    // Per-column (upper bound, entry count) pairs, computed once up
    // front — the hot loop's skip test then reads one sequential pair
    // instead of re-deriving the bound from the 48-byte cache record.
    let mut ubs: Vec<(f64, u32)> = Vec::new();
    if let Some(cols) = cols {
        ubs.reserve(cols.len());
        let mut best_k = usize::MAX;
        let mut best_ub = f64::NEG_INFINITY;
        for (k, cc) in cols.iter().enumerate() {
            let zeros = node_stats.minus(&cc.group);
            let ub = node_sse - zeros.sse() - cc.finest;
            ubs.push((ub, cc.group.n as u32));
            if ub > best_ub {
                best_ub = ub;
                best_k = k;
            }
        }
        if best_k != usize::MAX && best_ub > bar {
            let feature = cols[best_k].feature;
            let lo = entries.partition_point(|e| e.0 < feature);
            let hi = lo + entries[lo..].partition_point(|e| e.0 == feature);
            if lo < hi {
                scan_column(&entries[lo..hi], node_stats, y, ysq, |left, _| {
                    if left.n >= min {
                        let t = node_sse - left.sse();
                        let right = node_stats.minus(left);
                        if right.n >= min {
                            let gain = t - right.sse();
                            if gain > lb {
                                lb = gain;
                            }
                        }
                    }
                });
            }
        }
    }

    // Viability of any singleton split, hoisted: left/right counts are
    // the same for every singleton column of this node, computed in the
    // scan's exact arithmetic (`zeros.n = n - 1.0`, `right.n = n -
    // zeros.n`).
    let solo_viable = {
        let zn = node_stats.n - 1.0;
        let rn = node_stats.n - zn;
        zn > 0.0 && zn >= min && rn >= min
    };
    let mut i = 0;
    while i < entries.len() {
        let feature = entries[i].0;

        // Column-skip bound (incremental path only): if even the
        // finest partition of this column cannot beat the bar by the
        // safety margin, no threshold in it can be accepted — skip to
        // the next column without touching the record chain.
        if let Some(cols) = cols {
            while ci < cols.len() && cols[ci].feature < feature {
                ci += 1;
            }
            if ci < cols.len() && cols[ci].feature == feature {
                let (ub, cnt) = ubs[ci];
                if ub <= bar.max(lb) - margin {
                    // The cached group count is exactly the column's
                    // entry count in this node, so the skip is O(1) —
                    // no binary search over the entry array.
                    i += cnt as usize;
                    continue;
                }
            }
        }

        // Singleton column (the next entry, if any, starts another
        // feature): one candidate — threshold 0, the lone row on the
        // right — with the gain served from the per-row memo. Group
        // statistics are only needed on a miss and come from the lone
        // row via the same `push` the scalar group pass performs.
        if i + 1 == entries.len() || entries[i + 1].0 != feature {
            let (_, v, row) = entries[i];
            if v > 0.0 && solo_viable {
                let r = row as usize;
                let gv = if memo.stamp[r] == memo.epoch {
                    memo.gain[r]
                } else {
                    let mut group = Stats::default();
                    group.push(y[r]);
                    let zeros = node_stats.minus(&group);
                    let right = node_stats.minus(&zeros);
                    let g = node_sse - zeros.sse() - right.sse();
                    memo.gain[r] = g;
                    memo.stamp[r] = memo.epoch;
                    g
                };
                if gv > bar {
                    best = Some(Candidate {
                        feature,
                        threshold: 0.0,
                        gain: gv,
                    });
                    bar = gv + scale * 1e-12;
                }
            }
            i += 1;
            continue;
        }

        i += scan_column(&entries[i..], node_stats, y, ysq, |left, threshold| {
            if left.n >= min {
                // One-sided screen: the right side's SSE is clamped
                // non-negative, so `node_sse - lsse` bounds the gain
                // from above; candidates under the bar skip the right
                // half of the evaluation. The full gain is the same
                // left-associative `(node_sse - lsse) - rsse` the
                // scalar search computes, so accepted candidates are
                // bit-identical.
                let t = node_sse - left.sse();
                if t > bar {
                    let right = node_stats.minus(left);
                    if right.n >= min {
                        let gain = t - right.sse();
                        if gain > bar {
                            best = Some(Candidate {
                                feature,
                                threshold,
                                gain,
                            });
                            bar = gain + scale * 1e-12;
                        }
                    }
                }
            }
        });
    }
    best
}

/// One column's scan in the scalar search's exact arithmetic: the group
/// pass over the column (the leading run of `entries` that shares the
/// first entry's feature), then the threshold scan — the zeros-only
/// split first (threshold 0), then one after each distinct non-zero
/// value, each offered to `consider(left, threshold)`. The last entry
/// only closes the scan (the split after it would leave the right side
/// empty), so its accumulation into `left` is dead and the loop stops
/// one short. Returns the column's entry count.
#[inline(always)]
fn scan_column(
    entries: &[Entry],
    node_stats: &Stats,
    y: &[f64],
    ysq: &[f64],
    mut consider: impl FnMut(&Stats, f64),
) -> usize {
    let feature = entries[0].0;
    let mut group = Stats::default();
    let mut j = 0;
    while j < entries.len() && entries[j].0 == feature {
        let r = entries[j].2 as usize;
        group.n += 1.0;
        group.sum += y[r];
        group.sumsq += ysq[r];
        j += 1;
    }
    // Rows where this feature is zero.
    let zeros = node_stats.minus(&group);
    let mut left = zeros;
    let mut prev_value = 0.0;
    let mut have_left = zeros.n > 0.0;
    for &(_, v, row) in &entries[..j - 1] {
        if v > prev_value && have_left {
            consider(&left, prev_value);
        }
        let r = row as usize;
        left.n += 1.0;
        left.sum += y[r];
        left.sumsq += ysq[r];
        prev_value = v;
        have_left = true;
    }
    if entries[j - 1].1 > prev_value && have_left {
        consider(&left, prev_value);
    }
    j
}
