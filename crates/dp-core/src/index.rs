//! Per-partition spatial index for sub-quadratic local DP kernels.
//!
//! The blocked kernels in [`crate::distance`] evaluate every pair in a
//! partition (`O(n_p^2)`). This module builds a small spatial index over
//! the same flat row-major buffer and answers the queries local DP
//! actually needs, pruning whole regions by bounding-box distance:
//!
//! * [`SpatialIndex::self_join_d2`] — `rho` for *every* indexed point from
//!   one traversal that evaluates each unordered pair at most once;
//! * [`SpatialIndex::range_count_d2`] — `rho` of one query as a ball count
//!   at radius `d_c`, counting whole subtrees whose box is entirely inside
//!   the ball and skipping subtrees whose box cannot intersect it;
//! * [`SpatialIndex::cross_range_count_d2`] / [`SpatialIndex::for_each_within_d2`]
//!   — halo/partner contributions (`basic`, `eddpc`, `halo`) and the
//!   serve-side exact recount;
//! * `DenserSearch` — `delta` as a best-first nearest-neighbour search
//!   among the points denser than the query, skipping every subtree whose
//!   densest [`DensityKeys`] entry is not; [`SpatialIndex::nearest_by_d2`]
//!   is the serve probe's form of it, and
//!   [`SpatialIndex::nearest_denser_d2`] the same search under a
//!   caller-supplied filter;
//! * [`SpatialIndex::max_distance`] — the absolute-peak `delta`
//!   (distance to the farthest point).
//!
//! Two representations back the same API: a kd-tree (any dimension) and a
//! uniform-grid fast path for `dim <= 3` when the data span makes cells
//! affordable. Selection is automatic at build time. Either way the index
//! keeps its own copy of the coordinates in *leaf order* (kd leaves / grid
//! cells are contiguous row ranges), so scans stream memory instead of
//! chasing a permutation; point indices are translated back to the
//! caller's input order at the API edge. Every kernel runs on the vector
//! width the index was built for ([`crate::simd`]), with the same bits.
//!
//! ## Bit-identity contract
//!
//! Results are **bit-identical** to the blocked kernels, not merely close:
//!
//! * Box bounds accumulate per-dimension terms in the same order as
//!   [`squared_euclidean`], and every per-op rounding (subtract, square,
//!   add, sqrt) is monotone, so the computed `lb2 <= d2 <= ub2` holds for
//!   every point in a box *in floating point*, not just in the reals —
//!   between a point and a box, and between two boxes. Pruning on
//!   `lb2 >= dc2` (or counting wholesale on `ub2 < dc2`) therefore never
//!   flips a strict `d2 < dc2` test.
//! * Leaf scans evaluate the leaf's pre-transposed tile with one lane per
//!   pair ([`accumulate_tile_d2`]), each lane in [`squared_euclidean`]'s
//!   own accumulation order.
//! * All of the above assumes finite indexed coordinates: a box cannot
//!   bound a NaN. [`crate::local::use_indexed`] keeps such input on the
//!   blocked kernels.
//! * Nearest searches compare on exactly the value the blocked code
//!   compares on (`d2.sqrt()` for the pipelines, raw `d2` for the serve
//!   probe) and break ties toward the smaller candidate id; regions are
//!   pruned only when their lower bound *strictly* exceeds the current
//!   best, so an equal-distance smaller-id candidate is never lost.
//! * The tree layout is a pure function of the input (median split on the
//!   widest box dimension with a total-order + index tie-break), so the
//!   work-stealing parallel build is bit-identical across thread counts,
//!   and every traversal visits candidates in a deterministic order.

use crate::distance::{accumulate_tile_d2, squared_euclidean, LANES};
use crate::local::Key;
use crate::point::PointId;
use crate::simd::Isa;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::Range;

// ---------------------------------------------------------------------
// Box bounds
// ---------------------------------------------------------------------

/// `a` if `a > b`, else `b`: a single `maxsd`/`maxpd`, and `b` whenever
/// the comparison is unordered.
#[inline(always)]
fn max_or(a: f64, b: f64) -> f64 {
    if a > b {
        a
    } else {
        b
    }
}

/// One dimension's gap between the intervals `[lo_a, hi_a]` and
/// `[lo_b, hi_b]` — a point `x` is the interval `[x, x]`:
/// `max(lo_b - hi_a, lo_a - hi_b, 0)`.
///
/// For a point this is, term for term, the branchy `if x < lo { lo - x }
/// else if x > hi { x - hi } else { 0.0 }`: at most one difference is
/// positive, and it is the one that form returns; otherwise `0.0` wins
/// (also over a `-0.0` difference, and the term is squared next). A NaN
/// difference loses its comparison exactly where the branchy comparison
/// is false, so NaN coordinates contribute the same `0.0`.
#[inline(always)]
fn gap(lo_a: f64, hi_a: f64, lo_b: f64, hi_b: f64) -> f64 {
    max_or(lo_b - hi_a, max_or(lo_a - hi_b, 0.0))
}

/// One dimension's reach: the distance between the intervals' far ends.
#[inline(always)]
fn reach(lo_a: f64, hi_a: f64, lo_b: f64, hi_b: f64) -> f64 {
    (hi_a - lo_b).abs().max((hi_b - lo_a).abs())
}

/// Squared lower and upper bounds on the distance between any point of
/// box `a` and any point of box `b` (`dim` minima then `dim` maxima), both
/// in one pass and each accumulated per dimension in the same order as
/// [`squared_euclidean`]. A query point passes itself as both `lo_a` and
/// `hi_a`.
#[inline(always)]
fn box_bounds2(lo_a: &[f64], hi_a: &[f64], b: &[f64]) -> (f64, f64) {
    let (lo_b, hi_b) = b.split_at(lo_a.len());
    let (mut lb2, mut ub2) = (0.0, 0.0);
    for (((&la, &ha), &lb), &hb) in lo_a.iter().zip(hi_a).zip(lo_b).zip(hi_b) {
        let g = gap(la, ha, lb, hb);
        lb2 += g * g;
        let r = reach(la, ha, lb, hb);
        ub2 += r * r;
    }
    (lb2, ub2)
}

/// Squared lower bounds from `q` to two boxes — a node's two children —
/// in one pass: two independent chains instead of two latency-bound ones.
#[inline(always)]
fn point_lb2_pair(q: &[f64], bl: &[f64], br: &[f64]) -> (f64, f64) {
    let (lo_l, hi_l) = bl.split_at(q.len());
    let (lo_r, hi_r) = br.split_at(q.len());
    let (mut l2, mut r2) = (0.0, 0.0);
    for ((((&x, &ll), &hl), &lr), &hr) in q.iter().zip(lo_l).zip(hi_l).zip(lo_r).zip(hi_r) {
        let gl = gap(x, x, ll, hl);
        l2 += gl * gl;
        let gr = gap(x, x, lr, hr);
        r2 += gr * gr;
    }
    (l2, r2)
}

/// [`box_bounds2`] from each of a tile's [`LANES`] points to box `b`: the
/// same terms in the same order, one independent chain per lane.
#[inline(always)]
fn lanes_bounds2(cols: &[[f64; LANES]], b: &[f64]) -> ([f64; LANES], [f64; LANES]) {
    let (lo, hi) = b.split_at(cols.len());
    let (mut lb2, mut ub2) = ([0.0; LANES], [0.0; LANES]);
    for ((col, &lo), &hi) in cols.iter().zip(lo).zip(hi) {
        for ((&x, lb2), ub2) in col.iter().zip(&mut lb2).zip(&mut ub2) {
            let g = gap(x, x, lo, hi);
            *lb2 += g * g;
            let r = reach(x, x, lo, hi);
            *ub2 += r * r;
        }
    }
    (lb2, ub2)
}

/// The lower bound of [`box_bounds2`] from point `q` to each box of a
/// front, held dimension-major (`dim` columns of minima, then `dim` of
/// maxima): the same terms in the same order, one chain per box.
#[inline(always)]
fn front_lb2(q: &[f64], cols: &[[f64; FRONT]]) -> [f64; FRONT] {
    let (lo, hi) = cols.split_at(q.len());
    let mut lb2 = [0.0; FRONT];
    for ((&x, lo), hi) in q.iter().zip(lo).zip(hi) {
        for ((lb2, &lo), &hi) in lb2.iter_mut().zip(lo).zip(hi) {
            let g = gap(x, x, lo, hi);
            *lb2 += g * g;
        }
    }
    lb2
}

// ---------------------------------------------------------------------
// kd-tree
// ---------------------------------------------------------------------

/// Max points per kd leaf. Small enough to prune tightly, large enough
/// that leaf scans stay in the blocked kernels' sweet spot.
const LEAF: usize = 16;

// A leaf is evaluated as one tile.
const _: () = assert!(LEAF <= LANES);

/// Levels a best-first search descends per expansion: a popped node
/// pushes its descendants this many levels down (or the leaves above
/// them), their bounds computed one lane per box.
const FRONT_DEPTH: usize = 3;

/// Boxes in a front: one lane each.
const FRONT: usize = 1 << FRONT_DEPTH;

/// Subtrees at least this large build their children via `rayon::join`.
const PAR_BUILD_MIN: usize = 4096;

/// Nodes in a subtree over `n` points under the fixed split rule.
fn node_count(n: usize) -> usize {
    if n <= LEAF {
        1
    } else {
        1 + node_count(n / 2) + node_count(n - n / 2)
    }
}

/// The nodes a best-first search pushes when it pops an expanded node.
struct Front {
    nodes: [u32; FRONT],
    len: usize,
    /// Where the nodes' boxes start in `KdTree::lanes`.
    cols: usize,
}

/// A kd-tree over leaf-ordered rows: each node owns a contiguous row
/// range. The layout (preorder, left child at `i + 1`) is a pure function
/// of the input, independent of thread count.
struct KdTree {
    /// Per node: `dim` minima then `dim` maxima, `2 * dim` slots each.
    bounds: Vec<f64>,
    /// Per node: first row.
    start: Vec<u32>,
    /// Per node: number of points.
    len: Vec<u32>,
    /// Per node: right-child node index; `0` marks a leaf (the root is
    /// node 0 and never anyone's child).
    right: Vec<u32>,
    /// Lane-major storage, one allocation: every leaf's rows transposed to
    /// `dim` columns of [`LANES`] (the leaf's *tile*, so a scan costs no
    /// transposition), then every front's boxes as `dim` columns of minima
    /// and `dim` of maxima, [`FRONT`] lanes each.
    lanes: Vec<f64>,
    /// Per leaf: where its tile starts in `lanes`. Per node a search
    /// expands — the root, and every internal node of a front — its index
    /// into `fronts`.
    slot: Vec<usize>,
    fronts: Vec<Front>,
}

/// Disjoint per-subtree views of the kd arrays, so the two children of a
/// split can be built in parallel without sharing mutable state.
struct BuildSlices<'a> {
    bounds: &'a mut [f64],
    start: &'a mut [u32],
    len: &'a mut [u32],
    right: &'a mut [u32],
}

impl KdTree {
    /// Builds the tree over the caller's input-order buffer; also returns
    /// the leaf order (row -> input index).
    fn build(flat: &[f64], dim: usize, isa: Isa) -> (Self, Vec<u32>) {
        let n = flat.len() / dim;
        debug_assert!(n > 0, "cannot index an empty partition");
        let mut perm: Vec<u32> = (0..n as u32).collect();
        let nodes = node_count(n);
        let mut bounds = vec![0.0f64; nodes * 2 * dim];
        let mut start = vec![0u32; nodes];
        let mut len = vec![0u32; nodes];
        let mut right = vec![0u32; nodes];
        build_rec(
            (flat, dim, isa),
            &mut perm,
            0,
            0,
            BuildSlices {
                bounds: &mut bounds,
                start: &mut start,
                len: &mut len,
                right: &mut right,
            },
        );
        let mut kd = KdTree {
            bounds,
            start,
            len,
            right,
            lanes: Vec::new(),
            slot: vec![0; nodes],
            fronts: Vec::new(),
        };
        isa.run(
            #[inline(always)]
            || kd.lay_out(flat, dim, &perm),
        );
        (kd, perm)
    }

    /// Fills the leaf tiles, then the fronts: the root's, and those of
    /// the internal nodes each front holds.
    #[inline(always)]
    fn lay_out(&mut self, flat: &[f64], dim: usize, perm: &[u32]) {
        let nodes = self.len.len();
        // Every internal node has two children: (nodes + 1) / 2 leaves.
        self.lanes.reserve(nodes.div_ceil(2) * dim * LANES);
        for node in 0..nodes {
            if self.is_leaf(node) {
                let at = self.lanes.len();
                self.slot[node] = at;
                self.lanes.resize(at + dim * LANES, 0.0);
                let ids = &perm[self.rows(node)];
                for (d, col) in self.lanes[at..].chunks_exact_mut(LANES).enumerate() {
                    for (c, &i) in col.iter_mut().zip(ids) {
                        *c = flat[i as usize * dim + d];
                    }
                }
            }
        }
        if !self.is_leaf(0) {
            self.push_front(dim, 0);
        }
        let mut next = 0;
        while next < self.fronts.len() {
            let front = &self.fronts[next];
            let (nodes, len) = (front.nodes, front.len);
            for &v in &nodes[..len] {
                if !self.is_leaf(v as usize) {
                    self.push_front(dim, v as usize);
                }
            }
            next += 1;
        }
    }

    /// Lays out the front of `node`: [`FRONT_DEPTH`] levels down, stopping
    /// at leaves.
    #[inline(always)]
    fn push_front(&mut self, dim: usize, node: usize) {
        let mut front = Front {
            nodes: [node as u32; FRONT],
            len: 1,
            cols: self.lanes.len(),
        };
        for _ in 0..FRONT_DEPTH {
            let (level, len) = (front.nodes, front.len);
            front.len = 0;
            for &v in &level[..len] {
                let (l, r) = self.children(v as usize);
                let kids = if self.is_leaf(v as usize) {
                    &[v][..]
                } else {
                    &[l as u32, r as u32][..]
                };
                for &k in kids {
                    front.nodes[front.len] = k;
                    front.len += 1;
                }
            }
        }
        self.lanes.resize(front.cols + 2 * dim * FRONT, 0.0);
        let cols = self.lanes[front.cols..].chunks_exact_mut(FRONT);
        for (k, col) in cols.enumerate() {
            for (c, &v) in col.iter_mut().zip(&front.nodes[..front.len]) {
                *c = self.bounds[v as usize * 2 * dim + k];
            }
        }
        self.slot[node] = self.fronts.len();
        self.fronts.push(front);
    }

    #[inline(always)]
    fn bounds(&self, dim: usize, node: usize) -> &[f64] {
        &self.bounds[node * 2 * dim..][..2 * dim]
    }

    #[inline(always)]
    fn is_leaf(&self, node: usize) -> bool {
        self.right[node] == 0
    }

    /// `(left, right)` children of an internal node.
    #[inline(always)]
    fn children(&self, node: usize) -> (usize, usize) {
        (node + 1, self.right[node] as usize)
    }

    #[inline(always)]
    fn rows(&self, node: usize) -> Range<usize> {
        let s = self.start[node] as usize;
        s..s + self.len[node] as usize
    }

    /// An expanded node's front: its nodes, and their boxes' columns.
    #[inline(always)]
    fn front(&self, dim: usize, node: usize) -> (&[u32], &[[f64; FRONT]]) {
        let front = &self.fronts[self.slot[node]];
        let cols = &self.lanes[front.cols..][..2 * dim * FRONT];
        (&front.nodes[..front.len], cols.as_chunks().0)
    }

    /// A leaf's tile.
    #[inline(always)]
    fn tile(&self, dim: usize, leaf: usize) -> &[[f64; LANES]] {
        self.lanes[self.slot[leaf]..][..dim * LANES].as_chunks().0
    }

    /// `d²` from `q` to each row of a leaf, lane `k` for the leaf's row
    /// `k`; lanes past the leaf's rows are padding.
    #[inline(always)]
    fn leaf_d2(&self, q: &[f64], leaf: usize) -> [f64; LANES] {
        let mut d2 = [0.0; LANES];
        accumulate_tile_d2(q, self.tile(q.len(), leaf), &mut d2);
        d2
    }
}

fn build_rec(
    (flat, dim, isa): (&[f64], usize, Isa),
    perm: &mut [u32],
    perm_off: u32,
    node: u32,
    s: BuildSlices,
) {
    let n = perm.len();
    let (b, bounds_rest) = s.bounds.split_at_mut(2 * dim);
    let (st, start_rest) = s.start.split_at_mut(1);
    let (ln, len_rest) = s.len.split_at_mut(1);
    let (rt, right_rest) = s.right.split_at_mut(1);
    st[0] = perm_off;
    ln[0] = n as u32;
    isa.run(
        #[inline(always)]
        || node_bounds(flat, dim, perm, b),
    );

    if n <= LEAF {
        rt[0] = 0;
        return;
    }

    // Split on the widest extent; first such dimension wins.
    let mut split_dim = 0;
    let mut ext = b[dim] - b[0];
    for d in 1..dim {
        let e = b[dim + d] - b[d];
        if e > ext {
            ext = e;
            split_dim = d;
        }
    }
    let mid = n / 2;
    perm.select_nth_unstable_by(mid, |&a, &c| {
        flat[a as usize * dim + split_dim]
            .total_cmp(&flat[c as usize * dim + split_dim])
            .then(a.cmp(&c))
    });
    let (left_perm, right_perm) = perm.split_at_mut(mid);
    let left_nodes = node_count(mid);
    let right_node = node + 1 + left_nodes as u32;
    rt[0] = right_node;

    let (lb, rb) = bounds_rest.split_at_mut(left_nodes * 2 * dim);
    let (lst, rst) = start_rest.split_at_mut(left_nodes);
    let (lln, rln) = len_rest.split_at_mut(left_nodes);
    let (lrt, rrt) = right_rest.split_at_mut(left_nodes);
    let left = BuildSlices {
        bounds: lb,
        start: lst,
        len: lln,
        right: lrt,
    };
    let rchild = BuildSlices {
        bounds: rb,
        start: rst,
        len: rln,
        right: rrt,
    };
    let at = (flat, dim, isa);
    let right_off = perm_off + mid as u32;
    if n >= PAR_BUILD_MIN {
        rayon::join(
            || build_rec(at, left_perm, perm_off, node + 1, left),
            || build_rec(at, right_perm, right_off, right_node, rchild),
        );
    } else {
        build_rec(at, left_perm, perm_off, node + 1, left);
        build_rec(at, right_perm, right_off, right_node, rchild);
    }
}

/// Exact per-dimension min/max of the points `perm` names into `b` —
/// order-independent, so the parallel build cannot perturb it.
#[inline(always)]
fn node_bounds(flat: &[f64], dim: usize, perm: &[u32], b: &mut [f64]) {
    let p0 = &flat[perm[0] as usize * dim..][..dim];
    b[..dim].copy_from_slice(p0);
    b[dim..].copy_from_slice(p0);
    let (lo, hi) = b.split_at_mut(dim);
    for &pi in &perm[1..] {
        let p = &flat[pi as usize * dim..][..dim];
        for ((&x, lo), hi) in p.iter().zip(lo.iter_mut()).zip(hi.iter_mut()) {
            if x < *lo {
                *lo = x;
            }
            if x > *hi {
                *hi = x;
            }
        }
    }
}

/// State of one kd self-join: the dual-tree traversal of
/// [`SpatialIndex::self_join_d2`]. All scratch lives here, allocated once
/// per join.
struct KdJoin<'a> {
    kd: &'a KdTree,
    dim: usize,
    dc2: f64,
    /// Per node: neighbours granted wholesale to every point below it,
    /// pushed down to the rows once the traversal is done.
    pending: Vec<u32>,
    /// Per row: neighbours found so far.
    count: Vec<u32>,
    evals: u64,
    /// The query row of a leaf pair, gathered from its leaf's tile.
    q: Vec<f64>,
}

impl<'a> KdJoin<'a> {
    fn new(kd: &'a KdTree, dim: usize, dc2: f64) -> Self {
        KdJoin {
            kd,
            dim,
            dc2,
            pending: vec![0; kd.len.len()],
            count: vec![0; kd.len[0] as usize],
            evals: 0,
            q: vec![0.0; dim],
        }
    }

    /// Runs the join; returns per-row neighbour counts and the number of
    /// pairs whose `d²` was evaluated.
    #[inline(always)]
    fn run(mut self) -> (Vec<u32>, u64) {
        // Node pairs still to settle, each the same node (its internal
        // pairs) or two disjoint ones. An explicit stack, not recursion:
        // the traversal inlines into the vector-width build that runs it.
        let mut todo = vec![(0usize, 0usize)];
        while let Some((a, b)) = todo.pop() {
            self.pair(a, b, &mut todo);
        }
        // Preorder puts every parent before its children.
        for node in 0..self.pending.len() {
            let p = self.pending[node];
            if self.kd.is_leaf(node) {
                for c in &mut self.count[self.kd.rows(node)] {
                    *c += p;
                }
            } else {
                let (l, r) = self.kd.children(node);
                self.pending[l] += p;
                self.pending[r] += p;
            }
        }
        (self.count, self.evals)
    }

    /// Settles node pair `(a, b)` or splits it onto `todo`.
    #[inline(always)]
    fn pair(&mut self, a: usize, b: usize, todo: &mut Vec<(usize, usize)>) {
        let kd = self.kd;
        let (lo_a, hi_a) = kd.bounds(self.dim, a).split_at(self.dim);
        let (lb2, ub2) = box_bounds2(lo_a, hi_a, kd.bounds(self.dim, b));
        if lb2 >= self.dc2 {
            return; // every d2 between the boxes is >= lb2 >= dc2
        }
        if ub2 < self.dc2 {
            // Every d2 is <= ub2 < dc2: each point gains the whole other
            // side (within one node: everyone but itself).
            if a == b {
                self.pending[a] += kd.len[a] - 1;
            } else {
                self.pending[a] += kd.len[b];
                self.pending[b] += kd.len[a];
            }
            return;
        }
        // Splits are pushed last-first, so they are settled in order.
        if kd.is_leaf(a) && kd.is_leaf(b) {
            self.leaf_pair(a, b);
        } else if a == b {
            let (l, r) = kd.children(a);
            todo.extend([(r, r), (l, r), (l, l)]);
        } else {
            // Split the larger side (never a leaf).
            let split_b = kd.is_leaf(a) || (!kd.is_leaf(b) && kd.len[b] > kd.len[a]);
            let (keep, split) = if split_b { (a, b) } else { (b, a) };
            let (l, r) = kd.children(split);
            todo.extend([(keep, r), (keep, l)]);
        }
    }

    /// Lane masks of leaf `a`'s points against `b`'s box: `(eval, all)` —
    /// points whose pairs with `b` need evaluating, and points within
    /// `dc` of all of `b`. The rest are out of range of all of `b`.
    #[inline(always)]
    fn flags(&self, a: usize, b: usize) -> (u16, u16) {
        let (lb2, ub2) = lanes_bounds2(self.kd.tile(self.dim, a), self.kd.bounds(self.dim, b));
        let (mut eval, mut all) = (0u16, 0u16);
        for lane in 0..self.kd.len[a] as usize {
            if lb2[lane] >= self.dc2 {
                continue;
            }
            if ub2[lane] < self.dc2 {
                all |= 1 << lane;
            } else {
                eval |= 1 << lane;
            }
        }
        (eval, all)
    }

    /// Leaf against leaf (or a leaf's internal pairs when `a == b`): each
    /// side's points are first tested against the other side's box, which
    /// settles a point's pairs with the whole other leaf at once; only
    /// pairs with both ends unsettled are evaluated, a query row against
    /// the other leaf's tile, one lane per pair.
    #[inline(always)]
    fn leaf_pair(&mut self, a: usize, b: usize) {
        let same = a == b;
        let (rows_a, rows_b) = (self.kd.rows(a), self.kd.rows(b));
        let (eval_a, all_a) = self.flags(a, b);
        let (eval_b, all_b) = if same {
            (eval_a, all_a)
        } else {
            self.flags(b, a)
        };
        // A pair with a settled end is in range iff that end is `all`.
        // An `all` point takes the whole other side; an unsettled point
        // takes the other side's `all` points (never itself: it is not
        // `all`).
        let mut grant =
            |rows: &Range<usize>, (eval, all): (u16, u16), other: &Range<usize>, other_all: u16| {
                let whole = (other.len() - usize::from(same)) as u32;
                for (lane, c) in self.count[rows.clone()].iter_mut().enumerate() {
                    if all >> lane & 1 != 0 {
                        *c += whole;
                    } else if eval >> lane & 1 != 0 {
                        *c += other_all.count_ones();
                    }
                }
            };
        grant(&rows_a, (eval_a, all_a), &rows_b, all_b);
        if !same {
            grant(&rows_b, (eval_b, all_b), &rows_a, all_a);
        }
        if eval_a == 0 || eval_b == 0 {
            return;
        }
        let kd = self.kd;
        for i in 0..rows_a.len() {
            // Within one leaf, row i owns the pairs (i, j > i).
            let mask = if same { eval_b & (!1u16) << i } else { eval_b };
            if eval_a >> i & 1 == 0 || mask == 0 {
                continue;
            }
            for (x, col) in self.q.iter_mut().zip(kd.tile(self.dim, a)) {
                *x = col[i];
            }
            let d2 = kd.leaf_d2(&self.q, b);
            // Lanes outside `mask` — padding, or targets their flag has
            // settled — are computed by the hardware and never read.
            self.evals += u64::from(mask.count_ones());
            let mut hits = 0u32;
            for (lane, c) in self.count[rows_b.clone()].iter_mut().enumerate() {
                let hit = u32::from(mask >> lane & 1 != 0 && d2[lane] < self.dc2);
                *c += hit;
                hits += hit;
            }
            self.count[rows_a.start + i] += hits;
        }
    }
}

// ---------------------------------------------------------------------
// Uniform grid (dim <= 3)
// ---------------------------------------------------------------------

/// Per-dimension cell-count cap; beyond this the span/d_c ratio makes the
/// grid pointless and the kd-tree takes over.
const GRID_MAX_CELLS_PER_DIM: i64 = 1 << 20;

/// Cell width safety factor over `d_c`. With `w = 1.001 * d_c`, two points
/// within `d_c` of each other land in cells at most one apart per
/// dimension *in floating point*: their exact scaled coordinates differ by
/// under `1/1.001`, the few-ulp rounding of `(x - min) / w` cannot bridge
/// the remaining slack, and the floor of two values differing by less than
/// one differs by at most one.
const GRID_W_FACTOR: f64 = 1.001;

/// Conservative shrink on ring lower bounds, dominating the rounding of
/// the cell-coordinate computation.
const GRID_LB_SLACK: f64 = 0.999_999;

/// Queries whose cell lies farther than this (Chebyshev, in cells) from
/// the grid box skip shell enumeration for a linear scan of all entries.
/// Well below any saturation point of the `f64 -> i64` cell cast, and far
/// enough that such a query is out-of-distribution anyway.
const GRID_FAR_QUERY_CELLS: i64 = 1 << 40;

/// A uniform grid over up to 3 dimensions; a cell is a contiguous range of
/// the leaf-ordered rows. Unused dimensions are padded with a single cell
/// so traversal is uniform.
struct Grid {
    w: f64,
    min: [f64; 3],
    cells: [i64; 3],
    /// CSR row offsets over row-major cell ids, `total_cells + 1` entries.
    starts: Vec<u32>,
}

/// The 13 of a cell's 26 neighbour offsets that compare greater than the
/// cell itself in row-major order: visiting them from every cell meets
/// each adjacent cell pair exactly once.
const GRID_FORWARD: [[i64; 3]; 13] = {
    let mut out = [[0i64; 3]; 13];
    let (mut k, mut i) = (0, 14);
    while i < 27 {
        out[k] = [i / 9 - 1, i / 3 % 3 - 1, i % 3 - 1];
        k += 1;
        i += 1;
    }
    out
};

impl Grid {
    /// Builds the grid and its leaf order (row -> input index: grouped by
    /// cell, ascending within each cell), or `None` when the data/d_c make
    /// it a bad fit (non-finite coords, degenerate `d_c`, or too many
    /// cells).
    fn try_build(flat: &[f64], dim: usize, dc: f64) -> Option<(Self, Vec<u32>)> {
        if dim > 3 || !(dc.is_finite() && dc > 0.0) {
            return None;
        }
        let n = flat.len() / dim;
        debug_assert!(n > 0, "cannot index an empty partition");
        let w = dc * GRID_W_FACTOR;
        let mut min = [0.0f64; 3];
        let mut max = [0.0f64; 3];
        min[..dim].copy_from_slice(&flat[..dim]);
        max[..dim].copy_from_slice(&flat[..dim]);
        for p in flat.chunks_exact(dim) {
            for (d, &x) in p.iter().enumerate() {
                if !x.is_finite() {
                    return None;
                }
                if x < min[d] {
                    min[d] = x;
                }
                if x > max[d] {
                    max[d] = x;
                }
            }
        }
        // Cell counts from the same rounded expression as cell assignment,
        // so every point's computed cell is in range by construction.
        let mut cells = [1i64; 3];
        let mut total = 1f64;
        for d in 0..dim {
            // Compared as a float: a tiny `w` saturates the cast.
            let c = ((max[d] - min[d]) / w).floor() + 1.0;
            if c > GRID_MAX_CELLS_PER_DIM as f64 {
                return None;
            }
            cells[d] = c as i64;
            total *= c;
        }
        if total > (4 * n + 1024) as f64 {
            return None; // sparse occupancy: kd prunes better
        }
        let total = total as usize;

        let mut starts = vec![0u32; total + 1];
        let cell_of = |p: &[f64]| -> usize {
            let mut id = 0usize;
            for (d, &x) in p.iter().enumerate() {
                let c = ((x - min[d]) / w).floor() as i64;
                debug_assert!((0..cells[d]).contains(&c));
                id = id * cells[d] as usize + c as usize;
            }
            for &c in &cells[p.len()..3] {
                id *= c as usize; // padded dims have one cell: no-op
            }
            id
        };
        for p in flat.chunks_exact(dim) {
            starts[cell_of(p) + 1] += 1;
        }
        for i in 1..=total {
            starts[i] += starts[i - 1];
        }
        let mut cursor = starts.clone();
        let mut entries = vec![0u32; n];
        for (i, p) in flat.chunks_exact(dim).enumerate() {
            let cell = cell_of(p);
            entries[cursor[cell] as usize] = i as u32;
            cursor[cell] += 1;
        }
        let grid = Grid {
            w,
            min,
            cells,
            starts,
        };
        Some((grid, entries))
    }

    /// The (possibly out-of-range) cell coordinates of an arbitrary query.
    fn cell_coords(&self, q: &[f64]) -> [i64; 3] {
        let mut c = [0i64; 3];
        for (d, &x) in q.iter().enumerate() {
            c[d] = ((x - self.min[d]) / self.w).floor() as i64;
        }
        c
    }

    fn cell_id(&self, c: [i64; 3]) -> usize {
        (((c[0] * self.cells[1]) + c[1]) * self.cells[2] + c[2]) as usize
    }

    fn cell_rows(&self, c: [i64; 3]) -> Range<usize> {
        let id = self.cell_id(c);
        self.starts[id] as usize..self.starts[id + 1] as usize
    }

    /// Chebyshev cell-distance from `c` to the grid box (0 when inside).
    /// Saturating, so arbitrarily far (even cast-saturated) cells are safe.
    fn dist_to_box(&self, c: [i64; 3]) -> i64 {
        (0..3)
            .map(|d| {
                c[d].saturating_neg()
                    .max(c[d].saturating_sub(self.cells[d] - 1))
                    .max(0)
            })
            .max()
            .unwrap_or(0)
    }

    /// Visits every *in-grid* cell at Chebyshev cell-distance exactly `r`
    /// from `c`, in a fixed deterministic order. Per-dimension windows are
    /// clamped to the grid box up front, so a shell never enumerates cells
    /// outside the grid and only the shell's clamped faces are walked —
    /// O(visited cells) work, not O(r^2) box scans. Padded dimensions
    /// (`cells[d] == 1`, `c[d] == 0`) clamp to offset 0 automatically.
    /// All bound arithmetic saturates: a saturated bound lands on
    /// `i64::MIN`/`i64::MAX`, which no in-grid coordinate equals, so the
    /// clamps stay conservative for arbitrarily far query cells.
    fn for_shell(&self, c: [i64; 3], r: i64, mut visit: impl FnMut(Range<usize>)) {
        let mut lo = [0i64; 3];
        let mut hi = [0i64; 3];
        for d in 0..3 {
            lo[d] = c[d].saturating_sub(r).max(0);
            hi[d] = c[d].saturating_add(r).min(self.cells[d] - 1);
            if lo[d] > hi[d] {
                return; // the shell misses the grid entirely
            }
        }
        if r == 0 {
            visit(self.cell_rows(c)); // non-empty windows: c is in-grid
            return;
        }
        // The two in-window face coordinates of dim `d` (|x - c[d]| == r).
        let faces = move |d: usize| {
            [c[d].saturating_sub(r), c[d].saturating_add(r)]
                .into_iter()
                .filter(move |&x| lo[d] <= x && x <= hi[d])
        };
        // The in-window interior of dim `d` (|x - c[d]| < r).
        let interior = move |d: usize| {
            (
                lo[d].max(c[d].saturating_sub(r - 1)),
                hi[d].min(c[d].saturating_add(r - 1)),
            )
        };
        // Partition the shell by the first dimension at offset +-r:
        // |x0| == r, then |x0| < r && |x1| == r, then interior/interior
        // with |x2| == r. Each in-grid shell cell is visited exactly once.
        for x0 in faces(0) {
            for x1 in lo[1]..=hi[1] {
                for x2 in lo[2]..=hi[2] {
                    visit(self.cell_rows([x0, x1, x2]));
                }
            }
        }
        let (ilo0, ihi0) = interior(0);
        for x1 in faces(1) {
            for x0 in ilo0..=ihi0 {
                for x2 in lo[2]..=hi[2] {
                    visit(self.cell_rows([x0, x1, x2]));
                }
            }
        }
        let (ilo1, ihi1) = interior(1);
        for x2 in faces(2) {
            for x0 in ilo0..=ihi0 {
                for x1 in ilo1..=ihi1 {
                    visit(self.cell_rows([x0, x1, x2]));
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// SpatialIndex
// ---------------------------------------------------------------------

enum Rep {
    Kd(KdTree),
    Grid(Grid),
}

/// A per-partition spatial index over a flat row-major buffer. Each
/// `Partition` builds its own, so the rho and delta passes of a pipeline
/// build one each.
pub struct SpatialIndex {
    dim: usize,
    n: usize,
    /// The grid's coordinates in cell order: row `k` is input point
    /// `ids[k]`, and every cell is a contiguous row range. A kd-tree keeps
    /// its coordinates as leaf tiles instead, and this is empty.
    pts: Vec<f64>,
    /// Row -> index of the point in the caller's buffer; kd rows are in
    /// leaf order, each leaf a contiguous range.
    ids: Vec<u32>,
    rep: Rep,
    /// The vector width every kernel of this index runs at.
    isa: Isa,
}

/// A key packed so that integer order is the order of
/// [`crate::dp::denser`]: `rho` first, then id.
#[inline(always)]
fn pack((rho, id): Key) -> u64 {
    u64::from(rho) << 32 | u64::from(id)
}

/// Density keys laid over an index: every row's `(rho, id)` key, and per
/// kd node the largest key below it. A nearest search that accepts only
/// keys at or above a floor skips each subtree whose largest key is under
/// it — a subtree holding no acceptable point can neither move the answer
/// nor add an evaluation.
pub struct DensityKeys {
    /// Per row, packed.
    row: Vec<u64>,
    /// Per kd node, packed; empty on the grid.
    node_max: Vec<u64>,
}

impl DensityKeys {
    /// The filters of a search for keys at least `floor`: whether a kd
    /// subtree can hold one, and a row's candidate id — its key's — if the
    /// row's key is one.
    #[inline(always)]
    fn at_least(
        &self,
        floor: u64,
    ) -> (
        impl Fn(usize) -> bool + '_,
        impl FnMut(usize) -> Option<PointId> + '_,
    ) {
        (
            move |node| self.node_max[node] >= floor,
            move |k| (self.row[k] >= floor).then_some(self.row[k] as PointId),
        )
    }
}

/// The best-first search's pending regions: `(lb2 bits, node)`, smallest
/// first. Bounds are non-negative, so their bits order like their values.
type Heap = BinaryHeap<Reverse<(u64, u32)>>;

impl SpatialIndex {
    /// Builds the index over `flat` (row-major, `dim` coordinates per
    /// point). `dc` informs the grid fast path's cell width; pass the same
    /// cutoff later used in `*_d2(q, dc * dc)` range queries. The kernels
    /// run at the widest vector width the CPU has ([`Isa::detect`]).
    ///
    /// # Panics
    /// Panics if `flat` is empty or not a multiple of `dim`.
    pub fn build(flat: &[f64], dim: usize, dc: f64) -> Self {
        Self::build_on(flat, dim, dc, Isa::detect())
    }

    /// [`Self::build`] for the `isa` build of the kernels.
    pub(crate) fn build_on(flat: &[f64], dim: usize, dc: f64, isa: Isa) -> Self {
        assert!(dim > 0, "dim must be positive");
        assert!(
            !flat.is_empty() && flat.len().is_multiple_of(dim),
            "flat buffer must hold a positive number of {dim}-dim points"
        );
        match Grid::try_build(flat, dim, dc) {
            Some((g, ids)) => Self::assemble(flat, dim, Rep::Grid(g), ids, isa),
            None => Self::build_kd(flat, dim, isa),
        }
    }

    /// The kd-tree representation regardless of dimension.
    fn build_kd(flat: &[f64], dim: usize, isa: Isa) -> Self {
        let (kd, ids) = KdTree::build(flat, dim, isa);
        Self::assemble(flat, dim, Rep::Kd(kd), ids, isa)
    }

    /// Copies the caller's rows into cell order for the grid.
    fn assemble(flat: &[f64], dim: usize, rep: Rep, ids: Vec<u32>, isa: Isa) -> Self {
        let mut pts = Vec::new();
        if let Rep::Grid(_) = rep {
            pts.reserve_exact(flat.len());
            for &i in &ids {
                pts.extend_from_slice(&flat[i as usize * dim..][..dim]);
            }
        }
        SpatialIndex {
            dim,
            n: ids.len(),
            pts,
            ids,
            rep,
            isa,
        }
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Always false — `build` rejects empty buffers.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Whether the grid fast path was selected.
    pub fn is_grid(&self) -> bool {
        matches!(self.rep, Rep::Grid(_))
    }

    /// Grid row `k`.
    #[inline(always)]
    fn row(&self, k: usize) -> &[f64] {
        &self.pts[k * self.dim..][..self.dim]
    }

    /// `rho` of every indexed point at once: for each point, in the
    /// caller's input order, the number of *other* indexed points with
    /// `d2 < dc2` (strict) — `range_count_d2(point, dc2).0 - 1` for each
    /// point, from one traversal. Returns `(counts, distance evals)`.
    ///
    /// Every unordered pair is evaluated at most once, so the evals never
    /// exceed `n (n - 1) / 2`, and at most half of what the per-point
    /// queries evaluate: a pair is evaluated only if neither end's bound
    /// against the other end's leaf box (grid: cell adjacency) settles it,
    /// which is when the per-point walks evaluate it from both ends.
    pub fn self_join_d2(&self, dc2: f64) -> (Vec<u32>, u64) {
        let (count, evals) = self.isa.run(
            #[inline(always)]
            || match &self.rep {
                Rep::Kd(kd) => KdJoin::new(kd, self.dim, dc2).run(),
                Rep::Grid(g) => self.grid_join(g, dc2),
            },
        );
        let mut rho = vec![0u32; self.n];
        for (&id, c) in self.ids.iter().zip(count) {
            rho[id as usize] = c;
        }
        (rho, evals)
    }

    /// Grid self-join: pairs within each cell, then the cell against its
    /// forward neighbours. Per-row counts, and evals.
    #[inline(always)]
    fn grid_join(&self, g: &Grid, dc2: f64) -> (Vec<u32>, u64) {
        debug_assert!(dc2 <= g.w * g.w, "grid built for a smaller radius");
        let mut count = vec![0u32; self.n];
        let mut evals = 0u64;
        let mut pair = |i: usize, j: usize| {
            evals += 1;
            if squared_euclidean(self.row(i), self.row(j)) < dc2 {
                count[i] += 1;
                count[j] += 1;
            }
        };
        for x0 in 0..g.cells[0] {
            for x1 in 0..g.cells[1] {
                for x2 in 0..g.cells[2] {
                    let here = g.cell_rows([x0, x1, x2]);
                    for i in here.clone() {
                        for j in i + 1..here.end {
                            pair(i, j);
                        }
                    }
                    if here.is_empty() {
                        continue;
                    }
                    for off in GRID_FORWARD {
                        let c = [x0 + off[0], x1 + off[1], x2 + off[2]];
                        if (0..3).all(|d| (0..g.cells[d]).contains(&c[d])) {
                            for j in g.cell_rows(c) {
                                for i in here.clone() {
                                    pair(i, j);
                                }
                            }
                        }
                    }
                }
            }
        }
        (count, evals)
    }

    /// Counts points with `d2(q, p) < dc2` (strict), including the query
    /// point itself when it is indexed. Returns `(count, distance evals)`.
    pub fn range_count_d2(&self, q: &[f64], dc2: f64) -> (u32, u64) {
        self.isa.run(
            #[inline(always)]
            || self.range_count(q, dc2),
        )
    }

    #[inline(always)]
    fn range_count(&self, q: &[f64], dc2: f64) -> (u32, u64) {
        let mut count = 0u32;
        let mut evals = 0u64;
        match &self.rep {
            Rep::Grid(g) => {
                debug_assert!(dc2 <= g.w * g.w, "grid built for a smaller radius");
                let c = g.cell_coords(q);
                for r in 0..=1 {
                    g.for_shell(c, r, |rows| {
                        evals += rows.len() as u64;
                        for k in rows {
                            count += u32::from(squared_euclidean(q, self.row(k)) < dc2);
                        }
                    });
                }
            }
            Rep::Kd(kd) => {
                let mut stack = vec![0usize];
                while let Some(node) = stack.pop() {
                    let (lb2, ub2) = box_bounds2(q, q, kd.bounds(self.dim, node));
                    if lb2 >= dc2 {
                        continue; // every d2 in the box is >= lb2 >= dc2
                    }
                    if ub2 < dc2 {
                        count += kd.len[node]; // every d2 is <= ub2 < dc2
                    } else if kd.is_leaf(node) {
                        let d2 = kd.leaf_d2(q, node);
                        let len = kd.len[node] as usize;
                        evals += len as u64;
                        count += d2[..len].iter().map(|&d2| u32::from(d2 < dc2)).sum::<u32>();
                    } else {
                        let (l, r) = kd.children(node);
                        stack.push(r);
                        stack.push(l);
                    }
                }
            }
        }
        (count, evals)
    }

    /// Visits `(point index, d2)` for every indexed point with
    /// `d2(q, p) < dc2` (strict), including the query itself when indexed.
    /// Returns the number of distance evaluations.
    pub fn for_each_within_d2(&self, q: &[f64], dc2: f64, mut visit: impl FnMut(u32, f64)) -> u64 {
        self.isa.run(
            #[inline(always)]
            || self.within(q, dc2, &mut visit),
        )
    }

    #[inline(always)]
    fn within(&self, q: &[f64], dc2: f64, visit: &mut impl FnMut(u32, f64)) -> u64 {
        let mut evals = 0u64;
        match &self.rep {
            Rep::Grid(g) => {
                debug_assert!(dc2 <= g.w * g.w, "grid built for a smaller radius");
                let c = g.cell_coords(q);
                for r in 0..=1 {
                    g.for_shell(c, r, |rows| {
                        evals += rows.len() as u64;
                        for k in rows {
                            let d2 = squared_euclidean(q, self.row(k));
                            if d2 < dc2 {
                                visit(self.ids[k], d2);
                            }
                        }
                    });
                }
            }
            Rep::Kd(kd) => {
                if box_bounds2(q, q, kd.bounds(self.dim, 0)).0 >= dc2 {
                    return 0;
                }
                // Every node on the stack has passed its bound check.
                let mut stack = vec![0usize];
                while let Some(node) = stack.pop() {
                    if kd.is_leaf(node) {
                        let d2 = kd.leaf_d2(q, node);
                        let rows = kd.rows(node);
                        evals += rows.len() as u64;
                        for (&d2, &id) in d2.iter().zip(&self.ids[rows]) {
                            if d2 < dc2 {
                                visit(id, d2);
                            }
                        }
                        continue;
                    }
                    let (l, r) = kd.children(node);
                    let (lb2_l, lb2_r) =
                        point_lb2_pair(q, kd.bounds(self.dim, l), kd.bounds(self.dim, r));
                    if lb2_r < dc2 {
                        stack.push(r);
                    }
                    if lb2_l < dc2 {
                        stack.push(l);
                    }
                }
            }
        }
        evals
    }

    /// Cross-partition range visit: for each query row in `queries`,
    /// visits `(query index, point index, d2)` for indexed points with
    /// `d2 < dc2` (strict). Returns total distance evaluations.
    pub fn cross_range_count_d2(
        &self,
        queries: &[f64],
        dc2: f64,
        mut visit: impl FnMut(u32, u32, f64),
    ) -> u64 {
        let mut evals = 0u64;
        for (qi, q) in queries.chunks_exact(self.dim).enumerate() {
            evals += self.for_each_within_d2(q, dc2, |pi, d2| visit(qi as u32, pi, d2));
        }
        evals
    }

    /// Lays density keys over this index; `key(i)` is the key of input
    /// point `i`. `O(n + nodes)`.
    pub fn density_keys(&self, key: impl Fn(u32) -> Key) -> DensityKeys {
        let row: Vec<u64> = self.ids.iter().map(|&i| pack(key(i))).collect();
        let mut node_max = Vec::new();
        if let Rep::Kd(kd) = &self.rep {
            node_max = vec![0; kd.len.len()];
            // Reverse preorder puts every child before its parent.
            for node in (0..node_max.len()).rev() {
                node_max[node] = if kd.is_leaf(node) {
                    row[kd.rows(node)].iter().copied().max().unwrap_or(0)
                } else {
                    let (l, r) = kd.children(node);
                    node_max[l].max(node_max[r])
                };
            }
        }
        DensityKeys { row, node_max }
    }

    /// Best-first nearest-acceptable-point search in the *metric* domain
    /// (`d = d2.sqrt()`), matching the pipelines' delta kernels.
    ///
    /// `accept` maps an indexed point (by its index in the buffer the
    /// index was built over) to `Some(candidate id)` when it may anchor
    /// the query (e.g. it is denser); it must be a function of its
    /// argument. `init` seeds `(distance, candidate id)` — pass
    /// `(f64::INFINITY, NO_UPSLOPE)` for an unseeded search. Candidates
    /// farther than `cap` are rejected outright. Tie-break: equal distance
    /// resolves to the smaller candidate id. An opaque filter lets the
    /// search skip no subtree; under [`DensityKeys`] the same search can,
    /// which is how `delta` runs it. Returns `((best distance, best id),
    /// distance evals)`.
    pub fn nearest_denser_d2(
        &self,
        q: &[f64],
        init: (f64, PointId),
        cap: f64,
        mut accept: impl FnMut(u32) -> Option<PointId>,
    ) -> ((f64, PointId), u64) {
        let filter = (|_| true, |k: usize| accept(self.ids[k]));
        self.nearest((q, true), (init, cap), filter, &mut Heap::new())
    }

    /// The serve probe's search: the nearest point, comparing raw squared
    /// distances, whose key under `keys` is at least `floor` — pass
    /// `(rho, 0)` for "at least as dense as `rho`" and `(0, 0)` for any
    /// point. The candidate id is the key's. Unseeded, uncapped. Returns
    /// `((best d2, best id), distance evals)`.
    pub fn nearest_by_d2(
        &self,
        q: &[f64],
        keys: &DensityKeys,
        floor: Key,
    ) -> ((f64, PointId), u64) {
        let start = ((f64::INFINITY, crate::dp::NO_UPSLOPE), f64::INFINITY);
        let filter = keys.at_least(pack(floor));
        self.nearest((q, false), start, filter, &mut Heap::new())
    }

    /// The one nearest search, on this index's vector width: the row
    /// nearest `q` that `accept` maps to a candidate id, from `init`, no
    /// farther than `cap`, compared on `d2.sqrt()` (`sqrt_domain`, the
    /// pipelines) or on raw `d2` (serve). `admits(node)` says whether a
    /// kd subtree can hold an accepted row.
    fn nearest(
        &self,
        query: (&[f64], bool),
        start: ((f64, PointId), f64),
        filter: (impl Fn(usize) -> bool, impl FnMut(usize) -> Option<PointId>),
        heap: &mut Heap,
    ) -> ((f64, PointId), u64) {
        self.isa.run(
            #[inline(always)]
            || self.nearest_body(query, start, filter, heap),
        )
    }

    #[inline(always)]
    fn nearest_body(
        &self,
        (q, sqrt_domain): (&[f64], bool),
        (init, cap): ((f64, PointId), f64),
        (admits, mut accept): (impl Fn(usize) -> bool, impl FnMut(usize) -> Option<PointId>),
        heap: &mut Heap,
    ) -> ((f64, PointId), u64) {
        let (mut best, mut best_id) = init;
        let mut evals = 0u64;
        let key_of = |d2: f64| if sqrt_domain { d2.sqrt() } else { d2 };
        // Offers candidate `cand` at squared distance `d2`.
        let mut offer = |d2: f64, cand: PointId, best: &mut f64, best_id: &mut PointId| {
            evals += 1;
            let key = key_of(d2);
            if key <= cap && (key < *best || (key == *best && cand < *best_id)) {
                *best = key;
                *best_id = cand;
            }
        };
        match &self.rep {
            Rep::Grid(g) => {
                let mut scan = |rows: Range<usize>, best: &mut f64, best_id: &mut PointId| {
                    for k in rows {
                        if let Some(cand) = accept(k) {
                            offer(squared_euclidean(q, self.row(k)), cand, best, best_id);
                        }
                    }
                };
                let c = g.cell_coords(q);
                // First shell that can hold a grid cell. Starting there
                // skips the empty shells below it, so a query far outside
                // the grid costs O(grid diameter) shells, never O(distance).
                let r0 = g.dist_to_box(c);
                if r0 > GRID_FAR_QUERY_CELLS {
                    // So far out that cell arithmetic may have saturated
                    // (e.g. a cast-clamped coordinate): shell geometry is
                    // no longer trustworthy, and a linear scan costs no
                    // more than the blocked kernel for the same query.
                    scan(0..self.n, &mut best, &mut best_id);
                } else {
                    // Last shell holding any grid cell: the farthest corner.
                    let r_max = (0..self.dim)
                        .map(|d| c[d].max(g.cells[d] - 1 - c[d]))
                        .max()
                        .unwrap_or(0)
                        .max(r0);
                    for r in r0..=r_max {
                        if r >= 2 {
                            // Every point in shell r is at least (r-1)*w away
                            // (shrunk for rounding); equal bounds still scan so
                            // ties keep their smaller-id resolution.
                            let lb = (r - 1) as f64 * g.w * GRID_LB_SLACK;
                            let key_lb = if sqrt_domain { lb } else { lb * lb };
                            if key_lb > best.min(cap) {
                                break;
                            }
                        }
                        g.for_shell(c, r, |rows| scan(rows, &mut best, &mut best_id));
                    }
                }
            }
            Rep::Kd(kd) => {
                if !admits(0) {
                    return ((best, best_id), 0);
                }
                heap.clear();
                let root_lb2 = box_bounds2(q, q, kd.bounds(self.dim, 0)).0;
                heap.push(Reverse((root_lb2.to_bits(), 0)));
                while let Some(Reverse((lb_bits, node))) = heap.pop() {
                    // Best-first: every remaining region is at least this
                    // far. Strict >, so equal-distance smaller ids survive.
                    if key_of(f64::from_bits(lb_bits)) > best.min(cap) {
                        break;
                    }
                    let node = node as usize;
                    if !kd.is_leaf(node) {
                        // Pops come in (lb2, node) order whichever nodes are
                        // pushed, so pushing a front instead of two children
                        // scans the same leaves; so does leaving out a region
                        // already beyond the best, which would end the search.
                        let (front, cols) = kd.front(self.dim, node);
                        for (&lb2, &v) in front_lb2(q, cols).iter().zip(front) {
                            let beyond = key_of(lb2) > best.min(cap);
                            if !beyond && admits(v as usize) {
                                heap.push(Reverse((lb2.to_bits(), v)));
                            }
                        }
                        continue;
                    }
                    let rows = kd.rows(node);
                    let mut cands = [0 as PointId; LANES];
                    let mut mask = 0u32;
                    // Branch-free: acceptance is a coin flip to a predictor.
                    for (lane, k) in rows.enumerate() {
                        let cand = accept(k);
                        cands[lane] = cand.unwrap_or(0);
                        mask |= u32::from(cand.is_some()) << lane;
                    }
                    if mask == 0 {
                        continue;
                    }
                    let d2 = kd.leaf_d2(q, node);
                    for (lane, (&d2, &cand)) in d2.iter().zip(&cands).enumerate() {
                        if mask >> lane & 1 != 0 {
                            offer(d2, cand, &mut best, &mut best_id);
                        }
                    }
                }
            }
        }
        ((best, best_id), evals)
    }

    /// Distance from `q` to the farthest indexed point (0.0 for a
    /// single-point index queried with its own point) — the absolute
    /// peak's delta. Computed as `max(d2).sqrt()`, which equals the max of
    /// per-pair `d2.sqrt()` because sqrt is monotone and correctly
    /// rounded. Returns `(distance, distance evals)`.
    pub fn max_distance(&self, q: &[f64]) -> (f64, u64) {
        self.isa.run(
            #[inline(always)]
            || self.farthest(q),
        )
    }

    #[inline(always)]
    fn farthest(&self, q: &[f64]) -> (f64, u64) {
        let mut best = 0.0f64;
        let mut evals = 0u64;
        match &self.rep {
            Rep::Grid(_) => {
                evals = self.n as u64;
                for k in 0..self.n {
                    best = max_or(squared_euclidean(q, self.row(k)), best);
                }
            }
            Rep::Kd(kd) => {
                // Max-heap on the boxes' upper bounds (non-negative, so
                // their bit patterns order like the values).
                let entry = |node: usize| {
                    let ub2 = box_bounds2(q, q, kd.bounds(self.dim, node)).1;
                    (ub2.to_bits(), node as u32)
                };
                let mut heap = BinaryHeap::new();
                heap.push(entry(0));
                while let Some((ub_bits, node)) = heap.pop() {
                    if f64::from_bits(ub_bits) <= best {
                        break; // nothing left can exceed the current max
                    }
                    let node = node as usize;
                    if kd.is_leaf(node) {
                        let d2 = kd.leaf_d2(q, node);
                        evals += u64::from(kd.len[node]);
                        for &d2 in &d2[..kd.len[node] as usize] {
                            best = max_or(d2, best);
                        }
                    } else {
                        let (l, r) = kd.children(node);
                        heap.push(entry(l));
                        heap.push(entry(r));
                    }
                }
            }
        }
        (best.sqrt(), evals)
    }
}

/// Repeated nearest-denser searches of one index under one set of
/// density keys, sharing one heap: what `delta` runs per partition.
pub(crate) struct DenserSearch<'a> {
    index: &'a SpatialIndex,
    keys: DensityKeys,
    heap: Heap,
}

impl<'a> DenserSearch<'a> {
    /// Searches of `index`, `key(i)` being input point `i`'s key.
    pub(crate) fn new(index: &'a SpatialIndex, key: impl Fn(u32) -> Key) -> Self {
        DenserSearch {
            keys: index.density_keys(key),
            index,
            heap: Heap::new(),
        }
    }

    /// [`SpatialIndex::nearest_denser_d2`] with `accept` = "denser than
    /// `qkey`", the candidate id being the key's.
    pub(crate) fn nearest(
        &mut self,
        q: &[f64],
        qkey: Key,
        init: (f64, PointId),
        cap: f64,
    ) -> ((f64, PointId), u64) {
        // Denser is a strictly greater key; the largest key has none.
        let Some(floor) = pack(qkey).checked_add(1) else {
            return (init, 0);
        };
        let filter = self.keys.at_least(floor);
        self.index
            .nearest((q, true), (init, cap), filter, &mut self.heap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::{for_each_cross_d2, for_each_pair_d2, transpose_tile};
    use crate::dp::{denser, NO_UPSLOPE};
    use proptest::prelude::*;

    /// Deterministic pseudo-random flat buffer: `n` points of `dim` dims
    /// in a few far-apart blobs, so pruning actually engages.
    fn blobs(n: usize, dim: usize, seed: u64) -> Vec<f64> {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut flat = Vec::with_capacity(n * dim);
        for i in 0..n {
            let center = (i % 4) as f64 * 25.0;
            for d in 0..dim {
                let off = if d == 0 { center } else { 0.0 };
                flat.push(off + next() * 4.0 - 2.0);
            }
        }
        flat
    }

    fn brute_rho(flat: &[f64], dim: usize, dc2: f64) -> Vec<u32> {
        let n = flat.len() / dim;
        let mut rho = vec![0u32; n];
        for_each_pair_d2(flat, dim, |i, j, d2| {
            if d2 < dc2 {
                rho[i] += 1;
                rho[j] += 1;
            }
        });
        rho
    }

    #[test]
    fn kd_range_count_matches_blocked_pairs() {
        for dim in [1, 2, 4, 8] {
            let flat = blobs(300, dim, 42);
            let dc = 1.5;
            // The grid would take dim <= 3 here: force the kd-tree.
            let idx = SpatialIndex::build_kd(&flat, dim, Isa::detect());
            let rho = brute_rho(&flat, dim, dc * dc);
            for (i, q) in flat.chunks_exact(dim).enumerate() {
                let (count, _) = idx.range_count_d2(q, dc * dc);
                assert_eq!(count - 1, rho[i], "dim={dim} i={i}");
            }
        }
    }

    /// `blobs` with every fifth point a copy of an earlier one.
    fn blobs_with_twins(n: usize, dim: usize, seed: u64) -> Vec<f64> {
        let mut flat = blobs(n, dim, seed);
        for i in (4..n).step_by(5) {
            let (head, tail) = flat.split_at_mut(i * dim);
            tail[..dim].copy_from_slice(&head[(i / 2) * dim..][..dim]);
        }
        flat
    }

    /// Radii from below the smallest positive pair distance to above the
    /// diameter, through a few quantiles of the pair distances.
    fn radii(flat: &[f64], dim: usize) -> Vec<f64> {
        let mut d = Vec::new();
        for_each_pair_d2(flat, dim, |_, _, d2| d.push(d2.sqrt()));
        d.sort_by(f64::total_cmp);
        let gap = d.iter().copied().find(|&x| x > 0.0).unwrap_or(1.0);
        let at = |f: f64| d[((d.len() - 1) as f64 * f) as usize];
        // Twins put zeros among the low quantiles; d_c is positive.
        [gap * 0.5, at(0.01), at(0.1), at(0.5), at(1.0) * 1.01]
            .map(|r| r.max(gap * 0.5))
            .to_vec()
    }

    /// (i) + (ii): the self-join's counts are the per-query counts less
    /// the self-match and the blocked rho; it evaluates each unordered
    /// pair at most once and at most half as often as the per-query walks.
    fn assert_self_join(idx: &SpatialIndex, flat: &[f64], dim: usize, dc: f64, tag: &str) -> u64 {
        let dc2 = dc * dc;
        let n = flat.len() / dim;
        let (rho, join_evals) = idx.self_join_d2(dc2);
        assert_eq!(rho, brute_rho(flat, dim, dc2), "{tag}: vs blocked");
        let mut query_evals = 0u64;
        for (i, q) in flat.chunks_exact(dim).enumerate() {
            let (count, e) = idx.range_count_d2(q, dc2);
            query_evals += e;
            assert_eq!(rho[i], count - 1, "{tag}: vs range_count i={i}");
        }
        assert!(
            2 * join_evals <= query_evals,
            "{tag}: join {join_evals} vs per-query {query_evals}"
        );
        assert!(
            join_evals <= (n * (n - 1) / 2) as u64,
            "{tag}: {join_evals}"
        );
        join_evals
    }

    #[test]
    fn self_join_equals_per_query_counts_and_halves_their_evals() {
        for dim in [1, 2, 3, 4, 8, 32, 74] {
            // From a single pair to several tree levels, on and off the
            // leaf-size boundaries.
            for n in [2, 3, 16, 17, 33, 100, 257, 700] {
                let flat = blobs_with_twins(n, dim, 17 + n as u64);
                for dc in radii(&flat, dim) {
                    let tag = format!("dim={dim} n={n} dc={dc}");
                    let idx = SpatialIndex::build(&flat, dim, dc);
                    assert_self_join(&idx, &flat, dim, dc, &tag);
                    if idx.is_grid() {
                        let kd = SpatialIndex::build_kd(&flat, dim, Isa::detect());
                        assert_self_join(&kd, &flat, dim, dc, &format!("{tag} kd"));
                    }
                }
                // Above the root box's diagonal (at most sqrt(dim) data
                // diameters) the root pair is counted wholesale.
                let kd = SpatialIndex::build_kd(&flat, dim, Isa::detect());
                let all = radii(&flat, dim)[4] * (dim as f64).sqrt();
                assert_eq!(assert_self_join(&kd, &flat, dim, all, "all"), 0);
                assert_eq!(kd.self_join_d2(all * all).0, vec![n as u32 - 1; n]);
            }
        }
        assert!(SpatialIndex::build(&blobs(100, 3, 5), 3, 1.0).is_grid());
    }

    /// The bounds as they were before they went branch-free and fused.
    fn branchy_lb2(b: &[f64], q: &[f64]) -> f64 {
        let dim = q.len();
        let mut acc = 0.0;
        for (d, &x) in q.iter().enumerate() {
            let t = if x < b[d] {
                b[d] - x
            } else if x > b[dim + d] {
                x - b[dim + d]
            } else {
                0.0
            };
            acc += t * t;
        }
        acc
    }

    fn reference_ub2(b: &[f64], q: &[f64]) -> f64 {
        let dim = q.len();
        let mut acc = 0.0;
        for (d, &x) in q.iter().enumerate() {
            let t = (x - b[d]).abs().max((b[dim + d] - x).abs());
            acc += t * t;
        }
        acc
    }

    /// (iii): every bound routine equals the branchy reference bit for
    /// bit, hostile coordinates included.
    #[test]
    fn branch_free_bounds_equal_the_branchy_reference_bitwise() {
        let pool = [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -0.0,
            0.0,
            1.5,
            -2.25,
            1e300,
            -1e300,
            3.0,
            f64::MIN_POSITIVE,
        ];
        // Every (lo, hi) a build can produce: ordered, or touched by NaN.
        let mut boxes = Vec::new();
        for lo in pool {
            for hi in pool {
                if lo <= hi || lo.is_nan() || hi.is_nan() {
                    boxes.push((lo, hi));
                }
            }
        }
        let dim = 3;
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut pick = |m: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % m as u64) as usize
        };
        for round in 0..4000 {
            let mut b = vec![0.0; 2 * dim];
            let mut b2 = vec![0.0; 2 * dim];
            for d in 0..dim {
                // The first rounds walk one dimension through every box.
                let k = if d == 0 && round < boxes.len() {
                    round
                } else {
                    pick(boxes.len())
                };
                (b[d], b[dim + d]) = boxes[k];
                (b2[d], b2[dim + d]) = boxes[pick(boxes.len())];
            }
            let rows: Vec<f64> = (0..LANES * dim).map(|_| pool[pick(pool.len())]).collect();
            let mut cols = vec![[0.0; LANES]; dim];
            transpose_tile(&rows, dim, 0, &mut cols);
            let (lanes_lb2, lanes_ub2) = lanes_bounds2(&cols, &b);
            for (lane, q) in rows.chunks_exact(dim).enumerate() {
                let want = (branchy_lb2(&b, q).to_bits(), reference_ub2(&b, q).to_bits());
                let (lb2, ub2) = box_bounds2(q, q, &b);
                assert_eq!((lb2.to_bits(), ub2.to_bits()), want, "q={q:?} b={b:?}");
                let (l2, r2) = point_lb2_pair(q, &b, &b2);
                assert_eq!(l2.to_bits(), want.0, "q={q:?} b={b:?}");
                assert_eq!(
                    r2.to_bits(),
                    branchy_lb2(&b2, q).to_bits(),
                    "q={q:?} b={b2:?}"
                );
                let got = (lanes_lb2[lane].to_bits(), lanes_ub2[lane].to_bits());
                assert_eq!(got, want, "lane={lane} q={q:?} b={b:?}");
                // A front holding both boxes, the other lanes empty.
                let mut front = vec![[0.0; FRONT]; 2 * dim];
                for (slot, col) in front.iter_mut().enumerate() {
                    (col[0], col[1]) = (b[slot], b2[slot]);
                }
                let lb2 = front_lb2(q, &front);
                assert_eq!(lb2[0].to_bits(), want.0, "front q={q:?} b={b:?}");
                assert_eq!(lb2[1].to_bits(), r2.to_bits(), "front q={q:?} b={b2:?}");
            }
        }
    }

    /// Box-to-box bounds hold in floating point for every pair they cover.
    #[test]
    fn box_box_bounds_bracket_every_pair() {
        for dim in [1, 2, 5, 74] {
            let flat = blobs(64, dim, 3);
            let kd = SpatialIndex::build_kd(&flat, dim, Isa::detect());
            let Rep::Kd(tree) = &kd.rep else {
                unreachable!()
            };
            let nodes = tree.len.len();
            for a in 0..nodes {
                for b in 0..nodes {
                    let (lo, hi) = tree.bounds(dim, a).split_at(dim);
                    let (lb2, ub2) = box_bounds2(lo, hi, tree.bounds(dim, b));
                    for i in tree.rows(a) {
                        for j in tree.rows(b) {
                            let row = |k: usize| &flat[kd.ids[k] as usize * dim..][..dim];
                            let d2 = squared_euclidean(row(i), row(j));
                            assert!(lb2 <= d2 && d2 <= ub2, "dim={dim} nodes {a},{b}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn grid_is_selected_for_low_dim_and_matches() {
        for dim in [1, 2, 3] {
            let flat = blobs(400, dim, 7);
            let dc = 1.0;
            let idx = SpatialIndex::build(&flat, dim, dc);
            assert!(idx.is_grid(), "dim={dim} should take the grid path");
            let rho = brute_rho(&flat, dim, dc * dc);
            for i in 0..400u32 {
                let (count, _) = idx.range_count_d2(&flat[i as usize * dim..][..dim], dc * dc);
                assert_eq!(count - 1, rho[i as usize], "dim={dim} i={i}");
            }
        }
    }

    #[test]
    fn huge_span_falls_back_to_kd() {
        // Span / d_c is enormous: the grid would need too many cells.
        let flat = vec![0.0, 1e9];
        let idx = SpatialIndex::build(&flat, 1, 1e-3);
        assert!(!idx.is_grid());
        assert_eq!(idx.range_count_d2(&[0.0], 1e-6).0, 1);
    }

    #[test]
    fn within_visits_match_and_count_evals() {
        let flat = blobs(250, 2, 99);
        let dc = 1.2;
        let idx = SpatialIndex::build(&flat, 2, dc);
        let dc2 = dc * dc;
        for i in (0..250u32).step_by(17) {
            let q = &flat[i as usize * 2..][..2];
            let mut seen: Vec<(u32, u64)> = Vec::new();
            let evals = idx.for_each_within_d2(q, dc2, |pi, d2| seen.push((pi, d2.to_bits())));
            assert!(evals >= seen.len() as u64);
            let mut brute: Vec<(u32, u64)> = (0..250u32)
                .filter_map(|j| {
                    let d2 = squared_euclidean(q, &flat[j as usize * 2..][..2]);
                    (d2 < dc2).then_some((j, d2.to_bits()))
                })
                .collect();
            seen.sort_unstable();
            brute.sort_unstable();
            assert_eq!(seen, brute, "i={i}");
        }
    }

    #[test]
    fn cross_range_matches_blocked_cross() {
        let own = blobs(150, 3, 5);
        let other = blobs(60, 3, 6);
        let dc = 1.1;
        let dc2 = dc * dc;
        let idx = SpatialIndex::build(&own, 3, dc);
        let mut got: Vec<(u32, u32, u64)> = Vec::new();
        idx.cross_range_count_d2(&other, dc2, |qi, pi, d2| got.push((qi, pi, d2.to_bits())));
        let mut want: Vec<(u32, u32, u64)> = Vec::new();
        for_each_cross_d2(&other, &own, 3, |q, i, d2| {
            if d2 < dc2 {
                want.push((q as u32, i as u32, d2.to_bits()));
            }
        });
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    /// Brute-force nearest-denser with the pipelines' exact tie rules.
    fn brute_nearest(
        flat: &[f64],
        dim: usize,
        rho: &[u32],
        i: u32,
        init: (f64, PointId),
        cap: f64,
    ) -> (f64, PointId) {
        let (mut best, mut best_id) = init;
        let q = &flat[i as usize * dim..][..dim];
        for j in 0..(flat.len() / dim) as u32 {
            if j == i || !denser(rho[j as usize], j, rho[i as usize], i) {
                continue;
            }
            let d = squared_euclidean(q, &flat[j as usize * dim..][..dim]).sqrt();
            if d <= cap && (d < best || (d == best && j < best_id)) {
                best = d;
                best_id = j;
            }
        }
        (best, best_id)
    }

    #[test]
    fn nearest_denser_matches_brute_force_with_ties() {
        for dim in [1, 2, 5] {
            let flat = blobs(220, dim, 31);
            let dc = 1.3;
            let idx = SpatialIndex::build(&flat, dim, dc);
            let rho: Vec<u32> = brute_rho(&flat, dim, dc * dc);
            for i in 0..220u32 {
                let q = &flat[i as usize * dim..][..dim];
                let (got, _) =
                    idx.nearest_denser_d2(q, (f64::INFINITY, NO_UPSLOPE), f64::INFINITY, |pi| {
                        (pi != i && denser(rho[pi as usize], pi, rho[i as usize], i)).then_some(pi)
                    });
                let want = brute_nearest(
                    &flat,
                    dim,
                    &rho,
                    i,
                    (f64::INFINITY, NO_UPSLOPE),
                    f64::INFINITY,
                );
                assert_eq!(got.0.to_bits(), want.0.to_bits(), "dim={dim} i={i}");
                assert_eq!(got.1, want.1, "dim={dim} i={i}");
            }
        }
    }

    #[test]
    fn nearest_respects_cap_and_seed() {
        let flat = blobs(180, 2, 77);
        let dc = 1.0;
        let idx = SpatialIndex::build(&flat, 2, dc);
        let rho = brute_rho(&flat, 2, dc * dc);
        for i in (0..180u32).step_by(7) {
            let q = &flat[i as usize * 2..][..2];
            let seed_j = (i + 1) % 180;
            let seed_d = squared_euclidean(q, &flat[seed_j as usize * 2..][..2]).sqrt();
            for cap in [0.5, 2.0, f64::INFINITY] {
                let init = if seed_d <= cap {
                    (seed_d, seed_j)
                } else {
                    (f64::INFINITY, NO_UPSLOPE)
                };
                let (got, _) = idx.nearest_denser_d2(q, init, cap, |pi| {
                    (pi != i && denser(rho[pi as usize], pi, rho[i as usize], i)).then_some(pi)
                });
                let want = brute_nearest(&flat, 2, &rho, i, init, cap);
                assert_eq!(got, want, "i={i} cap={cap}");
            }
        }
    }

    /// Regression for the grid nearest-search availability hang: queries
    /// far outside the grid box (including coordinates that saturate the
    /// f64 -> i64 cell cast) must terminate promptly and still match the
    /// exhaustive scan bit-for-bit; NaN queries must terminate with "no
    /// candidate" instead of looping or panicking.
    #[test]
    fn grid_nearest_handles_far_and_nonfinite_queries() {
        let flat = blobs(400, 2, 7);
        let dc = 1.0;
        let idx = SpatialIndex::build(&flat, 2, dc);
        assert!(idx.is_grid());
        let brute = |q: &[f64]| {
            let mut best = (f64::INFINITY, NO_UPSLOPE);
            for j in 0..400u32 {
                let d2 = squared_euclidean(q, &flat[j as usize * 2..][..2]);
                if d2 < best.0 || (d2 == best.0 && j < best.1) {
                    best = (d2, j);
                }
            }
            best
        };
        let keys = idx.density_keys(|i| (0, i));
        for q in [
            [1e9, 1e9],      // bounded shell walk from the box distance
            [-1e9, 3.0],     // far in one dimension only
            [1e300, -1e300], // saturates the cell cast: linear fallback
            [f64::MAX, f64::MAX],
        ] {
            let ((d2, id), _) = idx.nearest_by_d2(&q, &keys, (0, 0));
            let want = brute(&q);
            assert_eq!(d2.to_bits(), want.0.to_bits(), "q={q:?}");
            assert_eq!(id, want.1, "q={q:?}");
            assert_eq!(idx.range_count_d2(&q, dc * dc), (0, 0), "q={q:?}");
        }
        let ((d, id), _) = idx.nearest_by_d2(&[f64::NAN, 0.5], &keys, (0, 0));
        assert!(d.is_infinite());
        assert_eq!(id, NO_UPSLOPE);
        assert_eq!(idx.range_count_d2(&[f64::NAN, 0.5], dc * dc).0, 0);
    }

    /// Shells from the box distance to the farthest corner visit every
    /// point exactly once, for query cells inside and outside the grid —
    /// the partition invariant the nearest search's enumeration relies on.
    #[test]
    fn for_shell_partitions_entries_by_chebyshev_distance() {
        let flat = blobs(300, 2, 21);
        let idx = SpatialIndex::build(&flat, 2, 1.0);
        let Rep::Grid(g) = &idx.rep else {
            panic!("expected the grid representation")
        };
        for c in [
            [3i64, 5, 0],
            [0, 0, 0],
            [-4, 2, 0],
            [7, -9, 0],
            [100, 1000, 0],
        ] {
            let r_max = (0..2)
                .map(|d| c[d].max(g.cells[d] - 1 - c[d]))
                .max()
                .unwrap()
                .max(g.dist_to_box(c));
            let mut visited = 0usize;
            // From 0, not dist_to_box: shells below the box distance must
            // visit nothing (their clamped windows are empty).
            for r in 0..=r_max {
                g.for_shell(c, r, |pts| visited += pts.len());
            }
            assert_eq!(visited, 300, "c={c:?}");
        }
        // Saturated cells never reach in-grid coordinates.
        assert!(g.dist_to_box([i64::MAX, i64::MIN, 0]) > GRID_FAR_QUERY_CELLS);
        for r in [0, 1, i64::MAX] {
            g.for_shell([i64::MAX, i64::MIN, 0], r, |_| {
                panic!("saturated cell visited the grid")
            });
        }
        // Forward offsets: one of each opposite pair, none the cell itself.
        for off in GRID_FORWARD {
            assert!(off > [0, 0, 0] && off.iter().all(|o| o.abs() <= 1));
            assert!(!GRID_FORWARD.contains(&off.map(|o| -o)));
        }
    }

    #[test]
    fn max_distance_matches_brute_force_bitwise() {
        for dim in [1, 2, 4] {
            let flat = blobs(200, dim, 13);
            let idx = SpatialIndex::build(&flat, dim, 0.8);
            for i in (0..200u32).step_by(11) {
                let q = &flat[i as usize * dim..][..dim];
                let (got, _) = idx.max_distance(q);
                let want = (0..200u32)
                    .map(|j| squared_euclidean(q, &flat[j as usize * dim..][..dim]))
                    .fold(0.0f64, f64::max)
                    .sqrt();
                assert_eq!(got.to_bits(), want.to_bits(), "dim={dim} i={i}");
            }
        }
    }

    /// Every search answers with the same bits and evaluation counts on
    /// the detected vector width as on the baseline one, and the keyed
    /// search answers the same as the filtered one.
    #[test]
    fn searches_are_width_invariant() {
        let isa = Isa::detect();
        if !isa.is_avx2() {
            eprintln!("no AVX2 on this host: the width comparison is skipped");
        }
        for dim in [1, 2, 3, 4, 8, 33, 74] {
            for n in [16, 17, 300] {
                let flat = blobs_with_twins(n, dim, 5 + n as u64);
                let dc = radii(&flat, dim)[2];
                let rho = brute_rho(&flat, dim, dc * dc);
                let key = |i: u32| (rho[i as usize], i);
                let run = |isa| {
                    let idx = SpatialIndex::build_on(&flat, dim, dc, isa);
                    let keys = idx.density_keys(key);
                    let mut search = DenserSearch::new(&idx, key);
                    let mut out = vec![idx
                        .self_join_d2(dc * dc)
                        .0
                        .iter()
                        .map(|&c| u64::from(c))
                        .collect()];
                    for (i, p) in flat.chunks_exact(dim).enumerate() {
                        let i = i as u32;
                        // The point itself, and a query off the data.
                        let off: Vec<f64> = p.iter().map(|x| x + 0.37).collect();
                        for q in [p, &off[..]] {
                            let (count, e) = idx.range_count_d2(q, dc * dc);
                            let mut within = vec![u64::from(count), e];
                            let e = idx.for_each_within_d2(q, dc * dc, |j, d2| {
                                within.extend([u64::from(j), d2.to_bits()]);
                            });
                            within.push(e);
                            let fresh = (f64::INFINITY, NO_UPSLOPE);
                            let denser = |j: u32| denser(rho[j as usize], j, rho[i as usize], i);
                            let ((d, u), e) = idx.nearest_denser_d2(q, fresh, f64::INFINITY, |j| {
                                denser(j).then_some(j)
                            });
                            let keyed = search.nearest(q, key(i), fresh, f64::INFINITY);
                            assert_eq!(keyed, ((d, u), e), "dim={dim} n={n} i={i}");
                            let ((d2, v), f) = idx.nearest_by_d2(q, &keys, (rho[i as usize], 0));
                            let (far, g) = idx.max_distance(q);
                            within.extend([d.to_bits(), u64::from(u), e, d2.to_bits()]);
                            within.extend([u64::from(v), f, far.to_bits(), g]);
                            out.push(within);
                        }
                    }
                    out
                };
                let got = run(isa);
                if isa.is_avx2() {
                    assert_eq!(got, run(Isa::BASELINE), "dim={dim} n={n}");
                }
            }
        }
    }

    #[test]
    fn single_point_index() {
        let flat = vec![1.0, 2.0];
        let idx = SpatialIndex::build(&flat, 2, 1.0);
        assert_eq!(idx.len(), 1);
        assert_eq!(idx.range_count_d2(&[1.0, 2.0], 1.0), (1, 1));
        let ((d, u), _) = idx.nearest_denser_d2(
            &[1.0, 2.0],
            (f64::INFINITY, NO_UPSLOPE),
            f64::INFINITY,
            |_| None,
        );
        assert_eq!((d, u), (f64::INFINITY, NO_UPSLOPE));
        assert_eq!(idx.max_distance(&[1.0, 2.0]).0, 0.0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// rho counts and delta/upslope chains from the index match the
        /// blocked kernels bit-for-bit on arbitrary data.
        #[test]
        fn index_kernels_equal_blocked_kernels(
            dim in 1usize..4,
            n in 2usize..60,
            coords in proptest::collection::vec(-30.0f64..30.0, 240),
            dc in 0.4f64..8.0,
        ) {
            let flat = &coords[..n * dim];
            let dc2 = dc * dc;
            let idx = SpatialIndex::build(flat, dim, dc);
            let rho = brute_rho(flat, dim, dc2);
            for i in 0..n as u32 {
                let q = &flat[i as usize * dim..][..dim];
                let (count, _) = idx.range_count_d2(q, dc2);
                prop_assert_eq!(count.saturating_sub(1), rho[i as usize]);
                let (got, _) = idx.nearest_denser_d2(
                    q,
                    (f64::INFINITY, NO_UPSLOPE),
                    f64::INFINITY,
                    |pi| (pi != i && denser(rho[pi as usize], pi, rho[i as usize], i))
                        .then_some(pi),
                );
                let want = brute_nearest(flat, dim, &rho, i, (f64::INFINITY, NO_UPSLOPE), f64::INFINITY);
                prop_assert_eq!(got.0.to_bits(), want.0.to_bits());
                prop_assert_eq!(got.1, want.1);
            }
        }
    }
}
