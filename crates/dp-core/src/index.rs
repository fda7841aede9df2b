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
//!   — partner contributions (`basic`, `eddpc`) and the serve-side exact
//!   recount;
//! * `pairs_across_d2` — the halo passes' near pairs whose ends carry
//!   different labels, skipping every kd subtree uniform in the query's
//!   own label;
//! * `DenserSearch` — `delta` as a best-first nearest-neighbour search
//!   among the points denser than the query, skipping every subtree whose
//!   densest [`DensityKeys`] entry is not; [`SpatialIndex::nearest_by_d2`]
//!   is the serve probe's form of it, and
//!   [`SpatialIndex::nearest_denser_d2`] the same search under a
//!   caller-supplied filter;
//! * [`SpatialIndex::max_distance`] — the absolute-peak `delta`
//!   (distance to the farthest point).
//!
//! One kd-tree backs the API in every dimension. It keeps its own copy of
//! the coordinates in *leaf order* (each leaf a contiguous row range,
//! stored as a pre-transposed tile), so scans stream memory instead of
//! chasing a permutation; point indices are translated back to the
//! caller's input order at the API edge. Every kernel runs on the vector
//! width the index was built for ([`crate::simd`]), with the same bits.
//!
//! ## Lanes computed, lanes counted
//!
//! A tile computes one lane per row of a leaf, and the kernels pay only
//! for the lanes they read where that is cheaper than computing the rest:
//!
//! * The self-join runs a leaf's query rows two at a time against the
//!   other leaf's tile, read in place, so one sweep of that tile serves
//!   both. Before any row, a box-level bound (`flag_bounds2`) can prove
//!   that no point of the leaf is within `d_c` of all of the other box,
//!   and the flag pass then skips its upper bounds, or that none is out
//!   of range of all of it either, and the pass is skipped.
//! * A `delta` pass first orders every leaf's rows by descending density
//!   key, in place in the one tile buffer
//!   (`SpatialIndex::order_leaves_by`). The rows a search accepts are
//!   then a prefix of each leaf, and a leaf scan computes only the lane
//!   groups through its last accepted row (from `PREFIX_MIN_DIM`
//!   dimensions; narrower tiles cost less whole).
//! * The search compares squared distances against a bracket of its
//!   limit (`Limit`) and takes a `sqrt` only where the bracket cannot
//!   decide: pops, scans and offers decide exactly as on the roots, and a
//!   push may only be kept where the roots would drop it.
//!
//! [`Work`] counts the traversal (node pairs, leaf pairs, pops, fronts,
//! leaf scans), which none of this moves, beside the lanes computed
//! against the lanes counted.
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
//!   pair (`distance::accumulate_tile_d2`), each lane in [`squared_euclidean`]'s
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
//!
//! [`squared_euclidean`]: crate::distance::squared_euclidean

use crate::distance::{accumulate_tile_d2, tile_d2_pair, tile_d2_through, LANES};
use crate::local::Key;
use crate::point::PointId;
use crate::simd::Isa;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;
use std::ops::{AddAssign, Range};

// ---------------------------------------------------------------------
// Work record
// ---------------------------------------------------------------------

/// What the kd-tree did besides the distance evaluations it counts: the
/// traversal of the rho self-join and of the nearest-denser search, and
/// the lanes each computed against the lanes it counted. Plain counters,
/// summed over the kernel calls of one [`crate::local::Partition`].
///
/// The node pairs, leaf pairs, pops, fronts and leaf scans are a function
/// of the tree and the answers: a kernel change that keeps them keeps the
/// traversal. The lanes are what a kernel may cut.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Work {
    /// Join: node pairs visited.
    pub node_pairs: u64,
    /// Join: node pairs whose boxes are at least `d_c` apart.
    pub pruned: u64,
    /// Join: node pairs counted wholesale, every pair within `d_c`.
    pub granted: u64,
    /// Join: leaf pairs settled point by point.
    pub leaf_pairs: u64,
    /// Join: leaf points tested against the other leaf's box, one pass
    /// per leaf and side.
    pub flag_passes: u64,
    /// Join: bound lanes those passes computed, one per point and bound.
    pub flag_lanes: u64,
    /// Join: query rows run against a leaf tile.
    pub tile_rows: u64,
    /// Join: distance lanes those rows computed.
    pub join_lanes: u64,
    /// Join: distance evaluations counted.
    pub join_counted: u64,
    /// Search: heap nodes expanded or scanned.
    pub pops: u64,
    /// Search: internal nodes expanded into a front.
    pub fronts: u64,
    /// Search: leaves scanned.
    pub leaf_scans: u64,
    /// Search: distance lanes those scans computed.
    pub search_lanes: u64,
    /// Search: lanes of acceptable points, each one evaluation.
    pub search_accepted: u64,
}

impl AddAssign for Work {
    fn add_assign(&mut self, o: Work) {
        self.node_pairs += o.node_pairs;
        self.pruned += o.pruned;
        self.granted += o.granted;
        self.leaf_pairs += o.leaf_pairs;
        self.flag_passes += o.flag_passes;
        self.flag_lanes += o.flag_lanes;
        self.tile_rows += o.tile_rows;
        self.join_lanes += o.join_lanes;
        self.join_counted += o.join_counted;
        self.pops += o.pops;
        self.fronts += o.fronts;
        self.leaf_scans += o.leaf_scans;
        self.search_lanes += o.search_lanes;
        self.search_accepted += o.search_accepted;
    }
}

impl fmt::Display for Work {
    /// Two lines: the join's, then the search's.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "join: {} node pairs ({} pruned, {} granted), {} leaf pairs, \
             {} flag passes ({} lanes), {} tile rows, {} lanes computed for {} counted",
            self.node_pairs,
            self.pruned,
            self.granted,
            self.leaf_pairs,
            self.flag_passes,
            self.flag_lanes,
            self.tile_rows,
            self.join_lanes,
            self.join_counted
        )?;
        write!(
            f,
            "search: {} pops, {} fronts, {} leaf scans, {} lanes computed for {} accepted",
            self.pops, self.fronts, self.leaf_scans, self.search_lanes, self.search_accepted
        )
    }
}

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
/// [`crate::distance::squared_euclidean`]. A query point passes itself as
/// both `lo_a` and `hi_a`.
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

/// Bit `k` set where lane `k` of `x` is below `t`.
#[inline(always)]
fn below(x: &[f64; LANES], t: f64) -> u16 {
    x.iter()
        .enumerate()
        .fold(0, |m, (k, &v)| m | u16::from(v < t) << k)
}

/// Lane `k` is bit `k` of `mask`.
#[inline(always)]
fn lanes_of(mask: u16) -> [u32; LANES] {
    std::array::from_fn(|k| u32::from(mask >> k & 1))
}

/// Bounds on the flags of every point of box `a` against box `b` (each
/// `dim` minima then `dim` maxima): `(g2, t2)`, where `g2` is at least the
/// `lb2` and `t2` at most the `ub2` that [`lanes_bounds2`] computes from any
/// point of `a` to `b`, in floating point.
///
/// Per dimension, a point `x` in `[la, ha]` has a gap to `[lo, hi]` of at
/// most `max(lo - la, ha - hi, 0)`, and a reach of at least the larger of
/// `hi - ha`, `la - lo` and half the extent `hi - lo`; every rounding is
/// monotone, and the halving is exact unless the half is subnormal, when
/// it squares to `0.0`. Summed in [`crate::distance::squared_euclidean`]'s
/// order, the terms keep those inequalities. So when `g2 < dc2` no point
/// of `a` is out of range of all of `b`, and when `t2 >= dc2` none is
/// within range of all of it.
#[inline(always)]
fn flag_bounds2(a: &[f64], b: &[f64]) -> (f64, f64) {
    let dim = a.len() / 2;
    let (lo_a, hi_a) = a.split_at(dim);
    let (lo_b, hi_b) = b.split_at(dim);
    let (mut g2, mut t2) = (0.0, 0.0);
    for (((&la, &ha), &lo), &hi) in lo_a.iter().zip(hi_a).zip(lo_b).zip(hi_b) {
        let g = max_or(lo - la, max_or(ha - hi, 0.0));
        g2 += g * g;
        let t = max_or((hi - lo) * 0.5, max_or(hi - ha, la - lo));
        t2 += t * t;
    }
    (g2, t2)
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

/// The lower bounds of [`lanes_bounds2`] alone.
#[inline(always)]
fn lanes_lb2(cols: &[[f64; LANES]], b: &[f64]) -> [f64; LANES] {
    let (lo, hi) = b.split_at(cols.len());
    let mut lb2 = [0.0; LANES];
    for ((col, &lo), &hi) in cols.iter().zip(lo).zip(hi) {
        for (&x, lb2) in col.iter().zip(&mut lb2) {
            let g = gap(x, x, lo, hi);
            *lb2 += g * g;
        }
    }
    lb2
}

/// The lower bound of [`box_bounds2`] from point `q` to each box of a
/// front, held dimension-major in columns of its width (`dim` columns of
/// minima, then `dim` of maxima): the same terms in the same order, one
/// chain per box.
#[inline(always)]
fn front_lb2(q: &[f64], cols: &[f64]) -> [f64; FRONT] {
    match cols.len() / (2 * q.len()) {
        2 => front_width_lb2::<2>(q, cols),
        4 => front_width_lb2::<4>(q, cols),
        _ => front_width_lb2::<FRONT>(q, cols),
    }
}

/// [`front_lb2`] over columns of `W` lanes.
#[inline(always)]
fn front_width_lb2<const W: usize>(q: &[f64], cols: &[f64]) -> [f64; FRONT] {
    let (lo, hi) = cols.as_chunks::<W>().0.split_at(q.len());
    let mut lb2 = [0.0; W];
    for ((&x, lo), hi) in q.iter().zip(lo).zip(hi) {
        for ((lb2, &lo), &hi) in lb2.iter_mut().zip(lo).zip(hi) {
            let g = gap(x, x, lo, hi);
            *lb2 += g * g;
        }
    }
    let mut out = [0.0; FRONT];
    out[..W].copy_from_slice(&lb2);
    out
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

/// `f64` per 64-byte cache line.
const LINE: usize = 8;

// A tile column covers whole cache lines.
const _: () = assert!(LANES.is_multiple_of(LINE));

/// Dimensions from which a leaf scan of the nearest search computes only
/// the lanes through its last acceptable row. Narrower tiles cost less to
/// compute whole than the unpredictable branch on the width (measured on
/// 4-D and 74-D buckets).
const PREFIX_MIN_DIM: usize = 8;

/// Subtrees at least this large build their children via `rayon::join`.
const PAR_BUILD_MIN: usize = 4096;

/// The widest rows whose node boxes are found four dimensions per pass,
/// in registers. Measured on 76k x 4-D and 9k x 74-D inputs, whole and in
/// buckets (2-vCPU Xeon): per-pass registers built 4-D boxes about twice
/// as fast, and 74-D ones about half as fast, as one pass through memory.
const REGISTER_BOUNDS_DIMS: usize = 16;

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
    /// Nodes in the front, at least two; its columns are `len` rounded up
    /// to a power of two lanes wide.
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
        let mut slots: Vec<(u64, u32)> = (0..n as u32).map(|i| (0, i)).collect();
        let nodes = node_count(n);
        let mut bounds = vec![0.0f64; nodes * 2 * dim];
        let mut start = vec![0u32; nodes];
        let mut len = vec![0u32; nodes];
        let mut right = vec![0u32; nodes];
        build_rec(
            (flat, dim, isa),
            &mut slots,
            0,
            0,
            BuildSlices {
                bounds: &mut bounds,
                start: &mut start,
                len: &mut len,
                right: &mut right,
            },
        );
        let perm: Vec<u32> = slots.into_iter().map(|(_, i)| i).collect();
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

    /// Lists the fronts — the root's, and those of the internal nodes each
    /// front holds — then fills the leaf tiles from a cache line, so every
    /// tile column covers two whole lines, and then the fronts' columns. A
    /// front's columns are as wide as its node count rounded up to a power
    /// of two: most fronts near the leaves hold two or four boxes, and a
    /// search streams their columns.
    #[inline(always)]
    fn lay_out(&mut self, flat: &[f64], dim: usize, perm: &[u32]) {
        if !self.is_leaf(0) {
            self.push_front(0);
        }
        let mut next = 0;
        while next < self.fronts.len() {
            let front = &self.fronts[next];
            let (nodes, len) = (front.nodes, front.len);
            for &v in &nodes[..len] {
                if !self.is_leaf(v as usize) {
                    self.push_front(v as usize);
                }
            }
            next += 1;
        }
        // Every internal node has two children: (nodes + 1) / 2 leaves.
        // Only the tiles are reserved: the fronts grow the buffer, as they
        // always have. Reserving all of it at once holds fewer bytes yet
        // read 2-6% more peak RSS on fit-wide, through the allocator.
        self.lanes
            .reserve(self.len.len().div_ceil(2) * dim * LANES + LINE - 1);
        let addr = self.lanes.as_ptr() as usize;
        self.lanes
            .resize((addr.next_multiple_of(LINE * 8) - addr) / 8, 0.0);
        for node in 0..self.len.len() {
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
        for front in &mut self.fronts {
            front.cols = self.lanes.len();
            let width = front.len.next_power_of_two();
            self.lanes.resize(front.cols + 2 * dim * width, 0.0);
            let cols = self.lanes[front.cols..].chunks_exact_mut(width);
            for (k, col) in cols.enumerate() {
                for (c, &v) in col.iter_mut().zip(&front.nodes[..front.len]) {
                    *c = self.bounds[v as usize * 2 * dim + k];
                }
            }
        }
    }

    /// Lists the front of `node`: [`FRONT_DEPTH`] levels down, stopping at
    /// leaves.
    #[inline(always)]
    fn push_front(&mut self, node: usize) {
        let mut front = Front {
            nodes: [node as u32; FRONT],
            len: 1,
            cols: 0,
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
    fn front(&self, dim: usize, node: usize) -> (&[u32], &[f64]) {
        let front = &self.fronts[self.slot[node]];
        let width = front.len.next_power_of_two();
        (
            &front.nodes[..front.len],
            &self.lanes[front.cols..][..2 * dim * width],
        )
    }

    /// A leaf's tile.
    #[inline(always)]
    fn tile(&self, dim: usize, leaf: usize) -> &[[f64; LANES]] {
        self.lanes[self.slot[leaf]..][..dim * LANES].as_chunks().0
    }

    fn tile_mut(&mut self, dim: usize, leaf: usize) -> &mut [[f64; LANES]] {
        self.lanes[self.slot[leaf]..][..dim * LANES]
            .as_chunks_mut()
            .0
    }

    /// `d²` from `q` to each row of a leaf, lane `k` for the leaf's row
    /// `k`; lanes past the leaf's rows are padding.
    #[inline(always)]
    fn leaf_d2(&self, q: &[f64], leaf: usize) -> [f64; LANES] {
        let mut d2 = [0.0; LANES];
        accumulate_tile_d2(q, self.tile(q.len(), leaf), &mut d2);
        d2
    }

    /// Per node, the label every row below it carries (`label[k]` is row
    /// `k`'s), or `None` for a mixed subtree. `O(n + nodes)`.
    fn uniform_labels(&self, label: &[u32]) -> Vec<Option<u32>> {
        let mut uniform = vec![None; self.len.len()];
        // Reverse preorder puts every child before its parent.
        for node in (0..uniform.len()).rev() {
            uniform[node] = if self.is_leaf(node) {
                let rows = &label[self.rows(node)];
                rows.iter().all(|&l| l == rows[0]).then_some(rows[0])
            } else {
                let (l, r) = self.children(node);
                uniform[l].filter(|_| uniform[l] == uniform[r])
            };
        }
        uniform
    }

    /// The kd form of [`SpatialIndex::pairs_across_d2`] over rows: each
    /// row walks the rows after it, skipping every subtree beyond `r2`,
    /// holding no later row, or uniform in the row's own label; a leaf
    /// evaluates only the lanes of later rows with another label.
    #[inline(always)]
    fn pairs_across(
        &self,
        dim: usize,
        label: &[u32],
        r2: f64,
        visit: &mut impl FnMut(usize, usize, f64),
    ) -> u64 {
        let uniform = self.uniform_labels(label);
        let mut evals = 0u64;
        let mut q = vec![0.0; dim];
        let mut stack = Vec::new();
        for leaf in (0..self.len.len()).filter(|&v| self.is_leaf(v)) {
            for (lane, k) in self.rows(leaf).enumerate() {
                let own = label[k];
                let admits =
                    |node: usize| self.rows(node).end > k + 1 && uniform[node] != Some(own);
                if !admits(0) {
                    continue;
                }
                for (x, col) in q.iter_mut().zip(self.tile(dim, leaf)) {
                    *x = col[lane];
                }
                // The row lies in the root's box: no bound to check.
                stack.push(0);
                while let Some(node) = stack.pop() {
                    if !self.is_leaf(node) {
                        let (l, r) = self.children(node);
                        let (lb2_l, lb2_r) =
                            point_lb2_pair(&q, self.bounds(dim, l), self.bounds(dim, r));
                        if lb2_r < r2 && admits(r) {
                            stack.push(r);
                        }
                        if lb2_l < r2 && admits(l) {
                            stack.push(l);
                        }
                        continue;
                    }
                    let rows = self.rows(node);
                    let mut mask = 0u32;
                    for (lane, j) in rows.clone().enumerate() {
                        mask |= u32::from(j > k && label[j] != own) << lane;
                    }
                    if mask == 0 {
                        continue;
                    }
                    let d2 = self.leaf_d2(&q, node);
                    // Masked lanes are computed and never read.
                    evals += u64::from(mask.count_ones());
                    for (lane, j) in rows.enumerate() {
                        if mask >> lane & 1 != 0 && d2[lane] < r2 {
                            visit(k, j, d2[lane]);
                        }
                    }
                }
            }
        }
        evals
    }
}

/// Bits of `x` whose unsigned order is [`f64::total_cmp`]'s: a negative
/// value has every bit flipped, any other only its sign.
#[inline(always)]
fn total_order_bits(x: f64) -> u64 {
    let b = x.to_bits();
    b ^ ((b as i64 >> 63) as u64 | 1 << 63)
}

/// Builds the subtree of `node` over the points `perm` names, each id
/// beside a key slot: the median selection writes the split coordinate's
/// [`total_order_bits`] there and selects over the pairs in place, so the
/// order is the coordinate's total order, then the id, with no indirection.
fn build_rec(
    (flat, dim, isa): (&[f64], usize, Isa),
    perm: &mut [(u64, u32)],
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
    for (key, i) in perm.iter_mut() {
        *key = total_order_bits(flat[*i as usize * dim + split_dim]);
    }
    perm.select_nth_unstable(mid);
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
///
/// Up to [`REGISTER_BOUNDS_DIMS`] dimensions, four dimensions at a time
/// (then one at a time) over all the points, so the running bounds stay in
/// registers: one pass per four dimensions. Above it the rows no longer
/// stay in cache across the passes, and one pass over the points keeps
/// the bounds in `b`.
#[inline(always)]
fn node_bounds(flat: &[f64], dim: usize, perm: &[(u64, u32)], b: &mut [f64]) {
    const W: usize = 4;
    let row = |i: u32| &flat[i as usize * dim..][..dim];
    let p0 = row(perm[0].1);
    b[..dim].copy_from_slice(p0);
    b[dim..].copy_from_slice(p0);
    let (lo, hi) = b.split_at_mut(dim);
    if dim > REGISTER_BOUNDS_DIMS {
        for &(_, pi) in &perm[1..] {
            for ((&x, lo), hi) in row(pi).iter().zip(lo.iter_mut()).zip(hi.iter_mut()) {
                if x < *lo {
                    *lo = x;
                }
                if x > *hi {
                    *hi = x;
                }
            }
        }
        return;
    }
    let mut d0 = 0;
    while d0 + W <= dim {
        let mut l: [f64; W] = p0[d0..d0 + W].try_into().expect("W dimensions");
        let mut h = l;
        for &(_, pi) in &perm[1..] {
            let x = &row(pi)[d0..d0 + W];
            for k in 0..W {
                if x[k] < l[k] {
                    l[k] = x[k];
                }
                if x[k] > h[k] {
                    h[k] = x[k];
                }
            }
        }
        lo[d0..d0 + W].copy_from_slice(&l);
        hi[d0..d0 + W].copy_from_slice(&h);
        d0 += W;
    }
    for d in d0..dim {
        let (mut l, mut h) = (p0[d], p0[d]);
        for &(_, pi) in &perm[1..] {
            let x = row(pi)[d];
            if x < l {
                l = x;
            }
            if x > h {
                h = x;
            }
        }
        (lo[d], hi[d]) = (l, h);
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
    work: Work,
}

impl<'a> KdJoin<'a> {
    fn new(kd: &'a KdTree, dim: usize, dc2: f64) -> Self {
        KdJoin {
            kd,
            dim,
            dc2,
            pending: vec![0; kd.len.len()],
            count: vec![0; kd.len[0] as usize],
            work: Work::default(),
        }
    }

    /// Runs the join; returns per-row neighbour counts and its work, whose
    /// `join_counted` pairs had their `d²` evaluated.
    #[inline(always)]
    fn run(mut self) -> (Vec<u32>, Work) {
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
        (self.count, self.work)
    }

    /// Settles node pair `(a, b)` or splits it onto `todo`.
    #[inline(always)]
    fn pair(&mut self, a: usize, b: usize, todo: &mut Vec<(usize, usize)>) {
        let kd = self.kd;
        self.work.node_pairs += 1;
        let (lo_a, hi_a) = kd.bounds(self.dim, a).split_at(self.dim);
        let (lb2, ub2) = box_bounds2(lo_a, hi_a, kd.bounds(self.dim, b));
        if lb2 >= self.dc2 {
            self.work.pruned += 1;
            return; // every d2 between the boxes is >= lb2 >= dc2
        }
        if ub2 < self.dc2 {
            self.work.granted += 1;
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
    fn flags(&mut self, a: usize, b: usize) -> (u16, u16) {
        let kd = self.kd;
        let (tile, bounds) = (kd.tile(self.dim, a), kd.bounds(self.dim, b));
        let live = ((1u32 << kd.len[a]) - 1) as u16;
        self.work.flag_passes += 1;
        let (g2, t2) = flag_bounds2(kd.bounds(self.dim, a), bounds);
        if t2 >= self.dc2 {
            // No point is within `dc` of all of `b`: no upper bounds.
            if g2 < self.dc2 {
                // Nor out of range of all of it: every point is unsettled.
                return (live, 0);
            }
            self.work.flag_lanes += LANES as u64;
            return (below(&lanes_lb2(tile, bounds), self.dc2) & live, 0);
        }
        self.work.flag_lanes += 2 * LANES as u64;
        let (lb2, ub2) = lanes_bounds2(tile, bounds);
        let all = below(&ub2, self.dc2) & live;
        (below(&lb2, self.dc2) & live & !all, all)
    }

    /// Leaf against leaf (or a leaf's internal pairs when `a == b`): each
    /// side's points are first tested against the other side's box, which
    /// settles a point's pairs with the whole other leaf at once; only
    /// pairs with both ends unsettled are evaluated, a query row of `a`'s
    /// tile, read in place, against `b`'s tile, one lane per pair.
    #[inline(always)]
    fn leaf_pair(&mut self, a: usize, b: usize) {
        let same = a == b;
        self.work.leaf_pairs += 1;
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
                let part = other_all.count_ones();
                let (all, eval) = (lanes_of(all), lanes_of(eval));
                for ((c, all), eval) in self.count[rows.clone()].iter_mut().zip(all).zip(eval) {
                    *c += whole * all + part * eval;
                }
            };
        grant(&rows_a, (eval_a, all_a), &rows_b, all_b);
        if !same {
            grant(&rows_b, (eval_b, all_b), &rows_a, all_a);
        }
        if eval_a == 0 || eval_b == 0 {
            return;
        }
        let (tile_a, tile_b) = (self.kd.tile(self.dim, a), self.kd.tile(self.dim, b));
        let targets = lanes_of(eval_b);
        // Within one leaf, row i owns the pairs (i, j < i): rows after the
        // first target. Across leaves, every pair with an unsettled target.
        let mut rows = if same {
            eval_a & (u32::from(u16::MAX) << (eval_b.trailing_zeros() + 1)) as u16
        } else {
            eval_a
        };
        // Hits per lane of `b`, added to its rows once the rows of `a` are done.
        let mut col_hits = [0u32; LANES];
        // Rows go two at a time: one sweep of `b`'s tile serves both.
        while rows != 0 {
            let i = rows.trailing_zeros() as usize;
            rows &= rows - 1;
            let (d2, j) = if rows == 0 {
                let row = tile_a.iter().map(|col| col[i]);
                ([tile_d2_through(row, tile_b, LANES).0, [0.0; LANES]], None)
            } else {
                let j = rows.trailing_zeros() as usize;
                rows &= rows - 1;
                let rows = tile_a.iter().map(|col| (col[i], col[j]));
                (tile_d2_pair(rows, tile_b), Some(j))
            };
            for (k, d2) in std::iter::once(i).chain(j).zip(&d2) {
                let upto = if same { k } else { LANES };
                let mask = eval_b & ((1u32 << upto) - 1) as u16;
                self.work.tile_rows += 1;
                self.work.join_lanes += LANES as u64;
                self.work.join_counted += u64::from(mask.count_ones());
                // Lanes outside `mask` (padding, targets their flag settled,
                // or pairs another row owns) are computed, counted among the
                // join's lanes, and never read.
                let mut hits = 0;
                for (lane, ((h, &d2), t)) in col_hits.iter_mut().zip(d2).zip(targets).enumerate() {
                    let hit = u32::from(d2 < self.dc2) & t & u32::from(lane < upto);
                    *h += hit;
                    hits += hit;
                }
                self.count[rows_a.start + k] += hits;
            }
        }
        for (c, h) in self.count[rows_b].iter_mut().zip(col_hits) {
            *c += h;
        }
    }
}

// ---------------------------------------------------------------------
// SpatialIndex
// ---------------------------------------------------------------------

/// A per-partition spatial index over a flat row-major buffer. Each
/// `Partition` builds its own, so the rho and delta passes of a pipeline
/// build one each.
pub struct SpatialIndex {
    dim: usize,
    n: usize,
    /// Row -> index of the point in the caller's buffer; rows are in leaf
    /// order, each leaf a contiguous range.
    ids: Vec<u32>,
    kd: KdTree,
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
    /// Per kd node, packed.
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

/// A nearest search's limit `lim` — the best key so far, capped —
/// bracketed in the domain of `d²`: `d2 <= lo` proves `key(d2) <= lim`
/// and `d2 > hi` proves `key(d2) > lim`, so the search takes a `sqrt`
/// only for the rare `d2` between the two, where it alone can decide.
///
/// In the `sqrt` domain the bracket is `lim²` widened by `4ε` each way.
/// `lim * lim` is within half an ulp of `lim²`, and `sqrt` is correctly
/// rounded, so a `d2` above `hi` has a root more than half an ulp above
/// `lim`, which rounds above it, and one at or below `lo` a root below
/// `lim`. A limit whose square is not a normal number (zero, subnormal,
/// overflowing or negative) gets an empty bracket, and every comparison
/// takes the root; an infinite one brackets everything below it. In the
/// raw domain the bracket is `lim` itself.
#[derive(Clone, Copy)]
struct Limit {
    lim: f64,
    lo: f64,
    hi: f64,
}

impl Limit {
    #[inline(always)]
    fn new(lim: f64, sqrt_domain: bool) -> Self {
        let l2 = lim * lim;
        let (lo, hi) = if !sqrt_domain || lim == f64::INFINITY {
            (lim, lim)
        } else if lim >= 0.0 && l2.is_normal() {
            (
                l2 * (1.0 - 4.0 * f64::EPSILON),
                l2 * (1.0 + 4.0 * f64::EPSILON),
            )
        } else {
            (f64::NEG_INFINITY, f64::INFINITY)
        };
        Limit { lim, lo, hi }
    }

    /// Whether `key_of(d2) > lim`, exactly.
    #[inline(always)]
    fn beyond(self, d2: f64, key_of: impl Fn(f64) -> f64) -> bool {
        if d2 > self.hi {
            true
        } else if d2 <= self.lo {
            false
        } else {
            key_of(d2) > self.lim
        }
    }
}

/// A nearest search's running answer: the best key and candidate so far,
/// the cap beyond which no candidate counts, and the limit they set.
struct Running {
    best: f64,
    id: PointId,
    cap: f64,
    sqrt_domain: bool,
    limit: Limit,
}

impl Running {
    #[inline(always)]
    fn new((best, id): (f64, PointId), cap: f64, sqrt_domain: bool) -> Self {
        let limit = Limit::new(best.min(cap), sqrt_domain);
        Running {
            best,
            id,
            cap,
            sqrt_domain,
            limit,
        }
    }

    /// The key a candidate at `d2` is compared on.
    #[inline(always)]
    fn key_of(&self, d2: f64) -> f64 {
        if self.sqrt_domain {
            d2.sqrt()
        } else {
            d2
        }
    }

    /// Whether a candidate at `d2` would be beyond the limit, exactly.
    #[inline(always)]
    fn beyond(&self, d2: f64) -> bool {
        self.limit.beyond(d2, |d2| self.key_of(d2))
    }

    /// Offers candidate `cand` at `key`; ties go to the smaller id.
    #[inline(always)]
    fn offer(&mut self, key: f64, cand: PointId) {
        if key <= self.cap && (key < self.best || (key == self.best && cand < self.id)) {
            (self.best, self.id) = (key, cand);
            self.limit = Limit::new(key.min(self.cap), self.sqrt_domain);
        }
    }
}

/// The best-first search's pending regions: `(lb2 bits, node)`, smallest
/// first. Bounds are non-negative, so their bits order like their values.
type Heap = BinaryHeap<Reverse<(u64, u32)>>;

impl SpatialIndex {
    /// Builds the index over `flat` (row-major, `dim` coordinates per
    /// point). The index does not depend on `dc`, which is kept for
    /// existing callers. The kernels run at the widest vector width the
    /// CPU has ([`Isa::detect`]).
    ///
    /// # Panics
    /// Panics if `flat` is empty or not a multiple of `dim`.
    pub fn build(flat: &[f64], dim: usize, _dc: f64) -> Self {
        Self::build_on(flat, dim, Isa::detect())
    }

    /// [`Self::build`] for the `isa` build of the kernels.
    pub(crate) fn build_on(flat: &[f64], dim: usize, isa: Isa) -> Self {
        assert!(dim > 0, "dim must be positive");
        assert!(
            !flat.is_empty() && flat.len().is_multiple_of(dim),
            "flat buffer must hold a positive number of {dim}-dim points"
        );
        let (kd, ids) = KdTree::build(flat, dim, isa);
        SpatialIndex {
            dim,
            n: ids.len(),
            ids,
            kd,
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

    /// `rho` of every indexed point at once: for each point, in the
    /// caller's input order, the number of *other* indexed points with
    /// `d2 < dc2` (strict) — `range_count_d2(point, dc2).0 - 1` for each
    /// point, from one traversal. Returns `(counts, distance evals)`.
    ///
    /// Every unordered pair is evaluated at most once, so the evals never
    /// exceed `n (n - 1) / 2`, and at most half of what the per-point
    /// queries evaluate: a pair is evaluated only if neither end's bound
    /// against the other end's leaf box settles it, which is when the
    /// per-point walks evaluate it from both ends.
    pub fn self_join_d2(&self, dc2: f64) -> (Vec<u32>, u64) {
        let (rho, work) = self.self_join(dc2);
        (rho, work.join_counted)
    }

    /// [`Self::self_join_d2`] with its whole work record.
    pub(crate) fn self_join(&self, dc2: f64) -> (Vec<u32>, Work) {
        let (count, work) = self.isa.run(
            #[inline(always)]
            || KdJoin::new(&self.kd, self.dim, dc2).run(),
        );
        let mut rho = vec![0u32; self.n];
        for (&id, c) in self.ids.iter().zip(count) {
            rho[id as usize] = c;
        }
        (rho, work)
    }

    /// Visits `(i, j, d²)`, `i < j` in the caller's input order, once for
    /// every pair of indexed points whose labels differ (`labels[i]` is
    /// input point `i`'s) and `d² < r2` (strict). A pair with one label is
    /// never evaluated: rows walk only the rows after them and skip every
    /// subtree whose points all carry their own label. Returns the
    /// distance evaluations, at most the number of pairs across labels.
    pub(crate) fn pairs_across_d2(
        &self,
        labels: &[u32],
        r2: f64,
        mut visit: impl FnMut(u32, u32, f64),
    ) -> u64 {
        assert_eq!(labels.len(), self.n, "one label per indexed point");
        let label: Vec<u32> = self.ids.iter().map(|&i| labels[i as usize]).collect();
        let mut rows = |a: usize, b: usize, d2: f64| {
            let (i, j) = (self.ids[a], self.ids[b]);
            visit(i.min(j), i.max(j), d2);
        };
        self.isa.run(
            #[inline(always)]
            || self.kd.pairs_across(self.dim, &label, r2, &mut rows),
        )
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
        let kd = &self.kd;
        let mut count = 0u32;
        let mut evals = 0u64;
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
        let kd = &self.kd;
        if box_bounds2(q, q, kd.bounds(self.dim, 0)).0 >= dc2 {
            return 0;
        }
        let mut evals = 0u64;
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
            let (lb2_l, lb2_r) = point_lb2_pair(q, kd.bounds(self.dim, l), kd.bounds(self.dim, r));
            if lb2_r < dc2 {
                stack.push(r);
            }
            if lb2_l < dc2 {
                stack.push(l);
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

    /// Orders the rows of every leaf by descending key, `key(i)` being
    /// input point `i`'s, moving their tile lanes and ids with them, and
    /// lays the keys over the index in that order. A search that accepts
    /// only keys at or above a floor then finds a leaf's acceptable rows as
    /// a prefix of its lanes, and computes only those. In place, `O(n dim)`:
    /// the leaves and their boxes keep their points, so every kernel keeps
    /// its answers and counts; only the order in which a visiting kernel
    /// meets a leaf's rows follows the keys.
    pub(crate) fn order_leaves_by(&mut self, key: impl Fn(u32) -> Key) -> DensityKeys {
        let kd = &mut self.kd;
        for leaf in 0..kd.len.len() {
            if !kd.is_leaf(leaf) {
                continue;
            }
            let ids = &mut self.ids[kd.rows(leaf)];
            let (mut packed, mut old) = ([0u64; LANES], [0u32; LANES]);
            for ((p, o), &i) in packed.iter_mut().zip(&mut old).zip(&*ids) {
                (*p, *o) = (pack(key(i)), i);
            }
            let mut order: [usize; LANES] = std::array::from_fn(|k| k);
            let order = &mut order[..ids.len()];
            order.sort_unstable_by_key(|&k| Reverse(packed[k]));
            if order.iter().enumerate().all(|(k, &o)| k == o) {
                continue;
            }
            for (id, &o) in ids.iter_mut().zip(&*order) {
                *id = old[o];
            }
            for col in kd.tile_mut(self.dim, leaf) {
                let old = *col;
                for (c, &o) in col.iter_mut().zip(&*order) {
                    *c = old[o];
                }
            }
        }
        self.density_keys(key)
    }

    /// Lays density keys over this index; `key(i)` is the key of input
    /// point `i`. `O(n + nodes)`.
    pub fn density_keys(&self, key: impl Fn(u32) -> Key) -> DensityKeys {
        let kd = &self.kd;
        let row: Vec<u64> = self.ids.iter().map(|&i| pack(key(i))).collect();
        let mut node_max = vec![0; kd.len.len()];
        // Reverse preorder puts every child before its parent.
        for node in (0..node_max.len()).rev() {
            node_max[node] = if kd.is_leaf(node) {
                row[kd.rows(node)].iter().copied().max().unwrap_or(0)
            } else {
                let (l, r) = kd.children(node);
                node_max[l].max(node_max[r])
            };
        }
        DensityKeys { row, node_max }
    }

    /// Per input point, its row in leaf order: where [`Self::retire_key`]
    /// finds the point's key.
    pub fn leaf_rows(&self) -> Vec<u32> {
        let mut rows = vec![0; self.n];
        for (row, &i) in self.ids.iter().enumerate() {
            rows[i as usize] = row as u32;
        }
        rows
    }

    /// Lowers the key of leaf-order row `row` ([`Self::leaf_rows`]) under
    /// `keys` to `(0, 0)`, below every floor but `(0, 0)`, and the largest
    /// key of each node on its path to match: `O(depth)`.
    pub fn retire_key(&self, keys: &mut DensityKeys, row: u32) {
        let (kd, row) = (&self.kd, row as usize);
        keys.row[row] = 0;
        let mut path = Vec::new();
        let mut node = 0;
        while !kd.is_leaf(node) {
            path.push(node);
            let (l, r) = kd.children(node);
            node = if row < kd.start[r] as usize { l } else { r };
        }
        keys.node_max[node] = keys.row[kd.rows(node)].iter().copied().max().unwrap_or(0);
        for &v in path.iter().rev() {
            let (l, r) = kd.children(v);
            keys.node_max[v] = keys.node_max[l].max(keys.node_max[r]);
        }
    }

    /// Every kd leaf, in leaf order, with the input indices of its rows.
    pub(crate) fn leaves(&self) -> impl Iterator<Item = (usize, &[u32])> {
        let kd = &self.kd;
        (0..kd.len.len())
            .filter(|&v| kd.is_leaf(v))
            .map(|v| (v, &self.ids[kd.rows(v)]))
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
        let state = (&mut Heap::new(), &mut Work::default());
        self.nearest((q, true), (init, cap, None), filter, state)
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
        let start = ((f64::INFINITY, crate::dp::NO_UPSLOPE), f64::INFINITY, None);
        let filter = keys.at_least(pack(floor));
        let state = (&mut Heap::new(), &mut Work::default());
        self.nearest((q, false), start, filter, state)
    }

    /// The one nearest search, on this index's vector width: the row
    /// nearest `q` that `accept` maps to a candidate id, from `init`, no
    /// farther than `cap`, compared on `d2.sqrt()` (`sqrt_domain`, the
    /// pipelines) or on raw `d2` (serve). `admits(node)` says whether a
    /// kd subtree can hold an accepted row. A `home` leaf — the query's
    /// own, which the best-first order reaches at bound 0 — is scanned
    /// before anything else and skipped after. The search's work is added
    /// to `work`.
    fn nearest(
        &self,
        query: (&[f64], bool),
        start: ((f64, PointId), f64, Option<usize>),
        filter: (impl Fn(usize) -> bool, impl FnMut(usize) -> Option<PointId>),
        state: (&mut Heap, &mut Work),
    ) -> ((f64, PointId), u64) {
        self.isa.run(
            #[inline(always)]
            || self.nearest_body(query, start, filter, state),
        )
    }

    #[inline(always)]
    fn nearest_body(
        &self,
        (q, sqrt_domain): (&[f64], bool),
        (init, cap, home): ((f64, PointId), f64, Option<usize>),
        (admits, mut accept): (impl Fn(usize) -> bool, impl FnMut(usize) -> Option<PointId>),
        (heap, work): (&mut Heap, &mut Work),
    ) -> ((f64, PointId), u64) {
        let mut run = Running::new(init, cap, sqrt_domain);
        let mut evals = 0u64;
        let kd = &self.kd;
        // The leaves a search scans are those its answer's bound reaches,
        // in whatever order: scanning the home leaf first moves no count.
        if let Some(leaf) = home.filter(|&v| admits(v)) {
            work.pops += 1;
            evals += self.scan_leaf(q, leaf, &mut run, &mut accept, work);
        }
        let admits = |v: usize| Some(v) != home && admits(v);
        if !admits(0) {
            return ((run.best, run.id), evals);
        }
        heap.clear();
        let root_lb2 = box_bounds2(q, q, kd.bounds(self.dim, 0)).0;
        heap.push(Reverse((root_lb2.to_bits(), 0)));
        while let Some(Reverse((lb_bits, node))) = heap.pop() {
            // Best-first: every remaining region is at least this
            // far. Strict >, so equal-distance smaller ids survive.
            if run.beyond(f64::from_bits(lb_bits)) {
                break;
            }
            let node = node as usize;
            work.pops += 1;
            if !kd.is_leaf(node) {
                work.fronts += 1;
                // Pops come in (lb2, node) order whichever nodes are
                // pushed, so pushing a front instead of two children
                // scans the same leaves; so does leaving out a region
                // already beyond the best, which would end the search, or
                // keeping one the limit's bracket cannot place.
                let (front, cols) = kd.front(self.dim, node);
                for (&lb2, &v) in front_lb2(q, cols).iter().zip(front) {
                    if lb2 <= run.limit.hi && admits(v as usize) {
                        heap.push(Reverse((lb2.to_bits(), v)));
                    }
                }
                continue;
            }
            evals += self.scan_leaf(q, node, &mut run, &mut accept, work);
        }
        ((run.best, run.id), evals)
    }

    /// One leaf scan of a nearest search: evaluates the leaf's rows that
    /// `accept` maps to a candidate and offers each to `run`. Returns the
    /// evaluations.
    #[inline(always)]
    fn scan_leaf(
        &self,
        q: &[f64],
        leaf: usize,
        run: &mut Running,
        accept: &mut impl FnMut(usize) -> Option<PointId>,
        work: &mut Work,
    ) -> u64 {
        let mut cands = [0 as PointId; LANES];
        let mut mask = 0u32;
        // Branch-free: acceptance is a coin flip to a predictor.
        for (lane, k) in self.kd.rows(leaf).enumerate() {
            let cand = accept(k);
            cands[lane] = cand.unwrap_or(0);
            mask |= u32::from(cand.is_some()) << lane;
        }
        if mask == 0 {
            return 0;
        }
        // Only the groups of lanes through the last accepted row are
        // computed, where the tile is wide enough to repay the branch.
        let width = if self.dim < PREFIX_MIN_DIM {
            LANES
        } else {
            32 - mask.leading_zeros() as usize
        };
        let (d2, lanes) = tile_d2_through(q.iter().copied(), self.kd.tile(self.dim, leaf), width);
        let accepted = u64::from(mask.count_ones());
        work.leaf_scans += 1;
        work.search_lanes += lanes as u64;
        work.search_accepted += accepted;
        for (lane, (&d2, &cand)) in d2.iter().zip(&cands).enumerate() {
            // Beyond the bracket, the candidate is beyond the limit.
            if mask >> lane & 1 != 0 && d2 <= run.limit.hi {
                run.offer(run.key_of(d2), cand);
            }
        }
        accepted
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
        let kd = &self.kd;
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
        (best.sqrt(), evals)
    }
}

/// Repeated nearest-denser searches of one index under one set of
/// density keys, sharing one heap: what `delta` runs per partition.
pub(crate) struct DenserSearch<'a> {
    index: &'a SpatialIndex,
    keys: DensityKeys,
    heap: Heap,
    /// The work of every search so far.
    pub(crate) work: Work,
}

impl<'a> DenserSearch<'a> {
    /// Searches of `index` under `keys`, laid over it by
    /// [`SpatialIndex::order_leaves_by`].
    pub(crate) fn new(index: &'a SpatialIndex, keys: DensityKeys) -> Self {
        DenserSearch {
            keys,
            index,
            heap: Heap::new(),
            work: Work::default(),
        }
    }

    /// [`SpatialIndex::nearest_denser_d2`] with `accept` = "denser than
    /// `qkey`", the candidate id being the key's, from `(init, cap,
    /// home)`: a `home` leaf ([`SpatialIndex::leaves`]) holds the query
    /// row itself, and its denser rows — a prefix of the leaf under the
    /// keys' order — are scanned first.
    pub(crate) fn nearest(
        &mut self,
        q: &[f64],
        qkey: Key,
        start: ((f64, PointId), f64, Option<usize>),
    ) -> ((f64, PointId), u64) {
        // Denser is a strictly greater key; the largest key has none.
        let Some(floor) = pack(qkey).checked_add(1) else {
            return (start.0, 0);
        };
        let filter = self.keys.at_least(floor);
        let state = (&mut self.heap, &mut self.work);
        self.index.nearest((q, true), start, filter, state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::{for_each_cross_d2, for_each_pair_d2, squared_euclidean, transpose_tile};
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
            let idx = SpatialIndex::build(&flat, dim, dc);
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

    /// The leaf order the build produced when its median selection ran
    /// through an indirect comparator over the ids.
    fn indirect_leaf_order(flat: &[f64], dim: usize, perm: &mut [u32]) {
        if perm.len() <= LEAF {
            return;
        }
        let mut b = vec![0.0; 2 * dim];
        let slots: Vec<(u64, u32)> = perm.iter().map(|&i| (0, i)).collect();
        node_bounds(flat, dim, &slots, &mut b);
        let split_dim = (1..dim).fold(0, |best, d| {
            let ext = |d: usize| b[dim + d] - b[d];
            if ext(d) > ext(best) {
                d
            } else {
                best
            }
        });
        let mid = perm.len() / 2;
        perm.select_nth_unstable_by(mid, |&a, &c| {
            flat[a as usize * dim + split_dim]
                .total_cmp(&flat[c as usize * dim + split_dim])
                .then(a.cmp(&c))
        });
        let (l, r) = perm.split_at_mut(mid);
        indirect_leaf_order(flat, dim, l);
        indirect_leaf_order(flat, dim, r);
    }

    /// Selecting over `(total-order bits, id)` pairs is the same strict
    /// order as the indirect comparator: the same leaves, rows in the same
    /// order, through the parallel build too.
    #[test]
    fn pair_selection_lays_out_the_indirect_selections_rows() {
        for dim in [1, 2, 4, 74] {
            for n in [17, 300, 5000] {
                let mut flat = blobs_with_twins(n, dim, 5 + n as u64);
                for x in flat.iter_mut().step_by(7) {
                    *x = if *x < 0.0 { -0.0 } else { 0.0 };
                }
                let mut want: Vec<u32> = (0..n as u32).collect();
                indirect_leaf_order(&flat, dim, &mut want);
                assert_eq!(
                    SpatialIndex::build(&flat, dim, 1.0).ids,
                    want,
                    "dim={dim} n={n}"
                );
            }
        }
        for x in [
            -f64::NAN,
            f64::NEG_INFINITY,
            -1.0,
            -0.0,
            0.0,
            1e-300,
            2.0,
            f64::NAN,
        ] {
            for y in [f64::NEG_INFINITY, -0.0, 0.0, 3.0, f64::NAN] {
                let want = x.total_cmp(&y);
                assert_eq!(
                    total_order_bits(x).cmp(&total_order_bits(y)),
                    want,
                    "{x} {y}"
                );
            }
        }
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
                }
                // Above the root box's diagonal (at most sqrt(dim) data
                // diameters) the root pair is counted wholesale.
                let all = radii(&flat, dim)[4] * (dim as f64).sqrt();
                let kd = SpatialIndex::build(&flat, dim, all);
                assert_eq!(assert_self_join(&kd, &flat, dim, all, "all"), 0);
                assert_eq!(kd.self_join_d2(all * all).0, vec![n as u32 - 1; n]);
            }
        }
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
                // A front holding both boxes, at every width, the other
                // lanes empty.
                for width in [2, 4, FRONT] {
                    let mut front = vec![0.0; 2 * dim * width];
                    for (slot, col) in front.chunks_exact_mut(width).enumerate() {
                        (col[0], col[1]) = (b[slot], b2[slot]);
                    }
                    let lb2 = front_lb2(q, &front);
                    assert_eq!(lb2[0].to_bits(), want.0, "front q={q:?} b={b:?}");
                    assert_eq!(lb2[1].to_bits(), r2.to_bits(), "front q={q:?} b={b2:?}");
                }
            }
        }
    }

    /// The box-level flag bounds hold against every point's lanes: on
    /// every leaf pair of a tree, `g2` is at least each point's `lb2` to the
    /// other box and `t2` at most its `ub2`, and `lanes_lb2` is the lower
    /// half of `lanes_bounds2` bit for bit.
    #[test]
    fn flag_bounds_bracket_every_point_of_the_box() {
        for dim in [1, 2, 5, 74] {
            let flat = blobs_with_twins(300, dim, 11);
            let idx = SpatialIndex::build(&flat, dim, 1.0);
            let tree = &idx.kd;
            let leaves: Vec<usize> = (0..tree.len.len()).filter(|&v| tree.is_leaf(v)).collect();
            for &a in &leaves {
                for &b in &leaves {
                    let (g2, t2) = flag_bounds2(tree.bounds(dim, a), tree.bounds(dim, b));
                    let tile = tree.tile(dim, a);
                    let (lb2, ub2) = lanes_bounds2(tile, tree.bounds(dim, b));
                    let lb2_only = lanes_lb2(tile, tree.bounds(dim, b));
                    for lane in 0..tree.len[a] as usize {
                        assert!(lb2[lane] <= g2 && t2 <= ub2[lane], "dim={dim} {a}-{b}");
                        assert_eq!(lb2[lane].to_bits(), lb2_only[lane].to_bits());
                    }
                }
            }
        }
    }

    /// Box-to-box bounds hold in floating point for every pair they cover.
    #[test]
    fn box_box_bounds_bracket_every_pair() {
        for dim in [1, 2, 5, 74] {
            let flat = blobs(64, dim, 3);
            let kd = SpatialIndex::build(&flat, dim, 1.0);
            let tree = &kd.kd;
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
    fn huge_span_range_count() {
        // A radius far below the span.
        let flat = vec![0.0, 1e9];
        let idx = SpatialIndex::build(&flat, 1, 1e-3);
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

    /// Queries far outside the indexed box (including coordinates near
    /// `f64::MAX`) must terminate promptly and still match the exhaustive
    /// scan bit-for-bit; NaN queries must terminate with "no candidate"
    /// instead of looping or panicking.
    #[test]
    fn nearest_handles_far_and_nonfinite_queries() {
        let flat = blobs(400, 2, 7);
        let dc = 1.0;
        let idx = SpatialIndex::build(&flat, 2, dc);
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
            [1e9, 1e9],
            [-1e9, 3.0], // far in one dimension only
            [1e300, -1e300],
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
                    let mut idx = SpatialIndex::build_on(&flat, dim, isa);
                    let ordered = idx.order_leaves_by(key);
                    let keys = idx.density_keys(key);
                    let mut home = vec![0; n];
                    for (leaf, ids) in idx.leaves() {
                        ids.iter().for_each(|&i| home[i as usize] = leaf);
                    }
                    let mut search = DenserSearch::new(&idx, ordered);
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
                            let keyed = search.nearest(q, key(i), (fresh, f64::INFINITY, None));
                            assert_eq!(keyed, ((d, u), e), "dim={dim} n={n} i={i}");
                            // From its own leaf, a point scans the same
                            // leaves: the same answer and evaluations.
                            if q == p {
                                let start = (fresh, f64::INFINITY, Some(home[i as usize]));
                                let homed = search.nearest(q, key(i), start);
                                assert_eq!(homed, ((d, u), e), "home: dim={dim} n={n} i={i}");
                            }
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

    /// Retiring keys one by one lands on the keys laid afresh with those
    /// points at `(0, 0)`, node maxima included.
    #[test]
    fn retired_keys_match_keys_laid_without_them() {
        for (n, dim) in [(1, 2), (17, 1), (300, 3)] {
            let flat = blobs_with_twins(n, dim, 3 + n as u64);
            let idx = SpatialIndex::build(&flat, dim, 1.0);
            let key = |i: u32| (i % 7 + 1, i);
            let (rows, mut keys) = (idx.leaf_rows(), idx.density_keys(key));
            let mut gone = vec![false; n];
            for i in (0..n).rev().step_by(3) {
                idx.retire_key(&mut keys, rows[i]);
                gone[i] = true;
                let fresh = idx.density_keys(|j| if gone[j as usize] { (0, 0) } else { key(j) });
                assert_eq!(keys.row, fresh.row, "n={n} i={i}");
                assert_eq!(keys.node_max, fresh.node_max, "n={n} i={i}");
            }
        }
    }

    #[test]
    fn single_point_index() {
        let flat = vec![1.0, 2.0];
        let idx = SpatialIndex::build(&flat, 2, 1.0);
        assert_eq!(idx.len(), 1);
        assert_eq!(idx.range_count_d2(&[1.0, 2.0], 1.0), (1, 0));
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
