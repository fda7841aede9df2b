//! Local Density Peaks: the one per-partition computation of the paper
//! (§IV) — `rho` as a count within `d_c`, `delta` as the nearest denser
//! point, and the near pairs across clusters the halo rule reads — over a
//! flat row-major buffer. Exact DP ([`crate::dp`]) feeds it the whole data
//! set; Basic-DDP, LSH-DDP, EDDPC and the halo passes differ only in which
//! partitions they feed it.
//!
//! ## Routing rule
//!
//! A [`Partition`] answers from a [`SpatialIndex`] when [`use_indexed`]
//! says so — at least [`AUTO_MIN_POINTS`] points, every coordinate finite
//! — and from the pairwise loops of [`crate::distance`] otherwise. Below
//! the threshold the index build is not amortized; a box cannot bound a
//! NaN (the point sits outside its own node's box, and a wholesale subtree
//! count would include it) and an infinite extent turns bound terms into
//! `inf - inf`, so such rows keep the pairwise loops, exact on anything.
//! Answers are bit-identical on either route (see the contract in
//! [`crate::index`]); only the evaluation count differs.
//!
//! ## Accounting
//!
//! Every kernel returns the distance evaluations it performed: the
//! pairwise route `n (n - 1) / 2` for a self pass (only the pairs across
//! label groups for [`Partition::pairs_across`]) and `queries × n` for a
//! cross pass, the indexed route what its traversals evaluated — for
//! `delta`, only its leaf scans and the absolute peak's farthest point.
//! Beside them, [`Partition::work`] sums the index's [`Work`] record over
//! every call: the kd traversal, and the lanes it computed against the
//! lanes it counted. A `delta` pass orders the index's leaf rows by its
//! keys first (see [`crate::index`]); later calls answer as before.
//!
//! ## `delta` answers
//!
//! A [`Nearest`] is `(delta, upslope, maxd)`: the nearest denser point
//! under the canonical order of [`denser`] over the [`Key`]s, ties toward
//! the smaller id, `(∞, NO_UPSLOPE)` when no candidate is denser. `maxd`
//! is the distance to the farthest point searched — the absolute peak's
//! `delta` — and is filled only when the kernel was asked for it *and* the
//! answer ended [`NO_UPSLOPE`]; it is `0.0` otherwise. A merged partial is
//! `NO_UPSLOPE` only if every partial is, so no consumer ever reads the
//! slot of an answer that found an upslope, and the indexed route pays for
//! a farthest-point search only when a search ends empty-handed.
//!
//! The indexed [`Partition::delta`] needs no seed: each point's search
//! scans its own kd leaf's denser points first (the leaf a best-first
//! search reaches at bound 0), then the rest of the tree best-first. The
//! leaves a search scans are those its answer's bound reaches, whatever
//! the order, so the answers and the kd work are those of a search from
//! the root, and every evaluation is a leaf scan's.

use crate::distance::{cross_on, pairs_on};
use crate::dp::{denser, NO_UPSLOPE};
use crate::index::{DenserSearch, DensityKeys, SpatialIndex, Work};
use crate::point::PointId;
use crate::simd::Isa;
use std::cell::{Cell, Ref, RefCell};

/// Partitions smaller than this keep the pairwise loops.
pub const AUTO_MIN_POINTS: usize = 256;

/// A point's place in the canonical density order: `(rho, id)`.
pub type Key = (u32, PointId);

/// A `delta` answer: `(delta, upslope, maxd)` — see the module docs.
pub type Nearest = (f64, PointId, f64);

const UNANSWERED: Nearest = (f64::INFINITY, NO_UPSLOPE, 0.0);

/// The cap of a search any distance may answer.
const NO_CAP: f64 = f64::INFINITY;

/// The routing rule: whether `n` points take the indexed route, given
/// every buffer an index would be built over.
pub fn use_indexed(n: usize, indexed: &[&[f64]]) -> bool {
    n >= AUTO_MIN_POINTS && indexed.iter().all(|f| f.iter().all(|x| x.is_finite()))
}

/// Unordered pairs among `n` points.
fn pairs(n: usize) -> u64 {
    (n * n.saturating_sub(1) / 2) as u64
}

#[inline]
fn is_denser(a: Key, b: Key) -> bool {
    denser(a.0, a.1, b.0, b.1)
}

/// Offers `other` at distance `d` to `me`'s running answer.
#[inline]
fn relax(b: &mut Nearest, me: Key, other: Key, d: f64, cap: f64) {
    b.2 = b.2.max(d);
    if d <= cap && is_denser(other, me) && (d < b.0 || (d == b.0 && other.1 < b.1)) {
        b.0 = d;
        b.1 = other.1;
    }
}

/// Distance from `q` to the farthest indexed point.
fn farthest(index: &SpatialIndex, q: &[f64], evals: &mut u64) -> f64 {
    let (far, e) = index.max_distance(q);
    *evals += e;
    far
}

/// Clears the `maxd` slot of an answer that found an upslope.
#[inline]
fn settled(b: Nearest) -> Nearest {
    (b.0, b.1, if b.1 == NO_UPSLOPE { b.2 } else { 0.0 })
}

/// One partition's points at cutoff `d_c`, routed once at construction.
pub struct Partition<'a> {
    flat: &'a [f64],
    dim: usize,
    dc: f64,
    /// The index, if routed to one. A `delta` pass orders its leaves by
    /// the pass's keys, in place.
    index: Option<RefCell<SpatialIndex>>,
    /// The vector width of the pairwise route (the index keeps its own).
    isa: Isa,
    /// The index's work over every kernel call so far.
    work: Cell<Work>,
}

impl<'a> Partition<'a> {
    /// The points of `flat` (row-major, `dim` coordinates each; may be
    /// empty) on the route [`use_indexed`] picks, at the CPU's widest
    /// vector width.
    pub fn new(flat: &'a [f64], dim: usize, dc: f64) -> Self {
        let indexed = use_indexed(flat.len() / dim, &[flat]);
        Self::with_route(flat, dim, dc, (indexed, Isa::detect()))
    }

    /// [`Self::new`] on a forced route and vector width, for the tests
    /// that compare them (`indexed` needs finite rows; an empty buffer has
    /// no index).
    #[doc(hidden)]
    pub fn with_route(flat: &'a [f64], dim: usize, dc: f64, (indexed, isa): (bool, Isa)) -> Self {
        let index = (indexed && !flat.is_empty())
            .then(|| RefCell::new(SpatialIndex::build_on(flat, dim, isa)));
        Partition {
            flat,
            dim,
            dc,
            index,
            isa,
            work: Cell::default(),
        }
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.flat.len() / self.dim
    }

    /// Whether the partition holds no points.
    pub fn is_empty(&self) -> bool {
        self.flat.is_empty()
    }

    fn row(&self, i: usize) -> &[f64] {
        &self.flat[i * self.dim..][..self.dim]
    }

    /// The work record of the index's self-join and nearest-denser
    /// searches, summed over every call so far; all zero on the pairwise
    /// route, which has no tree.
    pub fn work(&self) -> Work {
        self.work.get()
    }

    /// The partition's index, if it was routed to one: for a caller that
    /// answers later queries over the same points.
    pub fn into_index(self) -> Option<SpatialIndex> {
        self.index.map(RefCell::into_inner)
    }

    fn index(&self) -> Option<Ref<'_, SpatialIndex>> {
        self.index.as_ref().map(RefCell::borrow)
    }

    /// The index with its leaves ordered by `keys` (one per point), and
    /// the keys laid over it.
    fn keyed_index(&self, keys: &[Key]) -> Option<(Ref<'_, SpatialIndex>, DensityKeys)> {
        let cell = self.index.as_ref()?;
        let density = cell.borrow_mut().order_leaves_by(|p| keys[p as usize]);
        Some((cell.borrow(), density))
    }

    fn note(&self, work: Work) {
        let mut sum = self.work.get();
        sum += work;
        self.work.set(sum);
    }

    /// `rho` of every point: the other points with `d² < d_c²` (strict).
    pub fn rho(&self) -> (Vec<u32>, u64) {
        let dc2 = self.dc * self.dc;
        match self.index() {
            Some(index) => {
                let (rho, work) = index.self_join(dc2);
                self.note(work);
                (rho, work.join_counted)
            }
            None => {
                let mut rho = vec![0u32; self.len()];
                pairs_on(self.isa, self.flat, self.dim, |i, j, d2| {
                    if d2 < dc2 {
                        rho[i] += 1;
                        rho[j] += 1;
                    }
                });
                (rho, pairs(self.len()))
            }
        }
    }

    /// Visits `(i, j, d²)` with `i < j`, once, for every pair of points
    /// whose `labels` differ and `d² < d_c² (1 + 4ε)` — a radius that
    /// admits both `d² < d_c²` and `sqrt(d²) < d_c`, each rounding losing
    /// under an ulp, so callers re-apply their own predicate. When `d_c²`
    /// is not a normal float the radius means nothing and every pair whose
    /// labels differ is visited. A pair with one label is never evaluated:
    /// the pairwise route compares each label group with the groups after
    /// it, the indexed route skips every subtree whose points all carry
    /// the query's label.
    pub fn pairs_across(&self, labels: &[u32], mut visit: impl FnMut(usize, usize, f64)) -> u64 {
        assert_eq!(labels.len(), self.len(), "one label per point");
        let r2 = self.dc * self.dc * (1.0 + 4.0 * f64::EPSILON);
        if let Some(index) = self.index().filter(|_| r2.is_normal()) {
            return index.pairs_across_d2(labels, r2, |i, j, d2| visit(i as usize, j as usize, d2));
        }
        let mut order: Vec<usize> = (0..self.len()).collect();
        order.sort_by_key(|&i| labels[i]);
        let grouped: Vec<f64> = order.iter().flat_map(|&i| self.row(i)).copied().collect();
        let (mut evals, mut start) = (0, 0);
        for group in order.chunk_by(|&a, &b| labels[a] == labels[b]) {
            let end = start + group.len();
            let (rows, later) = grouped[start * self.dim..].split_at(group.len() * self.dim);
            cross_on(self.isa, rows, later, self.dim, |a, b, d2| {
                if !r2.is_normal() || d2 < r2 {
                    let (i, j) = (group[a], order[end + b]);
                    visit(i.min(j), i.max(j), d2);
                }
            });
            evals += (group.len() * (order.len() - end)) as u64;
            start = end;
        }
        evals
    }

    /// Visits `(q, i)` for every row `q` of `queries` and point `i` of the
    /// partition with `d² < d_c²` (strict).
    pub fn within_of(&self, queries: &[f64], mut visit: impl FnMut(usize, usize)) -> u64 {
        let dc2 = self.dc * self.dc;
        match self.index() {
            Some(index) => index.cross_range_count_d2(queries, dc2, |q, i, _| {
                visit(q as usize, i as usize);
            }),
            None => {
                cross_on(self.isa, queries, self.flat, self.dim, |q, i, d2| {
                    if d2 < dc2 {
                        visit(q, i);
                    }
                });
                (queries.len() / self.dim * self.len()) as u64
            }
        }
    }

    /// For every row of `queries`, the number of points of the partition
    /// with `d² < d_c²` (strict) — a query that is itself a finite point
    /// of the partition counts itself. Where only counts are wanted this
    /// is cheaper than [`Self::within_of`]: the index tallies a subtree
    /// wholesale once its box lies inside the ball.
    pub fn count_of(&self, queries: &[f64]) -> (Vec<u32>, u64) {
        let dc2 = self.dc * self.dc;
        let rows = queries.chunks_exact(self.dim);
        match self.index() {
            Some(index) => {
                let mut evals = 0;
                let count = |q| {
                    let (count, e) = index.range_count_d2(q, dc2);
                    evals += e;
                    count
                };
                (rows.map(count).collect(), evals)
            }
            None => {
                let mut counts = vec![0u32; rows.len()];
                cross_on(self.isa, queries, self.flat, self.dim, |q, _, d2| {
                    counts[q] += u32::from(d2 < dc2);
                });
                let evals = (counts.len() * self.len()) as u64;
                (counts, evals)
            }
        }
    }

    /// `delta` of every point among the partition's own points, `keys[i]`
    /// being point `i`'s key. `emit(i, answer)` runs once per point, in
    /// ascending `i` on either route. The indexed route visits the index
    /// leaf by leaf: each point's search scans the denser points of its
    /// own leaf first, then the rest of the tree best-first.
    pub fn delta(&self, keys: &[Key], maxd: bool, mut emit: impl FnMut(usize, Nearest)) -> u64 {
        let n = self.len();
        assert_eq!(keys.len(), n, "one key per point");
        let mut best = vec![UNANSWERED; n];
        let mut evals = 0u64;
        if let Some((index, density)) = self.keyed_index(keys) {
            let mut search = DenserSearch::new(&index, density);
            for (leaf, ids) in index.leaves() {
                for &i in ids {
                    let (i, q) = (i as usize, self.row(i as usize));
                    let fresh = ((f64::INFINITY, NO_UPSLOPE), NO_CAP, Some(leaf));
                    let ((d, u), e) = search.nearest(q, keys[i], fresh);
                    evals += e;
                    // Only the densest point has no upslope.
                    let far = match u {
                        NO_UPSLOPE if maxd => farthest(&index, q, &mut evals),
                        _ => 0.0,
                    };
                    best[i] = (d, u, far);
                }
            }
            self.note(search.work);
        } else {
            // `d2.sqrt()` is bit-identical to the Euclidean `distance`.
            pairs_on(self.isa, self.flat, self.dim, |i, j, d2| {
                let d = d2.sqrt();
                if maxd {
                    best[i].2 = best[i].2.max(d);
                    best[j].2 = best[j].2.max(d);
                }
                let (slot, cand) = if is_denser(keys[i], keys[j]) {
                    (j, keys[i].1)
                } else {
                    (i, keys[j].1)
                };
                let b = &mut best[slot];
                if d < b.0 || (d == b.0 && cand < b.1) {
                    b.0 = d;
                    b.1 = cand;
                }
            });
            evals = pairs(n);
        }
        for (i, b) in best.into_iter().enumerate() {
            emit(i, settled(b));
        }
        evals
    }

    /// `delta` of outside points among the partition's points: row `q` of
    /// `queries`, keyed `qkeys[q]`, continues from `start(q)` — its best
    /// `(delta, upslope)` so far and a cap beyond which candidates do not
    /// count (`d <= cap`). `emit(q, answer)` runs once per query, `maxd`
    /// filled.
    pub fn delta_of(
        &self,
        keys: &[Key],
        queries: &[f64],
        qkeys: &[Key],
        start: impl Fn(usize) -> ((f64, PointId), f64),
        mut emit: impl FnMut(usize, Nearest),
    ) -> u64 {
        assert_eq!(keys.len(), self.len(), "one key per point");
        assert_eq!(qkeys.len(), queries.len() / self.dim, "one key per query");
        if let Some((index, density)) = self.keyed_index(keys) {
            let mut evals = 0u64;
            let mut search = DenserSearch::new(&index, density);
            for (q, row) in queries.chunks_exact(self.dim).enumerate() {
                let (init, cap) = start(q);
                let ((d, u), e) = search.nearest(row, qkeys[q], (init, cap, None));
                evals += e;
                let far = match u {
                    NO_UPSLOPE => farthest(&index, row, &mut evals),
                    _ => 0.0,
                };
                emit(q, (d, u, far));
            }
            self.note(search.work);
            return evals;
        }
        let (mut best, caps): (Vec<Nearest>, Vec<f64>) = (0..qkeys.len())
            .map(|q| {
                let ((d, u), cap) = start(q);
                ((d, u, 0.0), cap)
            })
            .unzip();
        cross_on(self.isa, queries, self.flat, self.dim, |q, i, d2| {
            relax(&mut best[q], qkeys[q], keys[i], d2.sqrt(), caps[q]);
        });
        for (q, b) in best.into_iter().enumerate() {
            emit(q, settled(b));
        }
        (qkeys.len() * self.len()) as u64
    }

    /// Both directions between this partition and an outside block `b`:
    /// every point of the partition continues its search (`best`, updated
    /// in place, `maxd` merged) among the points of `b`, and every point
    /// of `b` searches the partition from scratch, answered through
    /// `emit_b`. `b` is worth an index only beside this partition's own;
    /// with either side pairwise, one pass over the `n × |b|` pairs serves
    /// both directions — so a schedule that brings every pair of blocks
    /// together once evaluates every pair once.
    pub fn delta_between(
        &self,
        keys: &[Key],
        best: &mut [Nearest],
        (b_flat, b_keys): (&[f64], &[Key]),
        mut emit_b: impl FnMut(usize, Nearest),
    ) -> u64 {
        assert_eq!(keys.len(), self.len(), "one key per point");
        assert_eq!(best.len(), self.len(), "one running answer per point");
        let indexed = self.index.is_some() && use_indexed(b_keys.len(), &[b_flat]);
        let b = Partition::with_route(b_flat, self.dim, self.dc, (indexed, self.isa));
        if b.index.is_none() {
            let mut b_best = vec![UNANSWERED; b.len()];
            cross_on(self.isa, b_flat, self.flat, self.dim, |q, i, d2| {
                let d = d2.sqrt();
                relax(&mut best[i], keys[i], b_keys[q], d, NO_CAP);
                relax(&mut b_best[q], b_keys[q], keys[i], d, NO_CAP);
            });
            for x in best.iter_mut() {
                *x = settled(*x);
            }
            for (q, x) in b_best.into_iter().enumerate() {
                emit_b(q, settled(x));
            }
            return (self.len() * b.len()) as u64;
        }
        let from: Vec<Nearest> = best.to_vec();
        let mut evals = b.delta_of(
            b_keys,
            self.flat,
            keys,
            |i| ((from[i].0, from[i].1), NO_CAP),
            |i, (d, u, far)| best[i] = settled((d, u, from[i].2.max(far))),
        );
        self.note(b.work());
        let scratch = |_| ((f64::INFINITY, NO_UPSLOPE), NO_CAP);
        evals += self.delta_of(keys, b_flat, b_keys, scratch, emit_b);
        evals
    }
}
