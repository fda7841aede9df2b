//! Local Density Peaks: the one per-partition computation of the paper
//! (§IV) — `rho` as a count within `d_c`, `delta` as the nearest denser
//! point — over a flat row-major buffer. Basic-DDP, LSH-DDP, EDDPC and the
//! halo passes differ only in which partitions they feed it.
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
//! pairwise route `n (n - 1) / 2` for a self pass and `queries × n` for a
//! cross pass, the indexed route what its traversals and seeds evaluated.
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

use crate::distance::{cross_on, pairs_on, squared_euclidean};
use crate::dp::{denser, density_order, NO_UPSLOPE};
use crate::index::{DenserSearch, SpatialIndex};
use crate::point::PointId;
use crate::simd::Isa;

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
    index: Option<SpatialIndex>,
    /// The vector width of the pairwise route (the index keeps its own).
    isa: Isa,
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
        let index =
            (indexed && !flat.is_empty()).then(|| SpatialIndex::build_on(flat, dim, dc, isa));
        Partition {
            flat,
            dim,
            dc,
            index,
            isa,
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

    /// `rho` of every point: the other points with `d² < d_c²` (strict).
    pub fn rho(&self) -> (Vec<u32>, u64) {
        let dc2 = self.dc * self.dc;
        match &self.index {
            Some(index) => index.self_join_d2(dc2),
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
    /// with `d² < d_c² (1 + 4ε)` — a radius that admits both `d² < d_c²`
    /// and `sqrt(d²) < d_c`, each rounding losing under an ulp — and
    /// possibly for farther pairs too (the pairwise route hands over every
    /// pair, as does a `d_c` whose square is not a normal float). Callers
    /// apply their own predicate to `d²`.
    pub fn pairs_near(&self, mut visit: impl FnMut(usize, usize, f64)) -> u64 {
        let r2 = self.dc * self.dc * (1.0 + 4.0 * f64::EPSILON);
        match &self.index {
            Some(index) if r2.is_normal() => {
                let mut evals = 0;
                for (i, q) in self.flat.chunks_exact(self.dim).enumerate() {
                    evals += index.for_each_within_d2(q, r2, |j, d2| {
                        if j as usize > i {
                            visit(i, j as usize, d2);
                        }
                    });
                }
                evals
            }
            _ => {
                pairs_on(self.isa, self.flat, self.dim, visit);
                pairs(self.len())
            }
        }
    }

    /// Visits `(q, i)` for every row `q` of `queries` and point `i` of the
    /// partition with `d² < d_c²` (strict).
    pub fn within_of(&self, queries: &[f64], mut visit: impl FnMut(usize, usize)) -> u64 {
        let dc2 = self.dc * self.dc;
        match &self.index {
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
        match &self.index {
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
    /// being point `i`'s key. `emit(i, answer)` runs once per point, in an
    /// order that is a function of the input alone: ascending `i` on the
    /// pairwise route, descending density on the indexed one, where each
    /// point's predecessor — denser by construction — seeds its search
    /// with a finite bound (the sorted-`rho` scan of [`crate::fast`]).
    pub fn delta(&self, keys: &[Key], maxd: bool, mut emit: impl FnMut(usize, Nearest)) -> u64 {
        let n = self.len();
        assert_eq!(keys.len(), n, "one key per point");
        let Some(index) = &self.index else {
            let mut best = vec![UNANSWERED; n];
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
            for (i, b) in best.into_iter().enumerate() {
                emit(i, settled(b));
            }
            return pairs(n);
        };
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.sort_by(|&a, &b| {
            let (ka, kb) = (keys[a as usize], keys[b as usize]);
            density_order(ka.0, ka.1, kb.0, kb.1)
        });
        let mut evals = 0u64;
        let mut search = DenserSearch::new(index, |p| keys[p as usize]);
        let mut seed: Option<usize> = None;
        for &i in &order {
            let i = i as usize;
            let q = self.row(i);
            let answer = match seed {
                // The densest point has no candidate: nothing to search.
                None if maxd => (f64::INFINITY, NO_UPSLOPE, farthest(index, q, &mut evals)),
                None => UNANSWERED,
                // A seeded search always ends with an upslope.
                Some(s) => {
                    evals += 1;
                    let init = (squared_euclidean(q, self.row(s)).sqrt(), keys[s].1);
                    let ((d, u), e) = search.nearest(q, keys[i], init, NO_CAP);
                    evals += e;
                    (d, u, 0.0)
                }
            };
            emit(i, answer);
            seed = Some(i);
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
        if let Some(index) = &self.index {
            let mut evals = 0u64;
            let mut search = DenserSearch::new(index, |p| keys[p as usize]);
            for (q, row) in queries.chunks_exact(self.dim).enumerate() {
                let (init, cap) = start(q);
                let ((d, u), e) = search.nearest(row, qkeys[q], init, cap);
                evals += e;
                let far = match u {
                    NO_UPSLOPE => farthest(index, row, &mut evals),
                    _ => 0.0,
                };
                emit(q, (d, u, far));
            }
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
        let scratch = |_| ((f64::INFINITY, NO_UPSLOPE), NO_CAP);
        evals += self.delta_of(keys, b_flat, b_keys, scratch, emit_b);
        evals
    }
}
