//! The merge laws: every `Merge` of the aggregate jobs is associative
//! and commutative bit for bit, so no aggregate depends on the map split
//! or the reduce task count.

use ddp::common::{DeltaPartial, MinDelta, MinLocalDelta, RhoMax, RhoSum};
use dp_core::dp::NO_UPSLOPE;
use dp_core::PointId;
use mapreduce::Merge;
use proptest::prelude::*;

/// Deltas that collide often, plus the edge cases the merges must
/// order: infinity, both zeros and NaNs of two payloads.
fn delta_value() -> impl Strategy<Value = f64> {
    (0u8..10, 0.0f64..8.0).prop_map(|(k, x)| match k {
        0 => f64::INFINITY,
        1 => f64::NAN,
        2 => f64::from_bits(0xfff8_0000_0000_0001),
        3 => -0.0,
        4..=7 => f64::from(k - 4),
        _ => x,
    })
}

fn upslope() -> impl Strategy<Value = PointId> {
    (0u32..5).prop_map(|u| if u == 4 { NO_UPSLOPE } else { u })
}

fn partial() -> impl Strategy<Value = DeltaPartial> {
    (delta_value(), upslope(), delta_value())
}

/// `merge(a, b)`: `b` folded into `a`.
fn m<G: Merge>(g: &G, mut a: G::Value, b: G::Value) -> G::Value {
    g.merge(&mut a, b);
    a
}

/// Asserts associativity and commutativity of `g`, comparing values
/// through `bits`.
fn laws<G: Merge, B: PartialEq + std::fmt::Debug>(
    g: &G,
    (a, b, c): (G::Value, G::Value, G::Value),
    bits: impl Fn(&G::Value) -> B,
) where
    G::Value: Copy,
{
    prop_assert_eq!(bits(&m(g, m(g, a, b), c)), bits(&m(g, a, m(g, b, c))));
    prop_assert_eq!(bits(&m(g, a, b)), bits(&m(g, b, a)));
}

proptest! {
    /// Every merge of the aggregate jobs is associative and commutative
    /// bit for bit, so no aggregate depends on the map split or the
    /// reduce task count. (k-means' f64 partial sums are the one
    /// merge exempt: f64 addition is not associative.)
    #[test]
    fn merges_are_associative_and_commutative(
        r in (0u32..u32::MAX / 3, 0u32..u32::MAX / 3, 0u32..u32::MAX / 3),
        p in (partial(), partial(), partial()),
    ) {
        laws(&RhoSum, r, |v| *v);
        laws(&RhoMax, r, |v| *v);
        let local = |(d, u, _): DeltaPartial| (d, u);
        let l = (local(p.0), local(p.1), local(p.2));
        laws(&MinLocalDelta, l, |&(d, u)| (d.to_bits(), u));
        laws(&MinDelta, p, |&(d, u, x)| (d.to_bits(), u, x.to_bits()));
    }
}

#[test]
fn nan_partials_lose_to_every_number() {
    let nan = (f64::NAN, 0, f64::NAN);
    let peak = (f64::INFINITY, NO_UPSLOPE, 0.0);
    assert_eq!(m(&MinDelta, nan, peak), peak);
    assert_eq!(m(&MinDelta, peak, nan), peak);
    assert_eq!(m(&MinLocalDelta, (f64::NAN, 0), (7.0, 3)), (7.0, 3));
    // A finite delta beats the locally densest point's infinity, and
    // equal deltas go to the smaller upslope.
    assert_eq!(
        m(&MinLocalDelta, (f64::INFINITY, NO_UPSLOPE), (7.0, 3)),
        (7.0, 3)
    );
    assert_eq!(m(&MinLocalDelta, (7.0, 3), (7.0, 2)), (7.0, 2));
}
