//! LSH-DDP's inline shuffle key against the `(u16, Vec<i64>)` tuple it
//! replaced: the engine must not be able to tell them apart, so every
//! bucket keeps its reduce task, its position in the sorted shuffle and
//! its wire bytes, at every `pi` (inline up to `INLINE_SLOTS`, boxed
//! above).

use ddp::common::PointRecord;
use ddp::lsh_ddp::{PartitionKey, INLINE_SLOTS};
use mapreduce::{decode, encode, partition, ShuffleSize};
use proptest::prelude::*;
use std::hash::{Hash, Hasher};

#[test]
fn a_shuffled_record_is_64_bytes_with_no_heap_of_its_own() {
    // M records per point: every byte here is M x N resident bytes. The
    // `(u16, Vec<i64>)` + `(u32, Vec<f64>)` record was 64 bytes too, plus
    // a heap signature and a heap row of its own.
    assert_eq!(std::mem::size_of::<(PartitionKey, PointRecord)>(), 64);
}

fn sip<T: Hash>(v: &T) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    v.hash(&mut h);
    h.finish()
}

/// `(m, G_m(p))` from a small alphabet, so ties and shared prefixes are
/// common, at every `pi` from 1 to 6.
fn layout_keys() -> impl Strategy<Value = (u16, Vec<i64>)> {
    (0u16..3, proptest::collection::vec(-2i64..2, 1..=6))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Order, equality, hash, reduce task, wire bytes and shuffle size
    /// all match the tuple's.
    #[test]
    fn partition_key_behaves_as_the_tuple_it_replaces(
        a in layout_keys(),
        b in layout_keys(),
        wide in proptest::collection::vec(any::<i64>(), 1..=6),
    ) {
        let key = |(m, sig): &(u16, Vec<i64>)| PartitionKey::new(*m, sig.iter().copied());
        let (ka, kb) = (key(&a), key(&b));
        prop_assert_eq!(
            matches!(ka, PartitionKey::Heap { .. }),
            a.1.len() > INLINE_SLOTS
        );
        prop_assert_eq!(ka.cmp(&kb), a.cmp(&b));
        prop_assert_eq!(ka == kb, a == b);
        let c = (b.0, wide);
        for (k, t) in [(&ka, &a), (&kb, &b), (&key(&c), &c)] {
            prop_assert_eq!(k.parts(), (t.0, &t.1[..]));
            prop_assert_eq!(sip(k), sip(t));
            for tasks in [1, 7, 64, 256] {
                prop_assert_eq!(partition(k, tasks), partition(t, tasks));
            }
            prop_assert_eq!(encode(k), encode(t));
            prop_assert_eq!(k.shuffle_bytes(), t.shuffle_bytes());
            prop_assert_eq!(&decode::<PartitionKey>(&encode(t)).unwrap(), k);
        }
    }

    /// `cmp` is the order of `(m, &sig[..])` — also where two inline keys
    /// of one length take the whole-array comparison, and across lengths
    /// and the inline/boxed boundary — and `Eq` and `Hash` still answer
    /// as that tuple.
    #[test]
    fn partition_key_cmp_is_the_order_of_m_then_the_signature(
        a in signed_keys(),
        b in signed_keys(),
        same_len in any::<bool>(),
    ) {
        let mut b = b;
        if same_len {
            b.1.resize(a.1.len(), 0);
        }
        let (ka, kb) = (
            PartitionKey::new(a.0, a.1.iter().copied()),
            PartitionKey::new(b.0, b.1.iter().copied()),
        );
        let (ta, tb) = ((a.0, &a.1[..]), (b.0, &b.1[..]));
        prop_assert_eq!(ka.cmp(&kb), ta.cmp(&tb));
        prop_assert_eq!(kb.cmp(&ka), tb.cmp(&ta));
        prop_assert_eq!(ka.partial_cmp(&kb), Some(ta.cmp(&tb)));
        prop_assert_eq!(ka.cmp(&ka.clone()), std::cmp::Ordering::Equal);
        prop_assert_eq!(ka == kb, ta == tb);
        prop_assert_eq!((sip(&ka), sip(&kb)), (sip(&ta), sip(&tb)));
    }
}

/// Keys from layout 0..3 with signatures of 0 to 7 slots — inline and
/// boxed — drawn around zero and at the extremes of `i64`.
fn signed_keys() -> impl Strategy<Value = (u16, Vec<i64>)> {
    let slot = (0u8..4, -3i64..3, any::<i64>()).prop_map(|(pick, small, wide)| match pick {
        0 => i64::MIN,
        1 => i64::MAX,
        2 => wide,
        _ => small,
    });
    (0u16..3, proptest::collection::vec(slot, 0..=7))
}
