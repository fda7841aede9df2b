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
}
