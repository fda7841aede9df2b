//! Property tests for the lifecycle wire formats: the versioned model
//! header and the delta-batch codec must round-trip arbitrary values,
//! honor the `encoded length == shuffle_bytes()` size contract, and
//! error on every truncated prefix rather than misread one. A fixed
//! write-ahead-log record pins the log's on-disk framing.

use ingest::{DeltaBatch, DeltaOp, Wal};
use mapreduce::wire::{decode, encode, Wire};
use mapreduce::ShuffleSize;
use proptest::prelude::*;
use serve::ModelHeader;

fn check_roundtrip<T: Wire + ShuffleSize + PartialEq + std::fmt::Debug>(value: &T) {
    let bytes = encode(value);
    assert_eq!(
        bytes.len() as u64,
        value.shuffle_bytes(),
        "size contract for {value:?}"
    );
    let back: T = decode(&bytes).expect("well-formed buffer must decode");
    assert_eq!(&back, value);
}

fn check_truncations<T: Wire + ShuffleSize>(value: &T) {
    let bytes = encode(value);
    for cut in 0..bytes.len() {
        assert!(
            decode::<T>(&bytes[..cut]).is_err(),
            "decoding a {cut}-byte prefix of a {}-byte encoding must fail",
            bytes.len()
        );
    }
}

fn delta_op() -> impl Strategy<Value = DeltaOp> {
    (
        any::<bool>(),
        proptest::collection::vec(-1e9f64..1e9, 0..8),
        any::<u64>(),
    )
        .prop_map(|(insert, coords, key)| {
            if insert {
                DeltaOp::Insert(coords)
            } else {
                DeltaOp::Delete(key)
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn model_headers_round_trip(
        version in any::<u64>(),
        algorithm in any::<String>(),
        dim in any::<u64>(),
        n_points in any::<u64>(),
        n_clusters in any::<u64>(),
    ) {
        let header = ModelHeader {
            format: 2,
            version,
            algorithm,
            dim,
            n_points,
            n_clusters,
        };
        check_roundtrip(&header);
        check_truncations(&header);
    }

    #[test]
    fn delta_batches_round_trip(
        model_version in any::<u64>(),
        seq in any::<u64>(),
        ops in proptest::collection::vec(delta_op(), 0..12),
    ) {
        let batch = DeltaBatch { model_version, seq, ops };
        check_roundtrip(&batch);
        check_truncations(&batch);
    }

    #[test]
    fn corrupt_leading_bytes_never_decode(
        seq in any::<u64>(),
        flip in 0usize..8,
    ) {
        // The magic/format prefix guards both codecs: flipping any of
        // the first eight bytes must be caught (magic mismatch, format
        // mismatch, or a checksummed layer above).
        let batch = DeltaBatch { model_version: 1, seq, ops: vec![DeltaOp::Delete(3)] };
        let mut bytes = encode(&batch);
        bytes[flip] ^= 0xa5;
        prop_assert!(decode::<DeltaBatch>(&bytes).is_err());
    }
}

/// One record as the log stores it: `u32` length, then the batch
/// `{ model_version: 4, seq: 3, ops: [Insert([1.5, -2.0]), Delete(7)] }`
/// framed with an FNV-1a trailer. Logs outlive builds, so this layout
/// must keep replaying, whatever checksum transient frames use.
const FNV_RECORD: &str = "420000004c44504201000000040000000000000003000000000000000200\
    00000002000000000000000000f83f00000000000000c00107000000000000000eb6ee79ae56ad57";

#[test]
fn fnv_framed_wal_record_fixture_replays() {
    let bytes: Vec<u8> = (0..FNV_RECORD.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&FNV_RECORD[i..i + 2], 16).unwrap())
        .collect();
    let want = DeltaBatch {
        model_version: 4,
        seq: 3,
        ops: vec![DeltaOp::Insert(vec![1.5, -2.0]), DeltaOp::Delete(7)],
    };
    let dir = std::env::temp_dir().join(format!("wal-fixture-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("fixture.wal");
    std::fs::write(&path, &bytes).unwrap();
    let (_, rec) = Wal::open(&path).unwrap();
    assert_eq!(rec.torn_bytes, 0);
    assert_eq!(rec.batches, vec![want.clone()]);

    // Appending the same batch writes the same bytes.
    std::fs::remove_file(&path).unwrap();
    Wal::open(&path).unwrap().0.append(&want).unwrap();
    assert_eq!(std::fs::read(&path).unwrap(), bytes);
    std::fs::remove_dir_all(&dir).ok();
}
