//! Property tests for the wire encoding: every `Wire` impl must
//! round-trip arbitrary values, report its serialized size exactly
//! (`encoded length == shuffle_bytes()` — the contract the shuffle-byte
//! accounting depends on), and fail loudly on truncated or oversized
//! buffers instead of misreading them.

use mapreduce::wire::{decode, encode, Wire, WireError};
use mapreduce::ShuffleSize;
use proptest::prelude::*;

/// Round-trip + size contract in one check.
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

/// Every strict prefix of a valid encoding must error — never decode to
/// some other value, never panic.
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn scalars_round_trip(a in any::<u32>(), b in any::<i64>(), c in any::<f64>(), d in any::<bool>()) {
        check_roundtrip(&a);
        check_roundtrip(&b);
        check_roundtrip(&d);
        // NaN != NaN breaks the equality check, not the codec; the bit
        // pattern is what travels, so compare via bits.
        let bytes = encode(&c);
        prop_assert_eq!(bytes.len() as u64, c.shuffle_bytes());
        let back: f64 = decode(&bytes).expect("decode f64");
        prop_assert_eq!(back.to_bits(), c.to_bits());
    }

    #[test]
    fn strings_round_trip(s in any::<String>()) {
        check_roundtrip(&s);
    }

    #[test]
    fn keyed_record_vectors_round_trip(
        records in proptest::collection::vec((any::<u32>(), any::<String>(), any::<u64>()), 0..40),
    ) {
        check_roundtrip(&records);
    }

    #[test]
    fn point_records_round_trip(
        coords in proptest::collection::vec(-1e12f64..1e12, 0..64),
        id in any::<u32>(),
        some_tag in any::<bool>(),
        tag in any::<u16>(),
    ) {
        let tag = some_tag.then_some(tag);
        check_roundtrip(&coords);
        check_roundtrip(&(id, coords.clone()));
        check_roundtrip(&tag);
        check_roundtrip(&(id, tag, coords));
    }

    #[test]
    fn nested_vectors_round_trip(
        rows in proptest::collection::vec(
            proptest::collection::vec(any::<i32>(), 0..10),
            0..10,
        ),
    ) {
        check_roundtrip(&rows);
    }

    #[test]
    fn every_truncation_of_a_valid_buffer_errors(
        coords in proptest::collection::vec(any::<f64>(), 0..16),
        s in any::<String>(),
        pair in (any::<u64>(), any::<String>()),
    ) {
        check_truncations(&coords);
        check_truncations(&s);
        check_truncations(&pair);
    }

    #[test]
    fn trailing_bytes_are_rejected_not_ignored(
        value in (any::<u32>(), proptest::collection::vec(any::<f64>(), 0..8)),
        extra in proptest::collection::vec(any::<u8>(), 1..16),
    ) {
        let mut bytes = encode(&value);
        let n = extra.len();
        bytes.extend(extra);
        // Depending on what the garbage parses as, the decoder reports
        // either leftover bytes or a corrupt field — never success.
        match decode::<(u32, Vec<f64>)>(&bytes) {
            Err(WireError::TrailingBytes(k)) => prop_assert_eq!(k, n),
            Err(_) => {}
            Ok(_) => prop_assert!(false, "decode must not accept trailing garbage"),
        }
    }
}

#[test]
fn corrupt_length_prefix_does_not_allocate_or_panic() {
    // A Vec length prefix claiming u32::MAX elements with a 4-byte body:
    // the defensive capacity cap must keep this a clean error.
    let mut bytes = Vec::new();
    u32::MAX.write(&mut bytes);
    0u32.write(&mut bytes);
    assert!(matches!(
        decode::<Vec<u64>>(&bytes),
        Err(WireError::Truncated)
    ));
}

#[test]
fn invalid_scalar_payloads_are_corrupt_not_garbage() {
    // bool accepts only 0 and 1.
    assert!(matches!(decode::<bool>(&[7]), Err(WireError::Corrupt(_))));
    // Strings must be UTF-8.
    let mut bytes = Vec::new();
    2u32.write(&mut bytes);
    bytes.extend([0xff, 0xfe]);
    assert!(matches!(
        decode::<String>(&bytes),
        Err(WireError::Corrupt(_))
    ));
}

/// Shared coordinate rows (`Arc<[f64]>`) are a resident-memory choice
/// only: they encode byte for byte as `Vec<f64>`, meter the same
/// shuffle bytes, round-trip through a spill segment frame, and a flipped
/// byte anywhere in the frame still fails its checksum.
#[test]
fn shared_rows_encode_as_vecs_and_survive_a_spill_frame() {
    use mapreduce::spill::{SegmentWriter, SpillDir};
    use mapreduce::wire::{decode_framed, encode_framed};
    use std::sync::Arc;

    let rows: Vec<(u32, Arc<[f64]>)> = (0..6)
        .map(|i| (i, Arc::from(vec![i as f64, -0.5, f64::MAX])))
        .collect();
    let vecs: Vec<(u32, Vec<f64>)> = rows.iter().map(|(k, c)| (*k, c.to_vec())).collect();
    assert_eq!(encode(&rows), encode(&vecs), "byte for byte as Vec<T>");
    assert_eq!(rows.shuffle_bytes(), vecs.shuffle_bytes());
    check_roundtrip(&rows);
    check_truncations(&rows);

    let dir = SpillDir::create("shared-rows").unwrap();
    let mut w = SegmentWriter::create(dir.segment_path("seg")).unwrap();
    let meta = w.write_frame(&rows).unwrap();
    let expect: u64 = vecs.iter().map(ShuffleSize::shuffle_bytes).sum();
    assert_eq!(meta.record_bytes(), expect);
    let back: Vec<(u32, Arc<[f64]>)> = w.finish().unwrap().read_frame(&meta).unwrap();
    assert_eq!(back, rows);

    let frame = encode_framed(&rows);
    for i in 0..frame.len() {
        let mut bad = frame.clone();
        bad[i] ^= 0x01;
        assert!(
            matches!(
                decode_framed::<Vec<(u32, Arc<[f64]>)>>(&bad),
                Err(WireError::ChecksumMismatch { .. })
            ),
            "flip at byte {i} must fail the checksum"
        );
    }
}
