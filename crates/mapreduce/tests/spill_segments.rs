//! Property tests for the disk spill tier: segment files must round-trip
//! arbitrary batches through the wire codec, meter bytes exactly as the
//! `ShuffleSize` accounting does, serve arbitrary range reads identically
//! to resident slicing, and recover the intact prefix of a segment whose
//! tail was torn by a mid-write kill. The frame checksum itself is
//! checked against flips, truncations and word swaps.

use mapreduce::io_shim::FaultFs;
use mapreduce::spill::{scan_frames, SegmentWriter, SpillDir, SpillError, SpilledRows};
use mapreduce::FaultPlan;
use mapreduce::{frame_checksum64, ShuffleSize, WireError};
use proptest::prelude::*;

type Row = (u32, Vec<f64>);

/// Arbitrary non-empty batches of keyed float rows — the shape every
/// shuffle partition and snapshot spill writes.
fn batches() -> impl Strategy<Value = Vec<Vec<Row>>> {
    proptest::collection::vec(
        proptest::collection::vec(
            (any::<u32>(), proptest::collection::vec(any::<f64>(), 0..6)),
            1..20,
        ),
        1..8,
    )
}

/// f64 payloads travel as bit patterns; NaN breaks `==` but not the
/// codec, so compare rows via bits.
fn rows_eq(a: &[Row], b: &[Row]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|((ka, va), (kb, vb))| {
            ka == kb
                && va.len() == vb.len()
                && va.iter().zip(vb).all(|(x, y)| x.to_bits() == y.to_bits())
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every frame written comes back intact via positioned reads, and
    /// each frame's metered bytes equal the sum of its records'
    /// `ShuffleSize` — the contract that makes spilled and resident
    /// partitions account identically.
    #[test]
    fn segments_round_trip_and_meter_exactly(batches in batches()) {
        let dir = SpillDir::create("prop-roundtrip").unwrap();
        let mut w = SegmentWriter::create(dir.segment_path("seg")).unwrap();
        let metas: Vec<_> = batches
            .iter()
            .map(|b| w.write_frame(b).unwrap())
            .collect();
        for (batch, meta) in batches.iter().zip(&metas) {
            let expect: u64 = batch.iter().map(ShuffleSize::shuffle_bytes).sum();
            prop_assert_eq!(meta.record_bytes(), expect);
            prop_assert_eq!(meta.records as usize, batch.len());
        }
        let seg = w.finish().unwrap();
        // Read back out of write order: positioned reads share one handle.
        for (batch, meta) in batches.iter().zip(&metas).rev() {
            let back: Vec<Row> = seg.read_frame(meta).unwrap();
            prop_assert!(rows_eq(&back, batch));
        }
    }

    /// `SpilledRows::read_range` equals resident slicing for every
    /// subrange, regardless of how rows were batched into frames.
    #[test]
    fn spilled_range_reads_match_resident_slicing(
        batches in batches(),
        seed in any::<u64>(),
    ) {
        let flat: Vec<Row> = batches.concat();
        let spilled = SpilledRows::from_batches("prop-range", batches).unwrap();
        prop_assert_eq!(spilled.len(), flat.len());
        prop_assert!(rows_eq(&spilled.read_range(0, spilled.len()), &flat));
        // A handful of deterministic pseudo-random subranges.
        let n = flat.len();
        let mut state = seed | 1;
        for _ in 0..8 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let a = (state >> 33) as usize % (n + 1);
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let b = (state >> 33) as usize % (n + 1);
            let (s, e) = (a.min(b), a.max(b));
            prop_assert!(rows_eq(&spilled.read_range(s, e), &flat[s..e]));
        }
    }

    /// Truncating a segment at *any* byte boundary leaves a recoverable
    /// file: `scan_frames` returns exactly the frames wholly inside the
    /// cut and flags the torn tail — never panics, never misdecodes.
    #[test]
    fn torn_tail_truncation_recovers_the_intact_prefix(
        batches in batches(),
        cut_frac in 0.0f64..1.0,
    ) {
        let dir = SpillDir::create("prop-torn").unwrap();
        let path = dir.segment_path("seg");
        let mut w = SegmentWriter::create(path.clone()).unwrap();
        // Frame boundaries: ends[i] = file offset after frame i.
        let mut ends = Vec::new();
        for b in &batches {
            w.write_frame(b).unwrap();
            ends.push(w.offset());
        }
        let total = w.offset();
        drop(w); // keep the file, as a killed writer would

        let cut = (total as f64 * cut_frac) as u64;
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..cut as usize]).unwrap();

        let outcome = scan_frames::<Row>(&path).unwrap();
        let intact = ends.iter().filter(|e| **e <= cut).count();
        prop_assert_eq!(outcome.frames.len(), intact);
        prop_assert_eq!(outcome.torn_tail, intact < batches.len());
        for (back, batch) in outcome.frames.iter().zip(&batches) {
            prop_assert!(rows_eq(back, batch));
        }
    }

    /// Flipping one byte inside a frame is caught by the checksum: the
    /// scan stops at the last frame before the corruption.
    #[test]
    fn corrupted_frames_never_misdecode(
        batches in batches(),
        pos_frac in 0.0f64..1.0,
        xor in 1u8..=255,
    ) {
        let dir = SpillDir::create("prop-corrupt").unwrap();
        let path = dir.segment_path("seg");
        let mut w = SegmentWriter::create(path.clone()).unwrap();
        let mut ends = Vec::new();
        for b in &batches {
            w.write_frame(b).unwrap();
            ends.push(w.offset());
        }
        let total = w.offset() as usize;
        drop(w);

        let mut bytes = std::fs::read(&path).unwrap();
        let pos = ((total as f64 * pos_frac) as usize).min(total - 1);
        bytes[pos] ^= xor;
        std::fs::write(&path, &bytes).unwrap();

        let outcome = scan_frames::<Row>(&path).unwrap();
        // Frames before the corrupted one decode; whether the scan gets
        // past the flipped byte depends on where it landed (a length
        // word, a checksum, or payload bits that still sum right is
        // impossible — the frame checksum catches any change confined to
        // one word, so any single-byte flip), so the strong
        // guarantee is: every returned frame matches what was written,
        // and the frame containing the flipped byte is never returned
        // as anything *other* than its original content.
        let first_hit = ends.iter().position(|e| pos < *e as usize).unwrap();
        prop_assert!(outcome.frames.len() <= first_hit);
        for (back, batch) in outcome.frames.iter().zip(&batches) {
            prop_assert!(rows_eq(back, batch));
        }
        prop_assert!(outcome.torn_tail);
    }

    /// Writing a segment under an arbitrary seeded storage-fault plan —
    /// transient EIO, ENOSPC, clean and torn power cuts — never leaves a
    /// file whose recovery scan misdecodes: whatever survives is an
    /// intact prefix of the written frames. And a `finish()` that
    /// returned `Ok` is a real durability acknowledgement — every frame
    /// must be readable afterwards.
    #[test]
    fn segments_under_storage_fault_mixes_recover_an_intact_prefix(
        batches in batches(),
        seed in any::<u64>(),
        eio in 0u32..300,
        enospc in 0u32..30,
        crash in 0u32..30,
        torn in 0u32..30,
    ) {
        let dir = SpillDir::create("prop-faults").unwrap();
        let path = dir.segment_path("seg");
        let fs = FaultFs::with_plan(FaultPlan {
            seed,
            eio_per_mille: eio,
            enospc_per_mille: enospc,
            crash_per_mille: crash,
            torn_per_mille: torn,
            ..Default::default()
        });

        let mut written = 0usize;
        // Hold the finished segment alive: dropping it deletes the file.
        let finished = (|| {
            let mut w = SegmentWriter::create_with(path.clone(), fs.clone())?;
            for b in &batches {
                w.write_frame(b)?;
                written += 1;
            }
            w.finish()
        })();

        if path.exists() {
            let outcome = scan_frames::<Row>(&path).unwrap();
            if finished.is_ok() {
                // `finish` fsynced and propagated any failure (the old
                // `.ok()` swallow would break exactly this property):
                // an acknowledged segment serves every frame.
                prop_assert_eq!(outcome.frames.len(), batches.len());
                prop_assert!(!outcome.torn_tail);
            }
            prop_assert!(outcome.frames.len() <= written);
            for (back, batch) in outcome.frames.iter().zip(&batches) {
                prop_assert!(rows_eq(back, batch));
            }
        } else {
            // The file only fails to exist if its creation was faulted.
            prop_assert!(finished.is_err());
        }
    }
}

/// 4 KiB of pseudo-random bytes: 512 words, pairwise distinct.
fn payload() -> Vec<u8> {
    let mut state = 0x2545_f491_4f6c_dd1du64;
    (0..512)
        .flat_map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state.to_le_bytes()
        })
        .collect()
}

#[test]
fn frame_checksum_catches_flips_truncations_and_word_swaps() {
    let data = payload();
    let base = frame_checksum64(&data);
    for bit in 0..data.len() * 8 {
        let mut flipped = data.clone();
        flipped[bit / 8] ^= 1 << (bit % 8);
        assert_ne!(frame_checksum64(&flipped), base, "flip of bit {bit}");
    }
    for len in 0..data.len() {
        assert_ne!(frame_checksum64(&data[..len]), base, "cut to {len} bytes");
    }
    // Neighbours sit in different lanes; words four apart share one.
    let words = data.len() / 8;
    for (i, j) in (0..words - 1)
        .map(|i| (i, i + 1))
        .chain((0..words - 4).map(|i| (i, i + 4)))
    {
        let mut swapped = data.clone();
        let (a, b) = swapped.split_at_mut(j * 8);
        a[i * 8..][..8].swap_with_slice(&mut b[..8]);
        assert_ne!(swapped, data, "words {i} and {j} are distinct");
        assert_ne!(
            frame_checksum64(&swapped),
            base,
            "swap of words {i} and {j}"
        );
    }
}

/// One payload byte flipped on disk: a positioned read of that frame
/// fails its checksum, the frame before it still reads, and a recovery
/// scan stops at the flip.
#[test]
fn a_flipped_payload_byte_fails_its_frame() {
    let dir = SpillDir::create("flip").unwrap();
    let path = dir.segment_path("seg");
    let batch: Vec<Row> = (0..32).map(|i| (i, vec![f64::from(i); 3])).collect();
    let mut w = SegmentWriter::create(path.clone()).unwrap();
    let first = w.write_frame(&batch).unwrap();
    let second = w.write_frame(&batch).unwrap();
    let seg = w.finish().unwrap();

    let mut bytes = std::fs::read(&path).unwrap();
    // Past the length word and the record count, inside a row.
    bytes[second.offset as usize + 8 + 4 + 13] ^= 0x10;
    std::fs::write(&path, &bytes).unwrap();

    assert!(rows_eq(&seg.read_frame::<Row>(&first).unwrap(), &batch));
    assert!(matches!(
        seg.read_frame::<Row>(&second),
        Err(SpillError::Wire(WireError::ChecksumMismatch { .. }))
    ));
    let outcome = scan_frames::<Row>(&path).unwrap();
    assert_eq!(outcome.frames.len(), 1);
    assert!(rows_eq(&outcome.frames[0], &batch));
    assert!(outcome.torn_tail);
}
