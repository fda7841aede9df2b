//! Serialized-size accounting for shuffled records.
//!
//! Hadoop measures shuffle cost in bytes of serialized intermediate data.
//! Our engine keeps records as native Rust values, so each key/value type
//! reports the size its natural wire encoding would have via
//! [`ShuffleSize`]. The estimates use fixed-width encodings (no varint
//! compression), matching the paper's own accounting (`e = 8` bytes per
//! double, §V-A).

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a 64-bit checksum over a record's serialized bytes.
///
/// The integrity check of the durable framed wire codec
/// ([`crate::wire::encode_framed`]) the ingest write-ahead log stores, and
/// the result digest the tests and the benchmark compare. Both outlive a
/// process, so it stays FNV-1a byte for byte: an integrity check, not a
/// cryptographic one, and byte-serial — one multiply per byte on one
/// chain — so the transient spill tier uses [`frame_checksum64`].
pub fn checksum64(bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// Word-lane checksum of a spill-segment frame: little-endian `u64` words
/// in four independent lanes, so the multiplies overlap instead of queueing
/// on one chain, folded with the length and the zero-padded tail bytes.
/// Each step, `(h ^ w) * K` rotated, is a bijection of `h` and of `w`, so a
/// change confined to one word — any single-bit flip — always changes the
/// sum (the rotation brings high bits, which a multiply only moves up, back
/// down). Spill segments never outlive their process, so it may change.
pub fn frame_checksum64(bytes: &[u8]) -> u64 {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;
    let mix = |h: u64, w: u64| (h ^ w).wrapping_mul(K).rotate_left(29);
    let (blocks, tail) = bytes.as_chunks::<32>();
    let mut lanes = [0, 1, 2, 3].map(|k| FNV_OFFSET ^ k);
    for block in blocks {
        for (lane, w) in lanes.iter_mut().zip(block.as_chunks::<8>().0) {
            *lane = mix(*lane, u64::from_le_bytes(*w));
        }
    }
    let h = lanes.into_iter().fold(bytes.len() as u64, mix);
    tail.chunks(8).fold(h, |h, w| {
        let mut word = [0u8; 8];
        word[..w.len()].copy_from_slice(w);
        mix(h, u64::from_le_bytes(word))
    })
}

/// Estimated serialized size of a value in bytes.
///
/// Implementations should return the size of a straightforward fixed-width
/// binary encoding: numeric types their width, sequences a 4-byte length
/// prefix plus element sizes.
pub trait ShuffleSize {
    /// Size of this value's serialized form in bytes.
    fn shuffle_bytes(&self) -> u64;
}

macro_rules! impl_fixed {
    ($($t:ty => $n:expr),* $(,)?) => {
        $(
            impl ShuffleSize for $t {
                #[inline]
                fn shuffle_bytes(&self) -> u64 {
                    $n
                }
            }
        )*
    };
}

impl_fixed!(
    u8 => 1, i8 => 1,
    u16 => 2, i16 => 2,
    u32 => 4, i32 => 4, f32 => 4,
    u64 => 8, i64 => 8, f64 => 8,
    usize => 8, isize => 8,
    bool => 1,
    () => 0,
);

impl ShuffleSize for String {
    #[inline]
    fn shuffle_bytes(&self) -> u64 {
        4 + self.len() as u64
    }
}

impl<T: ShuffleSize> ShuffleSize for Vec<T> {
    #[inline]
    fn shuffle_bytes(&self) -> u64 {
        4 + self.iter().map(ShuffleSize::shuffle_bytes).sum::<u64>()
    }
}

impl<T: ShuffleSize> ShuffleSize for std::sync::Arc<[T]> {
    #[inline]
    fn shuffle_bytes(&self) -> u64 {
        4 + self.iter().map(ShuffleSize::shuffle_bytes).sum::<u64>()
    }
}

impl<T: ShuffleSize> ShuffleSize for Option<T> {
    #[inline]
    fn shuffle_bytes(&self) -> u64 {
        1 + self.as_ref().map_or(0, ShuffleSize::shuffle_bytes)
    }
}

impl<A: ShuffleSize, B: ShuffleSize> ShuffleSize for (A, B) {
    #[inline]
    fn shuffle_bytes(&self) -> u64 {
        self.0.shuffle_bytes() + self.1.shuffle_bytes()
    }
}

impl<A: ShuffleSize, B: ShuffleSize, C: ShuffleSize> ShuffleSize for (A, B, C) {
    #[inline]
    fn shuffle_bytes(&self) -> u64 {
        self.0.shuffle_bytes() + self.1.shuffle_bytes() + self.2.shuffle_bytes()
    }
}

impl<A: ShuffleSize, B: ShuffleSize, C: ShuffleSize, D: ShuffleSize> ShuffleSize for (A, B, C, D) {
    #[inline]
    fn shuffle_bytes(&self) -> u64 {
        self.0.shuffle_bytes()
            + self.1.shuffle_bytes()
            + self.2.shuffle_bytes()
            + self.3.shuffle_bytes()
    }
}

impl<T: ShuffleSize + ?Sized> ShuffleSize for &T {
    #[inline]
    fn shuffle_bytes(&self) -> u64 {
        (**self).shuffle_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_sizes() {
        assert_eq!(0u8.shuffle_bytes(), 1);
        assert_eq!(0u32.shuffle_bytes(), 4);
        assert_eq!(0.0f64.shuffle_bytes(), 8);
        assert_eq!(true.shuffle_bytes(), 1);
        assert_eq!(().shuffle_bytes(), 0);
    }

    #[test]
    fn string_has_length_prefix() {
        assert_eq!(String::new().shuffle_bytes(), 4);
        assert_eq!("hello".to_string().shuffle_bytes(), 9);
    }

    #[test]
    fn vec_of_f64_matches_paper_accounting() {
        // A 57-dimensional BigCross point: 4 + 57*8 bytes.
        let coords = vec![0.0f64; 57];
        assert_eq!(coords.shuffle_bytes(), 4 + 57 * 8);
    }

    #[test]
    fn nested_and_tuple_sizes() {
        let v: Vec<Vec<u16>> = vec![vec![1, 2], vec![]];
        assert_eq!(v.shuffle_bytes(), 4 + (4 + 4) + 4);
        let t = (1u32, "ab".to_string(), 2.0f64);
        assert_eq!(t.shuffle_bytes(), 4 + 6 + 8);
    }

    #[test]
    fn option_sizes() {
        let some: Option<u64> = Some(7);
        let none: Option<u64> = None;
        assert_eq!(some.shuffle_bytes(), 9);
        assert_eq!(none.shuffle_bytes(), 1);
    }

    #[test]
    fn reference_delegates() {
        let s = "xy".to_string();
        let r: &String = &s;
        assert_eq!(ShuffleSize::shuffle_bytes(&r), s.shuffle_bytes());
    }

    #[test]
    fn checksum_known_vectors() {
        // FNV-1a 64 reference values.
        assert_eq!(checksum64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(checksum64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(checksum64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn checksum_detects_single_bit_flips() {
        let data = b"density peaks in mapreduce".to_vec();
        let base = checksum64(&data);
        for i in 0..data.len() {
            for bit in 0..8 {
                let mut flipped = data.clone();
                flipped[i] ^= 1 << bit;
                assert_ne!(checksum64(&flipped), base, "flip at byte {i} bit {bit}");
            }
        }
    }
}
