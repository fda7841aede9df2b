//! Fixed-width binary wire format for shuffled records.
//!
//! The engine keeps records as native Rust values, but the shuffle-byte
//! accounting ([`crate::record::ShuffleSize`]) claims to report what a
//! real Hadoop shuffle would serialize. This module makes that claim
//! checkable: a [`Wire`] codec whose encoded length **equals**
//! `shuffle_bytes()` for every implementing type (enforced by a blanket
//! debug assertion in [`encode`] and by property tests), with a lossless
//! decode.
//!
//! Encoding rules (little-endian):
//!
//! * numeric types: their width;
//! * `bool`: one byte (0/1);
//! * `String`: `u32` length prefix + UTF-8 bytes;
//! * `Vec<T>`, `Arc<[T]>`: `u32` element-count prefix + elements;
//! * `Option<T>`: one tag byte + payload when `Some`;
//! * tuples: fields in order.

use crate::record::ShuffleSize;

/// Decoding errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Ran out of bytes mid-value.
    Truncated,
    /// Invalid payload (bad UTF-8, bad tag byte).
    Corrupt(&'static str),
    /// Extra bytes after the value when decoding with [`decode`].
    TrailingBytes(usize),
    /// Frame checksum did not verify ([`decode_framed`]): the payload was
    /// corrupted in flight.
    ChecksumMismatch {
        /// Checksum carried in the frame trailer.
        expected: u64,
        /// Checksum recomputed over the received payload.
        found: u64,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated wire data"),
            WireError::Corrupt(what) => write!(f, "corrupt wire data: {what}"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after value"),
            WireError::ChecksumMismatch { expected, found } => write!(
                f,
                "frame checksum mismatch: trailer says {expected:#018x}, payload hashes to {found:#018x}"
            ),
        }
    }
}

impl std::error::Error for WireError {}

/// A type with a fixed-width binary wire encoding whose length matches its
/// [`ShuffleSize`].
///
/// ```
/// use mapreduce::{encode, decode, ShuffleSize};
/// let record = (7u32, vec![1.0f64, 2.0]);
/// let bytes = encode(&record);
/// assert_eq!(bytes.len() as u64, record.shuffle_bytes());
/// let back: (u32, Vec<f64>) = decode(&bytes).unwrap();
/// assert_eq!(back, record);
/// ```
pub trait Wire: ShuffleSize + Sized {
    /// Appends this value's encoding to `out`.
    fn write(&self, out: &mut Vec<u8>);
    /// Reads one value from the front of `input`, advancing it.
    fn read(input: &mut &[u8]) -> Result<Self, WireError>;
    /// Appends the encodings of `items` in order. Numeric types write the
    /// whole slice in one pass instead of growing `out` per element.
    fn write_slice(items: &[Self], out: &mut Vec<u8>) {
        for v in items {
            v.write(out);
        }
    }
}

/// Encodes a value to bytes; debug-asserts the length contract. The
/// buffer has room for a frame's checksum trailer, so framing it does
/// not copy it.
pub fn encode<T: Wire>(value: &T) -> Vec<u8> {
    let mut out = Vec::with_capacity(value.shuffle_bytes() as usize + 8);
    value.write(&mut out);
    debug_assert_eq!(
        out.len() as u64,
        value.shuffle_bytes(),
        "wire length must equal the ShuffleSize estimate"
    );
    out
}

/// Decodes exactly one value from `bytes`; rejects trailing bytes.
pub fn decode<T: Wire>(bytes: &[u8]) -> Result<T, WireError> {
    let mut input = bytes;
    let v = T::read(&mut input)?;
    if input.is_empty() {
        Ok(v)
    } else {
        Err(WireError::TrailingBytes(input.len()))
    }
}

/// Encodes a value as a checksummed frame: the value's wire bytes
/// followed by an 8-byte little-endian FNV-1a trailer
/// ([`crate::record::checksum64`]).
///
/// This is the durable framing the ingest write-ahead log stores, so its
/// bytes must not change: a record corrupted on disk fails
/// [`decode_framed`] with [`WireError::ChecksumMismatch`] and replay stops
/// at the last intact one. (Spill segments, which never outlive their
/// process, frame the same way under [`crate::record::frame_checksum64`].)
///
/// ```
/// use mapreduce::{encode_framed, decode_framed, WireError};
/// let record = (7u32, vec![1.0f64, 2.0]);
/// let mut frame = encode_framed(&record);
/// assert_eq!(decode_framed::<(u32, Vec<f64>)>(&frame).unwrap(), record);
/// frame[2] ^= 0x40; // bit flip on disk
/// assert!(matches!(
///     decode_framed::<(u32, Vec<f64>)>(&frame),
///     Err(WireError::ChecksumMismatch { .. })
/// ));
/// ```
pub fn encode_framed<T: Wire>(value: &T) -> Vec<u8> {
    encode_framed_with(value, crate::record::checksum64)
}

/// Decodes a frame produced by [`encode_framed`], verifying the
/// checksum trailer before touching the payload.
pub fn decode_framed<T: Wire>(frame: &[u8]) -> Result<T, WireError> {
    decode_framed_with(frame, crate::record::checksum64)
}

/// [`encode_framed`] under the checksum `sum`.
pub(crate) fn encode_framed_with<T: Wire>(value: &T, sum: fn(&[u8]) -> u64) -> Vec<u8> {
    let mut out = encode(value);
    let sum = sum(&out);
    out.extend_from_slice(&sum.to_le_bytes());
    out
}

/// [`decode_framed`] under the checksum `sum`.
pub(crate) fn decode_framed_with<T: Wire>(
    frame: &[u8],
    sum: fn(&[u8]) -> u64,
) -> Result<T, WireError> {
    if frame.len() < 8 {
        return Err(WireError::Truncated);
    }
    let (payload, trailer) = frame.split_at(frame.len() - 8);
    let expected = u64::from_le_bytes(trailer.try_into().expect("8-byte trailer"));
    let found = sum(payload);
    if expected != found {
        return Err(WireError::ChecksumMismatch { expected, found });
    }
    decode(payload)
}

fn take<'a>(input: &mut &'a [u8], n: usize) -> Result<&'a [u8], WireError> {
    if input.len() < n {
        return Err(WireError::Truncated);
    }
    let (head, rest) = input.split_at(n);
    *input = rest;
    Ok(head)
}

macro_rules! impl_wire_num {
    ($($t:ty),* $(,)?) => {
        $(
            impl Wire for $t {
                fn write(&self, out: &mut Vec<u8>) {
                    out.extend_from_slice(&self.to_le_bytes());
                }
                fn write_slice(items: &[Self], out: &mut Vec<u8>) {
                    const W: usize = std::mem::size_of::<$t>();
                    let start = out.len();
                    out.resize(start + items.len() * W, 0);
                    for (b, v) in out[start..].chunks_exact_mut(W).zip(items) {
                        b.copy_from_slice(&v.to_le_bytes());
                    }
                }
                fn read(input: &mut &[u8]) -> Result<Self, WireError> {
                    let bytes = take(input, std::mem::size_of::<$t>())?;
                    Ok(<$t>::from_le_bytes(bytes.try_into().expect("sized take")))
                }
            }
        )*
    };
}

impl_wire_num!(u8, i8, u16, i16, u32, i32, u64, i64, f32, f64);

// `usize`/`isize` encode at a fixed 8 bytes regardless of platform width,
// matching their `ShuffleSize` accounting.
impl Wire for usize {
    fn write(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(*self as u64).to_le_bytes());
    }
    fn read(input: &mut &[u8]) -> Result<Self, WireError> {
        let v = u64::read(input)?;
        usize::try_from(v).map_err(|_| WireError::Corrupt("usize overflow"))
    }
}

impl Wire for isize {
    fn write(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(*self as i64).to_le_bytes());
    }
    fn read(input: &mut &[u8]) -> Result<Self, WireError> {
        let v = i64::read(input)?;
        isize::try_from(v).map_err(|_| WireError::Corrupt("isize overflow"))
    }
}

impl Wire for () {
    fn write(&self, _out: &mut Vec<u8>) {}
    fn read(_input: &mut &[u8]) -> Result<Self, WireError> {
        Ok(())
    }
}

impl Wire for bool {
    fn write(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    fn read(input: &mut &[u8]) -> Result<Self, WireError> {
        match take(input, 1)?[0] {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::Corrupt("bool tag")),
        }
    }
}

impl Wire for String {
    fn write(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.len() as u32).to_le_bytes());
        out.extend_from_slice(self.as_bytes());
    }
    fn read(input: &mut &[u8]) -> Result<Self, WireError> {
        let len = u32::read(input)? as usize;
        let bytes = take(input, len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::Corrupt("utf-8"))
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn write(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.len() as u32).to_le_bytes());
        T::write_slice(self, out);
    }
    fn read(input: &mut &[u8]) -> Result<Self, WireError> {
        let len = u32::read(input)? as usize;
        // Defensive cap: a corrupt length must not allocate the world.
        let mut out = Vec::with_capacity(len.min(input.len() + 1));
        for _ in 0..len {
            out.push(T::read(input)?);
        }
        Ok(out)
    }
}

/// Encodes byte for byte as `Vec<T>`. Decoding validates the elements in
/// a first pass, so the second pass collects from an exact-length
/// iterator and the row is allocated once, never as a `Vec` first.
impl<T: Wire> Wire for std::sync::Arc<[T]> {
    fn write(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.len() as u32).to_le_bytes());
        T::write_slice(self, out);
    }
    fn read(input: &mut &[u8]) -> Result<Self, WireError> {
        let len = u32::read(input)? as usize;
        let mut probe = *input;
        for _ in 0..len {
            T::read(&mut probe)?;
        }
        Ok((0..len)
            .map(|_| T::read(input).expect("validated by the first pass"))
            .collect())
    }
}

impl<T: Wire> Wire for Option<T> {
    fn write(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.write(out);
            }
        }
    }
    fn read(input: &mut &[u8]) -> Result<Self, WireError> {
        match take(input, 1)?[0] {
            0 => Ok(None),
            1 => Ok(Some(T::read(input)?)),
            _ => Err(WireError::Corrupt("option tag")),
        }
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn write(&self, out: &mut Vec<u8>) {
        self.0.write(out);
        self.1.write(out);
    }
    fn read(input: &mut &[u8]) -> Result<Self, WireError> {
        Ok((A::read(input)?, B::read(input)?))
    }
}

impl<A: Wire, B: Wire, C: Wire> Wire for (A, B, C) {
    fn write(&self, out: &mut Vec<u8>) {
        self.0.write(out);
        self.1.write(out);
        self.2.write(out);
    }
    fn read(input: &mut &[u8]) -> Result<Self, WireError> {
        Ok((A::read(input)?, B::read(input)?, C::read(input)?))
    }
}

impl<A: Wire, B: Wire, C: Wire, D: Wire> Wire for (A, B, C, D) {
    fn write(&self, out: &mut Vec<u8>) {
        self.0.write(out);
        self.1.write(out);
        self.2.write(out);
        self.3.write(out);
    }
    fn read(input: &mut &[u8]) -> Result<Self, WireError> {
        Ok((
            A::read(input)?,
            B::read(input)?,
            C::read(input)?,
            D::read(input)?,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: Wire + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = encode(&v);
        assert_eq!(
            bytes.len() as u64,
            v.shuffle_bytes(),
            "length contract for {v:?}"
        );
        let back: T = decode(&bytes).expect("decode");
        assert_eq!(back, v);
    }

    #[test]
    fn primitives_round_trip() {
        round_trip(0u8);
        round_trip(-5i16);
        round_trip(0xDEAD_BEEFu32);
        round_trip(-1i64);
        round_trip(3.25f64);
        round_trip(true);
        round_trip(false);
    }

    #[test]
    fn compound_round_trip() {
        round_trip("hello κόσμε".to_string());
        round_trip(vec![1u32, 2, 3]);
        round_trip(Vec::<f64>::new());
        round_trip(Some(7u64));
        round_trip(Option::<u64>::None);
        round_trip(42usize);
        round_trip(-42isize);
        round_trip(());
        round_trip(std::sync::Arc::<[u32]>::from([1, 2, 3]));
        round_trip((1u32, vec![0.5f64, -0.5]));
        round_trip((1u32, 2u32, vec![1.0f64]));
        round_trip((1u8, 2u16, 3u32, 4u64));
    }

    #[test]
    fn pipeline_record_types_round_trip() {
        // The exact key/value shapes the DDP pipelines shuffle.
        round_trip((7u32, vec![1.0f64, 2.0, 3.0])); // point record
        round_trip((3u16, vec![-4i64, 2, 0])); // LSH partition key
        round_trip((0.5f64, 12u32, 9.75f64)); // delta partial
        round_trip((9u32, vec![0.0f64; 57], 1u8)); // EDDPC cell point
    }

    #[test]
    fn truncated_input_is_detected() {
        let bytes = encode(&(1u32, vec![1.0f64, 2.0]));
        for cut in 0..bytes.len() {
            let r: Result<(u32, Vec<f64>), _> = decode(&bytes[..cut]);
            assert!(r.is_err(), "cut at {cut} must fail");
        }
    }

    #[test]
    fn trailing_bytes_are_detected() {
        let mut bytes = encode(&42u32);
        bytes.push(0);
        let r: Result<u32, _> = decode(&bytes);
        assert_eq!(r, Err(WireError::TrailingBytes(1)));
    }

    #[test]
    fn corrupt_tags_are_detected() {
        let r: Result<bool, _> = decode(&[7]);
        assert_eq!(r, Err(WireError::Corrupt("bool tag")));
        let r: Result<Option<u8>, _> = decode(&[9, 1]);
        assert_eq!(r, Err(WireError::Corrupt("option tag")));
        let r: Result<String, _> = decode(&[2, 0, 0, 0, 0xFF, 0xFE]);
        assert_eq!(r, Err(WireError::Corrupt("utf-8")));
    }

    #[test]
    fn framed_round_trip_and_length() {
        let v = (3u16, vec![-4i64, 2, 0]);
        let frame = encode_framed(&v);
        assert_eq!(frame.len() as u64, v.shuffle_bytes() + 8);
        assert_eq!(decode_framed::<(u16, Vec<i64>)>(&frame).unwrap(), v);
    }

    #[test]
    fn framed_detects_any_single_byte_corruption() {
        let v = (7u32, vec![1.0f64, 2.0, 3.0]);
        let frame = encode_framed(&v);
        for i in 0..frame.len() {
            let mut bad = frame.clone();
            bad[i] ^= 0x01;
            let r = decode_framed::<(u32, Vec<f64>)>(&bad);
            assert!(r.is_err(), "corruption at byte {i} must be detected");
        }
    }

    #[test]
    fn framed_rejects_short_frames() {
        for n in 0..8 {
            let r = decode_framed::<u32>(&vec![0u8; n]);
            assert_eq!(r, Err(WireError::Truncated));
        }
    }

    #[test]
    fn corrupt_length_does_not_overallocate() {
        // Length prefix claims u32::MAX elements; must error, not OOM.
        let bytes = u32::MAX.to_le_bytes();
        let r: Result<Vec<u64>, _> = decode(&bytes);
        assert_eq!(r, Err(WireError::Truncated));
    }
}
