//! Pack-once payload caching.
//!
//! A [`PackedPayload`] is a value serialized exactly once into a frozen,
//! reference-counted buffer. Cloning the payload (or taking [`bytes`]) is an
//! `Arc` bump, never a re-serialization, so one buffer can back every
//! per-destination send of a broadcast *and* every retransmission of a
//! reliable send. This is the substrate for the engine's broadcast
//! environment: the paper's runtime serializes a closure's captured
//! environment once and reuses the message body for every destination rank
//! (§3.4); re-packing per node would charge serialization time `N` times for
//! one logical broadcast.
//!
//! [`bytes`]: PackedPayload::bytes

use bytes::Bytes;

use crate::wire::{packed, unpack_all, Wire};
use crate::WireResult;

/// One separately shippable run of a task's input: how many bytes it packs
/// to, and which buffer they come from.
///
/// A payload that lists its pieces lets a transport notice that two
/// destinations read the *same* buffer and move it once (the sharing-aware
/// scatter in `triolet-cluster`). The identity is the address of the
/// reference-counted buffer holding the bytes, so it is only meaningful
/// while that buffer is alive — within one dispatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Piece {
    /// Address of the shared buffer; equal ids are the same bytes. `None`
    /// for bytes no other payload can hold (domains, extractor state).
    pub id: Option<usize>,
    /// Packed size of the piece, headers included.
    pub bytes: usize,
}

/// A value packed once into shared bytes.
///
/// ```
/// use triolet_serial::PackedPayload;
///
/// let p = PackedPayload::pack(&vec![1u32, 2, 3]);
/// // Every clone/bytes() shares the same allocation.
/// let a = p.bytes();
/// let b = p.bytes();
/// assert_eq!(a, b);
/// let back: Vec<u32> = p.unpack().unwrap();
/// assert_eq!(back, vec![1, 2, 3]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedPayload {
    bytes: Bytes,
}

impl PackedPayload {
    /// Serialize `value` once. This is the only place bytes are produced;
    /// everything downstream shares the buffer.
    pub fn pack<T: Wire>(value: &T) -> Self {
        PackedPayload { bytes: packed(value) }
    }

    /// A zero-byte payload (the unit environment).
    pub fn empty() -> Self {
        PackedPayload { bytes: Bytes::new() }
    }

    /// The shared serialized bytes (cheap: bumps the refcount).
    pub fn bytes(&self) -> Bytes {
        self.bytes.clone()
    }

    /// Serialized size in bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Is this the zero-byte payload?
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Decode the payload as a `T`. The payload must contain exactly one
    /// value (trailing bytes are an error, as in [`unpack_all`]).
    pub fn unpack<T: Wire>(&self) -> WireResult<T> {
        unpack_all(self.bytes.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_once_share_many() {
        let v: Vec<u64> = (0..100).collect();
        let p = PackedPayload::pack(&v);
        assert_eq!(p.len(), v.packed_size());
        // Many consumers, one buffer: the underlying pointers are equal.
        let a = p.bytes();
        let b = p.bytes();
        assert_eq!(a.as_ref().as_ptr(), b.as_ref().as_ptr());
        let back: Vec<u64> = p.unpack().unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn empty_payload_decodes_unit() {
        let p = PackedPayload::empty();
        assert!(p.is_empty());
        assert_eq!(p.len(), 0);
        p.unpack::<()>().unwrap();
    }
}
