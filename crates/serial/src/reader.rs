//! Cursor over a received payload, used by the unpack side.

use bytes::Bytes;

use crate::error::WireError;
use crate::pod::{pod_from_bytes, Pod};
use crate::WireResult;

/// Consuming cursor over an immutable payload.
///
/// All reads validate against the remaining length, so corrupt or truncated
/// payloads surface as [`WireError`] instead of panics. The reader counts
/// the pod-slice bytes it decodes (see [`unpacked`](Self::unpacked)).
#[derive(Debug)]
pub struct WireReader {
    buf: Bytes,
    pos: usize,
    pub(crate) copied: u64,
    pub(crate) aliased: u64,
}

impl WireReader {
    /// Wrap a received payload.
    pub fn new(buf: Bytes) -> Self {
        Self { buf, pos: 0, copied: 0, aliased: 0 }
    }

    /// Pod-slice bytes decoded so far: `(copied, aliased)`. Copied bytes
    /// went through a `memcpy` into a fresh allocation; aliased bytes were
    /// answered by a [`PodView`](crate::PodView) pointing into the buffer.
    pub fn unpacked(&self) -> (u64, u64) {
        (self.copied, self.aliased)
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when the whole payload has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> WireResult<&[u8]> {
        if self.remaining() < n {
            return Err(WireError::UnexpectedEof { needed: n, remaining: self.remaining() });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Consume `n` bytes as an owned window sharing the underlying buffer
    /// (refcount bump, no copy). The zero-copy dual of [`take`](Self::take):
    /// the returned `Bytes` stays valid after the reader is dropped.
    pub(crate) fn take_shared(&mut self, n: usize) -> WireResult<Bytes> {
        if self.remaining() < n {
            return Err(WireError::UnexpectedEof { needed: n, remaining: self.remaining() });
        }
        let out = self.buf.slice(self.pos..self.pos + n);
        self.pos += n;
        Ok(out)
    }

    /// Read a single byte (enum discriminants).
    pub fn get_u8(&mut self) -> WireResult<u8> {
        Ok(self.take(1)?[0])
    }

    /// Read a length prefix, validating it against the remaining bytes with
    /// the caller-supplied minimum element width so a corrupt prefix cannot
    /// trigger a huge allocation.
    pub fn get_len(&mut self, min_elem_size: usize) -> WireResult<usize> {
        let raw = self.take(8)?;
        let len = u64::from_ne_bytes(raw.try_into().expect("8-byte slice")) as usize;
        let floor = len.saturating_mul(min_elem_size.max(1));
        if min_elem_size > 0 && floor > self.remaining() {
            return Err(WireError::BadLength { len, remaining: self.remaining() });
        }
        Ok(len)
    }

    /// Read `n` raw bytes.
    pub fn get_bytes(&mut self, n: usize) -> WireResult<&[u8]> {
        self.take(n)
    }

    /// Read one pod value.
    pub fn get_pod<T: Pod>(&mut self) -> WireResult<T> {
        let bytes = self.take(std::mem::size_of::<T>())?;
        Ok(pod_from_bytes::<T>(bytes)[0])
    }

    /// Block-copy read of a pod slice written by
    /// [`crate::WireWriter::put_pod_slice`].
    pub fn get_pod_slice<T: Pod>(&mut self) -> WireResult<Vec<T>> {
        let len = self.get_len(std::mem::size_of::<T>())?;
        let nbytes = len * std::mem::size_of::<T>();
        let bytes = self.take(nbytes)?;
        let out = pod_from_bytes(bytes);
        self.copied += nbytes as u64;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WireWriter;

    #[test]
    fn reader_tracks_position() {
        let mut w = WireWriter::new();
        w.put_u8(9);
        w.put_pod(2.5f32);
        let mut r = WireReader::new(w.finish());
        assert_eq!(r.remaining(), 5);
        assert_eq!(r.get_u8().unwrap(), 9);
        assert_eq!(r.get_pod::<f32>().unwrap(), 2.5);
        assert!(r.is_exhausted());
    }

    #[test]
    fn eof_is_reported_not_panicked() {
        let mut r = WireReader::new(Bytes::from_static(&[1, 2]));
        let err = r.get_pod::<u64>().unwrap_err();
        assert_eq!(err, WireError::UnexpectedEof { needed: 8, remaining: 2 });
    }

    #[test]
    fn corrupt_length_prefix_rejected() {
        let mut w = WireWriter::new();
        w.put_len(usize::MAX / 16); // absurd length, almost no payload
        let mut r = WireReader::new(w.finish());
        match r.get_pod_slice::<u32>() {
            Err(WireError::BadLength { .. }) => {}
            other => panic!("expected BadLength, got {other:?}"),
        }
    }

    #[test]
    fn pod_slice_roundtrip() {
        let xs = vec![-1i16, 0, 17, i16::MAX];
        let mut w = WireWriter::new();
        w.put_pod_slice(&xs);
        let mut r = WireReader::new(w.finish());
        assert_eq!(r.get_pod_slice::<i16>().unwrap(), xs);
        assert_eq!(r.unpacked(), (8, 0));
    }
}
