//! Zero-copy slice views over received payloads.
//!
//! [`PodView`] is the unpack-side dual of the block-copy pack fast path: a
//! slice of [`Pod`](crate::Pod) elements decoded from the wire either *aliases*
//! the received [`Bytes`] buffer (no copy, an `Arc` bump keeps the buffer
//! alive) or, when the payload window is misaligned for the element type,
//! falls back to the classic copying path. Wire format is identical to
//! `Vec<T>`, so a `PodView<T>` field can replace a `Vec<T>` field in any
//! message type without changing a single byte on the wire.
//!
//! Together with [`PackedPayload`](crate::PackedPayload) (pack once) this
//! moves the serialization story toward *unpack never*: a broadcast
//! environment whose arrays are `PodView`s is decoded once per node into
//! views that all share the one received buffer.

use std::ops::Deref;

use bytes::Bytes;

use crate::pod::{pod_from_bytes, Pod};
use crate::reader::WireReader;
use crate::wire::Wire;
use crate::writer::WireWriter;
use crate::WireResult;

// ---------------------------------------------------------------------------
// PodView
// ---------------------------------------------------------------------------

enum Repr<T> {
    /// The view owns its elements (the copying fallback, or a wrapped `Vec`).
    Owned(Vec<T>),
    /// The view aliases a window of a received payload. `owner` keeps the
    /// refcounted buffer alive; `ptr` points at the first element inside it.
    Borrowed { owner: Bytes, ptr: *const T, len: usize },
}

/// A decoded slice that may alias the wire buffer it was unpacked from.
///
/// Dereferences to `&[T]`; wire-compatible with `Vec<T>` (same `pack` bytes,
/// decodable from the same payloads). Obtain one from
/// [`Wire::unpack_view`] or [`WireReader::get_pod_view`]; wrap an owned
/// vector with [`PodView::from_vec`].
pub struct PodView<T> {
    repr: Repr<T>,
}

// SAFETY: a Borrowed view is an immutable slice into an immutable, refcounted
// byte buffer. Sharing or sending it is exactly as safe as sharing `&[T]`
// plus an `Arc` handle, which requires `T: Send + Sync`.
unsafe impl<T: Send + Sync> Send for PodView<T> {}
unsafe impl<T: Send + Sync> Sync for PodView<T> {}

impl<T> PodView<T> {
    /// Wrap an owned vector (no aliasing).
    pub fn from_vec(v: Vec<T>) -> Self {
        PodView { repr: Repr::Owned(v) }
    }

    /// Build an aliasing view over `owner`.
    ///
    /// # Safety contract (enforced by the one caller)
    ///
    /// Constructed only by [`WireReader::get_pod_view`], which guarantees:
    /// `T: Pod` (every bit pattern valid, no padding), `owner` holds exactly
    /// `len * size_of::<T>()` bytes, and `owner.as_ptr()` is aligned for `T`.
    pub(crate) fn borrowed(owner: Bytes, len: usize) -> Self {
        let ptr = owner.as_ptr().cast::<T>();
        debug_assert_eq!(owner.len(), len * std::mem::size_of::<T>());
        debug_assert_eq!(ptr as usize % std::mem::align_of::<T>(), 0);
        PodView { repr: Repr::Borrowed { owner, ptr, len } }
    }

    /// The elements as a contiguous slice.
    pub fn as_slice(&self) -> &[T] {
        match &self.repr {
            Repr::Owned(v) => v,
            // SAFETY: see `borrowed` — ptr/len describe initialized, aligned,
            // immutable memory kept alive by `owner` for `self`'s lifetime.
            Repr::Borrowed { ptr, len, .. } => unsafe { std::slice::from_raw_parts(*ptr, *len) },
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        match &self.repr {
            Repr::Owned(v) => v.len(),
            Repr::Borrowed { len, .. } => *len,
        }
    }

    /// True if the view holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True when the view aliases a received buffer rather than owning a
    /// fresh allocation — the zero-copy success case.
    pub fn is_aliased(&self) -> bool {
        matches!(self.repr, Repr::Borrowed { .. })
    }
}

impl<T: Clone> PodView<T> {
    /// Extract an owned vector (copies only if the view was aliased).
    pub fn into_vec(self) -> Vec<T> {
        match self.repr {
            Repr::Owned(v) => v,
            Repr::Borrowed { .. } => self.as_slice().to_vec(),
        }
    }
}

impl<T> Deref for PodView<T> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T> AsRef<[T]> for PodView<T> {
    fn as_ref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T> Default for PodView<T> {
    fn default() -> Self {
        PodView::from_vec(Vec::new())
    }
}

impl<T: Clone> Clone for PodView<T> {
    fn clone(&self) -> Self {
        match &self.repr {
            Repr::Owned(v) => PodView::from_vec(v.clone()),
            // Cloning an aliased view bumps the buffer refcount, no copy.
            Repr::Borrowed { owner, ptr, len } => {
                PodView { repr: Repr::Borrowed { owner: owner.clone(), ptr: *ptr, len: *len } }
            }
        }
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for PodView<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PodView")
            .field("aliased", &self.is_aliased())
            .field("elems", &self.as_slice())
            .finish()
    }
}

impl<T: PartialEq> PartialEq for PodView<T> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: PartialEq> PartialEq<Vec<T>> for PodView<T> {
    fn eq(&self, other: &Vec<T>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T> From<Vec<T>> for PodView<T> {
    fn from(v: Vec<T>) -> Self {
        PodView::from_vec(v)
    }
}

impl<T> FromIterator<T> for PodView<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        PodView::from_vec(iter.into_iter().collect())
    }
}

/// Wire-compatible with `Vec<T>`: packs via `pack_slice`, unpacks via
/// [`Wire::unpack_view`] so [`Pod`] element types alias the reader's buffer.
impl<T: Wire> Wire for PodView<T> {
    fn pack(&self, w: &mut WireWriter) {
        T::pack_slice(self.as_slice(), w);
    }
    fn unpack(r: &mut WireReader) -> WireResult<Self> {
        T::unpack_view(r)
    }
    fn packed_size(&self) -> usize {
        T::slice_packed_size(self.as_slice())
    }
}

// ---------------------------------------------------------------------------
// Reader integration
// ---------------------------------------------------------------------------

impl WireReader {
    /// Decode a pod slice written by
    /// [`WireWriter::put_pod_slice`] as a [`PodView`].
    ///
    /// When the payload window happens to be aligned for `T` (the common case
    /// for whole-payload reads, where the buffer starts at an allocation
    /// boundary), the view aliases the buffer and no element bytes move.
    /// A misaligned window falls back to the copying path, so the result is
    /// always valid — alignment only affects cost, never correctness. The
    /// window's bytes count as aliased or copied accordingly
    /// ([`WireReader::unpacked`]).
    pub fn get_pod_view<T: Pod>(&mut self) -> WireResult<PodView<T>> {
        let len = self.get_len(std::mem::size_of::<T>())?;
        let nbytes = len * std::mem::size_of::<T>();
        let window = self.take_shared(nbytes)?;
        if window.as_ptr() as usize % std::mem::align_of::<T>() == 0 {
            self.aliased += nbytes as u64;
            Ok(PodView::borrowed(window, len))
        } else {
            self.copied += nbytes as u64;
            Ok(PodView::from_vec(pod_from_bytes(&window)))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{packed, unpack_all, unpack_counted};

    #[test]
    fn view_aliases_aligned_payload() {
        let v: Vec<f32> = (0..64).map(|i| i as f32 * 1.5).collect();
        let (view, moved): (PodView<f32>, _) = unpack_counted(packed(&v)).unwrap();
        assert!(view.is_aliased(), "whole-payload f32 slice starts at offset 8, aligned");
        assert_eq!(view.as_slice(), v.as_slice());
        assert_eq!(moved, (0, 64 * 4));
    }

    #[test]
    fn misaligned_window_falls_back_to_copy() {
        // One leading byte shifts the slice window to offset 1 + 8 = 9,
        // misaligned for u64.
        let v: Vec<u64> = (0..16).collect();
        let mut w = WireWriter::new();
        w.put_u8(7);
        v.pack(&mut w);
        let bytes = w.finish();
        let mut r = WireReader::new(bytes);
        assert_eq!(r.get_u8().unwrap(), 7);
        let view = r.get_pod_view::<u64>().unwrap();
        assert!(!view.is_aliased(), "offset 9 cannot alias u64");
        assert_eq!(view.as_slice(), v.as_slice());
        assert_eq!(r.unpacked(), (16 * 8, 0));
    }

    #[test]
    fn u8_views_always_alias() {
        let v: Vec<u8> = (0..255).collect();
        let mut w = WireWriter::new();
        w.put_u8(0);
        v.pack(&mut w);
        let mut r = WireReader::new(w.finish());
        r.get_u8().unwrap();
        let view = r.get_pod_view::<u8>().unwrap();
        assert!(view.is_aliased(), "align 1 never misaligns");
        assert_eq!(view.as_slice(), v.as_slice());
    }

    #[test]
    fn view_wire_format_matches_vec() {
        let v = vec![1.5f64, -2.25, 1e300];
        let as_vec = packed(&v);
        let as_view = packed(&PodView::from_vec(v.clone()));
        assert_eq!(as_vec, as_view, "PodView and Vec must be wire-identical");
        let back: Vec<f64> = unpack_all(as_view).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn aliased_view_survives_reader_drop() {
        let v: Vec<i32> = (0..32).collect();
        let view: PodView<i32> = unpack_all(packed(&v)).unwrap();
        // The reader and its Bytes handle are gone; the view's own refcount
        // keeps the buffer alive.
        assert_eq!(view[31], 31);
        let cloned = view.clone();
        drop(view);
        assert_eq!(cloned.as_slice(), v.as_slice());
    }

    #[test]
    fn non_pod_elements_take_owned_path() {
        let v = vec![vec![1u32, 2], vec![3]];
        let view: PodView<Vec<u32>> = unpack_all(packed(&v)).unwrap();
        assert!(!view.is_aliased());
        assert_eq!(view.as_slice(), v.as_slice());
    }

    #[test]
    fn into_vec_and_default() {
        let v: Vec<u16> = vec![1, 2, 3];
        let view: PodView<u16> = unpack_all(packed(&v)).unwrap();
        assert_eq!(view.clone().into_vec(), v);
        assert!(PodView::<f32>::default().is_empty());
    }
}
