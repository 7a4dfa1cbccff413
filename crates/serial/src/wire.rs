//! The [`Wire`] trait: pack/unpack for every type that crosses a simulated
//! node boundary.
//!
//! This is the analogue of the serialization code Triolet's compiler generates
//! from algebraic data type definitions (paper §3.4). Structs are framed
//! field-by-field by [`wire_struct!`](crate::wire_struct), the one place that
//! framing is defined; slices of [`Pod`](crate::Pod) element types override
//! the slice hooks with a single block copy.

use bytes::Bytes;

use crate::error::WireError;
use crate::reader::WireReader;
use crate::writer::WireWriter;
use crate::WireResult;

/// Types that can be serialized to and from a byte payload.
///
/// The three methods must agree: `packed_size` returns exactly the number of
/// bytes `pack` appends, and `unpack` consumes exactly those bytes. A struct
/// framed as its fields in order gets all three from one field list with
/// [`wire_struct!`](crate::wire_struct); only a type that checks its decoded
/// fields against each other writes them by hand.
pub trait Wire: Sized {
    /// Append this value's encoding to `w`.
    fn pack(&self, w: &mut WireWriter);

    /// Decode one value from `r`, consuming exactly the bytes `pack` wrote.
    fn unpack(r: &mut WireReader) -> WireResult<Self>;

    /// Exact number of bytes `pack` will append. Used to preallocate message
    /// buffers and to account traffic in the cluster cost model.
    fn packed_size(&self) -> usize;

    /// Pack a slice of values. The default loops element-wise;
    /// [`Pod`](crate::Pod) types override it with a length prefix plus one
    /// block copy.
    fn pack_slice(slice: &[Self], w: &mut WireWriter) {
        w.put_len(slice.len());
        for x in slice {
            x.pack(w);
        }
    }

    /// Unpack a vector written by [`Wire::pack_slice`].
    fn unpack_vec(r: &mut WireReader) -> WireResult<Vec<Self>> {
        let len = r.get_len(0)?;
        // Cap the preallocation by the remaining byte count so a corrupt
        // length prefix cannot trigger an enormous allocation; decoding will
        // fail with UnexpectedEof soon after if the prefix was a lie.
        let mut out = Vec::with_capacity(len.min(r.remaining().max(16)));
        for _ in 0..len {
            out.push(Self::unpack(r)?);
        }
        Ok(out)
    }

    /// Exact packed size of a slice as written by [`Wire::pack_slice`].
    fn slice_packed_size(slice: &[Self]) -> usize {
        8 + slice.iter().map(Wire::packed_size).sum::<usize>()
    }

    /// Unpack a slice written by [`Wire::pack_slice`] as a
    /// [`PodView`](crate::PodView). [`Pod`](crate::Pod) element types
    /// override this to alias the reader's buffer (zero-copy when aligned);
    /// the default wraps the element-wise [`Wire::unpack_vec`] path.
    fn unpack_view(r: &mut WireReader) -> WireResult<crate::PodView<Self>> {
        Ok(crate::PodView::from_vec(Self::unpack_vec(r)?))
    }
}

/// Pack a value into a frozen payload sized with a single allocation.
pub fn packed<T: Wire>(value: &T) -> Bytes {
    let mut w = WireWriter::with_capacity(value.packed_size());
    value.pack(&mut w);
    w.finish()
}

/// Unpack a payload that must contain exactly one `T` and nothing else.
pub fn unpack_all<T: Wire>(bytes: Bytes) -> WireResult<T> {
    unpack_counted(bytes).map(|(value, _)| value)
}

/// [`unpack_all`], also returning the pod-slice bytes the decode moved,
/// `(copied, aliased)` (see [`WireReader::unpacked`]).
pub fn unpack_counted<T: Wire>(bytes: Bytes) -> WireResult<(T, (u64, u64))> {
    let mut r = WireReader::new(bytes);
    let value = T::unpack(&mut r)?;
    if !r.is_exhausted() {
        return Err(WireError::TrailingBytes { remaining: r.remaining() });
    }
    Ok((value, r.unpacked()))
}

// ---------------------------------------------------------------------------
// Primitive implementations
// ---------------------------------------------------------------------------

macro_rules! impl_wire_pod {
    ($($t:ty),* $(,)?) => {
        $(
            impl Wire for $t {
                fn pack(&self, w: &mut WireWriter) {
                    w.put_pod(*self);
                }
                fn unpack(r: &mut WireReader) -> WireResult<Self> {
                    r.get_pod()
                }
                fn packed_size(&self) -> usize {
                    std::mem::size_of::<$t>()
                }
                fn pack_slice(slice: &[Self], w: &mut WireWriter) {
                    w.put_pod_slice(slice);
                }
                fn unpack_vec(r: &mut WireReader) -> WireResult<Vec<Self>> {
                    r.get_pod_slice()
                }
                fn slice_packed_size(slice: &[Self]) -> usize {
                    8 + std::mem::size_of_val(slice)
                }
                fn unpack_view(r: &mut WireReader) -> WireResult<crate::PodView<Self>> {
                    r.get_pod_view()
                }
            }
        )*
    };
}

impl_wire_pod!(u8, i8, u16, i16, u32, i32, u64, i64, f32, f64);

impl Wire for usize {
    /// `usize` is framed as `u64` so payloads decode identically on 32- and
    /// 64-bit hosts.
    fn pack(&self, w: &mut WireWriter) {
        w.put_pod(*self as u64);
    }
    fn unpack(r: &mut WireReader) -> WireResult<Self> {
        Ok(r.get_pod::<u64>()? as usize)
    }
    fn packed_size(&self) -> usize {
        8
    }
}

impl Wire for bool {
    fn pack(&self, w: &mut WireWriter) {
        w.put_u8(*self as u8);
    }
    fn unpack(r: &mut WireReader) -> WireResult<Self> {
        match r.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(WireError::BadTag { ty: "bool", tag }),
        }
    }
    fn packed_size(&self) -> usize {
        1
    }
}

impl Wire for () {
    fn pack(&self, _w: &mut WireWriter) {}
    fn unpack(_r: &mut WireReader) -> WireResult<Self> {
        Ok(())
    }
    fn packed_size(&self) -> usize {
        0
    }
}

impl Wire for String {
    fn pack(&self, w: &mut WireWriter) {
        w.put_len(self.len());
        w.put_bytes(self.as_bytes());
    }
    fn unpack(r: &mut WireReader) -> WireResult<Self> {
        let len = r.get_len(1)?;
        let bytes = r.get_bytes(len)?;
        // Validate on the borrowed slice, then copy once — `to_vec` followed
        // by `from_utf8` would allocate and traverse twice.
        let s = std::str::from_utf8(bytes).map_err(|_| WireError::BadUtf8)?;
        Ok(s.to_owned())
    }
    fn packed_size(&self) -> usize {
        8 + self.len()
    }
}

// ---------------------------------------------------------------------------
// Composite implementations
// ---------------------------------------------------------------------------

impl<T: Wire> Wire for Vec<T> {
    fn pack(&self, w: &mut WireWriter) {
        T::pack_slice(self, w);
    }
    fn unpack(r: &mut WireReader) -> WireResult<Self> {
        T::unpack_vec(r)
    }
    fn packed_size(&self) -> usize {
        T::slice_packed_size(self)
    }
}

impl<T: Wire> Wire for Option<T> {
    fn pack(&self, w: &mut WireWriter) {
        match self {
            None => w.put_u8(0),
            Some(v) => {
                w.put_u8(1);
                v.pack(w);
            }
        }
    }
    fn unpack(r: &mut WireReader) -> WireResult<Self> {
        match r.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::unpack(r)?)),
            tag => Err(WireError::BadTag { ty: "Option", tag }),
        }
    }
    fn packed_size(&self) -> usize {
        1 + self.as_ref().map_or(0, Wire::packed_size)
    }
}

macro_rules! impl_wire_tuple {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: Wire),+> Wire for ($($name,)+) {
            fn pack(&self, w: &mut WireWriter) {
                $(self.$idx.pack(w);)+
            }
            fn unpack(r: &mut WireReader) -> WireResult<Self> {
                Ok(($($name::unpack(r)?,)+))
            }
            fn packed_size(&self) -> usize {
                0 $(+ self.$idx.packed_size())+
            }
        }
    };
}

impl_wire_tuple!(A: 0);
impl_wire_tuple!(A: 0, B: 1);
impl_wire_tuple!(A: 0, B: 1, C: 2);
impl_wire_tuple!(A: 0, B: 1, C: 2, D: 3);
impl_wire_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4);
impl_wire_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5);

/// Implement [`Wire`] for a struct framed as its listed fields, in order:
/// `pack` packs each field, `unpack` fills a struct literal (whose fields
/// evaluate in the order written) and `packed_size` sums the fields' sizes,
/// so the three methods agree by construction and the bytes equal those of
/// the tuple of the fields.
///
/// `wire_struct!(Name { a, b })` for a named-field struct, `Name { 0 }` for
/// a tuple struct and `Name<T> { items }` for a generic one (every type
/// parameter is bound by `Wire`). A field left out of the list fails to
/// compile: the struct literal misses it.
///
/// ```
/// use triolet_serial::{packed, unpack_all, wire_struct};
///
/// #[derive(Debug, PartialEq)]
/// struct Span {
///     start: usize,
///     len: u32,
/// }
/// wire_struct!(Span { start, len });
///
/// let s = Span { start: 7, len: 3 };
/// assert_eq!(packed(&s), packed(&(7usize, 3u32)));
/// assert_eq!(unpack_all::<Span>(packed(&s)).unwrap(), s);
/// ```
#[macro_export]
macro_rules! wire_struct {
    ($name:ident $(<$($g:ident),+>)? { $($field:tt),+ $(,)? }) => {
        impl$(<$($g: $crate::Wire),+>)? $crate::Wire for $name$(<$($g),+>)? {
            fn pack(&self, w: &mut $crate::WireWriter) {
                $($crate::Wire::pack(&self.$field, w);)+
            }
            fn unpack(r: &mut $crate::WireReader) -> $crate::WireResult<Self> {
                ::core::result::Result::Ok(Self { $($field: $crate::Wire::unpack(r)?),+ })
            }
            fn packed_size(&self) -> usize {
                0 $(+ $crate::Wire::packed_size(&self.$field))+
            }
        }
    };
}

impl<T: Wire, const N: usize> Wire for [T; N] {
    fn pack(&self, w: &mut WireWriter) {
        for x in self {
            x.pack(w);
        }
    }
    fn unpack(r: &mut WireReader) -> WireResult<Self> {
        // Decode into a Vec first to keep the code simple for non-Copy T.
        let mut v = Vec::with_capacity(N);
        for _ in 0..N {
            v.push(T::unpack(r)?);
        }
        Ok(v.try_into().map_err(|_| ()).expect("length N by construction"))
    }
    fn packed_size(&self) -> usize {
        self.iter().map(Wire::packed_size).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Wire + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = packed(&v);
        assert_eq!(bytes.len(), v.packed_size(), "packed_size must match pack output");
        let back = unpack_all::<T>(bytes).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn roundtrip_primitives() {
        roundtrip(0u8);
        roundtrip(-5i8);
        roundtrip(u16::MAX);
        roundtrip(i16::MIN);
        roundtrip(123456789u32);
        roundtrip(-123456789i32);
        roundtrip(u64::MAX);
        roundtrip(i64::MIN);
        roundtrip(3.5f32);
        roundtrip(-2.25e-10f64);
        roundtrip(usize::MAX);
        roundtrip(true);
        roundtrip(false);
        roundtrip(());
    }

    #[test]
    fn roundtrip_strings() {
        roundtrip(String::new());
        roundtrip("héllo wörld".to_string());
    }

    #[test]
    fn roundtrip_composites() {
        roundtrip(vec![1.0f32, 2.0, 3.0]);
        roundtrip(Vec::<f64>::new());
        roundtrip(vec![vec![1u32, 2], vec![], vec![3]]);
        roundtrip(Some(vec![1i64, 2]));
        roundtrip(Option::<u8>::None);
        roundtrip((1u32, 2.5f64, vec![3u8]));
        roundtrip([1.0f32, 2.0, 3.0]);
        roundtrip((1usize, (2usize, true), "x".to_string()));
    }

    #[test]
    fn pod_vec_uses_block_layout() {
        // length prefix (8) + raw element bytes: no per-element framing.
        let v = vec![1u16, 2, 3];
        assert_eq!(v.packed_size(), 8 + 6);
        // Nested (non-pod path) composite: outer prefix + per-element sizes.
        let vv = vec![vec![1u16], vec![2, 3]];
        assert_eq!(vv.packed_size(), 8 + (8 + 2) + (8 + 4));
    }

    #[test]
    fn bad_bool_tag() {
        let mut w = WireWriter::new();
        w.put_u8(2);
        let err = unpack_all::<bool>(w.finish()).unwrap_err();
        assert_eq!(err, WireError::BadTag { ty: "bool", tag: 2 });
    }

    #[derive(Debug, Clone, PartialEq)]
    struct Block {
        origin: (usize, usize),
        scale: f32,
        rows: Vec<u32>,
        label: Option<String>,
    }
    wire_struct!(Block { origin, scale, rows, label });

    #[derive(Debug, Clone, PartialEq)]
    struct Id(u64, bool);
    wire_struct!(Id { 0, 1 });

    #[derive(Debug, Clone, PartialEq)]
    struct Tagged<T, U> {
        tag: U,
        items: Vec<T>,
    }
    wire_struct!(Tagged<T, U> { tag, items });

    #[derive(Debug, Clone)]
    struct Edges {
        n: u64,
        edges: crate::PodView<f64>,
    }
    wire_struct!(Edges { n, edges });

    fn block() -> Block {
        Block { origin: (3, 9), scale: 0.5, rows: vec![1, 2, 3], label: Some("b".to_string()) }
    }

    #[test]
    fn wire_struct_frames_fields_in_listed_order() {
        let b = block();
        roundtrip(b.clone());
        roundtrip(Block { rows: vec![], label: None, ..b.clone() });
        // The bytes are the tuple of the fields, in the listed order.
        let fields = (b.origin, b.scale, b.rows.clone(), b.label.clone());
        assert_eq!(packed(&b), packed(&fields));
        assert_eq!(b.packed_size(), 16 + 4 + (8 + 12) + (1 + 8 + 1));
    }

    #[test]
    fn wire_struct_refuses_short_input_and_trailing_bytes() {
        let bytes = packed(&block());
        for cut in [0, 1, 16, bytes.len() - 1] {
            let short = bytes.slice(..cut);
            assert!(unpack_all::<Block>(short).is_err(), "{cut} of {} bytes", bytes.len());
        }
        let mut w = WireWriter::new();
        block().pack(&mut w);
        w.put_u8(7);
        let err = unpack_all::<Block>(w.finish()).unwrap_err();
        assert_eq!(err, WireError::TrailingBytes { remaining: 1 });
    }

    #[test]
    fn wire_struct_tuple_and_generic_forms() {
        roundtrip(Id(u64::MAX, true));
        assert_eq!(packed(&Id(5, false)), packed(&(5u64, false)));
        let t = Tagged { tag: b'x', items: vec![Id(1, true), Id(2, false)] };
        roundtrip(t.clone());
        assert_eq!(packed(&t), packed(&(b'x', vec![(1u64, true), (2u64, false)])));
        roundtrip(Tagged::<f64, ()> { tag: (), items: vec![1.5, -2.0] });
    }

    #[test]
    fn wire_struct_podview_field_aliases_on_unpack() {
        let e = Edges { n: 4, edges: crate::PodView::from_vec(vec![0.0, 0.25, 0.5, 1.0]) };
        let bytes = packed(&e);
        assert_eq!(bytes.len(), e.packed_size());
        let (back, moved) = unpack_counted::<Edges>(bytes).unwrap();
        // The f64 block starts at offset 16: aligned, so it is not copied.
        assert!(back.edges.is_aliased());
        assert_eq!(moved, (0, 32));
        assert_eq!((back.n, &back.edges[..]), (4, &[0.0, 0.25, 0.5, 1.0][..]));
    }

    #[test]
    fn trailing_bytes_detected() {
        let mut w = WireWriter::new();
        1u32.pack(&mut w);
        w.put_u8(0xFF);
        let err = unpack_all::<u32>(w.finish()).unwrap_err();
        assert_eq!(err, WireError::TrailingBytes { remaining: 1 });
    }
}
