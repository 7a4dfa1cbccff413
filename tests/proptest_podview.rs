//! Property-based gate for zero-copy POD unpack: for random payloads and
//! random byte offsets — including deliberately misaligned `Bytes` windows
//! that force the copying fallback — a `PodView` unpack must be bit-identical
//! to the copying `Vec` unpack of the same wire bytes.

use proptest::prelude::*;
use triolet_serial::{packed, PodView, Wire, WireReader, WireWriter};

/// Pack `prefix` raw bytes, then the slice, and hand back a reader
/// positioned after the prefix. The prefix shifts the payload window, so the
/// alignment of the aliased slice varies with it.
fn reader_after_prefix<T: Wire + Clone>(prefix: usize, v: &[T]) -> WireReader {
    let mut w = WireWriter::new();
    for i in 0..prefix {
        w.put_u8(i as u8);
    }
    v.to_vec().pack(&mut w);
    let mut r = WireReader::new(w.finish());
    for _ in 0..prefix {
        r.get_u8().expect("prefix byte present");
    }
    r
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// f64 payloads at random window offsets: aliased or copied, the view's
    /// contents are bit-identical to the copying path, and the reader's
    /// unpack counts account for every payload byte exactly once.
    #[test]
    fn podview_f64_matches_copying_path_at_any_offset(
        xs in proptest::collection::vec(-1e30f64..1e30, 0..200),
        prefix in 0usize..16,
    ) {
        let mut r = reader_after_prefix(prefix, &xs);
        let view: PodView<f64> = PodView::unpack(&mut r).expect("payload roundtrip");
        let (copied, aliased) = r.unpacked();

        prop_assert_eq!(view.len(), xs.len());
        for (a, b) in view.as_slice().iter().zip(&xs) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
        let payload = (xs.len() * 8) as u64;
        prop_assert_eq!(copied + aliased, payload, "every byte copied xor aliased");
        if view.is_aliased() {
            prop_assert_eq!(copied, 0);
        } else {
            prop_assert_eq!(aliased, 0);
        }
    }

    /// Same property for u32 (4-byte alignment) and u8 (always aliasable).
    #[test]
    fn podview_small_pod_matches_copying_path(
        xs in proptest::collection::vec(any::<u32>(), 0..300),
        bytes in proptest::collection::vec(any::<u8>(), 0..300),
        prefix in 0usize..8,
    ) {
        let mut r = reader_after_prefix(prefix, &xs);
        let view: PodView<u32> = PodView::unpack(&mut r).expect("payload roundtrip");
        prop_assert_eq!(view.as_slice(), xs.as_slice());

        let mut r = reader_after_prefix(prefix, &bytes);
        let view: PodView<u8> = PodView::unpack(&mut r).expect("payload roundtrip");
        prop_assert!(view.is_aliased() || bytes.is_empty(), "align-1 windows always alias");
        prop_assert_eq!(view.as_slice(), bytes.as_slice());
    }

    /// Sweeping a full alignment period of window offsets must hit at least
    /// one misaligned window (forcing the copying fallback) for u64 — and
    /// every offset, aligned or not, must decode identical bits. This pins
    /// the fallback path itself, not just whichever branch the allocator's
    /// alignment happens to choose.
    #[test]
    fn offset_sweep_forces_fallback_and_stays_bit_identical(
        xs in proptest::collection::vec(any::<u64>(), 1..100),
    ) {
        let mut fallbacks = 0;
        for prefix in 0..8 {
            let mut r = reader_after_prefix(prefix, &xs);
            let view: PodView<u64> = PodView::unpack(&mut r).expect("payload roundtrip");
            if !view.is_aliased() {
                fallbacks += 1;
            }
            prop_assert_eq!(view.as_slice(), xs.as_slice());
            prop_assert_eq!(view.clone().into_vec(), xs.clone());
        }
        prop_assert!(fallbacks >= 7, "at most one offset in 8 can be 8-aligned, got {} fallbacks", fallbacks);
    }

    /// The wire format is unchanged: bytes packed from a `PodView` decode as
    /// a plain `Vec` and vice versa, bit-identically.
    #[test]
    fn podview_and_vec_are_wire_interchangeable(
        xs in proptest::collection::vec(any::<i64>(), 0..200),
    ) {
        let from_vec = packed(&xs);
        let from_view = packed(&PodView::from_vec(xs.clone()));
        prop_assert_eq!(&from_vec, &from_view);

        let as_view: PodView<i64> = triolet_serial::unpack_all(from_vec).expect("roundtrip");
        prop_assert_eq!(as_view.as_slice(), xs.as_slice());
        let as_vec: Vec<i64> = triolet_serial::unpack_all(from_view).expect("roundtrip");
        prop_assert_eq!(as_vec, xs);
    }
}
