//! Framing tests for deep composite types: the exact payload shapes the
//! engine ships (sliced arrays, part descriptors, histogram partials, block
//! tuples) must roundtrip and size-account exactly.

use triolet_serial::{packed, unpack_all, Wire, WireReader, WireWriter};

fn roundtrip<T: Wire + PartialEq + std::fmt::Debug>(v: T) {
    let bytes = packed(&v);
    assert_eq!(bytes.len(), v.packed_size(), "packed_size mismatch for {v:?}");
    assert_eq!(unpack_all::<T>(bytes).unwrap(), v);
}

#[test]
fn engine_payload_shapes() {
    // (part descriptor, data window): a node's sliced input.
    roundtrip((7usize, 12usize, vec![1.5f32; 12]));
    // (block coords, block data): a build_array2 node result.
    roundtrip(((2usize, 3usize, 4usize, 5usize), vec![0.25f64; 20]));
    // Histogram partial with overflow counter semantics (bins + scalar).
    roundtrip((vec![0u64, 5, 9], 2u64));
    // A gather of variable-length fragments.
    roundtrip(vec![(0usize, vec![1u8, 2]), (5usize, vec![]), (9usize, vec![3])]);
}

#[test]
fn deep_nesting_roundtrips() {
    let deep: Vec<Vec<Vec<(u32, f64)>>> = (0..4)
        .map(|i| (0..i).map(|j| (0..j).map(|k| (k as u32, k as f64 * 0.5)).collect()).collect())
        .collect();
    roundtrip(deep);
}

#[test]
fn six_tuple_and_fixed_arrays() {
    roundtrip((1u8, 2u16, 3u32, 4u64, 5.0f32, 6.0f64));
    roundtrip([[1u32, 2], [3, 4], [5, 6]]);
    roundtrip([(1u8, vec![2u16]), (3u8, vec![4u16, 5])]);
}

#[test]
fn interleaved_heterogeneous_stream() {
    // A writer that frames a whole conversation; the reader must consume it
    // field-exactly (what dispatch result streams look like).
    let mut w = WireWriter::new();
    42u32.pack(&mut w);
    vec![1.0f32, 2.0].pack(&mut w);
    "fragment".to_string().pack(&mut w);
    (vec![9u64], Some(3u8)).pack(&mut w);
    false.pack(&mut w);
    let mut r = WireReader::new(w.finish());
    assert_eq!(u32::unpack(&mut r).unwrap(), 42);
    assert_eq!(Vec::<f32>::unpack(&mut r).unwrap(), vec![1.0, 2.0]);
    assert_eq!(String::unpack(&mut r).unwrap(), "fragment");
    assert_eq!(<(Vec<u64>, Option<u8>)>::unpack(&mut r).unwrap(), (vec![9], Some(3)));
    assert!(!bool::unpack(&mut r).unwrap());
    assert!(r.is_exhausted());
}

#[test]
fn large_pod_block_copy_is_exact() {
    // A multi-megabyte pod array: the block-copy fast path must be
    // byte-exact and size-exact.
    let big: Vec<f64> = (0..500_000).map(|i| i as f64 * 0.001).collect();
    let bytes = packed(&big);
    assert_eq!(bytes.len(), 8 + 500_000 * 8);
    let back = unpack_all::<Vec<f64>>(bytes).unwrap();
    assert_eq!(back.len(), big.len());
    assert_eq!(back[499_999], big[499_999]);
}

#[test]
fn writer_capacity_hint_is_exact_for_composites() {
    let value = (vec![vec![1u32; 7]; 3], "tail".to_string(), Some(2.5f64));
    let mut w = WireWriter::with_capacity(value.packed_size());
    value.pack(&mut w);
    assert_eq!(w.len(), value.packed_size());
}
