//! Failure injection: corrupt payloads, panicking node tasks, disconnected
//! peers — failures must surface as errors or propagated panics, never as
//! silent corruption or hangs.

use std::panic::{catch_unwind, AssertUnwindSafe};

use triolet_cluster::{Cluster, ClusterConfig, Comm, CommError};
use triolet_serial::{packed, unpack_all, WireError};

#[test]
fn corrupt_payload_is_detected_not_misread() {
    // Flip bytes in a packed vector: unpack must error (or, if the
    // corruption hits element bytes only, still produce a same-length
    // vector — never UB or a bogus length).
    let original = vec![1.0f64, 2.0, 3.0, 4.0];
    let bytes = packed(&original);
    for flip_at in 0..bytes.len() {
        let mut corrupt: Vec<u8> = bytes.to_vec();
        corrupt[flip_at] ^= 0xFF;
        match unpack_all::<Vec<f64>>(bytes::Bytes::from(corrupt)) {
            Ok(v) => assert_eq!(v.len(), original.len(), "flip at {flip_at}"),
            Err(
                WireError::BadLength { .. }
                | WireError::UnexpectedEof { .. }
                | WireError::TrailingBytes { .. }
                | WireError::BadTag { .. }
                | WireError::BadUtf8,
            ) => {}
        }
    }
}

#[test]
fn truncated_payload_every_prefix_is_safe() {
    let original = (0..50u64).collect::<Vec<u64>>();
    let bytes = packed(&original);
    for cut in 0..bytes.len() {
        let prefix = bytes.slice(0..cut);
        assert!(
            unpack_all::<Vec<u64>>(prefix).is_err(),
            "every strict prefix must fail to decode (cut={cut})"
        );
    }
}

#[test]
fn node_task_panic_propagates_in_virtual_mode() {
    let cluster = Cluster::new(ClusterConfig::virtual_cluster(3, 2));
    let result = catch_unwind(AssertUnwindSafe(|| {
        cluster.run(vec![1u64, 2, 3], |_ctx, x: u64| {
            if x == 2 {
                panic!("injected node failure");
            }
            x
        })
    }));
    assert!(result.is_err(), "node panic must reach the caller");
    // The cluster must remain usable afterwards.
    let out = cluster.run(vec![10u64, 20, 30], |_ctx, x: u64| x + 1);
    assert_eq!(out.results, vec![11, 21, 31]);
}

#[test]
fn disconnected_peer_surfaces_as_error() {
    let mut handles = Comm::create(2);
    let h1 = handles.pop().expect("rank 1");
    let mut h0 = handles.pop().expect("rank 0");
    // Drop rank 1 entirely: its receiver disappears.
    drop(h1);
    // Sending to a dropped rank reports Disconnected (its channel is
    // closed), not a hang or panic.
    let r = h0.send(1, 0, &42u64);
    assert_eq!(r, Err(CommError::Disconnected));
    // Receiving from a dropped rank that never sent: all senders to rank 0
    // still exist (h0 holds clones), so this would block forever — instead
    // verify the buffered-path error shape via an immediate self-check:
    // rank 0 can still talk to itself through the buffer.
    h0.send(0, 7, &7u32).unwrap();
    assert_eq!(h0.recv::<u32>(0, 7).unwrap(), 7);
}

#[test]
fn zero_size_payloads_roundtrip() {
    let cluster = Cluster::new(ClusterConfig::virtual_cluster(2, 1));
    let out = cluster.run(vec![Vec::<u8>::new(), Vec::new()], |_ctx, v: Vec<u8>| v.len() as u64);
    assert_eq!(out.results, vec![0, 0]);
    // Empty payloads still count as messages (with their 8-byte length
    // frames).
    assert_eq!(out.timing.messages, 4);
    assert_eq!(out.timing.bytes_out, 16);
}
