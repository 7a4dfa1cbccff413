//! Host cost that can be counted exactly: heap allocations per call.
//!
//! Host seconds on a small shared machine do not resolve a 25% change, but
//! allocation counts are exact and need only `std`. This binary installs a
//! counting global allocator (`System` plus two relaxed atomics) and has a
//! single `#[test]`, so the test harness allocates nothing while a call is
//! counted. Each bound is an upper bound pinned at the measured count: a
//! change that lowers a count lowers its bound on purpose, and one that
//! raises it fails here first.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use triolet::prelude::*;
use triolet_apps::cutcp;

static CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// `System`, counting every allocation and reallocation and the bytes each
/// asks for.
struct Counting;

impl Counting {
    fn count(size: usize) {
        CALLS.fetch_add(1, Relaxed);
        BYTES.fetch_add(size as u64, Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counters are plain atomics and allocate nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Counting::count(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Counting::count(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Counting::count(new_size);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// `(allocations, bytes)` made by `f`, its result dropped after counting.
fn counted<R>(f: impl FnOnce() -> R) -> (u64, u64) {
    let (calls, bytes) = (CALLS.load(Relaxed), BYTES.load(Relaxed));
    let r = f();
    let counts = (CALLS.load(Relaxed) - calls, BYTES.load(Relaxed) - bytes);
    drop(r);
    counts
}

#[test]
fn allocations_per_call_stay_under_their_bounds() {
    // cutcp at the benchmark's size and shape: 16 384 atoms, a 48³ grid,
    // 8 nodes × 16 threads. The first call initialises lazily, so count the
    // second.
    let input = cutcp::generate(16_384, 48, 1);
    let rt = Triolet::new(ClusterConfig::virtual_cluster(8, 16));
    counted(|| cutcp::run_triolet(&rt, &input));
    let (calls, bytes) = counted(|| cutcp::run_triolet(&rt, &input));
    eprintln!("cutcp 8x16: {calls} allocations, {bytes} bytes");
    let (max_calls, max_bytes) = CUTCP;
    assert!(calls <= max_calls, "cutcp: {calls} allocations > {max_calls}");
    assert!(bytes <= max_bytes, "cutcp: {bytes} bytes > {max_bytes}");
}

/// cutcp's bounds, `(allocations, bytes)`. An unoptimised build allocates
/// 65 552 more small blocks per call (four per atom, in the nested
/// `concat_map`s, which the optimiser removes), so each profile has its own
/// bound.
const CUTCP: (u64, u64) =
    if cfg!(debug_assertions) { (67_321, 177_449_000) } else { (1_769, 177_186_728) };
