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
use triolet_apps::{cutcp, sgemm};

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

/// Count `name`'s second call (the first initialises lazily) and hold it
/// to `(max_calls, max_bytes)`.
fn check<R>(name: &str, (max_calls, max_bytes): (u64, u64), f: impl Fn() -> R) {
    counted(&f);
    let (calls, bytes) = counted(&f);
    eprintln!("{name} 8x16: {calls} allocations, {bytes} bytes");
    assert!(calls <= max_calls, "{name}: {calls} allocations > {max_calls}");
    assert!(bytes <= max_bytes, "{name}: {bytes} bytes > {max_bytes}");
}

#[test]
fn allocations_per_call_stay_under_their_bounds() {
    // Each app at the benchmark's size and shape, 8 nodes × 16 threads:
    // cutcp over 16 384 atoms and a 48³ grid, sgemm over 768² matrices.
    let rt = Triolet::new(ClusterConfig::virtual_cluster(8, 16));
    let input = cutcp::generate(16_384, 48, 1);
    check("cutcp", CUTCP, || cutcp::run_triolet(&rt, &input));
    let input = sgemm::generate(768, 1);
    check("sgemm", SGEMM, || sgemm::run_triolet(&rt, &input));
}

/// cutcp's bounds, `(allocations, bytes)`. An unoptimised build allocates
/// 65 552 more small blocks per call (four per atom, in the nested
/// `concat_map`s, which the optimiser removes), so each profile has its own
/// bound.
const CUTCP: (u64, u64) =
    if cfg!(debug_assertions) { (67_304, 177_186_632) } else { (1_752, 176_924_360) };

/// sgemm's bounds, `(allocations, bytes)`, one pair per profile. The bytes
/// hold no root copy of an input panel: slicing is windows onto the
/// matrices, and the transposed `B` moves into its strips, so copying
/// either back in (7.1 MB at this size) fails here.
const SGEMM: (u64, u64) =
    if cfg!(debug_assertions) { (1_252, 160_537_168) } else { (1_220, 160_536_912) };
