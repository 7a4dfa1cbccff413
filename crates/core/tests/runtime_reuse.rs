//! One runtime serves many skeleton calls: back to back on one thread, and
//! concurrently from several OS threads.

use triolet::prelude::*;

#[test]
fn runtime_is_reusable_across_many_operations() {
    // One runtime, many skeleton invocations back to back (no leaked state).
    let rt = Triolet::new(ClusterConfig::virtual_cluster(2, 2));
    let mut total = 0u64;
    for i in 0..50u64 {
        let s = rt.sum(range(100).map(move |k: usize| k as u64 + i).par());
        total += s.value;
    }
    let per_run: u64 = (0..100u64).sum();
    let expect: u64 = (0..50u64).map(|i| per_run + 100 * i).sum();
    assert_eq!(total, expect);
}

#[test]
fn runtime_shared_across_os_threads() {
    // The runtime is Sync: concurrent callers must not interfere.
    let rt = std::sync::Arc::new(Triolet::new(ClusterConfig::virtual_cluster(2, 2)));
    let results: Vec<u64> = std::thread::scope(|s| {
        let joins: Vec<_> = (0..4u64)
            .map(|t| {
                let rt = std::sync::Arc::clone(&rt);
                s.spawn(move || {
                    let c = rt.count(
                        range(400).filter(move |i: &usize| (*i as u64).is_multiple_of(t + 2)).par(),
                    );
                    c.value
                })
            })
            .collect();
        joins.into_iter().map(|j| j.join().expect("no panics")).collect()
    });
    for (t, c) in results.into_iter().enumerate() {
        let expect = (0..400u64).filter(|i| i % (t as u64 + 2) == 0).count() as u64;
        assert_eq!(c, expect);
    }
}
