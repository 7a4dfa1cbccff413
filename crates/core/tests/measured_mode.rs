//! Measured-mode (real OS threads) integration tests for the engine: the
//! same skeletons that run in virtual time must produce identical results
//! when every node is a live thread with a live work-stealing pool — and
//! concurrent reuse of one runtime must be safe.

use triolet::prelude::*;
use triolet::{Array2, CountHist};

fn measured(nodes: usize, tpn: usize) -> Triolet {
    Triolet::new(ClusterConfig::measured(nodes, tpn))
}

#[test]
fn all_consumers_agree_with_sequential() {
    let rt = measured(2, 2);
    let xs: Vec<i64> = (0..5000).map(|i| (i * 2654435761) % 997 - 498).collect();

    let sum = rt.sum(from_vec(xs.clone()).par());
    assert_eq!(sum.value, xs.iter().sum::<i64>());

    let cnt = rt.count(from_vec(xs.clone()).filter(|x: &i64| *x > 0).par());
    assert_eq!(cnt.value, xs.iter().filter(|&&x| x > 0).count() as u64);

    let mx = rt.max(from_vec(xs.clone()).par());
    assert_eq!(mx.value, xs.iter().copied().max());

    let v = rt.build_vec(from_vec(xs.clone()).map(|x: i64| x * 2).par(), &(), |_, x| x);
    assert_eq!(v.value, xs.iter().map(|x| x * 2).collect::<Vec<_>>());

    let hist = rt.histogram(64, from_vec(xs.clone()).map(|x: i64| x.rem_euclid(64) as usize).par());
    let mut expect = vec![0u64; 64];
    for x in &xs {
        expect[x.rem_euclid(64) as usize] += 1;
    }
    assert_eq!(hist.value, expect);
}

#[test]
fn build_array2_measured() {
    let rt = measured(2, 2);
    let m =
        rt.build_array2(range2d(13, 9).map(|(r, c): (usize, usize)| (r * 100 + c) as u32).par());
    let expect = Array2::from_fn(13, 9, |r, c| (r * 100 + c) as u32);
    assert_eq!(m.value, expect);
}

#[test]
fn env_skeletons_measured() {
    let rt = measured(2, 2);
    let weights: Vec<f64> = (0..32).map(|i| i as f64 * 0.25).collect();
    let v = rt.build_vec(range(200), &weights, |w: &Vec<f64>, i: usize| w[i % w.len()] * i as f64);
    let expect: Vec<f64> = (0..200).map(|i| weights[i % 32] * i as f64).collect();
    assert_eq!(v.value, expect);

    let h = rt.fold_reduce(
        range(1000).par(),
        &weights,
        || CountHist::new(32),
        |w: &Vec<f64>, mut h: CountHist, i: usize| {
            h.feed((w[i % w.len()] * 4.0) as usize % 32);
            h
        },
        |mut a, b| {
            a.merge(b);
            a
        },
    );
    assert_eq!(h.value.bins().iter().sum::<u64>(), 1000);
}

#[test]
fn runtime_is_reusable_across_many_operations() {
    // One runtime, many skeleton invocations back to back (no leaked state,
    // no pool exhaustion).
    let rt = measured(2, 2);
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
    let rt = std::sync::Arc::new(measured(2, 2));
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

#[test]
fn virtual_and_measured_bytes_match() {
    // The traffic accounting must not depend on the execution mode.
    let xs: Vec<f32> = (0..3000).map(|i| i as f32).collect();
    let run = |rt: &Triolet| rt.sum(from_vec(xs.clone()).map(|x: f32| x as f64).par()).stats;
    let v = run(&Triolet::new(ClusterConfig::virtual_cluster(3, 2)));
    let m = run(&measured(3, 2));
    assert_eq!(v.bytes_out, m.bytes_out);
    assert_eq!(v.bytes_back, m.bytes_back);
    assert_eq!(v.messages, m.messages);
}

#[test]
fn virtual_and_measured_scatter_add_bits_match() {
    // Virtual mode streams its node-level fold, Measured joins then folds;
    // both are the same chunk-order left fold, so the f64 cells must agree
    // to the bit, not to a tolerance.
    let pairs: Vec<(usize, f64)> =
        (0..20_000).map(|i| ((i * 7919) % 97, 1.0 / (1.0 + i as f64))).collect();
    let run = |rt: &Triolet| rt.scatter_add(97, from_vec(pairs.clone()).par()).value;
    let v = run(&Triolet::new(ClusterConfig::virtual_cluster(2, 4)));
    let m = run(&measured(2, 4));
    let bits = |cells: &[f64]| cells.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
    assert_eq!(bits(&v), bits(&m));
}
