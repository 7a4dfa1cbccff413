//! Job-service gates: admission control, deterministic policy scheduling,
//! per-tenant accounting, tenant-tagged traces, and solo-vs-service result
//! identity under a seeded fault plan with a crashed rank.

use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

use triolet::prelude::*;
use triolet::service::percentile;
use triolet::TrafficSnapshot;

fn config(nodes: usize, threads: usize) -> ClusterConfig {
    ClusterConfig::virtual_cluster(nodes, threads)
}

/// A deterministic mixed workload job: dot-product fold against a small
/// broadcast environment, returning the value's bits for exact comparison.
fn dot_job(size: usize, seed: u64) -> impl FnOnce(&Triolet) -> Run<u64> + Send + 'static {
    move |rt: &Triolet| {
        let env: Vec<f64> = (0..64).map(|i| (i as f64) * 0.5 - 1.0).collect();
        let xs: Vec<f64> =
            (0..size).map(|i| ((i as u64).wrapping_mul(seed) % 4093) as f64 * 0.125).collect();
        rt.fold_reduce(
            from_vec(xs).par(),
            &env,
            || 0.0f64,
            |env, acc: f64, x: f64| acc + x * env[(x as usize) % env.len()],
            |a, b| a + b,
        )
        .map(f64::to_bits)
    }
}

#[test]
fn service_results_match_solo_runs_under_faults() {
    // Seeded lossy plan with a crashed middle rank: the service must not
    // perturb any job's result — dispatch decisions are pure functions of
    // per-call inputs, so interleaving through the shared cluster is
    // invisible to values.
    let plan = FaultPlan::seeded(2024)
        .with_drop(0.15)
        .with_duplication(0.05)
        .with_timeout(Duration::from_millis(1))
        .with_crash(2);
    let cfg = config(5, 2).with_faults(plan);
    let svc = Triolet::new(cfg).into_service(
        ServiceConfig::new(SchedPolicy::FairShare { weights: vec![1.0, 4.0] }).with_queue_cap(32),
    );
    let jobs: Vec<(u32, usize, u64)> =
        (0..10).map(|i| ((i % 2) as u32, 200 + 37 * i, 11 + i as u64)).collect();
    let handles: Vec<_> = jobs
        .iter()
        .map(|&(t, size, seed)| {
            svc.submit(Tenant(t), size as f64, dot_job(size, seed)).expect("admitted")
        })
        .collect();
    svc.drain();
    for (handle, &(_, size, seed)) in handles.into_iter().zip(&jobs) {
        let out = svc.wait(handle);
        let solo = dot_job(size, seed)(&Triolet::new(cfg));
        assert_eq!(out.value, solo.value, "service job diverged from solo run");
        assert_eq!(out.report.stats.messages, solo.stats.messages);
        assert_eq!(out.report.stats.retries, solo.stats.retries);
        assert_eq!(out.report.stats.redispatches, solo.stats.redispatches);
        assert_eq!(out.report.stats.bytes_out, solo.stats.bytes_out);
        assert_eq!(out.report.stats.bytes_back, solo.stats.bytes_back);
        assert!(out.report.stats.redispatches > 0, "crashed rank must force redispatches");
    }
}

#[test]
fn schedule_is_deterministic_across_service_instances() {
    let scenario = |policy: SchedPolicy| {
        let svc =
            Triolet::new(config(4, 2)).into_service(ServiceConfig::new(policy).with_queue_cap(64));
        for i in 0..24u64 {
            let tenant = Tenant((i % 3) as u32);
            let size = 100 + (i % 5) as usize * 50;
            svc.submit(tenant, size as f64, dot_job(size, i)).expect("admitted");
        }
        svc.drain();
        svc.completion_order()
    };
    for policy in [
        SchedPolicy::Fifo,
        SchedPolicy::FairShare { weights: vec![1.0, 2.0, 4.0] },
        SchedPolicy::Priority { levels: vec![2, 0, 1] },
    ] {
        let a = scenario(policy.clone());
        let b = scenario(policy.clone());
        assert_eq!(a, b, "schedule must be bit-identical under {policy:?}");
    }
}

#[test]
fn per_tenant_traffic_partitions_cluster_totals() {
    let svc = Triolet::new(config(4, 2))
        .into_service(ServiceConfig::new(SchedPolicy::Fifo).with_queue_cap(64));
    for i in 0..12u64 {
        svc.submit(Tenant((i % 3) as u32), 1.0, dot_job(150 + 10 * i as usize, i))
            .expect("admitted");
    }
    svc.drain();
    let usage = svc.usage();
    let summed = usage.iter().fold(TrafficSnapshot::default(), |acc, u| acc.plus(&u.traffic));
    let cluster = svc.runtime().cluster().stats().snapshot();
    assert_eq!(summed.messages, cluster.messages, "tenant messages must partition the total");
    assert_eq!(summed.bytes, cluster.bytes, "tenant bytes must partition the total");
    assert_eq!(summed.env_packs, cluster.env_packs);
    for u in &usage {
        assert_eq!(u.completed, 4);
        assert!(u.traffic.messages > 0);
        assert!(u.busy_s > 0.0);
    }
}

#[test]
fn fair_share_holds_cost_shares_to_configured_weights() {
    // 3 tenants, weights 1:2:4, quotas proportional to weight, unit sizes:
    // while every tenant is backlogged the stride schedule must keep each
    // tenant's completed-cost share within one job granule of its weight.
    let weights = [1.0, 2.0, 4.0];
    let svc = Triolet::new(config(4, 2)).into_service(
        ServiceConfig::new(SchedPolicy::FairShare { weights: weights.to_vec() })
            .with_queue_cap(512),
    );
    let quota = [30usize, 60, 120];
    let mut submitted = [0usize; 3];
    loop {
        let mut any = false;
        for t in 0..3 {
            if submitted[t] < quota[t] {
                submitted[t] += 1;
                any = true;
                svc.submit(Tenant(t as u32), 1.0, dot_job(64, (t * 1000 + submitted[t]) as u64))
                    .expect("admitted");
            }
        }
        if !any {
            break;
        }
    }
    // Measure shares at the first moment any tenant's queue could drain:
    // after 3 * min-quota completions every tenant is still backlogged.
    for _ in 0..90 {
        svc.step().expect("queued work");
    }
    let usage = svc.usage();
    let total: f64 = usage.iter().map(|u| u.cost).sum();
    let weight_sum: f64 = weights.iter().sum();
    for u in &usage {
        let achieved = u.cost / total;
        let configured = weights[u.tenant.idx()] / weight_sum;
        let err = (achieved - configured).abs() / configured;
        assert!(
            err <= 0.10,
            "tenant {} share {achieved:.3} vs configured {configured:.3} (err {err:.3})",
            u.tenant.0
        );
    }
    svc.drain();
}

#[test]
fn priority_tenants_cut_the_queue() {
    let svc = Triolet::new(config(4, 2)).into_service(
        ServiceConfig::new(SchedPolicy::Priority { levels: vec![0, 3] }).with_queue_cap(128),
    );
    for i in 0..20u64 {
        svc.submit(Tenant((i % 2) as u32), 1.0, dot_job(100, i)).expect("admitted");
    }
    svc.drain();
    let usage = svc.usage();
    // Everything was queued up front, so the high level's worst completion
    // must beat the low level's best.
    let hi_p99 = usage[1].latency_percentile_s(0.99);
    let lo_p50 = usage[0].latency_percentile_s(0.50);
    assert!(
        hi_p99 < lo_p50,
        "priority tenant p99 {hi_p99:.6} must beat best-effort p50 {lo_p50:.6}"
    );
}

#[test]
fn traced_run_tags_every_job_span_with_its_tenant() {
    let svc = Triolet::new(config(3, 2).with_trace(true))
        .into_service(ServiceConfig::new(SchedPolicy::Fifo).with_queue_cap(4));
    let mut rejected = 0;
    for i in 0..8u64 {
        match svc.submit(Tenant((i % 2) as u32), 1.0, dot_job(80, i)) {
            Ok(_) => {}
            Err(AdmissionError::Saturated { cap }) => {
                assert_eq!(cap, 4);
                rejected += 1;
            }
        }
    }
    assert_eq!(rejected, 4, "queue of 4 must reject the second wave");
    svc.drain();
    let trace = svc.take_trace();
    assert_eq!(trace.count_spans("service:job"), 4);
    assert_eq!(trace.count_events("service:admit"), 4);
    assert_eq!(trace.count_events("service:reject"), 4);
    // Every span of the merged timeline (the jobs' own skeleton spans
    // included) carries the tenant attribution.
    let service_spans = trace.spans.iter().filter(|s| s.name == "service:job").count();
    assert!(service_spans > 0);
    for s in &trace.spans {
        assert!(s.args.iter().any(|(k, _)| *k == "tenant"), "span {} missing tenant tag", s.name);
    }
    // Jobs run back to back on the service clock: the k-th service:job
    // span starts where the (k-1)-th ended.
    let mut jobs: Vec<(f64, f64)> =
        trace.spans.iter().filter(|s| s.name == "service:job").map(|s| (s.t0, s.t1)).collect();
    jobs.sort_by(|a, b| a.0.total_cmp(&b.0));
    for pair in jobs.windows(2) {
        assert_eq!(pair[1].0.to_bits(), pair[0].1.to_bits(), "gapless gang schedule");
    }
}

#[test]
fn service_stats_aggregate_consistently() {
    let svc = Triolet::new(config(4, 2))
        .into_service(ServiceConfig::new(SchedPolicy::Fifo).with_queue_cap(64));
    for i in 0..9u64 {
        svc.submit(Tenant((i % 3) as u32), 1.0, dot_job(120, i)).expect("admitted");
    }
    svc.drain();
    let stats = svc.service_stats();
    let usage = svc.usage();
    assert_eq!(stats.completed, 9);
    assert_eq!(stats.queued, 0);
    // Gang scheduling: the clock is exactly the sum of job makespans.
    assert!((stats.now_s - stats.busy_s).abs() < 1e-12);
    let busy: f64 = usage.iter().map(|u| u.busy_s).sum();
    assert!((busy - stats.busy_s).abs() < 1e-9);
    let u = stats.utilization();
    assert!(u > 0.0 && u <= 1.0, "utilization {u} out of range");
    let lats: Vec<f64> = usage.iter().flat_map(|u| u.latencies_s.iter().copied()).collect();
    assert!(percentile(&lats, 0.5) <= percentile(&lats, 0.99));
}

/// The whole ledger of a fresh 4x2 cluster after running `job` alone.
fn solo_traffic(job: impl FnOnce(&Triolet) -> Run<u64>) -> TrafficSnapshot {
    let rt = Triolet::new(config(4, 2));
    job(&rt);
    rt.cluster().stats().snapshot()
}

#[test]
fn outside_dispatches_during_a_drain_bill_no_tenant() {
    // Job 0 holds its worker until a second thread has run a skeleton on
    // the service's own runtime, so that dispatch lands inside a job.
    let (started_tx, started_rx) = mpsc::channel::<()>();
    let (done_tx, done_rx) = mpsc::channel::<()>();
    let outside = |rt: &Triolet| rt.sum(from_vec((0..500u64).collect::<Vec<_>>()).par());
    let svc = Triolet::new(config(4, 2))
        .into_service(ServiceConfig::new(SchedPolicy::Fifo).with_queue_cap(64));
    let jobs: Vec<(u32, usize, u64)> =
        (0..6).map(|i| ((i % 2) as u32, 100 + 20 * i, 3 + i as u64)).collect();
    let (_, size0, seed0) = jobs[0];
    svc.submit(Tenant(0), 1.0, move |rt: &Triolet| {
        started_tx.send(()).expect("the outside caller listens");
        done_rx.recv().expect("the outside caller reports");
        dot_job(size0, seed0)(rt)
    })
    .expect("admitted");
    for &(t, size, seed) in &jobs[1..] {
        svc.submit(Tenant(t), 1.0, dot_job(size, seed)).expect("admitted");
    }
    let svc = &svc;
    std::thread::scope(|s| {
        s.spawn(move || {
            started_rx.recv().expect("job 0 starts");
            outside(svc.runtime());
            done_tx.send(()).expect("job 0 waits");
        });
        svc.drain();
    });

    let mut total = solo_traffic(outside);
    for (t, u) in svc.usage().iter().enumerate() {
        let billed = jobs
            .iter()
            .filter(|j| j.0 as usize == t)
            .map(|&(_, size, seed)| solo_traffic(dot_job(size, seed)))
            .fold(TrafficSnapshot::default(), |acc, x| acc.plus(&x));
        assert_eq!(u.traffic, billed, "tenant {t} billed for traffic that is not its jobs'");
        total = total.plus(&billed);
    }
    assert_eq!(svc.runtime().cluster().stats().snapshot(), total);
}

#[test]
fn a_wait_issued_during_a_drain_returns_its_value() {
    // Job 0 holds the drain open until the second thread has issued its
    // wait on job 1, which cannot have committed yet: jobs commit in
    // selection order.
    let (started_tx, started_rx) = mpsc::channel::<()>();
    let (go_tx, go_rx) = mpsc::channel::<()>();
    let svc = Triolet::new(config(4, 2))
        .into_service(ServiceConfig::new(SchedPolicy::Fifo).with_queue_cap(8));
    svc.submit(Tenant(0), 1.0, move |rt: &Triolet| {
        started_tx.send(()).expect("the test listens");
        go_rx.recv().expect("the test lets job 0 finish");
        dot_job(100, 3)(rt)
    })
    .expect("admitted");
    let h1 = svc.submit(Tenant(1), 1.0, dot_job(120, 4)).expect("admitted");
    let (waiting_tx, waiting_rx) = mpsc::channel::<()>();
    let svc = &svc;
    let value = std::thread::scope(|s| {
        s.spawn(|| svc.drain());
        started_rx.recv().expect("job 0 starts");
        let waiter = s.spawn(move || {
            waiting_tx.send(()).expect("the test listens");
            svc.wait(h1).value
        });
        waiting_rx.recv().expect("the waiter starts");
        go_tx.send(()).expect("job 0 waits");
        waiter.join().expect("wait returns")
    });
    assert_eq!(value, dot_job(120, 4)(&Triolet::new(config(4, 2))).value);
}

#[test]
fn a_blocking_submission_saturated_during_a_drain_is_admitted() {
    // Every job first waits at a gate the test holds, so each of the
    // drain's workers holds a job while the test fills the queue behind
    // them. A blocking submission then meets a full queue mid-drain.
    let gate = Arc::new(Mutex::new(()));
    let held = gate.lock().expect("gate");
    let (started_tx, started_rx) = mpsc::channel::<()>();
    let gated = |n: usize| {
        let (gate, started) = (Arc::clone(&gate), started_tx.clone());
        move |rt: &Triolet| {
            started.send(()).expect("the test listens");
            drop(gate.lock().expect("gate"));
            dot_job(100 + n, 3 + n as u64)(rt)
        }
    };
    let svc = Triolet::new(config(4, 2))
        .into_service(ServiceConfig::new(SchedPolicy::Fifo).with_queue_cap(2));
    for n in 0..2 {
        svc.submit(Tenant(0), 1.0, gated(n)).expect("admitted");
    }
    // A drain starts one worker per host core, at most one per queued job.
    let workers = std::thread::available_parallelism().map_or(1, usize::from).min(2);
    let svc = &svc;
    let value = std::thread::scope(|s| {
        s.spawn(|| svc.drain());
        for _ in 0..workers {
            started_rx.recv().expect("a worker starts a job");
        }
        let mut n = 2;
        while svc.submit(Tenant(1), 1.0, gated(n)).is_ok() {
            n += 1;
        }
        let (stalled_tx, stalled_rx) = mpsc::channel::<()>();
        let late = s.spawn(move || {
            stalled_tx.send(()).expect("the test listens");
            svc.submit_blocking(Tenant(2), 1.0, dot_job(150, 9))
        });
        stalled_rx.recv().expect("the blocking submission starts");
        std::thread::sleep(Duration::from_millis(50));
        drop(held);
        let handle = late.join().expect("the blocking submission is admitted");
        svc.wait(handle).value
    });
    assert_eq!(value, dot_job(150, 9)(&Triolet::new(config(4, 2))).value);
    assert_eq!(svc.service_stats().queued, 0);
}
