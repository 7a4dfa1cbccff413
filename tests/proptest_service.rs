//! Property-based tenancy isolation: any interleaving of N tenants' jobs
//! through the shared [`JobService`] — under FairShare or Priority, across
//! seeded fault plans including crashed ranks — yields
//! per-job results bit-identical to running each job alone on an identically
//! configured cluster, and per-job traffic equal to that solo cluster's
//! whole ledger. Values and traffic accounting are order-independent;
//! only wall-measured timings may differ, so those are deliberately not
//! compared. The schedule itself must also be deterministic: two identical
//! services complete jobs in the same order.

use proptest::prelude::*;
use triolet::prelude::*;
use triolet::TrafficSnapshot;

mod common;
use common::{cluster, plan_for};

fn policy_from(sel: u64, tenants: usize) -> SchedPolicy {
    if sel % 2 == 0 {
        SchedPolicy::FairShare { weights: (0..tenants).map(|t| (t + 1) as f64).collect() }
    } else {
        SchedPolicy::Priority { levels: (0..tenants as u32).rev().collect() }
    }
}

/// One job's deterministic recipe. `kind` selects among skeletons with
/// different dispatch shapes; the result is normalized to value bits.
#[derive(Debug, Clone, Copy)]
struct JobSpec {
    tenant: u32,
    kind: u64,
    size: usize,
    seed: u64,
}

fn run_spec(rt: &Triolet, spec: JobSpec) -> Run<Vec<u64>> {
    let xs: Vec<f64> = (0..spec.size)
        .map(|i| ((i as u64).wrapping_mul(spec.seed | 1) % 4093) as f64 * 0.125 - 64.0)
        .collect();
    match spec.kind % 3 {
        0 => rt.sum(from_vec(xs).par()).map(|v| vec![v.to_bits()]),
        1 => {
            let env: Vec<f64> = (0..32).map(|i| (i as f64) * 0.5 - 1.0).collect();
            rt.fold_reduce(
                from_vec(xs).par(),
                &env,
                || 0.0f64,
                |env, acc: f64, x: f64| acc + x * env[(x.abs() as usize) % env.len()],
                |a, b| a + b,
            )
            .map(|v| vec![v.to_bits()])
        }
        _ => rt.histogram(8, from_vec(xs).map(|x: f64| (x.abs() as usize) % 8).par()),
    }
}

fn specs_for(tenants: usize, jobs: usize, seed: u64) -> Vec<JobSpec> {
    (0..jobs)
        .map(|j| JobSpec {
            tenant: (j % tenants) as u32,
            kind: seed.wrapping_add(j as u64).wrapping_mul(0x9e37_79b9),
            size: 40 + (j * 31) % 300,
            seed: seed.wrapping_add(j as u64 * 7919),
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn service_jobs_are_bit_identical_to_solo_runs(
        (nodes, tpn) in (2usize..=8, 1usize..=3),
        tenants in 1usize..=4,
        jobs in 1usize..=12,
        policy_sel in 0u64..2,
        seed in 0u64..1_000,
    ) {
        let cfg = cluster((nodes, tpn), plan_for(seed, nodes));
        let specs = specs_for(tenants, jobs, seed);

        let svc = Triolet::new(cfg).into_service(
            ServiceConfig::new(policy_from(policy_sel, tenants)).with_queue_cap(jobs.max(1)),
        );
        let handles: Vec<_> = specs
            .iter()
            .map(|&spec| {
                svc.submit(Tenant(spec.tenant), spec.size as f64, move |rt: &Triolet| {
                    run_spec(rt, spec)
                })
                .expect("queue sized to hold every job")
            })
            .collect();
        svc.drain();

        let mut banked = TrafficSnapshot::default();
        for (handle, &spec) in handles.into_iter().zip(&specs) {
            let out = svc.wait(handle);
            // Solo baseline: a fresh, identically configured cluster
            // running only this job. Values and traffic counters are pure
            // functions of (config, job); the service's interleaving must
            // not leak into either.
            let solo_rt = Triolet::new(cfg);
            let solo = run_spec(&solo_rt, spec);
            prop_assert_eq!(out.report.traffic, solo_rt.cluster().stats().snapshot());
            banked = banked.plus(&out.report.traffic);
            prop_assert_eq!(&out.value, &solo.value, "value diverged for {:?}", spec);
            prop_assert_eq!(out.report.stats.messages, solo.stats.messages);
            prop_assert_eq!(out.report.stats.retries, solo.stats.retries);
            prop_assert_eq!(out.report.stats.redispatches, solo.stats.redispatches);
            prop_assert_eq!(out.report.stats.bytes_out, solo.stats.bytes_out);
            prop_assert_eq!(out.report.stats.bytes_back, solo.stats.bytes_back);
            prop_assert_eq!(out.report.tenant, Tenant(spec.tenant));
        }
        // The service runtime's ledger is exactly the jobs' traffic.
        prop_assert_eq!(svc.runtime().cluster().stats().snapshot(), banked);
    }

    #[test]
    fn identical_services_complete_in_identical_order(
        (nodes, tpn) in (2usize..=6, 1usize..=2),
        tenants in 1usize..=4,
        jobs in 1usize..=16,
        policy_sel in 0u64..2,
        seed in 0u64..1_000,
    ) {
        let cfg = cluster((nodes, tpn), plan_for(seed, nodes));
        let specs = specs_for(tenants, jobs, seed);
        let run_service = || {
            let svc = Triolet::new(cfg).into_service(
                ServiceConfig::new(policy_from(policy_sel, tenants))
                    .with_queue_cap(jobs.max(1)),
            );
            for &spec in &specs {
                svc.submit(Tenant(spec.tenant), spec.size as f64, move |rt: &Triolet| {
                    run_spec(rt, spec)
                })
                .expect("queue sized to hold every job");
            }
            svc.drain();
            svc.completion_order()
        };
        prop_assert_eq!(run_service(), run_service(), "schedule must be deterministic");
    }
}
