//! Run any app of the table from the command line, in any implementation
//! it has, or the multi-tenant job service demo.
//!
//! ```text
//! cargo run --release -p triolet-apps --bin triolet-app -- mriq \
//!     --impl triolet --nodes 8 --threads 16 --pixels 16384 --samples 2048
//! cargo run --release -p triolet-apps --bin triolet-app -- jobs \
//!     --nodes 8 --threads 2 --tenants 3 --jobs 60 --policy fair
//! ```
//!
//! A malformed command line, an implementation the app does not have, or
//! fault flags on an Eden run (its runtime injects none) exits 2; an Eden
//! runtime failure (sgemm's buffers beyond one node) exits 1.

use triolet::prelude::*;
use triolet::service::percentile;
use triolet_apps::cli::{stats_line, Opts};
use triolet_apps::table::{self, AppError, Impl, APPS};

fn usage(why: &str) -> ! {
    eprintln!(
        "triolet-app: {why}\nusage: triolet-app <app> [--impl seq|triolet|tiled|lowlevel|eden] \
         [--nodes N] [--threads T] [--seed S] [--trace-out FILE] [--crash RANK] [--drop P] \
         [--fault-seed S] [--timeout-ms T] [--<size> N]..."
    );
    for app in APPS {
        let sizes: Vec<String> =
            app.sizes().iter().map(|s| format!("--{} {}", s.key, s.cli)).collect();
        eprintln!("  {:6}  {}", app.name(), sizes.join(" "));
    }
    eprintln!("  jobs    --tenants 3 --jobs 60 --cap 32 --items 512 --policy fifo|fair|priority");
    std::process::exit(2);
}

fn main() {
    let mut args = std::env::args().skip(1);
    let name = args.next().unwrap_or_default();
    if name == "jobs" {
        return jobs(args.collect());
    }
    let app = table::app(&name).unwrap_or_else(|| usage(&format!("no app named {name:?}")));
    let defaults = app.sizes().iter().map(|s| (s.key, s.cli));
    let opts = Opts::new(defaults).parse(args).unwrap_or_else(|why| usage(&why));
    println!("{}", opts.banner(app.title()));
    let input = app.generate(&opts.values(), opts.seed);
    let out = input.run(opts.imp, opts.cluster_config()).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(if matches!(e, AppError::Eden(_)) { 1 } else { 2 })
    });
    if opts.imp == Impl::Seq {
        println!("time={:.4}s (sequential)", out.stats.total_s);
    } else {
        println!("{}", stats_line(&out.stats));
    }
    if !out.trace.is_empty() {
        opts.write_trace(&out.trace);
    }
    println!("{}", input.summary(&out));
}

/// The job service demo: many tenants submitting mixed-size skeleton jobs
/// through one shared [`JobService`], under a selectable scheduling policy.
///
/// Tenant `t` weighs `t + 1` under `--policy fair` (and has priority level
/// `t` under `--policy priority`); each tenant's job count is proportional
/// to its weight so every tenant stays backlogged for the whole run. The
/// report prints per-tenant achieved shares against configured shares,
/// p50/p99 job latency on the service clock, and cluster utilization.
fn jobs(mut args: Vec<String>) {
    if args.iter().any(|a| a == "--impl") {
        usage("jobs takes no --impl");
    }
    let mut policy = "fair".to_string();
    while let Some(at) = args.iter().position(|a| a == "--policy") {
        args.remove(at);
        policy = if at < args.len() { args.remove(at) } else { usage("--policy needs a value") };
    }
    let defaults = [("tenants", 3), ("jobs", 60), ("cap", 32), ("items", 512)];
    let opts = Opts { nodes: 8, threads: 2, ..Opts::new(defaults) };
    let opts = opts.parse(args).unwrap_or_else(|why| usage(&why));
    let [tenants, jobs, cap, items]: [usize; 4] = opts.values().try_into().expect("four keys");
    if tenants == 0 || jobs == 0 {
        usage("--tenants and --jobs must be positive");
    }
    let policy = match policy.as_str() {
        "fifo" => SchedPolicy::Fifo,
        "fair" => {
            SchedPolicy::FairShare { weights: (0..tenants).map(|t| (t + 1) as f64).collect() }
        }
        "priority" => SchedPolicy::Priority { levels: (0..tenants as u32).collect() },
        other => {
            eprintln!("jobs: unknown policy {other:?} (fifo|fair|priority)");
            std::process::exit(2);
        }
    };
    let cfg = opts.cluster_config();
    println!(
        "jobs: cluster={}x{} tenants={tenants} jobs={jobs} cap={cap} policy={} seed={}",
        cfg.nodes,
        cfg.threads_per_node,
        policy.name(),
        opts.seed
    );

    let svc =
        Triolet::new(cfg).into_service(ServiceConfig::new(policy.clone()).with_queue_cap(cap));

    // Per-tenant job quotas proportional to weight, so all tenants stay
    // backlogged and the achieved shares are meaningful.
    let total_weight: f64 = (0..tenants).map(|t| policy.weight_of(Tenant(t as u32))).sum();
    let quota: Vec<usize> = (0..tenants)
        .map(|t| {
            let w = policy.weight_of(Tenant(t as u32));
            ((jobs as f64 * w / total_weight).round() as usize).max(1)
        })
        .collect();

    // Round-robin submission: in round `r` every tenant with quota left
    // submits one job, its size cycling 1x/2x/4x the base item count per
    // tenant (not globally: with K tenants and K size classes a global cycle
    // would pin each tenant to one size, skewing the cost shares).
    let mut job_index = 0u64;
    for round in 0..quota.iter().copied().max().unwrap_or(0) {
        for t in (0..tenants).filter(|&t| round < quota[t]) {
            let items = items << (round % 3);
            let seed = opts.seed.wrapping_add(job_index.wrapping_mul(0x9e37_79b9));
            job_index += 1;
            let xs: Vec<f64> =
                (0..items).map(|i| ((i as u64).wrapping_mul(seed) % 8191) as f64 * 0.25).collect();
            svc.submit_blocking(Tenant(t as u32), items as f64, move |rt: &Triolet| {
                rt.sum(from_vec(xs).par())
            });
        }
    }
    svc.drain();

    let usage = svc.usage();
    let stats = svc.service_stats();
    let total_cost: f64 = usage.iter().map(|u| u.cost).sum();
    let total_busy: f64 = usage.iter().map(|u| u.busy_s).sum();
    println!(
        "| tenant | weight | jobs | share(cost) | share(busy) | configured | p50 (s) | p99 (s) |"
    );
    println!(
        "|-------:|-------:|-----:|------------:|------------:|-----------:|--------:|--------:|"
    );
    for u in &usage {
        let w = policy.weight_of(u.tenant);
        println!(
            "| {} | {:.0} | {} | {:.3} | {:.3} | {:.3} | {:.6} | {:.6} |",
            u.tenant.0,
            w,
            u.completed,
            if total_cost > 0.0 { u.cost / total_cost } else { 0.0 },
            if total_busy > 0.0 { u.busy_s / total_busy } else { 0.0 },
            w / total_weight,
            u.latency_percentile_s(0.50),
            u.latency_percentile_s(0.99),
        );
    }
    let all_latencies: Vec<f64> =
        usage.iter().flat_map(|u| u.latencies_s.iter().copied()).collect();
    println!(
        "completed={} rejected={} makespan={:.6}s utilization={:.3} p50={:.6}s p99={:.6}s",
        stats.completed,
        stats.rejected,
        stats.now_s,
        stats.utilization(),
        percentile(&all_latencies, 0.50),
        percentile(&all_latencies, 0.99),
    );
    for u in &usage {
        println!(
            "tenant{}: msgs={} bytes={} retries={} redispatches={}",
            u.tenant.0,
            u.traffic.messages,
            u.traffic.bytes,
            u.traffic.retries,
            u.traffic.redispatches
        );
    }
    if opts.trace_out.is_some() {
        opts.write_trace(&svc.take_trace());
    }
}
