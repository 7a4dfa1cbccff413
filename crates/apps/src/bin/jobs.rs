//! Multi-tenant job service demo: many tenants submitting mixed-size
//! skeleton jobs through the shared [`JobService`], under a selectable
//! scheduling policy.
//!
//! ```text
//! cargo run --release -p triolet-apps --bin jobs -- \
//!     --nodes 8 --threads 2 --tenants 3 --jobs 60 --policy fair \
//!     --trace-out jobs.trace.json
//! ```
//!
//! Tenant `t` weighs `t + 1` under `--policy fair` (and has priority level
//! `t` under `--policy priority`); each tenant's job count is proportional
//! to its weight so every tenant stays backlogged for the whole run. The
//! report prints per-tenant achieved shares against configured shares,
//! p50/p99 job latency on the service clock, and cluster utilization.

use triolet::prelude::*;
use triolet::service::percentile;
use triolet_apps::cli::FaultFlags;

struct Args {
    nodes: usize,
    threads: usize,
    tenants: usize,
    jobs: usize,
    cap: usize,
    items: usize,
    policy: String,
    seed: u64,
    trace_out: Option<String>,
    faults: FaultFlags,
}

fn parse_args() -> Args {
    let mut a = Args {
        nodes: 8,
        threads: 2,
        tenants: 3,
        jobs: 60,
        cap: 32,
        items: 512,
        policy: "fair".to_string(),
        seed: 1,
        trace_out: None,
        faults: FaultFlags::default(),
    };
    let usage = || -> ! {
        eprintln!(
            "usage: jobs [--nodes N] [--threads T] [--tenants K] [--jobs J] [--cap C] \
             [--items I] [--policy fifo|fair|priority] [--seed S] [--trace-out FILE] {}",
            FaultFlags::USAGE
        );
        std::process::exit(2);
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut val = || args.next().unwrap_or_else(|| usage());
        let parse = |s: String| s.parse().unwrap_or_else(|_| usage());
        match arg.as_str() {
            "--nodes" => a.nodes = parse(val()),
            "--threads" => a.threads = parse(val()),
            "--tenants" => a.tenants = parse(val()),
            "--jobs" => a.jobs = parse(val()),
            "--cap" => a.cap = parse(val()),
            "--items" => a.items = parse(val()),
            "--policy" => a.policy = val(),
            "--seed" => a.seed = val().parse().unwrap_or_else(|_| usage()),
            "--trace-out" => a.trace_out = Some(val()),
            other => match a.faults.accept(other, &mut || args.next()) {
                Ok(true) => {}
                Ok(false) => usage(),
                Err(why) => {
                    eprintln!("jobs: {why}");
                    usage()
                }
            },
        }
    }
    if a.tenants == 0 || a.jobs == 0 {
        usage();
    }
    a
}

fn policy_for(args: &Args) -> SchedPolicy {
    match args.policy.as_str() {
        "fifo" => SchedPolicy::Fifo,
        "fair" => {
            SchedPolicy::FairShare { weights: (0..args.tenants).map(|t| (t + 1) as f64).collect() }
        }
        "priority" => SchedPolicy::Priority { levels: (0..args.tenants as u32).collect() },
        other => {
            eprintln!("jobs: unknown policy {other:?} (fifo|fair|priority)");
            std::process::exit(2);
        }
    }
}

fn main() {
    let args = parse_args();
    let policy = policy_for(&args);
    println!(
        "jobs: cluster={}x{} tenants={} jobs={} cap={} policy={} seed={}",
        args.nodes,
        args.threads,
        args.tenants,
        args.jobs,
        args.cap,
        policy.name(),
        args.seed
    );

    let rt = Triolet::new(
        ClusterConfig::virtual_cluster(args.nodes, args.threads)
            .with_faults(args.faults.plan())
            .with_trace(args.trace_out.is_some()),
    );
    let svc = rt.into_service(ServiceConfig::new(policy.clone()).with_queue_cap(args.cap));

    // Per-tenant job quotas proportional to weight, so all tenants stay
    // backlogged and the achieved shares are meaningful.
    let total_weight: f64 = (0..args.tenants).map(|t| policy.weight_of(Tenant(t as u32))).sum();
    let quota: Vec<usize> = (0..args.tenants)
        .map(|t| {
            let w = policy.weight_of(Tenant(t as u32));
            ((args.jobs as f64 * w / total_weight).round() as usize).max(1)
        })
        .collect();

    // Round-robin submission, mixed sizes (1x/2x/4x the base item count).
    let mut submitted = vec![0usize; args.tenants];
    let mut job_index = 0u64;
    loop {
        let mut any = false;
        for t in 0..args.tenants {
            if submitted[t] >= quota[t] {
                continue;
            }
            any = true;
            // Cycle the size mix per tenant (not globally: with K tenants
            // and K size classes a global cycle would pin each tenant to
            // one size, skewing the cost shares).
            let items = args.items << (submitted[t] % 3);
            submitted[t] += 1;
            let seed = args.seed.wrapping_add(job_index.wrapping_mul(0x9e37_79b9));
            job_index += 1;
            let xs: Vec<f64> =
                (0..items).map(|i| ((i as u64).wrapping_mul(seed) % 8191) as f64 * 0.25).collect();
            svc.submit_blocking(Tenant(t as u32), items as f64, move |rt: &Triolet| {
                rt.sum(from_vec(xs).par())
            });
        }
        if !any {
            break;
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

    if let Some(path) = &args.trace_out {
        let trace = svc.take_trace();
        std::fs::write(path, trace.to_chrome_json()).unwrap_or_else(|e| {
            eprintln!("cannot write trace to {path}: {e}");
            std::process::exit(1);
        });
        let phases: Vec<String> =
            trace.phase_totals().iter().map(|(c, t)| format!("{c}={t:.4}s")).collect();
        println!(
            "trace: {} spans, {} events -> {path} [{}]",
            trace.spans.len(),
            trace.events.len(),
            phases.join(" ")
        );
    }
}
