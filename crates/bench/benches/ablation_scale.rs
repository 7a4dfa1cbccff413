//! Scale sweep: the virtual-time walk at 64–4096 ranks.
//!
//! ```text
//! cargo bench --bench ablation_scale -- [--smoke] [--out FILE]
//! ```
//!
//! Runs an environment-broadcasting `fold_reduce` across N ∈ {64, 256,
//! 1024, 4096} simulated ranks and reports, per point: the host wall-clock
//! of the whole `fold_reduce` call (planning, every task body, the walk and
//! the account, of which the walk is a small part), the timestamps the
//! simulator assigned (asserted equal to the timeline's formula) and the
//! modeled makespan. `--out` writes the table as JSON (BENCH_scale.json is the
//! committed capture); `--smoke` shrinks the workload and rank sweep for CI
//! while keeping the 1024-rank point — the only > 8-rank floor CI has.

use std::io::Write;
use std::time::Instant;

use triolet::prelude::*;

struct Point {
    ranks: usize,
    call_wall_s: f64,
    total_s: f64,
    events: u64,
}

fn workload(ranks: usize, items_per_rank: usize) -> (Vec<f64>, Vec<f64>) {
    let n_items = ranks * items_per_rank;
    let env: Vec<f64> = (0..512).map(|i| (i as f64) * 0.5 - 1.0).collect();
    let xs: Vec<f64> = (0..n_items).map(|i| (i % 8191) as f64 * 0.25).collect();
    (env, xs)
}

fn run_point(ranks: usize, env: &Vec<f64>, xs: &[f64]) -> Point {
    let rt = Triolet::new(ClusterConfig::virtual_cluster(ranks, 2));
    let t0 = Instant::now();
    let run = rt.fold_reduce(
        from_vec(xs.to_vec()).par(),
        env,
        || 0.0f64,
        |env, acc: f64, x: f64| acc + x * env[(x as usize) % env.len()],
        |a, b| a + b,
    );
    let call_wall_s = t0.elapsed().as_secs_f64();
    let events = rt.cluster().stats().sim_events();
    Point { ranks, call_wall_s, total_s: run.stats.total_s, events }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args.iter().position(|a| a == "--out").and_then(|i| args.get(i + 1)).cloned();

    let rank_sweep: &[usize] = if smoke { &[64, 1024] } else { &[64, 256, 1024, 4096] };
    let items_per_rank = if smoke { 16 } else { 64 };

    println!("# Scale sweep: virtual-time walk");
    println!(
        "{items_per_rank} items/rank | env broadcast 4096 bytes | cost model {:?}",
        CostModel::default()
    );
    println!("| ranks | call wall (s) | events | makespan (s) |");
    println!("|------:|--------------:|-------:|-------------:|");

    // One discarded run to warm the allocator and page in the inputs.
    {
        let (env, xs) = workload(64, items_per_rank);
        let _ = run_point(64, &env, &xs);
    }

    let mut points = Vec::new();
    for &ranks in rank_sweep {
        let (env, xs) = workload(ranks, items_per_rank);
        let p = run_point(ranks, &env, &xs);
        println!("| {} | {:.6} | {} | {:.6} |", p.ranks, p.call_wall_s, p.events, p.total_s);
        // `edges + tasks with a message + hops + 3 × tasks`: one task per
        // rank, each with one hop and one environment edge to its rank.
        let (edges, sent, hops, tasks) = (ranks, ranks, ranks, ranks);
        assert_eq!(p.events, (edges + sent + hops + 3 * tasks) as u64, "at {ranks} ranks");
        points.push(p);
    }

    if let Some(path) = out_path {
        let mut json = String::from("{\n  \"bench\": \"ablation_scale\",\n");
        json.push_str(&format!("  \"items_per_rank\": {items_per_rank},\n  \"points\": [\n"));
        for (i, p) in points.iter().enumerate() {
            json.push_str(&format!(
                "    {{\"ranks\": {}, \"call_wall_s\": {:.9}, \"events\": {}, \
                 \"total_s\": {:.9}}}{}\n",
                p.ranks,
                p.call_wall_s,
                p.events,
                p.total_s,
                if i + 1 < points.len() { "," } else { "" }
            ));
        }
        json.push_str("  ]\n}\n");
        let mut f = std::fs::File::create(&path).expect("create --out file");
        f.write_all(json.as_bytes()).expect("write --out file");
        println!("wrote {path}");
    }
}
