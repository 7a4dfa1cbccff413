//! Ablation: linear vs tree-structured collectives on the distributed
//! hot path.
//!
//! ```text
//! cargo bench --bench ablation_collectives -- [--smoke] [--out FILE]
//! ```
//!
//! Runs the same environment-broadcasting `fold_reduce` under
//! `Topology::Linear` and `Topology::Tree` at N ∈ {2, 4, 8, 16} nodes and
//! reports the modeled virtual-time makespan. The virtual-time scheduler is
//! deterministic, so one run per point is exact — no statistics needed.
//! `--out` additionally writes the table as JSON (BENCH_collectives.json is
//! the committed capture); `--smoke` shrinks the workload for CI.

use std::io::Write;

use triolet::prelude::*;

struct Point {
    nodes: usize,
    topology: &'static str,
    total_s: f64,
    comm_s: f64,
    env_packs: u64,
}

fn run_point(nodes: usize, topology: Topology, env: &Vec<f64>, xs: &[f64]) -> Point {
    let cfg = ClusterConfig::virtual_cluster(nodes, 4).with_topology(topology);
    let rt = Triolet::new(cfg);
    let run = rt.fold_reduce(
        from_vec(xs.to_vec()).par(),
        env,
        || 0.0f64,
        |env, acc, x: f64| acc + x * env[(x as usize) % env.len()],
        |a, b| a + b,
    );
    assert!(run.value.is_finite());
    Point {
        nodes,
        topology: match topology {
            Topology::Linear => "linear",
            Topology::Tree => "tree",
        },
        total_s: run.stats.total_s,
        comm_s: run.stats.comm_s,
        env_packs: rt.cluster().stats().snapshot().env_packs,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args.iter().position(|a| a == "--out").and_then(|i| args.get(i + 1)).cloned();

    // ~1 MiB broadcast environment: big enough that its transport dominates
    // the makespan; the per-element work stays tiny.
    let env_len = if smoke { 16_384 } else { 131_072 };
    let n_items = if smoke { 1_024 } else { 8_192 };
    let env: Vec<f64> = (0..env_len).map(|i| (i as f64) * 0.5 - 1.0).collect();
    let xs: Vec<f64> = (0..n_items).map(|i| i as f64).collect();

    println!("# Ablation: linear vs tree collectives");
    println!(
        "env {} bytes | {} items | cost model {:?} | virtual-time execution",
        env_len * 8,
        n_items,
        CostModel::default()
    );
    println!("| nodes | topology | makespan (s) | comm (s) | env packs |");
    println!("|------:|----------|-------------:|---------:|----------:|");

    let mut points = Vec::new();
    for nodes in [2usize, 4, 8, 16] {
        for topology in [Topology::Linear, Topology::Tree] {
            let p = run_point(nodes, topology, &env, &xs);
            println!(
                "| {} | {} | {:.6} | {:.6} | {} |",
                p.nodes, p.topology, p.total_s, p.comm_s, p.env_packs
            );
            points.push(p);
        }
    }

    // The point of the exercise: the tree must win where the linear root
    // serializes many copies.
    for nodes in [8usize, 16] {
        let get = |topo: &str| {
            points.iter().find(|p| p.nodes == nodes && p.topology == topo).expect("point present")
        };
        let (lin, tree) = (get("linear"), get("tree"));
        assert!(
            tree.total_s < lin.total_s,
            "tree must beat linear at {nodes} nodes: {} vs {}",
            tree.total_s,
            lin.total_s
        );
        println!("tree/linear makespan at {} nodes: {:.3}", nodes, tree.total_s / lin.total_s);
    }

    if let Some(path) = out_path {
        let mut json = String::from("{\n  \"bench\": \"ablation_collectives\",\n");
        json.push_str(&format!(
            "  \"env_bytes\": {},\n  \"items\": {},\n  \"points\": [\n",
            env_len * 8,
            n_items
        ));
        for (i, p) in points.iter().enumerate() {
            json.push_str(&format!(
                "    {{\"nodes\": {}, \"topology\": \"{}\", \"total_s\": {:.9}, \"comm_s\": {:.9}, \"env_packs\": {}}}{}\n",
                p.nodes,
                p.topology,
                p.total_s,
                p.comm_s,
                p.env_packs,
                if i + 1 < points.len() { "," } else { "" }
            ));
        }
        json.push_str("  ]\n}\n");
        let mut f = std::fs::File::create(&path).expect("create --out file");
        f.write_all(json.as_bytes()).expect("write --out file");
        println!("wrote {path}");
    }
}
