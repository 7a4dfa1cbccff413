//! A cutoff potential grid in the style of cutcp (§4.5): the irregular
//! `concat_map` + `filter` nest scatter-adding into a 3-D grid — the
//! paper's "floating-point histogram".
//!
//! Run with: `cargo run --example potential_grid`

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use triolet::prelude::*;

fn main() {
    let dim = 16usize;
    let h = 0.5f32;
    let cutoff = 1.5f32;
    let c2 = cutoff * cutoff;
    let dom = Dim3::new(dim, dim, dim);
    let extent = dim as f32 * h;

    let mut rng = StdRng::seed_from_u64(21);
    let atoms: Vec<(f32, f32, f32, f32)> = (0..500)
        .map(|_| {
            (
                rng.gen_range(0.0..extent),
                rng.gen_range(0.0..extent),
                rng.gen_range(0.0..extent),
                rng.gen_range(-1.0f32..1.0),
            )
        })
        .collect();

    let rt = Triolet::new(ClusterConfig::virtual_cluster(4, 4));

    // The §1 comprehension: floatHist [f a r | a <- atoms, r <- gridPts a].
    let contributions = from_vec(atoms.clone())
        .par()
        .concat_map(move |(x, y, z, q): (f32, f32, f32, f32)| {
            // gridPts: all cells in the atom's bounding box, a fused x/y/z nest.
            let lo = |p: f32| ((p - cutoff) / h).floor().max(0.0) as usize;
            let hi = |p: f32| (((p + cutoff) / h).ceil() as usize).min(dim - 1);
            let (x0, x1, y0, y1, z0, z1) = (lo(x), hi(x), lo(y), hi(y), lo(z), hi(z));
            range(x1 - x0 + 1).concat_map(move |i: usize| {
                range(y1 - y0 + 1).concat_map(move |j: usize| {
                    range(z1 - z0 + 1).map(move |k: usize| {
                        let (ix, iy, iz) = (x0 + i, y0 + j, z0 + k);
                        let dx = ix as f32 * h - x;
                        let dy = iy as f32 * h - y;
                        let dz = iz as f32 * h - z;
                        (dom.linear_of((ix, iy, iz)), dx * dx + dy * dy + dz * dz, q)
                    })
                })
            })
        })
        .filter(move |&(_, r2, _): &(usize, f32, f32)| r2 <= c2 && r2 > 0.0)
        .map(move |(cell, r2, q): (usize, f32, f32)| {
            let r = (r2 as f64).sqrt();
            let t = 1.0 - r2 as f64 / c2 as f64;
            (cell, q as f64 * (1.0 / r) * t * t)
        });

    let run = rt.scatter_add(dom.count(), contributions);
    let (grid, stats) = (run.value, run.stats);

    let nonzero = grid.iter().filter(|v| v.abs() > 1e-12).count();
    let peak = grid.iter().cloned().fold(0.0f64, |a, b| a.max(b.abs()));
    println!("grid cells   : {} ({} non-zero)", grid.len(), nonzero);
    println!("peak |V|     : {peak:.4}");
    println!(
        "traffic      : {} KiB out, {} KiB back (per-node grids dominate)",
        stats.bytes_out / 1024,
        stats.bytes_back / 1024
    );
    assert!(nonzero > 0);
    assert!(stats.bytes_back > stats.bytes_out);
    println!("potential_grid OK");
}
