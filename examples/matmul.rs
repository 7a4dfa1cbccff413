//! Dense matrix multiplication with the paper's two-line 2-D block
//! decomposition (§2):
//!
//! ```python
//! zipped_AB = outerproduct(rows(A), rows(BT))
//! AB = [dot(u, v) for (u, v) in par(zipped_AB)]
//! ```
//!
//! `rows(A)` is `row_strips(A, 1)`: each element is a one-row `StripRef`.
//! The sgemm app (`crates/apps/src/sgemm`) runs the same two-liner over 64-row
//! strips with a tiled block kernel as `dot`.
//!
//! Run with: `cargo run --example matmul`

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use triolet::prelude::*;
use triolet::Array2;
use triolet_iter::StripRef;

fn main() {
    let n = 96;
    let mut rng = StdRng::seed_from_u64(12);
    let a = Array2::from_fn(n, n, |_, _| rng.gen_range(-1.0f64..1.0));
    let b = Array2::from_fn(n, n, |_, _| rng.gen_range(-1.0f64..1.0));

    let rt = Triolet::new(ClusterConfig::virtual_cluster(4, 4));

    // Transpose B over shared memory (localpar): too little work per byte
    // to ship anywhere.
    let b_shared = b.to_shared();
    let bt = rt
        .build_array2(
            range2d(n, n).map(move |(j, i): (usize, usize)| b_shared[i * n + j]).localpar(),
        )
        .value;

    // The two-liner: each output block's node receives only the A rows and
    // B^T rows covering the block.
    let zipped = outerproduct(rows(&a), rows(&bt)).par();
    let run = rt.build_array2(zipped.map(|(u, v): (StripRef<f64>, StripRef<f64>)| {
        u.as_slice().iter().zip(v.as_slice()).map(|(x, y)| x * y).sum::<f64>()
    }));
    let (c, stats) = (run.value, run.stats);

    // Verify one entry against a naive computation.
    let check: f64 = (0..n).map(|k| a[(7, k)] * b[(k, 11)]).sum();
    println!("C[7,11] = {:.6} (naive {:.6})", c[(7, 11)], check);
    assert!((c[(7, 11)] - check).abs() < 1e-9);

    let full_matrix_bytes = (n * n * 8) as u64;
    println!(
        "shipped {} KiB for two {}x{} inputs ({} KiB each): block slicing beats full copies",
        stats.bytes_out / 1024,
        n,
        n,
        full_matrix_bytes / 1024
    );
    println!("matmul OK");
}
