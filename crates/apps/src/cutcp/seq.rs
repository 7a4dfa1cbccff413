//! Sequential reference: nested loops and conditionals, in-place updates.

use triolet::Domain;

use super::{accumulate_atom, CutcpInput};

/// Compute the potential grid with plain sequential loops.
pub fn run_seq(input: &CutcpInput) -> Vec<f64> {
    let mut grid = vec![0.0f64; input.geom.dom.count()];
    for a in &input.atoms {
        accumulate_atom(&mut grid, &input.geom, a);
    }
    grid
}
