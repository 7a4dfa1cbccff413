//! Benchmark harness: regenerates every table and figure of the Triolet
//! paper's evaluation (§4).
//!
//! The `repro` binary drives the harness. `benches/` holds the four
//! design-choice ablations called out in DESIGN.md (`distvec`, `kernels`,
//! `scale`, `tenancy`): plain `harness = false`
//! binaries that assert their claim, take `--smoke` for the CI-sized run
//! and `--out FILE` for the committed `BENCH_*.json` capture.
//!
//! # What a "figure" means here
//!
//! The paper's scaling figures plot *speedup over sequential C* against
//! *core count* on a real 128-core cluster. This reproduction regenerates
//! the same series in **virtual time** (see `triolet-cluster`): node tasks
//! execute sequentially and are timed; the distributed makespan combines the
//! measured per-chunk times (replayed through a greedy work-stealing
//! schedule) with a communication model applied to the actually serialized
//! byte counts. Absolute numbers differ from the paper's testbed; the
//! *shape* — who wins, by what factor, where curves saturate — is the
//! reproduction target.

pub mod apps;
pub mod report;
pub mod sweep;

pub use report::{print_phase_breakdown, print_series, print_table, Series};
pub use sweep::{core_points, median_seconds, SweepRow};
