//! Triolet-rs: algorithmic skeletons for high-performance cluster computing.
//!
//! A Rust reproduction of *"Triolet: A Programming System that Unifies
//! Algorithmic Skeleton Interfaces for High-Performance Cluster Computing"*
//! (Rodrigues, Jablin, Dakkak, Hwu — PPoPP 2014). The library unifies three
//! ideas the paper shows must coexist for skeletons to be fast:
//!
//! 1. **Hybrid fusible iterators** ([`triolet_iter`]) — loops compose
//!    (`map`, `zip`, `filter`, `concat_map`) without materializing
//!    intermediates, and irregular producers keep a partitionable outer
//!    loop.
//! 2. **Data distribution separated from work distribution**
//!    ([`triolet_iter::indexer`], [`triolet_domain`]) — slicing an iterator
//!    by a domain part extracts exactly the data that part's tasks read.
//! 3. **Two-level parallelism** ([`triolet_cluster`], [`triolet_pool`]) —
//!    modeled message passing across nodes, a modeled work-stealing schedule
//!    within a node, private per-thread accumulation, per-node combining.
//!
//! The [`Triolet`] runtime exposes the paper's skeletons: `sum`, `reduce`,
//! `histogram`, `scatter_add`, `collect`, `build_vec`, `build_array2` —
//! each inspecting the iterator's `par`/`localpar` hint and picking the
//! sequential, threaded, or distributed implementation (paper §3.4).
//!
//! # Quickstart: the paper's dot product (§2)
//!
//! ```
//! use triolet::prelude::*;
//!
//! // def dot(xs, ys): return sum(x*y for (x, y) in par(zip(xs, ys)))
//! let xs: Vec<f64> = (0..1000).map(|i| i as f64).collect();
//! let ys: Vec<f64> = (0..1000).map(|i| (i % 7) as f64).collect();
//!
//! let rt = Triolet::new(ClusterConfig::virtual_cluster(4, 4));
//! let run = rt.sum(
//!     zip(from_vec(xs.clone()), from_vec(ys.clone()))
//!         .map(|(x, y): (f64, f64)| x * y)
//!         .par(),
//! );
//!
//! let expect: f64 = xs.iter().zip(&ys).map(|(x, y)| x * y).sum();
//! assert!((run.value - expect).abs() < 1e-9);
//! assert!(run.stats.total_s >= 0.0);
//! ```
//!
//! Every skeleton returns a [`Run`]: the value, its [`RunStats`], and — when
//! the cluster is configured with `with_trace(true)` — a [`TraceData`]
//! timeline exportable to chrome://tracing JSON.

pub mod dist;
pub mod engine;
pub mod report;
pub mod run;
pub mod service;

pub use dist::{
    AsEnv, DistArray2, DistInput, DistIter, DistVec, EnumView, HaloView, IntoDistInput, PackedEnv,
    RowsView, SliceView, ZipView,
};
pub use engine::Triolet;
pub use report::RunStats;
pub use run::Run;
pub use service::{
    AdmissionError, JobHandle, JobId, JobOutput, JobReport, JobService, SchedPolicy, ServiceConfig,
    ServiceStats, Tenant, TenantUsage,
};

// Re-export the substrate crates under the facade.
pub use triolet_cluster::{
    Cluster, ClusterConfig, CostModel, DispatchError, DistTiming, FaultPlan, NodeCtx, Topology,
    TraceData, TraceHandle, Track, TrafficSnapshot, TrafficStats,
};
pub use triolet_domain::{Dim2, Dim2Part, Dim3, Dim3Part, Domain, Part, Seq, SeqPart};
pub use triolet_iter::{
    array_iter, from_vec, indices, outerproduct, range, range2d, rows, zip, zip3, Array2, Array3,
    Collector, CountHist, IdxFlat, IdxNest, ParHint, StepFlat, StepNest, TrioIter, VecCollector,
    WeightHist,
};
pub use triolet_serial::Wire;

/// Everything an application typically needs.
pub mod prelude {
    pub use crate::dist::{AsEnv, DistArray2, DistIter, DistVec, IntoDistInput, PackedEnv};
    pub use crate::engine::Triolet;
    pub use crate::report::RunStats;
    pub use crate::run::Run;
    pub use crate::service::{AdmissionError, JobService, SchedPolicy, ServiceConfig, Tenant};
    pub use triolet_cluster::{ClusterConfig, CostModel, FaultPlan, Topology, TraceData};
    pub use triolet_domain::{Dim2, Dim3, Domain, Part, Seq};
    pub use triolet_iter::prelude::*;
}
