//! Simulated message-passing cluster: triolet-rs's distributed substrate.
//!
//! The Triolet paper (§3.4) runs on MPI across 8 nodes; this reproduction
//! replaces MPI with an in-process cluster that exercises the identical code
//! paths — data is genuinely packed to bytes before it crosses a node
//! boundary and unpacked after — while making the *communication cost* an
//! explicit, configurable [`CostModel`] instead of an artifact of whatever
//! network the host happens to have.
//!
//! Execution is in virtual time: node tasks run one at a time (sound:
//! cluster nodes share nothing between collectives); every leaf task is
//! timed (by [`clock`], the one module that reads host time for the model)
//! and replayed through the greedy virtual-time scheduler of
//! [`triolet_pool::vtime`]; the distributed makespan combines per-node
//! compute times with modeled transfer times over the *actually serialized*
//! byte counts, laid on one clock by the per-rank walk in `sim`.
//! This is how the paper's 128-core scaling figures are regenerated on a
//! small host.
//!
//! The [`fault`] module adds a deterministic, seeded fault schedule
//! ([`FaultPlan`]) that the dispatcher consults to model message loss,
//! duplication, corruption, and node crashes — and the retransmissions and
//! redispatches that recover from them, so skeleton results stay
//! bit-identical with faults on. Environments and shared pieces reach their
//! ranks over the binomial tree of `tree`. The [`comm`] module is a bare
//! point-to-point channel that only a benchmark probe calls.

pub mod clock;
pub mod cluster;
pub mod comm;
pub mod cost;
pub mod fault;
pub mod node;
mod sim;
mod tree;

pub use cluster::{Cluster, ClusterConfig, DispatchError, DistOutcome, RawTask};
pub use comm::{Comm, CommError, CommHandle};
pub use cost::{CostModel, DistTiming, TrafficSnapshot, TrafficStats};
pub use fault::{FaultDecision, FaultPlan};
pub use node::{NodeCtx, ResidentStore};
pub use triolet_obs::{TraceData, TraceHandle, Track};
