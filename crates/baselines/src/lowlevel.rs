//! The C+MPI+OpenMP analogue: everything explicit, nothing abstracted.
//!
//! A low-level program hand-partitions its input into per-rank payloads,
//! writes a node kernel over raw data (using the node's threads via explicit
//! chunking), and hand-writes the root-side combine. That is exactly the
//! shape of this runtime's [`LowLevelRt::run`]: the *programmer* supplies
//! all three pieces; the runtime contributes only transport and threads —
//! like MPI + OpenMP. The paper's observation that the low-level mri-q
//! "dedicat\[es\] more code to partitioning data across MPI ranks than to the
//! actual numerical computation" is visible in the per-app kernels built on
//! this module.

use triolet::RunStats;
use triolet_cluster::clock::timed;
use triolet_cluster::{Cluster, ClusterConfig, NodeCtx};
use triolet_serial::Wire;

/// The explicit distributed runtime.
pub struct LowLevelRt {
    cluster: Cluster,
}

impl LowLevelRt {
    /// Bring up the runtime on a cluster shape.
    pub fn new(config: ClusterConfig) -> Self {
        LowLevelRt { cluster: Cluster::new(config) }
    }

    /// The underlying cluster.
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// Nodes available.
    pub fn nodes(&self) -> usize {
        self.cluster.nodes()
    }

    /// Threads per node.
    pub fn threads_per_node(&self) -> usize {
        self.cluster.threads_per_node()
    }

    /// Run a hand-partitioned distributed computation.
    ///
    /// * `payloads` — one hand-built message per participating rank
    ///   (serialized and shipped; sizes drive the cost model).
    /// * `kernel` — the per-node computation; it receives the node's payload
    ///   and must route compute through the [`NodeCtx`] (the OpenMP region).
    /// * `combine` — the root-side gather processing (an `MPI_Gather` plus
    ///   whatever follows it).
    pub fn run<T, R, O>(
        &self,
        payloads: Vec<T>,
        kernel: impl Fn(&NodeCtx, T) -> R + Send + Sync,
        combine: impl FnOnce(Vec<R>) -> O,
    ) -> (O, RunStats)
    where
        T: Wire + Send,
        R: Wire + Send,
    {
        let out = self.cluster.run(payloads, kernel);
        let (value, root_s) = timed(|| combine(out.results));
        (value, RunStats::from_dist(out.timing, root_s))
    }

    /// Hand-rolled balanced 1-D partitioning (what every MPI program
    /// reimplements): split `data` into `nodes()` contiguous chunks.
    pub fn partition_slice<T: Clone>(&self, data: &[T]) -> Vec<Vec<T>> {
        triolet_domain::chunk_ranges(data.len(), self.nodes())
            .into_iter()
            .map(|(s, l)| data[s..s + l].to_vec())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use triolet_domain::{Domain, Seq, SeqPart};

    #[test]
    fn lowlevel_sum_matches_sequential() {
        let rt = LowLevelRt::new(ClusterConfig::virtual_cluster(4, 2));
        let data: Vec<u64> = (0..10_000).collect();
        let payloads = rt.partition_slice(&data);
        let (total, stats) = rt.run(
            payloads,
            |ctx, chunk: Vec<u64>| {
                // The "OpenMP parallel for reduction": explicit thread chunks.
                let chunks = Seq::new(chunk.len()).split_parts(ctx.threads() * 4);
                ctx.map_reduce_chunks(
                    chunks,
                    |p: &SeqPart| p.range().map(|i| chunk[i]).sum::<u64>(),
                    |a, b| a + b,
                )
                .unwrap_or(0)
            },
            |partials| partials.into_iter().sum::<u64>(),
        );
        assert_eq!(total, data.iter().sum::<u64>());
        assert!(stats.bytes_out > 0);
    }

    #[test]
    fn partition_slice_covers() {
        let rt = LowLevelRt::new(ClusterConfig::virtual_cluster(3, 1));
        let data: Vec<u32> = (0..10).collect();
        let parts = rt.partition_slice(&data);
        assert_eq!(parts.len(), 3);
        let flat: Vec<u32> = parts.concat();
        assert_eq!(flat, data);
    }
}
