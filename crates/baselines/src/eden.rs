//! The Eden analogue: distributed functional skeletons with Eden's costs.
//!
//! Eden (Loogen et al., JFP 2005) is the distributed Haskell the paper
//! compares against (§4.1). Its documented cost structure, reproduced here:
//!
//! * **No shared heap.** Every process — even two on the same node —
//!   exchanges serialized messages. `EdenRt` charges genuine serialization
//!   per process task plus a modeled intra-node transfer
//!   (`EdenRt::local_cost`).
//! * **Full-copy distribution.** Standard Eden "sends each distributed task
//!   a copy of all objects that are referenced by its input"; there is no
//!   slicing. [`EdenRt::map_reduce_full_copy`] models that default;
//!   [`EdenRt::map_reduce`] models the optimized style the paper's Eden
//!   versions use, where the programmer chunks data by hand.
//! * **Bounded message buffers.** Inter-node messages beyond
//!   `EdenRt::max_msg_bytes` fail — the reason "the Eden code fails at 2
//!   nodes because the array data is too large for Eden's message-passing
//!   runtime to buffer" (§4.3).
//! * **Stragglers.** "While Eden scales fairly well, tasks occasionally run
//!   significantly slower than normal. With more nodes, it is more likely
//!   that a task will be delayed" (§4.2). Modeled deterministically as a
//!   `STRAGGLER_PER_NODE` fractional delay on the critical node, growing
//!   with node count.
//!
//! The per-element costs of Eden *kernels* (stepper chains behind dynamic
//! dispatch) live in [`boxed_pipeline`](crate::boxed_pipeline) and in the
//! per-application Eden kernels.

use triolet::RunStats;
use triolet_cluster::clock::timed;
use triolet_cluster::{Cluster, ClusterConfig, CostModel, DispatchError, NodeCtx, RawTask};
use triolet_serial::{packed, Piece, Wire};

/// Default per-message buffer limit (bytes). Eden streams list elements as
/// individual messages, so the limit applies to each task payload (and to
/// whole structures in full-copy mode). Chosen so sgemm-scale row-band
/// messages exceed it while every per-dataset/per-chunk payload in the
/// benchmark suite fits.
pub const DEFAULT_MSG_LIMIT: usize = 64 << 10;

/// Fractional straggler delay per cluster node (see module docs).
pub const STRAGGLER_PER_NODE: f64 = 0.03;

/// Errors surfaced by the Eden runtime.
#[derive(Debug, Clone, PartialEq)]
pub enum EdenError {
    /// An inter-node message exceeded the runtime's buffer capacity.
    MessageTooLarge {
        /// Size of the offending message.
        bytes: usize,
        /// The configured buffer limit.
        limit: usize,
    },
    /// The cluster could not complete the dispatch.
    Dispatch(DispatchError),
}

impl std::fmt::Display for EdenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EdenError::MessageTooLarge { bytes, limit } => write!(
                f,
                "Eden message-passing runtime cannot buffer {bytes}-byte message (limit {limit})"
            ),
            EdenError::Dispatch(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for EdenError {}

/// The Eden-style distributed skeleton runtime.
pub struct EdenRt {
    cluster: Cluster,
    /// Intra-node (process-to-process) transfer cost: memory-speed pipe,
    /// but every byte still crosses it (no shared heap).
    local_cost: CostModel,
    /// Inter-node message buffer limit.
    max_msg_bytes: usize,
}

impl EdenRt {
    /// Bring up an Eden runtime: `nodes` machines x `procs_per_node`
    /// single-threaded processes.
    pub fn new(nodes: usize, procs_per_node: usize) -> Self {
        let config = ClusterConfig::virtual_cluster(nodes, procs_per_node);
        EdenRt {
            cluster: Cluster::new(config),
            local_cost: CostModel::flat(5e-6, 4.0e9),
            max_msg_bytes: DEFAULT_MSG_LIMIT,
        }
    }

    /// Override the inter-node buffer limit.
    pub fn with_msg_limit(mut self, bytes: usize) -> Self {
        self.max_msg_bytes = bytes;
        self
    }

    /// Nodes in the cluster.
    pub fn nodes(&self) -> usize {
        self.cluster.nodes()
    }

    /// Processes per node.
    pub fn procs_per_node(&self) -> usize {
        self.cluster.threads_per_node()
    }

    fn check_inter_node(&self, bytes: usize) -> Result<(), EdenError> {
        if self.nodes() > 1 && bytes > self.max_msg_bytes {
            return Err(EdenError::MessageTooLarge { bytes, limit: self.max_msg_bytes });
        }
        Ok(())
    }

    fn apply_straggler(&self, mut stats: RunStats) -> RunStats {
        let delay = STRAGGLER_PER_NODE * self.nodes() as f64 * stats.compute_span_s();
        stats.total_s += delay;
        stats
    }

    /// The optimized-Eden skeleton: the programmer has already chunked the
    /// data into one input per task; tasks are distributed across nodes and
    /// processes, each task's input is serialized to its process, results
    /// merge leader-side then root-side.
    pub fn map_reduce<T, R>(
        &self,
        inputs: Vec<T>,
        work: impl Fn(T) -> R + Send + Sync,
        merge: impl Fn(R, R) -> R + Send + Sync,
        empty: impl Fn() -> R + Send + Sync,
    ) -> Result<(R, RunStats), EdenError>
    where
        T: Wire + Send,
        R: Wire + Send,
    {
        // Contiguous split of tasks across nodes (Eden's two-level variant).
        let n_nodes = self.nodes().min(inputs.len()).max(1);
        let ranges = triolet_domain::chunk_ranges(inputs.len(), n_nodes);
        let mut groups: Vec<Vec<T>> = Vec::with_capacity(ranges.len());
        let mut it = inputs.into_iter();
        for &(_, len) in &ranges {
            groups.push(it.by_ref().take(len).collect());
        }
        // Buffer-limit check per task message (Eden streams list elements
        // as individual messages to the consuming process).
        for g in &groups {
            for t in g {
                self.check_inter_node(t.packed_size())?;
            }
        }
        let local_cost = self.local_cost;
        let work = &work;
        let merge = &merge;
        let empty = &empty;
        let tasks: Vec<RawTask<'_, R>> = groups
            .into_iter()
            .map(|group| {
                let wire_bytes = if self.nodes() > 1 { group.packed_size() } else { 0 };
                RawTask {
                    pieces: Piece::anonymous(wire_bytes).into_iter().collect(),
                    pack_s: 0.0,
                    work: Box::new(move |ctx: &NodeCtx| {
                        // Leader -> process messages: every task input is
                        // serialized to its worker process (no shared heap).
                        let input_bytes: usize = group.iter().map(Wire::packed_size).sum();
                        let n_results = group.len().min(ctx.threads()).max(1);
                        let result = ctx
                            .map_reduce_chunks(
                                group,
                                |item: &T| {
                                    // Genuine per-process serialization.
                                    let item: T = triolet_serial::unpack_all(packed(item))
                                        .expect("process message roundtrip");
                                    work(item)
                                },
                                merge,
                            )
                            .unwrap_or_else(empty);
                        // Modeled intra-node transfers: inputs out to the
                        // processes, one result back per process.
                        let result_bytes = result.packed_size();
                        let mut t = group_transfer_time(local_cost, input_bytes, 1);
                        t += group_transfer_time(local_cost, result_bytes, n_results);
                        ctx.charge_seconds(t);
                        result
                    }),
                }
            })
            .collect();
        let out = self.cluster.dispatch(tasks, 0).map_err(EdenError::Dispatch)?;
        let (value, root_s) = timed(|| out.results.into_iter().reduce(merge).unwrap_or_else(empty));
        Ok((value, self.apply_straggler(RunStats::from_dist(out.timing, root_s))))
    }

    /// The naive-Eden skeleton: every task receives a copy of the *entire*
    /// referenced data structure (no slicing). `work(data, task_index)`
    /// computes task `task_index`'s share.
    pub fn map_reduce_full_copy<D, R>(
        &self,
        data: D,
        n_tasks: usize,
        work: impl Fn(&D, usize) -> R + Send + Sync,
        merge: impl Fn(R, R) -> R + Send + Sync,
        empty: impl Fn() -> R + Send + Sync,
    ) -> Result<(R, RunStats), EdenError>
    where
        D: Wire + Send + Sync + Clone,
        R: Wire + Send,
    {
        let data_bytes = data.packed_size();
        self.check_inter_node(data_bytes)?;
        let n_nodes = self.nodes().min(n_tasks).max(1);
        let ranges = triolet_domain::chunk_ranges(n_tasks, n_nodes);
        let local_cost = self.local_cost;
        let work = &work;
        let merge = &merge;
        let empty = &empty;
        let tasks: Vec<RawTask<'_, R>> = ranges
            .into_iter()
            .map(|(start, len)| {
                let data = data.clone();
                let wire_bytes = if self.nodes() > 1 { data_bytes } else { 0 };
                RawTask {
                    pieces: Piece::anonymous(wire_bytes).into_iter().collect(),
                    pack_s: 0.0,
                    work: Box::new(move |ctx: &NodeCtx| {
                        // Each process receives its own full copy of `data`.
                        let data: D = ctx.sequential(|| {
                            triolet_serial::unpack_all(packed(&data)).expect("full-copy roundtrip")
                        });
                        let procs = len.min(ctx.threads()).max(1);
                        // The remaining procs-1 copies are modeled (one
                        // genuine roundtrip above measures the CPU cost).
                        ctx.charge_seconds(group_transfer_time(
                            local_cost,
                            data_bytes,
                            procs.saturating_sub(1),
                        ));
                        let task_ids: Vec<usize> = (start..start + len).collect();
                        let result = ctx
                            .map_reduce_chunks(task_ids, |&tid: &usize| work(&data, tid), merge)
                            .unwrap_or_else(empty);
                        let result_bytes = result.packed_size();
                        ctx.charge_seconds(group_transfer_time(local_cost, result_bytes, procs));
                        result
                    }),
                }
            })
            .collect();
        let out = self.cluster.dispatch(tasks, 0).map_err(EdenError::Dispatch)?;
        let (value, root_s) = timed(|| out.results.into_iter().reduce(merge).unwrap_or_else(empty));
        Ok((value, self.apply_straggler(RunStats::from_dist(out.timing, root_s))))
    }
}

/// Modeled time for `n` messages totalling / each of `bytes` (one latency per
/// message, bandwidth on the bytes).
fn group_transfer_time(cost: CostModel, bytes: usize, n: usize) -> f64 {
    if n == 0 {
        return 0.0;
    }
    n as f64 * cost.latency_s + (n * bytes) as f64 / cost.bandwidth_bps
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn eden_map_reduce_matches_sequential() {
        let rt = EdenRt::new(4, 4);
        let inputs: Vec<Vec<u64>> = (0..16).map(|i| vec![i as u64; 100]).collect();
        let expect: u64 = inputs.iter().flatten().sum();
        let (total, stats) = rt
            .map_reduce(inputs, |chunk| chunk.iter().sum::<u64>(), |a, b| a + b, || 0u64)
            .unwrap();
        assert_eq!(total, expect);
        assert!(stats.bytes_out > 0);
    }

    #[test]
    fn eden_full_copy_ships_everything_per_node() {
        let rt = EdenRt::new(4, 2);
        let data: Vec<f32> = (0..1000).map(|i| i as f32).collect();
        let data_bytes = data.packed_size() as u64;
        let (total, stats) = rt
            .map_reduce_full_copy(
                data.clone(),
                8,
                |d, tid| {
                    let n = d.len() / 8;
                    d[tid * n..(tid + 1) * n].iter().map(|&x| x as f64).sum::<f64>()
                },
                |a, b| a + b,
                || 0.0f64,
            )
            .unwrap();
        let expect: f64 = data.iter().map(|&x| x as f64).sum();
        assert!((total - expect).abs() < 1e-6);
        // Naive Eden: 4 nodes x full copy (vs Triolet's ~1 full copy total).
        assert!(stats.bytes_out >= 4 * data_bytes);
    }

    #[test]
    fn eden_message_limit_fails_multi_node_only() {
        let big: Vec<u8> = vec![0; 2 * DEFAULT_MSG_LIMIT];
        // Two nodes: the full copy exceeds the buffer -> error (paper §4.3).
        let rt2 = EdenRt::new(2, 2);
        let r = rt2.map_reduce_full_copy(big.clone(), 4, |d, _| d.len() as u64, |a, b| a + b, || 0);
        assert!(matches!(r, Err(EdenError::MessageTooLarge { .. })));
        // One node: no inter-node message -> fine.
        let rt1 = EdenRt::new(1, 2);
        let r = rt1.map_reduce_full_copy(big, 4, |d, _| d.len() as u64, |a, b| a + b, || 0);
        assert!(r.is_ok());
    }

    #[test]
    fn straggler_grows_with_nodes() {
        let work = |chunk: Vec<u64>| -> u64 {
            let t0 = Instant::now();
            let mut x = 0u64;
            while t0.elapsed().as_secs_f64() < 0.002 {
                x = x.wrapping_add(chunk.len() as u64);
                std::hint::black_box(x);
            }
            x
        };
        let inputs = |n: usize| -> Vec<Vec<u64>> { (0..n).map(|i| vec![i as u64; 8]).collect() };
        let (_, s2) =
            EdenRt::new(2, 1).map_reduce(inputs(2), work, |a, b| a.wrapping_add(b), || 0).unwrap();
        let (_, s8) =
            EdenRt::new(8, 1).map_reduce(inputs(8), work, |a, b| a.wrapping_add(b), || 0).unwrap();
        // Same per-node work; the 8-node run carries a larger straggler
        // surcharge relative to its span.
        let rel2 = s2.total_s / s2.compute_span_s();
        let rel8 = s8.total_s / s8.compute_span_s();
        assert!(rel8 > rel2, "rel8={rel8} rel2={rel2}");
    }

    #[test]
    fn straggler_delay_is_exactly_its_term_and_grows_with_nodes() {
        let stats = RunStats {
            total_s: 1.0,
            comm_s: 0.125,
            node_compute_s: vec![0.25, 0.5, 0.375],
            ..RunStats::default()
        };
        let mut prev = 0.0;
        for nodes in [1, 2, 4, 8, 16] {
            let out = EdenRt::new(nodes, 1).apply_straggler(stats.clone());
            let delay = out.total_s - stats.total_s;
            assert_eq!(out.total_s, stats.total_s + STRAGGLER_PER_NODE * nodes as f64 * 0.5);
            assert!(delay > prev, "{nodes} nodes: delay {delay} after {prev}");
            prev = delay;
            // Only the makespan moves.
            assert_eq!(RunStats { total_s: stats.total_s, ..out }, stats);
        }
    }

    #[test]
    fn empty_inputs_yield_empty_value() {
        let rt = EdenRt::new(2, 2);
        let (v, _) = rt.map_reduce(Vec::<u64>::new(), |x| x, |a, b| a + b, || 77u64).unwrap();
        assert_eq!(v, 77);
    }
}
