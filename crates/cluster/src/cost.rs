//! Communication cost model and traffic accounting.

use std::sync::{Mutex, MutexGuard};

/// Linear latency/bandwidth model for inter-node transfers, optionally with
/// a second inter-rack tier.
///
/// Transfer time of an `n`-byte message is `latency_s + n / bandwidth_bps`.
/// With `ranks_per_rack > 0` the model is *hierarchical*: ranks `r` and `s`
/// share a rack iff `r / ranks_per_rack == s / ranks_per_rack`, and an edge
/// crossing racks pays the (typically worse) `inter_latency_s` /
/// `inter_bandwidth_bps` tier instead — the shape of a real fat-tree or
/// rack-and-spine cluster, where large-rank simulations must see
/// heterogeneous link costs. The constants are printed beside every
/// reproduced figure so results are interpretable; the defaults approximate
/// the 10 GbE interconnect of the paper's EC2 cluster-compute instances.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Fixed per-message cost in seconds (software + wire latency).
    pub latency_s: f64,
    /// Sustained bandwidth in bytes per second.
    pub bandwidth_bps: f64,
    /// Ranks per rack for the hierarchical tier; `0` means flat (every edge
    /// pays the base tier, the pre-hierarchy behavior).
    pub ranks_per_rack: usize,
    /// Per-message cost of a rack-crossing edge (unused when flat).
    pub inter_latency_s: f64,
    /// Bandwidth of a rack-crossing edge (unused when flat).
    pub inter_bandwidth_bps: f64,
}

impl CostModel {
    /// Flat single-tier model: every edge costs `latency_s + n / bandwidth`.
    pub fn flat(latency_s: f64, bandwidth_bps: f64) -> Self {
        CostModel {
            latency_s,
            bandwidth_bps,
            ranks_per_rack: 0,
            inter_latency_s: 0.0,
            inter_bandwidth_bps: f64::INFINITY,
        }
    }

    /// Two-tier rack model: ranks are grouped `ranks_per_rack` to a rack;
    /// same-rack edges pay the intra tier, rack-crossing edges the inter
    /// tier. The root pseudo-rank (`usize::MAX`) is co-located with rack 0,
    /// so root <-> rack-0 traffic stays intra-rack.
    pub fn hierarchical(
        ranks_per_rack: usize,
        intra_latency_s: f64,
        intra_bandwidth_bps: f64,
        inter_latency_s: f64,
        inter_bandwidth_bps: f64,
    ) -> Self {
        CostModel {
            latency_s: intra_latency_s,
            bandwidth_bps: intra_bandwidth_bps,
            ranks_per_rack,
            inter_latency_s,
            inter_bandwidth_bps,
        }
    }

    /// Approximation of the paper's testbed: 10 GbE, ~40 us end-to-end
    /// message latency (EC2 cluster placement group, MPI software stack).
    pub fn ec2_10gbe() -> Self {
        CostModel::flat(40e-6, 1.25e9)
    }

    /// A zero-cost network: isolates compute scaling from communication.
    pub fn free() -> Self {
        CostModel::flat(0.0, f64::INFINITY)
    }

    /// Seconds to move one `bytes`-sized message over the base (intra) tier.
    pub fn transfer_time(&self, bytes: usize) -> f64 {
        self.latency_s + bytes as f64 / self.bandwidth_bps
    }

    /// The rack holding rank `r`; the root pseudo-rank maps to rack 0.
    fn rack_of(&self, r: usize) -> usize {
        if r == usize::MAX {
            0
        } else {
            r / self.ranks_per_rack
        }
    }

    /// Seconds to move one `bytes`-sized message from rank `a` to rank `b`.
    ///
    /// Flat models (and same-rack edges of hierarchical ones) produce
    /// exactly [`transfer_time`](Self::transfer_time) — bit-identical, so
    /// enabling the hierarchy never perturbs flat-model timelines.
    pub fn edge_time(&self, a: usize, b: usize, bytes: usize) -> f64 {
        if self.ranks_per_rack == 0 || self.rack_of(a) == self.rack_of(b) {
            self.transfer_time(bytes)
        } else {
            self.inter_latency_s + bytes as f64 / self.inter_bandwidth_bps
        }
    }
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::ec2_10gbe()
    }
}

/// Cumulative message/byte counters for a cluster (thread-safe).
///
/// Under fault injection the fault-event counters record what the schedule
/// actually did: attempts lost/duplicated/corrupted in flight,
/// retransmissions the reliable send layer issued, and task redispatches
/// the cluster performed after declaring a rank dead.
///
/// Every write is one `add` of a whole operation's counts: a dispatch, a
/// segment scatter and a committed service job each bank theirs once, so a
/// reader never sees an operation half counted. A local run touches no wire
/// and banks nothing.
#[derive(Debug, Default)]
pub struct TrafficStats {
    ledger: Mutex<TrafficSnapshot>,
}

impl TrafficStats {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    fn ledger(&self) -> MutexGuard<'_, TrafficSnapshot> {
        self.ledger.lock().expect("traffic ledger poisoned")
    }

    /// Bank one operation: every counter of `delta` adds to the totals. The
    /// job service banks each job here, metered on the worker runtime that
    /// ran it.
    pub fn add(&self, delta: TrafficSnapshot) {
        let mut ledger = self.ledger();
        *ledger = ledger.plus(&delta);
    }

    /// Record one serialization of a broadcast environment. With pack-once
    /// payload caching this is exactly one per skeleton call with a
    /// non-empty environment, regardless of node count.
    pub fn record_env_pack(&self) {
        self.add(TrafficSnapshot { env_packs: 1, ..TrafficSnapshot::default() });
    }

    /// Timestamps the virtual-time simulator has assigned so far, summed
    /// over dispatches.
    pub fn sim_events(&self) -> u64 {
        self.snapshot().sim_events
    }

    /// A point-in-time copy of every counter. The job service meters each
    /// tenant by differencing snapshots taken around a job's dispatches
    /// ([`TrafficSnapshot::since`]), so per-tenant accounting needs no hook
    /// inside the dispatch path itself.
    pub fn snapshot(&self) -> TrafficSnapshot {
        *self.ledger()
    }

    /// Zero the counters (between experiments).
    pub fn reset(&self) {
        *self.ledger() = Default::default();
    }
}

/// A plain-value copy of the cluster's cumulative traffic counters
/// ([`TrafficStats::snapshot`]). Two snapshots bracket an interval of
/// cluster activity; [`since`](Self::since) yields the traffic of exactly
/// that interval.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrafficSnapshot {
    /// Messages recorded.
    pub messages: u64,
    pub bytes: u64,
    /// Transmission attempts lost in flight.
    pub dropped: u64,
    pub duplicated: u64,
    pub corrupted: u64,
    /// Retransmissions issued by the reliable send layer.
    pub retries: u64,
    /// Tasks moved to a surviving rank after a failure.
    pub redispatches: u64,
    /// Broadcast-environment serializations.
    pub env_packs: u64,
    /// Resident segments scattered.
    pub seg_scatters: u64,
    /// Resident tasks that ran on their segment's home rank.
    pub resident_hits: u64,
    /// Resident tasks redispatched off their home rank (segment re-shipped).
    pub resident_misses: u64,
    pub unpack_copied: u64,
    pub unpack_aliased: u64,
    pub sim_events: u64,
}

impl TrafficSnapshot {
    /// Combine with `other`, counter by counter.
    fn zip(&self, other: &TrafficSnapshot, f: impl Fn(u64, u64) -> u64) -> TrafficSnapshot {
        TrafficSnapshot {
            messages: f(self.messages, other.messages),
            bytes: f(self.bytes, other.bytes),
            dropped: f(self.dropped, other.dropped),
            duplicated: f(self.duplicated, other.duplicated),
            corrupted: f(self.corrupted, other.corrupted),
            retries: f(self.retries, other.retries),
            redispatches: f(self.redispatches, other.redispatches),
            env_packs: f(self.env_packs, other.env_packs),
            seg_scatters: f(self.seg_scatters, other.seg_scatters),
            resident_hits: f(self.resident_hits, other.resident_hits),
            resident_misses: f(self.resident_misses, other.resident_misses),
            unpack_copied: f(self.unpack_copied, other.unpack_copied),
            unpack_aliased: f(self.unpack_aliased, other.unpack_aliased),
            sim_events: f(self.sim_events, other.sim_events),
        }
    }

    /// Counter-by-counter difference `self - earlier`: the traffic of the
    /// interval between the two snapshots. Saturating, so a `reset()`
    /// between the snapshots degrades to zeros instead of wrapping.
    pub fn since(&self, earlier: &TrafficSnapshot) -> TrafficSnapshot {
        self.zip(earlier, u64::saturating_sub)
    }

    /// Elementwise sum (aggregating one tenant's per-job deltas).
    pub fn plus(&self, other: &TrafficSnapshot) -> TrafficSnapshot {
        self.zip(other, |a, b| a + b)
    }
}

/// Timing and traffic breakdown of one distributed operation — and, under
/// the name `RunStats`, of one whole skeleton execution.
///
/// One record, not one per layer: a dispatch fills in the modeled times and
/// every count, the skeleton engine adds the root's own seconds
/// ([`from_dist`](Self::from_dist) / [`overlapped`](Self::overlapped)), an
/// app chaining calls sums them ([`then`](Self::then)). The constructors are
/// struct updates, so a new count is declared here, tallied where it
/// happens and added in `then` — nowhere else.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DistTiming {
    /// End-to-end time in seconds: the modeled makespan.
    pub total_s: f64,
    /// Seconds attributed to communication (modeled from byte counts).
    pub comm_s: f64,
    /// Seconds spent at the root outside the distributed region (slicing
    /// inputs, merging node partials, assembling outputs). Zero as a
    /// dispatch reports it; the skeleton engine fills it in.
    pub root_s: f64,
    /// Per-node compute seconds (the max of these bounds the compute span).
    pub node_compute_s: Vec<f64>,
    /// Bytes shipped to nodes (sliced input data, environment), summed
    /// over every link: a copy a rank relays to another counts again.
    pub bytes_out: u64,
    /// The part of `bytes_out` that left on the root's own link.
    pub root_bytes_out: u64,
    /// Bytes shipped nodes -> root (results).
    pub bytes_back: u64,
    /// Total messages in both directions.
    pub messages: u64,
    /// Retransmissions forced by the fault schedule (0 without faults).
    pub retries: u64,
    /// Tasks re-sent to a surviving rank after a failure (0 without faults).
    pub redispatches: u64,
    /// Resident tasks that executed on their segment's home rank.
    pub resident_hits: u64,
    /// Resident tasks whose segment had to be re-shipped to a survivor.
    pub resident_misses: u64,
    /// Result-unpack bytes memcpy'd out of received buffers at the root.
    pub unpack_copied: u64,
    /// Result-unpack bytes aliased in place (zero-copy views) at the root.
    pub unpack_aliased: u64,
}

impl DistTiming {
    /// Stats for a purely sequential or purely local run: one node busy
    /// for all of it, nothing on the wire.
    pub fn local(total_s: f64) -> Self {
        DistTiming { total_s, node_compute_s: vec![total_s], ..DistTiming::default() }
    }

    /// Add root-side seconds that ran before or after the distributed
    /// region `d`: the total is their sum.
    pub fn from_dist(d: DistTiming, root_s: f64) -> Self {
        let total_s = d.total_s + root_s;
        DistTiming::overlapped(d, root_s, total_s)
    }

    /// Add root-side work that *overlapped* the distributed region `d` (the
    /// streamed merge): `root_s` still reports the root's busy seconds, but
    /// the end-to-end total is the overlapped makespan rather than their sum.
    pub fn overlapped(d: DistTiming, root_s: f64, total_s: f64) -> Self {
        DistTiming { total_s, root_s, ..d }
    }

    /// Combine with the stats of a phase that ran *after* this one
    /// (times and counts add; per-node compute adds elementwise).
    pub fn then(mut self, other: DistTiming) -> DistTiming {
        self.total_s += other.total_s;
        self.comm_s += other.comm_s;
        self.root_s += other.root_s;
        self.bytes_out += other.bytes_out;
        self.root_bytes_out += other.root_bytes_out;
        self.bytes_back += other.bytes_back;
        self.messages += other.messages;
        self.retries += other.retries;
        self.redispatches += other.redispatches;
        self.resident_hits += other.resident_hits;
        self.resident_misses += other.resident_misses;
        self.unpack_copied += other.unpack_copied;
        self.unpack_aliased += other.unpack_aliased;
        if self.node_compute_s.len() < other.node_compute_s.len() {
            self.node_compute_s.resize(other.node_compute_s.len(), 0.0);
        }
        for (a, b) in self.node_compute_s.iter_mut().zip(&other.node_compute_s) {
            *a += b;
        }
        self
    }

    /// Compute-only span: the slowest node.
    pub fn compute_span_s(&self) -> f64 {
        self.node_compute_s.iter().cloned().fold(0.0, f64::max)
    }

    /// Fraction of total time spent communicating.
    pub fn comm_fraction(&self) -> f64 {
        if self.total_s <= 0.0 {
            0.0
        } else {
            self.comm_s / self.total_s
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_time_is_affine() {
        let m = CostModel::flat(1e-3, 1e6);
        assert!((m.transfer_time(0) - 1e-3).abs() < 1e-12);
        assert!((m.transfer_time(1_000_000) - 1.001).abs() < 1e-9);
    }

    #[test]
    fn free_model_is_zero() {
        let m = CostModel::free();
        assert_eq!(m.transfer_time(1 << 30), 0.0);
    }

    #[test]
    fn hierarchical_edge_costs_are_pinned() {
        // 4 ranks per rack; intra tier 1ms + 1 MB/s, inter tier 10ms +
        // 0.1 MB/s. Pin the exact edge costs the simulator will charge.
        let m = CostModel::hierarchical(4, 1e-3, 1e6, 10e-3, 1e5);
        // Same rack (ranks 0 and 3 share rack 0): intra tier.
        assert_eq!(m.edge_time(0, 3, 1000), 1e-3 + 1000.0 / 1e6);
        // Rack boundary (rank 3 in rack 0, rank 4 in rack 1): inter tier.
        assert_eq!(m.edge_time(3, 4, 1000), 10e-3 + 1000.0 / 1e5);
        // Far racks cost the same single inter hop (two-tier, not distance).
        assert_eq!(m.edge_time(0, 15, 1000), m.edge_time(3, 4, 1000));
        // The root pseudo-rank lives in rack 0: intra to rack 0, inter out.
        assert_eq!(m.edge_time(usize::MAX, 2, 64), 1e-3 + 64.0 / 1e6);
        assert_eq!(m.edge_time(usize::MAX, 9, 64), 10e-3 + 64.0 / 1e5);
        assert_eq!(m.edge_time(9, usize::MAX, 64), m.edge_time(usize::MAX, 9, 64));
    }

    #[test]
    fn flat_edge_time_matches_transfer_time_bitwise() {
        let m = CostModel::ec2_10gbe();
        for bytes in [0usize, 1, 8, 1 << 12, 1 << 20, 1 << 28] {
            for (a, b) in [(usize::MAX, 0), (0, usize::MAX), (3, 7), (1000, 2000)] {
                assert_eq!(
                    m.edge_time(a, b, bytes).to_bits(),
                    m.transfer_time(bytes).to_bits(),
                    "flat edge {a}->{b} must be bit-identical for {bytes} bytes"
                );
            }
        }
    }

    /// A snapshot holding only `messages` and `bytes`.
    fn sent(messages: u64, bytes: u64) -> TrafficSnapshot {
        TrafficSnapshot { messages, bytes, ..TrafficSnapshot::default() }
    }

    #[test]
    fn sim_events_accumulate_and_reset() {
        let s = TrafficStats::new();
        let events = |sim_events| TrafficSnapshot { sim_events, ..TrafficSnapshot::default() };
        s.add(events(100));
        s.add(events(50));
        assert_eq!(s.sim_events(), 150);
        s.reset();
        assert_eq!(s.sim_events(), 0);
    }

    #[test]
    fn stats_accumulate_and_reset() {
        let s = TrafficStats::new();
        s.add(sent(1, 100));
        s.add(TrafficSnapshot {
            dropped: 1,
            duplicated: 1,
            corrupted: 1,
            retries: 2,
            redispatches: 1,
            ..sent(1, 50)
        });
        assert_eq!(s.snapshot().messages, 2);
        assert_eq!(s.snapshot().bytes, 150);
        assert_eq!(s.snapshot().dropped, 1);
        assert_eq!(s.snapshot().duplicated, 1);
        assert_eq!(s.snapshot().corrupted, 1);
        assert_eq!(s.snapshot().retries, 2);
        assert_eq!(s.snapshot().redispatches, 1);
        s.reset();
        assert_eq!(s.snapshot().messages, 0);
        assert_eq!(s.snapshot().bytes, 0);
        assert_eq!(s.snapshot().dropped, 0);
        assert_eq!(s.snapshot().duplicated, 0);
        assert_eq!(s.snapshot().corrupted, 0);
        assert_eq!(s.snapshot().retries, 0);
        assert_eq!(s.snapshot().redispatches, 0);
    }

    #[test]
    fn snapshots_difference_and_sum() {
        let s = TrafficStats::new();
        s.add(sent(1, 100));
        let before = s.snapshot();
        s.add(TrafficSnapshot { retries: 1, ..sent(1, 50) });
        s.record_env_pack();
        let delta = s.snapshot().since(&before);
        assert_eq!(delta.messages, 1);
        assert_eq!(delta.bytes, 50);
        assert_eq!(delta.retries, 1);
        assert_eq!(delta.env_packs, 1);
        assert_eq!(delta.redispatches, 0);
        let doubled = delta.plus(&delta);
        assert_eq!(doubled.bytes, 100);
        assert_eq!(doubled.messages, 2);
        // A reset between snapshots saturates to zero instead of wrapping.
        s.reset();
        assert_eq!(s.snapshot().since(&before).bytes, 0);
    }

    #[test]
    fn compute_span_is_max() {
        let t = DistTiming { node_compute_s: vec![0.2, 0.9, 0.5], ..DistTiming::default() };
        assert_eq!(t.compute_span_s(), 0.9);
    }

    /// A dispatch's record with every field distinct and non-zero.
    fn dispatch_timing() -> DistTiming {
        DistTiming {
            total_s: 2.0,
            comm_s: 0.5,
            root_s: 0.0,
            node_compute_s: vec![1.0, 1.4],
            bytes_out: 10,
            root_bytes_out: 7,
            bytes_back: 20,
            messages: 4,
            retries: 3,
            redispatches: 1,
            resident_hits: 5,
            resident_misses: 2,
            unpack_copied: 30,
            unpack_aliased: 40,
        }
    }

    #[test]
    fn from_dist_is_overlapped_at_the_sum() {
        let (d, r) = (dispatch_timing(), 0.25);
        let s = DistTiming::from_dist(d.clone(), r);
        assert_eq!(s, DistTiming::overlapped(d.clone(), r, d.total_s + r));
        // Only the two times moved; every count is the dispatch's.
        assert_eq!(DistTiming { total_s: d.total_s, root_s: 0.0, ..s }, d);
    }

    #[test]
    fn local_is_one_busy_node_and_no_traffic() {
        let s = DistTiming::local(1.5);
        let quiet = DistTiming { total_s: 1.5, node_compute_s: vec![1.5], ..Default::default() };
        assert_eq!(s, quiet);
        assert_eq!((s.compute_span_s(), s.comm_fraction()), (1.5, 0.0));
    }

    #[test]
    fn then_adds_root_seconds_and_every_count() {
        let a = DistTiming::from_dist(dispatch_timing(), 0.25);
        let b = DistTiming { node_compute_s: vec![0.5, 0.5, 0.5], ..a.clone() };
        let expect = DistTiming {
            total_s: 4.5,
            comm_s: 1.0,
            root_s: 0.5,
            node_compute_s: vec![1.5, 1.9, 0.5],
            bytes_out: 20,
            root_bytes_out: 14,
            bytes_back: 40,
            messages: 8,
            retries: 6,
            redispatches: 2,
            resident_hits: 10,
            resident_misses: 4,
            unpack_copied: 60,
            unpack_aliased: 80,
        };
        assert_eq!(a.then(b), expect);
    }
}
