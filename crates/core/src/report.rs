//! Run statistics returned beside every skeleton result.

use triolet_cluster::DistTiming;

/// Timing and traffic breakdown of one skeleton execution.
///
/// `total_s` is the modeled distributed makespan (see [`triolet_cluster`] for
/// the model).
#[derive(Debug, Clone, PartialEq)]
pub struct RunStats {
    /// End-to-end seconds.
    pub total_s: f64,
    /// Seconds attributed to inter-node communication.
    pub comm_s: f64,
    /// Seconds spent at the root outside the distributed region (slicing
    /// inputs, merging node partials, assembling outputs).
    pub root_s: f64,
    /// Per-node compute seconds.
    pub node_compute_s: Vec<f64>,
    /// Bytes shipped to nodes, summed over every link (a copy one node
    /// relays to another counts again).
    pub bytes_out: u64,
    /// The part of `bytes_out` that left on the root's own link.
    pub root_bytes_out: u64,
    /// Bytes shipped nodes -> root.
    pub bytes_back: u64,
    /// Messages in both directions.
    pub messages: u64,
    /// Retransmissions forced by injected faults (0 without a fault plan).
    pub retries: u64,
    /// Tasks moved to a surviving node after a failure (0 without faults).
    pub redispatches: u64,
    /// Resident tasks that executed on their segment's home rank.
    pub resident_hits: u64,
    /// Resident tasks whose segment was re-shipped to a survivor.
    pub resident_misses: u64,
    /// Result-unpack bytes memcpy'd out of received buffers at the root.
    pub unpack_copied: u64,
    /// Result-unpack bytes aliased in place (zero-copy views) at the root.
    pub unpack_aliased: u64,
}

impl RunStats {
    /// Stats for a purely sequential or purely local run.
    pub fn local(total_s: f64) -> Self {
        RunStats {
            total_s,
            comm_s: 0.0,
            root_s: 0.0,
            node_compute_s: vec![total_s],
            bytes_out: 0,
            root_bytes_out: 0,
            bytes_back: 0,
            messages: 0,
            retries: 0,
            redispatches: 0,
            resident_hits: 0,
            resident_misses: 0,
            unpack_copied: 0,
            unpack_aliased: 0,
        }
    }

    /// Combine a distributed timing with root-side seconds.
    pub fn from_dist(d: DistTiming, root_s: f64) -> Self {
        RunStats {
            total_s: d.total_s + root_s,
            comm_s: d.comm_s,
            root_s,
            node_compute_s: d.node_compute_s,
            bytes_out: d.bytes_out,
            root_bytes_out: d.root_bytes_out,
            bytes_back: d.bytes_back,
            messages: d.messages,
            retries: d.retries,
            redispatches: d.redispatches,
            resident_hits: d.resident_hits,
            resident_misses: d.resident_misses,
            unpack_copied: d.unpack_copied,
            unpack_aliased: d.unpack_aliased,
        }
    }

    /// Combine a distributed timing with root-side work that *overlapped*
    /// the distributed region (the streamed pipeline's merge): `root_s`
    /// still reports the root's busy seconds, but the end-to-end total is
    /// the overlapped makespan rather than their sum.
    pub fn overlapped(d: DistTiming, root_s: f64, total_s: f64) -> Self {
        RunStats {
            total_s,
            comm_s: d.comm_s,
            root_s,
            node_compute_s: d.node_compute_s,
            bytes_out: d.bytes_out,
            root_bytes_out: d.root_bytes_out,
            bytes_back: d.bytes_back,
            messages: d.messages,
            retries: d.retries,
            redispatches: d.redispatches,
            resident_hits: d.resident_hits,
            resident_misses: d.resident_misses,
            unpack_copied: d.unpack_copied,
            unpack_aliased: d.unpack_aliased,
        }
    }

    /// Combine with the stats of a phase that ran *after* this one
    /// (totals add; per-node compute adds elementwise).
    pub fn then(mut self, other: RunStats) -> RunStats {
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

    /// The slowest node's compute seconds.
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
    fn local_stats_have_no_comm() {
        let s = RunStats::local(1.5);
        assert_eq!(s.comm_s, 0.0);
        assert_eq!(s.messages, 0);
        assert_eq!(s.compute_span_s(), 1.5);
    }

    #[test]
    fn from_dist_adds_root_time() {
        let d = DistTiming {
            total_s: 2.0,
            comm_s: 0.5,
            node_compute_s: vec![1.0, 1.4],
            bytes_out: 10,
            root_bytes_out: 10,
            bytes_back: 20,
            messages: 4,
            retries: 3,
            redispatches: 1,
            resident_hits: 0,
            resident_misses: 0,
            unpack_copied: 0,
            unpack_aliased: 0,
        };
        let s = RunStats::from_dist(d, 0.25);
        assert!((s.total_s - 2.25).abs() < 1e-12);
        assert_eq!(s.root_s, 0.25);
        assert_eq!(s.retries, 3);
        assert_eq!(s.redispatches, 1);
        assert!((s.compute_span_s() - 1.4).abs() < 1e-12);
        assert!((s.comm_fraction() - 0.5 / 2.25).abs() < 1e-12);
    }
}
