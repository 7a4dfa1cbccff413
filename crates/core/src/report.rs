//! Run statistics returned beside every skeleton result.

/// Timing and traffic breakdown of one skeleton execution: the cluster's
/// own [`DistTiming`](triolet_cluster::DistTiming) record, with `root_s`
/// filled in by the engine. `total_s` is the modeled distributed makespan
/// (see [`triolet_cluster`] for the model).
pub type RunStats = triolet_cluster::DistTiming;

#[cfg(test)]
mod tests {
    use super::*;
    use triolet_cluster::DistTiming;

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
            ..DistTiming::default()
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
