//! Virtual-time scheduling: deterministic replay of measured task durations.
//!
//! The paper evaluates on a 128-core cluster; this reproduction runs on hosts
//! with far fewer cores, so scaling figures are regenerated in *virtual
//! time*: leaf tasks are executed (and timed) sequentially, then replayed
//! through a greedy earliest-available-worker schedule. Greedy list
//! scheduling is the textbook model of dynamic work stealing (Graham's bound:
//! makespan <= work/p + span), so the virtual makespan has the same shape —
//! including load-imbalance effects from irregular tasks — as a real
//! work-stealing execution.
//!
//! The earliest-free worker comes off a binary min-heap keyed `(free time,
//! worker index)` — `O(n log p)` for `n` tasks on `p` workers instead of the
//! old `O(n·p)` scan — with `total_cmp` time ordering and the index
//! tie-break reproducing the scan's first-minimum choice exactly, so
//! schedules are bit-identical to the linear version.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One worker's availability on the heap. Ordering is `(free_at, worker)`
/// via `total_cmp`, matching the linear scan's first-minimum tie-break
/// (lowest worker index among equally free workers).
struct Slot {
    free_at: f64,
    worker: usize,
}

impl PartialEq for Slot {
    fn eq(&self, other: &Self) -> bool {
        self.free_at.to_bits() == other.free_at.to_bits() && self.worker == other.worker
    }
}

impl Eq for Slot {}

impl PartialOrd for Slot {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Slot {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.free_at.total_cmp(&other.free_at).then(self.worker.cmp(&other.worker))
    }
}

/// Result of scheduling a task list onto `workers` identical workers.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    /// Completion time of the last task (seconds).
    pub makespan: f64,
    /// Worker index each task was assigned to, in submission order.
    pub assignment: Vec<usize>,
    /// Modeled start time of each task (seconds), in submission order.
    /// Tracing uses these to place per-chunk spans on worker timelines.
    pub start_times: Vec<f64>,
    /// Total busy time per worker (seconds).
    pub worker_loads: Vec<f64>,
}

impl Schedule {
    /// Total work across all tasks (seconds).
    pub fn work(&self) -> f64 {
        self.worker_loads.iter().sum()
    }
}

/// Greedy earliest-available-worker scheduling of `durations` (seconds) onto
/// `workers` workers, in submission order.
///
/// This models a dynamic scheduler: each task goes to the worker that frees
/// up first, which is what a work-stealing pool converges to when tasks
/// substantially outnumber workers.
pub fn greedy_schedule(durations: &[f64], workers: usize) -> Schedule {
    let workers = workers.max(1);
    let mut heap: BinaryHeap<Reverse<Slot>> =
        (0..workers).map(|worker| Reverse(Slot { free_at: 0.0, worker })).collect();
    let mut assignment = Vec::with_capacity(durations.len());
    let mut start_times = Vec::with_capacity(durations.len());
    for &d in durations {
        let Reverse(Slot { free_at, worker }) = heap.pop().expect("workers >= 1");
        start_times.push(free_at);
        heap.push(Reverse(Slot { free_at: free_at + d.max(0.0), worker }));
        assignment.push(worker);
    }
    let makespan = heap.iter().map(|Reverse(s)| s.free_at).fold(0.0f64, f64::max);
    let mut worker_loads = vec![0.0f64; workers];
    for (task, &w) in assignment.iter().enumerate() {
        worker_loads[w] += durations[task].max(0.0);
    }
    Schedule { makespan, assignment, start_times, worker_loads }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_worker_sums_durations() {
        let s = greedy_schedule(&[1.0, 2.0, 3.0], 1);
        assert!((s.makespan - 6.0).abs() < 1e-12);
        assert_eq!(s.assignment, vec![0, 0, 0]);
    }

    #[test]
    fn perfect_split_halves_makespan() {
        let s = greedy_schedule(&[1.0, 1.0, 1.0, 1.0], 2);
        assert!((s.makespan - 2.0).abs() < 1e-12);
        assert_eq!(s.worker_loads, vec![2.0, 2.0]);
    }

    #[test]
    fn imbalanced_tail_dominates() {
        // One long task at the end: greedy places it on a free worker, the
        // makespan is bounded below by its duration.
        let s = greedy_schedule(&[0.1, 0.1, 0.1, 5.0], 4);
        assert!((s.makespan - 5.0).abs() < 1e-12);
        assert!(s.work() < 0.5 * s.makespan * 4.0, "most worker time idles");
    }

    #[test]
    fn graham_bound_holds() {
        let durations: Vec<f64> = (1..=50).map(|i| (i % 7) as f64 * 0.01 + 0.001).collect();
        for p in [1usize, 2, 4, 8, 16] {
            let s = greedy_schedule(&durations, p);
            let work: f64 = durations.iter().sum();
            let span = durations.iter().cloned().fold(0.0, f64::max);
            assert!(s.makespan <= work / p as f64 + span + 1e-9, "p={p}");
            assert!(s.makespan >= work / p as f64 - 1e-9, "p={p}");
            assert!(s.makespan >= span - 1e-9, "p={p}");
        }
    }

    #[test]
    fn more_workers_never_slower() {
        let durations: Vec<f64> = (0..40).map(|i| ((i * 13) % 11) as f64 * 0.01 + 0.001).collect();
        let mut prev = f64::INFINITY;
        for p in [1usize, 2, 4, 8, 16, 32] {
            let m = greedy_schedule(&durations, p).makespan;
            assert!(m <= prev + 1e-9, "p={p}: {m} > {prev}");
            prev = m;
        }
    }

    #[test]
    fn empty_task_list() {
        let s = greedy_schedule(&[], 4);
        assert_eq!(s.makespan, 0.0);
        assert!(s.assignment.is_empty());
    }

    #[test]
    fn start_times_follow_worker_availability() {
        let s = greedy_schedule(&[1.0, 1.0, 1.0, 1.0], 2);
        // Two workers: tasks 0/1 start at 0, tasks 2/3 when a worker frees.
        assert_eq!(s.start_times, vec![0.0, 0.0, 1.0, 1.0]);
        for (task, &w) in s.assignment.iter().enumerate() {
            assert!(s.start_times[task] <= s.worker_loads[w] + 1e-12);
        }
    }

    #[test]
    fn heap_matches_linear_scan_bitwise() {
        // The pre-heap implementation, kept as the reference: linear
        // first-minimum scan over worker free times.
        fn linear(durations: &[f64], workers: usize) -> Schedule {
            let workers = workers.max(1);
            let mut free_at = vec![0.0f64; workers];
            let mut assignment = Vec::new();
            let mut start_times = Vec::new();
            for &d in durations {
                let (best, _) = free_at
                    .iter()
                    .enumerate()
                    .min_by(|a, b| a.1.total_cmp(b.1))
                    .expect("workers >= 1");
                start_times.push(free_at[best]);
                free_at[best] += d.max(0.0);
                assignment.push(best);
            }
            let makespan = free_at.iter().cloned().fold(0.0f64, f64::max);
            let mut worker_loads = vec![0.0f64; workers];
            for (task, &w) in assignment.iter().enumerate() {
                worker_loads[w] += durations[task].max(0.0);
            }
            Schedule { makespan, assignment, start_times, worker_loads }
        }
        // Irregular durations with plenty of exact ties (repeated values)
        // so the tie-break path is genuinely exercised.
        let durations: Vec<f64> =
            (0..200).map(|i| ((i * 7) % 5) as f64 * 0.125 + ((i % 3) as f64) * 0.25).collect();
        for p in [1usize, 2, 3, 7, 16, 64] {
            let a = linear(&durations, p);
            let b = greedy_schedule(&durations, p);
            assert_eq!(a.assignment, b.assignment, "p={p}");
            assert_eq!(
                a.start_times.iter().map(|t| t.to_bits()).collect::<Vec<_>>(),
                b.start_times.iter().map(|t| t.to_bits()).collect::<Vec<_>>(),
                "p={p}"
            );
            assert_eq!(a.makespan.to_bits(), b.makespan.to_bits(), "p={p}");
        }
    }

    #[test]
    fn zero_workers_clamps_to_one() {
        let s = greedy_schedule(&[1.0, 1.0], 0);
        assert_eq!(s.worker_loads.len(), 1);
        assert!((s.makespan - 2.0).abs() < 1e-12);
    }
}
