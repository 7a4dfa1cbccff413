//! Scheduling policies as data.
//!
//! Following Mapple's lead, a policy is a *value* handed to the service,
//! not a trait object full of code: `SchedPolicy::FairShare { weights }`
//! carries the per-tenant weights, `Priority { levels }` the strict
//! levels. Selection is a pure function of the queue contents and the
//! accumulated per-tenant virtual runtimes, totally ordered by
//! `f64::total_cmp` with `(tenant, seq)` tie-breaks — so two runs of the
//! same submission sequence schedule bit-identically, whatever the host's
//! wall clock did.

/// A tenant of the job service, identified by a small dense id. Weights
/// (fair share) and levels (priority) are looked up by this id in the
/// active [`SchedPolicy`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Tenant(pub u32);

impl Tenant {
    /// Index into per-tenant tables.
    pub fn idx(&self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for Tenant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "tenant{}", self.0)
    }
}

/// How the service picks the next queued job. Policies are plain data so
/// they can be constructed, logged, and compared without touching code.
#[derive(Debug, Clone, PartialEq)]
pub enum SchedPolicy {
    /// Global submission order, tenants ignored.
    Fifo,
    /// Weighted fair sharing (stride scheduling): each selected job
    /// charges its tenant `cost / weight` of virtual runtime, and the
    /// tenant with the *least* accumulated virtual runtime runs next.
    /// `weights[tenant.idx()]`; tenants beyond the vector (or with a
    /// non-positive entry) weigh 1.0.
    FairShare { weights: Vec<f64> },
    /// Strict priority: the highest level with queued work runs first,
    /// submission order within a level. `levels[tenant.idx()]`; tenants
    /// beyond the vector have level 0.
    Priority { levels: Vec<u32> },
}

impl SchedPolicy {
    /// Short name for tables and span args.
    pub fn name(&self) -> &'static str {
        match self {
            SchedPolicy::Fifo => "fifo",
            SchedPolicy::FairShare { .. } => "fair",
            SchedPolicy::Priority { .. } => "priority",
        }
    }

    /// The fair-share weight of `tenant` under this policy (1.0 unless a
    /// positive `FairShare` weight is configured).
    pub fn weight_of(&self, tenant: Tenant) -> f64 {
        match self {
            SchedPolicy::FairShare { weights } => match weights.get(tenant.idx()) {
                Some(&w) if w > 0.0 => w,
                _ => 1.0,
            },
            _ => 1.0,
        }
    }

    /// The strict priority level of `tenant` (0 unless configured).
    pub fn level_of(&self, tenant: Tenant) -> u32 {
        match self {
            SchedPolicy::Priority { levels } => levels.get(tenant.idx()).copied().unwrap_or(0),
            _ => 0,
        }
    }

    /// Pick the index of the next job to run from `queue` (entries are
    /// `(tenant, seq)` in arbitrary order; `seq` is the global submission
    /// counter). `vruntime(tenant)` is the tenant's accumulated virtual
    /// runtime (fair share only). Deterministic: every comparison is
    /// `u64`/`u32` order or `f64::total_cmp`, ties broken by tenant id
    /// then submission seq.
    pub fn select(&self, queue: &[(Tenant, u64)], vruntime: impl Fn(Tenant) -> f64) -> usize {
        assert!(!queue.is_empty(), "select on an empty queue");
        match self {
            SchedPolicy::Fifo => {
                let mut best = 0;
                for (i, cand) in queue.iter().enumerate().skip(1) {
                    if cand.1 < queue[best].1 {
                        best = i;
                    }
                }
                best
            }
            SchedPolicy::Priority { .. } => {
                // Highest level first; (seq) within a level. The key is
                // (level desc, seq asc) — tenant id never decides because
                // seqs are globally unique.
                let key = |&(t, seq): &(Tenant, u64)| (std::cmp::Reverse(self.level_of(t)), seq);
                let mut best = 0;
                for (i, cand) in queue.iter().enumerate().skip(1) {
                    if key(cand) < key(&queue[best]) {
                        best = i;
                    }
                }
                best
            }
            SchedPolicy::FairShare { .. } => {
                // The tenant with the least virtual runtime runs next;
                // within that tenant, oldest submission first.
                let key = |&(t, seq): &(Tenant, u64)| (vruntime(t), t.0, seq);
                let mut best = 0;
                for (i, cand) in queue.iter().enumerate().skip(1) {
                    let (av, at, aseq) = key(cand);
                    let (bv, bt, bseq) = key(&queue[best]);
                    if av.total_cmp(&bv).then(at.cmp(&bt)).then(aseq.cmp(&bseq)).is_lt() {
                        best = i;
                    }
                }
                best
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_picks_min_seq() {
        let q = vec![(Tenant(2), 7), (Tenant(0), 3), (Tenant(1), 5)];
        assert_eq!(SchedPolicy::Fifo.select(&q, |_| 0.0), 1);
    }

    #[test]
    fn priority_picks_highest_level_then_seq() {
        let p = SchedPolicy::Priority { levels: vec![0, 2, 2] };
        let q = vec![(Tenant(0), 1), (Tenant(2), 4), (Tenant(1), 2)];
        // Tenants 1 and 2 share the top level; tenant 1's seq 2 is older.
        assert_eq!(p.select(&q, |_| 0.0), 2);
        assert_eq!(p.level_of(Tenant(9)), 0, "unlisted tenants get level 0");
    }

    #[test]
    fn fair_share_picks_least_vruntime_with_tenant_tiebreak() {
        let p = SchedPolicy::FairShare { weights: vec![1.0, 3.0] };
        let q = vec![(Tenant(0), 10), (Tenant(1), 11), (Tenant(1), 9)];
        // Equal vruntimes: lowest tenant id wins.
        assert_eq!(p.select(&q, |_| 0.5), 0);
        // Tenant 1 behind on vruntime: its *oldest* queued job (seq 9) wins.
        assert_eq!(p.select(&q, |t| if t.0 == 1 { 0.1 } else { 0.5 }), 2);
        assert_eq!(p.weight_of(Tenant(1)), 3.0);
        assert_eq!(p.weight_of(Tenant(7)), 1.0, "unlisted tenants weigh 1.0");
    }

    #[test]
    fn zero_or_negative_weights_are_clamped() {
        let p = SchedPolicy::FairShare { weights: vec![0.0, -2.0] };
        assert_eq!(p.weight_of(Tenant(0)), 1.0);
        assert_eq!(p.weight_of(Tenant(1)), 1.0);
    }
}
