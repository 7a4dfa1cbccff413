//! The unified skeleton-input abstraction: [`IntoDistInput`] for data and
//! [`AsEnv`] for broadcast environments.
//!
//! Every skeleton entry point takes one `input` (anything convertible to a
//! [`DistInput`]: a [`DistIter`] runs through the slice-and-ship path, a
//! resident [`DistVec`](super::DistVec) view runs in place on its home
//! ranks) and one `env` (anything implementing [`AsEnv`]: a plain `&E`
//! packed once inside the call, or a [`PackedEnv`] packed once across many
//! calls). The `*_packed` / `_env` method families this replaces are gone —
//! the type of the argument, not the name of the method, selects the path.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use triolet_cluster::TrafficStats;
use triolet_domain::Domain;
use triolet_serial::{PackedPayload, Piece, Wire};

use super::DistIter;

/// A broadcast environment serialized exactly once.
///
/// Skeletons with a `&E` environment pack it once per call; a `PackedEnv`
/// lifts that caching across *calls*: multi-phase apps (tpacf's DD/RR/DR
/// correlations share the observed dataset) pack the shared data once via
/// [`Triolet::pack_env`](crate::Triolet::pack_env) and hand the same
/// `PackedEnv` to each skeleton. Every per-node copy and retransmission
/// reuses the one buffer — the paper's "serialize the closure's captured
/// environment once" (§3.4) made explicit. The original value stays
/// available for root-local execution paths, which never touch the bytes.
pub struct PackedEnv<E> {
    value: E,
    payload: PackedPayload,
}

impl<E: Wire> PackedEnv<E> {
    /// Pack `value` once, counted in `stats` (see [`pack_counted`]).
    pub(crate) fn new(value: E, stats: &TrafficStats) -> Self {
        let payload = pack_counted(&value, stats);
        PackedEnv { value, payload }
    }

    /// The environment value (used by sequential/local execution).
    pub fn value(&self) -> &E {
        &self.value
    }

    /// Bytes one copy of the environment occupies on the wire.
    pub fn wire_bytes(&self) -> usize {
        self.payload.len()
    }
}

/// Serialize a broadcast environment, counting the pack in `stats` unless
/// it is empty: the zero-byte unit environment ships nothing.
fn pack_counted<E: Wire>(env: &E, stats: &TrafficStats) -> PackedPayload {
    let payload = PackedPayload::pack(env);
    if !payload.is_empty() {
        stats.record_env_pack();
    }
    payload
}

/// How a skeleton call received its environment: a plain reference (packed
/// once inside the call) or an already-packed [`PackedEnv`] (packed once
/// across many calls). Root-local paths read the value; the distributed
/// path ships the payload. Produced by [`AsEnv::env_arg`]; not constructed
/// directly.
pub enum EnvArg<'a, E> {
    /// A borrowed environment value, serialized inside the skeleton call.
    Plain(&'a E),
    /// A pre-packed environment whose bytes are reused across calls.
    Packed(&'a PackedEnv<E>),
}

impl<'a, E: Wire> EnvArg<'a, E> {
    pub(crate) fn value(&self) -> &'a E {
        match self {
            EnvArg::Plain(e) => e,
            EnvArg::Packed(p) => &p.value,
        }
    }

    /// The serialized environment, packing now (and counting it) only for
    /// plain references.
    pub(crate) fn payload(&self, stats: &TrafficStats) -> PackedPayload {
        match self {
            EnvArg::Plain(e) => pack_counted(*e, stats),
            EnvArg::Packed(pe) => pe.payload.clone(),
        }
    }
}

/// A broadcast environment argument: `&E` (packed per call) or
/// `&PackedEnv<E>` (packed once across calls). Every skeleton with an
/// environment takes `impl AsEnv`, so one signature covers both — callers
/// that previously reached for a `*_packed` variant now just pass the
/// packed handle to the same method.
pub trait AsEnv {
    /// The environment value type every task reads.
    type Env: Wire + Send + Sync;

    /// View this argument as the engine's internal environment handle.
    fn env_arg(&self) -> EnvArg<'_, Self::Env>;
}

impl<E: Wire + Send + Sync> AsEnv for &E {
    type Env = E;

    fn env_arg(&self) -> EnvArg<'_, E> {
        EnvArg::Plain(self)
    }
}

impl<E: Wire + Send + Sync> AsEnv for &PackedEnv<E> {
    type Env = E;

    fn env_arg(&self) -> EnvArg<'_, E> {
        EnvArg::Packed(self)
    }
}

/// Where a collection's segments live: one owner cell per segment slot,
/// shared by every handle, view and in-flight call over the collection.
/// Slot `k` starts on rank `k`, where the scatter sent it; a task that ran
/// elsewhere moves the cell to where the bytes now are. The id only labels
/// the collection in traces. Nothing outside the collection records where
/// its segments live: the cells die with the last holder, like the segments.
/// A cell publishes only a rank number, never other data, so its loads and
/// swaps are relaxed.
pub(crate) struct Owners {
    id: u64,
    cells: Box<[AtomicUsize]>,
}

impl Owners {
    /// Collection `id`, `segments` long, each segment on the rank of its slot.
    pub(crate) fn new(id: u64, segments: usize) -> Arc<Self> {
        Arc::new(Owners { id, cells: (0..segments).map(AtomicUsize::new).collect() })
    }

    pub(crate) fn id(&self) -> u64 {
        self.id
    }

    /// The rank that owns segment `slot` now.
    pub(crate) fn owner(&self, slot: usize) -> usize {
        self.cells[slot].load(Ordering::Relaxed)
    }

    /// The claim on segment `slot`, `bytes` large.
    pub(crate) fn claim(self: &Arc<Self>, slot: usize, bytes: usize) -> SegClaim {
        SegClaim { owners: Arc::clone(self), slot, bytes }
    }
}

/// One segment a resident task reads: a collection's segment, by slot. Its
/// owner is read from the collection's cell, never remembered here, so
/// every handle and view sees a move the moment it is made.
#[derive(Clone)]
pub(crate) struct SegClaim {
    owners: Arc<Owners>,
    slot: usize,
    bytes: usize,
}

impl SegClaim {
    /// The id of the collection this segment belongs to.
    pub(crate) fn id(&self) -> u64 {
        self.owners.id
    }

    /// Record that the segment now lives on `rank`; returns the rank that
    /// owned it before if that is a move.
    pub(crate) fn rehome(&self, rank: usize) -> Option<usize> {
        let prev = self.owners.cells[self.slot].swap(rank, Ordering::Relaxed);
        (prev != rank).then_some(prev)
    }
}

/// One resident task: the iterator over a contiguous range of the input's
/// index space, read from segments that live on their owners.
///
/// `iter` answers global indices, and the engine splits `part` into the
/// same chunks as the re-broadcast path (chunking depends only on the
/// part's length), so a resident execution folds the same node body over
/// the same iterator type in an identical order: the result is
/// bit-identical.
pub struct ResidentPart<It: DistIter> {
    /// The segments this part reads (one per zipped operand). Whatever rank
    /// ends up executing the part owns all of them afterwards.
    pub(crate) claims: Vec<SegClaim>,
    /// The index range this part covers.
    pub(crate) part: <It::OuterDom as Domain>::Part,
    /// The task's input: one piece per claim, held by the segment's owner
    /// when the call was built (the first one's owner is the task's home),
    /// then the ghost cells a view needs from neighboring segments, if any,
    /// which only the root holds. A rank is shipped the pieces it does not
    /// hold: a miss moves whole segments, even under a view that reads a
    /// sub-range, because the executing rank becomes their owner.
    pub(crate) pieces: Vec<Piece>,
    /// The part's items: the segment as the indexer it already is.
    pub(crate) iter: It,
}

impl<It: DistIter> ResidentPart<It> {
    /// A part over `claims`, each held where it lives now.
    pub(crate) fn resolve(
        claims: Vec<SegClaim>,
        part: <It::OuterDom as Domain>::Part,
        halo_bytes: usize,
        iter: It,
    ) -> Self {
        let held =
            |c: &SegClaim| Piece { id: None, bytes: c.bytes, holder: Some(c.owners.owner(c.slot)) };
        let pieces = claims.iter().map(held).chain(Piece::anonymous(halo_bytes)).collect();
        ResidentPart { claims, part, pieces, iter }
    }
}

/// A skeleton input, resolved: either an iterator to slice and ship, or a
/// resident plan to run in place.
pub enum DistInput<It: DistIter> {
    /// Root-held data: slice per part and ship each node its share.
    Iter(It),
    /// Resident data: one part per segment the view reads, in index order,
    /// each run on the rank that owns its segment.
    Resident(Vec<ResidentPart<It>>),
}

/// Anything a skeleton can consume as its data input: every [`DistIter`]
/// (local iterators, sliced and shipped per call) and every resident
/// collection view (`&DistVec`, [`SliceView`](super::SliceView), …, which
/// run on the ranks already holding their segments).
pub trait IntoDistInput {
    /// The element type the skeleton's closures receive.
    type Item;
    /// The iterator a part is folded through: the input itself for an
    /// iterator, and for a resident view the indexer over one segment
    /// (answering the same global indices). Both arms run the same node
    /// body over it.
    type Iter: DistIter<Item = Self::Item>;

    /// Resolve to the concrete input the engine dispatches on.
    fn into_dist_input(self) -> DistInput<Self::Iter>;
}

impl<It: DistIter> IntoDistInput for It {
    type Item = It::Item;
    type Iter = It;

    fn into_dist_input(self) -> DistInput<It> {
        DistInput::Iter(self)
    }
}
