//! Rank-to-rank typed messaging over in-process channels. Nothing in the
//! runtime sends through it — the dispatcher models its own messages, retries
//! and tree relays (see `Attempts` in `cluster.rs`) — so it is only the round
//! trip the `cluster.comm_roundtrip_us` benchmark probe times. Payloads are
//! packed with [`Wire`] before they enter a channel and unpacked after.

use std::fmt;
use std::sync::mpsc::{channel, Receiver, Sender};

use bytes::Bytes;
use triolet_serial::{packed, unpack_all, Wire, WireError};

/// Errors surfaced by the message layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommError {
    /// The peer hung up (rank dropped its handle).
    Disconnected,
    /// The payload arrived but did not decode as the requested type.
    Decode(WireError),
}

impl fmt::Display for CommError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommError::Disconnected => write!(f, "peer disconnected"),
            CommError::Decode(e) => write!(f, "payload failed to decode: {e}"),
        }
    }
}

impl std::error::Error for CommError {}

struct Msg {
    from: usize,
    tag: u32,
    payload: Bytes,
}

/// Factory for a communicator of `n` ranks.
pub struct Comm;

impl Comm {
    /// Create one handle per rank (at least one).
    pub fn create(n: usize) -> Vec<CommHandle> {
        let (senders, receivers): (Vec<_>, Vec<_>) = (0..n.max(1)).map(|_| channel()).unzip();
        let handle =
            |(rank, rx)| CommHandle { rank, senders: senders.clone(), rx, pending: vec![] };
        receivers.into_iter().enumerate().map(handle).collect()
    }
}

/// One rank's endpoint: move it to the rank's thread.
pub struct CommHandle {
    rank: usize,
    senders: Vec<Sender<Msg>>,
    rx: Receiver<Msg>,
    /// Arrivals that did not match the `recv` that read them.
    pending: Vec<Msg>,
}

impl CommHandle {
    /// This endpoint's rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the communicator.
    pub fn size(&self) -> usize {
        self.senders.len()
    }

    /// Send `value` to `to` under `tag`.
    pub fn send<T: Wire>(&self, to: usize, tag: u32, value: &T) -> Result<(), CommError> {
        let msg = Msg { from: self.rank, tag, payload: packed(value) };
        self.senders[to].send(msg).map_err(|_| CommError::Disconnected)
    }

    /// Blocking receive of the next message from `from` with `tag`;
    /// out-of-order messages are buffered.
    pub fn recv<T: Wire>(&mut self, from: usize, tag: u32) -> Result<T, CommError> {
        let payload = match self.pending.iter().position(|m| m.from == from && m.tag == tag) {
            Some(at) => self.pending.remove(at).payload,
            None => loop {
                let msg = self.rx.recv().map_err(|_| CommError::Disconnected)?;
                if msg.from == from && msg.tag == tag {
                    break msg.payload;
                }
                self.pending.push(msg);
            },
        };
        unpack_all(payload).map_err(CommError::Decode)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_to_point_roundtrip() {
        let mut ends = Comm::create(2).into_iter();
        let (h0, mut h1) = (ends.next().unwrap(), ends.next().unwrap());
        std::thread::scope(|s| {
            s.spawn(move || h0.send(1, 7, &vec![1u32, 2, 3]).unwrap());
            assert_eq!(h1.recv::<Vec<u32>>(0, 7).unwrap(), vec![1, 2, 3]);
        });
    }

    #[test]
    fn out_of_order_tags_are_buffered() {
        let mut ends = Comm::create(2);
        ends[0].send(1, 1, &10u64).unwrap();
        ends[0].send(1, 2, &20u64).unwrap();
        // Receive tag 2 first even though tag 1 arrives first.
        assert_eq!(ends[1].recv::<u64>(0, 2).unwrap(), 20);
        assert_eq!(ends[1].recv::<u64>(0, 1).unwrap(), 10);
    }

    #[test]
    fn type_confusion_surfaces_as_decode_error() {
        // A peer that packs one type while the receiver expects another is
        // a decode error, not a panic.
        let mut ends = Comm::create(2);
        ends[0].send(1, 1, &vec![0xFFu8; 3]).unwrap();
        assert!(matches!(ends[1].recv::<Vec<u64>>(0, 1), Err(CommError::Decode(_))));
    }
}
