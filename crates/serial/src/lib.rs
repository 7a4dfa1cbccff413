//! Serialization substrate for triolet-rs.
//!
//! The Triolet paper (§3.4) relies on compiler-generated serialization with a
//! block-copy fast path for pointer-free arrays: "Since the majority of
//! serialized data typically resides in pointer-free arrays, such arrays are
//! serialized using a block copy to minimize serialization time."
//!
//! This crate provides that substrate:
//!
//! * [`Wire`] — the pack/unpack trait every message payload implements. It is
//!   the analogue of the serialization code Triolet's compiler generates from
//!   algebraic data type definitions.
//! * [`Pod`] — a sealed marker for "plain old data" element types whose slices
//!   are serialized with a single `memcpy` (the block-copy fast path).
//! * [`WireWriter`] / [`WireReader`] — byte-buffer cursors built on [`bytes`].
//!
//! Payloads are framed in-process, so the encoding is native-endian and not
//! intended as a persistent or cross-machine format; what matters for the
//! reproduction is that data genuinely crosses simulated node boundaries as
//! bytes, and that the byte counts feed the communication cost model.
//!
//! # Example
//!
//! ```
//! use triolet_serial::{Wire, WireWriter, WireReader};
//!
//! let v: Vec<f32> = vec![1.0, 2.0, 3.0];
//! let mut w = WireWriter::new();
//! v.pack(&mut w);
//! let bytes = w.finish();
//! assert_eq!(bytes.len(), v.packed_size());
//!
//! let mut r = WireReader::new(bytes);
//! let back = Vec::<f32>::unpack(&mut r).unwrap();
//! assert_eq!(back, v);
//! ```

mod error;
mod payload;
mod pod;
mod reader;
mod view;
mod wire;
mod writer;

pub use error::WireError;
pub use payload::{PackedPayload, Piece};
pub use pod::Pod;
pub use reader::WireReader;
pub use view::{reset_unpack_counters, unpack_counters, PodView};
pub use wire::{packed, unpack_all, Wire};
pub use writer::WireWriter;

/// Convenience result alias for unpacking.
pub type WireResult<T> = Result<T, WireError>;
