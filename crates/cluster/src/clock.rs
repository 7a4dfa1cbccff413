//! The one place host time enters the model.
//!
//! Every modeled compute duration — a node leaf, a merge, a root-side pack,
//! unpack or fold — is a host reading taken here, so the seam a model of
//! declared costs would replace is one module wide. CI's `lint` job fails
//! when non-test code elsewhere in `crates/{cluster,core,baselines,apps}`
//! (outside the app binaries) calls `Instant::now`.
//!
//! A timed body runs in a frame of its own. x86-64 SysV has no callee-saved
//! XMM register, so a body inlined between two clock reads must keep every
//! float it carries across the call in memory, and LLVM then tends to leave
//! a fold's accumulator in its stack slot for the whole loop: what was
//! measured was the spill, not the kernel. Out of line, the body's registers
//! are its own and the reads bracket one call.

use std::time::{Duration, Instant};

/// Run `f` out of line and return its value with the seconds it took.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let (r, d) = Laps::start().lap(f);
    (r, d.as_secs_f64())
}

/// Boundary reads for a loop of timed sections.
///
/// Each [`lap`](Self::lap) reads the clock once, after its body, and charges
/// the body everything since the previous boundary. Consecutive laps share a
/// read, so a chunk loop pays one read per section and the laps tile the
/// loop: the bookkeeping between two bodies lands in the next lap instead of
/// in no lap.
pub(crate) struct Laps {
    last: Instant,
}

impl Laps {
    /// Take the first boundary read.
    pub(crate) fn start() -> Self {
        Laps { last: Instant::now() }
    }

    /// Run `f` out of line; return its value and the time since the
    /// previous boundary, which this read becomes.
    pub(crate) fn lap<R>(&mut self, f: impl FnOnce() -> R) -> (R, Duration) {
        let r = out_of_line(f);
        let now = Instant::now();
        let d = now - self.last;
        self.last = now;
        (r, d)
    }
}

#[inline(never)]
fn out_of_line<R>(f: impl FnOnce() -> R) -> R {
    f()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timed_returns_the_value_and_covers_the_body() {
        let (v, s) = timed(|| {
            std::thread::sleep(Duration::from_millis(2));
            7
        });
        assert_eq!(v, 7);
        assert!(s >= 0.002, "a 2 ms sleep timed at {s} s");
    }

    #[test]
    fn a_panicking_body_reaches_the_caller() {
        let r = std::panic::catch_unwind(|| timed(|| -> u32 { panic!("leaf failed") }));
        let payload = r.expect_err("the panic must unwind through the timed frame");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"leaf failed"));
    }

    #[test]
    fn laps_tile_their_interval() {
        let mut laps = Laps::start();
        let first = laps.last;
        let mut total = Duration::ZERO;
        for i in 0..16u64 {
            let (v, d) = laps.lap(|| (0..i * 1000).map(std::hint::black_box).sum::<u64>());
            assert_eq!(v, (0..i * 1000).sum::<u64>());
            total += d;
        }
        assert_eq!(total, laps.last - first, "laps leave no gap and overlap nowhere");
    }
}
