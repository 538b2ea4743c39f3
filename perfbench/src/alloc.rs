//! Allocation counters behind the benchmark binary's counting allocator.
//!
//! The `#[global_allocator]` itself lives in `main.rs` (this package keeps
//! its `unsafe` there); it calls [`record`] on every allocation.
//! Counting is off unless a [`counted`] section is running, so a timed
//! window pays one relaxed load per allocation and nothing else. Under
//! `cargo test` no counting allocator is installed and every count is 0.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// Called by the global allocator for every allocation of `size` bytes.
#[inline]
pub fn record(size: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(size as u64, Ordering::Relaxed);
    }
}

/// Allocations made, process-wide, while a [`counted`] section ran.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counted {
    /// Number of allocations (reallocations count once each).
    pub allocs: u64,
    /// Bytes requested.
    pub bytes: u64,
}

/// Runs `f` with allocation counting on and returns what every thread of
/// the process allocated meanwhile. Sections must not overlap.
pub fn counted<R>(f: impl FnOnce() -> R) -> (R, Counted) {
    let (a0, b0) = (
        ALLOCS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    );
    COUNTING.store(true, Ordering::SeqCst);
    let out = f();
    COUNTING.store(false, Ordering::SeqCst);
    let counted = Counted {
        allocs: ALLOCS.load(Ordering::Relaxed) - a0,
        bytes: BYTES.load(Ordering::Relaxed) - b0,
    };
    (out, counted)
}
