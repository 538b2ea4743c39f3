//! Memory gates for the durable store (`hope_core::DurableStore`): a
//! logged op is held once, a rollback record allocates nothing of its
//! own, and recovery copies no record.
//!
//! The op list lives in its process's `ReplayLog`, which owns the store;
//! the store keeps the WAL's bytes and a checkpoint encodes the log's own
//! list. So what an append leaves on the heap is its WAL record — the
//! 9-byte frame, the event tag and the op's encoding — in a segment buffer
//! that doubles as it fills: at most twice the record per op. A store that
//! kept its own copy of the op list added one 40 KiB chunk per 512 ops,
//! about 80 B per op, whatever the op.
//!
//! A rollback record is built in the buffer an append reuses, so what
//! rollbacks allocate is the segments' growth alone. Recovery folds the
//! WAL's records straight from the segment bytes into the op list it
//! hands over, so what it allocates is that list's chunks; a recovery
//! that copied each record's payload out first made one allocation per
//! record.
//!
//! The counters are per thread: the test harness's own threads allocate
//! whenever they like, and only the thread appending is counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use hope_core::durable::HEADER_BYTES;
use hope_core::{DurableConfig, DurableStore, Op, Rollback};
use hope_types::ProcessId;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    /// Bytes allocated minus bytes freed while counting.
    static LIVE: Cell<i64> = const { Cell::new(0) };
    /// Allocations and reallocs while counting.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting the calling thread's live heap bytes and
/// allocations while its counting flag is up.
struct CountingAlloc;

/// Adds `delta` bytes to the live count, and one to the allocation count
/// unless the call frees. `try_with`: an allocation during thread teardown
/// finds the slots gone and is simply not counted. Const-initialised
/// `Cell`s need no lazy registration, so this never allocates itself.
fn record(delta: i64, allocates: bool) {
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            let _ = LIVE.try_with(|n| n.set(n.get() + delta));
            if allocates {
                let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
            }
        }
    });
}

/// Runs `f` with the calling thread's counters zeroed and counting, and
/// returns its live heap bytes and allocations.
fn counted(f: impl FnOnce()) -> (i64, u64) {
    LIVE.with(|n| n.set(0));
    ALLOCS.with(|n| n.set(0));
    COUNTING.with(|on| on.set(true));
    f();
    COUNTING.with(|on| on.set(false));
    (LIVE.with(Cell::get), ALLOCS.with(Cell::get))
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; `record` only touches
// thread-local cells and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size() as i64, true);
        // SAFETY: `layout` is the caller's, passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        record(-(layout.size() as i64), false);
        // SAFETY: `ptr` was returned by `System` for this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size() as i64, true);
        // SAFETY: `layout` is the caller's, passed through unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size as i64 - layout.size() as i64, true);
        // SAFETY: `ptr` was returned by `System` for `layout`; `new_size`
        // is the caller's, passed through unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const OPS: usize = 4_096;

#[test]
fn a_durable_op_is_held_once() {
    // No checkpoint: the WAL keeps every record, and nothing is compacted.
    let config = DurableConfig {
        checkpoint_every: usize::MAX,
        ..DurableConfig::default()
    };
    let mut store = DurableStore::new(ProcessId::from_raw(1), config, None, 1);
    let op = Op::Barrier;
    let wal_record = HEADER_BYTES + 1 + op.encode().len();
    let (live, _) = counted(|| {
        for _ in 0..OPS {
            store.append(&op);
        }
    });
    assert_eq!(store.stats().events, OPS as u64);

    let bound = (2 * wal_record * OPS) as i64;
    let figures = format!(
        "{live} live heap bytes after {OPS} appends, {:.1} B per op \
         (WAL record {wal_record} B, bound {bound} B)",
        live as f64 / OPS as f64
    );
    eprintln!("{figures}");
    assert!(
        live <= bound,
        "an append holds at most twice its WAL record: {figures}"
    );
}

/// No checkpoint: every record stays in the WAL.
fn uncheckpointed_store() -> DurableStore {
    let config = DurableConfig {
        checkpoint_every: usize::MAX,
        ..DurableConfig::default()
    };
    DurableStore::new(ProcessId::from_raw(1), config, None, 1)
}

#[test]
fn a_rollback_record_allocates_nothing_of_its_own() {
    let mut store = uncheckpointed_store();
    // The append sizes the reused record buffer.
    store.append(&Op::Barrier);
    let (_, allocs) = counted(|| {
        for i in 0..OPS {
            store.rollback(Rollback::CutAt(i % 2));
        }
    });
    assert_eq!(store.stats().events, OPS as u64 + 1);
    eprintln!("{OPS} rollback records made {allocs} allocations");
    assert!(
        allocs <= 512,
        "only the segments' growth allocates: {allocs} allocations for {OPS} rollback records"
    );
}

#[test]
fn recovery_copies_no_record() {
    let mut store = uncheckpointed_store();
    for _ in 0..OPS {
        store.append(&Op::Barrier);
    }
    store.note_crash(0);
    store.mark_restarted();
    let mut recovered = None;
    let (_, allocs) = counted(|| recovered = store.take_recovery());
    let recovered = recovered.expect("a pending recovery");
    assert_eq!(recovered.len(), OPS, "every record recovers");
    eprintln!("recovering {OPS} records made {allocs} allocations");
    assert!(
        allocs <= 64,
        "only the op list's chunks allocate: {allocs} allocations for {OPS} records"
    );
}
