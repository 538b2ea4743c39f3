//! Allocation gate for the op log (`hope_core::ReplayLog`): recording an
//! op never moves one that is already logged.
//!
//! The log keeps its ops in fixed chunks of `OpList::CHUNK`, so a stream
//! of `record` calls allocates one chunk per `CHUNK` ops and nothing
//! larger. A log kept as one `Vec<Op>` doubles as it grows: its reallocs
//! copy every op it holds about once more, and its last block is as large
//! as the whole log. The one block that still regrows is the list of
//! chunks itself, a few machine words a chunk; its reallocs carry headers,
//! never ops, and this gate bounds the bytes they carry by what a doubling
//! list of that many headers moves.
//!
//! The counters are per thread: the test harness's own threads allocate
//! whenever they like, and only the thread recording the stream is
//! counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use hope_core::{Op, OpList, ReplayLog};
use hope_types::{ProcessId, UserMessage};

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static REALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Bytes the counted reallocs carried from the old block to the new.
    static REALLOC_MOVED: Cell<usize> = const { Cell::new(0) };
    /// The largest block a counted allocation or realloc asked for.
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, counting the calling thread's allocations while
/// its counting flag is up.
struct CountingAlloc;

fn bump(slot: &'static std::thread::LocalKey<Cell<u64>>) {
    let _ = slot.try_with(|n| n.set(n.get() + 1));
}

/// Counts one allocation (`moved` is `Some(old size)` for a realloc) that
/// asks for a block of `size` bytes. `try_with`: an allocation during
/// thread teardown finds the slots gone and is simply not counted.
/// Const-initialised `Cell`s need no lazy registration, so this never
/// allocates itself.
fn record(size: usize, moved: Option<usize>) {
    let _ = COUNTING.try_with(|on| {
        if !on.get() {
            return;
        }
        match moved {
            None => bump(&ALLOCS),
            Some(old) => {
                bump(&REALLOCS);
                let _ = REALLOC_MOVED.try_with(|m| m.set(m.get() + old.min(size)));
            }
        }
        let _ = LARGEST.try_with(|l| l.set(l.get().max(size)));
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; `record` only touches
// thread-local cells and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size(), None);
        // SAFETY: `layout` is the caller's, passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System` for this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size(), None);
        // SAFETY: `layout` is the caller's, passed through unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size, Some(layout.size()));
        // SAFETY: `ptr` was returned by `System` for `layout`; `new_size`
        // is the caller's, passed through unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const OPS: usize = 100_000;
const CHUNK: usize = OpList::CHUNK;

/// The ops `stream_definite` logs: alternating sends and receives of
/// 8-byte untagged messages.
fn stream_ops() -> Vec<Op> {
    let (peer, channel) = (ProcessId::from_raw(2), 0);
    (0..OPS as u64)
        .map(|i| match i % 2 {
            0 => Op::Send { dst: peer, channel },
            _ => Op::Receive {
                src: peer,
                msg: UserMessage::new(channel, i.to_le_bytes().to_vec().into()),
            },
        })
        .collect()
}

#[test]
fn recording_a_stream_allocates_one_chunk_per_chunk_of_ops() {
    // Every op is built before anything is counted: `record`'s own work
    // is what this gate measures.
    let ops = stream_ops();
    let mut log = ReplayLog::new(ProcessId::from_raw(1));
    COUNTING.with(|on| on.set(true));
    for op in ops {
        log.record(op);
    }
    COUNTING.with(|on| on.set(false));
    assert_eq!(log.len(), OPS);

    let allocs = ALLOCS.with(Cell::get);
    let reallocs = REALLOCS.with(Cell::get);
    let moved = REALLOC_MOVED.with(Cell::get);
    let largest = LARGEST.with(Cell::get);
    let chunk_bytes = CHUNK * std::mem::size_of::<Op>();
    let chunks = OPS.div_ceil(CHUNK);
    // The list of chunks doubles: the headers it moved sum to less than
    // twice its final length.
    let header_bytes = 2 * chunks * std::mem::size_of::<Vec<Op>>();
    let figures = format!(
        "{allocs} allocations, {reallocs} reallocs moving {moved} B, largest block {largest} B \
         ({OPS} ops, chunk of {CHUNK} ops = {chunk_bytes} B)"
    );
    eprintln!("{figures}");
    assert!(
        largest <= chunk_bytes,
        "no block larger than one chunk: {figures}"
    );
    assert!(
        allocs <= chunks as u64 + 1,
        "one allocation per chunk plus the chunk list: {figures}"
    );
    assert!(
        moved <= header_bytes,
        "reallocs move chunk headers only (at most {header_bytes} B), never ops: {figures}"
    );
}
