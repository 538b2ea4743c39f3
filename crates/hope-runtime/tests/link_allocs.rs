//! Allocation gate for the reliable sublayer's per-link record
//! (`hope_runtime::LinkRecord`): once a link's window has been reached,
//! sending, delivering and acknowledging allocates nothing.
//!
//! The retransmit buffer is a line (sequence numbers are tracked in the
//! order they are handed out and a cumulative ack retires a prefix) and an
//! in-order arrival moves the dedup window's prefix without its
//! out-of-order set, so a steady stream reuses the memory its first
//! windows grew. A buffer or window kept as a search tree splits, merges
//! and frees nodes as it slides, and this test counts those allocations.
//!
//! The counter is per thread: the test harness's own threads allocate
//! whenever they like, and only the thread running the stream is counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use hope_runtime::{AckPlan, LinkRecord, ReliableState, ACK_EVERY};
use hope_types::{Envelope, Payload, ProcessId, UserMessage, VirtualTime};

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting the calling thread's allocations while
/// its counting flag is up.
struct CountingAlloc;

fn record() {
    // `try_with`: an allocation during thread teardown finds the slots
    // gone and is simply not counted. Const-initialised `Cell`s need no
    // lazy registration, so this never allocates itself.
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        }
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; `record` only touches
// thread-local cells and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record();
        // SAFETY: `layout` is the caller's, passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System` for this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record();
        // SAFETY: `layout` is the caller's, passed through unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record();
        // SAFETY: `ptr` was returned by `System` for `layout`; `new_size`
        // is the caller's, passed through unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations the calling thread made while counting.
fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

const MESSAGES: u64 = 10_000;
/// Envelopes sent and not yet arrived.
const IN_FLIGHT: u64 = 64;

#[test]
fn a_link_past_its_first_windows_allocates_nothing() {
    let (src, dst) = (ProcessId::from_raw(1), ProcessId::from_raw(2));
    // Every envelope is built before anything is counted: the record's
    // own work is what this gate measures.
    let envelopes: Vec<Envelope> = (1..=MESSAGES)
        .map(|seq| Envelope {
            src,
            dst,
            sent_at: VirtualTime::from_nanos(seq),
            seq,
            payload: Payload::User(UserMessage::new(0, bytes::Bytes::new())),
        })
        .collect();
    let mut st = ReliableState::new();
    let rec = st.link_mut((src, dst));

    let mut acks = 0u64;
    let mut arrive = |rec: &mut LinkRecord, seq: u64| {
        let first = rec.accept(seq);
        assert!(first, "seq {seq} arrives once, in order");
        if rec.ack_plan(seq, first) == AckPlan::Now {
            let upto = rec.take_ack();
            assert_eq!(upto, seq, "in order: the ack covers every arrival");
            assert!(rec.acknowledge_at(upto, seq + IN_FLIGHT).retired);
            acks += 1;
        }
    };
    for envelope in envelopes {
        let seq = rec.assign_seq();
        assert_eq!(seq, envelope.seq);
        rec.track(envelope);
        // The first two windows grow what the record keeps; count
        // everything after them.
        if seq == 2 * IN_FLIGHT {
            COUNTING.with(|on| on.set(true));
        }
        if seq > IN_FLIGHT {
            arrive(rec, seq - IN_FLIGHT);
        }
    }
    for seq in MESSAGES - IN_FLIGHT + 1..=MESSAGES {
        arrive(rec, seq);
    }
    COUNTING.with(|on| on.set(false));

    assert_eq!(allocs(), 0, "allocations after the first two windows");
    assert_eq!(acks, MESSAGES / u64::from(ACK_EVERY));
    assert_eq!(rec.in_flight(), 0, "every envelope was retired");
}
