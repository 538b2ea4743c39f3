//! Allocation gate for a spawn on the threaded runtime: registering a pid
//! writes its routing slot once and copies nothing, so what a spawn
//! allocates does not grow with the number of pids before it.
//!
//! A routing table that copies itself on every spawn allocates the whole
//! table again each time (a pointer per pid), and over 20 000 spawns that
//! averages to tens of kilobytes per spawn; this test counts those bytes.
//!
//! The counter is per thread: the shard threads and the test harness's
//! own threads allocate whenever they like, and only the thread that
//! spawns is counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use hope_runtime::{Actor, ActorApi, ThreadedRuntime};
use hope_types::{Envelope, ProcessId};

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting the bytes the calling thread asks for
/// while its counting flag is up (a realloc counts its new size).
struct CountingAlloc;

fn record(bytes: usize) {
    // `try_with`: an allocation during thread teardown finds the slots
    // gone and is simply not counted. Const-initialised `Cell`s need no
    // lazy registration, so this never allocates itself.
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            let _ = BYTES.try_with(|n| n.set(n.get() + bytes as u64));
        }
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; `record` only touches
// thread-local cells and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        // SAFETY: `layout` is the caller's, passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System` for this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        // SAFETY: `layout` is the caller's, passed through unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        // SAFETY: `ptr` was returned by `System` for `layout`; `new_size`
        // is the caller's, passed through unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// An actor that is never sent anything.
struct Idle;

impl Actor for Idle {
    fn on_message(&mut self, _: Envelope, _: &mut dyn ActorApi) {}
}

const SPAWNS: u64 = 20_000;
/// What one spawn may allocate on the spawning thread, on average.
const BYTES_PER_SPAWN: u64 = 4 * 1024;

#[test]
fn a_spawn_copies_no_routing_table() {
    let rt = ThreadedRuntime::builder().shards(1).build();
    COUNTING.with(|on| on.set(true));
    for i in 0..SPAWNS {
        let pid = rt.spawn_actor("idle", Box::new(Idle));
        assert_eq!(pid, ProcessId::from_raw(i), "pids are handed out in order");
    }
    COUNTING.with(|on| on.set(false));
    let per_spawn = BYTES.with(Cell::get) / SPAWNS;
    println!("{per_spawn} bytes allocated per spawn over {SPAWNS} spawns");
    assert!(
        per_spawn <= BYTES_PER_SPAWN,
        "{per_spawn} bytes allocated per spawn over {SPAWNS} spawns (at most {BYTES_PER_SPAWN})"
    );
}
