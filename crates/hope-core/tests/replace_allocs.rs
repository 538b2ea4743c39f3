//! Allocation gate for `Control`'s `Replace` step
//! (`LibState::handle_replace`): a `Replace` copies only what it shares.
//!
//! The history here is the shape a streamed call leaves behind: N nested
//! guesses, so N live intervals whose cumulative IDOs all differ and each
//! have one owner, and one UDO on the heap that every interval shares.
//! The assumptions then settle oldest first, each by an empty `Replace`
//! that reaches every later interval. Edited in place, a holder's IDO is
//! its own and changes without a copy, and the shared UDO is copied once
//! per `Replace` and handed to every holder. So what one `Replace`
//! allocates does not grow with N. Copying each holder's two sets before
//! changing them costs about five allocations per holder (a copy is a
//! buffer and an `Arc`, and the UDO's buffer then grows), N/2 holders on
//! average.
//!
//! The counters are per thread: the test harness's own threads allocate
//! whenever they like, and only the thread applying the `Replace`s is
//! counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use hope_core::{HopeConfig, HopeMetrics, IntervalOrigin, LibState};
use hope_runtime::ControlApi;
use hope_types::{AidId, HopeMessage, IdoSet, IntervalId, Payload, ProcessId, VirtualTime};

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    /// Allocations and reallocs alike: a realloc that grows a copied set
    /// is part of the copy.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting the calling thread's allocations while
/// its counting flag is up.
struct CountingAlloc;

/// `try_with`: an allocation during thread teardown finds the slots gone
/// and is simply not counted. Const-initialised `Cell`s need no lazy
/// registration, so this never allocates itself.
fn record() {
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

/// A `Control` host that keeps nothing: the gate counts `handle_replace`'s
/// own allocations, not a recorder's.
struct Quiet {
    sends: u64,
}

impl ControlApi for Quiet {
    fn pid(&self) -> ProcessId {
        ProcessId::from_raw(1)
    }
    fn now(&self) -> VirtualTime {
        VirtualTime::ZERO
    }
    fn send(&mut self, _dst: ProcessId, _payload: Payload) {
        self.sends += 1;
    }
    fn wake(&mut self) {}
}

fn aid(n: u64) -> AidId {
    AidId::from_raw(ProcessId::from_raw(100 + n))
}

/// The most allocations one of the `depth` `Replace`s made, and the IDO
/// deep copies the HOPElib counted over all of them.
fn settle_nested_guesses(depth: u64) -> (u64, u64) {
    let metrics = Arc::new(HopeMetrics::new());
    let mut lib = LibState::new(ProcessId::from_raw(1), HopeConfig::new(), metrics);
    // The UDO every interval shares: past the inline tier, on the heap.
    let escaped: IdoSet = (0..8).map(|n| aid(1_000 + n)).collect();
    let iids: Vec<IntervalId> = (0..depth)
        .map(|n| {
            let op = n as usize;
            let iid = lib
                .history
                .open_interval(IntervalOrigin::ExplicitGuess { op }, [aid(n)]);
            lib.history.current_mut().udo = escaped.clone();
            iid
        })
        .collect();
    drop(escaped);
    let mut api = Quiet { sends: 0 };
    let mut most = 0;
    for (n, iid) in (0..depth).zip(iids) {
        let replace = HopeMessage::Replace {
            iid,
            ido: IdoSet::new(),
        };
        ALLOCS.with(|a| a.set(0));
        COUNTING.with(|on| on.set(true));
        lib.handle_control(aid(n).process(), replace, &mut api);
        COUNTING.with(|on| on.set(false));
        most = most.max(ALLOCS.with(Cell::get));
    }
    assert!(lib.history.fully_definite(), "every assumption settled");
    assert_eq!(api.sends, 0, "nothing registered, affirmed or denied");
    (most, lib.metrics().ido_unshares)
}

#[test]
fn a_replace_allocates_the_same_whatever_the_number_of_holders() {
    // One copy of the shared UDO (its buffer, its `Arc` and the realloc
    // that grows it by the sender), and the finalized batch. Copying each
    // holder's sets first made 313 at depth 64, on the first `Replace`.
    const BOUND: u64 = 4;
    for depth in [64, 256] {
        let (most, unshares) = settle_nested_guesses(depth);
        let figures = format!(
            "depth {depth}: at most {most} allocations per Replace, {unshares} IDO deep copies"
        );
        eprintln!("{figures}");
        assert!(
            most <= BOUND,
            "a Replace allocates at most {BOUND} times: {figures}"
        );
        assert_eq!(unshares, 0, "every IDO has one owner: {figures}");
    }
}

/// A run whose IDO no one outside it shares: a guess on a new assumption
/// opens the run's head with a set of its own, and `members` covered
/// receives open intervals that share the head's storage. A `Replace` of
/// that assumption reaches the whole run; the members let go of the set
/// before the head changes it, so it is changed in place and handed back
/// to them.
#[test]
fn a_run_that_owns_its_ido_copies_none_of_it() {
    let metrics = Arc::new(HopeMetrics::new());
    let mut lib = LibState::new(ProcessId::from_raw(1), HopeConfig::new(), metrics);
    // An outer interval on a heap-sized set, then the run's head on one
    // more assumption: its IDO is a new merged set, its trigger inline.
    let outer = IntervalOrigin::ExplicitGuess { op: 0 };
    lib.history.open_interval(outer, (0..8).map(aid));
    let head = IntervalOrigin::ExplicitGuess { op: 1 };
    let head = lib.history.open_interval(head, [aid(8)]);
    let members: Vec<IntervalId> = (2..34)
        .map(|op| {
            let origin = IntervalOrigin::ImplicitReceive { op };
            lib.history.open_interval(origin, [])
        })
        .collect();
    let head_ido = |lib: &LibState| lib.history.get(head).unwrap().ido.clone();
    for iid in &members {
        let ido = &lib.history.get(*iid).unwrap().ido;
        assert!(ido.shares_storage(&head_ido(&lib)), "one run, one set");
    }
    let mut api = Quiet { sends: 0 };
    let replace = HopeMessage::Replace {
        iid: head,
        ido: IdoSet::new(),
    };
    lib.handle_control(aid(8).process(), replace, &mut api);
    let unshares = lib.metrics().ido_unshares;
    let settled: IdoSet = (0..8).map(aid).collect();
    assert_eq!(head_ido(&lib), settled, "the head dropped the sender");
    for iid in &members {
        let ido = &lib.history.get(*iid).unwrap().ido;
        assert_eq!(*ido, settled, "member {iid}");
        assert!(ido.shares_storage(&head_ido(&lib)), "the run shares again");
    }
    assert_eq!(
        unshares, 0,
        "no owner outside the run shares its IDO, so nothing is copied"
    );
}
