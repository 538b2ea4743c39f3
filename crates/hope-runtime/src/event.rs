//! The virtual-time event queue, and the timed heap entry both runtimes
//! queue their work in.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use hope_types::{ProcessId, VirtualTime};

use crate::link::LinkWork;

/// What happens when an event fires.
#[derive(Debug)]
pub(crate) enum EventKind {
    /// Link-layer work: a message arrival or a retransmission timer.
    Link(LinkWork),
    /// A process finishes a compute step (or starts for the first time).
    Wake(ProcessId),
    /// A scheduled fault takes the process down until `up_at` (see
    /// [`FaultPlan`](crate::FaultPlan)); wakes arriving while it is down
    /// are deferred to `up_at`.
    Crash {
        /// The process going down.
        pid: ProcessId,
        /// When its scheduled restart fires.
        up_at: VirtualTime,
    },
    /// A crashed process comes back up and recovers.
    Restart(ProcessId),
}

/// A work item due at `time` on clock `T` (virtual time in the
/// simulator, `Instant` on the threaded runtime's shards). Ordering is
/// `(time, tie)` where `tie` is a runtime-global monotone counter, which
/// makes pops deterministic and, on the shards, shard-count-independent.
#[derive(Debug)]
pub(crate) struct Timed<T, W> {
    pub time: T,
    pub tie: u64,
    pub work: W,
}

/// A scheduled simulator event.
pub(crate) type Event = Timed<VirtualTime, EventKind>;

impl<T: Ord, W> PartialEq for Timed<T, W> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.tie == other.tie
    }
}

impl<T: Ord, W> Eq for Timed<T, W> {}

impl<T: Ord, W> PartialOrd for Timed<T, W> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T: Ord, W> Ord for Timed<T, W> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest item pops first.
        (&other.time, other.tie).cmp(&(&self.time, self.tie))
    }
}

/// Deterministic min-queue of events.
#[derive(Debug, Default)]
pub(crate) struct EventQueue {
    heap: BinaryHeap<Event>,
    next_tie: u64,
}

impl EventQueue {
    pub fn new() -> Self {
        EventQueue::default()
    }

    pub fn push(&mut self, time: VirtualTime, work: EventKind) {
        let tie = self.next_tie;
        self.next_tie += 1;
        self.heap.push(Event { time, tie, work });
    }

    pub fn pop(&mut self) -> Option<Event> {
        self.heap.pop()
    }

    /// Iterates over all queued events in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = &Event> {
        self.heap.iter()
    }

    /// Removes and returns the event whose tie counter is `tie`, leaving
    /// every other event (and the tie counter) untouched. O(n): only the
    /// external-scheduler path uses it, and checker state spaces are small.
    pub fn take_tie(&mut self, tie: u64) -> Option<Event> {
        let mut events = std::mem::take(&mut self.heap).into_vec();
        let found = events
            .iter()
            .position(|e| e.tie == tie)
            .map(|at| events.swap_remove(at));
        self.heap = BinaryHeap::from(events);
        found
    }

    /// Time of the next event without removing it.
    pub fn peek_time(&self) -> Option<VirtualTime> {
        self.heap.peek().map(|e| e.time)
    }

    #[allow(dead_code)] // used by tests and tooling
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    #[allow(dead_code)] // used by tests and tooling
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wake(p: u64) -> EventKind {
        EventKind::Wake(ProcessId::from_raw(p))
    }

    fn pid_of(kind: &EventKind) -> u64 {
        match kind {
            EventKind::Wake(p) => p.as_raw(),
            EventKind::Link(_) | EventKind::Crash { .. } | EventKind::Restart(_) => unreachable!(),
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(VirtualTime::from_nanos(30), wake(3));
        q.push(VirtualTime::from_nanos(10), wake(1));
        q.push(VirtualTime::from_nanos(20), wake(2));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|e| pid_of(&e.work))
            .collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        let t = VirtualTime::from_nanos(5);
        for p in 0..10 {
            q.push(t, wake(p));
        }
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|e| pid_of(&e.work))
            .collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn take_tie_removes_exactly_one_event() {
        let mut q = EventQueue::new();
        for p in 0..4 {
            q.push(VirtualTime::from_nanos(p * 10), wake(p));
        }
        let taken = q.take_tie(2).expect("tie 2 is queued");
        assert_eq!(pid_of(&taken.work), 2);
        assert_eq!(q.take_tie(2), None, "already removed");
        assert_eq!(q.take_tie(99), None, "never existed");
        let rest: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|e| pid_of(&e.work))
            .collect();
        assert_eq!(rest, vec![0, 1, 3], "ordering of the rest is preserved");
    }

    #[test]
    fn len_tracks_contents() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push(VirtualTime::ZERO, wake(0));
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }
}
