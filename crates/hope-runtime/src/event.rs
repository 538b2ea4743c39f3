//! The timed queue both runtimes schedule their work in: a sorted line of
//! deliveries beside a heap of everything else, popped in `(time, tie)`
//! order.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

use hope_types::{ProcessId, VirtualTime};

use crate::link::LinkWork;

/// What happens when a queued item comes due, on either runtime.
#[derive(Debug)]
pub(crate) enum EventKind {
    /// Link-layer work: a message arrival or a link timer.
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

impl EventKind {
    /// On one link deliveries come due in the order they were sent (send
    /// time plus a constant latency), so they can queue in a line; timers,
    /// wakes and faults are armed at any distance ahead and cannot.
    fn is_delivery(&self) -> bool {
        matches!(self, EventKind::Link(LinkWork::Deliver { .. }))
    }
}

/// A work item due at `time` on the runtime's virtual axis: the
/// simulator's clock, or a shard's nanoseconds since the runtime started.
/// Ordering is `(time, tie)`, where the runtime's clock stamps `tie` in
/// push order ([`Clock::stamp`](crate::scheduler::Clock::stamp)), which
/// makes pops deterministic and, on the shards, shard-count-independent.
#[derive(Debug)]
pub(crate) struct Timed {
    pub time: VirtualTime,
    pub tie: u64,
    pub work: EventKind,
}

impl Timed {
    /// What the queue orders by.
    pub fn key(&self) -> (VirtualTime, u64) {
        (self.time, self.tie)
    }
}

impl PartialEq for Timed {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl Eq for Timed {}

impl PartialOrd for Timed {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Timed {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest item pops first.
        other.key().cmp(&self.key())
    }
}

/// The min-queue of timed work both runtimes pop in `(time, tie)` order:
/// a sorted line beside a heap. A delivery not earlier than the line's
/// tail joins the line at O(1); everything else — a link timer, a wake, a
/// crash or restart, a delivery earlier than the tail — goes to the heap.
/// `pop` and `peek` take the earlier of the two heads, so the order is
/// exactly the one a plain heap gives. An earlier push never evicts the
/// tail: an ack stamped at its arrival's due time is earlier than the
/// whole backlog behind it, which would then move to the heap.
#[derive(Debug, Default)]
pub(crate) struct TimedQueue {
    /// Deliveries, each pushed not earlier than the one before.
    line: VecDeque<Timed>,
    /// Everything else.
    heap: BinaryHeap<Timed>,
}

impl TimedQueue {
    pub fn push(&mut self, item: Timed) {
        let in_order = |tail: &Timed| item.key() >= tail.key();
        if item.work.is_delivery() && self.line.back().is_none_or(in_order) {
            self.line.push_back(item);
        } else {
            self.heap.push(item);
        }
    }

    /// True when the next item is the line's head, not the heap's.
    fn line_first(&self) -> bool {
        match (self.line.front(), self.heap.peek()) {
            (Some(line), Some(heap)) => line.key() < heap.key(),
            (line, _) => line.is_some(),
        }
    }

    /// The earliest item, without removing it.
    pub fn peek(&self) -> Option<&Timed> {
        if self.line_first() {
            self.line.front()
        } else {
            self.heap.peek()
        }
    }

    pub fn pop(&mut self) -> Option<Timed> {
        if self.line_first() {
            self.line.pop_front()
        } else {
            self.heap.pop()
        }
    }

    /// Iterates over all queued items in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = &Timed> {
        self.line.iter().chain(self.heap.iter())
    }

    /// Removes and returns the item whose tie counter is `tie`, leaving
    /// every other item untouched. O(n): only the external-scheduler path
    /// uses it, and checker state spaces are small.
    pub fn take_tie(&mut self, tie: u64) -> Option<Timed> {
        if let Some(at) = self.line.iter().position(|e| e.tie == tie) {
            return self.line.remove(at);
        }
        let mut items = std::mem::take(&mut self.heap).into_vec();
        let found = items
            .iter()
            .position(|e| e.tie == tie)
            .map(|at| items.swap_remove(at));
        self.heap = BinaryHeap::from(items);
        found
    }

    pub fn len(&self) -> usize {
        self.line.len() + self.heap.len()
    }

    #[allow(dead_code)] // used by tests and tooling
    pub fn is_empty(&self) -> bool {
        self.line.is_empty() && self.heap.is_empty()
    }
}

impl Extend<Timed> for TimedQueue {
    fn extend<I: IntoIterator<Item = Timed>>(&mut self, items: I) {
        for item in items {
            self.push(item);
        }
    }
}

#[cfg(test)]
mod tests {
    use hope_types::{Envelope, Payload};

    use super::*;
    use crate::reliable::CopyKind;

    fn wake(p: u64) -> EventKind {
        EventKind::Wake(ProcessId::from_raw(p))
    }

    fn pid_of(kind: &EventKind) -> u64 {
        match kind {
            EventKind::Wake(p) => p.as_raw(),
            EventKind::Link(_) | EventKind::Crash { .. } | EventKind::Restart(_) => unreachable!(),
        }
    }

    /// A queue holding `items`, their ties stamped in order.
    fn queue(items: impl IntoIterator<Item = (u64, EventKind)>) -> TimedQueue {
        let mut q = TimedQueue::default();
        for (tie, (nanos, work)) in items.into_iter().enumerate() {
            let time = VirtualTime::from_nanos(nanos);
            q.push(Timed {
                time,
                tie: tie as u64,
                work,
            });
        }
        q
    }

    fn pids(q: &mut TimedQueue) -> Vec<u64> {
        std::iter::from_fn(|| q.pop())
            .map(|e| pid_of(&e.work))
            .collect()
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = queue([(30, wake(3)), (10, wake(1)), (20, wake(2))]);
        assert_eq!(pids(&mut q), vec![1, 2, 3]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = queue((0..10).map(|p| (5, wake(p))));
        assert_eq!(pids(&mut q), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn take_tie_removes_exactly_one_event() {
        let mut q = queue((0..4).map(|p| (p * 10, wake(p))));
        let taken = q.take_tie(2).expect("tie 2 is queued");
        assert_eq!(pid_of(&taken.work), 2);
        assert_eq!(q.take_tie(2), None, "already removed");
        assert_eq!(q.take_tie(99), None, "never existed");
        assert_eq!(
            pids(&mut q),
            vec![0, 1, 3],
            "ordering of the rest is preserved"
        );
    }

    fn delivery(seq: u64) -> EventKind {
        let env = Envelope {
            src: ProcessId::from_raw(1),
            dst: ProcessId::from_raw(2),
            sent_at: VirtualTime::ZERO,
            seq,
            payload: Payload::Ack { seq },
        };
        EventKind::Link(LinkWork::Deliver {
            env,
            copy: CopyKind::Original,
        })
    }

    #[test]
    fn in_order_deliveries_skip_the_heap() {
        // A stream on one link at a constant latency, its retransmit and
        // delayed-ack timers armed ahead of every 100 messages: the heap
        // holds the timers and nothing else.
        let link = (ProcessId::from_raw(1), ProcessId::from_raw(2));
        let q = queue((0..10_000).flat_map(|n| {
            let timers = (n % 100 == 0).then(|| {
                let retransmit = (n + 200, EventKind::Link(LinkWork::Retransmit { link }));
                [
                    retransmit,
                    (n + 5, EventKind::Link(LinkWork::AckDue { link })),
                ]
            });
            timers.into_iter().flatten().chain([(n + 50, delivery(n))])
        }));
        assert_eq!(q.line.len(), 10_000);
        assert_eq!(q.heap.len(), 200);
        assert!(q.heap.iter().all(|e| !e.work.is_delivery()));
    }

    /// A delivery or a wake, for the order gate.
    fn item(time: u64, tie: u64, delivery: bool) -> Timed {
        let work = if delivery {
            self::delivery(tie)
        } else {
            wake(tie)
        };
        let time = VirtualTime::from_nanos(time);
        Timed { time, tie, work }
    }

    /// `take_tie` on the plain heap the queue is checked against.
    fn take_tie(heap: &mut BinaryHeap<Timed>, tie: u64) -> Option<(VirtualTime, u64)> {
        let mut items = std::mem::take(heap).into_vec();
        let found = items.iter().position(|e| e.tie == tie);
        let found = found.map(|at| items.swap_remove(at).key());
        *heap = BinaryHeap::from(items);
        found
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        /// Whatever mix of deliveries (in order, out of order, at equal
        /// times) and timers is pushed, with pops in between, the queue
        /// pops the `(time, tie)` sequence a plain heap pops, and `iter`
        /// and `take_tie` see the same items.
        #[test]
        fn pops_what_a_plain_heap_pops(
            ops in proptest::collection::vec((0u8..4, 0u64..8), 0..400),
            taken in proptest::collection::vec(0u64..400, 0..8),
        ) {
            let mut q = TimedQueue::default();
            let mut heap = BinaryHeap::<Timed>::new();
            let (mut sent, mut tie) = (0, 0);
            for (op, dt) in ops {
                let (time, delivery) = match op {
                    // In order: a send at constant latency, often at the
                    // same instant as the one before.
                    0 => {
                        sent += dt / 4;
                        (sent + 10, true)
                    }
                    // Anywhere around the line's tail.
                    1 => (sent + 2 * dt, true),
                    2 => (sent + 3 * dt, false),
                    _ => {
                        let popped = (q.pop(), heap.pop());
                        proptest::prop_assert_eq!(popped.0.map(|e| e.key()), popped.1.map(|e| e.key()));
                        continue;
                    }
                };
                q.push(item(time, tie, delivery));
                heap.push(item(time, tie, delivery));
                tie += 1;
            }
            let mut held: Vec<_> = q.iter().map(Timed::key).collect();
            let mut expected: Vec<_> = heap.iter().map(Timed::key).collect();
            held.sort_unstable();
            expected.sort_unstable();
            proptest::prop_assert_eq!(held, expected);
            for t in taken {
                proptest::prop_assert_eq!(q.take_tie(t).map(|e| e.key()), take_tie(&mut heap, t));
            }
            proptest::prop_assert_eq!(q.len(), heap.len());
            while let Some(e) = heap.pop() {
                proptest::prop_assert_eq!(q.pop().map(|e| e.key()), Some(e.key()));
            }
            proptest::prop_assert!(q.is_empty());
        }
    }

    #[test]
    fn len_tracks_contents() {
        let mut q = queue([]);
        assert!(q.is_empty());
        q.push(Timed {
            time: VirtualTime::ZERO,
            tie: 0,
            work: wake(0),
        });
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }
}
