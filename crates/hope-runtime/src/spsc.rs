//! A wait-free single-producer single-consumer ring buffer.
//!
//! This is the transport primitive of the sharded threaded runtime
//! (DESIGN.md §10): every link's envelopes cross thread boundaries
//! through one of these rings, so the discipline the paper demands of
//! the HOPE primitives — completion in a bounded number of steps,
//! independent of how any other thread is scheduled — extends to the
//! wall-clock message fabric itself.
//!
//! Design constraints, in order:
//!
//! * **Wait-free on both ends.** `push` and `pop` perform a bounded
//!   number of loads/stores and never spin, park, or retry-loop. A full
//!   ring fails the push (the caller overflows to a slow path); an empty
//!   ring fails the pop. Neither side can be delayed by the scheduling
//!   of the other.
//! * **Allocation-free after construction.** The slot array is allocated
//!   once, at a power-of-two capacity; no push ever allocates.
//! * **False-sharing hardened.** The producer cursor, consumer cursor
//!   and slot array start on separate cache lines ([`CachePadded`]), so
//!   the two ends ping-pong at most the line they actually share.
//! * **Safe Rust.** No `unsafe` here (the crate's only `unsafe` is the
//!   coroutine switch in `coro.rs`). Each slot is a
//!   `Mutex<Option<T>>` used purely as an interior-mutability cell: the
//!   head/tail index discipline proves that at most one thread touches a
//!   given slot at a time, so every `lock()` is uncontended and succeeds
//!   on its single atomic fast path — the mutex never blocks, it only
//!   satisfies the borrow checker. (With `unsafe` the cells would be
//!   `UnsafeCell`s and the algorithm byte-for-byte the same.)
//!
//! The cursor protocol is the classic Lamport queue with cached
//! counterpart cursors: each end re-reads the other's atomic only when
//! its cached copy proves insufficient, so an uncontended streaming
//! workload costs one shared-line store per operation.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

/// Pads and aligns its contents to a 64-byte cache line so neighbouring
/// atomics do not false-share.
#[derive(Debug, Default)]
#[repr(align(64))]
pub struct CachePadded<T>(pub T);

#[derive(Debug)]
struct Shared<T> {
    /// Next slot the consumer will read. Written by the consumer only.
    head: CachePadded<AtomicU64>,
    /// Next slot the producer will write. Written by the producer only.
    tail: CachePadded<AtomicU64>,
    /// `capacity` slots; index `i` lives at `slots[i & mask]`.
    slots: Box<[Mutex<Option<T>>]>,
    mask: u64,
}

/// The sending end of a ring created by [`ring`]. Not `Clone`: exactly
/// one producer exists, which is what makes the ring SPSC.
#[derive(Debug)]
pub struct Producer<T> {
    shared: Arc<Shared<T>>,
    /// Mirror of `shared.tail` (we are its only writer).
    tail: u64,
    /// Last observed consumer cursor; refreshed only when the ring
    /// appears full against the stale value.
    head_cache: u64,
}

/// The receiving end of a ring created by [`ring`]. Not `Clone`.
#[derive(Debug)]
pub struct Consumer<T> {
    shared: Arc<Shared<T>>,
    /// Mirror of `shared.head` (we are its only writer).
    head: u64,
    /// Last observed producer cursor; refreshed only when the ring
    /// appears empty against the stale value.
    tail_cache: u64,
}

/// Creates a ring holding at least `capacity` elements (rounded up to a
/// power of two, minimum 2). The backing storage is allocated here and
/// never again.
pub fn ring<T>(capacity: usize) -> (Producer<T>, Consumer<T>) {
    let cap = capacity.max(2).next_power_of_two();
    let slots: Box<[Mutex<Option<T>>]> = (0..cap).map(|_| Mutex::new(None)).collect();
    let shared = Arc::new(Shared {
        head: CachePadded(AtomicU64::new(0)),
        tail: CachePadded(AtomicU64::new(0)),
        slots,
        mask: cap as u64 - 1,
    });
    (
        Producer {
            shared: shared.clone(),
            tail: 0,
            head_cache: 0,
        },
        Consumer {
            shared,
            head: 0,
            tail_cache: 0,
        },
    )
}

impl<T> Producer<T> {
    /// The fixed slot count of the ring.
    pub fn capacity(&self) -> usize {
        self.shared.slots.len()
    }

    /// Appends `value`, or returns it back when the ring is full. Wait
    /// free: a bounded number of atomic operations, no spinning, no
    /// allocation.
    pub fn push(&mut self, value: T) -> Result<(), T> {
        let cap = self.shared.slots.len() as u64;
        if self.tail.wrapping_sub(self.head_cache) >= cap {
            self.head_cache = self.shared.head.0.load(Ordering::Acquire);
            if self.tail.wrapping_sub(self.head_cache) >= cap {
                return Err(value);
            }
        }
        // Index discipline: slot `tail` is outside the consumer's
        // visible window until the release store below, so this lock is
        // uncontended by construction.
        *self.shared.slots[(self.tail & self.shared.mask) as usize].lock() = Some(value);
        self.tail = self.tail.wrapping_add(1);
        self.shared.tail.0.store(self.tail, Ordering::Release);
        Ok(())
    }

    /// True when a push would currently fail. Racy by nature (the
    /// consumer may free a slot at any moment); useful for backpressure
    /// heuristics only.
    pub fn is_full(&mut self) -> bool {
        let cap = self.shared.slots.len() as u64;
        if self.tail.wrapping_sub(self.head_cache) >= cap {
            self.head_cache = self.shared.head.0.load(Ordering::Acquire);
        }
        self.tail.wrapping_sub(self.head_cache) >= cap
    }
}

impl<T> Consumer<T> {
    /// The fixed slot count of the ring.
    pub fn capacity(&self) -> usize {
        self.shared.slots.len()
    }

    /// Removes and returns the oldest element, or `None` when the ring
    /// is empty. Wait free, like [`Producer::push`].
    pub fn pop(&mut self) -> Option<T> {
        if self.head == self.tail_cache {
            self.tail_cache = self.shared.tail.0.load(Ordering::Acquire);
            if self.head == self.tail_cache {
                return None;
            }
        }
        let value = self.shared.slots[(self.head & self.shared.mask) as usize]
            .lock()
            .take()
            .expect("slot published by producer must hold a value");
        self.head = self.head.wrapping_add(1);
        self.shared.head.0.store(self.head, Ordering::Release);
        Some(value)
    }

    /// Pops every currently visible element into `out` and returns how
    /// many were moved. One acquire load covers the whole batch — the
    /// drain the shard loop performs per wakeup.
    pub fn drain_into(&mut self, out: &mut impl Extend<T>) -> usize {
        self.tail_cache = self.shared.tail.0.load(Ordering::Acquire);
        let start = self.head;
        out.extend(std::iter::from_fn(|| {
            (self.head != self.tail_cache).then(|| {
                let value = self.shared.slots[(self.head & self.shared.mask) as usize]
                    .lock()
                    .take()
                    .expect("slot published by producer must hold a value");
                self.head = self.head.wrapping_add(1);
                value
            })
        }));
        let n = self.head.wrapping_sub(start);
        if n > 0 {
            self.shared.head.0.store(self.head, Ordering::Release);
        }
        n as usize
    }

    /// True when no element is currently visible. Racy in the same way
    /// as [`Producer::is_full`].
    pub fn is_empty(&mut self) -> bool {
        if self.head == self.tail_cache {
            self.tail_cache = self.shared.tail.0.load(Ordering::Acquire);
        }
        self.head == self.tail_cache
    }

    /// Number of elements currently visible to the consumer.
    pub fn len(&mut self) -> usize {
        self.tail_cache = self.shared.tail.0.load(Ordering::Acquire);
        self.tail_cache.wrapping_sub(self.head) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_rounds_up_to_power_of_two() {
        let (p, _c) = ring::<u32>(3);
        assert_eq!(p.capacity(), 4);
        let (p, _c) = ring::<u32>(4);
        assert_eq!(p.capacity(), 4);
        let (p, _c) = ring::<u32>(0);
        assert_eq!(p.capacity(), 2);
    }

    #[test]
    fn fifo_roundtrip() {
        let (mut p, mut c) = ring(8);
        for i in 0..5 {
            p.push(i).unwrap();
        }
        for i in 0..5 {
            assert_eq!(c.pop(), Some(i));
        }
        assert_eq!(c.pop(), None);
    }

    #[test]
    fn full_ring_rejects_then_accepts_after_pop() {
        let (mut p, mut c) = ring(4);
        for i in 0..4 {
            p.push(i).unwrap();
        }
        assert_eq!(p.push(99), Err(99));
        assert!(p.is_full());
        assert_eq!(c.pop(), Some(0));
        p.push(99).unwrap();
        assert_eq!(c.pop(), Some(1));
        assert_eq!(c.pop(), Some(2));
        assert_eq!(c.pop(), Some(3));
        assert_eq!(c.pop(), Some(99));
    }

    #[test]
    fn drain_collects_batch() {
        let (mut p, mut c) = ring(8);
        for i in 0..6 {
            p.push(i).unwrap();
        }
        let mut out = Vec::new();
        assert_eq!(c.drain_into(&mut out), 6);
        assert_eq!(out, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(c.drain_into(&mut out), 0);
    }

    #[test]
    fn leftover_values_drop_with_the_ring() {
        use std::sync::atomic::AtomicUsize;
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        #[derive(Debug)]
        struct Token;
        impl Drop for Token {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }
        let (mut p, c) = ring(4);
        p.push(Token).unwrap();
        p.push(Token).unwrap();
        drop(p);
        drop(c);
        assert_eq!(DROPS.load(Ordering::SeqCst), 2);
    }
}
