//! Shared primitives of the sharded threaded transport (DESIGN.md §10):
//! the doorbell a driver thread waits on for quiescence, and the
//! append-only table that holds the routing state: a pid's entry is
//! written once, at its spawn, so a spawn copies nothing and a delivery
//! reads the entry without a lock.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Duration;

use parking_lot::{Condvar, Mutex};

use hope_types::ProcessId;

/// Routes a process to its owning shard. The process runs there, and all
/// deliveries to its pid — equivalently, all links whose `LinkId.1` is
/// that pid — are handled there, which makes the shard the only one to
/// touch the process's mailbox and preserves per-link FIFO without any
/// cross-shard coordination.
pub(crate) fn shard_of(pid: ProcessId, shards: usize) -> usize {
    (pid.as_raw() % shards.max(1) as u64) as usize
}

/// A park/wake rendezvous whose *wake* side is wait-free in the common
/// case: `notify` is one acquire load when nobody is parked, and only the
/// *first* notifier of a park touches the park mutex (held for the
/// duration of a condvar signal, never across work) — the doorbell rings
/// once per park, however many notifiers arrive before the sleeper is
/// scheduled.
///
/// Its one use is `ThreadedRuntime`'s quiescence wait: a driver thread
/// parks on it and the shard that finishes the last queued item rings it
/// (a shard parks on its inbox instead). No primitive waits on it.
///
/// The lost-wakeup race is closed by ordering, not by locking the fast
/// path: the sleeper sets `parked` *before* its final re-check of the
/// work source, and the waker publishes work *before* loading `parked`.
/// Whichever order the race resolves in, either the sleeper sees the
/// work or the waker sees the parked flag.
///
/// A notifier that finds `rung` already set relies on the one who set
/// it: that one is committed to taking the mutex and signalling, and the
/// sleeper holds the mutex from before `parked` is visible until it is
/// inside the condvar wait, so the signal cannot fall into the gap. A
/// `rung` left set after its park ended (the notifier swapped it in just
/// as the sleeper timed out) is stale: it costs the *next* `park_for`
/// one immediate return — after which the caller re-checks its work
/// source as it does after every return — and never a lost wake.
#[derive(Debug, Default)]
pub(crate) struct Doorbell {
    parked: AtomicBool,
    /// Set by the first notifier of a park and cleared by the sleeper:
    /// both the "someone is already ringing" latch for later notifiers
    /// and the wake request a sleeper committing to sleep checks under
    /// the park mutex so none can be lost.
    rung: AtomicBool,
    mutex: Mutex<()>,
    condvar: Condvar,
}

impl Doorbell {
    /// Wakes the sleeper if it is (or is about to be) parked. Publish
    /// the work *before* calling this.
    pub fn notify(&self) {
        if self.parked.load(Ordering::Acquire) && !self.rung.swap(true, Ordering::AcqRel) {
            let _guard = self.mutex.lock();
            self.condvar.notify_all();
        }
    }

    /// Parks for at most `timeout`, unless `has_work` observes something
    /// to do during the commit-to-sleep window. `has_work` is evaluated
    /// after the parked flag is visible to wakers, which closes the
    /// race against concurrent `notify` calls.
    pub fn park_for(&self, timeout: Duration, has_work: impl FnOnce() -> bool) {
        let mut guard = self.mutex.lock();
        self.parked.store(true, Ordering::SeqCst);
        if self.rung.swap(false, Ordering::AcqRel) || has_work() {
            self.parked.store(false, Ordering::Release);
            return;
        }
        self.condvar.wait_for(&mut guard, timeout);
        self.parked.store(false, Ordering::Release);
        self.rung.store(false, Ordering::Release);
    }
}

/// The first bucket's length.
const FIRST: usize = 64;

/// An append-only table: entry `i` is written once, at its push, and never
/// moves. Bucket `b` holds `FIRST << b` entries and is allocated by the
/// first push into it, so a push copies nothing; a reader takes no lock and
/// keeps no snapshot, as the entry's `OnceLock` publishes it. An index
/// handed out but not yet written reads as absent.
pub(crate) struct AppendTable<T> {
    /// Indices handed out so far.
    len: AtomicUsize,
    /// Enough for any pid a run hands out (`FIRST << 47` and more).
    buckets: [OnceLock<Box<[OnceLock<T>]>>; 48],
}

impl<T> AppendTable<T> {
    pub fn new() -> Self {
        AppendTable {
            len: AtomicUsize::new(0),
            buckets: std::array::from_fn(|_| OnceLock::new()),
        }
    }

    /// The bucket of entry `i` (past the last for one no push reaches) and
    /// its offset there.
    fn locate(i: usize) -> (usize, usize) {
        let j = i.saturating_add(FIRST);
        let b = (j.ilog2() - FIRST.ilog2()) as usize;
        (b, j - (FIRST << b))
    }

    /// Writes `value` at the next index and returns the index.
    pub fn push(&self, value: T) -> usize {
        let i = self.len.fetch_add(1, Ordering::Relaxed);
        let (b, at) = Self::locate(i);
        let bucket =
            self.buckets[b].get_or_init(|| (0..FIRST << b).map(|_| OnceLock::new()).collect());
        assert!(bucket[at].set(value).is_ok(), "entry {i} is written once");
        i
    }

    /// Entry `i`, once its push has written it.
    pub fn get(&self, i: usize) -> Option<&T> {
        let (b, at) = Self::locate(i);
        self.buckets.get(b)?.get()?[at].get()
    }

    /// Every entry written so far, with its index, in index order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &T)> {
        let len = self.len.load(Ordering::Relaxed);
        (0..len).filter_map(|i| Some((i, self.get(i)?)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;

    #[test]
    fn shard_routing_is_stable_and_in_range() {
        for pid in 0..32u64 {
            let s = shard_of(ProcessId::from_raw(pid), 4);
            assert!(s < 4);
            assert_eq!(s, shard_of(ProcessId::from_raw(pid), 4));
        }
        assert_eq!(shard_of(ProcessId::from_raw(7), 1), 0);
        // Zero shards is clamped rather than dividing by zero.
        assert_eq!(shard_of(ProcessId::from_raw(7), 0), 0);
    }

    #[test]
    fn an_append_table_entry_is_written_once_and_never_moves() {
        let table = AppendTable::new();
        assert_eq!(table.get(0), None);
        // Across the first three bucket edges (64, 192, 448).
        let first: Vec<*const u32> = (0..500u32)
            .map(|v| {
                let i = table.push(v);
                assert_eq!(i, v as usize);
                table.get(i).expect("written at its push") as *const u32
            })
            .collect();
        for (i, at) in first.iter().enumerate() {
            assert_eq!(table.get(i), Some(&(i as u32)));
            assert_eq!(
                table.get(i).map(|v| v as *const u32),
                Some(*at),
                "entry {i} moved"
            );
        }
        assert_eq!(table.get(500), None);
        assert_eq!(table.iter().count(), 500);
        assert_eq!(AppendTable::<u32>::locate(63), (0, 63));
        assert_eq!(AppendTable::<u32>::locate(64), (1, 0));
        assert_eq!(AppendTable::<u32>::locate(191), (1, 127));
        assert_eq!(AppendTable::<u32>::locate(192), (2, 0));
        // A pid nobody spawned, however large, reads as absent.
        assert_eq!(table.get(usize::MAX), None);
    }

    #[test]
    fn an_index_handed_out_but_not_yet_written_reads_as_absent() {
        let table = AppendTable::new();
        table.push(1u32);
        // A push that took its index and has not written it yet.
        let taken = table.len.fetch_add(1, Ordering::Relaxed);
        assert_eq!(table.push(3), 2);
        assert_eq!(table.get(taken), None);
        assert_eq!(table.get(2), Some(&3));
        let seen: Vec<_> = table.iter().collect();
        assert_eq!(seen, [(0, &1), (2, &3)]);
    }

    #[test]
    fn doorbell_wakes_a_parked_thread() {
        use std::sync::atomic::AtomicBool;
        let bell = Arc::new(Doorbell::default());
        let work = Arc::new(AtomicBool::new(false));
        let (b, w) = (bell.clone(), work.clone());
        let t = std::thread::spawn(move || {
            let start = std::time::Instant::now();
            while !w.load(Ordering::Acquire) {
                b.park_for(Duration::from_secs(5), || w.load(Ordering::Acquire));
                if start.elapsed() > Duration::from_secs(10) {
                    panic!("doorbell never rang");
                }
            }
        });
        std::thread::sleep(Duration::from_millis(20));
        work.store(true, Ordering::Release);
        bell.notify();
        t.join().unwrap();
    }

    #[test]
    fn doorbell_rings_once_per_park() {
        let bell = Arc::new(Doorbell::default());
        // A sleeper that has committed to sleep but is not inside the wait
        // yet: the mutex held, `parked` visible.
        let commit = bell.mutex.lock();
        bell.parked.store(true, Ordering::SeqCst);
        let notifier = |bell: &Arc<Doorbell>| {
            let bell = bell.clone();
            std::thread::spawn(move || bell.notify())
        };
        let first = notifier(&bell);
        while !bell.rung.load(Ordering::Acquire) {
            std::thread::yield_now();
        }
        // The first notifier is now queued on the mutex. A second one must
        // rely on it and return at once — not queue up behind it.
        let second = notifier(&bell);
        let start = std::time::Instant::now();
        while !second.is_finished() {
            assert!(
                start.elapsed() < Duration::from_secs(5),
                "the second notifier queued up behind the first"
            );
            std::thread::yield_now();
        }
        assert!(
            !first.is_finished(),
            "the first notifier waits for the sleeper to reach the condvar"
        );
        drop(commit);
        first.join().unwrap();
        second.join().unwrap();
        // That park never slept, so its ring is stale: the next park
        // returns once without sleeping, the one after sleeps.
        bell.parked.store(false, Ordering::Release);
        let start = std::time::Instant::now();
        bell.park_for(Duration::from_secs(5), || false);
        assert!(start.elapsed() < Duration::from_secs(1), "stale ring");
        let start = std::time::Instant::now();
        bell.park_for(Duration::from_millis(30), || false);
        assert!(
            start.elapsed() >= Duration::from_millis(30),
            "a stale ring is spent by one return"
        );
    }

    #[test]
    fn doorbell_two_notifies_wake_a_sleeper_once() {
        let bell = Arc::new(Doorbell::default());
        let b = bell.clone();
        let sleeper = std::thread::spawn(move || {
            let start = std::time::Instant::now();
            b.park_for(Duration::from_secs(5), || false);
            let woken_after = start.elapsed();
            // Nobody rings from here on: of the next two parks at most one
            // may return early (the second notifier's ring, if it raced
            // the wake-up and went stale).
            let early = (0..2)
                .filter(|_| {
                    let start = std::time::Instant::now();
                    b.park_for(Duration::from_millis(30), || false);
                    start.elapsed() < Duration::from_millis(30)
                })
                .count();
            (woken_after, early)
        });
        while !bell.parked.load(Ordering::Acquire) {
            std::thread::yield_now();
        }
        bell.notify();
        bell.notify();
        let (woken_after, early) = sleeper.join().unwrap();
        assert!(woken_after < Duration::from_secs(1), "{woken_after:?}");
        assert!(early <= 1, "{early} spurious returns after one park");
    }

    #[test]
    fn doorbell_stress_loses_no_wake() {
        // Eight notifiers race for the same parks: each publishes one item,
        // rings, and waits for the sleeper to consume it, so the sleeper
        // parks between bursts and every park is contended. A lost wake
        // shows as a park that ran into the 5 ms backstop.
        const NOTIFIERS: u64 = 8;
        const RINGS: u64 = 10_000;
        const BACKSTOP: Duration = Duration::from_millis(5);
        let bell = Arc::new(Doorbell::default());
        let published = Arc::new(AtomicU64::new(0));
        let consumed = Arc::new(AtomicU64::new(0));
        let notifiers: Vec<_> = (0..NOTIFIERS)
            .map(|_| {
                let (bell, published, consumed) =
                    (bell.clone(), published.clone(), consumed.clone());
                std::thread::spawn(move || {
                    for _ in 0..RINGS {
                        let mine = published.fetch_add(1, Ordering::SeqCst) + 1;
                        bell.notify();
                        while consumed.load(Ordering::Acquire) < mine {
                            std::thread::yield_now();
                        }
                    }
                })
            })
            .collect();
        let started = std::time::Instant::now();
        let (mut parks, mut backstops) = (0u64, 0u64);
        loop {
            let seen = published.load(Ordering::Acquire);
            if seen > consumed.load(Ordering::Relaxed) {
                consumed.store(seen, Ordering::Release);
                continue;
            }
            if seen == NOTIFIERS * RINGS {
                break;
            }
            assert!(started.elapsed() < Duration::from_secs(120), "stuck");
            let start = std::time::Instant::now();
            bell.park_for(BACKSTOP, || published.load(Ordering::Acquire) > seen);
            parks += 1;
            backstops += u64::from(start.elapsed() >= BACKSTOP);
        }
        for t in notifiers {
            t.join().unwrap();
        }
        assert_eq!(consumed.load(Ordering::Acquire), NOTIFIERS * RINGS);
        // A late wake-up on a busy box also reads as a backstop; lost
        // wakes would come in hundreds.
        assert!(
            backstops <= 40,
            "{backstops} of {parks} parks ran into the backstop"
        );
    }

    #[test]
    fn doorbell_commit_window_sees_late_work() {
        // Work published between the parked-flag store and the condvar
        // wait must abort the sleep via the has_work re-check.
        let bell = Doorbell::default();
        let start = std::time::Instant::now();
        bell.park_for(Duration::from_secs(5), || true);
        assert!(start.elapsed() < Duration::from_secs(1));
    }
}
