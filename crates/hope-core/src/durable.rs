//! Durable op-log storage: substitution **S6** in DESIGN.md.
//!
//! The paper's prototype made rollback survivable by checkpointing whole
//! UNIX process images to disk. This module is the modern substitute: each
//! user process's [`ReplayLog`](crate::replay::ReplayLog) writes its
//! mutations to a write-ahead log (WAL) — CRC32-framed records in
//! rotating segments, with periodic checkpoint snapshots — so a *crashed*
//! process recovers its op log from storage rather than from the
//! conveniently immortal in-memory copy the runtimes keep.
//!
//! The moving parts:
//!
//! * [`DurableStore`] — one process's WAL and its crash/recovery state,
//!   owned by that process's `ReplayLog`, which lives in its HOPElib's
//!   `LibState` (DESIGN.md §2.5): one owner for the history, the op list
//!   and the WAL. Appends and rollbacks become event records; a frontier
//!   notification periodically snapshots the log's one op list as a
//!   checkpoint and runs segment GC (checkpoints behind the definite
//!   frontier are dead weight, exactly like the paper's discarded process
//!   images). The store survives a crash with its `LibState`, and
//!   recovery rebuilds the log from [`DurableStore::take_recovery`].
//! * The medium (the private `log` submodule) — the record framing and
//!   an in-memory model of a segmented disk: sync watermark, rotation,
//!   GC, crash images and longest-valid-prefix recovery. At crash time
//!   the unsynced tail of the WAL may tear, vanish, or take a bit flip,
//!   drawn from each store's seeded [`StorageFaultPlan`], and recovery
//!   must still produce a valid prefix that satisfies Theorem 5.1.
//!
//! The durability argument: the [`SyncPolicy::Visible`] default fsyncs
//! after every *externally visible* op (sends, receives, guesses,
//! affirms/denies, AID traffic). The unsynced window therefore only ever
//! holds ops whose loss is locally repairable — `Now`, `Random`,
//! `Compute`, and empty `TryReceive` polls — so the recovered prefix never
//! retracts an effect the rest of the system observed, and the definite
//! frontier at crash time is always at or behind the recovered length.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use hope_runtime::StorageFaultPlan;
use hope_types::codec::read_u32;
use hope_types::ProcessId;

use crate::replay::{Op, OpList, Rollback};

mod log;

pub use log::{append_frame, RecordKind, HEADER_BYTES};
use log::{SegmentedLog, StorageFault};

/// When the store fsyncs the WAL.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SyncPolicy {
    /// Sync after every appended record. Maximum durability, maximum cost.
    EveryRecord,
    /// Sync after externally visible ops (sends, receives with a message,
    /// guesses, affirms, denies, free-ofs, AID ops, spawns, barriers) and
    /// after every rollback. Local-only ops (`Now`, `Random`, `Compute`,
    /// empty `TryReceive`) ride in the unsynced window: losing them merely
    /// re-draws them on re-execution. This is the default.
    #[default]
    Visible,
    /// Sync only at frontier notifications and rollbacks. Cheapest; may
    /// lose visible suffixes on crash, so only safe for workloads that
    /// tolerate re-execution of unacknowledged effects.
    OnFrontier,
}

/// Configuration for one environment's durable stores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DurableConfig {
    /// WAL segment size before rotation (bytes).
    pub segment_bytes: usize,
    /// Checkpoint the op log after this many event records.
    pub checkpoint_every: usize,
    /// Fsync cadence.
    pub sync_policy: SyncPolicy,
}

impl Default for DurableConfig {
    fn default() -> Self {
        DurableConfig {
            segment_bytes: 4096,
            checkpoint_every: 64,
            sync_policy: SyncPolicy::Visible,
        }
    }
}

/// Wire tags for WAL event payloads (one mutation of the op log each). A
/// rollback record is its tag and a `u32` op index.
mod event_wire {
    pub const APPEND: u8 = 1;
    /// [`Rollback::FlipGuess`](crate::replay::Rollback::FlipGuess).
    pub const FLIP_GUESS: u8 = 2;
    /// [`Rollback::CutAt`](crate::replay::Rollback::CutAt).
    pub const CUT_AT: u8 = 3;
}

/// True if losing this op in a crash could retract an effect another
/// process (or an AID) has already observed — these force an fsync under
/// [`SyncPolicy::Visible`].
fn is_visible(op: &Op) -> bool {
    !matches!(
        op,
        Op::Now { .. }
            | Op::Random { .. }
            | Op::ChannelSeq { .. }
            | Op::Compute { .. }
            | Op::TryReceive { result: None }
    )
}

/// One store's counters ([`DurableStore::stats`]), or their total over an
/// environment's stores
/// ([`HopeEnv::store_stats`](crate::HopeEnv::store_stats)).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DurableSnapshot {
    /// Event records appended.
    pub events: u64,
    /// Checkpoint records appended.
    pub checkpoints: u64,
    /// Explicit `sync` calls.
    pub syncs: u64,
    /// Segment rotations (each seals the outgoing segment).
    pub rotations: u64,
    /// Segments compacted away by checkpoint GC.
    pub gc_segments: u64,
    /// High-water mark of simultaneously live segments (in a total, the
    /// maximum over stores).
    pub max_live_segments: u64,
    /// Recovery scans performed.
    pub recoveries: u64,
    /// Recoveries that hit an invalid frame and dropped a suffix.
    pub corrupt_recoveries: u64,
    /// Ops reconstructed across all recoveries.
    pub recovered_ops: u64,
    /// Recoveries whose recovered prefix fell short of the definite
    /// frontier recorded at crash time — a Theorem 5.1 violation. Must
    /// stay zero under [`SyncPolicy::Visible`] and [`SyncPolicy::EveryRecord`].
    pub frontier_violations: u64,
    /// Crash images that had a storage fault injected.
    pub faults_injected: u64,
    /// Recoveries that decoded a semantically invalid record (decode
    /// failure or out-of-range rollback index) and stopped early.
    pub decode_stops: u64,
}

/// One process's durable op log: WAL + crash/recovery state. It holds no
/// op: a checkpoint encodes the owning log's list.
#[derive(Debug)]
pub struct DurableStore {
    /// The WAL; it keeps the store's counters too.
    log: SegmentedLog,
    /// The event record being built, reused so an append or a rollback
    /// allocates no payload.
    payload: Vec<u8>,
    config: DurableConfig,
    events_since_checkpoint: usize,
    /// Seeded draw for crash-image storage faults.
    rng: StdRng,
    torn_rate: f64,
    lost_rate: f64,
    flip_rate: f64,
    /// Definite-frontier floor (op index) captured at the last crash.
    definite_floor: usize,
    /// True between a restart and the recovery hand-off.
    recover_pending: bool,
}

impl DurableStore {
    /// A fresh store for `pid`. `faults` configures the seeded crash-image
    /// fault draw; `seed` derives the per-process fault stream.
    pub fn new(
        pid: ProcessId,
        config: DurableConfig,
        faults: Option<&StorageFaultPlan>,
        seed: u64,
    ) -> Self {
        let fault_seed = faults.and_then(|f| f.pinned_seed()).unwrap_or(seed)
            ^ pid.as_raw().wrapping_mul(0x9e37_79b9_7f4a_7c15)
            ^ 0x6469_736b_2d63_6821; // "disk-ch!"
        DurableStore {
            log: SegmentedLog::new(config.segment_bytes),
            payload: Vec::new(),
            config,
            events_since_checkpoint: 0,
            rng: StdRng::seed_from_u64(fault_seed),
            torn_rate: faults.map_or(0.0, |f| f.torn_rate()),
            lost_rate: faults.map_or(0.0, |f| f.lost_sync_rate()),
            flip_rate: faults.map_or(0.0, |f| f.bit_flip_rate()),
            definite_floor: 0,
            recover_pending: false,
        }
    }

    /// The store's counters so far.
    pub fn stats(&self) -> DurableSnapshot {
        self.log.stats
    }

    /// Writes the event record built in `payload` to the WAL.
    fn write_event(&mut self) {
        self.log.append_event(&self.payload);
        self.events_since_checkpoint += 1;
    }

    /// Writes a live append to the WAL.
    pub fn append(&mut self, op: &Op) {
        self.payload.clear();
        self.payload.push(event_wire::APPEND);
        op.encode_into(&mut self.payload);
        self.write_event();
        match self.config.sync_policy {
            SyncPolicy::EveryRecord => self.log.sync(),
            SyncPolicy::Visible if is_visible(op) => self.log.sync(),
            SyncPolicy::Visible | SyncPolicy::OnFrontier => {}
        }
    }

    /// Writes a live rollback of the op list to the WAL (every
    /// [`ReplayLog`](crate::replay::ReplayLog) rollback is one).
    pub fn rollback(&mut self, rollback: Rollback) {
        let (tag, index) = match rollback {
            Rollback::FlipGuess(index) => (event_wire::FLIP_GUESS, index),
            Rollback::CutAt(index) => (event_wire::CUT_AT, index),
        };
        self.payload.clear();
        self.payload.push(tag);
        self.payload
            .extend_from_slice(&(index as u32).to_le_bytes());
        self.write_event();
        // Rollbacks reshape history; they are always made durable at once
        // so a crash mid-rollback cannot resurrect a retracted suffix.
        self.log.sync();
    }

    /// Frontier notification from the HOPElib: intervals became definite.
    /// Everything so far becomes durable; if enough events accumulated,
    /// `ops` — the owning log's list, which the WAL's records fold to — is
    /// checkpointed and segments wholly behind the checkpoint are
    /// compacted away.
    pub fn on_frontier(&mut self, ops: &OpList) {
        self.log.sync();
        if self.events_since_checkpoint >= self.config.checkpoint_every {
            let mut payload = Vec::new();
            payload.extend_from_slice(&(ops.len() as u32).to_le_bytes());
            for op in ops.iter() {
                op.encode_into(&mut payload);
            }
            self.log.append_checkpoint(&payload);
            self.log.sync();
            self.events_since_checkpoint = 0;
            self.log.gc();
        }
    }

    /// The process crashed: apply a (possibly faulty) crash image to the
    /// WAL and remember the definite frontier so recovery can be audited
    /// against Theorem 5.1. `definite_floor` is the op index up to which
    /// the process's history was definite at the instant of the crash.
    pub fn note_crash(&mut self, definite_floor: usize) {
        let fault = self.draw_fault();
        self.log.stats.faults_injected += u64::from(fault.is_some());
        self.log.crash(fault);
        self.definite_floor = definite_floor;
    }

    fn draw_fault(&mut self) -> Option<StorageFault> {
        let total = self.torn_rate + self.lost_rate + self.flip_rate;
        if total <= 0.0 {
            return None;
        }
        let u = self.rng.next_u64() as f64 / u64::MAX as f64;
        if u < self.torn_rate {
            Some(StorageFault::TornFinalRecord {
                keep: self.rng.next_u64(),
            })
        } else if u < self.torn_rate + self.lost_rate {
            Some(StorageFault::LostSyncWindow)
        } else if u < total {
            Some(StorageFault::BitFlip {
                offset: self.rng.next_u64(),
                bit: (self.rng.next_u64() % 8) as u8,
            })
        } else {
            None
        }
    }

    /// The process restarted: the next [`DurableStore::take_recovery`]
    /// will rebuild the op log from storage.
    pub fn mark_restarted(&mut self) {
        self.recover_pending = true;
    }

    /// Hands the recovered op list to the restarting process, exactly once
    /// per restart. Scans the WAL's longest valid prefix and folds its
    /// records straight from the segment bytes into an op list: a
    /// checkpoint replaces the list, an event is applied to it, and the
    /// first semantically invalid record stops the fold (never a panic)
    /// until the next checkpoint. The list is audited against the definite
    /// frontier recorded at crash time and handed over.
    pub fn take_recovery(&mut self) -> Option<OpList> {
        if !std::mem::take(&mut self.recover_pending) {
            return None;
        }
        let mut ops = OpList::new();
        let mut stopped = false;
        self.log.recover(|kind, payload| match kind {
            RecordKind::Checkpoint => {
                ops.truncate(0);
                stopped = !decode_checkpoint(payload, &mut ops);
            }
            RecordKind::Event => stopped = stopped || !apply_event(payload, &mut ops),
        });
        let stats = &mut self.log.stats;
        stats.decode_stops += u64::from(stopped);
        stats.frontier_violations += u64::from(ops.len() < self.definite_floor);
        stats.recovered_ops += ops.len() as u64;
        self.events_since_checkpoint = 0;
        Some(ops)
    }
}

/// Decodes a checkpoint payload (`count` + concatenated op encodings) into
/// `ops`. Returns false (with `ops` holding the valid prefix) on any
/// malformed record.
fn decode_checkpoint(payload: &[u8], ops: &mut OpList) -> bool {
    let mut at = 0;
    let Some(count) = read_u32(payload, &mut at) else {
        return payload.is_empty();
    };
    for _ in 0..count {
        match Op::decode(payload, &mut at) {
            Some(op) => ops.push(op),
            None => return false,
        }
    }
    true
}

/// Applies one WAL event record to `ops`, a rollback through the same
/// [`OpList`] operation the live rollback made. Returns false on any
/// malformed or out-of-range record, leaving `ops` untouched.
fn apply_event(payload: &[u8], ops: &mut OpList) -> bool {
    let Some((&tag, rest)) = payload.split_first() else {
        return false;
    };
    if tag == event_wire::APPEND {
        let mut at = 0;
        return match Op::decode(rest, &mut at) {
            Some(op) if at == rest.len() => {
                ops.push(op);
                true
            }
            _ => false,
        };
    }
    let Ok(index) = <[u8; 4]>::try_from(rest) else {
        return false;
    };
    let index = u32::from_le_bytes(index) as usize;
    let rollback = match tag {
        event_wire::FLIP_GUESS => Rollback::FlipGuess(index),
        event_wire::CUT_AT => Rollback::CutAt(index),
        _ => return false,
    };
    ops.roll_back(rollback, |removed| drop(removed))
}

impl DurableSnapshot {
    /// Sums stores' counters, except `max_live_segments`, which is the
    /// maximum over stores.
    pub(crate) fn total(stores: impl Iterator<Item = DurableSnapshot>) -> Self {
        stores.fold(DurableSnapshot::default(), |agg, s| DurableSnapshot {
            events: agg.events + s.events,
            checkpoints: agg.checkpoints + s.checkpoints,
            syncs: agg.syncs + s.syncs,
            rotations: agg.rotations + s.rotations,
            gc_segments: agg.gc_segments + s.gc_segments,
            max_live_segments: agg.max_live_segments.max(s.max_live_segments),
            recoveries: agg.recoveries + s.recoveries,
            corrupt_recoveries: agg.corrupt_recoveries + s.corrupt_recoveries,
            recovered_ops: agg.recovered_ops + s.recovered_ops,
            frontier_violations: agg.frontier_violations + s.frontier_violations,
            faults_injected: agg.faults_injected + s.faults_injected,
            decode_stops: agg.decode_stops + s.decode_stops,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hope_types::AidId;

    fn pid(n: u64) -> ProcessId {
        ProcessId::from_raw(n)
    }

    fn aid(n: u64) -> AidId {
        AidId::from_raw(pid(n))
    }

    fn store() -> DurableStore {
        DurableStore::new(pid(1), DurableConfig::default(), None, 42)
    }

    /// The pending recovery's ops.
    fn recover(s: &mut DurableStore) -> Vec<Op> {
        let ops = s.take_recovery().expect("pending recovery");
        ops.iter().cloned().collect()
    }

    fn sample_ops() -> Vec<Op> {
        vec![
            Op::AidInit { aid: aid(9) },
            Op::Guess {
                aid: aid(9),
                outcome: true,
            },
            Op::Send {
                dst: pid(2),
                channel: 0,
            },
            Op::Random { value: 7 },
        ]
    }

    #[test]
    fn crash_and_recover_round_trips_appends() {
        let mut s = store();
        for op in sample_ops() {
            s.append(&op);
        }
        s.note_crash(0);
        s.mark_restarted();
        let recovered = recover(&mut s);
        assert_eq!(recovered, sample_ops());
        assert!(s.take_recovery().is_none(), "recovery hands off once");
    }

    #[test]
    fn visible_policy_leaves_local_ops_at_risk_only() {
        let mut s = store();
        s.append(&Op::Send {
            dst: pid(2),
            channel: 0,
        });
        // Local-only ops do not sync.
        s.append(&Op::Random { value: 1 });
        s.append(&Op::Now {
            value: hope_types::VirtualTime::from_nanos(5),
        });
        // A lost sync window may drop them — but never the visible send.
        let mut lossy = DurableStore::new(
            pid(1),
            DurableConfig::default(),
            Some(&StorageFaultPlan::default().lost_sync_window(1.0)),
            7,
        );
        lossy.append(&Op::Send {
            dst: pid(2),
            channel: 0,
        });
        lossy.append(&Op::Random { value: 1 });
        lossy.note_crash(1);
        lossy.mark_restarted();
        let recovered = recover(&mut lossy);
        assert_eq!(
            recovered,
            vec![Op::Send {
                dst: pid(2),
                channel: 0,
            }],
            "visible op survives, local tail re-draws"
        );
        assert_eq!(lossy.stats().frontier_violations, 0);
    }

    #[test]
    fn rollback_events_replay_during_recovery() {
        let mut s = store();
        s.append(&Op::AidInit { aid: aid(9) });
        s.append(&Op::Guess {
            aid: aid(9),
            outcome: true,
        });
        s.append(&Op::Send {
            dst: pid(2),
            channel: 0,
        });
        s.rollback(Rollback::FlipGuess(1));
        s.note_crash(0);
        s.mark_restarted();
        let recovered = recover(&mut s);
        assert_eq!(
            recovered,
            vec![
                Op::AidInit { aid: aid(9) },
                Op::Guess {
                    aid: aid(9),
                    outcome: false,
                },
            ],
            "the flipped guess and nothing after it"
        );
    }

    #[test]
    fn checkpoint_compacts_and_anchors_recovery() {
        let mut s = DurableStore::new(
            pid(1),
            DurableConfig {
                segment_bytes: 64,
                checkpoint_every: 4,
                sync_policy: SyncPolicy::Visible,
            },
            None,
            42,
        );
        let mut ops = OpList::new();
        for i in 0..16 {
            for op in [Op::Random { value: i }, Op::Barrier] {
                s.append(&op);
                ops.push(op);
            }
            s.on_frontier(&ops);
        }
        let stats = s.stats();
        assert!(stats.checkpoints >= 2, "checkpoint cadence ran: {stats:?}");
        assert!(stats.gc_segments >= 1, "GC compacted segments: {stats:?}");
        s.note_crash(0);
        s.mark_restarted();
        let recovered = recover(&mut s);
        assert_eq!(recovered.len(), 32, "checkpoint + tail reconstruct all ops");
        assert_eq!(recovered[0], Op::Random { value: 0 });
        assert_eq!(recovered[31], Op::Barrier);
    }

    #[test]
    fn frontier_violation_is_counted_when_floor_unmet() {
        // OnFrontier policy with no sync: a lost sync window wipes
        // everything, so a non-zero floor is violated.
        let mut s = DurableStore::new(
            pid(1),
            DurableConfig {
                sync_policy: SyncPolicy::OnFrontier,
                ..DurableConfig::default()
            },
            Some(&StorageFaultPlan::default().lost_sync_window(1.0)),
            3,
        );
        s.append(&Op::Send {
            dst: pid(2),
            channel: 0,
        });
        s.note_crash(1);
        s.mark_restarted();
        let recovered = recover(&mut s);
        assert!(recovered.is_empty());
        assert_eq!(s.stats().frontier_violations, 1);
    }

    #[test]
    fn bit_flip_recovery_never_panics_and_keeps_prefix() {
        for seed in 0..32 {
            let mut s = DurableStore::new(
                pid(1),
                DurableConfig::default(),
                Some(&StorageFaultPlan::default().bit_flip(1.0)),
                seed,
            );
            s.append(&Op::Send {
                dst: pid(2),
                channel: 0,
            });
            for i in 0..5 {
                s.append(&Op::Random { value: i });
            }
            s.note_crash(1);
            s.mark_restarted();
            let recovered = recover(&mut s);
            assert!(
                !recovered.is_empty(),
                "synced visible prefix survives a tail flip"
            );
            assert_eq!(
                recovered[0],
                Op::Send {
                    dst: pid(2),
                    channel: 0,
                }
            );
            assert_eq!(s.stats().frontier_violations, 0);
        }
    }

    /// A parent and the child it spawns with `ProcessCtx::spawn_user`:
    /// the child is not one of the environment's tracked processes.
    fn parent_and_child(ctx: &mut crate::ProcessCtx<'_>) {
        ctx.spawn_user("child", |ctx| {
            for _ in 0..CHILD_OPS {
                ctx.random();
            }
        });
        ctx.random();
    }

    const CHILD_OPS: u64 = 7;
    /// The parent's `SpawnUser` and `Random`, and the child's ops.
    const FAMILY_EVENTS: u64 = 2 + CHILD_OPS;

    #[test]
    fn store_stats_count_a_spawned_childs_store() {
        let mut sim = crate::HopeEnv::builder()
            .durable(DurableConfig::default())
            .build();
        sim.spawn_user("parent", parent_and_child);
        assert!(sim.run().is_clean());
        let stats = sim.store_stats().expect("durable storage configured");
        assert_eq!(stats.events, FAMILY_EVENTS, "simulator: {stats:?}");

        let threaded = crate::ThreadedHopeEnv::builder()
            .shards(2)
            .durable(DurableConfig::default())
            .build();
        threaded.spawn_user("parent", parent_and_child);
        let wait = std::time::Duration::from_millis;
        let report = threaded.run_until_quiescent(wait(50), wait(10_000));
        assert!(report.is_clean(), "quiescent: {report:?}");
        let stats = threaded.store_stats().expect("durable storage configured");
        assert_eq!(stats.events, FAMILY_EVENTS, "shards(2): {stats:?}");
    }

    #[test]
    fn apply_event_rejects_garbage_without_panicking() {
        let mut ops: OpList = [Op::Barrier].into_iter().collect();
        assert!(!apply_event(&[], &mut ops));
        assert!(!apply_event(&[99, 0, 0, 0, 0], &mut ops));
        assert!(!apply_event(&[event_wire::FLIP_GUESS, 1], &mut ops));
        // Out-of-range rollback index.
        assert!(!apply_event(&[event_wire::CUT_AT, 200, 0, 0, 0], &mut ops));
        // Trailing bytes after a valid op are malformed.
        let mut appended = vec![event_wire::APPEND];
        appended.extend_from_slice(&Op::Barrier.encode());
        appended.push(0xFF);
        assert!(!apply_event(&appended, &mut ops));
        assert!(
            ops.iter().eq([&Op::Barrier]),
            "ops untouched by rejected events"
        );
    }
}
