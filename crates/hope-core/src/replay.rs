//! Checkpoint and rollback by deterministic re-execution (substitution S2
//! in DESIGN.md).
//!
//! The paper's prototype checkpointed whole UNIX processes and restored the
//! process image on rollback. Here, every interaction a user process has
//! with the world is recorded in an **operation log**. A checkpoint is an
//! index into that log; rolling back to an interval means truncating the
//! log at the interval's opening operation and re-running the user closure
//! from the top while **replaying** the logged prefix:
//!
//! * `Receive` ops return the logged message without touching the mailbox,
//! * `Guess`/`FreeOf` ops return their logged outcomes,
//! * `Send`/`Compute`/`Affirm`/`Deny` ops are suppressed (their effects
//!   already happened and must not be duplicated),
//! * `Now`/`Random` ops return the logged values, keeping the prefix
//!   deterministic.
//!
//! When the cursor reaches the truncation point, execution goes *live*
//! again — at the rolled-back `guess`, which now returns `false` (or at the
//! rolled-back `receive`, which now blocks for a fresh message).
//!
//! Re-execution is observationally identical to restoring a process image,
//! provided the user closure is deterministic relative to its
//! [`ProcessCtx`](crate::ProcessCtx) interactions (the API funnels time,
//! randomness, and communication through the context precisely so that
//! this holds).

use bytes::BufMut;
use hope_types::codec::{
    put_aid, put_opt, put_user_message, read_aid, read_opt, read_u32, read_u64, read_u8,
    read_user_message,
};
use hope_types::{AidId, HopeError, ProcessId, UserMessage, VirtualDuration, VirtualTime};

use crate::durable::DurableStore;

/// One logged interaction between the user closure and the world.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// `aid_init` created an assumption identifier.
    AidInit {
        /// The created AID.
        aid: AidId,
    },
    /// `aid_retain` added a reference (suppressed on replay).
    AidRetain {
        /// The retained AID.
        aid: AidId,
    },
    /// `aid_release` dropped a reference (suppressed on replay).
    AidRelease {
        /// The released AID.
        aid: AidId,
    },
    /// An explicit `guess`, with the outcome it returned.
    Guess {
        /// The guessed assumption.
        aid: AidId,
        /// `true` on first (optimistic) execution; flipped to `false` when
        /// the interval it opened is rolled back.
        outcome: bool,
    },
    /// An `affirm` primitive (suppressed on replay).
    Affirm {
        /// The affirmed assumption.
        aid: AidId,
    },
    /// A `deny` primitive (suppressed on replay).
    Deny {
        /// The denied assumption.
        aid: AidId,
    },
    /// A `free_of` primitive and the answer it produced.
    FreeOf {
        /// The assumption checked.
        aid: AidId,
        /// `true` if the process was free of the assumption.
        outcome: bool,
    },
    /// A user-level send (suppressed on replay).
    Send {
        /// Destination process.
        dst: ProcessId,
        /// Application channel.
        channel: u32,
    },
    /// A blocking receive and the message it consumed.
    Receive {
        /// The sending process.
        src: ProcessId,
        /// The consumed message (with its dependency tag).
        msg: UserMessage,
    },
    /// A non-blocking receive attempt and its result.
    TryReceive {
        /// The consumed message, if any.
        result: Option<(ProcessId, UserMessage)>,
    },
    /// A virtual compute step (suppressed on replay — the time was already
    /// spent).
    Compute {
        /// The step's duration.
        dur: VirtualDuration,
    },
    /// A clock read.
    Now {
        /// The observed instant.
        value: VirtualTime,
    },
    /// A random draw.
    Random {
        /// The drawn value.
        value: u64,
    },
    /// A private-channel sequence allocation (see
    /// [`ProcessCtx::channel_seq`](crate::ProcessCtx::channel_seq)). The
    /// counter never rewinds, so a re-issued call after a rollback gets a
    /// channel no stale in-flight reply can alias; the logged value keeps
    /// the replayed prefix deterministic.
    ChannelSeq {
        /// The allocated sequence value.
        value: u32,
    },
    /// An `await_definite` commit barrier completed (replayed as a no-op:
    /// the intervals it waited for are definite in any replayed prefix).
    Barrier,
    /// Spawned another user process (spawns are *not* rolled back; see
    /// DESIGN.md).
    SpawnUser {
        /// The child's process id.
        pid: ProcessId,
    },
}

/// Wire-format tags for [`Op::encode`].
mod op_wire {
    pub const AID_INIT: u8 = 1;
    pub const AID_RETAIN: u8 = 2;
    pub const AID_RELEASE: u8 = 3;
    pub const GUESS: u8 = 4;
    pub const AFFIRM: u8 = 5;
    pub const DENY: u8 = 6;
    pub const FREE_OF: u8 = 7;
    pub const SEND: u8 = 8;
    pub const RECEIVE: u8 = 9;
    pub const TRY_RECEIVE: u8 = 10;
    pub const COMPUTE: u8 = 11;
    pub const NOW: u8 = 12;
    pub const RANDOM: u8 = 13;
    pub const BARRIER: u8 = 14;
    pub const SPAWN_USER: u8 = 15;
    pub const CHANNEL_SEQ: u8 = 16;
}

fn put_bool(buf: &mut Vec<u8>, v: bool) {
    buf.push(v as u8);
}

fn read_bool(buf: &[u8], at: &mut usize) -> Option<bool> {
    match read_u8(buf, at)? {
        0 => Some(false),
        1 => Some(true),
        _ => None,
    }
}

impl Op {
    /// Short label for divergence diagnostics.
    pub fn label(&self) -> &'static str {
        match self {
            Op::AidInit { .. } => "AidInit",
            Op::AidRetain { .. } => "AidRetain",
            Op::AidRelease { .. } => "AidRelease",
            Op::Guess { .. } => "Guess",
            Op::Affirm { .. } => "Affirm",
            Op::Deny { .. } => "Deny",
            Op::FreeOf { .. } => "FreeOf",
            Op::Send { .. } => "Send",
            Op::Receive { .. } => "Receive",
            Op::TryReceive { .. } => "TryReceive",
            Op::Compute { .. } => "Compute",
            Op::Now { .. } => "Now",
            Op::Random { .. } => "Random",
            Op::ChannelSeq { .. } => "ChannelSeq",
            Op::Barrier => "Barrier",
            Op::SpawnUser { .. } => "SpawnUser",
        }
    }

    /// Serializes this op to a self-describing little-endian byte string
    /// (the durable-store event payload; substitution S6 in DESIGN.md).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.encode_into(&mut buf);
        buf
    }

    /// Appends [`Op::encode`]'s bytes to `buf`.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        match self {
            Op::AidInit { aid } => {
                buf.push(op_wire::AID_INIT);
                put_aid(buf, *aid);
            }
            Op::AidRetain { aid } => {
                buf.push(op_wire::AID_RETAIN);
                put_aid(buf, *aid);
            }
            Op::AidRelease { aid } => {
                buf.push(op_wire::AID_RELEASE);
                put_aid(buf, *aid);
            }
            Op::Guess { aid, outcome } => {
                buf.push(op_wire::GUESS);
                put_aid(buf, *aid);
                put_bool(buf, *outcome);
            }
            Op::Affirm { aid } => {
                buf.push(op_wire::AFFIRM);
                put_aid(buf, *aid);
            }
            Op::Deny { aid } => {
                buf.push(op_wire::DENY);
                put_aid(buf, *aid);
            }
            Op::FreeOf { aid, outcome } => {
                buf.push(op_wire::FREE_OF);
                put_aid(buf, *aid);
                put_bool(buf, *outcome);
            }
            Op::Send { dst, channel } => {
                buf.push(op_wire::SEND);
                buf.put_u64_le(dst.as_raw());
                buf.put_u32_le(*channel);
            }
            Op::Receive { src, msg } => {
                buf.push(op_wire::RECEIVE);
                buf.put_u64_le(src.as_raw());
                put_user_message(buf, msg);
            }
            Op::TryReceive { result } => {
                buf.push(op_wire::TRY_RECEIVE);
                put_opt(buf, result.as_ref(), |buf, (src, msg)| {
                    buf.put_u64_le(src.as_raw());
                    put_user_message(buf, msg);
                });
            }
            Op::Compute { dur } => {
                buf.push(op_wire::COMPUTE);
                buf.put_u64_le(dur.as_nanos());
            }
            Op::Now { value } => {
                buf.push(op_wire::NOW);
                buf.put_u64_le(value.as_nanos());
            }
            Op::Random { value } => {
                buf.push(op_wire::RANDOM);
                buf.put_u64_le(*value);
            }
            Op::ChannelSeq { value } => {
                buf.push(op_wire::CHANNEL_SEQ);
                buf.put_u32_le(*value);
            }
            Op::Barrier => buf.push(op_wire::BARRIER),
            Op::SpawnUser { pid } => {
                buf.push(op_wire::SPAWN_USER);
                buf.put_u64_le(pid.as_raw());
            }
        }
    }

    /// Deserializes one op from `buf` starting at `*at`, advancing `*at`
    /// past it. Returns `None` on any malformed input — truncated fields,
    /// unknown tags, non-boolean booleans — without panicking, so recovery
    /// can treat a failed decode as the end of the valid prefix.
    pub fn decode(buf: &[u8], at: &mut usize) -> Option<Op> {
        let start = *at;
        let op = match read_u8(buf, at)? {
            op_wire::AID_INIT => Op::AidInit {
                aid: read_aid(buf, at)?,
            },
            op_wire::AID_RETAIN => Op::AidRetain {
                aid: read_aid(buf, at)?,
            },
            op_wire::AID_RELEASE => Op::AidRelease {
                aid: read_aid(buf, at)?,
            },
            op_wire::GUESS => Op::Guess {
                aid: read_aid(buf, at)?,
                outcome: read_bool(buf, at)?,
            },
            op_wire::AFFIRM => Op::Affirm {
                aid: read_aid(buf, at)?,
            },
            op_wire::DENY => Op::Deny {
                aid: read_aid(buf, at)?,
            },
            op_wire::FREE_OF => Op::FreeOf {
                aid: read_aid(buf, at)?,
                outcome: read_bool(buf, at)?,
            },
            op_wire::SEND => Op::Send {
                dst: ProcessId::from_raw(read_u64(buf, at)?),
                channel: read_u32(buf, at)?,
            },
            op_wire::RECEIVE => Op::Receive {
                src: ProcessId::from_raw(read_u64(buf, at)?),
                msg: read_user_message(buf, at)?,
            },
            op_wire::TRY_RECEIVE => Op::TryReceive {
                result: read_opt(buf, at, |buf, at| {
                    Some((
                        ProcessId::from_raw(read_u64(buf, at)?),
                        read_user_message(buf, at)?,
                    ))
                })?,
            },
            op_wire::COMPUTE => Op::Compute {
                dur: VirtualDuration::from_nanos(read_u64(buf, at)?),
            },
            op_wire::NOW => Op::Now {
                value: VirtualTime::from_nanos(read_u64(buf, at)?),
            },
            op_wire::RANDOM => Op::Random {
                value: read_u64(buf, at)?,
            },
            op_wire::CHANNEL_SEQ => Op::ChannelSeq {
                value: read_u32(buf, at)?,
            },
            op_wire::BARRIER => Op::Barrier,
            op_wire::SPAWN_USER => Op::SpawnUser {
                pid: ProcessId::from_raw(read_u64(buf, at)?),
            },
            _ => {
                *at = start;
                return None;
            }
        };
        Some(op)
    }
}

/// A rollback of an op list: the one rule that a [`ReplayLog`] rollback
/// applies and its WAL records (DESIGN.md S2, S6).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rollback {
    /// Flip the guess at this index to `false` and drop every op after it.
    FlipGuess(usize),
    /// Drop every op from this index on.
    CutAt(usize),
}

/// The bytes one chunk of an [`OpList`] is sized to: well under glibc's
/// 128 KiB mmap threshold, so a freed chunk goes back to the heap's free
/// lists and the next one reuses it instead of mapping and faulting in
/// fresh pages.
const CHUNK_BYTES: usize = 40 * 1024;

/// A list of ops that appends in place: ops live in fixed-capacity chunks,
/// so a push never moves an op that is already in the list (a `Vec` that
/// doubles copies every op it holds about once more). Every chunk but the
/// open one is full, so op `i` is in chunk `i / CHUNK` at `i % CHUNK`.
#[derive(Default)]
pub struct OpList {
    /// Full chunks, `CHUNK` ops each, oldest first.
    sealed: Vec<Vec<Op>>,
    /// The chunk pushes go to; once allocated its capacity is `CHUNK`.
    open: Vec<Op>,
}

impl OpList {
    /// Ops per chunk: as many as fit in `CHUNK_BYTES` (512 of 80 bytes).
    pub const CHUNK: usize = CHUNK_BYTES / std::mem::size_of::<Op>();

    /// An empty list; it allocates its first chunk at the first push.
    pub fn new() -> Self {
        OpList::default()
    }

    /// Number of ops in the list.
    pub fn len(&self) -> usize {
        self.sealed.len() * Self::CHUNK + self.open.len()
    }

    /// True if the list holds no op.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends `op`.
    #[inline]
    pub fn push(&mut self, op: Op) {
        if self.open.len() == self.open.capacity() {
            self.open_chunk();
        }
        self.open.push(op);
    }

    /// Seals the full open chunk (if it holds anything) and opens a new one.
    #[cold]
    fn open_chunk(&mut self) {
        let full = std::mem::replace(&mut self.open, Vec::with_capacity(Self::CHUNK));
        debug_assert_eq!(self.open.capacity(), Self::CHUNK);
        if !full.is_empty() {
            self.sealed.push(full);
        }
    }

    /// The op at `index`, if there is one.
    pub fn get(&self, index: usize) -> Option<&Op> {
        match self.sealed.get(index / Self::CHUNK) {
            Some(chunk) => chunk.get(index % Self::CHUNK),
            None => self.open.get(index - self.sealed.len() * Self::CHUNK),
        }
    }

    /// The op at `index`, mutably, if there is one.
    pub fn get_mut(&mut self, index: usize) -> Option<&mut Op> {
        let base = self.sealed.len() * Self::CHUNK;
        match self.sealed.get_mut(index / Self::CHUNK) {
            Some(chunk) => chunk.get_mut(index % Self::CHUNK),
            None => self.open.get_mut(index - base),
        }
    }

    /// The ops, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &Op> + '_ {
        self.sealed.iter().flatten().chain(&self.open)
    }

    /// Applies `rollback`, handing the ops it removes to `removed` in list
    /// order. Returns false, with the list untouched, when the rollback
    /// does not fit: its index is past the end, or `FlipGuess` names an op
    /// that is not a guess (a recovered WAL record may be garbage).
    pub(crate) fn roll_back(
        &mut self,
        rollback: Rollback,
        removed: impl FnMut(std::vec::Drain<'_, Op>),
    ) -> bool {
        let at = match rollback {
            Rollback::FlipGuess(index) => match self.get_mut(index) {
                Some(Op::Guess { outcome, .. }) => {
                    *outcome = false;
                    index + 1
                }
                _ => return false,
            },
            Rollback::CutAt(at) if at <= self.len() => at,
            Rollback::CutAt(_) => return false,
        };
        self.cut(at, removed);
        true
    }

    /// Drops every op from index `len` on (nothing if `len` is past the end).
    pub fn truncate(&mut self, len: usize) {
        if len < self.len() {
            self.cut(len, |ops| drop(ops));
        }
    }

    /// Removes the ops from index `at` on, handing them to `removed` in
    /// list order; the chunk that held op `at` becomes the open one.
    fn cut(&mut self, at: usize, mut removed: impl FnMut(std::vec::Drain<'_, Op>)) {
        let c = at / Self::CHUNK;
        if c < self.sealed.len() {
            let mut old_open = std::mem::take(&mut self.open);
            let mut later = self.sealed.drain(c..);
            self.open = later.next().expect("chunk `c` is sealed");
            removed(self.open.drain(at % Self::CHUNK..));
            for mut chunk in later {
                removed(chunk.drain(..));
            }
            removed(old_open.drain(..));
        } else {
            let base = self.sealed.len() * Self::CHUNK;
            removed(self.open.drain(at - base..));
        }
    }
}

impl FromIterator<Op> for OpList {
    fn from_iter<I: IntoIterator<Item = Op>>(iter: I) -> Self {
        let mut list = OpList::new();
        for op in iter {
            list.push(op);
        }
        list
    }
}

impl std::fmt::Debug for OpList {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// The operation log of one user process, with a replay cursor.
///
/// Live mode (`cursor == len`): operations execute for real and are
/// appended. Replay mode (`cursor < len`): operations are validated
/// against the log and their recorded results returned.
///
/// When the environment has durable storage (DESIGN.md S6) the log owns
/// its process's [`DurableStore`] and writes every append and rollback to
/// its WAL as it makes it; a checkpoint encodes these same ops. The
/// in-memory list stays authoritative for replay. Storage faults never
/// fail a mutation: they surface at *recovery* as a shorter valid prefix.
#[derive(Debug)]
pub struct ReplayLog {
    process: ProcessId,
    ops: OpList,
    cursor: usize,
    /// The durable store, given to the log on its process's first turn.
    /// Boxed: most environments have no storage, and every process's
    /// `LibState` carries this field.
    pub(crate) store: Option<Box<DurableStore>>,
}

impl ReplayLog {
    /// An empty, live log for `process`.
    pub fn new(process: ProcessId) -> Self {
        ReplayLog {
            process,
            ops: OpList::new(),
            cursor: 0,
            store: None,
        }
    }

    /// The definite frontier advanced: makes the WAL durable up to here and
    /// lets the store checkpoint these ops (see [`DurableStore::on_frontier`]).
    pub(crate) fn on_frontier(&mut self) {
        if let Some(store) = &mut self.store {
            store.on_frontier(&self.ops);
        }
    }

    /// After a restart, replaces the ops with what the store recovers
    /// (the store's prefix is authoritative: a real process image would
    /// not have kept the in-memory list). Does nothing without a pending
    /// recovery.
    pub(crate) fn recover(&mut self) {
        if let Some(ops) = self
            .store
            .as_deref_mut()
            .and_then(DurableStore::take_recovery)
        {
            self.reset_ops(ops);
        }
    }

    /// Replaces the logged ops wholesale (post-crash recovery from a
    /// durable store) and rewinds the cursor for re-execution. Nothing is
    /// written to the store: the ops came from it.
    pub fn reset_ops(&mut self, recovered: OpList) {
        self.ops = recovered;
        self.cursor = 0;
    }

    /// True while re-executing a logged prefix.
    pub fn is_replaying(&self) -> bool {
        self.cursor < self.ops.len()
    }

    /// Number of logged operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True if nothing has been logged.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The logged operation at `index`, if there is one.
    pub fn get(&self, index: usize) -> Option<&Op> {
        self.ops.get(index)
    }

    /// Appends a live operation, returning its index.
    ///
    /// # Panics
    ///
    /// Panics (debug) if called while replaying — primitives must consult
    /// [`ReplayLog::is_replaying`] first.
    pub fn record(&mut self, op: Op) -> usize {
        debug_assert!(!self.is_replaying(), "record during replay");
        if let Some(store) = &mut self.store {
            store.append(&op);
        }
        let index = self.ops.len();
        self.ops.push(op);
        self.cursor = index + 1;
        index
    }

    /// Replays the next operation: checks that the op the closure is about
    /// to perform matches the logged one (via `matches`, which also
    /// extracts the recorded result) and advances the cursor.
    ///
    /// # Errors
    ///
    /// Returns [`HopeError::ReplayDiverged`] if the closure's behaviour
    /// does not match the log — i.e. the user closure is not deterministic
    /// relative to its context.
    pub fn replay_next<T>(
        &mut self,
        expected: &str,
        matches: impl FnOnce(&Op) -> Option<T>,
    ) -> Result<T, HopeError> {
        let idx = self.cursor;
        let op = self.ops.get(idx).ok_or_else(|| HopeError::ReplayDiverged {
            process: self.process,
            op_index: idx,
            detail: format!("log exhausted while expecting {expected}"),
        })?;
        match matches(op) {
            Some(v) => {
                self.cursor += 1;
                Ok(v)
            }
            None => Err(HopeError::ReplayDiverged {
                process: self.process,
                op_index: idx,
                detail: format!("expected {expected}, log has {}", op.label()),
            }),
        }
    }

    /// Applies `rollback` to the ops and writes it to the store, rewinds
    /// the cursor for re-execution and returns the removed ops; `None`,
    /// with nothing changed, if it does not fit the log.
    fn roll_back(&mut self, rollback: Rollback) -> Option<Vec<Op>> {
        let mut removed = Vec::new();
        if !self.ops.roll_back(rollback, |ops| removed.extend(ops)) {
            return None;
        }
        if let Some(store) = &mut self.store {
            store.rollback(rollback);
        }
        self.cursor = 0;
        Some(removed)
    }

    /// Rolls back to an interval opened by the explicit `guess` logged at
    /// `op_index`: truncates everything after it, flips the guess outcome
    /// to `false`, and rewinds the cursor to the start for re-execution.
    /// Returns the removed suffix so the caller can restore consumed
    /// messages to the mailbox (a process-image restore would restore the
    /// input queue too).
    ///
    /// # Panics
    ///
    /// Panics if `op_index` does not hold a `Guess` entry.
    pub fn rollback_to_guess(&mut self, op_index: usize) -> Vec<Op> {
        match self.roll_back(Rollback::FlipGuess(op_index)) {
            Some(removed) => removed,
            None => panic!(
                "rollback target is not a Guess op: {:?}",
                self.ops.get(op_index)
            ),
        }
    }

    /// Rolls back to an interval opened by the implicit guess of the
    /// `receive` logged at `op_index`: the tainted boundary message is
    /// discarded (the receive itself is removed) and the re-execution
    /// blocks there for a fresh message. Returns the ops removed *after*
    /// the boundary receive, whose consumed messages the caller must
    /// restore to the mailbox.
    ///
    /// # Panics
    ///
    /// Panics if `op_index` does not hold a `Receive` or `TryReceive`
    /// entry.
    pub fn rollback_to_receive(&mut self, op_index: usize) -> Vec<Op> {
        assert!(
            matches!(
                self.ops.get(op_index),
                Some(Op::Receive { .. }) | Some(Op::TryReceive { .. })
            ),
            "rollback target is not a Receive op"
        );
        let mut removed = self.rollback_before(op_index);
        removed.remove(0);
        removed
    }

    /// Rolls back to *just before* the operation at `op_index`: the op is
    /// removed too, so re-execution performs it live again (used by the
    /// `Reguess` policy to re-issue a guess, or to re-receive an untainted
    /// boundary message). Returns the removed suffix including the
    /// boundary op.
    ///
    /// # Panics
    ///
    /// Panics if `op_index` is past the end of the log.
    pub fn rollback_before(&mut self, op_index: usize) -> Vec<Op> {
        self.roll_back(Rollback::CutAt(op_index))
            .unwrap_or_else(|| panic!("rollback index {op_index} past the end"))
    }

    /// Rewinds the cursor without truncating (used when a rollback signal
    /// arrives before any interval-opening op was found — defensive).
    pub fn rewind(&mut self) {
        self.cursor = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hope_types::DepTag;

    fn pid(n: u64) -> ProcessId {
        ProcessId::from_raw(n)
    }

    fn aid(n: u64) -> AidId {
        AidId::from_raw(pid(n))
    }

    #[test]
    fn live_log_records_and_reports_indices() {
        let mut log = ReplayLog::new(pid(1));
        assert!(!log.is_replaying());
        assert!(log.is_empty());
        let i0 = log.record(Op::AidInit { aid: aid(5) });
        let i1 = log.record(Op::Guess {
            aid: aid(5),
            outcome: true,
        });
        assert_eq!((i0, i1), (0, 1));
        assert_eq!(log.len(), 2);
        assert!(!log.is_replaying());
    }

    #[test]
    fn rollback_to_guess_flips_outcome_and_rewinds() {
        let mut log = ReplayLog::new(pid(1));
        log.record(Op::AidInit { aid: aid(5) });
        let g = log.record(Op::Guess {
            aid: aid(5),
            outcome: true,
        });
        log.record(Op::Send {
            dst: pid(2),
            channel: 0,
        });
        log.rollback_to_guess(g);
        assert_eq!(log.len(), 2, "ops after the guess are discarded");
        assert!(log.is_replaying());
        // Replay: the AidInit, then the flipped guess.
        let a = log
            .replay_next("AidInit", |op| match op {
                Op::AidInit { aid } => Some(*aid),
                _ => None,
            })
            .unwrap();
        assert_eq!(a, aid(5));
        let outcome = log
            .replay_next("Guess", |op| match op {
                Op::Guess { outcome, .. } => Some(*outcome),
                _ => None,
            })
            .unwrap();
        assert!(!outcome, "rolled-back guess replays as false");
        assert!(!log.is_replaying(), "live again after the prefix");
    }

    #[test]
    fn rollback_to_receive_discards_the_message() {
        let mut log = ReplayLog::new(pid(1));
        log.record(Op::Now {
            value: VirtualTime::ZERO,
        });
        let r = log.record(Op::Receive {
            src: pid(2),
            msg: UserMessage::new(0, bytes::Bytes::new()),
        });
        log.record(Op::Compute {
            dur: VirtualDuration::from_millis(1),
        });
        log.rollback_to_receive(r);
        assert_eq!(log.len(), 1, "receive and everything after discarded");
        assert!(log.is_replaying());
    }

    #[test]
    fn divergence_on_wrong_op_kind() {
        let mut log = ReplayLog::new(pid(3));
        log.record(Op::Send {
            dst: pid(2),
            channel: 1,
        });
        log.rewind();
        let err = log
            .replay_next("Receive", |op| match op {
                Op::Receive { .. } => Some(()),
                _ => None,
            })
            .unwrap_err();
        match err {
            HopeError::ReplayDiverged {
                process, op_index, ..
            } => {
                assert_eq!(process, pid(3));
                assert_eq!(op_index, 0);
            }
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn divergence_on_exhausted_log() {
        let mut log = ReplayLog::new(pid(3));
        log.rewind();
        // cursor == len == 0, so replay_next is only called in live mode in
        // practice; simulate a direct misuse.
        let err = log.replay_next("Now", |_| Some(())).unwrap_err();
        assert!(matches!(err, HopeError::ReplayDiverged { .. }));
    }

    #[test]
    #[should_panic(expected = "not a Guess")]
    fn rollback_to_guess_validates_target() {
        let mut log = ReplayLog::new(pid(1));
        log.record(Op::Send {
            dst: pid(2),
            channel: 0,
        });
        log.rollback_to_guess(0);
    }

    fn all_ops() -> Vec<Op> {
        let tag: DepTag = [aid(3), aid(9)].into_iter().collect();
        vec![
            Op::AidInit { aid: aid(1) },
            Op::AidRetain { aid: aid(2) },
            Op::AidRelease { aid: aid(2) },
            Op::Guess {
                aid: aid(1),
                outcome: true,
            },
            Op::Guess {
                aid: aid(1),
                outcome: false,
            },
            Op::Affirm { aid: aid(1) },
            Op::Deny { aid: aid(4) },
            Op::FreeOf {
                aid: aid(4),
                outcome: false,
            },
            Op::Send {
                dst: pid(7),
                channel: 42,
            },
            Op::Receive {
                src: pid(8),
                msg: UserMessage::tagged(5, bytes::Bytes::from_static(b"payload"), tag),
            },
            Op::TryReceive { result: None },
            Op::TryReceive {
                result: Some((pid(9), UserMessage::new(0, bytes::Bytes::new()))),
            },
            Op::Compute {
                dur: VirtualDuration::from_millis(3),
            },
            Op::Now {
                value: VirtualTime::from_nanos(123_456),
            },
            Op::Random { value: u64::MAX },
            Op::Barrier,
            Op::SpawnUser { pid: pid(11) },
        ]
    }

    #[test]
    fn op_codec_round_trips_every_variant() {
        for op in all_ops() {
            let wire = op.encode();
            let mut at = 0;
            let back = Op::decode(&wire, &mut at).expect("decode");
            assert_eq!(back, op);
            assert_eq!(at, wire.len(), "decode consumed the whole encoding");
        }
    }

    #[test]
    fn op_codec_round_trips_a_concatenated_stream() {
        let ops = all_ops();
        let mut wire = Vec::new();
        for op in &ops {
            wire.extend_from_slice(&op.encode());
        }
        let mut at = 0;
        let mut back = Vec::new();
        while at < wire.len() {
            back.push(Op::decode(&wire, &mut at).expect("decode"));
        }
        assert_eq!(back, ops);
    }

    #[test]
    fn op_decode_rejects_truncations_without_panicking() {
        for op in all_ops() {
            let wire = op.encode();
            for cut in 0..wire.len() {
                let mut at = 0;
                // Either a clean None, or (for container ops whose prefix
                // happens to parse) a decode that stops within bounds.
                if let Some(_parsed) = Op::decode(&wire[..cut], &mut at) {
                    assert!(at <= cut);
                }
            }
        }
    }

    #[test]
    fn op_decode_rejects_unknown_tags() {
        let mut at = 0;
        assert!(Op::decode(&[0u8, 1, 2, 3], &mut at).is_none());
        assert_eq!(at, 0, "cursor untouched on failure");
        let mut at = 0;
        assert!(Op::decode(&[200u8], &mut at).is_none());
    }

    fn logged_to_a_store() -> ReplayLog {
        let mut log = ReplayLog::new(pid(1));
        let store = DurableStore::new(pid(1), crate::DurableConfig::default(), None, 1);
        log.store = Some(Box::new(store));
        log
    }

    fn wal_events(log: &ReplayLog) -> u64 {
        log.store.as_ref().expect("a store").stats().events
    }

    #[test]
    fn the_store_receives_every_append_and_rollback() {
        let mut log = logged_to_a_store();
        log.record(Op::AidInit { aid: aid(5) });
        let g = log.record(Op::Guess {
            aid: aid(5),
            outcome: true,
        });
        log.record(Op::Barrier);
        log.rollback_to_guess(g);
        assert_eq!(wal_events(&log), 4, "three appends and a rollback");
        let store = log.store.as_mut().expect("a store");
        store.note_crash(0);
        store.mark_restarted();
        log.recover();
        assert_eq!(log.len(), 2, "the WAL folds to what the log held");
        assert_eq!(
            log.get(1),
            Some(&Op::Guess {
                aid: aid(5),
                outcome: false,
            })
        );
        assert!(log.is_replaying(), "cursor rewound for re-execution");
    }

    #[test]
    fn reset_ops_writes_nothing_to_the_store() {
        let mut log = logged_to_a_store();
        log.reset_ops([Op::Barrier, Op::Random { value: 7 }].into_iter().collect());
        assert_eq!(wal_events(&log), 0, "recovery does not re-emit");
        assert_eq!(log.len(), 2);
        assert!(log.is_replaying(), "cursor rewound for re-execution");
    }

    #[test]
    fn op_labels_cover_all_variants() {
        let ops = [
            Op::AidInit { aid: aid(1) },
            Op::Guess {
                aid: aid(1),
                outcome: true,
            },
            Op::Affirm { aid: aid(1) },
            Op::Deny { aid: aid(1) },
            Op::FreeOf {
                aid: aid(1),
                outcome: true,
            },
            Op::Send {
                dst: pid(1),
                channel: 0,
            },
            Op::Receive {
                src: pid(1),
                msg: UserMessage::new(0, bytes::Bytes::new()),
            },
            Op::TryReceive { result: None },
            Op::Compute {
                dur: VirtualDuration::ZERO,
            },
            Op::Now {
                value: VirtualTime::ZERO,
            },
            Op::Random { value: 0 },
            Op::SpawnUser { pid: pid(1) },
        ];
        let labels: std::collections::BTreeSet<_> = ops.iter().map(|o| o.label()).collect();
        assert_eq!(labels.len(), ops.len(), "labels are distinct");
    }
}
