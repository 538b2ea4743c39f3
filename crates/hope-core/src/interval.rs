//! Intervals and per-process execution histories (paper, §5 and Fig. 9).
//!
//! An **interval** is the stretch of a user process's execution between two
//! `guess` points: the smallest granularity of rollback. Each interval
//! carries the dependency sets of Figures 10/15:
//!
//! * `IDO` — *I Depend On*: the assumptions this interval is contingent on,
//! * `UDO` — *Used to Depend On*: assumptions replaced away; Algorithm 2
//!   compares incoming replacements against it to break dependency cycles,
//! * `IHA` — *I Have Affirmed*: AIDs speculatively affirmed within the
//!   interval (finalize sends them unconditional affirms),
//! * `IHD` — *I Have Denied*: AIDs whose denies are buffered until the
//!   interval is definite (optional policy; see [`DenyPolicy`]).
//!
//! A new interval inherits its predecessor's cumulative `IDO` plus the
//! newly guessed assumption. The paper's §6 formulation re-registers with
//! every inherited AID — the source of the quadratic cost §6 promises to
//! analyze. This implementation substitutes *delta registration* (DESIGN.md
//! §6): the inherited prefix is shared copy-on-write ([`IdSet`] keeps large
//! sets behind an `Arc`), and a `Guess` is sent only for assumptions the
//! process is not already registered for — the earliest live interval
//! holding an AID is its registrant, which preserves every rollback floor
//! because rolling back the registrant also discards all later intervals.
//!
//! A receive opens an interval only when its tag brings an assumption in.
//! When the current interval is speculative, has replaced nothing away
//! (empty `UDO`) and already depends on every member of the tag
//! ([`History::covers`]), the interval the receive would open could never
//! be told apart from its predecessor: the same `IDO` and `UDO` at every
//! later step, registered with nothing, so never a rollback target, and
//! finalized in the same batch. None is opened (DESIGN.md S9), and a stream
//! of messages sent under one set of assumptions costs one interval, not
//! one per message.
//!
//! # Cost: what is live, not what came before
//!
//! Finalization is oldest-first and a commit point (§5, Fig. 11), so the
//! definite intervals of a history are a *prefix* that no protocol step
//! consults again. [`History`] keeps that prefix — [`History::intervals`]
//! still returns every record, because `Env::history_of`, `state_hash` and
//! the `hope-check` oracles read definite records; dropping them belongs
//! to ROADMAP 3(f)'s bounds audit — but no query walks it:
//!
//! * one cursor, `live_from`, is a *lower bound* of the live window:
//!   every record before it is definite. [`History::finalize_ready`]
//!   advances it, [`History::truncate_from`] clamps it. Records at or
//!   after it may still be definite (callers holding
//!   [`History::get_mut`] can flip the flag by hand), so every
//!   live-window scan keeps its own `!definite` test. Flipping a record
//!   *before* the cursor back to speculative is not supported — nothing
//!   un-commits a finalized interval.
//! * **O(log n)** in all records ever kept: lookups by id —
//!   [`History::get`], [`History::get_mut`], `position_of` and with them
//!   `truncate_from` — binary-search the monotone, never-reused
//!   [`IntervalId::index`], for live, definite and stale ids alike.
//! * **O(live window)**: `held_before` (newest-first, so a member the
//!   predecessor already holds answers in one step),
//!   [`History::fully_definite`], [`History::finalize_ready`], and any
//!   outside scan, which reads [`History::live`].
//! * **O(1)**: [`History::current`], [`History::current_deps`],
//!   [`History::open_interval`], [`History::acquire`]; [`History::covers`]
//!   reads the current record only; `held_before` on an AID above every
//!   AID an IDO of this history ever held visits nothing. AIDs are pids,
//!   handed out in ascending order, so a guess on a fresh `aid_init`
//!   takes that path.
//!
//! [`History::visits`] counts the records those queries examine — a
//! deterministic probe of local bookkeeping work (experiment E5b), which
//! message counts alone cannot see.
//!
//! [`DenyPolicy`]: crate::config::DenyPolicy
//! [`IdSet`]: hope_types::IdSet

use std::cell::Cell;
use std::fmt;

use hope_types::{AidId, IdoSet, IntervalId, ProcessId};

/// How an interval came to exist, which determines what rollback does at
/// its boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IntervalOrigin {
    /// The initial interval of a process; never rolled back.
    Root,
    /// Opened by an explicit `guess` — the operation-log index of the
    /// `Guess` entry. Rollback re-runs the guess with outcome `false`.
    ExplicitGuess {
        /// Index of the `Guess` entry in the process's operation log.
        op: usize,
    },
    /// Opened implicitly by receiving a tagged message — the log index of
    /// the `Receive` entry. Rollback discards the message and blocks for a
    /// fresh one.
    ImplicitReceive {
        /// Index of the `Receive` entry in the process's operation log.
        op: usize,
    },
}

/// Why [`History::truncate_from`] refused to truncate. Distinguishing the
/// two lets callers treat an unknown id as a stale protocol message while
/// surfacing a rollback aimed at the root interval — which a correct
/// protocol never produces — as the bug it would be.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TruncateError {
    /// The id names the root interval, which is definite by construction
    /// and can never roll back.
    RootInterval,
    /// The id does not name a live interval (already truncated, or never
    /// existed): the request is stale and safely ignorable.
    UnknownInterval,
}

impl fmt::Display for TruncateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TruncateError::RootInterval => write!(f, "cannot roll back the root interval"),
            TruncateError::UnknownInterval => write!(f, "interval is not live (stale rollback)"),
        }
    }
}

impl std::error::Error for TruncateError {}

/// One interval of a process history, with its dependency sets.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct IntervalRecord {
    /// Identity (process + monotone index; indices are never reused, so
    /// stale protocol messages for discarded intervals are harmless).
    pub id: IntervalId,
    /// How this interval started.
    pub origin: IntervalOrigin,
    /// The assumptions this interval *newly* guessed at its opening (the
    /// explicit guess, or the message tag of an implicit one) — as opposed
    /// to inherited or replacement-acquired dependencies. Used to decide
    /// whether a rollback's cause was this interval's own assumption.
    pub trigger: IdoSet,
    /// I Depend On.
    pub ido: IdoSet,
    /// Used to Depend On (Algorithm 2 cycle detection).
    pub udo: IdoSet,
    /// I Have Affirmed (speculative affirms awaiting finalize).
    pub iha: IdoSet,
    /// I Have Denied (buffered denies awaiting finalize).
    pub ihd: IdoSet,
    /// True once finalized: the interval can no longer roll back.
    pub definite: bool,
}

impl IntervalRecord {
    fn root(process: ProcessId) -> Self {
        IntervalRecord {
            id: IntervalId::new(process, 0),
            origin: IntervalOrigin::Root,
            trigger: IdoSet::new(),
            ido: IdoSet::new(),
            udo: IdoSet::new(),
            iha: IdoSet::new(),
            ihd: IdoSet::new(),
            definite: true,
        }
    }
}

/// The execution history of one user process: an ordered list of intervals,
/// of which a (possibly empty) suffix is speculative.
#[derive(Debug, Clone)]
pub struct History {
    process: ProcessId,
    intervals: Vec<IntervalRecord>,
    next_index: u32,
    /// Lower bound of the live window: every record before this position
    /// is definite (module docs).
    live_from: usize,
    /// Records examined by queries so far; a `Cell` only because queries
    /// take `&self`. The history belongs to one HOPElib, whose owner runs
    /// on one thread (`LibState`), so nothing else reads or writes it.
    visits: Cell<u64>,
    /// The largest AID ever put into any IDO of this history (`None`
    /// before the first). It only grows: an IDO grows only through
    /// [`open_interval`](History::open_interval) and
    /// [`acquire`](History::acquire), and a truncation or a finalize
    /// leaves it as it is, which keeps it an upper bound.
    max_held: Option<AidId>,
}

impl History {
    /// A fresh history containing only the definite root interval.
    pub fn new(process: ProcessId) -> Self {
        History {
            process,
            intervals: vec![IntervalRecord::root(process)],
            next_index: 1,
            live_from: 1,
            visits: Cell::new(0),
            max_held: None,
        }
    }

    /// The owning process.
    pub fn process(&self) -> ProcessId {
        self.process
    }

    /// Every interval not rolled back, oldest first — the definite prefix
    /// included.
    pub fn intervals(&self) -> &[IntervalRecord] {
        &self.intervals
    }

    /// The live window: the suffix of [`intervals`](History::intervals)
    /// that can still hold speculative records, oldest first. Everything
    /// before it is definite; records inside it may be too, so scans keep
    /// their `!definite` test.
    pub fn live(&self) -> &[IntervalRecord] {
        &self.intervals[self.live_from..]
    }

    /// Records examined by this history's queries since it was created:
    /// binary-search probes of the id lookups plus the live-window records
    /// walked by `held_before`, [`fully_definite`](History::fully_definite)
    /// and [`finalize_ready`](History::finalize_ready). A `held_before`
    /// on an AID no IDO of this history has held adds nothing.
    pub fn visits(&self) -> u64 {
        self.visits.get()
    }

    fn visit(&self, records: usize) {
        self.visits.set(self.visits.get() + records as u64);
    }

    /// Mutable access to the live intervals (protocol handlers apply a
    /// `Replace` to the target *and* every later interval holding the
    /// replaced AID). An IDO may shrink through it, never grow: use
    /// [`acquire`](History::acquire).
    pub(crate) fn intervals_mut(&mut self) -> &mut [IntervalRecord] {
        &mut self.intervals
    }

    /// Position of an interval in the history, oldest first, by binary
    /// search on the monotone interval index.
    pub fn position_of(&self, id: IntervalId) -> Option<usize> {
        let mut probes = 0;
        let found = self.intervals.binary_search_by(|r| {
            probes += 1;
            r.id.index().cmp(&id.index())
        });
        self.visit(probes);
        found.ok().filter(|&pos| self.intervals[pos].id == id)
    }

    /// True when a live interval strictly older than position `pos` holds
    /// `y` in its IDO — i.e. this process is already registered with `y`
    /// at a rollback floor at or below `pos`, so acquiring `y` at `pos`
    /// needs no new `Guess` (delta registration, DESIGN.md S7).
    ///
    /// O(1) for an AID above every AID an IDO of this history ever held:
    /// no record can hold it, so none is visited.
    pub fn held_before(&self, pos: usize, y: &AidId) -> bool {
        if Some(*y) > self.max_held {
            debug_assert!(
                !self.scan_before(pos, y).0,
                "{y} is held above the recorded maximum: an IDO grew outside open_interval/acquire"
            );
            return false;
        }
        let (hit, examined) = self.scan_before(pos, y);
        self.visit(examined);
        hit
    }

    /// Whether a live record before `pos` holds `y`, and how many records
    /// the scan examined. Newest first: inheritance makes the predecessor
    /// the likeliest holder, and which holder answers does not matter.
    fn scan_before(&self, pos: usize, y: &AidId) -> (bool, usize) {
        let window = &self.intervals[self.live_from.min(pos)..pos];
        let hit = window
            .iter()
            .rev()
            .position(|r| !r.definite && r.ido.contains(y));
        (hit.is_some(), hit.map_or(window.len(), |steps| steps + 1))
    }

    /// Adds `y` to the IDO of the record at position `pos`: a `Replace`
    /// substituting an assumption in. Besides
    /// [`open_interval`](History::open_interval) this is the one way an
    /// IDO grows, so `held_before` can tell a never-held AID at once.
    pub fn acquire(&mut self, pos: usize, y: AidId) {
        self.max_held = self.max_held.max(Some(y));
        self.intervals[pos].ido.insert(y);
    }

    /// The youngest (current) interval.
    pub fn current(&self) -> &IntervalRecord {
        self.intervals.last().expect("history never empty")
    }

    /// Mutable access to the youngest interval. Its IDO may shrink through
    /// it, never grow (see [`acquire`](History::acquire)).
    pub fn current_mut(&mut self) -> &mut IntervalRecord {
        self.intervals.last_mut().expect("history never empty")
    }

    /// Looks up an interval by id (`None` once rolled back).
    pub fn get(&self, id: IntervalId) -> Option<&IntervalRecord> {
        self.position_of(id).map(|pos| &self.intervals[pos])
    }

    /// Mutable lookup by id. The record's IDO may shrink through it, never
    /// grow (see [`acquire`](History::acquire)); debug builds check that
    /// at every `held_before`.
    pub fn get_mut(&mut self, id: IntervalId) -> Option<&mut IntervalRecord> {
        self.position_of(id).map(|pos| &mut self.intervals[pos])
    }

    /// True if every interval is definite.
    pub fn fully_definite(&self) -> bool {
        let live = self.live();
        let speculative = live.iter().position(|r| !r.definite);
        self.visit(speculative.map_or(live.len(), |steps| steps + 1));
        speculative.is_none()
    }

    /// The cumulative dependency set of the process right now (the tag to
    /// attach to outgoing messages).
    pub fn current_deps(&self) -> &IdoSet {
        &self.current().ido
    }

    /// True when a receive tagged `tag` needs no interval of its own: the
    /// current interval is speculative, has replaced nothing away (empty
    /// `UDO`) and already depends on every member of `tag`. The interval
    /// such a receive would open has the current one's `IDO` and `UDO`,
    /// registers with nothing, and keeps both sets equal to its
    /// predecessor's under every later `Replace` while each AID is
    /// resolved once — so it is never a registrant, never a rollback
    /// target and finalizes in the same batch (DESIGN.md S9).
    pub fn covers(&self, tag: &IdoSet) -> bool {
        let cur = self.current();
        !cur.definite && cur.udo.is_empty() && tag.is_subset(&cur.ido)
    }

    /// Opens a new interval that inherits the current cumulative `IDO`
    /// plus `extra` assumptions. Returns its id; the caller is responsible
    /// for sending `Guess` registrations for every member of the new IDO.
    pub fn open_interval(
        &mut self,
        origin: IntervalOrigin,
        extra: impl IntoIterator<Item = AidId>,
    ) -> IntervalId {
        let id = IntervalId::new(self.process, self.next_index);
        self.next_index += 1;
        let trigger: IdoSet = extra.into_iter().collect();
        self.max_held = self.max_held.max(trigger.as_slice().last().copied());
        // One merge, or none: large cumulative sets are Arc-shared until a
        // mutation, so a trigger that adds nothing keeps the sharing.
        let inherited = &self.current().ido;
        let ido = if trigger.is_subset(inherited) {
            inherited.clone()
        } else {
            inherited.union(&trigger)
        };
        self.intervals.push(IntervalRecord {
            id,
            origin,
            trigger,
            ido,
            udo: IdoSet::new(),
            iha: IdoSet::new(),
            ihd: IdoSet::new(),
            definite: false,
        });
        id
    }

    /// Discards interval `id` and every later interval, returning the
    /// discarded records (newest last). Refuses with a typed
    /// [`TruncateError`] distinguishing a stale id
    /// ([`UnknownInterval`](TruncateError::UnknownInterval)) from an
    /// attempt to roll back the definite root interval
    /// ([`RootInterval`](TruncateError::RootInterval)) — the latter can
    /// only come from a protocol bug and must not masquerade as a stale
    /// message.
    ///
    /// Interval indices are *not* reused afterwards, so protocol messages
    /// addressed to discarded intervals are recognizably stale.
    pub fn truncate_from(&mut self, id: IntervalId) -> Result<Vec<IntervalRecord>, TruncateError> {
        let pos = self.position_of(id).ok_or(TruncateError::UnknownInterval)?;
        if pos == 0 {
            return Err(TruncateError::RootInterval);
        }
        self.live_from = self.live_from.min(pos);
        Ok(self.intervals.split_off(pos))
    }

    /// Marks every finalizable interval definite, oldest-first: an interval
    /// finalizes when its `IDO` is empty, its predecessor is definite, and
    /// no pending rollback dooms it. Returns the finalized records' ids
    /// along with their drained `IHA`/`IHD` sets (for the finalize
    /// messages of Figure 11).
    pub fn finalize_ready(
        &mut self,
        rollback_floor: Option<u32>,
    ) -> Vec<(IntervalId, IdoSet, IdoSet)> {
        let mut out = Vec::new();
        // Everything before the cursor is definite, so the walk starts
        // there and the cursor moves to wherever it stops: the first
        // record left speculative, or the end.
        let live = &mut self.intervals[self.live_from..];
        let mut walked = live.len();
        for (offset, rec) in live.iter_mut().enumerate() {
            if rec.definite {
                continue;
            }
            let doomed = rollback_floor.is_some_and(|f| rec.id.index() >= f);
            if doomed || !rec.ido.is_empty() {
                walked = offset;
                break;
            }
            rec.definite = true;
            let iha = std::mem::take(&mut rec.iha);
            let ihd = std::mem::take(&mut rec.ihd);
            out.push((rec.id, iha, ihd));
        }
        let examined = (walked + 1).min(live.len());
        self.visit(examined);
        self.live_from += walked;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pid(n: u64) -> ProcessId {
        ProcessId::from_raw(n)
    }

    fn aid(n: u64) -> AidId {
        AidId::from_raw(pid(100 + n))
    }

    #[test]
    fn new_history_has_definite_root() {
        let h = History::new(pid(1));
        assert_eq!(h.intervals().len(), 1);
        assert!(h.current().definite);
        assert!(h.current().ido.is_empty());
        assert!(h.fully_definite());
        assert_eq!(h.current().id.index(), 0);
    }

    #[test]
    fn open_interval_inherits_deps() {
        let mut h = History::new(pid(1));
        let a = h.open_interval(IntervalOrigin::ExplicitGuess { op: 0 }, [aid(1)]);
        assert_eq!(a.index(), 1);
        assert_eq!(h.current().ido.as_slice(), &[aid(1)]);
        let b = h.open_interval(IntervalOrigin::ExplicitGuess { op: 5 }, [aid(2)]);
        assert_eq!(b.index(), 2);
        assert_eq!(h.current().ido.len(), 2, "inherits aid(1) plus aid(2)");
        assert!(!h.fully_definite());
    }

    #[test]
    fn truncate_discards_suffix_and_never_reuses_indices() {
        let mut h = History::new(pid(1));
        let a = h.open_interval(IntervalOrigin::ExplicitGuess { op: 0 }, [aid(1)]);
        let _b = h.open_interval(IntervalOrigin::ExplicitGuess { op: 1 }, [aid(2)]);
        let dropped = h.truncate_from(a).unwrap();
        assert_eq!(dropped.len(), 2);
        assert_eq!(h.intervals().len(), 1);
        let c = h.open_interval(IntervalOrigin::ExplicitGuess { op: 2 }, [aid(3)]);
        assert_eq!(c.index(), 3, "indices keep increasing after truncation");
        assert!(h.get(a).is_none(), "stale ids do not resolve");
    }

    #[test]
    fn truncate_refuses_root_with_typed_error() {
        let mut h = History::new(pid(1));
        let root = h.current().id;
        assert_eq!(h.truncate_from(root), Err(TruncateError::RootInterval));
    }

    #[test]
    fn truncate_unknown_id_is_distinguishable_from_root_refusal() {
        let mut h = History::new(pid(1));
        assert_eq!(
            h.truncate_from(IntervalId::new(pid(1), 42)),
            Err(TruncateError::UnknownInterval)
        );
    }

    #[test]
    fn open_interval_shares_inherited_ido_storage() {
        let mut h = History::new(pid(1));
        // A cumulative set large enough to live in shared storage.
        let a = h.open_interval(IntervalOrigin::ExplicitGuess { op: 0 }, (0..16).map(aid));
        let b = h.open_interval(IntervalOrigin::ExplicitGuess { op: 1 }, []);
        let (ra, rb) = (h.get(a).unwrap(), h.get(b).unwrap());
        assert!(
            ra.ido.shares_storage(&rb.ido),
            "inheritance must be copy-on-write, not a deep clone"
        );
        // A trigger the inherited set already holds adds nothing.
        let c = h.open_interval(IntervalOrigin::ExplicitGuess { op: 2 }, [aid(3), aid(7)]);
        assert!(h.get(c).unwrap().ido.shares_storage(&h.get(a).unwrap().ido));
        let d = h.open_interval(IntervalOrigin::ExplicitGuess { op: 3 }, [aid(99)]);
        assert_eq!(h.get(d).unwrap().ido.len(), 17, "a new member is merged in");
    }

    #[test]
    fn held_before_sees_only_older_live_intervals() {
        let mut h = History::new(pid(1));
        let a = h.open_interval(IntervalOrigin::ExplicitGuess { op: 0 }, [aid(1)]);
        h.open_interval(IntervalOrigin::ExplicitGuess { op: 1 }, [aid(2)]);
        assert!(h.held_before(2, &aid(1)), "inherited from interval a");
        assert!(!h.held_before(1, &aid(2)), "aid(2) only appears later");
        assert!(!h.held_before(0, &aid(1)), "nothing precedes the root");
        // A definite interval's registration is spent: it no longer counts.
        h.get_mut(a).unwrap().ido.clear();
        h.get_mut(a).unwrap().definite = true;
        assert!(!h.held_before(2, &aid(1)));
    }

    /// AIDs are pids, handed out in ascending order: a guess on a fresh
    /// one asks about an AID above everything the history ever held, and
    /// no record can hold it.
    #[test]
    fn held_before_on_a_never_held_aid_visits_nothing() {
        let mut h = History::new(pid(1));
        for n in 1..=8 {
            h.open_interval(IntervalOrigin::ExplicitGuess { op: n }, [aid(n as u64)]);
        }
        let end = h.intervals().len();
        let before = h.visits();
        assert!(!h.held_before(end, &aid(9)), "never held");
        assert_eq!(h.visits(), before, "a never-held AID visits no record");
        // A held AID still scans, newest first.
        assert!(h.held_before(end, &aid(1)));
        assert_eq!(h.visits(), before + 1, "the predecessor holds it");
        assert!(!h.held_before(1, &aid(8)), "aid(8) is held only later");
        // `acquire` raises the bound: aid(9) is now held, and found.
        h.acquire(3, aid(9));
        assert!(h.held_before(end, &aid(9)));
        assert!(!h.held_before(end, &aid(10)));
    }

    #[test]
    fn finalize_ready_in_order_only() {
        let mut h = History::new(pid(1));
        let a = h.open_interval(IntervalOrigin::ExplicitGuess { op: 0 }, [aid(1)]);
        let b = h.open_interval(IntervalOrigin::ExplicitGuess { op: 1 }, [aid(2)]);
        // Empty b's IDO but not a's: nothing may finalize (predecessor rule).
        h.get_mut(b).unwrap().ido.clear();
        assert!(h.finalize_ready(None).is_empty());
        // Now empty a's too: both finalize, oldest first.
        h.get_mut(a).unwrap().ido.clear();
        let done = h.finalize_ready(None);
        assert_eq!(done.len(), 2);
        assert_eq!(done[0].0, a);
        assert_eq!(done[1].0, b);
        assert!(h.fully_definite());
    }

    #[test]
    fn finalize_respects_rollback_floor() {
        let mut h = History::new(pid(1));
        let a = h.open_interval(IntervalOrigin::ExplicitGuess { op: 0 }, [aid(1)]);
        h.get_mut(a).unwrap().ido.clear();
        // A pending rollback at or below a's index dooms it.
        assert!(h.finalize_ready(Some(a.index())).is_empty());
        assert_eq!(h.finalize_ready(None).len(), 1);
    }

    #[test]
    fn finalize_drains_iha_ihd() {
        let mut h = History::new(pid(1));
        let a = h.open_interval(IntervalOrigin::ExplicitGuess { op: 0 }, [aid(1)]);
        {
            let rec = h.get_mut(a).unwrap();
            rec.ido.clear();
            rec.iha.insert(aid(5));
            rec.ihd.insert(aid(6));
        }
        let done = h.finalize_ready(None);
        assert_eq!(done.len(), 1);
        let (_, iha, ihd) = &done[0];
        assert!(iha.contains(&aid(5)));
        assert!(ihd.contains(&aid(6)));
        assert!(h.get(a).unwrap().iha.is_empty(), "sets drained");
    }

    #[test]
    fn covers_needs_a_speculative_current_interval_holding_the_whole_tag() {
        let mut h = History::new(pid(1));
        let tag = |ns: &[u64]| ns.iter().map(|&n| aid(n)).collect::<IdoSet>();
        assert!(!h.covers(&tag(&[])), "the root is definite");
        h.open_interval(IntervalOrigin::ImplicitReceive { op: 0 }, [aid(1), aid(2)]);
        assert!(h.covers(&tag(&[1])));
        assert!(h.covers(&tag(&[1, 2])));
        assert!(!h.covers(&tag(&[1, 3])), "aid(3) is new");
        h.current_mut().udo.insert(aid(4));
        assert!(!h.covers(&tag(&[1])), "something was replaced away");
    }

    #[test]
    fn current_deps_is_cumulative_tag() {
        let mut h = History::new(pid(1));
        assert!(h.current_deps().is_empty());
        h.open_interval(IntervalOrigin::ImplicitReceive { op: 0 }, [aid(1), aid(2)]);
        assert_eq!(h.current_deps().len(), 2);
    }
}
