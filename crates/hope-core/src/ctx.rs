//! The user-facing HOPE programming interface.
//!
//! A HOPE user process is a closure over a [`ProcessCtx`], which provides
//! the paper's data type and four primitives —
//!
//! * [`ProcessCtx::aid_init`] — create an assumption identifier,
//! * [`ProcessCtx::guess`] — make an optimistic assumption (eagerly
//!   returns `true`; returns `false` after a rollback),
//! * [`ProcessCtx::affirm`] / [`ProcessCtx::deny`] — resolve an assumption,
//! * [`ProcessCtx::free_of`] — assert independence from an assumption —
//!
//! plus tagged messaging ([`ProcessCtx::send`] / [`ProcessCtx::receive`]),
//! virtual compute time, deterministic randomness and process spawning.
//!
//! Every operation is **wait-free**: nothing here ever waits for a reply
//! from another process. All remote effects are fire-and-forget messages.
//!
//! # Determinism contract
//!
//! Rollback re-executes the closure from the top, replaying logged
//! interactions (see [`crate::replay`]). The closure must therefore be
//! deterministic *relative to the context*: all communication, time,
//! randomness and spawning must go through `ProcessCtx`. Capturing
//! mutable external state is safe only if the closure never reads what it
//! wrote on a previous (rolled-back) execution.
//!
//! Every logged primitive opens with one private replay gate: while
//! replaying it counts one `replayed_ops` and hands back the logged result,
//! it panics with `ReplayDiverged` when the log holds another op (or none),
//! and it never calls `check_rollback` — a primitive that must, does so.

use std::cell::RefCell;
use std::sync::Arc;

use bytes::Bytes;

use hope_types::{
    AidId, IdoSet, IntervalId, ProcessId, TraceEventKind, UserMessage, VirtualDuration, VirtualTime,
};

use hope_runtime::SysApi;

use crate::aid::AidActor;
use crate::config::DenyPolicy;
use crate::env::Shared;
use crate::hopelib::LibState;
use crate::interval::IntervalOrigin;
use crate::replay::Op;

/// Panic payload used to unwind the user closure when one of its intervals
/// must roll back. Caught by the process wrapper, never observable by user
/// code.
pub(crate) struct RollbackSignal;

/// Panic payload used to unwind the user closure when the runtime shuts
/// down mid-receive. Caught by the process wrapper.
pub(crate) struct ShutdownSignal;

/// How a [`park_until`] wait ended: what it waited for holds, a rollback
/// is pending, or the runtime is shutting down.
pub(crate) enum Parked {
    Ready,
    Rollback,
    Shutdown,
}

impl Parked {
    /// Unwinds into the rollback or shutdown path unless the wait is over.
    fn or_unwind(self) {
        match self {
            Parked::Ready => {}
            Parked::Rollback => std::panic::panic_any(RollbackSignal),
            Parked::Shutdown => std::panic::panic_any(ShutdownSignal),
        }
    }
}

/// Parks the process until `ready` holds of its HOPElib or a rollback is
/// pending, polled on every `Control` wake, or the runtime shuts down. It
/// consumes no message: a re-execution may need them. The one wait outside
/// `receive`, for `await_definite`, the speculation-control gates and a
/// finished process lingering until it is definite.
pub(crate) fn park_until(
    sys: &mut dyn SysApi,
    lib: &RefCell<LibState>,
    ready: impl Fn(&LibState) -> bool,
) -> Parked {
    loop {
        {
            let state = lib.borrow();
            if state.pending_rollback.is_some() {
                return Parked::Rollback;
            }
            if ready(&state) {
                return Parked::Ready;
            }
        }
        let mut interrupt = || {
            let state = lib.borrow();
            state.pending_rollback.is_some() || ready(&state)
        };
        if !sys.park(&mut interrupt) {
            return Parked::Shutdown;
        }
    }
}

/// A message delivered to user code: sender plus payload bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delivery {
    /// The sending process.
    pub src: ProcessId,
    /// The channel the message was sent on.
    pub channel: u32,
    /// The payload.
    pub data: Bytes,
}

impl Delivery {
    fn of(src: ProcessId, msg: UserMessage) -> Self {
        Delivery {
            src,
            channel: msg.channel,
            data: msg.data,
        }
    }
}

/// The context of a running HOPE user process. See the [module
/// docs](crate::ctx) for an overview and `examples/` for full programs.
pub struct ProcessCtx<'a> {
    pub(crate) sys: &'a mut dyn SysApi,
    /// The HOPElib, op log and counters included. Borrowed only between
    /// `sys` calls, never across one: `Control` runs while the body is
    /// suspended in one.
    pub(crate) lib: &'a RefCell<LibState>,
    /// What the environment's processes share: a child and an AID are
    /// made with it.
    pub(crate) shared: &'a Arc<Shared>,
}

impl ProcessCtx<'_> {
    /// Emits a causal-trace event when the shared collector is enabled
    /// (a single relaxed atomic load otherwise).
    fn trace(&mut self, kind: TraceEventKind) {
        let tracer = &self.shared.metrics.tracer;
        if tracer.is_enabled() {
            tracer.record(self.sys.pid(), self.sys.now(), kind);
        }
    }

    /// A fresh value from a monotonic sequence, for deriving collision-free
    /// local identifiers such as private reply channels.
    ///
    /// This is a logged nondeterministic operation: replay after a rollback
    /// returns the logged value (so a call redeemed before the rollback
    /// boundary still finds its reply), while a call *re-issued* past the
    /// boundary draws a fresh value from a counter that never rewinds — a
    /// stale reply from a helper spawned by the discarded execution cannot
    /// alias the new channel and be consumed as if it answered the new call.
    pub fn channel_seq(&mut self) -> u32 {
        if let Some(value) = self.replayed("ChannelSeq", |op| match op {
            Op::ChannelSeq { value } => Some(*value),
            _ => None,
        }) {
            // Self-heal the persistent counter past the replayed value so a
            // later live allocation cannot collide with it (relevant after
            // crash recovery, where the counter restarts at zero but the
            // recovered log carries earlier allocations).
            let mut state = self.lib.borrow_mut();
            state.next_channel_seq = state.next_channel_seq.max(value.wrapping_add(1));
            return value;
        }
        let mut state = self.lib.borrow_mut();
        let value = state.next_channel_seq;
        state.next_channel_seq = value.wrapping_add(1);
        state.log.record(Op::ChannelSeq { value });
        value
    }

    /// This process's identity.
    pub fn pid(&self) -> ProcessId {
        self.sys.pid()
    }

    /// True while this execution is replaying a logged prefix after a
    /// rollback (useful for diagnostics; user logic should not branch on
    /// it).
    pub fn is_replaying(&self) -> bool {
        self.lib.borrow().log.is_replaying()
    }

    /// True if the process currently depends on any unresolved assumption.
    pub fn is_speculative(&self) -> bool {
        !self.lib.borrow().history.current_deps().is_empty()
    }

    /// The set of assumptions the process currently depends on (the tag
    /// that would be attached to an outgoing message right now).
    pub fn current_deps(&self) -> IdoSet {
        self.lib.borrow().history.current_deps().clone()
    }

    /// Identity of the current interval.
    pub fn current_interval(&self) -> IntervalId {
        self.lib.borrow().history.current().id
    }

    /// Unwinds into the rollback machinery if `Control` has doomed one of
    /// this process's intervals since the last primitive.
    fn check_rollback(&self) {
        if self.lib.borrow().pending_rollback.is_some() {
            std::panic::panic_any(RollbackSignal);
        }
    }

    /// Parks the user thread until `satisfied` holds, a rollback lands
    /// (unwinding like any blocking point) or the runtime shuts down. The
    /// speculation-control counterpart of [`await_definite`]'s wait: while
    /// parked, `LibState::spec_waiting` is set so `Control` wakes this
    /// process on every `Replace`, not just on finalization.
    ///
    /// [`await_definite`]: ProcessCtx::await_definite
    fn spec_park(&mut self, satisfied: impl Fn(&LibState) -> bool) {
        self.lib.borrow_mut().spec_waiting = true;
        let parked = park_until(self.sys, self.lib, satisfied);
        self.lib.borrow_mut().spec_waiting = false;
        parked.or_unwind();
    }

    /// Returns an AID from `tag` that this process has already observed
    /// being denied, if any. A message carrying such a tag is *doomed*:
    /// receiving it would open an interval whose rollback is certain, and
    /// its sender has been unwound past the send. The one place a doomed
    /// message is dropped, under every policy (DESIGN.md S8).
    fn doomed_aid(&self, tag: &IdoSet) -> Option<AidId> {
        let state = self.lib.borrow();
        if state.known_denied.is_empty() {
            return None;
        }
        tag.iter().copied().find(|a| state.known_denied.contains(a))
    }

    /// Accounts for one proactively cancelled doomed interval: a tagged
    /// `message` discarded before its implicit guess could open one, or an
    /// explicit guess resolved on the spot.
    fn discard_doomed(&mut self, aid: AidId, message: bool) {
        self.lib.borrow_mut().spec.count_cancelled();
        self.trace(TraceEventKind::CancelDoomed { aid, message });
    }

    /// Registers interval `iid` with every assumption in `members` by
    /// sending `Guess` messages (the DOM registration of §5.2). With delta
    /// registration `members` holds only *newly acquired* assumptions —
    /// inherited ones are already registered at an older interval whose
    /// rollback would doom this one anyway (DESIGN.md S7) — so an interval
    /// open costs one batch of `|delta|` registrations, not `|IDO|`.
    fn register_guesses(&mut self, iid: IntervalId, members: &IdoSet) {
        for &aid in members.iter() {
            self.sys.send(
                aid.process(),
                hope_types::Payload::Hope(hope_types::HopeMessage::Guess { iid }),
            );
        }
    }

    /// The replay gate (contract in the module docs). `None` when live;
    /// while replaying, what `pick` extracts from the logged op once it
    /// recognises it as the `what` the body is issuing now.
    #[inline]
    fn replayed<T>(&mut self, what: &str, pick: impl FnOnce(&Op) -> Option<T>) -> Option<T> {
        let mut lib = self.lib.borrow_mut();
        if !lib.log.is_replaying() {
            return None;
        }
        lib.counts.replayed_ops += 1;
        match lib.log.replay_next(what, pick) {
            Ok(logged) => Some(logged),
            Err(err) => std::panic::panic_any(err.to_string()),
        }
    }

    /// Logs a live op, returning its index.
    fn record(&self, op: Op) -> usize {
        self.lib.borrow_mut().log.record(op)
    }

    /// The receive-side implicit guess: a message logged at `op` whose
    /// `tag` is not empty opens an interval dependent on every assumption
    /// in it, before user code sees the message — unless the current
    /// interval already [covers](crate::interval::History::covers) the
    /// tag. Such a receive is absorbed: it stays logged, so a rollback
    /// below it requeues the message as before, but it is no rollback
    /// point and opens nothing (DESIGN.md S9).
    fn open_implicit(&mut self, op: usize, tag: &IdoSet) {
        if tag.is_empty() {
            return;
        }
        let (iid, delta) = {
            let mut lib = self.lib.borrow_mut();
            lib.counts.implicit_guesses += tag.len() as u64;
            if lib.history.covers(tag) {
                return;
            }
            // Delta registration: only tag members this process is not
            // already registered for (DESIGN.md S7), asked of the records
            // before the one about to open, before it adds the tag to what
            // the history holds.
            let pos = lib.history.intervals().len();
            let delta: IdoSet = tag
                .iter()
                .filter(|y| !lib.history.held_before(pos, y))
                .copied()
                .collect();
            let iid = lib
                .history
                .open_interval(IntervalOrigin::ImplicitReceive { op }, tag.iter().copied());
            (iid, delta)
        };
        self.register_guesses(iid, &delta);
        self.trace(TraceEventKind::IntervalOpen {
            interval: iid,
            implicit: true,
        });
        self.trace(TraceEventKind::ImplicitGuess {
            new_aids: delta.len() as u64,
            interval: iid,
        });
    }

    // ------------------------------------------------------------------
    // The four HOPE primitives + aid_init
    // ------------------------------------------------------------------

    /// Creates a fresh assumption identifier by spawning its AID process
    /// (paper: `aid_init`, used to set up a checking mechanism ahead of
    /// time). The AID starts `Cold`; no dependency is created until
    /// someone [`guess`](ProcessCtx::guess)es it.
    pub fn aid_init(&mut self) -> AidId {
        if let Some(aid) = self.replayed("AidInit", |op| match op {
            Op::AidInit { aid } => Some(*aid),
            _ => None,
        }) {
            return aid;
        }
        self.check_rollback();
        let actor = AidActor::new(self.shared.metrics.clone());
        let pid = self.sys.spawn_actor("aid", Box::new(actor));
        let aid = AidId::from_raw(pid);
        self.record(Op::AidInit { aid });
        self.trace(TraceEventKind::AidInit { aid });
        aid
    }

    /// Declares an additional reference to `aid` (AID garbage collection,
    /// paper §5). Call it when handing the identifier to another holder
    /// whose lifetime you do not control; pair with
    /// [`aid_release`](ProcessCtx::aid_release).
    pub fn aid_retain(&mut self, aid: AidId) {
        let same = |op: &Op| matches!(op, Op::AidRetain { aid: a } if *a == aid).then_some(());
        if self.replayed("AidRetain", same).is_some() {
            return;
        }
        self.check_rollback();
        self.record(Op::AidRetain { aid });
        self.sys.send(
            aid.process(),
            hope_types::Payload::Hope(hope_types::HopeMessage::Retain),
        );
    }

    /// Drops a reference to `aid`. When the last reference is released
    /// *and* the assumption has been resolved (`True`/`False`), the AID
    /// process is garbage-collected; guessing a collected AID blocks
    /// forever, so release only identifiers that no one will use again.
    /// Releases are immediate and are not undone by rollback — release
    /// from definite code.
    pub fn aid_release(&mut self, aid: AidId) {
        let same = |op: &Op| matches!(op, Op::AidRelease { aid: a } if *a == aid).then_some(());
        if self.replayed("AidRelease", same).is_some() {
            return;
        }
        self.check_rollback();
        self.record(Op::AidRelease { aid });
        self.sys.send(
            aid.process(),
            hope_types::Payload::Hope(hope_types::HopeMessage::Release),
        );
    }

    /// Makes the optimistic assumption identified by `aid`.
    ///
    /// Eagerly returns `true` — speculative computation begins here,
    /// dependent on `aid`. If the assumption is later denied, the process
    /// rolls back to this point and `guess` returns `false` instead.
    /// Idiomatically used as the condition of an `if`: the `true` branch
    /// holds the optimistic algorithm, the `false` branch the pessimistic
    /// one.
    ///
    /// A guess on an AID this process has already been told is denied (a
    /// caused rollback named it) returns `false` immediately, without
    /// opening an interval — the outcome the rollback would have produced
    /// (DESIGN.md S8).
    ///
    /// Under [`SpecPolicy::Adaptive`](hope_types::SpecPolicy) or
    /// [`SpecPolicy::Pessimistic`](hope_types::SpecPolicy) this primitive
    /// deliberately trades its wait-freedom for bounded waste: a guess
    /// past the configured speculation depth waits for the chain to
    /// drain; and a guess while throttled (or always, under
    /// `Pessimistic`) opens its interval but then waits for the
    /// assumption to resolve before continuing — the pessimistic regime.
    /// Progress is still guaranteed whenever the assumption is eventually
    /// resolved, exactly the contract of
    /// [`await_definite`](ProcessCtx::await_definite).
    pub fn guess(&mut self, aid: AidId) -> bool {
        if let Some(outcome) = self.replayed("Guess", |op| match op {
            Op::Guess { aid: a, outcome } if *a == aid => Some(*outcome),
            _ => None,
        }) {
            return outcome;
        }
        self.check_rollback();
        let (known_denied, max_depth) = {
            let state = self.lib.borrow();
            (state.is_known_denied(&aid), state.spec.max_depth())
        };
        if known_denied {
            // The AID is provably False: an interval opened on it would be
            // doomed on arrival of its own registration. Resolve on the
            // spot with the outcome the rollback would have produced.
            let mut lib = self.lib.borrow_mut();
            lib.counts.guesses += 1;
            lib.log.record(Op::Guess {
                aid,
                outcome: false,
            });
            drop(lib);
            self.discard_doomed(aid, false);
            return false;
        }
        // Speculation control (DESIGN.md §9) governs only waiting; both
        // gates are no-ops under the default AlwaysOptimistic policy.
        if let Some(max_depth) = max_depth {
            // Bounded speculation depth: a deny storm must not build an
            // arbitrarily deep rollback cascade, so wait for the
            // unaffirmed chain to drain below the cap first.
            let below_cap = move |state: &LibState| {
                state.history.live().iter().filter(|r| !r.definite).count() < max_depth as usize
            };
            if !below_cap(&self.lib.borrow()) {
                self.trace(TraceEventKind::SpecWait {
                    aid,
                    depth_limited: true,
                });
                self.spec_park(below_cap);
            }
        }
        // Read the throttle after any depth wait: resolutions observed
        // while parked may have flipped the regime.
        let throttled = self.lib.borrow().spec.is_throttled(aid);
        let (iid, delta) = {
            let mut lib = self.lib.borrow_mut();
            lib.counts.guesses += 1;
            let op = lib.log.record(Op::Guess { aid, outcome: true });
            // Register only the fresh guess, and only when no older live
            // interval already holds it (delta registration — the §6
            // quadratic re-registration of the whole inherited set is
            // substituted per DESIGN.md S7). Asked before the interval
            // opens, so a fresh AID is still above everything held.
            let pos = lib.history.intervals().len();
            let delta = if lib.history.held_before(pos, &aid) {
                IdoSet::new()
            } else {
                IdoSet::singleton(aid)
            };
            let iid = lib
                .history
                .open_interval(IntervalOrigin::ExplicitGuess { op }, [aid]);
            (iid, delta)
        };
        self.register_guesses(iid, &delta);
        self.trace(TraceEventKind::IntervalOpen {
            interval: iid,
            implicit: false,
        });
        self.trace(TraceEventKind::Guess { aid, interval: iid });
        if throttled {
            // Pessimistic regime: the interval is open (keeping dependency
            // tracking sound by construction), but instead of running
            // ahead speculatively, wait here until the assumption leaves
            // this interval's IDO — an affirm resolved it — or a deny
            // unwinds us through the normal rollback path, which flips
            // this guess's logged outcome to `false`.
            self.trace(TraceEventKind::SpecWait {
                aid,
                depth_limited: false,
            });
            self.spec_park(move |state: &LibState| !state.history.current().ido.contains(&aid));
        }
        true
    }

    /// Asserts that `aid`'s assumption is correct.
    ///
    /// Executed from a speculative interval, the affirm itself is
    /// speculative: the AID enters `Maybe`, predicated on this interval's
    /// remaining assumptions, and is unconditionally affirmed when the
    /// interval finalizes (affirm transitivity, paper Lemma 5.3).
    ///
    /// Applying `affirm` or [`deny`](ProcessCtx::deny) to an
    /// already-resolved assumption violates the paper's one-resolution
    /// contract; the violation is counted in
    /// [`HopeMetrics::aid_contract_violations`](crate::HopeMetrics::aid_contract_violations)
    /// rather than aborting.
    pub fn affirm(&mut self, aid: AidId) {
        let same = |op: &Op| matches!(op, Op::Affirm { aid: a } if *a == aid).then_some(());
        if self.replayed("Affirm", same).is_some() {
            return;
        }
        self.check_rollback();
        let (iid, ido) = {
            let mut lib = self.lib.borrow_mut();
            lib.counts.affirms += 1;
            lib.log.record(Op::Affirm { aid });
            let cur = lib.history.current_mut();
            let mut ido = cur.ido.clone();
            ido.remove(&aid);
            if !ido.is_empty() {
                // Speculative affirm: remember it for finalize.
                cur.iha.insert(aid);
            }
            (cur.id, ido)
        };
        self.sys.send(
            aid.process(),
            hope_types::Payload::Hope(hope_types::HopeMessage::Affirm {
                iid: Some(iid),
                ido,
            }),
        );
        self.trace(TraceEventKind::Affirm { aid });
    }

    /// Asserts that `aid`'s assumption is incorrect: every computation that
    /// depends on it — including, possibly, this one — rolls back.
    ///
    /// With [`DenyPolicy::Immediate`] (default) the deny is sent at once
    /// even from a speculative interval; with [`DenyPolicy::Buffered`] it
    /// is held in the interval's `IHD` set until the interval finalizes
    /// (paper, footnote 1).
    pub fn deny(&mut self, aid: AidId) {
        let same = |op: &Op| matches!(op, Op::Deny { aid: a } if *a == aid).then_some(());
        if self.replayed("Deny", same).is_some() {
            return;
        }
        self.check_rollback();
        let (iid, send_now) = {
            let mut lib = self.lib.borrow_mut();
            lib.counts.denies += 1;
            lib.log.record(Op::Deny { aid });
            let deny_policy = lib.config().deny_policy;
            let cur = lib.history.current_mut();
            let send_now = deny_policy == DenyPolicy::Immediate || cur.definite;
            if !send_now {
                cur.ihd.insert(aid);
            }
            (cur.id, send_now)
        };
        if send_now {
            self.sys.send(
                aid.process(),
                hope_types::Payload::Hope(hope_types::HopeMessage::Deny { iid: Some(iid) }),
            );
        }
        self.trace(TraceEventKind::Deny { aid });
    }

    /// Asserts that this computation is **not** dependent on `aid`
    /// (paper: `free_of`). If a dependency is detected the assumption is
    /// denied — rolling back every dependent, including this process —
    /// and `false` is returned; otherwise the assumption is affirmed and
    /// `true` is returned.
    ///
    /// The deny is always sent immediately (buffering a self-targeting
    /// deny would deadlock).
    pub fn free_of(&mut self, aid: AidId) -> bool {
        if let Some(outcome) = self.replayed("FreeOf", |op| match op {
            Op::FreeOf { aid: a, outcome } if *a == aid => Some(*outcome),
            _ => None,
        }) {
            return outcome;
        }
        self.check_rollback();
        let (iid, dependent, affirm_ido) = {
            let mut lib = self.lib.borrow_mut();
            lib.counts.free_ofs += 1;
            let cur = lib.history.current_mut();
            let dependent = cur.ido.contains(&aid);
            let mut ido = cur.ido.clone();
            ido.remove(&aid);
            if !dependent && !ido.is_empty() {
                cur.iha.insert(aid);
            }
            let iid = cur.id;
            lib.log.record(Op::FreeOf {
                aid,
                outcome: !dependent,
            });
            (iid, dependent, ido)
        };
        self.trace(TraceEventKind::FreeOf { aid });
        if dependent {
            self.sys.send(
                aid.process(),
                hope_types::Payload::Hope(hope_types::HopeMessage::Deny { iid: Some(iid) }),
            );
            false
        } else {
            self.sys.send(
                aid.process(),
                hope_types::Payload::Hope(hope_types::HopeMessage::Affirm {
                    iid: Some(iid),
                    ido: affirm_ido,
                }),
            );
            true
        }
    }

    // ------------------------------------------------------------------
    // Tagged messaging
    // ------------------------------------------------------------------

    /// Sends `data` to `dst` on `channel`, tagged with this process's
    /// current dependency set. The receiver implicitly guesses every AID
    /// in the tag before its user code sees the message.
    pub fn send(&mut self, dst: ProcessId, channel: u32, data: Bytes) {
        let same = |op: &Op| {
            matches!(op, Op::Send { dst: d, channel: c } if *d == dst && *c == channel)
                .then_some(())
        };
        if self.replayed("Send", same).is_some() {
            return; // already sent on the original execution
        }
        self.check_rollback();
        let tag = {
            let mut lib = self.lib.borrow_mut();
            lib.log.record(Op::Send { dst, channel });
            lib.history.current_deps().clone()
        };
        self.sys.send(
            dst,
            hope_types::Payload::User(UserMessage::tagged(channel, data, tag)),
        );
    }

    /// Blocks until a message arrives (optionally filtered by channel),
    /// implicitly guessing every assumption in its dependency tag.
    ///
    /// A tag that brings a new assumption opens an interval here, and if
    /// one of its assumptions turns out false, this receive point is where
    /// the process rolls back to — the stale message is discarded and the
    /// receive blocks again for a fresh one. A tag the current interval
    /// already depends on opens nothing (DESIGN.md S9): the message is
    /// logged, and a rollback to an earlier point requeues it like any
    /// other consumed message.
    pub fn receive(&mut self, channel: Option<u32>) -> Delivery {
        let wanted = |msg: &UserMessage| channel.is_none_or(|c| c == msg.channel);
        if let Some(delivery) = self.replayed("Receive", |op| match op {
            Op::Receive { src, msg } if wanted(msg) => Some(Delivery::of(*src, msg.clone())),
            _ => None,
        }) {
            return delivery;
        }
        self.check_rollback();
        let lib = self.lib;
        loop {
            let mut interrupt = || lib.borrow().pending_rollback.is_some();
            match self.sys.receive(channel, &mut interrupt) {
                None => {
                    if lib.borrow().pending_rollback.is_some() {
                        std::panic::panic_any(RollbackSignal);
                    }
                    std::panic::panic_any(ShutdownSignal);
                }
                Some(hope_runtime::Received { src, msg }) => {
                    // Doomed-interval cancellation: a tag naming an AID this
                    // process has already seen denied would open an interval
                    // guaranteed to roll back. Discard the message before
                    // guessing (it is never logged, so replay is unaffected)
                    // and block for the next one.
                    if let Some(doomed) = self.doomed_aid(&msg.tag) {
                        self.discard_doomed(doomed, true);
                        continue;
                    }
                    let op = self.record(Op::Receive {
                        src,
                        msg: msg.clone(),
                    });
                    self.open_implicit(op, &msg.tag);
                    return Delivery::of(src, msg);
                }
            }
        }
    }

    /// Non-blocking receive; returns `None` when no matching message is
    /// queued. Tagged messages create implicit guesses — and open an
    /// interval only when the current one does not cover the tag — exactly
    /// like [`receive`](ProcessCtx::receive).
    pub fn try_receive(&mut self, channel: Option<u32>) -> Option<Delivery> {
        // A logged `None` matches any filter; a logged message must pass
        // the caller's, exactly as in `receive`.
        let wanted = |msg: &UserMessage| channel.is_none_or(|c| c == msg.channel);
        if let Some(result) = self.replayed("TryReceive", |op| match op {
            Op::TryReceive { result: None } => Some(None),
            Op::TryReceive {
                result: Some((src, msg)),
            } if wanted(msg) => Some(Some(Delivery::of(*src, msg.clone()))),
            _ => None,
        }) {
            return result;
        }
        self.check_rollback();
        let result = loop {
            let received = self.sys.try_receive(channel);
            match received {
                Some(r) => {
                    // Doomed-interval cancellation, as in `receive`: never
                    // logged, so the op records only real deliveries.
                    if let Some(doomed) = self.doomed_aid(&r.msg.tag) {
                        self.discard_doomed(doomed, true);
                        continue;
                    }
                    break Some((r.src, r.msg));
                }
                None => break None,
            }
        };
        let op = self.record(Op::TryReceive {
            result: result.clone(),
        });
        result.map(|(src, msg)| {
            self.open_implicit(op, &msg.tag);
            Delivery::of(src, msg)
        })
    }

    // ------------------------------------------------------------------
    // Time, randomness, spawning
    // ------------------------------------------------------------------

    /// Spends `dur` of virtual compute time.
    pub fn compute(&mut self, dur: VirtualDuration) {
        let same = |op: &Op| matches!(op, Op::Compute { dur: d } if *d == dur).then_some(());
        if self.replayed("Compute", same).is_some() {
            return; // the time was already spent
        }
        self.check_rollback();
        self.record(Op::Compute { dur });
        self.sys.compute(dur);
        self.check_rollback();
    }

    /// Current virtual time. Replays the originally observed instant
    /// during re-execution (rollback does not rewind the clock, exactly as
    /// a restored process image would keep its old time reads).
    pub fn now(&mut self) -> VirtualTime {
        if let Some(value) = self.replayed("Now", |op| match op {
            Op::Now { value } => Some(*value),
            _ => None,
        }) {
            return value;
        }
        let value = self.sys.now();
        self.record(Op::Now { value });
        value
    }

    /// Deterministic random value (stable across re-executions).
    pub fn random(&mut self) -> u64 {
        if let Some(value) = self.replayed("Random", |op| match op {
            Op::Random { value } => Some(*value),
            _ => None,
        }) {
            return value;
        }
        let value = self.sys.random_u64();
        self.record(Op::Random { value });
        value
    }

    /// Blocks until **every** interval of this process is definite — a
    /// commit barrier. Use it before externally visible actions that must
    /// not be speculative (shutting down a server, emitting final output).
    ///
    /// If a pending assumption is instead denied, the process rolls back
    /// from here like any other blocking point. If an assumption is never
    /// resolved at all, this waits forever (the same contract as a
    /// blocked `receive`).
    pub fn await_definite(&mut self) {
        let same = |op: &Op| matches!(op, Op::Barrier).then_some(());
        if self.replayed("Barrier", same).is_some() {
            return;
        }
        park_until(self.sys, self.lib, |state| state.history.fully_definite()).or_unwind();
        self.record(Op::Barrier);
    }

    /// Spawns another HOPE user process running `body` and returns its id.
    ///
    /// Spawns are **not** rolled back: a child spawned from an interval
    /// that later rolls back keeps running (an external side effect, like
    /// the paper's I/O). Prefer spawning from definite intervals.
    pub fn spawn_user<F>(&mut self, name: &str, body: F) -> ProcessId
    where
        F: Fn(&mut ProcessCtx<'_>) + Send + 'static,
    {
        if let Some(pid) = self.replayed("SpawnUser", |op| match op {
            Op::SpawnUser { pid } => Some(*pid),
            _ => None,
        }) {
            return pid;
        }
        self.check_rollback();
        let runner = crate::env::user_runner(self.shared.clone(), Box::new(body));
        let pid = self.sys.spawn_threaded(name, None, runner);
        self.record(Op::SpawnUser { pid });
        pid
    }
}
