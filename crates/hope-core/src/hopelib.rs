//! The HOPElib attached to each user process: shared state and the
//! `Control` function (paper, Figures 9–11 and — with cycle detection —
//! Figure 15).
//!
//! `Control` runs on the scheduler whenever a HOPE protocol message is
//! addressed to the user process, updating the process's interval history
//! and dependency sets without ever involving (or blocking) the user
//! thread. When a rollback is required, `Control` records it and wakes the
//! process; the actual unwinding and re-execution happen on the user
//! thread (see [`crate::env`]).

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use hope_types::{
    AidId, HopeMessage, IdoSet, IntervalId, Payload, ProcessId, SpecController, SpecSnapshot,
    TraceCollector, TraceEventKind, VirtualTime,
};

use hope_runtime::{ControlApi, ControlHandler};

use crate::config::HopeConfig;
use crate::interval::{History, IntervalRecord};
use crate::metrics::{HopeMetrics, MetricsSnapshot};
use crate::replay::ReplayLog;

/// A rollback demanded by `Control`, awaiting execution on the user
/// thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PendingRollback {
    /// Index of the lowest doomed interval.
    pub floor: u32,
    /// The denied assumption that triggered it, when the AID said so.
    pub cause: Option<hope_types::AidId>,
    /// True when the rollback recovers from a crash rather than a deny:
    /// no assumption failed, so the boundary primitive is re-issued live
    /// instead of resolving false, and the boundary message is restored
    /// instead of discarded (its sender never rolled back to re-send it).
    pub crash: bool,
}

/// Merges a newly raised rollback into any already-pending one: the lowest
/// doomed interval wins, and at equal floors a deny wins over a crash (the
/// deny carries the failed assumption the boundary must resolve against).
fn merge_pending(cur: Option<PendingRollback>, incoming: PendingRollback) -> PendingRollback {
    match cur {
        None => incoming,
        Some(cur) if incoming.floor < cur.floor => incoming,
        Some(cur) if incoming.floor == cur.floor && cur.crash && !incoming.crash => incoming,
        Some(cur) => cur,
    }
}

/// The bookkeeping state of one user process's HOPElib: its interval
/// history, the op log it is rolled back with (and that log's durable
/// store), any pending rollback, and its counters. The process's runner
/// makes it on the process's first turn, on the thread that runs the
/// process, and only its `Control` handler ([`LibControl`]) and the
/// [`ProcessCtx`](crate::ProcessCtx) running the body hold it. The two take
/// turns on that thread (the simulator's, or the process's shard), so it
/// sits in a `RefCell`, is not `Send`, and no primitive takes a lock on it;
/// an observer on another thread asks the owner (`Env::history_of`, …).
#[derive(Debug)]
pub struct LibState {
    pid: ProcessId,
    /// The interval history (public for inspection in tests and tools).
    pub history: History,
    /// The lowest doomed interval (and its cause) from received
    /// `Rollback` messages; cleared when the user thread rolls back.
    pub pending_rollback: Option<PendingRollback>,
    config: HopeConfig,
    tracer: Arc<TraceCollector>,
    /// This process's counts, attribution included. `rollbacks`,
    /// `reexecutions`, `cancelled_intervals` and `history_visits` stay 0
    /// here: [`metrics`](LibState::metrics) works them out when asked.
    pub(crate) counts: MetricsSnapshot,
    /// The operation log (DESIGN.md S2): checkpoint and rollback by
    /// re-execution. It owns the process's durable store when the
    /// environment was built with [`durable`](crate::EnvBuilder::durable)
    /// storage.
    pub(crate) log: ReplayLog,
    /// Next [`ProcessCtx::channel_seq`](crate::ProcessCtx::channel_seq)
    /// value. Lives here — not in the per-execution context — so rollback
    /// re-execution continues the sequence instead of re-issuing channels
    /// that stale in-flight replies may still target.
    pub(crate) next_channel_seq: u32,
    /// Adaptive speculation control (DESIGN.md §9): the per-process
    /// deny-rate EWMA controller fed from the rollback-attribution path
    /// and interval finalization. Observes nothing under `AlwaysOptimistic`
    /// (only its count of cancellations, which every policy makes, moves).
    pub(crate) spec: SpecController,
    /// AIDs this process has *proof* are denied: a `Rollback` carries its
    /// cause only when the AID resolved `False`, which is absorbing, so
    /// members are definitively dead. Under every policy (DESIGN.md S8) a
    /// tagged message intersecting this set is dropped before its
    /// implicit interval opens, and a `guess` on a member short-circuits
    /// to `false`.
    pub(crate) known_denied: IdoSet,
    /// True while the user thread is parked in a speculation-control wait
    /// (pessimistic-regime or depth gate). `Control` then wakes the
    /// process on any `Replace`, not just on finalization, so a waiter
    /// whose assumption left the IDO without finalizing its interval is
    /// not stranded. Never set under the default policy, keeping the
    /// default wake pattern untouched.
    pub(crate) spec_waiting: bool,
}

/// Members [`LibState::known_denied`] may hold before the oldest (lowest
/// AID — creation order) is dropped; dead assumptions lose cancellation
/// value with age, and the set must not grow with run length. The set is
/// an optimisation: losing a member — or all of it, as a real crash
/// would — is always safe, because whatever it would have dropped is
/// received, registers with the `False` AID and is rolled back instead.
const KNOWN_DENIED_CAP: usize = 4096;

impl LibState {
    /// The fresh state of process `pid`: one definite root interval. It
    /// records into `metrics`' tracer.
    pub fn new(pid: ProcessId, config: HopeConfig, metrics: Arc<HopeMetrics>) -> Self {
        LibState {
            pid,
            history: History::new(pid),
            pending_rollback: None,
            spec: SpecController::new(config.spec_policy),
            known_denied: IdoSet::new(),
            spec_waiting: false,
            config,
            tracer: metrics.tracer.clone(),
            counts: MetricsSnapshot::default(),
            log: ReplayLog::new(pid),
            next_channel_seq: 0,
        }
    }

    /// The operation-log index up to which this process's history is
    /// definite: the origin op of the first speculative interval, or
    /// `None` when the whole history is definite. This is the Theorem 5.1
    /// floor a post-crash recovery must reach.
    pub fn definite_floor_op(&self) -> Option<usize> {
        self.history
            .live()
            .iter()
            .find(|rec| !rec.definite)
            .map(|rec| match rec.origin {
                crate::interval::IntervalOrigin::ExplicitGuess { op } => op,
                crate::interval::IntervalOrigin::ImplicitReceive { op } => op,
                crate::interval::IntervalOrigin::Root => 0,
            })
    }

    /// The owning process.
    pub fn pid(&self) -> ProcessId {
        self.pid
    }

    /// The environment configuration.
    pub fn config(&self) -> HopeConfig {
        self.config
    }

    /// This process's counters. Four are worked out here: `rollbacks`
    /// and `reexecutions` from the attribution's totals,
    /// `cancelled_intervals` from the speculation controller and
    /// `history_visits` from the history. The AID actors' two counts read 0.
    pub fn metrics(&self) -> MetricsSnapshot {
        let wasted = self.counts.attribution.total();
        MetricsSnapshot {
            rollbacks: wasted.intervals_discarded,
            reexecutions: wasted.reexecutions,
            cancelled_intervals: self.spec.cancelled(),
            history_visits: self.history.visits(),
            ..self.counts.clone()
        }
    }

    /// Plain-value snapshot of the speculation controller.
    pub fn spec_snapshot(&self) -> SpecSnapshot {
        self.spec.snapshot()
    }

    /// True when `aid` is definitively known denied by this process.
    pub fn is_known_denied(&self, aid: &AidId) -> bool {
        self.known_denied.contains(aid)
    }

    /// Latches `aid` as definitively denied (only `False`-state AIDs ever
    /// send a caused `Rollback`). Bounded: the oldest member is dropped
    /// past [`KNOWN_DENIED_CAP`].
    pub(crate) fn note_denied(&mut self, aid: AidId) {
        self.known_denied.insert(aid);
        if self.known_denied.len() > KNOWN_DENIED_CAP {
            let oldest = self.known_denied.as_slice()[0];
            self.known_denied.remove(&oldest);
        }
    }

    /// Feeds one observed resolution of `aid` into the deny-rate EWMAs
    /// and emits the `SpecObserve`/`SpecThrottle` trace events. A no-op
    /// under the default policy so the hot path stays untouched.
    pub(crate) fn observe_resolution(&mut self, aid: AidId, denied: bool, now: VirtualTime) {
        if !self.spec.is_active() {
            return;
        }
        let obs = self.spec.observe(aid, denied);
        if !self.tracer.is_enabled() {
            return;
        }
        self.tracer.record(
            self.pid,
            now,
            TraceEventKind::SpecObserve {
                aid,
                denied,
                aid_ewma: obs.aid_ewma,
                process_ewma: obs.process_ewma,
            },
        );
        if let Some(on) = obs.aid_flip {
            self.tracer.record(
                self.pid,
                now,
                TraceEventKind::SpecThrottle {
                    aid: Some(aid),
                    on,
                    ewma: obs.aid_ewma,
                },
            );
        }
        if let Some(on) = obs.process_flip {
            self.tracer.record(
                self.pid,
                now,
                TraceEventKind::SpecThrottle {
                    aid: None,
                    on,
                    ewma: obs.process_ewma,
                },
            );
        }
    }

    /// Handles one HOPE protocol message (the paper's `control` function).
    pub fn handle_control(&mut self, src: ProcessId, msg: HopeMessage, api: &mut dyn ControlApi) {
        match msg {
            HopeMessage::Rollback { iid, cause } => self.handle_rollback(iid, cause, api),
            HopeMessage::Replace { iid, ido } => {
                self.handle_replace(AidId::from_raw(src), iid, ido, api)
            }
            // Guess/Affirm/Deny are AID-bound; receiving one here is a
            // protocol error tolerated silently.
            _ => {}
        }
    }

    /// Figure 10/15, `Rollback` case: mark the interval (and implicitly all
    /// later ones) doomed and wake the process so its thread unwinds.
    fn handle_rollback(
        &mut self,
        iid: IntervalId,
        cause: Option<hope_types::AidId>,
        api: &mut dyn ControlApi,
    ) {
        // A caused Rollback is proof of a deny: `AidMachine` attaches the
        // cause only from its `False` state. Latch it even when the message
        // is otherwise stale, and before the wake below: the re-execution
        // it triggers must already drop what the rollback requeues.
        if let Some(c) = cause {
            self.note_denied(c);
        }
        match self.history.get(iid) {
            None => {} // stale: the interval was already rolled back
            Some(rec) if rec.definite => {
                // Finalize is a commit point; a rollback arriving for a
                // definite interval is ignored (see DESIGN.md §3).
                self.counts.late_rollbacks += 1;
            }
            Some(_) => {
                let incoming = PendingRollback {
                    floor: iid.index(),
                    cause,
                    crash: false,
                };
                self.pending_rollback = Some(merge_pending(self.pending_rollback, incoming));
                api.wake();
            }
        }
    }

    /// Figure 15, `Replace` case (Figure 10 when `cycle_detection` is off):
    /// substitute the sending AID with its replacement set, registering
    /// with any newly acquired assumptions and discarding ones already
    /// escaped from (`UDO`).
    ///
    /// Delta registration (DESIGN.md S7): under the paper's formulation,
    /// every interval holding an AID registers with it individually, so
    /// the AID sends one `Replace` per holder and a stack of N nested
    /// guesses costs ~N²/2 protocol messages. Here the *earliest* live
    /// interval holding an AID is its sole registrant, so a `Replace`
    /// arrives addressed to that registrant and is applied to it *and*
    /// to every later live interval that also holds the sender — the
    /// substitution all of them would have received their own copies of.
    /// This is sound because rollback is suffix-truncation: any
    /// `Rollback` aimed at the registrant also dooms every later holder,
    /// giving the same rollback floor as per-holder registration.
    /// Likewise, a `Guess` is sent for a newly acquired assumption only
    /// when no older live interval already holds it (the process would
    /// otherwise already be registered at an equal-or-lower floor).
    ///
    /// The work is what changes, not what is held (DESIGN.md §2.4).
    /// Holders inherit their sets from their predecessors, so they come in
    /// runs of equal `(ido, udo)`. Each run's head is substituted element
    /// by element, in place, after the run's members let go of their IDOs:
    /// a set is deep-copied only where an owner outside the run still
    /// shares its storage (another record's set, the head's own trigger
    /// included, or a tag in flight). Every decision reads only the
    /// holder's own two sets, except `held_before` — and whatever the head
    /// acquired it now holds at a lower position, so no `Guess` is sent
    /// for a later member either way. So the members
    /// take clones of the head's result and keep sharing one storage. The
    /// `UDO` is most often one set shared by every holder: the first head
    /// to change it leaves a before/after memo, and a later head whose
    /// `UDO` equals the memo's before takes a clone of its after, so one
    /// `Replace` copies a shared `UDO` once.
    fn handle_replace(
        &mut self,
        sender: AidId,
        iid: IntervalId,
        replacement: IdoSet,
        api: &mut dyn ControlApi,
    ) {
        let cycle_detection = self.config.cycle_detection;
        let Some(target) = self.history.position_of(iid) else {
            return; // stale
        };
        if self.history.intervals()[target].definite {
            return;
        }
        // The registrant applies the substitution unconditionally; later
        // intervals only when they inherited the sender.
        let holds = |rec: &IntervalRecord, pos: usize| {
            !rec.definite && (pos == target || rec.ido.contains(&sender))
        };
        let mut cycles_broken = 0u64;
        let mut ido_unshares = 0u64;
        let mut udo_memo: Option<(IdoSet, IdoSet)> = None;
        let len = self.history.intervals().len();
        let mut pos = target;
        while pos < len {
            let records = self.history.intervals();
            let head = &records[pos];
            if !holds(head, pos) {
                pos += 1;
                continue;
            }
            // The run ends at the first later holder whose sets differ
            // from the head's, found before the head changes.
            let end = (pos + 1..len)
                .find(|&at| {
                    let rec = &records[at];
                    holds(rec, at) && (rec.ido != head.ido || rec.udo != head.udo)
                })
                .unwrap_or(len);
            let head_iid = head.id;
            // The members' IDOs are overwritten with the head's result
            // below, so they let go of their storage first: the head then
            // copies its IDO only if an owner outside the run shares it.
            // The sender alone (inline, no allocation) keeps each one a
            // holder until then.
            for (at, rec) in self.history.intervals_mut()[pos + 1..end]
                .iter_mut()
                .enumerate()
            {
                if holds(rec, pos + 1 + at) {
                    rec.ido = IdoSet::singleton(sender);
                }
            }
            let ido_shared = self.history.intervals()[pos].ido.is_shared();
            let mut ido_changed = false;
            let cycles_before = cycles_broken;
            for &y in replacement.iter() {
                let rec = &self.history.intervals()[pos];
                if cycle_detection && rec.udo.contains(&y) {
                    // The interval already escaped Y once: this replacement
                    // closes a dependency cycle. Discard it (Figure 15).
                    cycles_broken += 1;
                    continue;
                }
                if rec.ido.contains(&y) {
                    continue;
                }
                let registered = self.history.held_before(pos, &y);
                self.history.acquire(pos, y);
                ido_changed = true;
                if !registered {
                    // First acquisition across the whole history suffix:
                    // this interval becomes Y's registrant.
                    api.send(
                        y.process(),
                        Payload::Hope(HopeMessage::Guess { iid: head_iid }),
                    );
                }
            }
            let rec = &mut self.history.intervals_mut()[pos];
            ido_changed |= rec.ido.remove(&sender);
            ido_unshares += u64::from(ido_shared && ido_changed);
            match &udo_memo {
                Some((before, after)) if rec.udo == *before => rec.udo = after.clone(),
                _ => {
                    let before = rec.udo.clone();
                    rec.udo.insert(sender);
                    udo_memo = Some((before, rec.udo.clone()));
                }
            }
            let after = (rec.ido.clone(), rec.udo.clone());
            let broken = cycles_broken - cycles_before;
            for (at, rec) in self.history.intervals_mut()[pos + 1..end]
                .iter_mut()
                .enumerate()
            {
                if holds(rec, pos + 1 + at) {
                    (rec.ido, rec.udo) = after.clone();
                    cycles_broken += broken;
                }
            }
            pos = end;
        }
        self.counts.ido_unshares += ido_unshares;
        self.counts.cycles_broken += cycles_broken;
        self.finalize_ready(api);
        // A speculation-control waiter may be waiting for its assumption
        // to leave the IDO without the interval finalizing (the affirm was
        // speculative, so the sender's assumptions were substituted in).
        // `finalize_ready` only wakes on finalization; cover the gap, but
        // only when a waiter actually exists — never under the default
        // policy.
        if self.spec_waiting {
            api.wake();
        }
    }

    /// Crash recovery (fault injection): a restarting process loses its
    /// volatile speculative state, so every non-definite interval is
    /// doomed and execution resumes from the last definite interval by
    /// replaying the operation log (the paper's rollback recovery doubles
    /// as crash recovery — finalize is the commit point, §5). Returns true
    /// if there was anything speculative to recover.
    pub fn begin_crash_recovery(&mut self, api: &mut dyn ControlApi) -> bool {
        let floor = self
            .history
            .live()
            .iter()
            .find(|rec| !rec.definite)
            .map(|rec| rec.id.index());
        let Some(floor) = floor else {
            return false; // fully definite: the checkpoint is current
        };
        let incoming = PendingRollback {
            floor,
            cause: None,
            crash: true,
        };
        self.pending_rollback = Some(merge_pending(self.pending_rollback, incoming));
        self.counts.crash_recoveries += 1;
        self.tracer.record(
            self.pid,
            api.now(),
            hope_types::TraceEventKind::CrashRecovery,
        );
        api.wake();
        true
    }

    /// Finalizes every interval whose IDO has emptied (Figure 11's
    /// `finalize`): definite affirms for `IHA`, buffered denies for `IHD`,
    /// and a wake so a lingering process can observe definiteness.
    pub fn finalize_ready(&mut self, api: &mut dyn ControlApi) {
        let floor = self.pending_rollback.map(|p| p.floor);
        // Finalization only touches the live window, so the finalized
        // records are found again from where it began — no id lookup.
        let first_live = self.history.intervals().len() - self.history.live().len();
        let done = self.history.finalize_ready(floor);
        if done.is_empty() {
            return;
        }
        // The frontier advanced: make the op log durable up to here and
        // let the store checkpoint + GC dead segments.
        self.log.on_frontier();
        self.counts.finalized_intervals += done.len() as u64;
        // One clock reading for the whole batch.
        let now = api.now();
        if self.spec.is_active() {
            // Finalization is the affirm-side observation of the deny-rate
            // EWMA: every assumption this interval was *opened on* (its
            // trigger set) paid off — the speculation completed without a
            // rollback. The deny side is observed in `perform_rollback`,
            // the live attribution path.
            let mut records = self.history.intervals()[first_live..].iter();
            let affirmed: Vec<AidId> = done
                .iter()
                .filter_map(|(iid, _, _)| records.find(|rec| rec.id == *iid))
                .flat_map(|rec| rec.trigger.iter().copied())
                .collect();
            for aid in affirmed {
                self.observe_resolution(aid, false, now);
            }
        }
        for (iid, iha, ihd) in done {
            self.tracer.record(
                self.pid,
                now,
                hope_types::TraceEventKind::IntervalFinalized { interval: iid },
            );
            for &y in iha.iter() {
                api.send(
                    y.process(),
                    Payload::Hope(HopeMessage::Affirm {
                        iid: None,
                        ido: IdoSet::new(),
                    }),
                );
            }
            for &y in ihd.iter() {
                api.send(y.process(), Payload::Hope(HopeMessage::Deny { iid: None }));
            }
        }
        api.wake();
    }
}

/// The [`ControlHandler`] each HOPE user process attaches on its first
/// turn: forwards protocol messages into the process's [`LibState`].
pub struct LibControl {
    pub(crate) lib: Rc<RefCell<LibState>>,
}

impl ControlHandler for LibControl {
    fn on_hope_message(&mut self, src: ProcessId, msg: HopeMessage, api: &mut dyn ControlApi) {
        self.lib.borrow_mut().handle_control(src, msg, api);
    }

    fn on_crash(&mut self, _api: &mut dyn ControlApi) {
        // The crash destroys the WAL's unsynced tail (possibly with an
        // injected storage fault) and records the definite frontier the
        // recovery will be audited against.
        let mut lib = self.lib.borrow_mut();
        let floor = lib.definite_floor_op().unwrap_or(0);
        if let Some(store) = lib.log.store.as_mut() {
            store.note_crash(floor);
        }
    }

    fn on_restart(&mut self, api: &mut dyn ControlApi) {
        let mut lib = self.lib.borrow_mut();
        if lib.begin_crash_recovery(api) {
            if let Some(store) = lib.log.store.as_mut() {
                // The rollback that recovery triggers will rebuild the op
                // log from storage instead of trusting the in-memory copy.
                store.mark_restarted();
            }
        }
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interval::IntervalOrigin;
    use hope_types::VirtualTime;

    /// Test double for ControlApi collecting sends and wakes.
    #[derive(Default)]
    struct FakeApi {
        sent: Vec<(ProcessId, HopeMessage)>,
        wakes: usize,
    }

    impl ControlApi for FakeApi {
        fn pid(&self) -> ProcessId {
            ProcessId::from_raw(1)
        }
        fn now(&self) -> VirtualTime {
            VirtualTime::ZERO
        }
        fn send(&mut self, dst: ProcessId, payload: Payload) {
            let Payload::Hope(m) = payload else {
                panic!("control only sends HOPE messages")
            };
            self.sent.push((dst, m));
        }
        fn wake(&mut self) {
            self.wakes += 1;
        }
    }

    fn pid(n: u64) -> ProcessId {
        ProcessId::from_raw(n)
    }

    fn aid(n: u64) -> AidId {
        AidId::from_raw(pid(100 + n))
    }

    fn fresh_lib() -> LibState {
        LibState::new(pid(1), HopeConfig::new(), Arc::new(HopeMetrics::new()))
    }

    #[test]
    fn rollback_of_live_interval_sets_pending_and_wakes() {
        let mut lib = fresh_lib();
        let iid = lib
            .history
            .open_interval(IntervalOrigin::ExplicitGuess { op: 0 }, [aid(1)]);
        let mut api = FakeApi::default();
        lib.handle_control(
            aid(1).process(),
            HopeMessage::Rollback {
                iid,
                cause: Some(AidId::from_raw(aid(1).process())),
            },
            &mut api,
        );
        assert_eq!(
            lib.pending_rollback,
            Some(PendingRollback {
                floor: iid.index(),
                cause: Some(AidId::from_raw(aid(1).process())),
                crash: false
            })
        );
        assert_eq!(api.wakes, 1);
    }

    #[test]
    fn rollback_keeps_lowest_index() {
        let mut lib = fresh_lib();
        let a = lib
            .history
            .open_interval(IntervalOrigin::ExplicitGuess { op: 0 }, [aid(1)]);
        let b = lib
            .history
            .open_interval(IntervalOrigin::ExplicitGuess { op: 1 }, [aid(2)]);
        let mut api = FakeApi::default();
        let rb = |iid| HopeMessage::Rollback { iid, cause: None };
        lib.handle_control(aid(2).process(), rb(b), &mut api);
        lib.handle_control(aid(1).process(), rb(a), &mut api);
        lib.handle_control(aid(2).process(), rb(b), &mut api);
        assert_eq!(lib.pending_rollback.map(|p| p.floor), Some(a.index()));
    }

    #[test]
    fn rollback_of_definite_interval_is_ignored_and_counted() {
        let mut lib = fresh_lib();
        let root = lib.history.current().id;
        let mut api = FakeApi::default();
        lib.handle_control(
            aid(1).process(),
            HopeMessage::Rollback {
                iid: root,
                cause: None,
            },
            &mut api,
        );
        assert_eq!(lib.pending_rollback, None);
        assert_eq!(lib.metrics().late_rollbacks, 1);
        assert_eq!(api.wakes, 0);
    }

    /// Every caused rollback latches its cause under the default policy,
    /// stale or not, and the set stops at its cap by forgetting the
    /// oldest assumption.
    #[test]
    fn known_denied_latches_every_cause_and_evicts_the_lowest_at_the_cap() {
        let mut lib = fresh_lib();
        let mut api = FakeApi::default();
        for n in 0..=KNOWN_DENIED_CAP as u64 {
            let stale = HopeMessage::Rollback {
                iid: IntervalId::new(pid(1), 77),
                cause: Some(aid(n)),
            };
            lib.handle_control(aid(n).process(), stale, &mut api);
        }
        assert_eq!(lib.known_denied.len(), KNOWN_DENIED_CAP);
        assert!(!lib.is_known_denied(&aid(0)), "the lowest is gone");
        assert!(lib.is_known_denied(&aid(1)));
        assert!(lib.is_known_denied(&aid(KNOWN_DENIED_CAP as u64)));
        assert_eq!(lib.pending_rollback, None, "a stale rollback only latches");
    }

    #[test]
    fn rollback_of_unknown_interval_is_stale_noop() {
        let mut lib = fresh_lib();
        let mut api = FakeApi::default();
        lib.handle_control(
            aid(1).process(),
            HopeMessage::Rollback {
                iid: IntervalId::new(pid(1), 77),
                cause: None,
            },
            &mut api,
        );
        assert_eq!(lib.pending_rollback, None);
        assert_eq!(api.wakes, 0);
    }

    #[test]
    fn replace_empty_removes_sender_and_finalizes() {
        let mut lib = fresh_lib();
        let iid = lib
            .history
            .open_interval(IntervalOrigin::ExplicitGuess { op: 0 }, [aid(1)]);
        let mut api = FakeApi::default();
        lib.handle_control(
            aid(1).process(),
            HopeMessage::Replace {
                iid,
                ido: IdoSet::new(),
            },
            &mut api,
        );
        let rec = lib.history.get(iid).unwrap();
        assert!(rec.definite, "empty IDO finalizes the interval");
        assert!(rec.ido.is_empty());
        assert!(rec.udo.contains(&aid(1)), "sender enters UDO");
        assert_eq!(api.wakes, 1, "finalize wakes a lingering process");
    }

    #[test]
    fn replace_with_set_swaps_dependency_and_registers() {
        let mut lib = fresh_lib();
        let iid = lib
            .history
            .open_interval(IntervalOrigin::ExplicitGuess { op: 0 }, [aid(1)]);
        let mut api = FakeApi::default();
        lib.handle_control(
            aid(1).process(),
            HopeMessage::Replace {
                iid,
                ido: IdoSet::singleton(aid(2)),
            },
            &mut api,
        );
        let rec = lib.history.get(iid).unwrap();
        assert!(!rec.definite);
        assert!(rec.ido.contains(&aid(2)));
        assert!(!rec.ido.contains(&aid(1)));
        assert!(rec.udo.contains(&aid(1)));
        // A Guess registration went to the new dependency.
        assert_eq!(api.sent.len(), 1);
        assert_eq!(api.sent[0].0, aid(2).process());
        assert!(matches!(api.sent[0].1, HopeMessage::Guess { iid: g } if g == iid));
    }

    #[test]
    fn replace_propagates_to_later_holders_with_one_registration() {
        let mut lib = fresh_lib();
        let a = lib
            .history
            .open_interval(IntervalOrigin::ExplicitGuess { op: 0 }, [aid(1)]);
        let b = lib
            .history
            .open_interval(IntervalOrigin::ExplicitGuess { op: 1 }, [aid(2)]);
        // Under delta registration only `a` (the earliest holder of
        // aid(1)) is registered with it, so the Replace arrives addressed
        // to `a` — but `b` inherited the dependency and must be
        // substituted too, with exactly one Guess for the replacement.
        let mut api = FakeApi::default();
        lib.handle_control(
            aid(1).process(),
            HopeMessage::Replace {
                iid: a,
                ido: IdoSet::singleton(aid(3)),
            },
            &mut api,
        );
        let ra = lib.history.get(a).unwrap();
        let rb = lib.history.get(b).unwrap();
        assert_eq!(ra.ido.as_slice(), &[aid(3)]);
        assert!(ra.udo.contains(&aid(1)));
        assert!(!rb.ido.contains(&aid(1)), "later holder substituted too");
        assert!(rb.ido.contains(&aid(3)));
        assert!(rb.udo.contains(&aid(1)));
        let guesses: Vec<_> = api
            .sent
            .iter()
            .filter(|(_, m)| matches!(m, HopeMessage::Guess { .. }))
            .collect();
        assert_eq!(guesses.len(), 1, "one registration for the whole suffix");
        assert_eq!(guesses[0].0, aid(3).process());
        assert!(
            matches!(guesses[0].1, HopeMessage::Guess { iid } if iid == a),
            "the earliest acquiring interval is the registrant"
        );
    }

    /// Holders come in runs of equal sets (a receive with nothing new in
    /// its tag inherits its predecessor's). The substitution is worked
    /// out once per run and shared, and the result is what working it out
    /// per holder gives.
    #[test]
    fn replace_is_applied_once_per_run_of_equal_holders() {
        const RUN: usize = 50;
        let mut lib = fresh_lib();
        // Three runs: {1..5}, {1..6}, {1..7} — on the heap, past the
        // inline tier.
        let mut holders = Vec::new();
        for (op, fresh) in [(0, 5), (1, 6), (2, 7)] {
            let origin = IntervalOrigin::ExplicitGuess { op };
            let first = if op == 0 { 1..=5 } else { fresh..=fresh };
            holders.push(lib.history.open_interval(origin, first.map(aid)));
            for _ in 1..RUN {
                let origin = IntervalOrigin::ImplicitReceive { op };
                holders.push(lib.history.open_interval(origin, []));
            }
        }
        let mut api = FakeApi::default();
        let replace = |lib: &mut LibState, api: &mut FakeApi, sender: u64, ido: &[u64]| {
            let ido = ido.iter().map(|&n| aid(n)).collect();
            let iid = holders[0];
            lib.handle_control(
                aid(sender).process(),
                HopeMessage::Replace { iid, ido },
                api,
            );
        };
        // 1 -> {8, 9}: every holder has 1; 8 and 9 are new to all.
        replace(&mut lib, &mut api, 1, &[8, 9]);
        let unshares = |lib: &LibState| lib.metrics().ido_unshares;
        // Each run's members let go of the IDO they share with their head
        // before it changes, so a head's IDO is copied only where an owner
        // outside the run shares it: the first head's own trigger set,
        // which its IDO was opened from (3 copies, one per run, when the
        // members held on).
        assert_eq!(unshares(&lib), 1, "one set is shared outside its run");
        for (at, iid) in holders.iter().enumerate() {
            let rec = lib.history.get(*iid).unwrap();
            let mut want: Vec<u64> = (2..=5 + (at / RUN) as u64).collect();
            want.extend([8, 9]);
            let want: IdoSet = want.into_iter().map(aid).collect();
            assert_eq!(rec.ido, want, "holder {at}");
            assert_eq!(rec.udo.as_slice(), &[aid(1)], "holder {at}");
            let head = lib.history.get(holders[at / RUN * RUN]).unwrap();
            assert!(
                rec.ido.shares_storage(&head.ido),
                "holder {at} shares its run's set"
            );
        }
        let guesses = |api: &FakeApi| {
            let to = api.sent.iter().filter_map(|(to, m)| {
                matches!(m, HopeMessage::Guess { iid } if *iid == holders[0]).then_some(*to)
            });
            to.collect::<Vec<_>>()
        };
        let registered = [aid(8).process(), aid(9).process()];
        assert_eq!(guesses(&api), registered, "by the first holder only");
        // 8 -> {1}: 1 is in every UDO, so each holder breaks the cycle.
        api.sent.clear();
        replace(&mut lib, &mut api, 8, &[1]);
        let broken = lib.metrics().cycles_broken;
        assert_eq!(broken, 3 * RUN as u64, "counted per holder all the same");
        assert_eq!(guesses(&api), [], "nothing acquired");
        assert_eq!(unshares(&lib), 1, "every head now owns its IDO alone");
    }

    #[test]
    fn replace_closing_a_cycle_is_discarded_by_udo() {
        let mut lib = fresh_lib();
        let iid = lib
            .history
            .open_interval(IntervalOrigin::ExplicitGuess { op: 0 }, [aid(1)]);
        let mut api = FakeApi::default();
        // First replace 1 -> {2}; UDO = {1}.
        lib.handle_control(
            aid(1).process(),
            HopeMessage::Replace {
                iid,
                ido: IdoSet::singleton(aid(2)),
            },
            &mut api,
        );
        // Then 2 -> {1}: aid(1) is in UDO, so the cycle is broken and the
        // interval, left with an empty IDO, finalizes.
        lib.handle_control(
            aid(2).process(),
            HopeMessage::Replace {
                iid,
                ido: IdoSet::singleton(aid(1)),
            },
            &mut api,
        );
        let rec = lib.history.get(iid).unwrap();
        assert!(rec.definite, "interval escapes the 2-cycle");
        assert_eq!(lib.metrics().cycles_broken, 1);
    }

    #[test]
    fn algorithm_1_does_not_break_cycles() {
        let config = HopeConfig::algorithm_1();
        let mut lib = LibState::new(pid(1), config, Arc::new(HopeMetrics::new()));
        let iid = lib
            .history
            .open_interval(IntervalOrigin::ExplicitGuess { op: 0 }, [aid(1)]);
        let mut api = FakeApi::default();
        lib.handle_control(
            aid(1).process(),
            HopeMessage::Replace {
                iid,
                ido: IdoSet::singleton(aid(2)),
            },
            &mut api,
        );
        lib.handle_control(
            aid(2).process(),
            HopeMessage::Replace {
                iid,
                ido: IdoSet::singleton(aid(1)),
            },
            &mut api,
        );
        let rec = lib.history.get(iid).unwrap();
        assert!(
            !rec.definite,
            "Algorithm 1 re-acquires the dependency and keeps bouncing"
        );
        assert!(rec.ido.contains(&aid(1)));
    }

    #[test]
    fn replace_for_definite_interval_is_ignored() {
        let mut lib = fresh_lib();
        let root = lib.history.current().id;
        let mut api = FakeApi::default();
        lib.handle_control(
            aid(1).process(),
            HopeMessage::Replace {
                iid: root,
                ido: IdoSet::singleton(aid(2)),
            },
            &mut api,
        );
        assert!(lib.history.get(root).unwrap().ido.is_empty());
        assert!(api.sent.is_empty());
    }

    #[test]
    fn finalize_flushes_iha_and_ihd() {
        let mut lib = fresh_lib();
        let iid = lib
            .history
            .open_interval(IntervalOrigin::ExplicitGuess { op: 0 }, [aid(1)]);
        {
            let rec = lib.history.get_mut(iid).unwrap();
            rec.iha.insert(aid(5));
            rec.ihd.insert(aid(6));
        }
        let mut api = FakeApi::default();
        lib.handle_control(
            aid(1).process(),
            HopeMessage::Replace {
                iid,
                ido: IdoSet::new(),
            },
            &mut api,
        );
        let affirms: Vec<_> = api
            .sent
            .iter()
            .filter(|(_, m)| matches!(m, HopeMessage::Affirm { ido, .. } if ido.is_empty()))
            .collect();
        let denies: Vec<_> = api
            .sent
            .iter()
            .filter(|(_, m)| matches!(m, HopeMessage::Deny { .. }))
            .collect();
        assert_eq!(affirms.len(), 1);
        assert_eq!(affirms[0].0, aid(5).process());
        assert_eq!(denies.len(), 1);
        assert_eq!(denies[0].0, aid(6).process());
    }

    #[test]
    fn pending_rollback_blocks_finalize_of_doomed_interval() {
        let mut lib = fresh_lib();
        let iid = lib
            .history
            .open_interval(IntervalOrigin::ExplicitGuess { op: 0 }, [aid(1)]);
        let mut api = FakeApi::default();
        lib.handle_control(
            aid(1).process(),
            HopeMessage::Rollback { iid, cause: None },
            &mut api,
        );
        // A racing Replace empties the IDO, but the interval is doomed.
        lib.handle_control(
            aid(1).process(),
            HopeMessage::Replace {
                iid,
                ido: IdoSet::new(),
            },
            &mut api,
        );
        assert!(!lib.history.get(iid).unwrap().definite);
    }

    #[test]
    fn crash_recovery_dooms_all_speculative_intervals() {
        let mut lib = fresh_lib();
        let a = lib
            .history
            .open_interval(IntervalOrigin::ExplicitGuess { op: 0 }, [aid(1)]);
        let _b = lib
            .history
            .open_interval(IntervalOrigin::ExplicitGuess { op: 1 }, [aid(2)]);
        let mut api = FakeApi::default();
        assert!(lib.begin_crash_recovery(&mut api));
        assert_eq!(
            lib.pending_rollback,
            Some(PendingRollback {
                floor: a.index(),
                cause: None,
                crash: true
            }),
            "recovery rolls back to the first speculative interval"
        );
        assert_eq!(api.wakes, 1);
        assert_eq!(lib.metrics().crash_recoveries, 1);
    }

    #[test]
    fn crash_recovery_of_definite_history_is_a_noop() {
        let mut lib = fresh_lib();
        let mut api = FakeApi::default();
        assert!(!lib.begin_crash_recovery(&mut api), "root is definite");
        assert_eq!(lib.pending_rollback, None);
        assert_eq!(api.wakes, 0);
    }

    /// Intervals are matched by the whole id: another process's interval
    /// at an index this history holds is stale here.
    #[test]
    fn rollback_of_another_process_interval_is_stale_noop() {
        let mut lib = fresh_lib();
        lib.history
            .open_interval(IntervalOrigin::ExplicitGuess { op: 0 }, [aid(1)]);
        let mut api = FakeApi::default();
        let iid = IntervalId::new(pid(9), 1);
        lib.handle_control(
            aid(1).process(),
            HopeMessage::Rollback { iid, cause: None },
            &mut api,
        );
        assert_eq!(lib.pending_rollback, None);
        assert_eq!(api.wakes, 0);
    }
}
