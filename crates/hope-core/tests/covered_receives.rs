//! A receive the current interval already depends on is no rollback point
//! (DESIGN.md S9): when the current interval is speculative, has replaced
//! nothing away and its `IDO` holds every member of a message's tag, the
//! receive is logged but opens no interval.
//!
//! * The gate: one `perfbench` `stream_spec` round — 8 guesses spread over
//!   500 tagged messages, the consumer affirming them at the end — leaves
//!   the consumer with the root plus one interval per *new* assumption,
//!   on the simulator and on real threads at one and four shards. One
//!   interval per tagged receive is 501.
//! * Four semantic pins, which hold whether or not a covered receive is
//!   absorbed: a deny of a tag member, a deny of an `IDO` member outside
//!   the tag, crash recovery from a durable store, and a receive while the
//!   `UDO` is not empty.
//! * A property: one `LibState` that absorbs and one that opens an
//!   interval per receive, driven through the same random guesses,
//!   receives, speculative affirms, denies and finalizations against real
//!   [`AidMachine`]s, send and receive the same protocol messages, discard
//!   the same logged receives at every rollback, finalize at the same
//!   steps and end with the same current `IDO`.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use hope_core::{
    AidMachine, AidState, DurableConfig, HopeConfig, HopeEnv, HopeMetrics, IntervalOrigin,
    IntervalRecord, LibState, ProcessCtx, ThreadedHopeEnv,
};
use hope_runtime::{ControlApi, FaultPlan, NetworkConfig};
use hope_types::{
    AidId, HopeMessage, IdoSet, IntervalId, Payload, ProcessId, VirtualDuration, VirtualTime,
};
use proptest::prelude::*;
use std::sync::Mutex;

const CH_SETUP: u32 = 0;
const CH_DATA: u32 = 1;
const CH_GO: u32 = 2;

fn encode_aids(aids: &[AidId]) -> Bytes {
    aids.iter()
        .flat_map(|aid| aid.process().as_raw().to_le_bytes())
        .collect::<Vec<u8>>()
        .into()
}

fn decode_aids(data: &[u8]) -> Vec<AidId> {
    data.chunks_exact(8)
        .map(|c| {
            AidId::from_raw(ProcessId::from_raw(u64::from_le_bytes(
                c.try_into().unwrap(),
            )))
        })
        .collect()
}

fn network() -> NetworkConfig {
    NetworkConfig::constant(VirtualDuration::from_millis(1))
}

// ---------------------------------------------------------------------
// The gate: a stream_spec round
// ---------------------------------------------------------------------

/// Guesses per round, and messages they are spread over.
const DEPTH: u64 = 8;
const ROUND: u64 = 500;

fn round_consumer(ctx: &mut ProcessCtx, delivered: &AtomicU64) {
    let aids = decode_aids(&ctx.receive(Some(CH_SETUP)).data);
    let mut ok = 0;
    for k in 0..ROUND {
        let m = ctx.receive(Some(CH_DATA));
        ok += u64::from(m.data[..] == k.to_le_bytes());
    }
    for aid in aids {
        ctx.affirm(aid);
    }
    delivered.store(ok, Ordering::Relaxed);
}

fn round_producer(ctx: &mut ProcessCtx, consumer: ProcessId) {
    let aids: Vec<AidId> = (0..DEPTH).map(|_| ctx.aid_init()).collect();
    ctx.send(consumer, CH_SETUP, encode_aids(&aids));
    let stride = ROUND / DEPTH;
    for k in 0..ROUND {
        if k % stride == 0 {
            if let Some(&aid) = aids.get((k / stride) as usize) {
                assert!(ctx.guess(aid));
            }
        }
        ctx.send(consumer, CH_DATA, Bytes::from(k.to_le_bytes().to_vec()));
    }
    ctx.await_definite();
}

/// Every message's tag names the guesses made before it: the implicit
/// guesses a receive counts are the same whether it opens an interval.
fn tagged_members() -> u64 {
    let stride = ROUND / DEPTH;
    (0..ROUND).map(|k| (k / stride + 1).min(DEPTH)).sum()
}

fn assert_one_interval_per_assumption(
    rt: &str,
    history: &[IntervalRecord],
    delivered: u64,
    implicit_guesses: u64,
) {
    assert_eq!(delivered, ROUND, "{rt}: every message, in order");
    assert!(
        history.len() as u64 <= 1 + DEPTH,
        "{rt}: {} intervals for {DEPTH} assumptions",
        history.len()
    );
    assert!(history.iter().all(|r| r.definite), "{rt}");
    assert_eq!(implicit_guesses, tagged_members(), "{rt}");
}

#[test]
fn a_stream_round_opens_an_interval_per_assumption_not_per_message() {
    let mut env = HopeEnv::builder().seed(1).network(network()).build();
    let delivered = Arc::new(AtomicU64::new(0));
    let out = delivered.clone();
    let consumer = env.spawn_user("consumer", move |ctx| round_consumer(ctx, &out));
    env.spawn_user("producer", move |ctx| round_producer(ctx, consumer));
    let report = env.run();
    assert!(report.is_clean(), "{:?}", report.run.panics);
    assert!(report.run.blocked.is_empty(), "{:?}", report.run.blocked);
    assert_one_interval_per_assumption(
        "sim",
        &env.history_of(consumer).unwrap(),
        delivered.load(Ordering::Relaxed),
        report.hope.implicit_guesses,
    );
}

#[test]
fn a_stream_round_on_threads_opens_an_interval_per_assumption() {
    for shards in [1, 4] {
        let env = ThreadedHopeEnv::builder().seed(1).shards(shards).build();
        let delivered = Arc::new(AtomicU64::new(0));
        let out = delivered.clone();
        let consumer = env.spawn_user("consumer", move |ctx| round_consumer(ctx, &out));
        env.spawn_user("producer", move |ctx| round_producer(ctx, consumer));
        let report = env.run_until_quiescent(Duration::from_millis(50), Duration::from_secs(30));
        assert!(report.panics.is_empty(), "{:?}", report.panics);
        assert!(report.blocked.is_empty(), "{:?}", report.blocked);
        assert_one_interval_per_assumption(
            &format!("shards={shards}"),
            &env.history_of(consumer).unwrap(),
            delivered.load(Ordering::Relaxed),
            env.metrics().implicit_guesses,
        );
    }
}

// ---------------------------------------------------------------------
// Semantic pins
// ---------------------------------------------------------------------

const SPEC1: &[u8] = b"spec1";
const SPEC2: &[u8] = b"spec2";
const DEF1: &[u8] = b"def1";
const DEF2: &[u8] = b"def2";

type Slot = Arc<Mutex<Option<(Bytes, Bytes)>>>;

/// (a) The consumer takes two messages tagged `{x}`; the second is covered
/// by the first's interval. Denying `x` rolls the consumer back to the
/// first (the boundary message goes with it) and requeues the second,
/// which the known-denied gate then drops: one re-execution there, and
/// the committed messages are the producer's definite ones.
#[test]
fn denying_a_tag_member_drops_the_covered_message_on_re_receive() {
    let mut env = HopeEnv::builder().seed(3).network(network()).build();
    let seen = Slot::default();
    let out = seen.clone();
    let consumer = env.spawn_user("consumer", move |ctx| {
        let first = ctx.receive(Some(CH_DATA)).data;
        let second = ctx.receive(Some(CH_DATA)).data;
        ctx.await_definite();
        *out.lock().unwrap() = Some((first, second));
    });
    let resolver = env.spawn_user("resolver", |ctx| {
        let x = decode_aids(&ctx.receive(Some(CH_SETUP)).data)[0];
        ctx.compute(VirtualDuration::from_millis(5)); // both consumed by now
        ctx.deny(x);
    });
    env.spawn_user("producer", move |ctx| {
        let x = ctx.aid_init();
        ctx.send(resolver, CH_SETUP, encode_aids(&[x]));
        if ctx.guess(x) {
            ctx.send(consumer, CH_DATA, Bytes::from_static(SPEC1));
            ctx.send(consumer, CH_DATA, Bytes::from_static(SPEC2));
            ctx.await_definite();
        } else {
            ctx.send(consumer, CH_DATA, Bytes::from_static(DEF1));
            ctx.send(consumer, CH_DATA, Bytes::from_static(DEF2));
        }
    });
    let report = env.run();
    assert!(report.is_clean(), "{:?}", report.run.panics);
    assert!(report.run.blocked.is_empty(), "{:?}", report.run.blocked);
    let committed = (Bytes::from_static(DEF1), Bytes::from_static(DEF2));
    assert_eq!(*seen.lock().unwrap(), Some(committed));
    assert_eq!(
        report.hope.reexecutions, 2,
        "producer and consumer once each"
    );
    assert_eq!(report.hope.cancelled_intervals, 1, "{:?}", report.hope);
}

/// (b) The consumer's `IDO` is `{x, y}` — `x` from a message tag, `y` its
/// own guess — when a second message tagged `{x}` arrives. Denying `y`
/// rolls back to the guess; the message is requeued and received exactly
/// once more, by the pessimistic branch, not dropped.
#[test]
fn denying_an_ido_member_outside_the_tag_requeues_the_covered_message() {
    let mut env = HopeEnv::builder().seed(3).network(network()).build();
    let seen = Slot::default();
    let deliveries = Arc::new(AtomicU64::new(0));
    let (out, count) = (seen.clone(), deliveries.clone());
    let consumer = env.spawn_user("consumer", move |ctx| {
        let x = decode_aids(&ctx.receive(Some(CH_SETUP)).data)[0];
        let first = ctx.receive(Some(CH_DATA)).data;
        let y = ctx.aid_init();
        if ctx.guess(y) {
            let _ = ctx.receive(Some(CH_DATA));
            count.fetch_add(1, Ordering::Relaxed);
            ctx.deny(y);
            ctx.await_definite();
            unreachable!("the deny of `y` rolls this branch back");
        }
        let second = ctx.receive(Some(CH_DATA)).data;
        count.fetch_add(1, Ordering::Relaxed);
        assert!(ctx.try_receive(Some(CH_DATA)).is_none(), "no second copy");
        ctx.affirm(x);
        ctx.await_definite();
        *out.lock().unwrap() = Some((first, second));
    });
    env.spawn_user("producer", move |ctx| {
        let x = ctx.aid_init();
        ctx.send(consumer, CH_SETUP, encode_aids(&[x]));
        assert!(ctx.guess(x));
        ctx.send(consumer, CH_DATA, Bytes::from_static(SPEC1));
        ctx.send(consumer, CH_DATA, Bytes::from_static(SPEC2));
        ctx.await_definite();
    });
    let report = env.run();
    assert!(report.is_clean(), "{:?}", report.run.panics);
    assert!(report.run.blocked.is_empty(), "{:?}", report.run.blocked);
    let committed = (Bytes::from_static(SPEC1), Bytes::from_static(SPEC2));
    assert_eq!(*seen.lock().unwrap(), Some(committed));
    assert_eq!(deliveries.load(Ordering::Relaxed), 2);
    assert_eq!(report.hope.reexecutions, 1, "{:?}", report.hope);
    assert_eq!(report.hope.cancelled_intervals, 0, "{:?}", report.hope);
}

/// The program of (c): two messages tagged `{x}` that a resolver affirms
/// 10 ms after the consumer has taken both.
fn run_affirmed_pair(
    configure: impl FnOnce(hope_core::HopeEnvBuilder) -> hope_core::HopeEnvBuilder,
) -> (Option<(Bytes, Bytes)>, hope_core::HopeReport, ProcessId) {
    let mut env = configure(HopeEnv::builder().seed(5).network(network())).build();
    let seen = Slot::default();
    let out = seen.clone();
    let consumer = env.spawn_user("consumer", move |ctx| {
        let first = ctx.receive(Some(CH_DATA)).data;
        let second = ctx.receive(Some(CH_DATA)).data;
        ctx.await_definite();
        *out.lock().unwrap() = Some((first, second));
    });
    let resolver = env.spawn_user("resolver", |ctx| {
        let x = decode_aids(&ctx.receive(Some(CH_SETUP)).data)[0];
        ctx.compute(VirtualDuration::from_millis(10));
        ctx.affirm(x);
    });
    env.spawn_user("producer", move |ctx| {
        let x = ctx.aid_init();
        ctx.send(resolver, CH_SETUP, encode_aids(&[x]));
        assert!(ctx.guess(x));
        ctx.send(consumer, CH_DATA, Bytes::from_static(SPEC1));
        ctx.send(consumer, CH_DATA, Bytes::from_static(SPEC2));
        ctx.await_definite();
    });
    let report = env.run();
    assert!(report.is_clean(), "{:?}", report.run.panics);
    assert!(report.run.blocked.is_empty(), "{:?}", report.run.blocked);
    if let Some(store) = env.store_stats() {
        assert_eq!(store.frontier_violations, 0, "{store:?}");
    }
    let outcome = seen.lock().unwrap().clone();
    (outcome, report, consumer)
}

/// (c) A crash while both messages are consumed and `x` is still open:
/// recovery from the durable store rolls back to the first receive and
/// restores both messages — the boundary one too, since no assumption
/// failed — and the run commits what the crash-free run commits.
#[test]
fn crash_recovery_from_a_durable_store_restores_the_covered_message() {
    let (plain, plain_report, _) = run_affirmed_pair(|b| b);
    let crash = FaultPlan::new()
        .seed(5)
        .crash(
            ProcessId::from_raw(0),
            VirtualTime::from_nanos(5_000_000),
            VirtualDuration::from_millis(1),
        )
        .rto(VirtualDuration::from_millis(5));
    let (durable, report, consumer) =
        run_affirmed_pair(|b| b.faults(crash).durable(DurableConfig::default()));
    assert_eq!(consumer, ProcessId::from_raw(0));
    assert_eq!(report.hope.crash_recoveries, 1, "{:?}", report.hope);
    assert_eq!(report.hope.cancelled_intervals, 0);
    let committed = (Bytes::from_static(SPEC1), Bytes::from_static(SPEC2));
    assert_eq!(durable, Some(committed));
    assert_eq!(durable, plain);
    assert_eq!(
        report.hope.finalized_intervals,
        plain_report.hope.finalized_intervals
    );
}

/// (d) The consumer's first interval depends on `x`; a resolver
/// speculative on `z` affirms `x`, so a `Replace` swaps `x` for `z` and
/// puts `x` in the interval's `UDO`. A message tagged `{z}` arriving then
/// is covered by the `IDO` but still opens an interval.
#[test]
fn a_receive_while_the_udo_is_not_empty_opens_an_interval() {
    let mut env = HopeEnv::builder().seed(3).network(network()).build();
    let opened = Arc::new(Mutex::new(None));
    let out = opened.clone();
    let consumer = env.spawn_user("consumer", move |ctx| {
        let _ = ctx.receive(Some(CH_DATA));
        let before = ctx.current_interval();
        let _ = ctx.receive(Some(CH_DATA));
        let after = ctx.current_interval();
        ctx.await_definite();
        *out.lock().unwrap() = Some(before != after);
    });
    let resolver = env.spawn_user("resolver", |ctx| {
        let m = ctx.receive(Some(CH_SETUP));
        let x = decode_aids(&m.data)[0];
        let z = ctx.aid_init();
        assert!(ctx.guess(z));
        ctx.affirm(x); // speculative: x now stands for z
        ctx.send(m.src, CH_GO, Bytes::new());
        ctx.compute(VirtualDuration::from_millis(20));
        ctx.affirm(z);
    });
    env.spawn_user("producer", move |ctx| {
        let x = ctx.aid_init();
        ctx.send(resolver, CH_SETUP, encode_aids(&[x]));
        assert!(ctx.guess(x));
        ctx.send(consumer, CH_DATA, Bytes::from_static(SPEC1));
        let _ = ctx.receive(Some(CH_GO));
        // Long after the consumer has had its `Replace`.
        ctx.compute(VirtualDuration::from_millis(5));
        ctx.send(consumer, CH_DATA, Bytes::from_static(SPEC2));
        ctx.await_definite();
    });
    let report = env.run();
    assert!(report.is_clean(), "{:?}", report.run.panics);
    assert!(report.run.blocked.is_empty(), "{:?}", report.run.blocked);
    assert_eq!(*opened.lock().unwrap(), Some(true));
    let history = env.history_of(consumer).unwrap();
    assert_eq!(history.len(), 3, "root, the first receive, the second");
    assert!(!history[1].udo.is_empty(), "{:?}", history[1]);
    assert!(history.iter().all(|r| r.definite));
}

// ---------------------------------------------------------------------
// The property: absorbing against opening an interval per receive
// ---------------------------------------------------------------------

const ME: u64 = 1;
const AIDS: u64 = 4;

fn aid(n: u64) -> AidId {
    AidId::from_raw(ProcessId::from_raw(100 + n))
}

fn aid_index(pid: ProcessId) -> usize {
    (pid.as_raw() - 100) as usize
}

/// The low `AIDS` bits of `bits` as a set of assumptions.
fn aids(bits: u8) -> IdoSet {
    (0..AIDS)
        .filter(|bit| bits >> bit & 1 == 1)
        .map(aid)
        .collect()
}

/// A `ControlApi` that only collects what `Control` sends.
#[derive(Default)]
struct Outbox(Vec<(ProcessId, HopeMessage)>);

impl ControlApi for Outbox {
    fn pid(&self) -> ProcessId {
        ProcessId::from_raw(ME)
    }
    fn now(&self) -> VirtualTime {
        VirtualTime::ZERO
    }
    fn send(&mut self, dst: ProcessId, payload: Payload) {
        let Payload::Hope(msg) = payload else {
            panic!("control only sends HOPE messages")
        };
        self.0.push((dst, msg));
    }
    fn wake(&mut self) {}
}

/// One logged operation of the user process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Logged {
    Guess { aid: u64 },
    Receive { tag: u8 },
}

/// What crossed the boundary between the process and its AIDs, with
/// every interval named by the log index of the op that opened it — the
/// one name both histories share (`None` for the root or a stale id).
#[derive(Debug, Clone, PartialEq, Eq)]
enum Traffic {
    ToAid {
        aid: usize,
        msg: String,
    },
    FromAid {
        aid: usize,
        msg: String,
    },
    RolledBack {
        boundary: usize,
        requeued: Vec<usize>,
    },
}

#[derive(Debug, Clone)]
enum Step {
    Guess {
        aid: u8,
    },
    /// A receive tagged with `bits ∩ current IDO` when that is not empty
    /// (a covered receive), else with `bits`.
    CoveredReceive {
        bits: u8,
    },
    Receive {
        bits: u8,
    },
    /// The AID is affirmed from elsewhere, subject to `ido`: a `Replace`
    /// to every registrant.
    Affirm {
        aid: u8,
        ido: u8,
    },
    Deny {
        aid: u8,
    },
    Finalize,
}

fn step() -> impl Strategy<Value = Step> {
    prop_oneof![
        4 => any::<u8>().prop_map(|aid| Step::Guess { aid }),
        6 => any::<u8>().prop_map(|bits| Step::CoveredReceive { bits }),
        2 => any::<u8>().prop_map(|bits| Step::Receive { bits }),
        3 => (any::<u8>(), any::<u8>()).prop_map(|(aid, ido)| Step::Affirm { aid, ido }),
        2 => any::<u8>().prop_map(|aid| Step::Deny { aid }),
        1 => Just(Step::Finalize),
    ]
}

/// One process, its op log and the AIDs it talks to, every message
/// delivered at once in FIFO order.
struct World {
    absorb: bool,
    lib: LibState,
    machines: Vec<AidMachine>,
    log: Vec<Logged>,
    traffic: Vec<Traffic>,
}

impl World {
    fn new(absorb: bool) -> Self {
        let me = ProcessId::from_raw(ME);
        let lib = LibState::new(me, HopeConfig::new(), Arc::new(HopeMetrics::new()));
        World {
            absorb,
            lib,
            machines: (0..AIDS).map(|_| AidMachine::new()).collect(),
            log: Vec::new(),
            traffic: Vec::new(),
        }
    }

    fn opened_by(&self, iid: IntervalId) -> Option<usize> {
        match self.lib.history.get(iid)?.origin {
            IntervalOrigin::Root => None,
            IntervalOrigin::ExplicitGuess { op } | IntervalOrigin::ImplicitReceive { op } => {
                Some(op)
            }
        }
    }

    fn named(&self, msg: &HopeMessage) -> String {
        match msg {
            HopeMessage::Guess { iid } => format!("Guess({:?})", self.opened_by(*iid)),
            HopeMessage::Replace { iid, ido } => {
                format!("Replace({:?}, {:?})", self.opened_by(*iid), ido)
            }
            HopeMessage::Rollback { iid, cause } => {
                format!("Rollback({:?}, {:?})", self.opened_by(*iid), cause)
            }
            other => format!("{other:?}"),
        }
    }

    /// Delivers `first` and everything it causes, performing each
    /// rollback `Control` asks for once the queue is drained.
    fn deliver(&mut self, first: Vec<(ProcessId, HopeMessage)>) {
        let mut queue: VecDeque<(bool, ProcessId, HopeMessage)> =
            first.into_iter().map(|(to, m)| (true, to, m)).collect();
        loop {
            while let Some((to_aid, pid, msg)) = queue.pop_front() {
                if to_aid {
                    let n = aid_index(pid);
                    self.traffic.push(Traffic::ToAid {
                        aid: n,
                        msg: self.named(&msg),
                    });
                    for reply in self.machines[n].on_message(aid(n as u64), msg) {
                        queue.push_back((false, pid, reply));
                    }
                } else {
                    self.traffic.push(Traffic::FromAid {
                        aid: aid_index(pid),
                        msg: self.named(&msg),
                    });
                    let mut out = Outbox::default();
                    self.lib.handle_control(pid, msg, &mut out);
                    queue.extend(out.0.into_iter().map(|(to, m)| (true, to, m)));
                }
            }
            if !self.roll_back() {
                return;
            }
        }
    }

    /// `env.rs`'s `perform_rollback`, as far as the history and the log go.
    fn roll_back(&mut self) -> bool {
        let Some(pending) = self.lib.pending_rollback.take() else {
            return false;
        };
        let target = self
            .lib
            .history
            .live()
            .iter()
            .find(|r| r.id.index() >= pending.floor && !r.definite)
            .map(|r| r.id);
        let Some(target) = target else {
            return true;
        };
        let discarded = self.lib.history.truncate_from(target).expect("live");
        let boundary = &discarded[0];
        let own = pending.cause.is_none_or(|c| boundary.trigger.contains(&c));
        let (op, keep) = match boundary.origin {
            IntervalOrigin::ExplicitGuess { op } => (op, if own { op + 1 } else { op }),
            IntervalOrigin::ImplicitReceive { op } => (op, op),
            IntervalOrigin::Root => unreachable!("the root is definite"),
        };
        let requeued = (op + 1..self.log.len())
            .filter(|&at| matches!(self.log[at], Logged::Receive { .. }))
            .collect();
        self.log.truncate(keep);
        self.traffic.push(Traffic::RolledBack {
            boundary: op,
            requeued,
        });
        true
    }

    /// `ProcessCtx::guess` under the default policy.
    fn guess(&mut self, n: u64) {
        let a = aid(n);
        self.log.push(Logged::Guess { aid: n });
        if self.lib.is_known_denied(&a) {
            return;
        }
        let op = self.log.len() - 1;
        let iid = self
            .lib
            .history
            .open_interval(IntervalOrigin::ExplicitGuess { op }, [a]);
        let pos = self.lib.history.intervals().len() - 1;
        if !self.lib.history.held_before(pos, &a) {
            self.deliver(vec![(a.process(), HopeMessage::Guess { iid })]);
        }
    }

    /// `ProcessCtx::receive` of a message tagged `tag`, through
    /// `open_implicit` — which absorbs a covered receive or not.
    fn receive(&mut self, tag: u8) {
        let tag_set = aids(tag);
        if tag_set.iter().any(|a| self.lib.is_known_denied(a)) {
            return; // dropped on sight, never logged
        }
        self.log.push(Logged::Receive { tag });
        if tag_set.is_empty() || (self.absorb && self.lib.history.covers(&tag_set)) {
            return;
        }
        let op = self.log.len() - 1;
        let iid = self.lib.history.open_interval(
            IntervalOrigin::ImplicitReceive { op },
            tag_set.iter().copied(),
        );
        let pos = self.lib.history.intervals().len() - 1;
        let guesses = tag_set
            .iter()
            .filter(|y| !self.lib.history.held_before(pos, y))
            .map(|y| (y.process(), HopeMessage::Guess { iid }))
            .collect();
        self.deliver(guesses);
    }

    fn apply(&mut self, step: &Step) {
        match *step {
            Step::Guess { aid } => self.guess(u64::from(aid) % AIDS),
            Step::CoveredReceive { bits } => {
                let ido = self.lib.history.current().ido.clone();
                let covered: u8 = (0..AIDS as u8)
                    .filter(|&bit| bits >> bit & 1 == 1 && ido.contains(&aid(u64::from(bit))))
                    .fold(0, |acc, bit| acc | 1 << bit);
                self.receive(if covered != 0 { covered } else { bits });
            }
            Step::Receive { bits } => self.receive(bits),
            Step::Affirm { aid: n, ido } => {
                let n = u64::from(n) % AIDS;
                // One resolution per assumption: a second speculative affirm
                // would re-send `Replace` to intervals that already
                // swapped the AID out (DESIGN.md S9).
                if matches!(
                    self.machines[n as usize].state(),
                    AidState::Cold | AidState::Hot
                ) {
                    let mut ido = aids(ido);
                    ido.remove(&aid(n));
                    let affirm = HopeMessage::Affirm { iid: None, ido };
                    self.deliver(vec![(aid(n).process(), affirm)]);
                }
            }
            Step::Deny { aid: n } => {
                let n = u64::from(n) % AIDS;
                if !self.machines[n as usize].state().is_final() {
                    let deny = HopeMessage::Deny { iid: None };
                    self.deliver(vec![(aid(n).process(), deny)]);
                }
            }
            Step::Finalize => {
                let mut out = Outbox::default();
                self.lib.finalize_ready(&mut out);
                self.deliver(out.0);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn absorbing_a_covered_receive_changes_nothing_but_the_interval_count(
        steps in proptest::collection::vec(step(), 0..80)
    ) {
        let (mut absorbing, mut reference) = (World::new(true), World::new(false));
        for step in &steps {
            absorbing.apply(step);
            reference.apply(step);
            prop_assert_eq!(&absorbing.traffic, &reference.traffic, "after {:?}", step);
            prop_assert_eq!(&absorbing.log, &reference.log);
            let (a, r) = (&absorbing.lib, &reference.lib);
            prop_assert_eq!(a.definite_floor_op(), r.definite_floor_op());
            prop_assert_eq!(a.history.fully_definite(), r.history.fully_definite());
            prop_assert_eq!(&a.history.current().ido, &r.history.current().ido);
            prop_assert!(a.history.intervals().len() <= r.history.intervals().len());
        }
    }
}
