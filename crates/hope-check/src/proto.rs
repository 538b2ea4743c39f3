//! Protocol-level exhaustive exploration over the **real** HOPElib.
//!
//! `hope-core/tests/exhaustive_interleavings.rs` explores the mutual-affirm
//! ring with the real [`AidMachine`] but a hand-written *model* of the
//! Control replace rule. This module closes that gap: the user side of
//! every transition runs the real [`LibState::handle_control`] (Algorithm 2
//! itself), with the library's history swapped in and out around the call.
//! There are no threads and no runtime — a state is a plain value, so the
//! engine can do exact-state (not hashed) deduplication and exhaustive DFS
//! exactly like the model test, and the two reachable-state counts can be
//! compared one-to-one (see `tests/proto_parity.rs`).
//!
//! The engine is only exercised on workloads that never roll back (the
//! rings): a rollback's second phase runs on the user *thread*, which this
//! thread-free engine deliberately does not model.

use std::collections::HashSet;
use std::sync::Arc;

use hope_core::{
    AidMachine, History, HopeConfig, HopeMetrics, IntervalOrigin, IntervalRecord, LibState,
    PendingRollback,
};
use hope_runtime::ControlApi;
use hope_types::{AidId, HopeMessage, IdoSet, IntervalId, Payload, ProcessId, VirtualTime};

/// AID `k` lives at process `100 + k` — the same convention as the model
/// test, so states correspond message-for-message.
const AID_BASE: u64 = 100;

/// Model AID identities.
pub fn aid(k: usize) -> AidId {
    AidId::from_raw(ProcessId::from_raw(AID_BASE + k as u64))
}

fn aid_index(pid: ProcessId) -> usize {
    (pid.as_raw() - AID_BASE) as usize
}

/// User process `p`'s identity.
pub fn user_pid(p: usize) -> ProcessId {
    ProcessId::from_raw(p as u64)
}

/// Process `p`'s single speculative interval (index 1; 0 is the root).
pub fn iid(p: usize) -> IntervalId {
    IntervalId::new(user_pid(p), 1)
}

/// One in-flight protocol message.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ProtoMsg {
    /// To AID `k`.
    ToAid(usize, HopeMessage),
    /// To the Control of user process `p`, from AID `k`.
    ToUser(usize, usize, HopeMessage),
}

/// The HOPElib-side state of one user process.
#[derive(Debug, Clone)]
pub struct UserSlot {
    /// The process's interval history (the real `History` type).
    pub history: History,
    /// An accepted-but-unexecuted rollback, if any.
    pub pending_rollback: Option<PendingRollback>,
}

/// One global protocol state: every AID machine, every user history, and
/// the multiset of in-flight messages (kept canonically sorted).
#[derive(Debug, Clone)]
pub struct ProtoState {
    /// AID machines, indexed by AID number.
    pub aids: Vec<AidMachine>,
    /// User HOPElib states, indexed by process number.
    pub users: Vec<UserSlot>,
    /// In-flight messages, canonically sorted.
    pub pending: Vec<ProtoMsg>,
}

/// Exact-equality key for deduplication ([`History`] itself is not `Eq`;
/// its interval records are).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct StateKey {
    aids: Vec<AidMachine>,
    users: Vec<(Vec<IntervalRecord>, Option<PendingRollback>)>,
    pending: Vec<ProtoMsg>,
}

impl ProtoState {
    fn canonical(mut self) -> Self {
        self.pending.sort();
        self
    }

    fn key(&self) -> StateKey {
        StateKey {
            aids: self.aids.clone(),
            users: self
                .users
                .iter()
                .map(|u| (u.history.intervals().to_vec(), u.pending_rollback))
                .collect(),
            pending: self.pending.clone(),
        }
    }

    /// True when every user interval is definite.
    pub fn fully_definite(&self) -> bool {
        self.users.iter().all(|u| u.history.fully_definite())
    }
}

/// Collects what the real Control sends during one `handle_control` call.
struct CollectApi {
    pid: ProcessId,
    out: Vec<(ProcessId, Payload)>,
}

impl ControlApi for CollectApi {
    fn pid(&self) -> ProcessId {
        self.pid
    }
    fn now(&self) -> VirtualTime {
        VirtualTime::ZERO
    }
    fn send(&mut self, dst: ProcessId, payload: Payload) {
        self.out.push((dst, payload));
    }
    fn wake(&mut self) {}
}

/// Delivers pending message `idx`, returning the successor state. The user
/// side runs the real `LibState` (constructed fresh for the process and
/// loaded with the state's history — `LibState` is not `Clone`, its state
/// is).
pub fn step(state: &ProtoState, idx: usize, config: HopeConfig) -> ProtoState {
    let mut next = state.clone();
    let msg = next.pending.remove(idx);
    match msg {
        ProtoMsg::ToAid(k, m) => {
            let replies = next.aids[k].on_message(aid(k), m);
            for reply in replies {
                let p = reply.interval().process().as_raw() as usize;
                next.pending.push(ProtoMsg::ToUser(p, k, reply));
            }
        }
        ProtoMsg::ToUser(p, from_aid, m) => {
            let mut lib = LibState::new(user_pid(p), config, Arc::new(HopeMetrics::new()));
            lib.history = next.users[p].history.clone();
            lib.pending_rollback = next.users[p].pending_rollback;
            let mut api = CollectApi {
                pid: user_pid(p),
                out: Vec::new(),
            };
            lib.handle_control(ProcessId::from_raw(AID_BASE + from_aid as u64), m, &mut api);
            next.users[p].history = lib.history.clone();
            next.users[p].pending_rollback = lib.pending_rollback;
            for (dst, payload) in api.out {
                let Payload::Hope(hope) = payload else {
                    panic!("Control only sends protocol messages, got {payload:?}");
                };
                next.pending.push(ProtoMsg::ToAid(aid_index(dst), hope));
            }
        }
    }
    next.canonical()
}

/// The mutual-affirm ring of size `n`, set up exactly like the model
/// test's `ring_initial`: process `i` has one speculative interval
/// depending on AID `i` (registered: AIDs are `Hot`), has speculatively
/// affirmed AID `(i+1) mod n` (in `IHA`), and that affirm — subject to
/// `{AID i}` — is in flight.
pub fn ring_initial(n: usize) -> ProtoState {
    let mut aids = Vec::new();
    for i in 0..n {
        let mut machine = AidMachine::new();
        machine.on_message(aid(i), HopeMessage::Guess { iid: iid(i) });
        aids.push(machine);
    }
    let mut users = Vec::new();
    let mut pending = Vec::new();
    for i in 0..n {
        let mut history = History::new(user_pid(i));
        let id = history.open_interval(IntervalOrigin::ExplicitGuess { op: 0 }, [aid(i)]);
        assert_eq!(id, iid(i));
        history
            .get_mut(id)
            .expect("just opened")
            .iha
            .insert(aid((i + 1) % n));
        users.push(UserSlot {
            history,
            pending_rollback: None,
        });
        pending.push(ProtoMsg::ToAid(
            (i + 1) % n,
            HopeMessage::Affirm {
                iid: Some(iid(i)),
                ido: IdoSet::singleton(aid(i)),
            },
        ));
    }
    ProtoState {
        aids,
        users,
        pending,
    }
    .canonical()
}

/// Coverage summary of [`explore`].
#[derive(Debug)]
pub struct ProtoReport {
    /// Distinct states visited (terminal states included), the number the
    /// model test's `explore` also reports.
    pub visited: usize,
    /// Distinct terminal (no messages in flight) states.
    pub terminals: usize,
    /// The state graph contains a cycle (livelock).
    pub found_cycle: bool,
}

/// Exhaustive DFS over all delivery orders, with exact-state dedup and
/// on-stack cycle detection — the same exploration the model test runs,
/// but with the real Control. Panics if more than `limit` states are
/// reached. `on_terminal` sees every distinct terminal state once.
pub fn explore(
    initial: ProtoState,
    config: HopeConfig,
    limit: usize,
    mut on_terminal: impl FnMut(&ProtoState),
) -> ProtoReport {
    let mut visited: HashSet<StateKey> = HashSet::new();
    let mut on_stack: HashSet<StateKey> = HashSet::new();
    let mut terminals = 0usize;
    let mut found_cycle = false;
    enum Frame {
        Enter(ProtoState),
        Exit(StateKey),
    }
    let mut stack = vec![Frame::Enter(initial)];
    while let Some(frame) = stack.pop() {
        match frame {
            Frame::Exit(key) => {
                on_stack.remove(&key);
            }
            Frame::Enter(state) => {
                let key = state.key();
                if on_stack.contains(&key) {
                    found_cycle = true;
                    continue;
                }
                if !visited.insert(key.clone()) {
                    continue;
                }
                assert!(
                    visited.len() <= limit,
                    "state space exceeded {limit} states"
                );
                if state.pending.is_empty() {
                    terminals += 1;
                    on_terminal(&state);
                    continue;
                }
                on_stack.insert(key.clone());
                stack.push(Frame::Exit(key));
                for idx in 0..state.pending.len() {
                    stack.push(Frame::Enter(step(&state, idx, config)));
                }
            }
        }
    }
    ProtoReport {
        visited: visited.len(),
        terminals,
        found_cycle,
    }
}
