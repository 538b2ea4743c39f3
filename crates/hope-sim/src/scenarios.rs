//! Checker scenario adapters: small environments built for `hope-check`'s
//! schedule exploration rather than for timing experiments.
//!
//! Every scenario here uses a **zero-latency** network, which pins the
//! virtual clock to 0 for the whole run. That matters for state-hash
//! deduplication: two schedules that deliver commuting messages in either
//! order then reach the *same* state only if no timestamps diverged along
//! the way. Scenario builders return an un-run [`HopeEnv`]; the checker
//! drives it step by step through the runtime's scheduler hook.

use std::hash::{Hash, Hasher};

use bytes::Bytes;
use hope_core::{DurableConfig, HopeEnv, HopeEnvBuilder, SpecPolicy, SyncPolicy};
use hope_runtime::{Actor, ActorApi, FaultPlan, NetworkConfig};
use hope_types::{AidId, Envelope, Payload, ProcessId, VirtualDuration, VirtualTime};

use crate::rings::spawn_ring;
use crate::{aid_of, decode_aids, decode_u64s, encode_aids, encode_u64s};

/// What every checker scenario is built on: a zero-latency network,
/// Algorithm 2 and a generous event limit.
fn checker_env(seed: u64) -> HopeEnvBuilder {
    HopeEnv::builder()
        .seed(seed)
        .network(NetworkConfig::constant(VirtualDuration::ZERO))
        .cycle_detection(true)
        .max_events(1_000_000)
}

/// The crash rings' plan: ring-0 (pid 0, the first spawn) crashes and
/// restarts at virtual time zero over a lossless wire. Retransmits are
/// capped at 6 so a random walk can abandon a message for good.
fn crash_ring_0(seed: u64) -> FaultPlan {
    FaultPlan::new()
        .seed(seed)
        .crash(
            ProcessId::from_raw(0),
            VirtualTime::ZERO,
            VirtualDuration::ZERO,
        )
        .rto(VirtualDuration::from_millis(5))
        .max_retransmits(6)
}

/// Builds (without running) a mutual-affirm ring of size `n`, the paper's
/// F13 interference cycle: process *i* guesses AID *i* and affirms AID
/// *(i+1) mod n*. Under Algorithm 2 (`cycle_detection = true`) every
/// schedule must converge with all intervals finalized; under Algorithm 1
/// the ring livelocks (§5.3).
pub fn ring(n: usize, cycle_detection: bool, seed: u64) -> HopeEnv {
    let mut env = checker_env(seed).cycle_detection(cycle_detection).build();
    spawn_ring(&mut env, n, None);
    env
}

/// A ring under Algorithm 2 plus a scheduled crash/restart of ring process
/// 0 at virtual time zero. The fault plan enables the reliable-delivery
/// sublayer, so the checker also explores orderings of retransmission
/// timers against deliveries and the crash window. Because a schedule can
/// deliver every copy of a message inside the down window (losing it for
/// good), convergence is *not* guaranteed here — safety and crash-recovery
/// equivalence are.
pub fn chaos_ring(n: usize, seed: u64) -> HopeEnv {
    let mut env = checker_env(seed).faults(crash_ring_0(seed)).build();
    let ring = spawn_ring(&mut env, n, None);
    assert_eq!(ring[0].as_raw(), 0, "crash plan must target ring-0");
    env
}

/// A mutual-affirm ring plus a **persistently denied** "storm" AID, under
/// a configurable speculation policy (DESIGN.md §9). Every ring process
/// first affirms its successor's AID — unconditionally, so ring progress
/// is never gated behind this process's own guesses (under
/// [`SpecPolicy::Pessimistic`], which waits at the guess, a guarded affirm
/// would deadlock the ring) — then guesses the storm AID the coordinator
/// is about to deny, then its own. Lossless and crash-free, so every
/// schedule must converge with all intervals definite and within the
/// wait-freedom step bound, whichever policy is active: unthrottled
/// optimism eats the rollback, throttled processes must be woken by the
/// `Replace`/`Rollback` that resolves their parked guess.
pub fn deny_storm(n: usize, policy: SpecPolicy, seed: u64) -> HopeEnv {
    assert!(n >= 2, "a storm ring needs at least two processes");
    let mut env = checker_env(seed).spec_policy(policy).build();
    let mut pids = Vec::new();
    for i in 0..n {
        let pid = env.spawn_user(&format!("storm-{i}"), move |ctx| {
            let m = ctx.receive(None);
            let aids = decode_aids(&m.data);
            let ring = aids.len() - 1; // last AID is the storm
            let mine = aids[i];
            let next = aids[(i + 1) % ring];
            let storm = aids[ring];
            ctx.affirm(next);
            let _doomed = ctx.guess(storm);
            let _ = ctx.guess(mine);
        });
        pids.push(pid);
    }
    env.spawn_user("coordinator", move |ctx| {
        let mut aids: Vec<AidId> = (0..=pids.len()).map(|_| ctx.aid_init()).collect();
        let payload = encode_aids(&aids);
        for &p in &pids {
            ctx.send(p, 0, payload.clone());
        }
        let storm = aids.pop().expect("storm AID");
        ctx.deny(storm);
    });
    env
}

/// The world outside the computation: an actor that keeps every user
/// message sent to it. A scenario's processes report what they committed
/// to it — from definite state, as output must be (paper §3) — and the
/// checker compares that across schedules and policies.
#[derive(Debug, Default, Clone)]
pub struct Ledger {
    entries: Vec<(u32, Bytes)>,
    tainted: bool,
}

impl Ledger {
    /// The `(channel, payload)` of every message received, sorted: who
    /// reported first is up to the schedule, what was reported is not.
    pub fn committed(&self) -> &[(u32, Bytes)] {
        &self.entries
    }

    /// True if any report carried a dependency tag, i.e. was sent from a
    /// speculative interval.
    pub fn tainted(&self) -> bool {
        self.tainted
    }
}

impl Actor for Ledger {
    fn on_message(&mut self, envelope: Envelope, _api: &mut dyn ActorApi) {
        if let Payload::User(msg) = envelope.payload {
            self.tainted |= !msg.tag.is_empty();
            let entry = (msg.channel, msg.data);
            let at = self.entries.partition_point(|held| held <= &entry);
            self.entries.insert(at, entry);
        }
    }

    fn describe(&self) -> String {
        "ledger".to_string()
    }

    fn state_hash(&self) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        (&self.entries, self.tainted).hash(&mut h);
        h.finish()
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }
}

const CH_REQUEST: u32 = 0;
const CH_PROGRESS: u32 = 1;
const CH_DONE: u32 = 2;
/// Ledger channel of the worker's branch vector (progress payloads are
/// reported on [`CH_PROGRESS`]).
const CH_BRANCHES: u32 = 3;

/// A denied assumption with a tagged stream queued behind it — the
/// receive side of DESIGN.md S8, which `deny_storm` (guesses only) never
/// reaches. The worker runs two rounds of `aid_init` / request / `guess` /
/// two progress messages and settles after each; the resolver denies
/// round 0 and affirms round 1, then takes the progress it is told to
/// expect. Round 0's progress carries the doomed AID and is still queued
/// by then: the first copy the resolver consumes rolls it back, the
/// second must be dropped on sight — or, where the checker delivers it
/// late, rolled back in its turn. Both processes report what they
/// committed to a [`Ledger`]: the branch vector `[false, true]` and round
/// 1's two progress payloads, on every schedule and under every policy.
///
/// The checker does not keep a link FIFO, so the resolver reads by
/// channel: a verdict must not wait on a message tagged with the
/// assumption it decides.
pub fn doomed_stream(policy: SpecPolicy, seed: u64) -> HopeEnv {
    let mut env = checker_env(seed).spec_policy(policy).build();
    let ledger = env
        .runtime_mut()
        .spawn_actor("ledger", Box::new(Ledger::default()));
    let resolver = env.spawn_user("resolver", move |ctx| {
        for _ in 0..2 {
            let request = decode_u64s(&ctx.receive(Some(CH_REQUEST)).data);
            ctx.await_definite();
            if request[0] == 0 {
                ctx.deny(aid_of(request[1]));
            } else {
                ctx.affirm(aid_of(request[1]));
            }
        }
        let expected = decode_u64s(&ctx.receive(Some(CH_DONE)).data)[0];
        let progress: Vec<Bytes> = (0..expected)
            .map(|_| ctx.receive(Some(CH_PROGRESS)).data)
            .collect();
        ctx.await_definite();
        for payload in progress {
            ctx.send(ledger, CH_PROGRESS, payload);
        }
    });
    env.spawn_user("worker", move |ctx| {
        let mut branches = Vec::new();
        for round in 0..2 {
            let aid = ctx.aid_init();
            let request = [round, aid.process().as_raw()];
            ctx.send(resolver, CH_REQUEST, encode_u64s(&request));
            let taken = ctx.guess(aid);
            if taken {
                for k in 0..2 {
                    ctx.send(resolver, CH_PROGRESS, encode_u64s(&[round, k]));
                }
            }
            branches.push(u64::from(taken));
            ctx.await_definite();
        }
        let sent = 2 * branches.iter().sum::<u64>();
        ctx.send(resolver, CH_DONE, encode_u64s(&[sent]));
        ctx.send(ledger, CH_BRANCHES, encode_u64s(&branches));
    });
    env
}

/// A snapshot of `env`'s [`Ledger`], if the scenario has one.
pub fn ledger_of(env: &HopeEnv) -> Option<Ledger> {
    let rt = env.runtime();
    rt.actor_pids().into_iter().find_map(|pid| {
        rt.actor_ref(pid)?
            .as_any()?
            .downcast_ref::<Ledger>()
            .cloned()
    })
}

/// The chaos ring with **durable op-logs and storage faults**: every
/// process journals to a segmented WAL, and ring-0's crash image takes a
/// seeded storage fault (torn final record, lost fsync window, or bit
/// flip) before recovery replays the longest valid prefix. A zero-length
/// `compute` after each guess leaves deliberately-unsynced bytes in the
/// WAL tail under [`SyncPolicy::Visible`], so the checker explores
/// schedules where the corruption actually lands on live data. Safety and
/// crash-recovery equivalence must hold on every schedule; convergence is
/// not promised (a schedule can still lose every copy of a message).
pub fn disk_ring(n: usize, seed: u64) -> HopeEnv {
    let mut env = checker_env(seed)
        .faults(crash_ring_0(seed).storage(crate::disk_chaos::storage_plan()))
        .durable(DurableConfig {
            segment_bytes: 128,
            checkpoint_every: 4,
            sync_policy: SyncPolicy::Visible,
        })
        .build();
    // Zero-duration local work: logs a non-visible op without advancing
    // the virtual clock, so the WAL keeps an unsynced tail for the
    // storage fault to corrupt.
    let ring = spawn_ring(&mut env, n, Some(VirtualDuration::ZERO));
    assert_eq!(ring[0].as_raw(), 0, "crash plan must target ring-0");
    env
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_runs_to_convergence_in_default_order() {
        let mut env = ring(2, true, 1);
        let report = env.run();
        assert!(report.is_clean());
        assert!(report.run.blocked.is_empty());
        assert_eq!(report.run.now, VirtualTime::ZERO, "zero-latency clock");
        for pid in env.user_pids() {
            let history = env.history_of(pid).expect("tracked");
            assert!(history.iter().all(|r| r.definite));
        }
    }

    #[test]
    fn deny_storm_converges_in_default_order_under_every_policy() {
        let policies = [
            SpecPolicy::AlwaysOptimistic,
            SpecPolicy::adaptive(0.1, 4, 0.05).unwrap(),
            SpecPolicy::Pessimistic,
        ];
        for policy in policies {
            let mut env = deny_storm(2, policy, 1);
            let report = env.run();
            assert!(report.is_clean(), "{policy:?}: {:?}", report.run.panics);
            assert!(report.run.blocked.is_empty(), "{policy:?}");
            for pid in env.user_pids() {
                let history = env.history_of(pid).expect("tracked");
                assert!(history.iter().all(|r| r.definite), "{policy:?}");
            }
        }
    }

    #[test]
    fn doomed_stream_commits_the_same_outcome_under_every_policy() {
        let committed = vec![
            (CH_PROGRESS, encode_u64s(&[1, 0])),
            (CH_PROGRESS, encode_u64s(&[1, 1])),
            (CH_BRANCHES, encode_u64s(&[0, 1])),
        ];
        let policies = [
            SpecPolicy::AlwaysOptimistic,
            SpecPolicy::adaptive(0.1, 4, 0.05).unwrap(),
            SpecPolicy::Pessimistic,
        ];
        for policy in policies {
            let mut env = doomed_stream(policy, 1);
            let report = env.run();
            assert!(report.is_clean(), "{policy:?}: {:?}", report.run.panics);
            assert!(report.run.blocked.is_empty(), "{policy:?}");
            let ledger = ledger_of(&env).expect("the scenario has a ledger");
            assert!(!ledger.tainted(), "{policy:?}");
            assert_eq!(ledger.committed(), committed, "{policy:?}");
        }
    }

    #[test]
    fn chaos_ring_recovers_in_default_order() {
        let mut env = chaos_ring(2, 1);
        let report = env.run();
        assert!(report.run.panics.is_empty(), "{:?}", report.run.panics);
    }

    #[test]
    fn disk_ring_recovers_from_faulted_storage_in_default_order() {
        for seed in 0..8 {
            let mut env = disk_ring(2, seed);
            let report = env.run();
            assert!(report.run.panics.is_empty(), "{:?}", report.run.panics);
            let store = env.store_stats().expect("disk_ring configures storage");
            assert_eq!(store.frontier_violations, 0, "seed {seed}: {store:?}");
        }
    }
}
