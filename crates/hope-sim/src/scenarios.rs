//! Checker scenario adapters: small environments built for `hope-check`'s
//! schedule exploration rather than for timing experiments.
//!
//! Every scenario here uses a **zero-latency** network, which pins the
//! virtual clock to 0 for the whole run. That matters for state-hash
//! deduplication: two schedules that deliver commuting messages in either
//! order then reach the *same* state only if no timestamps diverged along
//! the way. Scenario builders return an un-run [`HopeEnv`]; the checker
//! drives it step by step through the runtime's scheduler hook.

use hope_core::{DurableConfig, HopeEnv, HopeEnvBuilder, SpecPolicy, SyncPolicy};
use hope_runtime::{FaultPlan, NetworkConfig};
use hope_types::{AidId, ProcessId, VirtualDuration, VirtualTime};

use crate::rings::spawn_ring;
use crate::{decode_aids, encode_aids};

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
