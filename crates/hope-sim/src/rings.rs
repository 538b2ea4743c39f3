//! F13/F14 — interference rings and Algorithm 2's cycle detection.
//!
//! N processes each guess assumption *i* and concurrently affirm
//! assumption *(i+1) mod N*: a dependency cycle of size N forms among the
//! AIDs (generalizing Figure 13's 2-cycle). Algorithm 2's `UDO` sets break
//! the cycle (Figure 14) and every interval finalizes; Algorithm 1
//! "bounces" Replace messages around the ring forever.

use hope_core::HopeEnv;
use hope_runtime::NetworkConfig;
use hope_types::{AidId, ProcessId, VirtualDuration, VirtualTime};

use crate::{decode_aids, encode_aids};

/// Outcome of one ring run.
#[derive(Debug, Clone, Copy)]
pub struct RingResult {
    /// Ring size.
    pub n: u32,
    /// True if every interval finalized (the run converged).
    pub converged: bool,
    /// Events processed until quiescence (or the event cap).
    pub events: u64,
    /// HOPE protocol messages exchanged.
    pub hope_messages: u64,
    /// Dependencies discarded by UDO cycle detection.
    pub cycles_broken: u64,
    /// Virtual time at the end of the run.
    pub finished_at: VirtualTime,
}

/// Spawns the mutual-affirm ring on `env`: `ring-0..n` in that order
/// (so `ring-i` is pid *i*), then the `coordinator` that mints one AID
/// per process and broadcasts the list. Process *i* guesses AID *i* and,
/// inside that guess, affirms AID *(i+1) mod n*; with `tail_compute` it
/// then logs one `compute` of that length. This is the only text of the
/// program: F14 prints it and `hope-check` pins its state counts on it.
pub fn spawn_ring(
    env: &mut HopeEnv,
    n: usize,
    tail_compute: Option<VirtualDuration>,
) -> Vec<ProcessId> {
    assert!(n >= 2, "a ring needs at least two processes");
    let ring: Vec<ProcessId> = (0..n)
        .map(|i| {
            env.spawn_user(&format!("ring-{i}"), move |ctx| {
                let m = ctx.receive(None);
                let aids = decode_aids(&m.data);
                let mine = aids[i];
                let next = aids[(i + 1) % aids.len()];
                if ctx.guess(mine) {
                    ctx.affirm(next);
                }
                if let Some(length) = tail_compute {
                    ctx.compute(length);
                }
            })
        })
        .collect();
    let pids = ring.clone();
    env.spawn_user("coordinator", move |ctx| {
        let aids: Vec<AidId> = (0..pids.len()).map(|_| ctx.aid_init()).collect();
        let payload = encode_aids(&aids);
        for &p in &pids {
            ctx.send(p, 0, payload.clone());
        }
    });
    ring
}

/// Runs a mutual-affirm ring of size `n`. `cycle_detection = false`
/// reproduces Algorithm 1 (bounded by `max_events`).
pub fn run_ring(n: u32, cycle_detection: bool, max_events: u64, seed: u64) -> RingResult {
    let mut env = HopeEnv::builder()
        .seed(seed)
        .network(NetworkConfig::lan())
        .cycle_detection(cycle_detection)
        .max_events(max_events)
        .build();
    spawn_ring(&mut env, n as usize, None);
    // Not `run_settled`: Algorithm 1's livelock is a result to report
    // (`converged: false`), not a failure to assert on.
    let report = env.run();
    assert!(report.run.panics.is_empty(), "{:?}", report.run.panics);
    RingResult {
        n,
        converged: !report.run.hit_event_limit && report.run.blocked.is_empty(),
        events: report.run.events,
        hope_messages: report.run.stats.total_hope(),
        cycles_broken: report.hope.cycles_broken,
        finished_at: report.run.now,
    }
}

/// Sweeps ring size for Algorithm 2 and contrasts a bounded Algorithm 1
/// run at each size.
pub fn sweep(sizes: &[u32], seed: u64) -> crate::table::Table {
    let mut table = crate::table::Table::new(
        "F13/F14: interference rings — Algorithm 2 converges, Algorithm 1 bounces",
        &[
            "ring N",
            "alg2 converged",
            "alg2 msgs",
            "alg2 time",
            "cycles broken",
            "alg1 converged",
            "alg1 msgs (capped)",
        ],
    );
    for &n in sizes {
        let alg2 = run_ring(n, true, 5_000_000, seed);
        let alg1 = run_ring(n, false, 20_000 * n as u64, seed);
        table.row(&[
            &n,
            &alg2.converged,
            &alg2.hope_messages,
            &VirtualDuration::from_nanos(alg2.finished_at.as_nanos()),
            &alg2.cycles_broken,
            &alg1.converged,
            &alg1.hope_messages,
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn algorithm_2_converges_for_all_small_rings() {
        for n in 2..=8 {
            let r = run_ring(n, true, 5_000_000, 1);
            assert!(r.converged, "ring {n} must converge");
            assert!(r.cycles_broken >= 1, "ring {n} must detect its cycle");
        }
    }

    #[test]
    fn algorithm_1_bounces_on_a_2_ring() {
        let r = run_ring(2, false, 100_000, 1);
        assert!(!r.converged, "Algorithm 1 must not converge on a cycle");
        assert_eq!(r.cycles_broken, 0);
    }

    #[test]
    fn messages_grow_with_ring_size() {
        let a = run_ring(2, true, 5_000_000, 1);
        let b = run_ring(8, true, 5_000_000, 1);
        assert!(b.hope_messages > a.hope_messages);
    }

    #[test]
    fn sweep_contrasts_both_algorithms() {
        let t = sweep(&[2, 3], 1);
        assert_eq!(t.rows.len(), 2);
        assert!(t.rows[0][1].contains("true"));
        assert!(t.rows[0][5].contains("false"));
    }
}
