//! E8 — optimistic replication (the paper's §6 pointer to "Optimistic
//! Replication in HOPE" \[5\]).
//!
//! Replicas apply updates against a cached version of a shared object and
//! report results downstream *before* the owner validates the version —
//! the optimistic-replication bet that conflicts are rare. A conflicting
//! (stale-version) update is denied: the replica and everything that
//! consumed its speculative result roll back, and the replica refetches
//! and retries. The sweep varies the conflict pressure (replica count per
//! object) and measures commit latency and rollback churn.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use bytes::Bytes;
use hope_core::{HopeEnv, HopeReport};
use hope_runtime::NetworkConfig;
use hope_types::{VirtualDuration, VirtualTime};

use crate::harness::run_settled;
use crate::{aid_of, decode_u64s, encode_u64s};

const CH_CHECK: u32 = 10;
const CH_GET: u32 = 11;
const CH_SNAP: u32 = 12;

/// Parameters of one replication run.
#[derive(Debug, Clone, Copy)]
pub struct ReplicationConfig {
    /// Racing replicas (each applies exactly one update). Higher = more
    /// version conflicts.
    pub replicas: u32,
    /// One-way network latency.
    pub latency: VirtualDuration,
    /// Simulation seed.
    pub seed: u64,
}

impl Default for ReplicationConfig {
    fn default() -> Self {
        ReplicationConfig {
            replicas: 4,
            latency: VirtualDuration::from_millis(2),
            seed: 0,
        }
    }
}

/// Measured outcome of one replication run.
#[derive(Debug, Clone, Copy)]
pub struct ReplicationResult {
    /// Committed value at the owner (must equal the sum of all deltas).
    pub value: u64,
    /// Committed version (must equal the replica count).
    pub version: u64,
    /// Virtual time of the last replica's *optimistic* result availability.
    pub optimistic_done: VirtualTime,
    /// Virtual time at quiescence (all conflicts resolved and committed).
    pub committed: VirtualTime,
    /// Intervals rolled back (conflict churn).
    pub rollbacks: u64,
}

/// Runs `replicas` racing single-update replicas against one owner.
pub fn run(cfg: ReplicationConfig) -> ReplicationResult {
    let env = HopeEnv::builder()
        .seed(cfg.seed)
        .network(NetworkConfig::constant(cfg.latency))
        .build();
    run_in(env, cfg).0
}

/// Runs the same scenario in a caller-built environment, also handing
/// back the full [`HopeReport`]. The chaos workload uses this to add
/// fault injection and read the link-layer counters; spawn order (owner
/// first, then `replica-0..n`) is part of the contract so crash points
/// can be aimed by pid.
pub fn run_in(mut env: HopeEnv, cfg: ReplicationConfig) -> (ReplicationResult, HopeReport) {
    let total = cfg.replicas;
    let owner_final = Arc::new(Mutex::new((0u64, 0u64)));
    let of = owner_final.clone();
    let owner = env.spawn_user("owner", move |ctx| {
        let mut version = 0u64;
        let mut value = 0u64;
        let mut applied = 0u32;
        while applied < total {
            let msg = ctx.receive(None);
            match msg.channel {
                CH_CHECK => {
                    let f = decode_u64s(&msg.data);
                    let aid = aid_of(f[0]);
                    if f[1] == version {
                        value += f[2];
                        version += 1;
                        applied += 1;
                        ctx.affirm(aid);
                    } else {
                        ctx.deny(aid);
                    }
                }
                CH_GET => {
                    ctx.send(msg.src, CH_SNAP, encode_u64s(&[version, value]));
                }
                _ => {}
            }
        }
        if !ctx.is_replaying() {
            *of.lock().unwrap() = (version, value);
        }
    });
    let progress: Arc<Mutex<BTreeMap<u64, VirtualTime>>> = Arc::new(Mutex::new(BTreeMap::new()));
    for w in 0..cfg.replicas as u64 {
        let progress = progress.clone();
        let delta = w + 1;
        env.spawn_user(&format!("replica-{w}"), move |ctx| loop {
            ctx.send(owner, CH_GET, Bytes::new());
            let snap = ctx.receive(Some(CH_SNAP));
            let version = decode_u64s(&snap.data)[0];
            let fresh = ctx.aid_init();
            let check = [fresh.process().as_raw(), version, delta];
            ctx.send(owner, CH_CHECK, encode_u64s(&check));
            if ctx.guess(fresh) {
                // Optimistic result available right here.
                if !ctx.is_replaying() {
                    progress.lock().unwrap().insert(w, ctx.now());
                }
                // Commit barrier: only report fully-validated below.
                ctx.await_definite();
                break;
            }
            // Denied (a stale version): refetch and retry.
        });
    }
    let report = run_settled(&mut env, &[]);
    let (version, value) = *owner_final.lock().unwrap();
    let optimistic_done = progress
        .lock()
        .unwrap()
        .values()
        .copied()
        .max()
        .unwrap_or(VirtualTime::ZERO);
    let result = ReplicationResult {
        value,
        version,
        optimistic_done,
        committed: report.run.now,
        rollbacks: report.hope.rollbacks,
    };
    (result, report)
}

/// Sweeps replica count (conflict pressure) and tabulates churn.
pub fn sweep(replica_counts: &[u32], latency: VirtualDuration, seed: u64) -> crate::table::Table {
    let mut table = crate::table::Table::new(
        "E8: optimistic replication — conflict pressure vs. churn ([5])",
        &[
            "replicas",
            "optimistic done",
            "committed",
            "rollbacks",
            "value ok",
        ],
    );
    for &replicas in replica_counts {
        let cfg = ReplicationConfig {
            replicas,
            latency,
            seed,
        };
        let r = run(cfg);
        let expected: u64 = (1..=replicas as u64).sum();
        table.row(&[
            &replicas,
            &format_args!("{:.3}ms", r.optimistic_done.as_secs_f64() * 1e3),
            &format_args!("{:.3}ms", r.committed.as_secs_f64() * 1e3),
            &r.rollbacks,
            &(r.value == expected && r.version == replicas as u64),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_updates_apply_exactly_once() {
        for replicas in [1u32, 2, 4, 8] {
            let r = run(ReplicationConfig {
                replicas,
                ..ReplicationConfig::default()
            });
            assert_eq!(r.version, replicas as u64, "{replicas} replicas");
            assert_eq!(r.value, (1..=replicas as u64).sum::<u64>());
        }
    }

    #[test]
    fn single_replica_never_conflicts() {
        let r = run(ReplicationConfig {
            replicas: 1,
            ..ReplicationConfig::default()
        });
        assert_eq!(r.rollbacks, 0);
    }

    #[test]
    fn conflict_churn_grows_with_replica_count() {
        let small = run(ReplicationConfig {
            replicas: 2,
            ..ReplicationConfig::default()
        });
        let big = run(ReplicationConfig {
            replicas: 8,
            ..ReplicationConfig::default()
        });
        assert!(
            big.rollbacks > small.rollbacks,
            "{} vs {}",
            small.rollbacks,
            big.rollbacks
        );
    }

    #[test]
    fn optimistic_results_precede_commitment() {
        let r = run(ReplicationConfig {
            replicas: 4,
            ..ReplicationConfig::default()
        });
        assert!(r.optimistic_done <= r.committed);
    }

    #[test]
    fn sweep_rows() {
        let t = sweep(&[1, 2], VirtualDuration::from_millis(1), 3);
        assert_eq!(t.rows.len(), 2);
        assert!(t.rows.iter().all(|r| r[4] == "true"));
    }
}
