//! E-disk — storage-fault soak: durable op-log recovery under crashes
//! whose disk images tear, lose the fsync window, or take bit flips.
//!
//! The paper's prototype made rollback survivable with UNIX process
//! images; DESIGN.md S6 substitutes a segmented, CRC32-framed write-ahead
//! log with periodic checkpoints. This workload runs a value-committing
//! ledger — an owner affirms or denies one assumption per round, workers
//! fold the affirmed round values into a commutative total — while one
//! worker crashes mid-run *with an injected storage fault*, and checks:
//!
//! * **Theorem 5.1 safety**: the faulted run commits exactly the
//!   fault-free totals (no affirm/deny lost, despite the corrupt disk);
//! * **frontier equivalence**: every recovery's op log reaches at least
//!   the definite frontier recorded at crash time
//!   (`frontier_violations == 0`);
//! * **no recovery panic**: arbitrary torn/flipped bytes never crash the
//!   recovery path;
//! * **checkpoint GC**: live WAL segments stay bounded even as rounds
//!   accumulate.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use hope_core::{DurableConfig, DurableSnapshot, HopeEnv, HopeReport, SyncPolicy, ThreadedHopeEnv};
use hope_runtime::{FaultPlan, NetworkConfig, StorageFaultPlan};
use hope_types::{ProcessId, VirtualDuration, VirtualTime};

use crate::chaos::spawn_race;
use crate::harness::{lossy_plan, run_settled, run_settled_threaded};
use crate::{aid_of, decode_u64s, encode_u64s, splitmix64};

/// Parameters of one disk-chaos run.
#[derive(Debug, Clone, Copy)]
pub struct DiskChaosConfig {
    /// Worker processes folding round values.
    pub workers: u32,
    /// Rounds (one assumption affirmed or denied per round).
    pub rounds: u32,
    /// Probability a wire transit is dropped.
    pub drop_rate: f64,
    /// Probability a wire transit is duplicated.
    pub duplicate_rate: f64,
    /// Crash `w0` mid-run with an injected storage fault.
    pub crash: bool,
    /// WAL segment size — small, to force rotations and GC.
    pub segment_bytes: usize,
    /// Checkpoint cadence in WAL events.
    pub checkpoint_every: usize,
    /// Seed for the network, workload, faults and storage faults.
    pub seed: u64,
}

impl Default for DiskChaosConfig {
    fn default() -> Self {
        DiskChaosConfig {
            workers: 3,
            rounds: 12,
            drop_rate: 0.05,
            duplicate_rate: 0.05,
            crash: true,
            segment_bytes: 256,
            checkpoint_every: 8,
            seed: 0,
        }
    }
}

/// Measured outcome of one disk-chaos run.
#[derive(Debug, Clone, Copy)]
pub struct DiskChaosResult {
    /// The faulted run committed the fault-free totals.
    pub matches_fault_free: bool,
    /// Intervals finalized in the faulted run.
    pub finalized: u64,
    /// Intervals rolled back.
    pub rollbacks: u64,
    /// Crash recoveries performed.
    pub crash_recoveries: u64,
    /// Durable-store counters (recoveries, GC, frontier audit).
    pub store: DurableSnapshot,
    /// Virtual time at quiescence of the faulted run.
    pub quiescent: VirtualTime,
}

/// The deterministic per-round value stream: [`splitmix64`] over this
/// workload's own pre-mix of `(a, b)`.
fn mix(a: u64, b: u64) -> u64 {
    splitmix64(
        a.wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(b)
            .wrapping_add(0x243f_6a88_85a3_08d3),
    )
}

/// Whether the owner affirms round `r` (¾ of rounds) or denies it.
fn keep(seed: u64, r: u32) -> bool {
    !mix(seed ^ 0x6b65_6570, r as u64).is_multiple_of(4)
}

/// The total a worker should commit: affirmed rounds folded commutatively.
fn expected_total(seed: u64, rounds: u32) -> u64 {
    (0..rounds)
        .filter(|&r| keep(seed, r))
        .fold(0u64, |acc, r| acc.wrapping_add(mix(seed, r as u64)))
}

/// The storage-fault mix injected at crash time: most crash images tear
/// or lose the fsync window; some take a bit flip.
pub fn storage_plan() -> StorageFaultPlan {
    StorageFaultPlan::default()
        .torn_final_record(0.4)
        .lost_sync_window(0.3)
        .bit_flip(0.2)
}

fn durable_config(cfg: DiskChaosConfig) -> DurableConfig {
    DurableConfig {
        segment_bytes: cfg.segment_bytes,
        checkpoint_every: cfg.checkpoint_every,
        sync_policy: SyncPolicy::Visible,
    }
}

/// The wire and crash faults of one run plus the storage-fault mix:
/// `w0`/`g0` (pid 0, spawned first) crashes at `crash_at` for `down_for`,
/// disk fault and all.
fn fault_plan(
    cfg: DiskChaosConfig,
    rto: VirtualDuration,
    crash_at: VirtualTime,
    down_for: VirtualDuration,
) -> FaultPlan {
    let crash = (ProcessId::from_raw(0), crash_at, down_for);
    lossy_plan(
        cfg.drop_rate,
        cfg.duplicate_rate,
        cfg.seed,
        rto,
        cfg.crash.then_some(crash),
    )
    .storage(storage_plan())
}

/// Packages a settled run, holding its store to frontier equivalence.
fn outcome(
    report: &HopeReport,
    store: Option<DurableSnapshot>,
    matches_fault_free: bool,
) -> DiskChaosResult {
    let store = store.expect("durable storage configured");
    assert_eq!(
        store.frontier_violations, 0,
        "recovery fell short of the definite frontier: {store:?}"
    );
    DiskChaosResult {
        matches_fault_free,
        finalized: report.hope.finalized_intervals,
        rollbacks: report.hope.rollbacks,
        crash_recoveries: report.hope.crash_recoveries,
        store,
        quiescent: report.run.now,
    }
}

/// Spawns the ledger workload: `workers` fold processes (pids `0..n`),
/// then the owner (pid `n`). Returns the shared committed-totals map,
/// keyed by worker index.
fn spawn_ledger(env: &mut HopeEnv, cfg: DiskChaosConfig) -> Arc<Mutex<BTreeMap<u32, u64>>> {
    let totals: Arc<Mutex<BTreeMap<u32, u64>>> = Arc::new(Mutex::new(BTreeMap::new()));
    let mut worker_pids = Vec::new();
    for w in 0..cfg.workers {
        let totals = totals.clone();
        let rounds = cfg.rounds;
        let pid = env.spawn_user(&format!("w{w}"), move |ctx| {
            let mut total = 0u64;
            // Delivery across a crash is at-least-once: a round retransmitted
            // while the worker was down can arrive twice, so dedup on the
            // channel number (the round index) before folding.
            let mut seen = vec![false; rounds as usize];
            let mut remaining = rounds;
            while remaining > 0 {
                let m = ctx.receive(None);
                let r = m.channel as usize;
                if r >= seen.len() || seen[r] {
                    continue;
                }
                seen[r] = true;
                remaining -= 1;
                let round = decode_u64s(&m.data);
                let (aid, value) = (aid_of(round[0]), round[1]);
                if ctx.guess(aid) {
                    // Optimistically fold the round in; a deny rolls this
                    // interval back and the replayed guess excludes it.
                    total = total.wrapping_add(value);
                }
                // Local work after the fold: Compute ops are not
                // externally visible, so under `SyncPolicy::Visible` they
                // ride in the unsynced WAL window — exactly the bytes a
                // torn write or bit flip corrupts at crash time.
                ctx.compute(VirtualDuration::from_micros(200));
            }
            ctx.await_definite();
            if !ctx.is_replaying() {
                totals.lock().unwrap().insert(w, total);
            }
        });
        worker_pids.push(pid);
    }
    let seed = cfg.seed;
    let rounds = cfg.rounds;
    env.spawn_user("owner", move |ctx| {
        for r in 0..rounds {
            let x = ctx.aid_init();
            let payload = encode_u64s(&[x.process().as_raw(), mix(seed, r as u64)]);
            for &w in &worker_pids {
                ctx.send(w, r, payload.clone());
            }
            ctx.compute(VirtualDuration::from_millis(1));
            if keep(seed, r) {
                ctx.affirm(x);
            } else {
                ctx.deny(x);
            }
        }
    });
    totals
}

/// Runs the ledger on the simulator with a durable store, one crashing
/// worker, and the configured storage-fault mix; checks every committed
/// total against the closed-form expectation.
pub fn run_ledger(cfg: DiskChaosConfig) -> DiskChaosResult {
    let plan = fault_plan(
        cfg,
        VirtualDuration::from_millis(5),
        VirtualTime::from_nanos(3_000_000),
        VirtualDuration::from_millis(2),
    );
    let mut env = HopeEnv::builder()
        .seed(cfg.seed)
        .network(NetworkConfig::constant(VirtualDuration::from_millis(1)))
        .faults(plan)
        .durable(durable_config(cfg))
        .build();
    let totals = spawn_ledger(&mut env, cfg);
    let report = run_settled(&mut env, &[]);
    let want = expected_total(cfg.seed, cfg.rounds);
    let totals = totals.lock().unwrap();
    let matches_fault_free =
        totals.len() == cfg.workers as usize && totals.values().all(|&t| t == want);
    assert!(
        matches_fault_free,
        "committed totals {totals:?} != expected {want} (Theorem 5.1 violation)"
    );
    outcome(&report, env.store_stats(), matches_fault_free)
}

/// Runs the guess/affirm race on the wall-clock [`ThreadedHopeEnv`]
/// with durable stores and a crashing guesser whose disk image takes a
/// storage fault. Crash times are wall-clock offsets from startup.
pub fn run_threaded(cfg: DiskChaosConfig) -> DiskChaosResult {
    // 1.5 ms into the run: inside the owner's 3 ms speculation window,
    // so the crashed guesser is holding a speculative interval and must
    // recover it from the (storage-faulted) durable log.
    let plan = fault_plan(
        cfg,
        VirtualDuration::from_millis(2),
        VirtualTime::from_nanos(1_500_000),
        VirtualDuration::from_millis(5),
    );
    let env = ThreadedHopeEnv::builder()
        .seed(cfg.seed)
        .faults(plan)
        .durable(durable_config(cfg))
        .build();
    // A round on this wire is `(aid, value)`; the race reads only the aid.
    let spawn = |name: &str, body| env.spawn_user(name, body);
    let tally = spawn_race(spawn, cfg.workers, &[mix(cfg.seed, 0)]);
    let report = run_settled_threaded(&env);
    let done = *tally.lock().unwrap();
    outcome(&report, env.store_stats(), done == cfg.workers)
}

/// Aggregate outcome of a multi-seed soak.
#[derive(Debug, Clone, Copy, Default)]
pub struct SoakOutcome {
    /// Seeds run.
    pub runs: u64,
    /// Runs whose committed totals matched the fault-free expectation.
    pub correct: u64,
    /// Total store recoveries performed.
    pub recoveries: u64,
    /// Recoveries that hit corruption and dropped a suffix.
    pub corrupt_recoveries: u64,
    /// Crash images that had a storage fault injected.
    pub faults_injected: u64,
    /// Frontier-equivalence violations (must be 0).
    pub frontier_violations: u64,
    /// Checkpoint GC: segments compacted away, all runs.
    pub gc_segments: u64,
    /// High-water mark of live WAL segments in any single run — the
    /// checkpoint-GC bound.
    pub max_live_segments: u64,
}

/// Soaks the simulator ledger across `seeds` seeds (every run asserts the
/// safety outcomes internally) and aggregates the storage counters.
pub fn soak(seeds: u64, cfg_base: DiskChaosConfig) -> SoakOutcome {
    let mut out = SoakOutcome::default();
    for seed in 0..seeds {
        let r = run_ledger(DiskChaosConfig { seed, ..cfg_base });
        out.runs += 1;
        out.correct += u64::from(r.matches_fault_free);
        out.recoveries += r.store.recoveries;
        out.corrupt_recoveries += r.store.corrupt_recoveries;
        out.faults_injected += r.store.faults_injected;
        out.frontier_violations += r.store.frontier_violations;
        out.gc_segments += r.store.gc_segments;
        out.max_live_segments = out.max_live_segments.max(r.store.max_live_segments);
    }
    out
}

/// Sweeps the storage-fault soak across drop rates and tabulates the
/// recovery and GC counters.
pub fn sweep(
    seeds_per_row: u64,
    drop_rates: &[f64],
    cfg_base: DiskChaosConfig,
) -> crate::table::Table {
    let mut table = crate::table::Table::new(
        "E-disk: durable recovery under crashes with storage faults",
        &[
            "drop",
            "runs",
            "correct",
            "recoveries",
            "corrupt",
            "disk faults",
            "frontier viol",
            "gc segs",
            "max live segs",
        ],
    );
    for &drop_rate in drop_rates {
        let out = soak(
            seeds_per_row,
            DiskChaosConfig {
                drop_rate,
                ..cfg_base
            },
        );
        table.row(&[
            &format_args!("{drop_rate:.2}"),
            &out.runs,
            &out.correct,
            &out.recoveries,
            &out.corrupt_recoveries,
            &out.faults_injected,
            &out.frontier_violations,
            &out.gc_segments,
            &out.max_live_segments,
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every affirm/deny decision, round value and committed total of
    /// E-disk hangs off these: a change to the pre-mix here or to the
    /// shared `splitmix64` moves them.
    #[test]
    fn round_stream_is_pinned() {
        let kept: Vec<bool> = (0..8).map(|r| keep(1, r)).collect();
        let want = [false, true, true, false, true, false, false, true];
        assert_eq!(kept, want);
        assert_eq!(mix(1, 0), 0x2cb0_f69f_4abe_a221);
        assert_eq!(expected_total(1, 8), 0x1e1b_8d46_edfe_8b19);
    }

    #[test]
    fn ledger_commits_fault_free_totals_with_a_corrupt_disk() {
        let r = run_ledger(DiskChaosConfig::default());
        assert!(r.matches_fault_free);
        assert!(r.finalized > 0);
        assert!(r.store.events > 0, "the WAL must see traffic");
        assert_eq!(r.store.frontier_violations, 0);
    }

    #[test]
    fn checkpoint_gc_bounds_live_segments() {
        let r = run_ledger(DiskChaosConfig {
            rounds: 24,
            crash: false,
            drop_rate: 0.0,
            duplicate_rate: 0.0,
            ..DiskChaosConfig::default()
        });
        assert!(
            r.store.checkpoints > 0,
            "checkpoint cadence must fire: {:?}",
            r.store
        );
        assert!(
            r.store.gc_segments > 0,
            "GC must compact dead segments: {:?}",
            r.store
        );
        assert!(
            r.store.max_live_segments < 64,
            "GC must bound live segments: {:?}",
            r.store
        );
    }

    #[test]
    fn soak_across_seeds_is_violation_free() {
        let out = soak(16, DiskChaosConfig::default());
        assert_eq!(out.runs, out.correct);
        assert_eq!(out.frontier_violations, 0);
        assert!(out.recoveries > 0, "crashes must recover from the store");
        assert!(
            out.faults_injected > 0,
            "the storage fault mix must actually fire"
        );
    }

    #[test]
    fn disk_chaos_is_deterministic_per_seed() {
        let cfg = DiskChaosConfig {
            seed: 9,
            ..DiskChaosConfig::default()
        };
        let a = run_ledger(cfg);
        let b = run_ledger(cfg);
        assert_eq!(a.quiescent, b.quiescent);
        assert_eq!(a.rollbacks, b.rollbacks);
        assert_eq!(a.store, b.store);
    }

    #[test]
    fn threaded_ledger_survives_a_storage_faulted_crash() {
        let r = run_threaded(DiskChaosConfig::default());
        assert!(r.matches_fault_free);
        assert!(r.finalized > 0);
        assert_eq!(r.store.frontier_violations, 0);
        assert!(r.store.events > 0);
    }
}
