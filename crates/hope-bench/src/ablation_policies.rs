//! Ablation: the policy knobs DESIGN.md §3 calls out. `RetractPolicy` on
//! a mutual affirm pair (speculative affirms exercised), the printer
//! workload's boundary hit (rollbacks exercised) under the defaults, and
//! `DenyPolicy` and `GuessRollbackPolicy` each beside its default where
//! the two readings commit different outcomes.

use std::sync::{Arc, Mutex};

use hope_core::{DenyPolicy, GuessRollbackPolicy, HopeConfig, HopeEnv, RetractPolicy};
use hope_sim::printer::{run_sequential, run_streaming, PrinterConfig};
use hope_sim::table::Table;
use hope_sim::{decode_aids, encode_aids};
use hope_types::VirtualDuration;

use crate::{Opts, Report};

/// Rollbacks, contract violations, whether the run converged clean, and
/// the committed outcome: what the observer's `guess` returned in the
/// execution that survived, beside the guessed AID's final state.
type Outcome = (u64, u64, bool, String);

/// Runs a scenario whose `observer` receives an AID from the process the
/// scenario spawns (`spawn` gets the observer's pid) and guesses it.
fn observed_run(
    config: HopeConfig,
    spawn: impl FnOnce(&mut HopeEnv, hope_types::ProcessId),
) -> Outcome {
    let mut env = HopeEnv::builder()
        .seed(5)
        .config(config)
        .max_events(500_000)
        .build();
    let seen = Arc::new(Mutex::new(None));
    let record = seen.clone();
    let observer = env.spawn_user("observer", move |ctx| {
        let x = decode_aids(&ctx.receive(None).data)[0];
        // Every execution overwrites it: the last one is the committed one.
        *record.lock().expect("observer record") = Some((x, ctx.guess(x)));
    });
    spawn(&mut env, observer);
    let report = env.run();
    let (aid, held) = seen
        .lock()
        .expect("observer record")
        .expect("observer guessed");
    let state = env
        .aid_machines()
        .into_iter()
        .find(|(id, _)| *id == aid)
        .expect("AID")
        .1;
    (
        report.hope.rollbacks,
        report.hope.aid_contract_violations,
        report.run.blocked.is_empty() && report.is_clean(),
        format!("guess={held}, AID {:?}", state.state()),
    )
}

/// A speculative-affirm scenario: A (speculative on Y) affirms X; the
/// observer runs ahead on X; then Y is denied and re-resolved by A's
/// re-execution, which affirms X definitively. The observer rolls back in
/// a cascade through X's `A_IDO`; its own assumption is never denied.
fn affirm_retract_run(config: HopeConfig) -> Outcome {
    observed_run(config, |env, observer| {
        env.spawn_user("A", move |ctx| {
            let y = ctx.aid_init();
            let x = ctx.aid_init();
            ctx.send(observer, 0, encode_aids(&[x]));
            if ctx.guess(y) {
                ctx.affirm(x);
                ctx.compute(VirtualDuration::from_millis(1));
                ctx.deny(y);
            } else {
                // Re-execution resolves X definitively.
                ctx.affirm(x);
            }
        });
    })
}

/// A deny from a doomed interval: the denier, speculative on X, denies
/// the observer's Z; a resolver then denies X, and the re-execution
/// affirms Z instead. Sent at once, the deny of Z outlives its interval;
/// buffered until the interval finalizes, it dies with it.
fn doomed_deny_run(config: HopeConfig) -> Outcome {
    observed_run(config, |env, observer| {
        let resolver = env.spawn_user("resolver", move |ctx| {
            let x = decode_aids(&ctx.receive(None).data)[0];
            ctx.compute(VirtualDuration::from_millis(5));
            ctx.deny(x);
        });
        env.spawn_user("denier", move |ctx| {
            let (x, z) = (ctx.aid_init(), ctx.aid_init());
            ctx.send(resolver, 0, encode_aids(&[x]));
            ctx.send(observer, 0, encode_aids(&[z]));
            if ctx.guess(x) {
                ctx.deny(z);
                ctx.compute(VirtualDuration::from_millis(60));
            } else {
                ctx.affirm(z);
            }
        });
    })
}

pub(crate) fn run(_: &Opts) -> Report {
    let mut report = Report::default();
    let mut t = Table::new(
        "Ablation A: RetractPolicy on a retracted speculative affirm",
        &[
            "policy",
            "rollbacks",
            "contract violations",
            "converged clean",
        ],
    );
    for (name, retract_policy) in [
        ("Keep (default)", RetractPolicy::Keep),
        ("Deny (conservative)", RetractPolicy::Deny),
    ] {
        let (rollbacks, violations, clean, _) = affirm_retract_run(HopeConfig {
            retract_policy,
            ..HopeConfig::new()
        });
        t.row(&[&name, &rollbacks, &violations, &clean]);
    }
    report.push(t, Vec::new());

    let mut t2 = Table::new(
        "Ablation B: printer boundary-hit under the default policies",
        &["variant", "worker time", "rollbacks", "final line"],
    );
    let boundary_hit = PrinterConfig {
        hit_boundary: true,
        ..PrinterConfig::default()
    };
    for (variant, r) in [
        ("streaming, boundary hit", run_streaming(boundary_hit)),
        ("sequential, boundary hit", run_sequential(boundary_hit)),
    ] {
        t2.row(&[&variant, &r.worker_time, &r.rollbacks, &r.final_line]);
    }
    report.push(t2, Vec::new());

    let mut t3 = Table::new(
        "Ablation C: DenyPolicy and GuessRollbackPolicy, each beside its default",
        &[
            "policy",
            "scenario",
            "rollbacks",
            "contract violations",
            "committed outcome",
        ],
    );
    let (doomed, cascade) = ("deny from a doomed interval", "cascade through an affirm");
    let default = HopeConfig::new();
    let buffered = HopeConfig {
        deny_policy: DenyPolicy::Buffered,
        ..default
    };
    let return_false = HopeConfig {
        guess_rollback: GuessRollbackPolicy::ReturnFalse,
        ..default
    };
    for (name, scenario, (rollbacks, violations, clean, committed)) in [
        ("Immediate deny (default)", doomed, doomed_deny_run(default)),
        ("Buffered deny", doomed, doomed_deny_run(buffered)),
        ("Reguess (default)", cascade, affirm_retract_run(default)),
        ("ReturnFalse", cascade, affirm_retract_run(return_false)),
    ] {
        assert!(clean, "{name}: {scenario} must converge clean");
        t3.row(&[&name, &scenario, &rollbacks, &violations, &committed]);
    }
    report.push(t3, Vec::new());
    report
}
