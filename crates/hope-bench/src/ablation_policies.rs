//! Ablation: the `RetractPolicy` knob DESIGN.md §3 calls out, on a
//! mutual affirm pair (speculative affirms exercised), and the printer
//! workload's boundary hit (rollbacks exercised) under the defaults.

use hope_core::{HopeEnv, RetractPolicy};
use hope_sim::printer::{run_sequential, run_streaming, PrinterConfig};
use hope_sim::table::Table;
use hope_sim::{decode_aids, encode_aids};
use hope_types::VirtualDuration;

use crate::{Opts, Report};

/// A speculative-affirm scenario: A (speculative on Y) affirms X; B runs
/// ahead on X; then Y is denied and re-resolved by A's re-execution.
fn affirm_retract_run(retract: RetractPolicy) -> (u64, u64, bool) {
    let mut env = HopeEnv::builder()
        .seed(5)
        .retract_policy(retract)
        .max_events(500_000)
        .build();
    let b = env.spawn_user("B", move |ctx| {
        let m = ctx.receive(None);
        let x = decode_aids(&m.data)[0];
        let _ = ctx.guess(x);
    });
    env.spawn_user("A", move |ctx| {
        let y = ctx.aid_init();
        let x = ctx.aid_init();
        ctx.send(b, 0, encode_aids(&[x]));
        if ctx.guess(y) {
            ctx.affirm(x);
            ctx.compute(VirtualDuration::from_millis(1));
            ctx.deny(y);
        } else {
            // Re-execution resolves X definitively.
            ctx.affirm(x);
        }
    });
    let report = env.run();
    (
        report.hope.rollbacks,
        report.hope.aid_contract_violations,
        report.run.blocked.is_empty() && report.is_clean(),
    )
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
    for (name, policy) in [
        ("Keep (default)", RetractPolicy::Keep),
        ("Deny (conservative)", RetractPolicy::Deny),
    ] {
        let (rollbacks, violations, clean) = affirm_retract_run(policy);
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
    report
}
