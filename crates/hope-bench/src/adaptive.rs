//! E-adaptive: the three DESIGN.md §9 speculation-control policies over
//! the [`hope_sim::contention`] workload, swept by resolver deny rate,
//! and the committed `BENCH_adaptive.json`. Hard-asserted on every run:
//! at the **lowest** deny rate adaptive control tracks unconditional
//! optimism (≥ 0.95× — it must not tax workloads that never needed it);
//! at the **highest** it keeps ≥ 0.9× optimism's throughput (in virtual
//! time a cancelled deny costs optimism one round trip, so waiting buys
//! no speed) while optimism discards ≥ 3× the operations — the waste is
//! what the controller is for; and doomed-interval cancellation actually
//! fires. Throughput is committed rounds per *virtual* second, so every
//! figure reproduces on any machine.

use hope_core::SpecPolicy;
use hope_sim::contention::{run as run_contention, ContentionConfig, ContentionResult};
use hope_sim::json::Value;
use hope_sim::table::Table;

use crate::baseline::s;
use crate::{Opts, Report};

const SEED: u64 = 7;
const DENY_PERMILLES: [u32; 4] = [50, 300, 600, 900];
/// `--fast` keeps both ends of the sweep, where the gates are, and
/// shortens the lanes.
const FAST_DENY_PERMILLES: [u32; 2] = [50, 900];

pub(crate) fn run(o: &Opts) -> Report {
    let (denies, rounds): (&[u32], u32) = if o.fast {
        (&FAST_DENY_PERMILLES, 20)
    } else {
        (&DENY_PERMILLES, 60)
    };
    let adaptive = SpecPolicy::adaptive(0.4, 8, 0.1).expect("valid bench policy");
    let policies = [
        ("optimistic", SpecPolicy::AlwaysOptimistic),
        ("adaptive", adaptive),
        ("pessimistic", SpecPolicy::Pessimistic),
    ];

    let mut table = Table::new(
        "E-adaptive: throughput under contention, by speculation policy",
        &[
            "policy",
            "deny",
            "rounds/s",
            "rollbacks",
            "cancelled",
            "wasted_ops",
        ],
    );
    let mut cells: Vec<(&str, u32, ContentionResult)> = Vec::new();
    for &deny_permille in denies {
        for &(name, policy) in &policies {
            let r = run_contention(ContentionConfig {
                workers: 4,
                rounds,
                deny_permille,
                policy,
                seed: SEED,
                ..ContentionConfig::default()
            });
            table.row(&[
                &name,
                &format_args!("{:.1}%", deny_permille as f64 / 10.0),
                &format_args!("{:.1}", r.throughput),
                &r.rollbacks,
                &r.cancelled_intervals,
                &r.wasted_ops,
            ]);
            cells.push((name, deny_permille, r));
        }
    }

    let cell = |name: &str, deny: u32| -> &ContentionResult {
        cells
            .iter()
            .find(|(n, d, _)| *n == name && *d == deny)
            .map(|(_, _, r)| r)
            .expect("swept cell")
    };
    let low = *denies.first().expect("sweep is non-empty");
    let high = *denies.last().expect("sweep is non-empty");
    let low_ratio = cell("adaptive", low).throughput / cell("optimistic", low).throughput;
    let high_ratio = cell("adaptive", high).throughput / cell("optimistic", high).throughput;
    let waste_ratio =
        cell("optimistic", high).wasted_ops as f64 / cell("adaptive", high).wasted_ops as f64;
    let cancelled_high = cell("adaptive", high).cancelled_intervals;
    // Deterministic, so a failure is a real behavior change, not noise.
    assert!(
        low_ratio >= 0.95,
        "adaptive must track optimism at {low} permille deny: {low_ratio:.3}x"
    );
    assert!(
        high_ratio >= 0.9,
        "adaptive must keep optimism's throughput at {high} permille deny: {high_ratio:.3}x"
    );
    assert!(
        waste_ratio >= 3.0,
        "optimism must waste >=3x adaptive's ops at {high} permille deny: {waste_ratio:.2}x"
    );
    assert!(
        cancelled_high > 0,
        "doomed-interval cancellation must fire at {high} permille deny"
    );

    let mut report = Report::new(
        table,
        vec![format!(
            "adaptive/optimistic throughput: {low_ratio:.3}x at {:.1}% deny, \
             {high_ratio:.3}x at {:.1}% deny, where optimism wastes {waste_ratio:.1}x the ops; \
             {cancelled_high} doomed intervals cancelled by adaptive",
            low as f64 / 10.0,
            high as f64 / 10.0,
        )],
    );
    if !o.fast {
        let mut fields = vec![
            (
                "bench".into(),
                s("adaptive (E-adaptive: speculation control under contention)"),
            ),
            ("seed".into(), s(SEED)),
            (
                "adaptive_over_optimistic_low".into(),
                s(format!("{low_ratio:.4}")),
            ),
            (
                "adaptive_over_optimistic_high".into(),
                s(format!("{high_ratio:.4}")),
            ),
            ("cancelled_intervals".into(), s(cancelled_high)),
        ];
        for (name, deny, r) in &cells {
            fields.push((
                format!("{name}_{deny}_virtual_micros"),
                s(r.quiescent.as_nanos() / 1_000),
            ));
            fields.push((format!("{name}_{deny}_rollbacks"), s(r.rollbacks)));
        }
        report.cells = Some(Value::Object(fields));
    }
    report
}
