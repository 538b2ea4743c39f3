//! E5: dependency-tracking cost vs. speculation depth — the quadratic
//! behaviour the paper's §6 promises to analyze, now held linear by
//! delta registration (DESIGN.md S7).
//!
//! Besides the printed table, this bin maintains the committed perf
//! baseline `BENCH_quadratic.json` at the repo root: per-depth message
//! counts plus the fitted growth exponent of total HOPE messages against
//! depth. The exponent is a hard acceptance bound (< 1.5 — linear with
//! headroom, categorically below the §6 quadratic), and CI's perf-smoke
//! job (`HOPE_BENCH_CHECK=1`) additionally refuses a >2x count
//! regression against the committed numbers.
//!
//! E5b rides along: messages cannot show a history query that walks every
//! interval the process ever opened, so a second sweep counts the records
//! history queries examine (`history_visits`) in one depth-8 round after
//! N settled ones. Per tagged receive that must be flat in N: fitted
//! exponent < 0.2 as a hard assert (a scan from the front of the history
//! fits ≈ 1), rows committed and gated the same way.

use hope_bench::baseline;
use hope_sim::json::Value;

const DEPTHS: [u32; 7] = [1, 2, 4, 8, 16, 32, 64];
const SEED: u64 = 42;
const EXPONENT_CEILING: f64 = 1.5;
const SETTLED_ROUNDS: [u32; 4] = [1, 4, 16, 64];
const LOCAL_EXPONENT_CEILING: f64 = 0.2;

fn main() {
    hope_bench::emit(&hope_sim::quadratic::sweep(&DEPTHS, SEED));

    let results = hope_sim::quadratic::sweep_results(&DEPTHS, SEED);
    let points: Vec<(f64, f64)> = results
        .iter()
        .map(|r| (f64::from(r.depth), r.total_hope as f64))
        .collect();
    let exponent = baseline::fit_exponent(&points);
    assert!(
        exponent < EXPONENT_CEILING,
        "dependency tracking has gone super-linear again: fitted exponent \
         {exponent:.3} >= {EXPONENT_CEILING} across depths {DEPTHS:?}"
    );
    println!("fitted growth exponent: {exponent:.3} (ceiling {EXPONENT_CEILING})");

    println!();
    let local = hope_sim::quadratic::local_sweep_results(&SETTLED_ROUNDS, SEED);
    hope_bench::emit(&hope_sim::quadratic::local_table(&local));
    let points: Vec<(f64, f64)> = local
        .iter()
        .map(|r| (f64::from(r.settled_rounds), r.visits_per_receive()))
        .collect();
    let local_exponent = baseline::fit_exponent(&points);
    assert!(
        local_exponent < LOCAL_EXPONENT_CEILING,
        "a history query walks the definite prefix again: history visits per \
         tagged receive grow with exponent {local_exponent:.3} >= \
         {LOCAL_EXPONENT_CEILING} across {SETTLED_ROUNDS:?} settled rounds"
    );
    println!(
        "fitted growth exponent of visits/receive: {local_exponent:.3} \
         (ceiling {LOCAL_EXPONENT_CEILING})"
    );
    let most_settled = local.last().expect("non-empty sweep");
    let local_rows = local
        .iter()
        .map(|r| {
            baseline::obj(&[
                ("settled_rounds", r.settled_rounds.to_string()),
                ("tagged_receives", r.tagged_receives.to_string()),
                ("history_visits", r.history_visits.to_string()),
            ])
        })
        .collect();

    let deepest = results.last().expect("non-empty sweep");
    let rows = results
        .iter()
        .map(|r| {
            baseline::obj(&[
                ("depth", r.depth.to_string()),
                ("guess_messages", r.guess_messages.to_string()),
                ("replace_messages", r.replace_messages.to_string()),
                ("total_hope_messages", r.total_hope.to_string()),
            ])
        })
        .collect();
    let fresh = Value::Object(vec![
        (
            "bench".into(),
            Value::String("quadratic (E5: dependency-tracking cost vs. depth)".into()),
        ),
        ("seed".into(), Value::String(SEED.to_string())),
        (
            "fitted_exponent".into(),
            Value::String(format!("{exponent:.3}")),
        ),
        (
            "exponent_ceiling".into(),
            Value::String(format!("{EXPONENT_CEILING}")),
        ),
        (
            "total_hope_messages_at_max_depth".into(),
            Value::String(deepest.total_hope.to_string()),
        ),
        (
            "guess_messages_at_max_depth".into(),
            Value::String(deepest.guess_messages.to_string()),
        ),
        ("rows".into(), Value::Array(rows)),
        (
            "local_fitted_exponent".into(),
            Value::String(format!("{local_exponent:.3}")),
        ),
        (
            "local_exponent_ceiling".into(),
            Value::String(format!("{LOCAL_EXPONENT_CEILING}")),
        ),
        (
            "history_visits_at_max_settled".into(),
            Value::String(most_settled.history_visits.to_string()),
        ),
        ("local_rows".into(), Value::Array(local_rows)),
    ]);
    baseline::finish(
        "BENCH_quadratic.json",
        &fresh,
        &[
            "fitted_exponent",
            "total_hope_messages_at_max_depth",
            "guess_messages_at_max_depth",
            "history_visits_at_max_settled",
        ],
        2.0,
    );
}
