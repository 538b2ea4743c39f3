//! E5: dependency-tracking cost vs. speculation depth, held linear by
//! delta registration (DESIGN.md S7), and the committed
//! `BENCH_quadratic.json`. The fitted growth exponent of total HOPE
//! messages against depth is a hard bound (< 1.5: categorically below
//! the paper's §6 quadratic).
//!
//! E5b rides along: messages cannot show a history query that walks every
//! interval a process ever opened, so a second sweep counts the records
//! history queries examine in one depth-8 round after N settled ones.
//! Per tagged receive that must be flat in N (exponent < 0.2; a scan from
//! the front fits ≈ 1). Nor can they show a `Replace` that deep-copies
//! the dependency set of every live interval it reaches: a third sweep
//! grows the live window at 8 distinct sets and counts those copies
//! (`ido_unshares`), which must be flat in the holder count (exponent
//! < 0.2; one copy per holder fits ≈ 1). A fit needs the full range, so
//! `--fast` prints the E5 table alone.

use hope_sim::json::Value;
use hope_sim::quadratic::{
    holders_table, local_sweep_results, local_table, measure_holders, sweep, sweep_results,
};

use crate::baseline::{fit_below, obj, s};
use crate::{Opts, Report};

const DEPTHS: [u32; 7] = [1, 2, 4, 8, 16, 32, 64];
const FAST_DEPTHS: [u32; 3] = [2, 8, 32];
const SEED: u64 = 42;
const EXPONENT_CEILING: f64 = 1.5;
const SETTLED_ROUNDS: [u32; 4] = [1, 4, 16, 64];
const LOCAL_EXPONENT_CEILING: f64 = 0.2;
/// Tagged messages per guess, each re-guessed by the consumer: 16 to 520
/// live intervals there.
const PER_GUESS: [u32; 4] = [1, 4, 16, 64];

pub(crate) fn run(o: &Opts) -> Report {
    if o.fast {
        return sweep(&FAST_DEPTHS, SEED).into();
    }
    let mut report = Report::default();

    let results = sweep_results(&DEPTHS, SEED);
    let exponent = fit_below(
        results
            .iter()
            .map(|r| (f64::from(r.depth), r.total_hope as f64))
            .collect(),
        EXPONENT_CEILING,
        "dependency tracking has gone super-linear in depth again",
    );
    report.push(
        sweep(&DEPTHS, SEED),
        vec![
            format!("fitted growth exponent: {exponent:.3} (ceiling {EXPONENT_CEILING})"),
            String::new(),
        ],
    );

    let local = local_sweep_results(&SETTLED_ROUNDS, SEED);
    let local_exponent = fit_below(
        local
            .iter()
            .map(|r| (f64::from(r.settled_rounds), r.visits_per_receive()))
            .collect(),
        LOCAL_EXPONENT_CEILING,
        "a history query walks the definite prefix again (visits per tagged receive \
         vs. settled rounds)",
    );
    report.push(
        local_table(&local),
        vec![
            format!(
                "fitted growth exponent of visits/receive: {local_exponent:.3} \
                 (ceiling {LOCAL_EXPONENT_CEILING})"
            ),
            String::new(),
        ],
    );

    let holders: Vec<_> = PER_GUESS
        .iter()
        .map(|&per_guess| measure_holders(per_guess, SEED))
        .collect();
    let unshare_exponent = fit_below(
        holders
            .iter()
            .map(|r| (f64::from(r.live_intervals), r.ido_unshares as f64))
            .collect(),
        LOCAL_EXPONENT_CEILING,
        "a Replace deep-copies the IDO of every holder again (ido unshares vs. live \
         intervals)",
    );
    report.push(
        holders_table(&holders),
        vec![format!(
            "fitted growth exponent of ido unshares: {unshare_exponent:.3} \
             (ceiling {LOCAL_EXPONENT_CEILING})"
        )],
    );

    let deepest = results.last().expect("non-empty sweep");
    let most_settled = local.last().expect("non-empty sweep");
    let rows = results
        .iter()
        .map(|r| {
            obj(vec![
                ("depth", s(r.depth)),
                ("guess_messages", s(r.guess_messages)),
                ("replace_messages", s(r.replace_messages)),
                ("total_hope_messages", s(r.total_hope)),
            ])
        })
        .collect();
    let local_rows = local
        .iter()
        .map(|r| {
            obj(vec![
                ("settled_rounds", s(r.settled_rounds)),
                ("tagged_receives", s(r.tagged_receives)),
                ("history_visits", s(r.history_visits)),
            ])
        })
        .collect();
    report.cells = Some(obj(vec![
        (
            "bench",
            s("quadratic (E5: dependency-tracking cost vs. depth)"),
        ),
        ("seed", s(SEED)),
        ("fitted_exponent", s(format!("{exponent:.3}"))),
        ("exponent_ceiling", s(EXPONENT_CEILING)),
        ("total_hope_messages_at_max_depth", s(deepest.total_hope)),
        ("guess_messages_at_max_depth", s(deepest.guess_messages)),
        ("rows", Value::Array(rows)),
        ("local_fitted_exponent", s(format!("{local_exponent:.3}"))),
        ("local_exponent_ceiling", s(LOCAL_EXPONENT_CEILING)),
        (
            "history_visits_at_max_settled",
            s(most_settled.history_visits),
        ),
        ("local_rows", Value::Array(local_rows)),
    ]));
    report
}
