//! E5 — the cost of dependency tracking vs. speculation depth.
//!
//! The paper's §6 concedes the algorithms are "quadratic in the number
//! of intervals and AIDs associated with an affirm" (expecting N to be
//! small): under per-holder registration, interval *i* re-registers with
//! every one of its *i* inherited assumptions, so a process that stacks
//! N guesses sends ~N²/2 `Guess` messages, and the affirm-driven
//! `Replace` waves are similarly triangular. This workload now measures
//! the *delta-registration* substitution (DESIGN.md S7): only the
//! earliest holder of an assumption registers, a `Replace` is applied to
//! the registrant and every later holder locally, and the same sweep
//! must come out linear — N `Guess` and N `Replace` messages.
//!
//! E5b — local bookkeeping vs. what came before. Message counts say
//! nothing about the work a HOPElib does *between* messages: a history
//! query that walks every interval the process ever opened sends exactly
//! as many messages as one that walks the live ones. The second sweep
//! therefore counts [`History::visits`](hope_core::History::visits): after
//! N settled rounds of depth-8 speculation, what does one more round cost
//! per tagged receive? The paper's answer (§5: finalize is a commit
//! point; nothing behind it is consulted again) is "the same as after
//! none". A third sweep holds the history fixed and grows the *live*
//! window instead — M tagged messages per guess, each followed by the
//! consumer re-guessing the message's newest assumption, so it holds
//! 8·(M + 1) live intervals in 8 distinct dependency sets when the
//! `Replace` wave arrives — and counts the deep copies of a shared `IDO`
//! the wave makes (`ido_unshares`): one per run of equal holders,
//! whatever M. The re-guess is what keeps an interval per message: a
//! receive the current interval already covers opens none (DESIGN.md
//! S9), and a guess of an assumption already held registers nothing.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use hope_core::HopeEnv;
use hope_runtime::NetworkConfig;
use hope_types::{AidId, VirtualDuration};

use crate::harness::run_settled;
use crate::{decode_aids, encode_aids};

/// Measured message counts for one depth.
#[derive(Debug, Clone, Copy)]
pub struct QuadraticResult {
    /// Number of stacked guesses (= live intervals = AIDs).
    pub depth: u32,
    /// `Guess` registrations sent.
    pub guess_messages: u64,
    /// `Replace` messages sent by AID processes.
    pub replace_messages: u64,
    /// Total HOPE protocol messages.
    pub total_hope: u64,
}

/// One guesser stacks `depth` nested guesses; a definite resolver then
/// affirms every assumption. Returns the protocol message accounting.
pub fn measure(depth: u32, seed: u64) -> QuadraticResult {
    let mut env = HopeEnv::builder()
        .seed(seed)
        .network(NetworkConfig::lan())
        .build();
    let resolver = env.spawn_user("resolver", move |ctx| {
        let m = ctx.receive(None);
        let aids = decode_aids(&m.data);
        // Give the guesser time to stack every interval first.
        ctx.compute(VirtualDuration::from_millis(10));
        for aid in aids {
            ctx.affirm(aid);
        }
    });
    env.spawn_user("guesser", move |ctx| {
        let aids: Vec<AidId> = (0..depth).map(|_| ctx.aid_init()).collect();
        ctx.send(resolver, 0, encode_aids(&aids));
        for &aid in &aids {
            let _ = ctx.guess(aid);
        }
    });
    let report = run_settled(&mut env, &[]);
    QuadraticResult {
        depth,
        guess_messages: report.run.stats.count_kind("Guess"),
        replace_messages: report.run.stats.count_kind("Replace"),
        total_hope: report.run.stats.total_hope(),
    }
}

/// Guesses per E5b round, one tagged message after each: the speculation
/// depth, and the tagged receives of a round.
pub const LOCAL_DEPTH: u32 = 8;

const CH_AIDS: u32 = 0;
const CH_DATA: u32 = 1;
const CH_DONE: u32 = 2;

/// Measured local bookkeeping for one amount of settled history.
#[derive(Debug, Clone, Copy)]
pub struct LocalWorkResult {
    /// Rounds that ran — and became definite at both ends — before the
    /// measured one.
    pub settled_rounds: u32,
    /// Tagged messages received in the measured round.
    pub tagged_receives: u64,
    /// Interval records examined by history queries in the measured round,
    /// both processes together.
    pub history_visits: u64,
}

impl LocalWorkResult {
    /// The E5b figure: records examined per tagged receive.
    pub fn visits_per_receive(&self) -> f64 {
        self.history_visits as f64 / self.tagged_receives as f64
    }
}

/// The HOPE metrics after `rounds` whole rounds: the producer stacks
/// [`LOCAL_DEPTH`] guesses with `per_guess` tagged messages after each,
/// the consumer affirms them all, and neither starts the next round
/// before both are definite again. With `reguess` the consumer guesses
/// each message's newest assumption again after receiving it. Also
/// returns the intervals the consumer opened in the last round.
fn rounds_metrics(
    rounds: u32,
    per_guess: u32,
    reguess: bool,
    seed: u64,
) -> (hope_core::MetricsSnapshot, u32) {
    let mut env = HopeEnv::builder()
        .seed(seed)
        .network(NetworkConfig::lan())
        .build();
    let opened = Arc::new(AtomicU32::new(0));
    let last_round = opened.clone();
    let consumer = env.spawn_user("consumer", move |ctx| {
        for _ in 0..rounds {
            let first = ctx.receive(Some(CH_AIDS));
            let aids = decode_aids(&first.data);
            let start = ctx.current_interval().index();
            for k in 0..LOCAL_DEPTH * per_guess {
                let _ = ctx.receive(Some(CH_DATA));
                if reguess {
                    let _ = ctx.guess(aids[(k / per_guess) as usize]);
                }
            }
            last_round.store(ctx.current_interval().index() - start, Ordering::Relaxed);
            for aid in aids {
                ctx.affirm(aid);
            }
            ctx.await_definite();
            ctx.send(first.src, CH_DONE, Bytes::new());
        }
    });
    env.spawn_user("producer", move |ctx| {
        for _ in 0..rounds {
            let aids: Vec<AidId> = (0..LOCAL_DEPTH).map(|_| ctx.aid_init()).collect();
            ctx.send(consumer, CH_AIDS, encode_aids(&aids));
            for &aid in &aids {
                let _ = ctx.guess(aid);
                for _ in 0..per_guess {
                    ctx.send(consumer, CH_DATA, Bytes::new());
                }
            }
            ctx.await_definite();
            let _ = ctx.receive(Some(CH_DONE));
        }
    });
    let report = run_settled(&mut env, &[]);
    assert_eq!(report.hope.rollbacks, 0, "nothing is denied");
    (report.hope, opened.load(Ordering::Relaxed))
}

/// `history_visits` after `rounds` rounds of one tagged message per guess.
fn visits_after(rounds: u32, seed: u64) -> u64 {
    rounds_metrics(rounds, 1, false, seed).0.history_visits
}

/// One measured round after `settled_rounds` settled ones. The simulator
/// is deterministic per seed, so the measured round is the difference
/// between a run of `settled_rounds + 1` rounds and a run of
/// `settled_rounds`.
pub fn measure_local(settled_rounds: u32, seed: u64) -> LocalWorkResult {
    LocalWorkResult {
        settled_rounds,
        tagged_receives: u64::from(LOCAL_DEPTH),
        history_visits: visits_after(settled_rounds + 1, seed) - visits_after(settled_rounds, seed),
    }
}

/// Measured `Replace` bookkeeping for one size of live window.
#[derive(Debug, Clone, Copy)]
pub struct HolderResult {
    /// Live intervals at the consumer when the affirms go out, as counted
    /// there: [`LOCAL_DEPTH`] distinct dependency sets, this many holders.
    pub live_intervals: u32,
    /// Deep copies of a shared `IDO` made applying the round's `Replace`
    /// wave, both processes together.
    pub ido_unshares: u64,
}

/// One round with `per_guess` tagged messages after each guess, each
/// re-guessed by the consumer.
pub fn measure_holders(per_guess: u32, seed: u64) -> HolderResult {
    let (hope, live_intervals) = rounds_metrics(1, per_guess, true, seed);
    HolderResult {
        live_intervals,
        ido_unshares: hope.ido_unshares,
    }
}

/// Tabulates E5b's second half: flat when a `Replace` is applied once per
/// run of equal holders.
pub fn holders_table(results: &[HolderResult]) -> crate::table::Table {
    let mut table = crate::table::Table::new(
        "E5b: Replace bookkeeping vs. live intervals (one depth-8 round, 8 distinct sets)",
        &["live intervals", "ido unshares"],
    );
    for r in results {
        table.row(&[&r.live_intervals, &r.ido_unshares]);
    }
    table
}

/// Runs [`measure_local`] across a sweep of settled history.
pub fn local_sweep_results(settled: &[u32], seed: u64) -> Vec<LocalWorkResult> {
    settled.iter().map(|&n| measure_local(n, seed)).collect()
}

/// Tabulates E5b: flat when history queries stay off the definite prefix.
pub fn local_table(results: &[LocalWorkResult]) -> crate::table::Table {
    let mut table = crate::table::Table::new(
        "E5b: local bookkeeping vs. settled history (depth-8 rounds, §5 commit point)",
        &[
            "settled rounds N",
            "tagged receives",
            "history visits",
            "visits/receive",
        ],
    );
    for r in results {
        table.row(&[
            &r.settled_rounds,
            &r.tagged_receives,
            &r.history_visits,
            &format_args!("{:.1}", r.visits_per_receive()),
        ]);
    }
    table
}

/// Runs [`measure`] across a depth sweep and returns the raw per-depth
/// results (the perf-baseline JSON wants numbers, not a rendered table).
pub fn sweep_results(depths: &[u32], seed: u64) -> Vec<QuadraticResult> {
    depths.iter().map(|&depth| measure(depth, seed)).collect()
}

/// Sweeps guess depth and tabulates the growth (linear under delta
/// registration; the paper's §6 formulation was quadratic).
pub fn sweep(depths: &[u32], seed: u64) -> crate::table::Table {
    let mut table = crate::table::Table::new(
        "E5: dependency-tracking cost vs. speculation depth (delta registration, §6)",
        &[
            "depth N",
            "Guess msgs",
            "Replace msgs",
            "total HOPE msgs",
            "msgs/N",
        ],
    );
    for r in sweep_results(depths, seed) {
        let depth = r.depth;
        table.row(&[
            &depth,
            &r.guess_messages,
            &r.replace_messages,
            &r.total_hope,
            &format_args!("{:.1}", r.total_hope as f64 / depth.max(1) as f64),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guess_registrations_are_linear() {
        // Delta registration: each interval registers only with its fresh
        // guess (the inherited prefix is already registered), so N stacked
        // guesses cost exactly N registrations — down from N(N+1)/2.
        let r = measure(8, 1);
        assert_eq!(r.guess_messages, 8);
    }

    #[test]
    fn replace_wave_is_linear_too() {
        // Each AID has a single registrant (its earliest holder), so each
        // of the N affirms triggers exactly one Replace; the substitution
        // reaches later holders locally — down from N(N+1)/2 messages.
        let r = measure(8, 1);
        assert_eq!(r.replace_messages, 8);
    }

    #[test]
    fn growth_is_linear() {
        let a = measure(4, 1);
        let b = measure(16, 1);
        // 4× the depth must cost exactly 4× the messages (3N total: one
        // Guess, one Affirm and one Replace per assumption).
        assert_eq!(a.total_hope, 12);
        assert_eq!(b.total_hope, 48);
    }

    #[test]
    fn a_replace_unshares_once_per_distinct_set_not_once_per_holder() {
        let (few, many) = (measure_holders(1, 1), measure_holders(32, 1));
        // A receive interval per new assumption plus a re-guess per message.
        assert_eq!(few.live_intervals, 8 * 2);
        assert_eq!(many.live_intervals, 8 * 33);
        assert!(few.ido_unshares > 0, "depth 8 is past the inline tier");
        assert_eq!(many.ido_unshares, few.ido_unshares, "{few:?} -> {many:?}");
    }

    #[test]
    fn local_work_does_not_grow_with_settled_history() {
        let (fresh, aged) = (measure_local(1, 1), measure_local(16, 1));
        assert_eq!(fresh.tagged_receives, u64::from(LOCAL_DEPTH));
        assert!(fresh.history_visits > 0);
        // 16x the definite prefix: binary-search probes may add a few
        // visits, a front scan would add hundreds.
        assert!(
            aged.history_visits < fresh.history_visits * 3 / 2,
            "{fresh:?} -> {aged:?}"
        );
    }

    #[test]
    fn sweep_rows_match_depths() {
        let t = sweep(&[2, 4, 8], 1);
        assert_eq!(t.rows.len(), 3);
    }
}
