//! E-perf — reliable-link streaming under speculation.
//!
//! One producer streams user messages to one consumer over a reliable
//! LAN link while stacking speculative guesses, so every message
//! piggybacks a growing dependency tag and the per-link delta codec is
//! exercised end to end; the consumer then affirms every assumption.
//! What the run yields is deterministic per seed: tag bytes verbatim vs.
//! on the wire, `Guess` registrations (linear in depth under delta
//! registration), and the *virtual* cost of each `guess`/`affirm` — the
//! wait-free claim is that it is zero. How long any of it takes on a
//! wall clock is `perfbench`'s question (`stream_spec`), not this one's.

use std::sync::{Arc, Mutex};

use hope_core::{HopeEnv, HopeReport};
use hope_runtime::NetworkConfig;
use hope_types::{AidId, VirtualDuration};

use crate::harness::run_settled;
use crate::{decode_aids, encode_aids, encode_u64s};

/// Parameters of one streaming run.
#[derive(Debug, Clone, Copy)]
pub struct ThroughputConfig {
    /// User messages streamed.
    pub messages: u64,
    /// Guesses stacked while streaming (spread evenly over the stream).
    pub depth: u32,
    /// Runtime seed.
    pub seed: u64,
}

/// Outcome of one streaming run.
#[derive(Debug)]
pub struct ThroughputResult {
    /// The run's full report (clock, message and link statistics).
    pub report: HopeReport,
    /// Virtual nanoseconds each `guess` took.
    pub guess_virtual_ns: Vec<f64>,
    /// Virtual nanoseconds each `affirm` took.
    pub affirm_virtual_ns: Vec<f64>,
    /// Events the causal tracer collected (0 when tracing was off).
    pub trace_events: usize,
}

/// One full producer/consumer run; `tracing` (a ring capacity) turns the
/// causal tracer on, which must not change anything else in the result.
pub fn run(cfg: ThroughputConfig, tracing: Option<usize>) -> ThroughputResult {
    let guess_ns = Arc::new(Mutex::new(Vec::new()));
    let affirm_ns = Arc::new(Mutex::new(Vec::new()));

    let mut env = HopeEnv::builder()
        .seed(cfg.seed)
        .network(NetworkConfig::lan())
        .reliable(true)
        .build();
    if let Some(capacity) = tracing {
        env.enable_tracing(capacity);
    }
    let tracer = env.tracer();
    let affirm_samples = Arc::clone(&affirm_ns);
    let consumer = env.spawn_user("consumer", move |ctx| {
        let aids = decode_aids(&ctx.receive(Some(1)).data);
        for _ in 0..cfg.messages {
            let _ = ctx.receive(Some(0));
        }
        // Let the producer finish its sends before resolution starts.
        ctx.compute(VirtualDuration::from_millis(10));
        for aid in aids {
            let before = ctx.now();
            ctx.affirm(aid);
            let cost = ctx.now().as_nanos() - before.as_nanos();
            affirm_samples.lock().unwrap().push(cost as f64);
        }
    });
    let guess_samples = Arc::clone(&guess_ns);
    env.spawn_user("producer", move |ctx| {
        let aids: Vec<AidId> = (0..cfg.depth).map(|_| ctx.aid_init()).collect();
        ctx.send(consumer, 1, encode_aids(&aids));
        let stride = (cfg.messages / u64::from(cfg.depth)).max(1);
        let mut next_guess = 0usize;
        for i in 0..cfg.messages {
            if i % stride == 0 && next_guess < aids.len() {
                let aid = aids[next_guess];
                next_guess += 1;
                let before = ctx.now();
                let _ = ctx.guess(aid);
                let cost = ctx.now().as_nanos() - before.as_nanos();
                guess_samples.lock().unwrap().push(cost as f64);
            }
            ctx.send(consumer, 0, encode_u64s(&[i]));
            // Pace the stream so link acks flow back between sends: an
            // unpaced burst outruns every ack and the tag codec would
            // (correctly, but uninterestingly) ship nothing but `Full`.
            ctx.compute(VirtualDuration::from_micros(200));
        }
    });

    let report = run_settled(&mut env, &[]);
    let guess_virtual_ns = std::mem::take(&mut *guess_ns.lock().unwrap());
    let affirm_virtual_ns = std::mem::take(&mut *affirm_ns.lock().unwrap());
    ThroughputResult {
        report,
        guess_virtual_ns,
        affirm_virtual_ns,
        trace_events: tracer.len(),
    }
}

/// Asserts that `traced` (same config, tracer on) reproduces `plain`
/// exactly: tracing is pure observation.
pub fn assert_tracing_is_observation(plain: &ThroughputResult, traced: &ThroughputResult) {
    assert!(
        traced.trace_events > 0,
        "the traced run must actually collect events"
    );
    assert_eq!(
        plain.report.run.now, traced.report.run.now,
        "tracing must not move the virtual clock"
    );
    assert_eq!(
        plain.report.run.stats.link(),
        traced.report.run.stats.link(),
        "tracing must not change wire traffic"
    );
    assert_eq!(
        plain.report.hope.finalized_intervals, traced.report.hope.finalized_intervals,
        "tracing must not change interval resolution"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::percentile;

    const SMALL: ThroughputConfig = ThroughputConfig {
        messages: 120,
        depth: 6,
        seed: 3,
    };

    #[test]
    fn primitives_cost_no_virtual_time_and_tags_shrink_on_the_wire() {
        let r = run(SMALL, None);
        assert_eq!(r.guess_virtual_ns.len(), SMALL.depth as usize);
        assert_eq!(r.affirm_virtual_ns.len(), SMALL.depth as usize);
        assert_eq!(percentile(&r.guess_virtual_ns, 1.0), 0.0);
        assert_eq!(percentile(&r.affirm_virtual_ns, 1.0), 0.0);
        let link = r.report.run.stats.link();
        assert!(link.tags_delta > link.tags_full);
        assert!(link.tag_bytes_wire < link.tag_bytes_full);
    }

    #[test]
    fn a_traced_run_is_the_same_run() {
        let plain = run(SMALL, None);
        let traced = run(SMALL, Some(1 << 12));
        assert_eq!(plain.trace_events, 0);
        assert_tracing_is_observation(&plain, &traced);
    }
}
