//! E-perf — reliable-link streaming under speculation.
//!
//! One producer streams user messages to one consumer over a reliable
//! LAN link while stacking speculative guesses, so every message
//! piggybacks a growing dependency tag; the consumer then affirms every
//! assumption. What the run yields is deterministic per seed: the tags
//! the producer sent, `Guess` registrations (linear in depth under delta
//! registration), and the *virtual* cost of each `guess`/`affirm` — the
//! wait-free claim is that it is zero. What those tags would cost on a
//! wire that codes them is [`tag_wire`]'s model. How long any of it takes
//! on a wall clock is `perfbench`'s question (`stream_spec`), not this
//! one's.

use std::sync::{Arc, Mutex};

use hope_core::{HopeEnv, HopeReport, ProcessCtx};
use hope_runtime::NetworkConfig;
use hope_types::{full_set_wire_len, AidId, IdoSet, SetCoding, TagEncoder, VirtualDuration};

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
    /// The dependency tag of each message the producer sent, in order.
    pub tags: Vec<IdoSet>,
    /// Events the causal tracer collected (0 when tracing was off).
    pub trace_events: usize,
}

/// One full producer/consumer run; `tracing` (a ring capacity) turns the
/// causal tracer on, which must not change anything else in the result.
pub fn run(cfg: ThroughputConfig, tracing: Option<usize>) -> ThroughputResult {
    let guess_ns = Arc::new(Mutex::new(Vec::new()));
    let affirm_ns = Arc::new(Mutex::new(Vec::new()));
    let tags = Arc::new(Mutex::new(Vec::new()));

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
    let sent_tags = Arc::clone(&tags);
    env.spawn_user("producer", move |ctx| {
        // The tag a live send carries; a replayed one is not sent again.
        let tagged = |ctx: &ProcessCtx<'_>| {
            if !ctx.is_replaying() {
                sent_tags.lock().unwrap().push(ctx.current_deps());
            }
        };
        let aids: Vec<AidId> = (0..cfg.depth).map(|_| ctx.aid_init()).collect();
        tagged(ctx);
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
            tagged(ctx);
            ctx.send(consumer, 0, encode_u64s(&[i]));
            // Pace the stream so link acks flow back while it runs.
            ctx.compute(VirtualDuration::from_micros(200));
        }
    });

    let report = run_settled(&mut env, &[]);
    let guess_virtual_ns = std::mem::take(&mut *guess_ns.lock().unwrap());
    let affirm_virtual_ns = std::mem::take(&mut *affirm_ns.lock().unwrap());
    let tags = std::mem::take(&mut *tags.lock().unwrap());
    ThroughputResult {
        report,
        guess_virtual_ns,
        affirm_virtual_ns,
        tags,
        trace_events: tracer.len(),
    }
}

/// What a stream of tags costs on one link that delta-codes them.
#[derive(Debug, Default)]
pub struct TagWire {
    /// Bytes the tags cost shipped verbatim.
    pub bytes_full: u64,
    /// Bytes the codings cost.
    pub bytes_wire: u64,
    /// Tags shipped verbatim.
    pub full: u64,
    /// Tags shipped as deltas.
    pub delta: u64,
}

/// The wire-cost model of E-perf: `tags` go out in order on one link
/// through a [`TagEncoder`], and the model acknowledges each before the
/// next is sent, so every coding after the first is a delta against the
/// tag before it. That is an ideal FIFO wire coding against the last
/// *sent* tag, not the run's link, whose cumulative acks come once per
/// [`ACK_EVERY`](hope_runtime::ACK_EVERY) in-order arrivals or at the
/// delayed-ack timer: a codec waiting for those would code against an
/// older base.
pub fn tag_wire(tags: &[IdoSet]) -> TagWire {
    let mut enc = TagEncoder::default();
    let mut wire = TagWire::default();
    for (seq, tag) in (1..).zip(tags) {
        let coding = enc.encode(seq, tag);
        wire.bytes_full += full_set_wire_len(tag) as u64;
        wire.bytes_wire += coding.wire_len() as u64;
        match coding {
            SetCoding::Full { .. } => wire.full += 1,
            SetCoding::Delta { .. } => wire.delta += 1,
        }
        enc.on_ack(seq);
    }
    wire
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
    assert_eq!(plain.tags, traced.tags, "tracing must not change a tag");
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
        assert_eq!(r.tags.len() as u64, SMALL.messages + 1);
        let wire = tag_wire(&r.tags);
        assert!(wire.delta > wire.full);
        assert!(wire.bytes_wire < wire.bytes_full);
    }

    #[test]
    fn a_traced_run_is_the_same_run() {
        let plain = run(SMALL, None);
        let traced = run(SMALL, Some(1 << 12));
        assert_eq!(plain.trace_events, 0);
        assert_tracing_is_observation(&plain, &traced);
    }
}
