//! The causal trace of a small optimistic execution (one guess, denied by
//! a verifier) — the tool to reach for when asking "why did this roll
//! back?". P0 is the verifier, P1 the guesser, P2 onwards are AID
//! processes; a `deliver` row carries the Table 1 message kind and the
//! `rollback` row names the deny that caused it.

use hope_core::HopeEnv;
use hope_sim::json::Value;
use hope_sim::table::Table;
use hope_sim::trace_export::describe;
use hope_sim::{decode_aids, encode_aids};
use hope_types::VirtualDuration;

use crate::{Opts, Report};

pub(crate) fn run(_: &Opts) -> Report {
    let mut env = HopeEnv::builder().seed(1).build();
    env.enable_tracing(10_000);
    let verifier = env.spawn_user("verifier", |ctx| {
        let aid = decode_aids(&ctx.receive(None).data)[0];
        ctx.compute(VirtualDuration::from_millis(1));
        ctx.deny(aid);
    });
    env.spawn_user("guesser", move |ctx| {
        let x = ctx.aid_init();
        ctx.send(verifier, 0, encode_aids(&[x]));
        if ctx.guess(x) {
            ctx.compute(VirtualDuration::from_millis(10));
        }
    });
    let report = env.run();
    assert!(report.is_clean());
    let mut table = Table::new(
        "Causal trace: P0=verifier P1=guesser P2+=AID processes",
        &["t", "pid", "event", "args"],
    );
    // The wall-clock stamp is left out: the transcript is deterministic.
    for e in env.tracer().events() {
        let (name, _, args) = describe(&e.kind);
        let args: Vec<String> = args
            .iter()
            .map(|(key, value)| match value {
                Value::String(s) => format!("{key}={s}"),
                Value::Number(n) => format!("{key}={n}"),
                _ => format!("{key}=-"),
            })
            .collect();
        table.row(&[&e.virt, &e.pid, &name, &args.join(" ")]);
    }
    Report::new(table, vec![format!("metrics: {}", report.hope)])
}
