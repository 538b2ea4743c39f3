//! The full message-sequence trace of a small optimistic execution (one
//! guess, denied by a verifier) — the tool to reach for when asking "why
//! did this roll back?". P0 is the verifier, P1 the guesser, P2 onwards
//! are AID processes; the `kind` column separates user traffic from the
//! HOPE protocol.

use hope_core::HopeEnv;
use hope_sim::table::Table;
use hope_sim::{decode_aids, encode_aids};
use hope_types::VirtualDuration;

use crate::{Opts, Report};

pub(crate) fn run(_: &Opts) -> Report {
    let mut env = HopeEnv::builder().seed(1).trace(10_000).build();
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
        "Delivery trace: P0=verifier P1=guesser P2+=AID processes",
        &["t", "from", "to", "kind", "message"],
    );
    for e in env.runtime().trace().expect("tracing enabled").events() {
        table.row(&[&e.at, &e.src, &e.dst, &e.kind, &e.detail]);
    }
    Report::new(table, vec![format!("metrics: {}", report.hope)])
}
