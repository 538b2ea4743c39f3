//! T1 — Table 1 message accounting from a live run.
//!
//! A canonical program exercising all five protocol messages (an affirmed
//! guess, a denied guess, and a speculative affirm chain), measured by the
//! runtime's per-(type, from, to) counters and printed in the layout of
//! the paper's Table 1.

use hope_core::HopeEnv;
use hope_runtime::{MessageStats, NetworkConfig, PartyKind};
use hope_types::VirtualDuration;

use crate::harness::run_settled;
use crate::{decode_aids, encode_aids};

/// Runs the canonical protocol workload and returns the message counters.
pub fn run_canonical(seed: u64) -> MessageStats {
    let mut env = HopeEnv::builder()
        .seed(seed)
        .network(NetworkConfig::lan())
        .build();
    let verifier = env.spawn_user("verifier", move |ctx| {
        let m = ctx.receive(None);
        let aids = decode_aids(&m.data);
        ctx.compute(VirtualDuration::from_millis(1));
        ctx.affirm(aids[0]); // resolves the optimistic guess
        ctx.deny(aids[1]); // forces a rollback
        ctx.affirm(aids[2]); // resolves the post-rollback re-guess chain
    });
    env.spawn_user("guesser", move |ctx| {
        let a = ctx.aid_init();
        let b = ctx.aid_init();
        let c = ctx.aid_init();
        ctx.send(verifier, 0, encode_aids(&[a, b, c]));
        if ctx.guess(a) {
            // Speculative affirm: exercises Affirm with a non-empty IDO.
            if ctx.guess(c) {
                ctx.compute(VirtualDuration::from_micros(100));
            }
        }
        if ctx.guess(b) {
            ctx.compute(VirtualDuration::from_millis(5));
        }
    });
    run_settled(&mut env, &[]).run.stats
}

/// Formats message counters in the paper's Table 1 layout.
pub fn table_1(stats: &MessageStats) -> crate::table::Table {
    let mut table = crate::table::Table::new(
        "Table 1: basic HOPE messages (live counts from the canonical run)",
        &["Type", "From", "To", "Meaning", "Count"],
    );
    let rows: [(&str, PartyKind, PartyKind, &str); 5] = [
        (
            "Guess",
            PartyKind::User,
            PartyKind::Aid,
            "sender guesses AID is true",
        ),
        (
            "Affirm",
            PartyKind::User,
            PartyKind::Aid,
            "sender affirms AID, subject to IDO",
        ),
        (
            "Deny",
            PartyKind::User,
            PartyKind::Aid,
            "sender denies AID unconditionally",
        ),
        (
            "Replace",
            PartyKind::Aid,
            PartyKind::User,
            "replace sender with IDO in iid.IDO",
        ),
        (
            "Rollback",
            PartyKind::Aid,
            PartyKind::User,
            "rollback interval iid",
        ),
    ];
    for (kind, from, to, meaning) in rows {
        table.row(&[&kind, &from, &to, &meaning, &stats.count(kind, from, to)]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_run_exercises_all_five_message_types() {
        let stats = run_canonical(1);
        for kind in ["Guess", "Affirm", "Deny", "Replace", "Rollback"] {
            assert!(
                stats.count_kind(kind) > 0,
                "message type {kind} must appear in the canonical run"
            );
        }
    }

    #[test]
    fn directions_match_table_1() {
        let stats = run_canonical(1);
        // Guess/Affirm/Deny flow User→AID; Replace/Rollback flow AID→User.
        assert_eq!(stats.count("Guess", PartyKind::Aid, PartyKind::User), 0);
        assert_eq!(stats.count("Replace", PartyKind::User, PartyKind::Aid), 0);
        assert_eq!(stats.count("Rollback", PartyKind::User, PartyKind::Aid), 0);
        assert!(stats.count("Guess", PartyKind::User, PartyKind::Aid) > 0);
        assert!(stats.count("Replace", PartyKind::Aid, PartyKind::User) > 0);
    }

    #[test]
    fn table_has_five_rows_with_counts() {
        let stats = run_canonical(1);
        let t = table_1(&stats);
        assert_eq!(t.rows.len(), 5);
        for row in &t.rows {
            let count: u64 = row[4].parse().unwrap();
            assert!(count > 0, "row {row:?} must have a non-zero count");
        }
    }
}
