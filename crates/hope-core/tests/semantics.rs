//! End-to-end semantics tests for the HOPE algorithm, mapped to the
//! paper's figures and lemmas (see DESIGN.md experiment index, F3–F14/E1).

use std::sync::{Arc, Mutex};

use bytes::Bytes;
use hope_core::{DenyPolicy, HopeEnv, HopeEnvBuilder, RetractPolicy};
use hope_runtime::NetworkConfig;
use hope_types::{AidId, ProcessId, VirtualDuration};

type Trace = Arc<Mutex<Vec<String>>>;

fn trace() -> Trace {
    Arc::new(Mutex::new(Vec::new()))
}

fn push(t: &Trace, s: impl Into<String>) {
    t.lock().unwrap().push(s.into());
}

fn entries(t: &Trace) -> Vec<String> {
    t.lock().unwrap().clone()
}

fn env() -> HopeEnv {
    HopeEnv::builder().seed(1).build()
}

/// Trace push that suppresses duplicates during rollback replay: plain
/// side effects re-run when the closure is re-executed (exactly like
/// repeated `printf` output in the paper's prototype), so exact-sequence
/// assertions must guard on [`hope_core::ProcessCtx::is_replaying`].
fn pushc(ctx: &hope_core::ProcessCtx<'_>, t: &Trace, s: impl Into<String>) {
    if !ctx.is_replaying() {
        push(t, s);
    }
}

fn builder() -> HopeEnvBuilder {
    HopeEnv::builder().seed(1)
}

/// Channel used to pass an AID between processes as data.
fn encode_aid(aid: AidId) -> Bytes {
    Bytes::copy_from_slice(&aid.process().as_raw().to_le_bytes())
}

fn decode_aid(data: &[u8]) -> AidId {
    let mut raw = [0u8; 8];
    raw.copy_from_slice(&data[..8]);
    AidId::from_raw(ProcessId::from_raw(u64::from_le_bytes(raw)))
}

#[test]
fn guess_then_affirm_retains_optimistic_path() {
    let mut env = env();
    let t = trace();
    let t2 = t.clone();
    env.spawn_user("p", move |ctx| {
        let x = ctx.aid_init();
        if ctx.guess(x) {
            push(&t2, "optimistic");
            ctx.affirm(x);
        } else {
            push(&t2, "pessimistic");
        }
        push(&t2, "after");
    });
    let report = env.run();
    assert!(report.is_clean(), "{:?}", report.run.panics);
    assert!(report.run.blocked.is_empty(), "all intervals must finalize");
    assert_eq!(entries(&t), vec!["optimistic", "after"]);
    assert_eq!(report.hope.rollbacks, 0);
    assert_eq!(report.hope.finalized_intervals, 1);
}

#[test]
fn guess_then_deny_rolls_back_to_pessimistic_path() {
    let mut env = env();
    let t = trace();
    let t2 = t.clone();
    env.spawn_user("p", move |ctx| {
        let x = ctx.aid_init();
        if ctx.guess(x) {
            push(&t2, "optimistic");
            ctx.deny(x);
            push(&t2, "unreachable-ish"); // runs until the rollback lands
        } else {
            push(&t2, "pessimistic");
        }
    });
    let report = env.run();
    assert!(report.is_clean());
    let log = entries(&t);
    assert_eq!(log[0], "optimistic");
    assert!(log.contains(&"pessimistic".to_string()));
    assert_eq!(report.hope.rollbacks, 1);
    assert_eq!(report.hope.reexecutions, 1);
}

#[test]
fn third_party_affirmer_resolves_the_guess() {
    // The paper's central pattern: "Any process in the program may confirm
    // an assumption."
    let mut env = env();
    let t = trace();
    let t2 = t.clone();
    let t3 = t.clone();
    // The guesser sends the AID to a verifier and runs ahead.
    let verifier = env.spawn_user("verifier", move |ctx| {
        let m = ctx.receive(None);
        let aid = decode_aid(&m.data);
        ctx.compute(VirtualDuration::from_millis(5)); // verification work
        ctx.affirm(aid);
        push(&t3, "verified");
    });
    env.spawn_user("guesser", move |ctx| {
        let x = ctx.aid_init();
        ctx.send(verifier, 0, encode_aid(x));
        if ctx.guess(x) {
            push(&t2, "ran ahead");
        } else {
            push(&t2, "rolled back");
        }
    });
    let report = env.run();
    assert!(report.is_clean());
    assert!(report.run.blocked.is_empty());
    let log = entries(&t);
    assert!(log.contains(&"ran ahead".to_string()));
    assert!(!log.contains(&"rolled back".to_string()));
}

#[test]
fn third_party_denier_rolls_back_the_guesser() {
    let mut env = env();
    let t = trace();
    let t2 = t.clone();
    let verifier = env.spawn_user("verifier", move |ctx| {
        let m = ctx.receive(None);
        let aid = decode_aid(&m.data);
        ctx.deny(aid);
    });
    env.spawn_user("guesser", move |ctx| {
        let x = ctx.aid_init();
        ctx.send(verifier, 0, encode_aid(x));
        if ctx.guess(x) {
            push(&t2, "optimistic");
            // keep working while the verifier decides
            ctx.compute(VirtualDuration::from_millis(50));
            push(&t2, "post-compute");
        } else {
            push(&t2, "pessimistic");
        }
    });
    let report = env.run();
    assert!(report.is_clean());
    let log = entries(&t);
    assert_eq!(log.first().map(String::as_str), Some("optimistic"));
    assert!(log.contains(&"pessimistic".to_string()));
}

#[test]
fn speculative_message_rolls_back_receiver_transitively() {
    // Dependency tracking across processes: a speculative sender's message
    // tags the receiver, which must roll back when the assumption dies.
    let mut env = env();
    let t = trace();
    let t2 = t.clone();
    let t3 = t.clone();
    let downstream = env.spawn_user("downstream", move |ctx| {
        let m = ctx.receive(None);
        push(&t3, format!("consumed {:?}", &m.data[..]));
        // Block for a possible replacement message after rollback.
        let m2 = ctx.receive(None);
        push(&t3, format!("consumed2 {:?}", &m2.data[..]));
    });
    env.spawn_user("speculator", move |ctx| {
        let x = ctx.aid_init();
        if ctx.guess(x) {
            ctx.send(downstream, 0, Bytes::from_static(b"spec"));
            push(&t2, "sent speculative");
            ctx.deny(x);
        } else {
            ctx.send(downstream, 0, Bytes::from_static(b"safe"));
            push(&t2, "sent safe");
        }
        ctx.send(downstream, 0, Bytes::from_static(b"tail"));
    });
    let report = env.run();
    assert!(report.is_clean(), "{:?}", report.run.panics);
    let log = entries(&t);
    // The downstream consumed the speculative message, rolled back
    // (discarding it), then consumed the safe replacement.
    assert!(log.contains(&"consumed [115, 112, 101, 99]".to_string())); // "spec"
    assert!(log.contains(&"consumed [115, 97, 102, 101]".to_string())); // "safe"
    assert!(report.hope.implicit_guesses >= 1);
    assert!(report.hope.rollbacks >= 2, "speculator and downstream");
}

#[test]
fn affirm_transitivity_lemma_5_3() {
    // Interval A (speculative on Y) affirms X; B depends on X.
    // When Y is affirmed, A finalizes, X becomes definitely true, and B
    // finalizes — without B ever knowing about Y directly at guess time.
    let mut env = env();
    let t = trace();
    let tb = t.clone();
    // Process B: receives X, guesses it, runs ahead.
    let b = env.spawn_user("B", move |ctx| {
        let m = ctx.receive(None);
        let x = decode_aid(&m.data);
        if ctx.guess(x) {
            push(&tb, "B ran ahead");
        } else {
            push(&tb, "B rolled back");
        }
    });
    let ta = t.clone();
    // Process A: guesses Y, speculatively affirms X, later Y is affirmed.
    env.spawn_user("A", move |ctx| {
        let y = ctx.aid_init();
        let x = ctx.aid_init();
        ctx.send(b, 0, encode_aid(x));
        if ctx.guess(y) {
            push(&ta, "A speculative");
            ctx.affirm(x); // speculative affirm: X enters Maybe with A_IDO={Y}
            ctx.compute(VirtualDuration::from_millis(1));
            ctx.affirm(y); // resolves Y, finalizing A, then definitely X
        } else {
            push(&ta, "A pessimistic");
        }
    });
    let report = env.run();
    assert!(report.is_clean());
    assert!(report.run.blocked.is_empty(), "everything must finalize");
    let log = entries(&t);
    assert!(log.contains(&"A speculative".to_string()));
    assert!(log.contains(&"B ran ahead".to_string()));
    assert!(!log.contains(&"B rolled back".to_string()));
    assert_eq!(report.hope.rollbacks, 0);
}

#[test]
fn affirm_transitivity_denial_cascades() {
    // Same as above but Y is denied: A rolls back and B — who replaced X
    // with A_IDO={Y} — rolls back too (the Keep retract policy's cascade).
    let mut env = env();
    let t = trace();
    let tb = t.clone();
    let b = env.spawn_user("B", move |ctx| {
        let m = ctx.receive(None);
        let x = decode_aid(&m.data);
        if ctx.guess(x) {
            push(&tb, "B ran ahead");
        } else {
            push(&tb, "B rolled back");
        }
    });
    let ta = t.clone();
    env.spawn_user("A", move |ctx| {
        let y = ctx.aid_init();
        let x = ctx.aid_init();
        ctx.send(b, 0, encode_aid(x));
        if ctx.guess(y) {
            push(&ta, "A speculative");
            ctx.affirm(x);
            ctx.compute(VirtualDuration::from_millis(1));
            ctx.deny(y);
        } else {
            push(&ta, "A pessimistic");
            // Pessimistic path: X must still be resolved for B; deny it.
            ctx.deny(x);
        }
    });
    let report = env.run();
    assert!(report.is_clean(), "{:?}", report.run.panics);
    let log = entries(&t);
    assert!(log.contains(&"A speculative".to_string()));
    assert!(log.contains(&"A pessimistic".to_string()));
    assert!(log.contains(&"B rolled back".to_string()));
}

#[test]
fn non_interleaved_affirms_figure_12() {
    // A depends on Y and affirms X; B depends on X and affirms Y —
    // executed serially (A first). Both must finalize.
    let mut env = env();
    let t = trace();
    let ta = t.clone();
    let tb = t.clone();
    let coordinator_t = t.clone();
    // Coordinator creates X and Y and distributes them.
    let a = env.spawn_user("A", move |ctx| {
        let m = ctx.receive(None);
        let y = decode_aid(&m.data[..8]);
        let x = decode_aid(&m.data[8..]);
        if ctx.guess(y) {
            ctx.affirm(x);
            push(&ta, "A affirmed X");
        } else {
            push(&ta, "A rolled back");
        }
    });
    let b = env.spawn_user("B", move |ctx| {
        let m = ctx.receive(None);
        let y = decode_aid(&m.data[..8]);
        let x = decode_aid(&m.data[8..]);
        // Serialize: B acts later than A.
        ctx.compute(VirtualDuration::from_millis(10));
        if ctx.guess(x) {
            ctx.affirm(y);
            push(&tb, "B affirmed Y");
        } else {
            push(&tb, "B rolled back");
        }
    });
    env.spawn_user("coordinator", move |ctx| {
        let y = ctx.aid_init();
        let x = ctx.aid_init();
        let mut payload = Vec::new();
        payload.extend_from_slice(&encode_aid(y));
        payload.extend_from_slice(&encode_aid(x));
        let payload = Bytes::from(payload);
        ctx.send(a, 0, payload.clone());
        ctx.send(b, 0, payload);
        push(&coordinator_t, "distributed");
    });
    let report = env.run();
    assert!(report.is_clean());
    assert!(
        report.run.blocked.is_empty(),
        "both A and B must finalize: {:?}",
        report.run.blocked
    );
    let log = entries(&t);
    assert!(log.contains(&"A affirmed X".to_string()));
    assert!(log.contains(&"B affirmed Y".to_string()));
}

#[test]
fn interleaved_affirms_figure_13_14_cycle_resolved() {
    // The interference case: A and B affirm simultaneously, forming the
    // X↔Y dependency cycle of Figure 13. Algorithm 2's UDO detection must
    // break the cycle (Figure 14) and both intervals must finalize.
    let mut env = env();
    let t = trace();
    let ta = t.clone();
    let tb = t.clone();
    let a = env.spawn_user("A", move |ctx| {
        let m = ctx.receive(None);
        let y = decode_aid(&m.data[..8]);
        let x = decode_aid(&m.data[8..]);
        if ctx.guess(y) {
            ctx.affirm(x); // while depending on Y
            push(&ta, "A affirmed X");
        } else {
            push(&ta, "A rolled back");
        }
    });
    let b = env.spawn_user("B", move |ctx| {
        let m = ctx.receive(None);
        let y = decode_aid(&m.data[..8]);
        let x = decode_aid(&m.data[8..]);
        if ctx.guess(x) {
            ctx.affirm(y); // while depending on X — simultaneous
            push(&tb, "B affirmed Y");
        } else {
            push(&tb, "B rolled back");
        }
    });
    env.spawn_user("coordinator", move |ctx| {
        let y = ctx.aid_init();
        let x = ctx.aid_init();
        let mut payload = Vec::new();
        payload.extend_from_slice(&encode_aid(y));
        payload.extend_from_slice(&encode_aid(x));
        let payload = Bytes::from(payload);
        ctx.send(a, 0, payload.clone());
        ctx.send(b, 0, payload);
    });
    let report = env.run();
    assert!(report.is_clean(), "{:?}", report.run.panics);
    assert!(
        report.run.blocked.is_empty(),
        "cycle must be broken, not spin: {:?}",
        report.run.blocked
    );
    assert!(report.hope.cycles_broken >= 1, "UDO detection must fire");
    let log = entries(&t);
    assert!(log.contains(&"A affirmed X".to_string()));
    assert!(log.contains(&"B affirmed Y".to_string()));
}

#[test]
fn interleaved_affirms_algorithm_1_does_not_converge() {
    // With cycle detection off (Algorithm 1), the same program "bounces"
    // Replace messages around the X↔Y ring forever (paper, §5.3). Cap the
    // event count: hitting the cap with nothing finalized IS the result.
    let mut env = builder().cycle_detection(false).max_events(200_000).build();
    let a = env.spawn_user("A", move |ctx| {
        let m = ctx.receive(None);
        let y = decode_aid(&m.data[..8]);
        let x = decode_aid(&m.data[8..]);
        if ctx.guess(y) {
            ctx.affirm(x);
        }
    });
    let b = env.spawn_user("B", move |ctx| {
        let m = ctx.receive(None);
        let y = decode_aid(&m.data[..8]);
        let x = decode_aid(&m.data[8..]);
        if ctx.guess(x) {
            ctx.affirm(y);
        }
    });
    env.spawn_user("coordinator", move |ctx| {
        let y = ctx.aid_init();
        let x = ctx.aid_init();
        let mut payload = Vec::new();
        payload.extend_from_slice(&encode_aid(y));
        payload.extend_from_slice(&encode_aid(x));
        let payload = Bytes::from(payload);
        ctx.send(a, 0, payload.clone());
        ctx.send(b, 0, payload);
    });
    let report = env.run();
    assert!(report.run.panics.is_empty());
    assert!(
        report.run.hit_event_limit || !report.run.blocked.is_empty(),
        "Algorithm 1 must either bounce forever or leave the intervals speculative"
    );
    assert_eq!(report.hope.cycles_broken, 0);
}

#[test]
fn free_of_affirms_when_independent() {
    let mut env = env();
    let t = trace();
    let t2 = t.clone();
    let t3 = t.clone();
    let checker = env.spawn_user("checker", move |ctx| {
        let m = ctx.receive(None);
        let aid = decode_aid(&m.data);
        // This process never depended on the AID.
        let free = ctx.free_of(aid);
        push(&t3, format!("free={free}"));
    });
    env.spawn_user("owner", move |ctx| {
        let x = ctx.aid_init();
        ctx.send(checker, 0, encode_aid(x));
        if ctx.guess(x) {
            push(&t2, "optimistic");
        } else {
            push(&t2, "pessimistic");
        }
    });
    let report = env.run();
    assert!(report.is_clean());
    let log = entries(&t);
    assert!(log.contains(&"free=true".to_string()));
    assert!(log.contains(&"optimistic".to_string()));
    assert!(!log.contains(&"pessimistic".to_string()));
}

#[test]
fn free_of_denies_when_dependent() {
    // The §3.1 causality check: the checker *became* dependent on the AID
    // (via a tagged message), so free_of must deny it and everyone rolls
    // back.
    let mut env = env();
    let t = trace();
    let t3 = t.clone();
    let checker = env.spawn_user("checker", move |ctx| {
        // First message carries the AID identity (definite sender).
        let m = ctx.receive(Some(1));
        let aid = decode_aid(&m.data);
        // Second message is *tagged* (sent from a speculative interval):
        // consuming it makes this process dependent on the AID.
        let _tagged = ctx.receive(Some(2));
        let free = ctx.free_of(aid);
        push(&t3, format!("free={free}"));
    });
    let t2 = t.clone();
    env.spawn_user("owner", move |ctx| {
        let x = ctx.aid_init();
        ctx.send(checker, 1, encode_aid(x));
        if ctx.guess(x) {
            ctx.send(checker, 2, Bytes::from_static(b"tainted"));
            push(&t2, "optimistic");
        } else {
            push(&t2, "pessimistic");
        }
    });
    let report = env.run();
    assert!(report.is_clean(), "{:?}", report.run.panics);
    let log = entries(&t);
    assert!(
        log.contains(&"free=false".to_string()),
        "dependency must be detected: {log:?}"
    );
    assert!(
        log.contains(&"pessimistic".to_string()),
        "owner rolled back"
    );
}

#[test]
fn nested_guesses_roll_back_to_the_right_interval() {
    let mut env = env();
    let t = trace();
    let t2 = t.clone();
    env.spawn_user("p", move |ctx| {
        let x = ctx.aid_init();
        let y = ctx.aid_init();
        if ctx.guess(x) {
            pushc(ctx, &t2, "x-true");
            if ctx.guess(y) {
                pushc(ctx, &t2, "y-true");
                ctx.deny(y); // only the inner interval rolls back
                ctx.compute(VirtualDuration::from_millis(5));
            } else {
                pushc(ctx, &t2, "y-false");
            }
            ctx.affirm(x);
        } else {
            pushc(ctx, &t2, "x-false");
        }
    });
    let report = env.run();
    assert!(report.is_clean());
    let log = entries(&t);
    assert_eq!(
        log,
        vec!["x-true", "y-true", "y-false"],
        "x's interval survives; only y rolls back"
    );
    assert_eq!(report.hope.rollbacks, 1);
}

#[test]
fn outer_deny_discards_inner_intervals_too() {
    let mut env = env();
    let t = trace();
    let t2 = t.clone();
    env.spawn_user("p", move |ctx| {
        let x = ctx.aid_init();
        let y = ctx.aid_init();
        if ctx.guess(x) {
            if ctx.guess(y) {
                push(&t2, "both");
                ctx.deny(x); // rolls back to the OUTER guess
                ctx.compute(VirtualDuration::from_millis(5));
            } else {
                push(&t2, "y-false");
            }
            push(&t2, "inner-after");
        } else {
            push(&t2, "x-false");
        }
    });
    let report = env.run();
    assert!(report.is_clean());
    let log = entries(&t);
    assert_eq!(log[0], "both");
    assert!(log.contains(&"x-false".to_string()));
    assert!(
        !log.contains(&"y-false".to_string()),
        "inner pessimistic path must not run: the outer guess rolled back"
    );
    // Both intervals (x's and y's) are discarded.
    assert_eq!(report.hope.rollbacks, 2);
    assert_eq!(report.hope.reexecutions, 1);
}

#[test]
fn buffered_denies_wait_for_finalize() {
    // DenyPolicy::Buffered: a speculative deny only reaches the AID when
    // the denying interval becomes definite (paper, footnote 1).
    let mut env = builder().deny_policy(DenyPolicy::Buffered).build();
    let t = trace();
    let tv = t.clone();
    let victim = env.spawn_user("victim", move |ctx| {
        let m = ctx.receive(None);
        let z = decode_aid(&m.data);
        if ctx.guess(z) {
            push(&tv, "victim optimistic");
        } else {
            push(&tv, "victim rolled back");
        }
    });
    env.spawn_user("denier", move |ctx| {
        let x = ctx.aid_init();
        let z = ctx.aid_init();
        ctx.send(victim, 0, encode_aid(z));
        if ctx.guess(x) {
            ctx.deny(z); // buffered: z unaffected until x resolves
            ctx.compute(VirtualDuration::from_millis(20));
            ctx.affirm(x); // finalizes the interval → deny(z) is released
        }
    });
    let report = env.run();
    assert!(report.is_clean(), "{:?}", report.run.panics);
    let log = entries(&t);
    assert!(log.contains(&"victim optimistic".to_string()));
    assert!(
        log.contains(&"victim rolled back".to_string()),
        "the buffered deny must eventually land: {log:?}"
    );
}

#[test]
fn buffered_denies_are_discarded_on_rollback() {
    // Figure 11: rollback discards the IHD set — a deny buffered in a
    // rolled-back interval must never reach its AID.
    // NOTE a *self*-deny cannot be buffered (it would deadlock — the very
    // reason free_of always denies immediately), so an external resolver
    // kills the speculation instead.
    let mut env = builder().deny_policy(DenyPolicy::Buffered).build();
    let t = trace();
    let tv = t.clone();
    let victim = env.spawn_user("victim", move |ctx| {
        let m = ctx.receive(None);
        let z = decode_aid(&m.data);
        if ctx.guess(z) {
            push(&tv, "victim optimistic");
        } else {
            push(&tv, "victim rolled back");
        }
    });
    let resolver = env.spawn_user("resolver", move |ctx| {
        let m = ctx.receive(None);
        let x = decode_aid(&m.data);
        ctx.compute(VirtualDuration::from_millis(5));
        ctx.deny(x); // kills the denier's speculation from outside
    });
    env.spawn_user("denier", move |ctx| {
        let x = ctx.aid_init();
        let z = ctx.aid_init();
        ctx.send(resolver, 0, encode_aid(x));
        ctx.send(victim, 0, encode_aid(z));
        if ctx.guess(x) {
            ctx.deny(z); // buffered in IHD while speculative on x
            ctx.compute(VirtualDuration::from_millis(60));
        } else {
            // Re-execution: the buffered deny(z) was discarded with the
            // rolled-back interval; resolve z so the victim finalizes.
            ctx.affirm(z);
        }
    });
    let report = env.run();
    assert!(report.is_clean(), "{:?}", report.run.panics);
    assert!(report.run.blocked.is_empty(), "{:?}", report.run.blocked);
    let log = entries(&t);
    assert!(log.contains(&"victim optimistic".to_string()));
    assert!(
        !log.contains(&"victim rolled back".to_string()),
        "the discarded deny must never land: {log:?}"
    );
    // Exactly one Deny reached an AID process: the resolver's deny(x).
    assert_eq!(report.run.stats.count_kind("Deny"), 1);
}

#[test]
fn return_false_policy_takes_the_pessimistic_path_on_cascades() {
    // Under GuessRollbackPolicy::ReturnFalse (Figure 11 verbatim), a
    // cascade rollback drives the guess down its false branch even though
    // its own assumption was never denied.
    use hope_core::GuessRollbackPolicy;
    let mut env = builder()
        .config({
            let mut c = hope_core::HopeConfig::new();
            c.guess_rollback = GuessRollbackPolicy::ReturnFalse;
            c
        })
        .build();
    let t = trace();
    let tb = t.clone();
    let b = env.spawn_user("B", move |ctx| {
        let m = ctx.receive(None);
        let x = decode_aid(&m.data);
        if ctx.guess(x) {
            pushc(ctx, &tb, "B optimistic");
        } else {
            pushc(ctx, &tb, "B pessimistic");
        }
    });
    env.spawn_user("A", move |ctx| {
        let y = ctx.aid_init();
        let x = ctx.aid_init();
        ctx.send(b, 0, encode_aid(x));
        if ctx.guess(y) {
            ctx.affirm(x); // speculative: X.A_IDO = {Y}
            ctx.compute(VirtualDuration::from_millis(2));
            ctx.deny(y); // cascades into B through the Replace chain
        }
    });
    let report = env.run();
    assert!(report.is_clean(), "{:?}", report.run.panics);
    let log = entries(&t);
    assert!(
        log.contains(&"B pessimistic".to_string()),
        "ReturnFalse must send the cascade victim down the false branch: {log:?}"
    );
}

#[test]
fn retract_policy_deny_kills_speculatively_affirmed_aids() {
    // RetractPolicy::Deny: rolling back an interval sends Deny for its
    // IHA members, so dependents of the retracted affirm roll back even if
    // the A_IDO chain would have let them survive.
    let mut env = builder().retract_policy(RetractPolicy::Deny).build();
    let t = trace();
    let tb = t.clone();
    let b = env.spawn_user("B", move |ctx| {
        let m = ctx.receive(None);
        let x = decode_aid(&m.data);
        if ctx.guess(x) {
            push(&tb, "B optimistic");
        } else {
            push(&tb, "B rolled back");
        }
    });
    let ta = t.clone();
    env.spawn_user("A", move |ctx| {
        let y = ctx.aid_init();
        let x = ctx.aid_init();
        ctx.send(b, 0, encode_aid(x));
        if ctx.guess(y) {
            ctx.affirm(x); // speculative affirm (IHA = {x})
            ctx.compute(VirtualDuration::from_millis(5));
            ctx.deny(y); // rolls back A → retract policy denies x
        } else {
            push(&ta, "A pessimistic");
        }
    });
    let report = env.run();
    assert!(report.is_clean(), "{:?}", report.run.panics);
    let log = entries(&t);
    assert!(log.contains(&"B rolled back".to_string()), "{log:?}");
}

#[test]
fn deterministic_replay_same_seed_same_trace() {
    fn run_once(seed: u64) -> (Vec<String>, u64) {
        let mut env = HopeEnv::builder()
            .seed(seed)
            .network(NetworkConfig::uniform(
                VirtualDuration::from_micros(10),
                VirtualDuration::from_micros(200),
            ))
            .build();
        let t = trace();
        let t2 = t.clone();
        let t3 = t.clone();
        let verifier = env.spawn_user("verifier", move |ctx| {
            let m = ctx.receive(None);
            let aid = decode_aid(&m.data);
            // Verification outcome driven by deterministic randomness.
            if ctx.random() % 2 == 0 {
                ctx.affirm(aid);
                push(&t3, "affirmed");
            } else {
                ctx.deny(aid);
                push(&t3, "denied");
            }
        });
        env.spawn_user("guesser", move |ctx| {
            let x = ctx.aid_init();
            ctx.send(verifier, 0, encode_aid(x));
            if ctx.guess(x) {
                push(&t2, format!("opt at {}", ctx.now()));
            } else {
                push(&t2, format!("pes at {}", ctx.now()));
            }
        });
        let report = env.run();
        assert!(report.is_clean());
        (entries(&t), report.run.events)
    }
    let (t1, e1) = run_once(42);
    let (t2, e2) = run_once(42);
    assert_eq!(t1, t2);
    assert_eq!(e1, e2);
}

#[test]
fn guess_on_already_denied_aid_returns_false_after_rollback() {
    let mut env = env();
    let t = trace();
    let t2 = t.clone();
    let t3 = t.clone();
    let late = env.spawn_user("late", move |ctx| {
        let m = ctx.receive(None);
        let x = decode_aid(&m.data);
        ctx.compute(VirtualDuration::from_millis(50)); // X dies meanwhile
        if ctx.guess(x) {
            push(&t3, "late optimistic");
            ctx.compute(VirtualDuration::from_millis(50));
            push(&t3, "late finished optimistic");
        } else {
            push(&t3, "late pessimistic");
        }
    });
    env.spawn_user("owner", move |ctx| {
        let x = ctx.aid_init();
        ctx.send(late, 0, encode_aid(x));
        ctx.deny(x);
        push(&t2, "denied early");
    });
    let report = env.run();
    assert!(report.is_clean());
    let log = entries(&t);
    assert!(log.contains(&"late pessimistic".to_string()), "{log:?}");
    assert!(
        !log.contains(&"late finished optimistic".to_string()),
        "the eager true path must be cut short: {log:?}"
    );
}

#[test]
fn multiple_guessers_all_resolved_by_one_affirm() {
    let mut env = env();
    let count = Arc::new(Mutex::new(0u32));
    let owner_t = trace();
    let mut guessers = Vec::new();
    for i in 0..5 {
        let count = count.clone();
        let pid = env.spawn_user(&format!("g{i}"), move |ctx| {
            let m = ctx.receive(None);
            let x = decode_aid(&m.data);
            if ctx.guess(x) {
                *count.lock().unwrap() += 1;
            }
        });
        guessers.push(pid);
    }
    let ot = owner_t.clone();
    env.spawn_user("owner", move |ctx| {
        let x = ctx.aid_init();
        for &g in &guessers {
            ctx.send(g, 0, encode_aid(x));
        }
        ctx.compute(VirtualDuration::from_millis(5));
        ctx.affirm(x);
        push(&ot, "affirmed");
    });
    let report = env.run();
    assert!(report.is_clean());
    assert!(report.run.blocked.is_empty());
    assert_eq!(*count.lock().unwrap(), 5);
}

#[test]
fn contract_violation_is_counted_not_fatal() {
    let mut env = env();
    env.spawn_user("p", move |ctx| {
        let x = ctx.aid_init();
        ctx.affirm(x);
        ctx.compute(VirtualDuration::from_millis(1));
        ctx.deny(x); // conflicting: the paper forbids this
        ctx.compute(VirtualDuration::from_millis(1));
    });
    let report = env.run();
    assert!(report.is_clean());
    assert_eq!(report.hope.aid_contract_violations, 1);
}

#[test]
fn await_definite_blocks_until_commitment() {
    let mut env = env();
    let t = trace();
    let t2 = t.clone();
    let t3 = t.clone();
    let verifier = env.spawn_user("verifier", move |ctx| {
        let m = ctx.receive(None);
        let aid = decode_aid(&m.data);
        ctx.compute(VirtualDuration::from_millis(10));
        push(&t3, format!("verifier affirms at {}", ctx.now()));
        ctx.affirm(aid);
    });
    env.spawn_user("guesser", move |ctx| {
        let x = ctx.aid_init();
        ctx.send(verifier, 0, encode_aid(x));
        if ctx.guess(x) {
            let spec_at = ctx.now();
            pushc(ctx, &t2, format!("speculative at {spec_at}"));
            ctx.await_definite();
            let commit_at = ctx.now();
            pushc(ctx, &t2, format!("committed at {commit_at}"));
            assert!(ctx.current_deps().is_empty(), "definite after the barrier");
        }
    });
    let report = env.run();
    assert!(report.is_clean(), "{:?}", report.run.panics);
    let log = entries(&t);
    assert!(log
        .iter()
        .any(|l| l.starts_with("speculative at t=0.000000s")));
    let committed = log.iter().find(|l| l.starts_with("committed")).unwrap();
    // Commitment needs the 10ms verification plus protocol hops.
    assert!(
        committed > &"committed at t=0.010".to_string(),
        "{committed}"
    );
}

#[test]
fn await_definite_rolls_back_on_denial() {
    let mut env = env();
    let t = trace();
    let t2 = t.clone();
    let verifier = env.spawn_user("verifier", move |ctx| {
        let m = ctx.receive(None);
        let aid = decode_aid(&m.data);
        ctx.compute(VirtualDuration::from_millis(5));
        ctx.deny(aid);
    });
    env.spawn_user("guesser", move |ctx| {
        let x = ctx.aid_init();
        ctx.send(verifier, 0, encode_aid(x));
        if ctx.guess(x) {
            ctx.await_definite();
            pushc(ctx, &t2, "committed optimistic"); // must never run
        } else {
            pushc(ctx, &t2, "pessimistic");
        }
    });
    let report = env.run();
    assert!(report.is_clean(), "{:?}", report.run.panics);
    let log = entries(&t);
    assert_eq!(log, vec!["pessimistic"]);
}

#[test]
fn wait_free_primitives_cost_no_virtual_time() {
    // E4 core claim: executing HOPE primitives advances virtual time by
    // zero regardless of network latency — the process never waits.
    let mut env = HopeEnv::builder()
        .seed(3)
        .network(NetworkConfig::transcontinental())
        .build();
    let cost = Arc::new(Mutex::new(None));
    let c2 = cost.clone();
    env.spawn_user("p", move |ctx| {
        let before = ctx.now();
        let x = ctx.aid_init();
        let y = ctx.aid_init();
        let guessed = ctx.guess(x);
        ctx.affirm(y);
        let _ = ctx.free_of(y);
        let after = ctx.now();
        if guessed {
            *c2.lock().unwrap() = Some(after - before);
            ctx.affirm(x);
        }
    });
    let report = env.run();
    assert!(report.is_clean());
    assert_eq!(
        cost.lock().unwrap().unwrap(),
        VirtualDuration::ZERO,
        "primitives must be wait-free even over a 15ms link"
    );
}

/// Sets its flag when dropped.
struct SetOnDrop(Arc<std::sync::atomic::AtomicBool>);

impl Drop for SetOnDrop {
    fn drop(&mut self) {
        self.0.store(true, std::sync::atomic::Ordering::SeqCst);
    }
}

#[test]
fn dropping_an_env_while_the_thread_unwinds_does_not_abort() {
    // The drop resumes the blocked process, whose receive unwinds with the
    // shutdown signal while this thread is already unwinding.
    let ran_out = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let r = ran_out.clone();
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
        let mut env = env();
        env.spawn_user("blocked", move |ctx| {
            let _ran_out = SetOnDrop(r.clone());
            ctx.receive(None);
        });
        assert_eq!(env.run().run.blocked.len(), 1);
        panic!("unwinding with a blocked process");
    }));
    let payload = result.expect_err("the panic reaches catch_unwind");
    assert_eq!(
        payload.downcast_ref::<&str>(),
        Some(&"unwinding with a blocked process")
    );
    assert!(ran_out.load(std::sync::atomic::Ordering::SeqCst));
}
