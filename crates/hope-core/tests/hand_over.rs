//! A guess hands its shard over (DESIGN.md §2.5, §10 "Whose clock"): on
//! the threaded runtime a live `guess` ends its process's turn, so the
//! turn's sends go out and the process that verifies the assumption runs
//! before the guesser runs ahead. A deny then discards the few rounds the
//! guesser ran meanwhile, not every later one.
//!
//! The program: a worker runs [`ROUNDS`] rounds of `aid_init` → send the
//! round and the AID to a resolver → `guess`, and never blocks until its
//! last round. The resolver waits until it is definite, then denies round
//! [`DENIED`] and affirms every other round. The wire has no latency, so
//! that what a deny discards is the scheduler's doing: with a wire delay
//! the worker also runs ahead for as long as its request is in flight,
//! which on the wall clock depends on how fast the host is.
//!
//! * At one shard the deny discards at most [`MAX_DISCARDED`] intervals.
//!   Without the hand-over the worker runs every round before the
//!   resolver's first turn and the deny discards all 36 later ones.
//! * At two shards the committed branches are exact; the count is
//!   reported, not bounded: the worker's sends leave at each guess, but
//!   its shard has no one to hand over to, so it runs on while the
//!   resolver's shard wakes from its inbox.
//! * The simulator does not hand over: a simulated turn takes no virtual
//!   time, so the same program keeps its schedule there, pinned to the
//!   counts below.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use bytes::Bytes;
use hope_core::{HopeEnv, MetricsSnapshot, ProcessCtx, ThreadedHopeEnv};
use hope_runtime::NetworkConfig;
use hope_types::{AidId, ProcessId, VirtualDuration};

const ROUNDS: u64 = 40;
const DENIED: u64 = 5;
const MAX_DISCARDED: u64 = 6;

const CH_REQUEST: u32 = 0;
const CH_FINISHED: u32 = 1;

const GRACE: Duration = Duration::from_millis(30);
const TIMEOUT: Duration = Duration::from_secs(20);

fn network() -> NetworkConfig {
    NetworkConfig::constant(VirtualDuration::ZERO)
}

/// The branch each round committed on: the last (surviving) execution's.
type Branches = Arc<Mutex<Vec<bool>>>;

fn resolver(ctx: &mut ProcessCtx) {
    loop {
        let m = ctx.receive(None);
        if m.channel == CH_FINISHED {
            break;
        }
        let round = u64::from_le_bytes(m.data[..8].try_into().unwrap());
        let aid = AidId::from_raw(ProcessId::from_raw(u64::from_le_bytes(
            m.data[8..16].try_into().unwrap(),
        )));
        ctx.await_definite();
        if round == DENIED {
            ctx.deny(aid);
        } else {
            ctx.affirm(aid);
        }
    }
}

fn worker(ctx: &mut ProcessCtx, resolver: ProcessId, committed: &Branches) {
    let mut branches = Vec::with_capacity(ROUNDS as usize);
    for round in 0..ROUNDS {
        let aid = ctx.aid_init();
        let mut request = round.to_le_bytes().to_vec();
        request.extend_from_slice(&aid.process().as_raw().to_le_bytes());
        ctx.send(resolver, CH_REQUEST, Bytes::from(request));
        branches.push(ctx.guess(aid));
    }
    ctx.await_definite();
    *committed.lock().unwrap() = branches;
    ctx.send(resolver, CH_FINISHED, Bytes::new());
}

/// Every round optimistic but the denied one.
fn expected() -> Vec<bool> {
    (0..ROUNDS).map(|round| round != DENIED).collect()
}

/// The worker's discarded intervals and ops, and the cancelled ones.
fn waste(metrics: &MetricsSnapshot) -> (u64, u64, u64) {
    let total = metrics.attribution.total();
    assert_eq!(total.intervals_discarded, metrics.rollbacks);
    (
        total.intervals_discarded,
        total.ops_discarded,
        metrics.cancelled_intervals,
    )
}

fn threaded(shards: usize) -> (u64, u64, u64) {
    let env = ThreadedHopeEnv::builder()
        .seed(1)
        .network(network())
        .shards(shards)
        .build();
    let committed = Branches::default();
    let resolver = env.spawn_user("resolver", resolver);
    let branches = committed.clone();
    env.spawn_user("worker", move |ctx| worker(ctx, resolver, &branches));
    let report = env.run_until_quiescent(GRACE, TIMEOUT);
    assert!(report.panics.is_empty(), "{:?}", report.panics);
    assert!(report.blocked.is_empty(), "{:?}", report.blocked);
    assert_eq!(*committed.lock().unwrap(), expected(), "shards({shards})");
    waste(&env.metrics())
}

#[test]
fn a_guess_hands_its_shard_to_the_verifier() {
    let (discarded, ops, cancelled) = threaded(1);
    println!("shards(1): {discarded} intervals, {ops} ops discarded, {cancelled} cancelled");
    assert!(
        discarded <= MAX_DISCARDED,
        "the deny discarded {discarded} intervals at one shard (at most {MAX_DISCARDED}): \
         the worker ran ahead of its resolver"
    );
    let (discarded, ops, cancelled) = threaded(2);
    println!("shards(2): {discarded} intervals, {ops} ops discarded, {cancelled} cancelled");
}

#[test]
fn the_simulator_keeps_its_schedule() {
    let mut env = HopeEnv::builder().seed(1).network(network()).build();
    let committed = Branches::default();
    let resolver = env.spawn_user("resolver", resolver);
    let branches = committed.clone();
    env.spawn_user("worker", move |ctx| worker(ctx, resolver, &branches));
    let report = env.run().run;
    assert!(report.panics.is_empty(), "{:?}", report.panics);
    assert_eq!(*committed.lock().unwrap(), expected());
    assert_eq!(waste(&env.metrics()), (36, 102, 33));
}
