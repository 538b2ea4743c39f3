//! Wait-freedom oracles for the sharded threaded transport (DESIGN.md
//! §10): a stalled or panicked consumer must never delay delivery on
//! unrelated links, whether the victim shares a shard with the healthy
//! traffic or not, and a flood into a stalled consumer's mailbox must
//! arrive exactly once and in order, without backpressuring the sender,
//! from one sender or from several.

use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use bytes::Bytes;
use hope_runtime::ThreadedRuntime;
use hope_types::{Payload, UserMessage, VirtualDuration};

const GRACE: Duration = Duration::from_millis(25);
const TIMEOUT: Duration = Duration::from_secs(30);

fn user_u32(channel: u32, value: u32) -> Payload {
    Payload::User(UserMessage::new(
        channel,
        Bytes::copy_from_slice(&value.to_le_bytes()),
    ))
}

/// Spins (politely) until `flag` is set, failing the test after 20 s.
fn await_flag(flag: &AtomicBool, what: &str) {
    let start = Instant::now();
    while !flag.load(Ordering::Acquire) {
        assert!(
            start.elapsed() < Duration::from_secs(20),
            "timed out: {what}"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// The central wait-freedom oracle. One process ("sleeper") stalls
/// without receiving while another floods its mailbox far past the ring
/// capacity; a ping/pong pair — one of them on the *same shard* as the
/// stalled consumer — must complete its whole exchange while the flood
/// victim is still stalled. Afterwards the sleeper drains the flood and
/// every message must arrive exactly once, in per-link FIFO order,
/// through the sleeper's shard's inbox.
#[test]
fn stalled_consumer_never_delays_unrelated_links() {
    const FLOOD: u32 = 5_000;
    const ROUNDS: u32 = 50;
    // The flood is sent in one turn, so the sleeper's shard's inbox holds
    // thousands of items at once.
    let rt = ThreadedRuntime::builder().shards(2).build();
    let gate = Arc::new(AtomicBool::new(false));
    let flooded = Arc::new(AtomicBool::new(false));
    let exchange_done = Arc::new(AtomicBool::new(false));
    let drained = Arc::new(Mutex::new(0u32));

    // Spawn order fixes pids and hence shards (pid % 2): sleeper → 0,
    // flooder → 1, ping → 0 (sharing the stalled consumer's shard),
    // pong → 1.
    let g = gate.clone();
    let d = drained.clone();
    let sleeper = rt.spawn_threaded("sleeper", None, move |ctx| {
        while !g.load(Ordering::Acquire) {
            ctx.compute(VirtualDuration::from_millis(1));
        }
        // Stall over: drain the flood. FIFO must hold across the inbox
        // between the two shards.
        for expect in 0..FLOOD {
            let got = ctx.receive(None, &mut || false).expect("flood message");
            let value = u32::from_le_bytes(got.msg.data[..4].try_into().unwrap());
            assert_eq!(value, expect, "flood must stay FIFO across the spill");
            *d.lock().unwrap() += 1;
        }
    });
    let f = flooded.clone();
    rt.spawn_threaded("flooder", None, move |ctx| {
        for i in 0..FLOOD {
            ctx.send(sleeper, user_u32(0, i));
        }
        // Every send above returned: the full mailbox never blocked us.
        f.store(true, Ordering::Release);
    });
    let f = flooded.clone();
    let e = exchange_done.clone();
    let ping = rt.spawn_threaded("ping", None, move |ctx| {
        // Start only after the flood is fully sent, so the exchange below
        // demonstrably runs while the sleeper's mailbox is full of it.
        while !f.load(Ordering::Acquire) {
            ctx.compute(VirtualDuration::from_millis(1));
        }
        for round in 0..ROUNDS {
            let got = ctx.receive(Some(1), &mut || false).expect("pong reply");
            let value = u32::from_le_bytes(got.msg.data[..4].try_into().unwrap());
            assert_eq!(value, round);
        }
        e.store(true, Ordering::Release);
    });
    rt.spawn_threaded("pong", None, move |ctx| {
        for round in 0..ROUNDS {
            ctx.send(ping, user_u32(1, round));
            // A real round trip: wait for the implicit ack via timing-free
            // pacing — ping consumes in order, so just stream.
        }
    });

    // The oracle: the exchange must finish while the sleeper is still
    // stalled (the gate is ours and still closed).
    await_flag(&exchange_done, "ping/pong exchange while consumer stalled");
    assert!(
        !gate.load(Ordering::Acquire),
        "exchange completed before the stalled consumer was released"
    );
    gate.store(true, Ordering::Release);

    let report = rt.run_until_quiescent(GRACE, TIMEOUT);
    assert!(report.panics.is_empty(), "{:?}", report.panics);
    assert!(!report.hit_event_limit, "must reach quiescence");
    assert_eq!(
        *drained.lock().unwrap(),
        FLOOD,
        "no flood message may be lost"
    );
    assert_eq!(report.stats.dropped(), 0);
}

/// Several producers feed one shard: three senders, each on a shard of its
/// own, flood one gated receiver on the fourth shard with 5 000 messages
/// apiece, while a driver thread asks every shard for its counts. The ask is
/// answered with the flood queued, each sender's stream arrives exactly once
/// and in order, and the run settles.
#[test]
fn several_producers_feed_one_shard_in_order() {
    const FLOOD: u32 = 5_000;
    const SENDERS: u32 = 3;
    const BATCH: u32 = 500;
    let rt = ThreadedRuntime::builder().shards(4).build();
    let gate = Arc::new(AtomicBool::new(false));
    let sent = Arc::new(AtomicU32::new(0));
    let received = Arc::new(AtomicU32::new(0));

    // Spawn order fixes pids and hence shards (pid % 4): the receiver → 0,
    // sender k → k + 1. Sender k sends on channel k.
    let (g, r) = (gate.clone(), received.clone());
    let receiver = rt.spawn_threaded("receiver", None, move |ctx| {
        while !g.load(Ordering::Acquire) {
            ctx.compute(VirtualDuration::from_millis(1));
        }
        let mut next = [0u32; SENDERS as usize];
        for _ in 0..SENDERS * FLOOD {
            let got = ctx.receive(None, &mut || false).expect("flood message");
            let from = got.msg.channel as usize;
            let value = u32::from_le_bytes(got.msg.data[..4].try_into().unwrap());
            assert_eq!(value, next[from], "sender {from}'s stream out of order");
            next[from] += 1;
            r.fetch_add(1, Ordering::Release);
        }
    });
    for k in 0..SENDERS {
        let s = sent.clone();
        rt.spawn_threaded(&format!("sender-{k}"), None, move |ctx| {
            for i in 0..FLOOD {
                ctx.send(receiver, user_u32(k, i));
                // A batch leaves at the end of the turn, so the senders'
                // batches reach the receiver's inbox interleaved.
                if i % BATCH == BATCH - 1 {
                    ctx.compute(VirtualDuration::from_millis(1));
                    s.fetch_add(BATCH, Ordering::Release);
                }
            }
        });
    }

    let start = Instant::now();
    while sent.load(Ordering::Acquire) == 0 {
        assert!(start.elapsed() < TIMEOUT, "no sender finished a batch");
        std::thread::sleep(Duration::from_millis(1));
    }
    let mid = rt.stats();
    assert_eq!(
        received.load(Ordering::Acquire),
        0,
        "the ask was answered while the receiver was still gated"
    );
    gate.store(true, Ordering::Release);

    let report = rt.run_until_quiescent(GRACE, TIMEOUT);
    assert!(report.panics.is_empty(), "{:?}", report.panics);
    assert!(!report.hit_event_limit, "must reach quiescence");
    assert_eq!(received.load(Ordering::Acquire), SENDERS * FLOOD);
    assert!(mid.total() <= report.stats.total());
    assert_eq!(report.stats.dropped(), 0);
}

/// Regression for the pre-sharding global-lock hazards: a process that
/// panics (poisoning nothing, because panic state is a per-process slot)
/// must not delay delivery on unrelated links — even at `shards(1)`,
/// where the victim and the healthy pair share one delivery shard.
#[test]
fn panicking_process_cannot_delay_unrelated_links() {
    const ROUNDS: u32 = 100;
    let rt = ThreadedRuntime::builder().shards(1).build();
    let got_rounds = Arc::new(Mutex::new(0u32));

    let bomber = rt.spawn_threaded("bomber", None, |_ctx| panic!("bomber down"));
    let g = got_rounds.clone();
    let ping = rt.spawn_threaded("ping", None, move |ctx| {
        for round in 0..ROUNDS {
            let got = ctx.receive(Some(1), &mut || false).expect("pong reply");
            let value = u32::from_le_bytes(got.msg.data[..4].try_into().unwrap());
            assert_eq!(value, round);
            *g.lock().unwrap() += 1;
        }
    });
    rt.spawn_threaded("pong", None, move |ctx| {
        for round in 0..ROUNDS {
            ctx.send(ping, user_u32(1, round));
            // Also poke the corpse each round: deliveries to a dead
            // process must be absorbed, not wedge the shared shard.
            ctx.send(bomber, user_u32(0, round));
        }
    });

    let report = rt.run_until_quiescent(GRACE, TIMEOUT);
    assert!(!report.hit_event_limit, "must reach quiescence");
    assert_eq!(report.panics.len(), 1);
    assert_eq!(report.panics[0].0, bomber);
    assert!(report.panics[0].1.contains("bomber down"));
    assert_eq!(
        *got_rounds.lock().unwrap(),
        ROUNDS,
        "the healthy link must complete despite the shard-mate's panic"
    );
}

/// The shard count is reported faithfully and clamps at one.
#[test]
fn shard_count_is_exposed_and_clamped() {
    let rt = ThreadedRuntime::builder().shards(4).build();
    assert_eq!(rt.shards(), 4);
    let rt = ThreadedRuntime::builder().shards(0).build();
    assert_eq!(rt.shards(), 1);
}
