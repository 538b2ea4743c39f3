//! The per-layer cost ladder: direct, single-threaded calls into one
//! layer at a time, on inputs shaped like the seeded message stream of
//! `stream_spec` (8-byte payloads, dependency tags growing to depth 8).
//!
//! Each timed rung runs five timed repetitions and reports the median
//! nanoseconds per call, then one counted pass for allocations per
//! call. The remaining rungs time a small end-to-end run of one
//! substrate (raw threaded stream, raw simulator ping-pong, a TCP
//! reconnect, a durable `stream_spec` unit) where a call loop would not
//! exercise it.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use hope_core::{AidMachine, DurableConfig, DurableStore, Op};
use hope_runtime::{spsc, NetworkConfig, ReliableState, SimRuntime, ThreadedRuntime};
use hope_types::net::{Frame, FrameKind, FrameReader};
use hope_types::{
    AidId, Envelope, HopeMessage, IdoSet, IntervalId, Payload, ProcessId, SetCoding, TagDecoder,
    TagEncoder, UserMessage, VirtualTime,
};

use crate::alloc;
use crate::spans::SpanLog;
use crate::stats;
use crate::workloads::{self, mix, Sizing, Workload, SPEC_DEPTH, SPEC_ROUND_MSGS};

/// Timed repetitions per rung; the median is reported.
const REPS: usize = 5;
/// Calls between two looks at the clock.
const BATCH: u64 = 256;

/// Runs `op` for five repetitions of `budget / 5` each and returns
/// (median ns per call, allocations per call).
fn rung(budget: Duration, mut op: impl FnMut(u64)) -> (f64, f64) {
    let per_rep = budget / REPS as u32;
    let mut i = 0u64;
    let mut ns_per_call = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let (start, mut calls) = (Instant::now(), 0u64);
        while start.elapsed() < per_rep {
            for _ in 0..BATCH {
                op(i);
                i += 1;
            }
            calls += BATCH;
        }
        ns_per_call.push(start.elapsed().as_nanos() as f64 / calls as f64);
    }
    let ((), counted) = alloc::counted(|| {
        for _ in 0..BATCH {
            op(i);
            i += 1;
        }
    });
    (
        stats::median(&ns_per_call),
        counted.allocs as f64 / BATCH as f64,
    )
}

fn pid(raw: u64) -> ProcessId {
    ProcessId::from_raw(raw)
}

/// The dependency tags one `stream_spec` round puts on its messages:
/// message `k` carries the first `k / stride + 1` of the round's AIDs.
fn round_tags(seed: u64) -> Vec<IdoSet> {
    let aids: Vec<AidId> = (0..SPEC_DEPTH)
        .map(|j| AidId::from_raw(pid(1_000 + mix(seed, j) % 1_000_000)))
        .collect();
    let stride = SPEC_ROUND_MSGS / SPEC_DEPTH;
    (0..SPEC_ROUND_MSGS)
        .map(|k| {
            aids.iter()
                .take((k / stride + 1) as usize)
                .copied()
                .collect()
        })
        .collect()
}

/// Encodes the round's tags the way a link does — delta against the last
/// acknowledged set, acks trailing the sends by two — and returns the
/// wire bytes per message.
fn encoded_round(tags: &[IdoSet]) -> Vec<Bytes> {
    let mut enc = TagEncoder::default();
    tags.iter()
        .enumerate()
        .map(|(k, set)| {
            let seq = k as u64 + 1;
            let bytes = enc.encode(seq, set).encode();
            if seq > 2 {
                enc.on_ack(seq - 2);
            }
            bytes
        })
        .collect()
}

/// Every ladder metric by name. `budget` is the time of one timed rung;
/// `seed` shapes the inputs.
pub fn run(seed: u64, budget: Duration, sizing: &Sizing) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    let mut put = |name: [&'static str; 2], (ns, allocs): (f64, f64)| {
        out.insert(name[0], ns);
        out.insert(name[1], allocs);
    };
    let tags = round_tags(seed);
    let n = tags.len() as u64;

    // hope-types: the delta tag codec, sender then receiver side.
    let mut enc = TagEncoder::default();
    let mut seq = 0u64;
    put(
        ["types.tag_encode_ns", "types.tag_encode_allocs_per_op"],
        rung(budget, |i| {
            seq += 1;
            black_box(enc.encode(seq, &tags[(i % n) as usize]).encode());
            if seq > 2 {
                enc.on_ack(seq - 2);
            }
        }),
    );
    let wire = encoded_round(&tags);
    let mut dec = TagDecoder::default();
    put(
        ["types.tag_decode_ns", "types.tag_decode_allocs_per_op"],
        rung(budget, |i| {
            let k = i % n;
            if k == 0 {
                dec.reset();
            }
            let coding = SetCoding::decode(&wire[k as usize]).expect("own encoding decodes");
            black_box(dec.decode(k + 1, &coding));
        }),
    );
    let (low, high) = (&tags[(n / 2) as usize], &tags[(n - 1) as usize]);
    put(
        ["types.idset_merge_ns", "types.idset_merge_allocs_per_op"],
        rung(budget, |_| {
            black_box(black_box(low).union(black_box(high)));
            black_box(black_box(high).difference(black_box(low)));
        }),
    );

    // hope-types: what the TCP transport does to every message.
    let envelope = |i: u64| Envelope {
        src: pid(0),
        dst: pid(1),
        sent_at: VirtualTime::from_nanos(i),
        seq: i + 1,
        payload: Payload::User(UserMessage::new(
            0,
            Bytes::from([i.to_le_bytes(), mix(seed, i).to_le_bytes()].concat()),
        )),
    };
    put(
        [
            "types.envelope_codec_ns",
            "types.envelope_codec_allocs_per_op",
        ],
        rung(budget, |i| {
            let bytes = envelope(i).encode();
            black_box(Envelope::decode(&bytes).expect("own encoding decodes"));
        }),
    );
    let body = envelope(0).encode();
    let mut reader = FrameReader::new();
    put(
        ["types.frame_codec_ns", "types.frame_codec_allocs_per_op"],
        rung(budget, |_| {
            reader.feed(&Frame::new(FrameKind::Data, body.clone()).encode());
            black_box(reader.next_frame().expect("own frame parses"));
        }),
    );

    // hope-runtime: the mailbox ring and the reliable sublayer.
    let (mut tx, mut rx) = spsc::ring::<u64>(1024);
    put(
        ["runtime.spsc_ns", "runtime.spsc_allocs_per_op"],
        rung(budget, |i| {
            let _ = tx.push(i);
            black_box(rx.pop());
        }),
    );
    let mut rel = ReliableState::new();
    let link = (pid(0), pid(1));
    put(
        ["runtime.reliable_ns", "runtime.reliable_allocs_per_op"],
        rung(budget, |i| {
            let mut env = envelope(i);
            env.seq = rel.assign_seq(link);
            let seq = env.seq;
            rel.track(env);
            black_box(rel.accept(link, seq));
            black_box(rel.acknowledge_at(link, seq, i));
        }),
    );

    // hope-core: one assumption's life, Guess then a definite Affirm.
    let aid = AidId::from_raw(pid(7));
    put(
        ["core.aid_step_ns", "core.aid_step_allocs_per_op"],
        rung(budget, |i| {
            let mut machine = AidMachine::new();
            let iid = IntervalId::new(pid(3), i as u32);
            black_box(machine.on_message(aid, HopeMessage::Guess { iid }));
            black_box(machine.on_message(
                aid,
                HopeMessage::Affirm {
                    iid: None,
                    ido: IdoSet::new(),
                },
            ));
        }),
    );

    // hope-store through hope-core's durable layer.
    let fresh_store = || DurableStore::new(pid(5), DurableConfig::default(), None, seed);
    let op = Op::Send {
        dst: pid(1),
        channel: 0,
    };
    let mut store = fresh_store();
    put(
        ["store.append_ns", "store.append_allocs_per_op"],
        rung(budget, |i| {
            if i % 4096 == 0 {
                store = fresh_store(); // bounds the in-memory log
            }
            store.append(&op);
        }),
    );
    let recoveries: Vec<f64> = (0..REPS)
        .map(|_| {
            let mut store = fresh_store();
            for _ in 0..1_000 {
                store.append(&op);
            }
            let t = Instant::now();
            store.note_crash(0);
            store.mark_restarted();
            let recovered = store.take_recovery().map_or(0, |ops| ops.len());
            let us = t.elapsed().as_nanos() as f64 / 1e3;
            if recovered == 1_000 {
                us
            } else {
                0.0 // a short recovery is reported, not hidden in a time
            }
        })
        .collect();
    out.insert("store.recover_us_per_kop", stats::median(&recoveries));

    let raw: Vec<(f64, f64)> = (0..REPS)
        .map(|_| raw_threaded_stream(seed, sizing.definite_msgs / 4))
        .collect();
    let column = |f: fn(&(f64, f64)) -> f64| stats::median(&raw.iter().map(f).collect::<Vec<_>>());
    out.insert("runtime.raw_send_ns", column(|r| r.0));
    out.insert("runtime.raw_msgs_per_s", column(|r| r.1));

    let sim: Vec<f64> = (0..REPS)
        .map(|_| sim_ping_pong(seed, sizing.definite_msgs / 40))
        .collect();
    out.insert("runtime.sim_events_per_s", stats::median(&sim));

    let reconnects = workloads::tcp_reconnect_ns(seed, REPS as u64).unwrap_or_default();
    out.insert("runtime.tcp_reconnect_ms", stats::p50(&reconnects) / 1e6);

    // hope-rpc at its call sites, on a short chain.
    let short = Sizing {
        chain_depth: sizing.chain_depth.div_ceil(8).max(10),
        ..*sizing
    };
    let chain = workloads::run_unit(Workload::SimChain, seed, &short, &SpanLog::new(false));
    let p50 = |name: &str| stats::p50(chain.samples.get(name).map_or(&[][..], Vec::as_slice));
    out.insert("rpc.call_issue_ns", p50("rpc_call_ns"));
    out.insert("rpc.redeem_ns", p50("rpc_redeem_ns"));

    // The price of syncing every op-log record, end to end.
    let plain = workloads::run_unit(Workload::StreamSpec, seed, sizing, &SpanLog::new(false));
    let durable = workloads::run_durable_spec_unit(seed, sizing);
    let clean = plain.failed + durable.failed == 0 && plain.wall_ns > 0;
    out.insert(
        "core.durable_overhead_ratio",
        if clean {
            durable.wall_ns as f64 / plain.wall_ns as f64
        } else {
            0.0
        },
    );
    out
}

/// A raw `ThreadedRuntime` producer → consumer stream of `msgs` 8-byte
/// messages with the reliable sublayer on and no HOPE layer above:
/// (wall ns per `send` call, messages per second to the last delivery).
fn raw_threaded_stream(seed: u64, msgs: u64) -> (f64, f64) {
    let rt = ThreadedRuntime::builder()
        .seed(seed)
        .network(NetworkConfig::local())
        .shards(workloads::SHARDS)
        .reliable(true)
        .build();
    let epoch = Instant::now();
    let done_ns = Arc::new(AtomicU64::new(0));
    let send_ns = Arc::new(AtomicU64::new(0));
    let done = done_ns.clone();
    let consumer = rt.spawn_threaded("consumer", None, move |sys| {
        for _ in 0..msgs {
            if sys.receive(None, &mut || false).is_none() {
                return;
            }
        }
        done.store(epoch.elapsed().as_nanos() as u64, Ordering::Release);
    });
    let sent = send_ns.clone();
    rt.spawn_threaded("producer", None, move |sys| {
        let t = Instant::now();
        for i in 0..msgs {
            let data = Bytes::from(mix(seed, i).to_le_bytes().to_vec());
            sys.send(consumer, Payload::User(UserMessage::new(0, data)));
        }
        sent.store(t.elapsed().as_nanos() as u64, Ordering::Release);
    });
    let report = rt.run_until_quiescent(Duration::from_millis(2), Duration::from_secs(30));
    let done = done_ns.load(Ordering::Acquire);
    if done == 0 || !report.panics.is_empty() {
        return (0.0, 0.0);
    }
    (
        send_ns.load(Ordering::Acquire) as f64 / msgs as f64,
        msgs as f64 * 1e9 / done as f64,
    )
}

/// Raw `SimRuntime` ping-pong of `round_trips` over a 1 ms virtual link:
/// scheduler events per wall second.
fn sim_ping_pong(seed: u64, round_trips: u64) -> f64 {
    let mut rt = SimRuntime::builder()
        .seed(seed)
        .network(NetworkConfig::constant(
            hope_types::VirtualDuration::from_millis(1),
        ))
        .build();
    let ponger = rt.spawn_threaded("pong", None, move |sys| {
        for _ in 0..round_trips {
            let Some(got) = sys.receive(None, &mut || false) else {
                return;
            };
            sys.send(got.src, Payload::User(got.msg));
        }
    });
    rt.spawn_threaded("ping", None, move |sys| {
        for i in 0..round_trips {
            let data = Bytes::from(mix(seed, i).to_le_bytes().to_vec());
            sys.send(ponger, Payload::User(UserMessage::new(0, data)));
            if sys.receive(None, &mut || false).is_none() {
                return;
            }
        }
    });
    let t = Instant::now();
    let report = rt.run();
    let secs = t.elapsed().as_secs_f64();
    let complete = report.now.as_nanos() == round_trips * 2_000_000;
    if complete && secs > 0.0 {
        report.events as f64 / secs
    } else {
        0.0
    }
}
