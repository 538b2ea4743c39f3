//! Raw threaded-runtime tests: real latency, real parallelism, actor
//! delivery, control interception, shutdown hygiene, and asks to a shard
//! that cannot answer.

use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::{Duration, Instant};

use bytes::Bytes;
use hope_runtime::{
    Actor, ActorApi, ControlApi, ControlHandler, Inspect, NetworkConfig, ThreadedRuntime,
};
use hope_types::{
    Envelope, HopeMessage, IntervalId, Payload, ProcessId, UserMessage, VirtualDuration,
    VirtualTime,
};

const GRACE: Duration = Duration::from_millis(25);
const TIMEOUT: Duration = Duration::from_secs(15);

fn user(data: &'static [u8]) -> Payload {
    Payload::User(UserMessage::new(0, Bytes::from_static(data)))
}

struct Echo;
impl Actor for Echo {
    fn on_message(&mut self, envelope: Envelope, api: &mut dyn ActorApi) {
        if let Payload::User(msg) = envelope.payload {
            api.send(envelope.src, Payload::User(msg));
        }
    }
}

#[test]
fn latency_elapses_in_wall_time() {
    let rt = ThreadedRuntime::builder()
        .network(NetworkConfig::constant(VirtualDuration::from_millis(15)))
        .build();
    let echo = rt.spawn_actor("echo", Box::new(Echo));
    let rtt = Arc::new(Mutex::new(None));
    let r = rtt.clone();
    rt.spawn_threaded("client", None, move |ctx| {
        let start = Instant::now();
        ctx.send(echo, user(b"ping"));
        let _ = ctx.receive(None, &mut || false).unwrap();
        *r.lock().unwrap() = Some(start.elapsed());
    });
    let report = rt.run_until_quiescent(GRACE, TIMEOUT);
    assert!(report.panics.is_empty());
    let elapsed = rtt.lock().unwrap().unwrap();
    assert!(
        elapsed >= Duration::from_millis(30),
        "two 15 ms hops: {elapsed:?}"
    );
    assert!(
        elapsed < Duration::from_millis(300),
        "but not much more: {elapsed:?}"
    );
}

#[test]
fn processes_really_run_in_parallel() {
    // Four processes each sleep 60 ms of compute; in parallel the whole
    // thing finishes far sooner than 240 ms.
    let rt = ThreadedRuntime::builder().build();
    let start = Instant::now();
    for i in 0..4 {
        rt.spawn_threaded(&format!("w{i}"), None, |ctx| {
            ctx.compute(VirtualDuration::from_millis(60));
        });
    }
    let report = rt.run_until_quiescent(GRACE, TIMEOUT);
    assert!(report.panics.is_empty());
    assert!(!report.hit_event_limit);
    let elapsed = start.elapsed();
    assert!(
        elapsed < Duration::from_millis(200),
        "4×60 ms must overlap: {elapsed:?}"
    );
}

#[test]
fn control_messages_intercepted_and_wake_blocked_receivers() {
    struct FlipControl {
        flag: Arc<Mutex<bool>>,
    }
    impl ControlHandler for FlipControl {
        fn on_hope_message(
            &mut self,
            _src: ProcessId,
            _msg: HopeMessage,
            api: &mut dyn ControlApi,
        ) {
            *self.flag.lock().unwrap() = true;
            api.wake();
        }
    }
    let rt = ThreadedRuntime::builder().build();
    let flag = Arc::new(Mutex::new(false));
    let interrupted = Arc::new(Mutex::new(false));
    let f2 = flag.clone();
    let i2 = interrupted.clone();
    let target = rt.spawn_threaded(
        "target",
        Some(Box::new(FlipControl { flag: flag.clone() })),
        move |ctx| {
            let f = f2.clone();
            let r = ctx.receive(None, &mut move || *f.lock().unwrap());
            *i2.lock().unwrap() = r.is_none();
        },
    );
    rt.spawn_threaded("sender", None, move |ctx| {
        ctx.send(
            target,
            Payload::Hope(HopeMessage::Rollback {
                iid: IntervalId::new(ctx.pid(), 0),
                cause: None,
            }),
        );
    });
    let report = rt.run_until_quiescent(GRACE, TIMEOUT);
    assert!(report.panics.is_empty());
    assert!(*interrupted.lock().unwrap(), "receive must be interrupted");
    assert!(*flag.lock().unwrap());
}

/// In the paper HOPElib runs inside its process, and `Control` runs at
/// the process's library calls, never beside its body. Here a body and its
/// `Control` run on one thread, so a primitive can never wait for a
/// `Control` step running on another one.
#[test]
fn a_process_body_and_its_control_share_one_thread() {
    /// Answers any user message with a HOPE message.
    struct Bounce;
    impl Actor for Bounce {
        fn on_message(&mut self, envelope: Envelope, api: &mut dyn ActorApi) {
            let iid = IntervalId::new(envelope.src, 0);
            let msg = HopeMessage::Rollback { iid, cause: None };
            api.send(envelope.src, Payload::Hope(msg));
        }
    }
    /// Records the thread its `on_hope_message` runs on.
    struct Record(Arc<Mutex<Option<ThreadId>>>);
    impl ControlHandler for Record {
        fn on_hope_message(&mut self, _: ProcessId, _: HopeMessage, api: &mut dyn ControlApi) {
            *self.0.lock().unwrap() = Some(std::thread::current().id());
            api.wake();
        }
    }
    for shards in [1, 4] {
        let rt = ThreadedRuntime::builder().shards(shards).build();
        let bounce = rt.spawn_actor("bounce", Box::new(Bounce));
        let (control, body) = (Arc::new(Mutex::new(None)), Arc::new(Mutex::new(None)));
        let (c, b) = (control.clone(), body.clone());
        let record = Box::new(Record(control.clone()));
        rt.spawn_threaded("target", Some(record), move |ctx| {
            *b.lock().unwrap() = Some(std::thread::current().id());
            ctx.send(bounce, user(b"kick"));
            let got = ctx.receive(None, &mut || c.lock().unwrap().is_some());
            assert!(got.is_none(), "Control's wake ends the receive");
        });
        let report = rt.run_until_quiescent(GRACE, TIMEOUT);
        assert!(report.panics.is_empty(), "{:?}", report.panics);
        assert!(report.blocked.is_empty(), "{:?}", report.blocked);
        let control = *control.lock().unwrap();
        assert!(control.is_some(), "Control heard the HOPE message");
        assert_eq!(
            control,
            *body.lock().unwrap(),
            "shards({shards}): Control ran on another thread than its body"
        );
    }
}

#[test]
fn channel_filters_and_requeue_work() {
    let rt = ThreadedRuntime::builder().build();
    let got = Arc::new(Mutex::new(Vec::new()));
    let g = got.clone();
    let rx = rt.spawn_threaded("rx", None, move |ctx| {
        let m2 = ctx.receive(Some(2), &mut || false).unwrap();
        // Requeue a synthetic message and consume it again.
        ctx.requeue_front(vec![hope_runtime::Received {
            src: m2.src,
            msg: UserMessage::new(9, Bytes::from_static(b"requeued")),
        }]);
        let m9 = ctx.receive(Some(9), &mut || false).unwrap();
        let m1 = ctx.receive(Some(1), &mut || false).unwrap();
        g.lock().unwrap().push(m2.msg.channel);
        g.lock().unwrap().push(m9.msg.channel);
        g.lock().unwrap().push(m1.msg.channel);
    });
    rt.spawn_threaded("tx", None, move |ctx| {
        ctx.send(rx, Payload::User(UserMessage::new(1, Bytes::new())));
        ctx.send(rx, Payload::User(UserMessage::new(2, Bytes::new())));
    });
    let report = rt.run_until_quiescent(GRACE, TIMEOUT);
    assert!(report.panics.is_empty());
    assert_eq!(*got.lock().unwrap(), vec![2, 9, 1]);
}

#[test]
fn panics_are_collected() {
    let rt = ThreadedRuntime::builder().build();
    let pid = rt.spawn_threaded("bad", None, |_ctx| panic!("threaded boom"));
    let report = rt.run_until_quiescent(GRACE, TIMEOUT);
    assert_eq!(report.panics.len(), 1);
    assert_eq!(report.panics[0].0, pid);
    assert!(report.panics[0].1.contains("threaded boom"));
}

#[test]
fn quiescence_times_out_on_a_blocked_process() {
    let rt = ThreadedRuntime::builder().build();
    rt.spawn_threaded("waiter", None, |ctx| {
        let _ = ctx.receive(None, &mut || false);
    });
    let report = rt.run_until_quiescent(GRACE, Duration::from_millis(200));
    // A blocked process is idle, so quiescence IS reached; it is simply
    // reported as blocked.
    assert_eq!(report.blocked.len(), 1);
}

#[test]
fn dropping_the_runtime_unblocks_everything() {
    let released = Arc::new(Mutex::new(false));
    {
        let rt = ThreadedRuntime::builder().build();
        let r = released.clone();
        rt.spawn_threaded("waiter", None, move |ctx| {
            let _ = ctx.receive(None, &mut || false);
            *r.lock().unwrap() = true; // reached after shutdown-None
        });
        std::thread::sleep(Duration::from_millis(20));
        // rt drops here; drop joins every thread.
    }
    assert!(
        *released.lock().unwrap(),
        "blocked receiver must observe shutdown and exit"
    );
}

#[test]
fn spawning_from_inside_a_process_works() {
    let rt = ThreadedRuntime::builder().build();
    let echoed = Arc::new(Mutex::new(false));
    let e = echoed.clone();
    rt.spawn_threaded("parent", None, move |ctx| {
        let echo = ctx.spawn_actor("child-echo", Box::new(Echo));
        ctx.send(echo, user(b"hi"));
        let back = ctx.receive(None, &mut || false).unwrap();
        *e.lock().unwrap() = &back.msg.data[..] == b"hi";
    });
    let report = rt.run_until_quiescent(GRACE, TIMEOUT);
    assert!(report.panics.is_empty());
    assert!(*echoed.lock().unwrap());
}

/// A burst queues on its shard for longer than the link's RTO floor, but
/// a shard that runs late judges acks and the link's one retransmit timer
/// on its own timeline, so the queueing resends nothing: the ack a
/// delivery was owed is due one wire delay after the delivery *was* due,
/// not after the whole backlog. (With a timer and an ack per message on
/// the wall clock, 0.8 of the messages of such a burst were resent.) At
/// four shards the sink (pid 0) and the burst (pid 1) are on different
/// shards: the timer runs on the burst's, where the acks arrive, and it
/// sees them in time only while the sink's shard keeps up with the wall
/// clock. An unoptimised build's does not (the acks it owes come late and
/// the timer resends), so that case runs in optimised builds.
#[test]
fn a_burst_on_a_clean_reliable_link_is_not_resent() {
    const MESSAGES: u64 = 2_000;
    let shard_counts: &[usize] = if cfg!(debug_assertions) {
        &[1]
    } else {
        &[1, 4]
    };
    for &shards in shard_counts {
        let rt = ThreadedRuntime::builder()
            .reliable(true)
            .shards(shards)
            .build();
        let sink = rt.spawn_threaded("sink", None, |ctx| {
            for _ in 0..MESSAGES {
                ctx.receive(None, &mut || false).expect("a message");
            }
        });
        rt.spawn_threaded("burst", None, move |ctx| {
            for _ in 0..MESSAGES {
                ctx.send(sink, user(b"x"));
            }
        });
        let report = rt.run_until_quiescent(GRACE, TIMEOUT);
        assert!(report.panics.is_empty() && report.blocked.is_empty());
        assert!(!report.hit_event_limit);
        let link = report.stats.link();
        assert_eq!(report.stats.count_kind("User"), MESSAGES);
        assert_eq!(link.abandoned, 0, "shards({shards})");
        assert!(
            link.retransmits * 20 < MESSAGES,
            "shards({shards}): spurious retransmits: {link}"
        );
        assert!(
            link.acks * 4 <= MESSAGES,
            "shards({shards}): an ack per arrival again: {link}"
        );
        assert!(
            link.rtt_samples == 0 || link.srtt_nanos > 0,
            "shards({shards}): samples but no srtt: {link}"
        );
    }
}

/// Panics at its first message. Nothing catches a handler's panic, so it
/// ends the thread of the shard the actor is on.
struct Bomb;
impl Actor for Bomb {
    fn on_message(&mut self, _: Envelope, _: &mut dyn ActorApi) {
        panic!("the bomb went off");
    }
}

/// The message `f` panicked with, if it did.
fn panic_of<T>(f: impl FnOnce() -> T) -> Option<String> {
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).err()?;
    Some(err.downcast_ref::<String>().cloned().unwrap_or_default())
}

#[test]
fn an_ask_to_a_stopped_shard_panics_instead_of_hanging() {
    // Shard 0 holds the bomb and no process: unwinding through a suspended
    // coroutine is not what this test is about.
    let rt = ThreadedRuntime::builder().shards(2).build();
    let bomb = rt.spawn_actor("bomb", Box::new(Bomb));
    let echo = rt.spawn_actor("echo", Box::new(Echo));
    rt.inject(Envelope {
        src: echo,
        dst: bomb,
        sent_at: VirtualTime::ZERO,
        seq: 0,
        payload: user(b"boom"),
    });
    // An ask may still be answered before the bomb goes off; after, every
    // one fails at once.
    let start = Instant::now();
    let msg = loop {
        if let Some(msg) = panic_of(|| rt.stats()) {
            break msg;
        }
        assert!(start.elapsed() < TIMEOUT, "shard 0 never stopped");
        std::thread::sleep(Duration::from_millis(1));
    };
    assert!(msg.contains("shard 0 has stopped"), "{msg}");
    let msg = panic_of(|| rt.inspect(bomb, |control| control.is_some()));
    assert!(msg.is_some_and(|msg| msg.contains("shard 0 has stopped")));
    let msg = panic_of(|| rt.stacks_mapped());
    assert!(msg.is_some_and(|msg| msg.contains("shard 0 has stopped")));
    // The quiescence wait ends at once instead of sitting out its timeout.
    let start = Instant::now();
    let msg = panic_of(|| rt.run_until_quiescent(GRACE, TIMEOUT));
    assert!(msg.is_some_and(|msg| msg.contains("shard 0 has stopped")));
    assert!(start.elapsed() < TIMEOUT / 2, "{:?}", start.elapsed());
    // The other shard still answers.
    assert!(!rt.inspect(echo, |control| control.is_some()));
}

#[test]
fn stats_called_from_a_process_body_panics_instead_of_waiting() {
    for shards in [1, 4] {
        let rt = Arc::new(ThreadedRuntime::builder().shards(shards).build());
        let asker = rt.clone();
        let pid = rt.spawn_threaded("asker", None, move |_| {
            asker.stats();
        });
        let report = rt.run_until_quiescent(GRACE, TIMEOUT);
        assert!(!report.hit_event_limit, "shards={shards}: no deadlock");
        let [(panicked, msg)] = report.panics.as_slice() else {
            panic!("shards={shards}: one panic, got {:?}", report.panics);
        };
        assert_eq!(*panicked, pid);
        assert!(msg.contains("call it from a driver thread"), "{msg}");
    }
}
