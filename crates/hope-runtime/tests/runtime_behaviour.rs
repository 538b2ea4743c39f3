//! Integration tests for the simulated runtime: timing, determinism,
//! actors, spawning, control interception, blocking and interrupts.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use bytes::Bytes;
use hope_runtime::{
    Actor, ActorApi, ControlApi, ControlHandler, NetworkConfig, ProcessStatus, SimRuntime, SysApi,
    ThreadedRuntime,
};
use hope_types::{
    Envelope, HopeMessage, IntervalId, Payload, ProcessId, UserMessage, VirtualDuration,
    VirtualTime,
};

fn user(data: &'static [u8]) -> Payload {
    Payload::User(UserMessage::new(0, Bytes::from_static(data)))
}

#[test]
fn one_way_latency_is_applied() {
    let mut rt = SimRuntime::builder()
        .network(NetworkConfig::constant(VirtualDuration::from_millis(7)))
        .build();
    let times = Arc::new(Mutex::new(Vec::new()));
    let t2 = times.clone();
    let receiver = rt.spawn_threaded("rx", None, move |ctx| {
        let _ = ctx.receive(None, &mut || false).unwrap();
        t2.lock().unwrap().push(ctx.now());
    });
    rt.spawn_threaded("tx", None, move |ctx| {
        ctx.send(receiver, user(b"x"));
    });
    let report = rt.run();
    assert!(report.is_clean());
    assert_eq!(
        times.lock().unwrap()[0],
        VirtualTime::ZERO + VirtualDuration::from_millis(7)
    );
}

#[test]
fn compute_advances_virtual_time_only() {
    let mut rt = SimRuntime::new();
    let observed = Arc::new(Mutex::new((VirtualTime::ZERO, VirtualTime::ZERO)));
    let obs = observed.clone();
    rt.spawn_threaded("worker", None, move |ctx| {
        let before = ctx.now();
        ctx.compute(VirtualDuration::from_secs(1000)); // free in wall time
        let after = ctx.now();
        *obs.lock().unwrap() = (before, after);
    });
    let wall_start = std::time::Instant::now();
    let report = rt.run();
    assert!(report.is_clean());
    let (before, after) = *observed.lock().unwrap();
    assert_eq!(after - before, VirtualDuration::from_secs(1000));
    assert!(wall_start.elapsed() < std::time::Duration::from_secs(5));
}

#[test]
fn sends_are_asynchronous_fire_and_forget() {
    // A sender must not advance time by sending: wait-freedom at the
    // substrate level.
    let mut rt = SimRuntime::builder().network(NetworkConfig::wan()).build();
    let send_time = Arc::new(Mutex::new(None));
    let st = send_time.clone();
    let sink = rt.spawn_actor("sink", Box::new(hope_runtime::NullActor));
    rt.spawn_threaded("tx", None, move |ctx| {
        for _ in 0..100 {
            ctx.send(sink, user(b"x"));
        }
        *st.lock().unwrap() = Some(ctx.now());
    });
    rt.run();
    assert_eq!(send_time.lock().unwrap().unwrap(), VirtualTime::ZERO);
}

#[test]
fn channel_filter_selects_messages() {
    let mut rt = SimRuntime::new();
    let got = Arc::new(Mutex::new(Vec::new()));
    let g = got.clone();
    let rx = rt.spawn_threaded("rx", None, move |ctx| {
        // Wait specifically for channel 2 first, then drain channel 1.
        let m2 = ctx.receive(Some(2), &mut || false).unwrap();
        let m1 = ctx.receive(Some(1), &mut || false).unwrap();
        g.lock().unwrap().push(m2.msg.channel);
        g.lock().unwrap().push(m1.msg.channel);
    });
    rt.spawn_threaded("tx", None, move |ctx| {
        ctx.send(rx, Payload::User(UserMessage::new(1, Bytes::new())));
        ctx.send(rx, Payload::User(UserMessage::new(2, Bytes::new())));
    });
    let report = rt.run();
    assert!(report.is_clean());
    assert!(report.blocked.is_empty());
    assert_eq!(*got.lock().unwrap(), vec![2, 1]);
}

#[test]
fn try_receive_does_not_block() {
    let mut rt = SimRuntime::new();
    let saw = Arc::new(Mutex::new(Vec::new()));
    let s = saw.clone();
    rt.spawn_threaded("poller", None, move |ctx| {
        s.lock().unwrap().push(ctx.try_receive(None).is_none());
    });
    let report = rt.run();
    assert!(report.is_clean());
    assert_eq!(*saw.lock().unwrap(), vec![true]);
}

#[test]
fn interrupted_receive_returns_none() {
    let mut rt = SimRuntime::new();
    let outcome = Arc::new(Mutex::new(None));
    let o = outcome.clone();
    rt.spawn_threaded("rx", None, move |ctx| {
        let mut calls = 0;
        let r = ctx.receive(None, &mut || {
            calls += 1;
            calls > 0 // interrupt immediately
        });
        *o.lock().unwrap() = Some(r.is_none());
    });
    let report = rt.run();
    assert!(report.is_clean());
    assert_eq!(*outcome.lock().unwrap(), Some(true));
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
fn actor_echo_round_trip_takes_two_latencies() {
    let mut rt = SimRuntime::builder()
        .network(NetworkConfig::constant(VirtualDuration::from_millis(5)))
        .build();
    let echo = rt.spawn_actor("echo", Box::new(Echo));
    let rtt = Arc::new(Mutex::new(None));
    let r = rtt.clone();
    rt.spawn_threaded("client", None, move |ctx| {
        let start = ctx.now();
        ctx.send(echo, user(b"ping"));
        let _ = ctx.receive(None, &mut || false).unwrap();
        *r.lock().unwrap() = Some(ctx.now() - start);
    });
    let report = rt.run();
    assert!(report.is_clean());
    assert_eq!(
        rtt.lock().unwrap().unwrap(),
        VirtualDuration::from_millis(10)
    );
}

#[test]
fn process_can_spawn_actor_and_threaded_children() {
    let mut rt = SimRuntime::new();
    let results = Arc::new(Mutex::new(Vec::new()));
    let res = results.clone();
    rt.spawn_threaded("parent", None, move |ctx| {
        let echo = ctx.spawn_actor("child-echo", Box::new(Echo));
        let res2 = res.clone();
        let grand = ctx.spawn_threaded(
            "child-worker",
            None,
            Box::new(move |cctx: &mut dyn hope_runtime::SysApi| {
                let m = cctx.receive(None, &mut || false).unwrap();
                res2.lock()
                    .unwrap()
                    .push(format!("child got {:?}", m.msg.data));
            }),
        );
        ctx.send(echo, user(b"e"));
        let back = ctx.receive(None, &mut || false).unwrap();
        res.lock()
            .unwrap()
            .push(format!("parent got {:?}", back.msg.data));
        ctx.send(grand, user(b"w"));
    });
    let report = rt.run();
    assert!(report.is_clean());
    let mut got = results.lock().unwrap().clone();
    got.sort();
    assert_eq!(got.len(), 2);
    assert!(got[0].contains("child got"));
    assert!(got[1].contains("parent got"));
}

struct RecordingControl {
    log: Arc<Mutex<Vec<String>>>,
    wake: bool,
}

impl ControlHandler for RecordingControl {
    fn on_hope_message(&mut self, src: ProcessId, msg: HopeMessage, api: &mut dyn ControlApi) {
        self.log.lock().unwrap().push(format!("from {src}: {msg}"));
        if self.wake {
            api.wake();
        }
    }
}

#[test]
fn hope_messages_route_to_control_not_mailbox() {
    let mut rt = SimRuntime::new();
    let log = Arc::new(Mutex::new(Vec::new()));
    let target = rt.spawn_threaded(
        "target",
        Some(Box::new(RecordingControl {
            log: log.clone(),
            wake: false,
        })),
        move |ctx| {
            // Only a *user* message may end this receive.
            let m = ctx.receive(None, &mut || false).unwrap();
            assert_eq!(&m.msg.data[..], b"real");
        },
    );
    rt.spawn_threaded("sender", None, move |ctx| {
        let iid = IntervalId::new(ctx.pid(), 0);
        ctx.send(
            target,
            Payload::Hope(HopeMessage::Rollback { iid, cause: None }),
        );
        ctx.compute(VirtualDuration::from_millis(1));
        ctx.send(
            target,
            Payload::User(UserMessage::new(0, Bytes::from_static(b"real"))),
        );
    });
    let report = rt.run();
    assert!(report.is_clean(), "panics: {:?}", report.panics);
    let entries = log.lock().unwrap().clone();
    assert_eq!(entries.len(), 1);
    assert!(entries[0].contains("Rollback"));
}

#[test]
fn control_wake_interrupts_blocked_receive() {
    // A control handler that flips a flag and requests a wake; the target's
    // interrupt predicate observes the flag — exactly how HOPElib breaks a
    // blocked process out of `receive` when an interval is rolled back.
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
    let mut rt = SimRuntime::new();
    let flag = Arc::new(Mutex::new(false));
    let target = rt.spawn_threaded(
        "target",
        Some(Box::new(FlipControl { flag: flag.clone() })),
        move |ctx| {
            let f = flag.clone();
            let r = ctx.receive(None, &mut move || *f.lock().unwrap());
            assert!(r.is_none(), "receive must be interrupted by control wake");
        },
    );
    rt.spawn_threaded("sender", None, move |ctx| {
        let iid = IntervalId::new(ctx.pid(), 0);
        ctx.send(
            target,
            Payload::Hope(HopeMessage::Rollback { iid, cause: None }),
        );
    });
    let report = rt.run();
    assert!(report.is_clean(), "panics: {:?}", report.panics);
}

#[test]
fn panics_are_reported_not_swallowed() {
    let mut rt = SimRuntime::new();
    let pid = rt.spawn_threaded("bad", None, |_ctx| panic!("boom-{}", 42));
    let report = rt.run();
    assert_eq!(report.panics.len(), 1);
    assert_eq!(report.panics[0].0, pid);
    assert!(report.panics[0].1.contains("boom-42"));
    assert!(!report.is_clean());
}

#[test]
fn deadlocked_receivers_are_reported_blocked() {
    let mut rt = SimRuntime::new();
    let pid = rt.spawn_threaded("waiter", None, |ctx| {
        let _ = ctx.receive(None, &mut || false);
    });
    let report = rt.run();
    assert_eq!(report.blocked.len(), 1);
    assert_eq!(report.blocked[0].0, pid);
    assert_eq!(rt.status(pid), Some(ProcessStatus::Blocked));
}

#[test]
fn runs_are_deterministic_across_identical_runtimes() {
    fn trace_of(seed: u64) -> Vec<String> {
        let mut rt = SimRuntime::builder()
            .seed(seed)
            .network(NetworkConfig::uniform(
                VirtualDuration::from_micros(50),
                VirtualDuration::from_micros(500),
            ))
            .build();
        let trace = Arc::new(Mutex::new(Vec::new()));
        let echo = rt.spawn_actor("echo", Box::new(Echo));
        for i in 0..4u64 {
            let t = trace.clone();
            rt.spawn_threaded(&format!("c{i}"), None, move |ctx| {
                for round in 0..3 {
                    ctx.send(echo, user(b"m"));
                    let _ = ctx.receive(None, &mut || false).unwrap();
                    t.lock()
                        .unwrap()
                        .push(format!("{} r{} at {}", ctx.pid(), round, ctx.now()));
                }
            });
        }
        rt.run();
        let out = trace.lock().unwrap().clone();
        out
    }
    let a = trace_of(99);
    let b = trace_of(99);
    assert_eq!(a, b, "same seed must reproduce the exact event order");
    let c = trace_of(100);
    assert_ne!(a, c, "different seeds should shuffle jittered timings");
}

#[test]
fn run_until_stops_at_deadline() {
    let mut rt = SimRuntime::builder()
        .network(NetworkConfig::constant(VirtualDuration::from_millis(10)))
        .build();
    let echo = rt.spawn_actor("echo", Box::new(Echo));
    rt.spawn_threaded("client", None, move |ctx| {
        for _ in 0..10 {
            ctx.send(echo, user(b"x"));
            let _ = ctx.receive(None, &mut || false).unwrap();
        }
    });
    let mid = rt.run_until(VirtualTime::from_nanos(35_000_000));
    assert!(mid.now <= VirtualTime::from_nanos(35_000_000));
    let done = rt.run();
    assert!(done.is_clean());
    assert_eq!(
        done.now,
        VirtualTime::ZERO + VirtualDuration::from_millis(200)
    );
}

#[test]
fn stats_count_user_and_hope_messages() {
    let mut rt = SimRuntime::new();
    let sink = rt.spawn_actor("sink", Box::new(hope_runtime::NullActor));
    rt.spawn_threaded("tx", None, move |ctx| {
        ctx.send(sink, user(b"u"));
        ctx.send(
            sink,
            Payload::Hope(HopeMessage::Guess {
                iid: IntervalId::new(ctx.pid(), 0),
            }),
        );
    });
    let report = rt.run();
    assert_eq!(report.stats.count_kind("User"), 1);
    assert_eq!(report.stats.count_kind("Guess"), 1);
    assert_eq!(
        report.stats.count(
            "Guess",
            hope_runtime::PartyKind::User,
            hope_runtime::PartyKind::Aid
        ),
        1
    );
}

#[test]
fn messages_to_unknown_processes_are_dropped() {
    let mut rt = SimRuntime::new();
    rt.spawn_threaded("tx", None, |ctx| {
        ctx.send(ProcessId::from_raw(999), user(b"lost"));
    });
    let report = rt.run();
    assert!(report.is_clean());
    assert_eq!(report.stats.dropped(), 1);
}

#[test]
fn event_limit_stops_runaway_runs() {
    let mut rt = SimRuntime::builder().max_events(50).build();
    let echo = rt.spawn_actor("echo", Box::new(Echo));
    // Ping-pong forever between two echo actors.
    let echo2 = rt.spawn_actor("echo2", Box::new(Echo));
    rt.inject(echo2, echo, user(b"ball")).unwrap();
    let report = rt.run();
    assert!(report.hit_event_limit);
    assert!(!report.is_clean());
}

#[test]
fn per_process_randomness_is_deterministic() {
    fn draw(seed: u64) -> Vec<u64> {
        let mut rt = SimRuntime::builder().seed(seed).build();
        let vals = Arc::new(Mutex::new(Vec::new()));
        let v = vals.clone();
        rt.spawn_threaded("r", None, move |ctx| {
            for _ in 0..5 {
                v.lock().unwrap().push(ctx.random_u64());
            }
        });
        rt.run();
        let out = vals.lock().unwrap().clone();
        out
    }
    assert_eq!(draw(1), draw(1));
    assert_ne!(draw(1), draw(2));
}

#[test]
fn receive_sees_message_queued_before_block() {
    // Delivery while the process is computing must be consumable later.
    let mut rt = SimRuntime::builder()
        .network(NetworkConfig::constant(VirtualDuration::from_micros(1)))
        .build();
    let got = Arc::new(Mutex::new(None));
    let g = got.clone();
    let rx = rt.spawn_threaded("rx", None, move |ctx| {
        ctx.compute(VirtualDuration::from_millis(50)); // message arrives meanwhile
        let m = ctx.receive(None, &mut || false).unwrap();
        *g.lock().unwrap() = Some((ctx.now(), m.msg.data));
    });
    rt.spawn_threaded("tx", None, move |ctx| {
        ctx.send(rx, user(b"early"));
    });
    let report = rt.run();
    assert!(report.is_clean());
    let (t, data) = got.lock().unwrap().clone().unwrap();
    assert_eq!(&data[..], b"early");
    // Receive returned when compute finished, not at delivery time.
    assert_eq!(t, VirtualTime::ZERO + VirtualDuration::from_millis(50));
}

#[test]
fn sequential_children_reuse_one_stack() {
    // A stack per process would map 1 001 here. On the simulator, and on a
    // threaded runtime whose one shard runs every process.
    fn parent(ctx: &mut dyn SysApi) {
        let parent = ctx.pid();
        for _ in 0..1_000 {
            ctx.spawn_threaded(
                "child",
                None,
                Box::new(move |cctx: &mut dyn SysApi| {
                    cctx.send(parent, user(b"bye"));
                }),
            );
            // The child has exited by the time its message arrives.
            ctx.receive(None, &mut || false).unwrap();
        }
    }
    let mut sim = SimRuntime::new();
    sim.spawn_threaded("parent", None, parent);
    let sim_report = sim.run();
    let threaded = ThreadedRuntime::builder().shards(1).build();
    threaded.spawn_threaded("parent", None, parent);
    let threaded_report =
        threaded.run_until_quiescent(Duration::from_millis(25), Duration::from_secs(30));
    for (runtime, report, stacks) in [
        ("simulator", sim_report, sim.stacks_mapped()),
        ("threaded", threaded_report, threaded.stacks_mapped()),
    ] {
        assert!(report.is_clean(), "{runtime}: {:?}", report.panics);
        assert_eq!(report.turns, 1 + 2 * 1_000, "{runtime}");
        assert!(
            stacks <= 2,
            "{runtime}: 1 000 sequential children mapped {stacks} stacks"
        );
    }
}

/// A parent that runs `waves` waves of `size` children, every child of a
/// wave live at once (blocked in `receive`); each child counts itself
/// into `done` as it ends.
fn waves(
    done: Arc<Mutex<usize>>,
    waves: usize,
    size: usize,
) -> impl FnOnce(&mut dyn SysApi) + Send + 'static {
    move |ctx| {
        let parent = ctx.pid();
        for _ in 0..waves {
            let children: Vec<ProcessId> = (0..size)
                .map(|_| {
                    let d = done.clone();
                    ctx.spawn_threaded(
                        "child",
                        None,
                        Box::new(move |cctx: &mut dyn SysApi| {
                            cctx.send(parent, user(b"ready"));
                            cctx.receive(None, &mut || false).unwrap();
                            *d.lock().unwrap() += 1;
                            cctx.send(parent, user(b"done"));
                        }),
                    )
                })
                .collect();
            // Every child of the wave is blocked in `receive` at once.
            for _ in 0..size {
                ctx.receive(None, &mut || false).unwrap();
            }
            for &child in &children {
                ctx.send(child, user(b"go"));
            }
            for _ in 0..size {
                ctx.receive(None, &mut || false).unwrap();
            }
        }
    }
}

#[test]
fn mapped_stacks_never_outnumber_peak_live_processes() {
    // Two waves of 64 children, all of one wave live at once; a stack per
    // process would map 129. On the simulator, and on a threaded runtime
    // whose one shard runs every process.
    const WAVE: usize = 64;
    let (sim_done, threaded_done) = (Arc::new(Mutex::new(0)), Arc::new(Mutex::new(0)));
    let mut sim = SimRuntime::new();
    sim.spawn_threaded("parent", None, waves(sim_done.clone(), 2, WAVE));
    assert!(sim.run().is_clean());
    let threaded = ThreadedRuntime::builder().shards(1).build();
    threaded.spawn_threaded("parent", None, waves(threaded_done.clone(), 2, WAVE));
    let report = threaded.run_until_quiescent(Duration::from_millis(25), Duration::from_secs(30));
    assert!(report.is_clean(), "{:?}", report.panics);
    for (runtime, done, stacks) in [
        ("simulator", sim_done, sim.stacks_mapped()),
        ("threaded", threaded_done, threaded.stacks_mapped()),
    ] {
        assert_eq!(*done.lock().unwrap(), 2 * WAVE, "{runtime}");
        assert!(
            stacks <= WAVE + 1,
            "{runtime}: two waves of {WAVE} mapped {stacks} stacks"
        );
    }
}

#[test]
fn a_runtime_on_a_warm_thread_maps_no_stack() {
    // Three simulators one after another on one new thread: the stacks the
    // first leaves behind serve the next, and a larger wave maps only what
    // the thread's free list lacks.
    const WAVE: usize = 64;
    const BIG: usize = 100;
    std::thread::spawn(|| {
        let run = |count: usize, size: usize| {
            let done = Arc::new(Mutex::new(0));
            let mut rt = SimRuntime::new();
            rt.spawn_threaded("parent", None, waves(done.clone(), count, size));
            assert!(rt.run().is_clean());
            assert_eq!(*done.lock().unwrap(), count * size);
            rt.stacks_mapped()
        };
        let a = run(2, WAVE);
        assert!(a <= WAVE + 1, "the first runtime mapped {a} stacks");
        let b = run(2, WAVE);
        assert_eq!(b, 0, "the second runtime mapped {b} stacks");
        // The parent and its wave of 100 are live at once.
        let c = run(1, BIG);
        assert_eq!(
            c,
            BIG + 1 - a,
            "the third runtime's peak less what it found"
        );
    })
    .join()
    .unwrap();
}

/// Runs `f` on another thread and fails if it does not finish in time.
/// A runtime stays on the thread that built it, so `f` builds its own.
fn within_watchdog(what: &str, f: impl FnOnce() + Send + 'static) {
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        f();
        let _ = done_tx.send(());
    });
    done_rx
        .recv_timeout(std::time::Duration::from_secs(20))
        .unwrap_or_else(|_| panic!("{what} did not return within the watchdog"));
}

/// A runtime whose processes end up exited (stack idle), blocked, parked
/// and sleeping, plus a ping-pong that never quiesces. The blocked, parked
/// and sleeping bodies log what their wait returned once it returns.
fn runtime_in_every_status(
    max_events: u64,
    woke: &Arc<Mutex<Vec<String>>>,
) -> (SimRuntime, [ProcessId; 4]) {
    let mut rt = SimRuntime::builder().max_events(max_events).build();
    let exited = rt.spawn_threaded("exited", None, |_ctx| {});
    let w = woke.clone();
    let blocked = rt.spawn_threaded("blocked", None, move |ctx| {
        let got = ctx.receive(None, &mut || false);
        w.lock()
            .unwrap()
            .push(format!("blocked: {:?}", got.is_some()));
    });
    let w = woke.clone();
    let parked = rt.spawn_threaded("parked", None, move |ctx| {
        let interrupted = ctx.park(&mut || false);
        w.lock().unwrap().push(format!("parked: {interrupted}"));
    });
    let w = woke.clone();
    let sleeping = rt.spawn_threaded("sleeping", None, move |ctx| {
        ctx.compute(VirtualDuration::from_secs(3600));
        w.lock().unwrap().push("sleeping: done".to_string());
    });
    let echo = rt.spawn_actor("echo", Box::new(Echo));
    let echo2 = rt.spawn_actor("echo2", Box::new(Echo));
    rt.inject(echo2, echo, user(b"ball")).unwrap();
    (rt, [exited, blocked, parked, sleeping])
}

#[test]
fn dropping_a_runtime_in_every_status_returns() {
    use ProcessStatus::*;
    const EXPECT: [ProcessStatus; 4] = [Exited, Blocked, Parked, Sleeping];
    // Every waiting body is woken by the drop and sees the shutdown.
    let shut_down = ["blocked: false", "parked: false", "sleeping: done"];

    // Stopped at a deadline, with a never-resumed process added after.
    let woke = Arc::new(Mutex::new(Vec::new()));
    let w = woke.clone();
    within_watchdog("drop after run_until", move || {
        let (mut rt, pids) = runtime_in_every_status(u64::MAX, &w);
        let report = rt.run_until(VirtualTime::ZERO + VirtualDuration::from_secs(1));
        assert!(!report.hit_event_limit);
        let fresh = rt.spawn_threaded("new", None, |_ctx| unreachable!("never resumed"));
        assert_eq!(rt.status(fresh), Some(New));
        for (pid, status) in pids.iter().zip(EXPECT) {
            assert_eq!(rt.status(*pid), Some(status));
        }
        assert!(w.lock().unwrap().is_empty());
        drop(rt);
    });
    woke.lock().unwrap().sort();
    assert_eq!(*woke.lock().unwrap(), shut_down);

    // Stopped by the event limit.
    let woke = Arc::new(Mutex::new(Vec::new()));
    let w = woke.clone();
    within_watchdog("drop at max_events", move || {
        let (mut rt, pids) = runtime_in_every_status(200, &w);
        assert!(rt.run().hit_event_limit);
        for (pid, status) in pids.iter().zip(EXPECT) {
            assert_eq!(rt.status(*pid), Some(status));
        }
        assert!(w.lock().unwrap().is_empty());
        drop(rt);
    });
    woke.lock().unwrap().sort();
    assert_eq!(*woke.lock().unwrap(), shut_down);
}

#[test]
fn a_reused_stack_reports_panics_per_pid_and_leaks_no_state() {
    const SEED: u64 = 7;
    let mut rt = SimRuntime::builder().seed(SEED).build();
    let bad = rt.spawn_threaded("bad", None, move |ctx| {
        for _ in 0..3 {
            ctx.random_u64();
        }
        panic!("boom-on-worker");
    });
    let report = rt.run();
    assert_eq!(report.panics.len(), 1);
    assert_eq!(report.panics[0].0, bad);
    assert!(report.panics[0].1.contains("boom-on-worker"));

    // The next process takes the panicked process's stack.
    let draws = Arc::new(Mutex::new(Vec::new()));
    let d = draws.clone();
    let good = rt.spawn_threaded("good", None, move |ctx| {
        for _ in 0..5 {
            d.lock().unwrap().push(ctx.random_u64());
        }
    });
    let report = rt.run();
    assert_eq!(report.panics.len(), 1, "only the first process panicked");
    assert_eq!(rt.stacks_mapped(), 1, "the stack was reused");

    // Same (seed, pid) on a fresh runtime, on a fresh stack: on a new
    // thread, whose free list is empty.
    let expected = Arc::new(Mutex::new(Vec::new()));
    let e = expected.clone();
    std::thread::spawn(move || {
        let mut fresh = SimRuntime::builder().seed(SEED).build();
        fresh.spawn_actor("filler", Box::new(hope_runtime::NullActor));
        let same = fresh.spawn_threaded("good", None, move |ctx| {
            for _ in 0..5 {
                e.lock().unwrap().push(ctx.random_u64());
            }
        });
        assert_eq!(same, good);
        assert!(fresh.run().is_clean());
        assert_eq!(fresh.stacks_mapped(), 1, "the stack was fresh");
    })
    .join()
    .unwrap();
    assert_eq!(*draws.lock().unwrap(), *expected.lock().unwrap());
}

#[test]
fn spawning_takes_no_turn() {
    // Each spawn was a turn of its own: 1 + 3N, not 1 + N.
    const N: u64 = 16;
    let mut rt = SimRuntime::new();
    rt.spawn_threaded("parent", None, |ctx| {
        for i in 0..N {
            ctx.spawn_actor(&format!("actor-{i}"), Box::new(hope_runtime::NullActor));
            ctx.spawn_threaded(&format!("child-{i}"), None, Box::new(|_| {}));
        }
    });
    let report = rt.run();
    assert!(report.is_clean());
    assert_eq!(report.turns, 1 + N, "the parent's turn plus each child's");
    assert_eq!(
        rt.process_name(ProcessId::from_raw(2 * N)),
        Some("child-15")
    );
}

#[test]
fn spawned_pids_follow_call_order_and_take_sends_at_once() {
    // Sends and spawns interleave in one turn; a send to a child spawned
    // earlier in that turn is delivered.
    let mut rt = SimRuntime::new();
    let got = Arc::new(Mutex::new(Vec::new()));
    let g = got.clone();
    let parent = rt.spawn_threaded("parent", None, move |ctx| {
        let mut pids = Vec::new();
        for i in 0..3 {
            let echo = ctx.spawn_actor(&format!("echo-{i}"), Box::new(Echo));
            ctx.send(echo, user(b"to-actor"));
            let g = g.clone();
            let child = ctx.spawn_threaded(
                &format!("child-{i}"),
                None,
                Box::new(move |cctx: &mut dyn hope_runtime::SysApi| {
                    let m = cctx.receive(None, &mut || false).unwrap();
                    g.lock().unwrap().push((cctx.pid(), m.msg.data));
                }),
            );
            ctx.send(child, user(b"to-child"));
            pids.extend([echo, child]);
        }
        for _ in 0..3 {
            assert_eq!(
                &ctx.receive(None, &mut || false).unwrap().msg.data[..],
                b"to-actor"
            );
        }
        let expected: Vec<ProcessId> = (1..=6).map(ProcessId::from_raw).collect();
        assert_eq!(pids, expected);
    });
    let report = rt.run();
    assert!(report.is_clean(), "{:?}", report.panics);
    assert!(report.blocked.is_empty());
    assert_eq!(parent, ProcessId::from_raw(0));
    for i in 0..3u64 {
        assert_eq!(
            rt.process_name(ProcessId::from_raw(1 + 2 * i)),
            Some(&*format!("echo-{i}"))
        );
        assert_eq!(
            rt.process_name(ProcessId::from_raw(2 + 2 * i)),
            Some(&*format!("child-{i}"))
        );
    }
    let mut got = got.lock().unwrap().clone();
    got.sort();
    let children = [2, 4, 6].map(|p| (ProcessId::from_raw(p), Bytes::from_static(b"to-child")));
    assert_eq!(got, children);
}

/// A panic payload whose drop panics again, outside the body's
/// `catch_unwind`: it loses the process with the turn still open.
struct PanicOnDrop;

impl Drop for PanicOnDrop {
    fn drop(&mut self) {
        panic!("payload dropped");
    }
}

#[test]
fn a_child_spawned_as_its_parent_ends_still_runs() {
    let ran = Arc::new(Mutex::new(Vec::new()));
    let mut rt = SimRuntime::new();
    let ends: [(&str, fn()); 3] = [
        ("exits", || {}),
        ("panics", || panic!("parent-boom")),
        ("loses its worker", || std::panic::panic_any(PanicOnDrop)),
    ];
    for (how, end) in ends {
        let r = ran.clone();
        rt.spawn_threaded(how, None, move |ctx| {
            ctx.spawn_threaded(
                "child",
                None,
                Box::new(move |_: &mut dyn hope_runtime::SysApi| r.lock().unwrap().push(how)),
            );
            end();
        });
    }
    let report = rt.run();
    assert_eq!(report.panics.len(), 1);
    assert!(report.panics[0].1.contains("parent-boom"));
    let mut ran = ran.lock().unwrap().clone();
    ran.sort_unstable();
    assert_eq!(ran, ["exits", "loses its worker", "panics"]);
    // The process table has no hole: a later spawn takes the next slot.
    let next = rt.spawn_actor("after", Box::new(hope_runtime::NullActor));
    assert_eq!(next, ProcessId::from_raw(6));
    assert_eq!(rt.process_name(ProcessId::from_raw(5)), Some("child"));
}

#[test]
fn a_spawn_after_shutdown_panics_without_a_pid() {
    let seen = Arc::new(Mutex::new(None));
    let s = seen.clone();
    within_watchdog("drop with a blocked spawner", move || {
        let mut rt = SimRuntime::new();
        rt.spawn_threaded("late", None, move |ctx| {
            assert!(ctx.receive(None, &mut || false).is_none());
            let spawn = std::panic::AssertUnwindSafe(|| {
                ctx.spawn_actor("orphan", Box::new(hope_runtime::NullActor))
            });
            let err = std::panic::catch_unwind(spawn).expect_err("a spawn after shutdown panics");
            *s.lock().unwrap() = err.downcast_ref::<String>().cloned();
        });
        assert_eq!(rt.run().blocked.len(), 1);
        drop(rt);
    });
    assert_eq!(
        seen.lock().unwrap().as_deref(),
        Some("hope-runtime shut down while process P0 was spawning")
    );
}
