//! The one way a workload is run: to quiescence, then held to "nobody
//! panicked, the event limit did not cut it short, nobody is stuck" —
//! and the one fault plan the lossy workloads start from.

use std::time::Duration;

use hope_core::{HopeEnv, HopeReport, ThreadedHopeEnv};
use hope_runtime::{FaultPlan, RunReport};
use hope_types::{ProcessId, VirtualDuration, VirtualTime};

/// Runs `env` to quiescence and asserts that the run settled: no process
/// panicked, the event limit did not stop it, and nobody is still blocked
/// in `receive` — a process cannot exit while any of its intervals is
/// speculative, so a blocked process is unfinished business. `lingering`
/// names the exceptions: open-loop servers, which never exit by design.
pub fn run_settled(env: &mut HopeEnv, lingering: &[&str]) -> HopeReport {
    let report = env.run();
    assert_settled(&report.run, lingering);
    report
}

/// [`run_settled`] on the wall-clock runtime, where quiescence is 50 ms
/// of silence and must come within 30 s.
pub fn run_settled_threaded(env: &ThreadedHopeEnv) -> HopeReport {
    let run = env.run_until_quiescent(Duration::from_millis(50), Duration::from_secs(30));
    assert_settled(&run, &[]);
    let hope = env.metrics();
    HopeReport { run, hope }
}

fn assert_settled(run: &RunReport, lingering: &[&str]) {
    assert!(run.panics.is_empty(), "{:?}", run.panics);
    assert!(!run.hit_event_limit, "must reach quiescence");
    let stuck: Vec<_> = run
        .blocked
        .iter()
        .filter(|(_, name)| !lingering.contains(&name.as_str()))
        .collect();
    assert!(
        stuck.is_empty(),
        "every process must finalize its intervals and exit: {stuck:?}"
    );
}

/// Seeded drops and duplicates over the reliable sublayer, whose
/// retransmit timer starts at `rto`, plus at most one crash/restart
/// `(victim, at, down_for)`.
pub(crate) fn lossy_plan(
    drop_rate: f64,
    duplicate_rate: f64,
    seed: u64,
    rto: VirtualDuration,
    crash: Option<(ProcessId, VirtualTime, VirtualDuration)>,
) -> FaultPlan {
    let plan = FaultPlan::new()
        .drop_rate(drop_rate)
        .duplicate_rate(duplicate_rate)
        .seed(seed)
        .rto(rto);
    match crash {
        Some((victim, at, down_for)) => plan.crash(victim, at, down_for),
        None => plan,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    /// `waiter` blocks in `receive` forever; `done` exits at once.
    fn env_with_a_waiter(max_events: u64) -> HopeEnv {
        let mut env = HopeEnv::builder().seed(1).max_events(max_events).build();
        env.spawn_user("waiter", |ctx| {
            let _ = ctx.receive(None);
        });
        env.spawn_user("done", |_| {});
        env
    }

    #[test]
    #[should_panic(expected = "waiter")]
    fn a_blocked_process_that_is_not_lingering_panics_by_name() {
        run_settled(&mut env_with_a_waiter(1_000), &["someone-else"]);
    }

    #[test]
    fn a_blocked_process_named_in_lingering_passes() {
        let report = run_settled(&mut env_with_a_waiter(1_000), &["waiter"]);
        assert_eq!(report.run.blocked.len(), 1);
    }

    #[test]
    #[should_panic(expected = "must reach quiescence")]
    fn an_event_limit_stop_panics() {
        let mut env = HopeEnv::builder().seed(1).max_events(4).build();
        let echo = env.spawn_user("echo", |ctx| loop {
            let m = ctx.receive(None);
            ctx.send(m.src, 0, m.data.clone());
        });
        env.spawn_user("serve", move |ctx| {
            ctx.send(echo, 0, Bytes::new());
            loop {
                let m = ctx.receive(None);
                ctx.send(m.src, 0, m.data.clone());
            }
        });
        run_settled(&mut env, &["echo", "serve"]);
    }

    #[test]
    fn the_plan_carries_a_crash_only_when_asked() {
        let rto = VirtualDuration::from_millis(5);
        assert!(lossy_plan(0.1, 0.1, 7, rto, None).crashes().is_empty());
        let crash = (ProcessId::from_raw(0), VirtualTime::ZERO, rto);
        let plan = lossy_plan(0.1, 0.1, 7, rto, Some(crash));
        assert_eq!(plan.crashes().len(), 1);
        assert_eq!(plan.retransmit_timeout(), rto);
        assert!(plan.validate().is_ok());
    }
}
