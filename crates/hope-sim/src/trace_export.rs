//! Chrome trace-event export of the causal trace layer.
//!
//! Converts the [`TraceEvent`] stream collected by
//! [`hope_types::TraceCollector`] into the Chrome trace-event JSON object
//! format (`chrome://tracing` / Perfetto's legacy loader): a top-level
//! object with a `traceEvents` array of instant events, one per trace
//! record, grouped by HOPE process id. Rollback attribution and the ring's
//! drop count ride along under `otherData` so a trace file is a complete
//! record of the run's speculation economy.
//!
//! `ts` is in microseconds (the format's unit), derived from the
//! deterministic virtual-time stamp; the full-precision virtual and
//! wall-clock nanosecond stamps are preserved per event under `args`.
//!
//! [`validate_chrome_trace`] checks the structural schema — every consumer
//! in CI validates exported files through it before trusting them.

use hope_types::{RollbackAttribution, TraceEvent, TraceEventKind};

use crate::json::Value;

/// Event name, category and kind-specific `args` fields.
pub fn describe(kind: &TraceEventKind) -> (&'static str, &'static str, Vec<(String, Value)>) {
    let s = |v: &dyn std::fmt::Display| Value::String(v.to_string());
    match kind {
        TraceEventKind::AidInit { aid } => {
            ("aid_init", "speculation", vec![("aid".into(), s(aid))])
        }
        TraceEventKind::Guess { aid, interval } => (
            "guess",
            "speculation",
            vec![("aid".into(), s(aid)), ("interval".into(), s(interval))],
        ),
        TraceEventKind::ImplicitGuess { new_aids, interval } => (
            "implicit_guess",
            "speculation",
            vec![
                ("new_aids".into(), Value::Number(*new_aids as i64)),
                ("interval".into(), s(interval)),
            ],
        ),
        TraceEventKind::Affirm { aid } => ("affirm", "speculation", vec![("aid".into(), s(aid))]),
        TraceEventKind::Deny { aid } => ("deny", "speculation", vec![("aid".into(), s(aid))]),
        TraceEventKind::FreeOf { aid } => ("free_of", "speculation", vec![("aid".into(), s(aid))]),
        TraceEventKind::AidResolved { aid, denied } => (
            "aid_resolved",
            "speculation",
            vec![
                ("aid".into(), s(aid)),
                ("denied".into(), Value::Number(*denied as i64)),
            ],
        ),
        TraceEventKind::IntervalOpen { interval, implicit } => (
            "interval_open",
            "interval",
            vec![
                ("interval".into(), s(interval)),
                ("implicit".into(), Value::Number(*implicit as i64)),
            ],
        ),
        TraceEventKind::IntervalFinalized { interval } => (
            "interval_finalized",
            "interval",
            vec![("interval".into(), s(interval))],
        ),
        TraceEventKind::RollbackStart {
            floor,
            cause,
            crash,
            discarded,
            ops_discarded,
            messages_invalidated,
        } => (
            "rollback",
            "rollback",
            vec![
                ("floor".into(), s(floor)),
                (
                    "cause".into(),
                    match cause {
                        Some(aid) => s(aid),
                        None => Value::Null,
                    },
                ),
                ("crash".into(), Value::Number(*crash as i64)),
                (
                    "intervals_discarded".into(),
                    Value::Number(*discarded as i64),
                ),
                ("ops_discarded".into(), Value::Number(*ops_discarded as i64)),
                (
                    "messages_invalidated".into(),
                    Value::Number(*messages_invalidated as i64),
                ),
            ],
        ),
        TraceEventKind::Reexecution => ("reexecution", "rollback", vec![]),
        TraceEventKind::CrashRecovery => ("crash_recovery", "rollback", vec![]),
        TraceEventKind::Send { dst, seq } => (
            "send",
            "wire",
            vec![
                ("dst".into(), s(dst)),
                ("seq".into(), Value::Number(*seq as i64)),
            ],
        ),
        TraceEventKind::Deliver { src, seq, kind } => (
            "deliver",
            "wire",
            vec![
                ("src".into(), s(src)),
                ("seq".into(), Value::Number(*seq as i64)),
                ("kind".into(), s(kind)),
            ],
        ),
        TraceEventKind::Retransmit { dst, seq } => (
            "retransmit",
            "wire",
            vec![
                ("dst".into(), s(dst)),
                ("seq".into(), Value::Number(*seq as i64)),
            ],
        ),
        TraceEventKind::Crash => ("crash", "fault", vec![]),
        TraceEventKind::Restart => ("restart", "fault", vec![]),
        TraceEventKind::SpecObserve {
            aid,
            denied,
            aid_ewma,
            process_ewma,
        } => (
            "spec_observe",
            "speculation",
            vec![
                ("aid".into(), s(aid)),
                ("denied".into(), Value::Number(*denied as i64)),
                ("aid_ewma".into(), Value::Number(*aid_ewma as i64)),
                ("process_ewma".into(), Value::Number(*process_ewma as i64)),
            ],
        ),
        TraceEventKind::SpecThrottle { aid, on, ewma } => (
            "spec_throttle",
            "speculation",
            vec![
                (
                    "aid".into(),
                    match aid {
                        Some(aid) => s(aid),
                        None => Value::Null,
                    },
                ),
                ("on".into(), Value::Number(*on as i64)),
                ("ewma".into(), Value::Number(*ewma as i64)),
            ],
        ),
        TraceEventKind::SpecWait { aid, depth_limited } => (
            "spec_wait",
            "speculation",
            vec![
                ("aid".into(), s(aid)),
                ("depth_limited".into(), Value::Number(*depth_limited as i64)),
            ],
        ),
        TraceEventKind::CancelDoomed { aid, message } => (
            "cancel_doomed",
            "speculation",
            vec![
                ("aid".into(), s(aid)),
                ("message".into(), Value::Number(*message as i64)),
            ],
        ),
    }
}

/// Renders `events` as a Chrome trace-event JSON object. `dropped` is the
/// collector's ring-eviction count (surfaced so a truncated trace is never
/// mistaken for a complete one); `attribution` is the run's rollback
/// attribution table.
pub fn chrome_trace(
    events: &[TraceEvent],
    dropped: u64,
    attribution: &RollbackAttribution,
) -> Value {
    let mut trace_events = Vec::with_capacity(events.len());
    for event in events {
        let (name, cat, mut args) = describe(&event.kind);
        args.push((
            "virt_ns".into(),
            Value::Number(event.virt.as_nanos().min(i64::MAX as u64) as i64),
        ));
        args.push((
            "wall_ns".into(),
            Value::Number(event.wall_ns.min(i64::MAX as u64) as i64),
        ));
        trace_events.push(Value::Object(vec![
            ("name".into(), Value::String(name.into())),
            ("cat".into(), Value::String(cat.into())),
            ("ph".into(), Value::String("i".into())),
            ("s".into(), Value::String("t".into())),
            (
                "ts".into(),
                Value::Number((event.virt.as_nanos() / 1_000).min(i64::MAX as u64) as i64),
            ),
            (
                "pid".into(),
                Value::Number(event.pid.as_raw().min(i64::MAX as u64) as i64),
            ),
            ("tid".into(), Value::Number(0)),
            ("args".into(), Value::Object(args)),
        ]));
    }
    let attribution_rows = attribution
        .by_cause
        .iter()
        .map(|(cause, work)| {
            Value::Object(vec![
                ("cause".into(), Value::String(cause.to_string())),
                (
                    "intervals_discarded".into(),
                    Value::Number(work.intervals_discarded as i64),
                ),
                (
                    "ops_discarded".into(),
                    Value::Number(work.ops_discarded as i64),
                ),
                (
                    "messages_invalidated".into(),
                    Value::Number(work.messages_invalidated as i64),
                ),
                (
                    "reexecutions".into(),
                    Value::Number(work.reexecutions as i64),
                ),
            ])
        })
        .collect();
    Value::Object(vec![
        ("traceEvents".into(), Value::Array(trace_events)),
        ("displayTimeUnit".into(), Value::String("ms".into())),
        (
            "otherData".into(),
            Value::Object(vec![
                (
                    "dropped_events".into(),
                    Value::Number(dropped.min(i64::MAX as u64) as i64),
                ),
                ("attribution".into(), Value::Array(attribution_rows)),
            ]),
        ),
    ])
}

/// Drains `tracer` and writes its Chrome trace to `path`, validating the
/// rendered object first so a malformed artifact never reaches disk.
pub fn write_trace_file(
    path: &std::path::Path,
    tracer: &hope_types::TraceCollector,
    attribution: &RollbackAttribution,
) -> std::io::Result<()> {
    let events = tracer.drain();
    let trace = chrome_trace(&events, tracer.dropped(), attribution);
    validate_chrome_trace(&trace)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
    std::fs::write(path, crate::json::to_string_pretty(&trace))
}

/// Structural schema check for an exported Chrome trace. Returns the first
/// violation as `Err`. Accepts exactly the shape [`chrome_trace`] emits
/// (instant events with scope, numeric `ts`/`pid`/`tid`, an `args`
/// object) plus the standard metadata phase, so hand-edited or truncated
/// artifacts fail loudly in CI rather than silently misrendering.
pub fn validate_chrome_trace(trace: &Value) -> Result<(), String> {
    let events = match trace.get("traceEvents") {
        Value::Array(events) => events,
        _ => return Err("top-level traceEvents array missing".into()),
    };
    for (i, event) in events.iter().enumerate() {
        let fail = |what: &str| Err(format!("traceEvents[{i}]: {what}"));
        if !matches!(event, Value::Object(_)) {
            return fail("not an object");
        }
        if event.get("name").as_str().is_none() {
            return fail("missing string name");
        }
        let ph = match event.get("ph").as_str() {
            Some(ph) => ph,
            None => return fail("missing string ph"),
        };
        match ph {
            "i" => {
                if event.get("s").as_str().is_none() {
                    return fail("instant event missing scope s");
                }
            }
            "M" => {}
            _ => return fail("unsupported phase (expected i or M)"),
        }
        for key in ["ts", "pid", "tid"] {
            match event.get(key).as_i64() {
                Some(n) if n >= 0 => {}
                Some(_) => return fail("negative timestamp or id"),
                None => return fail("missing numeric ts/pid/tid"),
            }
        }
        if !matches!(event.get("args"), Value::Object(_) | Value::Null) {
            return fail("args must be an object when present");
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hope_types::{AidId, ProcessId, VirtualTime, WastedWork};

    fn sample_events() -> Vec<TraceEvent> {
        let pid = ProcessId::from_raw(3);
        let aid = AidId::from_raw(ProcessId::from_raw(9));
        vec![
            TraceEvent {
                pid,
                virt: VirtualTime::from_nanos(1_500),
                wall_ns: 10,
                kind: TraceEventKind::AidInit { aid },
            },
            TraceEvent {
                pid,
                virt: VirtualTime::from_nanos(2_500),
                wall_ns: 20,
                kind: TraceEventKind::Deny { aid },
            },
            TraceEvent {
                pid,
                virt: VirtualTime::from_nanos(3_500),
                wall_ns: 30,
                kind: TraceEventKind::Reexecution,
            },
        ]
    }

    #[test]
    fn export_validates_and_renders_exactly() {
        let mut attribution = RollbackAttribution::new();
        attribution.charge(
            hope_types::BlameKey::Aid(AidId::from_raw(ProcessId::from_raw(9))),
            WastedWork {
                intervals_discarded: 1,
                ops_discarded: 4,
                messages_invalidated: 2,
                reexecutions: 1,
            },
        );
        let trace = chrome_trace(&sample_events(), 7, &attribution);
        validate_chrome_trace(&trace).unwrap();
        let text = crate::json::to_string_pretty(&trace);
        let first_event = r#"{
  "traceEvents": [
    {
      "name": "aid_init",
      "cat": "speculation",
      "ph": "i",
      "s": "t",
      "ts": 1,
      "pid": 3,
      "tid": 0,
      "args": {
        "aid": "X9",
        "virt_ns": 1500,
        "wall_ns": 10
      }
    },"#;
        assert!(text.starts_with(first_event), "{text}");
        // Ring truncation and the attribution table are visible in the
        // artifact.
        let other_data = r#"  "displayTimeUnit": "ms",
  "otherData": {
    "dropped_events": 7,
    "attribution": [
      {
        "cause": "deny(X9)",
        "intervals_discarded": 1,
        "ops_discarded": 4,
        "messages_invalidated": 2,
        "reexecutions": 1
      }
    ]
  }
}"#;
        assert!(text.ends_with(other_data), "{text}");
    }

    #[test]
    fn validator_rejects_malformed_traces() {
        assert!(validate_chrome_trace(&Value::Object(vec![])).is_err());
        let no_name = Value::Object(vec![(
            "traceEvents".into(),
            Value::Array(vec![Value::Object(vec![(
                "ph".into(),
                Value::String("i".into()),
            )])]),
        )]);
        let err = validate_chrome_trace(&no_name).unwrap_err();
        assert!(err.contains("traceEvents[0]"), "{err}");
        let bad_ph = Value::Object(vec![(
            "traceEvents".into(),
            Value::Array(vec![Value::Object(vec![
                ("name".into(), Value::String("x".into())),
                ("ph".into(), Value::String("X".into())),
            ])]),
        )]);
        assert!(validate_chrome_trace(&bad_ph).is_err());
    }

    #[test]
    fn every_event_kind_describes_cleanly() {
        let pid = ProcessId::from_raw(1);
        let aid = AidId::from_raw(pid);
        let interval = hope_types::IntervalId::new(pid, 2);
        let kinds = vec![
            TraceEventKind::AidInit { aid },
            TraceEventKind::Guess { aid, interval },
            TraceEventKind::ImplicitGuess {
                new_aids: 2,
                interval,
            },
            TraceEventKind::Affirm { aid },
            TraceEventKind::Deny { aid },
            TraceEventKind::FreeOf { aid },
            TraceEventKind::AidResolved { aid, denied: true },
            TraceEventKind::IntervalOpen {
                interval,
                implicit: false,
            },
            TraceEventKind::IntervalFinalized { interval },
            TraceEventKind::RollbackStart {
                floor: interval,
                cause: Some(aid),
                crash: false,
                discarded: 1,
                ops_discarded: 2,
                messages_invalidated: 3,
            },
            TraceEventKind::Reexecution,
            TraceEventKind::CrashRecovery,
            TraceEventKind::Send { dst: pid, seq: 1 },
            TraceEventKind::Deliver {
                src: pid,
                seq: 1,
                kind: "Replace",
            },
            TraceEventKind::Retransmit { dst: pid, seq: 1 },
            TraceEventKind::Crash,
            TraceEventKind::Restart,
            TraceEventKind::SpecObserve {
                aid,
                denied: true,
                aid_ewma: 8192,
                process_ewma: 4096,
            },
            TraceEventKind::SpecThrottle {
                aid: Some(aid),
                on: true,
                ewma: 8192,
            },
            TraceEventKind::SpecWait {
                aid,
                depth_limited: false,
            },
            TraceEventKind::CancelDoomed { aid, message: true },
        ];
        let events: Vec<TraceEvent> = kinds
            .into_iter()
            .map(|kind| TraceEvent {
                pid,
                virt: VirtualTime::ZERO,
                wall_ns: 0,
                kind,
            })
            .collect();
        let trace = chrome_trace(&events, 0, &RollbackAttribution::new());
        validate_chrome_trace(&trace).unwrap();
        let Value::Array(rendered) = &trace["traceEvents"] else {
            panic!("validated trace has a traceEvents array");
        };
        assert_eq!(rendered.len(), events.len(), "one trace event per record");
    }
}
