//! In-memory spans around the benchmark's calls into each layer.
//!
//! The benchmark measures every layer from outside, so a span is opened
//! by the benchmark's own closures right before a call into a layer
//! (`ctx.send`, `NetTransport::send`, `StreamingClient::call`, …) and
//! closed right after. Each thread of a workload records into its own
//! [`Lane`]; nothing is written until the run ends, when
//! [`SpanLog::write_chrome_trace`] dumps the spans and
//! [`SpanLog::self_time_ns`] derives each span name's self time (its
//! duration minus the part its child spans cover).
//!
//! A disabled log (the timed, untraced window) costs one branch per
//! `enter`.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Spans per lane written to the trace file; self times always cover all.
const TRACE_FILE_SPANS_PER_LANE: usize = 20_000;

#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    /// Index (within the lane) of the span that was open when this one
    /// started.
    parent: Option<usize>,
    /// Identifier shared by the spans of one operation.
    op: u64,
}

#[derive(Debug, Default)]
struct LaneInner {
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// One thread's span recorder.
#[derive(Debug)]
pub struct Lane {
    name: String,
    epoch: Option<Instant>,
    inner: Mutex<LaneInner>,
}

/// Closes its span when dropped — also when a rollback unwinds the
/// closure that opened it.
#[must_use = "the span ends when the guard is dropped"]
pub struct SpanGuard<'a> {
    open: Option<(&'a Lane, usize)>,
}

impl Lane {
    /// Opens a span named `name` for operation `op`.
    #[inline]
    pub fn enter(&self, name: &'static str, op: u64) -> SpanGuard<'_> {
        let Some(epoch) = self.epoch else {
            return SpanGuard { open: None };
        };
        let mut inner = self.inner.lock().expect("span lane poisoned");
        let index = inner.spans.len();
        let parent = inner.open.last().copied();
        inner.open.push(index);
        let start_ns = epoch.elapsed().as_nanos() as u64;
        inner.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op,
        });
        SpanGuard {
            open: Some((self, index)),
        }
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some((lane, index)) = self.open {
            let end_ns = lane.epoch.map_or(0, |e| e.elapsed().as_nanos() as u64);
            // A poisoned lane only loses this span's end; never panic in drop.
            if let Ok(mut inner) = lane.inner.lock() {
                inner.spans[index].end_ns = end_ns;
                inner.open.retain(|&i| i != index);
            }
        }
    }
}

/// All lanes of one traced (or untraced) run.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Option<Instant>,
    lanes: Mutex<Vec<Arc<Lane>>>,
}

impl SpanLog {
    /// A log that records (`enabled`) or ignores every span.
    pub fn new(enabled: bool) -> Arc<SpanLog> {
        Arc::new(SpanLog {
            epoch: enabled.then(Instant::now),
            lanes: Mutex::new(Vec::new()),
        })
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.epoch.is_some()
    }

    /// A recorder for one thread, labelled `name` in the trace.
    pub fn lane(&self, name: &str) -> Arc<Lane> {
        let lane = Arc::new(Lane {
            name: name.to_string(),
            epoch: self.epoch,
            inner: Mutex::new(LaneInner::default()),
        });
        if self.enabled() {
            self.lanes
                .lock()
                .expect("span log poisoned")
                .push(lane.clone());
        }
        lane
    }

    /// Total spans recorded.
    pub fn len(&self) -> usize {
        let lanes = self.lanes.lock().expect("span log poisoned");
        lanes
            .iter()
            .map(|lane| lane.inner.lock().expect("span lane poisoned").spans.len())
            .sum()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn snapshot(&self) -> Vec<(String, Vec<Span>)> {
        self.lanes
            .lock()
            .expect("span log poisoned")
            .iter()
            .map(|lane| {
                let inner = lane.inner.lock().expect("span lane poisoned");
                (lane.name.clone(), inner.spans.clone())
            })
            .collect()
    }

    /// Self time per span name, summed over every lane: a span's duration
    /// minus the durations of the spans opened directly inside it.
    pub fn self_time_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for (_, spans) in self.snapshot() {
            let mut child_ns = vec![0u64; spans.len()];
            for span in &spans {
                if let Some(parent) = span.parent {
                    child_ns[parent] += span.end_ns - span.start_ns;
                }
            }
            for (span, children) in spans.iter().zip(child_ns) {
                *out.entry(span.name).or_insert(0) +=
                    (span.end_ns - span.start_ns).saturating_sub(children);
            }
        }
        out
    }

    /// Writes the spans as a Chrome trace (`chrome://tracing`, Perfetto):
    /// one complete event per span, one track per lane, `args.op` the
    /// operation id and `args.parent` the enclosing span's name.
    pub fn write_chrome_trace(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        write!(out, "{{\"traceEvents\":[")?;
        for (tid, (lane, spans)) in self.snapshot().iter().enumerate() {
            let sep = if tid == 0 { "" } else { "," };
            write!(
                out,
                "{sep}\n{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\
                 \"args\":{{\"name\":\"{lane}\"}}}}"
            )?;
            for span in spans.iter().take(TRACE_FILE_SPANS_PER_LANE) {
                let parent = span.parent.map_or("", |p| spans[p].name);
                write!(
                    out,
                    ",\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"ts\":{:.3},\
                     \"dur\":{:.3},\"args\":{{\"op\":{},\"parent\":\"{parent}\"}}}}",
                    span.name,
                    span.start_ns as f64 / 1e3,
                    (span.end_ns - span.start_ns) as f64 / 1e3,
                    span.op,
                )?;
            }
        }
        writeln!(out, "\n]}}")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_log_records_nothing() {
        let log = SpanLog::new(false);
        let lane = log.lane("t");
        drop(lane.enter("a", 1));
        assert!(log.is_empty());
        assert!(log.self_time_ns().is_empty());
    }

    #[test]
    fn self_time_excludes_children() {
        let log = SpanLog::new(true);
        let lane = log.lane("t");
        {
            let _outer = lane.enter("outer", 7);
            std::thread::sleep(std::time::Duration::from_millis(2));
            let _inner = lane.enter("inner", 7);
            std::thread::sleep(std::time::Duration::from_millis(4));
        }
        let own = log.self_time_ns();
        assert_eq!(log.len(), 2);
        assert!(own["inner"] >= 4_000_000, "{own:?}");
        assert!(
            own["outer"] >= 2_000_000 && own["outer"] < own["inner"],
            "{own:?}"
        );
    }

    #[test]
    fn unwinding_closes_open_spans() {
        let log = SpanLog::new(true);
        let lane = log.lane("t");
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _g = lane.enter("doomed", 0);
            std::panic::resume_unwind(Box::new("rollback"));
        }));
        assert!(unwound.is_err());
        drop(lane.enter("after", 1));
        // "after" must be a root span, not a child of the unwound one.
        let own = log.self_time_ns();
        assert!(own.contains_key("doomed") && own.contains_key("after"));
        assert!(lane.inner.lock().unwrap().spans[1].parent.is_none());
    }
}
