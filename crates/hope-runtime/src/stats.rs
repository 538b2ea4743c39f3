//! Message accounting and run reports.
//!
//! The paper's Table 1 classifies HOPE protocol traffic by message type and
//! by the kind of endpoint ("User" — the HOPElib attached to a user
//! process — or "AID" — an assumption-identifier process). The runtime
//! counts every delivered envelope along those axes so the `table1`
//! experiment can regenerate the table from a live run.

use std::collections::BTreeMap;
use std::fmt;

use hope_types::{ProcessId, VirtualTime};

/// Which kind of process an endpoint is, in the paper's Table 1 sense.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PartyKind {
    /// A threaded user process (with its attached HOPElib).
    User,
    /// An event-driven actor process (AID processes in HOPE programs).
    Aid,
}

impl fmt::Display for PartyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PartyKind::User => write!(f, "User"),
            PartyKind::Aid => write!(f, "AID"),
        }
    }
}

/// Counts of delivered messages, keyed by `(message kind, from, to)`.
///
/// `message kind` is `"User"` for application messages or the HOPE message
/// name (`"Guess"`, `"Affirm"`, `"Deny"`, `"Replace"`, `"Rollback"`).
/// Reliability and fault-injection counters, kept apart from the Table 1
/// `counts` map so fault runs don't distort the paper's accounting.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct LinkStats {
    /// Transits the fault model dropped on the wire.
    pub fault_dropped: u64,
    /// Extra copies the fault model injected.
    pub duplicated: u64,
    /// Deliveries suppressed because the destination was down (crashed).
    pub crash_dropped: u64,
    /// Retransmissions performed by the reliable sublayer.
    pub retransmits: u64,
    /// Envelopes abandoned after exhausting the retransmission cap.
    pub abandoned: u64,
    /// Link-layer acknowledgements delivered (consumed by the runtime,
    /// never handed to a process).
    pub acks: u64,
    /// Arrivals suppressed by receiver-side dedup (retransmit raced a slow
    /// ack, or the wire duplicated). Always equals the sum of the three
    /// attribution counters below.
    pub dedup_dropped: u64,
    /// Dedup suppressions whose arriving copy was a fault-injected wire
    /// duplicate — noise the fault model added, not sublayer overhead.
    pub dedup_dup_faults: u64,
    /// Dedup suppressions whose arriving copy was a sublayer
    /// retransmission — the cost of retransmit timers racing slow acks.
    pub dedup_retransmits: u64,
    /// Dedup suppressions of an *original* transmission that arrived after
    /// a faster duplicate or retransmitted copy of itself.
    pub dedup_overtaken: u64,
    /// Messages addressed to a process the runtime never knew.
    pub unroutable: u64,
    /// Round-trip samples fed to the Jacobson/Karels estimators (acks of
    /// never-retransmitted sends; Karn's rule excludes the rest).
    pub rtt_samples: u64,
    /// Mean smoothed RTT across sampled links at the last sample, in
    /// nanoseconds — the adaptive timeout the retransmit timers track.
    pub srtt_nanos: u64,
    /// Highest retransmission attempt any envelope reached (0-based
    /// backoff exponent; 0 when nothing was ever retransmitted).
    pub max_retransmit_attempt: u64,
    /// Bytes the dependency tags of sequenced user messages cost in a
    /// frame: the full set, as `Envelope::encode` writes it, since no wire
    /// delta-codes tags yet.
    pub tag_bytes_wire: u64,
    /// Tags counted in `tag_bytes_wire`, every one of them in full.
    pub tags_full: u64,
    /// Tags shipped as deltas; 0 until a wire delta-codes tags.
    pub tags_delta: u64,
    /// Sends accepted while the peer link was down, parked in the bounded
    /// retransmit buffer awaiting reconnect (backpressure signal: parked
    /// traffic is latency the application will see at heal time).
    pub parked: u64,
    /// Successful reconnects completed by the per-peer link supervisors.
    pub reconnects: u64,
    /// Link-down transitions: missed-heartbeat timeouts, connection
    /// resets, or failed dials that opened (or extended) an outage.
    pub link_down_events: u64,
    /// Sends rejected with `HopeError::NodeUnreachable`: the node id was
    /// not in the directory, or the park buffer was full while the link
    /// was down.
    pub node_unreachable: u64,
    /// Handshakes a peer rejected (version mismatch, unknown node id, id
    /// collision) — each surfaced as `HopeError::HandshakeRejected`.
    pub handshake_rejected: u64,
}

impl LinkStats {
    fn is_empty(&self) -> bool {
        *self == LinkStats::default()
    }

    /// Counts one tag a frame carries in full, `bytes` long.
    pub(crate) fn record_full_tag(&mut self, bytes: usize) {
        self.tag_bytes_wire += bytes as u64;
        self.tags_full += 1;
    }

    /// Records one dedup suppression, attributed to the provenance of the
    /// arriving copy.
    pub(crate) fn record_dedup(&mut self, kind: crate::reliable::CopyKind) {
        self.dedup_dropped += 1;
        match kind {
            crate::reliable::CopyKind::Original => self.dedup_overtaken += 1,
            crate::reliable::CopyKind::WireDup => self.dedup_dup_faults += 1,
            crate::reliable::CopyKind::Retransmit => self.dedup_retransmits += 1,
        }
    }

    /// Folds another instance's counters into this one. All counters are
    /// additive except `max_retransmit_attempt` (a max) and `srtt_nanos`
    /// (the sample-weighted mean of the two — how the threaded runtime
    /// combines its shards' means over their links).
    pub(crate) fn merge(&mut self, other: &LinkStats) {
        let total_samples = self.rtt_samples + other.rtt_samples;
        let weighted = self
            .srtt_nanos
            .saturating_mul(self.rtt_samples)
            .saturating_add(other.srtt_nanos.saturating_mul(other.rtt_samples));
        self.srtt_nanos = match weighted.checked_div(total_samples) {
            Some(mean) => mean,
            None => self.srtt_nanos.max(other.srtt_nanos),
        };
        self.fault_dropped += other.fault_dropped;
        self.duplicated += other.duplicated;
        self.crash_dropped += other.crash_dropped;
        self.retransmits += other.retransmits;
        self.abandoned += other.abandoned;
        self.acks += other.acks;
        self.dedup_dropped += other.dedup_dropped;
        self.dedup_dup_faults += other.dedup_dup_faults;
        self.dedup_retransmits += other.dedup_retransmits;
        self.dedup_overtaken += other.dedup_overtaken;
        self.unroutable += other.unroutable;
        self.rtt_samples += other.rtt_samples;
        self.max_retransmit_attempt = self
            .max_retransmit_attempt
            .max(other.max_retransmit_attempt);
        self.tag_bytes_wire += other.tag_bytes_wire;
        self.tags_full += other.tags_full;
        self.tags_delta += other.tags_delta;
        self.parked += other.parked;
        self.reconnects += other.reconnects;
        self.link_down_events += other.link_down_events;
        self.node_unreachable += other.node_unreachable;
        self.handshake_rejected += other.handshake_rejected;
    }
}

impl fmt::Display for LinkStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "fault_dropped={} duplicated={} crash_dropped={} retransmits={} \
             abandoned={} acks={} dedup_dropped={} (dup_faults={} \
             retransmit_races={} overtaken={}) unroutable={} \
             rtt_samples={} srtt_nanos={} max_attempt={} \
             net(parked={} reconnects={} link_down={} unreachable={} \
             handshake_rejected={})",
            self.fault_dropped,
            self.duplicated,
            self.crash_dropped,
            self.retransmits,
            self.abandoned,
            self.acks,
            self.dedup_dropped,
            self.dedup_dup_faults,
            self.dedup_retransmits,
            self.dedup_overtaken,
            self.unroutable,
            self.rtt_samples,
            self.srtt_nanos,
            self.max_retransmit_attempt,
            self.parked,
            self.reconnects,
            self.link_down_events,
            self.node_unreachable,
            self.handshake_rejected
        )
    }
}

/// Per-kind message delivery counts (the paper's Table 1 accounting),
/// plus drop and reliable-sublayer counters.
#[derive(Debug, Default, Clone)]
pub struct MessageStats {
    counts: BTreeMap<(&'static str, PartyKind, PartyKind), u64>,
    dropped: u64,
    link: LinkStats,
}

impl MessageStats {
    /// Creates empty statistics.
    pub fn new() -> Self {
        MessageStats::default()
    }

    /// Records one delivered message.
    pub fn record(&mut self, kind: &'static str, from: PartyKind, to: PartyKind) {
        *self.counts.entry((kind, from, to)).or_insert(0) += 1;
    }

    /// Records a message dropped because its destination was gone.
    pub fn record_dropped(&mut self) {
        self.dropped += 1;
    }

    /// Count for one `(kind, from, to)` cell.
    pub fn count(&self, kind: &str, from: PartyKind, to: PartyKind) -> u64 {
        self.counts
            .iter()
            .filter(|((k, f, t), _)| *k == kind && *f == from && *t == to)
            .map(|(_, v)| *v)
            .sum()
    }

    /// Total messages of a kind regardless of endpoints.
    pub fn count_kind(&self, kind: &str) -> u64 {
        self.counts
            .iter()
            .filter(|((k, _, _), _)| *k == kind)
            .map(|(_, v)| *v)
            .sum()
    }

    /// Total delivered messages.
    pub fn total(&self) -> u64 {
        self.counts.values().sum()
    }

    /// Total HOPE protocol messages (everything that is not `"User"`).
    pub fn total_hope(&self) -> u64 {
        self.counts
            .iter()
            .filter(|((k, _, _), _)| *k != "User")
            .map(|(_, v)| *v)
            .sum()
    }

    /// Messages dropped because the destination no longer existed.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Reliability / fault-injection counters.
    pub fn link(&self) -> &LinkStats {
        &self.link
    }

    /// Mutable access for the runtimes' link layers.
    pub(crate) fn link_mut(&mut self) -> &mut LinkStats {
        &mut self.link
    }

    /// Iterates `(kind, from, to, count)` rows in deterministic order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, PartyKind, PartyKind, u64)> + '_ {
        self.counts.iter().map(|(&(k, f, t), &c)| (k, f, t, c))
    }

    /// Folds another instance into this one — how the threaded runtime
    /// combines its per-shard counters into one report without ever
    /// sharing a statistics lock on the delivery path.
    pub(crate) fn merge(&mut self, other: &MessageStats) {
        for (&key, &count) in &other.counts {
            *self.counts.entry(key).or_insert(0) += count;
        }
        self.dropped += other.dropped;
        self.link.merge(&other.link);
    }
}

impl fmt::Display for MessageStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<10} {:<6} {:<6} {:>10}",
            "Type", "From", "To", "Count"
        )?;
        for (kind, from, to, count) in self.iter() {
            writeln!(f, "{kind:<10} {from:<6} {to:<6} {count:>10}")?;
        }
        if self.dropped > 0 {
            writeln!(f, "(dropped: {})", self.dropped)?;
        }
        if !self.link.is_empty() {
            writeln!(f, "(link: {})", self.link)?;
        }
        Ok(())
    }
}

/// Outcome of [`SimRuntime::run`](crate::SimRuntime::run).
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Virtual time when the run went quiescent (or hit the event limit).
    pub now: VirtualTime,
    /// Number of events processed.
    pub events: u64,
    /// Threaded processes still blocked in `receive` at quiescence —
    /// usually a deadlock indicator for closed workloads.
    pub blocked: Vec<(ProcessId, String)>,
    /// Processes that terminated by panicking, with panic messages.
    pub panics: Vec<(ProcessId, String)>,
    /// Message statistics for the whole run so far.
    pub stats: MessageStats,
    /// True if the run stopped because it hit the configured event limit.
    pub hit_event_limit: bool,
    /// Scheduler → process resumes so far: the turns threaded processes
    /// took, on the simulator or on every shard of a
    /// [`ThreadedRuntime`](crate::ThreadedRuntime).
    pub turns: u64,
}

impl RunReport {
    /// True if the run ended cleanly: no panics and no event-limit stop.
    pub fn is_clean(&self) -> bool {
        self.panics.is_empty() && !self.hit_event_limit
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_query() {
        let mut s = MessageStats::new();
        s.record("Guess", PartyKind::User, PartyKind::Aid);
        s.record("Guess", PartyKind::User, PartyKind::Aid);
        s.record("Replace", PartyKind::Aid, PartyKind::User);
        s.record("User", PartyKind::User, PartyKind::User);
        assert_eq!(s.count("Guess", PartyKind::User, PartyKind::Aid), 2);
        assert_eq!(s.count("Guess", PartyKind::Aid, PartyKind::User), 0);
        assert_eq!(s.count_kind("Replace"), 1);
        assert_eq!(s.total(), 4);
        assert_eq!(s.total_hope(), 3);
    }

    #[test]
    fn dropped_counter() {
        let mut s = MessageStats::new();
        assert_eq!(s.dropped(), 0);
        s.record_dropped();
        assert_eq!(s.dropped(), 1);
    }

    #[test]
    fn display_contains_rows() {
        let mut s = MessageStats::new();
        s.record("Deny", PartyKind::User, PartyKind::Aid);
        let text = s.to_string();
        assert!(text.contains("Deny"));
        assert!(text.contains("AID"));
    }

    #[test]
    fn link_counters_render_only_when_used() {
        let mut s = MessageStats::new();
        assert!(!s.to_string().contains("link:"));
        s.link_mut().retransmits += 2;
        s.link_mut().acks += 5;
        let text = s.to_string();
        assert!(text.contains("retransmits=2"));
        assert!(text.contains("acks=5"));
        assert!(text.contains("srtt_nanos=0"));
        assert_eq!(s.link().retransmits, 2);
        // Table 1 accounting is unaffected by link-layer traffic.
        assert_eq!(s.total(), 0);
    }

    #[test]
    fn net_counters_merge_additively_and_render() {
        let mut a = LinkStats {
            parked: 3,
            reconnects: 1,
            link_down_events: 2,
            node_unreachable: 4,
            handshake_rejected: 1,
            ..LinkStats::default()
        };
        let b = LinkStats {
            parked: 5,
            reconnects: 2,
            link_down_events: 1,
            node_unreachable: 0,
            handshake_rejected: 2,
            ..LinkStats::default()
        };
        a.merge(&b);
        assert_eq!(a.parked, 8);
        assert_eq!(a.reconnects, 3);
        assert_eq!(a.link_down_events, 3);
        assert_eq!(a.node_unreachable, 4);
        assert_eq!(a.handshake_rejected, 3);
        let text = a.to_string();
        assert!(text.contains("parked=8"));
        assert!(text.contains("reconnects=3"));
        assert!(text.contains("link_down=3"));
        assert!(text.contains("unreachable=4"));
        assert!(text.contains("handshake_rejected=3"));
    }

    #[test]
    fn iter_is_deterministic() {
        let mut s = MessageStats::new();
        s.record("Rollback", PartyKind::Aid, PartyKind::User);
        s.record("Affirm", PartyKind::User, PartyKind::Aid);
        let kinds: Vec<_> = s.iter().map(|(k, _, _, _)| k).collect();
        // BTreeMap ordering: alphabetical by kind.
        assert_eq!(kinds, vec!["Affirm", "Rollback"]);
    }
}
