//! The link pipeline: everything that happens to an envelope between a
//! process's `send` and the destination's mailbox, written once as a
//! sans-IO state machine.
//!
//! Five inputs drive it — [`Link::send`], [`Link::arrive`],
//! [`Link::timer`], [`Link::ack_due`] and a crash, which is
//! [`ReliableState::on_crash`] itself — and every step *reports* what to
//! schedule next, as [`LinkWork`] items at delays relative to the `now`
//! it was given, appended to the driver's [`Outbound`]. The module owns
//! no clock, queue, thread or lock and allocates nothing of its own. [`SimRuntime`](crate::SimRuntime),
//! [`ThreadedRuntime`](crate::ThreadedRuntime) and the socket transport's
//! [`PeerMachine`](crate::PeerMachine) are its three drivers: each
//! lends it a clock reading and the state it borrows for one step (the
//! reliable sublayer's record for the step's link, a statistics sink,
//! latency and fault models, the tracer), turns the returned delays into
//! pushes on its own queue, and keeps what is genuinely its own — process
//! slots, mailboxes, crash windows, shards; connections, backoff,
//! heartbeats.
//! A step touches one link's reliable state, so the driver looks that
//! [`LinkRecord`] up once and no sublayer call in here names a link.
//!
//! The sublayer's cost is per link, not per message: a link has at most
//! one retransmit timer and one delayed-ack timer queued at its driver,
//! and an ack is cumulative, so in-order arrivals share one.
//!
//! The simulator defines the behaviour: `hope-check` state counts and
//! trace bytes per seed depend on the order of random draws (a
//! fault-injected duplicate's latency is sampled before the original's)
//! and on the order work is returned in (retransmit timer, duplicate,
//! original — event tie-breakers follow it).

use hope_types::{
    full_set_wire_len, Envelope, Payload, ProcessId, TraceCollector, TraceEventKind,
    VirtualDuration, VirtualTime,
};

use crate::fault::{FaultModel, WireFate};
use crate::net::LatencyModel;
use crate::reliable::{AckPlan, CopyKind, LinkId, LinkRecord, Overdue};
use crate::stats::{MessageStats, PartyKind};

/// A link-layer work item a driver queues until it comes due.
#[derive(Debug)]
pub(crate) enum LinkWork {
    /// A message arrives at its destination: feed it to [`Link::arrive`].
    /// `copy` records how this particular on-the-wire copy came to exist
    /// (original transmission, fault-injected duplicate, or sublayer
    /// retransmission) so dedup suppressions can be attributed; it is
    /// accounting metadata only and deliberately excluded from scheduling
    /// descriptions and content hashes — two copies of one message stay
    /// interchangeable to the model checker.
    Deliver { env: Envelope, copy: CopyKind },
    /// The retransmission timer of `link` fires: feed it to
    /// [`Link::timer`]. A link has at most one queued.
    Retransmit { link: LinkId },
    /// The delayed-ack timer of `link` (the data link: the ack travels
    /// the other way) fires: feed it to [`Link::ack_due`]. A link has at
    /// most one queued.
    AckDue { link: LinkId },
}

/// What one pipeline step asks its driver to schedule, as delays from
/// the step's `now`, in push order. A send or an arrival adds at most
/// three items (timer, fault-injected duplicate, the copy itself); a
/// fired retransmit timer adds the copies of everything overdue. The
/// driver owns the buffer and hands it over empty, so a step allocates
/// nothing once it has grown.
pub(crate) type Outbound = Vec<(VirtualDuration, LinkWork)>;

/// Where a step counts. The simulator lends its `MessageStats` directly;
/// the threaded runtime lends a handle that takes the lane's stats lock
/// on first use, so a step locks at most once and a step that counts
/// nothing (a send with the sublayer off on a clean wire) takes no lock.
pub(crate) trait StatsSink {
    fn stats(&mut self) -> &mut MessageStats;
}

impl StatsSink for MessageStats {
    fn stats(&mut self) -> &mut MessageStats {
        self
    }
}

/// The link whose record an arriving envelope touches: acks retire
/// entries of the reverse (data) link.
pub(crate) fn state_link(env: &Envelope) -> LinkId {
    match env.payload {
        Payload::Ack { .. } => (env.dst, env.src),
        _ => (env.src, env.dst),
    }
}

/// Everything a driver lends the pipeline for one step.
pub(crate) struct Link<'a> {
    /// The driver's clock reading for this step.
    pub now: VirtualTime,
    /// The reliable sublayer's record for the step's link — `(src, dst)`
    /// for a send, [`state_link`] for an arrival, a timer's own link;
    /// `None` when the sublayer is off.
    pub rel: Option<&'a mut LinkRecord>,
    pub stats: &'a mut dyn StatsSink,
    pub latency: &'a mut dyn LatencyModel,
    /// `None` on a fault-free wire.
    pub fault: Option<&'a mut FaultModel>,
    pub tracer: &'a TraceCollector,
}

impl Link<'_> {
    /// A process hands `payload` to the link layer.
    pub fn send(&mut self, src: ProcessId, dst: ProcessId, payload: Payload, out: &mut Outbound) {
        let mut env = Envelope {
            src,
            dst,
            sent_at: self.now,
            seq: 0,
            payload,
        };
        // Acks stay unsequenced (no ack-of-ack regress), unbuffered (a
        // lost ack is recovered by the data retransmit it would have
        // suppressed) and untraced.
        if !matches!(env.payload, Payload::Ack { .. }) {
            if let Some(rel) = self.rel.as_deref_mut() {
                env.seq = rel.assign_seq();
                // A frame carries the tag in full (`Envelope::encode`):
                // counted, never coded here.
                if let Payload::User(m) = &env.payload {
                    let bytes = full_set_wire_len(&m.tag);
                    self.stats.stats().link_mut().record_full_tag(bytes);
                }
                rel.track(env.clone());
                // A send that finds the link's timer running adds nothing
                // to the driver's queue; one that does not starts it at
                // the adapted RTO (the configured rto until samples
                // arrive).
                if rel.arm_timer() {
                    let rto = VirtualDuration::from_nanos(rel.rto_nanos());
                    out.push((rto, LinkWork::Retransmit { link: (src, dst) }));
                }
            }
            self.tracer
                .record(src, self.now, TraceEventKind::Send { dst, seq: env.seq });
        }
        self.wire(env, CopyKind::Original, out);
    }

    /// Puts one envelope on the wire: consults the fault model, then
    /// samples latency for the copy (and possibly a duplicate). `copy`
    /// records this transmission's provenance; a fault-injected extra
    /// copy is always tagged [`CopyKind::WireDup`].
    fn wire(&mut self, env: Envelope, copy: CopyKind, out: &mut Outbound) {
        let fate = match self.fault.as_deref_mut() {
            Some(model) => model.wire_fate(),
            None => WireFate::CLEAN,
        };
        if !fate.deliver {
            self.stats.stats().link_mut().fault_dropped += 1;
            return;
        }
        if fate.duplicate {
            let extra = self.latency.sample(env.src, env.dst, self.now);
            self.stats.stats().link_mut().duplicated += 1;
            let dup = LinkWork::Deliver {
                env: env.clone(),
                copy: CopyKind::WireDup,
            };
            out.push((extra, dup));
        }
        let latency = self.latency.sample(env.src, env.dst, self.now);
        out.push((latency, LinkWork::Deliver { env, copy }));
    }

    /// A due [`LinkWork::Deliver`]. `down` says the destination is inside
    /// a crash window; `route` carries the Table 1 party kinds of source
    /// and destination, `None` when the destination was never spawned.
    /// Puts the ack (or the delayed-ack timer) to schedule, if any, in
    /// `out` and returns whether the envelope is to be handed to the
    /// destination process (`false`: the link layer consumed it).
    pub fn arrive(
        &mut self,
        env: &Envelope,
        copy: CopyKind,
        down: bool,
        route: Option<(PartyKind, PartyKind)>,
        out: &mut Outbound,
    ) -> bool {
        // A crashed destination's wire is dead: nothing arrives, nothing
        // is acked (the sender's retransmits carry the message past the
        // down window).
        if down {
            self.stats.stats().link_mut().crash_dropped += 1;
            return false;
        }
        // Link-layer ack: retire the sender's retransmit buffer up to it
        // and stop — acks never reach a process.
        if let Payload::Ack { seq } = env.payload {
            self.stats.stats().link_mut().acks += 1;
            if let Some(rel) = self.rel.as_deref_mut() {
                let acked = rel.acknowledge_at(seq, self.now.as_nanos());
                if acked.rtt_sample_nanos.is_some() {
                    self.stats.stats().link_mut().rtt_samples += 1;
                }
            }
            return false;
        }
        // Reliable data envelope: deliver only the first copy, and
        // acknowledge as the record plans — at once for a duplicate (the
        // ack that covered it was probably lost) or an arrival past a
        // gap, otherwise with its in-order neighbours. This runs before
        // the destination lookup: an envelope for a process that never
        // existed is still acknowledged, so its sender stops
        // retransmitting instead of running to the cap.
        if let Some(rel) = self.rel.as_deref_mut().filter(|_| env.seq > 0) {
            let first = rel.accept(env.seq);
            let (plan, delay) = (rel.ack_plan(env.seq, first), rel.ack_delay_nanos());
            let link = (env.src, env.dst);
            match plan {
                AckPlan::Now => self.ack(link, out),
                AckPlan::Arm => {
                    let delay = VirtualDuration::from_nanos(delay);
                    out.push((delay, LinkWork::AckDue { link }));
                }
                AckPlan::Wait => {}
            }
            if !first {
                self.stats.stats().link_mut().record_dedup(copy);
                return false;
            }
        }
        let stats = self.stats.stats();
        let Some((from, to)) = route else {
            stats.link_mut().unroutable += 1;
            stats.record_dropped();
            return false;
        };
        let kind = crate::sched::payload_kind(&env.payload);
        stats.record(kind, from, to);
        self.tracer.record(
            env.dst,
            self.now,
            TraceEventKind::Deliver {
                src: env.src,
                seq: env.seq,
                kind,
            },
        );
        true
    }

    /// Sends the cumulative ack of data link `link` back to its sender.
    fn ack(&mut self, link: LinkId, out: &mut Outbound) {
        let rel = self.rel.as_deref_mut().expect("acks need the sublayer");
        let seq = rel.take_ack();
        self.send(link.1, link.0, Payload::Ack { seq }, out);
    }

    /// A due [`LinkWork::AckDue`]: acknowledges what arrived on `link`
    /// since the last ack, if anything did.
    pub fn ack_due(&mut self, link: LinkId, out: &mut Outbound) {
        if self.rel.as_deref_mut().is_some_and(LinkRecord::ack_due) {
            self.ack(link, out);
        }
    }

    /// A due [`LinkWork::Retransmit`]: resends every envelope of `link`
    /// that is past its deadline, oldest first, abandoning those already
    /// resent `max_retransmits` times, and starts the timer again for the
    /// earliest deadline left — or not at all, with nothing unacked.
    pub fn timer(&mut self, link: LinkId, max_retransmits: u32, out: &mut Outbound) {
        self.resend(link, max_retransmits, false, out);
    }

    /// The wire `link`'s copies were on is gone (a connection died and
    /// its successor is up): every unacknowledged envelope goes out
    /// again, oldest first, and the timer starts over.
    pub fn rewire(&mut self, link: LinkId, out: &mut Outbound) {
        self.resend(link, u32::MAX, true, out);
    }

    fn resend(&mut self, link: LinkId, max_retransmits: u32, everything: bool, out: &mut Outbound) {
        // The record is lent back once the copies are on the wire.
        let Some(rel) = self.rel.take() else {
            return;
        };
        let now = self.now;
        let next = rel.retransmit_due(now.as_nanos(), max_retransmits, everything, |due| {
            let link_stats = self.stats.stats().link_mut();
            match due {
                Overdue::Abandoned => link_stats.abandoned += 1,
                Overdue::Resend { env, attempt } => {
                    link_stats.retransmits += 1;
                    link_stats.max_retransmit_attempt =
                        link_stats.max_retransmit_attempt.max(u64::from(attempt));
                    let (dst, seq) = (link.1, env.seq);
                    self.tracer
                        .record(link.0, now, TraceEventKind::Retransmit { dst, seq });
                    self.wire(env.clone(), CopyKind::Retransmit, out);
                }
            }
        });
        self.rel = Some(rel);
        if let Some(delay) = next {
            let delay = VirtualDuration::from_nanos(delay);
            out.push((delay, LinkWork::Retransmit { link }));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use crate::reliable::{ReliableState, ACK_EVERY};
    use crate::stats::LinkStats;
    use hope_types::{AidId, DepTag, HopeMessage, UserMessage};

    const RTO_US: u64 = 5_000;
    /// The delayed-ack timer: a quarter of the estimator's floor, itself
    /// an eighth of the initial RTO.
    const ACK_DELAY_US: u64 = RTO_US / 8 / 4;

    fn p(n: u64) -> ProcessId {
        ProcessId::from_raw(n)
    }

    fn us(n: u64) -> VirtualTime {
        VirtualTime::from_nanos(n * 1_000)
    }

    fn tag(aids: &[u64]) -> DepTag {
        aids.iter().map(|&a| AidId::from_raw(p(a))).collect()
    }

    fn user(aids: &[u64]) -> Payload {
        Payload::User(UserMessage::tagged(0, bytes::Bytes::new(), tag(aids)))
    }

    /// Latency script: the n-th sample is n microseconds, so the order of
    /// draws is visible in the returned delays.
    struct Ramp(u64);

    impl LatencyModel for Ramp {
        fn sample(&mut self, _: ProcessId, _: ProcessId, _: VirtualTime) -> VirtualDuration {
            self.0 += 1;
            VirtualDuration::from_micros(self.0)
        }
    }

    /// The state a driver would lend, owned by the test.
    struct Rig {
        rel: Option<ReliableState>,
        stats: MessageStats,
        latency: Ramp,
        fault: Option<FaultModel>,
        tracer: TraceCollector,
    }

    const LINK: LinkId = (ProcessId::from_raw(1), ProcessId::from_raw(2));

    impl Rig {
        fn new(reliable: bool, plan: Option<FaultPlan>) -> Rig {
            let tracer = TraceCollector::new();
            tracer.enable(64);
            Rig {
                rel: reliable.then(|| ReliableState::with_rto(RTO_US * 1_000)),
                stats: MessageStats::new(),
                latency: Ramp(0),
                fault: plan.map(|plan| plan.into_model(7)),
                tracer,
            }
        }

        fn send(
            &mut self,
            now_us: u64,
            src: ProcessId,
            dst: ProcessId,
            payload: Payload,
        ) -> Outbound {
            let mut out = Outbound::new();
            self.at(now_us, (src, dst))
                .send(src, dst, payload, &mut out);
            out
        }

        fn arrive(
            &mut self,
            now_us: u64,
            env: &Envelope,
            copy: CopyKind,
            down: bool,
            route: Option<(PartyKind, PartyKind)>,
        ) -> (Outbound, bool) {
            let mut out = Outbound::new();
            let deliver = self
                .at(now_us, state_link(env))
                .arrive(env, copy, down, route, &mut out);
            (out, deliver)
        }

        /// The retransmit timer of 1->2 fires.
        fn timer(&mut self, now_us: u64, cap: u32) -> Outbound {
            let mut out = Outbound::new();
            self.at(now_us, LINK).timer(LINK, cap, &mut out);
            out
        }

        /// The delayed-ack timer of 1->2 fires.
        fn ack_due(&mut self, now_us: u64) -> Outbound {
            let mut out = Outbound::new();
            self.at(now_us, LINK).ack_due(LINK, &mut out);
            out
        }

        /// What a driver does per step: one clock reading, one record.
        fn at(&mut self, now_us: u64, link: LinkId) -> Link<'_> {
            Link {
                now: us(now_us),
                rel: self.rel.as_mut().map(|rel| rel.link_mut(link)),
                stats: &mut self.stats,
                latency: &mut self.latency,
                fault: self.fault.as_mut(),
                tracer: &self.tracer,
            }
        }

        /// The link counters since the last call.
        fn delta(&mut self) -> LinkStats {
            std::mem::take(self.stats.link_mut())
        }

        fn traced(&self) -> Vec<TraceEventKind> {
            self.tracer.drain().into_iter().map(|e| e.kind).collect()
        }

        fn rel(&mut self) -> &mut ReliableState {
            self.rel.as_mut().expect("sublayer on")
        }

        /// Sends `n` untagged messages 1->2 at `now_us` and returns their
        /// wire copies.
        fn burst(&mut self, now_us: u64, n: usize) -> Vec<Envelope> {
            let sent = (0..n).map(|_| wire_copy(self.send(now_us, p(1), p(2), user(&[]))).0);
            sent.collect()
        }
    }

    /// One line per returned work item: what, for whom, after how long.
    fn shape(out: &Outbound) -> Vec<String> {
        out.iter()
            .map(|(delay, work)| {
                let after = delay.as_nanos() / 1_000;
                match work {
                    LinkWork::Retransmit { link } => {
                        format!("timer {}->{} +{after}us", link.0.as_raw(), link.1.as_raw())
                    }
                    LinkWork::AckDue { link } => {
                        format!(
                            "ack-due {}->{} +{after}us",
                            link.0.as_raw(),
                            link.1.as_raw()
                        )
                    }
                    LinkWork::Deliver { env, copy } => {
                        let what = match env.payload {
                            Payload::Ack { seq } => format!("ack={seq}"),
                            _ => format!("seq={}", env.seq),
                        };
                        format!(
                            "deliver {}->{} {what} {copy:?} +{after}us",
                            env.src.as_raw(),
                            env.dst.as_raw()
                        )
                    }
                }
            })
            .collect()
    }

    /// The envelope of the last `Deliver` a step returned (the copy
    /// itself, after any duplicate).
    fn wire_copy(out: Outbound) -> (Envelope, CopyKind) {
        out.into_iter()
            .filter_map(|(_, work)| match work {
                LinkWork::Deliver { env, copy } => Some((env, copy)),
                LinkWork::Retransmit { .. } | LinkWork::AckDue { .. } => None,
            })
            .last()
            .expect("step put a copy on the wire")
    }

    const USERS: Option<(PartyKind, PartyKind)> = Some((PartyKind::User, PartyKind::User));

    #[test]
    fn first_send_arms_the_link_timer_then_duplicate_then_original() {
        let one_full_tag = LinkStats {
            tag_bytes_wire: 12,
            tags_full: 1,
            ..LinkStats::default()
        };
        struct Case {
            name: &'static str,
            reliable: bool,
            plan: Option<FaultPlan>,
            payload: Payload,
            out: &'static [&'static str],
            delta: LinkStats,
            traced: bool,
        }
        let cases = [
            Case {
                name: "sublayer off, clean wire: one latency sample, nothing counted",
                reliable: false,
                plan: None,
                payload: user(&[9]),
                out: &["deliver 1->2 seq=0 Original +1us"],
                delta: LinkStats::default(),
                traced: true,
            },
            Case {
                name: "sublayer on: sequenced, tag counted, link timer at the rto",
                reliable: true,
                plan: None,
                payload: user(&[9]),
                out: &["timer 1->2 +5000us", "deliver 1->2 seq=1 Original +1us"],
                delta: one_full_tag,
                traced: true,
            },
            Case {
                name: "protocol messages are sequenced but carry no tag",
                reliable: true,
                plan: None,
                payload: Payload::Hope(HopeMessage::Retain),
                out: &["timer 1->2 +5000us", "deliver 1->2 seq=1 Original +1us"],
                delta: LinkStats::default(),
                traced: true,
            },
            Case {
                name: "fault drop: the timer is all that is left",
                reliable: true,
                plan: Some(FaultPlan::new().drop_rate(1.0)),
                payload: user(&[9]),
                out: &["timer 1->2 +5000us"],
                delta: LinkStats {
                    fault_dropped: 1,
                    ..one_full_tag
                },
                traced: true,
            },
            Case {
                name: "fault duplicate: its latency is drawn before the original's",
                reliable: true,
                plan: Some(FaultPlan::new().duplicate_rate(1.0)),
                payload: user(&[9]),
                out: &[
                    "timer 1->2 +5000us",
                    "deliver 1->2 seq=1 WireDup +1us",
                    "deliver 1->2 seq=1 Original +2us",
                ],
                delta: LinkStats {
                    duplicated: 1,
                    ..one_full_tag
                },
                traced: true,
            },
            Case {
                name: "acks are unsequenced, unbuffered, untimed and untraced",
                reliable: true,
                plan: None,
                payload: Payload::Ack { seq: 4 },
                out: &["deliver 1->2 ack=4 Original +1us"],
                delta: LinkStats::default(),
                traced: false,
            },
        ];
        for case in cases {
            let mut rig = Rig::new(case.reliable, case.plan);
            let out = rig.send(10, p(1), p(2), case.payload);
            assert_eq!(shape(&out), case.out, "{}", case.name);
            assert_eq!(rig.delta(), case.delta, "{}", case.name);
            let seq = u64::from(case.reliable && case.traced);
            let expect = case
                .traced
                .then_some(TraceEventKind::Send { dst: p(2), seq });
            assert_eq!(rig.traced(), Vec::from_iter(expect), "{}", case.name);
            let buffered = rig.rel.as_ref().map_or(0, ReliableState::in_flight);
            assert_eq!(buffered as u64, seq, "{}", case.name);
        }
    }

    #[test]
    fn a_send_that_finds_the_timer_running_returns_none() {
        let mut rig = Rig::new(true, None);
        let first = rig.send(0, p(1), p(2), user(&[]));
        assert_eq!(shape(&first).len(), 2, "timer + copy");
        for seq in 2..=4 {
            let out = rig.send(seq, p(1), p(2), user(&[]));
            let copy = format!("deliver 1->2 seq={seq} Original +{seq}us");
            assert_eq!(shape(&out), [copy], "the link's one timer is running");
        }
        // The reverse link is another link, with a timer of its own.
        let back = rig.send(5, p(2), p(1), user(&[]));
        assert_eq!(shape(&back)[0], "timer 2->1 +5000us");
    }

    #[test]
    fn in_order_arrivals_share_an_ack() {
        let mut rig = Rig::new(true, None);
        let n = ACK_EVERY as usize;
        let burst = rig.burst(0, 2 * n + 1);
        let route = Some((PartyKind::User, PartyKind::Aid));
        rig.delta();
        rig.traced();
        for (i, env) in burst.iter().enumerate() {
            let (out, delivered) = rig.arrive(10, env, CopyKind::Original, false, route);
            assert!(delivered, "seq {}", env.seq);
            let expect = match i {
                // The first arrival owed an ack starts the link's one
                // delayed-ack timer; the rest ride on it ...
                0 => vec![format!("ack-due 1->2 +{ACK_DELAY_US}us")],
                // ... until ACK_EVERY of them are owed: one ack for all.
                i if (i + 1) % n == 0 => {
                    let sample = 2 * n + 1 + (i + 1) / n;
                    vec![format!("deliver 2->1 ack={} Original +{sample}us", i + 1)]
                }
                _ => vec![],
            };
            assert_eq!(shape(&out), expect, "arrival {}", i + 1);
        }
        assert_eq!(rig.delta(), LinkStats::default(), "nothing the link counts");
        let delivered = rig.stats.count("User", PartyKind::User, PartyKind::Aid);
        assert_eq!(delivered, 2 * n as u64 + 1);
        assert_eq!(rig.traced().len(), 2 * n + 1, "one Deliver each");
        // The timer finds the last arrival still owed one.
        let out = rig.ack_due(10 + ACK_DELAY_US);
        assert_eq!(shape(&out).len(), 1);
        let (ack, _) = wire_copy(out);
        assert_eq!(
            ack.payload,
            Payload::Ack {
                seq: 2 * n as u64 + 1
            }
        );
        // The next owed arrival starts the timer again.
        let next = rig.burst(20, 1);
        let (out, _) = rig.arrive(30, &next[0], CopyKind::Original, false, route);
        assert_eq!(shape(&out), [format!("ack-due 1->2 +{ACK_DELAY_US}us")]);
    }

    #[test]
    fn ack_due_with_nothing_owed_is_silent() {
        let mut rig = Rig::new(true, None);
        let n = ACK_EVERY as usize;
        let burst = rig.burst(0, n);
        for env in &burst {
            rig.arrive(10, env, CopyKind::Original, false, USERS);
        }
        // The n-th arrival took everything owed with it; the timer the
        // first one started outlives that ack.
        rig.delta();
        assert_eq!(shape(&rig.ack_due(10 + ACK_DELAY_US)).len(), 0);
        assert_eq!(rig.delta(), LinkStats::default());
        let mut off = Rig::new(false, None);
        assert_eq!(shape(&off.ack_due(0)).len(), 0);
    }

    #[test]
    fn an_ack_retires_everything_up_to_it_and_samples_the_newest_fresh_entry() {
        let mut rig = Rig::new(true, None);
        // Seqs 1..=3 at 0/100/200 us; the timer resends seq 1 only.
        for at in [0, 100, 200] {
            rig.send(at, p(1), p(2), user(&[]));
        }
        assert_eq!(shape(&rig.timer(RTO_US + 50, 8)).len(), 2, "copy + timer");
        rig.delta();
        let ack = |seq| Envelope {
            src: p(2),
            dst: p(1),
            sent_at: us(0),
            seq: 0,
            payload: Payload::Ack { seq },
        };
        // Karn's rule: seq 1 was resent, so its ack is ambiguous.
        let (out, delivered) = rig.arrive(6_000, &ack(1), CopyKind::Original, false, USERS);
        assert_eq!((shape(&out).len(), delivered), (0, false), "acks stop here");
        let one_ack = LinkStats {
            acks: 1,
            ..LinkStats::default()
        };
        assert_eq!(rig.delta(), one_ack);
        assert_eq!(rig.rel().in_flight(), 2);
        // One ack for 2 and 3: both go, the newer one is the sample.
        rig.arrive(6_500, &ack(3), CopyKind::Original, false, USERS);
        let sampled = LinkStats {
            rtt_samples: 1,
            ..one_ack
        };
        assert_eq!(rig.delta(), sampled);
        assert_eq!(rig.rel().in_flight(), 0);
        assert_eq!(rig.rel().mean_srtt_nanos(), 6_300_000, "6500 - 200 us");
        // An ack that says nothing new is counted and changes nothing.
        rig.arrive(6_600, &ack(2), CopyKind::WireDup, false, USERS);
        assert_eq!(rig.delta(), one_ack);
    }

    #[test]
    fn duplicate_arrival_is_acked_at_once_and_attributed_to_its_copy() {
        for (copy, delta) in [
            (
                CopyKind::Original,
                LinkStats {
                    dedup_dropped: 1,
                    dedup_overtaken: 1,
                    ..LinkStats::default()
                },
            ),
            (
                CopyKind::WireDup,
                LinkStats {
                    dedup_dropped: 1,
                    dedup_dup_faults: 1,
                    ..LinkStats::default()
                },
            ),
            (
                CopyKind::Retransmit,
                LinkStats {
                    dedup_dropped: 1,
                    dedup_retransmits: 1,
                    ..LinkStats::default()
                },
            ),
        ] {
            let mut rig = Rig::new(true, None);
            let (env, first) = wire_copy(rig.send(0, p(1), p(2), user(&[9])));
            assert!(rig.arrive(1, &env, first, false, USERS).1);
            rig.delta();
            rig.traced();
            let (out, delivered) = rig.arrive(2, &env, copy, false, USERS);
            assert_eq!(
                shape(&out),
                ["deliver 2->1 ack=1 Original +2us"],
                "{copy:?}"
            );
            assert!(!delivered, "{copy:?}");
            assert_eq!(rig.delta(), delta, "{copy:?}");
            assert_eq!(rig.traced(), [], "a suppressed copy is not a delivery");
            assert_eq!(rig.stats.total(), 1, "Table 1 counts the first copy only");
        }
    }

    #[test]
    fn an_arrival_past_a_gap_is_acked_at_once_with_what_is_contiguous() {
        let mut rig = Rig::new(true, None);
        let burst = rig.burst(0, 4);
        // 1 arrives, 2 is missing: 3 and 4 each tell the sender so.
        let (out, _) = rig.arrive(10, &burst[0], CopyKind::Original, false, USERS);
        assert_eq!(shape(&out), [format!("ack-due 1->2 +{ACK_DELAY_US}us")]);
        for (env, sample) in [(&burst[2], 5), (&burst[3], 6)] {
            let (out, delivered) = rig.arrive(11, env, CopyKind::Original, false, USERS);
            assert!(delivered, "delivered on arrival: the link does not reorder");
            let ack = format!("deliver 2->1 ack=1 Original +{sample}us");
            assert_eq!(shape(&out), [ack]);
        }
        // The gap fills: an in-order arrival again, owed with the rest.
        let (out, delivered) = rig.arrive(12, &burst[1], CopyKind::Retransmit, false, USERS);
        assert!(delivered);
        assert_eq!(shape(&out).len(), 0, "rides on the running timer");
        let (ack, _) = wire_copy(rig.ack_due(10 + ACK_DELAY_US));
        assert_eq!(ack.payload, Payload::Ack { seq: 4 });
    }

    #[test]
    fn arrivals_the_link_layer_consumes() {
        struct Case {
            name: &'static str,
            reliable: bool,
            down: bool,
            route: Option<(PartyKind, PartyKind)>,
            out: &'static [&'static str],
            delta: LinkStats,
            dropped: u64,
        }
        let cases = [
            Case {
                name: "destination down: nothing arrives, nothing is acked",
                reliable: true,
                down: true,
                route: USERS,
                out: &[],
                delta: LinkStats {
                    crash_dropped: 1,
                    ..LinkStats::default()
                },
                dropped: 0,
            },
            Case {
                name: "never-spawned destination, sublayer on: owed an ack, then unroutable",
                reliable: true,
                down: false,
                route: None,
                out: &["ack-due 1->2 +156us"],
                delta: LinkStats {
                    unroutable: 1,
                    ..LinkStats::default()
                },
                dropped: 1,
            },
            Case {
                name: "never-spawned destination, sublayer off",
                reliable: false,
                down: false,
                route: None,
                out: &[],
                delta: LinkStats {
                    unroutable: 1,
                    ..LinkStats::default()
                },
                dropped: 1,
            },
        ];
        for case in cases {
            let mut rig = Rig::new(case.reliable, None);
            let (env, copy) = wire_copy(rig.send(0, p(1), p(2), user(&[])));
            rig.delta();
            rig.traced();
            let (out, delivered) = rig.arrive(1, &env, copy, case.down, case.route);
            assert_eq!(shape(&out), case.out, "{}", case.name);
            assert!(!delivered, "{}", case.name);
            assert_eq!(rig.delta(), case.delta, "{}", case.name);
            assert_eq!(rig.stats.dropped(), case.dropped, "{}", case.name);
            assert_eq!(rig.stats.total(), 0, "{}", case.name);
            assert_eq!(rig.traced(), [], "{}", case.name);
        }
    }

    #[test]
    fn timer_resends_what_is_overdue_oldest_first_and_rearms_at_the_earliest_deadline() {
        let mut rig = Rig::new(true, None);
        // Seqs 1..=3 sent 1 ms apart; the timer runs from the first.
        for at in [0, 1_000, 2_000] {
            rig.send(at, p(1), p(2), user(&[]));
        }
        rig.delta();
        rig.traced();
        // At 6.2 ms seqs 1 and 2 are past the 5 ms rto, seq 3 is not: it
        // is the earliest deadline left (7 ms), ahead of the resent two
        // (6.2 + 10 ms).
        let out = rig.timer(6_200, 8);
        assert_eq!(
            shape(&out),
            [
                "deliver 1->2 seq=1 Retransmit +4us",
                "deliver 1->2 seq=2 Retransmit +5us",
                "timer 1->2 +800us",
            ]
        );
        let delta = LinkStats {
            retransmits: 2,
            max_retransmit_attempt: 1,
            ..LinkStats::default()
        };
        assert_eq!(rig.delta(), delta);
        let resent = |seq| TraceEventKind::Retransmit { dst: p(2), seq };
        assert_eq!(rig.traced(), [resent(1), resent(2)]);
        // A fire with nothing overdue only rearms.
        assert_eq!(shape(&rig.timer(6_500, 8)), ["timer 1->2 +500us"]);
        assert_eq!(rig.delta(), LinkStats::default());
    }

    #[test]
    fn timer_with_nothing_pending_disarms_and_the_next_send_arms_it_again() {
        let mut rig = Rig::new(true, None);
        let (env, copy) = wire_copy(rig.send(0, p(1), p(2), user(&[])));
        let (dup_ack, _) = {
            rig.arrive(1, &env, copy, false, USERS);
            wire_copy(rig.arrive(2, &env, CopyKind::WireDup, false, USERS).0)
        };
        rig.arrive(3, &dup_ack, CopyKind::Original, false, USERS);
        assert_eq!(rig.rel().in_flight(), 0);
        rig.delta();
        assert_eq!(shape(&rig.timer(RTO_US, 8)).len(), 0, "disarmed");
        assert_eq!(rig.delta(), LinkStats::default());
        let out = rig.send(RTO_US + 1, p(1), p(2), user(&[]));
        assert!(shape(&out)[0].starts_with("timer 1->2 +"), "armed again");
        // With the sublayer off a timer is silent.
        let mut off = Rig::new(false, None);
        assert_eq!(shape(&off.timer(0, 8)).len(), 0);
    }

    #[test]
    fn each_entry_backs_off_then_is_abandoned_at_the_cap() {
        const CAP: u32 = 3;
        let mut rig = Rig::new(true, None);
        let out = rig.send(0, p(1), p(2), user(&[]));
        let (delay, LinkWork::Retransmit { .. }) = &out[0] else {
            panic!("send arms the timer");
        };
        let mut now = delay.as_nanos() / 1_000;
        rig.delta();
        rig.traced();
        for attempt in 1..=CAP {
            let out = rig.timer(now, CAP);
            let resent = format!("deliver 1->2 seq=1 Retransmit +{}us", attempt + 1);
            let rearmed = format!("timer 1->2 +{}us", RTO_US << attempt);
            assert_eq!(shape(&out), [resent, rearmed]);
            let delta = LinkStats {
                retransmits: 1,
                max_retransmit_attempt: u64::from(attempt),
                ..LinkStats::default()
            };
            assert_eq!(rig.delta(), delta);
            let resent = TraceEventKind::Retransmit { dst: p(2), seq: 1 };
            assert_eq!(rig.traced(), [resent]);
            now += RTO_US << attempt;
        }
        // A second entry, sent late, is not dragged along by the first.
        rig.send(now - 1, p(1), p(2), user(&[]));
        rig.delta();
        let out = rig.timer(now, CAP);
        assert_eq!(shape(&out), [format!("timer 1->2 +{}us", RTO_US - 1)]);
        let abandoned = LinkStats {
            abandoned: 1,
            ..LinkStats::default()
        };
        assert_eq!(rig.delta(), abandoned);
        assert!(
            rig.rel().link_mut(LINK).unacked(1).is_none(),
            "buffer entry dropped"
        );
        assert!(rig.rel().link_mut(LINK).unacked(2).is_some());
        // The receiver half sees the abandoned seq as observed: seq 2
        // arrives in order, not past a gap that can never fill.
        let env = rig.rel().link_mut(LINK).unacked(2).cloned().expect("kept");
        let (out, delivered) = rig.arrive(now + 1, &env, CopyKind::Original, false, USERS);
        assert!(delivered);
        assert_eq!(shape(&out), [format!("ack-due 1->2 +{ACK_DELAY_US}us")]);
    }

    #[test]
    fn rewire_resends_everything_oldest_first_and_starts_the_timer_over() {
        let mut rig = Rig::new(true, None);
        for at in [0, 10, 20] {
            rig.send(at, p(1), p(2), user(&[]));
        }
        rig.delta();
        let mut out = Outbound::new();
        rig.at(30, LINK).rewire(LINK, &mut out);
        assert_eq!(
            shape(&out),
            [
                "deliver 1->2 seq=1 Retransmit +4us",
                "deliver 1->2 seq=2 Retransmit +5us",
                "deliver 1->2 seq=3 Retransmit +6us",
                "timer 1->2 +10000us",
            ]
        );
        assert_eq!(rig.delta().retransmits, 3);
        // Karn: none of them can be a sample any more.
        let ack = Envelope {
            src: p(2),
            dst: p(1),
            sent_at: us(0),
            seq: 0,
            payload: Payload::Ack { seq: 3 },
        };
        rig.arrive(40, &ack, CopyKind::Original, false, USERS);
        assert_eq!(rig.delta().rtt_samples, 0);
        assert_eq!(rig.rel().in_flight(), 0);
    }

    // -----------------------------------------------------------------
    // The pipeline alone under an arbitrary schedule.
    // -----------------------------------------------------------------

    /// What an adversarial driver may do between two steps. `pick`
    /// chooses among the work items it is holding.
    #[derive(Debug, Clone)]
    enum Chaos {
        /// Process `1 + from` sends to the other one.
        Send {
            from: usize,
        },
        /// Any held item fires next, due or not: copies overtake each
        /// other, timers run early (the clock jumps to them) or late.
        Fire {
            pick: usize,
        },
        /// A copy on the wire — data or ack — is lost.
        Drop {
            pick: usize,
        },
        /// A copy on the wire arrives twice.
        Duplicate {
            pick: usize,
        },
        Crash {
            pid: u64,
        },
    }

    fn chaos() -> impl proptest::Strategy<Value = Chaos> {
        use proptest::prelude::*;
        prop_oneof![
            5 => (0usize..2).prop_map(|from| Chaos::Send { from }),
            8 => any::<usize>().prop_map(|pick| Chaos::Fire { pick }),
            2 => any::<usize>().prop_map(|pick| Chaos::Drop { pick }),
            1 => any::<usize>().prop_map(|pick| Chaos::Duplicate { pick }),
            1 => (1u64..3).prop_map(|pid| Chaos::Crash { pid }),
        ]
    }

    /// Two processes, the two links between them, and the driver's queue.
    struct World {
        rig: Rig,
        /// Held work: `(due in ns, item)`.
        held: Vec<(u64, LinkWork)>,
        now_ns: u64,
        /// Sent by process `1 + i`.
        sent: [u64; 2],
        /// Sequence numbers handed to process `1 + i`, in arrival order.
        got: [Vec<u64>; 2],
        data_arrivals: u64,
        acks_sent: u64,
    }

    /// More than any schedule below can resend one envelope.
    const NEVER: u32 = 10_000;

    impl World {
        /// Runs one step at `now_ns` and takes what it returns.
        fn step(&mut self, link: LinkId, f: impl FnOnce(&mut Link<'_>, &mut Outbound)) {
            let mut out = Outbound::new();
            let mut lent = self.rig.at(0, link);
            lent.now = VirtualTime::from_nanos(self.now_ns);
            f(&mut lent, &mut out);
            for (delay, work) in out {
                let ack = matches!(&work, LinkWork::Deliver { env, .. }
                    if matches!(env.payload, Payload::Ack { .. }));
                self.acks_sent += u64::from(ack);
                self.held.push((self.now_ns + delay.as_nanos(), work));
            }
        }

        fn fire(&mut self, at: usize) {
            let (due, work) = self.held.swap_remove(at);
            self.now_ns = self.now_ns.max(due);
            match work {
                LinkWork::Retransmit { link } => {
                    self.step(link, |l, out| l.timer(link, NEVER, out))
                }
                LinkWork::AckDue { link } => self.step(link, |l, out| l.ack_due(link, out)),
                LinkWork::Deliver { env, copy } => {
                    let data = !matches!(env.payload, Payload::Ack { .. });
                    self.data_arrivals += u64::from(data);
                    let mut handed = false;
                    self.step(state_link(&env), |l, out| {
                        handed = l.arrive(&env, copy, false, USERS, out);
                    });
                    if handed {
                        self.got[env.dst.as_raw() as usize - 1].push(env.seq);
                    }
                }
            }
        }

        fn apply(&mut self, op: Chaos) {
            let on_wire = |held: &[(u64, LinkWork)], pick: usize| {
                let copies = held.iter().enumerate();
                let copies: Vec<usize> = copies
                    .filter(|(_, (_, work))| matches!(work, LinkWork::Deliver { .. }))
                    .map(|(at, _)| at)
                    .collect();
                (!copies.is_empty()).then(|| copies[pick % copies.len()])
            };
            match op {
                Chaos::Send { from } => {
                    let (src, dst) = (p(1 + from as u64), p(2 - from as u64));
                    self.sent[from] += 1;
                    self.now_ns += 1_000;
                    self.step((src, dst), |l, out| l.send(src, dst, user(&[]), out));
                }
                Chaos::Fire { pick } if !self.held.is_empty() => {
                    self.fire(pick % self.held.len());
                }
                Chaos::Drop { pick } => {
                    if let Some(at) = on_wire(&self.held, pick) {
                        self.held.swap_remove(at);
                    }
                }
                Chaos::Duplicate { pick } => {
                    if let Some(at) = on_wire(&self.held, pick) {
                        let (due, LinkWork::Deliver { env, .. }) = &self.held[at] else {
                            unreachable!("picked among the copies");
                        };
                        let dup = LinkWork::Deliver {
                            env: env.clone(),
                            copy: CopyKind::WireDup,
                        };
                        self.held.push((*due, dup));
                    }
                }
                Chaos::Crash { pid } => self.rig.rel().on_crash(p(pid)),
                Chaos::Fire { .. } => {}
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Whatever the wire and the driver's queue do — lose, duplicate
        /// and reorder copies, fire timers early or late, crash either
        /// end — once they behave, every message sent was handed over
        /// exactly once, both retransmit buffers are empty, nothing was
        /// given up, and no more acks went out than data copies came in.
        #[test]
        fn any_schedule_delivers_exactly_once_and_drains(
            ops in proptest::collection::vec(chaos(), 0..250),
        ) {
            let mut world = World {
                rig: Rig::new(true, None),
                held: Vec::new(),
                now_ns: 0,
                sent: [0; 2],
                got: [Vec::new(), Vec::new()],
                data_arrivals: 0,
                acks_sent: 0,
            };
            for op in ops {
                world.apply(op);
            }
            // Heal: everything held fires, earliest first, nothing is lost.
            for fired in 0.. {
                assert!(fired < 100_000, "did not settle");
                let earliest = (0..world.held.len()).min_by_key(|&at| world.held[at].0);
                let Some(at) = earliest else { break };
                world.fire(at);
            }
            for (from, to) in [(0, 1), (1, 0)] {
                let mut got = world.got[to].clone();
                got.sort_unstable();
                let want: Vec<u64> = (1..=world.sent[from]).collect();
                assert_eq!(got, want, "process {} -> {}", 1 + from, 1 + to);
            }
            assert_eq!(world.rig.rel().in_flight(), 0, "both buffers drain");
            assert_eq!(world.rig.stats.link().abandoned, 0);
            assert!(
                world.acks_sent <= world.data_arrivals,
                "{} acks for {} arrivals", world.acks_sent, world.data_arrivals
            );
        }
    }

    /// Sends one tagged message 1->2 at `now_us` and runs it through
    /// arrival and the arrival of a duplicate's (immediate) ack, so the
    /// link's estimator has a sample.
    fn round_trip(rig: &mut Rig, now_us: u64, aids: &[u64]) -> Envelope {
        let (data, copy) = wire_copy(rig.send(now_us, p(1), p(2), user(aids)));
        let (_, delivered) = rig.arrive(now_us + 1, &data, copy, false, USERS);
        assert!(delivered);
        let (out, _) = rig.arrive(now_us + 1, &data, CopyKind::WireDup, false, USERS);
        let (ack, copy) = wire_copy(out);
        rig.arrive(now_us + 2, &ack, copy, false, USERS);
        rig.delta();
        data
    }

    #[test]
    fn crash_forgets_rtt_state_but_not_dedup_windows() {
        let mut rig = Rig::new(true, None);
        let first = round_trip(&mut rig, 0, &[9]);
        assert_ne!(
            rig.rel().link_mut(LINK).rto_nanos(),
            RTO_US * 1_000,
            "rto adapted"
        );
        // The receiver crashes while the second message is in flight.
        let (second, copy) = wire_copy(rig.send(10, p(1), p(2), user(&[9])));
        rig.rel().on_crash(p(2));
        assert_eq!(
            rig.rel().link_mut(LINK).rto_nanos(),
            RTO_US * 1_000,
            "estimator forgotten"
        );
        let (_, delivered) = rig.arrive(20, &second, copy, false, USERS);
        assert!(delivered, "delivered after the restart");
        // A stale pre-crash copy is still suppressed: exactly-once
        // survives the crash.
        let (_, delivered) = rig.arrive(21, &first, CopyKind::Retransmit, false, USERS);
        assert!(!delivered);
        assert_eq!(rig.delta().dedup_retransmits, 1);
    }
}
