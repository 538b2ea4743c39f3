//! The link pipeline: everything that happens to an envelope between a
//! process's `send` and the destination's mailbox, written once as a
//! sans-IO state machine.
//!
//! Four inputs drive it — [`Link::send`], [`Link::arrive`],
//! [`Link::timer`] and a crash, which is
//! [`ReliableState::on_crash`] itself — and every step *reports* what to
//! schedule next, as [`LinkWork`] items at delays relative to the `now`
//! it was given, in a fixed-size [`Outbound`]. The module owns no clock,
//! queue, thread or lock and allocates nothing of its own. [`SimRuntime`](crate::SimRuntime),
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
use crate::reliable::{backoff_nanos, CopyKind, LinkId, LinkRecord, TagDecode};
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
    /// A reliable-delivery retransmission timer fires for `(link, seq)`:
    /// feed it to [`Link::timer`]. `attempt` counts prior
    /// retransmissions of that envelope.
    Retransmit {
        link: LinkId,
        seq: u64,
        attempt: u32,
    },
}

/// What one pipeline step asks its driver to schedule, as delays from
/// the step's `now`, in push order: retransmit timer, fault-injected
/// duplicate, the copy itself. Unused slots are `None`. The driver hands
/// each step an all-`None` value to fill in place — 360 bytes that the
/// per-message paths would otherwise copy several times per step.
pub(crate) type Outbound = [Option<(VirtualDuration, LinkWork)>; 3];

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

/// The link whose record an arriving envelope touches: acks retire an
/// entry of the reverse (data) link.
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
    /// for a send, [`state_link`] for an arrival, the timer's own link;
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
                // Piggybacked dependency tags travel delta-coded against
                // the last set acked on this link; the typed envelope still
                // carries the full tag in memory, so this is the wire-cost
                // model (accounted in LinkStats) plus an end-to-end check
                // at delivery, where the first copy takes the coding.
                let mut coding = None;
                if let Payload::User(m) = &env.payload {
                    let coding = coding.insert(rel.encode_tag(env.seq, &m.tag));
                    self.stats
                        .stats()
                        .link_mut()
                        .record_tag(full_set_wire_len(&m.tag), coding);
                }
                rel.track(env.clone(), coding);
                // The first timer uses the link's adapted RTO (the
                // configured rto until samples arrive).
                out[0] = Some((
                    VirtualDuration::from_nanos(rel.rto_nanos()),
                    LinkWork::Retransmit {
                        link: (src, dst),
                        seq: env.seq,
                        attempt: 0,
                    },
                ));
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
            out[1] = Some((extra, dup));
        }
        let latency = self.latency.sample(env.src, env.dst, self.now);
        out[2] = Some((latency, LinkWork::Deliver { env, copy }));
    }

    /// A due [`LinkWork::Deliver`]. `down` says the destination is inside
    /// a crash window; `route` carries the Table 1 party kinds of source
    /// and destination, `None` when the destination was never spawned.
    /// Puts the ack to schedule, if any, in `out` and returns whether the
    /// envelope is to be handed to the destination process (`false`: the
    /// link layer consumed it).
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
        // Link-layer ack: retire the sender's retransmit buffer entry and
        // stop — acks never reach a process.
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
        // Reliable data envelope: ack every arrival (a duplicate usually
        // means the first ack was lost), deliver only the first. This
        // runs before the destination lookup: an envelope for a process
        // that never existed is still acked once, so its sender stops
        // retransmitting instead of running to the cap.
        if env.seq > 0 && self.rel.is_some() {
            self.send(env.dst, env.src, Payload::Ack { seq: env.seq }, out);
            let rel = self.rel.as_deref_mut().expect("checked above");
            if !rel.accept(env.seq) {
                self.stats.stats().link_mut().record_dedup(copy);
                return false;
            }
            // Reconstruct the delta-coded dependency tag and check it
            // against the typed tag the in-memory envelope carries. The
            // typed tag is authoritative either way; a mismatch means the
            // link's codec pair diverged, so it is counted, traced, and
            // the codec is reset to `Full` rather than trusted further.
            if let Payload::User(m) = &env.payload {
                match rel.decode_tag(env.seq) {
                    TagDecode::Decoded(tag) if tag != m.tag => {
                        rel.force_tag_resync();
                        self.stats.stats().link_mut().tag_decode_mismatch += 1;
                        self.tracer.record(
                            env.dst,
                            self.now,
                            TraceEventKind::TagDecodeMismatch {
                                src: env.src,
                                seq: env.seq,
                            },
                        );
                    }
                    // The delta's base was lost to a receiver crash; the
                    // link self-heals via `Full` codings.
                    TagDecode::LostBase => self.stats.stats().link_mut().tag_resyncs += 1,
                    TagDecode::Decoded(_) | TagDecode::Uncoded => {}
                }
            }
        }
        let stats = self.stats.stats();
        let Some((from, to)) = route else {
            stats.link_mut().unroutable += 1;
            stats.record_dropped();
            return false;
        };
        stats.record(crate::sched::payload_kind(&env.payload), from, to);
        self.tracer.record(
            env.dst,
            self.now,
            TraceEventKind::Deliver {
                src: env.src,
                seq: env.seq,
            },
        );
        true
    }

    /// A due [`LinkWork::Retransmit`]: resend if still unacked and rearm
    /// with doubled delay, abandon at `max_retransmits`.
    pub fn timer(
        &mut self,
        link: LinkId,
        seq: u64,
        attempt: u32,
        max_retransmits: u32,
        out: &mut Outbound,
    ) {
        let Some(rel) = self.rel.as_deref_mut() else {
            return;
        };
        let Some(env) = rel.unacked(seq) else {
            return; // acked in the meantime: timer expires silently
        };
        if attempt >= max_retransmits {
            rel.abandon(seq);
            self.stats.stats().link_mut().abandoned += 1;
            return;
        }
        let env = env.clone();
        let next = attempt + 1;
        let rto = rel.rto_nanos();
        rel.mark_retransmitted(seq);
        let link_stats = self.stats.stats().link_mut();
        link_stats.retransmits += 1;
        link_stats.max_retransmit_attempt = link_stats.max_retransmit_attempt.max(next as u64);
        self.tracer.record(
            link.0,
            self.now,
            TraceEventKind::Retransmit { dst: link.1, seq },
        );
        out[0] = Some((
            VirtualDuration::from_nanos(backoff_nanos(rto, next)),
            LinkWork::Retransmit {
                link,
                seq,
                attempt: next,
            },
        ));
        self.wire(env, CopyKind::Retransmit, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use crate::reliable::ReliableState;
    use crate::stats::LinkStats;
    use hope_types::{AidId, DepTag, HopeMessage, UserMessage};

    const RTO_US: u64 = 5_000;

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
            let mut out = Outbound::default();
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
            let mut out = Outbound::default();
            let deliver = self
                .at(now_us, state_link(env))
                .arrive(env, copy, down, route, &mut out);
            (out, deliver)
        }

        fn timer(
            &mut self,
            now_us: u64,
            link: LinkId,
            seq: u64,
            attempt: u32,
            cap: u32,
        ) -> Outbound {
            let mut out = Outbound::default();
            self.at(now_us, link)
                .timer(link, seq, attempt, cap, &mut out);
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
    }

    /// One line per returned work item: what, for whom, after how long.
    fn shape(out: &Outbound) -> Vec<String> {
        out.iter()
            .flatten()
            .map(|(delay, work)| {
                let after = delay.as_nanos() / 1_000;
                match work {
                    LinkWork::Retransmit { link, seq, attempt } => format!(
                        "timer {}->{} seq={seq} attempt={attempt} +{after}us",
                        link.0.as_raw(),
                        link.1.as_raw()
                    ),
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
            .flatten()
            .filter_map(|(_, work)| match work {
                LinkWork::Deliver { env, copy } => Some((env, copy)),
                LinkWork::Retransmit { .. } => None,
            })
            .last()
            .expect("step put a copy on the wire")
    }

    const USERS: Option<(PartyKind, PartyKind)> = Some((PartyKind::User, PartyKind::User));

    #[test]
    fn send_returns_timer_then_duplicate_then_original() {
        let one_full_tag = LinkStats {
            tag_bytes_full: 12,
            tag_bytes_wire: 13,
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
                name: "sublayer on: sequenced, tag accounted, first timer at the rto",
                reliable: true,
                plan: None,
                payload: user(&[9]),
                out: &[
                    "timer 1->2 seq=1 attempt=0 +5000us",
                    "deliver 1->2 seq=1 Original +1us",
                ],
                delta: one_full_tag,
                traced: true,
            },
            Case {
                name: "protocol messages are sequenced but carry no tag",
                reliable: true,
                plan: None,
                payload: Payload::Hope(HopeMessage::Retain),
                out: &[
                    "timer 1->2 seq=1 attempt=0 +5000us",
                    "deliver 1->2 seq=1 Original +1us",
                ],
                delta: LinkStats::default(),
                traced: true,
            },
            Case {
                name: "fault drop: the timer is all that is left",
                reliable: true,
                plan: Some(FaultPlan::new().drop_rate(1.0)),
                payload: user(&[9]),
                out: &["timer 1->2 seq=1 attempt=0 +5000us"],
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
                    "timer 1->2 seq=1 attempt=0 +5000us",
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
                name: "acks are unsequenced, unbuffered and untraced",
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
    fn first_arrival_is_acked_counted_and_handed_over() {
        let mut rig = Rig::new(true, None);
        let (env, copy) = wire_copy(rig.send(0, p(1), p(2), user(&[9])));
        let route = Some((PartyKind::User, PartyKind::Aid));
        rig.delta();
        rig.traced();
        let (out, delivered) = rig.arrive(1, &env, copy, false, route);
        assert_eq!(shape(&out), ["deliver 2->1 ack=1 Original +2us"]);
        assert!(delivered);
        assert_eq!(rig.delta(), LinkStats::default());
        assert_eq!(rig.stats.count("User", PartyKind::User, PartyKind::Aid), 1);
        let deliver = TraceEventKind::Deliver { src: p(1), seq: 1 };
        assert_eq!(rig.traced(), [deliver]);
    }

    #[test]
    fn ack_retires_and_samples_rtt_unless_retransmitted() {
        let mut rig = Rig::new(true, None);
        for (seq, retransmitted, delta) in [
            (
                1,
                false,
                LinkStats {
                    acks: 1,
                    rtt_samples: 1,
                    ..LinkStats::default()
                },
            ),
            // Karn's rule: the ack of a retransmitted seq is ambiguous.
            (
                2,
                true,
                LinkStats {
                    acks: 1,
                    ..LinkStats::default()
                },
            ),
        ] {
            let (data, copy) = wire_copy(rig.send(0, p(1), p(2), user(&[])));
            if retransmitted {
                let out = rig.timer(RTO_US, (p(1), p(2)), seq, 0, 8);
                assert_eq!(shape(&out).len(), 2, "rearmed timer + resent copy");
            }
            let (ack, _) = wire_copy(rig.arrive(100, &data, copy, false, USERS).0);
            rig.delta();
            let (out, delivered) = rig.arrive(300, &ack, CopyKind::Original, false, USERS);
            assert_eq!((shape(&out).len(), delivered), (0, false), "acks stop here");
            assert_eq!(rig.delta(), delta, "seq {seq}");
            assert!(rig.rel().link_mut((p(1), p(2))).unacked(seq).is_none());
        }
        assert_eq!(rig.rel().mean_srtt_nanos(), 300_000, "one sampled link");
        // A second copy of an ack is counted and changes nothing.
        let again = Envelope {
            src: p(2),
            dst: p(1),
            sent_at: us(100),
            seq: 0,
            payload: Payload::Ack { seq: 1 },
        };
        rig.arrive(400, &again, CopyKind::WireDup, false, USERS);
        let acks = LinkStats {
            acks: 1,
            ..LinkStats::default()
        };
        assert_eq!(rig.delta(), acks);
    }

    #[test]
    fn duplicate_arrival_is_acked_again_and_attributed_to_its_copy() {
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
                ["deliver 2->1 ack=1 Original +3us"],
                "{copy:?}"
            );
            assert!(!delivered, "{copy:?}");
            assert_eq!(rig.delta(), delta, "{copy:?}");
            assert_eq!(rig.traced(), [], "a suppressed copy is not a delivery");
            assert_eq!(rig.stats.total(), 1, "Table 1 counts the first copy only");
        }
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
                name: "never-spawned destination, sublayer on: acked once, then unroutable",
                reliable: true,
                down: false,
                route: None,
                out: &["deliver 2->1 ack=1 Original +2us"],
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
    fn timer_retransmits_with_backoff_then_abandons_at_the_cap() {
        const CAP: u32 = 3;
        let link = (p(1), p(2));
        let mut rig = Rig::new(true, None);
        let out = rig.send(0, p(1), p(2), user(&[]));
        let Some((_, LinkWork::Retransmit { seq, attempt, .. })) = out[0] else {
            panic!("send arms the first timer");
        };
        rig.delta();
        rig.traced();
        let mut now = 0;
        for attempt in attempt..CAP {
            now += RTO_US << attempt;
            let out = rig.timer(now, link, seq, attempt, CAP);
            let next = attempt + 1;
            let rearmed = format!("timer 1->2 seq=1 attempt={next} +{}us", RTO_US << next);
            let resent = format!("deliver 1->2 seq=1 Retransmit +{}us", next + 1);
            assert_eq!(shape(&out), [rearmed, resent]);
            let delta = LinkStats {
                retransmits: 1,
                max_retransmit_attempt: next as u64,
                ..LinkStats::default()
            };
            assert_eq!(rig.delta(), delta);
            assert_eq!(
                rig.traced(),
                [TraceEventKind::Retransmit { dst: p(2), seq }]
            );
        }
        let out = rig.timer(now + (RTO_US << CAP), link, seq, CAP, CAP);
        assert_eq!(shape(&out).len(), 0, "nothing rearmed, nothing resent");
        let abandoned = LinkStats {
            abandoned: 1,
            ..LinkStats::default()
        };
        assert_eq!(rig.delta(), abandoned);
        assert!(
            rig.rel().link_mut(link).unacked(seq).is_none(),
            "buffer entry dropped"
        );
        // A timer outliving its envelope (acked or abandoned) is silent,
        // as is any timer when the sublayer is off.
        assert_eq!(shape(&rig.timer(now, link, seq, 0, CAP)).len(), 0);
        assert_eq!(rig.delta(), LinkStats::default());
        let mut off = Rig::new(false, None);
        assert_eq!(shape(&off.timer(0, link, seq, 0, CAP)).len(), 0);
    }

    /// Sends one tagged message 1->2 at `now_us` and runs it through
    /// arrival and its ack's arrival, so the link's codec has an acked
    /// base and its estimator a sample.
    fn round_trip(rig: &mut Rig, now_us: u64, aids: &[u64]) -> Envelope {
        let (data, copy) = wire_copy(rig.send(now_us, p(1), p(2), user(aids)));
        let (out, delivered) = rig.arrive(now_us + 1, &data, copy, false, USERS);
        assert!(delivered);
        let (ack, copy) = wire_copy(out);
        rig.arrive(now_us + 2, &ack, copy, false, USERS);
        data
    }

    #[test]
    fn crash_forgets_codec_and_rtt_state_but_not_dedup_windows() {
        let link = (p(1), p(2));
        let mut rig = Rig::new(true, None);
        let first = round_trip(&mut rig, 0, &[9]);
        assert_ne!(
            rig.rel().link_mut(link).rto_nanos(),
            RTO_US * 1_000,
            "rto adapted"
        );
        // The second message ships as a delta against the acked base; the
        // receiver crashes while it is in flight.
        let (second, copy) = wire_copy(rig.send(10, p(1), p(2), user(&[9])));
        assert_eq!(rig.delta().tags_delta, 1);
        rig.rel().on_crash(p(2));
        assert_eq!(
            rig.rel().link_mut(link).rto_nanos(),
            RTO_US * 1_000,
            "estimator forgotten"
        );
        // The delta's base is gone: the typed tag stands in, counted.
        let (_, delivered) = rig.arrive(20, &second, copy, false, USERS);
        assert!(delivered, "still delivered, with its typed tag");
        let resync = LinkStats {
            tag_resyncs: 1,
            ..LinkStats::default()
        };
        assert_eq!(rig.delta(), resync);
        // A stale pre-crash copy is still suppressed: exactly-once
        // survives the crash.
        let (_, delivered) = rig.arrive(21, &first, CopyKind::Retransmit, false, USERS);
        assert!(!delivered);
        assert_eq!(rig.delta().dedup_retransmits, 1);
        // Post-restart traffic resynchronizes with a `Full` coding.
        rig.send(30, p(1), p(2), user(&[9]));
        assert_eq!(rig.delta().tags_full, 1);
    }

    #[test]
    fn tag_mismatch_is_counted_traced_and_forces_full() {
        let mut rig = Rig::new(true, None);
        round_trip(&mut rig, 0, &[9]);
        let (mut env, copy) = wire_copy(rig.send(10, p(1), p(2), user(&[9])));
        assert_eq!(rig.delta().tags_delta, 1);
        rig.traced();
        // Diverge the typed tag from what the wire coding reconstructs.
        if let Payload::User(m) = &mut env.payload {
            m.tag = tag(&[9, 10]);
        }
        let (_, delivered) = rig.arrive(11, &env, copy, false, USERS);
        assert!(
            delivered,
            "delivered with its typed tag, which is authoritative"
        );
        let mismatch = LinkStats {
            tag_decode_mismatch: 1,
            ..LinkStats::default()
        };
        assert_eq!(rig.delta(), mismatch);
        assert_eq!(
            rig.traced(),
            [
                TraceEventKind::TagDecodeMismatch { src: p(1), seq: 2 },
                TraceEventKind::Deliver { src: p(1), seq: 2 },
            ]
        );
        // The diverged codec pair is not trusted again: next send is Full.
        rig.send(20, p(1), p(2), user(&[9]));
        let delta = rig.delta();
        assert_eq!((delta.tags_full, delta.tags_delta), (1, 0));
    }
}
