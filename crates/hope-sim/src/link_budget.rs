//! E-link — what the reliable sublayer adds to a message, counted.
//!
//! One sender, one receiver, one link with the sublayer on: the sender
//! hands the link `messages` tagged user messages in one burst and the
//! simulator is stepped event by event, each fired event classified by
//! what it is — a data copy arriving, an ack arriving, a link timer
//! (retransmit or delayed ack). Fault-free, the sublayer's whole cost is
//! the events that are not first data arrivals; it is per *link* when
//! acknowledgement is cumulative and each link has one retransmit timer,
//! per *message* when every message is acked and timed by itself. With a
//! lossy wire the same run shows what the design must not give up: every
//! message delivered exactly once, none abandoned, and settled in
//! comparable virtual time.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use hope_runtime::{EventDesc, FaultPlan, SimRuntime};
use hope_types::{AidId, DepTag, Payload, ProcessId, UserMessage, VirtualTime};

/// One run's event budget.
#[derive(Debug, Clone, Copy)]
pub struct LinkBudget {
    /// Messages the sender handed the link.
    pub messages: u64,
    /// Probability each wire copy (data or ack) is dropped.
    pub drop_rate: f64,
    /// Data copies that arrived: first copies, duplicates, retransmissions.
    pub data_events: u64,
    /// Acks that arrived.
    pub ack_events: u64,
    /// Link timers that fired (retransmit and delayed-ack alike).
    pub timer_events: u64,
    /// Copies the sublayer resent.
    pub retransmits: u64,
    /// Messages the sublayer gave up on.
    pub abandoned: u64,
    /// Messages the receiver got, each counted once per copy handed to it.
    pub delivered: u64,
    /// When the last event fired: everything delivered, acked, and every
    /// timer run out.
    pub settled_at: VirtualTime,
}

impl LinkBudget {
    /// Link-layer events per message sent.
    pub fn events_per_message(&self) -> f64 {
        (self.data_events + self.ack_events + self.timer_events) as f64 / self.messages as f64
    }

    /// Ack arrivals per message sent.
    pub fn acks_per_message(&self) -> f64 {
        self.ack_events as f64 / self.messages as f64
    }

    /// Timer fires per message sent.
    pub fn timers_per_message(&self) -> f64 {
        self.timer_events as f64 / self.messages as f64
    }
}

/// Runs the burst and counts. Deterministic per `(messages, drop_rate,
/// seed)`.
pub fn measure(messages: u64, drop_rate: f64, seed: u64) -> LinkBudget {
    let mut rt = SimRuntime::builder()
        .seed(seed)
        .faults(FaultPlan::new().drop_rate(drop_rate))
        .build();
    let delivered = Arc::new(AtomicU64::new(0));
    let got = delivered.clone();
    let receiver = rt.spawn_threaded("receiver", None, move |sys| {
        let mut never = || false;
        while sys.receive(None, &mut never).is_some() {
            got.fetch_add(1, Ordering::Relaxed);
        }
    });
    rt.spawn_threaded("sender", None, move |sys| {
        let tag: DepTag = [AidId::from_raw(ProcessId::from_raw(99))]
            .into_iter()
            .collect();
        for _ in 0..messages {
            let msg = UserMessage::tagged(0, Bytes::new(), tag.clone());
            sys.send(receiver, Payload::User(msg));
        }
    });
    let (mut data_events, mut ack_events, mut timer_events) = (0, 0, 0);
    // Index 0 is what `run` would fire next.
    while let Some(next) = rt.pending_events().first() {
        match next.desc {
            EventDesc::Deliver { kind: "Ack", .. } => ack_events += 1,
            EventDesc::Deliver { .. } => data_events += 1,
            EventDesc::Retransmit { .. } | EventDesc::AckDue { .. } => timer_events += 1,
            EventDesc::Wake(_) | EventDesc::Crash(_) | EventDesc::Restart(_) => {}
        }
        rt.step_chosen(0);
    }
    let link = *rt.stats().link();
    LinkBudget {
        messages,
        drop_rate,
        data_events,
        ack_events,
        timer_events,
        retransmits: link.retransmits,
        abandoned: link.abandoned,
        delivered: delivered.load(Ordering::Relaxed),
        settled_at: rt.now(),
    }
}

/// Tabulates runs of [`measure`].
pub fn table(title: &str, results: &[LinkBudget]) -> crate::table::Table {
    let mut table = crate::table::Table::new(
        title,
        &[
            "messages",
            "drop",
            "events/msg",
            "acks/msg",
            "timers/msg",
            "retransmits",
            "abandoned",
            "delivered",
            "settled at",
        ],
    );
    for r in results {
        table.row(&[
            &r.messages,
            &format_args!("{:.2}", r.drop_rate),
            &format_args!("{:.3}", r.events_per_message()),
            &format_args!("{:.3}", r.acks_per_message()),
            &format_args!("{:.3}", r.timers_per_message()),
            &r.retransmits,
            &r.abandoned,
            &r.delivered,
            &format_args!("{:.3}ms", r.settled_at.as_nanos() as f64 / 1e6),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_clean_link_costs_per_link_not_per_message() {
        let r = measure(256, 0.0, 1);
        assert_eq!((r.delivered, r.retransmits, r.abandoned), (256, 0, 0));
        assert_eq!(r.data_events, 256, "one copy each");
        assert!(r.ack_events <= 256 / 4, "{r:?}");
        assert!(r.timer_events <= 4, "{r:?}");
    }

    #[test]
    fn a_lossy_link_still_delivers_each_message_once() {
        let r = measure(256, 0.1, 1);
        assert_eq!((r.delivered, r.abandoned), (256, 0), "{r:?}");
        assert!(r.retransmits > 0, "{r:?}");
    }
}
