//! # hope-runtime — the message-passing substrate
//!
//! The HOPE paper's prototype was built on PVM: user tasks ran as ordinary
//! UNIX processes exchanging asynchronous messages, AID processes were
//! spawned as PVM tasks, and the HOPElib `Control` function intercepted HOPE
//! messages addressed to user processes (paper, Figure 3). This crate is the
//! from-scratch substitute: **one scheduler on two clocks**.
//!
//! * A scheduler owns a queue of timed work and the processes it runs. It
//!   delivers each due message through one dispatch step, fires link
//!   timers, crashes and restarts, and gives processes their turns.
//!   [`SimRuntime`] is one scheduler on a virtual clock: deterministic per
//!   seed, and virtual time measures exactly how much latency speculation
//!   hid. [`ThreadedRuntime`] runs one per shard thread on the wall clock,
//!   with lanes between the shards; its outcomes match the simulator's at
//!   every shard count.
//! * **User processes** run as coroutines on their scheduler's thread, each
//!   on a stack of its own, with a blocking, sequential programming model
//!   ([`SimRuntime::spawn_threaded`]). A process and its scheduler switch
//!   stacks in strict turns. A stack is reused by the next process once
//!   its process exits.
//! * **AID processes** are lightweight event-driven [`Actor`]s — they are
//!   pure message-driven state machines in the paper, so they need no stack.
//! * **HOPE protocol messages** addressed to a threaded process are routed
//!   to its registered [`ControlHandler`] (the paper's `Control` function in
//!   HOPElib) instead of the user-visible mailbox.
//! * The **network** adds pluggable per-message delivery latency
//!   ([`LatencyModel`], [`NetworkConfig`]), which is what the optimistic
//!   primitives exist to hide.
//! * **Fault injection** ([`FaultPlan`]) makes the wire lossy — seeded
//!   drops, duplicates and scheduled crash/restarts — and enables the
//!   reliable-delivery sublayer (per-link sequencing, cumulative acks, one
//!   retransmit timer per link, receiver dedup) that restores the lossless contract the
//!   protocol assumes. Off by default; fault-free runs are untouched.
//!
//! The simulator is quiescence-driven: [`SimRuntime::run`] processes events in
//! virtual-time order until no event remains, then reports which processes
//! exited, which are still blocked, and the message statistics needed by the
//! paper's protocol accounting (Table 1).
//!
//! # Examples
//!
//! Two threaded processes playing ping-pong over a 1 ms link:
//!
//! ```
//! use bytes::Bytes;
//! use hope_runtime::{NetworkConfig, Received, SimRuntime};
//! use hope_types::{Payload, UserMessage, VirtualDuration};
//!
//! let mut rt = SimRuntime::builder()
//!     .network(NetworkConfig::constant(VirtualDuration::from_millis(1)))
//!     .build();
//! let ponger = rt.spawn_threaded("pong", None, |ctx| {
//!     let Received { src, msg } = ctx.receive(None, &mut || false).unwrap();
//!     ctx.send(src, Payload::User(UserMessage::new(0, msg.data)));
//! });
//! rt.spawn_threaded("ping", None, move |ctx| {
//!     ctx.send(ponger, Payload::User(UserMessage::new(0, Bytes::from_static(b"hi"))));
//!     let reply = ctx.receive(None, &mut || false).unwrap();
//!     assert_eq!(&reply.msg.data[..], b"hi");
//! });
//! let report = rt.run();
//! assert!(report.panics.is_empty());
//! // one round trip over a 1 ms link:
//! assert_eq!(report.now.as_nanos(), 2_000_000);
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod actor;
mod control;
#[allow(unsafe_code)]
mod coro;
mod event;
mod fault;
mod link;
mod net;
mod node;
mod reliable;
mod runtime;
mod sched;
mod scheduler;
mod shard;
pub mod spsc;
mod stats;
mod sysapi;
mod threaded;
mod threadproc;

pub use actor::{Actor, ActorApi, NullActor};
pub use control::{ControlApi, ControlHandler, Inspect};
pub use fault::{CrashPoint, FaultModel, FaultPlan, StorageFaultPlan, WireFate};
pub use net::{
    BackoffPolicy, HeartbeatPolicy, LatencyModel, NetConfig, NetTransport, NetworkConfig,
    NodeDirectory, PeerMachine, PeerOutput,
};
pub use reliable::{
    AckOutcome, AckPlan, CopyKind, LinkId, LinkRecord, Overdue, ReliableState, RttEstimator,
    ACK_EVERY, WALL_RTO_MAX_NANOS, WALL_RTO_MIN_NANOS,
};
pub use runtime::{RuntimeBuilder, SimRuntime};
pub use sched::{EventDesc, PendingEvent};
pub use stats::{LinkStats, MessageStats, PartyKind, RunReport};
pub use sysapi::{ProcessBody, Received, SysApi};
pub use threaded::{ThreadedRuntime, ThreadedRuntimeBuilder};
pub use threadproc::ProcessStatus;
