//! Network backends: simulated latency models and the real TCP transport.
//!
//! Two very different things live here on purpose. [`latency`] is the
//! simulator's view of a network — a pluggable delay distribution the
//! deterministic runtime samples per message. The other two are the real
//! thing, split at the syscall. [`supervisor`] is everything a node
//! decides about its link to one peer — reconnect backoff, heartbeats,
//! bounded parking while the peer is away, and the link pipeline
//! (`link.rs`) for sequencing, acks, dedup and retransmission — as a
//! state machine that does no IO. [`tcp`] is the driver that runs it
//! over length-prefixed framed TCP streams: listener, handshakes, one
//! writer and one reader per peer.
//!
//! TCP orders bytes *within* one connection, so the reliable layer's job
//! here is the gaps *between* connections: what was parked or in flight
//! at a cut is retransmitted after reconnect, and the receiver's dedup
//! window (which survives the flap) suppresses whatever the old
//! connection did deliver.

mod latency;
pub mod supervisor;
pub mod tcp;

pub use latency::{LatencyModel, NetworkConfig};
pub use supervisor::{BackoffPolicy, HeartbeatPolicy, PeerMachine, PeerOutput};
pub use tcp::{NetConfig, NetTransport, NodeDirectory};
