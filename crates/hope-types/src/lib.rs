//! Core vocabulary types for the HOPE optimistic programming environment.
//!
//! This crate defines the identifiers, dependency sets, message formats,
//! virtual-time representation and error type shared by every other crate in
//! the workspace. It corresponds to the data definitions of the HOPE paper
//! (Cowan & Lutfiyya, *A Wait-free Algorithm for Optimistic Programming:
//! HOPE Realized*, ICDCS 1996):
//!
//! * [`AidId`] — an **assumption identifier** (the paper's `AID x`),
//! * [`IntervalId`] — an interval of a user process's execution history,
//!   the smallest granularity of rollback,
//! * [`IdoSet`] / [`IntervalSet`] — the dependency-tracking sets
//!   (`IDO`, `UDO`, `A_IDO`, `IHA`, `IHD`, `DOM`),
//! * [`HopeMessage`] — the five protocol messages of the paper's Table 1
//!   (`Guess`, `Affirm`, `Deny`, `Replace`, `Rollback`),
//! * [`DepTag`] — the set of AIDs piggy-backed on every user message so
//!   that receivers implicitly guess them,
//! * [`VirtualTime`] / [`VirtualDuration`] — nanosecond-resolution simulated
//!   time used by the deterministic runtime.
//!
//! # Examples
//!
//! ```
//! use hope_types::{AidId, IdoSet, ProcessId};
//!
//! let x = AidId::from_raw(ProcessId::from_raw(7));
//! let y = AidId::from_raw(ProcessId::from_raw(9));
//! let ido: IdoSet = [x, y].into_iter().collect();
//! assert!(ido.contains(&x));
//! assert_eq!(ido.len(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod crc32;
mod delta;
mod error;
mod ids;
mod message;
pub mod net;
mod sets;
pub mod spec;
mod time;
pub mod trace;

pub use delta::{full_set_wire_len, SetCoding, TagDecoder, TagEncoder, DEFAULT_CODEC_WINDOW};
pub use error::HopeError;
pub use ids::{AidId, IntervalId, ProcessId};
pub use message::{definite_interval, DepTag, Envelope, HopeMessage, Payload, UserMessage};
pub use net::{
    Frame, FrameError, FrameKind, FrameReader, HelloReject, NodeHello, NodeId, PROTOCOL_VERSION,
};
pub use sets::{IdSet, IdoSet, IntervalSet};
pub use spec::{SpecController, SpecObservation, SpecPolicy, SpecSnapshot, SpecStats};
pub use time::{VirtualDuration, VirtualTime};
pub use trace::{
    BlameKey, RollbackAttribution, TraceCollector, TraceEvent, TraceEventKind, WastedWork,
};

/// Crate-wide result alias using [`HopeError`].
pub type Result<T> = std::result::Result<T, HopeError>;
