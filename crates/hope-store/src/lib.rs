//! # hope-store — the durable half of the paper's checkpoint/rollback story
//!
//! The paper checkpoints UNIX process images and rolls back by restoring
//! them; DESIGN.md substitution S6 replaces the image with a **segmented,
//! CRC32-framed write-ahead log** of `replay::Op` records plus periodic
//! checkpoint snapshots. A crashed process recovers by loading the latest
//! checkpoint and replaying the events behind it — the same deterministic
//! re-execution the in-memory `ReplayLog` performs, but from bytes that
//! survive the crash.
//!
//! The substrate is assumed adversarial: a crash may tear the final
//! record, lose the unsynced page-cache window, or flip a bit. Recovery
//! therefore never trusts a byte it has not checksummed — it walks the
//! segments frame by frame and keeps the **longest valid prefix**,
//! never panicking on arbitrary input (`SegmentedLog::recover`).
//!
//! This crate knows nothing about HOPE: records are opaque payloads
//! tagged [`RecordKind::Event`] or [`RecordKind::Checkpoint`], framed with
//! `hope-types`' CRC-32 (the same checksum as a TCP frame). The
//! op codec, checkpoint contents and GC policy live in `hope-core`'s
//! `durable` module; the seeded fault *decisions* live in
//! `hope-runtime::FaultPlan` (storage faults mirror the wire faults).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod frame;
pub mod log;

pub use frame::{read_frame, FrameOutcome, RecordKind, HEADER_BYTES};
pub use log::{RecoveredLog, RecoveryReport, SegmentedLog, StorageFault, StoreConfig, StoreStats};
