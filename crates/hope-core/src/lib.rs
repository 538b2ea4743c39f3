//! # hope-core — the HOPE algorithm
//!
//! A Rust reproduction of the wait-free optimistic-programming algorithm of
//! Cowan & Lutfiyya, *A Wait-free Algorithm for Optimistic Programming:
//! HOPE Realized* (ICDCS 1996).
//!
//! HOPE provides one data type — the assumption identifier
//! ([`hope_types::AidId`]) — and four primitives:
//!
//! * [`ProcessCtx::guess`] — make an optimistic assumption; speculative
//!   computation starts immediately,
//! * [`ProcessCtx::affirm`] — assert an assumption is correct,
//! * [`ProcessCtx::deny`] — assert it is incorrect: every dependent
//!   computation, on every process, rolls back automatically,
//! * [`ProcessCtx::free_of`] — assert independence from an assumption.
//!
//! Dependency tracking is automatic: messages sent by speculative
//! computations carry their assumptions as tags and the receiving HOPElib
//! implicitly guesses them. No user process ever waits inside a HOPE
//! primitive — the algorithm is **wait-free**, which is the whole point:
//! optimism exists to hide latency, so the machinery must not add any.
//!
//! # Example
//!
//! ```
//! use hope_core::HopeEnv;
//! use std::sync::{Arc, Mutex};
//!
//! let mut env = HopeEnv::builder().seed(1).build();
//! let path = Arc::new(Mutex::new(Vec::new()));
//! let trace = path.clone();
//! env.spawn_user("worker", move |ctx| {
//!     let x = ctx.aid_init();
//!     if ctx.guess(x) {
//!         trace.lock().unwrap().push("optimistic");
//!         ctx.deny(x); // our own verification failed
//!     } else {
//!         trace.lock().unwrap().push("pessimistic");
//!     }
//! });
//! let report = env.run();
//! assert!(report.is_clean());
//! // The optimistic branch ran, was rolled back, then the pessimistic
//! // branch ran — exactly the paper's guess/deny semantics.
//! assert_eq!(path.lock().unwrap().as_slice(), &["optimistic", "pessimistic"]);
//! assert_eq!(report.hope.rollbacks, 1);
//! ```
//!
//! # Architecture (paper, Figure 3)
//!
//! * [`aid`] — AID processes: one state machine per assumption
//!   (Cold → Hot → Maybe → True/False, Figures 4–8),
//! * [`interval`] — per-process interval histories with the `IDO`/`UDO`/
//!   `IHA`/`IHD` dependency sets,
//! * [`hopelib`] — the `Control` function applying `Replace`/`Rollback`
//!   messages (Algorithm 1, and Algorithm 2's cycle detection, Fig. 15),
//! * [`replay`] — checkpoint/rollback by deterministic re-execution
//!   (substitute for the paper's UNIX process checkpointing),
//! * [`durable`] — the op log's write-ahead log on a segmented,
//!   CRC32-framed medium, which a crashed process recovers its log from
//!   (substitute for the paper's checkpoints on disk),
//! * [`ctx`] — the user programming interface,
//! * [`env` (module)](crate::env) — the one front end gluing everything
//!   onto a [`hope_runtime`] runtime: [`Env<R>`](Env) and its
//!   [`EnvBuilder<R>`](EnvBuilder), aliased as [`HopeEnv`] on the
//!   virtual-time simulator and [`ThreadedHopeEnv`] on shard threads.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aid;
pub mod config;
pub mod ctx;
pub mod durable;
pub mod env;
pub mod hopelib;
pub mod interval;
pub mod metrics;
pub mod replay;

pub use aid::{AidActor, AidMachine, AidState};
pub use config::{DenyPolicy, GuessRollbackPolicy, HopeConfig, RetractPolicy};
pub use ctx::{Delivery, ProcessCtx};
pub use durable::{DurableConfig, DurableSnapshot, DurableStore, SyncPolicy};
pub use env::{
    Env, EnvBuilder, HopeEnv, HopeEnvBuilder, HopeReport, ThreadedHopeEnv, ThreadedHopeEnvBuilder,
};
pub use hopelib::{LibControl, LibState, PendingRollback};
pub use interval::{History, IntervalOrigin, IntervalRecord};
pub use metrics::{HopeMetrics, MetricsSnapshot};
pub use replay::{Op, OpList, ReplayLog, Rollback};

// Speculation-control vocabulary (DESIGN.md §9), re-exported so callers
// configuring a policy need only this crate.
pub use hope_types::{SpecController, SpecPolicy, SpecSnapshot};
