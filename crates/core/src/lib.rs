//! # mmoc-core — checkpoint recovery primitives for MMO game state
//!
//! This crate implements the checkpointing algorithmic framework of
//! *An Evaluation of Checkpoint Recovery for Massively Multiplayer Online
//! Games* (Vaz Salles et al., VLDB 2009), together with the six consistent
//! checkpointing algorithms the paper evaluates:
//!
//! * **Naive-Snapshot** — eager copy of the full state at a tick boundary.
//! * **Dribble-and-Copy-on-Update** — asynchronous sweep over all objects
//!   with copy-on-update for objects the sweep has not reached yet.
//! * **Atomic-Copy-Dirty-Objects** — eager copy of only the dirty objects,
//!   double-backup disk organization.
//! * **Partial-Redo** — eager copy of dirty objects, log-structured disk
//!   organization with periodic full flushes.
//! * **Copy-on-Update** — copy-on-update restricted to dirty objects,
//!   double-backup disk organization (the paper's overall winner).
//! * **Copy-on-Update-Partial-Redo** — copy-on-update of dirty objects,
//!   log-structured organization with periodic full flushes.
//!
//! The crate deliberately contains **no timing and no I/O**: it provides the
//! bookkeeping state machines ([`Bookkeeper`]) and the state representation
//! ([`StateTable`]). The cost-model simulator (`mmoc-sim`) and the real
//! disk-backed engine (`mmoc-storage`, which also restores checkpoints and
//! replays the logical log) both drive these state machines and attach
//! their own notion of cost (virtual nanoseconds vs. wall-clock time).
//!
//! ## The framework
//!
//! The paper's *Checkpointing Algorithmic Framework* runs at every tick
//! boundary of the game's discrete-event simulation loop:
//!
//! ```text
//! on end of game tick:
//!   if last checkpoint finished:
//!     Ocopy <- Copy-To-Memory(Osync ⊆ Oall)          // synchronous pause
//!     async Write-Copies-To-Stable-Storage(Ocopy)
//!     register Handle-Update for update events
//!     async Write-Objects-To-Stable-Storage(Oall \ Osync)
//! on each update u of object o:
//!   Handle-Update(u, o)
//! ```
//!
//! [`Bookkeeper::begin_checkpoint`] corresponds to the tick-boundary branch
//! and returns a [`CheckpointPlan`] describing the synchronous copy and the
//! asynchronous flush job; [`Bookkeeper::on_update`] corresponds to
//! `Handle-Update` and returns the [`UpdateOps`] the update incurred.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod algorithms;
pub mod bitmap;
pub mod dirty;
pub mod driver;
pub mod error;
pub mod geometry;
pub mod metrics;
pub mod plan;
pub mod run;
pub mod sharding;
pub mod table;
pub mod trace;

pub use algorithms::bookkeeper::{Bookkeeper, FlushCursor, UpdateOps};
pub use algorithms::{Algorithm, AlgorithmSpec, CopyTiming, DiskOrg, ObjectsCopied, Subroutine};
pub use driver::{CheckpointBackend, DriverRun, DriverStep, FlushCompletion, TickDriver, TickOps};
pub use error::CoreError;
pub use geometry::{CellAddr, CellUpdate, ObjectId, StateGeometry};
pub use metrics::{sample_quantile, CheckpointRecord, RunMetrics, TickMetrics};
pub use plan::{CheckpointPlan, CursorKind, FlushJob, SyncCopy};
pub use run::{
    EngineDetail, ExperimentEngine, FidelitySummary, RealRunDetail, RecoveryReport, Run, RunError,
    RunReport, RunSpec, RunSummary, ShardReport, SimRunDetail, TraceFn, TraceSpec, WriterBackend,
};
pub use sharding::{ShardFilter, ShardMap, ShardedDriver, ShardedRun};
pub use table::StateTable;
pub use trace::TraceSource;
