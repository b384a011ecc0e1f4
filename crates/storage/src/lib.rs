//! # mmoc-storage — the real (non-simulated) checkpointing engine
//!
//! A Rust rebuild of the paper's C++ validation implementation (§6). Where
//! `mmoc-sim` *prices* operations, this crate *performs* them: real memory
//! copies, real files, real threads.
//!
//! The paper implemented only the two winners identified by the simulation
//! (Naive-Snapshot and Copy-on-Update); this crate runs **all six**
//! algorithms through one engine, built as a backend of the unified tick
//! driver in `mmoc_core::driver` and plugged into the unified experiment
//! builder: [`RealConfig`] implements `mmoc_core::ExperimentEngine`, so
//! `Run::algorithm(alg).engine(real_config).trace(…).execute()` is the one
//! entry point (see [`run`]) and `mmoc_core::RunReport` the one result:
//!
//! * the **mutator** executes each tick in three phases: *query* (random
//!   lookups sized to fill the tick), *update* (apply the trace's updates
//!   through the bookkeeper's `Handle-Update`), and *sleep* (pad to the
//!   tick frequency when pacing is on);
//! * an **asynchronous writer** flushes consistent checkpoints to the
//!   algorithm's disk organization — a double-backup pair of files with
//!   sorted (offset-ordered) writes, or an append-only segment log —
//!   publishing its sweep frontier for copy-on-update coordination. One
//!   flush round ([`writer`]) runs in three interchangeable
//!   configurations: a pool of loops each owning a group of shards, a
//!   single loop, and that loop issuing its writes through a real
//!   `io_uring` ring driven by raw syscalls (capability-probed, falling
//!   back to the single syscall loop on kernels without it), selected by
//!   [`RealConfig::writer_backend`] and proven recovery-equivalent by the
//!   differential matrix in `tests/writer_equivalence.rs`;
//! * real **crash recovery**: read back the newest consistent image
//!   (backup file or log reconstruction) and replay the deterministic
//!   update stream to the crash tick.
//!
//! Substitutions versus the paper's setup are documented in DESIGN.md:
//! regular files + `fsync` instead of a raw block device, and configurable
//! pacing so the experiment fits CI budgets.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod config;
mod device_sync;
pub mod engine;
pub mod files;
pub mod inject;
pub mod log_store;
pub mod recovery;
pub mod replica;
pub mod report;
pub mod run;
pub mod sharded;
pub mod shared;
mod uring;
pub mod writer;

pub use config::RealConfig;
pub use inject::{Inject, RetryCounters, RetryPolicy};
pub use recovery::RecoveryOpts;
pub use replica::ReplicaSet;
pub use report::WriterStats;
pub use sharded::shard_dir;
