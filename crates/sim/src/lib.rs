//! # mmoc-sim — the cost-model simulator
//!
//! A Rust rebuild of the paper's Java simulation (§4.2): a discrete tick
//! engine that replays an update trace against one of the six checkpoint
//! recovery algorithms, pricing every operation with the hardware model of
//! Table 3 instead of performing real I/O or memory copies.
//!
//! The simulator answers, for each algorithm:
//!
//! * **overhead time** — how much each tick is stretched by bit tests,
//!   locks, copy-on-update copies, and eager snapshot pauses;
//! * **time to checkpoint** — the synchronous pause plus asynchronous
//!   write duration of each checkpoint;
//! * **recovery time** — the analytic estimate
//!   `ΔT_recovery = ΔT_restore + ΔT_replay` of §4.2.
//!
//! ```
//! use mmoc_core::{Algorithm, Run};
//! use mmoc_sim::SimConfig;
//! use mmoc_workload::SyntheticConfig;
//!
//! let trace = SyntheticConfig::paper_default()
//!     .with_ticks(60)
//!     .with_updates_per_tick(1_000);
//! let report = Run::algorithm(Algorithm::CopyOnUpdate)
//!     .engine(SimConfig::default())
//!     .trace(trace)
//!     .execute()
//!     .expect("simulation runs");
//! assert!(report.world.avg_overhead_s > 0.0);
//! assert!(report.world.checkpoints_completed > 0);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cost;
pub mod engine;
pub mod fidelity;
pub mod params;

pub use cost::CostModel;
pub use engine::SimConfig;
pub use params::HardwareParams;
