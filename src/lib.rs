//! # mmo-checkpoint — checkpoint recovery for MMO game state
//!
//! A complete Rust implementation of *An Evaluation of Checkpoint Recovery
//! for Massively Multiplayer Online Games* (Vaz Salles, Cao, Sowell,
//! Demers, Gehrke, Koch, White — VLDB 2009): the six main-memory
//! checkpointing algorithms, the cost-model simulator, the synthetic and
//! game-server workloads, and the real disk-backed engine used to validate
//! the simulation.
//!
//! This crate is a facade; the pieces live in focused crates:
//!
//! * [`core`] — the checkpointing algorithmic framework, the six
//!   algorithms' bookkeeping, state tables.
//! * [`sim`] — the tick-level cost-model simulator (Table 3 hardware
//!   model; overhead / checkpoint-time / recovery-time metrics).
//! * [`workload`] — Zipfian trace generation (Table 4), trace files,
//!   trace statistics (Table 5).
//! * [`game`] — the Knights and Archers prototype MMO server.
//! * [`storage`] — the real engine: mutator + writer threads, double
//!   backup files and checkpoint log, crash recovery (restore + logical-log
//!   replay).
//!
//! ## Quickstart
//!
//! Every experiment — any algorithm, either engine, any shard count — is
//! described by one builder and returns one report type:
//!
//! ```
//! use mmo_checkpoint::prelude::*;
//!
//! // Simulate Copy-on-Update (the paper's winner) on a synthetic workload.
//! let trace = SyntheticConfig::paper_default()
//!     .with_ticks(60)
//!     .with_updates_per_tick(1_000);
//! let report = Run::algorithm(Algorithm::CopyOnUpdate)
//!     .engine(Engine::Sim(SimConfig::default()))
//!     .trace(trace)
//!     .execute()
//!     .expect("simulation runs");
//! println!("{}", report.summary());
//! assert!(report.world.checkpoints_completed > 0);
//! ```
//!
//! Swapping `Engine::Sim(…)` for `Engine::Real(RealConfig::new(dir))`
//! reruns the identical experiment on the real disk-backed engine —
//! that's the paper's §6 validation loop — and `.shards(n)`,
//! `.batching(true)`, `.fidelity_check(true)` and `.pacing(hz)` apply to
//! both engines. See [`run`] and [`mmoc_core::run`] for the full API.

pub use mmoc_core as core;
pub use mmoc_game as game;
pub use mmoc_sim as sim;
pub use mmoc_storage as storage;
pub use mmoc_workload as workload;

pub mod run;

pub use run::Engine;

/// The most commonly used types, re-exported flat.
pub mod prelude {
    pub use crate::run::Engine;
    pub use mmoc_core::{
        Algorithm, AlgorithmSpec, Bookkeeper, CellAddr, CellUpdate, CheckpointBackend,
        CheckpointPlan, DiskOrg, EngineDetail, ExperimentEngine, FidelitySummary, ObjectId,
        RecoveryReport, Run, RunError, RunMetrics, RunReport, RunSpec, RunSummary, ShardFilter,
        ShardMap, ShardReport, ShardedDriver, StateGeometry, StateTable, TickDriver, TraceFn,
        TraceSpec, WriterBackend,
    };
    pub use mmoc_game::{GameConfig, GameServer, World};
    // `RunReport` is the one result shape; each engine contributes its
    // configuration type.
    pub use mmoc_sim::{HardwareParams, SimConfig};
    pub use mmoc_storage::RealConfig;
    pub use mmoc_workload::{RecordedTrace, SyntheticConfig, TraceSource, TraceStats, ZipfTrace};
}

#[cfg(test)]
mod tests {
    /// The `key = value` lines of a manifest's `[profile.release]` table.
    fn release_profile(manifest: &str) -> Vec<&str> {
        manifest
            .lines()
            .skip_while(|l| l.trim() != "[profile.release]")
            .skip(1)
            .take_while(|l| !l.starts_with('['))
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .collect()
    }

    /// `ledger/` is a workspace of its own, so it does not inherit this
    /// manifest's profile and mirrors it by hand; the benchmark must
    /// measure the engine as the repository builds it.
    #[test]
    fn the_ledger_mirrors_the_release_profile() {
        let root = release_profile(include_str!("../Cargo.toml"));
        assert!(!root.is_empty(), "no [profile.release] in Cargo.toml");
        assert_eq!(root, release_profile(include_str!("../ledger/Cargo.toml")));
    }
}
