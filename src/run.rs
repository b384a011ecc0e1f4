//! The cross-engine experiment surface: [`Engine`] selects the backend a
//! [`Run`](mmoc_core::Run) executes on.
//!
//! Every backend implements [`ExperimentEngine`], so `Run::engine` accepts
//! a bare `SimConfig` or `RealConfig` directly; [`Engine`] is the closed
//! enumeration for code that chooses the backend at runtime — the
//! simulation-vs-implementation validation loop of the paper's §6:
//!
//! ```
//! use mmo_checkpoint::prelude::*;
//!
//! let trace = SyntheticConfig::paper_default()
//!     .with_ticks(30)
//!     .with_updates_per_tick(500);
//! let engines = [
//!     Engine::Sim(SimConfig::default()),
//!     // Engine::Real(RealConfig::new("/scratch/mmoc")) — same call shape.
//! ];
//! for engine in engines {
//!     let report = Run::algorithm(Algorithm::CopyOnUpdate)
//!         .engine(engine)
//!         .trace(trace)
//!         .execute()
//!         .expect("experiment runs");
//!     assert!(report.world.checkpoints_completed > 0);
//! }
//! ```

use mmoc_core::run::{ExperimentEngine, RunError, RunReport, RunSpec, TraceSpec};
use mmoc_sim::SimConfig;
use mmoc_storage::RealConfig;

/// The backend executing an experiment: the cost-model simulator or the
/// real disk-backed engine.
///
/// Future backends (a ReStore-style replicated store, an NVM-style
/// arena) appear either as new variants here or as standalone
/// [`ExperimentEngine`] implementations — the builder accepts both.
/// Knobs only one engine reads (the real engine's writer backend, batch
/// window, pipeline depth, replication) are fields of that engine's
/// config, set before it is handed to `.engine(…)`.
#[derive(Debug, Clone)]
pub enum Engine {
    /// The cost-model simulator (`mmoc-sim`): virtual time, Table 3
    /// hardware pricing, analytic recovery estimates.
    Sim(SimConfig),
    /// The real engine (`mmoc-storage`): actual memory copies, files,
    /// `fsync`, and measured crash recovery.
    Real(RealConfig),
}

impl ExperimentEngine for Engine {
    fn run_experiment<T: TraceSpec + ?Sized>(
        &self,
        spec: &RunSpec,
        trace: &T,
    ) -> Result<RunReport, RunError> {
        match self {
            Engine::Sim(config) => config.run_experiment(spec, trace),
            Engine::Real(config) => config.run_experiment(spec, trace),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmoc_core::{Algorithm, Run, StateGeometry};
    use mmoc_workload::SyntheticConfig;

    fn trace() -> SyntheticConfig {
        SyntheticConfig {
            geometry: StateGeometry::test_small(),
            ticks: 30,
            updates_per_tick: 200,
            skew: 0.7,
            seed: 7,
        }
    }

    #[test]
    fn both_variants_dispatch_to_their_backend() {
        let dir = tempfile::tempdir().unwrap();
        let sim = Run::algorithm(Algorithm::CopyOnUpdate)
            .engine(Engine::Sim(SimConfig::default()))
            .trace(trace())
            .execute()
            .expect("sim run");
        assert_eq!(sim.engine, "sim");

        let real = Run::algorithm(Algorithm::CopyOnUpdate)
            .engine(Engine::Real(RealConfig::new(dir.path()).with_query_ops(64)))
            .trace(trace())
            .execute()
            .expect("real run");
        assert_eq!(real.engine, "real");

        // The §6 validation invariant: same trace, same tick/update
        // totals, one report shape.
        assert_eq!(sim.ticks, real.ticks);
        assert_eq!(sim.updates, real.updates);
        assert_eq!(sim.n_shards, real.n_shards);
    }
}
