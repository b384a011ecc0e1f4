//! The real engine as a pluggable experiment backend.
//!
//! [`RealConfig`] implements [`ExperimentEngine`], so a disk-backed run is
//! described exactly like a simulated one:
//!
//! ```no_run
//! use mmoc_core::{Algorithm, Run};
//! use mmoc_storage::RealConfig;
//! use mmoc_workload::SyntheticConfig;
//!
//! let trace = SyntheticConfig::paper_default().with_ticks(60);
//! let report = Run::algorithm(Algorithm::CopyOnUpdate)
//!     .engine(RealConfig::new("/tmp/mmoc_run"))
//!     .trace(trace)
//!     .shards(4)
//!     .execute()
//!     .expect("real run");
//! assert_eq!(report.engine, "real");
//! ```
//!
//! Spec options map onto the engine as follows: `.shards(n)` splits the
//! world over per-shard stores served by the shared writer;
//! `.pacing(hz)` paces the mutator, which sleeps out the remainder of
//! every global tick; `.fidelity_check(true)` forces the end-of-run
//! crash-recovery measurement on — restore, replay, byte-compare — which
//! is the real engine's value-level verification; `.batching(true)`
//! coalesces same-object updates before bookkeeping. Everything only this
//! engine reads (writer backend, batch window, pipeline depth, retry
//! budget, replication) is a field of the [`RealConfig`] handed to
//! `.engine(…)`.

use crate::config::RealConfig;
use crate::sharded::run_sharded_impl;
use mmoc_core::run::{ExperimentEngine, RunError, RunReport, RunSpec, TraceSpec};

impl ExperimentEngine for RealConfig {
    fn run_experiment<T: TraceSpec + ?Sized>(
        &self,
        spec: &RunSpec,
        trace: &T,
    ) -> Result<RunReport, RunError> {
        // Environment rows are parsed when the config is built; garbage
        // surfaces here as a typed error instead of a panic, so
        // `MMOC_WRITER_BATCH_WINDOW=fast cargo test` fails with a
        // message naming the variable rather than a backtrace.
        if let Some(msg) = &self.env_error {
            return Err(RunError::Config(msg.clone()));
        }
        if self.pipeline_depth == 0 {
            return Err(RunError::Config(
                "checkpoint pipeline depth must be at least 1".into(),
            ));
        }
        let mut config = self.clone();
        if let Some(hz) = spec.pacing_hz {
            config = config.paced_at_hz(hz);
        }
        if spec.fidelity_check {
            config.measure_recovery = true;
        }
        // Geometry and shard-map validation happen inside the shared run
        // on the cursor the run actually uses; failures surface as typed
        // core errors.
        run_sharded_impl(spec.algorithm, &config, spec.shards, spec.batching, || {
            trace.open()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmoc_core::{Algorithm, Run, StateGeometry};
    use mmoc_workload::SyntheticConfig;

    fn trace_spec() -> SyntheticConfig {
        SyntheticConfig {
            geometry: StateGeometry::test_small(),
            ticks: 40,
            updates_per_tick: 300,
            skew: 0.7,
            seed: 4242,
        }
    }

    fn config(dir: &std::path::Path) -> RealConfig {
        RealConfig::new(dir).with_query_ops(64)
    }

    #[test]
    fn unshardable_geometry_is_a_typed_core_error() {
        let dir = tempfile::tempdir().unwrap();
        let err = Run::algorithm(Algorithm::CopyOnUpdate)
            .engine(config(dir.path()))
            .trace(trace_spec())
            .shards(1_000_000)
            .execute()
            .unwrap_err();
        assert!(matches!(err, RunError::Core(_)), "{err}");
    }

    /// Garbage in a `MMOC_*` environment row is recorded in the config
    /// when it is built and must surface as a typed [`RunError::Config`]
    /// at execute time — never a panic, and never a silently ignored run.
    /// Injected directly (instead of via `std::env::set_var`) so parallel
    /// tests don't race on the process environment.
    #[test]
    fn deferred_env_parse_errors_surface_as_typed_config_errors() {
        let dir = tempfile::tempdir().unwrap();
        let mut engine = config(dir.path());
        engine.env_error =
            Some("unrecognized MMOC_WRITER_BATCH_WINDOW value \"fast\"; use e.g. \"2ms\"".into());
        let err = Run::algorithm(Algorithm::CopyOnUpdate)
            .engine(engine)
            .trace(trace_spec())
            .execute()
            .unwrap_err();
        assert!(matches!(err, RunError::Config(_)), "{err}");
        assert!(
            err.to_string().contains("MMOC_WRITER_BATCH_WINDOW"),
            "{err}"
        );
    }

    /// Regression: depth 0 used to be a panic in the builder and a silent
    /// clamp to 1 when the field was assigned. Either spelling is one
    /// typed error now.
    #[test]
    fn zero_pipeline_depth_is_a_typed_config_error() {
        let dir = tempfile::tempdir().unwrap();
        let built = config(dir.path()).with_pipeline_depth(0);
        let mut assigned = config(dir.path());
        assigned.pipeline_depth = 0;
        for engine in [built, assigned] {
            let err = Run::algorithm(Algorithm::PartialRedo)
                .engine(engine)
                .trace(trace_spec())
                .execute()
                .unwrap_err();
            assert!(matches!(err, RunError::Config(_)), "{err}");
            assert!(err.to_string().contains("pipeline depth"), "{err}");
        }
    }

    #[test]
    fn fidelity_check_forces_the_recovery_measurement() {
        let dir = tempfile::tempdir().unwrap();
        let engine = config(dir.path()).without_recovery();
        let off = Run::algorithm(Algorithm::CopyOnUpdate)
            .engine(engine.clone())
            .trace(trace_spec())
            .execute()
            .unwrap();
        assert!(off.recovery_s().is_none());
        assert!(off.serial_recovery_s().is_none());
        assert!(off.verified_consistent().is_none());

        let dir2 = tempfile::tempdir().unwrap();
        let on = Run::algorithm(Algorithm::CopyOnUpdate)
            .engine(config(dir2.path()).without_recovery())
            .trace(trace_spec())
            .fidelity_check(true)
            .execute()
            .unwrap();
        assert_eq!(on.verified_consistent(), Some(true));
        assert!(on.recovery_s().unwrap() > 0.0);
    }
}
