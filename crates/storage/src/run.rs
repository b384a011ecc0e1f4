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
use crate::report::{RealReport, RecoveryMeasurement};
use crate::sharded::{run_sharded_impl, ShardedRealReport};
use mmoc_core::run::{
    EngineDetail, ExperimentEngine, RealRunDetail, RecoveryReport, RunError, RunReport, RunSpec,
    RunSummary, ShardReport, TraceSpec,
};

impl ExperimentEngine for RealConfig {
    fn run_experiment<T: TraceSpec + ?Sized>(
        &self,
        spec: &RunSpec,
        trace: &T,
    ) -> Result<RunReport, RunError> {
        // Environment rows are parsed when the config is built; garbage
        // surfaces here as a typed error instead of a panic, so
        // `MMOC_WRITER_BATCH_WINDOW=fast cargo bench` fails with a
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
        let report = run_sharded_impl(spec.algorithm, &config, spec.shards, spec.batching, || {
            trace.open()
        })?;
        Ok(into_run_report(report))
    }
}

/// Map the real engine's sharded report into the unified cross-engine
/// shape.
fn into_run_report(report: ShardedRealReport) -> RunReport {
    let shards = report
        .shards
        .iter()
        .enumerate()
        .map(|(s, r)| shard_report(s as u32, r))
        .collect();
    RunReport {
        algorithm: report.algorithm,
        engine: "real",
        n_shards: report.n_shards,
        ticks: report.ticks,
        updates: report.updates,
        // Shards restore in parallel: the world is back when the measured
        // parallel recovery finishes.
        world: RunSummary::from_metrics(report.metrics, report.recovery.map(|r| r.wall_s)),
        shards,
        detail: EngineDetail::Real(RealRunDetail {
            writer_backend: report.writer_backend,
            writer_fallback_from: report.writer_fallback_from,
            pool_threads: report.pool_threads,
            pipeline_depth: report.pipeline_depth,
            replication_factor: report.replication_factor,
            flush_jobs: report.writer.flush_jobs,
            data_fsyncs: report.writer.data_fsyncs,
            device_syncs: report.writer.device_syncs,
            avg_batch_jobs: report.writer.avg_batch_jobs(),
            max_batch_jobs: report.writer.max_batch_jobs,
            bytes_written: report.writer.bytes_written,
            retries: report.writer.retries,
            retry_exhausted: report.writer.retry_exhausted,
            degraded_jobs: report.writer.degraded_jobs,
            avg_sqe_batch: report.writer.avg_sqe_batch(),
            max_sqe_batch: report.writer.max_sqe_batch,
            recovery_wall_s: report.recovery.map(|r| r.wall_s),
            serial_recovery_s: report.recovery.map(|r| r.sum_shard_total_s),
        }),
    }
}

fn shard_report(shard: u32, r: &RealReport) -> ShardReport {
    ShardReport {
        shard,
        ticks: r.ticks,
        updates: r.updates,
        summary: RunSummary::from_metrics(r.metrics.clone(), r.recovery.map(|m| m.total_s)),
        recovery: r.recovery.map(recovery_report),
        // The real engine's value-level verification is the recovery
        // round-trip above; shadow-disk fidelity is simulator-only.
        fidelity: None,
    }
}

fn recovery_report(m: RecoveryMeasurement) -> RecoveryReport {
    RecoveryReport {
        restore_s: m.restore_s,
        replay_s: m.replay_s,
        total_s: m.total_s,
        measured: true,
        restored_from_tick: Some(m.restored_from_tick),
        ticks_replayed: Some(m.ticks_replayed),
        updates_replayed: Some(m.updates_replayed),
        state_matches: Some(m.state_matches),
        from_replica: Some(m.from_replica),
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
    fn builder_runs_the_real_engine_and_recovers() {
        let dir = tempfile::tempdir().unwrap();
        let report = Run::algorithm(Algorithm::CopyOnUpdate)
            .engine(config(dir.path()))
            .trace(trace_spec())
            .execute()
            .expect("real run");
        assert_eq!(report.engine, "real");
        assert_eq!(report.n_shards, 1);
        assert_eq!(report.ticks, 40);
        assert_eq!(report.updates, 40 * 300);
        assert_eq!(report.shards.len(), 1, "trivial shard breakdown");
        let rec = report.shards[0].recovery.as_ref().expect("measured");
        assert!(rec.measured);
        assert_eq!(rec.state_matches, Some(true));
        assert_eq!(report.verified_consistent(), Some(true));
        // The historical single-shard file layout is preserved.
        assert!(dir.path().join("backup_0.img").is_file());
    }

    #[test]
    fn builder_shards_split_the_world() {
        let dir = tempfile::tempdir().unwrap();
        let report = Run::algorithm(Algorithm::NaiveSnapshot)
            .engine(config(dir.path()))
            .trace(trace_spec())
            .shards(4)
            .execute()
            .expect("sharded real run");
        assert_eq!(report.n_shards, 4);
        assert_eq!(report.shards.len(), 4);
        assert_eq!(report.verified_consistent(), Some(true));
        let per_shard: u64 = report.shards.iter().map(|s| s.updates).sum();
        assert_eq!(per_shard, report.updates);
        match report.detail {
            EngineDetail::Real(d) => {
                assert!(d.pool_threads >= 1);
                assert!(d.recovery_wall_s.is_some());
                assert!(d.serial_recovery_s.unwrap() > 0.0);
            }
            _ => panic!("real detail expected"),
        }
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
