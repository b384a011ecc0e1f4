//! The sharded real engine: N per-shard framework loops over one world,
//! one shared writer backend, per-shard files, parallel recovery.
//!
//! The shared sharded run (`run_sharded_impl`) partitions the trace's
//! geometry with a
//! [`ShardMap`], gives every shard its own live table, bookkeeper and
//! disk organization (namespaced under `dir/shard<N>/`), and drives all
//! shards in lockstep through [`mmoc_core::ShardedDriver`]. Checkpoint
//! flush work from *all* shards is served by one shared writer backend
//! ([`crate::writer`], selected by [`RealConfig::writer_backend`]) — the
//! scaling point: writer threads are a resource shared across the world,
//! not one dedicated thread per shard.
//!
//! Because every shard owns disjoint files, shards also **recover
//! independently and in parallel**: the end-of-run measurement restores
//! and replays every shard on its own thread, and a single crashed shard
//! can be restored without touching its neighbours (see the shard crash
//! injection tests in `tests/shard_failure.rs`).

use crate::config::RealConfig;
use crate::engine::{
    live_fingerprint, make_shard, measure_recovery_tiered, shard_report, PoolJob, RealBackend,
};
use crate::recovery::RecoveryOpts;
use crate::replica::ReplicaSet;
use crate::report::{RealReport, RecoveryMeasurement, WriterStats};
use crate::writer::{spawn_writer, DurabilityConfig};
use mmoc_core::run::RunError;
use mmoc_core::{
    Algorithm, RunMetrics, ShardFilter, ShardMap, ShardedDriver, TickDriver, WriterBackend,
};
use mmoc_workload::TraceSource;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Directory holding shard `s`'s backup/log files. Single-shard runs use
/// `dir` itself (the historical layout); multi-shard runs namespace each
/// shard under `dir/shard<s>/`.
pub fn shard_dir(dir: &Path, shard: usize, n_shards: usize) -> PathBuf {
    if n_shards == 1 {
        dir.to_path_buf()
    } else {
        dir.join(format!("shard{shard}"))
    }
}

/// The parallel-recovery measurement of a sharded run.
#[derive(Debug, Clone, Copy)]
pub struct ShardedRecovery {
    /// Wall-clock time of the whole parallel restore+replay: all shards
    /// recover concurrently, so this tracks the slowest shard, not the
    /// sum.
    pub wall_s: f64,
    /// The slowest single shard's restore+replay time.
    pub max_shard_total_s: f64,
    /// Sum of all shards' restore+replay times (what a serial recovery
    /// would have cost).
    pub sum_shard_total_s: f64,
    /// True only if *every* shard's recovered state matches its live
    /// state at the crash tick.
    pub state_matches: bool,
}

/// Result of one sharded real-engine run.
#[derive(Debug, Clone)]
pub struct ShardedRealReport {
    /// Algorithm executed (the same on every shard).
    pub algorithm: Algorithm,
    /// Number of shards the world was split into.
    pub n_shards: u32,
    /// Writer backend that actually executed the shards' flush jobs.
    /// Where the requested backend was unavailable (io_uring on a kernel
    /// without it), this is the substitute, not the request.
    pub writer_backend: WriterBackend,
    /// The originally requested backend, when the run fell back to a
    /// different one ([`ShardedRealReport::writer_backend`]); `None`
    /// when the request was honored. Surfaced so reports never silently
    /// attribute results to a backend that did not run.
    pub writer_fallback_from: Option<WriterBackend>,
    /// Writer threads that served the shards' flush jobs (pool workers,
    /// or the batched engine's single submission/completion loop).
    pub pool_threads: usize,
    /// Checkpoint pipeline depth the driver ran at (1 = the historical
    /// one-in-flight engine).
    pub pipeline_depth: u32,
    /// Replication factor K of the in-memory recovery tier this run
    /// pushed checkpoint deltas to (0 = the tier was off and every
    /// recovery came from disk).
    pub replication_factor: u32,
    /// Global ticks executed.
    pub ticks: u64,
    /// Total updates routed across all shards.
    pub updates: u64,
    /// Checkpoints completed, summed over shards.
    pub checkpoints_completed: u64,
    /// Average per-tick overhead of the world (per-tick max across
    /// shards, averaged over ticks).
    pub avg_overhead_s: f64,
    /// Worst single-tick world overhead.
    pub max_overhead_s: f64,
    /// Average checkpoint duration over all shards' checkpoints.
    pub avg_checkpoint_s: f64,
    /// Merged per-tick and per-checkpoint series
    /// ([`RunMetrics::merge_shards`]).
    pub metrics: RunMetrics,
    /// Writer-side durability instrumentation summed over shards: flush
    /// jobs, data fsync calls, batch occupancy.
    pub writer: WriterStats,
    /// One report per shard (each with its own recovery measurement).
    pub shards: Vec<RealReport>,
    /// The parallel-recovery measurement, when enabled.
    pub recovery: Option<ShardedRecovery>,
}

impl ShardedRealReport {
    /// One-line human-readable summary.
    pub fn summary(&self) -> String {
        let rec = self
            .recovery
            .map(|r| format!("{:.3} s (match: {})", r.wall_s, r.state_matches))
            .unwrap_or_else(|| "n/a".into());
        format!(
            "{:<28} x{:<2} shards  overhead {:>9.4} ms  checkpoint {:>7.3} s  recovery {rec}",
            self.algorithm.name(),
            self.n_shards,
            self.avg_overhead_s * 1e3,
            self.avg_checkpoint_s,
        )
    }
}

/// The shared sharded run: the single definition of a real-engine
/// experiment that every public entry point — the unified builder, and
/// with `n_shards == 1` the in-crate single-shard tests — executes.
///
/// When [`RealConfig::paced`] is set the run paces **once per global
/// tick** through [`ShardedDriver::run_with`]: all shards execute the
/// tick back to back, then the mutator sleeps out the remainder of the
/// tick period — N per-shard sleeps would stretch the world's tick
/// N-fold.
pub(crate) fn run_sharded_impl<S, F>(
    algorithm: Algorithm,
    config: &RealConfig,
    n_shards: u32,
    batching: bool,
    make_trace: F,
) -> Result<ShardedRealReport, RunError>
where
    S: TraceSource,
    F: Fn() -> S + Sync,
{
    let mut trace = make_trace();
    let geometry = trace.geometry();
    let map = ShardMap::new(geometry, n_shards)?;
    let n = map.n_shards();
    let spec = algorithm.spec();
    let pool_threads = config.effective_pool_threads(n);
    let pipeline_depth = config.pipeline_depth;

    // Per-shard live state, stores and backends, sharing one job queue
    // sized to the deepest possible backlog: every shard pipelined to
    // the configured depth.
    let (job_tx, job_rx) = crossbeam::channel::bounded::<PoolJob>(n * pipeline_depth as usize);

    // The replica tier: an installed set wins (the caller retains its own
    // handle to drive recovery), else a non-zero factor builds one owned
    // by this run. Each shard's ShardCtx shares the Arc so the writer
    // completion seam can publish deltas from any worker thread.
    let replicas: Option<Arc<ReplicaSet>> = match &config.replica_set {
        Some(set) => Some(Arc::clone(set)),
        None if config.replication_factor > 0 => {
            let geometries: Vec<_> = (0..n).map(|s| map.shard_geometry(s)).collect();
            Some(Arc::new(ReplicaSet::new(
                config.replication_factor,
                &geometries,
            )))
        }
        None => None,
    };
    let replication_factor = replicas.as_ref().map_or(0, |r| r.factor());

    let mut ctxs = Vec::with_capacity(n);
    let mut built = Vec::with_capacity(n);
    for s in 0..n {
        let (ctx, backend) = make_shard(
            algorithm,
            config,
            map.shard_geometry(s),
            s,
            n,
            &shard_dir(&config.dir, s, n),
            job_tx.clone(),
            replicas.clone(),
        )?;
        ctxs.push(ctx);
        built.push(backend);
    }
    let ctxs = Arc::new(ctxs);
    let (mut pool, effective_backend) = spawn_writer(
        config.writer_backend,
        Arc::clone(&ctxs),
        pool_threads,
        job_rx,
        DurabilityConfig {
            batch_window: config.batch_window,
            auto_window: config.auto_window,
            coalesce_fsync: config.coalesce_fsync,
            device_sync: config.device_sync,
            pipeline_depth,
        },
    );
    // `backends` is declared after `pool`, so on an early `?` return it
    // drops first, releasing its job senders before the writer joins.
    let mut backends: Vec<RealBackend> = built;
    drop(job_tx);

    // Drive every shard in lockstep over the global trace, sleeping out
    // the remainder of each *global* tick when paced.
    let driver = ShardedDriver::new(
        TickDriver::new(spec)
            .with_batching(batching)
            .with_pipeline_depth(pipeline_depth),
        map.clone(),
    );
    let mut tick_start = Instant::now();
    let run = driver.run_with(&mut trace, &mut backends, |_tick| {
        if config.paced {
            std::thread::sleep(config.tick_period.saturating_sub(tick_start.elapsed()));
            tick_start = Instant::now();
        }
    })?;

    // All checkpoints drained: wind the pool down before measuring
    // recovery, so no worker races the files being read back.
    for b in &mut backends {
        b.release_writer();
    }
    pool.shutdown();

    // Parallel per-shard recovery: one thread per shard, each restoring
    // its own files and replaying its slice of the trace.
    let recovery = if config.measure_recovery {
        let crash_tick = run.ticks;
        let fingerprints: Vec<u64> = backends.iter().map(live_fingerprint).collect();
        // Production recoveries run under the same crash/fault
        // instrumentation and retry budget as the writer path.
        let opts = RecoveryOpts {
            crash: config.crash.clone(),
            fault: config.fault.clone(),
            retry: config.retry_policy(),
        };
        let t0 = Instant::now();
        let results: Vec<io::Result<RecoveryMeasurement>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..n)
                .map(|s| {
                    let map = &map;
                    let make_trace = &make_trace;
                    let dir = shard_dir(&config.dir, s, n);
                    let fp = fingerprints[s];
                    let replicas = replicas.as_deref();
                    let opts = &opts;
                    scope.spawn(move || {
                        let mut replay = ShardFilter::new(make_trace(), map.clone(), s);
                        measure_recovery_tiered(
                            spec.disk_org,
                            &dir,
                            map.shard_geometry(s),
                            &mut replay,
                            crash_tick,
                            fp,
                            replicas,
                            s as u32,
                            opts,
                        )
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("shard recovery thread"))
                .collect()
        });
        let wall_s = t0.elapsed().as_secs_f64();
        let measurements: Vec<RecoveryMeasurement> =
            results.into_iter().collect::<io::Result<_>>()?;
        Some((wall_s, measurements))
    } else {
        None
    };

    // Assemble per-shard and world-level reports.
    let (sharded_recovery, mut per_shard_rec) = match recovery {
        Some((wall_s, ms)) => {
            let max = ms.iter().map(|m| m.total_s).fold(0.0f64, f64::max);
            let sum = ms.iter().map(|m| m.total_s).sum();
            let all_match = ms.iter().all(|m| m.state_matches);
            (
                Some(ShardedRecovery {
                    wall_s,
                    max_shard_total_s: max,
                    sum_shard_total_s: sum,
                    state_matches: all_match,
                }),
                ms.into_iter().map(Some).collect::<Vec<_>>(),
            )
        }
        None => (None, vec![None; n]),
    };

    let metrics = run.merged_metrics();
    let writer_stats: Vec<WriterStats> = backends.iter().map(RealBackend::writer_stats).collect();
    let mut writer = WriterStats::default();
    for s in &writer_stats {
        writer.merge(*s);
    }
    let shards: Vec<RealReport> = run
        .shards
        .into_iter()
        .enumerate()
        .map(|(s, r)| shard_report(algorithm, r, writer_stats[s], per_shard_rec[s].take()))
        .collect();

    Ok(ShardedRealReport {
        algorithm,
        n_shards,
        writer_backend: effective_backend,
        writer_fallback_from: (config.writer_backend != effective_backend)
            .then_some(config.writer_backend),
        pool_threads,
        pipeline_depth,
        replication_factor,
        writer,
        ticks: run.ticks,
        updates: run.updates,
        checkpoints_completed: metrics.checkpoints.len() as u64,
        avg_overhead_s: metrics.avg_overhead_s(),
        max_overhead_s: metrics.max_overhead_s(),
        avg_checkpoint_s: metrics.avg_checkpoint_s(),
        metrics,
        shards,
        recovery: sharded_recovery,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmoc_core::StateGeometry;
    use mmoc_workload::SyntheticConfig;

    fn config(dir: &std::path::Path) -> RealConfig {
        let mut c = RealConfig::new(dir);
        c.query_ops_per_tick = 64;
        c
    }

    fn trace_config() -> SyntheticConfig {
        SyntheticConfig {
            geometry: StateGeometry::test_small(),
            ticks: 40,
            updates_per_tick: 300,
            skew: 0.7,
            seed: 4242,
        }
    }

    #[test]
    fn four_shards_run_and_recover_for_all_algorithms() {
        for alg in Algorithm::ALL {
            let dir = tempfile::tempdir().unwrap();
            let report = run_sharded_impl(alg, &config(dir.path()), 4, false, || {
                trace_config().build()
            })
            .unwrap_or_else(|e| panic!("{alg}: {e}"));
            assert_eq!(report.n_shards, 4);
            assert_eq!(report.shards.len(), 4);
            assert_eq!(report.ticks, 40, "{alg}");
            assert_eq!(report.updates, 40 * 300, "{alg}");
            let rec = report.recovery.expect("recovery measured");
            assert!(rec.state_matches, "{alg}: some shard diverged");
            for (s, shard) in report.shards.iter().enumerate() {
                assert!(
                    shard.recovery.expect("per-shard recovery").state_matches,
                    "{alg} shard {s}"
                );
                assert!(shard.checkpoints_completed > 0, "{alg} shard {s}");
            }
            // Per-shard files are namespaced.
            for s in 0..4 {
                assert!(
                    shard_dir(dir.path(), s, 4).is_dir(),
                    "{alg}: missing shard dir {s}"
                );
            }
        }
    }

    #[test]
    fn one_shard_uses_the_historical_layout_and_counts() {
        let dir = tempfile::tempdir().unwrap();
        let report = run_sharded_impl(
            Algorithm::CopyOnUpdate,
            &config(dir.path()),
            1,
            false,
            || trace_config().build(),
        )
        .unwrap();
        assert_eq!(report.n_shards, 1);
        assert_eq!(report.pool_threads, 1, "single shard = pool of one");
        // Files live directly under the run directory, as before.
        assert!(dir.path().join("backup_0.img").is_file());
        assert!(report.recovery.unwrap().state_matches);
    }

    #[test]
    fn writer_pool_is_shared_not_per_shard() {
        let dir = tempfile::tempdir().unwrap();
        let mut cfg = config(dir.path()).without_recovery();
        cfg.writer_pool_threads = 2; // 2 workers serving 4 shards
        let report = run_sharded_impl(Algorithm::NaiveSnapshot, &cfg, 4, false, || {
            trace_config().build()
        })
        .unwrap();
        assert_eq!(report.pool_threads, 2);
        assert_eq!(report.shards.len(), 4);
        for shard in &report.shards {
            assert!(shard.checkpoints_completed > 0);
        }
    }

    #[test]
    fn sharded_totals_conserve_work() {
        let dir = tempfile::tempdir().unwrap();
        let report = run_sharded_impl(
            Algorithm::CopyOnUpdate,
            &config(dir.path()).without_recovery(),
            4,
            false,
            || trace_config().build(),
        )
        .unwrap();
        let per_shard: u64 = report.shards.iter().map(|s| s.updates).sum();
        assert_eq!(per_shard, report.updates);
        let ckpts: u64 = report.shards.iter().map(|s| s.checkpoints_completed).sum();
        assert_eq!(ckpts, report.checkpoints_completed);
    }
}
