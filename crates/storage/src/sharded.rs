//! The sharded real engine: N per-shard framework loops over one world,
//! one shared writer backend, per-shard files, parallel recovery.
//!
//! The shared sharded run (`run_sharded_impl`) partitions the trace's
//! geometry with a
//! [`ShardMap`], gives every shard its own live table, bookkeeper and
//! disk organization (namespaced under `dir/shard<N>/`), and drives all
//! shards in lockstep through [`mmoc_core::ShardedDriver`]. Checkpoint
//! flush work from *all* shards is served by one writer
//! ([`crate::writer`], selected by [`RealConfig::writer_backend`]) whose
//! loops each own a fixed group of shards — the scaling point: writer
//! threads are a resource sized to the storage device, not one
//! dedicated thread per shard.
//!
//! Because every shard owns disjoint files, shards also **recover
//! independently and in parallel**: the end-of-run measurement restores
//! and replays every shard on its own thread, and a single crashed shard
//! can be restored without touching its neighbours (see the shard crash
//! injection tests in `tests/shard_failure.rs`).

use crate::config::RealConfig;
use crate::engine::{live_fingerprint, make_shard, measure_recovery, RealBackend};
use crate::inject::RetryCounters;
use crate::recovery::RecoveryOpts;
use crate::replica::ReplicaSet;
use crate::report::WriterStats;
use crate::writer::{job_channels, spawn_writer};
use mmoc_core::run::{
    EngineDetail, RealRunDetail, RecoveryReport, RunError, RunReport, RunSummary, ShardReport,
};
use mmoc_core::{Algorithm, ShardFilter, ShardMap, ShardedDriver, TickDriver};
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

/// The shared sharded run: the single definition of a real-engine
/// experiment, executed by the unified builder at every shard count.
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
) -> Result<RunReport, RunError>
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

    // Per-shard live state, stores and backends, each shard sending to
    // the job queue of the writer loop that owns it.
    let (job_txs, job_rxs) = job_channels(n, pool_threads, pipeline_depth);

    // The replica tier, resolved once into the run's copy of the config
    // that every writer loop reads: an installed set wins (the caller
    // retains its own handle to drive recovery), else a non-zero factor
    // builds one owned by this run.
    let mut config = config.clone();
    if config.replica_set.is_none() && config.replication_factor > 0 {
        let geometries: Vec<_> = (0..n).map(|s| map.shard_geometry(s)).collect();
        let set = ReplicaSet::new(config.replication_factor, &geometries);
        config.replica_set = Some(Arc::new(set));
    }
    let replication_factor = config.replica_set.as_ref().map_or(0, |r| r.factor());

    let mut ctxs = Vec::with_capacity(n);
    let mut built = Vec::with_capacity(n);
    for (s, job_tx) in job_txs.into_iter().enumerate() {
        let dir = shard_dir(&config.dir, s, n);
        let geometry = map.shard_geometry(s);
        let (ctx, backend) = make_shard(algorithm, &config, geometry, s, n, &dir, job_tx)?;
        ctxs.push(ctx);
        built.push(backend);
    }
    // The loops take the shard contexts, and with them the completion
    // senders: a loop that dies disconnects its shards' backends.
    let (mut pool, effective_backend) = spawn_writer(&config, ctxs, job_rxs);
    // `backends` is declared after `pool`, so on an early `?` return it
    // drops first, releasing its job senders before the writer joins.
    let mut backends: Vec<RealBackend> = built;

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

    // All checkpoints drained: wind the writer down before measuring
    // recovery, so no loop races the files being read back.
    for b in &mut backends {
        b.release_writer();
    }
    pool.shutdown();

    // Parallel per-shard recovery: one thread per shard, each restoring
    // its own files and replaying its slice of the trace. Shards restore
    // in parallel, so the world is back after the measured wall time.
    let mut recoveries: Vec<Option<RecoveryReport>> = vec![None; n];
    let mut world_recovery_s = None;
    if config.measure_recovery {
        let crash_tick = run.ticks;
        let fingerprints: Vec<u64> = backends.iter().map(live_fingerprint).collect();
        // Production recoveries run under the same injection state and
        // retry budget as the writer path.
        let opts = RecoveryOpts {
            inject: config.fault.clone(),
            retry: config.retry_policy(),
        };
        let t0 = Instant::now();
        let results: Vec<io::Result<RecoveryReport>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..n)
                .map(|s| {
                    let map = &map;
                    let make_trace = &make_trace;
                    let dir = shard_dir(&config.dir, s, n);
                    let fp = fingerprints[s];
                    let replicas = config.replica_set.as_deref();
                    let opts = &opts;
                    scope.spawn(move || {
                        let mut replay = ShardFilter::new(make_trace(), map.clone(), s);
                        measure_recovery(
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
        world_recovery_s = Some(t0.elapsed().as_secs_f64());
        for (slot, result) in recoveries.iter_mut().zip(results) {
            *slot = Some(result?);
        }
    }

    // The run's writer tally is the shards' merged; its projection into
    // the report destructures exhaustively, like `WriterStats::merge`, so
    // a counter that is added but not reported does not compile.
    let mut writer = WriterStats::default();
    for b in &backends {
        writer.merge(b.writer_stats());
    }
    let WriterStats {
        flush_jobs,
        data_fsyncs,
        device_syncs,
        batch_jobs_sum,
        max_batch_jobs,
        bytes_written,
        retry: RetryCounters { retries, exhausted },
    } = writer;
    let per_job = |sum: u64| match flush_jobs {
        0 => 0.0,
        jobs => sum as f64 / jobs as f64,
    };

    let world = RunSummary::from_metrics(run.merged_metrics(), world_recovery_s);
    let shards = run
        .shards
        .into_iter()
        .zip(recoveries)
        .enumerate()
        .map(|(s, (r, recovery))| ShardReport {
            shard: s as u32,
            ticks: r.ticks,
            updates: r.updates,
            summary: RunSummary::from_metrics(r.metrics, recovery.as_ref().map(|m| m.total_s)),
            recovery,
            // The real engine's value-level verification is the recovery
            // round-trip above; shadow-disk fidelity is simulator-only.
            fidelity: None,
        })
        .collect();
    Ok(RunReport {
        algorithm,
        engine: "real",
        n_shards,
        ticks: run.ticks,
        updates: run.updates,
        world,
        shards,
        detail: EngineDetail::Real(RealRunDetail {
            writer_backend: effective_backend,
            writer_fallback_from: (config.writer_backend != effective_backend)
                .then_some(config.writer_backend),
            pool_threads,
            pipeline_depth,
            replication_factor,
            flush_jobs,
            data_fsyncs,
            device_syncs,
            avg_batch_jobs: per_job(batch_jobs_sum),
            max_batch_jobs,
            bytes_written,
            retries,
            retry_exhausted: exhausted,
            degraded_jobs: 0,
            avg_sqe_batch: 0.0,
        }),
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

    fn detail(report: &RunReport) -> RealRunDetail {
        match report.detail {
            EngineDetail::Real(d) => d,
            EngineDetail::Sim(_) => panic!("real detail expected"),
        }
    }

    /// Every algorithm runs on the real engine through the shared driver,
    /// counts its work and recovers byte-exactly — as one shard in the
    /// historical file layout and as four namespaced ones.
    #[test]
    fn all_six_algorithms_run_and_recover_at_1_and_4_shards() {
        for alg in Algorithm::ALL {
            for n in [1u32, 4] {
                let dir = tempfile::tempdir().unwrap();
                let report = mmoc_core::Run::algorithm(alg)
                    .engine(config(dir.path()))
                    .trace(trace_config())
                    .shards(n)
                    .execute()
                    .unwrap_or_else(|e| panic!("{alg} x{n}: {e}"));
                assert_eq!(report.algorithm, alg);
                assert_eq!(report.engine, "real");
                assert_eq!(report.n_shards, n);
                assert_eq!(report.shards.len(), n as usize, "{alg}");
                assert_eq!(report.ticks, 40, "{alg} x{n}");
                assert_eq!(report.updates, 40 * 300, "{alg} x{n}");
                let per_shard: u64 = report.shards.iter().map(|s| s.updates).sum();
                assert_eq!(per_shard, report.updates, "{alg} x{n}");
                for shard in &report.shards {
                    let rec = shard.recovery.as_ref().expect("per-shard recovery");
                    assert!(rec.measured);
                    assert_eq!(
                        rec.state_matches,
                        Some(true),
                        "{alg} x{n} shard {}: recovered state diverged",
                        shard.shard
                    );
                    assert!(
                        shard.summary.checkpoints_completed > 0,
                        "{alg} x{n} shard {}",
                        shard.shard
                    );
                }
                assert_eq!(report.verified_consistent(), Some(true), "{alg} x{n}");
                // The world's recovery is the measured parallel wall time;
                // the serial figure is the shards' own totals summed.
                assert!(report.recovery_s().unwrap() > 0.0, "{alg} x{n}");
                assert!(report.serial_recovery_s().unwrap() > 0.0, "{alg} x{n}");
                if n == 1 {
                    assert_eq!(
                        detail(&report).pool_threads,
                        1,
                        "single shard = pool of one"
                    );
                    // Files live directly under the run directory, as before.
                    if alg.spec().disk_org == mmoc_core::DiskOrg::DoubleBackup {
                        assert!(dir.path().join("backup_0.img").is_file(), "{alg}");
                    }
                } else {
                    assert!(detail(&report).pool_threads >= 1);
                    // Per-shard files are namespaced.
                    for s in 0..n as usize {
                        assert!(
                            shard_dir(dir.path(), s, n as usize).is_dir(),
                            "{alg}: missing shard dir {s}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn writer_pool_is_shared_not_per_shard() {
        let dir = tempfile::tempdir().unwrap();
        let mut cfg = config(dir.path())
            .without_recovery()
            .with_writer_backend(mmoc_core::WriterBackend::ThreadPool);
        cfg.writer_pool_threads = 2; // 2 loops serving 4 shards
        let report = run_sharded_impl(Algorithm::NaiveSnapshot, &cfg, 4, false, || {
            trace_config().build()
        })
        .unwrap();
        assert_eq!(detail(&report).pool_threads, 2);
        assert_eq!(report.shards.len(), 4);
        for shard in &report.shards {
            assert!(shard.summary.checkpoints_completed > 0);
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
        let ckpts: u64 = report
            .shards
            .iter()
            .map(|s| s.summary.checkpoints_completed)
            .sum();
        assert_eq!(ckpts, report.world.checkpoints_completed);
    }
}
