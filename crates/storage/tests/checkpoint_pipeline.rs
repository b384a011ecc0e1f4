//! End-to-end checkpoint pipelining: the acceptance property of the deep
//! write path is that a multi-shard, log-organized run at pipeline depth
//! ≥ 2 amortizes durability below **one fsync per checkpoint** — several
//! of a shard's in-flight segments share the shard's log file, so the
//! batched writer's per-distinct-file durability scheduler pays one data
//! sync for all of them.
//!
//! The suite also pins the safety half of the feature: every log-organized
//! algorithm recovers byte-identically at depth 1 and depth 4 under both
//! writer backends, and copy-organized algorithms (whose checkpoints
//! mutate shared disk state and therefore never overlap) accept deep
//! configurations without changing behavior.

use mmoc_core::{
    Algorithm, DiskOrg, EngineDetail, Run, RunReport, ShardFilter, ShardMap, StateTable,
    WriterBackend,
};
use mmoc_storage::recovery::{recover_from_disk, RecoveryOpts};
use mmoc_storage::{shard_dir, RealConfig};
use mmoc_workload::SyntheticConfig;
use std::path::Path;

const TICKS: u64 = 24;

fn trace_config() -> SyntheticConfig {
    SyntheticConfig {
        geometry: mmoc_core::StateGeometry::test_small(),
        ticks: TICKS,
        updates_per_tick: 300,
        skew: 0.8,
        seed: 90210,
    }
}

fn real_detail(report: &RunReport) -> mmoc_core::RealRunDetail {
    match report.detail {
        EngineDetail::Real(d) => d,
        _ => panic!("real detail expected"),
    }
}

/// Ground truth for one shard: apply its full filtered trace to a fresh
/// table.
fn shard_truth(map: &ShardMap, shard: usize) -> StateTable {
    let mut table = StateTable::new(map.shard_geometry(shard)).unwrap();
    let mut src = ShardFilter::new(trace_config().build(), map.clone(), shard);
    let mut buf = Vec::new();
    while mmoc_core::TraceSource::next_tick(&mut src, &mut buf) {
        for &u in &buf {
            table.apply_unchecked(u);
        }
    }
    table
}

fn recover_shard(dir: &Path, disk_org: DiskOrg, map: &ShardMap, shard: usize) -> StateTable {
    let n = map.n_shards();
    let sdir = shard_dir(dir, shard, n);
    let g = map.shard_geometry(shard);
    let mut replay = ShardFilter::new(trace_config().build(), map.clone(), shard);
    let opts = RecoveryOpts::default();
    let rec = recover_from_disk(disk_org, &sdir, g, &mut replay, TICKS, &opts)
        .unwrap_or_else(|e| panic!("shard {shard}: {e}"));
    rec.table
}

/// The headline number: a 4-shard Partial-Redo run (the log-organized
/// algorithm whose non-full checkpoints are eager, pipelineable appends)
/// at depth 4 under the batched writer drops below 1.0 data fsyncs per
/// completed checkpoint — something structurally impossible at depth 1,
/// where a batch can never hold two of one shard's jobs. A generous batch
/// window makes the property deterministic: any batch holding more jobs
/// than there are shards must, by pigeonhole, sync some log file once for
/// at least two segments.
#[test]
fn deep_pipeline_drops_below_one_fsync_per_checkpoint() {
    let dir = tempfile::tempdir().unwrap();
    let report = Run::algorithm(Algorithm::PartialRedo)
        .engine(
            RealConfig::new(dir.path())
                .with_query_ops(64)
                .with_writer_backend(WriterBackend::AsyncBatched)
                .with_batch_window(std::time::Duration::from_millis(1))
                .with_pipeline_depth(4),
        )
        .trace(trace_config())
        .shards(4)
        .execute()
        .expect("deep pipelined run");
    assert_eq!(report.verified_consistent(), Some(true));
    let d = real_detail(&report);
    assert_eq!(d.pipeline_depth, 4, "configured depth is reported");
    assert_eq!(d.device_syncs, 0, "device barrier is off by default");
    assert!(d.flush_jobs >= 8, "enough checkpoints to amortize");
    assert!(
        d.avg_batch_jobs > 1.0,
        "pipelined jobs coalesce into shared batches (got {})",
        d.avg_batch_jobs
    );
    assert!(
        d.fsyncs_per_job() < 1.0,
        "depth-4 log run must amortize durability below one fsync per \
         checkpoint, got {:.3} ({} fsyncs / {} jobs)",
        d.fsyncs_per_job(),
        d.data_fsyncs,
        d.flush_jobs
    );
}

/// Safety across the depth axis: every log-organized algorithm recovers
/// byte-identically at depth 1 and depth 4, under both writer backends —
/// the pipeline reorders nothing an observer of the recovered state can
/// see.
#[test]
fn log_algorithms_recover_identically_at_every_depth_and_backend() {
    let n = 4u32;
    let map = ShardMap::new(trace_config().geometry, n).unwrap();
    let log_algorithms = Algorithm::ALL
        .into_iter()
        .filter(|a| a.spec().disk_org == DiskOrg::Log);
    for alg in log_algorithms {
        let mut recovered: Vec<Vec<StateTable>> = Vec::new();
        for backend in WriterBackend::ALL {
            for depth in [1u32, 4] {
                let dir = tempfile::tempdir().unwrap();
                let report = Run::algorithm(alg)
                    .engine(
                        RealConfig::new(dir.path())
                            .without_recovery()
                            .with_query_ops(64)
                            .with_writer_backend(backend)
                            .with_pipeline_depth(depth),
                    )
                    .trace(trace_config())
                    .shards(n)
                    .execute()
                    .unwrap_or_else(|e| panic!("{alg} [{backend} d{depth}]: {e}"));
                assert_eq!(
                    real_detail(&report).pipeline_depth,
                    depth,
                    "{alg} [{backend}]"
                );
                assert!(
                    report.world.checkpoints_completed > 0,
                    "{alg} [{backend} d{depth}]"
                );
                recovered.push(
                    (0..n as usize)
                        .map(|s| recover_shard(dir.path(), DiskOrg::Log, &map, s))
                        .collect(),
                );
            }
        }
        for s in 0..n as usize {
            let truth = shard_truth(&map, s);
            for tables in &recovered {
                assert_eq!(
                    tables[s].fingerprint(),
                    truth.fingerprint(),
                    "{alg} shard {s}: recovered state diverged from replay truth"
                );
            }
        }
    }
}

/// Copy-organized algorithms keep their depth-1 semantics under a deep
/// configuration: their checkpoints alternate targets or sweep shared
/// state, so the driver never overlaps them — the run must still verify
/// end to end.
#[test]
fn copy_organized_algorithms_accept_deep_configs() {
    let copy_algorithms = Algorithm::ALL
        .into_iter()
        .filter(|a| a.spec().disk_org == DiskOrg::DoubleBackup);
    for alg in copy_algorithms {
        let dir = tempfile::tempdir().unwrap();
        let report = Run::algorithm(alg)
            .engine(
                RealConfig::new(dir.path())
                    .with_query_ops(64)
                    .with_writer_backend(WriterBackend::AsyncBatched)
                    .with_pipeline_depth(4),
            )
            .trace(trace_config())
            .shards(2)
            .execute()
            .unwrap_or_else(|e| panic!("{alg}: {e}"));
        assert_eq!(report.verified_consistent(), Some(true), "{alg}");
    }
}
