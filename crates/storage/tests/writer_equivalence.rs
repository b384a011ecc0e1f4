//! Differential backend equivalence: the single batched writer loop must
//! be **recovery-equivalent** to the historical thread pool.
//!
//! For every cell of the (algorithm × shard count) matrix, the same trace
//! runs under every writer configuration — the thread pool, the batched
//! engine under its default durability scheduler (cross-shard fsync
//! coalescing), and the batched engine with coalescing plus a nonzero
//! adaptive batch window — then every shard of every run is
//! independently crash-recovered from its files and the recovered states
//! are compared **byte for byte** — against each other and against the
//! ground truth of replaying the full trace. Wall-clock checkpoint
//! cadence is scheduler-dependent, so raw file bytes differ run to run
//! under *either* backend; the byte-identical-files half of the
//! equivalence matrix therefore lives at the deterministic job-stream
//! level in `src/writer.rs`'s differential unit tests (which also pin
//! that window 0 + coalescing off reproduces the historical files bit
//! for bit), and this suite pins the end-to-end property the acceptance
//! criterion names: identical recovered state across the full
//! 6 × {1, 4}-shard matrix under every durability policy.

use mmoc_core::{
    Algorithm, DiskOrg, EngineDetail, ObjectId, Run, RunReport, ShardFilter, ShardMap, StateTable,
    WriterBackend,
};
use mmoc_storage::recovery::{recover_from_disk, RecoveryOpts};
use mmoc_storage::{shard_dir, RealConfig};
use mmoc_workload::SyntheticConfig;
use std::path::Path;

const TICKS: u64 = 24;
const SHARD_COUNTS: [u32; 2] = [1, 4];

/// Deliberately small: this suite runs 6 algorithms × {1, 4} shards ×
/// both writer backends of real-engine work concurrently with every
/// other test binary.
fn trace_config() -> SyntheticConfig {
    SyntheticConfig {
        geometry: mmoc_core::StateGeometry::test_small(),
        ticks: TICKS,
        updates_per_tick: 300,
        skew: 0.8,
        seed: 4711,
    }
}

/// One writer configuration of the differential matrix: a backend plus
/// the durability-scheduler policy it runs under.
#[derive(Clone, Copy)]
struct WriterConfig {
    label: &'static str,
    backend: WriterBackend,
    window_us: u64,
    coalesce: bool,
}

/// The matrix's writer axis: the historical pool, the batched engine
/// under its default policy (fsync coalescing on, no window), and the
/// batched engine with coalescing *and* a nonzero adaptive batch window
/// — every durability-scheduler path must recover identical state.
const WRITER_CONFIGS: [WriterConfig; 3] = [
    WriterConfig {
        label: "pool",
        backend: WriterBackend::ThreadPool,
        window_us: 0,
        coalesce: false,
    },
    WriterConfig {
        label: "batched-coalesced",
        backend: WriterBackend::AsyncBatched,
        window_us: 0,
        coalesce: true,
    },
    WriterConfig {
        label: "batched-windowed",
        backend: WriterBackend::AsyncBatched,
        window_us: 400,
        coalesce: true,
    },
];

fn run_with(cfg: WriterConfig, alg: Algorithm, shards: u32, dir: &Path) -> RunReport {
    Run::algorithm(alg)
        .engine(
            RealConfig::new(dir)
                .with_query_ops(64)
                .with_writer_backend(cfg.backend)
                .with_batch_window(std::time::Duration::from_micros(cfg.window_us))
                .with_fsync_coalescing(cfg.coalesce),
        )
        .trace(trace_config())
        .shards(shards)
        .execute()
        .unwrap_or_else(|e| panic!("{alg} x{shards} [{}]: {e}", cfg.label))
}

/// Crash-recover one shard of a finished run directly from its files:
/// restore the newest consistent image, replay the shard's slice of the
/// deterministic trace to the crash tick.
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

fn assert_tables_byte_identical(a: &StateTable, b: &StateTable, label: &str) {
    let g = *a.geometry();
    assert_eq!(a.fingerprint(), b.fingerprint(), "{label}: fingerprints");
    for obj in 0..g.n_objects() {
        assert_eq!(
            a.object_bytes(ObjectId(obj)).unwrap(),
            b.object_bytes(ObjectId(obj)).unwrap(),
            "{label}: object {obj} bytes diverge"
        );
    }
}

/// The full differential matrix: every (algorithm, shard count) cell runs
/// under every writer configuration — pool, batched with coalescing, and
/// batched with coalescing plus a nonzero batch window — and recovers to
/// byte-identical state.
#[test]
fn every_matrix_cell_recovers_identically_under_both_backends() {
    let root = tempfile::tempdir().unwrap();
    for alg in Algorithm::ALL {
        let disk_org = alg.spec().disk_org;
        for n in SHARD_COUNTS {
            let map = ShardMap::new(trace_config().geometry, n).unwrap();
            let mut recovered: Vec<Vec<StateTable>> = Vec::new();
            for cfg in WRITER_CONFIGS {
                let label = cfg.label;
                let dir = root
                    .path()
                    .join(format!("{}_{n}_{label}", alg.short_name()));
                let report = run_with(cfg, alg, n, &dir);
                // The engine's own end-of-run measurement must round-trip…
                assert_eq!(report.ticks, TICKS, "{alg} x{n} [{label}]");
                assert!(
                    report.world.checkpoints_completed > 0,
                    "{alg} x{n} [{label}]"
                );
                assert_eq!(
                    report.verified_consistent(),
                    Some(true),
                    "{alg} x{n} [{label}]: recovery must reproduce the crash state"
                );
                match report.detail {
                    EngineDetail::Real(d) => {
                        // The report names the backend that ran: the
                        // requested one.
                        assert_eq!(d.writer_backend, cfg.backend, "{alg} x{n} [{label}]");
                        assert_eq!(d.writer_fallback_from, None, "{alg} x{n} [{label}]");
                        // The durability instrumentation holds across the
                        // whole matrix: every checkpoint is one flush job,
                        // and coalescing can only ever *save* fsyncs.
                        assert_eq!(
                            d.flush_jobs, report.world.checkpoints_completed,
                            "{alg} x{n} [{label}]: one flush job per checkpoint"
                        );
                        assert!(
                            d.data_fsyncs <= d.flush_jobs,
                            "{alg} x{n} [{label}]: fsyncs cannot exceed jobs"
                        );
                        if cfg.backend == WriterBackend::ThreadPool {
                            assert_eq!(
                                d.data_fsyncs, d.flush_jobs,
                                "{alg} x{n} [{label}]: coalescing off pays one fsync per job"
                            );
                            assert_eq!(d.pool_threads, n as usize, "{alg} x{n}: a loop per shard");
                            assert!(
                                d.max_batch_jobs <= d.pipeline_depth,
                                "{alg} x{n} [{label}]: a one-shard loop batches at most \
                                 depth jobs"
                            );
                        }
                        assert!(d.avg_batch_jobs >= 1.0, "{alg} x{n} [{label}]");
                        // No faults are injected: a healthy disk.
                        assert_eq!(
                            (d.retries, d.retry_exhausted),
                            (0, 0),
                            "{alg} x{n} [{label}]"
                        );
                        assert!(d.bytes_written > 0, "{alg} x{n} [{label}]");
                    }
                    _ => panic!("real detail expected"),
                }
                // …and an independent recovery straight from the files
                // gives us the state to diff across configurations.
                recovered.push(
                    (0..n as usize)
                        .map(|s| recover_shard(&dir, disk_org, &map, s))
                        .collect(),
                );
            }
            let pool = &recovered[0];
            for s in 0..n as usize {
                let truth = shard_truth(&map, s);
                for (c, tables) in recovered.iter().enumerate() {
                    let label = format!("{alg} x{n} [{}] shard {s}", WRITER_CONFIGS[c].label);
                    assert_tables_byte_identical(&pool[s], &tables[s], &label);
                    assert_tables_byte_identical(&tables[s], &truth, &label);
                }
            }
        }
    }
}

/// The retired `io-uring` name, on every host: a run requesting it runs
/// the batched loop, says so in its report, and recovers byte-identical
/// state to a run requesting `async-batched` — for both disk
/// organizations over four shards.
#[test]
fn the_retired_ring_name_runs_and_reports_the_batched_loop() {
    let root = tempfile::tempdir().unwrap();
    let n = 4;
    let map = ShardMap::new(trace_config().geometry, n).unwrap();
    for alg in [Algorithm::CopyOnUpdate, Algorithm::PartialRedo] {
        let disk_org = alg.spec().disk_org;
        let [retired, batched] = [WriterBackend::IoUring, WriterBackend::AsyncBatched].map(
            |backend| -> Vec<StateTable> {
                let cfg = WriterConfig {
                    label: backend.label(),
                    backend,
                    window_us: 0,
                    coalesce: true,
                };
                let dir = root
                    .path()
                    .join(format!("{}_{}", alg.short_name(), cfg.label));
                let report = run_with(cfg, alg, n, &dir);
                let EngineDetail::Real(d) = report.detail else {
                    panic!("real detail expected")
                };
                assert_eq!(
                    d.writer_backend,
                    WriterBackend::AsyncBatched,
                    "{alg} [{backend}]"
                );
                let fallback = (backend == WriterBackend::IoUring).then_some(backend);
                assert_eq!(d.writer_fallback_from, fallback, "{alg} [{backend}]");
                assert_eq!(d.pool_threads, 1, "{alg} [{backend}]: one loop");
                (0..n as usize)
                    .map(|s| recover_shard(&dir, disk_org, &map, s))
                    .collect()
            },
        );
        for (s, (retired, batched)) in retired.iter().zip(&batched).enumerate() {
            let label = format!("{alg} shard {s}");
            assert_tables_byte_identical(retired, batched, &label);
            assert_tables_byte_identical(retired, &shard_truth(&map, s), &label);
        }
    }
}
