//! Failure injection: the double-backup protocol must survive every crash
//! point — mid-write, between data sync and metadata commit, and with
//! corrupted files — by falling back to the other (still consistent)
//! backup. "Checkpoints alternate between the two backups to ensure that
//! at all times there is at least one consistent image on the disk" (§3.2).
//!
//! The suite covers both writer backends: engine-level runs go through
//! the unified `Run` builder (picking up the process-wide
//! `MMOC_WRITER_BACKEND` default, which is how CI's backend matrix runs
//! this whole file under each backend), and a dedicated matrix pins the
//! async batched-submission engine's **mid-batch** crash window —
//! submitted-but-not-completed jobs — for all six algorithms.

use mmoc_core::{
    Algorithm, CellUpdate, DiskOrg, ObjectId, Run, RunReport, ShardFilter, ShardMap, StateGeometry,
    StateTable, TraceSpec, WriterBackend,
};
use mmoc_storage::files::BackupSet;
use mmoc_storage::recovery::{recover_and_replay, recover_and_replay_log};
use mmoc_storage::{shard_dir, RealConfig};
use mmoc_workload::{RecordedTrace, SyntheticConfig, TraceSource};

fn geometry() -> StateGeometry {
    StateGeometry::small(64, 4) // 16 objects of 64 B
}

fn image_with(fill: u8) -> Vec<u8> {
    vec![fill; 16 * 64]
}

fn empty_trace(ticks: usize) -> RecordedTrace {
    RecordedTrace::new(geometry(), vec![Vec::new(); ticks])
}

/// Run one algorithm on the real engine through the builder (single
/// shard, lightly paced so the fsync-bound writer completes several
/// checkpoints within the run).
fn run_real(alg: Algorithm, config: RealConfig, trace: impl TraceSpec) -> RunReport {
    Run::algorithm(alg)
        .engine(config)
        .trace(trace)
        .execute()
        .unwrap_or_else(|e| panic!("{alg}: {e}"))
}

/// Ground truth: the state after applying the full trace.
fn truth_of(mut src: impl TraceSource) -> StateTable {
    let mut truth = StateTable::new(src.geometry()).unwrap();
    let mut buf = Vec::new();
    while src.next_tick(&mut buf) {
        for &u in &buf {
            truth.apply_unchecked(u);
        }
    }
    truth
}

/// Crash *during* a checkpoint write: the target backup was invalidated
/// before writing began, so recovery must restore the other backup.
#[test]
fn crash_mid_write_falls_back_to_older_backup() {
    let dir = tempfile::tempdir().unwrap();
    let g = geometry();
    let mut set = BackupSet::create(dir.path(), g, &image_with(1)).unwrap();
    set.commit(0, 10).unwrap();
    set.commit(1, 20).unwrap();

    // Start writing backup 0 (the older one): invalidate, write half the
    // objects, then "crash" (drop without commit).
    set.invalidate(0).unwrap();
    for obj in 0..8u32 {
        set.write_object(0, ObjectId(obj), &[9u8; 64]).unwrap();
    }
    drop(set);

    // Recovery must pick backup 1 (tick 20), untouched by the crash.
    let t = empty_trace(25);
    let rec = recover_and_replay(dir.path(), g, &mut t.replay(), 25).unwrap();
    assert_eq!(rec.from_tick, 20);
    // The restored image is the backup-1 image, not the torn backup-0 one.
    let mut expect = StateTable::new(g).unwrap();
    expect.restore_all(&image_with(1)).unwrap();
    assert_eq!(rec.table.fingerprint(), expect.fingerprint());
}

/// Crash after data sync but before the metadata commit: same fallback.
#[test]
fn crash_before_meta_commit_is_ignored() {
    let dir = tempfile::tempdir().unwrap();
    let g = geometry();
    let mut set = BackupSet::create(dir.path(), g, &image_with(3)).unwrap();
    set.commit(1, 42).unwrap();
    set.invalidate(0).unwrap();
    set.write_run(0, ObjectId(0), &image_with(7)).unwrap();
    set.sync(0).unwrap();
    // No commit(0, ...) — crash here.
    drop(set);

    let t = empty_trace(50);
    let rec = recover_and_replay(dir.path(), g, &mut t.replay(), 50).unwrap();
    assert_eq!(rec.from_tick, 42);
}

/// A corrupted metadata file must not be trusted.
#[test]
fn corrupted_meta_is_rejected() {
    let dir = tempfile::tempdir().unwrap();
    let g = geometry();
    let mut set = BackupSet::create(dir.path(), g, &image_with(0)).unwrap();
    set.commit(0, 5).unwrap();
    set.commit(1, 9).unwrap();
    drop(set);
    // Corrupt the newer backup's metadata.
    std::fs::write(dir.path().join("backup_1.meta"), b"XXXXXXXXXXXXXXXX").unwrap();

    let t = empty_trace(10);
    let rec = recover_and_replay(dir.path(), g, &mut t.replay(), 10).unwrap();
    assert_eq!(rec.from_tick, 5, "must fall back to the intact backup");
}

/// A truncated metadata file must not be trusted either.
#[test]
fn truncated_meta_is_rejected() {
    let dir = tempfile::tempdir().unwrap();
    let g = geometry();
    let mut set = BackupSet::create(dir.path(), g, &image_with(0)).unwrap();
    set.commit(1, 33).unwrap();
    drop(set);
    std::fs::write(dir.path().join("backup_1.meta"), b"shrt").unwrap();

    let t = empty_trace(40);
    let rec = recover_and_replay(dir.path(), g, &mut t.replay(), 40).unwrap();
    assert_eq!(rec.from_tick, 0, "only the boot image remains trustworthy");
}

/// Recovery replays through the crash tick even when the log source ends
/// exactly there, and fails cleanly when both backups are gone.
#[test]
fn recovery_with_no_backups_fails_cleanly() {
    let dir = tempfile::tempdir().unwrap();
    let g = geometry();
    let mut set = BackupSet::create(dir.path(), g, &image_with(0)).unwrap();
    set.invalidate(0).unwrap();
    set.invalidate(1).unwrap();
    drop(set);
    let t = empty_trace(5);
    let err = recover_and_replay(dir.path(), g, &mut t.replay(), 5).unwrap_err();
    assert!(err.to_string().contains("no consistent backup"));
}

/// End-to-end: run a real engine, delete the *newest* backup's metadata
/// (simulating a torn final checkpoint), and verify recovery still works
/// from the previous checkpoint via replay.
#[test]
fn engine_recovers_after_losing_newest_checkpoint() {
    let dir = tempfile::tempdir().unwrap();
    let trace = SyntheticConfig {
        geometry: StateGeometry::test_small(),
        ticks: 40,
        updates_per_tick: 300,
        skew: 0.7,
        seed: 99,
    };
    let report = run_real(
        Algorithm::CopyOnUpdate,
        RealConfig::new(dir.path())
            .without_recovery()
            .paced_at_hz(400.0),
        trace,
    );
    assert!(
        report.world.checkpoints_completed >= 2,
        "need two checkpoints"
    );

    // Identify and destroy the newest backup's metadata.
    let g = trace.geometry;
    let set = BackupSet::open(dir.path(), g).unwrap();
    let (newest, newest_tick) = set.newest_consistent().unwrap();
    drop(set);
    std::fs::remove_file(dir.path().join(format!("backup_{newest}.meta"))).unwrap();

    // Recovery falls back to the older backup and replays further, still
    // reaching the exact final state.
    let mut replay = trace.build();
    let rec = recover_and_replay(dir.path(), g, &mut replay, 40).unwrap();
    assert!(rec.from_tick < newest_tick);

    // Compare against the ground truth: apply the full trace.
    assert_eq!(
        rec.table.fingerprint(),
        truth_of(trace.build()).fingerprint()
    );
}

/// The same resilience for the Naive engine.
#[test]
fn naive_engine_recovers_after_meta_loss() {
    let dir = tempfile::tempdir().unwrap();
    let trace = SyntheticConfig {
        geometry: StateGeometry::test_small(),
        ticks: 30,
        updates_per_tick: 200,
        skew: 0.5,
        seed: 5,
    };
    let report = run_real(
        Algorithm::NaiveSnapshot,
        RealConfig::new(dir.path())
            .without_recovery()
            .paced_at_hz(400.0),
        trace,
    );
    assert!(report.world.checkpoints_completed >= 2);

    let g = trace.geometry;
    let set = BackupSet::open(dir.path(), g).unwrap();
    let (newest, _) = set.newest_consistent().unwrap();
    drop(set);
    std::fs::remove_file(dir.path().join(format!("backup_{newest}.meta"))).unwrap();

    let rec = recover_and_replay(dir.path(), g, &mut trace.build(), 30).unwrap();
    assert_eq!(
        rec.table.fingerprint(),
        truth_of(trace.build()).fingerprint()
    );
}

/// Crash injection for the real Atomic-Copy-Dirty-Objects engine (one of
/// the two algorithms added by the unified driver): losing the newest
/// backup's metadata falls back to the older backup, and replay still
/// reaches the exact final state.
#[test]
fn acdo_engine_recovers_after_losing_newest_checkpoint() {
    let dir = tempfile::tempdir().unwrap();
    let trace = SyntheticConfig {
        geometry: StateGeometry::test_small(),
        ticks: 40,
        updates_per_tick: 300,
        skew: 0.7,
        seed: 77,
    };
    let report = run_real(
        Algorithm::AtomicCopyDirtyObjects,
        RealConfig::new(dir.path())
            .without_recovery()
            .paced_at_hz(400.0),
        trace,
    );
    assert!(
        report.world.checkpoints_completed >= 2,
        "need two checkpoints"
    );

    let g = trace.geometry;
    let set = BackupSet::open(dir.path(), g).unwrap();
    let (newest, newest_tick) = set.newest_consistent().unwrap();
    drop(set);
    std::fs::remove_file(dir.path().join(format!("backup_{newest}.meta"))).unwrap();

    let rec = recover_and_replay(dir.path(), g, &mut trace.build(), 40).unwrap();
    assert!(rec.from_tick < newest_tick);
    assert_eq!(
        rec.table.fingerprint(),
        truth_of(trace.build()).fingerprint()
    );
}

/// Crash injection for the real Dribble-and-Copy-on-Update engine (the
/// other driver-unlocked algorithm): tearing the tail of the checkpoint
/// log mid-sweep discards the torn segment, anchors recovery at the
/// previous complete sweep, and replay reaches the exact final state.
#[test]
fn dribble_engine_recovers_after_torn_log_tail() {
    let dir = tempfile::tempdir().unwrap();
    let trace = SyntheticConfig {
        geometry: StateGeometry::test_small(),
        ticks: 40,
        updates_per_tick: 300,
        skew: 0.7,
        seed: 88,
    };
    let report = run_real(
        Algorithm::DribbleAndCopyOnUpdate,
        RealConfig::new(dir.path())
            .without_recovery()
            .paced_at_hz(400.0),
        trace,
    );
    assert!(report.world.checkpoints_completed >= 2, "need two sweeps");

    // Chop bytes off the log: the final segment becomes a torn tail, as
    // if the crash had hit mid-append.
    let path = dir.path().join("checkpoint.log");
    let len = std::fs::metadata(&path).unwrap().len();
    let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
    f.set_len(len - 100).unwrap();
    drop(f);

    let g = trace.geometry;
    let rec = recover_and_replay_log(dir.path(), g, &mut trace.build(), 40).unwrap();
    assert_eq!(
        rec.table.fingerprint(),
        truth_of(trace.build()).fingerprint(),
        "torn-tail recovery must still reach the crash state via replay"
    );
}

/// Every log-organized algorithm survives losing its *entire* newest
/// segment: recovery falls back to an older consistent anchor plus
/// replay. (Dribble anchors on any complete sweep; the partial-redo pair
/// anchor on the last complete full flush.)
#[test]
fn log_algorithms_recover_when_final_segments_are_torn() {
    for alg in [
        Algorithm::DribbleAndCopyOnUpdate,
        Algorithm::CopyOnUpdatePartialRedo,
    ] {
        let name = alg.short_name();
        let dir = tempfile::tempdir().unwrap();
        let trace = SyntheticConfig {
            geometry: StateGeometry::small(256, 8),
            ticks: 30,
            updates_per_tick: 200,
            skew: 0.6,
            seed: 2024,
        };
        let report = run_real(
            alg,
            RealConfig::new(dir.path())
                .without_recovery()
                .paced_at_hz(400.0),
            trace,
        );
        assert!(report.world.checkpoints_completed >= 2, "{name}");

        // Tear a large tail chunk: possibly several segments.
        let path = dir.path().join("checkpoint.log");
        let len = std::fs::metadata(&path).unwrap().len();
        let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len.saturating_sub(len / 4).max(100)).unwrap();
        drop(f);

        let g = trace.geometry;
        let rec = recover_and_replay_log(dir.path(), g, &mut trace.build(), 30)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(
            rec.table.fingerprint(),
            truth_of(trace.build()).fingerprint(),
            "{name}"
        );
    }
}

/// Updates whose cells straddle object boundaries land in the right
/// objects on disk (regression guard for offset arithmetic).
#[test]
fn object_boundary_updates_persist_correctly() {
    let dir = tempfile::tempdir().unwrap();
    let g = geometry(); // 16 cells/object with 4 cols -> 4 rows per object
    let ticks = vec![
        vec![
            CellUpdate::new(3, 3, 0xAAAA),  // last cell of object 0
            CellUpdate::new(4, 0, 0xBBBB),  // first cell of object 1
            CellUpdate::new(63, 3, 0xCCCC), // very last cell
        ];
        3
    ];
    let trace = RecordedTrace::new(g, ticks);
    let report = run_real(
        Algorithm::CopyOnUpdate,
        RealConfig::new(dir.path()),
        mmoc_core::TraceFn(|| trace.replay()),
    );
    assert_eq!(report.verified_consistent(), Some(true));
}

// ---------------------------------------------------------------------------
// Mid-batch crash injection for the async batched-submission backend
// ---------------------------------------------------------------------------

/// The batched engine's crash window is the gap between a job's
/// **submission** (data writes issued: the double-backup target is
/// invalidated and overwritten, or a log segment is appended to the page
/// cache) and its **completion** (data sync, then metadata commit /
/// log sync). A crash inside a batch leaves every submitted-but-not-
/// completed job in exactly the state these injections construct:
///
/// * double backup — the target's metadata is gone (invalidated at
///   submission, never re-committed), its image torn;
/// * log — the newest segment is a torn tail (sealed in the page cache,
///   never synced; `set_len` models the partial writeback a crash
///   leaves).
///
/// For all six algorithms, over a 4-shard world (so batches genuinely
/// hold several shards' jobs), recovery must fall back to each shard's
/// previous consistent image and replay to the exact crash state.
#[test]
fn async_backend_recovers_from_mid_batch_crashes_for_all_algorithms() {
    let trace = SyntheticConfig {
        geometry: StateGeometry::test_small(),
        ticks: 30,
        updates_per_tick: 300,
        skew: 0.7,
        seed: 616,
    };
    const N: usize = 4;
    let map = ShardMap::new(trace.geometry, N as u32).unwrap();
    for alg in Algorithm::ALL {
        let dir = tempfile::tempdir().unwrap();
        let report = Run::algorithm(alg)
            .engine(
                RealConfig::new(dir.path())
                    .without_recovery()
                    .with_query_ops(64)
                    .with_writer_backend(WriterBackend::AsyncBatched),
            )
            .trace(trace)
            .shards(N as u32)
            .execute()
            .unwrap_or_else(|e| panic!("{alg}: {e}"));
        for (s, shard) in report.shards.iter().enumerate() {
            assert!(
                shard.summary.checkpoints_completed >= 1,
                "{alg} shard {s} needs history"
            );
        }

        // Inject the mid-batch crash on *every* shard: the whole batch
        // was submitted, none of it completed.
        for s in 0..N {
            let sdir = shard_dir(dir.path(), s, N);
            match alg.spec().disk_org {
                DiskOrg::DoubleBackup => {
                    let g = map.shard_geometry(s);
                    let mut set = BackupSet::open(&sdir, g).unwrap();
                    let (newest, _) = set.newest_consistent().expect("consistent backup");
                    // The *older* backup is the next target: invalidate it
                    // and scribble over its image, exactly what a
                    // submitted-but-uncommitted eager/sweep job leaves.
                    let target = 1 - newest;
                    set.invalidate(target).unwrap();
                    for obj in 0..g.n_objects() / 2 {
                        set.write_object(target, ObjectId(obj), &[0xEEu8; 64])
                            .unwrap();
                    }
                    drop(set);
                }
                DiskOrg::Log => {
                    // A submitted-but-unsynced segment survives only
                    // partially: tear the tail.
                    let path = sdir.join("checkpoint.log");
                    let len = std::fs::metadata(&path).unwrap().len();
                    let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
                    f.set_len(len.saturating_sub(90).max(10)).unwrap();
                    drop(f);
                }
            }
        }

        // Every shard recovers alone from its previous consistent image
        // plus replay of its slice, reaching the exact crash state.
        for s in 0..N {
            let sdir = shard_dir(dir.path(), s, N);
            let g = map.shard_geometry(s);
            let mut replay = ShardFilter::new(trace.build(), map.clone(), s);
            let rec = match alg.spec().disk_org {
                DiskOrg::DoubleBackup => recover_and_replay(&sdir, g, &mut replay, 30),
                DiskOrg::Log => recover_and_replay_log(&sdir, g, &mut replay, 30),
            }
            .unwrap_or_else(|e| panic!("{alg} shard {s}: {e}"));
            let truth = truth_of(ShardFilter::new(trace.build(), map.clone(), s));
            assert_eq!(
                rec.table.fingerprint(),
                truth.fingerprint(),
                "{alg} shard {s}: mid-batch crash recovery diverged"
            );
        }
    }
}

/// The durability scheduler opens one more crash window: with cross-shard
/// fsync coalescing, **all** of a batch's data syncs run before **any**
/// metadata commit, so a crash between the two phases leaves files whose
/// *data* is fully on stable storage while *no* job has committed — the
/// double-backup targets are invalidated-but-synced, the log tails are
/// synced segments a later torn append can still trail. For all six
/// algorithms, over a 4-shard world run with coalescing and a nonzero
/// batch window, recovery must ignore the uncommitted (or torn) work and
/// fall back to each shard's previous consistent image plus replay.
#[test]
fn coalesced_sync_without_commit_falls_back_to_previous_image() {
    let trace = SyntheticConfig {
        geometry: StateGeometry::test_small(),
        ticks: 30,
        updates_per_tick: 300,
        skew: 0.7,
        seed: 929,
    };
    const N: usize = 4;
    let map = ShardMap::new(trace.geometry, N as u32).unwrap();
    for alg in Algorithm::ALL {
        let dir = tempfile::tempdir().unwrap();
        let report = Run::algorithm(alg)
            .engine(
                RealConfig::new(dir.path())
                    .without_recovery()
                    .with_query_ops(64)
                    .with_writer_backend(WriterBackend::AsyncBatched)
                    .with_batch_window(std::time::Duration::from_micros(400))
                    .with_fsync_coalescing(true),
            )
            .trace(trace)
            .shards(N as u32)
            .execute()
            .unwrap_or_else(|e| panic!("{alg}: {e}"));
        assert!(report.world.checkpoints_completed >= 1, "{alg}");

        // Inject the crash *between* the scheduler's phases on every
        // shard: data synced, nothing committed.
        for s in 0..N {
            let sdir = shard_dir(dir.path(), s, N);
            let g = map.shard_geometry(s);
            match alg.spec().disk_org {
                DiskOrg::DoubleBackup => {
                    let mut set = BackupSet::open(&sdir, g).unwrap();
                    let (newest, _) = set.newest_consistent().expect("consistent backup");
                    let target = 1 - newest;
                    set.invalidate(target).unwrap();
                    for obj in 0..g.n_objects() {
                        set.write_object(target, ObjectId(obj), &[0xD5u8; 64])
                            .unwrap();
                    }
                    // The scheduler's phase one completed: data durable…
                    set.sync(target).unwrap();
                    // …and phase two (the metadata commit) never ran.
                    drop(set);
                }
                DiskOrg::Log => {
                    // Everything already appended is synced (phase one);
                    // the crash tears the segment a next batch had begun.
                    let path = sdir.join("checkpoint.log");
                    let log = mmoc_storage::log_store::LogStore::open(&sdir, g).unwrap();
                    log.sync().unwrap();
                    drop(log);
                    let len = std::fs::metadata(&path).unwrap().len();
                    let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
                    f.set_len(len.saturating_sub(40).max(10)).unwrap();
                    drop(f);
                }
            }
        }

        // Recovery per shard: the synced-but-uncommitted target carries no
        // metadata, the torn tail fails its end-marker check — both fall
        // back to the previous consistent image, and replay reaches the
        // exact crash state.
        for s in 0..N {
            let sdir = shard_dir(dir.path(), s, N);
            let g = map.shard_geometry(s);
            let mut replay = ShardFilter::new(trace.build(), map.clone(), s);
            let rec = match alg.spec().disk_org {
                DiskOrg::DoubleBackup => recover_and_replay(&sdir, g, &mut replay, 30),
                DiskOrg::Log => recover_and_replay_log(&sdir, g, &mut replay, 30),
            }
            .unwrap_or_else(|e| panic!("{alg} shard {s}: {e}"));
            let truth = truth_of(ShardFilter::new(trace.build(), map.clone(), s));
            assert_eq!(
                rec.table.fingerprint(),
                truth.fingerprint(),
                "{alg} shard {s}: sync-without-commit recovery diverged"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Crash windows of the pipelined write path (two checkpoints in flight)
// ---------------------------------------------------------------------------

/// Which of a shard's two in-flight segments the simulated crash loses.
#[derive(Clone, Copy)]
enum PipelineCrash {
    /// The older checkpoint reached stable storage; the newer one's
    /// segment survives only as a torn tail (writeback never finished).
    NewerTorn,
    /// The *newer* segment's bytes made it to stable storage but the
    /// older one's writeback was lost mid-page: its end marker is gone.
    /// The log's prefix-consistency scan must discard the intact newer
    /// segment too — it cannot be applied without its predecessor.
    OlderCorrupt,
}

/// Checkpoint pipelining opens a crash window that cannot exist at depth
/// one: **two** of a shard's checkpoints in flight at once, and a crash
/// that persists them asymmetrically. Both directions are injected here
/// — newest segment torn with the older intact, and the older segment's
/// writeback lost under an intact newer one — for every log-organized
/// algorithm under both writer backends, after a genuine depth-2 run.
/// Recovery must anchor on the newest consistent *prefix* of the log and
/// replay to the exact crash state.
#[test]
fn pipelined_crash_windows_recover_to_newest_consistent_checkpoint() {
    let trace = SyntheticConfig {
        geometry: StateGeometry::test_small(),
        ticks: 40,
        updates_per_tick: 300,
        skew: 0.7,
        seed: 1337,
    };
    const N: usize = 4;
    let map = ShardMap::new(trace.geometry, N as u32).unwrap();
    let log_algorithms = Algorithm::ALL
        .into_iter()
        .filter(|a| a.spec().disk_org == DiskOrg::Log);
    for alg in log_algorithms {
        for backend in WriterBackend::ALL {
            for crash in [PipelineCrash::NewerTorn, PipelineCrash::OlderCorrupt] {
                let dir = tempfile::tempdir().unwrap();
                let report = Run::algorithm(alg)
                    .engine(
                        RealConfig::new(dir.path())
                            .without_recovery()
                            .with_query_ops(64)
                            .with_writer_backend(backend)
                            .with_pipeline_depth(2),
                    )
                    .trace(trace)
                    .shards(N as u32)
                    // Lightly paced so even the full-sweep algorithms
                    // (whose checkpoints never overlap) complete several
                    // checkpoints — the injections below need at least
                    // two segments beyond the boot image per shard.
                    .pacing(400.0)
                    .execute()
                    .unwrap_or_else(|e| panic!("{alg} [{backend}]: {e}"));
                assert!(report.world.checkpoints_completed >= 1, "{alg} [{backend}]");

                for s in 0..N {
                    let sdir = shard_dir(dir.path(), s, N);
                    let g = map.shard_geometry(s);
                    let path = sdir.join("checkpoint.log");
                    let mut log = mmoc_storage::log_store::LogStore::open(&sdir, g).unwrap();
                    let segs = log.segments().unwrap();
                    drop(log);
                    assert!(
                        segs.len() >= 3,
                        "{alg} [{backend}] shard {s}: needs a boot image plus two \
                         pipelined segments, got {}",
                        segs.len()
                    );
                    let len = std::fs::metadata(&path).unwrap().len();
                    let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
                    match crash {
                        PipelineCrash::NewerTorn => {
                            // Tear into the newest segment's body, leaving
                            // everything before it durable and complete.
                            let last = segs.last().unwrap().bytes;
                            f.set_len(len - last / 2).unwrap();
                        }
                        PipelineCrash::OlderCorrupt => {
                            use std::io::{Seek, SeekFrom, Write};
                            // Overwrite the second-newest segment's end
                            // marker: its writeback never completed, while
                            // the newest segment's bytes all survive.
                            let last = segs.last().unwrap().bytes;
                            let mut f = f;
                            f.seek(SeekFrom::Start(len - last - 4)).unwrap();
                            f.write_all(&[0xBD; 4]).unwrap();
                            f.sync_data().unwrap();
                        }
                    }

                    let mut replay = ShardFilter::new(trace.build(), map.clone(), s);
                    let rec = recover_and_replay_log(&sdir, g, &mut replay, 40)
                        .unwrap_or_else(|e| panic!("{alg} [{backend}] shard {s}: {e}"));
                    // The anchor must be the newest consistent prefix: at
                    // most the segments preceding the damaged one.
                    let damaged_from = match crash {
                        PipelineCrash::NewerTorn => segs.len() - 1,
                        PipelineCrash::OlderCorrupt => segs.len() - 2,
                    };
                    let newest_consistent = segs[damaged_from - 1].consistent_tick;
                    assert_eq!(
                        rec.from_tick, newest_consistent,
                        "{alg} [{backend}] shard {s}: recovery must anchor on the \
                         newest consistent checkpoint before the damage"
                    );
                    let truth = truth_of(ShardFilter::new(trace.build(), map.clone(), s));
                    assert_eq!(
                        rec.table.fingerprint(),
                        truth.fingerprint(),
                        "{alg} [{backend}] shard {s}: pipelined crash recovery diverged"
                    );
                }
            }
        }
    }
}

/// Every curated crash site above is also a point on the engine's
/// crash-point lattice. Arm each site's point through
/// [`RealConfig::with_crash_state`] and let the *instrumented engine
/// itself* produce the torn disk — mid object write, torn metadata
/// commit, invalidated-but-unwritten target, torn log record, torn
/// segment seal — then recover for real. This pins the contract the
/// fuzzer corpus (`mmoc-fuzz`, whose named seeds mirror these sites)
/// relies on: a lattice crash at a curated site is recoverable to the
/// exact oracle state, so the hand-constructed injections and the
/// instrumented ones prove the same durability story.
#[test]
fn lattice_reproduces_the_curated_crash_sites() {
    use mmoc_storage::crash::{plan_spec, CrashState};
    use std::sync::Arc;

    // (algorithm, backend, plan spec) — backends are pinned because the
    // io_uring path stages writes without the mid-write points.
    let sites = [
        (
            Algorithm::AtomicCopyDirtyObjects,
            WriterBackend::ThreadPool,
            "backup-write-object:1:40",
        ),
        (
            Algorithm::CopyOnUpdate,
            WriterBackend::AsyncBatched,
            "backup-commit:1:7",
        ),
        (
            Algorithm::NaiveSnapshot,
            WriterBackend::ThreadPool,
            "backup-invalidate:2",
        ),
        (
            Algorithm::PartialRedo,
            WriterBackend::ThreadPool,
            "log-append-object:1:13",
        ),
        (
            Algorithm::CopyOnUpdatePartialRedo,
            WriterBackend::AsyncBatched,
            "log-segment-sealed:1:33",
        ),
    ];
    let trace = SyntheticConfig {
        geometry: StateGeometry::test_small(),
        ticks: 14,
        updates_per_tick: 120,
        skew: 0.8,
        seed: 0xC0FFEE,
    };
    for (alg, backend, spec) in sites {
        let dir = tempfile::tempdir().unwrap();
        let state = Arc::new(CrashState::armed(plan_spec(spec).unwrap()));
        Run::algorithm(alg)
            .engine(
                RealConfig::new(dir.path())
                    .without_recovery()
                    .with_query_ops(64)
                    .with_writer_backend(backend)
                    .with_crash_state(state.clone()),
            )
            .trace(trace)
            // Lightly paced, like the fuzzer: the tick cadence leaves the
            // writer room to complete several checkpoints, so hit indexes
            // beyond the first are reachable.
            .pacing(600.0)
            .execute()
            .unwrap_or_else(|e| panic!("{alg} {spec}: {e}"));
        assert!(
            state.fired(),
            "{alg}: lattice point in {spec:?} never fired"
        );

        let g = trace.geometry;
        let mut replay = trace.build();
        let rec = match alg.spec().disk_org {
            DiskOrg::DoubleBackup => recover_and_replay(dir.path(), g, &mut replay, trace.ticks),
            DiskOrg::Log => recover_and_replay_log(dir.path(), g, &mut replay, trace.ticks),
        }
        .unwrap_or_else(|e| panic!("{alg} {spec}: recovery failed: {e}"));
        let truth = truth_of(trace.build());
        assert_eq!(
            rec.table.fingerprint(),
            truth.fingerprint(),
            "{alg} {spec}: lattice crash recovery diverged"
        );
    }
}
