//! Recovery idempotence: restoring the same frozen directory twice must
//! produce **byte-identical** state, and a recovery attempt that dies
//! half-way through its restore must be resumable — the restarted
//! attempt recovers exactly what an undisturbed one would have.
//!
//! This is the re-entrancy contract the re-crash-during-recovery lattice
//! points depend on: recovery only *reads* the organization's files, so
//! any number of failed attempts (injected or real) leaves the disk
//! exactly as the crash did. For every cell of the (algorithm × shard
//! count) matrix the same trace runs once and is then recovered
//! repeatedly over the frozen directory; each recovered table is
//! compared byte for byte against the others and against the ground
//! truth of replaying the full trace in memory.

use mmoc_core::{Algorithm, DiskOrg, ObjectId, Run, ShardFilter, ShardMap, StateTable};
use mmoc_storage::inject::{Inject, InjectedCrash, Plan, Site};
use mmoc_storage::recovery::{recover_from_disk, RecoveryOpts};
use mmoc_storage::{shard_dir, RealConfig};
use mmoc_workload::SyntheticConfig;
use std::path::Path;
use std::sync::Arc;

const TICKS: u64 = 24;
const SHARD_COUNTS: [u32; 2] = [1, 4];

/// Deliberately small — this suite runs the full 6 × {1, 4} matrix of
/// real-engine work concurrently with every other test binary.
fn trace_config() -> SyntheticConfig {
    SyntheticConfig {
        geometry: mmoc_core::StateGeometry::test_small(),
        ticks: TICKS,
        updates_per_tick: 300,
        skew: 0.8,
        seed: 41972,
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

/// One recovery attempt over the frozen shard directory, through the
/// disk organization's production path with explicit options.
fn recover_with(
    dir: &Path,
    disk_org: DiskOrg,
    map: &ShardMap,
    shard: usize,
    opts: &RecoveryOpts,
) -> std::io::Result<StateTable> {
    let sdir = shard_dir(dir, shard, map.n_shards());
    let mut replay = ShardFilter::new(trace_config().build(), map.clone(), shard);
    let g = map.shard_geometry(shard);
    Ok(recover_from_disk(disk_org, &sdir, g, &mut replay, TICKS, opts)?.table)
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

/// The full matrix: for every algorithm and shard count, the frozen
/// directory recovers to the same bytes no matter how many times — or
/// how many half-finished attempts — precede the successful one.
#[test]
fn recovery_is_idempotent_and_resumable_across_the_matrix() {
    let root = tempfile::tempdir().unwrap();
    for alg in Algorithm::ALL {
        let disk_org = alg.spec().disk_org;
        for n in SHARD_COUNTS {
            let map = ShardMap::new(trace_config().geometry, n).unwrap();
            let dir = root.path().join(format!("{}_{n}", alg.short_name()));
            // `without_recovery` freezes the directory at end of run: the
            // engine's own recovery measurement never touches the files
            // the test recovers from.
            Run::algorithm(alg)
                .engine(RealConfig::new(&dir).without_recovery())
                .trace(trace_config())
                .shards(n)
                .execute()
                .unwrap_or_else(|e| panic!("{alg} x{n}: {e}"));
            for s in 0..n as usize {
                let label = format!("{alg} x{n} shard {s}");
                let truth = shard_truth(&map, s);

                // Recover the same frozen directory twice, back to back.
                let first = recover_with(&dir, disk_org, &map, s, &RecoveryOpts::default())
                    .unwrap_or_else(|e| panic!("{label}: first recovery: {e}"));
                let second = recover_with(&dir, disk_org, &map, s, &RecoveryOpts::default())
                    .unwrap_or_else(|e| panic!("{label}: second recovery: {e}"));
                assert_tables_byte_identical(&first, &second, &label);
                assert_tables_byte_identical(&first, &truth, &label);

                // Resume a half-finished restore: arm the recovery
                // lattice so the attempt dies right after the image read,
                // then recover again. The fired latch means the resumed
                // attempt runs the same code path to completion, and the
                // bytes must match the undisturbed recoveries above.
                let crashed = Arc::new(Inject::armed([Plan::at(Site::RecoveryReadImage)]));
                let opts = RecoveryOpts {
                    inject: Some(crashed.clone()),
                    ..RecoveryOpts::default()
                };
                let err = recover_with(&dir, disk_org, &map, s, &opts)
                    .expect_err("armed recovery must die after the image read");
                assert!(
                    err.get_ref().is_some_and(|e| e.is::<InjectedCrash>()),
                    "{label}: unexpected first-attempt error: {err}"
                );
                assert!(crashed.fired(), "{label}: the armed re-crash never fired");
                let resumed = recover_with(&dir, disk_org, &map, s, &opts)
                    .unwrap_or_else(|e| panic!("{label}: resumed recovery: {e}"));
                assert_tables_byte_identical(&resumed, &first, &label);
            }
        }
    }
}

/// Resuming mid-replay: an attempt that dies part-way through the log
/// replay tail (not merely after the image read) still leaves the
/// directory recoverable to identical bytes. Uses a mid-run crash so the
/// newest consistent checkpoint genuinely precedes the crash tick and
/// the replay tail is non-empty.
#[test]
fn replay_tail_recrash_resumes_to_identical_bytes() {
    for alg in [Algorithm::PartialRedo, Algorithm::CopyOnUpdatePartialRedo] {
        let dir = tempfile::tempdir().unwrap();
        let map = ShardMap::new(trace_config().geometry, 1).unwrap();
        // Freeze the run at its first enqueued flush job: the newest
        // consistent image then anchors early and recovery must replay a
        // long tail of the trace.
        let frozen = Arc::new(Inject::armed([Plan::at(Site::JobEnqueued)]));
        Run::algorithm(alg)
            .engine(
                RealConfig::new(dir.path())
                    .without_recovery()
                    .with_inject(frozen.clone()),
            )
            .trace(trace_config())
            .execute()
            .unwrap_or_else(|e| panic!("{alg}: armed run: {e}"));
        assert!(frozen.fired(), "{alg}: the run's crash plan never fired");

        let truth = shard_truth(&map, 0);
        let clean = recover_with(
            dir.path(),
            alg.spec().disk_org,
            &map,
            0,
            &RecoveryOpts::default(),
        )
        .unwrap_or_else(|e| panic!("{alg}: clean recovery: {e}"));
        assert_tables_byte_identical(&clean, &truth, &format!("{alg} clean"));

        // Die on the second replayed tick, then resume over the same log.
        let mut plan = Plan::at(Site::RecoveryReplayTick);
        plan.hit = 2;
        let crashed = Arc::new(Inject::armed([plan]));
        let opts = RecoveryOpts {
            inject: Some(crashed.clone()),
            ..RecoveryOpts::default()
        };
        let err = recover_with(dir.path(), alg.spec().disk_org, &map, 0, &opts)
            .expect_err("armed recovery must die mid-replay");
        assert!(
            err.get_ref().is_some_and(|e| e.is::<InjectedCrash>()),
            "{alg}: unexpected first-attempt error: {err}"
        );
        assert!(
            crashed.fired(),
            "{alg}: the mid-replay re-crash never fired"
        );
        let resumed = recover_with(dir.path(), alg.spec().disk_org, &map, 0, &opts)
            .unwrap_or_else(|e| panic!("{alg}: resumed recovery: {e}"));
        assert_tables_byte_identical(&resumed, &clean, &format!("{alg} resumed"));
    }
}
