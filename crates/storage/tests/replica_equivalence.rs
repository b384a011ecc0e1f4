//! Differential replica-tier equivalence: recovering a shard from its
//! peers' in-memory mirrors must produce **byte-identical** state to
//! recovering it from the disk organization's files.
//!
//! For every cell of the (algorithm × shard count) matrix the same trace
//! runs once with a retained [`ReplicaSet`] installed — retained because
//! the mirrors model *peer* memory, which survives a single-shard crash —
//! and each shard is then recovered twice: once through the production
//! disk path (restore newest consistent image, replay the trace tail) and
//! once through the replica path (fetch the newest complete mirror,
//! replay the trace tail). Both recovered tables are compared byte for
//! byte against each other and against the ground truth of replaying the
//! full trace in memory. The replica tier is an accelerator, not an
//! alternative history: if these ever diverge the tier is wrong, never
//! "differently right".

use mmoc_core::{
    Algorithm, DiskOrg, EngineDetail, ObjectId, Run, ShardFilter, ShardMap, StateTable,
};
use mmoc_storage::recovery::{recover_from_disk, recover_from_replica, RecoveryOpts};
use mmoc_storage::{shard_dir, RealConfig, ReplicaSet};
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
        seed: 90125,
    }
}

/// Build the retained replica set for an `n`-shard split of the trace
/// geometry, exactly as the sharded run would.
fn replica_set(map: &ShardMap, factor: u32) -> Arc<ReplicaSet> {
    let geometries: Vec<_> = (0..map.n_shards()).map(|s| map.shard_geometry(s)).collect();
    Arc::new(ReplicaSet::new(factor, &geometries))
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

fn disk_recover(dir: &Path, disk_org: DiskOrg, map: &ShardMap, shard: usize) -> StateTable {
    let sdir = shard_dir(dir, shard, map.n_shards());
    let mut replay = ShardFilter::new(trace_config().build(), map.clone(), shard);
    let (g, opts) = (map.shard_geometry(shard), RecoveryOpts::default());
    let rec = recover_from_disk(disk_org, &sdir, g, &mut replay, TICKS, &opts)
        .unwrap_or_else(|e| panic!("shard {shard} disk recovery: {e}"));
    rec.table
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

/// The full matrix: disk-recovered, replica-recovered, and in-memory
/// truth agree byte for byte for every algorithm and shard count.
#[test]
fn replica_recovery_matches_disk_recovery_across_the_matrix() {
    let root = tempfile::tempdir().unwrap();
    for alg in Algorithm::ALL {
        let disk_org = alg.spec().disk_org;
        for n in SHARD_COUNTS {
            let map = ShardMap::new(trace_config().geometry, n).unwrap();
            let set = replica_set(&map, 1);
            let dir = root.path().join(format!("{}_{n}", alg.short_name()));
            Run::algorithm(alg)
                .engine(
                    RealConfig::new(&dir)
                        .with_query_ops(64)
                        .without_recovery()
                        .with_replica_set(set.clone()),
                )
                .trace(trace_config())
                .shards(n)
                .execute()
                .unwrap_or_else(|e| panic!("{alg} x{n}: {e}"));
            for s in 0..n as usize {
                let label = format!("{alg} x{n} shard {s}");
                let (complete, tick) = set.mirror_status(s as u32);
                assert!(complete >= 1, "{label}: no complete mirror after the run");
                assert!(tick > 0, "{label}: mirrors never saw a published delta");
                let from_disk = disk_recover(&dir, disk_org, &map, s);
                let mut replay = ShardFilter::new(trace_config().build(), map.clone(), s);
                let via = recover_from_replica(
                    &set,
                    s as u32,
                    map.shard_geometry(s),
                    &mut replay,
                    TICKS,
                    &RecoveryOpts::default(),
                )
                .unwrap_or_else(|| panic!("{label}: replica fetch missed"))
                .unwrap_or_else(|e| panic!("{label}: replica recovery: {e}"));
                let truth = shard_truth(&map, s);
                assert_tables_byte_identical(&via.table, &from_disk, &label);
                assert_tables_byte_identical(&via.table, &truth, &label);
            }
        }
    }
}

/// End-to-end through the builder: `with_replication(1)` turns the tier on,
/// the run's own recovery measurement restores from a mirror (the run
/// builds and retains the set internally, so the mirrors are alive when
/// the end-of-run measurement runs), and the recovered state still
/// matches the live state.
#[test]
fn builder_replication_recovers_from_the_mirror_tier() {
    let dir = tempfile::tempdir().unwrap();
    let report = Run::algorithm(Algorithm::CopyOnUpdate)
        .engine(
            RealConfig::new(dir.path())
                .with_query_ops(64)
                .with_replication(1),
        )
        .trace(trace_config())
        .shards(4)
        .execute()
        .expect("replicated run");
    assert_eq!(report.verified_consistent(), Some(true));
    match &report.detail {
        EngineDetail::Real(d) => assert_eq!(d.replication_factor, 1),
        _ => panic!("real detail expected"),
    }
    for shard in &report.shards {
        let rec = shard.recovery.as_ref().expect("measured");
        assert_eq!(rec.state_matches, Some(true));
        assert_eq!(
            rec.from_replica,
            Some(true),
            "shard {}: recovery should have come from a mirror",
            shard.shard
        );
    }
}

/// With the tier off (factor 0, the default) nothing changes: recovery
/// comes from disk and the report says so.
#[test]
fn replication_disabled_recovers_from_disk() {
    let dir = tempfile::tempdir().unwrap();
    let report = Run::algorithm(Algorithm::CopyOnUpdate)
        .engine(RealConfig::new(dir.path()).with_query_ops(64))
        .trace(trace_config())
        .execute()
        .expect("unreplicated run");
    assert_eq!(report.verified_consistent(), Some(true));
    match &report.detail {
        EngineDetail::Real(d) => assert_eq!(d.replication_factor, 0),
        _ => panic!("real detail expected"),
    }
    let rec = report.shards[0].recovery.as_ref().expect("measured");
    assert_eq!(rec.from_replica, Some(false));
}
