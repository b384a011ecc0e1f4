//! Property tests for the crown-jewel invariant: **every completed
//! checkpoint equals the state at its start tick**, and recovery
//! (restore + logical-log replay) reconstructs the exact crash state —
//! for all six algorithms, under arbitrary update streams.

use mmo_checkpoint::prelude::*;
use mmo_checkpoint::storage::files::BackupSet;
use mmo_checkpoint::storage::recovery::recover_and_replay;
use mmo_checkpoint::workload::trace::record;
use proptest::prelude::*;

/// A small geometry keeps the value-level fidelity checker fast.
fn geometry() -> StateGeometry {
    StateGeometry::test_hot() // 32 objects of 64 B
}

/// Strategy: an arbitrary trace of up to 60 ticks × up to 40 updates.
fn arb_trace() -> impl Strategy<Value = RecordedTrace> {
    let update = (0u32..64, 0u32..8, any::<u32>())
        .prop_map(|(row, col, value)| CellUpdate::new(row, col, value));
    let tick = proptest::collection::vec(update, 0..40);
    proptest::collection::vec(tick, 1..60).prop_map(|ticks| RecordedTrace::new(geometry(), ticks))
}

/// Slow the simulated disk so checkpoints span several ticks and updates
/// genuinely race the writer (the interesting regime for copy-on-update).
fn slow_disk_config() -> SimConfig {
    SimConfig {
        hardware: mmo_checkpoint::sim::HardwareParams::paper().with_disk_bandwidth(10_000.0),
        ..SimConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Checkpoint images must equal the checkpoint-start state for every
    /// algorithm, under an arbitrary update stream and a slow disk.
    #[test]
    fn checkpoint_images_are_tick_consistent(trace in arb_trace()) {
        for algorithm in Algorithm::ALL {
            let report = Run::algorithm(algorithm)
                .engine(Engine::Sim(slow_disk_config()))
                .trace_fn(|| trace.replay())
                .fidelity_check(true)
                .execute()
                .expect("checked simulation runs");
            let fidelity = report.shards[0].fidelity.as_ref().expect("checked");
            prop_assert!(
                fidelity.errors.is_empty(),
                "{algorithm}: {:?}",
                fidelity.errors
            );
            prop_assert_eq!(
                fidelity.checks_passed,
                report.world.checkpoints_completed,
                "{}: every completed checkpoint must be verified", algorithm
            );
        }
    }

    /// Restore + replay reconstructs the exact crash state, for any crash
    /// tick and any checkpoint tick at or before it — through the engine's
    /// own restore path: the checkpoint is committed into a real backup
    /// pair and recovered with `recover_and_replay`.
    #[test]
    fn logical_log_replay_reconstructs_crash_state(
        trace in arb_trace(),
        ckpt_frac in 0.0f64..1.0,
        crash_frac in 0.0f64..1.0,
    ) {
        let g = geometry();
        let n_ticks = trace.n_ticks();
        let crash_tick = ((n_ticks as f64 * crash_frac) as u64).min(n_ticks);
        let ckpt_tick = (crash_tick as f64 * ckpt_frac) as u64;

        // Run forward; both backups hold the boot image as of tick 0, and
        // the checkpoint tick's state is committed into backup 1.
        let dir = tempfile::tempdir().unwrap();
        let mut live = StateTable::new(g).unwrap();
        let mut set = BackupSet::create(dir.path(), g, live.as_bytes()).unwrap();
        let mut replay = trace.replay();
        let mut buf = Vec::new();
        let mut tick = 0u64;
        while tick < crash_tick && replay.next_tick(&mut buf) {
            tick += 1;
            for &u in &buf {
                live.apply(u).unwrap();
            }
            if tick == ckpt_tick {
                set.invalidate(1).unwrap();
                set.write_run(1, ObjectId(0), live.as_bytes()).unwrap();
                set.sync(1).unwrap();
                set.commit(1, tick).unwrap();
            }
        }
        drop(set);

        let rec = recover_and_replay(dir.path(), g, &mut trace.replay(), tick).unwrap();
        prop_assert_eq!(rec.table.fingerprint(), live.fingerprint());
        prop_assert_eq!(rec.from_tick, ckpt_tick);
        prop_assert_eq!(rec.ticks_replayed, tick - ckpt_tick);
    }

    /// Trace files round-trip arbitrary traces exactly.
    #[test]
    fn trace_files_roundtrip(trace in arb_trace()) {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("prop.trace");
        mmo_checkpoint::workload::write_trace_file(&path, &mut trace.replay()).unwrap();
        let loaded = mmo_checkpoint::workload::read_trace_file(&path).unwrap();
        prop_assert_eq!(loaded, trace);
    }

    /// Recording a replay yields the identical trace (TraceSource is a
    /// faithful stream).
    #[test]
    fn record_replay_identity(trace in arb_trace()) {
        let recorded = record(&mut trace.replay());
        prop_assert_eq!(recorded, trace);
    }
}

/// The same tick-consistency property, but against the *default* (fast)
/// disk so checkpoints mostly complete within a tick — exercising the
/// empty-checkpoint and immediate-completion paths.
#[test]
fn fidelity_with_fast_disk_and_bursty_updates() {
    let g = geometry();
    // A bursty trace: idle stretches then storms.
    let mut ticks = Vec::new();
    for round in 0u32..40 {
        if round % 5 == 0 {
            ticks.push(
                (0..200)
                    .map(|i| CellUpdate::new((i * 7) % 64, (i * 3) % 8, i * round))
                    .collect(),
            );
        } else {
            ticks.push(Vec::new());
        }
    }
    let trace = RecordedTrace::new(g, ticks);
    for algorithm in Algorithm::ALL {
        let report = Run::algorithm(algorithm)
            .engine(Engine::Sim(SimConfig::default()))
            .trace_fn(|| trace.replay())
            .fidelity_check(true)
            .execute()
            .expect("checked simulation runs");
        assert_eq!(report.verified_consistent(), Some(true), "{algorithm}");
        assert!(report.world.checkpoints_completed > 0, "{algorithm}");
    }
}
