//! Builder behaviour pins. The pre-builder entry points (per-engine and
//! per-algorithm `run_*` functions) are gone — `Run::…execute()` is the
//! only path — so the builder-vs-legacy equivalence this file used to
//! assert has collapsed into two kinds of coverage:
//!
//! * **Determinism pins**: executing the same described experiment twice
//!   must reproduce every deterministic output — bit-identically on the
//!   simulator's virtual clock, and for the real engine the full
//!   deterministic projection (totals, bookkeeping series, first write
//!   set) plus an exact recovery round-trip.
//! * **Folded wrapper coverage**: the per-algorithm behavioural tests
//!   that lived next to the removed wrappers (Naive's pure-pause
//!   overhead, Copy-on-Update's bit-op accounting, Dribble's full
//!   sweeps, Atomic-Copy's alternating-backup drain, the partial-redo
//!   pair's flush cadence and pause shapes), re-expressed through the
//!   builder.

use mmo_checkpoint::core::algorithms::DEFAULT_FULL_FLUSH_PERIOD;
use mmo_checkpoint::prelude::*;

const SHARD_COUNTS: [u32; 2] = [1, 4];

/// Deliberately small: this suite runs many real-engine cells
/// *concurrently with every other test binary*; a heavier workload's
/// disk churn makes the timing-sensitive assertions elsewhere in the
/// workspace flaky.
fn trace_config() -> SyntheticConfig {
    SyntheticConfig {
        geometry: StateGeometry::test_small(),
        ticks: 24,
        updates_per_tick: 300,
        skew: 0.8,
        seed: 90,
    }
}

fn builder(alg: Algorithm, engine: Engine, shards: u32) -> RunReport {
    Run::algorithm(alg)
        .engine(engine)
        .trace(trace_config())
        .shards(shards)
        .execute()
        .unwrap_or_else(|e| panic!("{alg} x{shards}: {e}"))
}

fn real_engine(dir: std::path::PathBuf) -> Engine {
    Engine::Real(RealConfig::new(dir).with_query_ops(64))
}

/// Simulator, shard counts {1, 4}: the virtual clock is deterministic,
/// so re-executing the same `Run` must reproduce every metric exactly —
/// world aggregates and every per-shard series — for all six algorithms.
#[test]
fn sim_builder_is_bit_identical_across_executions() {
    for alg in Algorithm::ALL {
        for n in SHARD_COUNTS {
            let a = builder(alg, Engine::Sim(SimConfig::default()), n);
            let b = builder(alg, Engine::Sim(SimConfig::default()), n);
            assert_eq!(a.ticks, b.ticks, "{alg} x{n}");
            assert_eq!(a.updates, b.updates, "{alg} x{n}");
            assert_eq!(a.world.avg_overhead_s, b.world.avg_overhead_s, "{alg} x{n}");
            assert_eq!(
                a.world.avg_checkpoint_s, b.world.avg_checkpoint_s,
                "{alg} x{n}"
            );
            assert_eq!(a.world.recovery_s, b.world.recovery_s, "{alg} x{n}");
            assert_eq!(a.world.metrics.ticks, b.world.metrics.ticks, "{alg} x{n}");
            assert_eq!(
                a.world.metrics.checkpoints, b.world.metrics.checkpoints,
                "{alg} x{n}"
            );
            assert_eq!(a.shards.len(), b.shards.len(), "{alg} x{n}");
            for (x, y) in a.shards.iter().zip(&b.shards) {
                assert_eq!(x.ticks, y.ticks, "{alg} x{n} shard {}", x.shard);
                assert_eq!(x.updates, y.updates, "{alg} x{n} shard {}", x.shard);
                assert_eq!(
                    x.summary.metrics.ticks, y.summary.metrics.ticks,
                    "{alg} x{n} shard {}",
                    x.shard
                );
                assert_eq!(
                    x.summary.metrics.checkpoints, y.summary.metrics.checkpoints,
                    "{alg} x{n} shard {}",
                    x.shard
                );
                assert_eq!(
                    x.summary.recovery_s, y.summary.recovery_s,
                    "{alg} x{n} shard {}",
                    x.shard
                );
            }
        }
    }
}

/// Deterministic projection of a real-engine run: everything that is
/// fixed by the trace and the bookkeeping, independent of wall-clock
/// scheduling. (Lock/copy counts are *not* included: copy-on-update work
/// depends on how far the real writer raced ahead, which varies run to
/// run; bit operations are charged per update regardless.)
fn real_deterministic(
    metrics: &RunMetrics,
    ticks: u64,
    updates: u64,
) -> (u64, u64, Vec<u64>, (u64, u64, u32)) {
    let per_tick = metrics.ticks.iter().map(|t| t.bit_ops).collect();
    let first = metrics.checkpoints.first().expect("a checkpoint");
    (
        ticks,
        updates,
        per_tick,
        (first.seq, first.start_tick, first.objects_written),
    )
}

/// Real engine, shard counts {1, 4}: two executions of the same described
/// experiment agree on every deterministic output, and both recover
/// byte-identical state, for all six algorithms.
#[test]
fn real_builder_is_deterministic_across_executions() {
    let dir = tempfile::tempdir().unwrap();
    for alg in Algorithm::ALL {
        for n in SHARD_COUNTS {
            let run = |sub: &str| {
                builder(
                    alg,
                    real_engine(dir.path().join(format!("{sub}_{}_{n}", alg.short_name()))),
                    n,
                )
            };
            let a = run("a");
            let b = run("b");
            assert_eq!(a.n_shards, b.n_shards, "{alg} x{n}");
            assert_eq!(a.ticks, b.ticks, "{alg} x{n}");
            assert_eq!(a.updates, b.updates, "{alg} x{n}");
            let bit_ops = |m: &RunMetrics| m.ticks.iter().map(|t| t.bit_ops).collect::<Vec<u64>>();
            assert_eq!(
                bit_ops(&a.world.metrics),
                bit_ops(&b.world.metrics),
                "{alg} x{n}: merged bookkeeping series must be identical"
            );
            for (x, y) in a.shards.iter().zip(&b.shards) {
                assert_eq!(
                    real_deterministic(&x.summary.metrics, x.ticks, x.updates),
                    real_deterministic(&y.summary.metrics, y.ticks, y.updates),
                    "{alg} x{n} shard {}",
                    x.shard
                );
            }
            assert_eq!(a.verified_consistent(), Some(true), "{alg} x{n}");
            assert_eq!(b.verified_consistent(), Some(true), "{alg} x{n}");
        }
    }
}

/// Folded from the removed `naive.rs` wrapper tests: Naive-Snapshot's
/// entire overhead is the synchronous full-state copy — no dirty bits,
/// no copy-on-update work, overhead equals the pause on every tick.
#[test]
fn naive_overhead_is_the_copy_pause() {
    let dir = tempfile::tempdir().unwrap();
    let report = builder(
        Algorithm::NaiveSnapshot,
        real_engine(dir.path().to_path_buf()),
        1,
    );
    for t in &report.world.metrics.ticks {
        assert_eq!(t.bit_ops, 0);
        assert_eq!(t.copies, 0);
        assert!((t.overhead_s - t.sync_pause_s).abs() < 1e-12);
    }
    assert!(report.world.max_overhead_s > 0.0, "some tick paid a pause");
    let n = trace_config().geometry.n_objects();
    for c in &report.world.metrics.checkpoints {
        assert_eq!(c.objects_written, n, "every naive checkpoint is full");
    }
}

/// Folded from the removed `cou.rs` wrapper tests: Copy-on-Update charges
/// exactly one dirty-bit operation per update, copies under contention,
/// and writes partial checkpoints.
#[test]
fn cou_bit_ops_copies_and_write_sets() {
    let dir = tempfile::tempdir().unwrap();
    let report = builder(
        Algorithm::CopyOnUpdate,
        real_engine(dir.path().to_path_buf()),
        1,
    );
    let copies: u64 = report.world.metrics.ticks.iter().map(|t| t.copies).sum();
    let bit_ops: u64 = report.world.metrics.ticks.iter().map(|t| t.bit_ops).sum();
    assert_eq!(bit_ops, report.updates, "one bit op per update");
    assert!(copies > 0, "some first-touch copies must happen");
    assert!(copies <= report.updates);
    let g = trace_config().geometry;
    assert!(
        report
            .world
            .metrics
            .checkpoints
            .iter()
            .any(|c| c.objects_written < g.n_objects()),
        "300 updates/tick over 256 objects must leave clean objects"
    );
}

/// Folded from the removed `dribble.rs` wrapper tests: every Dribble
/// checkpoint sweeps the full state asynchronously — no eager pauses,
/// racing updates save pre-update images.
#[test]
fn dribble_sweeps_full_state_without_pauses() {
    let dir = tempfile::tempdir().unwrap();
    let report = builder(
        Algorithm::DribbleAndCopyOnUpdate,
        real_engine(dir.path().to_path_buf()),
        1,
    );
    let n = trace_config().geometry.n_objects();
    for c in &report.world.metrics.checkpoints {
        assert_eq!(c.objects_written, n, "every dribble checkpoint is full");
    }
    let pauses: f64 = report
        .world
        .metrics
        .ticks
        .iter()
        .map(|t| t.sync_pause_s)
        .sum();
    assert_eq!(pauses, 0.0, "dribble never copies eagerly");
}

/// Folded from the removed `atomic_copy.rs` wrapper tests: alternating
/// backups each owe their own dirty sets — an object updated once must be
/// written by the next checkpoint of *both* backups, so recovery still
/// matches after the update stream goes quiet.
#[test]
fn acdo_alternating_backups_recover_after_updates_stop() {
    let dir = tempfile::tempdir().unwrap();
    // A trace whose updates stop halfway: the tail checkpoints drain
    // both backups' dirty sets and recovery still matches.
    let g = StateGeometry::small(128, 8);
    let mut ticks: Vec<Vec<CellUpdate>> = (0..30u32)
        .map(|t| {
            (0..50u32)
                .map(|i| CellUpdate::new((t * 7 + i) % 128, i % 8, t * 1000 + i))
                .collect()
        })
        .collect();
    ticks.extend(std::iter::repeat_with(Vec::new).take(30));
    let trace = RecordedTrace::new(g, ticks);
    let report = Run::algorithm(Algorithm::AtomicCopyDirtyObjects)
        .engine(real_engine(dir.path().to_path_buf()))
        .trace(TraceFn(|| trace.replay()))
        .execute()
        .unwrap();
    assert_eq!(report.verified_consistent(), Some(true));
}

/// Folded from the removed `partial_redo.rs` wrapper tests: the
/// log-structured pair's full-flush cadence sits on the configured
/// period, Partial-Redo pays eager pauses, and its copy-on-update twin
/// copies instead.
#[test]
fn partial_redo_pair_cadence_and_overhead_shapes() {
    let dir = tempfile::tempdir().unwrap();
    let pr = builder(
        Algorithm::PartialRedo,
        real_engine(dir.path().join("pr")),
        1,
    );
    let coupr = builder(
        Algorithm::CopyOnUpdatePartialRedo,
        real_engine(dir.path().join("coupr")),
        1,
    );
    for s in coupr
        .world
        .metrics
        .checkpoints
        .iter()
        .filter(|c| c.full_flush)
        .map(|c| c.seq)
    {
        assert_eq!(
            (s + 1) % u64::from(DEFAULT_FULL_FLUSH_PERIOD),
            0,
            "seq {s} must sit on the period boundary"
        );
    }
    let pause =
        |r: &RunReport| -> f64 { r.world.metrics.ticks.iter().map(|t| t.sync_pause_s).sum() };
    assert!(pause(&pr) > 0.0, "PR must pay eager copy pauses");
    assert_eq!(pause(&coupr), 0.0, "COUPR never copies eagerly");
    let coupr_copies: u64 = coupr.world.metrics.ticks.iter().map(|t| t.copies).sum();
    assert!(coupr_copies > 0, "COUPR must copy on update");
    // Between full flushes, PR writes dirty objects only.
    let g = trace_config().geometry;
    let normal: Vec<_> = pr
        .world
        .metrics
        .checkpoints
        .iter()
        .filter(|c| !c.full_flush)
        .collect();
    assert!(!normal.is_empty());
    assert!(normal.iter().any(|c| c.objects_written < g.n_objects()));
}

/// One pacer for every shard count: a paced run must respect the global
/// tick period — one sleep per *global* tick — and leave state untouched.
#[test]
fn paced_multi_shard_runs_pace_the_global_tick() {
    let dir = tempfile::tempdir().unwrap();
    let quick = SyntheticConfig {
        ticks: 12,
        updates_per_tick: 50,
        ..trace_config()
    };
    let hz = 100.0;
    for shards in [1, 2] {
        let run = |name: &str| {
            Run::algorithm(Algorithm::CopyOnUpdate)
                .engine(Engine::Real(
                    RealConfig::new(dir.path().join(format!("{name}{shards}"))).with_query_ops(16),
                ))
                .trace(quick)
                .shards(shards)
        };
        let t0 = std::time::Instant::now();
        let paced = run("paced").pacing(hz).execute().unwrap();
        let elapsed = t0.elapsed().as_secs_f64();
        // 12 ticks at 100 Hz: the run must take ≥ 120 ms. Historically
        // pacing was silently *dropped* for multi-shard runs, so the floor
        // alone catches the regression; no upper bound — CI noise makes
        // one flaky.
        assert!(
            elapsed >= 12.0 / hz,
            "paced x{shards} run finished in {elapsed:.3}s, below the global tick floor"
        );
        assert_eq!(paced.verified_consistent(), Some(true));

        let unpaced = run("unpaced").execute().unwrap();
        assert_eq!(paced.updates, unpaced.updates, "pacing must not drop work");
    }
}
