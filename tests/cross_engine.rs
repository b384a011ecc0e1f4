//! Cross-engine integration: the cost-model simulator and the real
//! disk-backed engine run the *same* trace through the *same* unified
//! tick driver — described by the *same* [`Run`] builder — and must agree
//! on behavioural invariants, with every (algorithm, engine, shard count)
//! cell recovering byte-identical state.
//!
//! The matrix here is 6 algorithms × 2 engines × shard counts {1, 4},
//! driven entirely through `Run::…execute()` and read entirely from the
//! unified [`RunReport`]. Builder-vs-legacy equivalence lives in
//! `tests/builder_equivalence.rs`.

use mmo_checkpoint::core::CopyTiming;
use mmo_checkpoint::prelude::*;

fn trace_config() -> SyntheticConfig {
    SyntheticConfig {
        geometry: StateGeometry::small(2_048, 8), // 1 MB state, 1024 objects
        ticks: 60,
        updates_per_tick: 500,
        skew: 0.8,
        seed: 33,
    }
}

/// The sharded test matrix runs a shorter trace: 6 algorithms × 2 engines
/// × 4 shards is a lot of fsync.
fn sharded_trace_config() -> SyntheticConfig {
    SyntheticConfig {
        geometry: StateGeometry::small(2_048, 8),
        ticks: 40,
        updates_per_tick: 500,
        skew: 0.8,
        seed: 33,
    }
}

fn real_engine(dir: &std::path::Path) -> Engine {
    Engine::Real(RealConfig::new(dir))
}

/// The full validation matrix the paper could not run (§6 implemented
/// only Naive-Snapshot and Copy-on-Update): all six algorithms × both
/// engines through the one builder, with an exact recovery round-trip on
/// the real engine and a byte-level fidelity check on the simulated one.
#[test]
fn all_six_algorithms_roundtrip_on_both_engines() {
    let dir = tempfile::tempdir().unwrap();
    for alg in Algorithm::ALL {
        // Real engine: run, crash, restore, replay; state must match.
        let real = Run::algorithm(alg)
            .engine(real_engine(&dir.path().join(alg.short_name())))
            .trace(trace_config())
            .execute()
            .unwrap_or_else(|e| panic!("{alg}: {e}"));
        assert_eq!(real.ticks, 60, "{alg}");
        assert_eq!(real.updates, 60 * 500, "{alg}");
        assert!(real.world.checkpoints_completed > 0, "{alg}");
        assert_eq!(
            real.verified_consistent(),
            Some(true),
            "{alg}: real-engine recovery must reproduce the crash state exactly"
        );

        // Simulator: the value-level shadow disk must match the state at
        // every checkpoint start (the same invariant, virtually timed).
        let sim = Run::algorithm(alg)
            .engine(Engine::Sim(SimConfig::default()))
            .trace(trace_config())
            .fidelity_check(true)
            .execute()
            .unwrap_or_else(|e| panic!("{alg}: {e}"));
        assert_eq!(
            sim.verified_consistent(),
            Some(true),
            "{alg}: sim fidelity must hold"
        );
        assert_eq!(sim.ticks, real.ticks, "{alg}: same trace, same ticks");
        assert_eq!(sim.updates, real.updates, "{alg}");
    }
}

/// Both engines consume the identical `Bookkeeper`, so for the same trace
/// their first checkpoints must have identical write sets — for every
/// dirty-tracking algorithm, not just Copy-on-Update.
#[test]
fn simulated_and_real_first_checkpoints_agree_on_write_sets() {
    let dir = tempfile::tempdir().unwrap();
    for alg in Algorithm::ALL {
        let real = Run::algorithm(alg)
            .engine(Engine::Real(
                RealConfig::new(dir.path().join(alg.short_name())).without_recovery(),
            ))
            .trace(trace_config())
            .execute()
            .unwrap();
        let sim = Run::algorithm(alg)
            .engine(Engine::Sim(SimConfig::default()))
            .trace(trace_config())
            .execute()
            .unwrap();

        let real_first = real.world.metrics.checkpoints.first().expect("real ckpt");
        let sim_first = sim.world.metrics.checkpoints.first().expect("sim ckpt");
        // The unified driver numbers ticks identically on both engines:
        // the first checkpoint starts at the end of tick 1.
        assert_eq!(real_first.start_tick, 1, "{alg}");
        assert_eq!(sim_first.start_tick, 1, "{alg}");
        assert_eq!(
            real_first.objects_written, sim_first.objects_written,
            "{alg}: first-tick write sets must be identical"
        );
        assert_eq!(real_first.seq, sim_first.seq, "{alg}");
    }
}

/// The shard-count axis of the test matrix: every (algorithm, engine)
/// pair must also round-trip with the world split into 4 shards — each
/// shard recovering independently, in parallel, from its own files — via
/// nothing but `.shards(4)` on the same builder.
#[test]
fn all_six_algorithms_roundtrip_on_both_engines_with_4_shards() {
    let dir = tempfile::tempdir().unwrap();
    for alg in Algorithm::ALL {
        // Real engine, 4 shards, shared writer pool: every shard's
        // recovered state must match its live slice at the crash tick.
        let real = Run::algorithm(alg)
            .engine(real_engine(&dir.path().join(alg.short_name())))
            .trace(sharded_trace_config())
            .shards(4)
            .execute()
            .unwrap_or_else(|e| panic!("{alg}: {e}"));
        assert_eq!(real.n_shards, 4, "{alg}");
        assert_eq!(real.ticks, 40, "{alg}");
        assert_eq!(real.updates, 40 * 500, "{alg}");
        assert_eq!(
            real.verified_consistent(),
            Some(true),
            "{alg}: sharded real-engine recovery must reproduce every shard exactly"
        );
        for shard in &real.shards {
            let s = shard.shard;
            assert!(shard.summary.checkpoints_completed > 0, "{alg} shard {s}");
            let rec = shard.recovery.as_ref().expect("per-shard measurement");
            assert_eq!(rec.state_matches, Some(true), "{alg} shard {s}");
        }

        // Simulator, 4 shards on independent virtual clocks: every
        // shard's shadow disk must match its state at checkpoint starts.
        let sim = Run::algorithm(alg)
            .engine(Engine::Sim(SimConfig::default()))
            .trace(sharded_trace_config())
            .shards(4)
            .fidelity_check(true)
            .execute()
            .unwrap_or_else(|e| panic!("{alg}: {e}"));
        for shard in &sim.shards {
            let f = shard.fidelity.as_ref().expect("fidelity checked");
            assert!(f.is_clean(), "{alg} shard {}: {:?}", shard.shard, f.errors);
        }
        assert_eq!(sim.ticks, real.ticks, "{alg}: same trace, same ticks");
        assert_eq!(sim.updates, real.updates, "{alg}");
        // Both engines route through the identical shard map and
        // bookkeeping: their first checkpoints agree shard by shard.
        for s in 0..4 {
            let first = |r: &RunReport| {
                r.shards[s]
                    .summary
                    .metrics
                    .checkpoints
                    .first()
                    .expect("ckpt")
                    .objects_written
            };
            assert_eq!(
                first(&real),
                first(&sim),
                "{alg} shard {s}: first write sets must be identical"
            );
        }
    }
}

#[test]
fn real_cou_writes_less_than_naive_per_checkpoint() {
    let dir = tempfile::tempdir().unwrap();
    let run_real = |alg: Algorithm, sub: &str| {
        Run::algorithm(alg)
            .engine(Engine::Real(
                RealConfig::new(dir.path().join(sub)).without_recovery(),
            ))
            .trace(trace_config())
            .execute()
            .unwrap()
    };
    let naive = run_real(Algorithm::NaiveSnapshot, "naive");
    let cou = run_real(Algorithm::CopyOnUpdate, "cou");

    let avg_bytes = |r: &RunReport| {
        r.world.metrics.total_bytes_written() as f64 / r.world.checkpoints_completed.max(1) as f64
    };
    // 500 updates/tick over 1024 objects leaves many objects clean per
    // checkpoint: COU must write less than a full image on average.
    assert!(
        avg_bytes(&cou) < avg_bytes(&naive),
        "cou {} !< naive {}",
        avg_bytes(&cou),
        avg_bytes(&naive)
    );
}

#[test]
fn game_trace_runs_through_both_engines() {
    let mut cfg = GameConfig::small().with_ticks(40);
    cfg.units = 2_048;
    // A GameConfig *is* a TraceSpec: the battle replays deterministically,
    // so the same spec drives the real engine's recovery replay.
    let dir = tempfile::tempdir().unwrap();
    let real = Run::algorithm(Algorithm::CopyOnUpdate)
        .engine(real_engine(dir.path()))
        .trace(cfg)
        .execute()
        .unwrap();
    assert_eq!(real.verified_consistent(), Some(true));

    let sim = Run::algorithm(Algorithm::CopyOnUpdate)
        .engine(Engine::Sim(SimConfig::default()))
        .trace(cfg)
        .execute()
        .unwrap();
    assert_eq!(sim.ticks, real.ticks);
    assert_eq!(sim.updates, real.updates);
}

/// The game server's updates route through the shard map on both
/// engines: a 4-shard battle checkpoints and recovers per shard.
#[test]
fn game_trace_runs_sharded_through_both_engines() {
    let mut cfg = GameConfig::small().with_ticks(30);
    cfg.units = 2_048; // 16 object-aligned bands of 128 units

    let dir = tempfile::tempdir().unwrap();
    let real = Run::algorithm(Algorithm::CopyOnUpdate)
        .engine(real_engine(dir.path()))
        .trace(cfg)
        .shards(4)
        .execute()
        .unwrap();
    assert_eq!(real.n_shards, 4);
    assert_eq!(real.verified_consistent(), Some(true));

    let sim = Run::algorithm(Algorithm::CopyOnUpdate)
        .engine(Engine::Sim(SimConfig::default()))
        .trace(cfg)
        .shards(4)
        .execute()
        .unwrap();
    assert_eq!(sim.ticks, real.ticks);
    assert_eq!(sim.updates, real.updates);

    // The server's own shard helpers agree with the engines' routing.
    let map = GameServer::new(cfg).shard_map(4).unwrap();
    let routed: u64 = GameServer::sharded_traces(cfg, &map)
        .into_iter()
        .map(|mut t| {
            let mut buf = Vec::new();
            let mut n = 0u64;
            while t.next_tick(&mut buf) {
                n += buf.len() as u64;
            }
            n
        })
        .sum();
    assert_eq!(routed, real.updates);
}

#[test]
fn unpaced_and_paced_runs_apply_identical_updates() {
    // Pacing changes wall-clock behaviour but must not change state.
    let dir = tempfile::tempdir().unwrap();
    let quick = trace_config().with_ticks(15);
    let unpaced = Run::algorithm(Algorithm::NaiveSnapshot)
        .engine(real_engine(&dir.path().join("a")))
        .trace(quick)
        .execute()
        .unwrap();
    let paced = Run::algorithm(Algorithm::NaiveSnapshot)
        .engine(real_engine(&dir.path().join("b")))
        .trace(quick)
        .pacing(400.0)
        .execute()
        .unwrap();
    assert_eq!(unpaced.updates, paced.updates);
    assert_eq!(unpaced.verified_consistent(), Some(true));
    assert_eq!(paced.verified_consistent(), Some(true));
}

/// The design-space axes survive the trip through the shared driver on
/// both engines: eager methods pause and copy-on-update methods never do;
/// copy-on-update methods copy. Whether a free-running real writer
/// leaves any first touch to copy is a race with its sweep, so the
/// real-engine copies are asserted on this trace with the writer held,
/// in `mmoc-storage`'s `engine::tests::overhead_shapes_match_copy_timing`.
#[test]
fn design_space_shapes_hold_on_both_engines() {
    let dir = tempfile::tempdir().unwrap();
    for alg in Algorithm::ALL {
        let spec = alg.spec();
        let real = Run::algorithm(alg)
            .engine(Engine::Real(
                RealConfig::new(dir.path().join(alg.short_name())).without_recovery(),
            ))
            .trace(trace_config())
            .execute()
            .unwrap();
        let sim = Run::algorithm(alg)
            .engine(Engine::Sim(SimConfig::default()))
            .trace(trace_config())
            .execute()
            .unwrap();

        let pause =
            |r: &RunReport| -> f64 { r.world.metrics.ticks.iter().map(|t| t.sync_pause_s).sum() };
        let copies =
            |r: &RunReport| -> u64 { r.world.metrics.ticks.iter().map(|t| t.copies).sum() };
        match spec.copy_timing {
            CopyTiming::Eager => {
                assert!(pause(&real) > 0.0, "{alg}: real eager pause");
                assert!(pause(&sim) > 0.0, "{alg}: sim eager pause");
            }
            CopyTiming::OnUpdate => {
                assert_eq!(pause(&real), 0.0, "{alg}: no real eager pause");
                assert_eq!(pause(&sim), 0.0, "{alg}: no sim eager pause");
                assert!(copies(&sim) > 0, "{alg}: sim first-touch copies");
            }
        }
    }
}
