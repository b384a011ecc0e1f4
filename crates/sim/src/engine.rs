//! The discrete tick engine, expressed as a cost-model backend of the
//! unified [`TickDriver`].
//!
//! The orchestration loop — updates through `Handle-Update`, checkpoint
//! completion, checkpoint start — lives in `mmoc_core::driver`; this
//! module contributes only what is simulator-specific:
//!
//! 1. A **virtual clock**: a tick's wall length is the base tick period
//!    plus all recovery-induced overhead, matching the paper's observation
//!    that "a recovery method introduces overhead that stretches ticks
//!    beyond their previous length".
//! 2. The **cost model** (Table 3): update bookkeeping is priced with
//!    `Obit`, `Olock`, `ΔTsync(1)`; eager copies with `ΔTsync(k)`; flush
//!    jobs with the disk model `ΔTasync`.
//! 3. The **writer frontier**: the asynchronous writer's progress advances
//!    with virtual time; updates within a tick observe the frontier as of
//!    the start of the tick (the conservative discretization of the real
//!    engine's genuine mutator/writer race).
//! 4. Optional **value-level fidelity checking** for tests.

use crate::cost::CostModel;
use crate::fidelity::FidelityChecker;
use crate::params::HardwareParams;
use mmoc_core::algorithms::{AlgorithmSpec, DEFAULT_FULL_FLUSH_PERIOD};
use mmoc_core::driver::{CheckpointBackend, DriverRun, FlushCompletion, TickOps};
use mmoc_core::run::{
    EngineDetail, ExperimentEngine, RecoveryReport, RunError, RunReport, RunSpec, RunSummary,
    ShardReport, SimRunDetail, TraceSpec,
};
use mmoc_core::{
    Bookkeeper, CellUpdate, CheckpointPlan, FlushCursor, FlushJob, ObjectId, ShardMap,
    ShardedDriver, TickDriver, TraceSource,
};
use std::convert::Infallible;

/// Simulation configuration: hardware model plus game parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Hardware cost parameters (Table 3).
    pub hardware: HardwareParams,
    /// Tick frequency `Ftick` in Hz (the paper uses 30).
    pub tick_freq_hz: f64,
    /// Full-flush period `C` for the partial-redo algorithms.
    pub full_flush_period: u32,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            hardware: HardwareParams::paper(),
            tick_freq_hz: 30.0,
            full_flush_period: DEFAULT_FULL_FLUSH_PERIOD,
        }
    }
}

impl SimConfig {
    /// Tick period in seconds.
    pub fn tick_period_s(&self) -> f64 {
        1.0 / self.tick_freq_hz
    }
}

/// A checkpoint currently being written (virtual-time bookkeeping).
struct ActiveFlush {
    /// Virtual time at which the asynchronous write began.
    started_at: f64,
    async_duration: f64,
    objects: u32,
}

/// The simulator-specific half of the engine: prices what the driver
/// sequences.
struct SimBackend {
    cost: CostModel,
    tick_period: f64,
    frontier_rate: f64,
    n_objects: u32,
    clock: f64,
    active: Option<ActiveFlush>,
    fidelity: Option<FidelityChecker>,
}

impl SimBackend {
    /// A backend over one shard of `n_objects`, its virtual clock at zero.
    fn new(
        config: &SimConfig,
        cost: &CostModel,
        n_objects: u32,
        fidelity: Option<FidelityChecker>,
    ) -> Self {
        SimBackend {
            cost: *cost,
            tick_period: config.tick_period_s(),
            frontier_rate: cost.frontier_slots_per_s(),
            n_objects,
            clock: 0.0,
            active: None,
            fidelity,
        }
    }

    /// The writer's frontier at virtual time `now`, in sweep slots.
    fn frontier_at(&self, now: f64) -> u64 {
        self.active.as_ref().map_or(0, |a| {
            ((now - a.started_at).max(0.0) * self.frontier_rate) as u64
        })
    }

    /// This shard's slice of the report: the driver's series plus the
    /// §4.2 recovery estimate (restore the newest image, then replay about
    /// one checkpoint's worth of ticks).
    fn into_shard_report(self, spec: AlgorithmSpec, shard: u32, run: DriverRun) -> ShardReport {
        let avg_k = run.metrics.avg_objects_per_normal_checkpoint();
        let restore_s = match spec.full_flush_period {
            Some(c) => self.cost.restore_partial_redo_s(avg_k, c, self.n_objects),
            None => self.cost.restore_full_s(self.n_objects),
        };
        let replay_s = run.metrics.avg_checkpoint_s();
        let total_s = restore_s + replay_s;
        ShardReport {
            shard,
            ticks: run.ticks,
            updates: run.updates,
            summary: RunSummary::from_metrics(run.metrics, Some(total_s)),
            recovery: Some(RecoveryReport {
                restore_s,
                replay_s,
                total_s,
                measured: false,
                restored_from_tick: None,
                ticks_replayed: None,
                updates_replayed: None,
                state_matches: None,
                from_replica: None,
            }),
            fidelity: self.fidelity.map(FidelityChecker::into_report),
        }
    }
}

impl CheckpointBackend for SimBackend {
    type Error = Infallible;

    fn begin_tick(&mut self, _tick: u64) -> Result<(), Infallible> {
        Ok(())
    }

    fn cursor(&mut self) -> FlushCursor {
        FlushCursor::at(self.frontier_at(self.clock))
    }

    fn apply_update(
        &mut self,
        update: CellUpdate,
        obj: ObjectId,
        ops: mmoc_core::UpdateOps,
    ) -> Result<(), Infallible> {
        if let Some(f) = self.fidelity.as_mut() {
            if ops.copy {
                f.save_copy(obj);
            }
            f.apply(update);
        }
        Ok(())
    }

    fn end_updates(&mut self, bk: &Bookkeeper, ops: &TickOps) -> Result<f64, Infallible> {
        let overhead = self
            .cost
            .tick_update_overhead_s(ops.bit_ops, ops.locks, ops.copies);
        self.clock += self.tick_period + overhead;
        // Writer progress during this tick, capped at flush completion.
        if let Some(a) = &self.active {
            if let Some(f) = self.fidelity.as_mut() {
                let now = self.clock.min(a.started_at + a.async_duration);
                let slots = ((now - a.started_at).max(0.0) * self.frontier_rate) as u64;
                f.advance_flush(bk, slots);
            }
        }
        Ok(overhead)
    }

    fn poll_completion(&mut self, bk: &Bookkeeper) -> Result<Option<FlushCompletion>, Infallible> {
        let Some(a) = &self.active else {
            return Ok(None);
        };
        if a.started_at + a.async_duration <= self.clock {
            let a = self.active.take().expect("active flush");
            if let Some(f) = self.fidelity.as_mut() {
                f.complete_checkpoint(bk);
            }
            Ok(Some(FlushCompletion {
                duration_s: a.async_duration,
                objects_written: a.objects,
                bytes_written: self.cost.bytes_written(a.objects),
            }))
        } else {
            Ok(None)
        }
    }

    fn start_checkpoint(
        &mut self,
        bk: &Bookkeeper,
        plan: &CheckpointPlan,
        _tick: u64,
    ) -> Result<f64, Infallible> {
        let sync_pause = plan.sync_copy.map_or(0.0, |c| self.cost.sync_copy_s(c));
        self.clock += sync_pause;
        let async_duration = match plan.flush {
            FlushJob::None => 0.0,
            FlushJob::Snapshot { objects, org } | FlushJob::Sweep { objects, org, .. } => {
                self.cost.async_write_s(org, objects, self.n_objects)
            }
        };
        if let Some(f) = self.fidelity.as_mut() {
            f.begin_checkpoint(bk);
        }
        self.active = Some(ActiveFlush {
            started_at: self.clock,
            async_duration,
            objects: plan.flush.objects(),
        });
        Ok(sync_pause)
    }

    fn drain(&mut self, bk: &Bookkeeper) -> Result<Option<FlushCompletion>, Infallible> {
        // Virtual time: let the clock jump to the flush's completion.
        if let Some(a) = &self.active {
            self.clock = self.clock.max(a.started_at + a.async_duration);
        }
        self.poll_completion(bk)
    }
}

/// The cost-model simulator as a pluggable experiment engine: a
/// `SimConfig` can be handed straight to
/// [`Run::engine`](mmoc_core::Run::engine) (or wrapped in the facade's
/// `Engine::Sim`). [`RunSpec::pacing_hz`] overrides the configured tick
/// frequency; [`RunSpec::fidelity_check`] enables per-shard shadow-disk
/// verification; recovery times in the report are the §4.2 analytic
/// estimates.
///
/// Every shard gets its own bookkeeper and **independent virtual clock**,
/// advanced in lockstep over the global trace; the world's wall clock and
/// recovery estimate are the max over shards, because shards run — and
/// restore — in parallel.
impl ExperimentEngine for SimConfig {
    fn run_experiment<T: TraceSpec + ?Sized>(
        &self,
        spec: &RunSpec,
        trace: &T,
    ) -> Result<RunReport, RunError> {
        let mut config = *self;
        if let Some(hz) = spec.pacing_hz {
            config.tick_freq_hz = hz;
        }
        config.hardware.validate().map_err(RunError::Config)?;
        if !(config.tick_freq_hz > 0.0 && config.tick_freq_hz.is_finite()) {
            return Err(RunError::Config(format!(
                "tick frequency must be positive and finite, got {}",
                config.tick_freq_hz
            )));
        }
        let mut trace = trace.open();
        let geometry = trace.geometry();
        geometry.validate()?;
        let map = ShardMap::new(geometry, spec.shards)?;
        let cost = CostModel::new(config.hardware, geometry.object_size);
        let alg_spec = spec
            .algorithm
            .spec_with_flush_period(config.full_flush_period);

        let mut backends: Vec<SimBackend> = (0..map.n_shards())
            .map(|s| {
                let g = map.shard_geometry(s);
                let fidelity = spec
                    .fidelity_check
                    .then(|| FidelityChecker::new(g, spec.algorithm));
                SimBackend::new(&config, &cost, g.n_objects(), fidelity)
            })
            .collect();
        let driver = TickDriver::new(alg_spec).with_batching(spec.batching);
        let run = match ShardedDriver::new(driver, map).run(&mut trace, &mut backends) {
            Ok(run) => run,
            Err(infallible) => match infallible {},
        };

        let metrics = run.merged_metrics();
        let wall_clock_s = backends.iter().map(|b| b.clock).fold(0.0f64, f64::max);
        let shards: Vec<ShardReport> = backends
            .into_iter()
            .zip(run.shards)
            .enumerate()
            .map(|(s, (backend, r))| backend.into_shard_report(alg_spec, s as u32, r))
            .collect();
        // Shards restore in parallel: the world is back when the slowest is.
        let recovery_s = shards
            .iter()
            .filter_map(|s| s.summary.recovery_s)
            .fold(0.0f64, f64::max);
        Ok(RunReport {
            algorithm: spec.algorithm,
            engine: "sim",
            n_shards: spec.shards,
            ticks: run.ticks,
            updates: run.updates,
            world: RunSummary::from_metrics(metrics, Some(recovery_s)),
            shards,
            detail: EngineDetail::Sim(SimRunDetail {
                wall_clock_s,
                tick_period_s: config.tick_period_s(),
            }),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmoc_core::{Algorithm, Run, StateGeometry};
    use mmoc_workload::SyntheticConfig;

    fn small_spec(ticks: u64, updates: u32, skew: f64) -> SyntheticConfig {
        SyntheticConfig {
            geometry: StateGeometry::test_small(),
            ticks,
            updates_per_tick: updates,
            skew,
            seed: 99,
        }
    }

    /// The bare single-`TickDriver` path — the reference the builder's
    /// N = 1 sharded run is held to — reported by the same function.
    fn single_driver_run(
        config: SimConfig,
        alg: Algorithm,
        trace: SyntheticConfig,
        checked: bool,
    ) -> ShardReport {
        let geometry = trace.geometry;
        let cost = CostModel::new(config.hardware, geometry.object_size);
        let spec = alg.spec_with_flush_period(config.full_flush_period);
        let fidelity = checked.then(|| FidelityChecker::new(geometry, alg));
        let mut backend = SimBackend::new(&config, &cost, geometry.n_objects(), fidelity);
        let run = match TickDriver::new(spec).run(&mut trace.build(), &mut backend) {
            Ok(run) => run,
            Err(infallible) => match infallible {},
        };
        backend.into_shard_report(spec, 0, run)
    }

    fn sim_run(config: SimConfig, alg: Algorithm, trace: SyntheticConfig) -> RunSummary {
        single_driver_run(config, alg, trace, false).summary
    }

    fn run(alg: Algorithm) -> RunSummary {
        sim_run(SimConfig::default(), alg, small_spec(60, 64, 0.5))
    }

    fn build(alg: Algorithm, trace: SyntheticConfig, shards: u32, checked: bool) -> RunReport {
        Run::algorithm(alg)
            .engine(SimConfig::default())
            .trace(trace)
            .shards(shards)
            .fidelity_check(checked)
            .execute()
            .expect("builder run")
    }

    fn wall_clock_s(report: &RunReport) -> f64 {
        match report.detail {
            EngineDetail::Sim(d) => d.wall_clock_s,
            EngineDetail::Real(_) => unreachable!("sim engine"),
        }
    }

    #[test]
    fn all_algorithms_complete_checkpoints() {
        for alg in Algorithm::ALL {
            let report =
                single_driver_run(SimConfig::default(), alg, small_spec(60, 64, 0.5), false);
            assert!(
                report.summary.checkpoints_completed > 0,
                "{alg} completed no checkpoints"
            );
            assert_eq!(report.ticks, 60);
            assert_eq!(report.updates, 60 * 64);
            assert!(report.summary.recovery_s.unwrap() > 0.0, "{alg}");
        }
    }

    #[test]
    fn naive_overhead_is_pure_sync_pause() {
        let report = run(Algorithm::NaiveSnapshot);
        for t in &report.metrics.ticks {
            assert_eq!(t.bit_ops, 0);
            assert_eq!(t.locks, 0);
            assert_eq!(t.copies, 0);
            assert!(
                (t.overhead_s - t.sync_pause_s).abs() < 1e-15,
                "naive overhead must be exactly the sync pause"
            );
        }
    }

    #[test]
    fn cou_overhead_has_no_sync_pause() {
        let report = run(Algorithm::CopyOnUpdate);
        for t in &report.metrics.ticks {
            assert_eq!(t.sync_pause_s, 0.0);
        }
        // But it does copy objects.
        let copies: u64 = report.metrics.ticks.iter().map(|t| t.copies).sum();
        assert!(copies > 0);
    }

    #[test]
    fn checkpoints_are_back_to_back() {
        let report = run(Algorithm::NaiveSnapshot);
        let cps = &report.metrics.checkpoints;
        assert!(cps.len() >= 2);
        for w in cps.windows(2) {
            // The next checkpoint starts at the tick its predecessor
            // completed in.
            assert_eq!(w[1].start_tick, w[0].end_tick);
            assert_eq!(w[1].seq, w[0].seq + 1);
        }
    }

    #[test]
    fn full_state_methods_have_constant_checkpoint_time() {
        // Naive writes n objects to the double backup every time: its
        // checkpoint duration is independent of the update rate.
        let at = |updates| {
            sim_run(
                SimConfig::default(),
                Algorithm::NaiveSnapshot,
                small_spec(40, updates, 0.5),
            )
            .avg_checkpoint_s
        };
        assert!((at(8) - at(512)).abs() < 1e-9, "{} vs {}", at(8), at(512));
    }

    #[test]
    fn partial_redo_checkpoints_faster_at_low_rates() {
        let at = |alg| sim_run(SimConfig::default(), alg, small_spec(60, 4, 0.5)).avg_checkpoint_s;
        let (pr, naive) = (at(Algorithm::PartialRedo), at(Algorithm::NaiveSnapshot));
        assert!(pr < naive, "PR {pr} !< Naive {naive}");
    }

    #[test]
    fn partial_redo_recovery_is_worse_at_high_rates() {
        let at = |alg| sim_run(SimConfig::default(), alg, small_spec(60, 2048, 0.5)).recovery_s;
        let (pr, naive) = (at(Algorithm::PartialRedo), at(Algorithm::NaiveSnapshot));
        assert!(pr > naive, "PR {pr:?} !> Naive {naive:?}");
    }

    #[test]
    fn eager_methods_concentrate_overhead_cou_spreads_it() {
        // Slow the disk down so one checkpoint spans many ticks (the
        // paper's regime); with the default disk the tiny test state
        // checkpoints every tick and every Naive tick pays a sync pause.
        let config = SimConfig {
            // 16 KB test state at 20 kB/s: one checkpoint ≈ 24 ticks.
            hardware: HardwareParams::paper().with_disk_bandwidth(20e3),
            ..SimConfig::default()
        };
        // Naive's max tick is much larger relative to its average.
        let peak_ratio = |alg| {
            let r = sim_run(config, alg, small_spec(60, 64, 0.5));
            r.max_overhead_s / r.avg_overhead_s.max(1e-30)
        };
        let naive_ratio = peak_ratio(Algorithm::NaiveSnapshot);
        let cou_ratio = peak_ratio(Algorithm::CopyOnUpdate);
        assert!(
            naive_ratio > cou_ratio,
            "naive {naive_ratio} vs cou {cou_ratio}"
        );
    }

    #[test]
    fn zero_update_trace_still_checkpoints() {
        for alg in Algorithm::ALL {
            let report = sim_run(SimConfig::default(), alg, small_spec(30, 0, 0.0));
            assert!(
                report.checkpoints_completed > 0,
                "{alg} must cycle empty checkpoints"
            );
            // Dirty-only algorithms write nothing.
            if alg != Algorithm::NaiveSnapshot && alg != Algorithm::DribbleAndCopyOnUpdate {
                let normal_bytes: u64 = report
                    .metrics
                    .checkpoints
                    .iter()
                    .filter(|c| !c.full_flush)
                    .map(|c| c.bytes_written)
                    .sum();
                assert_eq!(normal_bytes, 0, "{alg}");
            }
        }
    }

    /// The builder's N = 1 sharded run against the bare single-driver
    /// path. The virtual clock is deterministic: every derived number must
    /// be *exactly* equal, not just close — for the shard's slice and for
    /// the world summary it collapses to.
    #[test]
    fn one_shard_builder_run_is_bit_identical_to_the_single_driver_path() {
        for alg in Algorithm::ALL {
            let single =
                single_driver_run(SimConfig::default(), alg, small_spec(60, 96, 0.7), false);
            let report = build(alg, small_spec(60, 96, 0.7), 1, false);
            assert_eq!(report.engine, "sim");
            assert_eq!(report.n_shards, 1);
            assert_eq!(report.shards.len(), 1, "{alg}: trivial shard breakdown");
            let shard = &report.shards[0];
            assert_eq!(report.ticks, single.ticks, "{alg}");
            assert_eq!(report.updates, single.updates, "{alg}");
            assert_eq!(shard.ticks, single.ticks, "{alg}");
            assert_eq!(shard.updates, single.updates, "{alg}");
            let rec = shard.recovery.as_ref().expect("estimate");
            let single_rec = single.recovery.as_ref().expect("estimate");
            assert!(!rec.measured);
            assert_eq!(rec.restore_s, single_rec.restore_s, "{alg}");
            assert_eq!(rec.replay_s, single_rec.replay_s, "{alg}");
            assert_eq!(rec.total_s, single_rec.total_s, "{alg}");
            for summary in [&shard.summary, &report.world] {
                assert_eq!(summary.metrics.ticks, single.summary.metrics.ticks, "{alg}");
                assert_eq!(
                    summary.metrics.checkpoints, single.summary.metrics.checkpoints,
                    "{alg}"
                );
                assert_eq!(
                    summary.avg_overhead_s, single.summary.avg_overhead_s,
                    "{alg}"
                );
                assert_eq!(summary.recovery_s, Some(single_rec.total_s), "{alg}");
            }
        }
    }

    #[test]
    fn sharded_fidelity_holds_and_clocks_are_independent() {
        for alg in Algorithm::ALL {
            let report = build(alg, small_spec(60, 96, 0.7), 4, true);
            assert_eq!(report.n_shards, 4);
            assert_eq!(report.shards.len(), 4);
            for s in &report.shards {
                let f = s.fidelity.as_ref().expect("fidelity checked");
                assert!(f.is_clean(), "{alg} shard {}: {:?}", s.shard, f.errors);
                assert!(f.checks_passed > 0, "{alg} shard {}", s.shard);
            }
            assert_eq!(report.verified_consistent(), Some(true), "{alg}");
            // Each shard prices its own virtual clock; the aggregate wall
            // clock is the slowest shard's.
            let max_clock = report
                .shards
                .iter()
                .map(|r| {
                    r.ticks as f64 * SimConfig::default().tick_period_s()
                        + r.summary
                            .metrics
                            .ticks
                            .iter()
                            .map(|t| t.overhead_s)
                            .sum::<f64>()
                })
                .fold(0.0f64, f64::max);
            assert!(
                wall_clock_s(&report) >= max_clock - 1e-9,
                "{alg}: wall clock {} < slowest shard {}",
                wall_clock_s(&report),
                max_clock
            );
            // Recovery is parallel: the world estimate is a max, not a
            // sum — the sum is what a serial recovery would cost.
            let shard_rec = || report.shards.iter().map(|r| r.summary.recovery_s.unwrap());
            assert_eq!(
                report.recovery_s(),
                Some(shard_rec().fold(0.0f64, f64::max)),
                "{alg}"
            );
            assert_eq!(report.serial_recovery_s(), Some(shard_rec().sum()), "{alg}");
            // Work is conserved: total updates equal the unsharded trace's.
            assert_eq!(report.updates, 60 * 96, "{alg}");
        }
    }

    #[test]
    fn sharding_shrinks_per_shard_checkpoints() {
        // Fixed total state split 4 ways: each shard flushes ~1/4 of the
        // full-state write, so Naive's per-shard checkpoint time drops.
        let at = |shards| {
            build(
                Algorithm::NaiveSnapshot,
                small_spec(40, 64, 0.5),
                shards,
                false,
            )
            .world
            .avg_checkpoint_s
        };
        assert!(at(4) < at(1), "sharded {} !< single {}", at(4), at(1));
    }

    #[test]
    fn builder_pacing_overrides_the_tick_frequency() {
        let at = |hz: f64| {
            let report = Run::algorithm(Algorithm::NaiveSnapshot)
                .engine(SimConfig::default())
                .trace(small_spec(40, 32, 0.5))
                .pacing(hz)
                .execute()
                .expect("paced run");
            wall_clock_s(&report)
        };
        assert!(
            at(10.0) > at(60.0),
            "10 Hz world must take longer than the 60 Hz world"
        );
    }

    #[test]
    fn invalid_configs_are_typed_errors_not_panics() {
        let mut bad = SimConfig::default();
        bad.hardware = bad.hardware.with_disk_bandwidth(-1.0);
        let err = Run::algorithm(Algorithm::CopyOnUpdate)
            .engine(bad)
            .trace(small_spec(10, 8, 0.5))
            .execute()
            .unwrap_err();
        assert!(matches!(err, RunError::Config(_)), "{err}");

        let err = Run::algorithm(Algorithm::CopyOnUpdate)
            .engine(SimConfig::default())
            .trace(small_spec(10, 8, 0.5))
            .shards(1_000_000)
            .execute()
            .unwrap_err();
        assert!(matches!(err, RunError::Core(_)), "{err}");
    }

    #[test]
    fn fidelity_holds_for_all_algorithms() {
        for alg in Algorithm::ALL {
            let report =
                single_driver_run(SimConfig::default(), alg, small_spec(80, 96, 0.7), true);
            let fidelity = report.fidelity.expect("fidelity checker was installed");
            let checkpoints = report.summary.checkpoints_completed;
            assert!(checkpoints > 1, "{alg}");
            assert!(
                fidelity.checks_passed >= checkpoints,
                "{alg}: {} checks vs {checkpoints} checkpoints",
                fidelity.checks_passed,
            );
            assert!(
                fidelity.is_clean(),
                "{alg} fidelity errors: {:?}",
                fidelity.errors
            );
        }
    }
}
