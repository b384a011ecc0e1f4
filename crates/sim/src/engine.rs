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
use crate::fidelity::{FidelityChecker, FidelityReport};
use crate::params::HardwareParams;
use crate::report::ShardedSimReport;
use crate::report::SimReport;
use mmoc_core::algorithms::DEFAULT_FULL_FLUSH_PERIOD;
use mmoc_core::driver::{CheckpointBackend, FlushCompletion, TickOps};
use mmoc_core::run::{
    EngineDetail, ExperimentEngine, FidelitySummary, RecoveryReport, RunError, RunReport, RunSpec,
    RunSummary, ShardReport, SimRunDetail, TraceSpec,
};
use mmoc_core::{
    Algorithm, Bookkeeper, CellUpdate, CheckpointPlan, CoreError, FlushCursor, FlushJob, ObjectId,
    ShardMap, ShardedDriver, TickDriver, TraceSource,
};
use serde::{Deserialize, Serialize};
use std::convert::Infallible;

/// Simulation configuration: hardware model plus game parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
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
    /// The writer's frontier at virtual time `now`, in sweep slots.
    fn frontier_at(&self, now: f64) -> u64 {
        self.active.as_ref().map_or(0, |a| {
            ((now - a.started_at).max(0.0) * self.frontier_rate) as u64
        })
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

    fn end_tick(&mut self, _tick: u64) -> Result<(), Infallible> {
        Ok(())
    }

    fn drain(&mut self, bk: &Bookkeeper) -> Result<Option<FlushCompletion>, Infallible> {
        // Virtual time: let the clock jump to the flush's completion.
        if let Some(a) = &self.active {
            self.clock = self.clock.max(a.started_at + a.async_duration);
        }
        self.poll_completion(bk)
    }
}

/// The simulator: drives one algorithm over one trace.
///
/// Constructed internally by the [`ExperimentEngine`] implementation on
/// [`SimConfig`]; experiments go through the unified builder
/// (`Run::algorithm(alg).engine(sim_config).trace(…).execute()`). The
/// pre-builder `run*` methods were removed after one deprecation release.
#[derive(Debug, Clone)]
pub struct SimEngine {
    config: SimConfig,
    algorithm: Algorithm,
}

impl SimEngine {
    /// Create an engine for the given configuration and algorithm.
    pub fn new(config: SimConfig, algorithm: Algorithm) -> Self {
        config
            .hardware
            .validate()
            .expect("invalid hardware parameters");
        assert!(
            config.tick_freq_hz > 0.0 && config.tick_freq_hz.is_finite(),
            "tick frequency must be positive"
        );
        SimEngine { config, algorithm }
    }

    /// The configuration in use.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// The unsharded run: the exact call sequence `run_sharded_inner`
    /// performs per shard, on the single-driver path. Kept for the
    /// in-crate N = 1 bit-equivalence tests.
    #[cfg(test)]
    fn run_inner<S: TraceSource>(
        &self,
        trace: &mut S,
        fidelity: Option<FidelityChecker>,
    ) -> (SimReport, Option<FidelityReport>) {
        let geometry = trace.geometry();
        geometry.validate().expect("trace geometry must be valid");
        let cost = CostModel::new(self.config.hardware, geometry.object_size);
        let spec = self
            .algorithm
            .spec_with_flush_period(self.config.full_flush_period);

        let mut backend = self.make_backend(&cost, geometry.n_objects(), fidelity);
        let run = match TickDriver::new(spec).run(trace, &mut backend) {
            Ok(run) => run,
            Err(infallible) => match infallible {},
        };

        let report = self.build_report(geometry, &cost, run.ticks, run.updates, run.metrics);
        (report, backend.fidelity.map(FidelityChecker::into_report))
    }

    fn make_backend(
        &self,
        cost: &CostModel,
        n_objects: u32,
        fidelity: Option<FidelityChecker>,
    ) -> SimBackend {
        SimBackend {
            cost: *cost,
            tick_period: self.config.tick_period_s(),
            frontier_rate: cost.frontier_slots_per_s(),
            n_objects,
            clock: 0.0,
            active: None,
            fidelity,
        }
    }

    /// The shared sharded run: the single definition the unified builder
    /// executes — one bookkeeper and one **independent virtual clock**
    /// per shard, advanced in lockstep over the global trace; the
    /// aggregate wall clock (and the recovery estimate) is the max over
    /// shards, because shards run — and restore — in parallel.
    fn run_sharded_inner<S: TraceSource>(
        &self,
        trace: &mut S,
        n_shards: u32,
        checked: bool,
        batching: bool,
    ) -> Result<(ShardedSimReport, Option<Vec<FidelityReport>>), CoreError> {
        let geometry = trace.geometry();
        let map = ShardMap::new(geometry, n_shards)?;
        let cost = CostModel::new(self.config.hardware, geometry.object_size);
        let spec = self
            .algorithm
            .spec_with_flush_period(self.config.full_flush_period);

        let mut backends: Vec<SimBackend> = (0..map.n_shards())
            .map(|s| {
                let fidelity =
                    checked.then(|| FidelityChecker::new(map.shard_geometry(s), self.algorithm));
                self.make_backend(&cost, map.shard_geometry(s).n_objects(), fidelity)
            })
            .collect();

        let run =
            match ShardedDriver::new(TickDriver::new(spec).with_batching(batching), map.clone())
                .run(trace, &mut backends)
            {
                Ok(run) => run,
                Err(infallible) => match infallible {},
            };

        let wall_clock_s = backends.iter().map(|b| b.clock).fold(0.0f64, f64::max);
        let fidelity = checked.then(|| {
            backends
                .iter_mut()
                .map(|b| b.fidelity.take().expect("checker installed").into_report())
                .collect()
        });

        let metrics = run.merged_metrics();
        let shards: Vec<SimReport> = run
            .shards
            .into_iter()
            .enumerate()
            .map(|(s, r)| {
                self.build_report(map.shard_geometry(s), &cost, r.ticks, r.updates, r.metrics)
            })
            .collect();
        // Shards restore in parallel at recovery: the world is back when
        // the slowest shard is.
        let est_recovery_s = shards
            .iter()
            .map(|r| r.est_recovery_s)
            .fold(0.0f64, f64::max);
        let report = ShardedSimReport {
            algorithm: self.algorithm,
            geometry,
            n_shards,
            ticks: run.ticks,
            updates: run.updates,
            checkpoints_completed: metrics.checkpoints.len() as u64,
            avg_overhead_s: metrics.avg_overhead_s(),
            max_overhead_s: metrics.max_overhead_s(),
            avg_checkpoint_s: metrics.avg_checkpoint_s(),
            est_recovery_s,
            wall_clock_s,
            shards,
            metrics,
        };
        Ok((report, fidelity))
    }

    fn build_report(
        &self,
        geometry: mmoc_core::StateGeometry,
        cost: &CostModel,
        ticks: u64,
        updates: u64,
        metrics: mmoc_core::RunMetrics,
    ) -> SimReport {
        let n = geometry.n_objects();
        let spec = self
            .algorithm
            .spec_with_flush_period(self.config.full_flush_period);
        let avg_k = metrics.avg_objects_per_normal_checkpoint();
        let est_restore_s = match spec.full_flush_period {
            Some(c) => cost.restore_partial_redo_s(avg_k, c, n),
            None => cost.restore_full_s(n),
        };
        let est_replay_s = metrics.avg_checkpoint_s();
        SimReport {
            algorithm: self.algorithm,
            geometry,
            ticks,
            updates,
            checkpoints_completed: metrics.checkpoints.len() as u64,
            avg_overhead_s: metrics.avg_overhead_s(),
            max_overhead_s: metrics.max_overhead_s(),
            avg_checkpoint_s: metrics.avg_checkpoint_s(),
            est_restore_s,
            est_replay_s,
            est_recovery_s: est_restore_s + est_replay_s,
            avg_objects_per_checkpoint: avg_k,
            metrics,
        }
    }
}

/// The cost-model simulator as a pluggable experiment engine: a
/// `SimConfig` can be handed straight to
/// [`Run::engine`](mmoc_core::Run::engine) (or wrapped in the facade's
/// `Engine::Sim`). [`RunSpec::pacing_hz`] overrides the configured tick
/// frequency; [`RunSpec::fidelity_check`] enables per-shard shadow-disk
/// verification; recovery times in the report are the §4.2 analytic
/// estimates.
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
        let engine = SimEngine {
            config,
            algorithm: spec.algorithm,
        };
        let mut src = trace.open();
        src.geometry().validate()?;
        let (report, fidelity) =
            engine.run_sharded_inner(&mut src, spec.shards, spec.fidelity_check, spec.batching)?;
        Ok(into_run_report(&config, report, fidelity))
    }
}

/// Map the simulator's sharded report into the unified cross-engine shape.
fn into_run_report(
    config: &SimConfig,
    report: ShardedSimReport,
    fidelity: Option<Vec<FidelityReport>>,
) -> RunReport {
    let mut fidelity: Vec<Option<FidelitySummary>> = match fidelity {
        Some(v) => v
            .into_iter()
            .map(|f| {
                Some(FidelitySummary {
                    checks_passed: f.checks_passed,
                    errors: f.errors,
                })
            })
            .collect(),
        None => vec![None; report.shards.len()],
    };
    let shards = report
        .shards
        .iter()
        .enumerate()
        .map(|(s, r)| ShardReport {
            shard: s as u32,
            ticks: r.ticks,
            updates: r.updates,
            summary: RunSummary::from_metrics(r.metrics.clone(), Some(r.est_recovery_s)),
            recovery: Some(RecoveryReport {
                restore_s: r.est_restore_s,
                replay_s: r.est_replay_s,
                total_s: r.est_recovery_s,
                measured: false,
                restored_from_tick: None,
                ticks_replayed: None,
                updates_replayed: None,
                state_matches: None,
                from_replica: None,
            }),
            fidelity: fidelity[s].take(),
        })
        .collect();
    RunReport {
        algorithm: report.algorithm,
        engine: "sim",
        n_shards: report.n_shards,
        ticks: report.ticks,
        updates: report.updates,
        world: RunSummary::from_metrics(report.metrics, Some(report.est_recovery_s)),
        shards,
        detail: EngineDetail::Sim(SimRunDetail {
            wall_clock_s: report.wall_clock_s,
            tick_period_s: config.tick_period_s(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmoc_core::StateGeometry;
    use mmoc_workload::{SyntheticConfig, TraceSource};

    fn small_trace(ticks: u64, updates: u32, skew: f64) -> impl TraceSource {
        SyntheticConfig {
            geometry: StateGeometry::test_small(),
            ticks,
            updates_per_tick: updates,
            skew,
            seed: 99,
        }
        .build()
    }

    /// The unsharded single-driver path (the call sequence the builder
    /// executes per shard), reported in the simulator's native shape.
    fn sim_run(config: SimConfig, alg: Algorithm, trace: &mut impl TraceSource) -> SimReport {
        SimEngine::new(config, alg).run_inner(trace, None).0
    }

    fn run(alg: Algorithm) -> SimReport {
        sim_run(SimConfig::default(), alg, &mut small_trace(60, 64, 0.5))
    }

    #[test]
    fn all_algorithms_complete_checkpoints() {
        for alg in Algorithm::ALL {
            let report = run(alg);
            assert!(
                report.checkpoints_completed > 0,
                "{alg} completed no checkpoints"
            );
            assert_eq!(report.ticks, 60);
            assert_eq!(report.updates, 60 * 64);
            assert!(report.est_recovery_s > 0.0, "{alg}");
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
        let r1 = sim_run(
            SimConfig::default(),
            Algorithm::NaiveSnapshot,
            &mut small_trace(40, 8, 0.5),
        );
        let r2 = sim_run(
            SimConfig::default(),
            Algorithm::NaiveSnapshot,
            &mut small_trace(40, 512, 0.5),
        );
        assert!(
            (r1.avg_checkpoint_s - r2.avg_checkpoint_s).abs() < 1e-9,
            "{} vs {}",
            r1.avg_checkpoint_s,
            r2.avg_checkpoint_s
        );
    }

    #[test]
    fn partial_redo_checkpoints_faster_at_low_rates() {
        let pr = sim_run(
            SimConfig::default(),
            Algorithm::PartialRedo,
            &mut small_trace(60, 4, 0.5),
        );
        let naive = sim_run(
            SimConfig::default(),
            Algorithm::NaiveSnapshot,
            &mut small_trace(60, 4, 0.5),
        );
        assert!(
            pr.avg_checkpoint_s < naive.avg_checkpoint_s,
            "PR {} !< Naive {}",
            pr.avg_checkpoint_s,
            naive.avg_checkpoint_s
        );
    }

    #[test]
    fn partial_redo_recovery_is_worse_at_high_rates() {
        let pr = sim_run(
            SimConfig::default(),
            Algorithm::PartialRedo,
            &mut small_trace(60, 2048, 0.5),
        );
        let naive = sim_run(
            SimConfig::default(),
            Algorithm::NaiveSnapshot,
            &mut small_trace(60, 2048, 0.5),
        );
        assert!(
            pr.est_recovery_s > naive.est_recovery_s,
            "PR {} !> Naive {}",
            pr.est_recovery_s,
            naive.est_recovery_s
        );
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
        let naive = sim_run(
            config,
            Algorithm::NaiveSnapshot,
            &mut small_trace(60, 64, 0.5),
        );
        let cou = sim_run(
            config,
            Algorithm::CopyOnUpdate,
            &mut small_trace(60, 64, 0.5),
        );
        // Naive's max tick is much larger relative to its average.
        let naive_ratio = naive.max_overhead_s / naive.avg_overhead_s.max(1e-30);
        let cou_ratio = cou.max_overhead_s / cou.avg_overhead_s.max(1e-30);
        assert!(
            naive_ratio > cou_ratio,
            "naive {naive_ratio} vs cou {cou_ratio}"
        );
    }

    #[test]
    fn zero_update_trace_still_checkpoints() {
        for alg in Algorithm::ALL {
            let report = sim_run(SimConfig::default(), alg, &mut small_trace(30, 0, 0.0));
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

    #[test]
    fn one_shard_is_bit_identical_to_the_single_driver_path() {
        for alg in Algorithm::ALL {
            let engine = SimEngine::new(SimConfig::default(), alg);
            let single = engine.run_inner(&mut small_trace(60, 96, 0.7), None).0;
            let sharded = engine
                .run_sharded_inner(&mut small_trace(60, 96, 0.7), 1, false, false)
                .expect("shardable geometry")
                .0;
            assert_eq!(sharded.n_shards, 1);
            assert_eq!(sharded.shards.len(), 1);
            let shard = &sharded.shards[0];
            // The virtual clock is deterministic: every derived number
            // must be *exactly* equal, not just close.
            assert_eq!(shard.ticks, single.ticks, "{alg}");
            assert_eq!(shard.updates, single.updates, "{alg}");
            assert_eq!(shard.metrics.ticks, single.metrics.ticks, "{alg}");
            assert_eq!(
                shard.metrics.checkpoints, single.metrics.checkpoints,
                "{alg}"
            );
            assert_eq!(shard.avg_overhead_s, single.avg_overhead_s, "{alg}");
            assert_eq!(shard.est_recovery_s, single.est_recovery_s, "{alg}");
            // And the world-level aggregates collapse to the shard's.
            assert_eq!(sharded.avg_overhead_s, single.avg_overhead_s, "{alg}");
            assert_eq!(sharded.est_recovery_s, single.est_recovery_s, "{alg}");
        }
    }

    #[test]
    fn sharded_fidelity_holds_and_clocks_are_independent() {
        for alg in Algorithm::ALL {
            let engine = SimEngine::new(SimConfig::default(), alg);
            let (report, fidelity) = engine
                .run_sharded_inner(&mut small_trace(60, 96, 0.7), 4, true, false)
                .expect("shardable geometry");
            let fidelity = fidelity.expect("fidelity checkers were installed");
            assert_eq!(report.n_shards, 4);
            assert_eq!(report.shards.len(), 4);
            assert_eq!(fidelity.len(), 4);
            for (s, f) in fidelity.iter().enumerate() {
                assert!(f.errors.is_empty(), "{alg} shard {s}: {:?}", f.errors);
                assert!(f.checks_passed > 0, "{alg} shard {s}");
            }
            // Each shard prices its own virtual clock; the aggregate wall
            // clock is the slowest shard's.
            let max_clock = report
                .shards
                .iter()
                .map(|r| {
                    r.ticks as f64 * engine.config().tick_period_s()
                        + r.metrics.ticks.iter().map(|t| t.overhead_s).sum::<f64>()
                })
                .fold(0.0f64, f64::max);
            assert!(
                report.wall_clock_s >= max_clock - 1e-9,
                "{alg}: wall clock {} < slowest shard {}",
                report.wall_clock_s,
                max_clock
            );
            // Recovery is parallel: the world estimate is a max, not a sum.
            let max_rec = report
                .shards
                .iter()
                .map(|r| r.est_recovery_s)
                .fold(0.0f64, f64::max);
            assert_eq!(report.est_recovery_s, max_rec, "{alg}");
            // Work is conserved: total updates equal the unsharded trace's.
            assert_eq!(report.updates, 60 * 96, "{alg}");
        }
    }

    #[test]
    fn sharding_shrinks_per_shard_checkpoints() {
        // Fixed total state split 4 ways: each shard flushes ~1/4 of the
        // full-state write, so Naive's per-shard checkpoint time drops.
        let engine = SimEngine::new(SimConfig::default(), Algorithm::NaiveSnapshot);
        let single = engine.run_inner(&mut small_trace(40, 64, 0.5), None).0;
        let sharded = engine
            .run_sharded_inner(&mut small_trace(40, 64, 0.5), 4, false, false)
            .expect("shardable geometry")
            .0;
        assert!(
            sharded.avg_checkpoint_s < single.avg_checkpoint_s,
            "sharded {} !< single {}",
            sharded.avg_checkpoint_s,
            single.avg_checkpoint_s
        );
    }

    fn small_spec(ticks: u64, updates: u32, skew: f64) -> SyntheticConfig {
        SyntheticConfig {
            geometry: StateGeometry::test_small(),
            ticks,
            updates_per_tick: updates,
            skew,
            seed: 99,
        }
    }

    #[test]
    fn builder_path_is_bit_identical_to_the_inner_run() {
        for alg in Algorithm::ALL {
            let legacy = sim_run(SimConfig::default(), alg, &mut small_trace(60, 96, 0.7));
            let report = mmoc_core::Run::algorithm(alg)
                .engine(SimConfig::default())
                .trace(small_spec(60, 96, 0.7))
                .execute()
                .expect("builder run");
            assert_eq!(report.engine, "sim");
            assert_eq!(report.n_shards, 1);
            assert_eq!(report.shards.len(), 1, "{alg}: trivial shard breakdown");
            assert_eq!(report.ticks, legacy.ticks, "{alg}");
            assert_eq!(report.updates, legacy.updates, "{alg}");
            // The virtual clock is deterministic: exact equality.
            assert_eq!(report.world.metrics.ticks, legacy.metrics.ticks, "{alg}");
            assert_eq!(
                report.world.metrics.checkpoints, legacy.metrics.checkpoints,
                "{alg}"
            );
            assert_eq!(report.world.avg_overhead_s, legacy.avg_overhead_s, "{alg}");
            assert_eq!(
                report.world.recovery_s,
                Some(legacy.est_recovery_s),
                "{alg}"
            );
            let rec = report.shards[0].recovery.as_ref().expect("estimate");
            assert!(!rec.measured);
            assert_eq!(rec.restore_s, legacy.est_restore_s, "{alg}");
            assert_eq!(rec.replay_s, legacy.est_replay_s, "{alg}");
        }
    }

    #[test]
    fn builder_fidelity_check_runs_the_shadow_disk() {
        let report = mmoc_core::Run::algorithm(Algorithm::CopyOnUpdate)
            .engine(SimConfig::default())
            .trace(small_spec(60, 96, 0.7))
            .shards(4)
            .fidelity_check(true)
            .execute()
            .expect("checked run");
        assert_eq!(report.shards.len(), 4);
        for s in &report.shards {
            let f = s.fidelity.as_ref().expect("fidelity checked");
            assert!(f.is_clean(), "shard {}: {:?}", s.shard, f.errors);
            assert!(f.checks_passed > 0);
        }
        assert_eq!(report.verified_consistent(), Some(true));
    }

    #[test]
    fn builder_pacing_overrides_the_tick_frequency() {
        let at = |hz: f64| {
            mmoc_core::Run::algorithm(Algorithm::NaiveSnapshot)
                .engine(SimConfig::default())
                .trace(small_spec(40, 32, 0.5))
                .pacing(hz)
                .execute()
                .expect("paced run")
        };
        let fast = at(60.0);
        let slow = at(10.0);
        let wall = |r: &mmoc_core::RunReport| match r.detail {
            mmoc_core::EngineDetail::Sim(d) => d.wall_clock_s,
            _ => unreachable!("sim engine"),
        };
        assert!(
            wall(&slow) > wall(&fast),
            "10 Hz world must take longer than the 60 Hz world"
        );
    }

    #[test]
    fn invalid_configs_are_typed_errors_not_panics() {
        let mut bad = SimConfig::default();
        bad.hardware = bad.hardware.with_disk_bandwidth(-1.0);
        let err = mmoc_core::Run::algorithm(Algorithm::CopyOnUpdate)
            .engine(bad)
            .trace(small_spec(10, 8, 0.5))
            .execute()
            .unwrap_err();
        assert!(matches!(err, mmoc_core::RunError::Config(_)), "{err}");

        let err = mmoc_core::Run::algorithm(Algorithm::CopyOnUpdate)
            .engine(SimConfig::default())
            .trace(small_spec(10, 8, 0.5))
            .shards(1_000_000)
            .execute()
            .unwrap_err();
        assert!(matches!(err, mmoc_core::RunError::Core(_)), "{err}");
    }

    #[test]
    fn fidelity_holds_for_all_algorithms() {
        for alg in Algorithm::ALL {
            let mut trace = small_trace(80, 96, 0.7);
            let checker = FidelityChecker::new(trace.geometry(), alg);
            let (report, fidelity) =
                SimEngine::new(SimConfig::default(), alg).run_inner(&mut trace, Some(checker));
            let fidelity = fidelity.expect("fidelity checker was installed");
            assert!(report.checkpoints_completed > 1, "{alg}");
            assert!(
                fidelity.checks_passed >= report.checkpoints_completed,
                "{alg}: {} checks vs {} checkpoints",
                fidelity.checks_passed,
                report.checkpoints_completed
            );
            assert!(
                fidelity.errors.is_empty(),
                "{alg} fidelity errors: {:?}",
                fidelity.errors
            );
        }
    }
}
