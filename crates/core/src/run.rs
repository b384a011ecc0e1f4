//! The unified experiment API: one builder, one report, both engines.
//!
//! The paper's contribution is a *controlled comparison* — six algorithms
//! measured under one cost-model simulator and validated against one real
//! engine — so every engine is reached through one entry point and
//! reports in one shape. [`Run`] is a single description of an
//! experiment:
//!
//! ```text
//! Run::algorithm(Algorithm::CopyOnUpdate)   // what to measure
//!     .engine(engine)                       // where to run it (sim / real / …)
//!     .trace(trace)                         // the workload
//!     .shards(4)                            // how the world is partitioned
//!     .batching(true)                       // driver-level update coalescing
//!     .fidelity_check(true)                 // value-level verification
//!     .pacing(30.0)                         // tick rate in Hz
//!     .execute()?                           // -> RunReport
//! ```
//!
//! Three traits make the builder engine- and workload-agnostic:
//!
//! * [`ExperimentEngine`] — implemented by `mmoc-sim`'s `SimConfig`, by
//!   `mmoc-storage`'s `RealConfig`, and by the facade's `Engine` enum.
//!   A future backend (async I/O writer, replicated store) plugs into the
//!   same comparison matrix by implementing this one trait.
//! * [`TraceSpec`] — a *replayable description* of a workload (a synthetic
//!   config, a game battle, a closure opening a trace file). Engines that
//!   measure real crash recovery re-open the spec to replay the stream.
//! * [`crate::TraceSource`] — the streaming trace the spec opens.
//!
//! Every engine returns the same [`RunReport`]: a shared metric core
//! ([`RunSummary`], backed by [`RunMetrics`]), a per-shard breakdown that
//! is trivially present for single-shard runs, and one [`EngineDetail`]
//! variant of engine-specific extras. Failures surface as the typed
//! [`RunError`] instead of the historical panic / `io::Error` mix.

use crate::algorithms::Algorithm;
use crate::error::CoreError;
use crate::metrics::RunMetrics;
use crate::trace::TraceSource;
use std::fmt;

// ---------------------------------------------------------------------------
// Trace specifications
// ---------------------------------------------------------------------------

/// A replayable description of a workload.
///
/// [`TraceSpec::open`] may be called any number of times and must yield
/// byte-identical update streams each time: deterministic replay is what
/// lets the real engine measure crash recovery (restore a checkpoint,
/// re-run the stream) and lets sharded recovery replay each shard's slice
/// independently. Implementors are descriptions — a synthetic-workload
/// config, a game configuration, a recorded trace file — not live cursors.
pub trait TraceSpec: Sync {
    /// The streaming trace this spec opens.
    type Source: TraceSource;

    /// Open a fresh cursor over the trace, starting at tick one.
    fn open(&self) -> Self::Source;
}

/// Adapter turning a `Fn() -> impl TraceSource` closure into a
/// [`TraceSpec`], for workloads without a config type of their own:
///
/// ```
/// use mmoc_core::run::{TraceFn, TraceSpec};
/// # use mmoc_core::{CellUpdate, StateGeometry, TraceSource};
/// # #[derive(Clone)] struct MyTrace(StateGeometry);
/// # impl TraceSource for MyTrace {
/// #     fn geometry(&self) -> StateGeometry { self.0 }
/// #     fn next_tick(&mut self, _b: &mut Vec<CellUpdate>) -> bool { false }
/// # }
/// # let template = MyTrace(StateGeometry::test_small());
/// let spec = TraceFn(|| template.clone());
/// let trace = spec.open();
/// ```
#[derive(Debug, Clone, Copy)]
pub struct TraceFn<F>(pub F);

impl<S, F> TraceSpec for TraceFn<F>
where
    S: TraceSource,
    F: Fn() -> S + Sync,
{
    type Source = S;

    fn open(&self) -> S {
        (self.0)()
    }
}

impl<T: TraceSpec> TraceSpec for &T {
    type Source = T::Source;

    fn open(&self) -> Self::Source {
        (**self).open()
    }
}

// ---------------------------------------------------------------------------
// The experiment description
// ---------------------------------------------------------------------------

/// Selection of the asynchronous checkpoint-writer implementation an
/// engine uses to flush checkpoints to stable storage.
///
/// The backends are **recovery-equivalent by contract** — same files,
/// same durability ordering (data sync before metadata commit), same
/// published sweep frontier semantics — and run the same flush round,
/// differing only in loop count;
/// `crates/storage/tests/writer_equivalence.rs` pins the equivalence
/// differentially. The selection is a field of the real engine's
/// configuration; the type lives here because [`RealRunDetail`] reports
/// which backend ran.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum WriterBackend {
    /// A pool of writer loops, each owning a fixed group of shards (the
    /// historical engine; a single-shard run is a pool of one — the
    /// classic dedicated writer thread).
    #[default]
    ThreadPool,
    /// One loop over every shard: it coalesces every queued flush job
    /// into a batch, issues all data writes, then reaches each job's
    /// durability point and acks completions **out of submission order**
    /// (syncs coalesce at the batch tail).
    AsyncBatched,
    /// Retired: the name of a removed `io_uring` writer, kept only while
    /// the frozen benchmark (`ledger/src/workloads.rs`) spells it. A run
    /// requesting it runs [`WriterBackend::AsyncBatched`] and reports
    /// `writer_fallback_from = Some(IoUring)`. It is in no matrix
    /// ([`WriterBackend::ALL`]) and no environment value selects it.
    IoUring,
}

impl WriterBackend {
    /// Every selectable writer backend, for comparison matrices.
    pub const ALL: [WriterBackend; 2] = [WriterBackend::ThreadPool, WriterBackend::AsyncBatched];

    /// Stable label used in reports, CSV output and the
    /// `MMOC_WRITER_BACKEND` environment override.
    pub fn label(self) -> &'static str {
        match self {
            WriterBackend::ThreadPool => "thread-pool",
            WriterBackend::AsyncBatched => "async-batched",
            WriterBackend::IoUring => "io-uring",
        }
    }
}

impl fmt::Display for WriterBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The engine-independent description of one experiment, assembled by
/// [`Run`] and consumed by [`ExperimentEngine`] implementations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunSpec {
    /// The checkpoint-recovery algorithm to measure.
    pub algorithm: Algorithm,
    /// Number of disjoint shards the world is split into (≥ 1; the shard
    /// map must be able to align this many object bands).
    pub shards: u32,
    /// Driver-level update batching: coalesce same-object updates within
    /// a tick before bookkeeping (write sets stay bit-identical; the
    /// accounting drops redundant dirty-bit operations).
    pub batching: bool,
    /// Value-level verification. The simulator keeps a shadow disk and
    /// compares every completed checkpoint against the state at its start
    /// tick; the real engine forces its end-of-run crash-recovery
    /// measurement (restore + replay + byte comparison) on.
    pub fidelity_check: bool,
    /// Tick rate in Hz. The simulator prices ticks at this frequency; the
    /// real engine paces its mutator, sleeping out the remainder of every
    /// global tick. `None` keeps each engine's configured default.
    pub pacing_hz: Option<f64>,
}

impl RunSpec {
    /// A single-shard, unbatched, unchecked spec for `algorithm` at the
    /// engine's default tick rate.
    pub fn new(algorithm: Algorithm) -> Self {
        RunSpec {
            algorithm,
            shards: 1,
            batching: false,
            fidelity_check: false,
            pacing_hz: None,
        }
    }

    /// Check the engine-independent invariants.
    pub fn validate(&self) -> Result<(), RunError> {
        if self.shards == 0 {
            return Err(RunError::Config(
                "an experiment needs at least one shard".into(),
            ));
        }
        if let Some(hz) = self.pacing_hz {
            if !(hz > 0.0 && hz.is_finite()) {
                return Err(RunError::Config(format!(
                    "pacing frequency must be positive and finite, got {hz}"
                )));
            }
        }
        Ok(())
    }
}

/// Marker for a [`Run`] that has no engine yet (calling
/// [`Run::execute`] is a compile error until [`Run::engine`] is called).
#[derive(Debug, Clone, Copy, Default)]
pub struct NoEngine;

/// Marker for a [`Run`] that has no trace yet (calling
/// [`Run::execute`] is a compile error until [`Run::trace`] is called).
#[derive(Debug, Clone, Copy, Default)]
pub struct NoTrace;

/// Builder describing one experiment: an algorithm, an engine, a trace,
/// and the run options shared by every backend. See the [module
/// docs](self) for the full shape.
///
/// The builder is typestate-checked: [`Run::execute`] only exists once
/// both an [`ExperimentEngine`] and a [`TraceSpec`] have been supplied.
#[derive(Debug, Clone)]
pub struct Run<E = NoEngine, T = NoTrace> {
    spec: RunSpec,
    engine: E,
    trace: T,
}

impl Run {
    /// Start describing an experiment for `algorithm`.
    pub fn algorithm(algorithm: Algorithm) -> Run {
        Run {
            spec: RunSpec::new(algorithm),
            engine: NoEngine,
            trace: NoTrace,
        }
    }
}

impl<E, T> Run<E, T> {
    /// Select the engine executing the experiment (`SimConfig`,
    /// `RealConfig`, the facade's `Engine` enum, or any future backend).
    pub fn engine<E2: ExperimentEngine>(self, engine: E2) -> Run<E2, T> {
        Run {
            spec: self.spec,
            engine,
            trace: self.trace,
        }
    }

    /// Select the workload: any replayable trace description.
    pub fn trace<T2: TraceSpec>(self, trace: T2) -> Run<E, T2> {
        Run {
            spec: self.spec,
            engine: self.engine,
            trace,
        }
    }

    /// Select the workload from a replayable closure (each call must
    /// yield an identical stream). Shorthand for `.trace(TraceFn(f))`.
    pub fn trace_fn<S, F>(self, f: F) -> Run<E, TraceFn<F>>
    where
        S: TraceSource,
        F: Fn() -> S + Sync,
    {
        self.trace(TraceFn(f))
    }

    /// Split the world into `n` disjoint object-aligned shards (default 1).
    pub fn shards(mut self, n: u32) -> Self {
        self.spec.shards = n;
        self
    }

    /// Enable driver-level update batching (default off; see
    /// [`RunSpec::batching`]).
    pub fn batching(mut self, on: bool) -> Self {
        self.spec.batching = on;
        self
    }

    /// Enable value-level verification (default off; see
    /// [`RunSpec::fidelity_check`]).
    pub fn fidelity_check(mut self, on: bool) -> Self {
        self.spec.fidelity_check = on;
        self
    }

    /// Run the world at `hz` ticks per second (see [`RunSpec::pacing_hz`]).
    pub fn pacing(mut self, hz: f64) -> Self {
        self.spec.pacing_hz = Some(hz);
        self
    }

    /// The engine-independent description assembled so far.
    pub fn spec(&self) -> &RunSpec {
        &self.spec
    }
}

impl<E: ExperimentEngine, T: TraceSpec> Run<E, T> {
    /// Execute the experiment and collect the unified report.
    ///
    /// `execute` borrows the builder, so a configured run can be executed
    /// repeatedly (each execution opens a fresh trace cursor).
    pub fn execute(&self) -> Result<RunReport, RunError> {
        self.spec.validate()?;
        self.engine.run_experiment(&self.spec, &self.trace)
    }
}

/// A backend able to execute a [`RunSpec`] over a [`TraceSpec`] and
/// report in the unified shape.
///
/// Implementations: the cost-model simulator (`mmoc-sim::SimConfig`), the
/// real disk-backed engine (`mmoc-storage::RealConfig`), and the facade's
/// `Engine` enum dispatching between them. New backends implement this
/// trait and immediately participate in the full comparison matrix (all
/// six algorithms, any shard count, the same report type).
pub trait ExperimentEngine {
    /// Execute `spec` over the workload described by `trace`.
    ///
    /// Callers go through [`Run::execute`], which validates the spec
    /// first; implementations may assume [`RunSpec::validate`] passed.
    fn run_experiment<T: TraceSpec + ?Sized>(
        &self,
        spec: &RunSpec,
        trace: &T,
    ) -> Result<RunReport, RunError>;
}

impl<E: ExperimentEngine> ExperimentEngine for &E {
    fn run_experiment<T: TraceSpec + ?Sized>(
        &self,
        spec: &RunSpec,
        trace: &T,
    ) -> Result<RunReport, RunError> {
        (**self).run_experiment(spec, trace)
    }
}

// ---------------------------------------------------------------------------
// The unified report
// ---------------------------------------------------------------------------

/// The shared metric core of a run, reported at world level and per
/// shard: the paper's three quantities (overhead, time to checkpoint,
/// recovery time) over the raw [`RunMetrics`] series they derive from.
#[derive(Debug, Clone)]
pub struct RunSummary {
    /// Completed checkpoints.
    pub checkpoints_completed: u64,
    /// Average overhead added per tick, in seconds. At world level each
    /// tick costs the max across shards (shards run in parallel).
    pub avg_overhead_s: f64,
    /// Worst single-tick overhead, in seconds.
    pub max_overhead_s: f64,
    /// Average time to checkpoint, in seconds.
    pub avg_checkpoint_s: f64,
    /// Recovery time, in seconds: the simulator's analytic estimate or
    /// the real engine's measured restore + replay. At world level shards
    /// recover in parallel, so this tracks the slowest shard. `None` when
    /// the engine did not measure recovery.
    pub recovery_s: Option<f64>,
    /// The raw per-tick and per-checkpoint series (at world level, the
    /// shard series merged by [`RunMetrics::merge_shards`]).
    pub metrics: RunMetrics,
}

impl RunSummary {
    /// Build the summary straight from a metric series.
    pub fn from_metrics(metrics: RunMetrics, recovery_s: Option<f64>) -> Self {
        RunSummary {
            checkpoints_completed: metrics.checkpoints.len() as u64,
            avg_overhead_s: metrics.avg_overhead_s(),
            max_overhead_s: metrics.max_overhead_s(),
            avg_checkpoint_s: metrics.avg_checkpoint_s(),
            recovery_s,
            metrics,
        }
    }
}

/// One recovery measurement or estimate: restore the newest checkpoint,
/// replay the logical log.
#[derive(Debug, Clone)]
pub struct RecoveryReport {
    /// Time to restore the checkpoint image, in seconds.
    pub restore_s: f64,
    /// Time to replay the update stream after restore, in seconds.
    pub replay_s: f64,
    /// Total recovery time, in seconds.
    pub total_s: f64,
    /// `true` for a wall-clock measurement (real engine), `false` for the
    /// simulator's analytic estimate.
    pub measured: bool,
    /// Tick of the restored checkpoint image (measured recoveries only).
    pub restored_from_tick: Option<u64>,
    /// Ticks replayed after restore (measured recoveries only).
    pub ticks_replayed: Option<u64>,
    /// Updates replayed after restore (measured recoveries only).
    pub updates_replayed: Option<u64>,
    /// Whether the recovered state byte-matched the live state at the
    /// crash tick (measured recoveries only).
    pub state_matches: Option<bool>,
    /// Whether the restore came from a peer shard's memory mirror (the
    /// replica tier) instead of disk (measured recoveries only; `None`
    /// for the simulator's estimate).
    pub from_replica: Option<bool>,
}

/// Outcome of the simulator's value-level fidelity checking for one
/// shard: every completed checkpoint's shadow-disk image compared against
/// the state at the checkpoint's start tick.
#[derive(Debug, Clone)]
pub struct FidelitySummary {
    /// Checkpoint images verified equal to their start state.
    pub checks_passed: u64,
    /// Human-readable mismatch descriptions (empty on success).
    pub errors: Vec<String>,
}

impl FidelitySummary {
    /// True if every completed checkpoint verified clean.
    pub fn is_clean(&self) -> bool {
        self.errors.is_empty()
    }
}

/// One shard's slice of a run.
#[derive(Debug, Clone)]
pub struct ShardReport {
    /// Shard index (0-based, in [`crate::ShardMap`] band order).
    pub shard: u32,
    /// Ticks this shard executed (every shard executes every global tick).
    pub ticks: u64,
    /// Updates routed to this shard.
    pub updates: u64,
    /// The shard's metric core.
    pub summary: RunSummary,
    /// The shard's recovery measurement or estimate, when available.
    pub recovery: Option<RecoveryReport>,
    /// The shard's fidelity-check outcome, when [`RunSpec::fidelity_check`]
    /// was on and the engine performs shadow checking (the simulator).
    pub fidelity: Option<FidelitySummary>,
}

/// Engine-specific extras of a [`RunReport`]. Each backend contributes
/// one variant; the shared comparison surface lives in [`RunSummary`].
#[derive(Debug, Clone)]
pub enum EngineDetail {
    /// Cost-model simulator extras.
    Sim(SimRunDetail),
    /// Real disk-backed engine extras.
    Real(RealRunDetail),
}

/// Simulator-specific run detail.
#[derive(Debug, Clone, Copy)]
pub struct SimRunDetail {
    /// Aggregate virtual wall clock, in seconds: the max over the shards'
    /// independent virtual clocks.
    pub wall_clock_s: f64,
    /// The tick period priced by the virtual clock, in seconds.
    pub tick_period_s: f64,
}

/// Real-engine-specific run detail.
#[derive(Debug, Clone, Copy)]
pub struct RealRunDetail {
    /// Writer backend that **actually executed** the shards' flush jobs.
    /// The backend the run requested, except that the retired
    /// [`WriterBackend::IoUring`] runs as
    /// [`WriterBackend::AsyncBatched`] and
    /// [`RealRunDetail::writer_fallback_from`] names the request — the
    /// report never silently claims a backend that did not run.
    pub writer_backend: WriterBackend,
    /// The requested backend this run *fell back from*: `Some(IoUring)`
    /// for a run requesting the retired name, `None` when the requested
    /// backend ran.
    pub writer_fallback_from: Option<WriterBackend>,
    /// Writer threads that served the shards' flush jobs (pool workers,
    /// or the batched engine's single submission/completion loop).
    pub pool_threads: usize,
    /// Checkpoint pipeline depth the run executed at: how many of a
    /// shard's checkpoints the writer could hold in flight at once
    /// (1 = the historical stop-and-wait write path).
    pub pipeline_depth: u32,
    /// Replication factor K of the in-memory recovery tier the run
    /// pushed checkpoint deltas to (0 = the tier was off and every
    /// recovery came from disk).
    pub replication_factor: u32,
    /// Flush jobs the writer completed across the run (all shards).
    pub flush_jobs: u64,
    /// Data `fsync` calls the writer issued across the run. The
    /// durability scheduler attributes every call to exactly one job, so
    /// this is the true call count: equal to [`RealRunDetail::flush_jobs`]
    /// under per-job durability (coalescing off, data syncing on), lower
    /// when fsync coalescing merged same-file targets.
    pub data_fsyncs: u64,
    /// `syncfs`-style whole-device barriers the durability scheduler
    /// issued in place of per-file data fsyncs (zero when the device
    /// barrier is off or the platform probe found `syncfs` unusable).
    pub device_syncs: u64,
    /// Job-weighted average occupancy of the batches jobs completed in
    /// (1.0 when every writer loop owns one shard at pipeline depth 1).
    pub avg_batch_jobs: f64,
    /// Largest batch any flush job completed in.
    pub max_batch_jobs: u32,
    /// Object image bytes the writer flushed across the run
    /// (`objects × object_size` per checkpoint under both disk
    /// organizations: no log segment framing, no metadata commits) — the
    /// write-amplification numerator next to the trace's logical update
    /// volume.
    pub bytes_written: u64,
    /// Retry attempts the writer performed on transient I/O faults
    /// (each re-issue of a failed data write / fsync / meta commit;
    /// zero when no faults were injected or the retry budget is 0).
    pub retries: u64,
    /// Operations whose retry budget ran out: the error took the
    /// degradation ladder instead of being masked.
    pub retry_exhausted: u64,
    /// Always 0: the removed ring writer was the only path that degraded
    /// a job. Kept while the frozen benchmark reads it; it
    /// goes with the next benchmark change.
    pub degraded_jobs: u64,
    /// Always 0.0: no writer submits through a ring any more. Kept
    /// while the frozen benchmark reads it; it goes with the next
    /// benchmark change.
    pub avg_sqe_batch: f64,
}

impl RealRunDetail {
    /// Data fsync calls per completed flush job — 1.0 under per-job
    /// durability, below 1.0 when the durability scheduler coalesced
    /// same-file targets (pipelined same-shard jobs share one target, so
    /// depth ≥ 2 log runs drop below 1.0), 0.0 when data syncing was
    /// off. Device barriers ([`RealRunDetail::device_syncs`]) are not
    /// counted: they replace per-file calls wholesale.
    pub fn fsyncs_per_job(&self) -> f64 {
        if self.flush_jobs == 0 {
            0.0
        } else {
            self.data_fsyncs as f64 / self.flush_jobs as f64
        }
    }
}

/// The unified result of one experiment, identical in shape across
/// engines: world-level [`RunSummary`], per-shard breakdown (one entry
/// even for unsharded runs), and one [`EngineDetail`] variant.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Algorithm measured.
    pub algorithm: Algorithm,
    /// Engine label (`"sim"`, `"real"`, or a future backend's name).
    pub engine: &'static str,
    /// Number of shards the world was split into.
    pub n_shards: u32,
    /// Global ticks executed.
    pub ticks: u64,
    /// Total updates routed across all shards.
    pub updates: u64,
    /// The world-level metric core.
    pub world: RunSummary,
    /// One report per shard, in shard order (length `n_shards`).
    pub shards: Vec<ShardReport>,
    /// Engine-specific extras.
    pub detail: EngineDetail,
}

impl RunReport {
    /// Recovery time of the world, in seconds, when known.
    pub fn recovery_s(&self) -> Option<f64> {
        self.world.recovery_s
    }

    /// What a serial shard-after-shard recovery would cost, in seconds:
    /// the shards' recovery times summed (the world's
    /// [`RunSummary::recovery_s`] is their parallel time). `None` when
    /// recovery was not measured or estimated.
    pub fn serial_recovery_s(&self) -> Option<f64> {
        self.shards.iter().map(|s| s.summary.recovery_s).sum()
    }

    /// Did every verification the engine performed pass? Covers the
    /// simulator's shadow-disk fidelity checks and the real engine's
    /// recovered-state comparison; `None` if the run verified nothing.
    pub fn verified_consistent(&self) -> Option<bool> {
        let mut verified = None;
        for s in &self.shards {
            if let Some(f) = &s.fidelity {
                verified = Some(verified.unwrap_or(true) && f.is_clean());
            }
            if let Some(m) = s.recovery.as_ref().and_then(|r| r.state_matches) {
                verified = Some(verified.unwrap_or(true) && m);
            }
        }
        verified
    }

    /// One-line human-readable summary in the historical report format.
    pub fn summary(&self) -> String {
        let rec = self
            .world
            .recovery_s
            .map_or_else(|| "    n/a".into(), |r| format!("{r:>7.3} s"));
        format!(
            "{:<28} [{}] x{:<2} shards  overhead {:>9.4} ms  checkpoint {:>7.3} s  recovery {rec}",
            self.algorithm.name(),
            self.engine,
            self.n_shards,
            self.world.avg_overhead_s * 1e3,
            self.world.avg_checkpoint_s,
        )
    }
}

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Typed failure of [`Run::execute`], spanning every engine: geometry and
/// shard-map problems surface as [`RunError::Core`], invalid
/// configurations as [`RunError::Config`], and real-engine storage
/// failures as [`RunError::Io`] — replacing the historical mix of panics
/// and raw `io::Error`s.
#[derive(Debug)]
pub enum RunError {
    /// Geometry, shard-map or replay failure from the core layer.
    Core(CoreError),
    /// The run description or engine configuration is invalid.
    Config(String),
    /// The real engine hit a storage failure.
    Io(std::io::Error),
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Core(e) => write!(f, "{e}"),
            RunError::Config(msg) => write!(f, "invalid experiment configuration: {msg}"),
            RunError::Io(e) => write!(f, "storage failure: {e}"),
        }
    }
}

impl std::error::Error for RunError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RunError::Core(e) => Some(e),
            RunError::Io(e) => Some(e),
            RunError::Config(_) => None,
        }
    }
}

impl From<CoreError> for RunError {
    fn from(e: CoreError) -> Self {
        RunError::Core(e)
    }
}

impl From<std::io::Error> for RunError {
    fn from(e: std::io::Error) -> Self {
        RunError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{CheckpointBackend, FlushCompletion, TickOps};
    use crate::geometry::{CellUpdate, ObjectId, StateGeometry};
    use crate::{Bookkeeper, CheckpointPlan, FlushCursor, TickDriver, UpdateOps};
    use std::convert::Infallible;

    /// A minimal in-crate engine proving the trait is implementable
    /// outside the two real backends (the extensibility claim).
    struct CountingEngine;

    struct NullBackend;

    impl CheckpointBackend for NullBackend {
        type Error = Infallible;

        fn begin_tick(&mut self, _t: u64) -> Result<(), Infallible> {
            Ok(())
        }

        fn cursor(&mut self) -> FlushCursor {
            FlushCursor::START
        }

        fn apply_update(
            &mut self,
            _u: CellUpdate,
            _o: ObjectId,
            _ops: UpdateOps,
        ) -> Result<(), Infallible> {
            Ok(())
        }

        fn end_updates(&mut self, _bk: &Bookkeeper, _ops: &TickOps) -> Result<f64, Infallible> {
            Ok(0.0)
        }

        fn poll_completion(
            &mut self,
            _bk: &Bookkeeper,
        ) -> Result<Option<FlushCompletion>, Infallible> {
            Ok(Some(FlushCompletion {
                duration_s: 0.0,
                objects_written: 0,
                bytes_written: 0,
            }))
        }

        fn start_checkpoint(
            &mut self,
            _bk: &Bookkeeper,
            _plan: &CheckpointPlan,
            _tick: u64,
        ) -> Result<f64, Infallible> {
            Ok(0.0)
        }

        fn drain(&mut self, bk: &Bookkeeper) -> Result<Option<FlushCompletion>, Infallible> {
            self.poll_completion(bk)
        }
    }

    impl ExperimentEngine for CountingEngine {
        fn run_experiment<T: TraceSpec + ?Sized>(
            &self,
            spec: &RunSpec,
            trace: &T,
        ) -> Result<RunReport, RunError> {
            let mut src = trace.open();
            let run = TickDriver::new(spec.algorithm.spec())
                .with_batching(spec.batching)
                .run(&mut src, &mut NullBackend)
                .expect("infallible");
            let world = RunSummary::from_metrics(run.metrics, None);
            Ok(RunReport {
                algorithm: spec.algorithm,
                engine: "counting",
                n_shards: spec.shards,
                ticks: run.ticks,
                updates: run.updates,
                shards: vec![ShardReport {
                    shard: 0,
                    ticks: run.ticks,
                    updates: run.updates,
                    summary: world.clone(),
                    recovery: None,
                    fidelity: None,
                }],
                world,
                detail: EngineDetail::Sim(SimRunDetail {
                    wall_clock_s: 0.0,
                    tick_period_s: 0.0,
                }),
            })
        }
    }

    struct TinyTrace {
        g: StateGeometry,
        left: u64,
    }

    impl TraceSource for TinyTrace {
        fn geometry(&self) -> StateGeometry {
            self.g
        }

        fn next_tick(&mut self, buf: &mut Vec<CellUpdate>) -> bool {
            buf.clear();
            if self.left == 0 {
                return false;
            }
            self.left -= 1;
            buf.push(CellUpdate::new(0, 0, 7));
            true
        }
    }

    fn tiny_spec() -> impl TraceSpec<Source = TinyTrace> {
        TraceFn(|| TinyTrace {
            g: StateGeometry::test_small(),
            left: 10,
        })
    }

    #[test]
    fn builder_accumulates_the_spec() {
        let run = Run::algorithm(Algorithm::CopyOnUpdate)
            .shards(4)
            .batching(true)
            .fidelity_check(true)
            .pacing(30.0);
        let spec = run.spec();
        assert_eq!(spec.algorithm, Algorithm::CopyOnUpdate);
        assert_eq!(spec.shards, 4);
        assert!(spec.batching);
        assert!(spec.fidelity_check);
        assert_eq!(spec.pacing_hz, Some(30.0));
        assert_eq!(WriterBackend::default(), WriterBackend::ThreadPool);
        assert_eq!(WriterBackend::AsyncBatched.to_string(), "async-batched");
        assert_eq!(WriterBackend::IoUring.to_string(), "io-uring");
        assert!(!WriterBackend::ALL.contains(&WriterBackend::IoUring));
    }

    #[test]
    fn zero_shards_and_bad_pacing_are_config_errors() {
        let err = Run::algorithm(Algorithm::NaiveSnapshot)
            .engine(CountingEngine)
            .trace(tiny_spec())
            .shards(0)
            .execute()
            .unwrap_err();
        assert!(matches!(err, RunError::Config(_)), "{err}");
        let err = Run::algorithm(Algorithm::NaiveSnapshot)
            .engine(CountingEngine)
            .trace(tiny_spec())
            .pacing(f64::NAN)
            .execute()
            .unwrap_err();
        assert!(matches!(err, RunError::Config(_)), "{err}");
        assert!(err.to_string().contains("pacing"));
    }

    #[test]
    fn a_custom_engine_plugs_into_the_builder() {
        let report = Run::algorithm(Algorithm::CopyOnUpdate)
            .engine(CountingEngine)
            .trace(tiny_spec())
            .execute()
            .expect("custom engine runs");
        assert_eq!(report.engine, "counting");
        assert_eq!(report.ticks, 10);
        assert_eq!(report.updates, 10);
        assert_eq!(report.shards.len(), 1);
        assert!(report.verified_consistent().is_none());
        assert!(report.summary().contains("[counting]"));
    }

    #[test]
    fn execute_is_repeatable() {
        let run = Run::algorithm(Algorithm::NaiveSnapshot)
            .engine(CountingEngine)
            .trace(tiny_spec());
        let a = run.execute().expect("first run");
        let b = run.execute().expect("second run");
        assert_eq!(a.ticks, b.ticks);
        assert_eq!(a.world.metrics.ticks, b.world.metrics.ticks);
    }

    #[test]
    fn verified_consistent_aggregates_shard_outcomes() {
        let summary = RunSummary::from_metrics(RunMetrics::default(), None);
        let shard = |fidelity: Option<bool>, matches: Option<bool>| ShardReport {
            shard: 0,
            ticks: 0,
            updates: 0,
            summary: summary.clone(),
            recovery: matches.map(|m| RecoveryReport {
                restore_s: 0.0,
                replay_s: 0.0,
                total_s: 0.0,
                measured: true,
                restored_from_tick: None,
                ticks_replayed: None,
                updates_replayed: None,
                state_matches: Some(m),
                from_replica: None,
            }),
            fidelity: fidelity.map(|clean: bool| FidelitySummary {
                checks_passed: 1,
                errors: if clean { vec![] } else { vec!["boom".into()] },
            }),
        };
        let report = |shards| RunReport {
            algorithm: Algorithm::CopyOnUpdate,
            engine: "sim",
            n_shards: 1,
            ticks: 0,
            updates: 0,
            world: summary.clone(),
            shards,
            detail: EngineDetail::Sim(SimRunDetail {
                wall_clock_s: 0.0,
                tick_period_s: 0.0,
            }),
        };
        assert_eq!(report(vec![shard(None, None)]).verified_consistent(), None);
        assert_eq!(
            report(vec![shard(Some(true), None), shard(None, Some(true))]).verified_consistent(),
            Some(true)
        );
        assert_eq!(
            report(vec![shard(Some(true), None), shard(Some(false), None)]).verified_consistent(),
            Some(false)
        );
        assert_eq!(
            report(vec![shard(None, Some(false))]).verified_consistent(),
            Some(false)
        );
    }

    #[test]
    fn errors_are_displayed_and_sourced() {
        let e = RunError::from(CoreError::NoCheckpoint);
        assert!(e.to_string().contains("no completed checkpoint"));
        assert!(std::error::Error::source(&e).is_some());
        let e = RunError::from(std::io::Error::other("disk gone"));
        assert!(e.to_string().contains("disk gone"));
        let e = RunError::Config("no shards".into());
        assert!(e.to_string().contains("no shards"));
        assert!(std::error::Error::source(&e).is_none());
    }
}
