//! The unified tick driver: one orchestration loop for all six algorithms.
//!
//! The paper's *Checkpointing Algorithmic Framework* (§3.3) is a single
//! loop — at every tick apply updates through `Handle-Update`, and at the
//! tick boundary start a new checkpoint if the previous one finished.
//! Historically this repository implemented that loop once per engine *per
//! algorithm* (the cost-model simulator plus four hand-rolled real
//! engines); [`TickDriver`] extracts it so it exists exactly once.
//!
//! The split of responsibilities mirrors the paper's framework table:
//!
//! * The **driver** owns the [`Bookkeeper`] — the algorithm-generic state
//!   machine deciding *what* must be copied, flushed and tracked — and the
//!   per-tick/per-checkpoint metric series.
//! * A [`CheckpointBackend`] performs the work and attaches its notion of
//!   time: the simulator prices operations in virtual seconds
//!   (`mmoc-sim`), the real engine runs memcpys, mutator/writer threads
//!   and `fsync`s and measures wall-clock seconds (`mmoc-storage`).
//!
//! Adding a new algorithm means extending the [`Bookkeeper`]'s plan; both
//! engines pick it up for free. Adding a new engine (an async-I/O backend,
//! a replicated store) means implementing this one trait.
//!
//! ## Loop shape
//!
//! ```text
//! for each tick t in the trace:
//!     backend.begin_tick(t)                    // query phase / time base
//!     cursor = backend.cursor()                // writer progress at tick start
//!     for each update u:
//!         ops = bookkeeper.on_update(obj(u), cursor)   // Handle-Update
//!         backend.apply_update(u, obj(u), ops)          // do + price it
//!     backend.end_updates(...)                 // stretch the tick
//!     while checkpoints are in flight and backend.poll_completion():
//!         record the oldest; bookkeeper.finish_checkpoint()
//!     if fewer than pipeline_depth in flight (and overlap is sound):
//!         plan = bookkeeper.begin_checkpoint() // Copy-To-Memory decision
//!         backend.start_checkpoint(plan)       // sync copy + async flush
//! drain the remaining in-flight checkpoints, oldest first
//! ```
//!
//! At the default `pipeline_depth = 1` this is exactly the paper's loop:
//! at most one checkpoint in flight, a new one started only when the
//! previous completed. Depths above one let the driver run ahead of a
//! slow writer for checkpoints the [`Bookkeeper`] certifies as safe to
//! overlap (log-organized, no sweep); everything else still serializes.

use crate::algorithms::bookkeeper::{Bookkeeper, FlushCursor, UpdateOps};
use crate::algorithms::AlgorithmSpec;
use crate::geometry::{CellUpdate, ObjectId, StateGeometry};
use crate::metrics::{CheckpointRecord, RunMetrics, TickMetrics};
use crate::plan::CheckpointPlan;
use crate::trace::TraceSource;

/// Completion report for one asynchronous flush, produced by the backend.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlushCompletion {
    /// Duration of the asynchronous flush, in (virtual or wall) seconds.
    pub duration_s: f64,
    /// Atomic objects actually written to stable storage.
    pub objects_written: u32,
    /// Bytes actually written to stable storage.
    pub bytes_written: u64,
}

/// Aggregated `Handle-Update` work of one tick, as charged by the
/// bookkeeper.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TickOps {
    /// Dirty/flushed bit tests and sets.
    pub bit_ops: u64,
    /// Writer-lock acquisitions.
    pub locks: u64,
    /// Copy-on-update object copies.
    pub copies: u64,
}

impl TickOps {
    /// Accumulate one update's ops.
    #[inline]
    pub fn add(&mut self, ops: UpdateOps) {
        self.bit_ops += u64::from(ops.bit_ops);
        self.locks += u64::from(ops.lock);
        self.copies += u64::from(ops.copy);
    }
}

/// An engine executing (and timing) the work the driver sequences.
///
/// Implementations: the cost-model simulator (`mmoc-sim`) and the real
/// disk-backed engine (`mmoc-storage`). All methods are called from the
/// driver's single mutator thread; a backend may own worker threads
/// internally (the real engine's asynchronous writer).
pub trait CheckpointBackend {
    /// Error type surfaced by backend operations (`io::Error` for the real
    /// engine, [`std::convert::Infallible`] for the simulator).
    type Error;

    /// A tick is starting: run the query phase (real engine) or establish
    /// the tick's time base (simulator). `tick` is 1-based.
    fn begin_tick(&mut self, tick: u64) -> Result<(), Self::Error>;

    /// The asynchronous writer's progress at the start of this tick, in
    /// the in-flight sweep's slot units. Updates within the tick observe
    /// this frontier (the conservative discretization: an object the
    /// writer reaches mid-tick may be copied once more than strictly
    /// needed, never less).
    fn cursor(&mut self) -> FlushCursor;

    /// Apply one update to live state, performing (real engine) or
    /// pricing (simulator) the copy-on-update work the bookkeeper charged
    /// in `ops`.
    fn apply_update(
        &mut self,
        update: CellUpdate,
        obj: ObjectId,
        ops: UpdateOps,
    ) -> Result<(), Self::Error>;

    /// The tick's updates are all applied. Returns the update-phase
    /// overhead in seconds (the amount this tick was stretched, excluding
    /// any synchronous checkpoint pause). The simulator advances its
    /// virtual clock here.
    fn end_updates(&mut self, bk: &Bookkeeper, ops: &TickOps) -> Result<f64, Self::Error>;

    /// Did the in-flight asynchronous flush complete? Called once per tick
    /// while a checkpoint is in flight; must not block (the real engine
    /// polls its writer's completion channel).
    fn poll_completion(&mut self, bk: &Bookkeeper) -> Result<Option<FlushCompletion>, Self::Error>;

    /// A checkpoint is starting at this tick boundary: perform the plan's
    /// synchronous copy (if any) and launch the asynchronous flush.
    /// Returns the synchronous pause in seconds. The bookkeeper is already
    /// in-flight; `bk.flush_set()` / `bk.sweep_slots()` describe the write
    /// set.
    fn start_checkpoint(
        &mut self,
        bk: &Bookkeeper,
        plan: &CheckpointPlan,
        tick: u64,
    ) -> Result<f64, Self::Error>;

    /// The trace is exhausted with a checkpoint still in flight: wait for
    /// it to complete (blocking) and report it, or `None` if the backend
    /// abandoned it.
    fn drain(&mut self, bk: &Bookkeeper) -> Result<Option<FlushCompletion>, Self::Error>;
}

/// Result of one driver run, engine-agnostic. Engines wrap it into a
/// [`crate::run::ShardReport`].
#[derive(Debug, Clone)]
pub struct DriverRun {
    /// Ticks executed (1-based count).
    pub ticks: u64,
    /// Updates applied.
    pub updates: u64,
    /// Per-tick and per-checkpoint series.
    pub metrics: RunMetrics,
}

/// A checkpoint handed to the backend and not yet completed.
#[derive(Debug, Clone, Copy)]
struct Pending {
    seq: u64,
    start_tick: u64,
    sync_pause_s: f64,
    full_flush: bool,
}

/// The unified orchestration loop (see module docs).
#[derive(Debug, Clone, Copy)]
pub struct TickDriver {
    spec: AlgorithmSpec,
    batching: bool,
    pipeline_depth: u32,
}

impl TickDriver {
    /// Create a driver for one algorithm.
    pub fn new(spec: AlgorithmSpec) -> Self {
        TickDriver {
            spec,
            batching: false,
            pipeline_depth: 1,
        }
    }

    /// Enable (or disable) driver-level update batching: repeated updates
    /// to the same object within one tick hit [`Bookkeeper::on_update`]
    /// only on the first touch.
    ///
    /// Coalescing is safe because `on_update` is idempotent within a tick
    /// — the writer frontier is sampled once at tick start and dirty bits
    /// are only cleared at tick boundaries — so the write set, the copies
    /// and the recovered state are bit-identical. What changes is the
    /// *accounting*: the skipped calls would each have charged a dirty-bit
    /// operation, so batched runs report fewer `bit_ops` (and thus lower
    /// bookkeeping overhead at high update rates). Off by default to keep
    /// historical metrics reproducible.
    pub fn with_batching(mut self, on: bool) -> Self {
        self.batching = on;
        self
    }

    /// The algorithm specification being driven.
    pub fn spec(&self) -> &AlgorithmSpec {
        &self.spec
    }

    /// Whether driver-level update batching is enabled.
    pub fn batching(&self) -> bool {
        self.batching
    }

    /// Set the checkpoint pipeline depth: the maximum number of
    /// checkpoints in flight per shard. The default of 1 reproduces the
    /// historical one-at-a-time loop exactly. Depths above 1 only take
    /// effect where overlap is sound ([`Bookkeeper::can_pipeline_next`]):
    /// log-organized no-sweep checkpoints; sweeps and double-backup
    /// checkpoints remain serialized regardless of the setting. Panics on
    /// a depth of 0.
    pub fn with_pipeline_depth(mut self, depth: u32) -> Self {
        assert!(depth >= 1, "pipeline depth must be at least 1");
        self.pipeline_depth = depth;
        self
    }

    /// The configured checkpoint pipeline depth.
    pub fn pipeline_depth(&self) -> u32 {
        self.pipeline_depth
    }

    /// Start a resumable run over a state of the given geometry. The
    /// sharded driver uses this to interleave N per-shard loops over one
    /// global trace; [`TickDriver::run`] is the single-shard convenience
    /// wrapper. Panics if the geometry is invalid.
    pub fn begin(&self, geometry: StateGeometry) -> DriverStep {
        geometry.validate().expect("driver geometry must be valid");
        DriverStep {
            geometry,
            bk: Bookkeeper::new(self.spec, geometry.n_objects()),
            metrics: RunMetrics::default(),
            pending: std::collections::VecDeque::new(),
            pipeline_depth: self.pipeline_depth,
            tick: 0,
            total_updates: 0,
            seen_at_tick: if self.batching {
                vec![0u64; geometry.n_objects() as usize]
            } else {
                Vec::new()
            },
        }
    }

    /// Replay `trace` through `backend`, one checkpoint after another.
    ///
    /// Panics if the trace's geometry is invalid (engines validate before
    /// constructing their backends).
    pub fn run<S, B>(&self, trace: &mut S, backend: &mut B) -> Result<DriverRun, B::Error>
    where
        S: TraceSource,
        B: CheckpointBackend,
    {
        let mut step = self.begin(trace.geometry());
        let mut buf = Vec::new();
        while trace.next_tick(&mut buf) {
            step.tick(&buf, backend)?;
        }
        step.finish(backend)
    }
}

/// One algorithm's in-progress run: the [`Bookkeeper`], the metric series
/// and the in-flight checkpoint, advanced one tick at a time.
///
/// Created by [`TickDriver::begin`]; each [`DriverStep::tick`] executes
/// the full framework loop body for one tick (update phase, completion
/// poll, checkpoint start, tick end) against the supplied backend, and
/// [`DriverStep::finish`] drains the final in-flight checkpoint.
#[derive(Debug)]
pub struct DriverStep {
    geometry: StateGeometry,
    bk: Bookkeeper,
    metrics: RunMetrics,
    /// Checkpoints handed to the backend and not yet completed, oldest
    /// first (mirrors the bookkeeper's in-flight queue).
    pending: std::collections::VecDeque<Pending>,
    pipeline_depth: u32,
    tick: u64,
    total_updates: u64,
    /// Batching state: per object, the last (1-based) tick that touched
    /// it. Empty when batching is off.
    seen_at_tick: Vec<u64>,
}

impl DriverStep {
    /// The geometry this run is over.
    pub fn geometry(&self) -> StateGeometry {
        self.geometry
    }

    /// Ticks executed so far.
    pub fn ticks(&self) -> u64 {
        self.tick
    }

    /// Execute one tick of the framework loop over `updates`.
    pub fn tick<B: CheckpointBackend>(
        &mut self,
        updates: &[CellUpdate],
        backend: &mut B,
    ) -> Result<(), B::Error> {
        self.tick += 1;
        let tick = self.tick;
        backend.begin_tick(tick)?;

        // --- Update phase: route every update through Handle-Update.
        let cursor = backend.cursor();
        let mut ops_total = TickOps::default();
        let batching = !self.seen_at_tick.is_empty();
        for &u in updates {
            let obj = self.geometry.object_of_unchecked(u.addr);
            let ops = if batching {
                let seen = &mut self.seen_at_tick[obj.index()];
                if *seen == tick {
                    // Coalesced: the first touch already did the
                    // bookkeeping; the value write still happens below.
                    UpdateOps::default()
                } else {
                    *seen = tick;
                    self.bk.on_update(obj, cursor)
                }
            } else {
                self.bk.on_update(obj, cursor)
            };
            ops_total.add(ops);
            backend.apply_update(u, obj, ops)?;
        }
        self.total_updates += updates.len() as u64;
        let update_overhead_s = backend.end_updates(&self.bk, &ops_total)?;

        // --- Tick boundary: harvest completed checkpoints, oldest first.
        // Completions arrive in begin order (the backend preserves
        // per-shard FIFO), so each poll settles the queue front.
        while !self.pending.is_empty() {
            let Some(done) = backend.poll_completion(&self.bk)? else {
                break;
            };
            let p = self.pending.pop_front().expect("pending checkpoint");
            self.metrics.checkpoints.push(record(p, done, tick));
            self.bk.finish_checkpoint();
        }

        // ...and start the next one if there is pipeline room: always
        // when the writer is idle, and otherwise only up to the
        // configured depth for checkpoints the bookkeeper certifies as
        // safe to overlap (log-organized, no sweep).
        let mut sync_pause_s = 0.0f64;
        let may_start = self.pending.is_empty()
            || (self.pending.len() < self.pipeline_depth as usize && self.bk.can_pipeline_next());
        if may_start {
            let plan = self.bk.begin_checkpoint();
            sync_pause_s = backend.start_checkpoint(&self.bk, &plan, tick)?;
            self.pending.push_back(Pending {
                seq: plan.seq,
                start_tick: tick,
                sync_pause_s,
                full_flush: plan.full_flush,
            });
        }

        self.metrics.ticks.push(TickMetrics {
            tick,
            overhead_s: update_overhead_s + sync_pause_s,
            sync_pause_s,
            bit_ops: ops_total.bit_ops,
            locks: ops_total.locks,
            copies: ops_total.copies,
        });
        Ok(())
    }

    /// The trace is exhausted: drain every in-flight checkpoint (oldest
    /// first) so recovery sees committed images, and assemble the run
    /// result.
    pub fn finish<B: CheckpointBackend>(mut self, backend: &mut B) -> Result<DriverRun, B::Error> {
        while let Some(p) = self.pending.pop_front() {
            if let Some(done) = backend.drain(&self.bk)? {
                self.metrics.checkpoints.push(record(p, done, self.tick));
                self.bk.finish_checkpoint();
            }
        }
        Ok(DriverRun {
            ticks: self.tick,
            updates: self.total_updates,
            metrics: self.metrics,
        })
    }
}

fn record(p: Pending, done: FlushCompletion, end_tick: u64) -> CheckpointRecord {
    CheckpointRecord {
        seq: p.seq,
        start_tick: p.start_tick,
        end_tick,
        duration_s: p.sync_pause_s + done.duration_s,
        sync_pause_s: p.sync_pause_s,
        objects_written: done.objects_written,
        bytes_written: done.bytes_written,
        full_flush: p.full_flush,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::Algorithm;
    use crate::geometry::StateGeometry;
    use std::convert::Infallible;

    /// A trace over `g` yielding `per_tick` updates for `ticks` ticks.
    struct FakeTrace {
        g: StateGeometry,
        ticks: u64,
        per_tick: u32,
        next: u64,
    }

    impl TraceSource for FakeTrace {
        fn geometry(&self) -> StateGeometry {
            self.g
        }

        fn next_tick(&mut self, buf: &mut Vec<CellUpdate>) -> bool {
            buf.clear();
            if self.next >= self.ticks {
                return false;
            }
            for i in 0..self.per_tick {
                let row = ((self.next as u32).wrapping_mul(7) + i * 13) % self.g.rows;
                buf.push(CellUpdate::new(row, i % self.g.cols, i));
            }
            self.next += 1;
            true
        }
    }

    /// A backend that completes every flush after `latency_ticks` ticks
    /// and logs the driver's calls.
    struct MockBackend {
        latency_ticks: u64,
        ticks_since_start: u64,
        in_flight_objects: Option<u32>,
        started: Vec<u64>,
        drained: bool,
    }

    impl MockBackend {
        fn new(latency_ticks: u64) -> Self {
            MockBackend {
                latency_ticks,
                ticks_since_start: 0,
                in_flight_objects: None,
                started: Vec::new(),
                drained: false,
            }
        }

        fn completion(&mut self) -> FlushCompletion {
            let objects = self.in_flight_objects.take().expect("flush in flight");
            FlushCompletion {
                duration_s: 0.001 * self.latency_ticks as f64,
                objects_written: objects,
                bytes_written: u64::from(objects) * 64,
            }
        }
    }

    impl CheckpointBackend for MockBackend {
        type Error = Infallible;

        fn begin_tick(&mut self, _tick: u64) -> Result<(), Infallible> {
            Ok(())
        }

        fn cursor(&mut self) -> FlushCursor {
            FlushCursor::START
        }

        fn apply_update(
            &mut self,
            _update: CellUpdate,
            _obj: ObjectId,
            _ops: UpdateOps,
        ) -> Result<(), Infallible> {
            Ok(())
        }

        fn end_updates(&mut self, _bk: &Bookkeeper, ops: &TickOps) -> Result<f64, Infallible> {
            Ok(ops.bit_ops as f64 * 1e-9)
        }

        fn poll_completion(
            &mut self,
            _bk: &Bookkeeper,
        ) -> Result<Option<FlushCompletion>, Infallible> {
            self.ticks_since_start += 1;
            if self.ticks_since_start >= self.latency_ticks {
                Ok(Some(self.completion()))
            } else {
                Ok(None)
            }
        }

        fn start_checkpoint(
            &mut self,
            _bk: &Bookkeeper,
            plan: &CheckpointPlan,
            tick: u64,
        ) -> Result<f64, Infallible> {
            self.in_flight_objects = Some(plan.flush.objects());
            self.ticks_since_start = 0;
            self.started.push(tick);
            Ok(plan.sync_copy.map_or(0.0, |c| f64::from(c.objects) * 1e-6))
        }

        fn drain(&mut self, _bk: &Bookkeeper) -> Result<Option<FlushCompletion>, Infallible> {
            self.drained = true;
            Ok(Some(self.completion()))
        }
    }

    fn run(alg: Algorithm, latency: u64, ticks: u64) -> (DriverRun, MockBackend) {
        let g = StateGeometry::small(64, 4);
        let mut trace = FakeTrace {
            g,
            ticks,
            per_tick: 8,
            next: 0,
        };
        let mut backend = MockBackend::new(latency);
        let driver = TickDriver::new(alg.spec());
        let run = driver.run(&mut trace, &mut backend).expect("infallible");
        (run, backend)
    }

    #[test]
    fn checkpoints_run_back_to_back_for_all_algorithms() {
        for alg in Algorithm::ALL {
            let (run, backend) = run(alg, 3, 30);
            assert_eq!(run.ticks, 30, "{alg}");
            assert_eq!(run.updates, 30 * 8, "{alg}");
            assert!(run.metrics.checkpoints.len() >= 2, "{alg}");
            for w in run.metrics.checkpoints.windows(2) {
                assert_eq!(w[1].seq, w[0].seq + 1, "{alg}: seq gap");
                assert_eq!(
                    w[1].start_tick, w[0].end_tick,
                    "{alg}: checkpoints must be back to back"
                );
            }
            assert!(backend.drained, "{alg}: final checkpoint must drain");
        }
    }

    #[test]
    fn eager_algorithms_pay_sync_pauses_through_the_driver() {
        let (naive, _) = run(Algorithm::NaiveSnapshot, 2, 20);
        assert!(naive.metrics.ticks.iter().any(|t| t.sync_pause_s > 0.0));
        // Naive tracks no dirty bits: zero bit ops through the bookkeeper.
        assert!(naive.metrics.ticks.iter().all(|t| t.bit_ops == 0));

        let (cou, _) = run(Algorithm::CopyOnUpdate, 2, 20);
        assert!(cou.metrics.ticks.iter().all(|t| t.sync_pause_s == 0.0));
        assert_eq!(
            cou.metrics.ticks.iter().map(|t| t.bit_ops).sum::<u64>(),
            cou.updates,
            "one bit op per update for dirty-tracking algorithms"
        );
    }

    #[test]
    fn driver_counts_copies_from_the_bookkeeper() {
        // Cursor pinned at START: every first touch of a flush-set member
        // must copy under copy-on-update.
        let (cou, _) = run(Algorithm::CopyOnUpdate, 4, 40);
        let copies: u64 = cou.metrics.ticks.iter().map(|t| t.copies).sum();
        assert!(copies > 0, "first touches must copy");
        let locks: u64 = cou.metrics.ticks.iter().map(|t| t.locks).sum();
        assert_eq!(copies, locks, "every copy holds the lock");
    }

    #[test]
    fn full_flush_cadence_flows_through_records() {
        let (pr, _) = run(Algorithm::PartialRedo, 1, 40);
        let fulls: Vec<u64> = pr
            .metrics
            .checkpoints
            .iter()
            .filter(|c| c.full_flush)
            .map(|c| c.seq)
            .collect();
        assert!(!fulls.is_empty(), "40 completed checkpoints include fulls");
        for seq in fulls {
            assert_eq!(
                (seq + 1) % u64::from(crate::algorithms::DEFAULT_FULL_FLUSH_PERIOD),
                0
            );
        }
    }

    /// A trace hammering the same few rows every tick (heavy same-object
    /// duplication, the batching win case).
    struct HotTrace {
        g: StateGeometry,
        ticks: u64,
        per_tick: u32,
        next: u64,
    }

    impl TraceSource for HotTrace {
        fn geometry(&self) -> StateGeometry {
            self.g
        }

        fn next_tick(&mut self, buf: &mut Vec<CellUpdate>) -> bool {
            buf.clear();
            if self.next >= self.ticks {
                return false;
            }
            for i in 0..self.per_tick {
                // Only 4 distinct rows: most updates coalesce.
                buf.push(CellUpdate::new(
                    i % 4,
                    i % self.g.cols,
                    self.next as u32 + i,
                ));
            }
            self.next += 1;
            true
        }
    }

    #[test]
    fn batching_preserves_write_sets_and_cuts_bit_ops() {
        for alg in Algorithm::ALL {
            let g = StateGeometry::small(64, 4);
            let run_with = |batching: bool| {
                let mut trace = HotTrace {
                    g,
                    ticks: 30,
                    per_tick: 64,
                    next: 0,
                };
                let mut backend = MockBackend::new(3);
                TickDriver::new(alg.spec())
                    .with_batching(batching)
                    .run(&mut trace, &mut backend)
                    .expect("infallible")
            };
            let plain = run_with(false);
            let batched = run_with(true);

            // Identical checkpoint behaviour: same sequence, same write
            // sets, same copies (coalescing only skips redundant calls).
            assert_eq!(plain.updates, batched.updates, "{alg}");
            assert_eq!(
                plain.metrics.checkpoints.len(),
                batched.metrics.checkpoints.len(),
                "{alg}"
            );
            for (p, b) in plain
                .metrics
                .checkpoints
                .iter()
                .zip(&batched.metrics.checkpoints)
            {
                assert_eq!(p.objects_written, b.objects_written, "{alg}");
                assert_eq!(p.start_tick, b.start_tick, "{alg}");
            }
            let copies = |r: &DriverRun| r.metrics.ticks.iter().map(|t| t.copies).sum::<u64>();
            assert_eq!(copies(&plain), copies(&batched), "{alg}");

            // Reduced bookkeeping: dirty-tracking algorithms pay one bit
            // op per *distinct* object per tick instead of one per update.
            let bit_ops = |r: &DriverRun| r.metrics.ticks.iter().map(|t| t.bit_ops).sum::<u64>();
            if alg != Algorithm::NaiveSnapshot {
                assert!(
                    bit_ops(&batched) < bit_ops(&plain),
                    "{alg}: batched {} !< plain {}",
                    bit_ops(&batched),
                    bit_ops(&plain)
                );
            }
        }
    }

    #[test]
    fn stepped_run_equals_whole_trace_run() {
        let g = StateGeometry::small(64, 4);
        let driver = TickDriver::new(Algorithm::CopyOnUpdate.spec());

        let mut trace = FakeTrace {
            g,
            ticks: 25,
            per_tick: 8,
            next: 0,
        };
        let mut backend = MockBackend::new(2);
        let whole = driver.run(&mut trace, &mut backend).expect("infallible");

        let mut trace = FakeTrace {
            g,
            ticks: 25,
            per_tick: 8,
            next: 0,
        };
        let mut backend = MockBackend::new(2);
        let mut step = driver.begin(g);
        let mut buf = Vec::new();
        while trace.next_tick(&mut buf) {
            step.tick(&buf, &mut backend).expect("infallible");
        }
        let stepped = step.finish(&mut backend).expect("infallible");

        assert_eq!(whole.ticks, stepped.ticks);
        assert_eq!(whole.updates, stepped.updates);
        assert_eq!(whole.metrics.ticks, stepped.metrics.ticks);
        assert_eq!(whole.metrics.checkpoints, stepped.metrics.checkpoints);
    }

    /// A backend whose writer never completes during the run: completions
    /// only surface at drain time, so the pending queue grows to whatever
    /// the driver allows.
    #[derive(Default)]
    struct StallBackend {
        in_flight: std::collections::VecDeque<u32>,
        started: Vec<u64>,
    }

    impl CheckpointBackend for StallBackend {
        type Error = Infallible;

        fn begin_tick(&mut self, _tick: u64) -> Result<(), Infallible> {
            Ok(())
        }

        fn cursor(&mut self) -> FlushCursor {
            FlushCursor::START
        }

        fn apply_update(
            &mut self,
            _update: CellUpdate,
            _obj: ObjectId,
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
            Ok(None)
        }

        fn start_checkpoint(
            &mut self,
            _bk: &Bookkeeper,
            plan: &CheckpointPlan,
            tick: u64,
        ) -> Result<f64, Infallible> {
            self.in_flight.push_back(plan.flush.objects());
            self.started.push(tick);
            Ok(0.0)
        }

        fn drain(&mut self, _bk: &Bookkeeper) -> Result<Option<FlushCompletion>, Infallible> {
            let objects = self.in_flight.pop_front().expect("flush in flight");
            Ok(Some(FlushCompletion {
                duration_s: 0.001,
                objects_written: objects,
                bytes_written: u64::from(objects) * 64,
            }))
        }
    }

    #[test]
    fn pipeline_depth_caps_in_flight_checkpoints_for_log_algorithms() {
        // Partial-redo (log-organized, eager): with depth 3 and a stalled
        // writer the driver runs three checkpoints ahead, then waits.
        let g = StateGeometry::small(64, 4);
        let mut trace = FakeTrace {
            g,
            ticks: 10,
            per_tick: 8,
            next: 0,
        };
        let mut backend = StallBackend::default();
        let run = TickDriver::new(Algorithm::PartialRedo.spec_with_flush_period(100))
            .with_pipeline_depth(3)
            .run(&mut trace, &mut backend)
            .expect("infallible");
        assert_eq!(backend.started, vec![1, 2, 3], "three in flight, then full");
        let seqs: Vec<u64> = run.metrics.checkpoints.iter().map(|c| c.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2], "drained oldest first");
    }

    #[test]
    fn double_backup_algorithms_serialize_regardless_of_depth() {
        let g = StateGeometry::small(64, 4);
        let mut trace = FakeTrace {
            g,
            ticks: 10,
            per_tick: 8,
            next: 0,
        };
        let mut backend = StallBackend::default();
        let run = TickDriver::new(Algorithm::NaiveSnapshot.spec())
            .with_pipeline_depth(3)
            .run(&mut trace, &mut backend)
            .expect("infallible");
        assert_eq!(backend.started, vec![1], "copy-org never overlaps");
        assert_eq!(run.metrics.checkpoints.len(), 1);
    }

    #[test]
    fn depth_one_pipelined_driver_matches_the_historical_loop() {
        for alg in Algorithm::ALL {
            let (baseline, _) = run(alg, 3, 30);
            let g = StateGeometry::small(64, 4);
            let mut trace = FakeTrace {
                g,
                ticks: 30,
                per_tick: 8,
                next: 0,
            };
            let mut backend = MockBackend::new(3);
            let explicit = TickDriver::new(alg.spec())
                .with_pipeline_depth(1)
                .run(&mut trace, &mut backend)
                .expect("infallible");
            assert_eq!(baseline.metrics.ticks, explicit.metrics.ticks, "{alg}");
            assert_eq!(
                baseline.metrics.checkpoints, explicit.metrics.checkpoints,
                "{alg}"
            );
        }
    }

    #[test]
    fn start_ticks_match_backend_observations() {
        let (run, backend) = run(Algorithm::NaiveSnapshot, 2, 12);
        let starts: Vec<u64> = run
            .metrics
            .checkpoints
            .iter()
            .map(|c| c.start_tick)
            .collect();
        assert_eq!(&backend.started[..starts.len()], starts.as_slice());
    }
}
