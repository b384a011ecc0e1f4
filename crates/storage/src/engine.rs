//! The unified real engine: all six algorithms as one
//! [`CheckpointBackend`] over real threads, files and `fsync`.
//!
//! Historically this crate hand-rolled a separate mutator/writer
//! orchestration per algorithm (`naive.rs`, `cou.rs`, `partial_redo.rs` —
//! about 1,300 duplicated lines for four of the six algorithms). The
//! orchestration now lives once in [`mmoc_core::driver::TickDriver`]; this
//! module contributes the real-world half:
//!
//! * the **mutator side** of each tick: the query phase (random state
//!   lookups standing in for game logic), applying updates to the
//!   [`Shared`] table with the copy-on-update slow path (lock, re-check,
//!   arena save);
//! * the **writer** ([`crate::writer`]) executing every shard's flush
//!   jobs against its disk organization — the [`BackupSet`] double backup
//!   (sorted offset-ordered writes) or the [`LogStore`] (sequential
//!   segment appends) — publishing each shard's sweep frontier for the
//!   bookkeeper's copy-on-update decisions. It is one flush-round loop in
//!   one of three configurations — the shared worker-thread pool (a
//!   single-shard run with one worker is exactly the old dedicated writer
//!   thread), a batched-submission loop, or that loop over a real
//!   `io_uring` ring — selected by [`RealConfig::writer_backend`];
//! * real **durability**: data `fsync` before metadata commit, and a
//!   wall-clock recovery measurement (restore the newest consistent image,
//!   replay the deterministic update stream).
//!
//! Adding the two algorithms the old per-algorithm engines never
//! implemented (Dribble-and-Copy-on-Update, Atomic-Copy-Dirty-Objects)
//! required no new orchestration — they are one-line algorithm choices
//! like the rest, which is the point of the refactor. Experiments reach
//! this engine through the unified builder
//! (`Run::algorithm(alg).engine(real_config).trace(…).execute()`, see
//! [`crate::run`]).

use crate::config::RealConfig;
use crate::files::BackupSet;
use crate::inject::{Inject, RetryPolicy, Site};
use crate::log_store::LogStore;
use crate::recovery::{
    recover_and_replay_log_with, recover_and_replay_with, recover_from_replica, RecoveryOpts,
};
use crate::replica::ReplicaSet;
use crate::report::WriterStats;
use crate::shared::{Shared, SharedTable};
use mmoc_core::driver::{CheckpointBackend, FlushCompletion, TickOps};
use mmoc_core::run::RecoveryReport;
use mmoc_core::{
    Algorithm, Bookkeeper, CellUpdate, CheckpointPlan, CursorKind, DiskOrg, FlushCursor, FlushJob,
    ObjectId, StateGeometry, TraceSource, UpdateOps,
};
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The stable-storage organization a pool worker writes for one shard.
pub(crate) enum Store {
    /// Two alternating full-size backup files (sorted writes).
    Double(BackupSet),
    /// The append-only checkpoint log.
    Log(LogStore),
}

impl Store {
    /// Attach a fault-injection handle to the underlying store (see
    /// [`crate::inject`]); a `None` handle detaches.
    pub(crate) fn attach_inject(&mut self, inject: Option<Arc<Inject>>) {
        match self {
            Store::Double(set) => set.attach_inject(inject),
            Store::Log(log) => log.attach_inject(inject),
        }
    }
}

/// Create a shard's store under `dir`, pre-loading the complete initial
/// (zeroed) state — the boot-time load the bookkeeping assumes.
pub(crate) fn create_store(
    dir: &Path,
    geometry: StateGeometry,
    disk_org: DiskOrg,
) -> io::Result<Store> {
    let n = geometry.n_objects();
    let initial = vec![0u8; n as usize * geometry.object_size as usize];
    Ok(match disk_org {
        DiskOrg::DoubleBackup => Store::Double(BackupSet::create(dir, geometry, &initial)?),
        DiskOrg::Log => {
            let mut log = LogStore::create(dir, geometry)?;
            let obj_size = geometry.object_size as usize;
            log.append_segment(
                0,
                0,
                true,
                (0..n).map(|i| (ObjectId(i), &initial[i as usize * obj_size..][..obj_size])),
                true,
            )?;
            Store::Log(log)
        }
    })
}

/// One checkpoint's flush job, handed to the writer backend.
/// (`Clone` is test-only: the differential writer tests replay one
/// deterministic job stream through every backend.)
#[cfg_attr(test, derive(Clone))]
pub(crate) enum Job {
    /// Write a privately buffered eager copy (`Write-Copies-To-Stable-
    /// Storage`): no coordination with the mutator is needed.
    Eager {
        /// Object ids in increasing order.
        ids: Vec<u32>,
        /// `ids.len() * object_size` bytes, one image per id.
        data: Vec<u8>,
        seq: u64,
        tick: u64,
        target: usize,
        /// The segment holds the complete state (log recovery anchor).
        full_image: bool,
    },
    /// Sweep live objects (`Write-Objects-To-Stable-Storage`) under the
    /// copy-on-update protocol, publishing the frontier as it goes.
    Sweep {
        /// Object ids in increasing order.
        list: Vec<u32>,
        /// How the published frontier is denominated (object index vs.
        /// position in `list`).
        cursor: CursorKind,
        seq: u64,
        tick: u64,
        target: usize,
        full_image: bool,
    },
}

/// Writer → mutator completion report.
pub(crate) struct Done {
    pub(crate) result: io::Result<f64>,
    pub(crate) objects: u32,
    /// Eager-job buffers handed back for reuse, so steady-state eager
    /// checkpoints allocate nothing on the mutator thread.
    pub(crate) recycled: Option<(Vec<u32>, Vec<u8>)>,
    /// The job's writer tally (`flush_jobs == 1`), folded into the
    /// shard's by the mutator side.
    pub(crate) stats: WriterStats,
}

/// Per-shard execution ordering for fungible pool workers. Jobs of one
/// shard must hit the store in submission order — under checkpoint
/// pipelining two of a shard's jobs can sit in the queue at once, and
/// two workers could otherwise race them into the store out of order
/// (interleaving log segments, acking completions backwards). Each job
/// carries its shard-local submission index ([`PoolJob::order`]); a
/// worker waits its turn before touching the store and advances the
/// gate after acking. At pipeline depth 1 the gate never waits.
pub(crate) struct TurnGate {
    // std::sync directly: the workspace's parking_lot shim has no Condvar.
    turn: std::sync::Mutex<u64>,
    ready: std::sync::Condvar,
}

impl TurnGate {
    pub(crate) fn new() -> Self {
        TurnGate {
            turn: std::sync::Mutex::new(0),
            ready: std::sync::Condvar::new(),
        }
    }

    /// Block until it is `order`'s turn to execute.
    pub(crate) fn wait_for(&self, order: u64) {
        let mut turn = self.turn.lock().unwrap_or_else(|e| e.into_inner());
        while *turn != order {
            turn = self.ready.wait(turn).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// The current job is fully acked; release the next one.
    pub(crate) fn advance(&self) {
        *self.turn.lock().unwrap_or_else(|e| e.into_inner()) += 1;
        self.ready.notify_all();
    }
}

/// Everything a pool worker needs to execute one shard's flush jobs: the
/// shard's store (a mutex because workers are fungible; contended only
/// when pipelining queues several of the shard's checkpoints at once),
/// its shared table/protocol state, and its frontier + completion
/// channel.
pub(crate) struct ShardCtx {
    pub(crate) store: parking_lot::Mutex<Store>,
    pub(crate) shared: Arc<Shared>,
    pub(crate) frontier: Arc<AtomicU64>,
    pub(crate) geometry: StateGeometry,
    pub(crate) sync_data: bool,
    pub(crate) done_tx: crossbeam::channel::Sender<Done>,
    pub(crate) turn: TurnGate,
    /// Fault-injection handle shared by the whole run (`None` in
    /// production): writer backends consult it at their scheduler
    /// seams and the io_uring CQE seam; the stores inside
    /// [`ShardCtx::store`] carry their own clone for the disk sites.
    pub(crate) inject: Option<Arc<Inject>>,
    /// Bounded retry policy for transient I/O faults, applied by every
    /// writer backend around the store's fallible operations.
    pub(crate) retry: RetryPolicy,
    /// Replica tier shared by the whole run (`None` when replication is
    /// off): the completion seam pushes each committed checkpoint delta
    /// to the shard's peer mirrors (publish-on-commit).
    pub(crate) replicas: Option<Arc<crate::replica::ReplicaSet>>,
}

/// A flush job tagged with the shard it belongs to and the instant the
/// mutator handed it to the writer. Every backend backdates the job's
/// duration clock to `queued_at`, so reported checkpoint durations and
/// ack latencies span the full queue wait — the pool's channel wait and
/// the batched engine's adaptive-window hold alike — measured the same
/// way under every scheduler.
pub(crate) struct PoolJob {
    pub(crate) shard: usize,
    pub(crate) job: Job,
    pub(crate) queued_at: Instant,
    /// Shard-local submission index (0, 1, 2, …), consumed by the
    /// pool's [`TurnGate`] to keep same-shard jobs in order.
    pub(crate) order: u64,
}

/// The mutator-side backend the [`mmoc_core::TickDriver`] (or, across
/// shards, the [`mmoc_core::ShardedDriver`]) drives: one per shard.
pub(crate) struct RealBackend {
    config: RealConfig,
    geometry: StateGeometry,
    shard: usize,
    shared: Arc<Shared>,
    frontier: Arc<AtomicU64>,
    /// `None` after [`RealBackend::release_writer`]: the backend's clone
    /// of the pool's job sender, dropped so the pool can wind down.
    job_tx: Option<crossbeam::channel::Sender<PoolJob>>,
    done_rx: crossbeam::channel::Receiver<Done>,
    /// Query-phase RNG state and sink (prevents the loop optimizing away).
    rng_state: u64,
    query_sink: u64,
    /// Copy-on-update slow-path time accumulated this tick.
    slow_path_s: f64,
    /// Recycled eager-copy buffers (ids, data), cycled through the
    /// writer so the steady state allocates nothing per checkpoint.
    spare: Option<(Vec<u32>, Vec<u8>)>,
    /// The shard's writer tally: its completions' tallies merged.
    writer_stats: WriterStats,
    /// Shard-local submission counter stamping [`PoolJob::order`].
    jobs_sent: u64,
}

impl RealBackend {
    fn send(&mut self, job: Job) {
        if let Some(c) = &self.config.fault {
            // The job is enqueued either way: the simulated kill lands
            // at the handoff, before any writer thread touches disk.
            if c.consult(Site::JobEnqueued).is_some() {
                c.go_down();
            }
        }
        let order = self.jobs_sent;
        self.jobs_sent += 1;
        self.job_tx
            .as_ref()
            .expect("writer pool running")
            .send(PoolJob {
                shard: self.shard,
                job,
                queued_at: Instant::now(),
                order,
            })
            .expect("writer pool alive");
    }

    /// Drop this backend's job sender so the pool can shut down.
    pub(crate) fn release_writer(&mut self) {
        self.job_tx = None;
    }

    /// The shard's accumulated writer tally.
    pub(crate) fn writer_stats(&self) -> WriterStats {
        self.writer_stats
    }

    /// Book one completion: fold its tally into the shard's and hand the
    /// driver what it records.
    fn completion(&mut self, done: Done) -> io::Result<Option<FlushCompletion>> {
        self.writer_stats.merge(done.stats);
        if done.recycled.is_some() {
            self.spare = done.recycled;
        }
        Ok(Some(FlushCompletion {
            duration_s: done.result?,
            objects_written: done.objects,
            bytes_written: done.stats.bytes_written,
        }))
    }
}

impl Drop for RealBackend {
    fn drop(&mut self) {
        std::hint::black_box(self.query_sink);
    }
}

impl CheckpointBackend for RealBackend {
    type Error = io::Error;

    fn begin_tick(&mut self, _tick: u64) -> io::Result<()> {
        self.slow_path_s = 0.0;
        // Query phase: random state lookups standing in for game logic.
        for _ in 0..self.config.query_ops_per_tick {
            self.rng_state = self
                .rng_state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1);
            let row = (self.rng_state >> 33) as u32 % self.geometry.rows;
            let col = (self.rng_state >> 13) as u32 % self.geometry.cols;
            self.query_sink ^= u64::from(self.shared.table.read_cell(row, col));
        }
        Ok(())
    }

    fn cursor(&mut self) -> FlushCursor {
        FlushCursor::at(self.frontier.load(Ordering::Acquire))
    }

    fn apply_update(
        &mut self,
        update: CellUpdate,
        obj: ObjectId,
        ops: UpdateOps,
    ) -> io::Result<()> {
        if ops.copy {
            // First touch of an unflushed flush-set member (per the
            // tick-start frontier): run the real slow path. The flushed
            // bit is re-checked, without and then with the lock, because
            // the writer races ahead of the frontier snapshot.
            let t0 = Instant::now();
            if !self.shared.flushed.get(obj.0) {
                let _guard = self.shared.locks[obj.index()].lock();
                if !self.shared.flushed.get(obj.0) {
                    self.shared.save_to_arena(obj);
                    self.shared.copied.set(obj.0);
                }
            }
            self.slow_path_s += t0.elapsed().as_secs_f64();
        }
        self.shared.table.write_cell(update);
        Ok(())
    }

    fn end_updates(&mut self, _bk: &Bookkeeper, ops: &TickOps) -> io::Result<f64> {
        // The slow path is timed directly; dirty-bit maintenance is priced
        // at the calibrated per-bit cost because individually timing a
        // ~2 ns bit operation with a ~20 ns clock read would swamp it.
        Ok(self.slow_path_s + ops.bit_ops as f64 * self.config.bit_test_cost_s)
    }

    fn poll_completion(&mut self, _bk: &Bookkeeper) -> io::Result<Option<FlushCompletion>> {
        match self.done_rx.try_recv() {
            Ok(done) => self.completion(done),
            Err(_) => Ok(None),
        }
    }

    fn start_checkpoint(
        &mut self,
        bk: &Bookkeeper,
        plan: &CheckpointPlan,
        tick: u64,
    ) -> io::Result<f64> {
        let n = self.geometry.n_objects();
        let full_image = plan.flush.objects() == n;
        let target = bk.target_backup();
        if bk.sweep_slots().is_some() {
            // Sweep job: the writer reads live state under the protocol.
            let FlushJob::Sweep { cursor, .. } = plan.flush else {
                unreachable!("sweep slots imply a sweep flush job")
            };
            self.shared.reset_for_checkpoint();
            self.frontier.store(0, Ordering::Release);
            self.send(Job::Sweep {
                list: bk.flush_set().ones(),
                cursor,
                seq: plan.seq,
                tick,
                target,
                full_image,
            });
            Ok(0.0)
        } else {
            // Eager job: `Copy-To-Memory` is the synchronous pause this
            // algorithm inflicts on the game loop. Buffer bookkeeping
            // stays outside the timed window — only the copy itself is
            // the pause the paper's ΔTsync models.
            let (mut ids, mut data) = self.spare.take().unwrap_or_default();
            ids.clear();
            ids.extend(bk.flush_set().iter_ones());
            let obj_size = self.geometry.object_size as usize;
            data.resize(ids.len() * obj_size, 0);
            let p0 = Instant::now();
            for (i, &id) in ids.iter().enumerate() {
                self.shared
                    .table
                    .read_object_into(ObjectId(id), &mut data[i * obj_size..][..obj_size]);
            }
            let sync_pause = p0.elapsed().as_secs_f64();
            self.send(Job::Eager {
                ids,
                data,
                seq: plan.seq,
                tick,
                target,
                full_image,
            });
            Ok(sync_pause)
        }
    }

    fn drain(&mut self, _bk: &Bookkeeper) -> io::Result<Option<FlushCompletion>> {
        let done = self.done_rx.recv().expect("writer alive");
        self.completion(done)
    }
}

/// Build one shard's backend + context pair. `n_shards` scales the query
/// phase (the total game-logic read load stays fixed as the world is
/// split) and decorrelates the per-shard query RNG; shard 0 of a
/// single-shard run reproduces the historical single-engine stream
/// exactly.
#[allow(clippy::too_many_arguments)]
pub(crate) fn make_shard(
    algorithm: Algorithm,
    config: &RealConfig,
    geometry: StateGeometry,
    shard: usize,
    n_shards: usize,
    dir: &Path,
    job_tx: crossbeam::channel::Sender<PoolJob>,
    replicas: Option<Arc<crate::replica::ReplicaSet>>,
) -> io::Result<(ShardCtx, RealBackend)> {
    let spec = algorithm.spec();
    // Only algorithms that ever run a sweep (copy-on-update handlers, or
    // the partial-redo family's Dribble-style full flushes) need the
    // copy-on-update protocol state; purely-eager algorithms skip the
    // state-sized arena and the per-object locks.
    let sweeps =
        spec.copy_timing == mmoc_core::CopyTiming::OnUpdate || spec.full_flush_period.is_some();
    let shared = Arc::new(Shared::with_protocol(SharedTable::new(geometry), sweeps));
    let mut store = create_store(dir, geometry, spec.disk_org)?;
    store.attach_inject(config.fault.clone());
    let frontier = Arc::new(AtomicU64::new(0));
    // The completion channel must hold one ack per in-flight checkpoint,
    // or a worker acking checkpoint N would block the mutator from ever
    // polling (deadlock at pipeline depth > 1).
    let (done_tx, done_rx) = crossbeam::channel::bounded::<Done>(config.pipeline_depth as usize);

    let mut shard_config = config.clone();
    shard_config.query_ops_per_tick = config.query_ops_per_tick / n_shards as u32;

    let ctx = ShardCtx {
        store: parking_lot::Mutex::new(store),
        shared: Arc::clone(&shared),
        frontier: Arc::clone(&frontier),
        geometry,
        sync_data: config.sync_data,
        done_tx,
        turn: TurnGate::new(),
        inject: config.fault.clone(),
        retry: config.retry_policy(),
        replicas,
    };
    let backend = RealBackend {
        config: shard_config,
        geometry,
        shard,
        shared,
        frontier,
        job_tx: Some(job_tx),
        done_rx,
        rng_state: 0x9E37_79B9 ^ plan_seed(algorithm) ^ shard_seed(shard),
        query_sink: 0,
        slow_path_s: 0.0,
        spare: None,
        writer_stats: WriterStats::default(),
        jobs_sent: 0,
    };
    Ok((ctx, backend))
}

/// Live-state fingerprint of a backend's shard (for recovery checks).
pub(crate) fn live_fingerprint(backend: &RealBackend) -> u64 {
    backend.shared.table.fingerprint()
}

/// A per-algorithm constant decorrelating the query phases of different
/// algorithms run over the same trace.
fn plan_seed(algorithm: Algorithm) -> u64 {
    algorithm as u64 ^ 0xFACE_BEEF
}

/// A per-shard constant decorrelating shard query phases; zero for shard
/// 0, so single-shard runs reproduce the historical stream.
fn shard_seed(shard: usize) -> u64 {
    (shard as u64).wrapping_mul(0xD6E8_FEB8_6659_FD93)
}

/// Measure one real crash recovery of one shard (the whole world, for
/// single-shard runs): restore the newest consistent image, replay the
/// stream to `crash_tick`, compare fingerprints. Tiered: the replica tier
/// first (a memcpy of a peer mirror plus a bounded tail replay), the
/// organization's files under `dir` when replication is off or no mirror
/// is complete. The replica fetch consumes nothing from `trace` on a
/// miss, so the disk path replays from an untouched cursor.
#[allow(clippy::too_many_arguments)]
pub(crate) fn measure_recovery<S: TraceSource>(
    disk_org: DiskOrg,
    dir: &Path,
    geometry: StateGeometry,
    trace: &mut S,
    crash_tick: u64,
    live_fingerprint: u64,
    replicas: Option<&ReplicaSet>,
    shard: u32,
    opts: &RecoveryOpts,
) -> io::Result<RecoveryReport> {
    let mirrored = replicas
        .and_then(|set| recover_from_replica(set, shard, geometry, trace, crash_tick, opts));
    let from_replica = mirrored.is_some();
    let rec = match (mirrored, disk_org) {
        (Some(rec), _) => rec?,
        (None, DiskOrg::DoubleBackup) => {
            recover_and_replay_with(dir, geometry, trace, crash_tick, opts)?
        }
        (None, DiskOrg::Log) => {
            recover_and_replay_log_with(dir, geometry, trace, crash_tick, opts)?
        }
    };
    Ok(RecoveryReport {
        restore_s: rec.restore_s,
        replay_s: rec.replay_s,
        total_s: rec.restore_s + rec.replay_s,
        measured: true,
        restored_from_tick: Some(rec.from_tick),
        ticks_replayed: Some(rec.ticks_replayed),
        updates_replayed: Some(rec.updates_replayed),
        state_matches: Some(rec.table.fingerprint() == live_fingerprint),
        from_replica: Some(from_replica),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmoc_core::run::RunReport;
    use mmoc_core::Run;
    use mmoc_workload::SyntheticConfig;

    fn config(dir: &std::path::Path) -> RealConfig {
        let mut c = RealConfig::new(dir);
        c.query_ops_per_tick = 64;
        c
    }

    /// One shard served by a writer of one, through the builder.
    fn run_single(alg: Algorithm, config: RealConfig, trace: SyntheticConfig) -> RunReport {
        Run::algorithm(alg)
            .engine(config)
            .trace(trace)
            .execute()
            .unwrap_or_else(|e| panic!("{alg}: {e}"))
    }

    fn trace_config() -> SyntheticConfig {
        SyntheticConfig {
            geometry: StateGeometry::test_small(),
            ticks: 50,
            updates_per_tick: 300,
            skew: 0.7,
            seed: 4242,
        }
    }

    /// Dirty-only algorithms write partial checkpoints; full-state
    /// algorithms always write everything.
    #[test]
    fn write_set_sizes_match_the_design_space() {
        let g = trace_config().geometry;
        for alg in Algorithm::ALL {
            let dir = tempfile::tempdir().unwrap();
            let report = run_single(alg, config(dir.path()).without_recovery(), trace_config());
            let checkpoints = &report.world.metrics.checkpoints;
            let spec = alg.spec();
            for c in checkpoints {
                assert!(c.objects_written <= g.n_objects(), "{alg}");
                if spec.objects_copied == mmoc_core::ObjectsCopied::All || c.full_flush {
                    assert_eq!(c.objects_written, g.n_objects(), "{alg} seq {}", c.seq);
                }
            }
            if spec.objects_copied == mmoc_core::ObjectsCopied::Dirty {
                assert!(
                    checkpoints
                        .iter()
                        .any(|c| c.objects_written < g.n_objects()),
                    "{alg}: 300 updates/tick over 512 objects must leave clean objects"
                );
            }
        }
    }

    /// Eager algorithms pay synchronous pauses; copy-on-update algorithms
    /// pay copies instead. Deterministic: the test *is* the writer — it
    /// holds the job receiver, so the checkpoint tick 1 starts cannot
    /// sweep a single object before tick 2's updates land, and then
    /// services the queued job itself. It runs on this module's trace and
    /// on the facade's cross-engine trace, whose real-engine first-touch
    /// copies only a held writer can guarantee (a free one may sweep
    /// every touched object before the next tick).
    #[test]
    fn overhead_shapes_match_copy_timing() {
        use crate::writer::{complete_job, submit_job};
        let cross_engine = SyntheticConfig {
            geometry: StateGeometry::small(2_048, 8),
            ticks: 60,
            updates_per_tick: 500,
            skew: 0.8,
            seed: 33,
        };
        for trace_config in [trace_config(), cross_engine] {
            let g = trace_config.geometry;
            let mut trace = trace_config.build();
            let (mut first, mut second) = (Vec::new(), Vec::new());
            assert!(trace.next_tick(&mut first) && trace.next_tick(&mut second));
            for alg in Algorithm::ALL {
                let dir = tempfile::tempdir().unwrap();
                let (job_tx, job_rx) = crossbeam::channel::bounded::<PoolJob>(1);
                let (ctx, mut backend) =
                    make_shard(alg, &config(dir.path()), g, 0, 1, dir.path(), job_tx, None)
                        .unwrap();
                let mut step = mmoc_core::TickDriver::new(alg.spec()).begin(g);
                step.tick(&first, &mut backend).unwrap();
                step.tick(&second, &mut backend).unwrap();
                let queued = job_rx.try_recv().expect("tick 1 starts a checkpoint");
                // What the in-flight checkpoint must have cost tick 2: one
                // copy per distinct flush-set object it touched (the frontier
                // still reads 0), or nothing if the images were copied
                // eagerly, inside the pause, at checkpoint start.
                let (eager, objects, copies_due) = match &queued.job {
                    Job::Eager { ids, data, .. } => {
                        assert_eq!(data.len(), ids.len() * g.object_size as usize, "{alg}");
                        (true, ids.len(), 0)
                    }
                    Job::Sweep { list, .. } => {
                        let mut touched: Vec<u32> = second
                            .iter()
                            .map(|u| g.object_of_unchecked(u.addr).0)
                            .filter(|o| list.binary_search(o).is_ok())
                            .collect();
                        touched.sort_unstable();
                        touched.dedup();
                        (false, list.len(), touched.len() as u64)
                    }
                };
                let mut store = ctx.store.lock();
                let inflight = submit_job(
                    &ctx,
                    &mut store,
                    &mut Vec::new(),
                    0,
                    queued.job,
                    queued.queued_at,
                );
                let done = complete_job(&ctx, &mut store, inflight, 1);
                drop(store);
                ctx.done_tx.send(done).unwrap();
                let run = step.finish(&mut backend).unwrap();
                assert_eq!(run.metrics.checkpoints.len(), 1, "{alg}");
                assert_eq!(run.metrics.checkpoints[0].objects_written as usize, objects);
                let copies: Vec<u64> = run.metrics.ticks.iter().map(|t| t.copies).collect();
                match alg.spec().copy_timing {
                    mmoc_core::CopyTiming::Eager => {
                        assert!(
                            eager && objects > 0,
                            "{alg}: eager methods must pause to copy"
                        );
                        assert_eq!(copies, [0, 0], "{alg}: eager methods never copy on update");
                    }
                    mmoc_core::CopyTiming::OnUpdate => {
                        assert!(!eager, "{alg}: copy-on-update methods sweep live state");
                        assert!(copies_due > 0, "{alg}: tick 2 must touch the flush set");
                        assert_eq!(copies, [0, copies_due], "{alg}");
                        for t in &run.metrics.ticks {
                            assert_eq!(t.sync_pause_s, 0.0, "{alg}: no eager pauses allowed");
                        }
                    }
                }
            }
        }
    }

    /// Torture the mutator/writer protocol: a hot workload where the same
    /// objects are updated every tick while the writer flushes, and a wide
    /// one (2 MiB of state, several times the writer's run buffer) where
    /// Dribble's full sweep is one consecutive run the buffer must split
    /// and Copy-on-Update's dirty list has gaps, so updates race objects
    /// that are read and published but still waiting in the buffer.
    #[test]
    fn recovery_correct_under_hot_contention_for_sweep_algorithms() {
        let hot = SyntheticConfig {
            geometry: StateGeometry::test_hot(), // tiny: everything is hot
            ticks: 200,
            updates_per_tick: 500,
            skew: 0.99,
            seed: 5,
        };
        let wide = SyntheticConfig {
            geometry: StateGeometry::small(8192, 64), // 32 768 objects
            ticks: 60,
            updates_per_tick: 4000,
            skew: 0.8,
            seed: 6,
        };
        for cfg in [hot, wide] {
            for alg in [
                Algorithm::DribbleAndCopyOnUpdate,
                Algorithm::CopyOnUpdate,
                Algorithm::CopyOnUpdatePartialRedo,
            ] {
                let dir = tempfile::tempdir().unwrap();
                let report = run_single(alg, config(dir.path()), cfg);
                assert_eq!(
                    report.verified_consistent(),
                    Some(true),
                    "{alg}: hot-contention recovery diverged"
                );
                // How many flushes finish inside the unpaced
                // sub-millisecond ticks is the scheduler's call; the drain
                // path guarantees the one that was started.
                assert!(report.world.checkpoints_completed >= 1, "{alg}");
            }
        }
    }
}
