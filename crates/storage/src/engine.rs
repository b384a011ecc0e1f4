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
//!   bookkeeper's copy-on-update decisions. It is one flush round run by
//!   one or more loops, each owning a fixed group of shards — N loops
//!   (one per shard up to the pool size; a single-shard run is exactly
//!   the old dedicated writer thread) or one loop — selected by
//!   [`RealConfig::writer_backend`];
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
use crate::files::{BackupSet, SyncTarget};
use crate::inject::{Inject, Site};
use crate::log_store::LogStore;
use crate::recovery::{recover_from_disk, recover_from_replica, RecoveryOpts};
use crate::replica::ReplicaSet;
use crate::report::WriterStats;
use crate::shared::{relock, Shared, SharedTable};
use crate::writer::JobRoute;
use mmoc_core::driver::{CheckpointBackend, FlushCompletion, TickOps};
use mmoc_core::run::RecoveryReport;
use mmoc_core::{
    Algorithm, Bookkeeper, CellUpdate, CheckpointPlan, CursorKind, DiskOrg, FlushCursor, FlushJob,
    ObjectId, StateGeometry, TraceSource, UpdateOps,
};
use std::io;
use std::os::unix::io::RawFd;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Arc;
use std::time::Instant;

/// The stable-storage organization the writer writes for one shard.
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

    /// Identity of the file a job into `target` syncs, plus its raw
    /// descriptor for the `syncfs` device barrier (any fd on the device
    /// names the filesystem). Both are cached at create/open; no syscall.
    pub(crate) fn sync_point(&self, target: usize) -> (SyncTarget, RawFd) {
        match self {
            Store::Double(set) => (set.sync_target(target), set.sync_fd(target)),
            Store::Log(log) => (log.sync_target(), log.sync_fd()),
        }
    }

    /// Sync a job's data: `fsync` the backup image `target` / the log.
    pub(crate) fn sync(&self, target: usize) -> io::Result<()> {
        match self {
            Store::Double(set) => set.sync(target),
            Store::Log(log) => log.sync(),
        }
    }

    /// Commit a synced job's metadata, declaring checkpoint `tick` in
    /// `target` durable. The log's durability point *is* the data sync,
    /// so it has nothing further to do.
    pub(crate) fn commit(&mut self, target: usize, tick: u64) -> io::Result<()> {
        match self {
            Store::Double(set) => set.commit(target, tick),
            Store::Log(_) => Ok(()),
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

/// The writer's side of one shard, owned by the one loop serving it: the
/// shard's store, its shared table/protocol state, and its frontier +
/// completion channel. Run-wide policy (sync, retry, injection, replica
/// tier) is the run's [`RealConfig`], read by the loop.
pub(crate) struct ShardCtx {
    /// The shard's index in the run: its identity in the replica tier.
    pub(crate) id: usize,
    pub(crate) store: Store,
    pub(crate) shared: Arc<Shared>,
    pub(crate) frontier: Arc<AtomicU64>,
    pub(crate) geometry: StateGeometry,
    pub(crate) done_tx: SyncSender<Done>,
}

/// A flush job tagged with its shard's slot in the serving loop and the
/// instant the mutator handed it to the writer. The writer backdates the
/// job's duration clock to `queued_at`, so reported checkpoint durations
/// and ack latencies span the full queue wait — the channel wait and the
/// adaptive-window hold alike — measured the same way under every
/// backend.
pub(crate) struct PoolJob {
    pub(crate) slot: usize,
    pub(crate) job: Job,
    pub(crate) queued_at: Instant,
}

/// The mutator-side backend the [`mmoc_core::TickDriver`] (or, across
/// shards, the [`mmoc_core::ShardedDriver`]) drives: one per shard.
pub(crate) struct RealBackend {
    config: RealConfig,
    geometry: StateGeometry,
    /// The shard's slot in its writer loop, which every job carries.
    slot: usize,
    shared: Arc<Shared>,
    frontier: Arc<AtomicU64>,
    /// `None` after [`RealBackend::release_writer`]: the job sender of
    /// the writer loop owning this shard, dropped so the loop can wind
    /// down.
    job_tx: Option<SyncSender<PoolJob>>,
    done_rx: Receiver<Done>,
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
}

/// The error a backend returns once its writer loop is gone: the loop's
/// own panic is re-raised when the writer is joined.
fn writer_gone() -> io::Error {
    io::Error::new(io::ErrorKind::BrokenPipe, "writer loop exited")
}

impl RealBackend {
    fn send(&mut self, job: Job) -> io::Result<()> {
        if let Some(c) = &self.config.fault {
            // The job is enqueued either way: the simulated kill lands
            // at the handoff, before any writer thread touches disk.
            if c.consult(Site::JobEnqueued).is_some() {
                c.go_down();
            }
        }
        self.job_tx
            .as_ref()
            .expect("writer running")
            .send(PoolJob {
                slot: self.slot,
                job,
                queued_at: Instant::now(),
            })
            .map_err(|_| writer_gone())
    }

    /// Drop this backend's job sender so its writer loop can shut down.
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
                let _guard = relock(&self.shared.locks[obj.index()]);
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
            })?;
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
            })?;
            Ok(sync_pause)
        }
    }

    fn drain(&mut self, _bk: &Bookkeeper) -> io::Result<Option<FlushCompletion>> {
        let done = self.done_rx.recv().map_err(|_| writer_gone())?;
        self.completion(done)
    }
}

/// Build one shard's backend + context pair. `n_shards` scales the query
/// phase (the total game-logic read load stays fixed as the world is
/// split) and decorrelates the per-shard query RNG; shard 0 of a
/// single-shard run reproduces the historical single-engine stream
/// exactly.
pub(crate) fn make_shard(
    algorithm: Algorithm,
    config: &RealConfig,
    geometry: StateGeometry,
    shard: usize,
    n_shards: usize,
    dir: &Path,
    (job_tx, slot): JobRoute,
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
    // or a writer loop acking checkpoint N would block the mutator from ever
    // polling (deadlock at pipeline depth > 1).
    let (done_tx, done_rx) = sync_channel::<Done>(config.pipeline_depth as usize);

    let mut shard_config = config.clone();
    shard_config.query_ops_per_tick = config.query_ops_per_tick / n_shards as u32;

    let ctx = ShardCtx {
        id: shard,
        store,
        shared: Arc::clone(&shared),
        frontier: Arc::clone(&frontier),
        geometry,
        done_tx,
    };
    let backend = RealBackend {
        config: shard_config,
        geometry,
        slot,
        shared,
        frontier,
        job_tx: Some(job_tx),
        done_rx,
        rng_state: 0x9E37_79B9 ^ plan_seed(algorithm) ^ shard_seed(shard),
        query_sink: 0,
        slow_path_s: 0.0,
        spare: None,
        writer_stats: WriterStats::default(),
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
    let rec = match mirrored {
        Some(rec) => rec?,
        None => recover_from_disk(disk_org, dir, geometry, trace, crash_tick, opts)?,
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
    /// pay copies instead. Deterministic: the test *is* the writer loop —
    /// it holds the job receiver, so the checkpoint tick 1 starts cannot
    /// sweep a single object before tick 2's updates land, and then runs
    /// the writer's flush round on the queued job itself. It runs on this module's trace and
    /// on the facade's cross-engine trace, whose real-engine first-touch
    /// copies only a held writer can guarantee (a free one may sweep
    /// every touched object before the next tick).
    #[test]
    fn overhead_shapes_match_copy_timing() {
        use crate::writer::{run_round, Round};
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
                let (job_tx, job_rx) = sync_channel::<PoolJob>(1);
                let cfg = config(dir.path());
                let (mut ctx, mut backend) =
                    make_shard(alg, &cfg, g, 0, 1, dir.path(), (job_tx, 0)).unwrap();
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
                let mut round = Round::default();
                round.batch.push(queued);
                run_round(std::slice::from_mut(&mut ctx), &cfg, &mut round);
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

    /// A writer loop that dies fails the run with a typed error, neither
    /// hanging nor panicking the mutator: with a checkpoint queued, the
    /// loop's side of the shard (its context and job receiver) goes away,
    /// and draining the checkpoint returns `Err`.
    #[test]
    fn a_dead_writer_loop_fails_the_run_with_an_error() {
        let trace_config = trace_config();
        let g = trace_config.geometry;
        let mut trace = trace_config.build();
        let mut updates = Vec::new();
        let dir = tempfile::tempdir().unwrap();
        let (job_tx, job_rx) = sync_channel::<PoolJob>(1);
        let alg = Algorithm::NaiveSnapshot;
        let cfg = config(dir.path());
        let (ctx, mut backend) = make_shard(alg, &cfg, g, 0, 1, dir.path(), (job_tx, 0)).unwrap();
        let mut step = mmoc_core::TickDriver::new(alg.spec()).begin(g);
        for _ in 0..2 {
            assert!(trace.next_tick(&mut updates));
            step.tick(&updates, &mut backend).unwrap();
        }
        let queued = job_rx.try_recv().expect("tick 1 starts a checkpoint");
        drop((queued, ctx, job_rx));
        let err = step.finish(&mut backend).expect_err("the writer is gone");
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe, "{err}");
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
