//! The writer: one flush-round loop executing the shards' checkpoint
//! flush jobs.
//!
//! The real engine's mutator side (`crate::engine::RealBackend`) and the
//! asynchronous writer meet at exactly one interface: tagged flush jobs
//! (`PoolJob`) go in through a bounded channel, one `Done` per job
//! comes back through the owning shard's completion channel, and sweep
//! progress is published through the shard's frontier. Everything the
//! writer needs to execute a job lives in the shard's `ShardCtx`.
//!
//! Behind that interface runs one loop (`run_rounds`); every round is
//! *collect a batch* (`collect_batch`: drain the queue, hold a shallow
//! batch open for the adaptive window) → *issue its data writes* →
//! *schedule durability* (`schedule_durability`: one data `fsync` per
//! distinct target file, or one `syncfs` barrier per device, all before
//! any metadata commit) → *ack in reap order* (`ack_in_reap_order`: each
//! job's completion phase and its `Done`, newest shard first, FIFO
//! within a shard). Issuing the data writes is the only strategy point
//! (`DataPath`): one `pwrite` per run of consecutive objects (one per
//! log segment) through `submit_job`, or per-shard FIFO waves of
//! `IORING_OP_WRITEV` SQEs on a real kernel ring (`crate::uring`). Every
//! data sync is a synchronous `fdatasync` under every configuration.
//!
//! The three `WriterBackendKind`s are configurations of that loop:
//! `thread-pool` is N loop threads taking one job per round with no
//! window and inline per-job durability (the only mode that holds the
//! shard's `TurnGate`; one shard with one loop is the classic dedicated
//! writer thread), `async-batched` is one loop on the syscall data path,
//! `io-uring` one loop on the ring. Ring availability is probed once per
//! process; where the kernel has no io_uring, `spawn_writer` runs
//! `async-batched` instead and returns that kind, so the substitution is
//! surfaced in every report, never silent. A ring that fails mid-run
//! finishes its round on synchronous redo and the loop swaps to the
//! syscall data path for good (its jobs count as `degraded_jobs`).
//!
//! The completion phase is shared and the ring reproduces the
//! submission phase's bytes exactly, so identical job streams produce
//! byte-identical files under every configuration (pinned by the
//! differential tests below and in `tests/writer_equivalence.rs`): the
//! durability ordering — data sync *before* metadata commit — is a
//! property of the completion machinery, and scheduling only
//! *strengthens* it from per job to batch-global. A new transport (a
//! replicated remote store, `O_DIRECT` preallocated images) is a new
//! data-write strategy in `DataPath`, not a new loop. See DESIGN.md
//! § "The writer".

use crate::engine::{Done, Job, PoolJob, ShardCtx, Store};
use crate::files::SyncTarget;
use crate::inject::{Effect, Inject, Site};
use crate::log_store::serialize_segment;
use crate::report::WriterStats;
use crate::uring::{pwrite_all, Iovec, Ring, Sqe};
use mmoc_core::run::WriterBackend as WriterBackendKind;
use mmoc_core::{CursorKind, ObjectId};
use std::io;
use std::os::unix::io::RawFd;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The durability-scheduling policy the writer runs under. Interpreted
/// by the batching configurations; the thread pool completes jobs one
/// at a time and ignores every knob but the depth.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DurabilityConfig {
    /// Adaptive batch window: how long a shallow batch (fewer jobs than
    /// shards) waits for stragglers before closing. Zero = close
    /// immediately (the historical "everything currently queued" batch).
    pub(crate) batch_window: Duration,
    /// Occupancy-driven window auto-tuning (`batch_window = auto`):
    /// ignore the fixed window and derive each round's window from the
    /// observed job inter-arrival EWMA — zero after a full batch (the
    /// queue is keeping up; waiting buys nothing), otherwise the EWMA
    /// times the full-batch size (`n_shards × pipeline_depth`), capped.
    /// See DESIGN.md § "Checkpoint pipelining".
    pub(crate) auto_window: bool,
    /// Cross-shard fsync coalescing: issue one data sync per distinct
    /// target file per batch (all data syncs before any metadata commit)
    /// instead of one per job.
    pub(crate) coalesce_fsync: bool,
    /// Device-level sync barriers: when a batch holds two or more
    /// distinct target files on one device, collapse their per-file
    /// fsyncs into a single `syncfs` on that device (capability-probed;
    /// falls back to per-file fsync where `syncfs` is unavailable).
    /// Requires `coalesce_fsync`.
    pub(crate) device_sync: bool,
    /// Checkpoint pipeline depth the engine runs at. A batch is *full*
    /// at `n_shards × pipeline_depth` jobs — everything the driver can
    /// possibly have in flight — so at depth ≥ 2 the window keeps a
    /// batch open past one-job-per-shard and same-file (same-shard) jobs
    /// coalesce under one fsync.
    pub(crate) pipeline_depth: u32,
}

/// Upper bound on the auto-tuned batch window, so a stalling mutator
/// (long pauses between checkpoints) cannot teach the writer to hold
/// acks hostage for the whole inter-checkpoint gap.
const MAX_AUTO_WINDOW: Duration = Duration::from_millis(2);

/// EWMA smoothing factor for the observed job inter-arrival gap.
const ARRIVAL_EWMA_ALPHA: f64 = 0.25;

/// The running writer: its loop threads, joined on shutdown.
///
/// Lifecycle contract: the loops run until every job sender is dropped;
/// callers drop their senders and then call [`Writer::shutdown`] before
/// touching the shards' files.
pub(crate) struct Writer {
    loops: Vec<std::thread::JoinHandle<()>>,
}

impl Writer {
    /// Join the loop threads. Callers must have dropped every job
    /// sender first, or this blocks forever.
    pub(crate) fn shutdown(&mut self) {
        for h in self.loops.drain(..) {
            h.join().expect("writer loop");
        }
    }
}

impl Drop for Writer {
    fn drop(&mut self) {
        // A writer dropped without `shutdown` (an early `?` return) must
        // still report a loop's panic — except during an unwind, where
        // re-raising it would abort.
        for h in self.loops.drain(..) {
            if let Err(panic) = h.join() {
                if !std::thread::panicking() {
                    std::panic::resume_unwind(panic);
                }
            }
        }
    }
}

/// Spawn the writer configuration `kind` selects, draining `job_rx` over
/// the given shard contexts. `threads` sizes the thread pool; the
/// batching configurations always run one loop.
///
/// Returns the writer together with the kind that **actually** runs:
/// `io-uring` falls back to `async-batched` when the kernel capability
/// probe fails (or ring setup errors), and callers surface the
/// substitution in their reports so results never silently lie about
/// the backend that produced them.
pub(crate) fn spawn_writer(
    kind: WriterBackendKind,
    ctxs: Arc<Vec<ShardCtx>>,
    threads: usize,
    job_rx: crossbeam::channel::Receiver<PoolJob>,
    sched: DurabilityConfig,
) -> (Writer, WriterBackendKind) {
    // The ring is created *before* its thread so every failure mode —
    // `ENOSYS`, `EPERM`, memlock limits, fd limits post-probe — surfaces
    // here and the run falls back instead of panicking mid-run. Room
    // for several WRITEV runs per shard; the submission loop drains
    // mid-wave when a batch wants more.
    let entries = (ctxs.len() * 4).clamp(32, 256) as u32;
    let mut ring = (kind == WriterBackendKind::IoUring && crate::uring::ring_available())
        .then(|| Ring::new(entries).ok())
        .flatten()
        .map(|ring| RingPath { ring, dead: false });
    let effective = match kind {
        WriterBackendKind::IoUring if ring.is_none() => WriterBackendKind::AsyncBatched,
        kind => kind,
    };
    let batching = effective != WriterBackendKind::ThreadPool;
    let n_loops = if batching { 1 } else { threads.max(1) };
    // The loops compete for jobs directly on one MPMC queue (the
    // channel's `Receiver` is clonable), with no external mutex
    // serializing the handoff; they exit when every job sender has been
    // dropped and the queue is empty.
    let loops = (0..n_loops)
        .map(|_| {
            let ctxs = Arc::clone(&ctxs);
            let job_rx = job_rx.clone();
            let ring = ring.take();
            std::thread::spawn(move || run_rounds(&ctxs, &job_rx, batching, sched, ring))
        })
        .collect();
    (Writer { loops }, effective)
}

// ---------------------------------------------------------------------------
// The shared execution core: submission and completion phases
// ---------------------------------------------------------------------------

/// A job whose data writes have been issued but whose durability point —
/// data sync plus metadata commit (double backup) or log sync (log) — has
/// not been reached yet. The window between [`submit_job`] and
/// [`complete_job`] is exactly the "submitted but not completed" state
/// the mid-batch crash-injection tests model: a crash here leaves the
/// target backup invalidated (or the log tail torn) and recovery must
/// fall back to the previous consistent image.
pub(crate) struct InFlight {
    /// The shard whose store this job targets.
    shard: usize,
    t0: Instant,
    objects: u32,
    recycled: Option<(Vec<u32>, Vec<u8>)>,
    state: io::Result<PendingDurability>,
    /// Outcome of a data sync the durability scheduler issued for this
    /// job batch-globally, ahead of its completion phase; `None` means
    /// the completion phase syncs inline, per job. Jobs sharing a
    /// coalesced `fsync` (or a whole-device barrier) share its outcome:
    /// if the call failed, none of them may commit metadata.
    presync: Option<io::Result<()>>,
    /// The checkpoint delta destined for the shard's peer mirrors, captured
    /// at submission when the run has a replica tier; published by the
    /// completion phase only after the durability point (publish-on-commit).
    replica: Option<ReplicaDelta>,
    /// The job's tally so far, counted where the work happens and closed
    /// by [`complete_job`]. A data `fsync` or `syncfs` device barrier is
    /// attributed to the one job that triggered it — riders on a
    /// coalesced call count 0, so summing over jobs counts actual calls —
    /// and the retries behind a scheduled sync are charged the same way.
    /// `sqe_batch_sum` is the occupancy of the ring round that carried
    /// the job's writes (0 on the syscall data path); `degraded_jobs` is
    /// 1 when the ring died and the job's remaining I/O was redone
    /// through the syscall path.
    stats: WriterStats,
}

impl InFlight {
    /// A freshly submitted job: durability not yet scheduled. The job's
    /// clock starts at `queued_at`, its enqueue instant, so its reported
    /// duration spans the channel wait and any window hold it sat
    /// through — exactly the latency the window trades away.
    fn new(
        shard: usize,
        queued_at: Instant,
        objects: u32,
        recycled: Option<(Vec<u32>, Vec<u8>)>,
        state: io::Result<PendingDurability>,
        replica: Option<ReplicaDelta>,
    ) -> InFlight {
        InFlight {
            shard,
            t0: queued_at,
            objects,
            recycled,
            state,
            presync: None,
            replica,
            stats: WriterStats::default(),
        }
    }
}

/// One checkpoint's delta for the replica tier: the flushed object ids and
/// their consistent-tick images, exactly the bytes the disk organization
/// persisted for the checkpoint at `tick`.
pub(crate) struct ReplicaDelta {
    tick: u64,
    ids: Vec<u32>,
    data: Vec<u8>,
}

impl ReplicaDelta {
    /// Capture the delta of the checkpoint at `tick` as a by-product of
    /// staging its data writes, when the run has a replica tier. `data`
    /// holds the images known now; a streamed sweep appends the rest as
    /// it reads them (room for all of them is reserved here).
    fn capture(ctx: &ShardCtx, tick: u64, ids: &[u32], data: &[u8]) -> Option<ReplicaDelta> {
        ctx.replicas.as_ref().map(|_| {
            let mut images = Vec::with_capacity(ids.len() * ctx.geometry.object_size as usize);
            images.extend_from_slice(data);
            ReplicaDelta {
                tick,
                ids: ids.to_vec(),
                data: images,
            }
        })
    }
}

/// What remains between a submitted job and its durability point.
/// `Copy` so the commit can be re-issued under the retry policy.
#[derive(Clone, Copy)]
enum PendingDurability {
    /// Double backup: objects written into `target`; the data sync and
    /// the `commit(target, tick)` metadata write remain.
    Double { target: usize, tick: u64 },
    /// Log: the segment is sealed in the page cache; the log sync remains.
    Log,
}

/// Identity of the file a pending job's data sync targets, plus its raw
/// descriptor for the `syncfs` device barrier (any fd on the device
/// names the filesystem). Both are cached by the store at create/open;
/// no syscall.
fn sync_point_of(store: &Store, pending: &PendingDurability) -> (SyncTarget, RawFd) {
    match (pending, store) {
        (PendingDurability::Double { target, .. }, Store::Double(set)) => {
            (set.sync_target(*target), set.sync_fd(*target))
        }
        (PendingDurability::Log, Store::Log(log)) => (log.sync_target(), log.sync_fd()),
        _ => unreachable!("pending durability matches the shard's disk organization"),
    }
}

/// Issue a pending job's data sync (`fsync` the backup image / log file).
fn sync_pending(store: &Store, pending: &PendingDurability) -> io::Result<()> {
    match (pending, store) {
        (PendingDurability::Double { target, .. }, Store::Double(set)) => set.sync(*target),
        (PendingDurability::Log, Store::Log(log)) => log.sync(),
        _ => unreachable!("pending durability matches the shard's disk organization"),
    }
}

/// Commit a pending job's metadata, declaring it durable. The log
/// organization's durability point *is* the data sync, so it has nothing
/// further to do.
fn commit_pending(store: &mut Store, pending: PendingDurability) -> io::Result<()> {
    match (pending, store) {
        (PendingDurability::Double { target, tick }, Store::Double(set)) => {
            set.commit(target, tick)
        }
        (PendingDurability::Log, Store::Log(_)) => Ok(()),
        _ => unreachable!("pending durability matches the shard's disk organization"),
    }
}

/// Duplicate an `io::Result<()>` for jobs sharing one coalesced sync.
/// `io::Error` is not `Clone`; an OS error is rebuilt from its errno so
/// every sharer still sees `raw_os_error()`, anything else keeps its
/// kind and message.
fn share_sync_result(r: &io::Result<()>) -> io::Result<()> {
    match r {
        Ok(()) => Ok(()),
        Err(e) => Err(match e.raw_os_error() {
            Some(errno) => io::Error::from_raw_os_error(errno),
            None => io::Error::new(e.kind(), e.to_string()),
        }),
    }
}

/// Reach crash `site` on the run's injection state (`None` in
/// production) and, if the armed plan fires there, freeze the disk
/// exactly as the kill would leave it. Returns whether it fired.
fn crash_at(inject: Option<&Inject>, site: Site) -> bool {
    let Some(c) = inject else { return false };
    let fired = c.consult(site).is_some();
    if fired {
        c.go_down();
    }
    fired
}

/// Reach one of the ring-boundary sites, which take either effect: a
/// simulated kill freezes the disk, a ring death latches `dead`
/// mid-batch *without* crashing.
fn ring_crash_at(inject: Option<&Inject>, site: Site, dead: &mut bool) {
    let Some(c) = inject else { return };
    match c.consult(site) {
        Some(Effect::RingDeath) => *dead = true,
        Some(_) => c.go_down(),
        None => {}
    }
}

/// The injection handle of the run: one state serves the whole run,
/// so any shard's clone names it.
fn run_inject(ctxs: &[ShardCtx]) -> Option<&Inject> {
    ctxs.first().and_then(|ctx| ctx.inject.as_deref())
}

/// Split `ids` (increasing) into maximal runs of consecutive ids, none
/// longer than `max` (≥ 1): the index ranges whose objects are contiguous
/// on disk — and in a buffer packed in id order — so each moves as one
/// sequential write.
fn id_runs(ids: &[u32], max: usize) -> impl Iterator<Item = std::ops::Range<usize>> + '_ {
    let mut start = 0usize;
    std::iter::from_fn(move || {
        if start == ids.len() {
            return None;
        }
        let mut end = start + 1;
        while end < ids.len() && end - start < max && ids[end] == ids[end - 1] + 1 {
            end += 1;
        }
        let run = start..end;
        start = end;
        Some(run)
    })
}

/// Cap, in bytes, on one syscall-path run write — and so the size of a
/// loop's run buffer, the grain a streamed sweep interleaves reads and
/// writes at, and the most a retry re-issues or a crash tears. Measured
/// on the 40 MB `naive-64k` flush: the gain saturates by 256 KiB (see
/// ROADMAP item 5).
const RUN_BYTES: usize = 256 << 10;

/// The copy-on-update sweep protocol, writer side: how a sweep job reads
/// one live object and publishes its progress. The double-backup syscall
/// path streams a sweep run by run ([`submit_job`]); a log segment and
/// the ring capture it whole ([`Sweep::capture`]).
struct Sweep<'a> {
    ctx: &'a ShardCtx,
    cursor: CursorKind,
}

impl Sweep<'_> {
    /// Read one object under the copy-on-update protocol: lock, prefer
    /// the saved pre-update image, mark flushed.
    fn read_object(&self, o: u32, buf: &mut [u8]) {
        let shared = &self.ctx.shared;
        let obj = ObjectId(o);
        let _guard = shared.locks[o as usize].lock();
        if shared.copied.get(o) {
            shared.read_arena_into(obj, buf);
        } else {
            shared.table.read_object_into(obj, buf);
        }
        shared.flushed.set(o);
    }

    /// Publish progress *after* the object is read and queued: the
    /// frontier must under-approximate what is flushed, so a racing
    /// update copies once too often, never too rarely.
    fn publish(&self, position: usize, o: u32) {
        let slots = match self.cursor {
            CursorKind::ByIndex => u64::from(o) + 1,
            CursorKind::ByPosition => position as u64 + 1,
        };
        self.ctx.frontier.store(slots, Ordering::Release);
    }

    /// Read every object of `ids` into one packed image, publishing the
    /// frontier as each is read and queued — "queued" here meaning
    /// captured for one segment or ring write, the same
    /// under-approximation the streamed sweep provides.
    fn capture(&self, ids: &[u32]) -> Vec<u8> {
        let obj_size = self.ctx.geometry.object_size as usize;
        let mut image = vec![0u8; ids.len() * obj_size];
        for ((p, &o), buf) in ids.iter().enumerate().zip(image.chunks_exact_mut(obj_size)) {
            self.read_object(o, buf);
            self.publish(p, o);
        }
        image
    }
}

/// The `(id, image)` records of a packed job payload: `images` holds one
/// object image per id, in id order.
fn records<'a>(
    ids: &'a [u32],
    images: &'a [u8],
    obj_size: usize,
) -> impl Iterator<Item = (ObjectId, &'a [u8])> {
    ids.iter()
        .map(|&id| ObjectId(id))
        .zip(images.chunks_exact(obj_size))
}

/// Submission phase: issue one flush job's data writes against one
/// shard's store, durability deferred. Runs on a writer thread; `buf` is
/// the thread's reusable buffer: a double-backup sweep's run (up to
/// [`RUN_BYTES`]), or a log job's encoded segment. For sweep jobs the
/// frontier is published object by object as each is read — frontier
/// semantics are "read from live state and queued", not "durable", so
/// neither the buffered write nor the deferred sync changes the
/// copy-on-update protocol. A log segment's whole write is retried: the
/// `log-append` failpoint faults before any byte lands, so a retry
/// rewrites the same bytes at the same offset (pinned by the
/// retry-equivalence tests).
///
/// `queued_at` is the instant the mutator enqueued the job
/// ([`PoolJob::queued_at`]); it seeds the job's duration clock here so
/// every configuration reports durations spanning the queue wait and any
/// batch-window hold by construction.
pub(crate) fn submit_job(
    ctx: &ShardCtx,
    store: &mut Store,
    buf: &mut Vec<u8>,
    shard: usize,
    job: Job,
    queued_at: Instant,
) -> InFlight {
    let obj_size = ctx.geometry.object_size as usize;
    let max_run = (RUN_BYTES / obj_size).max(1);
    let mut stats = WriterStats::default();
    let retry = &ctx.retry;
    let (objects, state, recycled, replica) = match job {
        Job::Eager {
            ids,
            data,
            seq,
            tick,
            target,
            full_image,
        } => {
            let count = ids.len() as u32;
            let replica = ReplicaDelta::capture(ctx, tick, &ids, &data);
            let state = match store {
                Store::Double(set) => (|| {
                    set.invalidate(target)?;
                    for run in id_runs(&ids, max_run) {
                        // Sorted I/O: `data` is packed in id order, so a
                        // run of consecutive ids is one slice of it and
                        // one sequential write. Each run is retried
                        // independently: a transient fault (even a short
                        // write) leaves the target invalidated, so
                        // re-writing in place is safe.
                        let first = ObjectId(ids[run.start]);
                        let bytes = &data[run.start * obj_size..run.end * obj_size];
                        retry.run(&mut stats.retry, || set.write_run(target, first, bytes))?;
                    }
                    Ok(PendingDurability::Double { target, tick })
                })(),
                Store::Log(log) => {
                    serialize_segment(seq, tick, full_image, records(&ids, &data, obj_size), buf);
                    retry
                        .run(&mut stats.retry, || log.write_segment(buf))
                        .map(|_| PendingDurability::Log)
                }
            };
            (count, state, Some((ids, data)), replica)
        }
        Job::Sweep {
            list,
            cursor,
            seq,
            tick,
            target,
            full_image,
        } => {
            let count = list.len() as u32;
            let mut delta = ReplicaDelta::capture(ctx, tick, &list, &[]);
            let sweep = Sweep { ctx, cursor };
            let state = match store {
                Store::Double(set) => (|| {
                    set.invalidate(target)?;
                    // Still a stream, at the grain of one run: read its
                    // objects into the run buffer (publishing each as it
                    // is queued there), write the buffer, move on.
                    for run in id_runs(&list, max_run) {
                        buf.resize(run.len() * obj_size, 0);
                        for (p, image) in run.clone().zip(buf.chunks_exact_mut(obj_size)) {
                            sweep.read_object(list[p], image);
                            if let Some(d) = delta.as_mut() {
                                d.data.extend_from_slice(image);
                            }
                            sweep.publish(p, list[p]);
                        }
                        let first = ObjectId(list[run.start]);
                        retry.run(&mut stats.retry, || set.write_run(target, first, buf))?;
                    }
                    Ok(PendingDurability::Double { target, tick })
                })(),
                Store::Log(log) => {
                    let image = sweep.capture(&list);
                    if let Some(d) = delta.as_mut() {
                        d.data.extend_from_slice(&image);
                    }
                    serialize_segment(seq, tick, full_image, records(&list, &image, obj_size), buf);
                    retry
                        .run(&mut stats.retry, || log.write_segment(buf))
                        .map(|_| PendingDurability::Log)
                }
            };
            (count, state, None, delta)
        }
    };
    // All data writes staged, nothing synced or committed yet.
    crash_at(ctx.inject.as_deref(), Site::JobSubmitted);
    InFlight {
        stats,
        ..InFlight::new(shard, queued_at, objects, recycled, state, replica)
    }
}

/// Completion phase: bring a submitted job to its durability point — data
/// `fsync` *before* metadata commit, the ordering the double-backup
/// correctness argument rests on — and assemble its [`Done`]. The job is
/// only acked to the mutator after this returns.
///
/// When the durability scheduler has already synced the job's data
/// batch-globally (`inflight.presync` set), only the metadata commit
/// remains here; otherwise the sync happens inline, per job — the
/// historical path, which the thread pool always takes and the batching
/// configurations take with coalescing off. `batch_jobs` is the occupancy
/// of the batch this job completed in (1 for the thread pool); it closes
/// the job's tally together with the job count and the payload bytes.
pub(crate) fn complete_job(
    ctx: &ShardCtx,
    store: &mut Store,
    inflight: InFlight,
    batch_jobs: u32,
) -> Done {
    let crash = ctx.inject.as_deref();
    let is_down = || crash.is_some_and(Inject::is_down);
    let InFlight {
        shard,
        replica,
        mut stats,
        ..
    } = inflight;
    let result = inflight.state.and_then(|pending| {
        crash_at(crash, Site::CompleteBeforeSync);
        match inflight.presync {
            Some(synced) => synced?,
            None if ctx.sync_data => {
                stats.data_fsyncs = 1;
                ctx.retry
                    .run(&mut stats.retry, || sync_pending(store, &pending))?;
            }
            None => {}
        }
        // Data is durable (or frozen), metadata is not committed: the
        // seam the double-backup correctness argument names.
        crash_at(crash, Site::CompleteBeforeCommit);
        // Publish-on-commit, step 1: open the replica push transaction.
        // The shard's peer mirrors go incomplete *before* the durability
        // point, so a crash between here and the publish below leaves no
        // mirror claiming a commit the disk never made — recovery falls
        // back to the disk tier, which holds the previous checkpoint.
        let push_open = match (&ctx.replicas, &replica) {
            (Some(set), Some(_)) if !is_down() => {
                set.invalidate(shard as u32);
                crash_at(crash, Site::ReplicaPushPreCommit);
                true
            }
            _ => false,
        };
        // The commit rewrites the whole metadata record, so a retried
        // commit after a transient fault is idempotent.
        ctx.retry
            .run(&mut stats.retry, || commit_pending(store, pending))?;
        // Step 2: the checkpoint is durable (or the simulated crash
        // froze the disk, re-checked here) — apply the delta to every
        // mirror and mark them complete at the checkpoint's tick.
        if push_open && !is_down() {
            if let (Some(set), Some(d)) = (&ctx.replicas, &replica) {
                set.publish(
                    shard as u32,
                    d.tick,
                    &d.ids,
                    &d.data,
                    ctx.geometry.object_size,
                );
                crash_at(crash, Site::ReplicaPushPostCommit);
            }
        }
        Ok(())
    });
    stats.flush_jobs = 1;
    stats.batch_jobs_sum = u64::from(batch_jobs);
    stats.max_batch_jobs = batch_jobs;
    stats.bytes_written = u64::from(inflight.objects) * u64::from(ctx.geometry.object_size);
    Done {
        result: result.map(|()| inflight.t0.elapsed().as_secs_f64()),
        objects: inflight.objects,
        recycled: inflight.recycled,
        stats,
    }
}

// ---------------------------------------------------------------------------
// The flush round: collect → issue data writes → schedule durability → ack
// ---------------------------------------------------------------------------

/// Round-to-round scratch space, reused so the steady state allocates
/// little per batch.
#[derive(Default)]
struct Round {
    /// The jobs collected for this round, in queue order.
    batch: Vec<PoolJob>,
    /// The completion queue: the batch's jobs once their data writes are
    /// issued, in issue order.
    queue: Vec<InFlight>,
    /// Shard of each queued job: the input of the reap order.
    shards: Vec<usize>,
    /// Target each queued job still has to sync, if any.
    targets: Vec<Option<SyncTarget>>,
    /// Distinct durability targets of the batch and their sync outcomes.
    points: Vec<SyncPoint>,
    /// Per-device barrier outcomes: (dev, shared `syncfs` result).
    barriers: Vec<(u64, io::Result<()>)>,
    /// Ack scratch: the completion queue, taken from in reap order.
    reaped: Vec<Option<InFlight>>,
    // Ring data path only.
    /// The current wave's staged operations, and per op its iovec and
    /// its CQE result.
    ops: Vec<RingOp>,
    iovecs: Vec<Iovec>,
    outcomes: Vec<Option<i32>>,
    /// Wave-owned buffers (sweep images, serialized segments) the ops
    /// point into; alive until the next ring round.
    arena: Vec<Vec<u8>>,
}

/// One distinct durability target of a batch.
struct SyncPoint {
    target: SyncTarget,
    fd: RawFd,
    /// Index (into the completion queue) of the first job naming the
    /// target: it is charged the sync call and the retries behind it,
    /// every later job naming the target rides for free.
    job: usize,
    /// The sync's shared outcome, once issued.
    outcome: Option<io::Result<()>>,
}

/// Auto-window state: EWMA of the observed job inter-arrival gap, and
/// whether the previous batch closed full.
#[derive(Default)]
struct Arrivals {
    ewma_gap_s: Option<f64>,
    prev: Option<Instant>,
    last_batch_full: bool,
}

/// One writer loop thread. With `batching` off this is a thread-pool
/// worker (one job per round, inline durability, the shard's turn gate
/// held); with it on, the single submission/completion loop of the
/// batched and ring configurations. The loop exits when every job sender
/// has been dropped and the queue is empty.
fn run_rounds(
    ctxs: &[ShardCtx],
    job_rx: &crossbeam::channel::Receiver<PoolJob>,
    batching: bool,
    sched: DurabilityConfig,
    ring: Option<RingPath>,
) {
    let mut path = DataPath {
        ring,
        buf: Vec::new(),
    };
    let mut round = Round::default();
    let mut arrivals = Arrivals::default();
    // A batch is full when it holds everything the driver can possibly
    // have in flight: one job per shard at depth 1 (the historical
    // notion), `depth` per shard when pipelining.
    let full_batch = ctxs.len() * sched.pipeline_depth.max(1) as usize;
    while collect_batch(
        job_rx,
        batching,
        &sched,
        full_batch,
        &mut arrivals,
        &mut round.batch,
    ) {
        let occupancy = round.batch.len() as u32;
        // Multi-loop mode only: the channel's FIFO guarantees loop
        // *pickup* order but not *execution* order, so each loop holds
        // the shard's `TurnGate` slot for its job's submission index from
        // store mutation through the ack (see `TurnGate`). A single
        // batching loop needs no gate: the channel is FIFO per shard and
        // the loop is single-threaded, so a pipelined shard's jobs enter
        // the batch — and hit its store — in submission order.
        //
        // Deadlock-free: the channel is FIFO, so a loop holding order N
        // was dispatched before any loop holding order N+1 of the same
        // shard, and the done channel holds one slot per in-flight
        // checkpoint — the gate's owner can always finish.
        let gate = (!batching).then(|| {
            let job = &round.batch[0];
            (&ctxs[job.shard].turn, job.order)
        });
        if let Some((turn, order)) = gate {
            turn.wait_for(order);
        }
        path.issue_data_writes(ctxs, &mut round);
        // A one-job round has no batch-global phase: the job syncs
        // inline in its completion phase, and the scheduler's seam — a
        // lattice point of the batching configurations — does not exist.
        if batching {
            schedule_durability(ctxs, &sched, &mut round);
        }
        ack_in_reap_order(ctxs, &mut round, occupancy);
        if let Some((turn, _)) = gate {
            turn.advance();
        }
    }
}

/// The window a round holds a shallow batch open for. A fixed window
/// passes through. Auto-tuning derives it from the occupancy counters:
/// zero while batches close full (the queue is keeping up) or before
/// the first inter-arrival estimate, else the inter-arrival EWMA scaled
/// to the full-batch size, capped.
fn batch_window(
    ewma_gap_s: Option<f64>,
    last_batch_full: bool,
    full_batch: usize,
    sched: &DurabilityConfig,
) -> Duration {
    if !sched.auto_window {
        return sched.batch_window;
    }
    match ewma_gap_s {
        Some(gap) if !last_batch_full => {
            Duration::from_secs_f64((gap * full_batch as f64).min(MAX_AUTO_WINDOW.as_secs_f64()))
        }
        _ => Duration::ZERO,
    }
}

/// Round step 1: block for the first job, then — when `batching` —
/// coalesce everything that is already queued and wait out the adaptive
/// window. Returns `false` once every sender is gone and the queue is
/// empty.
fn collect_batch(
    job_rx: &crossbeam::channel::Receiver<PoolJob>,
    batching: bool,
    sched: &DurabilityConfig,
    full_batch: usize,
    arrivals: &mut Arrivals,
    batch: &mut Vec<PoolJob>,
) -> bool {
    let Ok(first) = job_rx.recv() else {
        return false;
    };
    batch.push(first);
    if !batching {
        return true;
    }
    while let Ok(job) = job_rx.try_recv() {
        batch.push(job);
    }
    // Adaptive batch window: a full batch (`depth` jobs per shard) can
    // never grow, but a shallow one may — wait briefly for stragglers so
    // their durability points coalesce, trading bounded ack latency for
    // fewer fsyncs. Zero reproduces the historical close-immediately
    // policy.
    let window = batch_window(
        arrivals.ewma_gap_s,
        arrivals.last_batch_full,
        full_batch,
        sched,
    );
    if !window.is_zero() {
        let deadline = Instant::now() + window;
        while batch.len() < full_batch {
            let Some(left) = deadline.checked_duration_since(Instant::now()) else {
                break;
            };
            match job_rx.recv_timeout(left) {
                Ok(job) => batch.push(job),
                Err(_) => break, // window elapsed, or senders gone
            }
        }
    }
    // Feed the auto-window estimator from the enqueue timestamps the
    // jobs already carry (no extra clock reads on the mutator side).
    for job in batch.iter() {
        if let Some(prev) = arrivals.prev {
            let gap = job.queued_at.saturating_duration_since(prev).as_secs_f64();
            arrivals.ewma_gap_s = Some(match arrivals.ewma_gap_s {
                Some(e) => e + ARRIVAL_EWMA_ALPHA * (gap - e),
                None => gap,
            });
        }
        arrivals.prev = Some(job.queued_at);
    }
    arrivals.last_batch_full = batch.len() >= full_batch;
    true
}

/// The durability target a job in the completion queue still has to
/// sync, if any: its submission succeeded and the run syncs data.
fn pending_target(ctxs: &[ShardCtx], inflight: &InFlight) -> Option<(SyncTarget, RawFd)> {
    let ctx = &ctxs[inflight.shard];
    match &inflight.state {
        Ok(pending) if ctx.sync_data => Some(sync_point_of(&ctx.store.lock(), pending)),
        _ => None, // submission failed, or syncing is off: nothing to sync
    }
}

/// Round step 3, the durability scheduler: bring every pending target's
/// *data* to stable storage — one fsync per distinct file, jobs sharing
/// a file sharing the call (and its outcome). Runs before any metadata
/// commit, so the sync-before-commit invariant holds batch-globally.
/// With coalescing off nothing is scheduled and each job syncs inline in
/// its completion phase, the historical path.
///
/// Device barriers strengthen the collapse one level: when the batch
/// holds ≥ 2 distinct files on one device and `syncfs` is available, a
/// single whole-device call replaces all of that device's per-file
/// fsyncs (it flushes a superset of their dirty pages, so the
/// sync-before-commit ordering is preserved a fortiori). Barriers and
/// per-file fsyncs alike are synchronous syscalls under every data path.
fn schedule_durability(ctxs: &[ShardCtx], sched: &DurabilityConfig, round: &mut Round) {
    let crash = run_inject(ctxs);
    if sched.coalesce_fsync {
        let Round {
            queue,
            targets,
            points,
            barriers,
            ..
        } = round;
        targets.clear();
        points.clear();
        for (i, inflight) in queue.iter().enumerate() {
            let pending = pending_target(ctxs, inflight);
            targets.push(pending.map(|(target, _)| target));
            let Some((target, fd)) = pending else {
                continue;
            };
            if !points.iter().any(|p| p.target == target) {
                points.push(SyncPoint {
                    target,
                    fd,
                    job: i,
                    outcome: None,
                });
            }
        }
        barriers.clear();
        if sched.device_sync {
            for i in 0..points.len() {
                let dev = points[i].target.dev();
                let distinct = points.iter().filter(|p| p.target.dev() == dev).count();
                if distinct < 2 || barriers.iter().any(|(d, _)| *d == dev) {
                    continue;
                }
                // The kill lands before the barrier: no device flush,
                // per-file fallback also frozen — pure page-cache loss.
                if crash.is_some_and(Inject::is_down) || crash_at(crash, Site::DeviceBarrier) {
                    continue;
                }
                let outcome = match crate::device_sync::sync_device(points[i].fd) {
                    Ok(true) => Ok(()),
                    Ok(false) => continue, // unavailable: per-file fallback
                    Err(e) => Err(e),
                };
                // Points are in first-naming-job order, so this point's
                // job is the first on its device: it pays the barrier.
                queue[points[i].job].stats.device_syncs = 1;
                barriers.push((dev, outcome));
            }
            points.retain(|p| !barriers.iter().any(|(d, _)| *d == p.target.dev()));
        }
        fsync_points(ctxs, queue, points);
        for (inflight, target) in queue.iter_mut().zip(targets.iter()) {
            let Some(target) = *target else {
                continue;
            };
            let outcome = match barriers.iter().find(|(d, _)| *d == target.dev()) {
                Some((_, outcome)) => outcome,
                None => points
                    .iter()
                    .find(|p| p.target == target)
                    .and_then(|p| p.outcome.as_ref())
                    .expect("every distinct target synced"),
            };
            inflight.presync = Some(share_sync_result(outcome));
        }
    }
    // The scheduler's seam: every data sync of the batch is done, no
    // metadata commit has happened yet.
    crash_at(crash, Site::SchedulerCommitSeam);
}

/// The durability scheduler's per-file syncs: `fsync` each distinct
/// target once through the store of the job that pays for the call —
/// the first job naming it is charged the call and the retry attempts
/// behind it, every rider pays nothing — recording the shared outcomes
/// in place.
fn fsync_points(ctxs: &[ShardCtx], queue: &mut [InFlight], points: &mut [SyncPoint]) {
    for p in points.iter_mut() {
        let payer = &mut queue[p.job];
        payer.stats.data_fsyncs = 1;
        let ctx = &ctxs[payer.shard];
        let Ok(pending) = &payer.state else {
            unreachable!("a sync point names a job with a pending target");
        };
        let store = ctx.store.lock();
        p.outcome = Some(
            ctx.retry
                .run(&mut payer.stats.retry, || sync_pending(&store, pending)),
        );
    }
}

/// The order a round's jobs are completed and acked in, as indices into
/// the completion queue whose jobs' shards are `shards`: newest shard
/// first (deliberately not batch-FIFO, so consumers cannot grow an
/// accidental cross-shard ordering dependency) but in submission order
/// *within* a shard — a pipelined shard's acks must arrive FIFO for the
/// driver's completion draining. With one job per shard this is exactly
/// the historical newest-first reap.
///
/// Wave ordering: every shard's k-th job acks (newest shard first)
/// before any shard's (k+1)-th, so a pipelined shard never monopolizes
/// the ack stream while other shards' completion channels sit full.
fn reap_order(shards: &[usize]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..shards.len()).collect();
    order.sort_by_key(|&i| {
        // Job i's wave: how many earlier jobs share its shard.
        let wave = shards[..i].iter().filter(|&&s| s == shards[i]).count();
        let newest = shards
            .iter()
            .rposition(|&s| s == shards[i])
            .expect("index i itself matches");
        (wave, std::cmp::Reverse(newest), i)
    });
    order
}

/// Round step 4: metadata commits + acks, in [`reap_order`].
fn ack_in_reap_order(ctxs: &[ShardCtx], round: &mut Round, occupancy: u32) {
    round.shards.clear();
    round.shards.extend(round.queue.iter().map(|f| f.shard));
    round.reaped.clear();
    round.reaped.extend(round.queue.drain(..).map(Some));
    for i in reap_order(&round.shards) {
        let inflight = round.reaped[i].take().expect("each job reaped once");
        let ctx = &ctxs[inflight.shard];
        let mut store = ctx.store.lock();
        let done = complete_job(ctx, &mut store, inflight, occupancy);
        drop(store);
        let _ = ctx.done_tx.send(done);
    }
}

// ---------------------------------------------------------------------------
// The strategy point: how a batch's data writes are issued
// ---------------------------------------------------------------------------

/// How one loop issues a batch's data writes: through syscalls (`pwrite`
/// per run or segment), or through a kernel ring.
struct DataPath {
    /// The ring, when this loop drives one. A ring that died stays
    /// parked here: from then on the loop takes the syscall path, and the
    /// parked ring is what flags its jobs `degraded`. (SQEs of the dead
    /// ring's last round may still be in flight; the buffers they name
    /// sit in the round's arena, which only a ring round ever clears.)
    ring: Option<RingPath>,
    /// The syscall path's reusable run buffer.
    buf: Vec<u8>,
}

impl DataPath {
    fn live_ring(&mut self) -> Option<&mut RingPath> {
        self.ring.as_mut().filter(|ring| !ring.dead)
    }

    /// Round step 2: issue every collected job's data writes, moving the
    /// batch into the completion queue; durability is deferred past the
    /// whole batch.
    fn issue_data_writes(&mut self, ctxs: &[ShardCtx], round: &mut Round) {
        if let Some(ring) = self.live_ring() {
            ring.issue_waves(ctxs, round);
            return;
        }
        let degraded = self.ring.is_some();
        for job in round.batch.drain(..) {
            let ctx = &ctxs[job.shard];
            let mut store = ctx.store.lock();
            let buf = &mut self.buf;
            let mut inflight = submit_job(ctx, &mut store, buf, job.shard, job.job, job.queued_at);
            inflight.stats.degraded_jobs = u64::from(degraded);
            round.queue.push(inflight);
        }
    }
}

/// The ring data path: data writes are submitted as `IORING_OP_WRITEV`
/// SQEs and reaped out of order by `user_data`; durability stays on the
/// synchronous syscall path. Within a batch, each shard's jobs are
/// written in per-shard FIFO *waves* so same-file appends stack at
/// precomputed offsets.
struct RingPath {
    ring: Ring,
    /// Latched on any `io_uring_enter`/push failure: once an enter round
    /// fails, completions for its in-flight SQEs could surface later and
    /// a fresh round would misattribute them by `user_data`, so the loop
    /// stops using the ring for good: the current batch finishes on the
    /// synchronous redo path (positional rewrites are idempotent) and
    /// later batches take the syscall data path.
    dead: bool,
}

/// One staged ring operation of the current wave. `ptr`/`len` name a
/// buffer owned by the wave (a job's eager data, or a wave-arena sweep
/// image / serialized segment) that outlives the reap by construction.
struct RingOp {
    /// Index into the batch's completion queue.
    job: usize,
    fd: RawFd,
    offset: u64,
    ptr: *const u8,
    len: usize,
}

impl RingOp {
    /// A positional write of `bytes` on behalf of completion-queue job
    /// `job`; the caller keeps `bytes`' buffer alive for the wave.
    fn write(job: usize, fd: RawFd, offset: u64, bytes: &[u8]) -> RingOp {
        RingOp {
            job,
            fd,
            offset,
            ptr: bytes.as_ptr(),
            len: bytes.len(),
        }
    }
}

/// Stage one WRITEV per maximal consecutive-id run of `ids`: each run is
/// contiguous in `bytes`, the packed object buffer, *and* on disk.
fn push_runs(
    ops: &mut Vec<RingOp>,
    job: usize,
    ids: &[u32],
    bytes: &[u8],
    fd: RawFd,
    geometry: &mmoc_core::StateGeometry,
) {
    let obj_size = geometry.object_size as usize;
    for run in id_runs(ids, usize::MAX) {
        let offset = geometry.object_offset(ObjectId(ids[run.start]));
        let bytes = &bytes[run.start * obj_size..run.end * obj_size];
        ops.push(RingOp::write(job, fd, offset, bytes));
    }
}

/// Stage one job's data writes as ring operations, mirroring
/// [`submit_job`] byte for byte: double-backup writes become one WRITEV
/// per contiguous-id run at the objects' fixed offsets; log appends
/// become one WRITEV of the serialized segment at the stacked append
/// offset (reserved immediately, so a pipelined shard's next segment
/// lands after it). Sweep jobs run the copy-on-update read protocol —
/// lock, prefer the saved pre-update image, publish the frontier after
/// each object is read and queued — into a wave-local image first.
fn stage_ring_job(
    ctx: &ShardCtx,
    store: &mut Store,
    job_idx: usize,
    job: PoolJob,
    ops: &mut Vec<RingOp>,
    arena: &mut Vec<Vec<u8>>,
) -> InFlight {
    let obj_size = ctx.geometry.object_size as usize;
    // Consulted at each staging gate (not cached): a crash point can
    // fire *inside* this function (the invalidate site), and nothing
    // staged after the kill instant may reach the ring.
    let is_down = || ctx.inject.as_ref().is_some_and(|c| c.is_down());
    // An eager job brings its private copy of the images; a sweep job
    // brings the cursor its frontier is denominated in.
    let (ids, data, cursor, seq, tick, target, full_image) = match job.job {
        Job::Eager {
            ids,
            data,
            seq,
            tick,
            target,
            full_image,
        } => (ids, Some(data), None, seq, tick, target, full_image),
        Job::Sweep {
            list,
            cursor,
            seq,
            tick,
            target,
            full_image,
        } => (list, None, Some(cursor), seq, tick, target, full_image),
    };
    let objects = ids.len() as u32;
    let opened = match store {
        Store::Double(set) => set.invalidate(target),
        Store::Log(_) => Ok(()),
    };
    let mut replica = None;
    let state = opened.map(|()| {
        // Capture a sweep into a wave-local image.
        let image = cursor.map(|cursor| Sweep { ctx, cursor }.capture(&ids));
        let bytes = data.as_deref().or(image.as_deref()).unwrap_or_default();
        replica = ReplicaDelta::capture(ctx, tick, &ids, bytes);
        match store {
            Store::Double(set) => {
                if !is_down() {
                    let fd = set.sync_fd(target);
                    push_runs(ops, job_idx, &ids, bytes, fd, &ctx.geometry);
                }
                arena.extend(image);
                PendingDurability::Double { target, tick }
            }
            Store::Log(log) => {
                let mut seg = Vec::new();
                serialize_segment(
                    seq,
                    tick,
                    full_image,
                    records(&ids, bytes, obj_size),
                    &mut seg,
                );
                let offset = log.append_offset();
                if !is_down() {
                    log.note_appended(seg.len() as u64);
                    ops.push(RingOp::write(job_idx, log.sync_fd(), offset, &seg));
                }
                arena.push(seg);
                PendingDurability::Log
            }
        }
    });
    // An eager job's `data` moves into the in-flight record here (to be
    // recycled to the mutator); a Vec move never relocates its heap
    // buffer — nor does moving an image or segment into the arena — so
    // the op pointers stay valid for the life of the wave.
    let recycled = data.map(|data| (ids, data));
    InFlight::new(job.shard, job.queued_at, objects, recycled, state, replica)
}

impl RingPath {
    /// Issue a batch's data writes through the ring, wave by wave,
    /// moving the batch into the completion queue (in wave order).
    fn issue_waves(&mut self, ctxs: &[ShardCtx], round: &mut Round) {
        let RingPath { ring, dead } = self;
        let cap = ring.capacity() as usize;
        let inject = run_inject(ctxs);
        // The retry budget is likewise run-global.
        let retry = ctxs.first().map_or_else(Default::default, |ctx| ctx.retry);
        let Round {
            batch,
            queue,
            ops,
            iovecs,
            outcomes,
            arena,
            ..
        } = round;
        arena.clear();
        // Per-shard FIFO waves: each wave takes the earliest remaining
        // job of every shard, so same-file writes of a pipelined shard
        // are staged (and their append offsets reserved) in submission
        // order, wave by wave.
        while !batch.is_empty() {
            // Stage every job of this wave: data writes become RingOps
            // over wave-stable buffers.
            ops.clear();
            let wave_start = queue.len();
            let mut next = 0;
            while next < batch.len() {
                // `queue[wave_start..]` is the wave so far.
                if queue[wave_start..]
                    .iter()
                    .any(|staged| staged.shard == batch[next].shard)
                {
                    next += 1;
                    continue;
                }
                let job = batch.remove(next);
                let ctx = &ctxs[job.shard];
                let mut store = ctx.store.lock();
                let inflight = stage_ring_job(ctx, &mut store, queue.len(), job, ops, arena);
                drop(store);
                queue.push(inflight);
            }
            let wave_sqes = ops.len() as u32;
            for inflight in &mut queue[wave_start..] {
                inflight.stats.sqe_batch_sum = u64::from(wave_sqes);
                inflight.stats.max_sqe_batch = wave_sqes;
            }

            // Submission: push every op, draining completions whenever
            // the ring runs out of room.
            // `user_data` is the op index, so out-of-order CQEs land in
            // their `outcomes` slot directly.
            outcomes.clear();
            outcomes.resize(ops.len(), None);
            // Ring death here: the wave's SQEs never reach the kernel and
            // the synchronous redo below must finish the batch
            // byte-identically. A kill here lands between staging and
            // submission: nothing of this wave reaches disk.
            ring_crash_at(inject, Site::UringWaveStaged, dead);
            let down = inject.is_some_and(Inject::is_down);
            if !*dead && !down {
                // One iovec per op, reserved to the final size up front
                // so the pointers handed to the kernel never move.
                iovecs.clear();
                iovecs.reserve(ops.len());
                let mut awaiting = 0usize;
                'submit: for (k, op) in ops.iter().enumerate() {
                    // Make room, draining completions while waiting.
                    loop {
                        while let Some(c) = ring.reap() {
                            outcomes[c.user_data as usize] = Some(c.res);
                            awaiting -= 1;
                        }
                        if awaiting < cap && ring.sq_space() > 0 {
                            break;
                        }
                        if ring.submit_and_wait(1).is_err() {
                            *dead = true;
                            break 'submit;
                        }
                    }
                    iovecs.push(Iovec {
                        iov_base: op.ptr.cast_mut().cast(),
                        iov_len: op.len,
                    });
                    let sqe = Sqe::writev(op.fd, &raw const iovecs[k], 1, op.offset, k as u64);
                    if ring.push(sqe).is_err() {
                        *dead = true;
                        break;
                    }
                    awaiting += 1;
                }
                while !*dead && awaiting > 0 {
                    if ring.submit_and_wait(awaiting as u32).is_err() {
                        *dead = true;
                        break;
                    }
                    while let Some(c) = ring.reap() {
                        outcomes[c.user_data as usize] = Some(c.res);
                        awaiting -= 1;
                    }
                }
            }

            // Reap bookkeeping: repair short writes, redo unsubmitted
            // writes synchronously (positional writes are idempotent),
            // surface real errors into the job's state.
            for (k, op) in ops.iter().enumerate() {
                let mut outcome = outcomes.get(k).copied().flatten();
                let job = &mut queue[op.job];
                // Transient-fault injection at the CQE seam: rewrite a
                // successful write completion into the scheduled errno.
                // The bytes did land, so the synchronous redo below is
                // idempotent — the same contract as short-write repair.
                if let Some(f) = inject {
                    if matches!(outcome, Some(r) if r >= 0) {
                        if let Some(Effect::Transient { kind, .. }) = f.consult(Site::UringCqe) {
                            outcome = Some(-kind.errno());
                        }
                    }
                }
                let redo_from = match outcome {
                    Some(r) if r >= 0 => {
                        let done = r as usize;
                        if done >= op.len {
                            continue; // fully written
                        }
                        done // short write: repair the tail
                    }
                    Some(r) => {
                        // A real CQE error spends the job's retry budget
                        // on the synchronous redo (positional, hence
                        // idempotent). Exhaustion takes the degradation
                        // ladder: latch the ring dead so this batch — and
                        // every later one — finishes on the synchronous
                        // path. A zero budget is the historical engine:
                        // the error propagates into the job's state.
                        if retry.max == 0 {
                            let e = io::Error::from_raw_os_error(-r);
                            if job.state.is_ok() {
                                job.state = Err(e);
                            }
                            continue;
                        }
                        if job.stats.retry.retries >= u64::from(retry.max) {
                            job.stats.retry.exhausted += 1;
                            *dead = true;
                        } else {
                            job.stats.retry.retries += 1;
                        }
                        0 // redo the whole write synchronously
                    }
                    None => 0, // enter failed before completion: redo whole
                };
                if *dead {
                    // Any redo performed after the ring latched dead ran
                    // on the degraded synchronous path.
                    job.stats.degraded_jobs = 1;
                }
                if down {
                    continue; // frozen: the redo path writes nothing
                }
                // SAFETY: `ptr`/`len` name a wave-owned buffer (job data
                // or arena entry) still alive here.
                let bytes = unsafe { std::slice::from_raw_parts(op.ptr, op.len) };
                if let Err(e) = pwrite_all(op.fd, &bytes[redo_from..], op.offset + redo_from as u64)
                {
                    if job.state.is_ok() {
                        job.state = Err(e);
                    }
                }
            }
            ring_crash_at(inject, Site::UringWaveComplete, dead);
        }
    }
}

#[cfg(test)]
mod tests {
    //! Deterministic differential tests at the job-stream level: both
    //! backends are fed *identical* flush-job sequences over identical
    //! shard contexts and must leave byte-identical files. (End-to-end
    //! runs cannot pin file bytes — checkpoint cadence depends on
    //! wall-clock races — so the byte-level half of the equivalence
    //! matrix lives here, and the recovered-state half lives in
    //! `tests/writer_equivalence.rs`.)

    use super::*;
    use crate::engine::{create_store, TurnGate};
    use crate::shared::{Shared, SharedTable};
    use mmoc_core::{CellUpdate, DiskOrg, StateGeometry};
    use std::path::Path;
    use std::sync::atomic::AtomicU64;

    fn geometry() -> StateGeometry {
        StateGeometry::test_micro() // 4 objects of 64 B
    }

    impl DurabilityConfig {
        /// The historical policy: no waiting, per-job durability.
        fn legacy() -> Self {
            DurabilityConfig {
                batch_window: Duration::ZERO,
                auto_window: false,
                coalesce_fsync: false,
                device_sync: false,
                pipeline_depth: 1,
            }
        }
    }

    /// Build one shard's context + store over `dir`, with a seeded live
    /// table so sweep jobs read non-trivial bytes.
    fn make_ctx(
        dir: &Path,
        disk_org: DiskOrg,
        seed: u32,
    ) -> (ShardCtx, crossbeam::channel::Receiver<Done>) {
        make_ctx_over(dir, geometry(), disk_org, seed)
    }

    fn make_ctx_over(
        dir: &Path,
        g: StateGeometry,
        disk_org: DiskOrg,
        seed: u32,
    ) -> (ShardCtx, crossbeam::channel::Receiver<Done>) {
        let table = SharedTable::new(g);
        for i in 0..g.rows {
            for c in 0..g.cols {
                table.write_cell(CellUpdate::new(i, c, seed.wrapping_mul(31) ^ (i * 8 + c)));
            }
        }
        let shared = Arc::new(Shared::new(table));
        let store = create_store(dir, g, disk_org).unwrap();
        let (done_tx, done_rx) = crossbeam::channel::bounded::<Done>(1);
        let ctx = ShardCtx {
            store: parking_lot::Mutex::new(store),
            shared,
            frontier: Arc::new(AtomicU64::new(0)),
            geometry: g,
            sync_data: true,
            done_tx,
            turn: TurnGate::new(),
            inject: None,
            retry: crate::inject::RetryPolicy::none(),
            replicas: None,
        };
        (ctx, done_rx)
    }

    /// A deterministic job stream: alternating eager and sweep jobs per
    /// shard, jobs for all shards interleaved so the batched engine sees
    /// real multi-job batches.
    fn job_stream(n_shards: usize) -> Vec<(usize, Job)> {
        let g = geometry();
        let obj_size = g.object_size as usize;
        let mut jobs = Vec::new();
        for round in 0u64..4 {
            for shard in 0..n_shards {
                let fill = (round as u8) * 16 + shard as u8 + 1;
                let job = if round % 2 == 0 {
                    let ids: Vec<u32> = (0..g.n_objects()).step_by(2).collect();
                    let data = vec![fill; ids.len() * obj_size];
                    Job::Eager {
                        ids,
                        data,
                        seq: round,
                        tick: round * 10 + 1,
                        target: (round / 2 % 2) as usize,
                        full_image: false,
                    }
                } else {
                    Job::Sweep {
                        list: (0..g.n_objects()).collect(),
                        cursor: CursorKind::ByIndex,
                        seq: round,
                        tick: round * 10 + 1,
                        target: (round / 2 % 2) as usize,
                        full_image: true,
                    }
                };
                jobs.push((shard, job));
            }
        }
        jobs
    }

    /// Drive one backend over the stream: send each round's jobs (one per
    /// shard — the driver's one-in-flight-per-shard invariant), then wait
    /// for that round's completions before the next round.
    fn drive(
        kind: WriterBackendKind,
        sched: DurabilityConfig,
        dirs: &[std::path::PathBuf],
        disk_org: DiskOrg,
    ) -> Vec<io::Result<f64>> {
        let n = dirs.len();
        let mut ctxs = Vec::new();
        let mut done_rxs = Vec::new();
        for (s, dir) in dirs.iter().enumerate() {
            let (ctx, rx) = make_ctx(dir, disk_org, s as u32);
            ctxs.push(ctx);
            done_rxs.push(rx);
        }
        let ctxs = Arc::new(ctxs);
        let (job_tx, job_rx) = crossbeam::channel::bounded::<PoolJob>(n);
        let (mut backend, _effective) = spawn_writer(kind, Arc::clone(&ctxs), 2, job_rx, sched);
        let mut results = Vec::new();
        let stream = job_stream(n);
        for (round_idx, round) in stream.chunks(n).enumerate() {
            for (shard, job) in round {
                // Reset per-checkpoint protocol state as the mutator would.
                ctxs[*shard].shared.reset_for_checkpoint();
                ctxs[*shard].frontier.store(0, Ordering::Release);
                job_tx
                    .send(PoolJob {
                        shard: *shard,
                        job: job.clone(),
                        queued_at: Instant::now(),
                        order: round_idx as u64,
                    })
                    .unwrap();
            }
            for rx in &done_rxs {
                results.push(rx.recv().unwrap().result);
            }
        }
        drop(job_tx);
        backend.shutdown();
        results
    }

    /// The coalescing scheduler with a nonzero adaptive window.
    fn coalescing(window: Duration) -> DurabilityConfig {
        DurabilityConfig {
            batch_window: window,
            auto_window: false,
            coalesce_fsync: true,
            device_sync: false,
            pipeline_depth: 1,
        }
    }

    /// File name → contents snapshot of one shard directory.
    type DirBytes = Vec<(String, Vec<u8>)>;

    fn file_bytes(dir: &Path) -> DirBytes {
        let mut entries: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| {
                let e = e.unwrap();
                (
                    e.file_name().to_string_lossy().into_owned(),
                    std::fs::read(e.path()).unwrap(),
                )
            })
            .collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        entries
    }

    /// The differential core: identical job streams through all three
    /// backends — and through the batched engine under every durability
    /// policy (legacy per-job, coalesced, coalesced + window, auto-tuned
    /// window, device barrier) — leave byte-identical files (images,
    /// metadata, logs) on every shard, for both disk organizations.
    /// Scheduling only reorders syncs, never bytes, and `window=0` +
    /// coalescing off *is* the historical engine, so every
    /// configuration must agree with the pool. The io-uring rows go
    /// through `spawn_writer`, so on kernels without io_uring they
    /// exercise the fallback substitution — which must agree too.
    #[test]
    fn identical_job_streams_leave_byte_identical_files() {
        let batched = WriterBackendKind::AsyncBatched;
        let configs: [(&str, WriterBackendKind, DurabilityConfig); 8] = [
            (
                "pool",
                WriterBackendKind::ThreadPool,
                DurabilityConfig::legacy(),
            ),
            ("batch_legacy", batched, DurabilityConfig::legacy()),
            ("batch_coalesced", batched, coalescing(Duration::ZERO)),
            (
                "batch_window",
                batched,
                coalescing(Duration::from_micros(300)),
            ),
            (
                "batch_auto",
                batched,
                DurabilityConfig {
                    auto_window: true,
                    ..coalescing(Duration::ZERO)
                },
            ),
            (
                "batch_device",
                batched,
                DurabilityConfig {
                    device_sync: true,
                    ..coalescing(Duration::ZERO)
                },
            ),
            (
                "uring_legacy",
                WriterBackendKind::IoUring,
                DurabilityConfig::legacy(),
            ),
            (
                "uring_coalesced",
                WriterBackendKind::IoUring,
                coalescing(Duration::ZERO),
            ),
        ];
        for disk_org in [DiskOrg::DoubleBackup, DiskOrg::Log] {
            for n_shards in [1usize, 3] {
                let root = tempfile::tempdir().unwrap();
                let dirs_for = |label: &str| -> Vec<std::path::PathBuf> {
                    (0..n_shards)
                        .map(|s| root.path().join(format!("{label}_{s}")))
                        .collect()
                };
                let mut baseline: Option<Vec<DirBytes>> = None;
                for (label, kind, sched) in configs {
                    let dirs = dirs_for(label);
                    let results = drive(kind, sched, &dirs, disk_org);
                    for r in &results {
                        assert!(r.is_ok(), "{disk_org:?} x{n_shards} [{label}]: {r:?}");
                    }
                    let files: Vec<DirBytes> = dirs.iter().map(|d| file_bytes(d)).collect();
                    match &baseline {
                        None => baseline = Some(files),
                        Some(pool) => {
                            for s in 0..n_shards {
                                assert_eq!(
                                    pool[s].len(),
                                    files[s].len(),
                                    "{disk_org:?} x{n_shards} [{label}] shard {s}: file sets"
                                );
                                for ((pn, pb), (bn, bb)) in pool[s].iter().zip(&files[s]) {
                                    assert_eq!(pn, bn, "{disk_org:?} [{label}] shard {s}: names");
                                    assert_eq!(
                                        pb, bb,
                                        "{disk_org:?} x{n_shards} [{label}] shard {s}: \
                                         {pn} bytes diverge"
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    /// The batched engine acks a multi-shard batch out of submission
    /// order: submit jobs for 3 shards in one batch and observe shard 2's
    /// completion arriving no later than shard 0's (newest-first reaping).
    #[test]
    fn batched_engine_acks_out_of_submission_order() {
        let root = tempfile::tempdir().unwrap();
        let n = 3usize;
        let mut ctxs = Vec::new();
        let mut done_rxs = Vec::new();
        for s in 0..n {
            let (ctx, rx) = make_ctx(
                &root.path().join(format!("s{s}")),
                DiskOrg::DoubleBackup,
                s as u32,
            );
            ctxs.push(ctx);
            done_rxs.push(rx);
        }
        let ctxs = Arc::new(ctxs);
        let (job_tx, job_rx) = crossbeam::channel::bounded::<PoolJob>(n);
        // Queue the whole batch *before* spawning the loop, so one round
        // provably coalesces all three jobs.
        let g = geometry();
        for (shard, _) in (0..n).map(|s| (s, ())) {
            let ids: Vec<u32> = (0..g.n_objects()).collect();
            let data = vec![shard as u8 + 1; ids.len() * g.object_size as usize];
            job_tx
                .send(PoolJob {
                    shard,
                    job: Job::Eager {
                        ids,
                        data,
                        seq: 0,
                        tick: 1,
                        target: 0,
                        full_image: true,
                    },
                    queued_at: Instant::now(),
                    order: 0,
                })
                .unwrap();
        }
        let (mut backend, _) = spawn_writer(
            WriterBackendKind::AsyncBatched,
            Arc::clone(&ctxs),
            1,
            job_rx,
            coalescing(Duration::ZERO),
        );
        // Completion within the batch is newest-first. Each job's
        // reported duration spans its own submission through its own
        // completion, so shard 0 — submitted first, completed last —
        // spans the entire batch (three fsync-bound completions), while
        // shard 2 — submitted last, completed first — spans roughly one.
        // FIFO reaping would invert the relation.
        let durations: Vec<f64> = done_rxs
            .iter()
            .map(|rx| rx.recv().unwrap().result.unwrap())
            .collect();
        assert!(
            durations[2] < durations[0],
            "newest-first reaping: shard 2's span ({}) must be shorter \
             than shard 0's ({})",
            durations[2],
            durations[0]
        );
        drop(job_tx);
        backend.shutdown();
    }

    /// The acceptance criterion of the durability scheduler: on a 4-shard
    /// batch with `sync_data = true`, the reported fsync count per
    /// full-batch round drops from one per shard *job* to one per
    /// distinct target *file*. The log organization makes the distinction
    /// observable — every job of a shard targets the same `checkpoint.log`
    /// — so a batch of two jobs per shard pays 8 fsyncs per-job but 4
    /// coalesced. The counters threaded through `Done` are asserted
    /// directly, and each shard's log must still reconstruct.
    #[test]
    fn coalescing_pays_one_fsync_per_distinct_file() {
        let g = geometry();
        let obj_size = g.object_size as usize;
        for (sched, expected_fsyncs) in [
            (DurabilityConfig::legacy(), 8u64),
            (coalescing(Duration::ZERO), 4u64),
        ] {
            let root = tempfile::tempdir().unwrap();
            let n = 4usize;
            let mut ctxs = Vec::new();
            let mut done_rxs = Vec::new();
            let mut dirs = Vec::new();
            for s in 0..n {
                let dir = root.path().join(format!("s{s}"));
                let (ctx, rx) = make_ctx(&dir, DiskOrg::Log, s as u32);
                ctxs.push(ctx);
                done_rxs.push(rx);
                dirs.push(dir);
            }
            let ctxs = Arc::new(ctxs);
            // Queue two segments per shard *before* spawning the loop, so
            // one round provably coalesces all eight jobs.
            let (job_tx, job_rx) = crossbeam::channel::bounded::<PoolJob>(2 * n);
            for round in 0u64..2 {
                for shard in 0..n {
                    let ids: Vec<u32> = (0..g.n_objects()).collect();
                    let data = vec![(round * 4 + shard as u64 + 1) as u8; ids.len() * obj_size];
                    job_tx
                        .send(PoolJob {
                            shard,
                            job: Job::Eager {
                                ids,
                                data,
                                seq: round,
                                tick: round * 10 + 1,
                                target: 0,
                                full_image: true,
                            },
                            queued_at: Instant::now(),
                            order: round,
                        })
                        .unwrap();
                }
            }
            let (mut backend, _) = spawn_writer(
                WriterBackendKind::AsyncBatched,
                Arc::clone(&ctxs),
                1,
                job_rx,
                sched,
            );
            // Drain round-robin: each shard's completion channel holds one
            // slot, so the writer blocks mid-batch until earlier Dones are
            // consumed.
            let mut fsyncs = 0u64;
            for _pass in 0..2 {
                for rx in &done_rxs {
                    let done = rx.recv().unwrap();
                    done.result.as_ref().unwrap();
                    assert_eq!(
                        done.stats.max_batch_jobs, 8,
                        "all eight jobs share one batch"
                    );
                    fsyncs += done.stats.data_fsyncs;
                }
            }
            drop(job_tx);
            backend.shutdown();
            assert_eq!(
                fsyncs,
                expected_fsyncs,
                "coalesce={}: one fsync per {} expected",
                sched.coalesce_fsync,
                if sched.coalesce_fsync {
                    "distinct file"
                } else {
                    "job"
                }
            );
            // Durability reached either way: every shard's log reconstructs
            // to its second segment.
            drop(ctxs);
            for (s, dir) in dirs.iter().enumerate() {
                let mut log = crate::log_store::LogStore::open(dir, g).unwrap();
                let (_, tick, _) = log.reconstruct().unwrap();
                assert_eq!(tick, 11, "shard {s}: newest segment consistent");
            }
        }
    }

    /// The adaptive batch window holds a shallow batch open for
    /// stragglers: jobs sent one by one still complete in a single batch
    /// (every `Done` reports full occupancy), because the loop waits up
    /// to the window while fewer jobs than shards are queued — and closes
    /// early the moment the batch fills, so a full batch never waits.
    #[test]
    fn adaptive_window_coalesces_straggler_jobs() {
        let root = tempfile::tempdir().unwrap();
        let n = 3usize;
        let g = geometry();
        let mut ctxs = Vec::new();
        let mut done_rxs = Vec::new();
        for s in 0..n {
            let (ctx, rx) = make_ctx(&root.path().join(format!("s{s}")), DiskOrg::Log, s as u32);
            ctxs.push(ctx);
            done_rxs.push(rx);
        }
        let ctxs = Arc::new(ctxs);
        let (job_tx, job_rx) = crossbeam::channel::bounded::<PoolJob>(n);
        // A generous window: the loop stops waiting as soon as the batch
        // holds one job per shard, so the test does not actually sleep
        // this long unless the machine stalls.
        let (mut backend, _) = spawn_writer(
            WriterBackendKind::AsyncBatched,
            Arc::clone(&ctxs),
            1,
            job_rx,
            coalescing(Duration::from_secs(2)),
        );
        for shard in 0..n {
            let ids: Vec<u32> = (0..g.n_objects()).collect();
            let data = vec![shard as u8 + 1; ids.len() * g.object_size as usize];
            job_tx
                .send(PoolJob {
                    shard,
                    job: Job::Eager {
                        ids,
                        data,
                        seq: 0,
                        tick: 1,
                        target: 0,
                        full_image: true,
                    },
                    queued_at: Instant::now(),
                    order: 0,
                })
                .unwrap();
        }
        for rx in &done_rxs {
            let done = rx.recv().unwrap();
            done.result.as_ref().unwrap();
            assert_eq!(
                done.stats.max_batch_jobs, 3,
                "stragglers must coalesce into one full batch"
            );
            assert!(done.stats.data_fsyncs <= 1);
        }
        drop(job_tx);
        backend.shutdown();
    }

    /// Two pipelined jobs of *one* shard, raced by two pool workers,
    /// must hit the store and ack in submission order: the shard's
    /// [`TurnGate`] serializes them even when the second worker wins the
    /// race to its channel pickup. The jobs are distinguishable by
    /// object count, and the log must hold their segments in seq order.
    #[test]
    fn pipelined_same_shard_jobs_ack_in_submission_order() {
        for _attempt in 0..20 {
            let root = tempfile::tempdir().unwrap();
            let g = geometry();
            let table = SharedTable::new(g);
            let shared = Arc::new(Shared::new(table));
            let store = create_store(root.path(), g, DiskOrg::Log).unwrap();
            // Depth-2 completion channel, as make_shard sizes it.
            let (done_tx, done_rx) = crossbeam::channel::bounded::<Done>(2);
            let ctx = ShardCtx {
                store: parking_lot::Mutex::new(store),
                shared,
                frontier: Arc::new(AtomicU64::new(0)),
                geometry: g,
                sync_data: true,
                done_tx,
                turn: TurnGate::new(),
                inject: None,
                retry: crate::inject::RetryPolicy::none(),
                replicas: None,
            };
            let ctxs = Arc::new(vec![ctx]);
            let (job_tx, job_rx) = crossbeam::channel::bounded::<PoolJob>(2);
            // Queue both jobs *before* spawning, so both workers grab one
            // immediately and genuinely race.
            let obj_size = g.object_size as usize;
            for (order, count) in [(0u64, g.n_objects()), (1, 2)] {
                let ids: Vec<u32> = (0..count).collect();
                let data = vec![order as u8 + 1; ids.len() * obj_size];
                job_tx
                    .send(PoolJob {
                        shard: 0,
                        job: Job::Eager {
                            ids,
                            data,
                            seq: order,
                            tick: order * 10 + 1,
                            target: 0,
                            full_image: order == 0,
                        },
                        queued_at: Instant::now(),
                        order,
                    })
                    .unwrap();
            }
            let (mut backend, _) = spawn_writer(
                WriterBackendKind::ThreadPool,
                Arc::clone(&ctxs),
                2,
                job_rx,
                DurabilityConfig::legacy(),
            );
            let first = done_rx.recv().unwrap();
            let second = done_rx.recv().unwrap();
            assert_eq!(first.objects, g.n_objects(), "order-0 job acks first");
            assert_eq!(second.objects, 2, "order-1 job acks second");
            first.result.unwrap();
            second.result.unwrap();
            drop(job_tx);
            backend.shutdown();
            drop(ctxs);
            let mut log = crate::log_store::LogStore::open(root.path(), g).unwrap();
            let segs = log.segments().unwrap();
            // Boot image + the two jobs, appended in submission order.
            let seqs: Vec<u64> = segs.iter().map(|s| s.seq).collect();
            assert_eq!(seqs, vec![0, 0, 1], "segments in submission order");
            let (_, tick, _) = log.reconstruct().unwrap();
            assert_eq!(tick, 11, "newest segment wins");
        }
    }

    /// The device barrier collapses a multi-file batch to one `syncfs`
    /// where the syscall is available, and falls back to per-file fsync
    /// where it is not — never to an error. Four shards' logs are four
    /// distinct files on one tempdir device.
    #[test]
    fn device_barrier_collapses_same_device_files_or_falls_back() {
        let g = geometry();
        let root = tempfile::tempdir().unwrap();
        let n = 4usize;
        let mut ctxs = Vec::new();
        let mut done_rxs = Vec::new();
        let mut dirs = Vec::new();
        for s in 0..n {
            let dir = root.path().join(format!("s{s}"));
            let (ctx, rx) = make_ctx(&dir, DiskOrg::Log, s as u32);
            ctxs.push(ctx);
            done_rxs.push(rx);
            dirs.push(dir);
        }
        let ctxs = Arc::new(ctxs);
        let (job_tx, job_rx) = crossbeam::channel::bounded::<PoolJob>(n);
        for shard in 0..n {
            let ids: Vec<u32> = (0..g.n_objects()).collect();
            let data = vec![shard as u8 + 1; ids.len() * g.object_size as usize];
            job_tx
                .send(PoolJob {
                    shard,
                    job: Job::Eager {
                        ids,
                        data,
                        seq: 0,
                        tick: 1,
                        target: 0,
                        full_image: true,
                    },
                    queued_at: Instant::now(),
                    order: 0,
                })
                .unwrap();
        }
        let sched = DurabilityConfig {
            device_sync: true,
            ..coalescing(Duration::ZERO)
        };
        let (mut backend, _) = spawn_writer(
            WriterBackendKind::AsyncBatched,
            Arc::clone(&ctxs),
            1,
            job_rx,
            sched,
        );
        let mut fsyncs = 0u64;
        let mut device_syncs = 0u64;
        for rx in &done_rxs {
            let done = rx.recv().unwrap();
            done.result.as_ref().unwrap();
            assert_eq!(
                done.stats.max_batch_jobs, 4,
                "all four jobs share one batch"
            );
            fsyncs += done.stats.data_fsyncs;
            device_syncs += done.stats.device_syncs;
        }
        drop(job_tx);
        backend.shutdown();
        match device_syncs {
            1 => assert_eq!(fsyncs, 0, "barrier replaces every per-file fsync"),
            0 => assert_eq!(fsyncs, 4, "fallback pays one fsync per distinct file"),
            other => panic!("at most one device barrier per batch, got {other}"),
        }
        // Durability reached either way: every shard's log reconstructs.
        drop(ctxs);
        for (s, dir) in dirs.iter().enumerate() {
            let mut log = crate::log_store::LogStore::open(dir, g).unwrap();
            let (_, tick, _) = log.reconstruct().unwrap();
            assert_eq!(tick, 1, "shard {s}: segment consistent");
        }
    }

    /// A crash between submission and completion (the mid-batch window)
    /// leaves the double-backup target invalidated but the *other* backup
    /// untouched — the fallback the recovery path depends on. Modeled by
    /// dropping the in-flight job without completing it.
    #[test]
    fn mid_batch_crash_window_preserves_the_other_backup() {
        let root = tempfile::tempdir().unwrap();
        let (ctx, _done_rx) = make_ctx(root.path(), DiskOrg::DoubleBackup, 7);
        let g = geometry();
        let ids: Vec<u32> = (0..g.n_objects()).collect();
        let data = vec![0xAB; ids.len() * g.object_size as usize];
        let mut store = ctx.store.lock();
        let mut buf = Vec::new();
        let inflight = submit_job(
            &ctx,
            &mut store,
            &mut buf,
            0,
            Job::Eager {
                ids,
                data,
                seq: 0,
                tick: 9,
                target: 1,
                full_image: true,
            },
            Instant::now(),
        );
        // "Crash": the job is submitted, never completed.
        drop(inflight);
        drop(store);
        drop(ctx);
        let set = crate::files::BackupSet::open(root.path(), g).unwrap();
        assert_eq!(
            set.newest_consistent(),
            Some((0, 0)),
            "target 1 must be invalidated, backup 0 (boot image) intact"
        );
    }

    /// Drive the deterministic job stream through the io_uring backend
    /// with a crash plan that latches the **dead flag** (not a crash) at
    /// the `hit`-th staged wave: every ring failure from that wave on is
    /// redone synchronously, and every batch after it takes the syscall
    /// data path. Returns per-shard file snapshots, each round's
    /// per-job `degraded` flags, and whether the plan fired (it cannot
    /// on kernels without io_uring, where `spawn_writer` substitutes the
    /// batched engine).
    fn drive_ring_death(
        dirs: &[std::path::PathBuf],
        disk_org: DiskOrg,
        hit: u64,
    ) -> (Vec<DirBytes>, Vec<Vec<bool>>, bool) {
        use crate::inject::Plan;
        let state = Arc::new(Inject::armed([Plan {
            site: Site::UringWaveStaged,
            hit,
            effect: Effect::RingDeath,
        }]));
        let n = dirs.len();
        let mut ctxs = Vec::new();
        let mut done_rxs = Vec::new();
        for (s, dir) in dirs.iter().enumerate() {
            let (mut ctx, rx) = make_ctx(dir, disk_org, s as u32);
            ctx.inject = Some(Arc::clone(&state));
            ctx.store.lock().attach_inject(Some(Arc::clone(&state)));
            ctxs.push(ctx);
            done_rxs.push(rx);
        }
        let ctxs = Arc::new(ctxs);
        let (job_tx, job_rx) = crossbeam::channel::bounded::<PoolJob>(n);
        let (mut backend, _effective) = spawn_writer(
            WriterBackendKind::IoUring,
            Arc::clone(&ctxs),
            2,
            job_rx,
            coalescing(Duration::ZERO),
        );
        let stream = job_stream(n);
        let mut degraded = Vec::new();
        for (round_idx, round) in stream.chunks(n).enumerate() {
            for (shard, job) in round {
                ctxs[*shard].shared.reset_for_checkpoint();
                ctxs[*shard].frontier.store(0, Ordering::Release);
                job_tx
                    .send(PoolJob {
                        shard: *shard,
                        job: job.clone(),
                        queued_at: Instant::now(),
                        order: round_idx as u64,
                    })
                    .unwrap();
            }
            let mut flags = Vec::new();
            for rx in &done_rxs {
                let done = rx.recv().unwrap();
                done.result.unwrap();
                flags.push(done.stats.degraded_jobs == 1);
            }
            degraded.push(flags);
        }
        drop(job_tx);
        backend.shutdown();
        let snapshots = dirs.iter().map(|d| file_bytes(d)).collect();
        (snapshots, degraded, state.fired())
    }

    /// The uring dead-flag redo path: a fuzz point inside the ring loop
    /// latches `ring_dead` at the `hit`-th staged wave — mid-stream, so
    /// earlier waves went through the ring and later waves take the
    /// synchronous redo — and the resulting files must be **byte
    /// identical** to the thread pool's, for both disk organizations.
    /// The redo is idempotent re-submission of the same wave, so dying
    /// at the first wave or in the middle of the stream must not change
    /// a single byte of images, metadata, or logs. The stream keeps
    /// going after the death — at least one whole round, so at least one
    /// whole batch — and those later batches run on the swapped-in
    /// syscall data path: byte-identical too, and every job of them
    /// flagged `degraded`.
    #[test]
    fn ring_death_mid_batch_redoes_byte_identically() {
        for disk_org in [DiskOrg::DoubleBackup, DiskOrg::Log] {
            // Baseline: the thread pool over the same stream.
            let pool_root = tempfile::tempdir().unwrap();
            let pool_dirs: Vec<_> = (0..2)
                .map(|s| pool_root.path().join(format!("s{s}")))
                .collect();
            for r in drive(
                WriterBackendKind::ThreadPool,
                DurabilityConfig::legacy(),
                &pool_dirs,
                disk_org,
            ) {
                r.unwrap();
            }
            let baseline: Vec<DirBytes> = pool_dirs.iter().map(|d| file_bytes(d)).collect();

            for hit in [1, 3] {
                let root = tempfile::tempdir().unwrap();
                let dirs: Vec<_> = (0..2).map(|s| root.path().join(format!("s{s}"))).collect();
                let (snapshots, degraded, fired) = drive_ring_death(&dirs, disk_org, hit);
                if crate::uring::ring_available() {
                    assert!(fired, "{disk_org:?} hit {hit}: dead-flag plan must fire");
                    // A round stages at most one wave per job, so the
                    // third wave is staged in round 2 at the earliest:
                    // round 1 ran on the live ring, and whichever wave
                    // died, the last round is a batch after the death.
                    let last = degraded.last().unwrap();
                    assert!(
                        last.iter().all(|&d| d),
                        "{disk_org:?} hit {hit}: post-death batch not flagged degraded: {last:?}"
                    );
                    if hit == 3 {
                        assert!(
                            degraded[0].iter().all(|&d| !d),
                            "{disk_org:?}: jobs before the death flagged degraded"
                        );
                    }
                } else {
                    assert!(degraded.iter().flatten().all(|&d| !d), "no ring, no death");
                }
                for (s, snap) in snapshots.iter().enumerate() {
                    assert_eq!(
                        snap, &baseline[s],
                        "{disk_org:?} hit {hit} shard {s}: dead-ring redo diverged from the pool"
                    );
                }
            }
        }
    }
    #[test]
    fn id_runs_table() {
        /// (label, ids, cap, expected runs as (start, end) index pairs)
        type Case = (
            &'static str,
            &'static [u32],
            usize,
            &'static [(usize, usize)],
        );
        let cases: [Case; 6] = [
            ("empty", &[], 4, &[]),
            ("single id", &[7], 4, &[(0, 1)]),
            ("all consecutive", &[3, 4, 5, 6], usize::MAX, &[(0, 4)]),
            ("every other id", &[0, 2, 4], 4, &[(0, 1), (1, 2), (2, 3)]),
            (
                "gap exactly at the cap",
                &[0, 1, 2, 4, 5],
                3,
                &[(0, 3), (3, 5)],
            ),
            (
                "run longer than the cap",
                &[0, 1, 2, 3, 4, 5, 6],
                3,
                &[(0, 3), (3, 6), (6, 7)],
            ),
        ];
        for (label, ids, max, want) in cases {
            let runs: Vec<_> = id_runs(ids, max).map(|r| (r.start, r.end)).collect();
            assert_eq!(runs, want, "{label}");
        }
    }

    /// 16 objects of 64 B: room for a job whose ids form three runs.
    fn run_geometry() -> StateGeometry {
        StateGeometry::small(64, 4)
    }

    /// Runs of three, two and one objects.
    const THREE_RUNS: [u32; 6] = [1, 2, 3, 6, 7, 10];

    /// The three-run job over `ctx` in either shape, with the images it
    /// writes: an eager job brings its own, a sweep job reads the live
    /// table.
    fn three_run_job(ctx: &ShardCtx, sweep: bool) -> (Job, Vec<u8>) {
        let obj_size = ctx.geometry.object_size as usize;
        let ids = THREE_RUNS.to_vec();
        let mut data = vec![0xAB; ids.len() * obj_size];
        let (seq, tick, target, full_image) = (1, 9, 1, false);
        let job = if sweep {
            for (&id, image) in ids.iter().zip(data.chunks_exact_mut(obj_size)) {
                ctx.shared.table.read_object_into(ObjectId(id), image);
            }
            let cursor = CursorKind::ByIndex;
            Job::Sweep {
                list: ids,
                cursor,
                seq,
                tick,
                target,
                full_image,
            }
        } else {
            let data = data.clone();
            Job::Eager {
                ids,
                data,
                seq,
                tick,
                target,
                full_image,
            }
        };
        (job, data)
    }

    /// One job through the syscall data path and the completion phase.
    fn run_job(ctx: &ShardCtx, job: Job) -> Done {
        let mut store = ctx.store.lock();
        let inflight = submit_job(ctx, &mut store, &mut Vec::new(), 0, job, Instant::now());
        complete_job(ctx, &mut store, inflight, 1)
    }

    /// The reference the run writes are held to: the per-object loop
    /// `submit_job` ran before it wrote runs — one `write_object` per id
    /// of [`THREE_RUNS`] under the shard's retry policy — then the shared
    /// completion phase.
    fn per_object_reference(ctx: &ShardCtx, data: &[u8]) -> Done {
        let obj_size = ctx.geometry.object_size as usize;
        let mut store = ctx.store.lock();
        let mut stats = WriterStats::default();
        let Store::Double(set) = &mut *store else {
            unreachable!("the run tests use the double backup")
        };
        let state = (|| {
            set.invalidate(1)?;
            for (&id, image) in THREE_RUNS.iter().zip(data.chunks_exact(obj_size)) {
                ctx.retry.run(&mut stats.retry, || {
                    set.write_object(1, ObjectId(id), image)
                })?;
            }
            Ok(PendingDurability::Double { target: 1, tick: 9 })
        })();
        let inflight = InFlight {
            stats,
            ..InFlight::new(
                0,
                Instant::now(),
                THREE_RUNS.len() as u32,
                None,
                state,
                None,
            )
        };
        complete_job(ctx, &mut store, inflight, 1)
    }

    /// A crash on the k-th object of a job, for every k, freezes the
    /// files exactly where the per-object loop froze them: the k-1
    /// objects before it and 40 bytes of the k-th, whichever run of the
    /// job the k-th object falls in.
    #[test]
    fn crash_mid_run_tears_where_the_per_object_loop_did() {
        use crate::inject::Plan;
        for sweep in [false, true] {
            for hit in 1..=THREE_RUNS.len() as u64 {
                let root = tempfile::tempdir().unwrap();
                let armed = |label: &str| {
                    let dir = root.path().join(label);
                    let (mut ctx, _rx) =
                        make_ctx_over(&dir, run_geometry(), DiskOrg::DoubleBackup, 3);
                    let state = Arc::new(Inject::armed([Plan {
                        site: Site::BackupWriteObject,
                        hit,
                        effect: Effect::Crash { torn: 40 },
                    }]));
                    ctx.store.lock().attach_inject(Some(Arc::clone(&state)));
                    ctx.inject = Some(state);
                    (ctx, dir)
                };
                let (runs, runs_dir) = armed("runs");
                let (reference, reference_dir) = armed("reference");
                let (job, data) = three_run_job(&runs, sweep);
                run_job(&runs, job).result.unwrap();
                per_object_reference(&reference, &data).result.unwrap();
                for ctx in [&runs, &reference] {
                    assert!(ctx.inject.as_ref().unwrap().is_down(), "hit {hit}: fired");
                }
                assert_eq!(
                    file_bytes(&runs_dir),
                    file_bytes(&reference_dir),
                    "sweep={sweep} hit {hit}"
                );
            }
        }
    }

    /// A short-write burst on the second run is repaired by re-issuing
    /// that run (the image ends byte-identical to the fault-free
    /// per-object loop's); with no retry budget the job fails and its
    /// target stays invalidated.
    #[test]
    fn short_write_mid_job_retries_the_run_or_fails_uncommitted() {
        use crate::inject::{Plan, RetryPolicy};
        for sweep in [false, true] {
            for budget in [3u32, 0] {
                let root = tempfile::tempdir().unwrap();
                let dir = |label: &str| root.path().join(label);
                let (mut runs, _rx) =
                    make_ctx_over(&dir("runs"), run_geometry(), DiskOrg::DoubleBackup, 3);
                let plan = Plan::parse("backup-write:2:short-write:2").unwrap();
                let fault = Arc::new(Inject::armed([plan]));
                runs.store.lock().attach_inject(Some(Arc::clone(&fault)));
                runs.retry = RetryPolicy {
                    max: budget,
                    ..RetryPolicy::default()
                };
                let (job, data) = three_run_job(&runs, sweep);
                let done = run_job(&runs, job);
                if budget == 0 {
                    assert!(done.result.is_err(), "sweep={sweep}: no budget, no job");
                    assert_eq!(
                        (done.stats.retry.retries, done.stats.retry.exhausted),
                        (0, 0)
                    );
                    drop(runs);
                    let set = crate::files::BackupSet::open(&dir("runs"), run_geometry()).unwrap();
                    assert_eq!(set.newest_consistent(), Some((0, 0)), "no metadata commit");
                    continue;
                }
                done.result.unwrap();
                assert_eq!(
                    (done.stats.retry.retries, done.stats.retry.exhausted),
                    (2, 0),
                    "sweep={sweep}"
                );
                // Three runs plus the two re-issues of the second.
                assert_eq!(fault.reach_count(Site::BackupWrite), 5);
                if sweep {
                    // Still published object by object, through the last.
                    assert_eq!(runs.frontier.load(Ordering::Acquire), 11);
                }
                let (reference, _rx) =
                    make_ctx_over(&dir("reference"), run_geometry(), DiskOrg::DoubleBackup, 3);
                per_object_reference(&reference, &data).result.unwrap();
                assert_eq!(file_bytes(&dir("runs")), file_bytes(&dir("reference")));
            }
        }
    }

    /// The window a round waits, as a pure function of the arrival
    /// estimate and the policy.
    #[test]
    fn batch_window_table() {
        let fixed = coalescing(Duration::from_micros(300));
        let auto = DurabilityConfig {
            auto_window: true,
            ..fixed
        };
        let us = Duration::from_micros;
        // (ewma gap, last batch full, full-batch size, policy) -> window
        let table = [
            // A fixed window passes through, whatever the estimator says.
            (None, false, 4, fixed, us(300)),
            (Some(1e-3), true, 4, fixed, us(300)),
            (None, false, 4, coalescing(Duration::ZERO), Duration::ZERO),
            // Auto: a full previous batch means the queue keeps up.
            (Some(100e-6), true, 4, auto, Duration::ZERO),
            // Auto: no inter-arrival estimate yet.
            (None, false, 4, auto, Duration::ZERO),
            // Auto, shallow batch: the gap scaled to the full batch...
            (Some(100e-6), false, 4, auto, us(400)),
            (Some(100e-6), false, 1, auto, us(100)),
            // ...capped.
            (Some(1e-3), false, 4, auto, MAX_AUTO_WINDOW),
            (Some(10.0), false, 8, auto, MAX_AUTO_WINDOW),
        ];
        for (ewma, last_full, full_batch, sched, want) in table {
            assert_eq!(
                batch_window(ewma, last_full, full_batch, &sched),
                want,
                "ewma {ewma:?}, last_full {last_full}, full_batch {full_batch}, \
                 auto {}",
                sched.auto_window
            );
        }
    }

    /// The ack order, as a pure function of the queued jobs' shards:
    /// FIFO within a shard, every shard's k-th job before any (k+1)-th,
    /// newest shard first within a wave.
    #[test]
    fn reap_order_table() {
        let table: [(&[usize], &[usize]); 7] = [
            (&[], &[]),
            (&[5], &[0]),
            // One job per shard: the historical newest-first reap.
            (&[0, 1, 2], &[2, 1, 0]),
            // One pipelined shard: plain FIFO.
            (&[3, 3, 3], &[0, 1, 2]),
            // Two jobs per shard, interleaved: wave 0 (newest shard
            // first) before wave 1.
            (&[0, 1, 0, 1], &[1, 0, 3, 2]),
            // "Newest" is the shard's *last* job: shard 0's job at index
            // 3 makes shard 0 the newest shard of both waves.
            (&[0, 1, 2, 0], &[0, 2, 1, 3]),
            // Queue already in wave order (how the ring path leaves it).
            (&[0, 1, 2, 1, 2, 2], &[2, 1, 0, 4, 3, 5]),
        ];
        for (shards, want) in table {
            let order = reap_order(shards);
            assert_eq!(order, want, "shards {shards:?}");
            // The properties, stated directly.
            for (pos, &i) in order.iter().enumerate() {
                for &j in &order[pos + 1..] {
                    let wave = |k: usize| shards[..k].iter().filter(|&&s| s == shards[k]).count();
                    assert!(wave(i) <= wave(j), "{shards:?}: wave order broken");
                    if shards[i] == shards[j] {
                        assert!(i < j, "{shards:?}: shard {} not FIFO", shards[i]);
                    }
                }
            }
        }
    }

    /// A failed coalesced fsync reaches every job sharing it with the OS
    /// errno intact — the triggering job included — and none of them
    /// commits metadata: two jobs of one shard naming the same backup
    /// image share one `fsync`, the `backup-sync` failpoint fails it with
    /// `EIO`, and the retry budget is zero so the error propagates.
    #[test]
    fn shared_sync_failure_keeps_its_errno_for_every_job() {
        use crate::inject::Plan;
        let root = tempfile::tempdir().unwrap();
        let (mut ctx, done_rx) = make_ctx(root.path(), DiskOrg::DoubleBackup, 3);
        let fault = Arc::new(Inject::armed([Plan::at(Site::BackupSync)]));
        ctx.inject = Some(Arc::clone(&fault));
        ctx.store.lock().attach_inject(Some(Arc::clone(&fault)));
        assert_eq!(ctx.retry.max, 0, "the error must propagate unretried");
        let g = geometry();
        let ctxs = Arc::new(vec![ctx]);
        // Queue both jobs *before* spawning, so one round coalesces them.
        let (job_tx, job_rx) = crossbeam::channel::bounded::<PoolJob>(2);
        for order in 0u64..2 {
            let ids: Vec<u32> = (0..g.n_objects()).collect();
            let data = vec![order as u8 + 1; ids.len() * g.object_size as usize];
            job_tx
                .send(PoolJob {
                    shard: 0,
                    job: Job::Eager {
                        ids,
                        data,
                        seq: order,
                        tick: order * 10 + 1,
                        target: 1,
                        full_image: true,
                    },
                    queued_at: Instant::now(),
                    order,
                })
                .unwrap();
        }
        let (mut backend, _) = spawn_writer(
            WriterBackendKind::AsyncBatched,
            Arc::clone(&ctxs),
            1,
            job_rx,
            coalescing(Duration::ZERO),
        );
        // Senders gone before the first assertion, so a failure unwinds
        // through the writer's joining drop instead of hanging in it.
        drop(job_tx);
        let mut fsyncs = 0;
        for job in 0..2 {
            let done = done_rx.recv().unwrap();
            assert_eq!(done.stats.max_batch_jobs, 2, "both jobs share one batch");
            fsyncs += done.stats.data_fsyncs;
            let err = done.result.expect_err("the shared fsync failed");
            assert_eq!(
                err.raw_os_error(),
                Some(5),
                "job {job}: EIO errno lost: {err:?}"
            );
        }
        assert_eq!(fsyncs, 1, "one fsync for the shared target");
        assert_eq!(fault.injected(), 1);
        backend.shutdown();
        drop(ctxs);
        let set = crate::files::BackupSet::open(root.path(), g).unwrap();
        assert_eq!(
            set.newest_consistent(),
            Some((0, 0)),
            "target 1 stays invalidated: neither job committed metadata"
        );
    }
}
