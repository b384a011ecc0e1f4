//! The writer: one flush-round loop executing the shards' checkpoint
//! flush jobs.
//!
//! The real engine's mutator side (`crate::engine::RealBackend`) and the
//! asynchronous writer meet at exactly one interface: tagged flush jobs
//! (`PoolJob`) go in through the bounded channel of the loop that owns
//! the shard, one `Done` per job comes back through the shard's
//! completion channel, and sweep progress is published through the
//! shard's frontier. Each loop owns the `ShardCtx`s (store, protocol
//! state, channels) of its shards and reads run-wide policy from the
//! run's `RealConfig`.
//!
//! Behind that interface run one or more loops (`run_rounds`), each
//! owning a fixed group of shards (shard `s` goes to loop `s mod N`,
//! `job_channels`), so a shard's jobs stay FIFO by construction. Every
//! round is *collect a batch* (`collect_batch`: drain the queue, hold a
//! shallow batch open for the adaptive window) → *issue its data writes*
//! (`submit_job`: through the stores, one `pwrite` per run of
//! consecutive objects or per log segment) → *schedule durability*
//! (`schedule_durability`: every data sync — one per job, or one per
//! distinct target file, or one `syncfs` barrier per device — before any
//! metadata commit) → *ack in reap order* (`ack_in_reap_order`: each
//! job's commit and its `Done`, newest shard first, FIFO within a
//! shard). Every write and every sync is a synchronous syscall.
//!
//! The two `WriterBackendKind`s differ only in loop count: `thread-pool`
//! is N loops (one shard means one loop: the classic dedicated writer
//! thread), `async-batched` one loop over every shard. `io-uring` is a
//! retired name that `spawn_writer` runs as `async-batched`, returning
//! that kind so every report surfaces the substitution.
//!
//! The round is shared, so identical job streams produce byte-identical
//! files under every configuration (pinned by the differential tests
//! below and in `tests/writer_equivalence.rs`): the durability ordering
//! — data sync *before* metadata commit — holds batch-globally in every
//! round. See DESIGN.md § "The writer".

use crate::config::RealConfig;
use crate::engine::{Done, Job, PoolJob, ShardCtx, Store};
use crate::files::SyncTarget;
use crate::inject::{Inject, Site};
use crate::log_store::serialize_segment;
use crate::report::WriterStats;
use crate::shared::{relock, Shared};
use mmoc_core::run::WriterBackend as WriterBackendKind;
use mmoc_core::{CursorKind, ObjectId};
use std::io;
use std::ops::Range;
use std::os::unix::io::RawFd;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::time::{Duration, Instant};

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

/// How many of `n_shards` shards loop `l` of `n_loops` owns.
fn loop_shards(n_shards: usize, n_loops: usize, l: usize) -> usize {
    (l..n_shards).step_by(n_loops).count()
}

/// A shard's route into the writer: the job sender of the loop owning
/// the shard, and the shard's slot in that loop, which its jobs carry.
pub(crate) type JobRoute = (SyncSender<PoolJob>, usize);

/// The writer's job channels for `n_loops` loops (at most `n_shards`):
/// per shard, the sender of the loop that owns it (shard `s` goes to loop
/// `s mod n_loops`) and the shard's slot in that loop, and per loop its
/// receiver, bounded by the deepest backlog its shards can queue (`depth`
/// each).
pub(crate) fn job_channels(
    n_shards: usize,
    n_loops: usize,
    depth: u32,
) -> (Vec<JobRoute>, Vec<Receiver<PoolJob>>) {
    let (txs, rxs): (Vec<_>, Vec<_>) = (0..n_loops)
        .map(|l| sync_channel(loop_shards(n_shards, n_loops, l) * depth as usize))
        .unzip();
    let senders = (0..n_shards)
        .map(|s| (txs[s % n_loops].clone(), s / n_loops))
        .collect();
    (senders, rxs)
}

/// Spawn the writer `config.writer_backend` selects: one loop per
/// receiver of [`job_channels`], each taking ownership of the shard
/// contexts (in shard order) that [`job_channels`] routes to it.
///
/// Returns the writer together with the kind that **actually** runs:
/// the retired `io-uring` always runs as `async-batched`, and callers
/// surface the substitution in their reports (`writer_fallback_from`),
/// so results never silently name a backend that did not run.
pub(crate) fn spawn_writer(
    config: &RealConfig,
    ctxs: Vec<ShardCtx>,
    job_rxs: Vec<Receiver<PoolJob>>,
) -> (Writer, WriterBackendKind) {
    let effective = match config.writer_backend {
        WriterBackendKind::IoUring => WriterBackendKind::AsyncBatched,
        kind => kind,
    };
    let n_loops = job_rxs.len();
    let mut owned: Vec<Vec<ShardCtx>> = (0..n_loops).map(|_| Vec::new()).collect();
    for (s, ctx) in ctxs.into_iter().enumerate() {
        owned[s % n_loops].push(ctx);
    }
    let loops = owned
        .into_iter()
        .zip(job_rxs)
        .map(|(mut ctxs, job_rx)| {
            let config = config.clone();
            std::thread::spawn(move || run_rounds(&mut ctxs, &job_rx, &config))
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
    /// The slot of the shard whose store this job targets.
    slot: usize,
    t0: Instant,
    objects: u32,
    recycled: Option<(Vec<u32>, Vec<u8>)>,
    state: io::Result<Pending>,
    /// Outcome of the data sync the durability scheduler issued for this
    /// job ahead of its completion phase (`Ok` when there was nothing to
    /// sync). Jobs sharing a coalesced `fsync` (or a whole-device
    /// barrier) share its outcome: if the call failed, none of them may
    /// commit metadata.
    synced: io::Result<()>,
    /// The checkpoint delta destined for the shard's peer mirrors, captured
    /// at submission when the run has a replica tier; published by the
    /// completion phase only after the durability point (publish-on-commit).
    replica: Option<ReplicaDelta>,
    /// The job's tally so far, counted where the work happens and closed
    /// by [`complete_job`]. A data `fsync` or `syncfs` device barrier is
    /// attributed to the one job that triggered it — riders on a
    /// coalesced call count 0, so summing over jobs counts actual calls —
    /// and the retries behind a scheduled sync are charged the same way.
    stats: WriterStats,
}

impl InFlight {
    /// A freshly submitted job: durability not yet scheduled. The job's
    /// clock starts at `queued_at`, its enqueue instant, so its reported
    /// duration spans the channel wait and any window hold it sat
    /// through — exactly the latency the window trades away.
    fn new(
        slot: usize,
        queued_at: Instant,
        objects: u32,
        recycled: Option<(Vec<u32>, Vec<u8>)>,
        state: io::Result<Pending>,
        replica: Option<ReplicaDelta>,
    ) -> InFlight {
        InFlight {
            slot,
            t0: queued_at,
            objects,
            recycled,
            state,
            synced: Ok(()),
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
    /// Open the delta of the checkpoint at `tick` when the run has a
    /// replica tier; its images are appended as the job's runs are written
    /// (room for all of them is reserved here).
    fn capture(config: &RealConfig, tick: u64, ids: &[u32], obj_size: usize) -> Option<Self> {
        config.replica_set.as_ref().map(|_| ReplicaDelta {
            tick,
            ids: ids.to_vec(),
            data: Vec::with_capacity(ids.len() * obj_size),
        })
    }
}

/// What remains between a submitted job and its durability point: the
/// data sync of `target` and the metadata commit of checkpoint `tick`
/// (see [`Store::sync`] and [`Store::commit`]).
struct Pending {
    target: usize,
    tick: u64,
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

/// Cap, in bytes, on one run write — and so the size of a loop's run
/// buffer, the grain a streamed sweep interleaves reads and writes at,
/// and the most a retry re-issues or a crash tears. Measured on the
/// 40 MB `naive-64k` flush: the gain saturates by 256 KiB (see ROADMAP
/// item 5).
const RUN_BYTES: usize = 256 << 10;

/// The copy-on-update sweep protocol, writer side: how a sweep job reads
/// its live objects and publishes its progress.
struct Sweep<'a> {
    shared: &'a Shared,
    frontier: &'a AtomicU64,
    cursor: CursorKind,
}

impl Sweep<'_> {
    /// Read one object under the copy-on-update protocol: lock, prefer
    /// the saved pre-update image, mark flushed.
    fn read_object(&self, o: u32, buf: &mut [u8]) {
        let shared = self.shared;
        let obj = ObjectId(o);
        let _guard = relock(&shared.locks[o as usize]);
        if shared.copied.get(o) {
            shared.read_arena_into(obj, buf);
        } else {
            shared.table.read_object_into(obj, buf);
        }
        shared.flushed.set(o);
    }

    /// Read the objects of `ids[run]` into `buf`, packed in id order,
    /// publishing progress *after* each is read and queued there: the
    /// frontier must under-approximate what is flushed, so a racing
    /// update copies once too often, never too rarely.
    fn read_run(&self, ids: &[u32], run: Range<usize>, obj_size: usize, buf: &mut Vec<u8>) {
        // Every byte is overwritten below: only growth is zero-filled.
        buf.resize(run.len() * obj_size, 0);
        for (p, image) in run.zip(buf.chunks_exact_mut(obj_size)) {
            let o = ids[p];
            self.read_object(o, image);
            let slots = match self.cursor {
                CursorKind::ByIndex => u64::from(o) + 1,
                CursorKind::ByPosition => p as u64 + 1,
            };
            self.frontier.store(slots, Ordering::Release);
        }
    }
}

/// A flush job's object images: an eager job's private copy, packed in
/// id order, or a sweep's live objects.
enum Images<'a> {
    Copied(Vec<u8>),
    Live(Sweep<'a>),
}

impl Images<'_> {
    /// The packed images of `ids[run]`: a slice of the copy, or the live
    /// objects read into `buf`.
    fn run<'b>(
        &'b self,
        ids: &[u32],
        run: Range<usize>,
        obj_size: usize,
        buf: &'b mut Vec<u8>,
    ) -> &'b [u8] {
        match self {
            Images::Copied(data) => &data[run.start * obj_size..run.end * obj_size],
            Images::Live(sweep) => {
                sweep.read_run(ids, run, obj_size, buf);
                buf
            }
        }
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

/// Submission phase: write one flush job's data against its shard's
/// store, durability deferred. The stores take every injection decision
/// and write only the bytes that land. `buf` is the loop's buffer: a
/// double-backup sweep's run (up to [`RUN_BYTES`]), or a log job's
/// encoded segment. For sweep jobs the frontier is published object by
/// object as each is read — frontier semantics are "read from live state
/// and queued", not "durable", so neither the buffered write nor the
/// deferred sync changes the copy-on-update protocol. A log segment's
/// whole write is retried: the `log-append` failpoint faults before any
/// byte lands, so a retry rewrites the same bytes at the same offset
/// (pinned by the retry-equivalence tests).
///
/// `queued_at` is the instant the mutator enqueued the job
/// ([`PoolJob::queued_at`]); it seeds the job's duration clock here so
/// every configuration reports durations spanning the queue wait and any
/// batch-window hold by construction.
fn submit_job(
    ctx: &mut ShardCtx,
    config: &RealConfig,
    buf: &mut Vec<u8>,
    job: PoolJob,
) -> InFlight {
    let obj_size = ctx.geometry.object_size as usize;
    let max_run = (RUN_BYTES / obj_size).max(1);
    let mut stats = WriterStats::default();
    let retry = config.retry_policy();
    let (ids, images, seq, tick, target, full_image) = match job.job {
        Job::Eager {
            ids,
            data,
            seq,
            tick,
            target,
            full_image,
        } => (ids, Images::Copied(data), seq, tick, target, full_image),
        Job::Sweep {
            list,
            cursor,
            seq,
            tick,
            target,
            full_image,
        } => {
            let sweep = Images::Live(Sweep {
                shared: &ctx.shared,
                frontier: &ctx.frontier,
                cursor,
            });
            (list, sweep, seq, tick, target, full_image)
        }
    };
    let objects = ids.len() as u32;
    let mut replica = ReplicaDelta::capture(config, tick, &ids, obj_size);
    let state = match &mut ctx.store {
        Store::Double(set) => (|| {
            set.invalidate(target)?;
            for run in id_runs(&ids, max_run) {
                // Sorted I/O: a run of consecutive ids is one slice of the
                // packed images and one sequential write; a sweep streams
                // at the grain of one run. Each run is retried
                // independently: a transient fault (even a short write)
                // leaves the target invalidated, so re-writing in place
                // is safe.
                let first = ObjectId(ids[run.start]);
                let bytes = images.run(&ids, run, obj_size, buf);
                if let Some(d) = replica.as_mut() {
                    d.data.extend_from_slice(bytes);
                }
                retry.run(&mut stats.retry, || set.write_run(target, first, bytes))?;
            }
            Ok(Pending { target, tick })
        })(),
        Store::Log(log) => {
            let mut image = Vec::new();
            let bytes = images.run(&ids, 0..ids.len(), obj_size, &mut image);
            if let Some(d) = replica.as_mut() {
                d.data.extend_from_slice(bytes);
            }
            serialize_segment(seq, tick, full_image, records(&ids, bytes, obj_size), buf);
            retry
                .run(&mut stats.retry, || log.write_segment(buf))
                .map(|_| Pending { target, tick })
        }
    };
    // All data writes issued, nothing synced or committed yet.
    crash_at(config.fault.as_deref(), Site::JobSubmitted);
    let recycled = match images {
        Images::Copied(data) => Some((ids, data)),
        Images::Live(_) => None,
    };
    InFlight {
        stats,
        ..InFlight::new(job.slot, job.queued_at, objects, recycled, state, replica)
    }
}

/// Completion phase: bring a submitted job whose data the durability
/// scheduler has synced (`inflight.synced`) to its durability point —
/// the metadata commit, which the double-backup correctness argument
/// requires to come *after* the data sync — publish it to the replica
/// tier, and assemble its [`Done`]. The job is only acked to the mutator
/// after this returns. `batch_jobs` is the occupancy of the batch this
/// job completed in; it closes the job's tally together with the job
/// count and the payload bytes.
fn complete_job(
    ctx: &mut ShardCtx,
    config: &RealConfig,
    inflight: InFlight,
    batch_jobs: u32,
) -> Done {
    let crash = config.fault.as_deref();
    let is_down = || crash.is_some_and(Inject::is_down);
    let InFlight {
        replica, mut stats, ..
    } = inflight;
    let result = inflight.state.and_then(|Pending { target, tick }| {
        crash_at(crash, Site::CompleteBeforeSync);
        inflight.synced?;
        // Data is durable (or frozen), metadata is not committed: the
        // seam the double-backup correctness argument names.
        crash_at(crash, Site::CompleteBeforeCommit);
        // Publish-on-commit, step 1: open the replica push transaction.
        // The shard's peer mirrors go incomplete *before* the durability
        // point, so a crash between here and the publish below leaves no
        // mirror claiming a commit the disk never made — recovery falls
        // back to the disk tier, which holds the previous checkpoint.
        let push_open = match (&config.replica_set, &replica) {
            (Some(set), Some(_)) if !is_down() => {
                set.invalidate(ctx.id as u32);
                crash_at(crash, Site::ReplicaPushPreCommit);
                true
            }
            _ => false,
        };
        // The commit rewrites the whole metadata record, so a retried
        // commit after a transient fault is idempotent.
        config
            .retry_policy()
            .run(&mut stats.retry, || ctx.store.commit(target, tick))?;
        // Step 2: the checkpoint is durable (or the simulated crash
        // froze the disk, re-checked here) — apply the delta to every
        // mirror and mark them complete at the checkpoint's tick.
        if push_open && !is_down() {
            if let (Some(set), Some(d)) = (&config.replica_set, &replica) {
                set.publish(
                    ctx.id as u32,
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

/// One loop's round state: the scratch space reused from round to
/// round, so the steady state allocates little per batch.
#[derive(Default)]
pub(crate) struct Round {
    /// The jobs collected for this round, in queue order.
    pub(crate) batch: Vec<PoolJob>,
    /// The completion queue: the batch's jobs once their data writes are
    /// issued, in queue order.
    queue: Vec<InFlight>,
    /// The batch's durability targets and their sync outcomes.
    points: Vec<SyncPoint>,
    /// Per queued job, the index of its sync point (`None`: nothing to
    /// sync).
    job_points: Vec<Option<usize>>,
    /// Shard slot of each queued job: the input of the reap order.
    shards: Vec<usize>,
    /// Ack scratch: the completion queue, taken from in reap order.
    reaped: Vec<Option<InFlight>>,
    /// The reusable run buffer.
    buf: Vec<u8>,
}

/// One durability target of a batch: a distinct file, or with
/// coalescing off one job's file.
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

/// One writer loop thread over the shards it owns (`ctxs`, indexed by
/// slot): a flush round per collected batch, until every job sender has
/// been dropped and the queue is empty.
fn run_rounds(ctxs: &mut [ShardCtx], job_rx: &Receiver<PoolJob>, config: &RealConfig) {
    let mut round = Round::default();
    // A batch is full when it holds everything the driver can possibly
    // have in flight on this loop's shards.
    let full_batch = ctxs.len() * config.pipeline_depth.max(1) as usize;
    let mut arrivals = Arrivals::default();
    while collect_batch(job_rx, config, full_batch, &mut arrivals, &mut round.batch) {
        run_round(ctxs, config, &mut round);
    }
}

/// The flush round over a collected batch (`round.batch`) of the shards
/// `ctxs` (indexed by slot): issue its data writes, moving the batch into
/// the completion queue, then schedule durability past the whole batch,
/// commit and ack in reap order.
pub(crate) fn run_round(ctxs: &mut [ShardCtx], config: &RealConfig, round: &mut Round) {
    let occupancy = round.batch.len() as u32;
    for job in round.batch.drain(..) {
        let inflight = submit_job(&mut ctxs[job.slot], config, &mut round.buf, job);
        round.queue.push(inflight);
    }
    schedule_durability(ctxs, config, round);
    ack_in_reap_order(ctxs, config, round, occupancy);
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
    config: &RealConfig,
) -> Duration {
    if !config.auto_window {
        return config.batch_window;
    }
    match ewma_gap_s {
        Some(gap) if !last_batch_full => {
            Duration::from_secs_f64((gap * full_batch as f64).min(MAX_AUTO_WINDOW.as_secs_f64()))
        }
        _ => Duration::ZERO,
    }
}

/// Round step 1: block for the first job, coalesce everything that is
/// already queued and wait out the adaptive window. Returns `false` once
/// every sender is gone and the queue is empty.
fn collect_batch(
    job_rx: &Receiver<PoolJob>,
    config: &RealConfig,
    full_batch: usize,
    arrivals: &mut Arrivals,
    batch: &mut Vec<PoolJob>,
) -> bool {
    let Ok(first) = job_rx.recv() else {
        return false;
    };
    batch.push(first);
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
        config,
    );
    if !window.is_zero() {
        // A window past `Instant`'s range has no deadline: wait until the
        // batch fills or the senders are gone.
        let deadline = Instant::now().checked_add(window);
        while batch.len() < full_batch {
            let next = match deadline {
                Some(deadline) => deadline
                    .checked_duration_since(Instant::now())
                    .and_then(|left| job_rx.recv_timeout(left).ok()),
                None => job_rx.recv().ok(),
            };
            // `None`: the window elapsed, or the senders are gone.
            let Some(job) = next else { break };
            batch.push(job);
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

/// Round step 3, the durability scheduler: bring every pending target's
/// *data* to stable storage before any metadata commit, so the
/// sync-before-commit invariant holds batch-globally. With coalescing on
/// there is one fsync per distinct file, jobs sharing a file sharing the
/// call (and its outcome); with it off, one fsync per job.
///
/// Device barriers strengthen the collapse one level: when the batch
/// holds ≥ 2 distinct files on one device and `syncfs` is available, a
/// single whole-device call replaces all of that device's per-file
/// fsyncs (it flushes a superset of their dirty pages, so the
/// sync-before-commit ordering is preserved a fortiori).
fn schedule_durability(ctxs: &[ShardCtx], config: &RealConfig, round: &mut Round) {
    let crash = config.fault.as_deref();
    let Round {
        queue,
        points,
        job_points,
        ..
    } = round;
    points.clear();
    job_points.clear();
    for (i, inflight) in queue.iter().enumerate() {
        // Nothing to sync when the submission failed or syncing is off.
        let pending = inflight.state.as_ref().ok().filter(|_| config.sync_data);
        let point = pending.map(|pending| {
            let (target, fd) = ctxs[inflight.slot].store.sync_point(pending.target);
            let shared = points
                .iter()
                .position(|p| config.coalesce_fsync && p.target == target);
            shared.unwrap_or_else(|| {
                points.push(SyncPoint {
                    target,
                    fd,
                    job: i,
                    outcome: None,
                });
                points.len() - 1
            })
        });
        job_points.push(point);
    }
    if config.coalesce_fsync && config.device_sync {
        for i in 0..points.len() {
            let dev = points[i].target.dev();
            let distinct = points.iter().filter(|p| p.target.dev() == dev).count();
            if distinct < 2 || points[i].outcome.is_some() {
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
            for p in points.iter_mut().filter(|p| p.target.dev() == dev) {
                p.outcome = Some(share_sync_result(&outcome));
            }
        }
    }
    fsync_points(ctxs, config, queue, points);
    for (inflight, point) in queue.iter_mut().zip(job_points.iter()) {
        if let Some(p) = *point {
            let outcome = points[p].outcome.as_ref().expect("every point synced");
            inflight.synced = share_sync_result(outcome);
        }
    }
    // The scheduler's seam: every data sync of the batch is done, no
    // metadata commit has happened yet.
    crash_at(crash, Site::SchedulerCommitSeam);
}

/// The durability scheduler's per-file syncs: `fsync` each point no
/// device barrier covered, once, through the store of the job that pays
/// for the call — the first job naming it is charged the call and the
/// retry attempts behind it, every rider pays nothing — recording the
/// shared outcomes in place.
fn fsync_points(
    ctxs: &[ShardCtx],
    config: &RealConfig,
    queue: &mut [InFlight],
    points: &mut [SyncPoint],
) {
    for p in points.iter_mut().filter(|p| p.outcome.is_none()) {
        let payer = &mut queue[p.job];
        payer.stats.data_fsyncs = 1;
        let Ok(Pending { target, .. }) = payer.state else {
            unreachable!("a sync point names a job with a pending target");
        };
        let store = &ctxs[payer.slot].store;
        let retry = config.retry_policy();
        p.outcome = Some(retry.run(&mut payer.stats.retry, || store.sync(target)));
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
fn ack_in_reap_order(
    ctxs: &mut [ShardCtx],
    config: &RealConfig,
    round: &mut Round,
    occupancy: u32,
) {
    round.shards.clear();
    round.shards.extend(round.queue.iter().map(|f| f.slot));
    round.reaped.clear();
    round.reaped.extend(round.queue.drain(..).map(Some));
    for i in reap_order(&round.shards) {
        let inflight = round.reaped[i].take().expect("each job reaped once");
        let ctx = &mut ctxs[inflight.slot];
        let done = complete_job(ctx, config, inflight, occupancy);
        let _ = ctx.done_tx.send(done);
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
    use crate::engine::create_store;
    use crate::shared::SharedTable;
    use mmoc_core::{CellUpdate, DiskOrg, StateGeometry};
    use std::path::Path;
    use std::sync::Arc;

    fn geometry() -> StateGeometry {
        StateGeometry::test_micro() // 4 objects of 64 B
    }

    /// The base every test's writer config starts from: the historical
    /// policy — the pool, no waiting, per-job durability, no retries, no
    /// injection, no replica tier. It sets every field the writer reads,
    /// so a CI leg's `MMOC_*` defaults never leak into these tests.
    fn legacy() -> RealConfig {
        // The writer never reads `dir`.
        let mut config = RealConfig::new("")
            .with_writer_backend(WriterBackendKind::ThreadPool)
            .with_batch_window(Duration::ZERO)
            .with_fsync_coalescing(false)
            .with_device_sync(false)
            .with_pipeline_depth(1)
            .with_retry(0, Duration::ZERO);
        config.sync_data = true;
        config.fault = None;
        config.replica_set = None;
        config
    }

    /// The coalescing scheduler with a fixed batch window.
    fn coalescing(window: Duration) -> RealConfig {
        legacy()
            .with_fsync_coalescing(true)
            .with_batch_window(window)
    }

    /// `config` on the single batched loop.
    fn batched(config: RealConfig) -> RealConfig {
        config.with_writer_backend(WriterBackendKind::AsyncBatched)
    }

    /// `config` with the window auto-tuned.
    fn auto_window(mut config: RealConfig) -> RealConfig {
        config.auto_window = true;
        config
    }

    /// Build one shard's context + store over `dir`, with a seeded live
    /// table so sweep jobs read non-trivial bytes.
    fn make_ctx(dir: &Path, disk_org: DiskOrg, seed: u32) -> (ShardCtx, Receiver<Done>) {
        make_ctx_over(dir, geometry(), disk_org, seed)
    }

    fn make_ctx_over(
        dir: &Path,
        g: StateGeometry,
        disk_org: DiskOrg,
        seed: u32,
    ) -> (ShardCtx, Receiver<Done>) {
        let table = SharedTable::new(g);
        for i in 0..g.rows {
            for c in 0..g.cols {
                table.write_cell(CellUpdate::new(i, c, seed.wrapping_mul(31) ^ (i * 8 + c)));
            }
        }
        let store = create_store(dir, g, disk_org).unwrap();
        let (done_tx, done_rx) = sync_channel::<Done>(1);
        let ctx = ShardCtx {
            id: 0,
            store,
            shared: Arc::new(Shared::new(table)),
            frontier: Arc::new(AtomicU64::new(0)),
            geometry: g,
            done_tx,
        };
        (ctx, done_rx)
    }

    /// `job` for the shard at `slot` of its loop, enqueued now.
    fn queued(slot: usize, job: Job) -> PoolJob {
        PoolJob {
            slot,
            job,
            queued_at: Instant::now(),
        }
    }

    /// Enqueue `job` now on one shard's sender of [`job_channels`],
    /// tagged with the shard's slot.
    fn send((tx, slot): &JobRoute, job: Job) {
        tx.send(queued(*slot, job)).unwrap();
    }

    /// A full-image eager job: checkpoint `seq` at tick `seq * 10 + 1`
    /// into `target`, every byte `fill`.
    fn eager(seq: u64, target: usize, fill: u8) -> Job {
        let g = geometry();
        let ids: Vec<u32> = (0..g.n_objects()).collect();
        let data = vec![fill; ids.len() * g.object_size as usize];
        Job::Eager {
            ids,
            data,
            seq,
            tick: seq * 10 + 1,
            target,
            full_image: true,
        }
    }

    /// The loop count a test writer runs `kind` with over `n_shards`: the
    /// pool's two loops (capped at one per shard), one otherwise.
    fn loops(kind: WriterBackendKind, n_shards: usize) -> usize {
        match kind {
            WriterBackendKind::ThreadPool => n_shards.min(2),
            _ => 1,
        }
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
        config: &RealConfig,
        dirs: &[std::path::PathBuf],
        disk_org: DiskOrg,
    ) -> Vec<io::Result<f64>> {
        let dones = drive_with(config, dirs, disk_org);
        dones.into_iter().map(|done| done.result).collect()
    }

    /// [`drive`] with `config.fault` also attached to every store,
    /// returning every job's `Done`, round by round.
    fn drive_with(
        config: &RealConfig,
        dirs: &[std::path::PathBuf],
        disk_org: DiskOrg,
    ) -> Vec<Done> {
        let n = dirs.len();
        let mut ctxs = Vec::new();
        let mut done_rxs = Vec::new();
        for (s, dir) in dirs.iter().enumerate() {
            let (mut ctx, rx) = make_ctx(dir, disk_org, s as u32);
            ctx.store.attach_inject(config.fault.clone());
            ctxs.push(ctx);
            done_rxs.push(rx);
        }
        // The mutator's handles on each shard's protocol state.
        let protocol: Vec<_> = ctxs
            .iter()
            .map(|ctx| (Arc::clone(&ctx.shared), Arc::clone(&ctx.frontier)))
            .collect();
        let (job_txs, job_rxs) = job_channels(n, loops(config.writer_backend, n), 1);
        let (mut backend, _effective) = spawn_writer(config, ctxs, job_rxs);
        let mut dones = Vec::new();
        let stream = job_stream(n);
        for round in stream.chunks(n) {
            for (shard, job) in round {
                // Reset per-checkpoint protocol state as the mutator would.
                let (shared, frontier) = &protocol[*shard];
                shared.reset_for_checkpoint();
                frontier.store(0, Ordering::Release);
                send(&job_txs[*shard], job.clone());
            }
            for rx in &done_rxs {
                dones.push(rx.recv().unwrap());
            }
        }
        drop(job_txs);
        backend.shutdown();
        dones
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

    /// The differential core: identical job streams through both
    /// backends — and through the batched engine under every durability
    /// policy (legacy per-job, coalesced, coalesced + window, auto-tuned
    /// window, device barrier) — leave byte-identical files (images,
    /// metadata, logs) on every shard, for both disk organizations.
    /// Scheduling only reorders syncs, never bytes, and `window=0` +
    /// coalescing off *is* the historical engine, so every
    /// configuration must agree with the pool.
    #[test]
    fn identical_job_streams_leave_byte_identical_files() {
        let configs: [(&str, RealConfig); 6] = [
            ("pool", legacy()),
            ("batch_legacy", batched(legacy())),
            ("batch_coalesced", batched(coalescing(Duration::ZERO))),
            (
                "batch_window",
                batched(coalescing(Duration::from_micros(300))),
            ),
            (
                "batch_auto",
                batched(auto_window(coalescing(Duration::ZERO))),
            ),
            (
                "batch_device",
                batched(coalescing(Duration::ZERO).with_device_sync(true)),
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
                for (label, config) in &configs {
                    let dirs = dirs_for(label);
                    let results = drive(config, &dirs, disk_org);
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

    /// Shard contexts over `root/s{s}` for `n` shards, with their
    /// completion receivers and directories.
    fn make_ctxs(
        root: &Path,
        n: usize,
        disk_org: DiskOrg,
    ) -> (Vec<ShardCtx>, Vec<Receiver<Done>>, Vec<std::path::PathBuf>) {
        let mut ctxs = Vec::new();
        let mut done_rxs = Vec::new();
        let mut dirs = Vec::new();
        for s in 0..n {
            let dir = root.join(format!("s{s}"));
            let (ctx, rx) = make_ctx(&dir, disk_org, s as u32);
            ctxs.push(ctx);
            done_rxs.push(rx);
            dirs.push(dir);
        }
        (ctxs, done_rxs, dirs)
    }

    /// The writer acks a multi-shard batch out of submission order: one
    /// round over jobs for 3 shards, queued in shard order, acks newest
    /// shard first — shard 2, then 1, then 0 — on a completion channel
    /// the three share; each ack names its shard by the fill byte of the
    /// buffer it hands back.
    #[test]
    fn batched_engine_acks_out_of_submission_order() {
        let root = tempfile::tempdir().unwrap();
        let (mut ctxs, _, _) = make_ctxs(root.path(), 3, DiskOrg::DoubleBackup);
        let (done_tx, done_rx) = sync_channel::<Done>(3);
        let mut round = Round::default();
        for (slot, ctx) in ctxs.iter_mut().enumerate() {
            ctx.done_tx = done_tx.clone();
            round.batch.push(queued(slot, eager(0, 0, slot as u8 + 1)));
        }
        run_round(&mut ctxs, &coalescing(Duration::ZERO), &mut round);
        let fills: Vec<u8> = done_rx
            .try_iter()
            .map(|done| {
                done.result.unwrap();
                let (_, data) = done.recycled.expect("an eager job's buffers come back");
                data[0]
            })
            .collect();
        assert_eq!(fills, [3, 2, 1], "newest shard first");
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
        for (config, expected_fsyncs) in [
            (batched(legacy()), 8u64),
            (batched(coalescing(Duration::ZERO)), 4u64),
        ] {
            let root = tempfile::tempdir().unwrap();
            let n = 4usize;
            let (ctxs, done_rxs, dirs) = make_ctxs(root.path(), n, DiskOrg::Log);
            // Queue two segments per shard *before* spawning the loop, so
            // one round provably coalesces all eight jobs.
            let (job_txs, job_rxs) = job_channels(n, 1, 2);
            for round in 0u64..2 {
                for (shard, chan) in job_txs.iter().enumerate() {
                    send(chan, eager(round, 0, (round * 4 + shard as u64 + 1) as u8));
                }
            }
            let (mut backend, _) = spawn_writer(&config, ctxs, job_rxs);
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
                    assert_eq!(
                        done.stats.bytes_written,
                        u64::from(done.objects) * u64::from(g.object_size),
                        "object payload only, not the segment framing"
                    );
                    fsyncs += done.stats.data_fsyncs;
                }
            }
            drop(job_txs);
            backend.shutdown();
            assert_eq!(
                fsyncs,
                expected_fsyncs,
                "coalesce={}: one fsync per {} expected",
                config.coalesce_fsync,
                if config.coalesce_fsync {
                    "distinct file"
                } else {
                    "job"
                }
            );
            // Durability reached either way: every shard's log reconstructs
            // to its second segment.
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
        let (ctxs, done_rxs, _) = make_ctxs(root.path(), n, DiskOrg::Log);
        let (job_txs, job_rxs) = job_channels(n, 1, 1);
        // A generous window: the loop stops waiting as soon as the batch
        // holds one job per shard, so the test does not actually sleep
        // this long unless the machine stalls.
        let config = batched(coalescing(Duration::from_secs(2)));
        let (mut backend, _) = spawn_writer(&config, ctxs, job_rxs);
        for (shard, chan) in job_txs.iter().enumerate() {
            send(chan, eager(0, 0, shard as u8 + 1));
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
        drop(job_txs);
        backend.shutdown();
    }

    /// Two pipelined jobs of *one* shard must hit the store and ack in
    /// submission order while another loop of the pool serves a second
    /// shard: a shard's jobs all go to the loop that owns it, whose
    /// channel is FIFO. The jobs are distinguishable by object count,
    /// and the log must hold their segments in seq order.
    #[test]
    fn pipelined_same_shard_jobs_ack_in_submission_order() {
        let root = tempfile::tempdir().unwrap();
        let g = geometry();
        let n = 2usize;
        let mut ctxs = Vec::new();
        let mut done_rxs = Vec::new();
        for s in 0..n {
            let (mut ctx, _) = make_ctx(&root.path().join(format!("s{s}")), DiskOrg::Log, 0);
            // Depth-2 completion channel, as make_shard sizes it.
            let (done_tx, done_rx) = sync_channel::<Done>(2);
            ctx.done_tx = done_tx;
            ctxs.push(ctx);
            done_rxs.push(done_rx);
        }
        let pool = legacy();
        let (job_txs, job_rxs) = job_channels(n, loops(pool.writer_backend, n), 2);
        // Queue every job *before* spawning, so both loops start at once.
        let obj_size = g.object_size as usize;
        for (seq, count) in [(0u64, g.n_objects()), (1, 2)] {
            let ids: Vec<u32> = (0..count).collect();
            let data = vec![seq as u8 + 1; ids.len() * obj_size];
            let job = Job::Eager {
                ids,
                data,
                seq,
                tick: seq * 10 + 1,
                target: 0,
                full_image: seq == 0,
            };
            send(&job_txs[0], job);
        }
        send(&job_txs[1], eager(0, 0, 9));
        let (mut backend, _) = spawn_writer(&pool, ctxs, job_rxs);
        let first = done_rxs[0].recv().unwrap();
        let second = done_rxs[0].recv().unwrap();
        assert_eq!(first.objects, g.n_objects(), "seq-0 job acks first");
        assert_eq!(second.objects, 2, "seq-1 job acks second");
        first.result.unwrap();
        second.result.unwrap();
        done_rxs[1].recv().unwrap().result.unwrap();
        drop(job_txs);
        backend.shutdown();
        let mut log = crate::log_store::LogStore::open(&root.path().join("s0"), g).unwrap();
        let segs = log.segments().unwrap();
        // Boot image + the two jobs, appended in submission order.
        let seqs: Vec<u64> = segs.iter().map(|s| s.seq).collect();
        assert_eq!(seqs, vec![0, 0, 1], "segments in submission order");
        let (_, tick, _) = log.reconstruct().unwrap();
        assert_eq!(tick, 11, "newest segment wins");
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
        let (ctxs, done_rxs, dirs) = make_ctxs(root.path(), n, DiskOrg::Log);
        let (job_txs, job_rxs) = job_channels(n, 1, 1);
        for (shard, chan) in job_txs.iter().enumerate() {
            send(chan, eager(0, 0, shard as u8 + 1));
        }
        let config = batched(coalescing(Duration::ZERO).with_device_sync(true));
        let (mut backend, _) = spawn_writer(&config, ctxs, job_rxs);
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
        drop(job_txs);
        backend.shutdown();
        match device_syncs {
            1 => assert_eq!(fsyncs, 0, "barrier replaces every per-file fsync"),
            0 => assert_eq!(fsyncs, 4, "fallback pays one fsync per distinct file"),
            other => panic!("at most one device barrier per batch, got {other}"),
        }
        // Durability reached either way: every shard's log reconstructs.
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
        let (mut ctx, _done_rx) = make_ctx(root.path(), DiskOrg::DoubleBackup, 7);
        let g = geometry();
        let ids: Vec<u32> = (0..g.n_objects()).collect();
        let data = vec![0xAB; ids.len() * g.object_size as usize];
        let job = Job::Eager {
            ids,
            data,
            seq: 0,
            tick: 9,
            target: 1,
            full_image: true,
        };
        let job = queued(0, job);
        let inflight = submit_job(&mut ctx, &legacy(), &mut Vec::new(), job);
        // "Crash": the job is submitted, never completed.
        drop(inflight);
        drop(ctx);
        let set = crate::files::BackupSet::open(root.path(), g).unwrap();
        assert_eq!(
            set.newest_consistent(),
            Some((0, 0)),
            "target 1 must be invalidated, backup 0 (boot image) intact"
        );
    }

    /// Both backends run one flush round and write every job through
    /// `submit_job` and the stores, so over one job stream the pool and
    /// the batched loop reach every submit- and complete-phase site
    /// equally and leave byte-identical files. The scheduler's commit
    /// seam is reached once per round, and rounds depend on loop count
    /// and timing, so it is held to the round count the acks report (a
    /// batch of k jobs acks each with occupancy k).
    #[test]
    fn both_backends_reach_the_stores_sites_equally() {
        use crate::inject::Phase;
        let sites = || {
            Site::all().filter(|s| s.phase() != Phase::Recovery && *s != Site::SchedulerCommitSeam)
        };
        let backends = [
            WriterBackendKind::AsyncBatched,
            WriterBackendKind::ThreadPool,
        ];
        for disk_org in [DiskOrg::DoubleBackup, DiskOrg::Log] {
            let root = tempfile::tempdir().unwrap();
            let mut runs = Vec::new();
            for &kind in &backends {
                let dirs: Vec<_> = (0..3)
                    .map(|s| root.path().join(format!("{}_{s}", kind.label())))
                    .collect();
                let state = Arc::new(Inject::tracking());
                let config = coalescing(Duration::ZERO)
                    .with_writer_backend(kind)
                    .with_inject(Arc::clone(&state));
                let mut rounds = 0.0;
                for done in drive_with(&config, &dirs, disk_org) {
                    done.result.unwrap();
                    rounds += 1.0 / f64::from(done.stats.max_batch_jobs);
                }
                assert_eq!(
                    state.reach_count(Site::SchedulerCommitSeam),
                    rounds.round() as u64,
                    "{disk_org:?} [{}]: one commit seam per round",
                    kind.label()
                );
                let reaches: Vec<_> = sites().map(|s| (s.name(), state.reach_count(s))).collect();
                let files: Vec<DirBytes> = dirs.iter().map(|d| file_bytes(d)).collect();
                runs.push((kind, reaches, files));
            }
            let (_, batched, batched_files) = &runs[0];
            for name in [
                "job-submitted",
                "complete-before-sync",
                "complete-before-commit",
            ] {
                assert!(
                    batched.contains(&(name, 12)),
                    "{disk_org:?}: {name} once per job: {batched:?}"
                );
            }
            let sync = match disk_org {
                DiskOrg::DoubleBackup => "backup-sync",
                DiskOrg::Log => "log-sync",
            };
            assert!(batched.contains(&(sync, 12)), "{disk_org:?}: {batched:?}");
            for (kind, reaches, files) in &runs[1..] {
                let label = kind.label();
                assert_eq!(batched, reaches, "{disk_org:?} [{label}]: site reaches");
                assert_eq!(
                    batched_files, files,
                    "{disk_org:?} [{label}]: files diverge"
                );
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

    /// One job through the writer's flush round; its `Done` arrives on
    /// `done_rx`.
    fn run_job(
        ctx: &mut ShardCtx,
        config: &RealConfig,
        done_rx: &Receiver<Done>,
        job: Job,
    ) -> Done {
        let mut round = Round::default();
        round.batch.push(queued(0, job));
        run_round(std::slice::from_mut(ctx), config, &mut round);
        done_rx.recv().unwrap()
    }

    /// The reference the run writes are held to: the per-object loop
    /// `submit_job` ran before it wrote runs — one `write_object` per id
    /// of [`THREE_RUNS`] under the run's retry policy — then the shared
    /// completion phase.
    fn per_object_reference(ctx: &mut ShardCtx, config: &RealConfig, data: &[u8]) -> Done {
        let obj_size = ctx.geometry.object_size as usize;
        let mut stats = WriterStats::default();
        let Store::Double(set) = &mut ctx.store else {
            unreachable!("the run tests use the double backup")
        };
        let state = (|| {
            set.invalidate(1)?;
            for (&id, image) in THREE_RUNS.iter().zip(data.chunks_exact(obj_size)) {
                config.retry_policy().run(&mut stats.retry, || {
                    set.write_object(1, ObjectId(id), image)
                })?;
            }
            Ok(Pending { target: 1, tick: 9 })
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
        complete_job(ctx, config, inflight, 1)
    }

    /// A crash on the k-th object of a job, for every k, freezes the
    /// files exactly where the per-object loop froze them: the k-1
    /// objects before it and 40 bytes of the k-th, whichever run of the
    /// job the k-th object falls in.
    #[test]
    fn crash_mid_run_tears_where_the_per_object_loop_did() {
        use crate::inject::{Effect, Plan};
        for sweep in [false, true] {
            for hit in 1..=THREE_RUNS.len() as u64 {
                let root = tempfile::tempdir().unwrap();
                let armed = |label: &str| {
                    let dir = root.path().join(label);
                    let (mut ctx, rx) =
                        make_ctx_over(&dir, run_geometry(), DiskOrg::DoubleBackup, 3);
                    let state = Arc::new(Inject::armed([Plan {
                        site: Site::BackupWriteObject,
                        hit,
                        effect: Effect::Crash { torn: 40 },
                    }]));
                    ctx.store.attach_inject(Some(Arc::clone(&state)));
                    (ctx, rx, dir, legacy().with_inject(state))
                };
                let (mut runs, runs_rx, runs_dir, runs_config) = armed("runs");
                let (mut reference, _, reference_dir, reference_config) = armed("reference");
                let (job, data) = three_run_job(&runs, sweep);
                run_job(&mut runs, &runs_config, &runs_rx, job)
                    .result
                    .unwrap();
                per_object_reference(&mut reference, &reference_config, &data)
                    .result
                    .unwrap();
                for config in [&runs_config, &reference_config] {
                    assert!(config.fault.as_ref().unwrap().is_down(), "hit {hit}: fired");
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
        use crate::inject::Plan;
        for sweep in [false, true] {
            for budget in [3u32, 0] {
                let root = tempfile::tempdir().unwrap();
                let dir = |label: &str| root.path().join(label);
                let (mut runs, runs_rx) =
                    make_ctx_over(&dir("runs"), run_geometry(), DiskOrg::DoubleBackup, 3);
                let plan = Plan::parse("backup-write:2:short-write:2").unwrap();
                let fault = Arc::new(Inject::armed([plan]));
                runs.store.attach_inject(Some(Arc::clone(&fault)));
                let config = legacy().with_retry(budget, Duration::ZERO);
                let (job, data) = three_run_job(&runs, sweep);
                let done = run_job(&mut runs, &config, &runs_rx, job);
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
                let (mut reference, _rx) =
                    make_ctx_over(&dir("reference"), run_geometry(), DiskOrg::DoubleBackup, 3);
                per_object_reference(&mut reference, &legacy(), &data)
                    .result
                    .unwrap();
                assert_eq!(file_bytes(&dir("runs")), file_bytes(&dir("reference")));
            }
        }
    }

    /// The window a round waits, as a pure function of the arrival
    /// estimate and the policy.
    #[test]
    fn batch_window_table() {
        let fixed = &coalescing(Duration::from_micros(300));
        let auto = &auto_window(fixed.clone());
        let zero = &coalescing(Duration::ZERO);
        let us = Duration::from_micros;
        // (ewma gap, last batch full, full-batch size, policy) -> window
        let table = [
            // A fixed window passes through, whatever the estimator says.
            (None, false, 4, fixed, us(300)),
            (Some(1e-3), true, 4, fixed, us(300)),
            (None, false, 4, zero, Duration::ZERO),
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
        for (ewma, last_full, full_batch, config, want) in table {
            assert_eq!(
                batch_window(ewma, last_full, full_batch, config),
                want,
                "ewma {ewma:?}, last_full {last_full}, full_batch {full_batch}, \
                 auto {}",
                config.auto_window
            );
        }
    }

    /// A window past `Instant`'s range (`with_batch_window(Duration::MAX)`)
    /// has no deadline: the batch closes as soon as it is full, and once
    /// the senders are gone the partial batch comes back, then `false`.
    #[test]
    fn an_unbounded_window_closes_on_full_or_on_disconnect() {
        let config = coalescing(Duration::MAX);
        let (tx, rx) = sync_channel(4);
        let (mut arrivals, mut batch) = (Arrivals::default(), Vec::new());
        tx.send(queued(0, eager(0, 1, 1))).unwrap();
        // The second job may arrive while the window waits. The sender
        // stays alive throughout, so only a full batch can end the wait.
        let feeder = std::thread::spawn(move || {
            tx.send(queued(0, eager(1, 0, 2))).unwrap();
            tx
        });
        assert!(collect_batch(&rx, &config, 2, &mut arrivals, &mut batch));
        assert_eq!(batch.len(), 2, "the batch closes full");
        let tx = feeder.join().unwrap();
        batch.clear();
        tx.send(queued(0, eager(2, 1, 3))).unwrap();
        drop(tx);
        assert!(collect_batch(&rx, &config, 2, &mut arrivals, &mut batch));
        assert_eq!(
            batch.len(),
            1,
            "the partial batch, once the senders are gone"
        );
        batch.clear();
        assert!(!collect_batch(&rx, &config, 2, &mut arrivals, &mut batch));
        assert!(batch.is_empty());
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
            // Queue already in wave order.
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
        ctx.store.attach_inject(Some(Arc::clone(&fault)));
        let config = batched(coalescing(Duration::ZERO)).with_inject(Arc::clone(&fault));
        assert_eq!(config.retry_max, 0, "the error must propagate unretried");
        let g = geometry();
        // Queue both jobs *before* spawning, so one round coalesces them.
        let (job_txs, job_rxs) = job_channels(1, 1, 2);
        for seq in 0u64..2 {
            send(&job_txs[0], eager(seq, 1, seq as u8 + 1));
        }
        let (mut backend, _) = spawn_writer(&config, vec![ctx], job_rxs);
        // Senders gone before the first assertion, so a failure unwinds
        // through the writer's joining drop instead of hanging in it.
        drop(job_txs);
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
        let set = crate::files::BackupSet::open(root.path(), g).unwrap();
        assert_eq!(
            set.newest_consistent(),
            Some((0, 0)),
            "target 1 stays invalidated: neither job committed metadata"
        );
    }
}
