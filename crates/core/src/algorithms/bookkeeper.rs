//! The bookkeeping state machine shared by all six algorithms.
//!
//! [`Bookkeeper`] tracks dirty bits, flush sets and copied markers, and
//! answers the two questions both engines ask:
//!
//! 1. *A checkpoint just started — what must be copied and flushed?*
//!    ([`Bookkeeper::begin_checkpoint`] → [`CheckpointPlan`])
//! 2. *An object was just updated — what work did the algorithm incur?*
//!    ([`Bookkeeper::on_update`] → [`UpdateOps`])
//!
//! The bookkeeper is deliberately time-free: the cost-model simulator maps
//! [`UpdateOps`] to virtual nanoseconds (`Obit`, `Olock`, `ΔTsync(1)`) and
//! the real engine maps them to actual locks and `memcpy`s.
//!
//! ## Correctness argument (per algorithm)
//!
//! All six algorithms must produce, at checkpoint completion, a disk image
//! equal to the state at checkpoint *start* (tick-consistency):
//!
//! * **Eager algorithms** copy their write set synchronously at the start
//!   tick boundary; the writer reads only that private snapshot.
//! * **Sweep algorithms** write live values, except that the first update
//!   to a not-yet-flushed member of the flush set saves the pre-update
//!   value, which the writer then uses. Updates to already-flushed objects
//!   only re-mark dirty bits for later checkpoints.
//!
//! Dirty bits are cleared at checkpoint start and re-marked by concurrent
//! updates, which is exactly the set of objects whose live value can
//! diverge from the image being written. The `recovery_roundtrip`
//! property tests in `tests/` exercise this invariant with a value-level
//! shadow disk.

use std::collections::VecDeque;

use crate::algorithms::{Algorithm, AlgorithmSpec, DiskOrg};
use crate::bitmap::BitVec;
use crate::geometry::ObjectId;
use crate::plan::{CheckpointPlan, CursorKind, FlushJob, SyncCopy};

/// Work incurred by one update, to be priced by the engine.
///
/// In the paper's cost model (§4.2) this prices to
/// `bit_ops * Obit + lock * Olock + copy * ΔTsync(1)` where
/// `ΔTsync(1) = Omem + Sobj / Bmem`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UpdateOps {
    /// Dirty/flushed bit tests and sets (at most 1 per update in the
    /// paper's model).
    pub bit_ops: u8,
    /// Whether the update had to lock out the asynchronous writer.
    pub lock: bool,
    /// Whether the update copied the object's pre-update value.
    pub copy: bool,
}

/// The asynchronous writer's progress, measured in flushed *slots*.
///
/// A slot is one step of the writer's sweep: an object index for
/// [`CursorKind::ByIndex`] jobs, a position in the sorted dirty list for
/// [`CursorKind::ByPosition`] jobs. Engines compute the frontier from
/// elapsed time (simulator) or publish it from the writer thread (real
/// engine).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlushCursor {
    /// Number of fully flushed slots.
    pub frontier: u64,
}

impl FlushCursor {
    /// A cursor at the beginning of the sweep (nothing flushed).
    pub const START: FlushCursor = FlushCursor { frontier: 0 };

    /// Convenience constructor.
    pub fn at(frontier: u64) -> Self {
        FlushCursor { frontier }
    }
}

/// What kind of sweep the in-flight checkpoint performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SweepKind {
    /// No copy-on-update coordination (eager snapshot or nothing to write).
    NoSweep,
    /// All objects, in index order (Dribble, and full flushes).
    AllByIndex,
    /// Dirty objects; the writer sweeps the whole file in index order,
    /// skipping clean objects (double-backup sorted writes).
    DirtyByIndex,
    /// Dirty objects; the writer walks the sorted dirty list (log writes).
    DirtyByPosition,
}

/// Bookkeeping state machine for one algorithm over one state table.
#[derive(Debug)]
pub struct Bookkeeper {
    spec: AlgorithmSpec,
    n_objects: u32,
    /// Per-backup dirty bits (double-backup dirty algorithms: ACDO, COU).
    dirty_double: Option<crate::dirty::DoubleDirty>,
    /// Single dirty bitmap (log dirty algorithms: PR, COUPR).
    dirty_log: Option<BitVec>,
    /// Copied-or-flushed marker for the in-flight sweep.
    handled: BitVec,
    /// Membership snapshot for dirty sweeps (which objects the in-flight
    /// checkpoint writes).
    flush_set: BitVec,
    /// Sorted object ids for `DirtyByPosition` sweeps.
    flush_list: Vec<u32>,
    /// Backup the in-flight (or next) checkpoint targets.
    target: usize,
    /// Completed checkpoint count; the sequence number of the next
    /// checkpoint to *start* is `seq + in_flight.len()`.
    seq: u64,
    /// Checkpoints begun but not yet finished (each by the sweep it runs),
    /// oldest first. More than
    /// one entry only under checkpoint pipelining, which
    /// [`Bookkeeper::can_pipeline_next`] restricts to log-organized
    /// no-sweep checkpoints; sweeps and double-backup checkpoints are
    /// pipeline barriers.
    in_flight: VecDeque<SweepKind>,
}

impl Bookkeeper {
    /// Create a bookkeeper for `n_objects` atomic objects.
    ///
    /// Both on-disk backups are assumed to hold the *initial* state (the
    /// engines pre-load them), so all dirty bits start clear.
    pub fn new(spec: AlgorithmSpec, n_objects: u32) -> Self {
        let dirty_double = (spec.tracks_dirty && spec.disk_org == DiskOrg::DoubleBackup)
            .then(|| crate::dirty::DoubleDirty::new(n_objects));
        let dirty_log =
            (spec.tracks_dirty && spec.disk_org == DiskOrg::Log).then(|| BitVec::new(n_objects));
        Bookkeeper {
            spec,
            n_objects,
            dirty_double,
            dirty_log,
            handled: BitVec::new(n_objects),
            flush_set: BitVec::new(n_objects),
            flush_list: Vec::new(),
            target: 0,
            seq: 0,
            in_flight: VecDeque::new(),
        }
    }

    /// The algorithm's specification.
    pub fn spec(&self) -> &AlgorithmSpec {
        &self.spec
    }

    /// Number of atomic objects tracked.
    pub fn n_objects(&self) -> u32 {
        self.n_objects
    }

    /// Completed checkpoint count (the sequence number of the next
    /// checkpoint to start when nothing is in flight).
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Backup index (0 or 1) the in-flight or next checkpoint targets.
    /// Only meaningful for double-backup organizations.
    pub fn target_backup(&self) -> usize {
        self.target
    }

    /// Is a checkpoint currently being written?
    pub fn is_in_flight(&self) -> bool {
        !self.in_flight.is_empty()
    }

    /// Checkpoints begun but not yet finished.
    pub fn in_flight_count(&self) -> usize {
        self.in_flight.len()
    }

    /// Whether another checkpoint may safely begin while the current
    /// in-flight queue is non-empty.
    ///
    /// Pipelining is sound only when neither the queued checkpoints nor
    /// the next one coordinate with concurrent updates through shared
    /// sweep state: log-organized *eager* (no-sweep) checkpoints carry a
    /// private copy of their write set, and successive log segments
    /// coalesce under one sync. Everything else is a barrier:
    ///
    /// * double-backup checkpoints alternate targets at finish, so an
    ///   overlapping write could tear the fallback image;
    /// * sweeps share `handled`/`flush_set`/`flush_list` and the writer
    ///   frontier, which exist once per bookkeeper.
    pub fn can_pipeline_next(&self) -> bool {
        self.spec.disk_org == DiskOrg::Log
            && self.in_flight.iter().all(|&s| s == SweepKind::NoSweep)
            && !self.next_plan_sweeps()
    }

    /// Would [`Bookkeeper::begin_checkpoint`], called now, produce a
    /// sweep? Mirrors the plan construction below without mutating.
    fn next_plan_sweeps(&self) -> bool {
        let next_seq = self.seq + self.in_flight.len() as u64;
        let full_flush = self
            .spec
            .full_flush_period
            .is_some_and(|c| (next_seq + 1).is_multiple_of(u64::from(c)));
        match (self.spec.algorithm, full_flush) {
            (Algorithm::NaiveSnapshot | Algorithm::AtomicCopyDirtyObjects, _)
            | (Algorithm::PartialRedo, false) => false,
            (Algorithm::DribbleAndCopyOnUpdate, _)
            | (Algorithm::PartialRedo | Algorithm::CopyOnUpdatePartialRedo, true) => true,
            (Algorithm::CopyOnUpdate, _) => self
                .dirty_double
                .as_ref()
                .is_some_and(|d| d.count_dirty(self.target) > 0),
            (Algorithm::CopyOnUpdatePartialRedo, false) => {
                self.dirty_log.as_ref().is_some_and(|d| d.count_ones() > 0)
            }
        }
    }

    /// Number of objects currently dirty with respect to the given backup
    /// (double-backup algorithms) or since the last checkpoint (log
    /// algorithms). Returns 0 for algorithms without dirty tracking.
    pub fn dirty_count(&self, backup: usize) -> u32 {
        if let Some(d) = &self.dirty_double {
            d.count_dirty(backup)
        } else if let Some(d) = &self.dirty_log {
            d.count_ones()
        } else {
            0
        }
    }

    /// Start a checkpoint at a tick boundary. Panics if one is in flight
    /// and overlapping it would be unsound (see
    /// [`Bookkeeper::can_pipeline_next`]); the driver enforces the
    /// configured pipeline depth on top of this safety gate.
    pub fn begin_checkpoint(&mut self) -> CheckpointPlan {
        assert!(
            self.in_flight.is_empty() || self.can_pipeline_next(),
            "begin_checkpoint while a checkpoint is in flight"
        );
        let seq = self.seq + self.in_flight.len() as u64;
        let full_flush = self
            .spec
            .full_flush_period
            .is_some_and(|c| (seq + 1).is_multiple_of(u64::from(c)));

        let (sync_copy, flush, sweep) = match (self.spec.algorithm, full_flush) {
            (Algorithm::NaiveSnapshot, _) => {
                let sync = SyncCopy {
                    objects: self.n_objects,
                    runs: 1,
                };
                let flush = FlushJob::Snapshot {
                    objects: self.n_objects,
                    org: DiskOrg::DoubleBackup,
                };
                self.flush_set.set_all();
                (Some(sync), flush, SweepKind::NoSweep)
            }
            (Algorithm::AtomicCopyDirtyObjects, _) => {
                let d = self.dirty_double.as_mut().expect("ACDO tracks dirty");
                let snapshot = d.begin_checkpoint(self.target);
                let objects = snapshot.count_ones();
                let runs = snapshot.count_runs();
                self.flush_set = snapshot;
                let flush = if objects == 0 {
                    FlushJob::None
                } else {
                    FlushJob::Snapshot {
                        objects,
                        org: DiskOrg::DoubleBackup,
                    }
                };
                let sync = (objects > 0).then_some(SyncCopy { objects, runs });
                (sync, flush, SweepKind::NoSweep)
            }
            (Algorithm::PartialRedo, false) => {
                let d = self.dirty_log.as_mut().expect("PR tracks dirty");
                let objects = d.count_ones();
                let runs = d.count_runs();
                let snapshot = d.clone();
                d.clear_all();
                self.flush_set = snapshot;
                let flush = if objects == 0 {
                    FlushJob::None
                } else {
                    FlushJob::Snapshot {
                        objects,
                        org: DiskOrg::Log,
                    }
                };
                let sync = (objects > 0).then_some(SyncCopy { objects, runs });
                (sync, flush, SweepKind::NoSweep)
            }
            (Algorithm::DribbleAndCopyOnUpdate, _)
            | (Algorithm::PartialRedo | Algorithm::CopyOnUpdatePartialRedo, true) => {
                // A Dribble-style sweep of all objects. The partial-redo
                // algorithms run this as their periodic full flush.
                self.handled.clear_all();
                self.flush_set.set_all();
                if let Some(d) = self.dirty_log.as_mut() {
                    d.clear_all();
                }
                let flush = FlushJob::Sweep {
                    objects: self.n_objects,
                    org: DiskOrg::Log,
                    cursor: CursorKind::ByIndex,
                };
                (None, flush, SweepKind::AllByIndex)
            }
            (Algorithm::CopyOnUpdate, _) => {
                let d = self.dirty_double.as_mut().expect("COU tracks dirty");
                self.flush_set = d.begin_checkpoint(self.target);
                self.handled.clear_all();
                let objects = self.flush_set.count_ones();
                let flush = if objects == 0 {
                    FlushJob::None
                } else {
                    FlushJob::Sweep {
                        objects,
                        org: DiskOrg::DoubleBackup,
                        cursor: CursorKind::ByIndex,
                    }
                };
                let sweep = if objects == 0 {
                    SweepKind::NoSweep
                } else {
                    SweepKind::DirtyByIndex
                };
                (None, flush, sweep)
            }
            (Algorithm::CopyOnUpdatePartialRedo, false) => {
                let d = self.dirty_log.as_mut().expect("COUPR tracks dirty");
                self.flush_set = d.clone();
                d.clear_all();
                self.handled.clear_all();
                self.flush_list.clear();
                self.flush_list.extend(self.flush_set.iter_ones());
                let objects = self.flush_list.len() as u32;
                let flush = if objects == 0 {
                    FlushJob::None
                } else {
                    FlushJob::Sweep {
                        objects,
                        org: DiskOrg::Log,
                        cursor: CursorKind::ByPosition,
                    }
                };
                let sweep = if objects == 0 {
                    SweepKind::NoSweep
                } else {
                    SweepKind::DirtyByPosition
                };
                (None, flush, sweep)
            }
        };

        self.in_flight.push_back(sweep);
        CheckpointPlan {
            seq,
            full_flush,
            sync_copy,
            flush,
        }
    }

    /// Record that the *oldest* in-flight flush completed; completions
    /// drain in begin order.
    pub fn finish_checkpoint(&mut self) {
        assert!(
            self.in_flight.pop_front().is_some(),
            "finish_checkpoint without a checkpoint in flight"
        );
        if self.spec.disk_org == DiskOrg::DoubleBackup {
            self.target ^= 1;
        }
        self.seq += 1;
    }

    /// Handle one object update.
    ///
    /// `cursor` is the writer's current progress (ignored when no sweep is
    /// active). Returns the work incurred.
    #[inline]
    pub fn on_update(&mut self, obj: ObjectId, cursor: FlushCursor) -> UpdateOps {
        let mut ops = UpdateOps::default();

        // Dirty-bit maintenance runs on every update for algorithms that
        // checkpoint dirty objects, whether or not a checkpoint is active.
        if let Some(d) = &mut self.dirty_double {
            d.mark(obj);
            ops.bit_ops = 1;
        } else if let Some(d) = &mut self.dirty_log {
            d.set(obj.0);
            ops.bit_ops = 1;
        }

        // Only sweeps coordinate with updates, and a sweep is always the
        // *sole* in-flight checkpoint (sweeps are pipeline barriers), so
        // inspecting the queue front covers every case: pipelined queues
        // hold only no-sweep entries, which return early below.
        let Some(&sweep) = self.in_flight.front() else {
            return ops;
        };

        let participates = match sweep {
            SweepKind::NoSweep => return ops,
            SweepKind::AllByIndex => true,
            SweepKind::DirtyByIndex | SweepKind::DirtyByPosition => self.flush_set.get(obj.0),
        };
        // The flushed-bit test of the copy-on-update handler.
        ops.bit_ops = 1;
        if !participates || self.handled.get(obj.0) {
            return ops;
        }

        let flushed = match sweep {
            SweepKind::AllByIndex | SweepKind::DirtyByIndex => u64::from(obj.0) < cursor.frontier,
            SweepKind::DirtyByPosition => {
                let f = cursor.frontier as usize;
                f >= self.flush_list.len() || obj.0 < self.flush_list[f]
            }
            SweepKind::NoSweep => unreachable!(),
        };
        // Mark handled either way: if the writer already flushed the object
        // its bit is set (the writer set it); otherwise we copy it now and
        // set the bit ourselves.
        self.handled.set(obj.0);
        if !flushed {
            ops.lock = true;
            ops.copy = true;
        }
        ops
    }

    /// The object the in-flight sweep writes at a given slot, if any.
    ///
    /// `ByIndex` sweeps have one slot per object index (dirty sweeps skip
    /// clean slots and return `None`); `ByPosition` sweeps have one slot
    /// per dirty-list entry. Engines use this to maintain value-accurate
    /// shadow disks and to drive the real writer.
    pub fn sweep_object_at(&self, slot: u64) -> Option<ObjectId> {
        match self.in_flight.front()? {
            SweepKind::NoSweep => None,
            SweepKind::AllByIndex => {
                (slot < u64::from(self.n_objects)).then_some(ObjectId(slot as u32))
            }
            SweepKind::DirtyByIndex => {
                if slot < u64::from(self.n_objects) && self.flush_set.get(slot as u32) {
                    Some(ObjectId(slot as u32))
                } else {
                    None
                }
            }
            SweepKind::DirtyByPosition => self.flush_list.get(slot as usize).map(|&o| ObjectId(o)),
        }
    }

    /// Total slots of the in-flight sweep (`None` if no sweep is active):
    /// the frontier runs from 0 to this value.
    pub fn sweep_slots(&self) -> Option<u64> {
        match self.in_flight.front()? {
            SweepKind::NoSweep => None,
            SweepKind::AllByIndex | SweepKind::DirtyByIndex => Some(u64::from(self.n_objects)),
            SweepKind::DirtyByPosition => Some(self.flush_list.len() as u64),
        }
    }

    /// The set of objects the in-flight checkpoint writes (all bits set
    /// for full-state checkpoints). Only meaningful while a checkpoint is
    /// in flight; engines use it for eager copies and shadow-disk checks.
    pub fn flush_set(&self) -> &BitVec {
        &self.flush_set
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::Algorithm;

    const N: u32 = 100;

    fn bk(alg: Algorithm) -> Bookkeeper {
        Bookkeeper::new(alg.spec(), N)
    }

    #[test]
    fn naive_plan_copies_everything_every_time() {
        let mut b = bk(Algorithm::NaiveSnapshot);
        for seq in 0..3 {
            let plan = b.begin_checkpoint();
            assert_eq!(plan.seq, seq);
            assert_eq!(
                plan.sync_copy,
                Some(SyncCopy {
                    objects: N,
                    runs: 1
                })
            );
            assert!(matches!(
                plan.flush,
                FlushJob::Snapshot {
                    objects: 100,
                    org: DiskOrg::DoubleBackup
                }
            ));
            // Updates cost nothing for Naive-Snapshot.
            let ops = b.on_update(ObjectId(5), FlushCursor::START);
            assert_eq!(ops, UpdateOps::default());
            b.finish_checkpoint();
        }
    }

    #[test]
    fn naive_alternates_backups() {
        let mut b = bk(Algorithm::NaiveSnapshot);
        assert_eq!(b.target_backup(), 0);
        b.begin_checkpoint();
        b.finish_checkpoint();
        assert_eq!(b.target_backup(), 1);
        b.begin_checkpoint();
        b.finish_checkpoint();
        assert_eq!(b.target_backup(), 0);
    }

    #[test]
    fn acdo_checkpoints_only_dirty_objects() {
        let mut b = bk(Algorithm::AtomicCopyDirtyObjects);
        // Nothing dirty: empty checkpoint.
        let plan = b.begin_checkpoint();
        assert_eq!(plan.sync_copy, None);
        assert_eq!(plan.flush, FlushJob::None);
        b.finish_checkpoint();

        // Dirty three objects, two contiguous.
        for i in [10u32, 11, 40] {
            let ops = b.on_update(ObjectId(i), FlushCursor::START);
            assert_eq!(ops.bit_ops, 1);
            assert!(!ops.copy);
        }
        let plan = b.begin_checkpoint();
        assert_eq!(
            plan.sync_copy,
            Some(SyncCopy {
                objects: 3,
                runs: 2
            })
        );
        assert_eq!(plan.flush.objects(), 3);
        b.finish_checkpoint();
    }

    #[test]
    fn acdo_alternating_backups_see_their_own_dirty_sets() {
        let mut b = bk(Algorithm::AtomicCopyDirtyObjects);
        b.on_update(ObjectId(1), FlushCursor::START);
        // Checkpoint to backup 0 takes object 1.
        let plan = b.begin_checkpoint();
        assert_eq!(plan.flush.objects(), 1);
        b.finish_checkpoint();
        // Backup 1 still owes object 1.
        let plan = b.begin_checkpoint();
        assert_eq!(plan.flush.objects(), 1, "object 1 still dirty for backup 1");
        b.finish_checkpoint();
        // Now both backups are clean.
        let plan = b.begin_checkpoint();
        assert_eq!(plan.flush, FlushJob::None);
    }

    #[test]
    fn update_during_checkpoint_is_captured_by_next_one() {
        let mut b = bk(Algorithm::AtomicCopyDirtyObjects);
        b.on_update(ObjectId(7), FlushCursor::START);
        b.begin_checkpoint();
        // Updated again while the checkpoint writes.
        b.on_update(ObjectId(7), FlushCursor::START);
        b.finish_checkpoint();
        // Backup 1's checkpoint must include it...
        let plan = b.begin_checkpoint();
        assert_eq!(plan.flush.objects(), 1);
        b.finish_checkpoint();
        // ...and backup 0's too, because the update arrived after backup
        // 0's snapshot was taken.
        let plan = b.begin_checkpoint();
        assert_eq!(plan.flush.objects(), 1);
    }

    #[test]
    fn cou_copies_only_unflushed_dirty_objects() {
        let mut b = bk(Algorithm::CopyOnUpdate);
        for i in [3u32, 50, 80] {
            b.on_update(ObjectId(i), FlushCursor::START);
        }
        let plan = b.begin_checkpoint();
        assert_eq!(plan.sync_copy, None, "COU never copies eagerly");
        assert!(plan.flush.is_sweep());
        assert_eq!(plan.flush.objects(), 3);

        // Writer has flushed indexes < 40: object 3 is already on disk, so
        // updating it costs only a bit test.
        let ops = b.on_update(ObjectId(3), FlushCursor::at(40));
        assert_eq!((ops.bit_ops, ops.lock, ops.copy), (1, false, false));

        // Object 50 is dirty and unflushed: first touch copies...
        let ops = b.on_update(ObjectId(50), FlushCursor::at(40));
        assert_eq!((ops.bit_ops, ops.lock, ops.copy), (1, true, true));
        // ...second touch only tests the bit.
        let ops = b.on_update(ObjectId(50), FlushCursor::at(40));
        assert_eq!((ops.bit_ops, ops.lock, ops.copy), (1, false, false));

        // Object 80 is dirty and unflushed: copy on first touch.
        let ops = b.on_update(ObjectId(80), FlushCursor::at(40));
        assert_eq!((ops.bit_ops, ops.lock, ops.copy), (1, true, true));
        // Objects 60 and 90 were clean at checkpoint start: not in the
        // flush set, so the writer skips them and no copy is ever needed.
        let ops = b.on_update(ObjectId(60), FlushCursor::at(40));
        assert_eq!((ops.bit_ops, ops.lock, ops.copy), (1, false, false));
        let ops = b.on_update(ObjectId(90), FlushCursor::at(40));
        assert!(!ops.copy);
    }

    #[test]
    fn cou_sweep_slots_span_the_file() {
        let mut b = bk(Algorithm::CopyOnUpdate);
        b.on_update(ObjectId(10), FlushCursor::START);
        b.on_update(ObjectId(20), FlushCursor::START);
        b.begin_checkpoint();
        // Double-backup sweeps have one slot per file index.
        assert_eq!(b.sweep_slots(), Some(u64::from(N)));
        assert_eq!(b.sweep_object_at(10), Some(ObjectId(10)));
        assert_eq!(b.sweep_object_at(11), None, "clean slots are skipped");
        assert_eq!(b.sweep_object_at(20), Some(ObjectId(20)));
    }

    #[test]
    fn dribble_copies_everything_on_first_touch() {
        let mut b = bk(Algorithm::DribbleAndCopyOnUpdate);
        // Outside a checkpoint, updates are free (no dirty tracking).
        let ops = b.on_update(ObjectId(1), FlushCursor::START);
        assert_eq!(ops, UpdateOps::default());

        let plan = b.begin_checkpoint();
        assert_eq!(plan.flush.objects(), N);
        assert!(plan.flush.is_sweep());
        assert_eq!(b.sweep_slots(), Some(u64::from(N)));

        // Every object participates: even one never updated before.
        let ops = b.on_update(ObjectId(99), FlushCursor::at(50));
        assert_eq!((ops.bit_ops, ops.lock, ops.copy), (1, true, true));
        // Already flushed object: bit test only.
        let ops = b.on_update(ObjectId(7), FlushCursor::at(50));
        assert_eq!((ops.bit_ops, ops.lock, ops.copy), (1, false, false));
    }

    #[test]
    fn partial_redo_full_flushes_on_schedule() {
        let spec = Algorithm::PartialRedo.spec_with_flush_period(3);
        let mut b = Bookkeeper::new(spec, N);
        // Checkpoints 0, 1 normal; 2 full flush; 3, 4 normal; 5 full flush.
        for seq in 0..6u64 {
            b.on_update(ObjectId((seq % 64) as u32), FlushCursor::START);
            let plan = b.begin_checkpoint();
            let expect_full = seq % 3 == 2;
            assert_eq!(plan.full_flush, expect_full, "seq {seq}");
            if expect_full {
                assert_eq!(plan.flush.objects(), N);
                assert!(plan.flush.is_sweep());
            } else {
                assert!(!plan.flush.is_sweep());
            }
            b.finish_checkpoint();
        }
    }

    #[test]
    fn partial_redo_normal_checkpoints_are_eager_and_logged() {
        let mut b = bk(Algorithm::PartialRedo);
        b.on_update(ObjectId(2), FlushCursor::START);
        b.on_update(ObjectId(3), FlushCursor::START);
        let plan = b.begin_checkpoint();
        assert_eq!(
            plan.sync_copy,
            Some(SyncCopy {
                objects: 2,
                runs: 1
            })
        );
        assert_eq!(
            plan.flush,
            FlushJob::Snapshot {
                objects: 2,
                org: DiskOrg::Log
            }
        );
        // No copy-on-update during normal PR checkpoints.
        let ops = b.on_update(ObjectId(2), FlushCursor::START);
        assert_eq!((ops.bit_ops, ops.lock, ops.copy), (1, false, false));
    }

    #[test]
    fn coupr_uses_position_cursor_over_sorted_list() {
        let mut b = bk(Algorithm::CopyOnUpdatePartialRedo);
        for i in [30u32, 10, 70] {
            b.on_update(ObjectId(i), FlushCursor::START);
        }
        let plan = b.begin_checkpoint();
        assert_eq!(
            plan.flush,
            FlushJob::Sweep {
                objects: 3,
                org: DiskOrg::Log,
                cursor: CursorKind::ByPosition
            }
        );
        assert_eq!(b.sweep_slots(), Some(3));
        // The list is sorted by object id regardless of update order.
        assert_eq!(b.sweep_object_at(0), Some(ObjectId(10)));
        assert_eq!(b.sweep_object_at(1), Some(ObjectId(30)));
        assert_eq!(b.sweep_object_at(2), Some(ObjectId(70)));
        assert_eq!(b.sweep_object_at(3), None);

        // Frontier 1: only object 10 flushed.
        let ops = b.on_update(ObjectId(10), FlushCursor::at(1));
        assert!(!ops.copy, "object 10 already flushed");
        let ops = b.on_update(ObjectId(30), FlushCursor::at(1));
        assert!(ops.copy, "object 30 not yet flushed");
        let ops = b.on_update(ObjectId(70), FlushCursor::at(3));
        assert!(!ops.copy, "frontier past the end means all flushed");
    }

    #[test]
    fn dirty_counts_are_queryable() {
        let mut b = bk(Algorithm::CopyOnUpdate);
        assert_eq!(b.dirty_count(0), 0);
        b.on_update(ObjectId(0), FlushCursor::START);
        b.on_update(ObjectId(1), FlushCursor::START);
        assert_eq!(b.dirty_count(0), 2);
        assert_eq!(b.dirty_count(1), 2);
        b.begin_checkpoint();
        assert_eq!(b.dirty_count(0), 0, "snapshotted away");
        assert_eq!(b.dirty_count(1), 2);
    }

    #[test]
    #[should_panic(expected = "begin_checkpoint while a checkpoint is in flight")]
    fn double_begin_panics() {
        let mut b = bk(Algorithm::NaiveSnapshot);
        b.begin_checkpoint();
        b.begin_checkpoint();
    }

    #[test]
    #[should_panic(expected = "finish_checkpoint without a checkpoint in flight")]
    fn finish_without_begin_panics() {
        let mut b = bk(Algorithm::NaiveSnapshot);
        b.finish_checkpoint();
    }

    #[test]
    fn log_eager_checkpoints_pipeline_with_queued_seqs() {
        let mut b = bk(Algorithm::PartialRedo);
        b.on_update(ObjectId(1), FlushCursor::START);
        assert!(!b.is_in_flight());
        let p0 = b.begin_checkpoint();
        assert_eq!(p0.seq, 0);
        assert!(b.can_pipeline_next(), "eager log checkpoints may overlap");
        b.on_update(ObjectId(2), FlushCursor::START);
        let p1 = b.begin_checkpoint();
        assert_eq!(p1.seq, 1, "queued begin gets the next sequence number");
        assert_eq!(b.in_flight_count(), 2);
        b.finish_checkpoint();
        b.finish_checkpoint();
        assert_eq!(b.seq(), 2);
        assert!(!b.is_in_flight());
    }

    #[test]
    fn full_flush_boundary_is_a_pipeline_barrier() {
        let spec = Algorithm::PartialRedo.spec_with_flush_period(2);
        let mut b = Bookkeeper::new(spec, N);
        b.on_update(ObjectId(1), FlushCursor::START);
        let p0 = b.begin_checkpoint();
        assert!(!p0.full_flush);
        // Checkpoint 1 would be the periodic full flush (a sweep): it must
        // not begin while checkpoint 0 is still in flight.
        assert!(!b.can_pipeline_next());
    }

    #[test]
    #[should_panic(expected = "begin_checkpoint while a checkpoint is in flight")]
    fn sweep_begin_while_in_flight_panics() {
        let mut b = bk(Algorithm::DribbleAndCopyOnUpdate);
        b.begin_checkpoint();
        b.begin_checkpoint();
    }

    #[test]
    fn empty_dirty_set_yields_empty_checkpoint_for_cou() {
        let mut b = bk(Algorithm::CopyOnUpdate);
        let plan = b.begin_checkpoint();
        assert_eq!(plan.flush, FlushJob::None);
        assert_eq!(b.sweep_slots(), None);
        // Updates during an empty checkpoint still only cost dirty marking.
        let ops = b.on_update(ObjectId(4), FlushCursor::START);
        assert_eq!((ops.bit_ops, ops.lock, ops.copy), (1, false, false));
        b.finish_checkpoint();
        let plan = b.begin_checkpoint();
        assert_eq!(plan.flush.objects(), 1);
    }
}
