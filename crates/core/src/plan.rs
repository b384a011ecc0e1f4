//! Checkpoint plans: what a freshly started checkpoint must do.
//!
//! [`crate::Bookkeeper::begin_checkpoint`] returns a [`CheckpointPlan`]
//! describing (a) the synchronous in-memory copy the framework performs at
//! the tick boundary (eager algorithms only) and (b) the asynchronous flush
//! job the writer must complete. The engines translate the plan into cost
//! (simulator) or real work (storage engine).

use crate::algorithms::DiskOrg;

/// The synchronous in-memory copy performed by `Copy-To-Memory`.
///
/// Its cost in the paper's model is `runs * Omem + objects * Sobj / Bmem`:
/// one memory-latency startup charge per contiguous run of objects plus the
/// bandwidth cost of the bytes themselves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SyncCopy {
    /// Number of atomic objects copied.
    pub objects: u32,
    /// Number of maximal contiguous runs those objects form.
    pub runs: u32,
}

/// How the engine should interpret the asynchronous writer's progress when
/// deciding whether a given object has already been flushed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CursorKind {
    /// The writer sweeps the checkpoint file in object-index order (double
    /// backups, and log flushes of *all* objects): an object is flushed iff
    /// its index is below the frontier.
    ByIndex,
    /// The writer walks a sorted list of dirty objects (log flushes of
    /// dirty objects): an object is flushed iff its list position is below
    /// the frontier.
    ByPosition,
}

/// The asynchronous flush job of one checkpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushJob {
    /// Nothing to write (an eager checkpoint with an empty dirty set).
    None,
    /// Write objects that were synchronously copied at the tick boundary
    /// (`Write-Copies-To-Stable-Storage`). Reads only the private snapshot
    /// buffer, so no coordination with updates is needed.
    Snapshot {
        /// Number of objects to write.
        objects: u32,
        /// Disk organization written to.
        org: DiskOrg,
    },
    /// Sweep live state asynchronously (`Write-Objects-To-Stable-Storage`)
    /// while updates perform copy-on-update for not-yet-flushed objects.
    Sweep {
        /// Number of objects to write (`n` for all-object sweeps, the dirty
        /// count for dirty sweeps).
        objects: u32,
        /// Disk organization written to.
        org: DiskOrg,
        /// How writer progress maps to per-object flushed status.
        cursor: CursorKind,
    },
}

impl FlushJob {
    /// Number of objects this job writes.
    pub fn objects(&self) -> u32 {
        match *self {
            FlushJob::None => 0,
            FlushJob::Snapshot { objects, .. } | FlushJob::Sweep { objects, .. } => objects,
        }
    }

    /// Disk organization used, if any data is written.
    pub fn org(&self) -> Option<DiskOrg> {
        match *self {
            FlushJob::None => None,
            FlushJob::Snapshot { org, .. } | FlushJob::Sweep { org, .. } => Some(org),
        }
    }

    /// True if updates must coordinate with this job (copy-on-update).
    pub fn is_sweep(&self) -> bool {
        matches!(self, FlushJob::Sweep { .. })
    }
}

/// Everything the engine needs to know about a newly started checkpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointPlan {
    /// Sequence number of this checkpoint (0-based).
    pub seq: u64,
    /// True if this is a periodic full flush (partial-redo algorithms run
    /// one Dribble-style full checkpoint every `full_flush_period`
    /// checkpoints to bound recovery log reads).
    pub full_flush: bool,
    /// The synchronous tick-boundary copy, if the algorithm performs one.
    pub sync_copy: Option<SyncCopy>,
    /// The asynchronous flush job.
    pub flush: FlushJob,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flush_job_accessors() {
        assert_eq!(FlushJob::None.objects(), 0);
        assert_eq!(FlushJob::None.org(), None);
        assert!(!FlushJob::None.is_sweep());

        let snap = FlushJob::Snapshot {
            objects: 10,
            org: DiskOrg::Log,
        };
        assert_eq!(snap.objects(), 10);
        assert_eq!(snap.org(), Some(DiskOrg::Log));
        assert!(!snap.is_sweep());

        let sweep = FlushJob::Sweep {
            objects: 5,
            org: DiskOrg::DoubleBackup,
            cursor: CursorKind::ByIndex,
        };
        assert_eq!(sweep.objects(), 5);
        assert!(sweep.is_sweep());
    }
}
