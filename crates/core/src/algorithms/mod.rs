//! The six checkpointing algorithms and their design-space classification.
//!
//! Table 1 of the paper organizes the algorithms along three dimensions:
//! *in-memory copy timing* (eager vs. copy-on-update), *objects copied*
//! (all vs. dirty only), and *disk organization* (double backup vs. log).
//! [`AlgorithmSpec`] captures those axes; [`Algorithm`] enumerates the six
//! points of the design space the paper evaluates, and
//! [`bookkeeper::Bookkeeper`] implements their shared state machine.

pub mod bookkeeper;

use std::fmt;

/// When in-memory copies of checkpointed objects are taken (Table 1 axis 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CopyTiming {
    /// A synchronous copy at the tick boundary that starts the checkpoint.
    /// Conceptually simple but introduces a pause in the simulation loop.
    Eager,
    /// Objects are copied lazily, the first time they are updated while the
    /// asynchronous flush is still pending. Spreads overhead across ticks.
    OnUpdate,
}

/// Which objects are included in a checkpoint (Table 1 axis 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObjectsCopied {
    /// Every atomic object, every checkpoint.
    All,
    /// Only objects dirtied since the relevant previous checkpoint.
    Dirty,
}

/// On-disk checkpoint organization (Table 1 axis 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiskOrg {
    /// Two alternating full-state backup files; each object has a fixed
    /// offset, and dirty objects are written in increasing-offset ("sorted
    /// I/O") order. At least one backup is always consistent.
    DoubleBackup,
    /// A simple append-only log: fully sequential writes, but recovery may
    /// have to read back through several checkpoints' worth of log.
    Log,
}

/// Behaviour of one framework subroutine for a given algorithm (Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Subroutine {
    /// The subroutine does nothing for this algorithm.
    NoOp,
    /// Acts on every atomic object.
    AllObjects,
    /// Acts on dirty objects only.
    DirtyObjects,
    /// Copy-on-update handler: copies an object the first time it is
    /// touched while unflushed; `all` selects whether all objects or only
    /// dirty ones participate.
    FirstTouched {
        /// True for Dribble (all objects participate), false for the
        /// dirty-only copy-on-update variants.
        all: bool,
    },
}

impl fmt::Display for Subroutine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Subroutine::NoOp => write!(f, "No-op"),
            Subroutine::AllObjects => write!(f, "All objects"),
            Subroutine::DirtyObjects => write!(f, "Dirty objects"),
            Subroutine::FirstTouched { all: true } => write!(f, "First touched, all"),
            Subroutine::FirstTouched { all: false } => write!(f, "First touched, dirty"),
        }
    }
}

/// Full classification of a checkpointing algorithm: its position in the
/// Table 1 design space plus the Table 2 subroutine assignments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AlgorithmSpec {
    /// Which algorithm this is.
    pub algorithm: Algorithm,
    /// In-memory copy timing.
    pub copy_timing: CopyTiming,
    /// Objects included per checkpoint.
    pub objects_copied: ObjectsCopied,
    /// Disk organization.
    pub disk_org: DiskOrg,
    /// `Copy-To-Memory` subroutine (synchronous, tick boundary).
    pub copy_to_memory: Subroutine,
    /// `Write-Copies-To-Stable-Storage` subroutine (asynchronous).
    pub write_copies: Subroutine,
    /// `Handle-Update` subroutine (synchronous, per update).
    pub handle_update: Subroutine,
    /// `Write-Objects-To-Stable-Storage` subroutine (asynchronous,
    /// reads live state, must be thread-safe).
    pub write_objects: Subroutine,
    /// For log-organized dirty-object algorithms: a full flush of the state
    /// (run as a Dribble-style checkpoint) is performed every this many
    /// checkpoints to bound log reads during recovery. `None` for the
    /// other algorithms.
    pub full_flush_period: Option<u32>,
    /// Whether updates maintain per-object dirty bits (costs one bit
    /// operation per update in the cost model). Naive-Snapshot is the only
    /// algorithm that does not.
    pub tracks_dirty: bool,
}

/// The six consistent checkpointing algorithms evaluated in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Quiesce at a tick boundary and eagerly copy the entire state.
    NaiveSnapshot,
    /// Asynchronously sweep ("dribble") all objects to disk; copy an object
    /// on its first update if the sweep has not flushed it yet.
    DribbleAndCopyOnUpdate,
    /// Eagerly copy only dirty objects at the tick boundary; double-backup
    /// disk organization with sorted writes.
    AtomicCopyDirtyObjects,
    /// Eagerly copy only dirty objects; append them to a log, with a
    /// periodic full flush to bound recovery-time log reads.
    PartialRedo,
    /// Copy dirty objects on first update while the asynchronous writer
    /// drains them to the double backup. The paper's recommended method.
    CopyOnUpdate,
    /// Copy-on-update of dirty objects appended to a log, with a periodic
    /// full flush.
    CopyOnUpdatePartialRedo,
}

/// Default full-flush period for the partial-redo algorithms, in
/// checkpoints. Back-derived from the paper's reported recovery times
/// (see DESIGN.md).
pub const DEFAULT_FULL_FLUSH_PERIOD: u32 = 8;

impl Algorithm {
    /// All six algorithms, in the order the paper's figures list them.
    pub const ALL: [Algorithm; 6] = [
        Algorithm::NaiveSnapshot,
        Algorithm::DribbleAndCopyOnUpdate,
        Algorithm::AtomicCopyDirtyObjects,
        Algorithm::PartialRedo,
        Algorithm::CopyOnUpdate,
        Algorithm::CopyOnUpdatePartialRedo,
    ];

    /// The algorithm's name as printed in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::NaiveSnapshot => "Naive-Snapshot",
            Algorithm::DribbleAndCopyOnUpdate => "Dribble-and-Copy-on-Update",
            Algorithm::AtomicCopyDirtyObjects => "Atomic-Copy-Dirty-Objects",
            Algorithm::PartialRedo => "Partial-Redo",
            Algorithm::CopyOnUpdate => "Copy-on-Update",
            Algorithm::CopyOnUpdatePartialRedo => "Copy-on-Update-Partial-Redo",
        }
    }

    /// A short name convenient for CSV headers and CLI flags.
    pub fn short_name(self) -> &'static str {
        match self {
            Algorithm::NaiveSnapshot => "naive",
            Algorithm::DribbleAndCopyOnUpdate => "dribble",
            Algorithm::AtomicCopyDirtyObjects => "atomic-copy",
            Algorithm::PartialRedo => "partial-redo",
            Algorithm::CopyOnUpdate => "cou",
            Algorithm::CopyOnUpdatePartialRedo => "cou-partial-redo",
        }
    }

    /// Parse either the full or the short name (case-insensitive).
    pub fn parse(s: &str) -> Option<Algorithm> {
        let s = s.to_ascii_lowercase();
        Algorithm::ALL
            .into_iter()
            .find(|a| a.name().eq_ignore_ascii_case(&s) || a.short_name() == s)
    }

    /// The algorithm's design-space classification with the default
    /// full-flush period.
    pub fn spec(self) -> AlgorithmSpec {
        self.spec_with_flush_period(DEFAULT_FULL_FLUSH_PERIOD)
    }

    /// As [`Algorithm::spec`] but with an explicit full-flush period for
    /// the partial-redo algorithms (ignored by the others).
    pub fn spec_with_flush_period(self, period: u32) -> AlgorithmSpec {
        let period = period.max(1);
        match self {
            Algorithm::NaiveSnapshot => AlgorithmSpec {
                algorithm: self,
                copy_timing: CopyTiming::Eager,
                objects_copied: ObjectsCopied::All,
                // The paper notes Naive-Snapshot can use either organization
                // and uses a double backup in the experiments.
                disk_org: DiskOrg::DoubleBackup,
                copy_to_memory: Subroutine::AllObjects,
                write_copies: Subroutine::AllObjects,
                handle_update: Subroutine::NoOp,
                write_objects: Subroutine::NoOp,
                full_flush_period: None,
                tracks_dirty: false,
            },
            Algorithm::DribbleAndCopyOnUpdate => AlgorithmSpec {
                algorithm: self,
                copy_timing: CopyTiming::OnUpdate,
                objects_copied: ObjectsCopied::All,
                disk_org: DiskOrg::Log,
                copy_to_memory: Subroutine::NoOp,
                write_copies: Subroutine::NoOp,
                handle_update: Subroutine::FirstTouched { all: true },
                write_objects: Subroutine::AllObjects,
                full_flush_period: None,
                // Dribble checkpoints every object, so it needs no dirty
                // bits; it only maintains the per-object flushed bit while a
                // checkpoint is in flight.
                tracks_dirty: false,
            },
            Algorithm::AtomicCopyDirtyObjects => AlgorithmSpec {
                algorithm: self,
                copy_timing: CopyTiming::Eager,
                objects_copied: ObjectsCopied::Dirty,
                disk_org: DiskOrg::DoubleBackup,
                copy_to_memory: Subroutine::DirtyObjects,
                write_copies: Subroutine::DirtyObjects,
                handle_update: Subroutine::NoOp,
                write_objects: Subroutine::NoOp,
                full_flush_period: None,
                tracks_dirty: true,
            },
            Algorithm::PartialRedo => AlgorithmSpec {
                algorithm: self,
                copy_timing: CopyTiming::Eager,
                objects_copied: ObjectsCopied::Dirty,
                disk_org: DiskOrg::Log,
                copy_to_memory: Subroutine::DirtyObjects,
                write_copies: Subroutine::DirtyObjects,
                handle_update: Subroutine::NoOp,
                write_objects: Subroutine::NoOp,
                full_flush_period: Some(period),
                tracks_dirty: true,
            },
            Algorithm::CopyOnUpdate => AlgorithmSpec {
                algorithm: self,
                copy_timing: CopyTiming::OnUpdate,
                objects_copied: ObjectsCopied::Dirty,
                disk_org: DiskOrg::DoubleBackup,
                copy_to_memory: Subroutine::NoOp,
                write_copies: Subroutine::NoOp,
                handle_update: Subroutine::FirstTouched { all: false },
                write_objects: Subroutine::DirtyObjects,
                full_flush_period: None,
                tracks_dirty: true,
            },
            Algorithm::CopyOnUpdatePartialRedo => AlgorithmSpec {
                algorithm: self,
                copy_timing: CopyTiming::OnUpdate,
                objects_copied: ObjectsCopied::Dirty,
                disk_org: DiskOrg::Log,
                copy_to_memory: Subroutine::NoOp,
                write_copies: Subroutine::NoOp,
                handle_update: Subroutine::FirstTouched { all: false },
                write_objects: Subroutine::DirtyObjects,
                full_flush_period: Some(period),
                tracks_dirty: true,
            },
        }
    }
}

impl fmt::Display for Algorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_match_table1() {
        // Table 1: rows = objects copied, columns = (copy timing, disk org).
        let spec = Algorithm::NaiveSnapshot.spec();
        assert_eq!(spec.copy_timing, CopyTiming::Eager);
        assert_eq!(spec.objects_copied, ObjectsCopied::All);

        let spec = Algorithm::DribbleAndCopyOnUpdate.spec();
        assert_eq!(spec.copy_timing, CopyTiming::OnUpdate);
        assert_eq!(spec.objects_copied, ObjectsCopied::All);

        let spec = Algorithm::AtomicCopyDirtyObjects.spec();
        assert_eq!(spec.copy_timing, CopyTiming::Eager);
        assert_eq!(spec.objects_copied, ObjectsCopied::Dirty);
        assert_eq!(spec.disk_org, DiskOrg::DoubleBackup);

        let spec = Algorithm::PartialRedo.spec();
        assert_eq!(spec.copy_timing, CopyTiming::Eager);
        assert_eq!(spec.disk_org, DiskOrg::Log);

        let spec = Algorithm::CopyOnUpdate.spec();
        assert_eq!(spec.copy_timing, CopyTiming::OnUpdate);
        assert_eq!(spec.disk_org, DiskOrg::DoubleBackup);

        let spec = Algorithm::CopyOnUpdatePartialRedo.spec();
        assert_eq!(spec.copy_timing, CopyTiming::OnUpdate);
        assert_eq!(spec.disk_org, DiskOrg::Log);
    }

    #[test]
    fn subroutines_match_table2() {
        use Subroutine::*;
        let s = Algorithm::NaiveSnapshot.spec();
        assert_eq!(
            (
                s.copy_to_memory,
                s.write_copies,
                s.handle_update,
                s.write_objects
            ),
            (AllObjects, AllObjects, NoOp, NoOp)
        );
        let s = Algorithm::DribbleAndCopyOnUpdate.spec();
        assert_eq!(
            (
                s.copy_to_memory,
                s.write_copies,
                s.handle_update,
                s.write_objects
            ),
            (NoOp, NoOp, FirstTouched { all: true }, AllObjects)
        );
        let s = Algorithm::AtomicCopyDirtyObjects.spec();
        assert_eq!(
            (
                s.copy_to_memory,
                s.write_copies,
                s.handle_update,
                s.write_objects
            ),
            (DirtyObjects, DirtyObjects, NoOp, NoOp)
        );
        let s = Algorithm::CopyOnUpdate.spec();
        assert_eq!(
            (
                s.copy_to_memory,
                s.write_copies,
                s.handle_update,
                s.write_objects
            ),
            (NoOp, NoOp, FirstTouched { all: false }, DirtyObjects)
        );
    }

    #[test]
    fn all_objects_algorithms_skip_dirty_tracking() {
        for alg in Algorithm::ALL {
            assert_eq!(
                alg.spec().tracks_dirty,
                alg.spec().objects_copied == ObjectsCopied::Dirty,
                "{alg}"
            );
        }
    }

    #[test]
    fn only_partial_redo_family_full_flushes() {
        for alg in Algorithm::ALL {
            let expects = matches!(
                alg,
                Algorithm::PartialRedo | Algorithm::CopyOnUpdatePartialRedo
            );
            assert_eq!(alg.spec().full_flush_period.is_some(), expects, "{alg}");
        }
    }

    #[test]
    fn names_parse_roundtrip() {
        for alg in Algorithm::ALL {
            assert_eq!(Algorithm::parse(alg.name()), Some(alg));
            assert_eq!(Algorithm::parse(alg.short_name()), Some(alg));
            assert_eq!(Algorithm::parse(&alg.name().to_uppercase()), Some(alg));
        }
        assert_eq!(Algorithm::parse("no-such-algorithm"), None);
    }

    #[test]
    fn flush_period_is_clamped_to_one() {
        let spec = Algorithm::PartialRedo.spec_with_flush_period(0);
        assert_eq!(spec.full_flush_period, Some(1));
    }

    #[test]
    fn subroutine_display_matches_table2_wording() {
        assert_eq!(Subroutine::NoOp.to_string(), "No-op");
        assert_eq!(
            Subroutine::FirstTouched { all: true }.to_string(),
            "First touched, all"
        );
        assert_eq!(
            Subroutine::FirstTouched { all: false }.to_string(),
            "First touched, dirty"
        );
    }
}
