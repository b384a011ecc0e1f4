//! Crash-point lattice: named phase boundaries through the storage
//! engine's write path, consulted via a near-zero-cost armed check.
//!
//! The lattice exists so the crash-fuzz harness (`mmoc-fuzz`) can
//! simulate a process kill at *any* phase boundary of the durability
//! story — not just the handful of hand-picked sites in
//! `failure_injection.rs`. Every boundary is a [`CrashPoint`]; a run
//! that should crash carries a [`CrashPlan`] naming one point, the
//! 1-based hit index at which it fires, an optional torn-write byte
//! budget, and the [`CrashAction`] to take.
//!
//! The plan lives in a per-run [`CrashState`] threaded through
//! `RealConfig` (never a process global, so parallel `cargo test`
//! runs cannot arm each other). Disarmed, every instrumentation site
//! is one `Option` check on an `Arc` field that is `None` in
//! production — effectively free. Armed, each `reach` increments the
//! point's counter and fires exactly once when the counter reaches
//! the plan's hit index.
//!
//! "Crashing" does not kill the process: the firing site applies its
//! partial effect (a torn prefix, a truncated tail, a skipped sync),
//! then latches the [`CrashState::go_down`] flag. From that instant
//! every instrumented disk mutation is suppressed — the disk is
//! frozen exactly as a kill would leave it — while completions still
//! acknowledge so the driver drains cleanly. The fuzzer then runs
//! real recovery over the frozen directory and compares against an
//! in-memory oracle.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// A named phase boundary in the storage engine's write path.
///
/// The discriminant order is stable and is the index into
/// [`CrashState`]'s per-point counters; new points append at the end.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CrashPoint {
    /// The driver hands a checkpoint job to the writer backend
    /// (`RealBackend::send`), before it reaches any writer thread.
    JobEnqueued = 0,
    /// `submit_job` invalidated the double-backup target's metadata
    /// (the write window is open, the old image is gone).
    BackupInvalidate = 1,
    /// A single object write into the double-backup image file; the
    /// torn budget truncates the object's bytes mid-write.
    BackupWriteObject = 2,
    /// The 16-byte metadata commit of a double-backup checkpoint; the
    /// torn budget leaves a short, unsynced meta file behind.
    BackupCommit = 3,
    /// A single object record appended to an open log segment; the
    /// torn budget tears the record after its object-id header.
    LogAppendObject = 4,
    /// A log segment was sealed (its trailer written) but not yet
    /// synced; the torn budget truncates the sealed tail.
    LogSegmentSealed = 5,
    /// `submit_job` finished: all data writes staged, nothing synced
    /// or committed yet.
    JobSubmitted = 6,
    /// `complete_job` entered, before the job's data sync (or the
    /// inherited pre-sync result) is considered.
    CompleteBeforeSync = 7,
    /// `complete_job` synced the data but has not yet committed the
    /// metadata (double-backup) or synced the log store.
    CompleteBeforeCommit = 8,
    /// The durability scheduler's seam between the coalesced sync
    /// phase and the completion loop (batched and ring engines).
    SchedulerCommitSeam = 9,
    /// Immediately before the `syncfs`-style device barrier replaces
    /// the batch's per-file fsyncs.
    DeviceBarrier = 10,
    /// A per-shard io_uring wave is staged and about to be pushed to
    /// the submission queue.
    UringWaveStaged = 11,
    /// A per-shard io_uring wave's CQEs were reaped and accounted.
    UringWaveComplete = 12,
    /// The replica push transaction opened (the shard's peer mirrors are
    /// invalidated for the transfer) but the disk metadata commit has
    /// not happened yet; a crash here leaves every mirror incomplete and
    /// recovery must fall back to disk.
    ReplicaPushPreCommit = 13,
    /// The checkpoint committed on disk and its delta was published to
    /// the peer mirrors; a crash here leaves replica and disk agreeing
    /// on the new checkpoint.
    ReplicaPushPostCommit = 14,
    /// A recovery-time replica fetch attempt (one reach per mirror
    /// tried); firing simulates the hosting peer dying *before* the
    /// mirror lock is taken, so that mirror is skipped and recovery
    /// moves to the next copy or falls back to disk.
    ReplicaFetch = 15,
    /// Recovery read the newest consistent image (backup file or log
    /// reconstruction) but has not started replaying; firing simulates
    /// a re-crash mid-restore — the recovery attempt errors out and
    /// must be restarted from scratch.
    RecoveryReadImage = 16,
    /// One reach per tick replayed over the restored image; firing
    /// simulates a re-crash mid-tail-replay — the recovery attempt
    /// errors out and must be restarted from scratch.
    RecoveryReplayTick = 17,
    /// A recovery-time replica fetch locked a complete mirror and is
    /// copying its image; firing simulates the hosting peer dying
    /// mid-transfer — the partial copy is discarded and recovery tries
    /// the next mirror (K ≥ 2 survives) before falling back to disk.
    ReplicaFetchMid = 18,
}

/// Number of registered crash points.
pub const N_POINTS: usize = 19;

/// Every registered crash point, in registry (discriminant) order.
pub const ALL_POINTS: [CrashPoint; N_POINTS] = [
    CrashPoint::JobEnqueued,
    CrashPoint::BackupInvalidate,
    CrashPoint::BackupWriteObject,
    CrashPoint::BackupCommit,
    CrashPoint::LogAppendObject,
    CrashPoint::LogSegmentSealed,
    CrashPoint::JobSubmitted,
    CrashPoint::CompleteBeforeSync,
    CrashPoint::CompleteBeforeCommit,
    CrashPoint::SchedulerCommitSeam,
    CrashPoint::DeviceBarrier,
    CrashPoint::UringWaveStaged,
    CrashPoint::UringWaveComplete,
    CrashPoint::ReplicaPushPreCommit,
    CrashPoint::ReplicaPushPostCommit,
    CrashPoint::ReplicaFetch,
    CrashPoint::RecoveryReadImage,
    CrashPoint::RecoveryReplayTick,
    CrashPoint::ReplicaFetchMid,
];

impl CrashPoint {
    /// Stable kebab-case name, used by `mmoc-fuzz --list-points`,
    /// reproducer lines, and [`plan_spec`].
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            CrashPoint::JobEnqueued => "job-enqueued",
            CrashPoint::BackupInvalidate => "backup-invalidate",
            CrashPoint::BackupWriteObject => "backup-write-object",
            CrashPoint::BackupCommit => "backup-commit",
            CrashPoint::LogAppendObject => "log-append-object",
            CrashPoint::LogSegmentSealed => "log-segment-sealed",
            CrashPoint::JobSubmitted => "job-submitted",
            CrashPoint::CompleteBeforeSync => "complete-before-sync",
            CrashPoint::CompleteBeforeCommit => "complete-before-commit",
            CrashPoint::SchedulerCommitSeam => "scheduler-commit-seam",
            CrashPoint::DeviceBarrier => "device-barrier",
            CrashPoint::UringWaveStaged => "uring-wave-staged",
            CrashPoint::UringWaveComplete => "uring-wave-complete",
            CrashPoint::ReplicaPushPreCommit => "replica-push-pre-commit",
            CrashPoint::ReplicaPushPostCommit => "replica-push-post-commit",
            CrashPoint::ReplicaFetch => "replica-fetch",
            CrashPoint::RecoveryReadImage => "recovery-read-image",
            CrashPoint::RecoveryReplayTick => "recovery-replay-tick",
            CrashPoint::ReplicaFetchMid => "replica-fetch-mid",
        }
    }

    /// Parse a registry name back into its point.
    ///
    /// # Errors
    /// Returns the offending name when it matches no registered point.
    pub fn parse(name: &str) -> Result<CrashPoint, String> {
        ALL_POINTS
            .iter()
            .copied()
            .find(|p| p.name() == name)
            .ok_or_else(|| format!("unknown crash point `{name}`"))
    }

    /// One-line description of the phase boundary, for `--list-points`.
    #[must_use]
    pub fn describe(self) -> &'static str {
        match self {
            CrashPoint::JobEnqueued => "driver hands the job to the writer backend",
            CrashPoint::BackupInvalidate => "double-backup target meta invalidated",
            CrashPoint::BackupWriteObject => "mid object write into the backup image (torn)",
            CrashPoint::BackupCommit => "mid 16-byte meta commit, unsynced (torn)",
            CrashPoint::LogAppendObject => "mid object record append to an open segment (torn)",
            CrashPoint::LogSegmentSealed => "segment sealed but unsynced (torn tail)",
            CrashPoint::JobSubmitted => "submit_job done: staged, nothing committed",
            CrashPoint::CompleteBeforeSync => "complete_job entry, before the data sync",
            CrashPoint::CompleteBeforeCommit => "after data sync, before the meta/log commit",
            CrashPoint::SchedulerCommitSeam => "scheduler seam between sync phase and completions",
            CrashPoint::DeviceBarrier => "before the syncfs-style device barrier",
            CrashPoint::UringWaveStaged => "uring wave staged, about to push SQEs",
            CrashPoint::UringWaveComplete => "uring wave reaped and accounted",
            CrashPoint::ReplicaPushPreCommit => {
                "replica push opened, mirrors invalid, not committed"
            }
            CrashPoint::ReplicaPushPostCommit => {
                "checkpoint committed and delta published to mirrors"
            }
            CrashPoint::ReplicaFetch => "recovery-time replica fetch attempt (peer death)",
            CrashPoint::RecoveryReadImage => "re-crash after the restore image was read",
            CrashPoint::RecoveryReplayTick => "re-crash mid tail replay (one reach per tick)",
            CrashPoint::ReplicaFetchMid => "peer death mid mirror transfer (next mirror tried)",
        }
    }

    /// The durability phase the point sits in, for grouped listings.
    #[must_use]
    pub fn phase(self) -> CrashPhase {
        match self {
            CrashPoint::JobEnqueued
            | CrashPoint::BackupInvalidate
            | CrashPoint::BackupWriteObject
            | CrashPoint::LogAppendObject
            | CrashPoint::LogSegmentSealed
            | CrashPoint::JobSubmitted
            | CrashPoint::UringWaveStaged => CrashPhase::Submit,
            CrashPoint::BackupCommit
            | CrashPoint::CompleteBeforeSync
            | CrashPoint::CompleteBeforeCommit
            | CrashPoint::SchedulerCommitSeam
            | CrashPoint::DeviceBarrier
            | CrashPoint::UringWaveComplete
            | CrashPoint::ReplicaPushPreCommit
            | CrashPoint::ReplicaPushPostCommit => CrashPhase::Complete,
            CrashPoint::ReplicaFetch
            | CrashPoint::RecoveryReadImage
            | CrashPoint::RecoveryReplayTick
            | CrashPoint::ReplicaFetchMid => CrashPhase::Recovery,
        }
    }

    /// True for the points consulted *during recovery* rather than
    /// during the run: they never freeze the disk — firing makes the
    /// recovery attempt fail (or skip a mirror) and a restarted
    /// attempt must succeed.
    #[must_use]
    pub fn is_recovery_point(self) -> bool {
        self.phase() == CrashPhase::Recovery
    }

    /// Human-readable compatibility set: the run shapes under which
    /// the point can be reached at all (`mmoc-fuzz --list-points`
    /// prints this next to the reach counts so the grown lattice
    /// stays auditable).
    #[must_use]
    pub fn compat(self) -> &'static str {
        match self {
            CrashPoint::JobEnqueued
            | CrashPoint::CompleteBeforeSync
            | CrashPoint::CompleteBeforeCommit => "any backend, any algorithm",
            CrashPoint::BackupInvalidate | CrashPoint::BackupCommit => {
                "double-backup algorithms, any backend"
            }
            CrashPoint::BackupWriteObject => "double-backup algorithms, pool/batched backends",
            CrashPoint::LogAppendObject | CrashPoint::LogSegmentSealed => {
                "log algorithms, pool/batched backends"
            }
            CrashPoint::JobSubmitted => "pool/batched backends",
            CrashPoint::SchedulerCommitSeam => "batched/uring backends",
            CrashPoint::DeviceBarrier => {
                "batched/uring backends, multi-shard, device-sync + coalescing on"
            }
            CrashPoint::UringWaveStaged | CrashPoint::UringWaveComplete => {
                "io-uring backend (ring actually running); also takes ring-death"
            }
            CrashPoint::ReplicaPushPreCommit | CrashPoint::ReplicaPushPostCommit => {
                "replication >= 1"
            }
            CrashPoint::ReplicaFetch => "replication >= 1, recovery-time (hit <= mirrors tried)",
            CrashPoint::RecoveryReadImage | CrashPoint::RecoveryReplayTick => {
                "recovery-time, any algorithm (disk or replica path)"
            }
            CrashPoint::ReplicaFetchMid => "replication >= 1, recovery-time",
        }
    }
}

/// The durability phase a [`CrashPoint`] belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPhase {
    /// Submission: data writes staged, nothing durable yet.
    Submit,
    /// Completion: durability points, commits, replica publishes.
    Complete,
    /// Recovery: consulted while restoring, not while running.
    Recovery,
}

impl CrashPhase {
    /// Stable display label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            CrashPhase::Submit => "submit",
            CrashPhase::Complete => "complete",
            CrashPhase::Recovery => "recovery",
        }
    }
}

/// What happens when the armed point fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashAction {
    /// Freeze the disk as a process kill would: apply the site's
    /// partial/torn effect, then suppress every later disk mutation.
    Crash,
    /// Latch the io_uring dead flag mid-batch *without* crashing, so
    /// the synchronous redo path has to finish the batch. Only
    /// meaningful on the uring points.
    RingDeath,
}

impl CrashAction {
    /// Stable spec name (`crash` / `ring-death`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            CrashAction::Crash => "crash",
            CrashAction::RingDeath => "ring-death",
        }
    }
}

/// A fully specified crash: which point, on which reach, how torn,
/// and what to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashPlan {
    /// The phase boundary to fire at.
    pub point: CrashPoint,
    /// 1-based reach index at which the point fires (1 = first time
    /// any thread reaches it).
    pub hit: u64,
    /// Torn-write byte budget for the sites that support partial
    /// effects: how many bytes of the interrupted write survive (or,
    /// for `LogSegmentSealed`, how many tail bytes are truncated).
    pub torn: u64,
    /// What firing does.
    pub action: CrashAction,
}

impl CrashPlan {
    /// A plan that crashes at `point`'s first reach with no torn bytes.
    #[must_use]
    pub fn at(point: CrashPoint) -> CrashPlan {
        CrashPlan {
            point,
            hit: 1,
            torn: 0,
            action: CrashAction::Crash,
        }
    }

    /// Render as the canonical `point:hit:torn:action` spec string,
    /// re-parseable by [`plan_spec`].
    #[must_use]
    pub fn spec(&self) -> String {
        format!(
            "{}:{}:{}:{}",
            self.point.name(),
            self.hit,
            self.torn,
            self.action.name()
        )
    }
}

/// Parse a crash-plan spec (the `crash=` axis of `mmoc-fuzz --case`).
///
/// Format: `point[:hit[:torn[:action]]]` — e.g. `backup-commit`,
/// `log-segment-sealed:2:5`, `uring-wave-staged:1:0:ring-death`.
///
/// # Errors
/// Returns a message naming the bad field; callers surface it as a
/// typed configuration error.
pub fn plan_spec(spec: &str) -> Result<CrashPlan, String> {
    let mut parts = spec.split(':');
    let point = CrashPoint::parse(parts.next().unwrap_or(""))?;
    let mut plan = CrashPlan::at(point);
    if let Some(hit) = parts.next() {
        plan.hit = hit
            .parse::<u64>()
            .ok()
            .filter(|&h| h >= 1)
            .ok_or_else(|| format!("bad hit index `{hit}` (want an integer >= 1)"))?;
    }
    if let Some(torn) = parts.next() {
        plan.torn = torn
            .parse::<u64>()
            .map_err(|_| format!("bad torn byte count `{torn}` (want an integer)"))?;
    }
    if let Some(action) = parts.next() {
        plan.action = match action {
            "crash" => CrashAction::Crash,
            "ring-death" => CrashAction::RingDeath,
            other => return Err(format!("unknown crash action `{other}`")),
        };
    }
    if let Some(extra) = parts.next() {
        return Err(format!("trailing spec field `{extra}`"));
    }
    Ok(plan)
}

/// Per-run crash state: the (optional) armed plan plus per-point
/// reach counters and the fired / down latches.
///
/// One `Arc<CrashState>` is shared by every shard of a run, because a
/// simulated crash is process-wide: once any site fires, all shards'
/// disks freeze together.
#[derive(Debug, Default)]
pub struct CrashState {
    plan: Option<CrashPlan>,
    reached: [AtomicU64; N_POINTS],
    fired: AtomicBool,
    down: AtomicBool,
}

impl CrashState {
    /// A disarmed state that only counts reaches (coverage tracking).
    #[must_use]
    pub fn tracking() -> CrashState {
        CrashState::default()
    }

    /// A state armed with `plan`.
    #[must_use]
    pub fn armed(plan: CrashPlan) -> CrashState {
        CrashState {
            plan: Some(plan),
            ..CrashState::default()
        }
    }

    /// The armed plan, if any.
    #[must_use]
    pub fn plan(&self) -> Option<CrashPlan> {
        self.plan
    }

    /// Record that execution reached `point`. Returns the plan when
    /// this reach is the armed point's firing hit — exactly once per
    /// run; the caller applies the site-specific effect and, for
    /// [`CrashAction::Crash`], calls [`CrashState::go_down`].
    pub fn reach(&self, point: CrashPoint) -> Option<CrashPlan> {
        let n = self.reached[point as usize].fetch_add(1, Ordering::AcqRel) + 1;
        let plan = self.plan?;
        if plan.point == point && n == plan.hit && !self.fired.swap(true, Ordering::AcqRel) {
            return Some(plan);
        }
        None
    }

    /// Latch the simulated-kill flag: all instrumented disk mutations
    /// after this instant are suppressed.
    pub fn go_down(&self) {
        self.down.store(true, Ordering::Release);
    }

    /// True once the simulated kill happened — the disk is frozen.
    #[must_use]
    pub fn is_down(&self) -> bool {
        self.down.load(Ordering::Acquire)
    }

    /// True once the armed point has fired.
    #[must_use]
    pub fn fired(&self) -> bool {
        self.fired.load(Ordering::Acquire)
    }

    /// How many times `point` was reached so far.
    #[must_use]
    pub fn reach_count(&self, point: CrashPoint) -> u64 {
        self.reached[point as usize].load(Ordering::Acquire)
    }

    /// Reach counts for all points, in registry order.
    #[must_use]
    pub fn counts(&self) -> [u64; N_POINTS] {
        let mut out = [0u64; N_POINTS];
        for (slot, ctr) in out.iter_mut().zip(&self.reached) {
            *slot = ctr.load(Ordering::Acquire);
        }
        out
    }
}

/// Whether the io_uring writer backend can actually run on this
/// kernel. Re-exported for the fuzzer's coverage accounting (the
/// `uring-*` points are exempt from the must-fire assertion when the
/// ring is unavailable and every io-uring case fell back).
#[must_use]
pub fn ring_available() -> bool {
    crate::uring::ring_available()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_and_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for p in ALL_POINTS {
            assert!(seen.insert(p.name()), "duplicate name {}", p.name());
            assert_eq!(CrashPoint::parse(p.name()).unwrap(), p);
            assert_eq!(
                ALL_POINTS[p as usize], p,
                "registry order matches discriminant"
            );
        }
        assert!(CrashPoint::parse("no-such-point").is_err());
    }

    #[test]
    fn every_point_has_a_phase_and_compat_set() {
        let mut recovery = 0;
        for p in ALL_POINTS {
            assert!(!p.compat().is_empty());
            assert!(!p.phase().label().is_empty());
            if p.is_recovery_point() {
                recovery += 1;
                assert_eq!(p.phase(), CrashPhase::Recovery);
            }
        }
        assert_eq!(recovery, 4, "replica-fetch + the three PR-10 points");
        assert_eq!(CrashPoint::RecoveryReadImage.phase(), CrashPhase::Recovery);
        assert_eq!(CrashPoint::JobSubmitted.phase(), CrashPhase::Submit);
        assert_eq!(CrashPoint::BackupCommit.phase(), CrashPhase::Complete);
    }

    #[test]
    fn plan_specs_parse_and_round_trip() {
        let p = plan_spec("backup-commit").unwrap();
        assert_eq!(p, CrashPlan::at(CrashPoint::BackupCommit));
        let p = plan_spec("log-segment-sealed:2:5").unwrap();
        assert_eq!(p.hit, 2);
        assert_eq!(p.torn, 5);
        assert_eq!(p.action, CrashAction::Crash);
        let p = plan_spec("uring-wave-staged:1:0:ring-death").unwrap();
        assert_eq!(p.action, CrashAction::RingDeath);
        assert_eq!(plan_spec(&p.spec()).unwrap(), p);
        for bad in [
            "",
            "bogus",
            "backup-commit:0",
            "backup-commit:x",
            "backup-commit:1:y",
            "backup-commit:1:0:explode",
            "backup-commit:1:0:crash:extra",
        ] {
            assert!(plan_spec(bad).is_err(), "spec `{bad}` must be rejected");
        }
    }

    #[test]
    fn armed_state_fires_exactly_once_at_the_hit_index() {
        let s = CrashState::armed(CrashPlan {
            point: CrashPoint::JobSubmitted,
            hit: 3,
            torn: 7,
            action: CrashAction::Crash,
        });
        assert!(s.reach(CrashPoint::JobSubmitted).is_none());
        assert!(s.reach(CrashPoint::CompleteBeforeSync).is_none());
        assert!(s.reach(CrashPoint::JobSubmitted).is_none());
        let fired = s
            .reach(CrashPoint::JobSubmitted)
            .expect("third reach fires");
        assert_eq!(fired.torn, 7);
        assert!(s.fired());
        assert!(!s.is_down(), "down is the caller's move");
        s.go_down();
        assert!(s.is_down());
        assert!(
            s.reach(CrashPoint::JobSubmitted).is_none(),
            "never re-fires"
        );
        assert_eq!(s.reach_count(CrashPoint::JobSubmitted), 4);
        assert_eq!(s.reach_count(CrashPoint::CompleteBeforeSync), 1);
    }

    #[test]
    fn tracking_state_only_counts() {
        let s = CrashState::tracking();
        for _ in 0..5 {
            assert!(s.reach(CrashPoint::DeviceBarrier).is_none());
        }
        assert!(!s.fired());
        assert!(!s.is_down());
        let counts = s.counts();
        assert_eq!(counts[CrashPoint::DeviceBarrier as usize], 5);
        assert_eq!(counts.iter().sum::<u64>(), 5);
    }
}
