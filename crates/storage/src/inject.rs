//! Fault injection: one registry of named sites in the storage engine,
//! one plan grammar, and one per-run state the sites consult.
//!
//! A [`Site`] is a phase boundary of the durability story (where a
//! simulated process kill can land) or a syscall seam (where a transient
//! I/O error can be returned); its [`Reach`] states the run shapes that
//! can visit it at all. A [`Plan`] names a site, the 1-based reach at
//! which it takes effect, and the [`Effect`]:
//!
//! * [`Effect::Crash`] — the site applies its partial effect (`torn`
//!   bytes of the interrupted write survive) and latches
//!   [`Inject::go_down`]: every later instrumented disk mutation no-ops
//!   while completions still acknowledge, so the run finishes over the
//!   directory a kill would have left. At the recovery-phase sites
//!   firing aborts the recovery attempt (or skips a mirror) instead.
//! * [`Effect::Transient`] — fail `burst` consecutive reaches with
//!   `kind`'s error. Every instrumented operation is positionally
//!   idempotent, so the writer's [`RetryPolicy`] absorbs a burst within
//!   its budget.
//!
//! The plans live in a per-run [`Inject`] threaded through `RealConfig`
//! (never a process global, so parallel tests cannot arm each other);
//! disarmed, every site is one `Option` check on a `None` handle.

use mmoc_core::{DiskOrg, WriterBackend};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

/// Number of registered sites.
const N: usize = 23;

/// A named injection site. The discriminant order is stable and indexes
/// [`Inject`]'s reach counters; new sites append at the end.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // each variant is documented by its registry row
pub enum Site {
    JobEnqueued = 0,
    BackupInvalidate = 1,
    BackupWriteObject = 2,
    BackupCommit = 3,
    LogAppendObject = 4,
    LogSegmentSealed = 5,
    JobSubmitted = 6,
    CompleteBeforeSync = 7,
    CompleteBeforeCommit = 8,
    SchedulerCommitSeam = 9,
    DeviceBarrier = 10,
    ReplicaPushPreCommit = 11,
    ReplicaPushPostCommit = 12,
    ReplicaFetch = 13,
    RecoveryReadImage = 14,
    RecoveryReplayTick = 15,
    ReplicaFetchMid = 16,
    BackupWrite = 17,
    BackupSync = 18,
    BackupCommitMeta = 19,
    LogAppend = 20,
    LogSync = 21,
    ImageRead = 22,
}

/// The durability phase a [`Site`] sits in, for grouped listings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Submission: data writes issued, nothing durable yet.
    Submit,
    /// Completion: durability points, commits, replica publishes.
    Complete,
    /// Recovery: consulted while restoring, not while running.
    Recovery,
}

impl Phase {
    /// Stable display label.
    pub fn label(self) -> &'static str {
        ["submit", "complete", "recovery"][self as usize]
    }
}

/// One registry row: everything the spec grammar, `mmoc-fuzz
/// --list-points` and the sampler know about a site.
struct Row {
    site: Site,
    name: &'static str,
    phase: Phase,
    /// Effect names the site accepts; the first is the spec default.
    effects: &'static [&'static str],
    describe: &'static str,
    reach: Reach,
}

/// The run shapes under which a site can be reached at all — the one
/// statement the fuzz sampler, shrinker, oracle and coverage check read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reach {
    /// The disk organization that consults the site (`None`: either).
    pub org: Option<DiskOrg>,
    /// The writer backends whose loop consults it.
    pub backends: &'static [WriterBackend],
    /// Only with the replica tier on (replication >= 1).
    pub replicas: bool,
    /// Only when several same-device files meet in one coalesced round:
    /// multi-shard, device sync and coalescing on, and a batch window.
    pub barrier: bool,
    /// How many reaches one run offers.
    pub hits: Hits,
}

/// How many reaches of a site one run offers: the bound on a plan's
/// hit index that the sampler draws within.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Hits {
    /// Once per checkpoint, round or write; the sampler draws 1..=3.
    Many,
    /// At most once per shard restore.
    PerShard,
    /// At most `n` in one restore pass.
    Upto(u64),
}

impl Reach {
    /// Whether a run of `org` on `backend` with `replication` mirrors
    /// can reach the site (the barrier shape aside).
    pub fn admits(&self, org: DiskOrg, backend: WriterBackend, replication: u32) -> bool {
        self.org.is_none_or(|o| o == org)
            && self.backends.contains(&backend)
            && (replication > 0 || !self.replicas)
    }
}

impl std::fmt::Display for Reach {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let org = self.org.map_or("any org".to_string(), |o| format!("{o:?}"));
        let backends: Vec<_> = self.backends.iter().map(|b| b.label()).collect();
        let backends = backends.join("/");
        let replicas = if self.replicas { ", replicas" } else { "" };
        let barrier = if self.barrier { ", barrier round" } else { "" };
        write!(
            f,
            "{org}, {backends}{replicas}{barrier}, hits {:?}",
            self.hits
        )
    }
}

const CRASH: &[&str] = &["crash"];
const TRANSIENT: &[&str] = &["eio", "enospc", "short-write"];

/// The registry, in discriminant order.
#[rustfmt::skip]
#[allow(clippy::enum_glob_use)] // every variant is named once, here
const TABLE: [Row; N] = {
    use Hits::{PerShard, Upto};
    use Phase::{Complete, Recovery, Submit};
    use Site::*;
    use WriterBackend::AsyncBatched;
    const ANY: Reach = Reach { org: None, backends: &WriterBackend::ALL, replicas: false,
                               barrier: false, hits: Hits::Many };
    const DOUBLE: Reach = Reach { org: Some(DiskOrg::DoubleBackup), ..ANY };
    const LOG: Reach = Reach { org: Some(DiskOrg::Log), ..ANY };
    const REPLICAS: Reach = Reach { replicas: true, ..ANY };
    [
        Row { site: JobEnqueued, name: "job-enqueued", phase: Submit, effects: CRASH,
              describe: "driver hands the job to the writer backend", reach: ANY },
        Row { site: BackupInvalidate, name: "backup-invalidate", phase: Submit, effects: CRASH,
              describe: "double-backup target meta invalidated", reach: DOUBLE },
        Row { site: BackupWriteObject, name: "backup-write-object", phase: Submit, effects: CRASH,
              describe: "mid object write into the backup image (torn)", reach: DOUBLE },
        Row { site: BackupCommit, name: "backup-commit", phase: Complete, effects: CRASH,
              describe: "mid 16-byte meta commit, unsynced (torn)", reach: DOUBLE },
        Row { site: LogAppendObject, name: "log-append-object", phase: Submit, effects: CRASH,
              describe: "mid object record append to an open segment (torn)", reach: LOG },
        Row { site: LogSegmentSealed, name: "log-segment-sealed", phase: Submit, effects: CRASH,
              describe: "segment sealed but unsynced (torn tail)", reach: LOG },
        Row { site: JobSubmitted, name: "job-submitted", phase: Submit, effects: CRASH,
              describe: "submit_job done: written, nothing committed", reach: ANY },
        Row { site: CompleteBeforeSync, name: "complete-before-sync", phase: Complete,
              effects: CRASH, describe: "complete_job entry, the scheduler's data sync issued",
              reach: ANY },
        Row { site: CompleteBeforeCommit, name: "complete-before-commit", phase: Complete,
              effects: CRASH, describe: "after data sync, before the meta/log commit", reach: ANY },
        Row { site: SchedulerCommitSeam, name: "scheduler-commit-seam", phase: Complete,
              effects: CRASH, describe: "scheduler seam between sync phase and completions",
              reach: ANY },
        // The default pool gives each of 4 shards its own loop, so no
        // pool loop syncs two files on one device: only the one loop
        // over every shard does.
        Row { site: DeviceBarrier, name: "device-barrier", phase: Complete, effects: CRASH,
              describe: "before the syncfs-style device barrier",
              reach: Reach { backends: &[AsyncBatched], barrier: true, ..ANY } },
        Row { site: ReplicaPushPreCommit, name: "replica-push-pre-commit", phase: Complete,
              effects: CRASH, describe: "replica push opened, mirrors invalid, not committed",
              reach: REPLICAS },
        Row { site: ReplicaPushPostCommit, name: "replica-push-post-commit", phase: Complete,
              effects: CRASH, describe: "checkpoint committed and delta published to mirrors",
              reach: REPLICAS },
        // Recovery stops at the first surviving copy: one attempt per shard.
        Row { site: ReplicaFetch, name: "replica-fetch", phase: Recovery, effects: CRASH,
              describe: "recovery-time replica fetch attempt (peer death)",
              reach: Reach { hits: PerShard, ..REPLICAS } },
        Row { site: RecoveryReadImage, name: "recovery-read-image", phase: Recovery,
              effects: CRASH, describe: "re-crash after the restore image was read",
              reach: Reach { hits: PerShard, ..ANY } },
        // A checkpoint can land on the last tick, so the tail may be short.
        Row { site: RecoveryReplayTick, name: "recovery-replay-tick", phase: Recovery,
              effects: CRASH, describe: "re-crash mid tail replay (one reach per tick)",
              reach: Reach { hits: Upto(2), ..ANY } },
        // A mid-fetch death consumes the mirror attempt it interrupts.
        Row { site: ReplicaFetchMid, name: "replica-fetch-mid", phase: Recovery, effects: CRASH,
              describe: "peer death mid mirror transfer (next mirror tried)",
              reach: Reach { hits: Upto(1), ..REPLICAS } },
        Row { site: BackupWrite, name: "backup-write", phase: Submit, effects: TRANSIENT,
              describe: "positional data write into a backup image (one per issued write)",
              reach: DOUBLE },
        Row { site: BackupSync, name: "backup-sync", phase: Complete, effects: TRANSIENT,
              describe: "data fsync of a backup image file", reach: DOUBLE },
        Row { site: BackupCommitMeta, name: "backup-commit-meta", phase: Complete,
              effects: TRANSIENT, describe: "16-byte meta commit (write + sync)", reach: DOUBLE },
        Row { site: LogAppend, name: "log-append", phase: Submit, effects: TRANSIENT,
              describe: "whole-segment append, before any byte lands", reach: LOG },
        Row { site: LogSync, name: "log-sync", phase: Complete, effects: TRANSIENT,
              describe: "data fsync of the checkpoint log", reach: LOG },
        Row { site: ImageRead, name: "image-read", phase: Recovery, effects: TRANSIENT,
              describe: "recovery-time image read / log reconstruction", reach: ANY },
    ]
};

impl Site {
    /// Every registered site, in registry (discriminant) order.
    pub fn all() -> impl Iterator<Item = Site> {
        TABLE.iter().map(|row| row.site)
    }

    fn row(self) -> &'static Row {
        &TABLE[self as usize]
    }

    /// Stable kebab-case name, used by specs, reproducer lines and
    /// `mmoc-fuzz --list-points`.
    pub fn name(self) -> &'static str {
        self.row().name
    }

    /// One-line description of the site, for `--list-points`.
    pub fn describe(self) -> &'static str {
        self.row().describe
    }

    /// The run shapes under which the site can be reached at all.
    pub fn reach(self) -> Reach {
        self.row().reach
    }

    /// The durability phase the site sits in.
    pub fn phase(self) -> Phase {
        self.row().phase
    }

    /// The effect names this site accepts, the spec default first.
    pub fn effects(self) -> &'static [&'static str] {
        self.row().effects
    }

    /// Whether the site takes [`Effect::Crash`] — the sites a fuzz
    /// case's crash plan arms.
    pub fn accepts_crash(self) -> bool {
        self.effects().contains(&"crash")
    }
}

/// The transient error a [`Effect::Transient`] plan injects. The
/// discriminant indexes the transient sites' accepted effect names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `EIO` — a generic device error.
    Eio,
    /// `ENOSPC` — the device is (momentarily) out of space.
    Enospc,
    /// A short write: a prefix of the payload lands, then the call
    /// errors (`WriteZero`); the retry overwrites the prefix. At non-write
    /// sites this behaves like `Eio`.
    ShortWrite,
}

impl Kind {
    /// Every kind, for samplers.
    pub const ALL: [Kind; 3] = [Kind::Eio, Kind::Enospc, Kind::ShortWrite];

    /// Stable spec name (`eio` / `enospc` / `short-write`).
    pub fn name(self) -> &'static str {
        TRANSIENT[self as usize]
    }

    /// The `io::Error` this kind injects.
    pub fn to_error(self) -> std::io::Error {
        match self {
            Kind::ShortWrite => std::io::Error::new(
                std::io::ErrorKind::WriteZero,
                "injected short write (transient failpoint)",
            ),
            Kind::Eio => std::io::Error::from_raw_os_error(5), // EIO
            Kind::Enospc => std::io::Error::from_raw_os_error(28), // ENOSPC
        }
    }
}

/// What a plan does when its site takes effect.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Effect {
    /// Freeze the disk as a process kill would. `torn` is the byte
    /// budget of the interrupted write at the sites that tear one (how
    /// many bytes survive, or for `log-segment-sealed` how many tail
    /// bytes are cut).
    Crash {
        /// Torn-write byte budget.
        torn: u64,
    },
    /// Fail `burst` consecutive reaches with `kind`'s error.
    Transient {
        /// The error to inject.
        kind: Kind,
        /// Consecutive failing reaches, starting at the plan's hit.
        burst: u64,
    },
}

impl Effect {
    /// Stable spec name: `crash`, or the kind's name.
    pub fn name(self) -> &'static str {
        match self {
            Effect::Crash { .. } => "crash",
            Effect::Transient { kind, .. } => kind.name(),
        }
    }
}

/// A fully specified injection: which site, on which reach, doing what.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Plan {
    /// The site to inject at.
    pub site: Site,
    /// 1-based reach index at which the plan takes effect (1 = the
    /// first time any thread reaches the site).
    pub hit: u64,
    /// What happens there.
    pub effect: Effect,
}

impl Plan {
    /// `site`'s default plan: first reach, first accepted effect, no
    /// torn bytes or a one-reach burst.
    pub fn at(site: Site) -> Plan {
        Plan::parse(site.name()).expect("every site has a default effect")
    }

    /// Parse a spec of the form `site[:hit[:effect[:n]]]`, where `n` is
    /// the torn byte count of `crash` and the burst length of a transient
    /// kind — e.g. `backup-commit`, `log-segment-sealed:2:crash:5`,
    /// `backup-write:1:short-write:3`.
    ///
    /// # Errors
    /// Returns a message naming the bad field, including an effect the
    /// site does not accept.
    pub fn parse(spec: &str) -> Result<Plan, String> {
        let mut parts = spec.split(':');
        let name = parts.next().unwrap_or("");
        let site = Site::all()
            .find(|s| s.name() == name)
            .ok_or_else(|| format!("unknown injection site `{name}`"))?;
        let hit = parts.next().map_or(Ok(1), |h| {
            h.parse::<u64>()
                .ok()
                .filter(|&h| h >= 1)
                .ok_or_else(|| format!("bad hit index `{h}` (want an integer >= 1)"))
        })?;
        let name = parts.next().unwrap_or(site.effects()[0]);
        if !site.effects().contains(&name) {
            return Err(format!(
                "`{}` does not accept effect `{name}` (accepts {})",
                site.name(),
                site.effects().join(", ")
            ));
        }
        let n = parts
            .next()
            .map(|n| n.parse::<u64>().map_err(|_| format!("bad count `{n}`")))
            .transpose()?;
        if let Some(extra) = parts.next() {
            return Err(format!("trailing spec field `{extra}`"));
        }
        let effect = match (name, n) {
            ("crash", n) => Effect::Crash {
                torn: n.unwrap_or(0),
            },
            (_, Some(0)) => return Err("bad burst length `0` (want >= 1)".to_string()),
            (kind, n) => Effect::Transient {
                kind: Kind::ALL[TRANSIENT.iter().position(|k| *k == kind).expect("a kind")],
                burst: n.unwrap_or(1),
            },
        };
        Ok(Plan { site, hit, effect })
    }

    /// Render as the canonical spec string, re-parseable by
    /// [`Plan::parse`].
    pub fn spec(&self) -> String {
        let (Effect::Crash { torn: n } | Effect::Transient { burst: n, .. }) = self.effect;
        format!(
            "{}:{}:{}:{n}",
            self.site.name(),
            self.hit,
            self.effect.name()
        )
    }
}

/// Per-run injection state: at most one crash plan and one transient
/// schedule — the two layers a fuzz case
/// combines — plus one reach counter per site, the fired and down
/// latches, and the injected-fault tally.
///
/// One `Arc<Inject>` is shared by every shard of a run, because a
/// simulated crash is process-wide: once any site fires, all shards'
/// disks freeze together.
#[derive(Debug, Default)]
pub struct Inject {
    terminal: Option<Plan>,
    transient: Option<Plan>,
    reached: [AtomicU64; N],
    fired: AtomicBool,
    down: AtomicBool,
    injected: AtomicU64,
}

impl Inject {
    /// A disarmed state that only counts reaches (coverage tracking).
    pub fn tracking() -> Inject {
        Inject::default()
    }

    /// A state armed with `plans`: at most one terminal and one
    /// transient plan.
    ///
    /// # Panics
    /// On two plans of one layer, or a plan whose site does not accept
    /// its effect (a spec parsed by [`Plan::parse`] never does).
    pub fn armed(plans: impl IntoIterator<Item = Plan>) -> Inject {
        let mut state = Inject::default();
        for plan in plans {
            assert!(
                plan.site.effects().contains(&plan.effect.name()),
                "`{}` does not accept its site",
                plan.spec()
            );
            let layer = match plan.effect {
                Effect::Transient { .. } => &mut state.transient,
                _ => &mut state.terminal,
            };
            assert!(layer.replace(plan).is_none(), "two plans of one layer");
        }
        state
    }

    /// Record that execution reached `site`. Returns the effect when
    /// this reach is armed: a terminal plan exactly once per run, on its
    /// hit (the caller applies the site's partial effect and, for a
    /// crash, calls [`Inject::go_down`]); a transient schedule on every
    /// reach of its burst window `hit ..= hit + burst - 1` (a retry
    /// consults again, so a burst of N is cleared by N retries).
    pub fn consult(&self, site: Site) -> Option<Effect> {
        let n = self.reached[site as usize].fetch_add(1, Ordering::AcqRel) + 1;
        let plan = [self.terminal, self.transient]
            .into_iter()
            .flatten()
            .find(|p| p.site == site)?;
        match plan.effect {
            Effect::Transient { burst, .. } if n >= plan.hit && n - plan.hit < burst => {
                self.injected.fetch_add(1, Ordering::AcqRel);
            }
            Effect::Crash { .. } if n == plan.hit && !self.fired.swap(true, Ordering::AcqRel) => {}
            _ => return None,
        }
        Some(plan.effect)
    }

    /// Latch the simulated-kill flag: all instrumented disk mutations
    /// after this instant are suppressed.
    pub fn go_down(&self) {
        self.down.store(true, Ordering::Release);
    }

    /// True once the simulated kill happened — the disk is frozen.
    pub fn is_down(&self) -> bool {
        self.down.load(Ordering::Acquire)
    }

    /// True once the terminal plan has fired.
    pub fn fired(&self) -> bool {
        self.fired.load(Ordering::Acquire)
    }

    /// Transient faults injected so far.
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::Acquire)
    }

    /// How many times `site` was reached so far.
    pub fn reach_count(&self, site: Site) -> u64 {
        self.reached[site as usize].load(Ordering::Acquire)
    }

    /// Reach counts for all sites, in registry order.
    pub fn counts(&self) -> [u64; N] {
        std::array::from_fn(|i| self.reached[i].load(Ordering::Acquire))
    }
}

/// The error a recovery attempt returns when a recovery-phase site
/// fires: the restoring process died. Callers recognise it by type
/// (`io::Error::get_ref` + `is::<InjectedCrash>()`) and restart the
/// attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectedCrash {
    /// The recovery-phase site that fired.
    pub site: Site,
}

impl std::fmt::Display for InjectedCrash {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "injected re-crash during recovery at {}",
            self.site.name()
        )
    }
}

impl std::error::Error for InjectedCrash {}

/// The writer layer's bounded retry policy for transient I/O faults.
///
/// `max` is the retry budget per operation (0 = no retries: the first
/// error propagates immediately, reproducing the pre-retry engine
/// bit for bit). `backoff` is the base of a linear backoff: attempt
/// `k` sleeps `k × backoff` before re-issuing (zero = spin retry,
/// the test-friendly default).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retry attempts allowed per operation after the first failure.
    pub max: u32,
    /// Linear backoff base between attempts.
    pub backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max: 3,
            backoff: Duration::ZERO,
        }
    }
}

impl RetryPolicy {
    /// No retries: errors propagate on first occurrence (the
    /// historical engine).
    pub fn none() -> RetryPolicy {
        RetryPolicy {
            max: 0,
            backoff: Duration::ZERO,
        }
    }

    /// Run `op`, retrying up to the budget on error with linear
    /// backoff. `counters` accumulates one count per retry *attempt*
    /// and one exhaustion when the budget runs out; threading it
    /// through keeps per-job accounting exact under coalesced
    /// batches.
    pub fn run<T>(
        &self,
        counters: &mut RetryCounters,
        mut op: impl FnMut() -> std::io::Result<T>,
    ) -> std::io::Result<T> {
        let mut attempt = 0u32;
        loop {
            let e = match op() {
                Ok(v) => return Ok(v),
                Err(e) => e,
            };
            if attempt >= self.max {
                // max == 0 is the historical engine: the error propagates
                // without touching the retry books.
                if self.max > 0 {
                    counters.exhausted += 1;
                }
                return Err(e);
            }
            attempt += 1;
            counters.retries += 1;
            if !self.backoff.is_zero() {
                std::thread::sleep(self.backoff * attempt);
            }
        }
    }
}

/// Retry accounting [`RetryPolicy::run`] books into: a recovery's own,
/// or the member of a flush job's `WriterStats`.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RetryCounters {
    /// Retry attempts performed (each re-issue of a failed op).
    pub retries: u64,
    /// Operations whose retry budget ran out (the error propagated
    /// into the degradation ladder).
    pub exhausted: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(spec: &str) -> Plan {
        Plan::parse(spec).unwrap()
    }

    fn transient(kind: Kind, burst: u64) -> Effect {
        Effect::Transient { kind, burst }
    }

    /// Discriminant order is table order, names are unique and parse
    /// back, and every (site, accepted effect) spec round-trips.
    #[test]
    fn names_round_trip_and_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for (i, s) in Site::all().enumerate() {
            assert_eq!(s as usize, i, "registry order matches discriminant");
            assert!(seen.insert(s.name()), "duplicate name {}", s.name());
            assert_eq!(plan(s.name()).site, s);
            assert!(!s.describe().is_empty() && !s.reach().backends.is_empty());
            for e in s.effects() {
                let p = plan(&format!("{}:2:{e}", s.name()));
                assert_eq!((p.site, p.hit, p.effect.name()), (s, 2, *e));
                assert_eq!(plan(&p.spec()), p, "{}", p.spec());
            }
        }
        assert_eq!(seen.len(), N);
        let crash = |s: Site| s.accepts_crash() == ((s as usize) < 17);
        assert!(Site::all().all(crash), "the crash sites are 0-16");
        let recovery = Site::all().filter(|s| s.phase() == Phase::Recovery);
        assert_eq!(recovery.count(), 5, "four re-crash sites + image-read");
        let phases = [
            Site::RecoveryReadImage,
            Site::JobSubmitted,
            Site::BackupCommit,
        ]
        .map(Site::phase);
        assert_eq!(phases, [Phase::Recovery, Phase::Submit, Phase::Complete]);
    }

    #[test]
    fn specs_default_their_fields_and_reject_mismatched_effects() {
        for (spec, hit, effect) in [
            ("backup-commit", 1, Effect::Crash { torn: 0 }),
            ("log-segment-sealed:2:crash:5", 2, Effect::Crash { torn: 5 }),
            ("log-sync:2:enospc", 2, transient(Kind::Enospc, 1)),
            ("backup-write", 1, transient(Kind::Eio, 1)),
            ("log-sync:1:eio:3", 1, transient(Kind::Eio, 3)),
        ] {
            assert_eq!((plan(spec).hit, plan(spec).effect), (hit, effect), "{spec}");
        }
        assert_eq!(plan("backup-commit"), Plan::at(Site::BackupCommit));
        for bad in [
            "",
            "bogus",
            "backup-commit:0",
            "backup-commit:x",
            "backup-commit:1:explode",
            "backup-commit:1:crash:y",
            "backup-commit:1:crash:0:extra",
            "backup-write:1:eio:0",
            "job-submitted:1:ring-death",
            "uring-wave-staged",
            "job-enqueued:1:eio",
            "backup-write:1:crash",
        ] {
            assert!(Plan::parse(bad).is_err(), "spec `{bad}` must be rejected");
        }
        let msg = Plan::parse("job-submitted:1:ring-death").unwrap_err();
        assert!(msg.contains("accepts crash"), "{msg}");
    }

    #[test]
    fn terminal_plan_fires_exactly_once_at_the_hit_index() {
        let s = Inject::armed([plan("job-submitted:3:crash:7")]);
        assert!(s.consult(Site::JobSubmitted).is_none());
        assert!(s.consult(Site::CompleteBeforeSync).is_none());
        assert!(s.consult(Site::JobSubmitted).is_none());
        let fired = s.consult(Site::JobSubmitted);
        assert_eq!(fired, Some(Effect::Crash { torn: 7 }), "third reach fires");
        assert!(s.fired());
        assert!(!s.is_down(), "down is the caller's move");
        s.go_down();
        assert!(s.is_down());
        assert!(s.consult(Site::JobSubmitted).is_none(), "never re-fires");
        assert_eq!(s.reach_count(Site::JobSubmitted), 4);
        assert_eq!(s.reach_count(Site::CompleteBeforeSync), 1);
    }

    /// The burst window `hit ..= hit + burst - 1`, including a burst so
    /// long that `hit + burst` overflows ("fails forever").
    #[test]
    fn transient_schedule_injects_exactly_the_burst_window() {
        let s = Inject::armed([plan("backup-sync:2:enospc:2")]);
        assert!(s.consult(Site::BackupSync).is_none(), "reach 1");
        assert!(s.consult(Site::BackupWrite).is_none(), "other site");
        let enospc = Some(transient(Kind::Enospc, 2));
        assert_eq!(s.consult(Site::BackupSync), enospc, "reach 2 starts it");
        assert_eq!(s.consult(Site::BackupSync), enospc);
        assert!(s.consult(Site::BackupSync).is_none(), "burst cleared");
        assert_eq!((s.injected(), s.reach_count(Site::BackupSync)), (2, 4));
        assert!(!s.fired(), "transient faults never latch");

        let forever = Inject::armed([plan("backup-write:1:eio:18446744073709551615")]);
        for _ in 0..3 {
            assert!(forever.consult(Site::BackupWrite).is_some());
        }
    }

    /// One fuzz case layers a crash plan and a transient schedule.
    #[test]
    fn layers_are_independent_and_tracking_only_counts() {
        let s = Inject::armed([plan("backup-commit"), plan("backup-write")]);
        assert_eq!(s.consult(Site::BackupWrite), Some(transient(Kind::Eio, 1)));
        let crash = Some(Effect::Crash { torn: 0 });
        assert_eq!(s.consult(Site::BackupCommit), crash);
        assert_eq!(s.injected(), 1);
        let t = Inject::tracking();
        for _ in 0..5 {
            assert!(t.consult(Site::DeviceBarrier).is_none());
        }
        assert!(!t.fired() && !t.is_down() && t.injected() == 0);
        assert_eq!(t.counts()[Site::DeviceBarrier as usize], 5);
        assert_eq!(t.counts().iter().sum::<u64>(), 5);
    }

    #[test]
    #[should_panic(expected = "two plans of one layer")]
    fn one_plan_per_layer() {
        let _ = Inject::armed([plan("backup-commit"), plan("job-enqueued")]);
    }

    /// A re-crash is recognised by its type, never by its message text.
    #[test]
    fn injected_crash_is_recognised_by_type() {
        let is_recrash = |e: &std::io::Error| e.get_ref().is_some_and(|r| r.is::<InjectedCrash>());
        let site = Site::RecoveryReadImage;
        let real = std::io::Error::other(InjectedCrash { site });
        let text = std::io::Error::other(real.to_string());
        let msg = "injected re-crash during recovery at recovery-read-image";
        assert_eq!(text.to_string(), msg);
        assert!(is_recrash(&real));
        assert!(!is_recrash(&text), "same text, not the type");
    }

    fn transient_op(s: &Inject, site: Site) -> std::io::Result<u32> {
        match s.consult(site) {
            Some(Effect::Transient { kind, .. }) => Err(kind.to_error()),
            _ => Ok(42),
        }
    }

    /// Retries mask a burst within the budget, exhaustion surfaces the
    /// injected errno and is counted, and a zero budget touches no books.
    #[test]
    fn retry_masks_bursts_within_budget_and_counts_exhaustion() {
        let s = Inject::armed([plan("log-sync:1:eio:2")]);
        let mut c = RetryCounters::default();
        let out = RetryPolicy::default().run(&mut c, || transient_op(&s, Site::LogSync));
        assert_eq!((out.unwrap(), c.retries, c.exhausted), (42, 2, 0));

        let two = RetryPolicy {
            max: 2,
            ..RetryPolicy::default()
        };
        for (kind, errno) in [("eio", 5), ("enospc", 28)] {
            let s = Inject::armed([plan(&format!("backup-write:1:{kind}:10"))]);
            let mut c = RetryCounters::default();
            let out = two.run(&mut c, || transient_op(&s, Site::BackupWrite));
            assert_eq!(out.unwrap_err().raw_os_error(), Some(errno));
            assert_eq!((c.retries, c.exhausted), (2, 1));
        }
        let short = Kind::ShortWrite.to_error();
        assert_eq!(short.kind(), std::io::ErrorKind::WriteZero);

        let mut c = RetryCounters::default();
        let out: std::io::Result<()> = RetryPolicy::none().run(&mut c, || Err(short.kind().into()));
        assert!(out.is_err());
        assert_eq!(c, RetryCounters::default(), "no retry books touched");
    }
}
