//! Transient-fault failpoints: deterministic I/O error injection at the
//! syscall seams, plus the writer's typed retry policy.
//!
//! Where the crash lattice ([`crate::crash`]) models *terminal* faults —
//! a process kill that freezes the disk — this module models the
//! *transient* faults that dominate real serving: an `EIO` that succeeds
//! on retry, an `ENOSPC` burst while the device trims, a short write.
//! The design deliberately mirrors the crash lattice's arm/consult
//! pattern: a seeded [`FaultPlan`] names one [`FaultSite`] (a syscall
//! seam: backup pwrite, backup fsync, meta commit, log append, log
//! fsync, image read, or an io_uring CQE result), the 1-based reach
//! index at which injection starts, the [`FaultKind`] to inject, and a
//! `burst` length — the number of *consecutive* reaches of that site
//! that fail before the fault clears. A per-run [`FaultState`] is
//! threaded through `RealConfig` exactly like `CrashState`; disarmed
//! (production) every consult is one `Option` check.
//!
//! Injection sites only ever *return errors* (after applying a short
//! write's partial effect); they never corrupt unrelated state. Every
//! instrumented operation is positionally idempotent (pwrite at a fixed
//! offset, fsync, whole-segment append checked before any byte lands,
//! whole-image read), so a retry that re-invokes the full operation is
//! always safe. The retry loop itself lives in the writer layer
//! ([`RetryPolicy`], `RealConfig::with_retry`):
//! bounded attempts with linear backoff, per-job retry and exhaustion
//! counters surfaced through `WriterStats`, and a graceful-degradation
//! ladder when the budget runs out (see `crate::writer`).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// A named syscall seam where transient faults can be injected.
///
/// The discriminant order is stable and indexes [`FaultState`]'s
/// per-site reach counters; new sites append at the end.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// A positional data write into a double-backup image file: one
    /// consult per issued write (`BackupSet::write_run`, whatever the
    /// number of objects in the run).
    BackupWrite = 0,
    /// A data `fsync` of a backup image file (`BackupSet::sync`).
    BackupSync = 1,
    /// The 16-byte metadata commit of a double-backup checkpoint
    /// (`BackupSet::commit` — write + sync of the meta file).
    BackupCommit = 2,
    /// A whole-segment append to the checkpoint log (one consult per
    /// segment write, `LogStore::write_segment`; checked before any byte
    /// lands, so a retry rewrites the same bytes at the same offset).
    LogAppend = 3,
    /// A data `fsync` of the checkpoint log (`LogStore::sync`).
    LogSync = 4,
    /// A recovery-time image read (`BackupSet::read_full` /
    /// `LogStore::reconstruct`).
    ImageRead = 5,
    /// An io_uring completion-queue entry's result: the reaped CQE
    /// reports a negative errno for a write that was submitted fine.
    UringCqe = 6,
}

/// Number of registered fault sites.
pub const N_SITES: usize = 7;

/// Every registered fault site, in registry (discriminant) order.
pub const ALL_SITES: [FaultSite; N_SITES] = [
    FaultSite::BackupWrite,
    FaultSite::BackupSync,
    FaultSite::BackupCommit,
    FaultSite::LogAppend,
    FaultSite::LogSync,
    FaultSite::ImageRead,
    FaultSite::UringCqe,
];

impl FaultSite {
    /// Stable kebab-case name, used by reproducer lines and
    /// [`fault_spec`].
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            FaultSite::BackupWrite => "backup-write",
            FaultSite::BackupSync => "backup-sync",
            FaultSite::BackupCommit => "backup-commit-meta",
            FaultSite::LogAppend => "log-append",
            FaultSite::LogSync => "log-sync",
            FaultSite::ImageRead => "image-read",
            FaultSite::UringCqe => "uring-cqe",
        }
    }

    /// Parse a registry name back into its site.
    ///
    /// # Errors
    /// Returns the offending name when it matches no registered site.
    pub fn parse(name: &str) -> Result<FaultSite, String> {
        ALL_SITES
            .iter()
            .copied()
            .find(|s| s.name() == name)
            .ok_or_else(|| format!("unknown fault site `{name}`"))
    }

    /// One-line description of the seam.
    #[must_use]
    pub fn describe(self) -> &'static str {
        match self {
            FaultSite::BackupWrite => "positional data write into a backup image",
            FaultSite::BackupSync => "data fsync of a backup image file",
            FaultSite::BackupCommit => "16-byte meta commit (write + sync)",
            FaultSite::LogAppend => "whole-segment append to the checkpoint log",
            FaultSite::LogSync => "data fsync of the checkpoint log",
            FaultSite::ImageRead => "recovery-time image read / log reconstruction",
            FaultSite::UringCqe => "io_uring CQE result (negative errno)",
        }
    }
}

/// The transient error a firing failpoint injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// `EIO` — a generic device error.
    Eio,
    /// `ENOSPC` — the device is (momentarily) out of space.
    Enospc,
    /// A short write: a prefix of the payload lands, then the call
    /// errors (`WriteZero`). Retrying re-issues the full positional
    /// operation, which overwrites the prefix — idempotent by
    /// construction. At non-write sites this behaves like `Eio`.
    ShortWrite,
}

/// Every fault kind, for samplers.
pub const ALL_KINDS: [FaultKind; 3] = [FaultKind::Eio, FaultKind::Enospc, FaultKind::ShortWrite];

impl FaultKind {
    /// Stable spec name (`eio` / `enospc` / `short-write`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::Eio => "eio",
            FaultKind::Enospc => "enospc",
            FaultKind::ShortWrite => "short-write",
        }
    }

    /// Parse a spec name back into its kind.
    ///
    /// # Errors
    /// Returns the offending name when it matches no kind.
    pub fn parse(name: &str) -> Result<FaultKind, String> {
        ALL_KINDS
            .iter()
            .copied()
            .find(|k| k.name() == name)
            .ok_or_else(|| format!("unknown fault kind `{name}`"))
    }

    /// The `io::Error` this kind injects.
    #[must_use]
    pub fn to_error(self) -> std::io::Error {
        match self {
            FaultKind::Eio => std::io::Error::from_raw_os_error(libc_eio()),
            FaultKind::Enospc => std::io::Error::from_raw_os_error(libc_enospc()),
            FaultKind::ShortWrite => std::io::Error::new(
                std::io::ErrorKind::WriteZero,
                "injected short write (transient failpoint)",
            ),
        }
    }

    /// The raw errno this kind reports through an io_uring CQE
    /// (`-errno` in the CQE's `res` field).
    #[must_use]
    pub fn errno(self) -> i32 {
        match self {
            FaultKind::Eio | FaultKind::ShortWrite => libc_eio(),
            FaultKind::Enospc => libc_enospc(),
        }
    }
}

const fn libc_eio() -> i32 {
    5
}

const fn libc_enospc() -> i32 {
    28
}

/// A fully specified transient-fault schedule: which seam, starting at
/// which reach, injecting what, for how many consecutive reaches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// The syscall seam to inject at.
    pub site: FaultSite,
    /// 1-based reach index at which injection starts.
    pub hit: u64,
    /// The error to inject.
    pub kind: FaultKind,
    /// Consecutive reaches of the site that fail, starting at `hit`.
    /// A burst no larger than the retry budget is masked entirely by
    /// retries; a larger burst exhausts them and takes the
    /// degradation ladder.
    pub burst: u64,
}

impl FaultPlan {
    /// A single `EIO` at `site`'s first reach.
    #[must_use]
    pub fn at(site: FaultSite) -> FaultPlan {
        FaultPlan {
            site,
            hit: 1,
            kind: FaultKind::Eio,
            burst: 1,
        }
    }

    /// Render as the canonical `site:hit:kind:burst` spec string,
    /// re-parseable by [`fault_spec`].
    #[must_use]
    pub fn spec(&self) -> String {
        format!(
            "{}:{}:{}:{}",
            self.site.name(),
            self.hit,
            self.kind.name(),
            self.burst
        )
    }
}

/// Parse a fault-plan spec (the `fault=` axis of `mmoc-fuzz --case`).
///
/// Format: `site[:hit[:kind[:burst]]]` — e.g. `backup-write`,
/// `log-sync:2:enospc`, `backup-write:1:short-write:3`.
///
/// # Errors
/// Returns a message naming the bad field; callers surface it as a
/// typed configuration error.
pub fn fault_spec(spec: &str) -> Result<FaultPlan, String> {
    let mut parts = spec.split(':');
    let site = FaultSite::parse(parts.next().unwrap_or(""))?;
    let mut plan = FaultPlan::at(site);
    if let Some(hit) = parts.next() {
        plan.hit = hit
            .parse::<u64>()
            .ok()
            .filter(|&h| h >= 1)
            .ok_or_else(|| format!("bad hit index `{hit}` (want an integer >= 1)"))?;
    }
    if let Some(kind) = parts.next() {
        plan.kind = FaultKind::parse(kind)?;
    }
    if let Some(burst) = parts.next() {
        plan.burst = burst
            .parse::<u64>()
            .ok()
            .filter(|&b| b >= 1)
            .ok_or_else(|| format!("bad burst length `{burst}` (want an integer >= 1)"))?;
    }
    if let Some(extra) = parts.next() {
        return Err(format!("trailing spec field `{extra}`"));
    }
    Ok(plan)
}

/// Per-run transient-fault state: the (optional) armed plan plus
/// per-site reach counters and the injected-fault tally.
///
/// One `Arc<FaultState>` is shared by every shard of a run (like
/// [`crate::crash::CrashState`]), threaded through `RealConfig` —
/// never a process global, so parallel tests cannot arm each other.
#[derive(Debug, Default)]
pub struct FaultState {
    plan: Option<FaultPlan>,
    reached: [AtomicU64; N_SITES],
    injected: AtomicU64,
}

impl FaultState {
    /// A disarmed state that only counts reaches (coverage tracking).
    #[must_use]
    pub fn tracking() -> FaultState {
        FaultState::default()
    }

    /// A state armed with `plan`.
    #[must_use]
    pub fn armed(plan: FaultPlan) -> FaultState {
        FaultState {
            plan: Some(plan),
            ..FaultState::default()
        }
    }

    /// The armed plan, if any.
    #[must_use]
    pub fn plan(&self) -> Option<FaultPlan> {
        self.plan
    }

    /// Record that execution reached `site`. Returns the kind to
    /// inject when this reach falls inside the armed plan's burst
    /// window (`hit <= reach < hit + burst`); the caller applies any
    /// partial effect and returns the kind's error. A retry consults
    /// the site again, so a burst of N is cleared by N retries.
    pub fn consult(&self, site: FaultSite) -> Option<FaultKind> {
        let n = self.reached[site as usize].fetch_add(1, Ordering::AcqRel) + 1;
        let plan = self.plan?;
        if plan.site == site && n >= plan.hit && n < plan.hit + plan.burst {
            self.injected.fetch_add(1, Ordering::AcqRel);
            return Some(plan.kind);
        }
        None
    }

    /// Faults injected so far.
    #[must_use]
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::Acquire)
    }

    /// How many times `site` was reached so far.
    #[must_use]
    pub fn reach_count(&self, site: FaultSite) -> u64 {
        self.reached[site as usize].load(Ordering::Acquire)
    }
}

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
    #[must_use]
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

    #[test]
    fn names_round_trip_and_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for s in ALL_SITES {
            assert!(seen.insert(s.name()), "duplicate name {}", s.name());
            assert_eq!(FaultSite::parse(s.name()).unwrap(), s);
            assert_eq!(
                ALL_SITES[s as usize], s,
                "registry order matches discriminant"
            );
        }
        assert!(FaultSite::parse("no-such-site").is_err());
        for k in ALL_KINDS {
            assert_eq!(FaultKind::parse(k.name()).unwrap(), k);
        }
    }

    #[test]
    fn fault_specs_parse_and_round_trip() {
        let p = fault_spec("backup-write").unwrap();
        assert_eq!(p, FaultPlan::at(FaultSite::BackupWrite));
        let p = fault_spec("log-sync:2:enospc").unwrap();
        assert_eq!(p.hit, 2);
        assert_eq!(p.kind, FaultKind::Enospc);
        assert_eq!(p.burst, 1);
        let p = fault_spec("backup-write:1:short-write:3").unwrap();
        assert_eq!(p.burst, 3);
        assert_eq!(fault_spec(&p.spec()).unwrap(), p);
        for bad in [
            "",
            "bogus",
            "backup-write:0",
            "backup-write:x",
            "backup-write:1:explode",
            "backup-write:1:eio:0",
            "backup-write:1:eio:2:extra",
        ] {
            assert!(fault_spec(bad).is_err(), "spec `{bad}` must be rejected");
        }
    }

    #[test]
    fn armed_state_injects_exactly_the_burst_window() {
        let s = FaultState::armed(FaultPlan {
            site: FaultSite::BackupSync,
            hit: 2,
            kind: FaultKind::Enospc,
            burst: 2,
        });
        assert!(s.consult(FaultSite::BackupSync).is_none(), "reach 1");
        assert!(s.consult(FaultSite::BackupWrite).is_none(), "other site");
        assert_eq!(
            s.consult(FaultSite::BackupSync),
            Some(FaultKind::Enospc),
            "reach 2 starts the burst"
        );
        assert_eq!(s.consult(FaultSite::BackupSync), Some(FaultKind::Enospc));
        assert!(s.consult(FaultSite::BackupSync).is_none(), "burst cleared");
        assert_eq!(s.injected(), 2);
        assert_eq!(s.reach_count(FaultSite::BackupSync), 4);
    }

    #[test]
    fn injected_errors_carry_the_right_errno() {
        let e = FaultKind::Eio.to_error();
        assert_eq!(e.raw_os_error(), Some(5));
        let e = FaultKind::Enospc.to_error();
        assert_eq!(e.raw_os_error(), Some(28));
        let e = FaultKind::ShortWrite.to_error();
        assert_eq!(e.kind(), std::io::ErrorKind::WriteZero);
    }

    #[test]
    fn retry_masks_bursts_within_budget_and_counts_attempts() {
        let s = FaultState::armed(FaultPlan {
            site: FaultSite::LogSync,
            hit: 1,
            kind: FaultKind::Eio,
            burst: 2,
        });
        let policy = RetryPolicy {
            max: 3,
            backoff: Duration::ZERO,
        };
        let mut c = RetryCounters::default();
        let out = policy.run(&mut c, || match s.consult(FaultSite::LogSync) {
            Some(k) => Err(k.to_error()),
            None => Ok(42),
        });
        assert_eq!(out.unwrap(), 42);
        assert_eq!(c.retries, 2, "two failed reaches, two retries");
        assert_eq!(c.exhausted, 0);
    }

    #[test]
    fn retry_exhaustion_surfaces_the_error_and_counts_it() {
        let s = FaultState::armed(FaultPlan {
            site: FaultSite::BackupWrite,
            hit: 1,
            kind: FaultKind::Eio,
            burst: 10,
        });
        let policy = RetryPolicy {
            max: 2,
            backoff: Duration::ZERO,
        };
        let mut c = RetryCounters::default();
        let out: std::io::Result<()> =
            policy.run(&mut c, || match s.consult(FaultSite::BackupWrite) {
                Some(k) => Err(k.to_error()),
                None => Ok(()),
            });
        assert_eq!(out.unwrap_err().raw_os_error(), Some(5));
        assert_eq!(c.retries, 2);
        assert_eq!(c.exhausted, 1);
    }

    #[test]
    fn zero_budget_is_the_historical_engine() {
        let policy = RetryPolicy::none();
        let mut c = RetryCounters::default();
        let out: std::io::Result<()> =
            policy.run(&mut c, || Err(std::io::Error::other("first failure")));
        assert!(out.is_err());
        assert_eq!(c.retries, 0, "no retry books touched");
        assert_eq!(c.exhausted, 0);
    }

    #[test]
    fn tracking_state_never_injects() {
        let s = FaultState::tracking();
        for _ in 0..5 {
            assert!(s.consult(FaultSite::UringCqe).is_none());
        }
        assert_eq!(s.injected(), 0);
        assert_eq!(s.reach_count(FaultSite::UringCqe), 5);
    }
}
