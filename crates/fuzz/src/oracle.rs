//! Execute one case and judge it against the in-memory oracle.
//!
//! The armed [`CrashState`] freezes the disk at the planned point (every
//! instrumented mutation thereafter is suppressed) while the run itself
//! continues to the end of the trace — completions still acknowledge, so
//! the driver never deadlocks. Afterwards we run the *production*
//! recovery path over the frozen directory, shard by shard, and require
//! the recovered table to equal an oracle built by replaying the full
//! trace in memory. That equality is exactly the paper's consistency
//! contract: recovery anchors at the newest consistent checkpoint at or
//! before the crash instant and deterministically replays forward.
//!
//! Two more fault axes ride on top of the crash plan:
//!
//! - a **transient-fault schedule** ([`FuzzCase::fault`]) armed on the
//!   run's engine *and* on the recovery reads, whose burst the retry
//!   budget must absorb without the oracle noticing;
//! - **recovery-phase crash plans** (the `recovery-*`/`replica-fetch*`
//!   points), armed on a *separate* [`CrashState`] consulted by the
//!   recovery pass itself. An injected re-crash aborts the attempt; the
//!   oracle then restarts recovery from a fresh trace cursor — the
//!   process-restart model — and requires the second attempt to succeed
//!   and still match the in-memory truth.

use mmoc_core::{
    DiskOrg, EngineDetail, Run, ShardFilter, ShardMap, StateGeometry, StateTable, WriterBackend,
};
use mmoc_storage::crash::{CrashState, N_POINTS};
use mmoc_storage::fault::{FaultState, RetryPolicy};
use mmoc_storage::recovery::{
    recover_and_replay_log_with, recover_and_replay_with, recover_from_replica, RecoveryOpts,
};
use mmoc_storage::{shard_dir, RealConfig, ReplicaSet};
use mmoc_workload::{SyntheticConfig, TraceSource};
use std::io;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use crate::case::FuzzCase;

/// What one executed case reported.
#[derive(Debug, Clone)]
pub struct CaseOutcome {
    /// Did the armed crash plan actually fire (run or recovery pass)?
    pub fired: bool,
    /// Did a requested io_uring backend fall back (kernel probe failed)?
    pub fell_back: bool,
    /// Lattice reach counters, registry order — run and recovery-pass
    /// states merged.
    pub counts: [u64; N_POINTS],
    /// Transient faults actually injected by the armed schedule.
    pub faults_injected: u64,
    /// Did an injected re-crash abort a recovery attempt, forcing the
    /// oracle to restart it from a fresh cursor?
    pub recovery_retried: bool,
    /// `None` when recovery matched the oracle on every shard;
    /// otherwise a one-line description of the divergence.
    pub failure: Option<String>,
}

impl CaseOutcome {
    /// True when the case passed (no divergence, no run error).
    #[must_use]
    pub fn ok(&self) -> bool {
        self.failure.is_none()
    }
}

/// The synthetic trace a case runs (pure function of the case).
fn trace_of(case: &FuzzCase) -> SyntheticConfig {
    SyntheticConfig {
        geometry: StateGeometry::test_small(),
        ticks: case.ticks,
        updates_per_tick: case.updates_per_tick,
        skew: case.skew,
        seed: case.trace_seed,
    }
}

/// Ground truth: the state after applying the full trace in memory.
fn truth_of(mut src: impl TraceSource) -> StateTable {
    let mut truth = StateTable::new(src.geometry()).expect("oracle geometry");
    let mut buf = Vec::new();
    while src.next_tick(&mut buf) {
        for &u in &buf {
            truth.apply_unchecked(u);
        }
    }
    truth
}

/// True when `e` is the recovery lattice's injected re-crash (the
/// attempt died mid-restore; a restarted attempt is expected to pass).
fn injected_recrash(e: &io::Error) -> bool {
    e.to_string().contains("injected re-crash during recovery")
}

/// Run one case end to end: execute with the armed lattice, then recover
/// every shard from the frozen directory and compare fingerprints.
#[must_use]
pub fn run_case(case: &FuzzCase) -> CaseOutcome {
    // Recovery-phase plans fire during the oracle's recovery pass, on a
    // separate lattice state: the run's own latch models the *first*
    // process death, this one the re-crash of the restarted process.
    // For the disk-path re-crash points the first death is a generic
    // early freeze (the universally-compatible enqueue boundary), so
    // recovery has a real checkpoint-plus-tail to work through — after
    // a *clean* run the newest checkpoint can cover the whole trace,
    // leaving no replay tick for the re-crash to land on. The replica
    // fetch points instead need the mirrors a completed run publishes,
    // so those cases run clean.
    use mmoc_storage::crash::{CrashAction, CrashPlan, CrashPoint};
    let run_plan = match case.plan.point {
        CrashPoint::RecoveryReadImage | CrashPoint::RecoveryReplayTick => CrashPlan {
            point: CrashPoint::JobEnqueued,
            hit: 1,
            torn: 0,
            action: CrashAction::Crash,
        },
        _ => case.plan,
    };
    let state = Arc::new(CrashState::armed(run_plan));
    let rec_state = case
        .plan
        .point
        .is_recovery_point()
        .then(|| Arc::new(CrashState::armed(case.plan)));
    let fault = case.fault.map(|p| Arc::new(FaultState::armed(p)));
    let mut outcome = CaseOutcome {
        fired: false,
        fell_back: false,
        counts: [0; N_POINTS],
        faults_injected: 0,
        recovery_retried: false,
        failure: None,
    };
    // Merge both lattice states (and the fault tally) into the outcome;
    // called again after the recovery pass, which reaches points the
    // run-time sample cannot see.
    let sample = |outcome: &mut CaseOutcome| {
        // A recovery-phase case "fires" only when its own plan does —
        // the auxiliary mid-run freeze doesn't count toward coverage.
        outcome.fired = match &rec_state {
            Some(rs) => rs.fired(),
            None => state.fired(),
        };
        outcome.counts = state.counts();
        if let Some(rs) = &rec_state {
            for (c, r) in outcome.counts.iter_mut().zip(rs.counts()) {
                *c += r;
            }
        }
        outcome.faults_injected = fault.as_ref().map_or(0, |f| f.injected());
    };
    let dir = match tempfile::tempdir() {
        Ok(d) => d,
        Err(e) => {
            outcome.failure = Some(format!("tempdir: {e}"));
            return outcome;
        }
    };

    let trace = trace_of(case);
    // The shard map is needed up front when the replica tier is on: the
    // mirrors must be retained across the simulated crash (they model
    // *peer* memory, which survives), so the oracle owns the set and
    // hands the run a handle instead of letting it build a private one.
    let map = match ShardMap::new(trace.geometry, case.shards) {
        Ok(m) => m,
        Err(e) => {
            outcome.failure = Some(format!("shard map: {e}"));
            return outcome;
        }
    };
    let replicas = (case.replication > 0).then(|| {
        let geometries: Vec<_> = (0..case.shards as usize)
            .map(|s| map.shard_geometry(s))
            .collect();
        Arc::new(ReplicaSet::new(case.replication, &geometries))
    });
    let mut config = engine_config(case, dir.path(), &state, replicas.as_ref());
    if let Some(f) = &fault {
        config = config.with_fault_state(f.clone());
    }
    let report = Run::algorithm(case.algorithm)
        .engine(config)
        .trace(trace)
        .shards(case.shards)
        .pacing(600.0)
        .execute();

    sample(&mut outcome);
    let report = match report {
        Ok(r) => r,
        Err(e) => {
            outcome.failure = Some(format!("run error: {e}"));
            return outcome;
        }
    };
    if let EngineDetail::Real(d) = &report.detail {
        outcome.fell_back = d.writer_fallback_from.is_some();
    }

    // Per-shard recovery from the frozen directory against the oracle,
    // under the recovery-phase instrumentation: the re-crash lattice,
    // the transient-fault layer on the restore reads, and the case's
    // retry budget. With the replica tier on, each shard is *also*
    // recovered from its peers' mirrors, and the two recovered states
    // must agree byte for byte — the tier is an accelerator, not an
    // alternative history.
    let opts = RecoveryOpts {
        crash: rec_state.clone(),
        fault: fault.clone(),
        retry: RetryPolicy {
            max: case.retry_max,
            backoff: Duration::ZERO,
        },
    };
    let n = case.shards as usize;
    for s in 0..n {
        let sdir = shard_dir(dir.path(), s, n);
        let g = map.shard_geometry(s);
        let recover_disk = |replay: &mut ShardFilter<_>| match case.algorithm.spec().disk_org {
            DiskOrg::DoubleBackup => recover_and_replay_with(&sdir, g, replay, trace.ticks, &opts),
            DiskOrg::Log => recover_and_replay_log_with(&sdir, g, replay, trace.ticks, &opts),
        };
        let mut replay = ShardFilter::new(trace.build(), map.clone(), s);
        let rec = match recover_disk(&mut replay) {
            Ok(r) => r,
            Err(e) if injected_recrash(&e) => {
                // The re-crash consumed the recovery latch. Restart the
                // attempt as a restarted process would: same frozen
                // directory, fresh trace cursor — and it must succeed.
                outcome.recovery_retried = true;
                let mut replay = ShardFilter::new(trace.build(), map.clone(), s);
                match recover_disk(&mut replay) {
                    Ok(r) => r,
                    Err(e) => {
                        outcome.failure =
                            Some(format!("shard {s} recovery failed after a re-crash: {e}"));
                        return outcome;
                    }
                }
            }
            Err(e) => {
                outcome.failure = Some(format!("shard {s} recovery failed: {e}"));
                return outcome;
            }
        };
        let truth = truth_of(ShardFilter::new(trace.build(), map.clone(), s));
        if rec.table.fingerprint() != truth.fingerprint() {
            outcome.failure = Some(format!(
                "shard {s} diverged: recovered from tick {} does not match the oracle",
                rec.from_tick
            ));
            return outcome;
        }
        if let Some(set) = &replicas {
            let mut replay = ShardFilter::new(trace.build(), map.clone(), s);
            let mut via = recover_from_replica(set, s as u32, g, &mut replay, trace.ticks, &opts);
            if let Some(Err(e)) = &via {
                if injected_recrash(e) {
                    // Same restart contract for a replica-path replay
                    // that died mid-tail.
                    outcome.recovery_retried = true;
                    let mut replay = ShardFilter::new(trace.build(), map.clone(), s);
                    via = recover_from_replica(set, s as u32, g, &mut replay, trace.ticks, &opts);
                }
            }
            match via {
                Some(Ok(via)) => {
                    if via.table.fingerprint() != truth.fingerprint() {
                        outcome.failure = Some(format!(
                            "shard {s} replica recovery from tick {} does not match the oracle",
                            via.from_tick
                        ));
                        return outcome;
                    }
                    if via.table.as_bytes() != rec.table.as_bytes() {
                        outcome.failure = Some(format!(
                            "shard {s}: replica-recovered state is not byte-identical to disk"
                        ));
                        return outcome;
                    }
                }
                Some(Err(e)) => {
                    outcome.failure = Some(format!("shard {s} replica recovery failed: {e}"));
                    return outcome;
                }
                // No complete mirror (crash froze a push open, or the
                // planned fetch crash consumed them): disk already won.
                None => {}
            }
        }
    }
    // Recovery-phase reaches (replica fetches, image reads, replay
    // ticks) happen after the run's own counters were sampled —
    // resample so coverage sees them.
    sample(&mut outcome);
    outcome
}

/// The one place a case's knobs become a [`RealConfig`]: every field a
/// case samples is set explicitly, so no `MMOC_*` default leaks in.
fn engine_config(
    case: &FuzzCase,
    dir: &Path,
    state: &Arc<CrashState>,
    replicas: Option<&Arc<ReplicaSet>>,
) -> RealConfig {
    let mut config = RealConfig::new(dir)
        .without_recovery()
        .with_query_ops(48)
        .with_writer_backend(case.backend)
        .with_batch_window(Duration::from_micros(case.batch_window_us))
        .with_fsync_coalescing(case.coalesce)
        .with_device_sync(case.device_sync)
        .with_pipeline_depth(case.pipeline_depth)
        .with_retry(case.retry_max, Duration::ZERO)
        .with_replication(case.replication)
        .with_crash_state(state.clone());
    if let Some(set) = replicas {
        config = config.with_replica_set(set.clone());
    }
    config
}

/// True when this case asked for io_uring — used by the coverage check
/// to excuse ring-only points on kernels without the capability.
#[must_use]
pub fn wants_ring(case: &FuzzCase) -> bool {
    case.backend == WriterBackend::IoUring
}

/// Run a case's configuration with a *tracking* (unarmed) lattice and
/// return the reach counters — `--list-points` uses this to show which
/// points each configuration actually visits. The clean run is followed
/// by a clean recovery pass over its directory (through the same
/// tracking state), so the recovery-phase points report real reaches
/// too.
pub fn tracking_run(case: &FuzzCase) -> Result<[u64; N_POINTS], String> {
    let state = Arc::new(CrashState::tracking());
    let dir = tempfile::tempdir().map_err(|e| format!("tempdir: {e}"))?;
    let trace = trace_of(case);
    let map = ShardMap::new(trace.geometry, case.shards).map_err(|e| format!("shard map: {e}"))?;
    let replicas = (case.replication > 0).then(|| {
        let geometries: Vec<_> = (0..case.shards as usize)
            .map(|s| map.shard_geometry(s))
            .collect();
        Arc::new(ReplicaSet::new(case.replication, &geometries))
    });
    Run::algorithm(case.algorithm)
        .engine(engine_config(case, dir.path(), &state, replicas.as_ref()))
        .trace(trace)
        .shards(case.shards)
        .pacing(600.0)
        .execute()
        .map_err(|e| format!("run error: {e}"))?;
    let opts = RecoveryOpts {
        crash: Some(state.clone()),
        ..RecoveryOpts::default()
    };
    let n = case.shards as usize;
    for s in 0..n {
        let sdir = shard_dir(dir.path(), s, n);
        let g = map.shard_geometry(s);
        let mut replay = ShardFilter::new(trace.build(), map.clone(), s);
        match case.algorithm.spec().disk_org {
            DiskOrg::DoubleBackup => {
                recover_and_replay_with(&sdir, g, &mut replay, trace.ticks, &opts)
            }
            DiskOrg::Log => recover_and_replay_log_with(&sdir, g, &mut replay, trace.ticks, &opts),
        }
        .map_err(|e| format!("shard {s} tracking recovery: {e}"))?;
        if let Some(set) = &replicas {
            let mut replay = ShardFilter::new(trace.build(), map.clone(), s);
            if let Some(Err(e)) =
                recover_from_replica(set, s as u32, g, &mut replay, trace.ticks, &opts)
            {
                return Err(format!("shard {s} tracking replica recovery: {e}"));
            }
        }
    }
    Ok(state.counts())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmoc_core::Algorithm;
    use mmoc_storage::crash::{CrashAction, CrashPlan, CrashPoint};

    /// One smoke case per disk organization runs clean end to end.
    #[test]
    fn smoke_cases_pass() {
        for (alg, point) in [
            (Algorithm::CopyOnUpdate, CrashPoint::BackupCommit),
            (Algorithm::PartialRedo, CrashPoint::LogAppendObject),
        ] {
            let case = FuzzCase {
                algorithm: alg,
                shards: 1,
                backend: WriterBackend::ThreadPool,
                pipeline_depth: 1,
                batch_window_us: 0,
                device_sync: false,
                coalesce: true,
                ticks: 10,
                updates_per_tick: 80,
                skew: 0.8,
                trace_seed: 99,
                replication: 0,
                plan: CrashPlan {
                    point,
                    hit: 1,
                    torn: 11,
                    action: CrashAction::Crash,
                },
                fault: None,
                retry_max: 3,
            };
            let out = run_case(&case);
            assert!(out.ok(), "{}: {:?}", case.spec(), out.failure);
            assert!(out.fired, "{}: plan never fired", case.spec());
        }
    }

    /// The replica lattice points fire and survive the full oracle check:
    /// a push-seam crash leaves the mirrors either invalid (pre-commit)
    /// or published (post-commit), and a fetch crash consumes mirrors at
    /// recovery time — all three must agree with the oracle.
    #[test]
    fn replica_smoke_cases_pass() {
        for (point, replication) in [
            (CrashPoint::ReplicaPushPreCommit, 1),
            (CrashPoint::ReplicaPushPostCommit, 2),
            (CrashPoint::ReplicaFetch, 1),
        ] {
            let case = FuzzCase {
                algorithm: Algorithm::CopyOnUpdate,
                shards: 4,
                backend: WriterBackend::ThreadPool,
                pipeline_depth: 1,
                batch_window_us: 0,
                device_sync: false,
                coalesce: true,
                ticks: 12,
                updates_per_tick: 100,
                skew: 0.5,
                trace_seed: 7,
                replication,
                plan: CrashPlan {
                    point,
                    hit: 1,
                    torn: 5,
                    action: CrashAction::Crash,
                },
                fault: None,
                retry_max: 3,
            };
            let out = run_case(&case);
            assert!(out.ok(), "{}: {:?}", case.spec(), out.failure);
            assert!(out.fired, "{}: plan never fired", case.spec());
        }
    }

    /// The recovery-phase re-crash points: an injected crash aborts the
    /// first recovery attempt, and the restarted attempt (fresh trace
    /// cursor, same frozen directory) succeeds and matches the oracle.
    /// The mid-fetch peer death is absorbed inside the fetch itself
    /// (next mirror), so it fires without aborting the attempt.
    #[test]
    fn recovery_recrash_cases_pass() {
        for (alg, point, replication) in [
            (Algorithm::CopyOnUpdate, CrashPoint::RecoveryReadImage, 0),
            (Algorithm::PartialRedo, CrashPoint::RecoveryReplayTick, 0),
            (Algorithm::CopyOnUpdate, CrashPoint::ReplicaFetchMid, 2),
        ] {
            let case = FuzzCase {
                algorithm: alg,
                shards: 1,
                backend: WriterBackend::ThreadPool,
                pipeline_depth: 1,
                batch_window_us: 0,
                device_sync: false,
                coalesce: true,
                ticks: 12,
                updates_per_tick: 100,
                skew: 0.8,
                trace_seed: 31,
                replication,
                plan: CrashPlan {
                    point,
                    hit: 1,
                    torn: 0,
                    action: CrashAction::Crash,
                },
                fault: None,
                retry_max: 3,
            };
            let out = run_case(&case);
            assert!(out.ok(), "{}: {:?}", case.spec(), out.failure);
            assert!(out.fired, "{}: recovery plan never fired", case.spec());
            if point != CrashPoint::ReplicaFetchMid {
                assert!(
                    out.recovery_retried,
                    "{}: an injected re-crash must force a restarted attempt",
                    case.spec()
                );
            }
        }
    }

    /// Transient-fault schedules within the retry budget are absorbed
    /// invisibly: the run completes, faults actually inject, and
    /// recovery still matches the oracle — including a burst on the
    /// recovery-time image read itself.
    #[test]
    fn transient_fault_bursts_are_absorbed_by_the_retry_budget() {
        use mmoc_storage::fault::{FaultKind, FaultPlan, FaultSite};
        for (alg, point, site, kind) in [
            (
                Algorithm::CopyOnUpdate,
                CrashPoint::BackupCommit,
                FaultSite::BackupWrite,
                FaultKind::Eio,
            ),
            (
                Algorithm::PartialRedo,
                CrashPoint::LogSegmentSealed,
                FaultSite::LogAppend,
                FaultKind::Enospc,
            ),
            (
                Algorithm::CopyOnUpdate,
                CrashPoint::RecoveryReadImage,
                FaultSite::ImageRead,
                FaultKind::ShortWrite,
            ),
        ] {
            let case = FuzzCase {
                algorithm: alg,
                shards: 1,
                backend: WriterBackend::ThreadPool,
                pipeline_depth: 1,
                batch_window_us: 0,
                device_sync: false,
                coalesce: true,
                ticks: 12,
                updates_per_tick: 100,
                skew: 0.8,
                trace_seed: 47,
                replication: 0,
                plan: CrashPlan {
                    point,
                    hit: 1,
                    torn: 9,
                    action: CrashAction::Crash,
                },
                fault: Some(FaultPlan {
                    site,
                    hit: 1,
                    kind,
                    burst: 2,
                }),
                retry_max: 2,
            };
            let out = run_case(&case);
            assert!(out.ok(), "{}: {:?}", case.spec(), out.failure);
            assert!(
                out.faults_injected >= 1,
                "{}: the armed burst never injected",
                case.spec()
            );
        }
    }
}
