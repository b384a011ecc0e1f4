//! Execute one case and judge it against the in-memory oracle.
//!
//! The armed [`Inject`] freezes the disk at the planned site (every
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
//!   sites), armed on the recovery pass's *own* [`Inject`]. An injected
//!   re-crash ([`InjectedCrash`]) aborts the attempt; the oracle then
//!   restarts recovery from a fresh trace cursor — the process-restart
//!   model — and requires the second attempt to succeed and still match
//!   the in-memory truth.

use mmoc_core::{
    DiskOrg, EngineDetail, Run, ShardFilter, ShardMap, StateGeometry, StateTable, WriterBackend,
};
use mmoc_storage::inject::{Inject, InjectedCrash, Phase, Plan, RetryPolicy, Site};
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
    /// Reach counters per site, registry order — run and recovery-pass
    /// states merged.
    pub counts: Vec<u64>,
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

/// True when `e` is an injected re-crash of the recovery pass (the
/// attempt died mid-restore; a restarted attempt is expected to pass).
fn injected_recrash(e: &io::Error) -> bool {
    e.get_ref().is_some_and(|e| e.is::<InjectedCrash>())
}

/// Run one case end to end: execute with the armed plans, then recover
/// every shard from the frozen directory and compare fingerprints.
#[must_use]
pub fn run_case(case: &FuzzCase) -> CaseOutcome {
    // Recovery-phase plans fire during the oracle's recovery pass, on its
    // own injection state: the run's latch models the *first* process
    // death, this one the re-crash of the restarted process. For the
    // disk-path re-crash sites the first death is a generic early freeze
    // (the universally-compatible enqueue boundary), so recovery has a
    // real checkpoint-plus-tail to work through — after a *clean* run the
    // newest checkpoint can cover the whole trace, leaving no replay tick
    // for the re-crash to land on. The replica fetch sites instead need
    // the mirrors a completed run publishes, so those cases run clean.
    // Both states carry the transient schedule; its sites are reached in
    // one phase only (the image read during recovery, the rest during the
    // run), so splitting it over two states changes no reach count.
    let run_plan = match case.plan.site {
        Site::RecoveryReadImage | Site::RecoveryReplayTick => Plan::at(Site::JobEnqueued),
        _ => case.plan,
    };
    let rec_plan = (case.plan.site.phase() == Phase::Recovery).then_some(case.plan);
    let state = Arc::new(Inject::armed([run_plan].into_iter().chain(case.fault)));
    let rec_state = Arc::new(Inject::armed(rec_plan.into_iter().chain(case.fault)));
    let mut outcome = run_and_recover(case, &state, &rec_state);
    // A recovery-phase case "fires" only when its own plan does — the
    // auxiliary mid-run freeze doesn't count toward coverage.
    outcome.fired = match rec_plan {
        Some(_) => rec_state.fired(),
        None => state.fired(),
    };
    outcome
}

/// Execute `case` under the injection state `run`, then recover every
/// shard from the directory it left under the state `recovery` and judge
/// the recovered bytes against the oracle. The outcome's reach counts
/// and injected faults merge both states; `fired` is left to the caller,
/// which knows which state's plan is the case's. `--list-points` passes
/// two tracking states, so its sweep is judged like any case.
#[must_use]
pub fn run_and_recover(case: &FuzzCase, run: &Arc<Inject>, recovery: &Arc<Inject>) -> CaseOutcome {
    let mut outcome = CaseOutcome {
        fired: false,
        fell_back: false,
        counts: Vec::new(),
        faults_injected: 0,
        recovery_retried: false,
        failure: None,
    };
    outcome.failure = judge(case, run, recovery, &mut outcome).err();
    let (a, b) = (run.counts(), recovery.counts());
    outcome.counts = a.iter().zip(b).map(|(a, b)| a + b).collect();
    outcome.faults_injected = run.injected() + recovery.injected();
    outcome
}

/// The body of [`run_and_recover`]: `Err` is the one-line divergence.
fn judge(
    case: &FuzzCase,
    run: &Arc<Inject>,
    recovery: &Arc<Inject>,
    outcome: &mut CaseOutcome,
) -> Result<(), String> {
    let dir = tempfile::tempdir().map_err(|e| format!("tempdir: {e}"))?;
    let trace = trace_of(case);
    // The shard map is needed up front when the replica tier is on: the
    // mirrors must be retained across the simulated crash (they model
    // *peer* memory, which survives), so the oracle owns the set and
    // hands the run a handle instead of letting it build a private one.
    let map = ShardMap::new(trace.geometry, case.shards).map_err(|e| format!("shard map: {e}"))?;
    let replicas = (case.replication > 0).then(|| {
        let geometries: Vec<_> = (0..case.shards as usize)
            .map(|s| map.shard_geometry(s))
            .collect();
        Arc::new(ReplicaSet::new(case.replication, &geometries))
    });
    let report = Run::algorithm(case.algorithm)
        .engine(engine_config(case, dir.path(), run, replicas.as_ref()))
        .trace(trace)
        .shards(case.shards)
        .pacing(600.0)
        .execute()
        .map_err(|e| format!("run error: {e}"))?;
    if let EngineDetail::Real(d) = &report.detail {
        outcome.fell_back = d.writer_fallback_from.is_some();
    }

    // Per-shard recovery from the frozen directory against the oracle,
    // under the recovery pass's injection state (the re-crash plan and
    // the transient schedule on the restore reads) and the case's retry
    // budget. With the replica tier on, each shard is *also*
    // recovered from its peers' mirrors, and the two recovered states
    // must agree byte for byte — the tier is an accelerator, not an
    // alternative history.
    let opts = RecoveryOpts {
        inject: Some(recovery.clone()),
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
                recover_disk(&mut replay)
                    .map_err(|e| format!("shard {s} recovery failed after a re-crash: {e}"))?
            }
            Err(e) => return Err(format!("shard {s} recovery failed: {e}")),
        };
        let truth = truth_of(ShardFilter::new(trace.build(), map.clone(), s));
        if rec.table.fingerprint() != truth.fingerprint() {
            return Err(format!(
                "shard {s} diverged: recovered from tick {} does not match the oracle",
                rec.from_tick
            ));
        }
        let Some(set) = &replicas else { continue };
        let mut replay = ShardFilter::new(trace.build(), map.clone(), s);
        let mut via = recover_from_replica(set, s as u32, g, &mut replay, trace.ticks, &opts);
        if let Some(Err(e)) = &via {
            if injected_recrash(e) {
                // Same restart contract for a replica-path replay that
                // died mid-tail.
                outcome.recovery_retried = true;
                let mut replay = ShardFilter::new(trace.build(), map.clone(), s);
                via = recover_from_replica(set, s as u32, g, &mut replay, trace.ticks, &opts);
            }
        }
        match via {
            Some(Ok(via)) => {
                if via.table.fingerprint() != truth.fingerprint() {
                    return Err(format!(
                        "shard {s} replica recovery from tick {} does not match the oracle",
                        via.from_tick
                    ));
                }
                if via.table.as_bytes() != rec.table.as_bytes() {
                    return Err(format!(
                        "shard {s}: replica-recovered state is not byte-identical to disk"
                    ));
                }
            }
            Some(Err(e)) => return Err(format!("shard {s} replica recovery failed: {e}")),
            // No complete mirror (crash froze a push open, or the
            // planned fetch crash consumed them): disk already won.
            None => {}
        }
    }
    Ok(())
}

/// The one place a case's knobs become a [`RealConfig`]: every field a
/// case samples is set explicitly, so no `MMOC_*` default leaks in.
fn engine_config(
    case: &FuzzCase,
    dir: &Path,
    state: &Arc<Inject>,
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
        .with_inject(state.clone());
    if let Some(set) = replicas {
        config = config.with_replica_set(set.clone());
    }
    config
}

/// True when this case asked for io_uring — used by the coverage check
/// to excuse ring-only sites on kernels without the capability.
#[must_use]
pub fn wants_ring(case: &FuzzCase) -> bool {
    case.backend == WriterBackend::IoUring
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmoc_core::Algorithm;
    use mmoc_storage::inject::{Effect, Kind};

    /// One smoke case per disk organization runs clean end to end.
    #[test]
    fn smoke_cases_pass() {
        for (alg, point) in [
            (Algorithm::CopyOnUpdate, Site::BackupCommit),
            (Algorithm::PartialRedo, Site::LogAppendObject),
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
                plan: Plan {
                    site: point,
                    hit: 1,
                    effect: Effect::Crash { torn: 11 },
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
            (Site::ReplicaPushPreCommit, 1),
            (Site::ReplicaPushPostCommit, 2),
            (Site::ReplicaFetch, 1),
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
                plan: Plan {
                    site: point,
                    hit: 1,
                    effect: Effect::Crash { torn: 5 },
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
            (Algorithm::CopyOnUpdate, Site::RecoveryReadImage, 0),
            (Algorithm::PartialRedo, Site::RecoveryReplayTick, 0),
            (Algorithm::CopyOnUpdate, Site::ReplicaFetchMid, 2),
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
                plan: Plan {
                    site: point,
                    hit: 1,
                    effect: Effect::Crash { torn: 0 },
                },
                fault: None,
                retry_max: 3,
            };
            let out = run_case(&case);
            assert!(out.ok(), "{}: {:?}", case.spec(), out.failure);
            assert!(out.fired, "{}: recovery plan never fired", case.spec());
            if point != Site::ReplicaFetchMid {
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
        for (alg, point, site, kind) in [
            (
                Algorithm::CopyOnUpdate,
                Site::BackupCommit,
                Site::BackupWrite,
                Kind::Eio,
            ),
            (
                Algorithm::PartialRedo,
                Site::LogSegmentSealed,
                Site::LogAppend,
                Kind::Enospc,
            ),
            (
                Algorithm::CopyOnUpdate,
                Site::RecoveryReadImage,
                Site::ImageRead,
                Kind::ShortWrite,
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
                plan: Plan {
                    site: point,
                    hit: 1,
                    effect: Effect::Crash { torn: 9 },
                },
                fault: Some(Plan {
                    site,
                    hit: 1,
                    effect: Effect::Transient { kind, burst: 2 },
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
