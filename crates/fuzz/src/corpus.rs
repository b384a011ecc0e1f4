//! Named corpus seeds: the curated crash sites from the storage crate's
//! `failure_injection` test suite, re-expressed as lattice cases. Every
//! corpus run replays these first, so the scenarios that were once
//! hand-constructed (torn object writes, missing metadata commits, torn
//! log tails, mid-batch crashes) are continuously re-proven through the
//! instrumented engine itself — plus the scheduler, replica and
//! recovery sites the curated suite could not reach from outside.

use mmoc_core::{Algorithm, WriterBackend};
use mmoc_storage::inject::{Effect, Kind, Plan, Site};

use crate::case::FuzzCase;

pub(crate) fn base(algorithm: Algorithm, backend: WriterBackend, site: Site) -> FuzzCase {
    FuzzCase {
        algorithm,
        shards: 1,
        backend,
        pipeline_depth: 1,
        batch_window_us: 0,
        device_sync: false,
        coalesce: true,
        ticks: 14,
        updates_per_tick: 120,
        skew: 0.8,
        trace_seed: 0xC0FF_EE00,
        replication: 0,
        plan: Plan::at(site),
        fault: None,
        retry_max: 3,
    }
}

/// The named seeds, in replay order.
#[must_use]
#[allow(clippy::enum_glob_use)] // the seeds read as rows of variant names
pub fn named_seeds() -> Vec<(&'static str, FuzzCase)> {
    use Algorithm::*;
    use Site::*;
    use WriterBackend::*;

    // Crash mid object write: torn 40-of-64-byte object, the curated
    // `crash_mid_write_falls_back_to_older_backup` site.
    let mut mid_write = base(AtomicCopyDirtyObjects, ThreadPool, BackupWriteObject);
    mid_write.plan.effect = Effect::Crash { torn: 40 };

    // Crash after data sync, before the metadata commit: torn 7-of-16
    // byte meta, the curated `crash_before_meta_commit_is_ignored` site.
    let mut pre_commit = base(CopyOnUpdate, AsyncBatched, BackupCommit);
    pre_commit.plan.effect = Effect::Crash { torn: 7 };

    // Crash right after invalidating the next target backup (a
    // double-backup algorithm: the dribble variant logs instead).
    let mut invalidated = base(NaiveSnapshot, ThreadPool, BackupInvalidate);
    invalidated.plan.hit = 2;

    // Torn log record tail, the curated torn-tail site.
    let mut log_tail = base(PartialRedo, ThreadPool, LogAppendObject);
    log_tail.plan.effect = Effect::Crash { torn: 13 };

    // Segment seal torn off the end of the file.
    let mut seal_tear = base(CopyOnUpdatePartialRedo, AsyncBatched, LogSegmentSealed);
    seal_tear.plan.effect = Effect::Crash { torn: 33 };

    // Mid-batch crash at the scheduler's sync-to-commit seam across four
    // shards, the curated `mid_batch_crash_recovers_every_shard` site.
    let mut seam = base(CopyOnUpdate, AsyncBatched, SchedulerCommitSeam);
    seam.shards = 4;
    seam.batch_window_us = 250;

    // Device barrier skipped: coalesced multi-shard sync loses the
    // whole-device flush.
    let mut barrier = base(CopyOnUpdate, AsyncBatched, DeviceBarrier);
    barrier.shards = 4;
    barrier.batch_window_us = 250;
    barrier.device_sync = true;

    // Crash at the enqueue boundary with the job already queued.
    let mut enqueued = base(NaiveSnapshot, ThreadPool, JobEnqueued);
    enqueued.plan.hit = 2;

    // Replica push frozen open: mirrors invalidated, checkpoint not yet
    // committed — recovery must fall back to disk.
    let mut push_open = base(CopyOnUpdate, AsyncBatched, ReplicaPushPreCommit);
    push_open.shards = 4;
    push_open.replication = 1;

    // Crash immediately after commit + publish: the mirrors carry the
    // freshest checkpoint and replica recovery must equal disk replay.
    let mut push_published = base(PartialRedo, ThreadPool, ReplicaPushPostCommit);
    push_published.shards = 4;
    push_published.replication = 2;

    // A hosting peer dies during the recovery-time fetch: that mirror is
    // skipped and recovery continues (next mirror, else disk).
    let mut peer_death = base(CopyOnUpdatePartialRedo, ThreadPool, ReplicaFetch);
    peer_death.shards = 4;
    peer_death.replication = 1;

    // Re-crash while reading the checkpoint image back: the first
    // recovery attempt dies after the read, the restarted attempt must
    // restore the same image and match the oracle.
    let reread = base(CopyOnUpdate, ThreadPool, RecoveryReadImage);

    // Re-crash mid-way through the replay tail (the second replayed
    // tick), over the log organization.
    let mut replay_tear = base(PartialRedo, ThreadPool, RecoveryReplayTick);
    replay_tear.plan.hit = 2;

    // A peer dies *mid-fetch* with a second mirror standing by: the
    // partial copy is discarded and the next mirror serves.
    let mut fetch_mid = base(CopyOnUpdatePartialRedo, ThreadPool, ReplicaFetchMid);
    fetch_mid.shards = 4;
    fetch_mid.replication = 2;

    // Transient EIO burst on the backup write path, layered under the
    // curated pre-commit crash: the retry budget absorbs the burst and
    // the crash semantics must be unchanged.
    let mut flaky_write = base(CopyOnUpdate, AsyncBatched, BackupCommit);
    flaky_write.fault = Some(Plan {
        site: BackupWrite,
        hit: 2,
        effect: Effect::Transient {
            kind: Kind::Eio,
            burst: 2,
        },
    });
    flaky_write.retry_max = 2;

    // ENOSPC on the log fsync plus a torn segment seal: the sync fault
    // injects (and is retried) before the seal crash freezes the disk —
    // a transient schedule and a crash plan on the same segment
    // lifecycle.
    let mut flaky_log = base(PartialRedo, ThreadPool, LogSegmentSealed);
    flaky_log.plan.effect = Effect::Crash { torn: 13 };
    flaky_log.fault = Some(Plan {
        site: LogSync,
        hit: 1,
        effect: Effect::Transient {
            kind: Kind::Enospc,
            burst: 1,
        },
    });
    flaky_log.retry_max = 1;

    // Short reads while restoring the image *and* a re-crash after the
    // read completes: both recovery attempts fight the same flaky disk.
    let mut flaky_restore = base(CopyOnUpdate, ThreadPool, RecoveryReadImage);
    flaky_restore.fault = Some(Plan {
        site: ImageRead,
        hit: 1,
        effect: Effect::Transient {
            kind: Kind::ShortWrite,
            burst: 2,
        },
    });
    flaky_restore.retry_max = 3;

    vec![
        ("mid-write-fallback", mid_write),
        ("pre-commit-meta", pre_commit),
        ("stale-invalidate", invalidated),
        ("log-torn-tail", log_tail),
        ("segment-seal-tear", seal_tear),
        ("mid-batch-seam", seam),
        ("device-barrier-loss", barrier),
        ("enqueue-down", enqueued),
        ("replica-push-open", push_open),
        ("replica-push-published", push_published),
        ("replica-peer-death", peer_death),
        ("recovery-reread", reread),
        ("replay-tail-recrash", replay_tear),
        ("fetch-mid-peer-death", fetch_mid),
        ("flaky-backup-write", flaky_write),
        ("flaky-log-sync", flaky_log),
        ("flaky-image-read", flaky_restore),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn named_seeds_are_well_formed_and_unique() {
        let seeds = named_seeds();
        let mut names: Vec<&str> = seeds.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), seeds.len(), "duplicate seed names");
        for (name, case) in &seeds {
            let back = FuzzCase::parse(&case.spec())
                .unwrap_or_else(|e| panic!("{name}: spec must round-trip: {e}"));
            assert_eq!(*case, back, "{name}");
        }
    }

    #[test]
    fn named_seeds_are_admitted_by_their_reach() {
        for (name, case) in named_seeds() {
            for site in std::iter::once(case.plan).chain(case.fault).map(|p| p.site) {
                let reach = site.reach();
                assert!(case.admits(site), "{name}: {site:?} outside {reach}");
            }
        }
    }
}
