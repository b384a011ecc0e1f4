//! Real crash recovery: restore the newest backup, replay the stream.
//!
//! "In the event of a crash, the game state can be reconstructed by
//! reading the most recent checkpoint and replaying the logical log."
//! The logical log of these experiments is the deterministic update
//! stream itself (the paper drives both engines from trace files), so
//! replay re-iterates the trace source and applies every tick after the
//! checkpoint's consistent tick.
//!
//! Both disk organizations go through [`recover_from_disk`]: it restores
//! the newest consistent [`BackupSet`] image, or reconstructs the newest
//! image from the [`LogStore`] (reading back through the log to the last
//! full flush). [`recover_and_replay`] and [`recover_and_replay_log`] are
//! its uninstrumented forms.
//!
//! Every recovered image — a backup read, a log reconstruction, a
//! replica fetch — lands in a buffer from one allocator,
//! `image_buffer`, which advises the kernel to back it with 2 MiB
//! transparent huge pages before the first byte is written.

use crate::files::BackupSet;
use crate::inject::{Inject, InjectedCrash, RetryCounters, RetryPolicy, Site};
use crate::log_store::LogStore;
use mmoc_core::{DiskOrg, StateGeometry, StateTable};
use mmoc_workload::TraceSource;
use std::ffi::{c_int, c_void};
use std::io;
use std::ops::Range;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

// std already links libc; declaring the one symbol we need avoids a
// dependency the offline build doesn't have.
extern "C" {
    fn madvise(addr: *mut c_void, length: usize, advice: c_int) -> c_int;
}

/// `MADV_HUGEPAGE`, the same value on every Linux ABI this repo targets.
const MADV_HUGEPAGE: c_int = 14;

/// The base page size `madvise` ranges are aligned to.
const PAGE: usize = 4096;

/// A zeroed `len`-byte buffer for a recovered image, advised to fault in
/// transparent huge pages.
///
/// An image above glibc's mmap threshold (at most 32 MiB) is a fresh
/// anonymous mapping on every restore, and filling it faults once per
/// 4 KiB page (9 766 faults for a 40 MB image). `MADV_HUGEPAGE` on the
/// buffer's page-aligned interior, issued before the first byte is
/// written, lets those faults come in 2 MiB pages where THP is in
/// `madvise` mode. The return value is ignored: the call is advice, and
/// where THP is absent the buffer behaves exactly like `vec![0; len]`.
pub(crate) fn image_buffer(len: usize) -> Vec<u8> {
    // Above the mmap threshold `calloc` maps fresh memory and touches
    // none of it, so the advice lands before the first fault.
    let mut buf = vec![0u8; len];
    let base = buf.as_ptr() as usize;
    let interior = advised_range(base, len);
    if !interior.is_empty() {
        let interior = &mut buf[interior.start - base..interior.end - base];
        // SAFETY: the range is page-aligned and lies inside the
        // allocation `buf` owns; MADV_HUGEPAGE changes none of its bytes.
        unsafe { madvise(interior.as_mut_ptr().cast(), interior.len(), MADV_HUGEPAGE) };
    }
    buf
}

/// The page-aligned interior of the address range `[start, start + len)`:
/// the whole pages `madvise` may be given. Empty when no whole page fits.
fn advised_range(start: usize, len: usize) -> Range<usize> {
    let first = start.next_multiple_of(PAGE);
    let end = (start + len) / PAGE * PAGE;
    first..end.max(first)
}

/// Instrumentation threaded through one recovery attempt: the
/// injection state consulted at the recovery-phase sites
/// (re-crash-during-recovery, peer death) and at the restore reads
/// (transient faults), and the retry policy absorbing injected read
/// faults. `Default` is production: nothing armed, reads retried under
/// the default bounded policy (a no-op when nothing fails).
///
/// Re-entrancy contract: a recovery-phase crash plan fires **once**
/// per [`Inject`] (the fired latch), returning an [`InjectedCrash`]
/// error from the recovery function without freezing anything — so
/// re-invoking the same recovery over the same directory (the
/// process-restart model) passes the site and must succeed.
#[derive(Debug, Default, Clone)]
pub struct RecoveryOpts {
    /// Injection state for the recovery pass, attached to the store
    /// being restored. For re-crash plans this is a *separate* state
    /// from the run's (whose fired latch the mid-run crash already
    /// consumed).
    pub inject: Option<Arc<Inject>>,
    /// Bounded retry policy for the restore reads.
    pub retry: RetryPolicy,
}

impl RecoveryOpts {
    /// Consult the recovery-phase `site`; firing turns into the error a
    /// re-crashed recovery attempt would surface.
    fn recrash(&self, site: Site) -> io::Result<()> {
        match self.inject.as_ref().and_then(|c| c.consult(site)) {
            Some(_) => Err(io::Error::other(InjectedCrash { site })),
            None => Ok(()),
        }
    }
}

/// A recovered state plus timing breakdown.
#[derive(Debug)]
pub struct RecoveredState {
    /// The reconstructed game state.
    pub table: StateTable,
    /// Tick the restored backup was consistent as of.
    pub from_tick: u64,
    /// Ticks whose updates were replayed.
    pub ticks_replayed: u64,
    /// Updates replayed.
    pub updates_replayed: u64,
    /// Wall time reading + installing the backup image.
    pub restore_s: f64,
    /// Wall time replaying the stream.
    pub replay_s: f64,
}

/// Restore from the backups under `dir` and replay `trace` (iterated from
/// its beginning) up to and including `crash_tick`.
pub fn recover_and_replay<S: TraceSource>(
    dir: &Path,
    geometry: StateGeometry,
    trace: &mut S,
    crash_tick: u64,
) -> io::Result<RecoveredState> {
    let (org, opts) = (DiskOrg::DoubleBackup, RecoveryOpts::default());
    recover_from_disk(org, dir, geometry, trace, crash_tick, &opts)
}

/// Restore from the checkpoint log under `dir` (reconstructing the newest
/// consistent image back to the last full flush) and replay `trace` up to
/// and including `crash_tick`.
pub fn recover_and_replay_log<S: TraceSource>(
    dir: &Path,
    geometry: StateGeometry,
    trace: &mut S,
    crash_tick: u64,
) -> io::Result<RecoveredState> {
    let opts = RecoveryOpts::default();
    recover_from_disk(DiskOrg::Log, dir, geometry, trace, crash_tick, &opts)
}

/// Restore the newest consistent image of `org`'s store under `dir` — a
/// backup read, or a log reconstruction back to the last full flush —
/// and replay `trace` up to and including `crash_tick`, under `opts`'
/// instrumentation. Safely re-entrant: recovery only reads, so a failed
/// attempt (injected or real) can be repeated over the same directory
/// and restores the same image.
pub fn recover_from_disk<S: TraceSource>(
    org: DiskOrg,
    dir: &Path,
    geometry: StateGeometry,
    trace: &mut S,
    crash_tick: u64,
    opts: &RecoveryOpts,
) -> io::Result<RecoveredState> {
    let t0 = Instant::now();
    let mut counters = RetryCounters::default();
    let (image, from_tick) = match org {
        DiskOrg::DoubleBackup => {
            let mut set = BackupSet::open(dir, geometry)?;
            set.attach_inject(opts.inject.clone());
            let (idx, from_tick) = set
                .newest_consistent()
                .ok_or_else(|| io::Error::other("no consistent backup to restore"))?;
            let image = opts.retry.run(&mut counters, || set.read_full(idx))?;
            (image, from_tick)
        }
        DiskOrg::Log => {
            let mut log = LogStore::open(dir, geometry)?;
            log.attach_inject(opts.inject.clone());
            let (image, from_tick, _) = opts.retry.run(&mut counters, || log.reconstruct())?;
            (image, from_tick)
        }
    };
    opts.recrash(Site::RecoveryReadImage)?;
    restore_and_replay(geometry, image, from_tick, t0, trace, crash_tick, opts)
}

/// Restore from the replica tier: fetch a complete peer mirror of
/// `shard`'s state (a memcpy — no disk reads) and replay `trace` from
/// the mirror's consistent tick up to and including `crash_tick`.
///
/// Returns `None` when the tier cannot serve — no [`ReplicaSet`] mirror
/// of the shard is complete (a push transaction was open at crash time,
/// or every hosting peer died mid-fetch per an armed `replica-fetch`
/// plan) — in which case the caller falls back to the disk path with
/// the trace cursor untouched.
///
/// [`ReplicaSet`]: crate::replica::ReplicaSet
pub fn recover_from_replica<S: TraceSource>(
    replicas: &crate::replica::ReplicaSet,
    shard: u32,
    geometry: StateGeometry,
    trace: &mut S,
    crash_tick: u64,
    opts: &RecoveryOpts,
) -> Option<io::Result<RecoveredState>> {
    let t0 = Instant::now();
    // One state-sized copy: clone the mirror image under its lock, then
    // adopt the clone as the recovered table's backing buffer. The fetch
    // consults the recovery-phase peer-death points (`replica-fetch`,
    // `replica-fetch-mid`) per mirror tried.
    let (image, from_tick) = replicas.fetch(shard, opts.inject.as_deref())?;
    Some(
        StateTable::from_image(geometry, image)
            .map_err(|e| io::Error::other(e.to_string()))
            .and_then(|table| replay_tail(table, from_tick, t0, trace, crash_tick, opts)),
    )
}

/// Shared tail of both disk restore paths: adopt the image as the
/// recovered table, replay the logical log (the deterministic trace) to
/// the crash tick.
fn restore_and_replay<S: TraceSource>(
    geometry: StateGeometry,
    image: Vec<u8>,
    from_tick: u64,
    restore_start: Instant,
    trace: &mut S,
    crash_tick: u64,
    opts: &RecoveryOpts,
) -> io::Result<RecoveredState> {
    let table =
        StateTable::from_image(geometry, image).map_err(|e| io::Error::other(e.to_string()))?;
    replay_tail(table, from_tick, restore_start, trace, crash_tick, opts)
}

/// Replay the logical log (the deterministic trace) over a restored
/// table up to and including `crash_tick`. `restore_start` closes the
/// restore-phase timing; everything from here is the replay phase. The
/// `recovery-replay-tick` point is reached once per replayed tick, so
/// a re-crash plan can land anywhere in the tail.
fn replay_tail<S: TraceSource>(
    mut table: StateTable,
    from_tick: u64,
    restore_start: Instant,
    trace: &mut S,
    crash_tick: u64,
    opts: &RecoveryOpts,
) -> io::Result<RecoveredState> {
    let restore_s = restore_start.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let mut buf = Vec::new();
    let mut ticks_replayed = 0u64;
    let mut updates_replayed = 0u64;
    let mut tick = 0u64;
    while tick < crash_tick && trace.next_tick(&mut buf) {
        tick += 1;
        if tick <= from_tick {
            continue; // already reflected in the checkpoint image
        }
        opts.recrash(Site::RecoveryReplayTick)?;
        ticks_replayed += 1;
        for &u in &buf {
            table.apply_unchecked(u);
            updates_replayed += 1;
        }
    }
    let replay_s = t1.elapsed().as_secs_f64();

    Ok(RecoveredState {
        table,
        from_tick,
        ticks_replayed,
        updates_replayed,
        restore_s,
        replay_s,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmoc_core::CellUpdate;
    use mmoc_workload::RecordedTrace;

    fn geometry() -> StateGeometry {
        StateGeometry::test_micro()
    }

    fn trace() -> RecordedTrace {
        let ticks: Vec<Vec<CellUpdate>> = (1..=10u32)
            .map(|t| vec![CellUpdate::new(t % 16, t % 4, t * 11)])
            .collect();
        RecordedTrace::new(geometry(), ticks)
    }

    #[test]
    fn recovery_restores_then_replays_the_tail() {
        let dir = tempfile::tempdir().unwrap();
        let g = geometry();
        let t = trace();

        // Build the state as of tick 6 and commit it as backup 0.
        let mut at6 = StateTable::new(g).unwrap();
        let mut replay = t.replay();
        let mut buf = Vec::new();
        for _ in 0..6 {
            replay.next_tick(&mut buf);
            for &u in &buf {
                at6.apply(u).unwrap();
            }
        }
        let mut set = BackupSet::create(dir.path(), g, at6.as_bytes()).unwrap();
        set.commit(0, 6).unwrap();
        drop(set);

        // Full state as of tick 10 for comparison.
        let mut at10 = at6.clone();
        for _ in 6..10 {
            replay.next_tick(&mut buf);
            for &u in &buf {
                at10.apply(u).unwrap();
            }
        }

        let rec = recover_and_replay(dir.path(), g, &mut t.replay(), 10).unwrap();
        assert_eq!(rec.from_tick, 6);
        assert_eq!(rec.ticks_replayed, 4);
        assert_eq!(rec.updates_replayed, 4);
        assert_eq!(rec.table.fingerprint(), at10.fingerprint());
        assert!(rec.restore_s >= 0.0 && rec.replay_s >= 0.0);
    }

    #[test]
    fn recovery_without_backups_fails() {
        let dir = tempfile::tempdir().unwrap();
        let g = geometry();
        // Create then invalidate both backups.
        let mut set = BackupSet::create(dir.path(), g, &vec![0u8; 4 * 64]).unwrap();
        set.invalidate(0).unwrap();
        set.invalidate(1).unwrap();
        drop(set);
        let t = trace();
        assert!(recover_and_replay(dir.path(), g, &mut t.replay(), 5).is_err());
    }

    #[test]
    fn advised_range_is_the_page_aligned_interior() {
        const MB40: usize = 40 * 1024 * 1024;
        for start in [0, PAGE, 16 * PAGE, 16 * PAGE + 16, 3 * PAGE - 1] {
            for (len, whole_page_fits) in [
                (0, false),
                (PAGE - 1, false),
                (PAGE, start % PAGE == 0),
                (MB40, true),
            ] {
                let r = advised_range(start, len);
                let case = format!("start {start:#x}, len {len}");
                assert_eq!(r.start % PAGE, 0, "{case}: start aligned");
                assert_eq!(r.end % PAGE, 0, "{case}: end aligned");
                assert_eq!(!r.is_empty(), whole_page_fits, "{case}");
                if !r.is_empty() {
                    assert!(start <= r.start && r.end <= start + len, "{case}: inside");
                    assert!(
                        r.start - start < PAGE && start + len - r.end < PAGE,
                        "{case}"
                    );
                }
            }
        }
    }

    #[test]
    fn image_buffer_is_zeroed_bytes_of_the_asked_length() {
        for len in [0, 1, PAGE - 1, PAGE, 3 * PAGE + 5, 4 * 1024 * 1024] {
            let buf = image_buffer(len);
            assert_eq!(buf.len(), len);
            assert!(buf.iter().all(|&b| b == 0), "len {len}");
        }
    }

    #[test]
    fn crash_at_checkpoint_tick_replays_nothing() {
        let dir = tempfile::tempdir().unwrap();
        let g = geometry();
        let t = trace();
        let mut at3 = StateTable::new(g).unwrap();
        let mut replay = t.replay();
        let mut buf = Vec::new();
        for _ in 0..3 {
            replay.next_tick(&mut buf);
            for &u in &buf {
                at3.apply(u).unwrap();
            }
        }
        let mut set = BackupSet::create(dir.path(), g, at3.as_bytes()).unwrap();
        set.commit(0, 3).unwrap();
        drop(set);

        let rec = recover_and_replay(dir.path(), g, &mut t.replay(), 3).unwrap();
        assert_eq!(rec.ticks_replayed, 0);
        assert_eq!(rec.table.fingerprint(), at3.fingerprint());
    }
}
