//! `syncfs`-style whole-device durability barriers.
//!
//! When the batched writer's durability scheduler finds several distinct
//! files pending in one batch that all live on the same device (same
//! `SyncTarget::dev`), M per-file `fsync` calls can collapse to a single
//! `syncfs(2)` on any descriptor naming that filesystem — the kernel
//! flushes every dirty page of the filesystem, which is a superset of
//! what the per-file calls would flush. Correctness is unchanged: the
//! barrier is *stronger* than the per-file syncs it replaces, so every
//! pending checkpoint's data is durable before its metadata commit.
//!
//! `syncfs` is Linux-specific and can be denied (seccomp filters,
//! exotic filesystems, pre-2.6.39 kernels return `ENOSYS`). The first
//! failed probe latches a process-global **unavailable** verdict and
//! every later batch silently falls back to per-file `fsync` — the
//! fallback ladder is `syncfs → fsync`, never `syncfs → error`.

use std::io;
use std::os::unix::io::RawFd;
use std::sync::atomic::{AtomicBool, Ordering};

// std already links libc; declaring the one symbol we need avoids a
// dependency the offline build doesn't have.
extern "C" {
    fn syncfs(fd: std::ffi::c_int) -> std::ffi::c_int;
}

/// Process-global verdict, latched by the first failed probe.
static UNAVAILABLE: AtomicBool = AtomicBool::new(false);

/// Flush every dirty page of the filesystem holding `fd`.
///
/// Returns `Ok(true)` when the barrier ran, `Ok(false)` when `syncfs`
/// is unavailable on this system (caller must fall back to per-file
/// `fsync`), and `Err` only for real I/O failures on a working `syncfs`.
pub(crate) fn sync_device(fd: RawFd) -> io::Result<bool> {
    sync_device_impl(&UNAVAILABLE, || {
        // SAFETY: `fd` is a live descriptor owned by the caller's store
        // for the duration of the call; syncfs reads nothing from user
        // memory.
        let rc = unsafe { syncfs(fd) };
        if rc == 0 {
            Ok(())
        } else {
            Err(io::Error::last_os_error())
        }
    })
}

/// The capability ladder around one barrier attempt, with the latch and
/// the syscall injected so the contract is testable without racing the
/// process-global verdict from parallel tests.
fn sync_device_impl(
    unavailable: &AtomicBool,
    barrier: impl FnOnce() -> io::Result<()>,
) -> io::Result<bool> {
    if unavailable.load(Ordering::Relaxed) {
        return Ok(false);
    }
    match barrier() {
        Ok(()) => Ok(true),
        Err(err) => match err.raw_os_error() {
            // Capability failures: the syscall is filtered, unimplemented,
            // or rejects this fd class. Latch unavailable and fall back.
            Some(libc_errno::ENOSYS | libc_errno::EPERM | libc_errno::EINVAL) => {
                unavailable.store(true, Ordering::Relaxed);
                Ok(false)
            }
            // A working syncfs reporting an I/O error is a real durability
            // failure — surface it like a failed fsync.
            _ => Err(err),
        },
    }
}

/// The errno values the capability probe distinguishes (spelled out here
/// because the build has no `libc` crate).
mod libc_errno {
    pub const EPERM: i32 = 1;
    pub const EINVAL: i32 = 22;
    pub const ENOSYS: i32 = 38;
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::os::unix::io::AsRawFd;

    /// On any Linux this repo builds on, syncfs either works on a tempdir
    /// file (tmpfs/ext4/btrfs all support it) or latches unavailable; a
    /// bad fd must never latch the capability off after a success.
    #[test]
    fn sync_device_probes_and_latches() {
        let dir = tempfile::tempdir().unwrap();
        let f = std::fs::File::create(dir.path().join("probe")).unwrap();
        let first = sync_device(f.as_raw_fd()).expect("no I/O error on a fresh file");
        let second = sync_device(f.as_raw_fd()).expect("no I/O error on a fresh file");
        assert_eq!(first, second, "capability verdict must be stable");
    }

    #[test]
    fn sync_device_rejects_closed_fd_without_poisoning() {
        let dir = tempfile::tempdir().unwrap();
        let f = std::fs::File::create(dir.path().join("probe")).unwrap();
        let live = sync_device(f.as_raw_fd()).unwrap();
        // EBADF is neither a capability errno nor success: it must come
        // back as a real error (or as unavailable if already latched).
        let bad = sync_device(-1);
        match bad {
            Err(_) | Ok(false) => {}
            Ok(true) => panic!("syncfs(-1) cannot succeed"),
        }
        if live {
            assert!(
                sync_device(f.as_raw_fd()).unwrap(),
                "a bad fd must not latch the capability off"
            );
        }
    }

    /// The permanent-fallback contract the batched engine's device-sync
    /// arm relies on: one `ENOSYS` from the kernel latches the barrier
    /// off for good — every later batch gets `Ok(false)` *without
    /// re-probing* and resumes per-file fsyncs (the scheduler's
    /// `Ok(false)` arm records no device barrier, so `device_syncs`
    /// stays 0) — while a real I/O error on a working `syncfs` surfaces
    /// as `Err` and leaves the capability alone. Driven against a local
    /// latch so parallel tests cannot race the process-global verdict.
    #[test]
    fn forced_enosys_latches_permanent_per_file_fallback() {
        let unavailable = AtomicBool::new(false);
        let first = sync_device_impl(&unavailable, || {
            Err(io::Error::from_raw_os_error(libc_errno::ENOSYS))
        })
        .expect("capability failure is not an I/O error");
        assert!(!first, "ENOSYS must report the barrier unavailable");
        assert!(unavailable.load(Ordering::Relaxed));
        // A later batch — even one whose syncfs would succeed — must not
        // re-probe: the verdict is permanent for the process.
        let again = sync_device_impl(&unavailable, || {
            panic!("latched-off probe must not call syncfs")
        })
        .expect("latched fallback cannot fail");
        assert!(!again, "per-file fsyncs resume for every later batch");

        // EIO on a working syncfs is a durability failure, not a missing
        // capability: it surfaces and the barrier stays available.
        let unavailable = AtomicBool::new(false);
        let err = sync_device_impl(&unavailable, || Err(io::Error::from_raw_os_error(5)));
        assert!(err.is_err(), "real I/O failures must surface");
        assert!(!unavailable.load(Ordering::Relaxed));
    }
}
