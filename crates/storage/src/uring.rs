//! Raw-syscall `io_uring` bindings for the checkpoint flush path.
//!
//! The offline build has neither the `io-uring` crate nor `libc`, so this
//! module declares the syscalls and ring mappings it needs directly
//! against the C runtime std already links. The scope is exactly what the
//! [`writer`](crate::writer) module's uring backend uses:
//!
//! * `io_uring_setup(2)` plus the SQ/CQ/SQE `mmap`s (honoring
//!   `IORING_FEAT_SINGLE_MMAP` on kernels ≥ 5.4),
//! * `IORING_OP_WRITEV` / `IORING_OP_NOP` submission (the ring carries
//!   data writes only; every `fdatasync` is a synchronous syscall),
//! * `io_uring_enter(2)` with `GETEVENTS`, and out-of-order CQE reaping
//!   keyed by `user_data`.
//!
//! Availability mirrors [`crate::device_sync`]: a one-shot NOP round-trip
//! probe latches a process-global verdict, so `ENOSYS`/`EPERM` (seccomp
//! filters, pre-5.1 kernels, hardened containers) permanently fall the
//! writer back to the portable batched backend instead of erroring — the
//! ladder is `io_uring → write/fsync`, never `io_uring → error`.

use std::ffi::{c_int, c_long, c_void};
use std::io;
use std::os::unix::io::RawFd;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::OnceLock;

// std already links libc; declaring the handful of symbols we need
// avoids a dependency the offline build doesn't have. `io_uring_setup`
// and `io_uring_enter` have no wrappers even in glibc — they are raw
// `syscall(2)` numbers on every Linux ABI this repo targets (425/426 on
// both x86_64 and aarch64).
extern "C" {
    fn syscall(num: c_long, ...) -> c_long;
    fn mmap(
        addr: *mut c_void,
        length: usize,
        prot: c_int,
        flags: c_int,
        fd: c_int,
        offset: i64,
    ) -> *mut c_void;
    fn munmap(addr: *mut c_void, length: usize) -> c_int;
    fn close(fd: c_int) -> c_int;
    fn pwrite(fd: c_int, buf: *const c_void, count: usize, offset: i64) -> isize;
}

const SYS_IO_URING_SETUP: c_long = 425;
const SYS_IO_URING_ENTER: c_long = 426;

const PROT_READ: c_int = 1;
const PROT_WRITE: c_int = 2;
const MAP_SHARED: c_int = 1;
const MAP_POPULATE: c_int = 0x8000;

const IORING_OFF_SQ_RING: u64 = 0;
const IORING_OFF_CQ_RING: u64 = 0x800_0000;
const IORING_OFF_SQES: u64 = 0x1000_0000;

/// One mapping covers both rings (kernel ≥ 5.4); we only ever map once.
const IORING_FEAT_SINGLE_MMAP: u32 = 1 << 0;

const IORING_OP_NOP: u8 = 0;
const IORING_OP_WRITEV: u8 = 2;

const IORING_ENTER_GETEVENTS: u32 = 1;

mod libc_errno {
    pub const EINTR: i32 = 4;
}

// ---------------------------------------------------------------------------
// Kernel ABI structs (linux/io_uring.h), laid out field-for-field.
// ---------------------------------------------------------------------------

#[repr(C)]
#[derive(Clone, Copy, Default)]
struct SqringOffsets {
    head: u32,
    tail: u32,
    ring_mask: u32,
    ring_entries: u32,
    flags: u32,
    dropped: u32,
    array: u32,
    resv1: u32,
    resv2: u64,
}

#[repr(C)]
#[derive(Clone, Copy, Default)]
struct CqringOffsets {
    head: u32,
    tail: u32,
    ring_mask: u32,
    ring_entries: u32,
    overflow: u32,
    cqes: u32,
    flags: u32,
    resv1: u32,
    resv2: u64,
}

#[repr(C)]
#[derive(Clone, Copy, Default)]
struct UringParams {
    sq_entries: u32,
    cq_entries: u32,
    flags: u32,
    sq_thread_cpu: u32,
    sq_thread_idle: u32,
    features: u32,
    wq_fd: u32,
    resv: [u32; 3],
    sq_off: SqringOffsets,
    cq_off: CqringOffsets,
}

/// A submission queue entry (64 bytes). The tail `_pad` covers the
/// `buf_index`/`personality`/`splice` union this backend never touches.
#[repr(C)]
#[derive(Clone, Copy)]
pub(crate) struct Sqe {
    opcode: u8,
    flags: u8,
    ioprio: u16,
    fd: i32,
    off: u64,
    addr: u64,
    len: u32,
    rw_flags: u32,
    user_data: u64,
    _pad: [u64; 3],
}

impl Sqe {
    fn zeroed(opcode: u8, fd: i32, user_data: u64) -> Sqe {
        Sqe {
            opcode,
            flags: 0,
            ioprio: 0,
            fd,
            off: 0,
            addr: 0,
            len: 0,
            rw_flags: 0,
            user_data,
            _pad: [0; 3],
        }
    }

    /// Vectored write of `n` iovecs at absolute `offset`. The iovec array
    /// and every buffer it names must stay alive and unmoved until the
    /// matching CQE is reaped.
    pub(crate) fn writev(
        fd: RawFd,
        iovecs: *const Iovec,
        n: u32,
        offset: u64,
        user_data: u64,
    ) -> Sqe {
        let mut s = Sqe::zeroed(IORING_OP_WRITEV, fd, user_data);
        s.addr = iovecs as u64;
        s.len = n;
        s.off = offset;
        s
    }

    /// No-op, for capability probing.
    pub(crate) fn nop(user_data: u64) -> Sqe {
        Sqe::zeroed(IORING_OP_NOP, -1, user_data)
    }
}

/// A completion queue entry.
#[repr(C)]
#[derive(Clone, Copy, Debug)]
pub(crate) struct Cqe {
    /// The `user_data` of the SQE this completes.
    pub user_data: u64,
    /// Result: bytes written for `WRITEV`, 0 for `NOP`, negated errno on
    /// failure.
    pub res: i32,
    #[allow(dead_code)]
    flags: u32,
}

/// `struct iovec`, for `IORING_OP_WRITEV`.
#[repr(C)]
#[derive(Clone, Copy)]
pub(crate) struct Iovec {
    pub iov_base: *mut c_void,
    pub iov_len: usize,
}

// ---------------------------------------------------------------------------
// Ring
// ---------------------------------------------------------------------------

/// One `mmap` region, unmapped on drop (so partially-constructed rings
/// clean up without bookkeeping).
struct Mapping {
    ptr: *mut c_void,
    len: usize,
}

impl Mapping {
    fn new(fd: i32, len: usize, offset: u64) -> io::Result<Mapping> {
        // SAFETY: a fresh anonymous-address shared mapping of a ring fd
        // the kernel sized for exactly this offset/length contract.
        let ptr = unsafe {
            mmap(
                std::ptr::null_mut(),
                len,
                PROT_READ | PROT_WRITE,
                MAP_SHARED | MAP_POPULATE,
                fd,
                offset as i64,
            )
        };
        if ptr as isize == -1 {
            return Err(io::Error::last_os_error());
        }
        Ok(Mapping { ptr, len })
    }

    fn at(&self, byte_offset: u32) -> *mut u8 {
        // SAFETY: callers only pass kernel-reported offsets that lie
        // inside `len` by the io_uring mmap contract.
        unsafe { self.ptr.cast::<u8>().add(byte_offset as usize) }
    }
}

impl Drop for Mapping {
    fn drop(&mut self) {
        // SAFETY: `ptr`/`len` came from a successful mmap and nothing
        // else unmaps them.
        unsafe { munmap(self.ptr, self.len) };
    }
}

/// An `io_uring` instance: the fd, its three mappings, and cached
/// pointers into the shared ring heads/tails.
///
/// Single-threaded by design — the uring writer backend owns one ring on
/// its flush thread. `Send` (to move it onto that thread) but not `Sync`.
pub(crate) struct Ring {
    fd: i32,
    // Held for their Drop (munmap); all access goes through raw pointers.
    _sq_map: Mapping,
    _cq_map: Option<Mapping>,
    _sqes: Mapping,
    sq_khead: *const AtomicU32,
    sq_ktail: *const AtomicU32,
    sq_mask: u32,
    entries: u32,
    cq_khead: *const AtomicU32,
    cq_ktail: *const AtomicU32,
    cq_mask: u32,
    sqe_base: *mut Sqe,
    cqe_base: *const Cqe,
    /// Producer-side tail (mirrors the shared tail between submits).
    local_tail: u32,
    /// SQEs pushed since the last `submit_and_wait`.
    pending: u32,
}

// SAFETY: the ring is confined to one thread at a time; the raw pointers
// target mappings owned by this struct, valid wherever it moves.
unsafe impl Send for Ring {}

impl Ring {
    /// Create a ring with at least `entries` SQ slots (kernel rounds up
    /// to a power of two).
    pub(crate) fn new(entries: u32) -> io::Result<Ring> {
        let mut p = UringParams::default();
        // SAFETY: `p` is a zeroed params struct matching the kernel ABI;
        // the kernel fills it on success.
        let fd = unsafe {
            syscall(
                SYS_IO_URING_SETUP,
                c_long::from(entries),
                std::ptr::addr_of_mut!(p) as c_long,
            )
        };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        let fd = fd as i32;
        match Ring::map(fd, &p) {
            Ok(ring) => Ok(ring),
            Err(e) => {
                // SAFETY: `fd` is the live ring fd we just created and the
                // failed mapping path did not hand it to anything else.
                unsafe { close(fd) };
                Err(e)
            }
        }
    }

    // The u8 → u32/AtomicU32/Cqe pointer casts below are sound: every
    // offset is a kernel-reported field position inside the ring mapping,
    // aligned by the io_uring ABI (mmap itself is page-aligned).
    #[allow(clippy::cast_ptr_alignment)]
    fn map(fd: i32, p: &UringParams) -> io::Result<Ring> {
        let sq_len = p.sq_off.array as usize + p.sq_entries as usize * std::mem::size_of::<u32>();
        let cq_len = p.cq_off.cqes as usize + p.cq_entries as usize * std::mem::size_of::<Cqe>();
        let single = p.features & IORING_FEAT_SINGLE_MMAP != 0;
        let sq_ring = Mapping::new(
            fd,
            if single { sq_len.max(cq_len) } else { sq_len },
            IORING_OFF_SQ_RING,
        )?;
        let cq_ring = if single {
            None
        } else {
            Some(Mapping::new(fd, cq_len, IORING_OFF_CQ_RING)?)
        };
        let sqes = Mapping::new(
            fd,
            p.sq_entries as usize * std::mem::size_of::<Sqe>(),
            IORING_OFF_SQES,
        )?;

        let cq_base = cq_ring.as_ref().unwrap_or(&sq_ring);
        // SAFETY: all offsets below are kernel-reported fields inside the
        // mapped rings; the head/tail words are 4-aligned shared counters
        // the kernel itself accesses atomically.
        let ring = unsafe {
            let sq_mask = *sq_ring.at(p.sq_off.ring_mask).cast::<u32>();
            let cq_mask = *cq_base.at(p.cq_off.ring_mask).cast::<u32>();
            // Identity-map the SQ index array once: slot i always holds
            // SQE i, so submission order is purely tail-driven.
            let array = sq_ring.at(p.sq_off.array).cast::<u32>();
            for i in 0..p.sq_entries {
                array.add(i as usize).write(i);
            }
            Ring {
                fd,
                sq_khead: sq_ring.at(p.sq_off.head).cast::<AtomicU32>(),
                sq_ktail: sq_ring.at(p.sq_off.tail).cast::<AtomicU32>(),
                sq_mask,
                entries: p.sq_entries,
                cq_khead: cq_base.at(p.cq_off.head).cast::<AtomicU32>(),
                cq_ktail: cq_base.at(p.cq_off.tail).cast::<AtomicU32>(),
                cq_mask,
                sqe_base: sqes.ptr.cast::<Sqe>(),
                cqe_base: cq_base.at(p.cq_off.cqes).cast::<Cqe>(),
                local_tail: (*sq_ring.at(p.sq_off.tail).cast::<AtomicU32>())
                    .load(Ordering::Relaxed),
                _sq_map: sq_ring,
                _cq_map: cq_ring,
                _sqes: sqes,
                pending: 0,
            }
        };
        Ok(ring)
    }

    /// SQ slots this ring was created with.
    pub(crate) fn capacity(&self) -> u32 {
        self.entries
    }

    /// SQ slots currently free to `push` into.
    pub(crate) fn sq_space(&self) -> u32 {
        // SAFETY: `sq_khead` points into the live SQ mapping.
        let head = unsafe { (*self.sq_khead).load(Ordering::Acquire) };
        self.entries - self.local_tail.wrapping_sub(head)
    }

    /// Stage one SQE; it is not visible to the kernel until
    /// [`Ring::submit_and_wait`]. Errors (without staging) if the SQ is full.
    pub(crate) fn push(&mut self, sqe: Sqe) -> io::Result<()> {
        if self.sq_space() == 0 {
            return Err(io::Error::new(
                io::ErrorKind::WouldBlock,
                "io_uring submission queue full",
            ));
        }
        let idx = (self.local_tail & self.sq_mask) as usize;
        // SAFETY: `idx` is masked into the SQE array mapping.
        unsafe { self.sqe_base.add(idx).write(sqe) };
        self.local_tail = self.local_tail.wrapping_add(1);
        self.pending += 1;
        Ok(())
    }

    /// Publish every staged SQE and block until at least `min_complete`
    /// CQEs are available, retrying `EINTR` and partial submissions.
    pub(crate) fn submit_and_wait(&mut self, min_complete: u32) -> io::Result<()> {
        // SAFETY: `sq_ktail` points into the live SQ mapping; Release
        // pairs with the kernel's Acquire of the tail.
        unsafe { (*self.sq_ktail).store(self.local_tail, Ordering::Release) };
        let mut to_submit = self.pending;
        self.pending = 0;
        loop {
            // SAFETY: plain enter with no sigset; all arguments are
            // scalars the kernel validates.
            let rc = unsafe {
                syscall(
                    SYS_IO_URING_ENTER,
                    c_long::from(self.fd),
                    c_long::from(to_submit),
                    c_long::from(min_complete),
                    c_long::from(IORING_ENTER_GETEVENTS),
                    0 as c_long,
                    0 as c_long,
                )
            };
            if rc < 0 {
                let err = io::Error::last_os_error();
                if err.raw_os_error() == Some(libc_errno::EINTR) {
                    continue;
                }
                return Err(err);
            }
            to_submit = to_submit.saturating_sub(rc as u32);
            if to_submit == 0 {
                return Ok(());
            }
        }
    }

    /// Pop the next completion, if any. CQEs arrive in completion order,
    /// not submission order — match them up by `user_data`.
    pub(crate) fn reap(&mut self) -> Option<Cqe> {
        // SAFETY: both pointers target the live CQ mapping; Acquire on
        // the tail pairs with the kernel's Release after writing a CQE.
        let (head, tail) = unsafe {
            (
                (*self.cq_khead).load(Ordering::Relaxed),
                (*self.cq_ktail).load(Ordering::Acquire),
            )
        };
        if head == tail {
            return None;
        }
        // SAFETY: a CQE the kernel published (head < tail) at a masked
        // index inside the CQE array.
        let cqe = unsafe { *self.cqe_base.add((head & self.cq_mask) as usize) };
        // SAFETY: Release hands the consumed slot back to the kernel.
        unsafe { (*self.cq_khead).store(head.wrapping_add(1), Ordering::Release) };
        Some(cqe)
    }
}

impl Drop for Ring {
    fn drop(&mut self) {
        // Mappings unmap themselves; the fd is ours to close.
        // SAFETY: `fd` is the live ring fd and nothing else closes it.
        unsafe { close(self.fd) };
    }
}

// ---------------------------------------------------------------------------
// Capability probes
// ---------------------------------------------------------------------------

/// One-shot probe: can this process create a ring and drive a NOP
/// through it? Any failure — `ENOSYS` (pre-5.1 kernel), `EPERM`
/// (seccomp/sysctl lockdown), resource limits, or an inconsistent ring —
/// latches *unavailable* for the life of the process; deliberately
/// broader than the errno allowlist in `device_sync` because every
/// failure mode has the same safe answer here: use the portable backend.
pub fn ring_available() -> bool {
    static AVAILABLE: OnceLock<bool> = OnceLock::new();
    *AVAILABLE.get_or_init(probe_ring)
}

fn probe_ring() -> bool {
    let Ok(mut ring) = Ring::new(2) else {
        return false;
    };
    if ring.push(Sqe::nop(0x70_07)).is_err() || ring.submit_and_wait(1).is_err() {
        return false;
    }
    matches!(ring.reap(), Some(c) if c.user_data == 0x70_07 && c.res == 0)
}

/// Synchronous positional write of the whole buffer: the one positional
/// data write — the syscall data path's, the stores' own, and the ring's
/// redo of a short or failed `WRITEV` (the byte-exact equivalent of what
/// the ring was asked to do).
pub(crate) fn pwrite_all(fd: RawFd, mut buf: &[u8], mut offset: u64) -> io::Result<()> {
    while !buf.is_empty() {
        // SAFETY: `buf` is a live slice; pwrite reads at most `len`
        // bytes from it.
        let rc = unsafe { pwrite(fd, buf.as_ptr().cast(), buf.len(), offset as i64) };
        if rc < 0 {
            let err = io::Error::last_os_error();
            if err.raw_os_error() == Some(libc_errno::EINTR) {
                continue;
            }
            return Err(err);
        }
        if rc == 0 {
            return Err(io::Error::new(
                io::ErrorKind::WriteZero,
                "pwrite returned zero",
            ));
        }
        buf = &buf[rc as usize..];
        offset += rc as u64;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;
    use std::os::unix::io::AsRawFd;

    #[test]
    fn capability_probe_is_stable() {
        let first = ring_available();
        let second = ring_available();
        assert_eq!(first, second, "latched verdict must not flap");
    }

    /// The data path the writer backend relies on: a two-iovec WRITEV at
    /// an offset, reaped by user_data. Skipped (vacuously passing) where
    /// the kernel has no io_uring — exactly the situations the writer
    /// falls back in.
    #[test]
    fn writev_round_trip() {
        if !ring_available() {
            return;
        }
        let dir = tempfile::tempdir().unwrap();
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(dir.path().join("ring"))
            .unwrap();
        let mut ring = Ring::new(8).unwrap();
        assert!(ring.capacity() >= 8);
        let (a, b) = (vec![0xAAu8; 100], vec![0xBBu8; 28]);
        let iov = [
            Iovec {
                iov_base: a.as_ptr().cast_mut().cast(),
                iov_len: a.len(),
            },
            Iovec {
                iov_base: b.as_ptr().cast_mut().cast(),
                iov_len: b.len(),
            },
        ];
        ring.push(Sqe::writev(file.as_raw_fd(), iov.as_ptr(), 2, 16, 1))
            .unwrap();
        ring.submit_and_wait(1).unwrap();
        let c = ring.reap().expect("one completion");
        assert_eq!(c.user_data, 1);
        assert!(c.res > 0, "writev failed: {}", c.res);
        // Repair any short write the way the backend would.
        let done = c.res as usize;
        if done < 128 {
            let rest: Vec<u8> = a.iter().chain(b.iter()).copied().skip(done).collect();
            pwrite_all(file.as_raw_fd(), &rest, 16 + done as u64).unwrap();
        }
        let mut contents = Vec::new();
        let mut reread = std::fs::File::open(dir.path().join("ring")).unwrap();
        reread.read_to_end(&mut contents).unwrap();
        assert_eq!(&contents[..16], &[0u8; 16], "offset hole preserved");
        assert_eq!(&contents[16..116], &a[..]);
        assert_eq!(&contents[116..144], &b[..]);
    }

    #[test]
    fn sq_space_reports_fullness() {
        if !ring_available() {
            return;
        }
        let mut ring = Ring::new(2).unwrap();
        let cap = ring.capacity();
        assert_eq!(ring.sq_space(), cap);
        ring.push(Sqe::nop(1)).unwrap();
        assert_eq!(ring.sq_space(), cap - 1);
        for i in 1..cap {
            ring.push(Sqe::nop(u64::from(i))).unwrap();
        }
        assert!(ring.push(Sqe::nop(99)).is_err(), "full ring must refuse");
        ring.submit_and_wait(cap).unwrap();
        for _ in 0..cap {
            assert!(ring.reap().is_some());
        }
        assert_eq!(ring.sq_space(), cap, "space recovers after reaping");
    }

    #[test]
    fn pwrite_all_writes_at_offset() {
        let dir = tempfile::tempdir().unwrap();
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(dir.path().join("pw"))
            .unwrap();
        pwrite_all(file.as_raw_fd(), &[7u8; 32], 8).unwrap();
        let mut contents = Vec::new();
        let mut reread = std::fs::File::open(dir.path().join("pw")).unwrap();
        reread.read_to_end(&mut contents).unwrap();
        assert_eq!(contents.len(), 40);
        assert_eq!(&contents[..8], &[0u8; 8]);
        assert_eq!(&contents[8..], &[7u8; 32]);
    }
}
