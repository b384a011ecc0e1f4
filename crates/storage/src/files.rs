//! The double-backup checkpoint files.
//!
//! Salem and Garcia-Molina's organization (§3.2): two full-size backup
//! files that checkpoints alternate between, so at least one consistent
//! image exists at all times. Every atomic object has a fixed offset
//! (`object_id × object_size`) and dirty objects are written in increasing
//! offset order (the "sorted I/O" optimization the paper calls crucial):
//! [`BackupSet::write_run`] moves a run of neighbouring objects as one
//! sequential transfer, and the writer (`crate::writer`) splits every
//! flush job's increasing ids into such runs.
//!
//! Durability protocol: data writes are flushed with `fsync` *before* the
//! small metadata file naming the backup's consistent tick is rewritten,
//! so a crash mid-checkpoint leaves the other backup's metadata (and thus
//! a consistent image) intact.

use crate::inject::{Effect, Inject, Kind, Site};
use mmoc_core::{ObjectId, StateGeometry};
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Write};
use std::os::unix::fs::FileExt;
use std::os::unix::io::{AsRawFd, RawFd};
use std::path::{Path, PathBuf};
use std::sync::Arc;

const META_MAGIC: u64 = 0x4d4d_4f43_4d45_5441; // "MMOCMETA"

/// Stable identity of an on-disk durability target: the `(device, inode)`
/// pair of the file a data `fsync` would flush. The batched writer's
/// durability scheduler collects every pending target in a batch and
/// issues **one** data sync per distinct identity — two handles naming
/// the same underlying file (however they were opened) coalesce into one
/// `fsync` call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SyncTarget {
    dev: u64,
    ino: u64,
}

impl SyncTarget {
    /// Identity of an open file, from its metadata.
    pub fn of(file: &File) -> io::Result<SyncTarget> {
        use std::os::unix::fs::MetadataExt;
        let meta = file.metadata()?;
        Ok(SyncTarget {
            dev: meta.dev(),
            ino: meta.ino(),
        })
    }

    /// The device the target lives on. Targets sharing a device can be
    /// flushed together by one `syncfs`-style whole-device barrier.
    pub fn dev(&self) -> u64 {
        self.dev
    }
}

/// One backup file plus its consistency metadata.
#[derive(Debug)]
pub struct Backup {
    file: File,
    meta_path: PathBuf,
    /// Tick this backup is consistent as of, if it holds a complete image.
    consistent_tick: Option<u64>,
    /// Cached identity of `file` (stable for the open handle's lifetime),
    /// so the durability scheduler's dedupe costs no syscall per job.
    sync_target: SyncTarget,
}

/// A pair of alternating backups.
#[derive(Debug)]
pub struct BackupSet {
    backups: [Backup; 2],
    geometry: StateGeometry,
    /// Fault-injection handle (see [`crate::inject`]): `None` in
    /// production. Once a crash plan fires and the state goes down,
    /// every mutation below freezes the files as a process kill would
    /// have left them; a transient fault returns an error (after a
    /// short write's partial effect) and the writer's retry policy
    /// re-invokes the operation.
    inject: Option<Arc<Inject>>,
}

impl BackupSet {
    /// Create (or overwrite) a backup pair under `dir`, pre-loading both
    /// files with `initial` (the state at tick 0) — the boot-time load the
    /// bookkeeping assumes.
    pub fn create(dir: &Path, geometry: StateGeometry, initial: &[u8]) -> io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        let expected = geometry.n_objects() as u64 * u64::from(geometry.object_size);
        assert_eq!(
            initial.len() as u64,
            expected,
            "initial image must be n_objects * object_size bytes"
        );
        let make = |idx: usize| -> io::Result<Backup> {
            let path = dir.join(format!("backup_{idx}.img"));
            let mut file = OpenOptions::new()
                .read(true)
                .write(true)
                .create(true)
                .truncate(true)
                .open(&path)?;
            file.write_all(initial)?;
            file.sync_all()?;
            let sync_target = SyncTarget::of(&file)?;
            let mut b = Backup {
                file,
                meta_path: dir.join(format!("backup_{idx}.meta")),
                consistent_tick: None,
                sync_target,
            };
            b.commit(0)?;
            Ok(b)
        };
        Ok(BackupSet {
            backups: [make(0)?, make(1)?],
            geometry,
            inject: None,
        })
    }

    /// Open an existing backup pair for recovery.
    pub fn open(dir: &Path, geometry: StateGeometry) -> io::Result<Self> {
        let make = |idx: usize| -> io::Result<Backup> {
            let path = dir.join(format!("backup_{idx}.img"));
            let file = OpenOptions::new().read(true).write(true).open(&path)?;
            let meta_path = dir.join(format!("backup_{idx}.meta"));
            let consistent_tick = read_meta(&meta_path);
            let sync_target = SyncTarget::of(&file)?;
            Ok(Backup {
                file,
                meta_path,
                consistent_tick,
                sync_target,
            })
        };
        Ok(BackupSet {
            backups: [make(0)?, make(1)?],
            geometry,
            inject: None,
        })
    }

    /// The geometry the files were laid out for.
    pub fn geometry(&self) -> &StateGeometry {
        &self.geometry
    }

    /// Attach a fault-injection handle. Installed by the engine right
    /// after store creation when the run carries an [`Inject`];
    /// production stores never pay more than the `None` check.
    pub fn attach_inject(&mut self, inject: Option<Arc<Inject>>) {
        self.inject = inject;
    }

    /// True once a simulated crash froze this store's files.
    fn down(&self) -> bool {
        self.inject.as_ref().is_some_and(|c| c.is_down())
    }

    /// Consult the injection handle at a transient `site`. `Some(kind)`
    /// means this call must fail with `kind` (after applying a short
    /// write's partial effect at sites that carry a payload).
    fn faulted(&self, site: Site) -> Option<Kind> {
        match self.inject.as_ref()?.consult(site)? {
            Effect::Transient { kind, .. } => Some(kind),
            _ => None,
        }
    }

    /// Write one object's bytes at its fixed offset in backup `idx`: the
    /// one-object case of [`BackupSet::write_run`].
    pub fn write_object(&self, idx: usize, obj: ObjectId, data: &[u8]) -> io::Result<()> {
        debug_assert_eq!(data.len(), self.geometry.object_size as usize);
        self.write_run(idx, obj, data)
    }

    /// Write a run of consecutive objects, `first` onwards, into backup
    /// `idx` with one positional write (`bytes` is a whole number of
    /// object images, packed in id order). Callers issue runs in
    /// increasing id order for sorted I/O. Every injection decision is
    /// taken here, before the bytes that land are written.
    pub fn write_run(&self, idx: usize, first: ObjectId, bytes: &[u8]) -> io::Result<()> {
        let obj_size = self.geometry.object_size as usize;
        debug_assert_eq!(bytes.len() % obj_size, 0);
        let mut torn_at = None;
        if let Some(c) = &self.inject {
            if c.is_down() {
                return Ok(());
            }
            // The crash site is reached once per object, in order: a
            // plan firing on the k-th lands the k-1 objects before it
            // plus `torn` bytes of the k-th, and the store is down.
            torn_at = (0..bytes.len() / obj_size).find_map(|k| {
                let Some(Effect::Crash { torn }) = c.consult(Site::BackupWriteObject) else {
                    return None;
                };
                Some(k * obj_size + (torn as usize).min(obj_size))
            });
            if torn_at.is_some() {
                c.go_down();
            }
        }
        let (landed, outcome) = if let Some(torn_at) = torn_at {
            (torn_at, Ok(()))
        } else if let Some(kind) = self.faulted(Site::BackupWrite) {
            // Faults are per issued write. A short write lands half the
            // run; retries rewrite the same fixed offsets, so the repair
            // is positionally idempotent.
            let half = if kind == Kind::ShortWrite {
                bytes.len() / 2
            } else {
                0
            };
            (half, Err(kind.to_error()))
        } else {
            (bytes.len(), Ok(()))
        };
        self.backups[idx]
            .file
            .write_all_at(&bytes[..landed], self.geometry.object_offset(first))?;
        outcome
    }

    /// Flush backup `idx`'s data to stable storage.
    pub fn sync(&self, idx: usize) -> io::Result<()> {
        if self.down() {
            return Ok(());
        }
        if let Some(kind) = self.faulted(Site::BackupSync) {
            return Err(kind.to_error());
        }
        self.backups[idx].file.sync_data()
    }

    /// Identity of backup `idx`'s image file, for the durability
    /// scheduler's per-distinct-file sync deduplication (cached at
    /// create/open — the handle never changes underneath it).
    pub fn sync_target(&self, idx: usize) -> SyncTarget {
        self.backups[idx].sync_target
    }

    /// Raw descriptor of backup `idx`'s image file, for the `syncfs`
    /// device barrier (any fd on the device names it).
    pub fn sync_fd(&self, idx: usize) -> RawFd {
        self.backups[idx].file.as_raw_fd()
    }

    /// Declare backup `idx` consistent as of `tick` (writes and syncs the
    /// metadata file; call only after [`BackupSet::sync`]).
    pub fn commit(&mut self, idx: usize, tick: u64) -> io::Result<()> {
        if let Some(c) = &self.inject {
            if c.is_down() {
                return Ok(());
            }
            if let Some(Effect::Crash { torn }) = c.consult(Site::BackupCommit) {
                // Torn metadata commit: a short, unsynced meta file —
                // recovery must reject it (magic + length guards).
                let mut bytes = Vec::with_capacity(16);
                bytes.extend_from_slice(&META_MAGIC.to_le_bytes());
                bytes.extend_from_slice(&tick.to_le_bytes());
                bytes.truncate((torn as usize).min(bytes.len()));
                let mut f = File::create(&self.backups[idx].meta_path)?;
                f.write_all(&bytes)?;
                c.go_down();
                return Ok(());
            }
        }
        if let Some(kind) = self.faulted(Site::BackupCommitMeta) {
            // The meta file is untouched, so the previous commit (or the
            // invalidation) still stands; a retry rewrites it whole.
            return Err(kind.to_error());
        }
        self.backups[idx].commit(tick)
    }

    /// Invalidate backup `idx` (done right before overwriting it, so a
    /// crash mid-write cannot restore a torn image).
    pub fn invalidate(&mut self, idx: usize) -> io::Result<()> {
        if self.down() {
            return Ok(());
        }
        self.backups[idx].consistent_tick = None;
        match std::fs::remove_file(&self.backups[idx].meta_path) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e),
        }?;
        if let Some(c) = &self.inject {
            // The crash lands *after* the invalidate took effect: the
            // write window is open and the old image is already gone.
            if c.consult(Site::BackupInvalidate).is_some() {
                c.go_down();
            }
        }
        Ok(())
    }

    /// The backup holding the newest consistent image, if any:
    /// `(index, consistent_tick)`.
    pub fn newest_consistent(&self) -> Option<(usize, u64)> {
        let mut best = None;
        for (idx, b) in self.backups.iter().enumerate() {
            if let Some(tick) = b.consistent_tick {
                if best.is_none_or(|(_, t)| tick > t) {
                    best = Some((idx, tick));
                }
            }
        }
        best
    }

    /// Read backup `idx`'s full image (the restore path): one positional
    /// read from offset 0, the read-side twin of [`BackupSet::write_run`],
    /// into a buffer from the recovered-image allocator (faulted in huge
    /// pages where the kernel allows). The `image-read` fault site is
    /// consulted once, before any byte moves.
    pub fn read_full(&self, idx: usize) -> io::Result<Vec<u8>> {
        if let Some(kind) = self.faulted(Site::ImageRead) {
            return Err(kind.to_error());
        }
        let len = self.geometry.n_objects() as usize * self.geometry.object_size as usize;
        let mut buf = crate::recovery::image_buffer(len);
        self.backups[idx].file.read_exact_at(&mut buf, 0)?;
        Ok(buf)
    }
}

impl Backup {
    fn commit(&mut self, tick: u64) -> io::Result<()> {
        let mut bytes = Vec::with_capacity(16);
        bytes.extend_from_slice(&META_MAGIC.to_le_bytes());
        bytes.extend_from_slice(&tick.to_le_bytes());
        // Write-then-rename would be even stronger; a small rewrite +
        // fsync is sufficient here because the magic guards torn metas.
        let mut f = File::create(&self.meta_path)?;
        f.write_all(&bytes)?;
        f.sync_all()?;
        self.consistent_tick = Some(tick);
        Ok(())
    }
}

fn read_meta(path: &Path) -> Option<u64> {
    let mut f = File::open(path).ok()?;
    let mut buf = [0u8; 16];
    f.read_exact(&mut buf).ok()?;
    let magic = u64::from_le_bytes(buf[0..8].try_into().expect("8 bytes"));
    if magic != META_MAGIC {
        return None;
    }
    Some(u64::from_le_bytes(buf[8..16].try_into().expect("8 bytes")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geometry() -> StateGeometry {
        StateGeometry::test_micro() // 4 objects of 64 bytes
    }

    fn image(fill: u8) -> Vec<u8> {
        vec![fill; 4 * 64]
    }

    #[test]
    fn create_preloads_both_backups() {
        let dir = tempfile::tempdir().unwrap();
        let set = BackupSet::create(dir.path(), geometry(), &image(7)).unwrap();
        assert_eq!(set.newest_consistent(), Some((0, 0)));
        assert_eq!(set.read_full(0).unwrap(), image(7));
        assert_eq!(set.read_full(1).unwrap(), image(7));
    }

    #[test]
    fn commit_advances_newest() {
        let dir = tempfile::tempdir().unwrap();
        let mut set = BackupSet::create(dir.path(), geometry(), &image(0)).unwrap();
        set.commit(1, 42).unwrap();
        assert_eq!(set.newest_consistent(), Some((1, 42)));
        set.commit(0, 50).unwrap();
        assert_eq!(set.newest_consistent(), Some((0, 50)));
    }

    #[test]
    fn invalidate_falls_back_to_other_backup() {
        let dir = tempfile::tempdir().unwrap();
        let mut set = BackupSet::create(dir.path(), geometry(), &image(0)).unwrap();
        set.commit(1, 42).unwrap();
        set.invalidate(1).unwrap();
        assert_eq!(set.newest_consistent(), Some((0, 0)));
        set.invalidate(0).unwrap();
        assert_eq!(set.newest_consistent(), None);
    }

    #[test]
    fn object_writes_land_at_fixed_offsets() {
        let dir = tempfile::tempdir().unwrap();
        let set = BackupSet::create(dir.path(), geometry(), &image(0)).unwrap();
        let data = vec![9u8; 64];
        set.write_object(0, ObjectId(2), &data).unwrap();
        set.sync(0).unwrap();
        let full = set.read_full(0).unwrap();
        assert!(full[..128].iter().all(|&b| b == 0));
        assert!(full[128..192].iter().all(|&b| b == 9));
        assert!(full[192..].iter().all(|&b| b == 0));
    }

    #[test]
    fn reopen_recovers_metadata() {
        let dir = tempfile::tempdir().unwrap();
        {
            let mut set = BackupSet::create(dir.path(), geometry(), &image(3)).unwrap();
            set.commit(1, 99).unwrap();
        }
        let set = BackupSet::open(dir.path(), geometry()).unwrap();
        assert_eq!(set.newest_consistent(), Some((1, 99)));
        assert_eq!(set.read_full(1).unwrap(), image(3));
    }

    #[test]
    fn corrupt_meta_is_treated_as_invalid() {
        let dir = tempfile::tempdir().unwrap();
        {
            BackupSet::create(dir.path(), geometry(), &image(0)).unwrap();
        }
        std::fs::write(dir.path().join("backup_0.meta"), b"garbage?").unwrap();
        let set = BackupSet::open(dir.path(), geometry()).unwrap();
        assert_eq!(set.newest_consistent(), Some((1, 0)));
    }

    #[test]
    fn run_write_lands_consecutive_objects_in_one_transfer() {
        let dir = tempfile::tempdir().unwrap();
        let set = BackupSet::create(dir.path(), geometry(), &image(1)).unwrap();
        set.write_run(0, ObjectId(1), &[8u8; 2 * 64]).unwrap();
        set.sync(0).unwrap();
        let full = set.read_full(0).unwrap();
        assert!(full[..64].iter().all(|&b| b == 1));
        assert!(full[64..192].iter().all(|&b| b == 8));
        assert!(full[192..].iter().all(|&b| b == 1));
        // The whole image is the run starting at object 0.
        set.write_run(0, ObjectId(0), &image(9)).unwrap();
        assert_eq!(set.read_full(0).unwrap(), image(9));
        assert_eq!(set.read_full(1).unwrap(), image(1));
    }
}
