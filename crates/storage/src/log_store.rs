//! The log-structured checkpoint store.
//!
//! Partial-Redo and Copy-on-Update-Partial-Redo write dirty objects to "a
//! simple log" (§3.2): fully sequential appends, at the price of having to
//! read back through the log at recovery time until every object has been
//! seen — bounded by a periodic full flush of the whole state.
//!
//! File format (little-endian):
//!
//! ```text
//! file header : magic "MMOCLOG1"
//! per segment : seq u64 | consistent_tick u64 | full_flush u8 |
//!               object_count u32 | object_count × (object_id u32 | object bytes)
//!               | segment magic-end "SEGE"
//! ```
//!
//! A segment is one checkpoint, encoded once by `serialize_segment` and
//! appended as one positional write at the log's length
//! (`LogStore::write_segment`, which hands that write to the writer's
//! issuer: a `pwrite` now, or one WRITEV on the ring). Recovery scans
//! segments forward (the file is replayed into a reconstruction buffer,
//! newest write wins), starting from the newest *complete* full-flush
//! segment — semantically identical to the paper's backward read, and it
//! reads the same bytes. Torn tails (a crash mid-append) are detected by
//! the segment end marker and discarded.

use crate::inject::{Effect, Inject, Kind, Site};
use crate::uring::pwrite_all;
use mmoc_core::{ObjectId, StateGeometry};
use std::fs::{File, OpenOptions};
use std::io::{self, BufReader, Read, Seek, SeekFrom, Write};
use std::os::unix::io::{AsRawFd, RawFd};
use std::path::Path;
use std::sync::Arc;

const FILE_MAGIC: &[u8; 8] = b"MMOCLOG1";
const SEG_END: &[u8; 4] = b"SEGE";
/// Bytes of a segment header: seq, consistent tick, full-flush flag and
/// object count.
const HEADER: usize = 21;

/// An append-only checkpoint log.
#[derive(Debug)]
pub struct LogStore {
    file: File,
    geometry: StateGeometry,
    /// Bytes appended so far (including header).
    len: u64,
    /// Cached identity of `file` (stable for the open handle's lifetime),
    /// so the durability scheduler's dedupe costs no syscall per job.
    sync_target: crate::files::SyncTarget,
    /// Fault-injection handle (see [`crate::inject`]): `None` in
    /// production. Once a crash plan fires and the state goes down,
    /// every append and sync below freezes the log as a process kill
    /// would have left it. Appends fault transiently at segment
    /// granularity (before any byte lands), so a retried append
    /// restarts cleanly at the same offset.
    inject: Option<Arc<Inject>>,
}

/// Summary of one appended segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentInfo {
    /// Checkpoint sequence number.
    pub seq: u64,
    /// Tick the segment is consistent as of.
    pub consistent_tick: u64,
    /// Whether the segment holds the full state.
    pub full_flush: bool,
    /// Objects in the segment.
    pub objects: u32,
    /// Bytes the segment occupies on disk.
    pub bytes: u64,
}

impl SegmentInfo {
    /// Decode a segment header (its first [`HEADER`] bytes); `bytes` is
    /// the whole segment's length as the object count implies it.
    fn decode(header: &[u8], object_size: u32) -> SegmentInfo {
        let word = |at: usize| u64::from_le_bytes(header[at..at + 8].try_into().expect("8 bytes"));
        let objects = u32::from_le_bytes(header[17..HEADER].try_into().expect("4 bytes"));
        let records = u64::from(objects) * (4 + u64::from(object_size));
        SegmentInfo {
            seq: word(0),
            consistent_tick: word(8),
            full_flush: header[16] != 0,
            objects,
            bytes: (HEADER + SEG_END.len()) as u64 + records,
        }
    }
}

impl LogStore {
    /// Create (truncate) a log under `dir`.
    pub fn create(dir: &Path, geometry: StateGeometry) -> io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(dir.join("checkpoint.log"))?;
        file.write_all(FILE_MAGIC)?;
        file.sync_all()?;
        let sync_target = crate::files::SyncTarget::of(&file)?;
        Ok(LogStore {
            file,
            geometry,
            len: FILE_MAGIC.len() as u64,
            sync_target,
            inject: None,
        })
    }

    /// Open an existing log for recovery.
    pub fn open(dir: &Path, geometry: StateGeometry) -> io::Result<Self> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(dir.join("checkpoint.log"))?;
        let mut magic = [0u8; 8];
        file.read_exact(&mut magic)?;
        if &magic != FILE_MAGIC {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "not an MMOCLOG1 checkpoint log",
            ));
        }
        let len = file.metadata()?.len();
        let sync_target = crate::files::SyncTarget::of(&file)?;
        Ok(LogStore {
            file,
            geometry,
            len,
            sync_target,
            inject: None,
        })
    }

    /// Attach a fault-injection handle. Installed by the engine right
    /// after store creation when the run carries an [`Inject`];
    /// production stores never pay more than the `None` check.
    pub fn attach_inject(&mut self, inject: Option<Arc<Inject>>) {
        self.inject = inject;
    }

    /// True once a simulated crash froze this log.
    fn down(&self) -> bool {
        self.inject.as_ref().is_some_and(|c| c.is_down())
    }

    /// Consult the injection handle at a transient `site`.
    fn faulted(&self, site: Site) -> Option<Kind> {
        match self.inject.as_ref()?.consult(site)? {
            Effect::Transient { kind, .. } => Some(kind),
            _ => None,
        }
    }

    /// Append one checkpoint segment from an iterator of `(id, bytes)`
    /// pairs in increasing id order, and sync it if `sync` is set:
    /// `serialize_segment`, then `LogStore::write_segment`.
    pub fn append_segment<'a>(
        &mut self,
        seq: u64,
        consistent_tick: u64,
        full_flush: bool,
        objects: impl Iterator<Item = (ObjectId, &'a [u8])>,
        sync: bool,
    ) -> io::Result<SegmentInfo> {
        let mut segment = Vec::new();
        serialize_segment(seq, consistent_tick, full_flush, objects, &mut segment);
        let info = self.write_segment(&segment, pwrite_all)?;
        if sync && !self.down() {
            self.file.sync_data()?;
        }
        Ok(info)
    }

    /// Append one segment encoded by [`serialize_segment`] with one
    /// positional write at the log's length, handed to `put(fd, bytes,
    /// offset)`: the writer's issuer, which writes it now or stages it on
    /// the ring. The length advances as the write is handed over, so a
    /// staged segment reserves its offset and the next one stacks after
    /// it. Syncing is the caller's ([`LogStore::sync`]). The instrumented
    /// failures, per site:
    ///
    /// * `log-append` faults once per segment, before any byte lands, so
    ///   a retry rewrites the same bytes at the same offset;
    /// * `log-append-object` is reached once per record: the header, the
    ///   records before it, its id and `torn` bytes of its object land,
    ///   and the segment never seals (the scan drops it);
    /// * `log-segment-sealed` is reached once after the trailer: all but
    ///   the segment's last `torn` bytes land.
    pub(crate) fn write_segment(
        &mut self,
        segment: &[u8],
        mut put: impl FnMut(RawFd, &[u8], u64) -> io::Result<()>,
    ) -> io::Result<SegmentInfo> {
        if let Some(kind) = self.faulted(Site::LogAppend) {
            return Err(kind.to_error());
        }
        let object_size = self.geometry.object_size as usize;
        let info = SegmentInfo::decode(segment, self.geometry.object_size);
        assert_eq!(
            info.bytes,
            segment.len() as u64,
            "every record holds one object_size image"
        );
        let mut landed = segment.len();
        if let Some(c) = &self.inject {
            if c.is_down() {
                // Frozen: nothing lands; the info keeps the caller's
                // accounting flowing.
                return Ok(SegmentInfo { bytes: 0, ..info });
            }
            let torn = |site| match c.consult(site) {
                Some(Effect::Crash { torn }) => Some(torn as usize),
                _ => None,
            };
            let torn_at = (0..info.objects as usize)
                .find_map(|k| {
                    let torn = torn(Site::LogAppendObject)?.min(object_size);
                    Some(HEADER + k * (4 + object_size) + 4 + torn)
                })
                .or_else(|| Some(segment.len().saturating_sub(torn(Site::LogSegmentSealed)?)));
            if let Some(torn_at) = torn_at {
                c.go_down();
                landed = torn_at;
            }
        }
        put(self.sync_fd(), &segment[..landed], self.len)?;
        self.len += landed as u64;
        Ok(SegmentInfo {
            bytes: landed as u64,
            ..info
        })
    }

    /// Scan all complete segments, newest last. Torn tails are dropped.
    pub fn segments(&mut self) -> io::Result<Vec<SegmentInfo>> {
        let mut infos = Vec::new();
        self.file.seek(SeekFrom::Start(FILE_MAGIC.len() as u64))?;
        let file_len = self.file.metadata()?.len();
        let mut r = BufReader::new(&mut self.file);
        let mut pos = FILE_MAGIC.len() as u64;
        let mut header = [0u8; HEADER];
        while pos + HEADER as u64 <= file_len {
            r.read_exact(&mut header)?;
            let info = SegmentInfo::decode(&header, self.geometry.object_size);
            if pos + info.bytes > file_len {
                break; // torn tail
            }
            // Skip the body, check the end marker.
            r.seek_relative((info.bytes - (HEADER + SEG_END.len()) as u64) as i64)?;
            let mut end = [0u8; 4];
            r.read_exact(&mut end)?;
            if &end != SEG_END {
                break; // torn or corrupt
            }
            pos += info.bytes;
            infos.push(info);
        }
        Ok(infos)
    }

    /// Reconstruct the newest consistent image: find the last complete
    /// segment (its `consistent_tick` is the restore point), then apply
    /// all segments from the newest preceding full flush through it.
    ///
    /// Returns `(image bytes, consistent_tick, bytes_read)`; the image
    /// comes from the recovered-image allocator. A sealed segment naming
    /// an object outside the geometry is `InvalidData`.
    pub fn reconstruct(&mut self) -> io::Result<(Vec<u8>, u64, u64)> {
        if let Some(kind) = self.faulted(Site::ImageRead) {
            return Err(kind.to_error());
        }
        let infos = self.segments()?;
        let Some(last) = infos.last() else {
            return Err(io::Error::other("checkpoint log holds no complete segment"));
        };
        let consistent_tick = last.consistent_tick;
        // Find the newest full flush at or before the end.
        let start_idx = infos
            .iter()
            .rposition(|s| s.full_flush)
            .ok_or_else(|| io::Error::other("checkpoint log holds no full flush"))?;

        let obj_size = self.geometry.object_size as usize;
        let n = self.geometry.n_objects();
        let mut image = crate::recovery::image_buffer(n as usize * obj_size);
        let mut bytes_read = 0u64;

        // Seek to the start segment by summing lengths.
        let mut offset = FILE_MAGIC.len() as u64;
        for s in &infos[..start_idx] {
            offset += s.bytes;
        }
        self.file.seek(SeekFrom::Start(offset))?;
        let mut r = BufReader::new(&mut self.file);
        for s in &infos[start_idx..] {
            // Header.
            let mut hdr = [0u8; HEADER];
            r.read_exact(&mut hdr)?;
            let mut id_buf = [0u8; 4];
            let mut obj_buf = vec![0u8; obj_size];
            for _ in 0..s.objects {
                r.read_exact(&mut id_buf)?;
                let id = u32::from_le_bytes(id_buf);
                if id >= n {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!(
                            "segment {} names object {id}, outside the {n} objects of the log",
                            s.seq
                        ),
                    ));
                }
                r.read_exact(&mut obj_buf)?;
                let at = id as usize * obj_size;
                image[at..at + obj_size].copy_from_slice(&obj_buf);
            }
            let mut end = [0u8; 4];
            r.read_exact(&mut end)?;
            bytes_read += s.bytes;
        }
        Ok((image, consistent_tick, bytes_read))
    }

    /// Flush all appended segments to stable storage: the durability
    /// point of segments written without a sync (sealed in the page
    /// cache only — a crash before this leaves a torn tail that scans
    /// discard).
    pub fn sync(&self) -> io::Result<()> {
        if self.down() {
            return Ok(());
        }
        if let Some(kind) = self.faulted(Site::LogSync) {
            return Err(kind.to_error());
        }
        self.file.sync_data()
    }

    /// Identity of the log file, for the durability scheduler's
    /// per-distinct-file sync deduplication: one [`LogStore::sync`]
    /// covers every segment appended before it, so several segments
    /// pending in one batch coalesce into a single `fsync`. Cached at
    /// create/open — the handle never changes underneath it.
    pub fn sync_target(&self) -> crate::files::SyncTarget {
        self.sync_target
    }

    /// Raw descriptor of the log file, for the `syncfs` device barrier
    /// (any fd on the device names it).
    pub fn sync_fd(&self) -> RawFd {
        self.file.as_raw_fd()
    }

    /// Total log size in bytes.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True if no segments have been appended.
    pub fn is_empty(&self) -> bool {
        self.len <= FILE_MAGIC.len() as u64
    }
}

/// Encode one complete checkpoint segment into `out`: the one encoding of
/// the segment format, appended by [`LogStore::write_segment`].
/// `objects` must come in increasing id order (sorted I/O).
pub(crate) fn serialize_segment<'a>(
    seq: u64,
    consistent_tick: u64,
    full_flush: bool,
    objects: impl Iterator<Item = (ObjectId, &'a [u8])>,
    out: &mut Vec<u8>,
) {
    out.clear();
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(&consistent_tick.to_le_bytes());
    out.push(u8::from(full_flush));
    out.extend_from_slice(&0u32.to_le_bytes()); // count, patched below
    let mut count = 0u32;
    for (id, bytes) in objects {
        out.extend_from_slice(&id.0.to_le_bytes());
        out.extend_from_slice(bytes);
        count += 1;
    }
    out[17..HEADER].copy_from_slice(&count.to_le_bytes());
    out.extend_from_slice(SEG_END);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geometry() -> StateGeometry {
        StateGeometry::test_micro() // 4 objects of 64 B
    }

    fn obj(fill: u8) -> Vec<u8> {
        vec![fill; 64]
    }

    #[test]
    fn append_and_scan_segments() {
        let dir = tempfile::tempdir().unwrap();
        let mut log = LogStore::create(dir.path(), geometry()).unwrap();
        assert!(log.is_empty());

        let full: Vec<(ObjectId, Vec<u8>)> = (0..4).map(|i| (ObjectId(i), obj(i as u8))).collect();
        let info = log
            .append_segment(
                0,
                10,
                true,
                full.iter().map(|(i, b)| (*i, b.as_slice())),
                true,
            )
            .unwrap();
        assert_eq!(info.objects, 4);
        assert!(info.full_flush);

        let dirty = [(ObjectId(2), obj(9))];
        log.append_segment(
            1,
            20,
            false,
            dirty.iter().map(|(i, b)| (*i, b.as_slice())),
            true,
        )
        .unwrap();

        let segs = log.segments().unwrap();
        assert_eq!(segs.len(), 2);
        assert_eq!(segs[0].consistent_tick, 10);
        assert_eq!(segs[1].consistent_tick, 20);
        assert!(!segs[1].full_flush);
    }

    #[test]
    fn reconstruct_applies_newest_versions() {
        let dir = tempfile::tempdir().unwrap();
        let mut log = LogStore::create(dir.path(), geometry()).unwrap();
        let full: Vec<(ObjectId, Vec<u8>)> = (0..4).map(|i| (ObjectId(i), obj(1))).collect();
        log.append_segment(
            0,
            5,
            true,
            full.iter().map(|(i, b)| (*i, b.as_slice())),
            true,
        )
        .unwrap();
        let d1 = [(ObjectId(1), obj(7))];
        log.append_segment(
            1,
            8,
            false,
            d1.iter().map(|(i, b)| (*i, b.as_slice())),
            true,
        )
        .unwrap();
        let d2 = [(ObjectId(1), obj(8)), (ObjectId(3), obj(9))];
        log.append_segment(
            2,
            12,
            false,
            d2.iter().map(|(i, b)| (*i, b.as_slice())),
            true,
        )
        .unwrap();

        let (image, tick, bytes_read) = log.reconstruct().unwrap();
        assert_eq!(tick, 12);
        assert!(bytes_read > 0);
        assert!(image[0..64].iter().all(|&b| b == 1), "object 0 from full");
        assert!(image[64..128].iter().all(|&b| b == 8), "object 1 newest");
        assert!(
            image[128..192].iter().all(|&b| b == 1),
            "object 2 from full"
        );
        assert!(
            image[192..256].iter().all(|&b| b == 9),
            "object 3 from seg 2"
        );
    }

    #[test]
    fn reconstruct_starts_at_newest_full_flush() {
        let dir = tempfile::tempdir().unwrap();
        let mut log = LogStore::create(dir.path(), geometry()).unwrap();
        let full1: Vec<(ObjectId, Vec<u8>)> = (0..4).map(|i| (ObjectId(i), obj(1))).collect();
        log.append_segment(
            0,
            5,
            true,
            full1.iter().map(|(i, b)| (*i, b.as_slice())),
            true,
        )
        .unwrap();
        let full2: Vec<(ObjectId, Vec<u8>)> = (0..4).map(|i| (ObjectId(i), obj(2))).collect();
        log.append_segment(
            1,
            9,
            true,
            full2.iter().map(|(i, b)| (*i, b.as_slice())),
            true,
        )
        .unwrap();
        let (image, tick, bytes_read) = log.reconstruct().unwrap();
        assert_eq!(tick, 9);
        assert!(image.iter().all(|&b| b == 2));
        // Only the second full flush was read.
        let segs = log.segments().unwrap();
        assert_eq!(bytes_read, segs[1].bytes);
    }

    #[test]
    fn torn_tail_is_discarded() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("checkpoint.log");
        {
            let mut log = LogStore::create(dir.path(), geometry()).unwrap();
            let full: Vec<(ObjectId, Vec<u8>)> = (0..4).map(|i| (ObjectId(i), obj(3))).collect();
            log.append_segment(
                0,
                7,
                true,
                full.iter().map(|(i, b)| (*i, b.as_slice())),
                true,
            )
            .unwrap();
            let d = [(ObjectId(0), obj(9))];
            log.append_segment(
                1,
                11,
                false,
                d.iter().map(|(i, b)| (*i, b.as_slice())),
                true,
            )
            .unwrap();
        }
        // Chop off the last 10 bytes: the second segment is torn.
        let len = std::fs::metadata(&path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - 10).unwrap();
        drop(f);

        let mut log = LogStore::open(dir.path(), geometry()).unwrap();
        let segs = log.segments().unwrap();
        assert_eq!(segs.len(), 1, "torn segment must be dropped");
        let (image, tick, _) = log.reconstruct().unwrap();
        assert_eq!(tick, 7);
        assert!(image.iter().all(|&b| b == 3));
    }

    #[test]
    fn empty_log_fails_reconstruction() {
        let dir = tempfile::tempdir().unwrap();
        let mut log = LogStore::create(dir.path(), geometry()).unwrap();
        assert!(log.reconstruct().is_err());
    }

    #[test]
    fn open_rejects_garbage() {
        let dir = tempfile::tempdir().unwrap();
        std::fs::write(dir.path().join("checkpoint.log"), b"not a log at all").unwrap();
        assert!(LogStore::open(dir.path(), geometry()).is_err());
    }

    /// The one encoder writes exactly the format of the module doc:
    /// a two-object segment, byte by byte (3-byte objects keep it short;
    /// the encoder does not know the geometry).
    #[test]
    fn serialized_segment_matches_the_documented_format() {
        let mut seg = vec![0xEE; 7]; // stale bytes the encoder must clear
        let records = [
            (ObjectId(3), &[0xA1, 0xA2, 0xA3][..]),
            (ObjectId(0x0100), &[0xB1, 0xB2, 0xB3][..]),
        ];
        serialize_segment(0x0102, 0x0A0B, true, records.into_iter(), &mut seg);
        #[rustfmt::skip]
        let want: &[u8] = &[
            0x02, 0x01, 0, 0, 0, 0, 0, 0,     // seq u64
            0x0B, 0x0A, 0, 0, 0, 0, 0, 0,     // consistent_tick u64
            1,                                // full_flush u8
            2, 0, 0, 0,                       // object_count u32
            3, 0, 0, 0, 0xA1, 0xA2, 0xA3,     // object_id u32 | object bytes
            0, 1, 0, 0, 0xB1, 0xB2, 0xB3,
            b'S', b'E', b'G', b'E',           // segment magic-end
        ];
        assert_eq!(seg, want);
    }

    /// A crash inside a segment append leaves exactly the bytes its site
    /// documents: `log-append-object:k:crash:t` the header, k−1 whole records,
    /// then the k-th record's id and `t` bytes of its object (at most the
    /// whole object); `log-segment-sealed:1:crash:t` the sealed segment short
    /// of its last `t` bytes. Either way the scan drops the torn segment
    /// and reconstruction returns the previous image.
    #[test]
    fn torn_appends_leave_the_documented_geometry() {
        use crate::inject::{Inject, Plan};
        let full: Vec<(ObjectId, Vec<u8>)> = (0..4).map(|i| (ObjectId(i), obj(1))).collect();
        let dirty: Vec<(ObjectId, Vec<u8>)> = (1..4).map(|i| (ObjectId(i), obj(7))).collect();
        let record = 4 + 64;
        let sealed = 21 + 3 * record + 4;
        for (spec, torn_len) in [
            ("log-append-object:1:crash:0", 21 + 4),
            ("log-append-object:2:crash:10", 21 + record + 4 + 10),
            ("log-append-object:3:crash:64", 21 + 2 * record + 4 + 64),
            ("log-append-object:3:crash:500", 21 + 2 * record + 4 + 64),
            ("log-segment-sealed:1:crash:1", sealed - 1),
            ("log-segment-sealed:1:crash:30", sealed - 30),
        ] {
            let dir = tempfile::tempdir().unwrap();
            let mut log = LogStore::create(dir.path(), geometry()).unwrap();
            log.append_segment(0, 5, true, full.iter().map(|(i, b)| (*i, &b[..])), true)
                .unwrap();
            let start = log.len();
            let plan = Plan::parse(spec).unwrap();
            log.attach_inject(Some(Arc::new(Inject::armed([plan]))));
            log.append_segment(1, 9, false, dirty.iter().map(|(i, b)| (*i, &b[..])), true)
                .unwrap();
            let on_disk = std::fs::metadata(dir.path().join("checkpoint.log"))
                .unwrap()
                .len();
            assert_eq!(on_disk, start + torn_len, "{spec}");
            assert_eq!(
                log.segments().unwrap().len(),
                1,
                "{spec}: torn segment kept"
            );
            let (image, tick, _) = log.reconstruct().unwrap();
            assert_eq!(tick, 5, "{spec}");
            assert!(image.iter().all(|&b| b == 1), "{spec}: previous image");
        }
    }

    /// A sealed segment naming an object id past the geometry is corrupt
    /// data, not a reason to index out of the image.
    #[test]
    fn out_of_range_object_id_is_invalid_data() {
        let dir = tempfile::tempdir().unwrap();
        let mut log = LogStore::create(dir.path(), geometry()).unwrap();
        let stray = [(ObjectId(7), obj(5))];
        log.append_segment(
            3,
            4,
            true,
            stray.iter().map(|(i, b)| (*i, b.as_slice())),
            true,
        )
        .unwrap();
        let err = log.reconstruct().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let msg = err.to_string();
        assert!(
            msg.contains("segment 3") && msg.contains("object 7"),
            "{msg}"
        );
    }

    #[test]
    fn dirty_only_log_without_full_flush_fails() {
        let dir = tempfile::tempdir().unwrap();
        let mut log = LogStore::create(dir.path(), geometry()).unwrap();
        let d = [(ObjectId(0), obj(9))];
        log.append_segment(0, 3, false, d.iter().map(|(i, b)| (*i, b.as_slice())), true)
            .unwrap();
        assert!(log.reconstruct().is_err(), "no full flush to anchor on");
    }
}
