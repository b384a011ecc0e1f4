//! Thread-shared game state for the Copy-on-Update engine.
//!
//! The mutator writes cells while the asynchronous writer reads whole
//! atomic objects "concurrently and thus must be thread-safe" (§4.1). The
//! copy-on-update protocol guarantees the writer never reads an object a
//! mutator is racing on (see the protocol notes on [`SharedTable`]), and
//! cells are `AtomicU32`s so the guarantee is also visible to the
//! compiler — relaxed loads/stores compile to plain moves on x86.

use mmoc_core::{CellUpdate, ObjectId, StateGeometry};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// The game-state table with atomically accessible 4-byte cells.
///
/// ## Copy-on-update protocol (shared with the writer thread)
///
/// * The writer reads an object's live cells only while holding that
///   object's lock, and only if the object's `copied` flag is clear; it
///   sets the `flushed` flag before releasing the lock.
/// * The mutator's first update to an unflushed, uncopied object takes the
///   lock, re-checks `flushed`, saves the object's pre-update image into
///   the side arena, and sets `copied` — all before writing the cell.
/// * Any later cell write happens only when `copied` or `flushed` is
///   already set, so the writer is guaranteed never to read those cells.
#[derive(Debug)]
pub struct SharedTable {
    geometry: StateGeometry,
    cells: Box<[AtomicU32]>,
}

impl SharedTable {
    /// Create a zeroed table. Requires a 4-byte cell size (the calibrated
    /// geometry of all paper experiments).
    pub fn new(geometry: StateGeometry) -> Self {
        geometry.validate().expect("valid geometry");
        assert_eq!(
            geometry.cell_size, 4,
            "SharedTable requires 4-byte cells (got {})",
            geometry.cell_size
        );
        let cells_per_object = geometry.cells_per_object() as u64;
        let n_cells = u64::from(geometry.n_objects()) * cells_per_object;
        let cells: Box<[AtomicU32]> = (0..n_cells).map(|_| AtomicU32::new(0)).collect();
        SharedTable { geometry, cells }
    }

    /// The table's geometry.
    pub fn geometry(&self) -> &StateGeometry {
        &self.geometry
    }

    /// Write one cell (mutator side).
    #[inline]
    pub fn write_cell(&self, update: CellUpdate) {
        let idx =
            update.addr.row as u64 * u64::from(self.geometry.cols) + u64::from(update.addr.col);
        self.cells[idx as usize].store(update.value, Ordering::Relaxed);
    }

    /// Read one cell (query phase).
    #[inline]
    pub fn read_cell(&self, row: u32, col: u32) -> u32 {
        let idx = row as u64 * u64::from(self.geometry.cols) + u64::from(col);
        self.cells[idx as usize].load(Ordering::Relaxed)
    }

    /// Read a cell by linear index (the copy-on-update arena copy path).
    #[inline]
    pub fn read_cell_raw(&self, idx: usize) -> u32 {
        self.cells[idx].load(Ordering::Relaxed)
    }

    /// Copy one atomic object's bytes into `buf` (little-endian cells).
    /// `buf` must be `object_size` bytes.
    pub fn read_object_into(&self, obj: ObjectId, buf: &mut [u8]) {
        let per = self.geometry.cells_per_object() as usize;
        let base = obj.index() * per;
        for (i, chunk) in buf.chunks_exact_mut(4).enumerate().take(per) {
            chunk.copy_from_slice(&self.cells[base + i].load(Ordering::Relaxed).to_le_bytes());
        }
    }

    /// Overwrite one atomic object from checkpoint bytes (recovery path).
    pub fn write_object(&self, obj: ObjectId, data: &[u8]) {
        let per = self.geometry.cells_per_object() as usize;
        let base = obj.index() * per;
        for (i, chunk) in data.chunks_exact(4).enumerate().take(per) {
            let v = u32::from_le_bytes(chunk.try_into().expect("4-byte chunk"));
            self.cells[base + i].store(v, Ordering::Relaxed);
        }
    }

    /// FNV-1a fingerprint over all cells, comparable with
    /// [`mmoc_core::StateTable::fingerprint`] for equal geometries.
    pub fn fingerprint(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        // Mirror StateTable::fingerprint: hash the byte stream 8 bytes at
        // a time, i.e. two consecutive LE cells per step.
        let mut chunks = self.cells.chunks_exact(2);
        for pair in &mut chunks {
            let lo = u64::from(pair[0].load(Ordering::Relaxed));
            let hi = u64::from(pair[1].load(Ordering::Relaxed));
            h ^= lo | (hi << 32);
            h = h.wrapping_mul(PRIME);
        }
        for cell in chunks.remainder() {
            for b in cell.load(Ordering::Relaxed).to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(PRIME);
            }
        }
        h
    }
}

/// A bitmap with atomic set/test, shared between mutator and writer.
#[derive(Debug)]
pub struct AtomicBitmap {
    words: Box<[AtomicU64]>,
    len: u32,
}

impl AtomicBitmap {
    /// Create with all bits clear.
    pub fn new(len: u32) -> Self {
        let n_words = (len as usize).div_ceil(64);
        AtomicBitmap {
            words: (0..n_words).map(|_| AtomicU64::new(0)).collect(),
            len,
        }
    }

    /// Number of bits.
    pub fn len(&self) -> u32 {
        self.len
    }

    /// True if the bitmap tracks zero bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Test bit `i` with acquire ordering (pairs with [`Self::set`]).
    #[inline]
    pub fn get(&self, i: u32) -> bool {
        debug_assert!(i < self.len);
        let w = self.words[(i / 64) as usize].load(Ordering::Acquire);
        (w >> (i % 64)) & 1 == 1
    }

    /// Set bit `i` with release ordering. Returns the previous value.
    #[inline]
    pub fn set(&self, i: u32) -> bool {
        debug_assert!(i < self.len);
        let mask = 1u64 << (i % 64);
        let prev = self.words[(i / 64) as usize].fetch_or(mask, Ordering::AcqRel);
        prev & mask != 0
    }

    /// Clear every bit (single-threaded phase between checkpoints).
    pub fn clear_all(&self) {
        for w in &self.words {
            w.store(0, Ordering::Release);
        }
    }
}

/// Lock `m`, ignoring poison: the engine's one poison policy for every
/// lock it takes (shard stores, per-object protocol locks, replica
/// mirrors). A poisoning panic belongs to a thread that already took the
/// run down, and the data behind each lock stays usable.
pub fn relock<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Everything the mutator and the asynchronous writer share: the live
/// table, the copy-on-update side arena, the `copied`/`flushed` flags and
/// the per-object locks of the protocol described on [`SharedTable`].
pub struct Shared {
    /// The live game state.
    pub table: SharedTable,
    /// Side arena holding pre-update images of copied objects (same cell
    /// layout as the table).
    pub arena: Box<[AtomicU32]>,
    /// Set by the mutator once it has saved an object's pre-update image.
    pub copied: AtomicBitmap,
    /// Set by the writer once an object's checkpoint value is on disk.
    pub flushed: AtomicBitmap,
    /// Per-object locks serializing the writer's read against the
    /// mutator's first-touch copy.
    pub locks: Box<[Mutex<()>]>,
}

impl Shared {
    /// Create protocol state over a zeroed table.
    pub fn new(table: SharedTable) -> Self {
        Shared::with_protocol(table, true)
    }

    /// As [`Shared::new`], but when `protocol` is false the arena, flags
    /// and locks are left empty. Purely-eager algorithms (Naive-Snapshot,
    /// Atomic-Copy-Dirty-Objects) never run the copy-on-update protocol —
    /// their writer reads only private buffers — so the state-sized arena
    /// and the per-object locks would be dead weight. Callers must not
    /// issue sweep jobs or take the copy slow path on a protocol-less
    /// `Shared`.
    pub fn with_protocol(table: SharedTable, protocol: bool) -> Self {
        let g = *table.geometry();
        let n = if protocol { g.n_objects() } else { 0 };
        let cells = u64::from(n) * u64::from(g.cells_per_object());
        Shared {
            table,
            arena: (0..cells).map(|_| AtomicU32::new(0)).collect(),
            copied: AtomicBitmap::new(n),
            flushed: AtomicBitmap::new(n),
            locks: (0..n).map(|_| Mutex::new(())).collect(),
        }
    }

    /// Copy an object's live cells into the arena (mutator, under lock).
    pub fn save_to_arena(&self, obj: ObjectId) {
        let per = self.table.geometry().cells_per_object() as usize;
        let base = obj.index() * per;
        for i in 0..per {
            let v = self.table.read_cell_raw(base + i);
            self.arena[base + i].store(v, Ordering::Relaxed);
        }
    }

    /// Read an object image from the arena into `buf` (writer, under
    /// lock, after observing `copied`).
    pub fn read_arena_into(&self, obj: ObjectId, buf: &mut [u8]) {
        let per = self.table.geometry().cells_per_object() as usize;
        let base = obj.index() * per;
        for (i, chunk) in buf.chunks_exact_mut(4).enumerate().take(per) {
            chunk.copy_from_slice(&self.arena[base + i].load(Ordering::Relaxed).to_le_bytes());
        }
    }

    /// Reset the per-checkpoint protocol state (mutator side, called only
    /// while the writer is idle between checkpoints).
    pub fn reset_for_checkpoint(&self) {
        self.copied.clear_all();
        self.flushed.clear_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmoc_core::{CellAddr, StateTable};

    fn geometry() -> StateGeometry {
        StateGeometry::small(32, 4)
    }

    #[test]
    fn cell_roundtrip() {
        let t = SharedTable::new(geometry());
        t.write_cell(CellUpdate::new(3, 2, 0xfeed));
        assert_eq!(t.read_cell(3, 2), 0xfeed);
        assert_eq!(t.read_cell(3, 1), 0);
    }

    #[test]
    fn object_read_matches_state_table_layout() {
        let g = geometry();
        let shared = SharedTable::new(g);
        let mut plain = StateTable::new(g).unwrap();
        for i in 0..32u32 {
            let u = CellUpdate::new(i, i % 4, i * 1000 + 7);
            shared.write_cell(u);
            plain.apply(u).unwrap();
        }
        let mut buf = vec![0u8; g.object_size as usize];
        for obj in 0..g.n_objects() {
            shared.read_object_into(ObjectId(obj), &mut buf);
            assert_eq!(
                buf.as_slice(),
                plain.object_bytes(ObjectId(obj)).unwrap(),
                "object {obj}"
            );
        }
    }

    #[test]
    fn fingerprint_matches_state_table() {
        let g = geometry();
        let shared = SharedTable::new(g);
        let mut plain = StateTable::new(g).unwrap();
        assert_eq!(shared.fingerprint(), plain.fingerprint());
        for i in 0..64u32 {
            let u = CellUpdate::new((i * 13) % 32, (i * 5) % 4, i ^ 0xabcd);
            shared.write_cell(u);
            plain.apply(u).unwrap();
        }
        assert_eq!(shared.fingerprint(), plain.fingerprint());
        assert!(plain.read(CellAddr::new(13, 1)).is_ok());
    }

    #[test]
    fn write_object_restores_cells() {
        let g = geometry();
        let t = SharedTable::new(g);
        t.write_cell(CellUpdate::new(0, 0, 5));
        let mut buf = vec![0u8; g.object_size as usize];
        t.read_object_into(ObjectId(0), &mut buf);
        t.write_cell(CellUpdate::new(0, 0, 9));
        assert_eq!(t.read_cell(0, 0), 9);
        t.write_object(ObjectId(0), &buf);
        assert_eq!(t.read_cell(0, 0), 5);
    }

    #[test]
    fn atomic_bitmap_set_get_clear() {
        let b = AtomicBitmap::new(130);
        assert!(!b.get(129));
        assert!(!b.set(129));
        assert!(b.set(129));
        assert!(b.get(129));
        b.clear_all();
        assert!(!b.get(129));
    }

    #[test]
    fn atomic_bitmap_is_actually_shared() {
        use std::sync::Arc;
        let b = Arc::new(AtomicBitmap::new(1024));
        let mut handles = Vec::new();
        for t in 0..4 {
            let b = Arc::clone(&b);
            handles.push(std::thread::spawn(move || {
                for i in (t..1024).step_by(4) {
                    b.set(i as u32);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        for i in 0..1024 {
            assert!(b.get(i));
        }
    }
}
