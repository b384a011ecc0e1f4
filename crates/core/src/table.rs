//! The in-memory game-state table.
//!
//! Game state is "a table containing game objects" (§2.1) kept entirely in
//! main memory. [`StateTable`] stores it as one contiguous byte buffer laid
//! out exactly as the disk-resident checkpoint, so that atomic objects can
//! be copied out with plain `memcpy` and written to their "well-defined
//! location" (§3.2) without any reshuffling.

use crate::error::CoreError;
use crate::geometry::{CellAddr, CellUpdate, ObjectId, StateGeometry};

/// A main-memory game-state table backed by a single byte buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StateTable {
    geometry: StateGeometry,
    /// `n_objects * object_size` bytes; the cell area is a prefix, the tail
    /// of the last object is zero padding.
    bytes: Vec<u8>,
}

impl StateTable {
    /// Create a zero-initialized table for the given geometry.
    pub fn new(geometry: StateGeometry) -> Result<Self, CoreError> {
        geometry.validate()?;
        let len = geometry.n_objects() as u64 * geometry.object_size as u64;
        Ok(StateTable {
            geometry,
            bytes: vec![0u8; len as usize],
        })
    }

    /// Adopt an owned checkpoint image as the table's backing buffer —
    /// the recovery fast path. Both restore tiers produce a full image
    /// in table layout (a backup read, a log reconstruct, or a replica
    /// mirror fetch); adopting it avoids `new` + `restore_all`'s
    /// zero-fill-then-overwrite double pass over the state.
    pub fn from_image(geometry: StateGeometry, bytes: Vec<u8>) -> Result<Self, CoreError> {
        geometry.validate()?;
        let len = geometry.n_objects() as u64 * geometry.object_size as u64;
        if bytes.len() as u64 != len {
            return Err(CoreError::CheckpointMismatch(format!(
                "image is {} bytes, expected {len}",
                bytes.len()
            )));
        }
        Ok(StateTable { geometry, bytes })
    }

    /// The table's geometry.
    #[inline]
    pub fn geometry(&self) -> &StateGeometry {
        &self.geometry
    }

    /// The full backing buffer, padded to a whole number of objects.
    #[inline]
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Apply a single cell update.
    pub fn apply(&mut self, update: CellUpdate) -> Result<ObjectId, CoreError> {
        let (start, _end) = self.geometry.cell_byte_range(update.addr)?;
        let obj = self.geometry.object_of_unchecked(update.addr);
        self.write_cell_bytes(start as usize, update.value);
        Ok(obj)
    }

    /// Apply a cell update without bounds checking.
    ///
    /// Used by the real engine's inner loop after trace validation; callers
    /// must guarantee the address is in range.
    #[inline]
    pub fn apply_unchecked(&mut self, update: CellUpdate) -> ObjectId {
        let idx = update.addr.row as u64 * self.geometry.cols as u64 + update.addr.col as u64;
        let start = (idx * self.geometry.cell_size as u64) as usize;
        self.write_cell_bytes(start, update.value);
        ObjectId((idx / self.geometry.cells_per_object() as u64) as u32)
    }

    #[inline]
    fn write_cell_bytes(&mut self, start: usize, value: u32) {
        let cell = self.geometry.cell_size as usize;
        let le = value.to_le_bytes();
        if cell >= 4 {
            self.bytes[start..start + 4].copy_from_slice(&le);
            // Cells wider than 4 bytes repeat the value pattern so every
            // byte of the cell is deterministic.
            for i in 4..cell {
                self.bytes[start + i] = le[i % 4];
            }
        } else {
            self.bytes[start..start + cell].copy_from_slice(&le[..cell]);
        }
    }

    /// Read back a cell value (the first up-to-4 bytes of the cell).
    pub fn read(&self, addr: CellAddr) -> Result<u32, CoreError> {
        let (start, _) = self.geometry.cell_byte_range(addr)?;
        let start = start as usize;
        let cell = self.geometry.cell_size as usize;
        let mut le = [0u8; 4];
        let n = cell.min(4);
        le[..n].copy_from_slice(&self.bytes[start..start + n]);
        Ok(u32::from_le_bytes(le))
    }

    /// Borrow the bytes of one atomic object.
    pub fn object_bytes(&self, obj: ObjectId) -> Result<&[u8], CoreError> {
        if obj.0 >= self.geometry.n_objects() {
            return Err(CoreError::ObjectOutOfBounds(obj.0));
        }
        let start = self.geometry.object_offset(obj) as usize;
        Ok(&self.bytes[start..start + self.geometry.object_size as usize])
    }

    /// Overwrite the whole state from a full checkpoint image.
    pub fn restore_all(&mut self, image: &[u8]) -> Result<(), CoreError> {
        if image.len() != self.bytes.len() {
            return Err(CoreError::CheckpointMismatch(format!(
                "image is {} bytes, expected {}",
                image.len(),
                self.bytes.len()
            )));
        }
        self.bytes.copy_from_slice(image);
        Ok(())
    }

    /// A stable 64-bit fingerprint of the entire state (FNV-1a), used by
    /// tests and recovery verification to compare states cheaply.
    pub fn fingerprint(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        // Hash 8 bytes at a time; the buffer length is not necessarily a
        // multiple of 8, so fold the tail byte-wise.
        let mut chunks = self.bytes.chunks_exact(8);
        for c in &mut chunks {
            let v = u64::from_le_bytes(c.try_into().unwrap());
            h ^= v;
            h = h.wrapping_mul(PRIME);
        }
        for &b in chunks.remainder() {
            h ^= u64::from(b);
            h = h.wrapping_mul(PRIME);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> StateTable {
        StateTable::new(StateGeometry::small(8, 4)).unwrap()
    }

    #[test]
    fn new_table_is_zeroed() {
        let t = small();
        assert!(t.as_bytes().iter().all(|&b| b == 0));
        assert_eq!(t.read(CellAddr::new(3, 2)).unwrap(), 0);
    }

    #[test]
    fn apply_then_read_roundtrips() {
        let mut t = small();
        let obj = t.apply(CellUpdate::new(2, 1, 0xdead_beef)).unwrap();
        assert_eq!(t.read(CellAddr::new(2, 1)).unwrap(), 0xdead_beef);
        assert_eq!(obj, t.geometry().object_of(CellAddr::new(2, 1)).unwrap());
        // Neighbouring cells untouched.
        assert_eq!(t.read(CellAddr::new(2, 0)).unwrap(), 0);
        assert_eq!(t.read(CellAddr::new(2, 2)).unwrap(), 0);
    }

    #[test]
    fn apply_unchecked_matches_apply() {
        let mut a = small();
        let mut b = small();
        for i in 0..32u32 {
            let u = CellUpdate::new(i % 8, i % 4, i.wrapping_mul(0x9e37_79b9));
            let oa = a.apply(u).unwrap();
            let ob = b.apply_unchecked(u);
            assert_eq!(oa, ob);
        }
        assert_eq!(a.as_bytes(), b.as_bytes());
    }

    #[test]
    fn out_of_bounds_update_is_rejected() {
        let mut t = small();
        assert!(t.apply(CellUpdate::new(8, 0, 1)).is_err());
        assert!(t.apply(CellUpdate::new(0, 4, 1)).is_err());
    }

    #[test]
    fn object_bytes_reflect_updates() {
        let mut t = small();
        // 64-byte objects, 16 cells per object: cell (0,0) is object 0.
        t.apply(CellUpdate::new(0, 0, 0x0102_0304)).unwrap();
        let obj = t.object_bytes(ObjectId(0)).unwrap();
        assert_eq!(&obj[0..4], &0x0102_0304u32.to_le_bytes());
        assert!(t.object_bytes(ObjectId(99)).is_err());
    }

    #[test]
    fn restore_rejects_wrong_sizes() {
        let mut t = small();
        assert!(t.restore_all(&[0u8; 10]).is_err());
        let g = *t.geometry();
        assert!(StateTable::from_image(g, vec![0u8; 10]).is_err());
    }

    #[test]
    fn fingerprint_changes_with_state() {
        let mut t = small();
        let f0 = t.fingerprint();
        t.apply(CellUpdate::new(1, 1, 7)).unwrap();
        let f1 = t.fingerprint();
        assert_ne!(f0, f1);
        t.apply(CellUpdate::new(1, 1, 0)).unwrap();
        assert_eq!(t.fingerprint(), f0);
    }

    #[test]
    fn wide_cells_are_deterministic() {
        let g = StateGeometry {
            rows: 4,
            cols: 2,
            cell_size: 8,
            object_size: 64,
        };
        let mut t = StateTable::new(g).unwrap();
        t.apply(CellUpdate::new(0, 0, 0xaabb_ccdd)).unwrap();
        assert_eq!(t.read(CellAddr::new(0, 0)).unwrap(), 0xaabb_ccdd);
        // The second half of the 8-byte cell repeats the pattern.
        let obj = t.object_bytes(ObjectId(0)).unwrap();
        assert_eq!(&obj[4..8], &0xaabb_ccddu32.to_le_bytes());
    }
}
