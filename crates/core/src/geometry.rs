//! State geometry: how game-state *cells* map onto *atomic objects*.
//!
//! The paper models game state as a table of game objects: rows are game
//! entities and columns are their attributes ("cells"). Updates arrive at
//! cell granularity, but all checkpointing decisions (dirty tracking,
//! copies, disk writes) happen at the granularity of an *atomic object*,
//! which the paper sizes to one disk sector (512 bytes) after packing cells
//! into logical pages (§4.1).
//!
//! [`StateGeometry`] captures this mapping. For the paper's synthetic
//! experiments the table is 1,000,000 rows × 10 columns of 4-byte cells
//! packed 128-to-an-object (40.96 MB, 78,125 objects); for the Knights and
//! Archers trace it is 400,128 rows × 13 columns (≈20.81 MB, 40,638
//! objects).

use crate::error::CoreError;

/// Identifier of an atomic object: its index in disk-offset order.
///
/// Atomic objects have "a well-defined location in the disk-resident
/// checkpoint" (§3.2); the id doubles as that location divided by the
/// object size.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ObjectId(pub u32);

impl ObjectId {
    /// The object's index as a `usize`, for slice indexing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Address of a single cell (one attribute of one game object).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CellAddr {
    /// Row (game entity) index.
    pub row: u32,
    /// Column (attribute) index.
    pub col: u32,
}

impl CellAddr {
    /// Convenience constructor.
    #[inline]
    pub fn new(row: u32, col: u32) -> Self {
        CellAddr { row, col }
    }
}

/// One logical update: a new value for one cell.
///
/// Update traces — synthetic or recorded from the game server — are streams
/// of `CellUpdate`s grouped by tick. The value is carried so that recovery
/// replay is deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellUpdate {
    /// The cell being written.
    pub addr: CellAddr,
    /// The new 4-byte cell value.
    pub value: u32,
}

impl CellUpdate {
    /// Convenience constructor.
    #[inline]
    pub fn new(row: u32, col: u32, value: u32) -> Self {
        CellUpdate {
            addr: CellAddr::new(row, col),
            value,
        }
    }
}

/// Shape of the game-state table and its packing into atomic objects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StateGeometry {
    /// Number of rows (game entities).
    pub rows: u32,
    /// Number of columns (attributes per entity).
    pub cols: u32,
    /// Size of one cell in bytes. The paper's experiments imply 4 bytes
    /// (see DESIGN.md, "calibrated geometry").
    pub cell_size: u32,
    /// Size of one atomic object in bytes; the paper uses one disk sector
    /// (512 bytes).
    pub object_size: u32,
}

impl StateGeometry {
    /// Geometry of the paper's synthetic (Zipfian) experiments:
    /// 1M rows × 10 columns of 4-byte cells, 512-byte atomic objects.
    pub fn paper_synthetic() -> Self {
        StateGeometry {
            rows: 1_000_000,
            cols: 10,
            cell_size: 4,
            object_size: 512,
        }
    }

    /// Geometry of the Knights and Archers trace: 400,128 units × 13
    /// attributes (Table 5).
    pub fn paper_game() -> Self {
        StateGeometry {
            rows: 400_128,
            cols: 13,
            cell_size: 4,
            object_size: 512,
        }
    }

    /// A small geometry convenient for tests: `rows × cols` 4-byte cells
    /// packed into 64-byte objects.
    pub fn small(rows: u32, cols: u32) -> Self {
        StateGeometry {
            rows,
            cols,
            cell_size: 4,
            object_size: 64,
        }
    }

    /// The workspace's standard small test geometry: 512 × 8 cells in
    /// 64-byte objects (16 KB of state, 256 atomic objects). Shared by
    /// engine and integration tests so trace configs stay comparable.
    pub fn test_small() -> Self {
        StateGeometry::small(512, 8)
    }

    /// The standard hot-contention test geometry: 64 × 8 cells in 64-byte
    /// objects (32 objects) — tiny enough that skewed workloads touch
    /// everything every tick.
    pub fn test_hot() -> Self {
        StateGeometry::small(64, 8)
    }

    /// The standard file-level test geometry: 16 × 4 cells in 64-byte
    /// objects (4 objects) — small enough to eyeball byte offsets.
    pub fn test_micro() -> Self {
        StateGeometry::small(16, 4)
    }

    /// Validate internal consistency.
    pub fn validate(&self) -> Result<(), CoreError> {
        if self.rows == 0 || self.cols == 0 {
            return Err(CoreError::InvalidGeometry(
                "rows and cols must be non-zero".into(),
            ));
        }
        if self.cell_size == 0 || self.object_size == 0 {
            return Err(CoreError::InvalidGeometry(
                "cell_size and object_size must be non-zero".into(),
            ));
        }
        if !self.object_size.is_multiple_of(self.cell_size) {
            return Err(CoreError::InvalidGeometry(format!(
                "object_size ({}) must be a multiple of cell_size ({})",
                self.object_size, self.cell_size
            )));
        }
        let cells = self.rows as u64 * self.cols as u64;
        let bytes = cells * self.cell_size as u64;
        if bytes > u64::from(u32::MAX) * u64::from(self.object_size) {
            return Err(CoreError::InvalidGeometry(
                "state too large: object ids must fit in u32".into(),
            ));
        }
        Ok(())
    }

    /// Total number of cells in the table.
    #[inline]
    pub fn n_cells(&self) -> u64 {
        self.rows as u64 * self.cols as u64
    }

    /// Total size of the state in bytes.
    #[inline]
    pub fn state_bytes(&self) -> u64 {
        self.n_cells() * self.cell_size as u64
    }

    /// Number of cells packed into one atomic object.
    #[inline]
    pub fn cells_per_object(&self) -> u32 {
        self.object_size / self.cell_size
    }

    /// Number of atomic objects (the paper's *n*). The final object may be
    /// partially filled.
    #[inline]
    pub fn n_objects(&self) -> u32 {
        let per = self.cells_per_object() as u64;
        self.n_cells().div_ceil(per) as u32
    }

    /// Linear index of a cell in row-major order.
    #[inline]
    pub fn cell_index(&self, addr: CellAddr) -> Result<u64, CoreError> {
        if addr.row >= self.rows || addr.col >= self.cols {
            return Err(CoreError::CellOutOfBounds {
                row: addr.row,
                col: addr.col,
            });
        }
        Ok(addr.row as u64 * self.cols as u64 + addr.col as u64)
    }

    /// Atomic object containing a cell.
    #[inline]
    pub fn object_of(&self, addr: CellAddr) -> Result<ObjectId, CoreError> {
        let idx = self.cell_index(addr)?;
        Ok(ObjectId((idx / self.cells_per_object() as u64) as u32))
    }

    /// Atomic object containing a cell, without bounds checking.
    ///
    /// The caller must guarantee the address is in range; the simulator's
    /// inner loop uses this after the trace generator has been validated.
    #[inline]
    pub fn object_of_unchecked(&self, addr: CellAddr) -> ObjectId {
        let idx = addr.row as u64 * self.cols as u64 + addr.col as u64;
        ObjectId((idx / self.cells_per_object() as u64) as u32)
    }

    /// Byte offset of an object in the checkpoint file (its "well-defined
    /// location").
    #[inline]
    pub fn object_offset(&self, obj: ObjectId) -> u64 {
        obj.0 as u64 * self.object_size as u64
    }

    /// Byte range `[start, end)` a cell occupies within the whole state.
    #[inline]
    pub fn cell_byte_range(&self, addr: CellAddr) -> Result<(u64, u64), CoreError> {
        let idx = self.cell_index(addr)?;
        let start = idx * self.cell_size as u64;
        Ok((start, start + self.cell_size as u64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_synthetic_matches_calibration() {
        let g = StateGeometry::paper_synthetic();
        g.validate().unwrap();
        assert_eq!(g.n_cells(), 10_000_000);
        assert_eq!(g.state_bytes(), 40_000_000); // 40 MB
        assert_eq!(g.cells_per_object(), 128);
        assert_eq!(g.n_objects(), 78_125);
    }

    #[test]
    fn paper_game_matches_table5() {
        let g = StateGeometry::paper_game();
        g.validate().unwrap();
        assert_eq!(g.n_cells(), 400_128 * 13);
        assert_eq!(g.n_objects(), 40_638);
        // ≈ 20.81 MB of state.
        assert_eq!(g.state_bytes(), 20_806_656);
    }

    #[test]
    fn cell_to_object_mapping_is_row_major() {
        let g = StateGeometry::small(10, 4); // 16 cells per object
        assert_eq!(g.cells_per_object(), 16);
        // Cells 0..16 -> object 0; cell (4,0) has index 16 -> object 1.
        assert_eq!(g.object_of(CellAddr::new(0, 0)).unwrap(), ObjectId(0));
        assert_eq!(g.object_of(CellAddr::new(3, 3)).unwrap(), ObjectId(0));
        assert_eq!(g.object_of(CellAddr::new(4, 0)).unwrap(), ObjectId(1));
        assert_eq!(g.object_of(CellAddr::new(9, 3)).unwrap(), ObjectId(2));
        assert_eq!(g.n_objects(), 3); // 40 cells / 16 = 2.5 -> 3
    }

    #[test]
    fn out_of_bounds_is_rejected() {
        let g = StateGeometry::small(10, 4);
        assert!(matches!(
            g.object_of(CellAddr::new(10, 0)),
            Err(CoreError::CellOutOfBounds { row: 10, col: 0 })
        ));
        assert!(matches!(
            g.object_of(CellAddr::new(0, 4)),
            Err(CoreError::CellOutOfBounds { .. })
        ));
    }

    #[test]
    fn validation_rejects_bad_shapes() {
        let mut g = StateGeometry::small(10, 4);
        g.object_size = 62; // not a multiple of 4
        assert!(g.validate().is_err());
        let mut g = StateGeometry::small(10, 4);
        g.rows = 0;
        assert!(g.validate().is_err());
        let mut g = StateGeometry::small(10, 4);
        g.cell_size = 0;
        assert!(g.validate().is_err());
    }

    #[test]
    fn object_offsets_are_contiguous() {
        let g = StateGeometry::paper_synthetic();
        assert_eq!(g.object_offset(ObjectId(0)), 0);
        assert_eq!(g.object_offset(ObjectId(1)), 512);
        assert_eq!(
            g.object_offset(ObjectId(g.n_objects() - 1)),
            (g.n_objects() as u64 - 1) * 512
        );
    }

    #[test]
    fn cell_byte_ranges_do_not_overlap() {
        let g = StateGeometry::small(4, 4);
        let (s0, e0) = g.cell_byte_range(CellAddr::new(0, 0)).unwrap();
        let (s1, e1) = g.cell_byte_range(CellAddr::new(0, 1)).unwrap();
        assert_eq!(e0, s1);
        assert_eq!(e1 - s1, 4);
        assert_eq!(s0, 0);
    }

    #[test]
    fn unchecked_matches_checked_in_bounds() {
        let g = StateGeometry::small(7, 5);
        for row in 0..7 {
            for col in 0..5 {
                let a = CellAddr::new(row, col);
                assert_eq!(g.object_of(a).unwrap(), g.object_of_unchecked(a));
            }
        }
    }
}
