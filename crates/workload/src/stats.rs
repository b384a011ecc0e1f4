//! Trace characteristics, in the shape of the paper's Table 5.
//!
//! Table 5 summarizes the game trace as: number of units, attributes per
//! unit, number of ticks, and average updates per tick. [`TraceStats`]
//! computes those plus the distinct-cell/object footprints the
//! checkpointing algorithms actually care about.

use crate::trace::TraceSource;
use mmoc_core::bitmap::BitVec;
use mmoc_core::{CellUpdate, StateGeometry};

/// Summary statistics of one trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceStats {
    /// Geometry the trace targets (rows = units, cols = attributes).
    pub geometry: StateGeometry,
    /// Number of ticks scanned.
    pub ticks: u64,
    /// Total updates across all ticks.
    pub total_updates: u64,
    /// Average updates per tick.
    pub avg_updates_per_tick: f64,
    /// Smallest per-tick update count.
    pub min_updates_per_tick: u64,
    /// Largest per-tick update count.
    pub max_updates_per_tick: u64,
    /// Distinct cells touched across the whole trace.
    pub distinct_cells: u64,
    /// Distinct atomic objects touched across the whole trace.
    pub distinct_objects: u64,
    /// Distinct rows (game units) touched across the whole trace.
    pub distinct_rows: u64,
    /// Average distinct atomic objects touched per tick — the size of the
    /// per-tick dirty set, which drives copy-on-update costs.
    pub avg_distinct_objects_per_tick: f64,
}

impl TraceStats {
    /// Scan a trace source to completion and summarize it.
    pub fn scan<S: TraceSource>(source: &mut S) -> Self {
        let geometry = source.geometry();
        let n_cells = geometry.n_cells();
        assert!(
            u32::try_from(n_cells).is_ok(),
            "stats scanning supports up to 2^32 cells"
        );
        let mut cells_touched = BitVec::new(n_cells as u32);
        let mut objects_touched = BitVec::new(geometry.n_objects());
        let mut rows_touched = BitVec::new(geometry.rows);
        // Per-tick distinct objects, counted with a generation stamp to
        // avoid clearing a bitmap every tick.
        let mut obj_stamp = vec![0u32; geometry.n_objects() as usize];
        let mut stamp = 0u32;

        let mut buf: Vec<CellUpdate> = Vec::new();
        let mut ticks = 0u64;
        let mut total = 0u64;
        let mut min = u64::MAX;
        let mut max = 0u64;
        let mut distinct_obj_sum = 0u64;

        while source.next_tick(&mut buf) {
            ticks += 1;
            stamp += 1;
            let count = buf.len() as u64;
            total += count;
            min = min.min(count);
            max = max.max(count);
            for u in &buf {
                let cell = geometry
                    .cell_index(u.addr)
                    .expect("trace updates must be in bounds") as u32;
                cells_touched.set(cell);
                rows_touched.set(u.addr.row);
                let obj = geometry.object_of_unchecked(u.addr);
                objects_touched.set(obj.0);
                if obj_stamp[obj.index()] != stamp {
                    obj_stamp[obj.index()] = stamp;
                    distinct_obj_sum += 1;
                }
            }
        }

        TraceStats {
            geometry,
            ticks,
            total_updates: total,
            avg_updates_per_tick: if ticks == 0 {
                0.0
            } else {
                total as f64 / ticks as f64
            },
            min_updates_per_tick: if ticks == 0 { 0 } else { min },
            max_updates_per_tick: max,
            distinct_cells: u64::from(cells_touched.count_ones()),
            distinct_objects: u64::from(objects_touched.count_ones()),
            distinct_rows: u64::from(rows_touched.count_ones()),
            avg_distinct_objects_per_tick: if ticks == 0 {
                0.0
            } else {
                distinct_obj_sum as f64 / ticks as f64
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::RecordedTrace;

    #[test]
    fn stats_of_simple_trace() {
        let g = StateGeometry::test_micro(); // 64-byte objects, 16 cells each
        let trace = RecordedTrace::new(
            g,
            vec![
                vec![CellUpdate::new(0, 0, 1), CellUpdate::new(0, 1, 2)],
                vec![CellUpdate::new(0, 0, 3)],
                vec![
                    CellUpdate::new(4, 0, 4), // object 1
                    CellUpdate::new(8, 0, 5), // object 2
                    CellUpdate::new(8, 1, 6), // object 2 again
                ],
            ],
        );
        let stats = TraceStats::scan(&mut trace.replay());
        assert_eq!(stats.ticks, 3);
        assert_eq!(stats.total_updates, 6);
        assert_eq!(stats.avg_updates_per_tick, 2.0);
        assert_eq!(stats.min_updates_per_tick, 1);
        assert_eq!(stats.max_updates_per_tick, 3);
        // Cells (0,0), (0,1), (4,0), (8,0), (8,1).
        assert_eq!(stats.distinct_cells, 5);
        // Objects 0, 1, 2.
        assert_eq!(stats.distinct_objects, 3);
        assert_eq!(stats.distinct_rows, 3);
        // Per tick distinct objects: 1, 1, 2.
        assert!((stats.avg_distinct_objects_per_tick - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_trace_is_all_zero() {
        let g = StateGeometry::small(4, 4);
        let trace = RecordedTrace::new(g, vec![]);
        let stats = TraceStats::scan(&mut trace.replay());
        assert_eq!(stats.ticks, 0);
        assert_eq!(stats.total_updates, 0);
        assert_eq!(stats.avg_updates_per_tick, 0.0);
        assert_eq!(stats.min_updates_per_tick, 0);
        assert_eq!(stats.distinct_cells, 0);
    }

    #[test]
    fn synthetic_trace_stats_match_config() {
        let cfg = crate::synthetic::SyntheticConfig {
            geometry: StateGeometry::small(200, 10),
            ticks: 10,
            updates_per_tick: 100,
            skew: 0.0,
            seed: 3,
        };
        let stats = TraceStats::scan(&mut cfg.build());
        assert_eq!(stats.ticks, 10);
        assert_eq!(stats.total_updates, 1_000);
        assert_eq!(stats.avg_updates_per_tick, 100.0);
        assert!(stats.distinct_cells <= 1_000);
        assert!(stats.distinct_objects <= stats.distinct_cells);
    }
}
