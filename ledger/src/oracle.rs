//! The in-memory oracle every recovered state is compared with, byte for
//! byte.
//!
//! It shares no code with the engine's tables: a flat byte image in the
//! checkpoint layout (row-major little-endian 4-byte cells, zero-padded to
//! whole objects) that the recorded block is applied to directly.

use mmoc_core::{ShardMap, StateGeometry};
use mmoc_workload::RecordedTrace;

/// The expected state after `tick` ticks of the cyclic `block`.
///
/// Every cell's value after a full pass is that of its last update in the
/// block, whatever the pass number, so for `tick` beyond one block the
/// state is the block applied once plus its first `tick mod len` ticks
/// applied again — the oracle never replays the whole run.
pub fn state_after(block: &RecordedTrace, tick: u64) -> Vec<u8> {
    let g = block.geometry();
    assert_eq!(g.cell_size, 4, "the oracle lays out 4-byte cells");
    let mut image = vec![0u8; g.n_objects() as usize * g.object_size as usize];
    let ticks = block.ticks();
    let len = ticks.len() as u64;
    let (whole, rest) = if tick <= len {
        (0, tick as usize)
    } else {
        (ticks.len(), (tick % len) as usize)
    };
    for batch in ticks[..whole].iter().chain(&ticks[..rest]) {
        for u in batch {
            let at = (u.addr.row as usize * g.cols as usize + u.addr.col as usize) * 4;
            image[at..at + 4].copy_from_slice(&u.value.to_le_bytes());
        }
    }
    image
}

/// Shard `shard`'s band of a whole-world `image`, in the layout of the
/// shard's own table.
pub fn shard_slice<'a>(image: &'a [u8], map: &ShardMap, shard: usize) -> &'a [u8] {
    let global: StateGeometry = map.global_geometry();
    let local = map.shard_geometry(shard);
    let start = map.object_start(shard) as usize * global.object_size as usize;
    &image[start..start + local.n_objects() as usize * local.object_size as usize]
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmoc_core::{CellUpdate, StateTable};

    fn block() -> RecordedTrace {
        // Tick 3 overwrites a cell tick 1 wrote; tick 2 writes another.
        RecordedTrace::new(
            StateGeometry::small(64, 4),
            vec![
                vec![CellUpdate::new(0, 0, 11), CellUpdate::new(5, 1, 12)],
                vec![CellUpdate::new(9, 3, 21)],
                vec![CellUpdate::new(0, 0, 31)],
            ],
        )
    }

    /// The long way round: apply ticks `1..=tick` of the cycled block to
    /// the engine's own table type.
    fn replayed(block: &RecordedTrace, tick: u64) -> Vec<u8> {
        let mut t = StateTable::new(block.geometry()).unwrap();
        for i in 0..tick {
            for &u in &block.ticks()[(i % block.n_ticks()) as usize] {
                t.apply(u).unwrap();
            }
        }
        t.as_bytes().to_vec()
    }

    #[test]
    fn the_shortcut_equals_a_full_replay_at_every_tick() {
        let b = block();
        for tick in 0..=10 {
            assert_eq!(state_after(&b, tick), replayed(&b, tick), "tick {tick}");
        }
        // Tick 4 = block once + tick 1 again: cell (0,0) is back to 11.
        assert_eq!(&state_after(&b, 4)[..4], &11u32.to_le_bytes());
        assert_eq!(&state_after(&b, 3)[..4], &31u32.to_le_bytes());
    }

    #[test]
    fn shard_slices_tile_the_world() {
        let g = StateGeometry {
            rows: 250_000,
            cols: 10,
            cell_size: 4,
            object_size: 512,
        };
        let map = ShardMap::new(g, 2).unwrap();
        let image = vec![0u8; g.n_objects() as usize * g.object_size as usize];
        let (a, b) = (shard_slice(&image, &map, 0), shard_slice(&image, &map, 1));
        assert_eq!(a.len() + b.len(), image.len());
        assert_eq!(a.as_ptr_range().end, b.as_ptr_range().start);
    }
}
