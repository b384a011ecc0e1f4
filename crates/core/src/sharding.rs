//! The shard layer: N independent framework loops over disjoint slices of
//! one world.
//!
//! The paper checkpoints a single monolithic state table, but its
//! framework loop is per-object and partitions cleanly: split the table
//! into N disjoint row bands, give each band its own [`TickDriver`] +
//! [`Bookkeeper`](crate::Bookkeeper), and route each update to the band
//! that owns its row. Shards then checkpoint — and, crucially, *recover* —
//! independently and in parallel, which is the standard MMOG scaling move
//! (zone/shard partitioning) applied to the recovery machinery itself.
//!
//! Three pieces live here:
//!
//! * [`ShardMap`] — the partition: disjoint row bands whose boundaries are
//!   aligned to atomic-object boundaries, so every atomic object belongs
//!   to exactly one shard and per-shard object ids are a dense renumbering
//!   of a contiguous global range.
//! * [`ShardedDriver`] — the orchestration: one [`DriverStep`] per shard,
//!   advanced in lockstep over a single global trace. Each global tick is
//!   routed into per-shard update batches and every shard executes its
//!   full framework loop body for that tick.
//! * [`ShardFilter`] — a [`TraceSource`] adapter yielding one shard's
//!   slice of a global trace in shard-local coordinates; recovery replays
//!   a crashed shard through it without touching its neighbours.
//!
//! With one shard the map is the identity and [`ShardedDriver::run`]
//! performs exactly the same backend call sequence as
//! [`TickDriver::run`] — the sharded path at N = 1 *is* the single-driver
//! path.

use crate::driver::{CheckpointBackend, DriverRun, DriverStep, TickDriver};
use crate::error::CoreError;
use crate::geometry::{CellUpdate, ObjectId, StateGeometry};
use crate::metrics::RunMetrics;
use crate::trace::TraceSource;

/// A partition of a [`StateGeometry`] into N disjoint, object-aligned row
/// bands.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardMap {
    global: StateGeometry,
    /// Band boundaries in rows: `row_starts[s] .. row_starts[s + 1]` is
    /// shard `s`; length `n_shards + 1`, first 0, last `global.rows`.
    row_starts: Vec<u32>,
}

impl ShardMap {
    /// Partition `global` into `n_shards` row bands of near-equal size.
    ///
    /// Band boundaries are aligned so that each boundary row starts a new
    /// atomic object (boundaries fall on multiples of
    /// `lcm(cells_per_object, cols) / cols` rows); the alignment is what
    /// makes object ownership disjoint. Fails if the geometry is invalid,
    /// `n_shards` is zero, or the table has fewer aligned bands than
    /// requested shards.
    pub fn new(global: StateGeometry, n_shards: u32) -> Result<Self, CoreError> {
        global.validate()?;
        if n_shards == 0 {
            return Err(CoreError::InvalidGeometry(
                "shard count must be non-zero".into(),
            ));
        }
        let align_rows = Self::align_rows(&global);
        // Blocks of `align_rows` rows; the final block may be partial.
        let blocks = u64::from(global.rows).div_ceil(u64::from(align_rows));
        if u64::from(n_shards) > blocks {
            return Err(CoreError::InvalidGeometry(format!(
                "cannot split {} rows into {} shards: only {} object-aligned \
                 bands of {} rows exist",
                global.rows, n_shards, blocks, align_rows
            )));
        }
        let n = u64::from(n_shards);
        let per = blocks / n;
        let extra = blocks % n;
        let mut row_starts = Vec::with_capacity(n_shards as usize + 1);
        let mut block = 0u64;
        row_starts.push(0);
        for s in 0..n {
            block += per + u64::from(s < extra);
            let row = (block * u64::from(align_rows)).min(u64::from(global.rows)) as u32;
            row_starts.push(row);
        }
        debug_assert_eq!(*row_starts.last().expect("non-empty"), global.rows);
        Ok(ShardMap { global, row_starts })
    }

    /// Rows per object-aligned block: the smallest row count after which
    /// both a row boundary and an atomic-object boundary coincide.
    fn align_rows(g: &StateGeometry) -> u32 {
        fn gcd(a: u64, b: u64) -> u64 {
            if b == 0 {
                a
            } else {
                gcd(b, a % b)
            }
        }
        let per = u64::from(g.cells_per_object());
        let cols = u64::from(g.cols);
        let lcm_cells = per / gcd(per, cols) * cols;
        (lcm_cells / cols) as u32
    }

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.row_starts.len() - 1
    }

    /// The unpartitioned world geometry.
    pub fn global_geometry(&self) -> StateGeometry {
        self.global
    }

    /// First row of shard `s`.
    pub fn row_start(&self, shard: usize) -> u32 {
        self.row_starts[shard]
    }

    /// Geometry of shard `s`'s slice of the world (same cell and object
    /// sizes, the band's rows).
    pub fn shard_geometry(&self, shard: usize) -> StateGeometry {
        StateGeometry {
            rows: self.row_starts[shard + 1] - self.row_starts[shard],
            cols: self.global.cols,
            cell_size: self.global.cell_size,
            object_size: self.global.object_size,
        }
    }

    /// First *global* object id owned by shard `s`. Shard-local object id
    /// `o` corresponds to global object id `object_start(s) + o`.
    pub fn object_start(&self, shard: usize) -> u32 {
        let cells = u64::from(self.row_starts[shard]) * u64::from(self.global.cols);
        (cells / u64::from(self.global.cells_per_object())) as u32
    }

    /// The shard owning a global row.
    #[inline]
    pub fn shard_of_row(&self, row: u32) -> usize {
        debug_assert!(row < self.global.rows);
        // partition_point over the inner boundaries: index of the first
        // boundary strictly above `row`.
        self.row_starts[1..].partition_point(|&start| start <= row)
    }

    /// The shard owning a global atomic object.
    pub fn shard_of_object(&self, obj: ObjectId) -> usize {
        let cell = u64::from(obj.0) * u64::from(self.global.cells_per_object());
        let row = (cell / u64::from(self.global.cols)) as u32;
        self.shard_of_row(row)
    }

    /// Route one global update: the owning shard plus the update rewritten
    /// into that shard's local row coordinates.
    #[inline]
    pub fn route(&self, u: CellUpdate) -> (usize, CellUpdate) {
        let shard = self.shard_of_row(u.addr.row);
        (shard, self.to_local(shard, u))
    }

    /// Rewrite a global update into shard-local coordinates. The caller
    /// must pass the owning shard.
    #[inline]
    pub fn to_local(&self, shard: usize, mut u: CellUpdate) -> CellUpdate {
        u.addr.row -= self.row_starts[shard];
        u
    }

    /// Rewrite a shard-local update back into global coordinates.
    #[inline]
    pub fn to_global(&self, shard: usize, mut u: CellUpdate) -> CellUpdate {
        u.addr.row += self.row_starts[shard];
        u
    }

    /// Route a tick's global updates into per-shard batches. `bufs` must
    /// have one buffer per shard; each is cleared first.
    pub fn route_into(&self, updates: &[CellUpdate], bufs: &mut [Vec<CellUpdate>]) {
        assert_eq!(bufs.len(), self.n_shards(), "one buffer per shard");
        for b in bufs.iter_mut() {
            b.clear();
        }
        for &u in updates {
            let (shard, local) = self.route(u);
            bufs[shard].push(local);
        }
    }
}

/// Result of one sharded run: per-shard [`DriverRun`]s plus the global
/// tick/update totals.
#[derive(Debug, Clone)]
pub struct ShardedRun {
    /// Global ticks executed (every shard executes every tick).
    pub ticks: u64,
    /// Total updates routed across all shards.
    pub updates: u64,
    /// One run result per shard, in shard order.
    pub shards: Vec<DriverRun>,
}

impl ShardedRun {
    /// World-level metrics: per-tick latency maxed and work summed across
    /// shards, checkpoints unioned (see [`RunMetrics::merge_shards`]).
    pub fn merged_metrics(&self) -> RunMetrics {
        RunMetrics::merge_shards(self.shards.iter().map(|r| &r.metrics))
    }
}

/// N framework loops in lockstep: one [`TickDriver`] + bookkeeper per
/// shard, fed by routing a single global trace through a [`ShardMap`].
#[derive(Debug, Clone)]
pub struct ShardedDriver {
    driver: TickDriver,
    map: ShardMap,
}

impl ShardedDriver {
    /// Create a sharded driver. The inner [`TickDriver`] carries the
    /// algorithm spec and the batching flag, applied per shard.
    pub fn new(driver: TickDriver, map: ShardMap) -> Self {
        ShardedDriver { driver, map }
    }

    /// The shard map in use.
    pub fn map(&self) -> &ShardMap {
        &self.map
    }

    /// Replay the global `trace`, routing each tick's updates to the
    /// per-shard backends. `backends[s]` serves shard `s` and must be
    /// built over [`ShardMap::shard_geometry`]`(s)`.
    ///
    /// Panics if the trace geometry differs from the map's global
    /// geometry or the backend count differs from the shard count.
    pub fn run<S, B>(&self, trace: &mut S, backends: &mut [B]) -> Result<ShardedRun, B::Error>
    where
        S: TraceSource,
        B: CheckpointBackend,
    {
        self.run_with(trace, backends, |_| {})
    }

    /// As [`ShardedDriver::run`], invoking `on_tick_end(tick)` once after
    /// every **global** tick — after all shards have executed their
    /// framework-loop body for that tick (1-based tick numbers).
    ///
    /// This is the hook for world-level per-tick concerns. The real
    /// engine's paced mode uses it to sleep out the remainder of the tick
    /// period exactly once per global tick; sleeping per shard (N sleeps
    /// per tick) would stretch the world's tick N-fold.
    pub fn run_with<S, B, F>(
        &self,
        trace: &mut S,
        backends: &mut [B],
        mut on_tick_end: F,
    ) -> Result<ShardedRun, B::Error>
    where
        S: TraceSource,
        B: CheckpointBackend,
        F: FnMut(u64),
    {
        assert_eq!(
            trace.geometry(),
            self.map.global_geometry(),
            "trace geometry must match the shard map"
        );
        let n = self.map.n_shards();
        assert_eq!(backends.len(), n, "one backend per shard");

        let mut steps: Vec<DriverStep> = (0..n)
            .map(|s| self.driver.begin(self.map.shard_geometry(s)))
            .collect();
        let mut global_buf = Vec::new();
        let mut shard_bufs: Vec<Vec<CellUpdate>> = vec![Vec::new(); n];
        let mut ticks = 0u64;
        let mut updates = 0u64;

        while trace.next_tick(&mut global_buf) {
            ticks += 1;
            updates += global_buf.len() as u64;
            self.map.route_into(&global_buf, &mut shard_bufs);
            for (s, step) in steps.iter_mut().enumerate() {
                step.tick(&shard_bufs[s], &mut backends[s])?;
            }
            on_tick_end(ticks);
        }

        let mut shards = Vec::with_capacity(n);
        for (s, step) in steps.into_iter().enumerate() {
            shards.push(step.finish(&mut backends[s])?);
        }
        Ok(ShardedRun {
            ticks,
            updates,
            shards,
        })
    }
}

/// A [`TraceSource`] adapter yielding one shard's slice of a global trace,
/// in shard-local coordinates.
///
/// Used by per-shard recovery replay: a crashed shard re-iterates the
/// deterministic global trace through its filter, seeing exactly the
/// updates it owns. Over a one-shard map the filter is the identity and
/// passes each inner tick through without copying it.
#[derive(Debug)]
pub struct ShardFilter<S> {
    inner: S,
    map: ShardMap,
    shard: usize,
    scratch: Vec<CellUpdate>,
}

impl<S: TraceSource> ShardFilter<S> {
    /// Filter `inner` down to `shard`'s updates. Panics if the trace
    /// geometry differs from the map's global geometry or the shard index
    /// is out of range.
    pub fn new(inner: S, map: ShardMap, shard: usize) -> Self {
        assert_eq!(
            inner.geometry(),
            map.global_geometry(),
            "trace geometry must match the shard map"
        );
        assert!(shard < map.n_shards(), "shard index out of range");
        ShardFilter {
            inner,
            map,
            shard,
            scratch: Vec::new(),
        }
    }
}

impl<S: TraceSource> TraceSource for ShardFilter<S> {
    fn geometry(&self) -> StateGeometry {
        self.map.shard_geometry(self.shard)
    }

    fn next_tick(&mut self, buf: &mut Vec<CellUpdate>) -> bool {
        if self.map.n_shards() == 1 {
            // The only band starts at row 0: routing rewrites nothing,
            // so the inner tick passes through untouched.
            return self.inner.next_tick(buf);
        }
        buf.clear();
        if !self.inner.next_tick(&mut self.scratch) {
            return false;
        }
        for &u in &self.scratch {
            let (shard, local) = self.map.route(u);
            if shard == self.shard {
                buf.push(local);
            }
        }
        true
    }

    fn total_ticks(&self) -> Option<u64> {
        self.inner.total_ticks()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::Algorithm;
    use crate::geometry::CellAddr;

    #[test]
    fn single_shard_map_is_identity() {
        let g = StateGeometry::test_small();
        let map = ShardMap::new(g, 1).unwrap();
        assert_eq!(map.n_shards(), 1);
        assert_eq!(map.shard_geometry(0), g);
        assert_eq!(map.object_start(0), 0);
        let u = CellUpdate::new(17, 3, 42);
        assert_eq!(map.route(u), (0, u));
    }

    #[test]
    fn bands_are_disjoint_aligned_and_exhaustive() {
        // 16 cells/object, 8 cols -> boundaries every 2 rows.
        let g = StateGeometry::test_small();
        for n in [1u32, 2, 3, 4, 8] {
            let map = ShardMap::new(g, n).unwrap();
            assert_eq!(map.n_shards(), n as usize);
            let mut rows = 0u32;
            let mut objects = 0u32;
            for s in 0..map.n_shards() {
                let sg = map.shard_geometry(s);
                sg.validate().unwrap();
                assert_eq!(map.row_start(s), rows);
                assert_eq!(map.object_start(s), objects);
                rows += sg.rows;
                objects += sg.n_objects();
            }
            assert_eq!(rows, g.rows, "bands cover every row");
            assert_eq!(objects, g.n_objects(), "object ids are dense");
        }
    }

    #[test]
    fn unaligned_cols_still_split_on_object_boundaries() {
        // 128 cells/object over 10 cols: boundaries every 64 rows.
        let g = StateGeometry::paper_synthetic();
        let map = ShardMap::new(g, 8).unwrap();
        let mut objects = 0u32;
        for s in 0..8 {
            assert_eq!(map.row_start(s) % 64, 0, "shard {s} boundary unaligned");
            assert_eq!(map.object_start(s), objects);
            objects += map.shard_geometry(s).n_objects();
        }
        assert_eq!(objects, g.n_objects());
    }

    #[test]
    fn routing_matches_object_ownership() {
        let g = StateGeometry::paper_game(); // 13 cols, 128 cells/object
        let map = ShardMap::new(g, 4).unwrap();
        for row in (0..g.rows).step_by(997) {
            for col in [0, 7, 12] {
                let addr = CellAddr::new(row, col);
                let obj = g.object_of(addr).unwrap();
                let shard = map.shard_of_row(row);
                assert_eq!(map.shard_of_object(obj), shard);
                let (s, local) = map.route(CellUpdate::new(row, col, 1));
                assert_eq!(s, shard);
                // Local object id is the global id renumbered densely.
                let local_obj = map.shard_geometry(s).object_of(local.addr).unwrap();
                assert_eq!(local_obj.0 + map.object_start(s), obj.0);
                // And the round trip restores the global address.
                assert_eq!(
                    map.to_global(s, local),
                    CellUpdate::new(row, col, 1),
                    "row {row}"
                );
            }
        }
    }

    #[test]
    fn too_many_shards_is_rejected() {
        let g = StateGeometry::test_micro(); // 16 rows, 4 aligned bands
        assert!(ShardMap::new(g, 4).is_ok());
        assert!(matches!(
            ShardMap::new(g, 5),
            Err(CoreError::InvalidGeometry(_))
        ));
        assert!(matches!(
            ShardMap::new(g, 0),
            Err(CoreError::InvalidGeometry(_))
        ));
    }

    /// A deterministic trace over the global geometry.
    struct TestTrace {
        g: StateGeometry,
        ticks: u64,
        per_tick: u32,
        next: u64,
    }

    impl TraceSource for TestTrace {
        fn geometry(&self) -> StateGeometry {
            self.g
        }

        fn next_tick(&mut self, buf: &mut Vec<CellUpdate>) -> bool {
            buf.clear();
            if self.next >= self.ticks {
                return false;
            }
            for i in 0..self.per_tick {
                let row = ((self.next as u32).wrapping_mul(31) + i * 17) % self.g.rows;
                buf.push(CellUpdate::new(row, i % self.g.cols, i));
            }
            self.next += 1;
            true
        }
    }

    /// Minimal backend counting calls (mirrors the driver's mock).
    struct CountingBackend {
        latency_ticks: u64,
        ticks_since_start: u64,
        in_flight: Option<u32>,
        updates_applied: u64,
    }

    impl CountingBackend {
        fn new() -> Self {
            CountingBackend {
                latency_ticks: 2,
                ticks_since_start: 0,
                in_flight: None,
                updates_applied: 0,
            }
        }

        fn completion(&mut self) -> crate::driver::FlushCompletion {
            let objects = self.in_flight.take().expect("in flight");
            crate::driver::FlushCompletion {
                duration_s: 0.001,
                objects_written: objects,
                bytes_written: u64::from(objects) * 64,
            }
        }
    }

    impl CheckpointBackend for CountingBackend {
        type Error = std::convert::Infallible;

        fn begin_tick(&mut self, _tick: u64) -> Result<(), Self::Error> {
            Ok(())
        }

        fn cursor(&mut self) -> crate::FlushCursor {
            crate::FlushCursor::START
        }

        fn apply_update(
            &mut self,
            _update: CellUpdate,
            _obj: ObjectId,
            _ops: crate::UpdateOps,
        ) -> Result<(), Self::Error> {
            self.updates_applied += 1;
            Ok(())
        }

        fn end_updates(
            &mut self,
            _bk: &crate::Bookkeeper,
            ops: &crate::TickOps,
        ) -> Result<f64, Self::Error> {
            Ok(ops.bit_ops as f64 * 1e-9)
        }

        fn poll_completion(
            &mut self,
            _bk: &crate::Bookkeeper,
        ) -> Result<Option<crate::driver::FlushCompletion>, Self::Error> {
            self.ticks_since_start += 1;
            if self.ticks_since_start >= self.latency_ticks {
                Ok(Some(self.completion()))
            } else {
                Ok(None)
            }
        }

        fn start_checkpoint(
            &mut self,
            _bk: &crate::Bookkeeper,
            plan: &crate::CheckpointPlan,
            _tick: u64,
        ) -> Result<f64, Self::Error> {
            self.in_flight = Some(plan.flush.objects());
            self.ticks_since_start = 0;
            Ok(0.0)
        }

        fn drain(
            &mut self,
            _bk: &crate::Bookkeeper,
        ) -> Result<Option<crate::driver::FlushCompletion>, Self::Error> {
            Ok(Some(self.completion()))
        }
    }

    #[test]
    fn sharded_run_covers_every_update_exactly_once() {
        let g = StateGeometry::test_small();
        for n in [1u32, 2, 4] {
            let map = ShardMap::new(g, n).unwrap();
            let driver =
                ShardedDriver::new(TickDriver::new(Algorithm::CopyOnUpdate.spec()), map.clone());
            let mut backends: Vec<CountingBackend> =
                (0..n).map(|_| CountingBackend::new()).collect();
            let mut trace = TestTrace {
                g,
                ticks: 20,
                per_tick: 50,
                next: 0,
            };
            let run = driver.run(&mut trace, &mut backends).expect("infallible");
            assert_eq!(run.ticks, 20);
            assert_eq!(run.updates, 20 * 50);
            let routed: u64 = backends.iter().map(|b| b.updates_applied).sum();
            assert_eq!(routed, run.updates, "n={n}: every update lands once");
            let per_shard: u64 = run.shards.iter().map(|r| r.updates).sum();
            assert_eq!(per_shard, run.updates);
            for r in &run.shards {
                assert_eq!(r.ticks, 20, "every shard ticks every global tick");
                assert!(!r.metrics.checkpoints.is_empty());
            }
        }
    }

    #[test]
    fn tick_hook_fires_once_per_global_tick_not_per_shard() {
        let g = StateGeometry::test_small();
        let map = ShardMap::new(g, 4).unwrap();
        let driver = ShardedDriver::new(TickDriver::new(Algorithm::CopyOnUpdate.spec()), map);
        let mut backends: Vec<CountingBackend> = (0..4).map(|_| CountingBackend::new()).collect();
        let mut trace = TestTrace {
            g,
            ticks: 15,
            per_tick: 30,
            next: 0,
        };
        let mut fired = Vec::new();
        let run = driver
            .run_with(&mut trace, &mut backends, |t| fired.push(t))
            .expect("infallible");
        assert_eq!(run.ticks, 15);
        // One call per *global* tick, in order — not one per shard.
        assert_eq!(fired, (1..=15).collect::<Vec<u64>>());
    }

    #[test]
    fn one_shard_equals_the_single_driver_path() {
        let g = StateGeometry::test_small();
        let make_trace = || TestTrace {
            g,
            ticks: 30,
            per_tick: 40,
            next: 0,
        };
        let driver = TickDriver::new(Algorithm::CopyOnUpdate.spec());

        let mut backend = CountingBackend::new();
        let single = driver.run(&mut make_trace(), &mut backend).unwrap();

        let map = ShardMap::new(g, 1).unwrap();
        let mut backends = vec![CountingBackend::new()];
        let sharded = ShardedDriver::new(driver, map)
            .run(&mut make_trace(), &mut backends)
            .unwrap();

        assert_eq!(sharded.shards.len(), 1);
        let shard = &sharded.shards[0];
        assert_eq!(shard.ticks, single.ticks);
        assert_eq!(shard.updates, single.updates);
        assert_eq!(shard.metrics.ticks, single.metrics.ticks);
        assert_eq!(shard.metrics.checkpoints, single.metrics.checkpoints);
    }

    #[test]
    fn shard_filter_partitions_the_trace() {
        let g = StateGeometry::test_small();
        let make_trace = || TestTrace {
            g,
            ticks: 12,
            per_tick: 64,
            next: 0,
        };
        for n in [1, 4] {
            let map = ShardMap::new(g, n).unwrap();

            // Collect every filtered update back into global coordinates.
            let mut rebuilt: Vec<Vec<CellUpdate>> = vec![Vec::new(); 12];
            for s in 0..map.n_shards() {
                let mut filter = ShardFilter::new(make_trace(), map.clone(), s);
                assert_eq!(filter.geometry(), map.shard_geometry(s));
                let mut buf = Vec::new();
                let mut t = 0;
                while filter.next_tick(&mut buf) {
                    for &u in &buf {
                        rebuilt[t].push(map.to_global(s, u));
                    }
                    t += 1;
                }
                assert_eq!(t, 12, "n={n}: filter preserves tick structure");
            }

            let mut direct = make_trace();
            let mut buf = Vec::new();
            let mut t = 0;
            while direct.next_tick(&mut buf) {
                let mut expect = buf.clone();
                expect.sort_by_key(|u| (u.addr.row, u.addr.col, u.value));
                rebuilt[t].sort_by_key(|u| (u.addr.row, u.addr.col, u.value));
                assert_eq!(rebuilt[t], expect, "n={n}: tick {t}");
                t += 1;
            }
        }

        // One shard: the filtered stream is the inner stream, tick for
        // tick and in order, down to the terminating `false`.
        let map = ShardMap::new(g, 1).unwrap();
        let mut filter = ShardFilter::new(make_trace(), map, 0);
        let mut direct = make_trace();
        let (mut got, mut want) = (vec![CellUpdate::new(0, 0, 99)], Vec::new());
        for t in 0..=12 {
            let more = direct.next_tick(&mut want);
            assert_eq!(filter.next_tick(&mut got), more, "tick {t}");
            assert_eq!(got, want, "tick {t}");
        }
    }
}
