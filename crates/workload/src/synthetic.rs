//! The paper's synthetic workload (§4.4, Table 4).
//!
//! Updates are generated "according to a Zipf distribution with parameter
//! α. We choose the row and column to update independently with the same
//! distribution." Table 4 gives the parameter grid:
//!
//! | parameter                  | setting                       |
//! |----------------------------|-------------------------------|
//! | number of ticks            | 1,000                         |
//! | number of table cells      | 10,000,000 (1M rows × 10 cols)|
//! | number of updates per tick | 1,000 … **64,000** … 256,000  |
//! | skew of update distribution| 0 … **0.8** … 0.99            |
//!
//! Bold values are the defaults used when sweeping the other axis.

use crate::trace::TraceSource;
use crate::zipf::ScrambledZipf;
use mmoc_core::{CellUpdate, StateGeometry};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Configuration of a synthetic Zipfian trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SyntheticConfig {
    /// State-table geometry (defaults to the paper's 1M × 10 table).
    pub geometry: StateGeometry,
    /// Number of ticks to generate.
    pub ticks: u64,
    /// Cell updates per tick.
    pub updates_per_tick: u32,
    /// Zipf parameter α for both the row and the column draw.
    pub skew: f64,
    /// RNG seed; equal seeds give byte-identical traces.
    pub seed: u64,
}

impl SyntheticConfig {
    /// The paper's defaults: 1,000 ticks over the 10M-cell table with
    /// 64,000 updates per tick at skew 0.8.
    pub fn paper_default() -> Self {
        SyntheticConfig {
            geometry: StateGeometry::paper_synthetic(),
            ticks: 1_000,
            updates_per_tick: 64_000,
            skew: 0.8,
            seed: 0x5EED_CAFE,
        }
    }

    /// Paper defaults with a different update rate (the Figure 2 sweep).
    pub fn with_updates_per_tick(mut self, updates: u32) -> Self {
        self.updates_per_tick = updates;
        self
    }

    /// Paper defaults with a different skew (the Figure 4 sweep).
    pub fn with_skew(mut self, skew: f64) -> Self {
        self.skew = skew;
        self
    }

    /// Same configuration over a different number of ticks (quick
    /// experiment runs use shorter ones).
    pub fn with_ticks(mut self, ticks: u64) -> Self {
        self.ticks = ticks;
        self
    }

    /// Build the streaming generator.
    pub fn build(self) -> ZipfTrace {
        ZipfTrace::new(self)
    }
}

/// A synthetic config is a replayable trace description: equal seeds give
/// byte-identical streams, so it can feed `mmoc_core::Run` experiments
/// directly (including real-engine recovery replay).
impl mmoc_core::run::TraceSpec for SyntheticConfig {
    type Source = ZipfTrace;

    fn open(&self) -> ZipfTrace {
        self.build()
    }
}

/// Streaming Zipfian trace generator.
#[derive(Debug)]
pub struct ZipfTrace {
    config: SyntheticConfig,
    rows: ScrambledZipf,
    cols: ScrambledZipf,
    rng: SmallRng,
    tick: u64,
    /// Counter folded into update values so replay is deterministic and
    /// successive writes to one cell differ.
    value_counter: u64,
}

impl ZipfTrace {
    /// Create a generator from a validated configuration.
    pub fn new(config: SyntheticConfig) -> Self {
        config
            .geometry
            .validate()
            .expect("synthetic trace geometry must be valid");
        ZipfTrace {
            rows: ScrambledZipf::new(config.geometry.rows, config.skew),
            cols: ScrambledZipf::new(config.geometry.cols, config.skew),
            rng: SmallRng::seed_from_u64(config.seed),
            tick: 0,
            value_counter: 0,
            config,
        }
    }

    /// The configuration this generator runs.
    pub fn config(&self) -> &SyntheticConfig {
        &self.config
    }
}

impl TraceSource for ZipfTrace {
    fn geometry(&self) -> StateGeometry {
        self.config.geometry
    }

    fn next_tick(&mut self, buf: &mut Vec<CellUpdate>) -> bool {
        buf.clear();
        if self.tick >= self.config.ticks {
            return false;
        }
        buf.reserve(self.config.updates_per_tick as usize);
        for _ in 0..self.config.updates_per_tick {
            let row = self.rows.sample(&mut self.rng);
            let col = self.cols.sample(&mut self.rng);
            self.value_counter = self.value_counter.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let value = (self.value_counter >> 16) as u32;
            buf.push(CellUpdate::new(row, col, value));
        }
        self.tick += 1;
        true
    }

    fn total_ticks(&self) -> Option<u64> {
        Some(self.config.ticks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> SyntheticConfig {
        SyntheticConfig {
            geometry: StateGeometry::small(100, 10),
            ticks: 5,
            updates_per_tick: 50,
            skew: 0.8,
            seed: 7,
        }
    }

    #[test]
    fn generates_requested_shape() {
        let mut gen = small_config().build();
        let mut buf = Vec::new();
        let mut ticks = 0;
        while gen.next_tick(&mut buf) {
            assert_eq!(buf.len(), 50);
            ticks += 1;
        }
        assert_eq!(ticks, 5);
        assert_eq!(gen.total_ticks(), Some(5));
    }

    #[test]
    fn updates_are_in_bounds() {
        let mut gen = small_config().build();
        let g = gen.geometry();
        let mut buf = Vec::new();
        while gen.next_tick(&mut buf) {
            for u in &buf {
                assert!(u.addr.row < g.rows);
                assert!(u.addr.col < g.cols);
            }
        }
    }

    #[test]
    fn same_seed_same_trace() {
        let collect = |seed: u64| {
            let mut cfg = small_config();
            cfg.seed = seed;
            let mut gen = cfg.build();
            let mut all = Vec::new();
            let mut buf = Vec::new();
            while gen.next_tick(&mut buf) {
                all.extend_from_slice(&buf);
            }
            all
        };
        assert_eq!(collect(1), collect(1));
        assert_ne!(collect(1), collect(2));
    }

    #[test]
    fn successive_values_differ() {
        let mut gen = small_config().build();
        let mut buf = Vec::new();
        gen.next_tick(&mut buf);
        let mut values: Vec<u32> = buf.iter().map(|u| u.value).collect();
        values.dedup();
        assert!(values.len() > 40, "values should be essentially unique");
    }

    #[test]
    fn skew_increases_repetition() {
        let distinct_rows = |skew: f64| {
            let mut cfg = small_config();
            cfg.skew = skew;
            cfg.updates_per_tick = 500;
            let mut gen = cfg.build();
            let mut buf = Vec::new();
            gen.next_tick(&mut buf);
            let mut rows: Vec<u32> = buf.iter().map(|u| u.addr.row).collect();
            rows.sort_unstable();
            rows.dedup();
            rows.len()
        };
        assert!(
            distinct_rows(0.0) > distinct_rows(0.99),
            "high skew must touch fewer distinct rows"
        );
    }

    #[test]
    fn paper_default_matches_table4() {
        let cfg = SyntheticConfig::paper_default();
        assert_eq!(cfg.ticks, 1_000);
        assert_eq!(cfg.geometry.n_cells(), 10_000_000);
        assert_eq!(cfg.updates_per_tick, 64_000);
        assert!((cfg.skew - 0.8).abs() < 1e-12);
    }

    #[test]
    fn builder_methods_override_axes() {
        let cfg = SyntheticConfig::paper_default()
            .with_updates_per_tick(1_000)
            .with_skew(0.99)
            .with_ticks(10);
        assert_eq!(cfg.updates_per_tick, 1_000);
        assert_eq!(cfg.ticks, 10);
        assert!((cfg.skew - 0.99).abs() < 1e-12);
    }
}
