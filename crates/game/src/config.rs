//! Game configuration.

use mmoc_core::StateGeometry;

/// Configuration of a Knights and Archers battle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GameConfig {
    /// Total units across both teams (the paper uses 400,128).
    pub units: u32,
    /// Side length of the square battlefield in position units.
    pub map_size: u32,
    /// Units per squad.
    pub squad_size: u32,
    /// Fraction of units active at any moment (the paper uses 10%).
    pub active_fraction: f64,
    /// Per-tick probability that an active unit leaves the active set.
    /// 0.1 renews the active set within ~100 ticks with high probability
    /// ((1 − 0.1)¹⁰⁰ ≈ 2.7·10⁻⁵ per unit).
    pub leave_probability: f64,
    /// Number of ticks to simulate.
    pub ticks: u64,
    /// Probability that an active unit acts in a given tick (tunes the
    /// update rate toward Table 5's ≈35,590 updates/tick).
    pub action_density: f64,
    /// Attack range for knights (archers use 4×).
    pub attack_range: u32,
    /// RNG seed; equal seeds give byte-identical traces.
    pub seed: u64,
}

impl GameConfig {
    /// The paper's configuration (Table 5): 400,128 units, 1,000 ticks.
    pub fn paper() -> Self {
        GameConfig {
            units: 400_128,
            map_size: 4_096,
            squad_size: 32,
            active_fraction: 0.10,
            leave_probability: 0.1,
            ticks: 1_000,
            action_density: 0.29,
            attack_range: 12,
            seed: 0x00BA_771E,
        }
    }

    /// A small battle for tests: 1,024 units on a 256×256 map.
    pub fn small() -> Self {
        GameConfig {
            units: 1_024,
            map_size: 256,
            squad_size: 16,
            active_fraction: 0.10,
            leave_probability: 0.1,
            ticks: 50,
            action_density: 0.29,
            attack_range: 12,
            seed: 42,
        }
    }

    /// Override the tick count.
    pub fn with_ticks(mut self, ticks: u64) -> Self {
        self.ticks = ticks;
        self
    }

    /// Override the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The state-table geometry this game produces: one row per unit,
    /// 13 attribute columns of 4 bytes, 512-byte atomic objects.
    pub fn geometry(&self) -> StateGeometry {
        StateGeometry {
            rows: self.units,
            cols: crate::unit::attr::COUNT,
            cell_size: 4,
            object_size: 512,
        }
    }

    /// Number of active units implied by `active_fraction`.
    pub fn active_units(&self) -> u32 {
        ((f64::from(self.units) * self.active_fraction).round() as u32).max(1)
    }

    /// Validate ranges.
    pub fn validate(&self) -> Result<(), String> {
        if self.units < 4 {
            return Err("need at least 4 units".into());
        }
        if self.map_size < 16 {
            return Err("map too small".into());
        }
        if !(0.0..=1.0).contains(&self.active_fraction) || self.active_fraction <= 0.0 {
            return Err("active_fraction must be in (0, 1]".into());
        }
        if !(0.0..=1.0).contains(&self.leave_probability) {
            return Err("leave_probability must be in [0, 1]".into());
        }
        if !(0.0..=1.0).contains(&self.action_density) {
            return Err("action_density must be in [0, 1]".into());
        }
        if self.squad_size == 0 {
            return Err("squad_size must be positive".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_matches_table5_shape() {
        let cfg = GameConfig::paper();
        cfg.validate().unwrap();
        assert_eq!(cfg.units, 400_128);
        assert_eq!(cfg.ticks, 1_000);
        let g = cfg.geometry();
        assert_eq!(g.rows, 400_128);
        assert_eq!(g.cols, 13);
        assert_eq!(cfg.active_units(), 40_013);
    }

    #[test]
    fn validation_rejects_nonsense() {
        let mut cfg = GameConfig::small();
        cfg.units = 1;
        assert!(cfg.validate().is_err());
        let mut cfg = GameConfig::small();
        cfg.active_fraction = 0.0;
        assert!(cfg.validate().is_err());
        let mut cfg = GameConfig::small();
        cfg.action_density = 1.5;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn small_config_is_valid() {
        GameConfig::small().validate().unwrap();
    }
}
