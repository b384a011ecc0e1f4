//! Hardware and game parameters (Table 3).
//!
//! | parameter            | notation | setting    |
//! |----------------------|----------|------------|
//! | Tick Frequency       | `Ftick`  | 30 Hz      |
//! | Atomic Object Size   | `Sobj`   | 512 bytes  |
//! | Memory Bandwidth     | `Bmem`   | 2.2 GB/s   |
//! | Memory Latency       | `Omem`   | 100 ns     |
//! | Lock overhead        | `Olock`  | 145 ns     |
//! | Bit test/set overhead| `Obit`   | 2 ns       |
//! | Disk Bandwidth       | `Bdisk`  | 60 MB/s    |
//!
//! `Sobj` lives in [`mmoc_core::StateGeometry`]; everything else is here.
//! Memory bandwidth is interpreted as GiB (the paper's reported ≈17 ms
//! full-state copy of the 40 MB table back-derives to 2.2 · 2³⁰ B/s),
//! disk bandwidth as decimal MB (0.667 s ≈ the paper's 0.68 s full write).

/// The hardware cost parameters of Table 3.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HardwareParams {
    /// Memory bandwidth `Bmem` in bytes per second.
    pub mem_bandwidth: f64,
    /// Memory copy startup overhead `Omem` in seconds (includes expected
    /// cache misses).
    pub mem_latency: f64,
    /// Uncontested lock acquire/release cost `Olock` in seconds.
    pub lock_overhead: f64,
    /// Dirty-bit test/set cost `Obit` in seconds.
    pub bit_overhead: f64,
    /// Disk bandwidth `Bdisk` in bytes per second (sequential writes).
    pub disk_bandwidth: f64,
}

impl Default for HardwareParams {
    fn default() -> Self {
        HardwareParams::paper()
    }
}

impl HardwareParams {
    /// The paper's measured values (Table 3).
    pub fn paper() -> Self {
        HardwareParams {
            mem_bandwidth: 2.2 * 1024.0 * 1024.0 * 1024.0, // 2.2 GiB/s
            mem_latency: 100e-9,                           // 100 ns
            lock_overhead: 145e-9,                         // 145 ns
            bit_overhead: 2e-9,                            // 2 ns
            disk_bandwidth: 60e6,                          // 60 MB/s
        }
    }

    /// Scale only the disk bandwidth (hardware-sweep experiments).
    pub fn with_disk_bandwidth(mut self, bytes_per_sec: f64) -> Self {
        self.disk_bandwidth = bytes_per_sec;
        self
    }

    /// Validate that every parameter is positive and finite.
    pub fn validate(&self) -> Result<(), String> {
        let checks = [
            ("mem_bandwidth", self.mem_bandwidth),
            ("mem_latency", self.mem_latency),
            ("lock_overhead", self.lock_overhead),
            ("bit_overhead", self.bit_overhead),
            ("disk_bandwidth", self.disk_bandwidth),
        ];
        for (name, v) in checks {
            if !(v.is_finite() && v > 0.0) {
                return Err(format!("{name} must be positive and finite, got {v}"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_params_reproduce_headline_costs() {
        let p = HardwareParams::paper();
        p.validate().unwrap();
        // Full-state eager copy of the 40 MB synthetic table: "nearly 17
        // msec" (§5.1).
        let copy_s = 40_000_000.0 / p.mem_bandwidth;
        assert!((0.0166..0.0175).contains(&copy_s), "copy {copy_s}");
        // Full-state disk write: "around 0.68 sec" (§5.1).
        let write_s = 40_000_000.0 / p.disk_bandwidth;
        assert!((0.66..0.69).contains(&write_s), "write {write_s}");
    }

    #[test]
    fn validation_catches_nonsense() {
        let mut p = HardwareParams::paper();
        p.disk_bandwidth = 0.0;
        assert!(p.validate().is_err());
        let mut p = HardwareParams::paper();
        p.mem_latency = f64::NAN;
        assert!(p.validate().is_err());
        let mut p = HardwareParams::paper();
        p.bit_overhead = -1.0;
        assert!(p.validate().is_err());
    }

    #[test]
    fn builders_override_single_axes() {
        let p = HardwareParams::paper().with_disk_bandwidth(1e9);
        assert_eq!(p.disk_bandwidth, 1e9);
        assert_eq!(p.mem_bandwidth, HardwareParams::paper().mem_bandwidth);
        assert_eq!(p.lock_overhead, HardwareParams::paper().lock_overhead);
    }
}
