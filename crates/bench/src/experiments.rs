//! The evaluation experiments (§5–6): one function per figure.
//!
//! Every function returns plain data; the `figures` binary renders it to
//! stdout and CSV. Default parameters match the paper exactly (Table 4);
//! tick counts are overridable because the full 1,000-tick sweeps take
//! minutes.

use mmoc_core::run::{EngineDetail, ExperimentEngine, RunError, RunReport, TraceSpec};
use mmoc_core::{Algorithm, Run};
use mmoc_game::{GameConfig, GameServer};
use mmoc_sim::{HardwareParams, SimConfig};
use mmoc_storage::RealConfig;
use mmoc_workload::{SyntheticConfig, TraceStats};
use std::path::Path;
use std::time::Instant;

/// The Figure 2/6 update-rate grid: 1,000 … 256,000 doubling.
pub const FIG2_RATES: [u32; 9] = [
    1_000, 2_000, 4_000, 8_000, 16_000, 32_000, 64_000, 128_000, 256_000,
];

/// The Figure 4 skew grid.
pub const FIG4_SKEWS: [f64; 6] = [0.0, 0.2, 0.4, 0.6, 0.8, 0.99];

/// Which engine a [`Row`] was measured on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// The cost-model simulator.
    Simulation,
    /// The real disk-backed engine.
    Implementation,
}

impl Source {
    /// Label used in CSV and stdout.
    pub fn label(self) -> &'static str {
        match self {
            Source::Simulation => "simulation",
            Source::Implementation => "implementation",
        }
    }
}

/// One measurement: one algorithm at one parameter point on one engine,
/// as the paper's three quantities.
#[derive(Debug, Clone, Copy)]
pub struct Row {
    /// The swept parameter (updates/tick, skew, object size, disk
    /// bandwidth, shard count; 0 where nothing is swept).
    pub x: f64,
    /// Algorithm measured.
    pub algorithm: Algorithm,
    /// Simulation or implementation.
    pub source: Source,
    /// World average overhead per tick, seconds (per-tick max across
    /// shards, averaged).
    pub overhead_s: f64,
    /// Average time to checkpoint across all shards' checkpoints, seconds.
    pub checkpoint_s: f64,
    /// World recovery time, seconds — shards restore in parallel, so the
    /// slowest shard's estimate (simulation) or the measured parallel wall
    /// time (implementation). NaN when recovery was not measured.
    pub recovery_s: f64,
    /// What a *serial* one-shard-after-another recovery would cost: the
    /// per-shard recovery times summed.
    pub serial_recovery_s: f64,
    /// Wall clock of the run, seconds: the max over shards' virtual clocks
    /// (simulation) or the measured run duration (implementation).
    pub wall_clock_s: f64,
}

/// Execute `run` and project its report into a [`Row`] at `x` — the one
/// place the harness takes the paper's three quantities out of a report.
fn measure<E: ExperimentEngine, T: TraceSpec>(x: f64, run: &Run<E, T>) -> Result<Row, RunError> {
    let t0 = Instant::now();
    let report = run.execute()?;
    let (source, wall_clock_s) = match report.detail {
        EngineDetail::Sim(d) => (Source::Simulation, d.wall_clock_s),
        EngineDetail::Real(_) => (Source::Implementation, t0.elapsed().as_secs_f64()),
    };
    Ok(Row {
        x,
        algorithm: report.algorithm,
        source,
        overhead_s: report.world.avg_overhead_s,
        checkpoint_s: report.world.avg_checkpoint_s,
        recovery_s: report.recovery_s().unwrap_or(f64::NAN),
        serial_recovery_s: report.serial_recovery_s().unwrap_or(f64::NAN),
        wall_clock_s,
    })
}

/// Run closures on worker threads, at most `width` at a time, preserving
/// input order in the output.
pub fn parallel_map<T, R, F>(items: Vec<T>, width: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let mut out = Vec::with_capacity(items.len());
    let mut items = items.into_iter();
    loop {
        let wave: Vec<T> = items.by_ref().take(width.max(1)).collect();
        if wave.is_empty() {
            break;
        }
        let f = &f;
        let results: Vec<R> = std::thread::scope(|s| {
            let handles: Vec<_> = wave.into_iter().map(|it| s.spawn(move || f(it))).collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("experiment worker panicked"))
                .collect()
        });
        out.extend(results);
    }
    out
}

/// Measure every `(x, algorithm)` cell of a simulated sweep in parallel:
/// one row per cell, in grid order, from the run `cell` describes.
fn sweep<X, T>(
    xs: &[X],
    algorithms: &[Algorithm],
    cell: impl Fn(X, Algorithm) -> Run<SimConfig, T> + Sync,
) -> Vec<Row>
where
    X: Copy + Into<f64> + Send,
    T: TraceSpec,
{
    let cells: Vec<(X, Algorithm)> = xs
        .iter()
        .flat_map(|&x| algorithms.iter().map(move |&a| (x, a)))
        .collect();
    parallel_map(cells, 8, |(x, alg)| {
        measure(x.into(), &cell(x, alg)).expect("simulation runs")
    })
}

fn sim(alg: Algorithm, trace: impl TraceSpec) -> Run<SimConfig, impl TraceSpec> {
    Run::algorithm(alg)
        .engine(SimConfig::default())
        .trace(trace)
}

/// Figure 2: scaling the number of updates per tick (skew 0.8, 10M cells).
/// Returns one row per (rate, algorithm).
pub fn fig2(rates: &[u32], ticks: u64) -> Vec<Row> {
    sweep(rates, &Algorithm::ALL, |rate, alg| {
        let trace = SyntheticConfig::paper_default()
            .with_updates_per_tick(rate)
            .with_ticks(ticks);
        sim(alg, trace)
    })
}

/// Figure 3 data: per-tick lengths at 64,000 updates/tick, plus the
/// half-a-tick latency limit.
#[derive(Debug, Clone)]
pub struct Fig3Data {
    /// Base tick period, seconds.
    pub tick_period_s: f64,
    /// The latency limit: base period + half a tick (pauses beyond half a
    /// tick must be masked by the game, §5.2).
    pub latency_limit_s: f64,
    /// `(algorithm, tick lengths in seconds, one per tick)`.
    pub series: Vec<(Algorithm, Vec<f64>)>,
}

fn run_sim(alg: Algorithm, trace: SyntheticConfig) -> RunReport {
    sim(alg, trace).execute().expect("simulation runs")
}

/// Figure 3: the latency analysis at 64,000 updates per tick.
pub fn fig3(ticks: u64) -> Fig3Data {
    let tick_period_s = SimConfig::default().tick_period_s();
    let series = parallel_map(Algorithm::ALL.to_vec(), 6, |alg| {
        let trace = SyntheticConfig::paper_default().with_ticks(ticks);
        let report = run_sim(alg, trace);
        (alg, report.world.metrics.tick_lengths_s(tick_period_s))
    });
    Fig3Data {
        tick_period_s,
        latency_limit_s: tick_period_s * 1.5,
        series,
    }
}

/// Figure 4: the skew sweep (64,000 updates/tick).
pub fn fig4(skews: &[f64], ticks: u64) -> Vec<Row> {
    sweep(skews, &Algorithm::ALL, |skew, alg| {
        let trace = SyntheticConfig::paper_default()
            .with_skew(skew)
            .with_ticks(ticks);
        sim(alg, trace)
    })
}

/// Table 5: characteristics of the Knights and Archers trace.
pub fn table5(config: GameConfig) -> TraceStats {
    TraceStats::scan(&mut GameServer::new(config))
}

/// Figure 5: all six algorithms over the game trace. `x` is unused (0).
pub fn fig5(config: GameConfig) -> Vec<Row> {
    sweep(&[0.0], &Algorithm::ALL, |_, alg| sim(alg, config))
}

/// Figure 6: validate the simulation against the real implementation.
/// The paper validated only Naive-Snapshot and Copy-on-Update; the unified
/// driver lets us validate the entire design space. `scratch` hosts the
/// backup files; `paced_hz` paces the real mutator (None = run ticks back
/// to back).
pub fn fig6(
    rates: &[u32],
    ticks: u64,
    scratch: &Path,
    paced_hz: Option<f64>,
) -> Result<Vec<Row>, RunError> {
    let mut rows = Vec::new();
    for &rate in rates {
        let x = f64::from(rate);
        let trace = SyntheticConfig::paper_default()
            .with_updates_per_tick(rate)
            .with_ticks(ticks);
        for alg in Algorithm::ALL {
            rows.push(measure(x, &sim(alg, trace))?);
        }
        // The same six algorithms on real hardware.
        for alg in Algorithm::ALL {
            let dir = scratch.join(format!("{}_{rate}", alg.short_name()));
            let mut run = Run::algorithm(alg)
                .engine(RealConfig::new(dir))
                .trace(trace);
            if let Some(hz) = paced_hz {
                run = run.pacing(hz);
            }
            rows.push(measure(x, &run)?);
        }
    }
    Ok(rows)
}

/// Ablation: atomic-object size sweep (64 B – 4 KiB) at the Figure 2
/// defaults. Smaller-than-sector objects inflate double-backup costs
/// (§4.1); larger objects inflate copy-on-update copies.
pub fn ablation_objsize(sizes: &[u32], ticks: u64) -> Vec<Row> {
    let algorithms = [Algorithm::NaiveSnapshot, Algorithm::CopyOnUpdate];
    sweep(sizes, &algorithms, |size, alg| {
        let mut trace = SyntheticConfig::paper_default().with_ticks(ticks);
        trace.geometry.object_size = size;
        sim(alg, trace)
    })
}

/// Ablation: the sorted-I/O optimization for double backups. Analytic, per
/// the disk model: sorted writes cost one full transfer; unsorted writes
/// pay a seek + half-rotation per object. Returns
/// `(updates_per_tick, sorted_s, unsorted_s)` per Figure 2 rate, using the
/// dirty-set sizes measured by Copy-on-Update runs.
pub fn ablation_sorted_io(rates: &[u32], ticks: u64) -> Vec<(u32, f64, f64)> {
    // 2009-era disk: ~8 ms average seek + ~4.2 ms half rotation (7200rpm).
    const SEEK_S: f64 = 0.008;
    const HALF_ROTATION_S: f64 = 0.0042;
    let hw = HardwareParams::paper();
    parallel_map(rates.to_vec(), 8, |rate| {
        let trace = SyntheticConfig::paper_default()
            .with_updates_per_tick(rate)
            .with_ticks(ticks);
        let report = run_sim(Algorithm::CopyOnUpdate, trace);
        let k = report.world.metrics.avg_objects_per_normal_checkpoint();
        let sorted = report.world.avg_checkpoint_s;
        let per_object = SEEK_S + HALF_ROTATION_S + 512.0 / hw.disk_bandwidth;
        (rate, sorted, k * per_object)
    })
}

/// Extension (the paper's stated future work): how faster hardware shifts
/// the trade-offs. Sweeps disk bandwidth at the Figure 2 defaults.
pub fn ext_hardware(disk_bandwidths: &[f64], ticks: u64) -> Vec<Row> {
    let algorithms = [
        Algorithm::NaiveSnapshot,
        Algorithm::CopyOnUpdate,
        Algorithm::PartialRedo,
        Algorithm::CopyOnUpdatePartialRedo,
    ];
    sweep(disk_bandwidths, &algorithms, |bw, alg| {
        let config = SimConfig {
            hardware: HardwareParams::paper().with_disk_bandwidth(bw),
            ..SimConfig::default()
        };
        let trace = SyntheticConfig::paper_default().with_ticks(ticks);
        sim(alg, trace).engine(config)
    })
}

/// The shard-count grid of the scaling experiment.
pub const SHARD_COUNTS: [u32; 4] = [1, 2, 4, 8];

/// Shard scaling: split the paper's synthetic state into N ∈
/// [`SHARD_COUNTS`] shards at a fixed total size and update rate, and
/// measure overhead and recovery time per algorithm (`x` is N). The
/// per-shard flush shrinks with N while recovery parallelizes — the scale
/// axis the paper left on the table.
pub fn shard_scaling(shard_counts: &[u32], rate: u32, ticks: u64) -> Vec<Row> {
    sweep(shard_counts, &Algorithm::ALL, |n, alg| {
        let trace = SyntheticConfig::paper_default()
            .with_updates_per_tick(rate)
            .with_ticks(ticks);
        sim(alg, trace).shards(n)
    })
}

/// Shard scaling on the real engine (scaled-down state so it fits test
/// and CI budgets): wall-clock overhead plus *measured* parallel
/// recovery time per shard count, for one algorithm.
pub fn shard_scaling_real(
    algorithm: Algorithm,
    shard_counts: &[u32],
    ticks: u64,
    scratch: &Path,
) -> Result<Vec<Row>, RunError> {
    let trace = SyntheticConfig {
        geometry: mmoc_core::StateGeometry::small(8_192, 8), // 256 KB state, 4,096 objects
        ticks,
        updates_per_tick: 2_000,
        skew: 0.8,
        seed: 77,
    };
    shard_counts
        .iter()
        .map(|&n| {
            let run = Run::algorithm(algorithm)
                .engine(RealConfig::new(scratch.join(format!("shards_{n}"))))
                .trace(trace)
                .shards(n);
            measure(f64::from(n), &run)
        })
        .collect()
}

/// A reduced-scale geometry check used by tests: every figure function
/// must run end to end on small inputs.
#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2_produces_full_grid() {
        let rows = fig2(&[1_000, 4_000], 40);
        assert_eq!(rows.len(), 2 * 6);
        for r in &rows {
            assert!(r.checkpoint_s > 0.0, "{:?}", r);
            assert!(r.recovery_s > 0.0);
        }
        // Naive's overhead is rate-independent.
        let naive: Vec<&Row> = rows
            .iter()
            .filter(|r| r.algorithm == Algorithm::NaiveSnapshot)
            .collect();
        assert!((naive[0].overhead_s - naive[1].overhead_s).abs() < 1e-6);
    }

    #[test]
    fn fig3_series_cover_all_algorithms() {
        let data = fig3(30);
        assert_eq!(data.series.len(), 6);
        for (alg, lengths) in &data.series {
            assert_eq!(lengths.len(), 30, "{alg}");
            assert!(lengths.iter().all(|&l| l >= data.tick_period_s));
        }
        assert!(data.latency_limit_s > data.tick_period_s);
    }

    #[test]
    fn fig4_produces_full_grid() {
        let rows = fig4(&[0.0, 0.99], 30);
        assert_eq!(rows.len(), 12);
    }

    #[test]
    fn fig5_and_table5_run_on_a_small_battle() {
        let cfg = GameConfig::small().with_ticks(30);
        let stats = table5(cfg);
        assert_eq!(stats.ticks, 30);
        let rows = fig5(cfg);
        assert_eq!(rows.len(), 6);
    }

    #[test]
    fn fig6_runs_sim_and_impl() {
        let dir = tempfile::tempdir().unwrap();
        // One rate, few ticks: enough to exercise the sim + real paths
        // end to end (the real engines still write the 40 MB backups).
        let rows = fig6(&[1_000], 12, dir.path(), None).unwrap();
        assert_eq!(rows.len(), 12, "6 algorithms x sim + impl");
        let impl_rows: Vec<_> = rows
            .iter()
            .filter(|r| r.source == Source::Implementation)
            .collect();
        assert_eq!(impl_rows.len(), 6);
        for r in impl_rows {
            assert!(r.recovery_s.is_finite(), "recovery must be measured");
        }
    }

    #[test]
    fn shard_scaling_produces_full_grid() {
        let rows = shard_scaling(&[1, 4], 16_000, 30);
        assert_eq!(rows.len(), 2 * 6);
        for r in &rows {
            assert!(r.checkpoint_s > 0.0, "{r:?}");
            assert!(r.recovery_s > 0.0, "{r:?}");
        }
        // Parallel restore: recovery at 4 shards never exceeds 1 shard
        // (same total state, each shard restores a quarter of it).
        for alg in Algorithm::ALL {
            let at = |n: u32| {
                rows.iter()
                    .find(|r| r.algorithm == alg && r.x == f64::from(n))
                    .unwrap()
            };
            assert!(
                at(4).recovery_s <= at(1).recovery_s * 1.0001,
                "{alg}: rec(4)={} > rec(1)={}",
                at(4).recovery_s,
                at(1).recovery_s
            );
        }
    }

    #[test]
    fn shard_scaling_real_runs() {
        let dir = tempfile::tempdir().unwrap();
        let rows = shard_scaling_real(Algorithm::CopyOnUpdate, &[1, 2], 20, dir.path()).unwrap();
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert!(r.recovery_s > 0.0);
        }
    }

    #[test]
    fn ablations_run() {
        let rows = ablation_objsize(&[256, 1024], 30);
        assert_eq!(rows.len(), 4);
        let rows = ablation_sorted_io(&[1_000], 30);
        assert_eq!(rows.len(), 1);
        let (_, sorted, unsorted) = rows[0];
        assert!(
            unsorted > sorted,
            "unsorted double-backup writes must be slower"
        );
        let rows = ext_hardware(&[60e6, 2e9], 30);
        assert_eq!(rows.len(), 8);
    }
}
