//! The estimator: checkpoint windows, cycles, and the lower decile over
//! cycles.
//!
//! The engine's cost arrives in *cycles*, not in independent checkpoints:
//! a double-backup algorithm alternates between two files whose write
//! times differ several-fold on this host, and a log-organised one runs
//! seven partial flushes and then a full one. A median (or mean) over
//! individual checkpoints therefore flips with the parity of the count.
//! The unit measured here is the cycle — `cycle_len` consecutive
//! checkpoints of one shard aligned to `seq` — whose value is the mean
//! over its checkpoints; a metric is the lower decile over every retained
//! cycle of every shard.

use mmoc_core::{sample_quantile, RunMetrics};

/// Fewer retained cycles than this is a failed run, not a noisy estimate.
pub const MIN_CYCLES: usize = 20;

/// One checkpoint with the game-loop cost of its window
/// `[start_tick, next checkpoint's start_tick)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Window {
    pub seq: u64,
    /// Largest single-tick overhead in the window, seconds.
    pub peak_s: f64,
    /// Sum of tick overheads in the window, seconds.
    pub overhead_s: f64,
    /// Time to checkpoint (`CheckpointRecord::duration_s`), seconds.
    pub duration_s: f64,
    pub bytes: u64,
    /// Ticks in the window.
    pub ticks: u64,
}

/// The mean of each quantity over one cycle's checkpoints.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cycle {
    pub peak_s: f64,
    pub overhead_s: f64,
    pub duration_s: f64,
    pub bytes: f64,
    pub ticks: f64,
}

/// The windows of one shard's run. The last completed checkpoint has no
/// successor to close its window and is left out.
pub fn windows(m: &RunMetrics) -> Vec<Window> {
    let mut records = m.checkpoints.clone();
    records.sort_by_key(|c| c.seq);
    // `TickMetrics::tick` is the driver's 1-based tick number, in order.
    let first_tick = m.ticks.first().map_or(1, |t| t.tick);
    let tick_index = |tick: u64| (tick.saturating_sub(first_tick) as usize).min(m.ticks.len());
    records
        .windows(2)
        .map(|pair| {
            let (c, next) = (pair[0], pair[1]);
            let ticks = &m.ticks[tick_index(c.start_tick)..tick_index(next.start_tick)];
            Window {
                seq: c.seq,
                peak_s: ticks.iter().map(|t| t.overhead_s).fold(0.0, f64::max),
                overhead_s: ticks.iter().map(|t| t.overhead_s).sum(),
                duration_s: c.duration_s,
                bytes: c.bytes_written,
                ticks: ticks.len() as u64,
            }
        })
        .collect()
}

/// Group `windows` (ascending `seq`) into complete cycles of `cycle_len`
/// aligned to `seq`, dropping the shard's first cycle as warm-up and any
/// incomplete cycle at either end.
pub fn cycles(windows: &[Window], cycle_len: u64) -> Vec<Cycle> {
    assert!(cycle_len >= 1, "a cycle holds at least one checkpoint");
    let mut out = Vec::new();
    let mut i = 0;
    while i < windows.len() {
        let index = windows[i].seq / cycle_len;
        let n = windows[i..]
            .iter()
            .take_while(|w| w.seq / cycle_len == index)
            .count();
        let members = &windows[i..i + n];
        i += n;
        if index == 0 || n as u64 != cycle_len {
            continue;
        }
        let mean = |f: fn(&Window) -> f64| members.iter().map(f).sum::<f64>() / n as f64;
        out.push(Cycle {
            peak_s: mean(|w| w.peak_s),
            overhead_s: mean(|w| w.overhead_s),
            duration_s: mean(|w| w.duration_s),
            bytes: mean(|w| w.bytes as f64),
            ticks: mean(|w| w.ticks as f64),
        });
    }
    out
}

/// The median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The lower decile by nearest rank: the location estimate of every
/// timing the ledger gates. On this shared host interference only ever
/// adds time, in episodes that last from milliseconds to minutes, so the
/// fast tail of a sample tracks the code while its median tracks the
/// neighbours (see `README.md`, *The estimator*).
pub fn low_decile(values: &[f64]) -> f64 {
    quantile(values, 0.1)
}

/// The upper decile by nearest rank: [`low_decile`]'s counterpart for a
/// rate, where interference only ever subtracts.
pub fn high_decile(values: &[f64]) -> f64 {
    quantile(values, 0.9)
}

/// The `q`-quantile by nearest rank: the repository's one quantile
/// definition, over a copy of `values`.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of an empty sample");
    sample_quantile(&mut values.to_vec(), q)
}

/// The cycle estimates of one run, over all shards.
#[derive(Debug, Clone, PartialEq)]
pub struct Estimates {
    /// Retained cycles (the sample count of every estimate below).
    pub cycles: usize,
    pub tick_peak_s: f64,
    pub checkpoint_overhead_s: f64,
    pub checkpoint_s: f64,
    /// Mean bytes written per checkpoint over the retained cycles.
    pub checkpoint_bytes: f64,
    /// Mean ticks per checkpoint over the retained cycles.
    pub ticks_per_checkpoint: f64,
    /// 90th percentile of the individual checkpoint durations.
    pub checkpoint_p90_s: f64,
}

/// Estimate from every shard's metric series; `Err` when fewer than
/// `min_cycles` cycles are retained.
pub fn estimate(
    shards: &[&RunMetrics],
    cycle_len: u64,
    min_cycles: usize,
) -> Result<Estimates, String> {
    let mut all = Vec::new();
    let mut durations = Vec::new();
    for m in shards {
        let w = windows(m);
        // The individual durations behind the retained cycles (same
        // warm-up rule), for the p90 diagnostic.
        durations.extend(
            w.iter()
                .filter(|w| w.seq >= cycle_len)
                .map(|w| w.duration_s),
        );
        all.extend(cycles(&w, cycle_len));
    }
    if all.len() < min_cycles {
        return Err(format!(
            "only {} retained cycles of {cycle_len} checkpoints (need {min_cycles}): \
             the run is too short for its checkpoint cadence",
            all.len()
        ));
    }
    let column = |f: fn(&Cycle) -> f64| all.iter().map(f).collect::<Vec<f64>>();
    let mean = |v: Vec<f64>| v.iter().sum::<f64>() / v.len() as f64;
    Ok(Estimates {
        cycles: all.len(),
        tick_peak_s: low_decile(&column(|c| c.peak_s)),
        checkpoint_overhead_s: low_decile(&column(|c| c.overhead_s)),
        checkpoint_s: low_decile(&column(|c| c.duration_s)),
        checkpoint_bytes: mean(column(|c| c.bytes)),
        ticks_per_checkpoint: mean(column(|c| c.ticks)),
        checkpoint_p90_s: quantile(&durations, 0.9),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmoc_core::{CheckpointRecord, TickMetrics};

    /// A shard whose checkpoint `i` starts at tick `1 + 2 i`, lasts
    /// `durations[i]`, and whose window holds one tick of `2 × duration`
    /// overhead and one of `duration`.
    fn shard(durations: &[f64]) -> RunMetrics {
        let mut m = RunMetrics::default();
        for (i, &d) in durations.iter().enumerate() {
            let start = 1 + 2 * i as u64;
            for (k, overhead_s) in [2.0 * d, d].into_iter().enumerate() {
                m.ticks.push(TickMetrics {
                    tick: start + k as u64,
                    overhead_s,
                    sync_pause_s: 0.0,
                    bit_ops: 0,
                    locks: 0,
                    copies: 0,
                });
            }
            m.checkpoints.push(CheckpointRecord {
                seq: i as u64,
                start_tick: start,
                end_tick: start + 1,
                duration_s: d,
                sync_pause_s: 0.0,
                objects_written: 10,
                bytes_written: 5_120,
                full_flush: false,
            });
        }
        m
    }

    fn alternating(n: usize) -> RunMetrics {
        let d: Vec<f64> = (0..n)
            .map(|i| if i % 2 == 0 { 0.060 } else { 0.480 })
            .collect();
        shard(&d)
    }

    #[test]
    fn windows_span_start_tick_to_next_start_tick() {
        let w = windows(&shard(&[1.0, 3.0, 5.0]));
        assert_eq!(w.len(), 2, "the last checkpoint has no closed window");
        assert_eq!((w[0].seq, w[0].ticks), (0, 2));
        assert_eq!(w[0].peak_s, 2.0);
        assert_eq!(w[0].overhead_s, 3.0);
        assert_eq!(w[1].peak_s, 6.0);
        assert_eq!(w[1].overhead_s, 9.0);
        assert_eq!(w[1].duration_s, 3.0);
    }

    #[test]
    fn alternating_double_backup_fixture_is_parity_proof() {
        // 60 ms into one file, 480 ms into the other: a per-checkpoint
        // median flips between the modes with the count; the
        // cycle estimate must read 270 for odd and even counts alike.
        for n in [47, 48, 49, 50] {
            let e = estimate(&[&alternating(n)], 2, MIN_CYCLES).unwrap();
            assert!((e.checkpoint_s - 0.270).abs() < 1e-12, "n = {n}: {e:?}");
            assert!((e.tick_peak_s - 0.540).abs() < 1e-12, "n = {n}");
            assert!((e.checkpoint_overhead_s - 0.810).abs() < 1e-12, "n = {n}");
            assert_eq!(e.checkpoint_bytes, 5_120.0);
            assert_eq!(e.ticks_per_checkpoint, 2.0);
        }
    }

    #[test]
    fn log_fixture_of_seven_partials_and_a_full_flush_is_parity_proof() {
        // seq 7, 15, … are full flushes (70 ms), the rest partial (5 ms):
        // every aligned cycle means (7 × 5 + 70) / 8 = 13.125.
        for n in [170, 171, 173, 176, 179] {
            let d: Vec<f64> = (0..n)
                .map(|i| if (i + 1) % 8 == 0 { 0.070 } else { 0.005 })
                .collect();
            let e = estimate(&[&shard(&d)], 8, MIN_CYCLES).unwrap();
            assert!((e.checkpoint_s - 0.013_125).abs() < 1e-12, "n = {n}: {e:?}");
        }
    }

    #[test]
    fn first_cycle_and_ragged_ends_are_dropped() {
        // 7 checkpoints → 6 windows (seq 0..=5) → cycles {0,1} warm-up,
        // {2,3}, {4,5}.
        let w = windows(&alternating(7));
        assert_eq!(cycles(&w, 2).len(), 2);
        // seq 0..=4 in windows: the trailing {4} is incomplete.
        let w = windows(&alternating(6));
        assert_eq!(cycles(&w, 2).len(), 1);
    }

    #[test]
    fn cycles_pool_over_shards() {
        let (a, b) = (alternating(25), alternating(25));
        // 24 windows per shard → 12 cycles − 1 warm-up = 11 each.
        assert!(estimate(&[&a], 2, MIN_CYCLES).is_err());
        assert_eq!(estimate(&[&a, &b], 2, MIN_CYCLES).unwrap().cycles, 22);
    }

    #[test]
    fn fewer_than_twenty_cycles_is_an_error() {
        // 41 checkpoints → 40 windows → 20 cycles − warm-up = 19.
        let err = estimate(&[&alternating(41)], 2, MIN_CYCLES).unwrap_err();
        assert!(err.contains("19 retained cycles"), "{err}");
        assert!(estimate(&[&alternating(43)], 2, MIN_CYCLES).is_ok());
    }

    #[test]
    fn median_and_quantile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.9), 5.0);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.5), 3.0);
    }
}
