//! Metrics shared by the simulated and real engines.
//!
//! The paper reports three quantities per algorithm (§4.4): the *overhead
//! time* added to each tick, the *time to checkpoint*, and the *recovery
//! time*. [`RunMetrics`] collects the raw per-tick and per-checkpoint
//! series from which all three are derived.

/// Overhead accounting for one simulation tick.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TickMetrics {
    /// Tick number (1-based: the first tick of a run is tick 1).
    pub tick: u64,
    /// Total recovery-induced overhead added to this tick, in seconds.
    /// Includes the synchronous copy pause if a checkpoint started at the
    /// end of this tick.
    pub overhead_s: f64,
    /// The synchronous (eager copy) portion of the overhead, in seconds.
    pub sync_pause_s: f64,
    /// Dirty/flushed bit operations performed by updates in this tick.
    pub bit_ops: u64,
    /// Lock acquisitions performed by copy-on-update handling.
    pub locks: u64,
    /// Objects copied in memory by copy-on-update handling.
    pub copies: u64,
}

/// Summary of one completed (or in-flight at crash) checkpoint.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CheckpointRecord {
    /// Sequence number.
    pub seq: u64,
    /// Tick at whose end the checkpoint started (the state is consistent
    /// as of this tick).
    pub start_tick: u64,
    /// Tick during which the asynchronous flush completed.
    pub end_tick: u64,
    /// Total checkpoint time in seconds: the synchronous pause (if any)
    /// plus the asynchronous write duration.
    pub duration_s: f64,
    /// The synchronous pause portion, in seconds.
    pub sync_pause_s: f64,
    /// Atomic objects written to stable storage.
    pub objects_written: u32,
    /// Bytes written to stable storage.
    pub bytes_written: u64,
    /// Whether this was a periodic full flush.
    pub full_flush: bool,
}

/// Raw per-run metrics: the per-tick overhead series plus one record per
/// completed checkpoint.
#[derive(Debug, Clone, Default)]
pub struct RunMetrics {
    /// One entry per simulated tick, in order.
    pub ticks: Vec<TickMetrics>,
    /// One entry per *completed* checkpoint, in order.
    pub checkpoints: Vec<CheckpointRecord>,
}

impl RunMetrics {
    /// Aggregate per-shard metric series into one world-level series.
    ///
    /// Shards tick in lockstep (every shard executes every global tick),
    /// so per-tick *latency* aggregates as the **max** across shards — the
    /// world's tick is stretched by its slowest shard — while per-tick
    /// *work* counters (`bit_ops`, `locks`, `copies`) aggregate as sums.
    /// Checkpoint records are the union of all shards' records, ordered by
    /// completion tick (shards checkpoint independently, so their
    /// sequence numbers overlap).
    pub fn merge_shards<'a>(shards: impl IntoIterator<Item = &'a RunMetrics>) -> RunMetrics {
        let mut out = RunMetrics::default();
        for m in shards {
            for (i, t) in m.ticks.iter().enumerate() {
                if i == out.ticks.len() {
                    out.ticks.push(*t);
                    continue;
                }
                let o = &mut out.ticks[i];
                debug_assert_eq!(o.tick, t.tick, "shards must tick in lockstep");
                o.overhead_s = o.overhead_s.max(t.overhead_s);
                o.sync_pause_s = o.sync_pause_s.max(t.sync_pause_s);
                o.bit_ops += t.bit_ops;
                o.locks += t.locks;
                o.copies += t.copies;
            }
            out.checkpoints.extend_from_slice(&m.checkpoints);
        }
        out.checkpoints
            .sort_by_key(|c| (c.end_tick, c.start_tick, c.seq));
        out
    }

    /// Average overhead per tick, in seconds (Figure 2(a)/4(a)/5(a)).
    pub fn avg_overhead_s(&self) -> f64 {
        mean(self.ticks.iter().map(|t| t.overhead_s))
    }

    /// Maximum overhead of any tick, in seconds (the latency peaks of
    /// Figure 3).
    pub fn max_overhead_s(&self) -> f64 {
        self.ticks.iter().map(|t| t.overhead_s).fold(0.0, f64::max)
    }

    /// Average time to checkpoint, in seconds, over completed checkpoints
    /// (Figure 2(b)/4(b)/5(b)).
    pub fn avg_checkpoint_s(&self) -> f64 {
        mean(self.checkpoints.iter().map(|c| c.duration_s))
    }

    /// Average objects written per *normal* (non-full-flush) checkpoint —
    /// the paper's `k` in the partial-redo restore model.
    pub fn avg_objects_per_normal_checkpoint(&self) -> f64 {
        mean(
            self.checkpoints
                .iter()
                .filter(|c| !c.full_flush)
                .map(|c| f64::from(c.objects_written)),
        )
    }

    /// Overhead of tick `t` in seconds, or 0 if out of range. Tick
    /// numbers are the driver's 1-based [`TickMetrics::tick`] values, so
    /// the result lines up with [`CheckpointRecord::start_tick`].
    pub fn overhead_at(&self, tick: u64) -> f64 {
        self.ticks
            .iter()
            .find(|t| t.tick == tick)
            .map_or(0.0, |t| t.overhead_s)
    }

    /// The `q`-quantile (0..=1) of per-tick overhead, in seconds.
    pub fn overhead_quantile(&self, q: f64) -> f64 {
        let mut v: Vec<f64> = self.ticks.iter().map(|t| t.overhead_s).collect();
        sample_quantile(&mut v, q)
    }

    /// Total bytes written to stable storage by completed checkpoints.
    pub fn total_bytes_written(&self) -> u64 {
        self.checkpoints.iter().map(|c| c.bytes_written).sum()
    }

    /// Tick length (base tick period + overhead) series in seconds, as
    /// plotted by Figure 3.
    pub fn tick_lengths_s(&self, tick_period_s: f64) -> Vec<f64> {
        self.ticks
            .iter()
            .map(|t| tick_period_s + t.overhead_s)
            .collect()
    }
}

/// The `q`-quantile (0..=1, nearest rank) of a sample, sorting it in
/// place; 0.0 for an empty sample. The one quantile definition shared by
/// every consumer (per-tick overhead above, the bench harness's
/// ack-latency percentiles), so tie-breaking and clamping cannot drift
/// between copies.
///
/// NaN samples (a degenerate run can produce a 0/0 duration ratio) are
/// excluded from the rank: the quantile is taken over the finite values
/// only. A sample that is *entirely* NaN propagates NaN rather than
/// inventing a number.
pub fn sample_quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    // total_cmp is a total order (no panic on NaN) that sorts positive
    // NaN above every real value; flush negative-sign NaN to the
    // positive representation first so every NaN lands at the top.
    for v in values.iter_mut() {
        if v.is_nan() {
            *v = f64::NAN;
        }
    }
    values.sort_by(f64::total_cmp);
    let finite = values.partition_point(|v| !v.is_nan());
    if finite == 0 {
        return f64::NAN;
    }
    let idx = ((finite - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
    values[idx]
}

fn mean(iter: impl Iterator<Item = f64>) -> f64 {
    let (mut sum, mut n) = (0.0f64, 0u64);
    for v in iter {
        sum += v;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tick(tick: u64, overhead_s: f64) -> TickMetrics {
        TickMetrics {
            tick,
            overhead_s,
            sync_pause_s: 0.0,
            bit_ops: 0,
            locks: 0,
            copies: 0,
        }
    }

    fn ckpt(seq: u64, duration_s: f64, objects: u32, full: bool) -> CheckpointRecord {
        CheckpointRecord {
            seq,
            start_tick: seq * 10,
            end_tick: seq * 10 + 9,
            duration_s,
            sync_pause_s: 0.0,
            objects_written: objects,
            bytes_written: u64::from(objects) * 512,
            full_flush: full,
        }
    }

    #[test]
    fn averages_over_empty_runs_are_zero() {
        let m = RunMetrics::default();
        assert_eq!(m.avg_overhead_s(), 0.0);
        assert_eq!(m.avg_checkpoint_s(), 0.0);
        assert_eq!(m.max_overhead_s(), 0.0);
        assert_eq!(m.overhead_quantile(0.5), 0.0);
    }

    #[test]
    fn summary_statistics() {
        let m = RunMetrics {
            ticks: vec![tick(0, 0.001), tick(1, 0.003), tick(2, 0.002)],
            checkpoints: vec![ckpt(0, 0.5, 100, false), ckpt(1, 0.7, 300, true)],
        };
        assert!((m.avg_overhead_s() - 0.002).abs() < 1e-12);
        assert_eq!(m.max_overhead_s(), 0.003);
        assert!((m.avg_checkpoint_s() - 0.6).abs() < 1e-12);
        // Only the normal checkpoint counts for k.
        assert_eq!(m.avg_objects_per_normal_checkpoint(), 100.0);
        assert_eq!(m.total_bytes_written(), 400 * 512);
        assert_eq!(m.overhead_at(1), 0.003);
        assert_eq!(m.overhead_at(99), 0.0);
        let lengths = m.tick_lengths_s(1.0 / 30.0);
        assert_eq!(lengths.len(), 3);
        assert!((lengths[2] - (1.0 / 30.0 + 0.002)).abs() < 1e-12);
    }

    /// NaN samples (a degenerate run's 0/0 latency ratio) must not abort
    /// the percentile computation: they are excluded from the rank, and
    /// an all-NaN sample propagates NaN instead of inventing a value.
    #[test]
    fn sample_quantile_survives_nan_samples() {
        let mut v = vec![3.0, f64::NAN, 1.0, 2.0, -f64::NAN];
        assert_eq!(sample_quantile(&mut v, 0.0), 1.0);
        assert_eq!(sample_quantile(&mut v, 0.5), 2.0);
        assert_eq!(sample_quantile(&mut v, 1.0), 3.0, "NaN never the max");
        let mut all_nan = vec![f64::NAN, f64::NAN];
        assert!(sample_quantile(&mut all_nan, 0.99).is_nan());
        let mut clean = vec![5.0, 4.0];
        assert_eq!(sample_quantile(&mut clean, 1.0), 5.0);
    }

    #[test]
    fn merge_shards_maxes_latency_and_sums_work() {
        let mut a = RunMetrics {
            ticks: vec![tick(1, 0.002), tick(2, 0.001)],
            checkpoints: vec![ckpt(0, 0.5, 10, false)],
        };
        a.ticks[0].bit_ops = 5;
        a.ticks[0].copies = 2;
        let mut b = RunMetrics {
            ticks: vec![tick(1, 0.001), tick(2, 0.004)],
            checkpoints: vec![ckpt(0, 0.2, 3, false)],
        };
        b.ticks[0].bit_ops = 7;
        b.ticks[0].locks = 1;
        // Shard b's checkpoint completes earlier in tick terms.
        b.checkpoints[0].start_tick = 1;
        b.checkpoints[0].end_tick = 2;

        let merged = RunMetrics::merge_shards([&a, &b]);
        assert_eq!(merged.ticks.len(), 2);
        assert_eq!(merged.ticks[0].overhead_s, 0.002, "max across shards");
        assert_eq!(merged.ticks[1].overhead_s, 0.004);
        assert_eq!(merged.ticks[0].bit_ops, 12, "sum across shards");
        assert_eq!(merged.ticks[0].locks, 1);
        assert_eq!(merged.ticks[0].copies, 2);
        assert_eq!(merged.checkpoints.len(), 2);
        assert_eq!(merged.checkpoints[0].end_tick, 2, "ordered by completion");
    }

    #[test]
    fn quantiles_are_order_statistics() {
        let m = RunMetrics {
            ticks: (0..101).map(|i| tick(i, i as f64)).collect(),
            checkpoints: vec![],
        };
        assert_eq!(m.overhead_quantile(0.0), 0.0);
        assert_eq!(m.overhead_quantile(0.5), 50.0);
        assert_eq!(m.overhead_quantile(1.0), 100.0);
    }
}
