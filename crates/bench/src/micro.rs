//! Table 3 microbenchmarks: measure the cost-model parameters on *this*
//! machine, the way the paper measured them on theirs (§4.3).
//!
//! * `Bmem` — repeated `memcpy` of aligned buffers an order of magnitude
//!   larger than L2.
//! * `Omem` — per-copy startup cost of small (one-object) copies at random
//!   offsets, after subtracting the bandwidth term.
//! * `Olock` — aggregate cost of uncontested lock/unlock pairs.
//! * `Obit` — incremental cost of dirty-bit counting over a large bitmap,
//!   roughly half the bits set.
//! * `Bdisk` — large sequential writes to a file, synced.
//!
//! Plus one engine-level microbenchmark:
//! [`measure_update_batching`] times the driver's per-update bookkeeping
//! hot path (`Bookkeeper::on_update`, mirrored from [`mmoc_core::DriverStep`])
//! with and without driver-level update batching, at the paper's maximum
//! rate of 256,000 updates per tick.

use mmoc_core::{Algorithm, Bookkeeper, FlushCursor, ObjectId};
use mmoc_storage::shared::relock;
use mmoc_workload::{SyntheticConfig, TraceSource};
use std::hint::black_box;
use std::io::Write;
use std::sync::Mutex;
use std::time::Instant;

/// Parameters measured on the current machine, in the units of
/// [`mmoc_sim::HardwareParams`].
#[derive(Debug, Clone, Copy)]
pub struct MeasuredParams {
    /// Memory bandwidth in bytes/second.
    pub mem_bandwidth: f64,
    /// Small-copy startup overhead in seconds.
    pub mem_latency: f64,
    /// Uncontested lock acquire+release in seconds.
    pub lock_overhead: f64,
    /// Bit test/set in seconds.
    pub bit_overhead: f64,
    /// Sequential disk write bandwidth in bytes/second (None if no
    /// scratch directory was supplied).
    pub disk_bandwidth: Option<f64>,
}

/// Measure memory bandwidth: copy a 64 MB buffer repeatedly.
pub fn measure_mem_bandwidth() -> f64 {
    const SIZE: usize = 64 << 20;
    let src = vec![0xA5u8; SIZE];
    let mut dst = vec![0u8; SIZE];
    // Warm up.
    dst.copy_from_slice(&src);
    let passes = 4;
    let t0 = Instant::now();
    for _ in 0..passes {
        dst.copy_from_slice(&src);
        black_box(&dst);
    }
    let secs = t0.elapsed().as_secs_f64();
    (SIZE * passes) as f64 / secs
}

/// Measure per-copy startup latency for 512-byte object copies at
/// pseudo-random offsets (cache misses included), subtracting the
/// bandwidth term measured above.
pub fn measure_mem_latency(bandwidth: f64) -> f64 {
    const OBJ: usize = 512;
    const POOL: usize = 256 << 20; // far larger than LLC
    let src = vec![1u8; POOL];
    let mut dst = vec![0u8; OBJ];
    let iters = 200_000u64;
    let mut offset = 0usize;
    let t0 = Instant::now();
    for i in 0..iters {
        // Stride pseudo-randomly through the pool, object-aligned.
        offset = (offset + 514_229 * OBJ + i as usize * OBJ) % (POOL - OBJ);
        let offset = offset / OBJ * OBJ;
        dst.copy_from_slice(&src[offset..offset + OBJ]);
        black_box(&dst);
    }
    let per_op = t0.elapsed().as_secs_f64() / iters as f64;
    (per_op - OBJ as f64 / bandwidth).max(0.0)
}

/// Measure an uncontested lock acquire+release pair, averaged over an
/// array of the std mutexes the engine's copy-on-update protocol takes,
/// locked through its `relock`, with mixed stride (as the paper did with
/// `pthread_spinlock`).
pub fn measure_lock_overhead() -> f64 {
    let locks: Vec<Mutex<u32>> = (0..4096).map(Mutex::new).collect();
    let iters = 2_000_000u64;
    let mut idx = 0usize;
    let t0 = Instant::now();
    for i in 0..iters {
        idx = (idx + 40_503 + (i as usize & 0x7)) & 0xFFF;
        let mut guard = relock(&locks[idx]);
        *guard = guard.wrapping_add(1);
    }
    black_box(&locks);
    t0.elapsed().as_secs_f64() / iters as f64
}

/// Measure the incremental cost of a dirty-bit test over a large bitmap
/// with roughly half the bits set.
pub fn measure_bit_overhead() -> f64 {
    let words: Vec<u64> = (0..1 << 20).map(|i| 0x5555_5555_5555_5555u64 ^ i).collect();
    let iters = 3u64;
    // Baseline: walk the words without testing bits.
    let t0 = Instant::now();
    let mut acc = 0u64;
    for _ in 0..iters {
        for &w in &words {
            acc = acc.wrapping_add(w);
        }
    }
    black_box(acc);
    let baseline = t0.elapsed().as_secs_f64();

    // With per-bit tests: count set bits naively (the paper's "naive code
    // to count dirty bits").
    let t1 = Instant::now();
    let mut count = 0u64;
    for _ in 0..iters {
        for &w in &words {
            for bit in 0..64u32 {
                count += (w >> bit) & 1;
            }
        }
    }
    black_box(count);
    let with_bits = t1.elapsed().as_secs_f64();

    let bits_tested = iters as f64 * words.len() as f64 * 64.0;
    ((with_bits - baseline) / bits_tested).max(0.0)
}

/// Measure sequential write bandwidth into a file under `dir`, fsynced.
pub fn measure_disk_bandwidth(dir: &std::path::Path) -> std::io::Result<f64> {
    const CHUNK: usize = 4 << 20;
    const TOTAL: usize = 64 << 20;
    let path = dir.join("disk_bandwidth.probe");
    let chunk = vec![0x3Cu8; CHUNK];
    let mut f = std::fs::File::create(&path)?;
    let t0 = Instant::now();
    for _ in 0..(TOTAL / CHUNK) {
        f.write_all(&chunk)?;
    }
    f.sync_all()?;
    let secs = t0.elapsed().as_secs_f64();
    drop(f);
    let _ = std::fs::remove_file(&path);
    Ok(TOTAL as f64 / secs)
}

/// Result of the driver-level update-batching microbenchmark.
#[derive(Debug, Clone, Copy)]
pub struct BatchingMeasurement {
    /// Updates routed per run (ticks × updates/tick).
    pub updates: u64,
    /// Per-update bookkeeping cost without batching, in seconds.
    pub unbatched_s_per_update: f64,
    /// Per-update bookkeeping cost with batching, in seconds.
    pub batched_s_per_update: f64,
    /// Dirty-bit operations charged without batching.
    pub unbatched_bit_ops: u64,
    /// Dirty-bit operations charged with batching (first touch per
    /// object per tick only).
    pub batched_bit_ops: u64,
}

impl BatchingMeasurement {
    /// Wall-clock speedup of the batched hot path (>1 is a win).
    pub fn speedup(&self) -> f64 {
        self.unbatched_s_per_update / self.batched_s_per_update.max(1e-30)
    }
}

/// Measure the per-update bookkeeping cost of `Bookkeeper::on_update` —
/// the ~ns hot path flagged in the ROADMAP — with and without
/// driver-level update batching, on a skewed stream of
/// `updates_per_tick` updates (the paper's top rate is 256,000) for
/// `ticks` ticks over the paper's synthetic geometry.
///
/// The Zipf trace is generated and address-translated *outside* the
/// timed region (both driver paths pay identical generation and
/// cell→object mapping costs), so the timed loops are exactly what
/// [`mmoc_core::DriverStep`] executes per update: the unbatched variant
/// calls `on_update` for every update, the batched variant performs the
/// driver's first-touch stamp check and calls `on_update` once per
/// distinct object per tick. Checkpoints cycle every tick, as under an
/// instant-completion backend. The op counts are deterministic; the
/// timings are machine-dependent (best of 3 runs per variant).
pub fn measure_update_batching(updates_per_tick: u32, ticks: u64) -> BatchingMeasurement {
    let config = SyntheticConfig {
        geometry: mmoc_core::StateGeometry::paper_synthetic(),
        ticks,
        updates_per_tick,
        skew: 0.8, // the paper's default skew: heavy same-object repeats
        seed: 2_560_001,
    };
    let geometry = config.geometry;
    let n_objects = geometry.n_objects();

    // Pre-resolve the stream to per-tick object-id batches.
    let mut per_tick: Vec<Vec<ObjectId>> = Vec::with_capacity(ticks as usize);
    let mut src = config.build();
    let mut buf = Vec::new();
    while src.next_tick(&mut buf) {
        per_tick.push(
            buf.iter()
                .map(|u| geometry.object_of_unchecked(u.addr))
                .collect(),
        );
    }
    let updates: u64 = per_tick.iter().map(|t| t.len() as u64).sum();

    let spec = Algorithm::CopyOnUpdate.spec();
    // One tick of the driver's update phase + tick boundary, exactly as
    // DriverStep::tick sequences it against an instant backend.
    let run = |batching: bool| {
        let mut bk = Bookkeeper::new(spec, n_objects);
        let mut seen = if batching {
            vec![0u64; n_objects as usize]
        } else {
            Vec::new()
        };
        let mut bit_ops = 0u64;
        let t0 = Instant::now();
        for (t, objs) in per_tick.iter().enumerate() {
            let tick = t as u64 + 1;
            let cursor = FlushCursor::START;
            if batching {
                for &obj in objs {
                    let stamp = &mut seen[obj.index()];
                    if *stamp != tick {
                        *stamp = tick;
                        bit_ops += u64::from(bk.on_update(obj, cursor).bit_ops);
                    }
                }
            } else {
                for &obj in objs {
                    bit_ops += u64::from(bk.on_update(obj, cursor).bit_ops);
                }
            }
            // Tick boundary under an instant writer: the in-flight
            // checkpoint completes, the next one starts.
            if bk.is_in_flight() {
                bk.finish_checkpoint();
            }
            bk.begin_checkpoint();
        }
        let secs = t0.elapsed().as_secs_f64();
        black_box(&bk);
        (secs / updates.max(1) as f64, bit_ops)
    };
    let best = |batching: bool| {
        (0..3)
            .map(|_| run(batching))
            .min_by(|a, b| a.0.total_cmp(&b.0))
            .expect("three runs")
    };
    // Warm up caches + allocator once, then measure.
    let _ = run(false);
    let (unbatched_s, unbatched_bits) = best(false);
    let (batched_s, batched_bits) = best(true);
    BatchingMeasurement {
        updates,
        unbatched_s_per_update: unbatched_s,
        batched_s_per_update: batched_s,
        unbatched_bit_ops: unbatched_bits,
        batched_bit_ops: batched_bits,
    }
}

/// Run every microbenchmark. `scratch_dir` hosts the disk probe.
pub fn measure_all(scratch_dir: Option<&std::path::Path>) -> MeasuredParams {
    let mem_bandwidth = measure_mem_bandwidth();
    MeasuredParams {
        mem_bandwidth,
        mem_latency: measure_mem_latency(mem_bandwidth),
        lock_overhead: measure_lock_overhead(),
        bit_overhead: measure_bit_overhead(),
        disk_bandwidth: scratch_dir.and_then(|d| measure_disk_bandwidth(d).ok()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Microbenchmarks are inherently machine-dependent; the tests only
    // assert plausible orders of magnitude.

    #[test]
    fn lock_overhead_is_nanoseconds() {
        let t = measure_lock_overhead();
        assert!(t > 0.0 && t < 2e-6, "lock overhead {t}");
    }

    #[test]
    fn bit_overhead_is_small() {
        let t = measure_bit_overhead();
        assert!(t < 1e-7, "bit overhead {t}");
    }

    #[test]
    fn disk_probe_runs() {
        let dir = tempfile::tempdir().unwrap();
        let bw = measure_disk_bandwidth(dir.path()).unwrap();
        assert!(bw > 1e6, "disk bandwidth {bw}");
    }

    #[test]
    fn batching_cuts_bookkeeping_ops() {
        // A scaled-down run (the figures binary uses 256k updates/tick):
        // the op-count win is deterministic even where timings are noisy.
        let m = measure_update_batching(8_192, 12);
        assert_eq!(m.updates, 8_192 * 12);
        assert!(
            m.batched_bit_ops < m.unbatched_bit_ops,
            "batched {} !< unbatched {}",
            m.batched_bit_ops,
            m.unbatched_bit_ops
        );
        assert!(m.unbatched_s_per_update > 0.0);
        assert!(m.batched_s_per_update > 0.0);
        assert!(m.speedup() > 0.0);
    }
}
