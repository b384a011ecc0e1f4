//! One end-to-end run of a workload on the real engine: set-up, the
//! measured `execute()`, benchmark-driven recoveries with a fixed tail,
//! and verification of every recovered byte against the oracle.

use crate::cycles::{self, Estimates};
use crate::oracle;
use crate::spans::Spans;
use crate::workloads::{
    BlockSpec, RunClock, Stop, TailTrace, Workload, RECOVERY_TAIL_TICKS, TICK_HZ,
};
use mmoc_core::run::{EngineDetail, RealRunDetail, RunReport};
use mmoc_core::{DiskOrg, Run, RunMetrics, ShardFilter, ShardMap, StateGeometry, TraceSource};
use mmoc_storage::log_store::LogStore;
use mmoc_storage::recovery::{
    recover_and_replay, recover_and_replay_log, recover_from_replica, RecoveredState, RecoveryOpts,
};
use mmoc_storage::{shard_dir, ReplicaSet};
use mmoc_workload::RecordedTrace;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// Timed recoveries per run; `recovery_ms` is their lower decile.
pub const RECOVERY_REPS: usize = 25;

/// How long recoveries repeat untimed (but verified) before the timed
/// ones. The first recoveries after a run are up to twice as slow as the
/// tenth (first-touch page faults on the image buffers, a recovery
/// thread on a processor the run left idle) and keep getting faster for
/// some tens of repetitions; the timed ones start once that slope has
/// flattened.
const RECOVERY_WARMUP: Duration = Duration::from_secs(1);

/// Ticks per window of the tick-rate estimate: one second of game time.
const RATE_WINDOW_TICKS: usize = 30;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Samples behind the value (cycles, repetitions, or 1).
    pub n: usize,
}

impl Metric {
    pub fn new(name: &'static str, unit: &'static str, value: f64, n: usize) -> Self {
        Metric {
            name,
            unit,
            value,
            n,
        }
    }
}

/// A scratch directory inside the checkout, removed on drop. Checkpoint
/// files must live on the repository's filesystem and the benchmark may
/// write nowhere else, so the system temp dir is not used.
#[derive(Debug)]
pub struct RunDir(PathBuf);

impl RunDir {
    pub fn create() -> io::Result<RunDir> {
        static NEXT: AtomicU32 = AtomicU32::new(0);
        let path = scratch_root().join(format!(
            "run-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&path)?;
        Ok(RunDir(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Where run directories and span files go: `.ledger/` under the current
/// directory (the checkout root when run through `BENCHMARK.json`).
pub fn scratch_root() -> PathBuf {
    PathBuf::from(".ledger")
}

/// One benchmark-driven recovery of the whole world.
#[derive(Debug, Clone)]
pub struct RecoverySample {
    /// Wall time until the slowest shard was back, seconds.
    pub wall_s: f64,
    /// Per shard: `(restore_s, replay_s, updates_replayed)`.
    pub shards: Vec<(f64, f64, u64)>,
}

/// Everything one run measured; the traced pass derives the per-layer
/// metrics from it.
pub struct Measured {
    pub workload: &'static Workload,
    pub map: ShardMap,
    pub block: RecordedTrace,
    pub dir: RunDir,
    pub setup_s: f64,
    pub record_s: f64,
    pub report: RunReport,
    pub detail: RealRunDetail,
    pub estimates: Estimates,
    /// Wall time of `execute()`, seconds.
    pub wall_s: f64,
    /// Tick rate of every complete [`RATE_WINDOW_TICKS`]-tick window, 1/s.
    pub window_rates: Vec<f64>,
    /// `execute()` entry to the first tick pulled (engine start-up).
    pub start_s: f64,
    /// Last tick to `execute()` return (final checkpoint drain, shutdown).
    pub drain_s: f64,
    /// Process CPU time (all threads) spent inside `execute()`, less the
    /// time the open loop's pacer busy-waited, seconds.
    pub cpu_s: f64,
    /// The latest any tick of an open loop was handed over after it was
    /// due, seconds (0 for the closed loop).
    pub lateness_max_s: f64,
    /// Spans recorded while `execute()` ran.
    pub execute_spans: usize,
    /// Per shard: the consistent tick of the checkpoint its recoveries
    /// restore (see `pin_restore_points`).
    pub from_ticks: Vec<u64>,
    pub recoveries: Vec<RecoverySample>,
    pub attempted: u64,
    pub failed: u64,
    /// One line per failed operation.
    pub failures: Vec<String>,
}

impl Measured {
    /// The seven end-to-end metrics.
    pub fn end_to_end(&self) -> Vec<Metric> {
        let e = &self.estimates;
        let walls: Vec<f64> = self.recoveries.iter().map(|r| r.wall_s).collect();
        vec![
            Metric::new("setup_s", "s", self.setup_s, SETUP_REPS),
            Metric::new("tick_peak_us", "us", e.tick_peak_s * 1e6, e.cycles),
            Metric::new(
                "checkpoint_overhead_ms",
                "ms",
                e.checkpoint_overhead_s * 1e3,
                e.cycles,
            ),
            Metric::new("checkpoint_ms", "ms", e.checkpoint_s * 1e3, e.cycles),
            Metric::new("checkpoint_mb", "MB", e.checkpoint_bytes / 1e6, e.cycles),
            Metric::new(
                "recovery_ms",
                "ms",
                cycles::low_decile(&walls) * 1e3,
                walls.len(),
            ),
            Metric::new(
                "tick_rate_hz",
                "1/s",
                cycles::high_decile(&self.window_rates),
                self.window_rates.len(),
            ),
        ]
    }

    pub fn shard_metrics(&self) -> Vec<&RunMetrics> {
        shard_metrics(&self.report)
    }
}

/// Each shard's metric series, in shard order.
fn shard_metrics(report: &RunReport) -> Vec<&RunMetrics> {
    report.shards.iter().map(|s| &s.summary.metrics).collect()
}

/// Run `w` for `seconds` from `seed`. `Err` is a failed run (engine
/// error, too few cycles); failed *operations* of a completed run are
/// counted in [`Measured::failed`].
pub fn measure(
    w: &'static Workload,
    seed: u64,
    seconds: u64,
    spans: &Spans,
) -> Result<Measured, String> {
    let root = spans.enter("run", None);
    let map = ShardMap::new(w.geometry, w.shards).map_err(|e| e.to_string())?;
    let n = map.n_shards();

    // --- Set-up, several times over: record the block (the Zipf
    // generator never runs inside the measured path), create the
    // checkpoint directory and the replica tier.
    let mut setup_times = Vec::with_capacity(SETUP_REPS);
    let mut record_times = Vec::with_capacity(SETUP_REPS);
    let mut kept = None;
    for _ in 0..SETUP_REPS {
        let span = spans.enter("setup", root.id());
        let t0 = Instant::now();
        let block = {
            let _s = spans.enter("workload.record", span.id());
            w.record_block(seed)
        };
        record_times.push(t0.elapsed().as_secs_f64());
        let dir = RunDir::create().map_err(|e| format!("creating the run directory: {e}"))?;
        let replicas = (w.replication > 0).then(|| {
            let geometries: Vec<StateGeometry> = (0..n).map(|s| map.shard_geometry(s)).collect();
            Arc::new(ReplicaSet::new(w.replication, &geometries))
        });
        setup_times.push(t0.elapsed().as_secs_f64());
        drop(span);
        kept = Some((block, dir, replicas));
    }
    let (block, dir, replicas) = kept.expect("at least one set-up");

    // --- The measured run.
    let config = w.engine_config(dir.path(), replicas.clone());
    let (stop, period) = if w.paced {
        let period = Duration::from_secs_f64(1.0 / TICK_HZ);
        (
            Stop::Ticks((seconds as f64 * TICK_HZ).round() as u64),
            Some(period),
        )
    } else {
        (Stop::After(Duration::from_secs(seconds)), None)
    };
    let clock = RunClock::default();
    let spans_before = spans.len();
    let (report, wall_s, cpu_s, t0) = {
        let span = spans.enter("execute", root.id());
        let trace = BlockSpec {
            block: &block,
            stop,
            period,
            clock: &clock,
            spans,
            parent: span.id(),
        };
        let run = Run::algorithm(w.algorithm)
            .engine(config)
            .trace(trace)
            .shards(w.shards)
            .batching(false);
        let cpu0 = process_cpu_s();
        let t0 = Instant::now();
        let report = run
            .execute()
            .map_err(|e| format!("{}: execute failed: {e}", w.name))?;
        (
            report,
            t0.elapsed().as_secs_f64(),
            process_cpu_s() - cpu0,
            t0,
        )
    };
    let execute_spans = spans.len() - spans_before;
    let (pulls, waited) = clock.read();
    let (Some(&first), Some(&last)) = (pulls.first(), pulls.last()) else {
        return Err(format!("{}: the engine never pulled a tick", w.name));
    };
    let lateness_max_s = period.map_or(0.0, |period| {
        pulls
            .iter()
            .enumerate()
            .map(|(k, &pull)| (pull - (first + period.mul_f64(k as f64))).as_secs_f64())
            .fold(0.0, f64::max)
    });
    let start_s = first.duration_since(t0).as_secs_f64();
    let drain_s = (wall_s - start_s - last.duration_since(first).as_secs_f64()).max(0.0);
    let window_rates: Vec<f64> = pulls
        .windows(RATE_WINDOW_TICKS + 1)
        .step_by(RATE_WINDOW_TICKS)
        .map(|p| {
            let span = p[RATE_WINDOW_TICKS].duration_since(p[0]);
            RATE_WINDOW_TICKS as f64 / span.as_secs_f64()
        })
        .collect();
    if window_rates.is_empty() {
        return Err(format!(
            "{}: fewer than {RATE_WINDOW_TICKS} ticks served: the run is too short",
            w.name
        ));
    }
    let EngineDetail::Real(detail) = report.detail else {
        return Err("the real engine returned a non-real report".into());
    };

    let mut m = Measured {
        workload: w,
        map,
        block,
        dir,
        setup_s: cycles::median(&setup_times),
        record_s: cycles::median(&record_times),
        estimates: cycles::estimate(&shard_metrics(&report), w.cycle_len(), cycles::MIN_CYCLES)
            .map_err(|e| format!("{}: {e}", w.name))?,
        report,
        detail,
        wall_s,
        window_rates,
        start_s,
        drain_s,
        cpu_s: cpu_s - waited.as_secs_f64(),
        lateness_max_s,
        execute_spans,
        from_ticks: Vec::new(),
        recoveries: Vec::new(),
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
    };
    account_checkpoints(&mut m);
    recover_and_verify(&mut m, replicas.as_deref(), spans, root.id());
    Ok(m)
}

/// Count the run's checkpoints as attempted operations; started but never
/// completed ones, and writes whose retry budget ran out, are failures.
fn account_checkpoints(m: &mut Measured) {
    for (s, shard) in m.report.shards.iter().enumerate() {
        let records = &shard.summary.metrics.checkpoints;
        // The driver drains every in-flight checkpoint before returning,
        // so sequence numbers 0 ..= max must all have completed.
        let started = records.iter().map(|c| c.seq + 1).max().unwrap_or(0);
        m.attempted += started;
        let missing = started - records.len() as u64;
        if missing > 0 {
            m.failed += missing;
            m.failures.push(format!(
                "shard {s}: {missing} checkpoints started but never completed"
            ));
        }
    }
    if m.detail.retry_exhausted > 0 {
        m.failed += m.detail.retry_exhausted;
        m.failures.push(format!(
            "{} writer operations exhausted their retry budget",
            m.detail.retry_exhausted
        ));
    }
}

/// Restore shard `s` from `dir` and replay `trace` to `crash_tick`.
fn recover_shard<S: TraceSource>(
    org: DiskOrg,
    dir: &Path,
    geometry: StateGeometry,
    trace: &mut S,
    crash_tick: u64,
) -> io::Result<RecoveredState> {
    match org {
        DiskOrg::DoubleBackup => recover_and_replay(dir, geometry, trace, crash_tick),
        DiskOrg::Log => recover_and_replay_log(dir, geometry, trace, crash_tick),
    }
}

/// Compare one recovered shard with the oracle; counts two operations
/// (the recovery and the compare).
fn verify_against(
    m: &mut Measured,
    what: &str,
    shard: usize,
    result: &io::Result<RecoveredState>,
    restore_tick: u64,
    expected: &[u8],
) {
    m.attempted += 2;
    match result {
        Err(e) => {
            m.failed += 2;
            m.failures.push(format!("{what}, shard {shard}: {e}"));
        }
        Ok(rec) => {
            if rec.from_tick != restore_tick {
                m.failed += 1;
                m.failures.push(format!(
                    "{what}, shard {shard}: restored tick {} but the checkpoint to restore \
                     is tick {restore_tick}",
                    rec.from_tick
                ));
            }
            if rec.table.as_bytes() != expected {
                m.failed += 1;
                m.failures.push(format!(
                    "{what}, shard {shard}: recovered state differs from the oracle"
                ));
            }
        }
    }
}

/// The checkpoint each shard's recoveries restore, as its consistent tick.
///
/// A double-backup shard restores its newest image. A log-organised
/// shard's restore cost depends on where in the flush cycle the run
/// happened to end — a full flush plus zero to seven partial segments to
/// read back, ±30 % — so its log is cut back to the newest segment that
/// sits half a cycle after a full flush. A prefix of an append-only log is
/// exactly the log as it stood when that checkpoint committed (a crash at
/// that earlier moment), and every run then reconstructs from one full
/// flush and four partial ones.
fn pin_restore_points(m: &Measured) -> io::Result<Vec<u64>> {
    let n = m.map.n_shards();
    let spec = m.workload.algorithm.spec();
    (0..n)
        .map(|s| {
            let Some(period) = spec.full_flush_period.map(u64::from) else {
                let records = &m.report.shards[s].summary.metrics.checkpoints;
                return Ok(records.iter().map(|c| c.start_tick).max().unwrap_or(0));
            };
            let dir = shard_dir(m.dir.path(), s, n);
            let mut log = LogStore::open(&dir, m.map.shard_geometry(s))?;
            let segments = log.segments()?;
            let keep = segments
                .iter()
                .rposition(|g| (g.seq + 1) % period == period / 2)
                .ok_or_else(|| io::Error::other("the log holds no mid-cycle segment"))?;
            let bytes = |segs: &[_]| {
                segs.iter()
                    .map(|g: &mmoc_storage::log_store::SegmentInfo| g.bytes)
                    .sum::<u64>()
            };
            let end = log.len() - bytes(&segments[keep + 1..]);
            drop(log);
            std::fs::OpenOptions::new()
                .write(true)
                .open(dir.join("checkpoint.log"))?
                .set_len(end)?;
            Ok(segments[keep].consistent_tick)
        })
        .collect()
}

/// Recover the world ([`RECOVERY_WARMUP`] of untimed recoveries, then
/// [`RECOVERY_REPS`] timed) from the run's directory — one thread per
/// shard, crash tick = restored tick + the fixed tail — and compare every
/// recovered shard (and, where the workload replicates, one replica-tier
/// recovery per shard) with the oracle.
fn recover_and_verify(
    m: &mut Measured,
    replicas: Option<&ReplicaSet>,
    spans: &Spans,
    parent: Option<usize>,
) {
    let w = m.workload;
    let n = m.map.n_shards();
    let org = w.algorithm.spec().disk_org;
    m.from_ticks = match pin_restore_points(m) {
        Ok(ticks) => ticks,
        Err(e) => {
            m.attempted += 1;
            m.failed += 1;
            m.failures.push(format!("choosing the restore point: {e}"));
            return;
        }
    };
    let expected_at = |m: &Measured, s: usize, tick: u64| {
        let world = oracle::state_after(&m.block, tick);
        oracle::shard_slice(&world, &m.map, s).to_vec()
    };
    let crash_ticks: Vec<u64> = m
        .from_ticks
        .iter()
        .map(|t| t + RECOVERY_TAIL_TICKS)
        .collect();
    // Untimed: the expected bytes of every shard at its crash tick.
    let expected: Vec<Vec<u8>> = (0..n).map(|s| expected_at(m, s, crash_ticks[s])).collect();

    let warm_until = Instant::now() + RECOVERY_WARMUP;
    while m.recoveries.len() < RECOVERY_REPS {
        let timed = Instant::now() >= warm_until;
        let span = spans.enter(if timed { "recovery" } else { "recovery.warmup" }, parent);
        let t0 = Instant::now();
        let results: Vec<io::Result<RecoveredState>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..n)
                .map(|s| {
                    let (map, block, base) = (&m.map, &m.block, m.dir.path());
                    let (from, crash) = (m.from_ticks[s], crash_ticks[s]);
                    let span_id = span.id();
                    scope.spawn(move || {
                        let _s = spans.enter("storage.recovery.recover_and_replay", span_id);
                        let mut log =
                            ShardFilter::new(TailTrace::new(block, from, crash), map.clone(), s);
                        recover_shard(
                            org,
                            &shard_dir(base, s, n),
                            map.shard_geometry(s),
                            &mut log,
                            crash,
                        )
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("recovery thread panicked"))
                .collect()
        });
        let wall_s = t0.elapsed().as_secs_f64();
        drop(span);
        if timed {
            m.recoveries.push(RecoverySample {
                wall_s,
                shards: results
                    .iter()
                    .map(|r| {
                        r.as_ref().map_or((0.0, 0.0, 0), |r| {
                            (r.restore_s, r.replay_s, r.updates_replayed)
                        })
                    })
                    .collect(),
            });
        }
        for (s, result) in results.iter().enumerate() {
            let restore_tick = m.from_ticks[s];
            verify_against(m, "disk recovery", s, result, restore_tick, &expected[s]);
        }
    }

    if let Some(set) = replicas {
        for s in 0..n {
            // Publish-on-commit: after a drained run every mirror holds
            // the shard's newest committed checkpoint.
            let (_, mirror_tick) = set.mirror_status(s as u32);
            let crash = mirror_tick + RECOVERY_TAIL_TICKS;
            let mut log = ShardFilter::new(
                TailTrace::new(&m.block, mirror_tick, crash),
                m.map.clone(),
                s,
            );
            let result = recover_from_replica(
                set,
                s as u32,
                m.map.shard_geometry(s),
                &mut log,
                crash,
                &RecoveryOpts::default(),
            )
            .unwrap_or_else(|| Err(io::Error::other("no complete mirror to fetch")));
            let newest = m.report.shards[s].summary.metrics.checkpoints.iter();
            let newest = newest.map(|c| c.start_tick).max().unwrap_or(0);
            let expected = expected_at(m, s, crash);
            verify_against(m, "replica recovery", s, &result, newest, &expected);
        }
    }
}

/// CPU time (user + system, all threads) this process has used, in
/// seconds, from `/proc/self/stat`; 0 where that file is unreadable.
pub fn process_cpu_s() -> f64 {
    // Fields 14 and 15, counted after the parenthesised command name,
    // in clock ticks; Linux reports them at 100 Hz on every architecture.
    const CLK_TCK: f64 = 100.0;
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    let after_comm = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let mut fields = after_comm.split_ascii_whitespace().skip(11);
    let utime: f64 = fields.next().and_then(|f| f.parse().ok()).unwrap_or(0.0);
    let stime: f64 = fields.next().and_then(|f| f.parse().ok()).unwrap_or(0.0);
    (utime + stime) / CLK_TCK
}

/// Peak resident set of this process in MB (`VmHWM`); 0 if unreadable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1e3)
}
