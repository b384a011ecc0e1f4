//! Configuration of the real engine.

use crate::inject::{Inject, RetryPolicy};
use mmoc_core::WriterBackend;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// Configuration for a real (disk-backed) checkpointing run.
///
/// Every knob is a public field with its default in [`RealConfig::new`].
/// Five of them can also be defaulted process-wide from the environment
/// (the `ENV_KNOBS` table below: the CI matrix's levers); a field
/// assigned or built explicitly always wins over its environment row.
#[derive(Debug, Clone)]
pub struct RealConfig {
    /// Directory holding the backup files (ideally on a dedicated disk, as
    /// in the paper; any directory works).
    pub dir: PathBuf,
    /// Tick period. The paper games tick at 30 Hz (33.3 ms).
    pub tick_period: Duration,
    /// When true, the mutator sleeps out the remainder of each tick (the
    /// paper's sleep phase); when false, ticks run back to back — the mode
    /// tests use so they finish quickly.
    pub paced: bool,
    /// Random state lookups per tick (the paper's query phase, which fills
    /// the tick with game-like read work).
    pub query_ops_per_tick: u32,
    /// Calibrated cost of one dirty-bit test/set, used to account the
    /// per-update bit overhead without timing every update (timing a ~2 ns
    /// operation with a ~20 ns clock read would swamp it).
    pub bit_test_cost_s: f64,
    /// `fsync` checkpoint data before declaring a checkpoint durable.
    pub sync_data: bool,
    /// After the run, simulate a crash and measure real recovery.
    pub measure_recovery: bool,
    /// Thread-pool loops serving all shards' flush jobs, each owning a
    /// fixed group of shards. `0` picks 4 — the pool is sized to the
    /// storage device, not the shard count — and the count is capped at
    /// the shard count. The batched backend always runs one loop.
    pub writer_pool_threads: usize,
    /// The writer backend executing flush jobs (see [`crate::writer`]).
    pub writer_backend: WriterBackend,
    /// Batch window of every writer loop: while its job queue holds
    /// fewer jobs than a full batch (its shards × pipeline depth), the
    /// loop waits up to this long for stragglers so their durability
    /// points coalesce. `Duration::ZERO` closes every batch at once.
    /// Ignored while [`RealConfig::auto_window`] is on.
    pub batch_window: Duration,
    /// Derive each round's window from the job inter-arrival EWMA the
    /// writer loop observes — zero while batches close full, the
    /// scaled EWMA (capped at 2 ms) otherwise — instead of the fixed
    /// [`RealConfig::batch_window`].
    pub auto_window: bool,
    /// The writer issues one data `fsync` per **distinct target file**
    /// of a batch instead of one per job. Either way all data syncs
    /// precede any metadata commit, and the files are byte-identical.
    pub coalesce_fsync: bool,
    /// When a batch holds two or more distinct target files on one
    /// device, collapse their fsyncs into one `syncfs`. Capability-probed
    /// at first use, falling back to per-file fsync. Requires
    /// [`RealConfig::coalesce_fsync`].
    pub device_sync: bool,
    /// How many checkpoints the driver may have in flight per shard (at
    /// least 1). Only log-organization checkpoints without a sweep
    /// overlap; the bookkeeper serializes everything else regardless.
    pub pipeline_depth: u32,
    /// Vestigial: can hold no value and no engine code reads it. It
    /// stays only while the frozen benchmark still assigns it; deleting
    /// it is part of ROADMAP item 1 (thaw the benchmark).
    pub crash: Option<std::convert::Infallible>,
    /// Fault-injection state shared by every shard of the run (see
    /// [`crate::inject`]; set it with [`RealConfig::with_inject`]).
    /// `None` in production: every injection site is then a single
    /// `Option` check.
    pub fault: Option<Arc<Inject>>,
    /// How many times the writer re-issues a failed data write / fsync /
    /// meta commit before the error propagates as a typed `RunError`.
    /// `0` propagates the first failure.
    pub retry_max: u32,
    /// Linear backoff base between retry attempts (attempt `k` sleeps
    /// `k × backoff`). Zero spins: transient failpoints clear by reach
    /// count, not by time.
    pub retry_backoff: Duration,
    /// Replication factor K of the in-memory recovery tier: each shard
    /// publishes its committed checkpoint deltas to K peer-shard mirrors
    /// and single-shard recovery tries a replica fetch before the disk
    /// path. `0` disables the tier.
    pub replication_factor: u32,
    /// A pre-built replica tier whose `Arc` the caller keeps to drive
    /// recovery itself after the run. `Some` activates replication
    /// regardless of [`RealConfig::replication_factor`].
    pub replica_set: Option<Arc<crate::replica::ReplicaSet>>,
    /// The first environment row that held garbage, as a message.
    /// Construction stays infallible; the message surfaces as a typed
    /// `RunError::Config` the moment the config executes a run, so a typo
    /// in a CI leg fails loudly instead of re-running the default.
    pub env_error: Option<String>,
}

/// Parses one environment value into the config; `Err` names the
/// accepted forms.
type EnvParser = fn(&mut RealConfig, &str) -> Result<(), String>;

/// The process-wide defaults [`RealConfig::new`] reads from the
/// environment: one row per variable. A row exists only while something
/// in the tree sets it (today: the CI writer-backend matrix and the
/// retry-disabled differential leg).
const ENV_KNOBS: [(&str, EnvParser); 5] = [
    ("MMOC_WRITER_BACKEND", |c, v| {
        c.writer_backend = WriterBackend::ALL
            .into_iter()
            .find(|b| b.label() == v)
            .ok_or(r#"use "thread-pool" or "async-batched""#)?;
        Ok(())
    }),
    ("MMOC_WRITER_BATCH_WINDOW", |c, v| {
        match v {
            "auto" => c.auto_window = true,
            _ => {
                c.batch_window =
                    parse_duration(v).ok_or(r#"use e.g. "0", "250us", "2ms", "1s" or "auto""#)?;
            }
        }
        Ok(())
    }),
    ("MMOC_WRITER_PIPELINE_DEPTH", |c, v| {
        c.pipeline_depth = v
            .parse()
            .ok()
            .filter(|&d| d >= 1)
            .ok_or("use an integer of at least 1")?;
        Ok(())
    }),
    ("MMOC_WRITER_RETRY_MAX", |c, v| {
        c.retry_max = v
            .parse()
            .map_err(|_| "use an unsigned integer (0 disables retries)")?;
        Ok(())
    }),
    ("MMOC_REPLICATION", |c, v| {
        c.replication_factor = v
            .parse()
            .map_err(|_| "use an unsigned integer (0 disables the replica tier)")?;
        Ok(())
    }),
];

impl RealConfig {
    /// A configuration rooted at `dir` with test-friendly defaults —
    /// unpaced ticks, light query phase, recovery measurement on — under
    /// the `MMOC_*` rows this process's environment sets.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self::from_vars(dir.into(), |key| std::env::var(key).ok())
    }

    /// Every default, then one pass over [`ENV_KNOBS`] reading the
    /// environment through `var`. Garbage leaves its field alone and is
    /// deferred into [`RealConfig::env_error`] (the first failure wins)
    /// instead of panicking in library code.
    fn from_vars(dir: PathBuf, var: impl Fn(&str) -> Option<String>) -> Self {
        let mut config = RealConfig {
            dir,
            tick_period: Duration::from_nanos(33_333_333),
            paced: false,
            query_ops_per_tick: 1_000,
            bit_test_cost_s: 2e-9,
            sync_data: true,
            measure_recovery: true,
            writer_pool_threads: 0,
            writer_backend: WriterBackend::ThreadPool,
            batch_window: Duration::ZERO,
            auto_window: false,
            coalesce_fsync: true,
            device_sync: false,
            pipeline_depth: 1,
            crash: None,
            fault: None,
            retry_max: 3,
            retry_backoff: Duration::ZERO,
            replication_factor: 0,
            replica_set: None,
            env_error: None,
        };
        for (key, parse) in ENV_KNOBS {
            let Some(value) = var(key) else { continue };
            if let Err(accepted) = parse(&mut config, value.trim()) {
                config
                    .env_error
                    .get_or_insert(format!("unrecognized {key} value {value:?}; {accepted}"));
            }
        }
        config
    }

    /// Select the writer backend executing flush jobs.
    pub fn with_writer_backend(mut self, backend: WriterBackend) -> Self {
        self.writer_backend = backend;
        self
    }

    /// Fix the writer's batch window (see
    /// [`RealConfig::batch_window`]; `Duration::ZERO` = no waiting),
    /// turning auto-tuning off: an explicit window wins over an `auto`
    /// inherited from the environment.
    pub fn with_batch_window(mut self, window: Duration) -> Self {
        self.batch_window = window;
        self.auto_window = false;
        self
    }

    /// Enable or disable cross-shard fsync coalescing (see
    /// [`RealConfig::coalesce_fsync`]).
    pub fn with_fsync_coalescing(mut self, on: bool) -> Self {
        self.coalesce_fsync = on;
        self
    }

    /// Enable or disable `syncfs`-style device barriers in the writer's
    /// durability scheduler (see [`RealConfig::device_sync`]).
    pub fn with_device_sync(mut self, on: bool) -> Self {
        self.device_sync = on;
        self
    }

    /// Set the checkpoint pipeline depth (see
    /// [`RealConfig::pipeline_depth`]). A depth of 0 is a typed
    /// `RunError::Config` when the run executes.
    pub fn with_pipeline_depth(mut self, depth: u32) -> Self {
        self.pipeline_depth = depth;
        self
    }

    /// The writer-loop count actually used for an `n_shards`-way run: the
    /// sized pool capped at one loop per shard, or one for the batched
    /// engine's single loop (which the retired `io-uring` runs).
    pub fn effective_pool_threads(&self, n_shards: usize) -> usize {
        match (self.writer_backend, self.writer_pool_threads) {
            (WriterBackend::AsyncBatched | WriterBackend::IoUring, _) => 1,
            (WriterBackend::ThreadPool, 0) => n_shards.clamp(1, 4),
            (WriterBackend::ThreadPool, threads) => threads.min(n_shards).max(1),
        }
    }

    /// Pace ticks at the paper's 30 Hz (or any frequency).
    pub fn paced_at_hz(mut self, hz: f64) -> Self {
        assert!(hz > 0.0 && hz.is_finite());
        self.paced = true;
        self.tick_period = Duration::from_secs_f64(1.0 / hz);
        self
    }

    /// Override the query-phase size.
    pub fn with_query_ops(mut self, ops: u32) -> Self {
        self.query_ops_per_tick = ops;
        self
    }

    /// Disable the end-of-run recovery measurement.
    pub fn without_recovery(mut self) -> Self {
        self.measure_recovery = false;
        self
    }

    /// Install a per-run fault-injection state (see
    /// [`RealConfig::fault`]). The caller keeps a clone of the `Arc` to
    /// read reach counts, the fired/down latches and the injected-fault
    /// tally after the run.
    pub fn with_inject(mut self, state: Arc<Inject>) -> Self {
        self.fault = Some(state);
        self
    }

    /// Set the writer's transient-fault retry budget and backoff base
    /// (see [`RealConfig::retry_max`]).
    pub fn with_retry(mut self, max: u32, backoff: Duration) -> Self {
        self.retry_max = max;
        self.retry_backoff = backoff;
        self
    }

    /// The writer layer's retry policy for this run.
    #[must_use]
    pub fn retry_policy(&self) -> RetryPolicy {
        RetryPolicy {
            max: self.retry_max,
            backoff: self.retry_backoff,
        }
    }

    /// Set the replica tier's replication factor (see
    /// [`RealConfig::replication_factor`]; `0` disables the tier).
    pub fn with_replication(mut self, factor: u32) -> Self {
        self.replication_factor = factor;
        self
    }

    /// Install a pre-built replica tier (see
    /// [`RealConfig::replica_set`]).
    pub fn with_replica_set(mut self, set: Arc<crate::replica::ReplicaSet>) -> Self {
        self.replica_set = Some(set);
        self
    }
}

/// Parse a duration: `250us`, `2ms`, `1s`, or a bare integer
/// (microseconds).
fn parse_duration(v: &str) -> Option<Duration> {
    let v = v.trim();
    let (digits, scale_us) = if let Some(n) = v.strip_suffix("us") {
        (n, 1u64)
    } else if let Some(n) = v.strip_suffix("ms") {
        (n, 1_000)
    } else if let Some(n) = v.strip_suffix('s') {
        (n, 1_000_000)
    } else {
        (v, 1)
    };
    let n: u64 = digits.trim().parse().ok()?;
    Some(Duration::from_micros(n.checked_mul(scale_us)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A config built under exactly the given environment, whatever this
    /// process's own holds (never `set_var`: parallel tests would race).
    fn under(env: &[(&str, &str)]) -> RealConfig {
        RealConfig::from_vars("/tmp/x".into(), |key| {
            let (_, value) = env.iter().find(|(k, _)| *k == key)?;
            Some((*value).to_string())
        })
    }

    #[test]
    fn defaults_are_test_friendly() {
        let cfg = under(&[]);
        assert!(!cfg.paced && cfg.measure_recovery && cfg.sync_data);
        assert_eq!(cfg.writer_backend, WriterBackend::ThreadPool);
        assert_eq!(cfg.batch_window, Duration::ZERO);
        assert!(!cfg.auto_window && !cfg.device_sync);
        assert!(cfg.coalesce_fsync, "coalescing is the default scheduler");
        assert_eq!(cfg.pipeline_depth, 1, "one checkpoint in flight");
        assert!(cfg.crash.is_none() && cfg.fault.is_none(), "production");
        assert_eq!(cfg.retry_max, 3, "bounded retries by default");
        assert_eq!(cfg.retry_backoff, Duration::ZERO);
        assert_eq!(cfg.replication_factor, 0);
        assert!(cfg.env_error.is_none());
    }

    /// The environment contract, row by row: a valid value lands in its
    /// field, garbage defers an error naming the key and the value and
    /// changes nothing else, and some CI leg sets the key — an
    /// environment route needs a setter.
    #[test]
    fn every_env_knob_lands_defers_garbage_and_has_a_ci_setter() {
        type Landed = fn(&RealConfig) -> bool;
        let cases: [(&str, &str, Landed, &str); 5] = [
            (
                "MMOC_WRITER_BACKEND",
                " async-batched ",
                |c| c.writer_backend == WriterBackend::AsyncBatched,
                "io-uring",
            ),
            (
                "MMOC_WRITER_BATCH_WINDOW",
                "2ms",
                |c| c.batch_window == Duration::from_millis(2) && !c.auto_window,
                "fast",
            ),
            (
                "MMOC_WRITER_PIPELINE_DEPTH",
                "4",
                |c| c.pipeline_depth == 4,
                "0",
            ),
            ("MMOC_WRITER_RETRY_MAX", "0", |c| c.retry_max == 0, "-1"),
            (
                "MMOC_REPLICATION",
                "2",
                |c| c.replication_factor == 2,
                "many",
            ),
        ];
        assert_eq!(cases.map(|c| c.0), ENV_KNOBS.map(|row| row.0));
        let ci = include_str!("../../../.github/workflows/ci.yml");
        let defaults = format!("{:?}", under(&[]));
        for (key, valid, landed, garbage) in cases {
            let cfg = under(&[(key, valid)]);
            assert!(landed(&cfg) && cfg.env_error.is_none(), "{key}={valid}");

            let mut cfg = under(&[(key, garbage)]);
            let msg = cfg.env_error.take().expect("garbage defers an error");
            assert!(
                msg.starts_with(&format!("unrecognized {key} value {garbage:?}; use ")),
                "{msg}"
            );
            assert_eq!(format!("{cfg:?}"), defaults, "{key}={garbage}");

            assert!(
                ci.contains(&format!("{key}: ")) || ci.contains(&format!("{key}=")),
                "no CI leg sets {key}: delete the row or add the leg"
            );
        }

        let all_garbage = ENV_KNOBS.map(|(key, _)| (key, "?"));
        let msg = under(&all_garbage).env_error.expect("deferred");
        assert!(
            msg.contains(ENV_KNOBS[0].0),
            "the first failure wins: {msg}"
        );

        for backend in WriterBackend::ALL {
            let cfg = under(&[("MMOC_WRITER_BACKEND", backend.label())]);
            assert_eq!(cfg.writer_backend, backend);
            assert!(cfg.env_error.is_none());
        }
    }

    /// Regression: `MMOC_WRITER_BATCH_WINDOW=auto` used to outlive an
    /// explicit `with_batch_window`, because the writer ignores the fixed
    /// window while `auto_window` is set and nothing cleared it.
    #[test]
    fn an_explicit_window_beats_an_auto_environment() {
        let cfg = under(&[("MMOC_WRITER_BATCH_WINDOW", "auto")]);
        assert!(cfg.auto_window && cfg.env_error.is_none());
        let cfg = cfg.with_batch_window(Duration::from_micros(500));
        assert!(
            !cfg.auto_window,
            "explicit settings win over the environment"
        );
        assert_eq!(cfg.batch_window, Duration::from_micros(500));
    }

    #[test]
    fn durations_parse() {
        assert_eq!(parse_duration("0"), Some(Duration::ZERO));
        assert_eq!(parse_duration("250"), Some(Duration::from_micros(250)));
        assert_eq!(parse_duration("250us"), Some(Duration::from_micros(250)));
        assert_eq!(parse_duration(" 2ms "), Some(Duration::from_millis(2)));
        assert_eq!(parse_duration("1s"), Some(Duration::from_secs(1)));
        assert_eq!(parse_duration("fast"), None);
        assert_eq!(parse_duration("1.5ms"), None, "whole numbers only");
    }

    #[test]
    fn builders_set_their_fields() {
        let cfg = under(&[])
            .with_fsync_coalescing(false)
            .with_device_sync(true)
            .with_pipeline_depth(4)
            .with_retry(0, Duration::from_micros(250))
            .paced_at_hz(30.0);
        assert!(!cfg.coalesce_fsync && cfg.device_sync && cfg.paced);
        assert_eq!(cfg.pipeline_depth, 4);
        assert_eq!(cfg.retry_policy().max, 0);
        assert_eq!(cfg.retry_policy().backoff, Duration::from_micros(250));
        assert!((cfg.tick_period.as_secs_f64() - 1.0 / 30.0).abs() < 1e-9);
    }

    #[test]
    fn writer_backend_sizes_the_writer() {
        let cfg = under(&[]).with_writer_backend(WriterBackend::AsyncBatched);
        assert_eq!(cfg.effective_pool_threads(4), 1, "batched engine: one loop");
        let cfg = cfg.with_writer_backend(WriterBackend::IoUring);
        assert_eq!(cfg.effective_pool_threads(4), 1, "retired name: one loop");
        let mut cfg = cfg.with_writer_backend(WriterBackend::ThreadPool);
        assert_eq!(cfg.effective_pool_threads(1), 1);
        assert_eq!(cfg.effective_pool_threads(8), 4, "auto pool caps at 4");
        cfg.writer_pool_threads = 2;
        assert_eq!(cfg.effective_pool_threads(8), 2);
        cfg.writer_pool_threads = 8;
        assert_eq!(cfg.effective_pool_threads(4), 4, "a loop per shard");
    }
}
