//! The four workloads, their pinned engine configuration and their trace.
//!
//! Every workload's updates are recorded during set-up (so the Zipf
//! generator runs outside the measured path) into a *block* of ticks that
//! the engine is served cyclically. Cycling keeps set-up and the oracle
//! cheap and leaves the engine's work unchanged: bookkeeping follows
//! addresses, never values.

use crate::spans::Spans;
use mmoc_core::run::TraceSpec;
use mmoc_core::{Algorithm, CellUpdate, DiskOrg, StateGeometry, TraceSource, WriterBackend};
use mmoc_storage::{RealConfig, ReplicaSet};
use mmoc_workload::{RecordedTrace, SyntheticConfig};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The paper's tick rate.
pub const TICK_HZ: f64 = 30.0;

/// Ticks replayed after the restored checkpoint in every measured
/// recovery: a fixed tail, so `recovery_ms` does not depend on where the
/// run's last checkpoint happened to land.
pub const RECOVERY_TAIL_TICKS: u64 = 16;

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// Why the workload exists (mirrored in `BENCHMARK.json`).
    pub why: &'static str,
    pub algorithm: Algorithm,
    pub geometry: StateGeometry,
    pub updates_per_tick: u32,
    pub skew: f64,
    /// `true`: an open loop — tick `k` is due `k / TICK_HZ` after the
    /// first, whatever the engine does (see [`BlockSpec::period`]).
    /// `false`: a closed loop of one client, the mutator, which starts
    /// each tick as soon as the last one ends.
    pub paced: bool,
    pub shards: u32,
    pub writer: WriterBackend,
    /// How long the batched writer holds a batch open for the other
    /// shards' jobs; it closes early once every shard's job is in.
    pub batch_window: Duration,
    /// Replication factor of the benchmark-owned in-memory recovery tier.
    pub replication: u32,
    /// Ticks recorded into the cyclic block.
    pub block_ticks: u64,
}

/// 1 M × 10 cells of 4 B in 512 B objects: 40 MB, 78 125 objects.
const PAPER: StateGeometry = StateGeometry {
    rows: 1_000_000,
    cols: 10,
    cell_size: 4,
    object_size: 512,
};

/// A quarter of the paper's table: 10 MB, 19 532 objects.
const QUARTER: StateGeometry = StateGeometry {
    rows: 250_000,
    cols: 10,
    cell_size: 4,
    object_size: 512,
};

pub const ALL: [Workload; 4] = [
    Workload {
        name: "naive-64k",
        why: "bulk path: one full-state memcpy pause and a full-image flush and restore do all the work; the bookkeeper does none",
        algorithm: Algorithm::NaiveSnapshot,
        geometry: PAPER,
        updates_per_tick: 64_000,
        skew: 0.8,
        paced: true,
        shards: 1,
        writer: WriterBackend::ThreadPool,
        batch_window: Duration::ZERO,
        replication: 0,
        block_ticks: 128,
    },
    Workload {
        name: "cou-64k",
        why: "same trace and files as naive-64k used object by object: a locked sweep of live state, overhead spread over ticks as copy-on-update work; bookkeeper and shared slow path dominate",
        algorithm: Algorithm::CopyOnUpdate,
        geometry: PAPER,
        updates_per_tick: 64_000,
        skew: 0.8,
        paced: true,
        shards: 1,
        writer: WriterBackend::ThreadPool,
        batch_window: Duration::ZERO,
        replication: 0,
        block_ticks: 128,
    },
    Workload {
        name: "redo-log-2shard",
        why: "fixed-cost regime: about one small log checkpoint per shard per tick, so batching, fsync scheduling, segment append, commit and replica publish dominate; recovery reconstructs from the log",
        algorithm: Algorithm::PartialRedo,
        geometry: QUARTER,
        updates_per_tick: 4_000,
        skew: 0.8,
        paced: true,
        shards: 2,
        writer: WriterBackend::AsyncBatched,
        // With no window the writer races the mutator's copy-out of the
        // second shard: a run settles into batches of one or of two, and
        // `checkpoint_ms` reads 3.1 or 5.5 ms accordingly. A window longer
        // than any copy-out makes every batch hold both shards' jobs.
        batch_window: Duration::from_millis(4),
        replication: 1,
        block_ticks: 1_024,
    },
    Workload {
        name: "capacity-256k",
        why: "mutator-bound closed loop: per-update bookkeeping and table writes set the tick rate while the io_uring ring keeps the flush cheap; the only workload where tick_rate_hz is free to move",
        algorithm: Algorithm::AtomicCopyDirtyObjects,
        geometry: QUARTER,
        updates_per_tick: 256_000,
        skew: 0.8,
        paced: false,
        shards: 1,
        writer: WriterBackend::IoUring,
        batch_window: Duration::ZERO,
        replication: 0,
        block_ticks: 32,
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    ALL.iter().find(|w| w.name == name)
}

impl Workload {
    /// Checkpoints per cycle: one write to each backup file, or seven
    /// partial flushes and the full one.
    pub fn cycle_len(&self) -> u64 {
        let spec = self.algorithm.spec();
        match spec.disk_org {
            DiskOrg::DoubleBackup => 2,
            DiskOrg::Log => u64::from(spec.full_flush_period.unwrap_or(1)),
        }
    }

    /// Record the workload's block of ticks from `seed`.
    pub fn record_block(&self, seed: u64) -> RecordedTrace {
        let config = SyntheticConfig {
            geometry: self.geometry,
            ticks: self.block_ticks,
            updates_per_tick: self.updates_per_tick,
            skew: self.skew,
            seed,
        };
        mmoc_workload::trace::record(&mut config.build())
    }

    /// The engine configuration with **every** field pinned: nothing is
    /// left to `RealConfig::new`'s environment-derived defaults.
    pub fn engine_config(&self, dir: &Path, replicas: Option<Arc<ReplicaSet>>) -> RealConfig {
        let mut c = RealConfig::new(dir);
        c.tick_period = Duration::from_secs_f64(1.0 / TICK_HZ);
        // The benchmark paces its open loops itself, from its trace
        // source, without putting the mutator to sleep (`BlockSpec::period`).
        c.paced = false;
        c.query_ops_per_tick = 1_000;
        c.bit_test_cost_s = 2e-9;
        c.sync_data = true;
        // Recovery is measured by the benchmark, with a fixed tail.
        c.measure_recovery = false;
        c.writer_pool_threads = 1;
        c.writer_backend = self.writer;
        c.batch_window = self.batch_window;
        c.auto_window = false;
        c.coalesce_fsync = true;
        c.device_sync = false;
        c.pipeline_depth = 1;
        c.crash = None;
        c.fault = None;
        c.retry_max = 3;
        c.retry_backoff = Duration::ZERO;
        c.replication_factor = self.replication;
        c.replica_set = replicas;
        c.env_error = None;
        c
    }
}

/// When the engine's trace ends.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// After this many ticks (the paced workloads: ticks = seconds × 30).
    Ticks(u64),
    /// At the first tick boundary this long after the first tick was
    /// served (the closed loop: the tick count is its result).
    After(Duration),
}

/// When the engine was handed each tick of the trace — the tick loop as
/// the game sees it. The cursor publishes when the trace ends.
#[derive(Debug, Default)]
pub struct RunClock {
    published: Mutex<(Vec<Instant>, Duration)>,
}

impl RunClock {
    /// One instant per `next_tick` call, the terminating call included
    /// (ticks served + 1 of them after a finished run), and the total
    /// time the cursor held the engine back until a tick was due.
    pub fn read(&self) -> (Vec<Instant>, Duration) {
        // A poisoned lock means the cursor's thread panicked mid-publish;
        // the instants are plain data.
        self.published
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }
}

/// The replayable description handed to `Run::trace`: the block, served
/// cyclically until `stop`. The engine opens it once per run.
pub struct BlockSpec<'a> {
    pub block: &'a RecordedTrace,
    pub stop: Stop,
    /// The open loop's tick period: tick `k` is handed over no earlier
    /// than `k` periods after the first, and at once if the engine comes
    /// back late. The cursor busy-waits: a mutator that sleeps between
    /// ticks leaves its processor idle two thirds of the time, and on
    /// this host an idle processor comes back slow — the same code ran
    /// Copy-on-Update's worst tick in 14–18 ms after a busy minute and in
    /// 27–34 ms after an idle one (see `README.md`, *Pacing*). `None`: a
    /// closed loop, every tick handed over at once.
    pub period: Option<Duration>,
    pub clock: &'a RunClock,
    pub spans: &'a Spans,
    /// Span the per-tick spans hang under (`execute`).
    pub parent: Option<usize>,
}

impl<'a> TraceSpec for BlockSpec<'a> {
    type Source = BlockCursor<'a>;

    fn open(&self) -> BlockCursor<'a> {
        BlockCursor {
            block: self.block,
            stop: self.stop,
            period: self.period,
            clock: self.clock,
            spans: self.spans,
            parent: self.parent,
            pulls: Vec::with_capacity(1 << 14),
            waited: Duration::ZERO,
        }
    }
}

/// The engine-facing cursor of a [`BlockSpec`].
pub struct BlockCursor<'a> {
    block: &'a RecordedTrace,
    stop: Stop,
    period: Option<Duration>,
    clock: &'a RunClock,
    spans: &'a Spans,
    parent: Option<usize>,
    pulls: Vec<Instant>,
    waited: Duration,
}

impl TraceSource for BlockCursor<'_> {
    fn geometry(&self) -> StateGeometry {
        self.block.geometry()
    }

    fn next_tick(&mut self, buf: &mut Vec<CellUpdate>) -> bool {
        buf.clear();
        let served = self.pulls.len() as u64;
        let mut now = Instant::now();
        if let (Some(period), Some(&first)) = (self.period, self.pulls.first()) {
            let due = first + period.mul_f64(served as f64);
            if now < due {
                let _span = self.spans.enter("workload.pace", self.parent);
                let arrived = now;
                while now < due {
                    std::hint::spin_loop();
                    now = Instant::now();
                }
                self.waited += now - arrived;
            }
        }
        let _span = self.spans.enter("workload.next_tick", self.parent);
        self.pulls.push(now);
        let done = match self.stop {
            Stop::Ticks(n) => served >= n,
            Stop::After(d) => now.duration_since(self.pulls[0]) >= d,
        };
        if done {
            let mut published = self
                .clock
                .published
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            *published = (std::mem::take(&mut self.pulls), self.waited);
            return false;
        }
        let ticks = self.block.ticks();
        buf.extend_from_slice(&ticks[(served % ticks.len() as u64) as usize]);
        true
    }
}

/// The logical log a recovery replays: ticks `1 ..= crash_tick` of the
/// cyclic block, truncated at the restored checkpoint — ticks up to
/// `from_tick` are served empty (recovery skips them unread), so the pass
/// over them costs a call per tick and recovery time does not grow with
/// the length of the run.
pub struct TailTrace<'a> {
    block: &'a RecordedTrace,
    from_tick: u64,
    crash_tick: u64,
    served: u64,
}

impl<'a> TailTrace<'a> {
    pub fn new(block: &'a RecordedTrace, from_tick: u64, crash_tick: u64) -> Self {
        TailTrace {
            block,
            from_tick,
            crash_tick,
            served: 0,
        }
    }
}

impl TraceSource for TailTrace<'_> {
    fn geometry(&self) -> StateGeometry {
        self.block.geometry()
    }

    fn next_tick(&mut self, buf: &mut Vec<CellUpdate>) -> bool {
        buf.clear();
        if self.served >= self.crash_tick {
            return false;
        }
        if self.served >= self.from_tick {
            let ticks = self.block.ticks();
            buf.extend_from_slice(&ticks[(self.served % ticks.len() as u64) as usize]);
        }
        self.served += 1;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_block() -> RecordedTrace {
        let g = StateGeometry::small(64, 4);
        RecordedTrace::new(
            g,
            (0..4u32)
                .map(|t| {
                    vec![
                        CellUpdate::new(t, 0, t + 1),
                        CellUpdate::new(t + 8, 1, 100 + t),
                    ]
                })
                .collect(),
        )
    }

    #[test]
    fn names_are_unique_and_resolve() {
        for w in &ALL {
            assert_eq!(by_name(w.name).map(|x| x.name), Some(w.name));
            assert!(
                w.why.len() <= 200,
                "{}: why is one line of ≤200 chars",
                w.name
            );
        }
        assert!(by_name("nope").is_none());
    }

    #[test]
    fn cycle_lengths_follow_the_disk_organisation() {
        assert_eq!(by_name("naive-64k").unwrap().cycle_len(), 2);
        assert_eq!(by_name("cou-64k").unwrap().cycle_len(), 2);
        assert_eq!(by_name("capacity-256k").unwrap().cycle_len(), 2);
        assert_eq!(by_name("redo-log-2shard").unwrap().cycle_len(), 8);
    }

    #[test]
    fn same_seed_same_block() {
        let mut w = *by_name("redo-log-2shard").unwrap();
        w.block_ticks = 3;
        assert_eq!(w.record_block(7), w.record_block(7));
        assert_ne!(w.record_block(7), w.record_block(8));
    }

    #[test]
    fn block_cursor_cycles_and_stops_at_the_tick_limit() {
        let block = tiny_block();
        let clock = RunClock::default();
        let spans = Spans::new("t", true);
        let spec = BlockSpec {
            block: &block,
            stop: Stop::Ticks(6),
            period: Some(Duration::from_millis(1)),
            clock: &clock,
            spans: &spans,
            parent: None,
        };
        let mut cursor = spec.open();
        let mut buf = Vec::new();
        let mut seen = Vec::new();
        while cursor.next_tick(&mut buf) {
            seen.push(buf[0].value);
        }
        assert_eq!(seen, [1, 2, 3, 4, 1, 2], "ticks 5 and 6 replay the block");
        let (pulls, waited) = clock.read();
        assert_eq!(pulls.len(), 7, "six ticks and the terminating pull");
        for (k, pull) in pulls.iter().enumerate() {
            let due = pulls[0] + Duration::from_millis(k as u64);
            assert!(*pull >= due, "tick {k} was handed over before it was due");
        }
        assert!(waited <= pulls[6] - pulls[0]);
    }

    #[test]
    fn deadline_stop_ends_at_a_tick_boundary() {
        let block = tiny_block();
        let clock = RunClock::default();
        let spans = Spans::new("t", false);
        let spec = BlockSpec {
            block: &block,
            stop: Stop::After(Duration::from_millis(5)),
            period: None,
            clock: &clock,
            spans: &spans,
            parent: None,
        };
        let mut cursor = spec.open();
        let mut buf = Vec::new();
        while cursor.next_tick(&mut buf) {}
        let (pulls, waited) = clock.read();
        assert_eq!(waited, Duration::ZERO, "a closed loop never waits");
        assert!(pulls.len() > 1);
        assert!(pulls[pulls.len() - 1] - pulls[0] >= Duration::from_millis(5));
    }

    #[test]
    fn tail_trace_is_truncated_at_the_checkpoint() {
        let block = tiny_block();
        let mut tail = TailTrace::new(&block, 5, 7);
        let mut buf = Vec::new();
        let mut lens = Vec::new();
        let mut last = 0;
        while tail.next_tick(&mut buf) {
            lens.push(buf.len());
            if let Some(u) = buf.first() {
                last = u.value;
            }
        }
        assert_eq!(
            lens,
            [0, 0, 0, 0, 0, 2, 2],
            "ticks 1..=5 empty, 6 and 7 served"
        );
        assert_eq!(last, 3, "tick 7 is block tick (7 − 1) mod 4 = 2");
    }
}
