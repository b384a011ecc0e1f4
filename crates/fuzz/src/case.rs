//! Pure case derivation: `(seed, id) -> FuzzCase`.
//!
//! Cases are sampled **point-first**: case `id` arms lattice point
//! `ALL_POINTS[id % N_POINTS]`, so a corpus of `k * N_POINTS` cases arms
//! every registered point exactly `k` times — coverage by construction,
//! not by luck. The remaining axes (algorithm, shards, writer backend,
//! pipeline depth, batch window, hit index, torn offset) are drawn from a
//! SplitMix64 stream keyed on `(seed, id)` and then clamped to the
//! point's *compatibility set*: a point that only exists on the io_uring
//! path is never paired with the thread pool, a log-append point is never
//! paired with a double-backup algorithm, and so on. Without the clamp a
//! large fraction of the corpus would arm points the run can never reach.

use mmoc_core::{Algorithm, DiskOrg, WriterBackend};
use mmoc_storage::crash::{plan_spec, CrashAction, CrashPlan, CrashPoint, ALL_POINTS, N_POINTS};
use mmoc_storage::fault::{fault_spec, FaultPlan, FaultSite, ALL_KINDS};

/// One fully specified fuzz case: engine configuration, synthetic trace
/// axes, and the armed crash plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FuzzCase {
    /// Checkpointing algorithm under test.
    pub algorithm: Algorithm,
    /// World shard count (1 or 4).
    pub shards: u32,
    /// Writer backend the run requests (io_uring may fall back).
    pub backend: WriterBackend,
    /// Checkpoint pipeline depth (1 = stop-and-wait).
    pub pipeline_depth: u32,
    /// Durability-scheduler batch window, microseconds.
    pub batch_window_us: u64,
    /// Whether the scheduler may use whole-device barriers.
    pub device_sync: bool,
    /// Whether the scheduler coalesces same-target fsyncs.
    pub coalesce: bool,
    /// Synthetic trace length in ticks.
    pub ticks: u64,
    /// Cell updates per tick.
    pub updates_per_tick: u32,
    /// Zipf skew of the update stream.
    pub skew: f64,
    /// Trace RNG seed (equal seeds give byte-identical traces).
    pub trace_seed: u64,
    /// Replica tier factor (0 disables the in-memory recovery tier).
    pub replication: u32,
    /// The armed crash plan (point, hit index, torn offset, action).
    pub plan: CrashPlan,
    /// Optional transient-fault schedule layered over the crash plan:
    /// a burst of injected I/O errors the retry budget must absorb.
    pub fault: Option<FaultPlan>,
    /// Writer/recovery retry budget (`MMOC_WRITER_RETRY_MAX` semantics;
    /// derivation keeps any fault burst within it so runs complete).
    pub retry_max: u32,
}

/// SplitMix64 — tiny, seedable, and good enough for axis sampling.
struct Rng(u64);

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Rng {
    fn new(seed: u64, id: u64) -> Rng {
        Rng(mix(seed ^ mix(id.wrapping_mul(0x9e37_79b9_7f4a_7c15))))
    }
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix(self.0)
    }
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
    fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[self.below(xs.len() as u64) as usize]
    }
    fn chance(&mut self, one_in: u64) -> bool {
        self.below(one_in) == 0
    }
}

/// Algorithms whose disk organization is the double backup.
fn double_backup_algs() -> Vec<Algorithm> {
    Algorithm::ALL
        .into_iter()
        .filter(|a| a.spec().disk_org == DiskOrg::DoubleBackup)
        .collect()
}

/// Algorithms whose disk organization is the log.
fn log_algs() -> Vec<Algorithm> {
    Algorithm::ALL
        .into_iter()
        .filter(|a| a.spec().disk_org == DiskOrg::Log)
        .collect()
}

impl FuzzCase {
    /// Derive case `id` of stream `seed`. Pure: equal inputs give equal
    /// cases on every machine and every run.
    #[must_use]
    pub fn derive(seed: u64, id: u64) -> FuzzCase {
        use CrashPoint::*;
        let point = ALL_POINTS[(id % N_POINTS as u64) as usize];
        let mut r = Rng::new(seed, id);

        // Algorithm: clamp to the disk organization the point lives in.
        let algorithm = match point {
            LogAppendObject | LogSegmentSealed => r.pick(&log_algs()),
            BackupWriteObject | BackupInvalidate | BackupCommit => r.pick(&double_backup_algs()),
            _ => r.pick(&Algorithm::ALL),
        };

        // Backend: clamp to the code path that consults the point.
        // - uring-* points exist only in the ring loop;
        // - submit_job (and the LogStore/BackupSet write path it drives)
        //   is bypassed by the ring's staging, so mid-write points need
        //   the pool or the batched engine;
        // - the commit seam and the device barrier belong to the
        //   durability scheduler (batched and ring engines).
        let backend = match point {
            UringWaveStaged | UringWaveComplete => WriterBackend::IoUring,
            JobSubmitted | BackupWriteObject | LogAppendObject | LogSegmentSealed => {
                r.pick(&[WriterBackend::ThreadPool, WriterBackend::AsyncBatched])
            }
            SchedulerCommitSeam | DeviceBarrier => {
                r.pick(&[WriterBackend::AsyncBatched, WriterBackend::IoUring])
            }
            _ => r.pick(&WriterBackend::ALL),
        };

        // The device barrier only arises when several same-device files
        // share one coalesced sync phase: multi-shard, coalescing on,
        // device sync on, and a real batch window.
        let barrier = point == DeviceBarrier;
        let shards = if barrier { 4 } else { r.pick(&[1_u32, 4]) };
        let device_sync = barrier || r.chance(4);
        let coalesce = barrier || !r.chance(4);
        let batch_window_us = if barrier {
            r.pick(&[150_u64, 300])
        } else {
            r.pick(&[0_u64, 100, 250])
        };

        // Ring death (dead-flag latch + synchronous redo, not a crash) is
        // only meaningful at the ring boundaries.
        let action = match point {
            UringWaveStaged | UringWaveComplete if r.chance(3) => CrashAction::RingDeath,
            _ => CrashAction::Crash,
        };

        // The replica push/fetch points only exist when the replica tier
        // is on, so those cases force a nonzero factor; everywhere else a
        // minority of cases carry the tier along so every older point is
        // also exercised with mirrors active.
        let replication = match point {
            ReplicaPushPreCommit | ReplicaPushPostCommit | ReplicaFetch | ReplicaFetchMid => {
                1 + r.below(2) as u32
            }
            _ if r.chance(3) => r.pick(&[1_u32, 2]),
            _ => 0,
        };

        // Fetch attempts are bounded by shards × mirrors and recovery
        // stops at the first surviving copy, so a fetch-point hit index
        // past the shard count could never be reached. The recovery
        // re-crash points are likewise bounded by what one restore pass
        // actually reaches: the image read happens once per shard, the
        // replay tail may be short (a checkpoint can land on the last
        // tick), and a mid-fetch death consumes one mirror attempt.
        let hit = match point {
            ReplicaFetch | RecoveryReadImage => 1 + r.below(u64::from(shards)),
            RecoveryReplayTick => 1 + r.below(2),
            ReplicaFetchMid => 1,
            _ => 1 + r.below(3),
        };

        // Transient-fault schedule: a third of the corpus layers an I/O
        // error burst over the crash plan (crash point × transient
        // schedule, the multi-fault grid). The site is clamped to a seam
        // this configuration actually reaches, and the burst never
        // exceeds the retry budget, so every derived run completes —
        // retry exhaustion and backend degradation are pinned by unit
        // tests, since the oracle demands runs that finish.
        let (fault, retry_max) = if r.chance(3) {
            let site = match (backend, algorithm.spec().disk_org) {
                (WriterBackend::IoUring, _) => r.pick(&[FaultSite::UringCqe, FaultSite::ImageRead]),
                (_, DiskOrg::DoubleBackup) => r.pick(&[
                    FaultSite::BackupWrite,
                    FaultSite::BackupSync,
                    FaultSite::BackupCommit,
                    FaultSite::ImageRead,
                ]),
                (_, DiskOrg::Log) => r.pick(&[
                    FaultSite::LogAppend,
                    FaultSite::LogSync,
                    FaultSite::ImageRead,
                ]),
            };
            let retry_max = 1 + r.below(3) as u32;
            let plan = FaultPlan {
                site,
                hit: 1 + r.below(3),
                kind: r.pick(&ALL_KINDS),
                burst: 1 + r.below(u64::from(retry_max)),
            };
            (Some(plan), retry_max)
        } else {
            (None, 3)
        };

        FuzzCase {
            algorithm,
            shards,
            backend,
            pipeline_depth: r.pick(&[1_u32, 2]),
            batch_window_us,
            device_sync,
            coalesce,
            ticks: 10 + r.below(15), // 10..=24
            updates_per_tick: 40 + r.below(180) as u32,
            skew: r.pick(&[0.0, 0.5, 0.8, 1.1]),
            trace_seed: r.next(),
            replication,
            plan: CrashPlan {
                point,
                hit,
                torn: r.below(97),
                action,
            },
            fault,
            retry_max,
        }
    }

    /// Serialize to the `--case` spec format: comma-separated `key=value`
    /// pairs, round-tripped exactly by [`FuzzCase::parse`].
    #[must_use]
    pub fn spec(&self) -> String {
        format!(
            "alg={},shards={},backend={},depth={},window={},dsync={},coalesce={},ticks={},upt={},skew={},tseed={},repl={},crash={},fault={},retrymax={}",
            self.algorithm.short_name(),
            self.shards,
            self.backend.label(),
            self.pipeline_depth,
            self.batch_window_us,
            u8::from(self.device_sync),
            u8::from(self.coalesce),
            self.ticks,
            self.updates_per_tick,
            self.skew,
            self.trace_seed,
            self.replication,
            self.plan.spec(),
            self.fault.as_ref().map_or_else(|| "none".to_string(), FaultPlan::spec),
            self.retry_max,
        )
    }

    /// Parse a `--case` spec produced by [`FuzzCase::spec`] (or written
    /// by hand). Unknown keys, missing keys, and malformed values are
    /// reported by name.
    pub fn parse(spec: &str) -> Result<FuzzCase, String> {
        let mut case = FuzzCase::derive(0, 0);
        // The fault axes are optional keys with production defaults —
        // reset whatever case 0 happened to derive before overlaying.
        case.fault = None;
        case.retry_max = 3;
        let mut seen = 0_u32;
        for pair in spec.split(',') {
            let (k, v) = pair
                .split_once('=')
                .ok_or_else(|| format!("expected key=value, got {pair:?}"))?;
            let bad = |what: &str| format!("bad {what} value {v:?}");
            match k {
                "alg" => {
                    case.algorithm =
                        Algorithm::parse(v).ok_or_else(|| format!("unknown algorithm {v:?}"))?;
                }
                "shards" => case.shards = v.parse().map_err(|_| bad("shards"))?,
                "backend" => {
                    case.backend = WriterBackend::ALL
                        .into_iter()
                        .find(|b| b.label() == v)
                        .ok_or_else(|| format!("unknown backend {v:?}"))?;
                }
                "depth" => case.pipeline_depth = v.parse().map_err(|_| bad("depth"))?,
                "window" => case.batch_window_us = v.parse().map_err(|_| bad("window"))?,
                "dsync" => case.device_sync = v == "1",
                "coalesce" => case.coalesce = v == "1",
                "ticks" => case.ticks = v.parse().map_err(|_| bad("ticks"))?,
                "upt" => case.updates_per_tick = v.parse().map_err(|_| bad("upt"))?,
                "skew" => case.skew = v.parse().map_err(|_| bad("skew"))?,
                "tseed" => case.trace_seed = v.parse().map_err(|_| bad("tseed"))?,
                "repl" => case.replication = v.parse().map_err(|_| bad("repl"))?,
                "crash" => case.plan = plan_spec(v)?,
                // Optional axes (pre-fault specs omit them) — not
                // counted toward the required-key minimum.
                "fault" => {
                    case.fault = if v == "none" {
                        None
                    } else {
                        Some(fault_spec(v)?)
                    };
                    continue;
                }
                "retrymax" => {
                    case.retry_max = v.parse().map_err(|_| bad("retrymax"))?;
                    continue;
                }
                _ => return Err(format!("unknown key {k:?}")),
            }
            seen += 1;
        }
        if seen < 13 {
            return Err(format!("spec has {seen} of 13 required keys: {spec:?}"));
        }
        Ok(case)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derivation_is_pure_and_point_first() {
        for id in 0..64 {
            let a = FuzzCase::derive(8, id);
            let b = FuzzCase::derive(8, id);
            assert_eq!(a, b, "case {id} must be a pure function of (seed, id)");
            assert_eq!(a.plan.point, ALL_POINTS[(id % N_POINTS as u64) as usize]);
        }
        assert_ne!(FuzzCase::derive(8, 0), FuzzCase::derive(9, 0));
    }

    #[test]
    fn every_case_satisfies_the_compatibility_matrix() {
        use CrashPoint::*;
        for seed in [1_u64, 8, 1234] {
            for id in 0..(8 * N_POINTS as u64) {
                let c = FuzzCase::derive(seed, id);
                let org = c.algorithm.spec().disk_org;
                match c.plan.point {
                    LogAppendObject | LogSegmentSealed => {
                        assert_eq!(org, DiskOrg::Log);
                        assert_ne!(c.backend, WriterBackend::IoUring);
                    }
                    BackupWriteObject => {
                        assert_eq!(org, DiskOrg::DoubleBackup);
                        assert_ne!(c.backend, WriterBackend::IoUring);
                    }
                    BackupInvalidate | BackupCommit => assert_eq!(org, DiskOrg::DoubleBackup),
                    UringWaveStaged | UringWaveComplete => {
                        assert_eq!(c.backend, WriterBackend::IoUring);
                    }
                    JobSubmitted => assert_ne!(c.backend, WriterBackend::IoUring),
                    SchedulerCommitSeam => assert_ne!(c.backend, WriterBackend::ThreadPool),
                    DeviceBarrier => {
                        assert_ne!(c.backend, WriterBackend::ThreadPool);
                        assert_eq!(c.shards, 4);
                        assert!(c.device_sync && c.coalesce && c.batch_window_us > 0);
                    }
                    ReplicaPushPreCommit | ReplicaPushPostCommit | ReplicaFetch => {
                        assert!(
                            (1..=2).contains(&c.replication),
                            "replica points need the tier on"
                        );
                        if c.plan.point == ReplicaFetch {
                            assert!(c.plan.hit <= u64::from(c.shards));
                        }
                    }
                    ReplicaFetchMid => {
                        assert!(
                            (1..=2).contains(&c.replication),
                            "a mid-fetch peer death needs mirrors to die"
                        );
                        assert_eq!(c.plan.hit, 1, "one mirror attempt is consumed per fire");
                    }
                    RecoveryReadImage => {
                        assert!(c.plan.point.is_recovery_point());
                        assert!(
                            c.plan.hit <= u64::from(c.shards),
                            "one image read per shard restore"
                        );
                    }
                    RecoveryReplayTick => {
                        assert!(c.plan.point.is_recovery_point());
                        assert!(c.plan.hit <= 2, "replay tails can be short");
                    }
                    _ => {}
                }
                if let Some(f) = c.fault {
                    assert!(
                        f.burst <= u64::from(c.retry_max),
                        "derived bursts stay within the retry budget"
                    );
                    match f.site {
                        FaultSite::UringCqe => assert_eq!(c.backend, WriterBackend::IoUring),
                        FaultSite::BackupWrite
                        | FaultSite::BackupSync
                        | FaultSite::BackupCommit => {
                            assert_eq!(org, DiskOrg::DoubleBackup);
                            assert_ne!(c.backend, WriterBackend::IoUring);
                        }
                        FaultSite::LogAppend | FaultSite::LogSync => {
                            assert_eq!(org, DiskOrg::Log);
                            assert_ne!(c.backend, WriterBackend::IoUring);
                        }
                        // Recovery reads are backend-independent.
                        FaultSite::ImageRead => {}
                    }
                }
                assert!(
                    c.plan.action == CrashAction::Crash
                        || matches!(c.plan.point, UringWaveStaged | UringWaveComplete),
                    "ring death only at ring boundaries"
                );
                assert!(c.plan.hit >= 1);
            }
        }
    }

    #[test]
    fn specs_round_trip() {
        for id in 0..(2 * N_POINTS as u64) {
            let c = FuzzCase::derive(42, id);
            let back = FuzzCase::parse(&c.spec()).expect("own spec must parse");
            assert_eq!(c, back, "spec {} did not round-trip", c.spec());
        }
        assert!(
            FuzzCase::parse("alg=cou").is_err(),
            "partial specs rejected"
        );
        assert!(FuzzCase::parse("nonsense").is_err());
    }

    /// Specs written before the fault axes existed (13 keys, no
    /// `fault=`/`retrymax=`) still parse, with production defaults.
    #[test]
    fn pre_fault_specs_parse_with_defaults() {
        let full = FuzzCase::derive(42, 1).spec();
        let legacy = full.split(",fault=").next().unwrap();
        let back = FuzzCase::parse(legacy).expect("13-key spec must parse");
        assert_eq!(back.fault, None);
        assert_eq!(back.retry_max, 3);
        assert!(
            FuzzCase::parse("fault=none,retrymax=3").is_err(),
            "optional keys do not count toward the required minimum"
        );
    }
}
