//! Pure case derivation: `(seed, id) -> FuzzCase`.
//!
//! Cases are sampled **site-first**: with `n` sites accepting a crash
//! ([`Site::accepts_crash`]), case `id` arms the `id % n`-th of them in
//! registry order, so a corpus of `k * n` cases arms every crash site
//! exactly `k` times — coverage by construction, not by luck. The
//! remaining axes (algorithm, shards, writer backend, pipeline depth,
//! batch window, hit index, torn offset, transient layer) are drawn from
//! a SplitMix64 stream keyed on `(seed, id)` and then clamped to the
//! site's *compatibility set*: a site that only exists on the io_uring
//! path is never paired with the thread pool, a log-append site is never
//! paired with a double-backup algorithm, and so on. Without the clamp a
//! large fraction of the corpus would arm sites the run can never reach.

use mmoc_core::{Algorithm, DiskOrg, WriterBackend};
use mmoc_storage::inject::{Effect, Kind, Plan, Site};

/// The sites a case's crash plan can arm, in registry order.
fn crash_sites() -> impl Iterator<Item = Site> {
    Site::all().filter(|s| s.accepts_crash())
}

/// Parse one layer's plan: `crash=` takes a crash or ring death, `fault=`
/// a transient schedule.
fn layer(spec: &str, transient: bool) -> Result<Plan, String> {
    let plan = Plan::parse(spec)?;
    if matches!(plan.effect, Effect::Transient { .. }) == transient {
        Ok(plan)
    } else {
        Err(format!("plan `{spec}` belongs to the other layer"))
    }
}

/// One fully specified fuzz case: engine configuration, synthetic trace
/// axes, and the armed plans.
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
    /// The armed terminal plan: a crash site, hit index, and a crash
    /// (with its torn offset) or, at the ring sites, a ring death.
    pub plan: Plan,
    /// Optional transient-fault schedule layered over the crash plan:
    /// a burst of injected I/O errors the retry budget must absorb.
    pub fault: Option<Plan>,
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
        use Site::*;
        let n = crash_sites().count() as u64;
        let site = crash_sites().nth((id % n) as usize).expect("id % n < n");
        let mut r = Rng::new(seed, id);

        // Algorithm: clamp to the disk organization the site lives in.
        let algorithm = match site {
            LogAppendObject | LogSegmentSealed => r.pick(&log_algs()),
            BackupWriteObject | BackupInvalidate | BackupCommit => r.pick(&double_backup_algs()),
            _ => r.pick(&Algorithm::ALL),
        };

        // Backend: clamp to the code path that consults the site.
        // - uring-* sites exist only in the ring loop;
        // - the device barrier needs one loop syncing two files on one
        //   device, and the default pool gives each of 4 shards its own
        //   loop, so it is drawn on the single-loop backends only.
        let backend = match site {
            UringWaveStaged | UringWaveComplete => WriterBackend::IoUring,
            DeviceBarrier => r.pick(&[WriterBackend::AsyncBatched, WriterBackend::IoUring]),
            _ => r.pick(&WriterBackend::ALL),
        };

        // The device barrier only arises when several same-device files
        // share one coalesced sync phase: multi-shard, coalescing on,
        // device sync on, and a real batch window.
        let barrier = site == DeviceBarrier;
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
        let ring_death = matches!(site, UringWaveStaged | UringWaveComplete) && r.chance(3);

        // The replica push/fetch sites only exist when the replica tier
        // is on, so those cases force a nonzero factor; everywhere else a
        // minority of cases carry the tier along so every older site is
        // also exercised with mirrors active.
        let replication = match site {
            ReplicaPushPreCommit | ReplicaPushPostCommit | ReplicaFetch | ReplicaFetchMid => {
                1 + r.below(2) as u32
            }
            _ if r.chance(3) => r.pick(&[1_u32, 2]),
            _ => 0,
        };

        // Fetch attempts are bounded by shards × mirrors and recovery
        // stops at the first surviving copy, so a fetch-site hit index
        // past the shard count could never be reached. The recovery
        // re-crash sites are likewise bounded by what one restore pass
        // actually reaches: the image read happens once per shard, the
        // replay tail may be short (a checkpoint can land on the last
        // tick), and a mid-fetch death consumes one mirror attempt.
        let hit = match site {
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
            let seams: &[Site] = match algorithm.spec().disk_org {
                DiskOrg::DoubleBackup => &[
                    BackupWrite,
                    BackupSync,
                    BackupCommitMeta,
                    ImageRead,
                    UringCqe,
                ],
                DiskOrg::Log => &[LogAppend, LogSync, ImageRead, UringCqe],
            };
            // `uring-cqe`, last, exists only on the ring.
            let ring = usize::from(backend == WriterBackend::IoUring);
            let seam = r.pick(&seams[..seams.len() - 1 + ring]);
            let retry_max = 1 + r.below(3) as u32;
            let plan = Plan {
                site: seam,
                hit: 1 + r.below(3),
                effect: Effect::Transient {
                    kind: r.pick(&Kind::ALL),
                    burst: 1 + r.below(u64::from(retry_max)),
                },
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
            plan: Plan {
                site,
                hit,
                effect: {
                    // Drawn for ring deaths too, so the stream stays aligned.
                    let torn = r.below(97);
                    if ring_death {
                        Effect::RingDeath
                    } else {
                        Effect::Crash { torn }
                    }
                },
            },
            fault,
            retry_max,
        }
    }

    /// Render as the `--case` spec format: comma-separated `key=value`
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
            self.fault.as_ref().map_or_else(|| "none".to_string(), Plan::spec),
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
                "crash" => case.plan = layer(v, false)?,
                // Optional axes (pre-fault specs omit them) — not
                // counted toward the required-key minimum.
                "fault" => {
                    case.fault = if v == "none" {
                        None
                    } else {
                        Some(layer(v, true)?)
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
    use mmoc_storage::inject::Phase;

    #[test]
    fn derivation_is_pure_and_site_first() {
        let sites: Vec<Site> = crash_sites().collect();
        assert_eq!(
            sites.len(),
            19,
            "the derived corpus is keyed on 19 crash sites"
        );
        for id in 0..64 {
            let a = FuzzCase::derive(8, id);
            let b = FuzzCase::derive(8, id);
            assert_eq!(a, b, "case {id} must be a pure function of (seed, id)");
            assert_eq!(a.plan.site, sites[id as usize % sites.len()]);
        }
        assert_ne!(FuzzCase::derive(8, 0), FuzzCase::derive(9, 0));
    }

    #[test]
    fn every_case_satisfies_the_compatibility_matrix() {
        use Site::*;
        // The sites every writer loop reaches — `submit_job` and the
        // stores under every data path, and the scheduler's commit seam
        // in every round — with each backend they were drawn with.
        let mut staged = Vec::new();
        for seed in [1_u64, 8, 1234] {
            for id in 0..(8 * crash_sites().count() as u64) {
                let c = FuzzCase::derive(seed, id);
                let org = c.algorithm.spec().disk_org;
                if matches!(
                    c.plan.site,
                    JobSubmitted
                        | BackupWriteObject
                        | LogAppendObject
                        | LogSegmentSealed
                        | SchedulerCommitSeam
                ) {
                    staged.push((c.plan.site, c.backend));
                }
                match c.plan.site {
                    LogAppendObject | LogSegmentSealed => assert_eq!(org, DiskOrg::Log),
                    BackupWriteObject | BackupInvalidate | BackupCommit => {
                        assert_eq!(org, DiskOrg::DoubleBackup);
                    }
                    UringWaveStaged | UringWaveComplete => {
                        assert_eq!(c.backend, WriterBackend::IoUring);
                    }
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
                        if c.plan.site == ReplicaFetch {
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
                        assert_eq!(c.plan.site.phase(), Phase::Recovery);
                        assert!(
                            c.plan.hit <= u64::from(c.shards),
                            "one image read per shard restore"
                        );
                    }
                    RecoveryReplayTick => {
                        assert_eq!(c.plan.site.phase(), Phase::Recovery);
                        assert!(c.plan.hit <= 2, "replay tails can be short");
                    }
                    _ => {}
                }
                if let Some(f) = c.fault {
                    let Effect::Transient { burst, .. } = f.effect else {
                        panic!("the fault layer is transient: {}", f.spec());
                    };
                    assert!(
                        burst <= u64::from(c.retry_max),
                        "derived bursts stay within the retry budget"
                    );
                    match f.site {
                        UringCqe => assert_eq!(c.backend, WriterBackend::IoUring),
                        BackupWrite | BackupSync | BackupCommitMeta => {
                            assert_eq!(org, DiskOrg::DoubleBackup);
                        }
                        LogAppend | LogSync => assert_eq!(org, DiskOrg::Log),
                        // Recovery reads are backend-independent.
                        ImageRead => {}
                        other => panic!("{} is not a transient site", other.name()),
                    }
                }
                assert!(
                    c.plan.site.effects().contains(&c.plan.effect.name()),
                    "ring death only at ring boundaries"
                );
                assert!(c.plan.hit >= 1);
            }
        }
        for site in [
            JobSubmitted,
            BackupWriteObject,
            LogAppendObject,
            LogSegmentSealed,
            SchedulerCommitSeam,
        ] {
            for backend in WriterBackend::ALL {
                assert!(
                    staged.contains(&(site, backend)),
                    "{} never drawn with {}",
                    site.name(),
                    backend.label()
                );
            }
        }
    }

    #[test]
    fn specs_round_trip() {
        for id in 0..(2 * crash_sites().count() as u64) {
            let c = FuzzCase::derive(42, id);
            let back = FuzzCase::parse(&c.spec()).expect("own spec must parse");
            assert_eq!(c, back, "spec {} did not round-trip", c.spec());
        }
        assert!(
            FuzzCase::parse("alg=cou").is_err(),
            "partial specs rejected"
        );
        assert!(FuzzCase::parse("nonsense").is_err());
        // Each layer takes only its own kind of plan (case 42:0 has both).
        let c = FuzzCase::derive(42, 0);
        for (from, to) in [
            (
                format!("crash={}", c.plan.spec()),
                "crash=backup-write:1:eio:1",
            ),
            (
                format!("fault={}", c.fault.unwrap().spec()),
                "fault=backup-commit",
            ),
        ] {
            let err = FuzzCase::parse(&c.spec().replace(&from, to)).unwrap_err();
            assert!(err.contains("other layer"), "{err}");
        }
    }

    /// Specs written before the fault axes existed (13 keys, no
    /// `fault=`/`retrymax=`) still parse, with production defaults.
    #[test]
    fn specs_without_fault_keys_parse_with_defaults() {
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

    /// The derived corpus is pinned: these specs were captured before
    /// the crash and fault registries merged (only the `crash=` grammar
    /// translated, `hit:torn:crash` → `hit:crash:torn`, and a ring
    /// death's unused torn count dropped), then re-pinned where the
    /// submit-phase sites and seams opened to the ring: log sites on the
    /// batched engine (4, 5) and ring cases' seams (11, 12). They cover
    /// a uring-cqe transient layer, a ring death, transient layers on
    /// other seams, and both recovery re-crash sites.
    #[test]
    fn derived_corpus_is_pinned() {
        for (id, want) in [
            (0, "alg=atomic-copy,shards=4,backend=thread-pool,depth=2,window=100,dsync=1,coalesce=1,ticks=10,upt=126,skew=0.5,tseed=2487590534359734178,repl=0,crash=job-enqueued:2:crash:37,fault=none,retrymax=3"),
            (3, "alg=naive,shards=1,backend=io-uring,depth=2,window=250,dsync=0,coalesce=0,ticks=13,upt=168,skew=0.5,tseed=6251130948614375196,repl=0,crash=backup-commit:3:crash:13,fault=uring-cqe:2:enospc:2,retrymax=2"),
            (4, "alg=cou-partial-redo,shards=4,backend=async-batched,depth=2,window=0,dsync=0,coalesce=1,ticks=16,upt=133,skew=0,tseed=17325615395165278667,repl=1,crash=log-append-object:1:crash:93,fault=none,retrymax=3"),
            (5, "alg=partial-redo,shards=4,backend=async-batched,depth=2,window=0,dsync=0,coalesce=1,ticks=23,upt=130,skew=0.5,tseed=13629623784796972306,repl=0,crash=log-segment-sealed:1:crash:20,fault=none,retrymax=3"),
            (11, "alg=cou-partial-redo,shards=1,backend=io-uring,depth=2,window=0,dsync=0,coalesce=1,ticks=21,upt=110,skew=0.5,tseed=18070647197857446915,repl=0,crash=uring-wave-staged:3:ring-death,fault=image-read:2:short-write:1,retrymax=1"),
            (12, "alg=atomic-copy,shards=4,backend=io-uring,depth=1,window=100,dsync=1,coalesce=1,ticks=21,upt=167,skew=0.8,tseed=7343591775661958372,repl=0,crash=uring-wave-complete:1:crash:2,fault=backup-sync:3:short-write:1,retrymax=1"),
            (15, "alg=naive,shards=1,backend=async-batched,depth=1,window=0,dsync=1,coalesce=1,ticks=10,upt=164,skew=0.8,tseed=10547722765080927258,repl=2,crash=replica-fetch:1:crash:51,fault=backup-sync:2:short-write:1,retrymax=2"),
            (16, "alg=partial-redo,shards=1,backend=thread-pool,depth=1,window=250,dsync=0,coalesce=1,ticks=13,upt=127,skew=0.5,tseed=15578901282202552589,repl=1,crash=recovery-read-image:1:crash:19,fault=none,retrymax=3"),
            (17, "alg=atomic-copy,shards=4,backend=async-batched,depth=2,window=0,dsync=1,coalesce=1,ticks=10,upt=90,skew=0,tseed=8460996655311771567,repl=0,crash=recovery-replay-tick:2:crash:58,fault=none,retrymax=3"),
        ] {
            assert_eq!(FuzzCase::derive(8, id).spec(), want, "case 8:{id}");
        }
    }
}
