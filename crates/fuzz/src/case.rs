//! Pure case derivation: `(seed, id) -> FuzzCase`.
//!
//! Cases are sampled **site-first**: with `n` sites accepting a crash
//! ([`Site::accepts_crash`]), case `id` arms the `id % n`-th of them in
//! registry order, so a corpus of `k * n` cases arms every crash site
//! exactly `k` times — coverage by construction, not by luck. The
//! remaining axes (algorithm, shards, writer backend, pipeline depth,
//! batch window, hit index, torn offset, transient layer) are drawn from
//! a SplitMix64 stream keyed on `(seed, id)`, within the site's
//! [`Site::reach`]: the algorithm from its disk organization, the backend
//! from its backends, a barrier round and the replica tier where it needs
//! them, the hit within its `hits`, and the transient layer from the
//! seams whose reach admits the case. A forced pick (one choice) draws
//! nothing. Without the reach a large fraction of the corpus would arm
//! sites the run can never reach.

use mmoc_core::{Algorithm, WriterBackend};
use mmoc_storage::inject::{Effect, Hits, Kind, Plan, Site};

/// The sites a case's crash plan can arm, in registry order.
fn crash_sites() -> impl Iterator<Item = Site> {
    Site::all().filter(|s| s.accepts_crash())
}

/// Parse one layer's plan: `crash=` takes a crash, `fault=` a transient
/// schedule.
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
    /// Writer backend the run requests.
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
    /// The armed crash plan: a crash site, hit index, and torn offset.
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
    /// A forced pick (one choice) draws nothing.
    fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        match xs {
            [x] => *x,
            _ => xs[self.below(xs.len() as u64) as usize],
        }
    }
    /// A hit index within `hits`.
    fn hit(&mut self, hits: Hits, shards: u32) -> u64 {
        match hits {
            Hits::Many => 1 + self.below(3),
            // Drawn on one shard too: the derived stream is pinned.
            Hits::PerShard => 1 + self.below(u64::from(shards)),
            Hits::Upto(1) => 1,
            Hits::Upto(n) => 1 + self.below(n),
        }
    }
    fn chance(&mut self, one_in: u64) -> bool {
        self.below(one_in) == 0
    }
}

impl FuzzCase {
    /// Derive case `id` of stream `seed`. Pure: equal inputs give equal
    /// cases on every machine and every run.
    #[must_use]
    pub fn derive(seed: u64, id: u64) -> FuzzCase {
        let n = crash_sites().count() as u64;
        let site = crash_sites().nth((id % n) as usize).expect("id % n < n");
        let reach = site.reach();
        let mut r = Rng::new(seed, id);

        let algs: Vec<Algorithm> = Algorithm::ALL
            .into_iter()
            .filter(|a| reach.org.is_none_or(|o| a.spec().disk_org == o))
            .collect();
        let algorithm = r.pick(&algs);
        let backend = r.pick(reach.backends);
        let barrier = reach.barrier;
        let shards = if barrier { 4 } else { r.pick(&[1_u32, 4]) };
        let device_sync = barrier || r.chance(4);
        let coalesce = barrier || !r.chance(4);
        let batch_window_us = if barrier {
            r.pick(&[150_u64, 300])
        } else {
            r.pick(&[0_u64, 100, 250])
        };

        // Where the tier is optional, a minority of cases carry it along
        // so every other site is also exercised with mirrors active.
        let replication = if reach.replicas || r.chance(3) {
            r.pick(&[1_u32, 2])
        } else {
            0
        };
        let hit = r.hit(reach.hits, shards);

        // Transient-fault schedule: a third of the corpus layers an I/O
        // error burst over the crash plan (crash point × transient
        // schedule, the multi-fault grid), on a seam whose reach admits
        // the case. The burst never exceeds the retry budget, so every
        // derived run completes — retry exhaustion and backend
        // degradation are pinned by unit tests, since the oracle demands
        // runs that finish.
        let (fault, retry_max) = if r.chance(3) {
            let org = algorithm.spec().disk_org;
            let seams: Vec<Site> = Site::all()
                .filter(|s| !s.accepts_crash() && s.reach().admits(org, backend, replication))
                .collect();
            let seam = r.pick(&seams);
            let retry_max = 1 + r.below(3) as u32;
            let plan = Plan {
                site: seam,
                hit: r.hit(seam.reach().hits, shards),
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
                effect: Effect::Crash { torn: r.below(97) },
            },
            fault,
            retry_max,
        }
    }

    /// Whether this case's shape can reach `site`: its reach admits the
    /// disk organization, backend and replica tier, and a barrier site
    /// gets its coalesced multi-shard round.
    #[must_use]
    pub fn admits(&self, site: Site) -> bool {
        let reach = site.reach();
        let barrier_round =
            self.shards > 1 && self.device_sync && self.coalesce && self.batch_window_us > 0;
        reach.admits(
            self.algorithm.spec().disk_org,
            self.backend,
            self.replication,
        ) && (!reach.barrier || barrier_round)
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
    /// by hand). Unknown keys, missing keys, and malformed values —
    /// including a flag other than `0`/`1` and a zero shard count or
    /// pipeline depth, which the engine would refuse — are reported by
    /// name.
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
            let flag = |what: &str| match v {
                "0" => Ok(false),
                "1" => Ok(true),
                _ => Err(bad(what)),
            };
            let positive = |what: &str| v.parse().ok().filter(|&n| n >= 1).ok_or_else(|| bad(what));
            match k {
                "alg" => {
                    case.algorithm =
                        Algorithm::parse(v).ok_or_else(|| format!("unknown algorithm {v:?}"))?;
                }
                "shards" => case.shards = positive("shards")?,
                "backend" => {
                    case.backend = WriterBackend::ALL
                        .into_iter()
                        .find(|b| b.label() == v)
                        .ok_or_else(|| format!("unknown backend {v:?}"))?;
                }
                "depth" => case.pipeline_depth = positive("depth")?,
                "window" => case.batch_window_us = v.parse().map_err(|_| bad("window"))?,
                "dsync" => case.device_sync = flag("dsync")?,
                "coalesce" => case.coalesce = flag("coalesce")?,
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
        // A plan the shape cannot reach would pass without testing anything.
        for plan in std::iter::once(case.plan).chain(case.fault) {
            if !case.admits(plan.site) {
                let (name, reach) = (plan.site.name(), plan.site.reach());
                return Err(format!(
                    "`{name}` is unreachable in this case (reach: {reach})"
                ));
            }
        }
        Ok(case)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derivation_is_pure_and_site_first() {
        let sites: Vec<Site> = crash_sites().collect();
        assert_eq!(
            sites.len(),
            17,
            "the derived corpus is keyed on 17 crash sites"
        );
        for id in 0..64 {
            let a = FuzzCase::derive(8, id);
            let b = FuzzCase::derive(8, id);
            assert_eq!(a, b, "case {id} must be a pure function of (seed, id)");
            assert_eq!(a.plan.site, sites[id as usize % sites.len()]);
        }
        assert_ne!(FuzzCase::derive(8, 0), FuzzCase::derive(9, 0));
    }

    /// Every derived plan lies within its site's reach and `hits`, and
    /// every crash site is drawn with every backend its reach admits —
    /// so each always-reached site meets both.
    #[test]
    fn every_case_is_admitted_by_its_reach() {
        let mut drawn = Vec::new();
        for seed in [1_u64, 8, 1234] {
            for id in 0..(8 * crash_sites().count() as u64) {
                let c = FuzzCase::derive(seed, id);
                for p in std::iter::once(c.plan).chain(c.fault) {
                    assert!(c.admits(p.site), "{}", c.spec());
                    let most = match p.site.reach().hits {
                        Hits::Many => 3,
                        Hits::PerShard => u64::from(c.shards),
                        Hits::Upto(n) => n,
                    };
                    assert!((1..=most).contains(&p.hit), "{}", c.spec());
                    assert!(p.site.effects().contains(&p.effect.name()));
                }
                if let Some(f) = c.fault {
                    let Effect::Transient { burst, .. } = f.effect else {
                        panic!("the fault layer is transient: {}", f.spec());
                    };
                    assert!(
                        burst <= u64::from(c.retry_max),
                        "derived bursts stay within the retry budget"
                    );
                }
                drawn.push((c.plan.site, c.backend));
            }
        }
        for site in crash_sites() {
            for &backend in site.reach().backends {
                assert!(
                    drawn.contains(&(site, backend)),
                    "{} never drawn with {}",
                    site.name(),
                    backend.label()
                );
            }
        }
    }

    /// A hand-written spec: every required key, with `extra` appended
    /// (a repeated key overrides the base value).
    fn parse(extra: &str) -> Result<FuzzCase, String> {
        let base = "alg=cou,shards=1,backend=thread-pool,depth=1,window=0,dsync=0,coalesce=1,ticks=12,upt=100,skew=0.5,tseed=7,repl=0";
        FuzzCase::parse(&format!("{base},{extra}"))
    }

    /// A spec whose crash or fault site its shape cannot reach is
    /// rejected, naming the site and its reach; the retired ring's
    /// backend and sites are not in the grammar at all.
    #[test]
    fn unreachable_specs_are_rejected() {
        let log = parse("crash=job-submitted,fault=log-sync").unwrap_err();
        assert!(log.starts_with("`log-sync` is") && log.contains("(reach: Log,"));
        assert!(parse("crash=device-barrier,backend=async-batched").is_err());
        let pool = parse("crash=device-barrier,shards=4,window=250,dsync=1").unwrap_err();
        assert!(pool.contains("(reach: any org, async-batched,"), "{pool}");
        let ring = parse("crash=job-submitted,backend=io-uring").unwrap_err();
        assert_eq!(ring, r#"unknown backend "io-uring""#);
        let site = parse("crash=uring-wave-staged").unwrap_err();
        assert!(site.contains("unknown injection site"), "{site}");
        for ok in [
            "crash=job-submitted,fault=log-sync,alg=partial-redo",
            "crash=device-barrier,backend=async-batched,shards=4,window=250,dsync=1",
        ] {
            assert!(parse(ok).is_ok(), "{ok}");
        }
    }

    /// `dsync=` takes only `0` or `1`: a typo must not silently run the
    /// other configuration.
    #[test]
    fn a_dsync_other_than_0_or_1_is_rejected() {
        assert_eq!(parse("dsync=yes").unwrap_err(), r#"bad dsync value "yes""#);
    }

    /// `coalesce=` takes only `0` or `1`.
    #[test]
    fn a_coalesce_other_than_0_or_1_is_rejected() {
        assert_eq!(
            parse("coalesce=2").unwrap_err(),
            r#"bad coalesce value "2""#
        );
    }

    /// Zero shards is a usage error, not a run the engine refuses and
    /// the fuzzer then reports as a divergence.
    #[test]
    fn zero_shards_is_rejected() {
        assert_eq!(parse("shards=0").unwrap_err(), r#"bad shards value "0""#);
    }

    /// A zero pipeline depth is a usage error too.
    #[test]
    fn zero_depth_is_rejected() {
        assert_eq!(parse("depth=0").unwrap_err(), r#"bad depth value "0""#);
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

    /// The derived corpus is pinned: these specs were re-captured when
    /// the ring's sites and backend left the registry (17 crash sites,
    /// two backends). They cover transient layers on both organizations'
    /// seams, the barrier round, both replica push seams, and both
    /// recovery re-crash sites.
    #[test]
    fn derived_corpus_is_pinned() {
        for (id, want) in [
            (0, "alg=atomic-copy,shards=4,backend=async-batched,depth=2,window=100,dsync=1,coalesce=1,ticks=10,upt=126,skew=0.5,tseed=2487590534359734178,repl=0,crash=job-enqueued:2:crash:37,fault=none,retrymax=3"),
            (3, "alg=naive,shards=1,backend=async-batched,depth=2,window=250,dsync=0,coalesce=0,ticks=13,upt=168,skew=0.5,tseed=6251130948614375196,repl=0,crash=backup-commit:3:crash:13,fault=backup-write:2:enospc:2,retrymax=2"),
            (4, "alg=cou-partial-redo,shards=4,backend=thread-pool,depth=2,window=0,dsync=0,coalesce=1,ticks=16,upt=133,skew=0,tseed=17325615395165278667,repl=1,crash=log-append-object:1:crash:93,fault=none,retrymax=3"),
            (5, "alg=partial-redo,shards=4,backend=thread-pool,depth=2,window=0,dsync=0,coalesce=1,ticks=23,upt=130,skew=0.5,tseed=13629623784796972306,repl=0,crash=log-segment-sealed:1:crash:20,fault=none,retrymax=3"),
            (10, "alg=atomic-copy,shards=4,backend=async-batched,depth=1,window=300,dsync=1,coalesce=1,ticks=14,upt=99,skew=0.8,tseed=2716320599119586240,repl=1,crash=device-barrier:2:crash:1,fault=none,retrymax=3"),
            (11, "alg=cou-partial-redo,shards=1,backend=thread-pool,depth=2,window=0,dsync=0,coalesce=0,ticks=21,upt=110,skew=0.5,tseed=18070647197857446915,repl=2,crash=replica-push-pre-commit:3:crash:21,fault=log-append:2:short-write:1,retrymax=1"),
            (12, "alg=atomic-copy,shards=1,backend=async-batched,depth=1,window=250,dsync=0,coalesce=1,ticks=21,upt=167,skew=0.8,tseed=7343591775661958372,repl=2,crash=replica-push-post-commit:1:crash:2,fault=backup-sync:3:short-write:1,retrymax=1"),
            (14, "alg=atomic-copy,shards=4,backend=async-batched,depth=2,window=0,dsync=0,coalesce=1,ticks=15,upt=71,skew=1.1,tseed=1379632832013760060,repl=0,crash=recovery-read-image:2:crash:90,fault=none,retrymax=3"),
            (15, "alg=naive,shards=1,backend=thread-pool,depth=1,window=0,dsync=1,coalesce=1,ticks=14,upt=78,skew=0,tseed=12541043392508888128,repl=2,crash=recovery-replay-tick:1:crash:82,fault=none,retrymax=3"),
        ] {
            assert_eq!(FuzzCase::derive(8, id).spec(), want, "case 8:{id}");
        }
    }
}
