//! Greedy shrinking of a failing case.
//!
//! Each transformation makes the case strictly smaller or simpler
//! (fewer shards, fewer ticks, fewer updates, an earlier crash, no torn
//! tail, no pipeline overlap); a transformation is kept only when the
//! shrunk case still fails. Transformations stay within the site's
//! [`Site::reach`](mmoc_storage::inject::Site::reach) — a barrier site
//! needs its multi-shard round, so that case keeps four shards. The
//! budget is bounded: at most one re-run per transformation pass, two
//! passes.

use mmoc_storage::inject::{Effect, Plan};

use crate::case::FuzzCase;
use crate::oracle::run_case;

/// Shrink `case` (which must currently fail) and return the smallest
/// still-failing case found plus the number of re-runs spent.
#[must_use]
pub fn shrink(case: &FuzzCase) -> (FuzzCase, u32) {
    let mut best = *case;
    let mut runs = 0_u32;
    for _pass in 0..2 {
        let mut improved = false;
        let candidates: Vec<FuzzCase> = transforms(&best);
        for cand in candidates {
            if cand == best {
                continue;
            }
            runs += 1;
            if !run_case(&cand).ok() {
                best = cand;
                improved = true;
            }
        }
        if !improved {
            break;
        }
    }
    (best, runs)
}

/// The shrinking moves applicable to `c`, smallest-first.
fn transforms(c: &FuzzCase) -> Vec<FuzzCase> {
    let mut out = Vec::new();
    if c.shards > 1 && !c.plan.site.reach().barrier {
        let mut t = *c;
        t.shards = 1;
        out.push(t);
    }
    if c.ticks > 6 {
        let mut t = *c;
        t.ticks = (c.ticks / 2).max(6);
        out.push(t);
    }
    if c.updates_per_tick > 16 {
        let mut t = *c;
        t.updates_per_tick = (c.updates_per_tick / 2).max(16);
        out.push(t);
    }
    if c.plan.hit > 1 {
        let mut t = *c;
        t.plan.hit = 1;
        out.push(t);
    }
    if matches!(c.plan.effect, Effect::Crash { torn } if torn > 0) {
        let mut t = *c;
        t.plan.effect = Effect::Crash { torn: 0 };
        out.push(t);
    }
    if c.pipeline_depth > 1 {
        let mut t = *c;
        t.pipeline_depth = 1;
        out.push(t);
    }
    // One mirror is the smallest configuration that still has a replica
    // tier; dropping to zero would change which lattice points exist.
    if c.replication > 1 {
        let mut t = *c;
        t.replication = 1;
        out.push(t);
    }
    // A failure that survives without the transient schedule is a pure
    // crash-plan failure — much easier to reason about.
    if c.fault.is_some() {
        let mut t = *c;
        t.fault = None;
        t.retry_max = 3;
        out.push(t);
    }
    // Failing that, a single injected error beats a burst.
    if let Some(
        f @ Plan {
            effect: Effect::Transient { kind, burst },
            ..
        },
    ) = c.fault
    {
        if burst > 1 {
            let effect = Effect::Transient { kind, burst: 1 };
            out.push(FuzzCase {
                fault: Some(Plan { effect, ..f }),
                ..*c
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn torn(p: Plan) -> u64 {
        match p.effect {
            Effect::Crash { torn } => torn,
            _ => 0,
        }
    }

    fn burst(p: Plan) -> u64 {
        match p.effect {
            Effect::Transient { burst, .. } => burst,
            _ => 0,
        }
    }

    #[test]
    fn transforms_only_simplify_and_respect_the_matrix() {
        for id in 0..26 {
            let c = FuzzCase::derive(7, id);
            for t in transforms(&c) {
                assert!(t.shards <= c.shards);
                assert!(t.ticks <= c.ticks);
                assert!(t.updates_per_tick <= c.updates_per_tick);
                assert!(t.plan.hit <= c.plan.hit);
                assert!(torn(t.plan) <= torn(c.plan));
                if c.plan.site.reach().barrier {
                    assert_eq!(t.shards, 4, "a barrier site keeps its four shards");
                }
                if let (Some(tf), Some(cf)) = (t.fault, c.fault) {
                    assert!(burst(tf) <= burst(cf), "fault moves only shrink the burst");
                }
            }
        }
    }
}
