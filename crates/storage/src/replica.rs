//! Replicated in-memory recovery tier (ReStore-style).
//!
//! Each shard pushes its committed checkpoint delta — the dirty objects
//! of a double-backup job or the records of a sealed log segment — to
//! `K` peer shards' memory over an in-process transport. Recovering a
//! single crashed shard then starts from a replica fetch (a memcpy of
//! the mirrored image plus a bounded tail replay) and only falls back
//! to the disk path when no mirror holds a complete copy.
//!
//! # Publish-on-commit
//!
//! A mirror must never hold state the disk has not durably committed:
//! the push transaction *opens* (all mirrors for the shard are marked
//! incomplete) before the checkpoint's durability point, and the delta
//! is *published* (applied and marked complete) only after
//! `commit_pending` returns. This is the same sync-before-commit
//! discipline the scheduler already enforces for the disk tier, lifted
//! to the replica tier. If the process dies between open and publish,
//! every mirror is incomplete and recovery falls back to disk — which
//! by construction holds the last committed checkpoint.
//!
//! # Consistency of the mirrored image
//!
//! Deltas are applied in per-shard submission order (the writer seam's
//! `TurnGate` already serializes completions per shard), and each delta
//! carries the pre-update ("consistent tick") images the checkpoint
//! algorithms stage — so after publishing the checkpoint at tick `t`,
//! the mirror byte-for-byte equals the state a disk recovery would
//! reconstruct for tick `t`. Both tiers then replay the same trace tail
//! deterministically, so recovered fingerprints are identical.

use std::sync::Mutex;

use mmoc_core::StateGeometry;

use crate::inject::{Inject, Site};

/// One peer-hosted mirror of a shard's checkpointed state.
struct Mirror {
    /// Consistent tick of the last published checkpoint.
    tick: u64,
    /// False while a push transaction is open (or after a crash landed
    /// mid-push); an incomplete mirror is never served to recovery.
    complete: bool,
    /// Full shard image at `tick`, `objects * object_size` bytes.
    image: Vec<u8>,
}

/// Per-shard replica placement: which peer hosts each of the K copies.
struct ShardMirrors {
    /// Peer shard ids hosting the copies, `(shard + i) % n` for
    /// `i in 1..=K`. Kept for reporting; the mirrors themselves live
    /// inline since the transport is in-process.
    hosts: Vec<u32>,
    copies: Vec<Mutex<Mirror>>,
}

/// The in-process shard-to-shard replication transport: `K` memory
/// mirrors per shard, hosted at successor peers. Owned by the sharded
/// run (or retained by a caller that wants to drive recovery itself,
/// e.g. the fuzzer and the recovery bench) via `Arc`.
pub struct ReplicaSet {
    factor: u32,
    shards: Vec<ShardMirrors>,
}

impl std::fmt::Debug for ReplicaSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplicaSet")
            .field("factor", &self.factor)
            .field("shards", &self.shards.len())
            .finish()
    }
}

/// Recover a poisoned mirror lock: the poisoning panic belongs to a
/// writer thread that already took the run down; the mirror data is a
/// plain byte image and stays usable.
fn relock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl ReplicaSet {
    /// Build the mirror topology for `geometries[s]` = shard `s`'s
    /// geometry. Each shard gets `factor` mirrors hosted at its
    /// successor peers; with a single shard the mirror is self-hosted,
    /// which still exercises the memcpy recovery path.
    ///
    /// Mirrors are seeded with the zeroed image at tick 0, complete —
    /// matching the durable initial state `create_store` lays down, so
    /// a crash before the first checkpoint can still recover from the
    /// replica tier.
    #[must_use]
    pub fn new(factor: u32, geometries: &[StateGeometry]) -> ReplicaSet {
        let n = geometries.len() as u32;
        let shards = geometries
            .iter()
            .enumerate()
            .map(|(s, g)| {
                let hosts: Vec<u32> = (1..=factor.max(1))
                    .map(|i| (s as u32 + i) % n.max(1))
                    .collect();
                let bytes = g.n_objects() as usize * g.object_size as usize;
                let copies = hosts
                    .iter()
                    .map(|_| {
                        Mutex::new(Mirror {
                            tick: 0,
                            complete: true,
                            image: vec![0_u8; bytes],
                        })
                    })
                    .collect();
                ShardMirrors { hosts, copies }
            })
            .collect();
        ReplicaSet {
            factor: factor.max(1),
            shards,
        }
    }

    /// The replication factor K (copies per shard).
    #[must_use]
    pub fn factor(&self) -> u32 {
        self.factor
    }

    /// Peer shard ids hosting `shard`'s mirrors.
    #[must_use]
    pub fn hosts(&self, shard: u32) -> &[u32] {
        &self.shards[shard as usize].hosts
    }

    /// Open a push transaction for `shard`: every mirror is marked
    /// incomplete until the matching [`ReplicaSet::publish`]. Called
    /// before the checkpoint's durability point so a crash in between
    /// leaves no mirror claiming a commit the disk never made.
    pub fn invalidate(&self, shard: u32) {
        for m in &self.shards[shard as usize].copies {
            relock(m).complete = false;
        }
    }

    /// Publish a committed checkpoint delta: apply `(ids, data)` —
    /// `data[i * object_size ..][..object_size]` is the image of object
    /// `ids[i]` — to every mirror, then mark them complete at `tick`.
    /// Must only be called after the delta's durability point.
    ///
    /// # Panics
    ///
    /// Panics if an object id is outside the mirrored image (a delta
    /// from the wrong shard's geometry — a protocol bug, not a data
    /// error).
    pub fn publish(&self, shard: u32, tick: u64, ids: &[u32], data: &[u8], object_size: u32) {
        let osz = object_size as usize;
        for m in &self.shards[shard as usize].copies {
            let mut mirror = relock(m);
            for (i, &id) in ids.iter().enumerate() {
                let src = &data[i * osz..(i + 1) * osz];
                let off = id as usize * osz;
                mirror.image[off..off + osz].copy_from_slice(src);
            }
            mirror.tick = tick;
            mirror.complete = true;
        }
    }

    /// Fetch a complete mirror of `shard` for recovery: returns the
    /// image and its consistent tick, or `None` when no copy is
    /// complete (push transaction in flight at crash time, or every
    /// hosting peer died).
    ///
    /// Each mirror attempt reaches [`Site::ReplicaFetch`]; if the
    /// armed plan fires there the hosting peer is considered dead
    /// mid-transfer and that copy is skipped — so `K = 1` falls back to
    /// disk while `K >= 2` survives a single peer death. The copy lands
    /// in a buffer from the recovered-image allocator, like every disk
    /// restore.
    #[must_use]
    pub fn fetch(&self, shard: u32, inject: Option<&Inject>) -> Option<(Vec<u8>, u64)> {
        self.with_mirror(shard, inject, |image, tick| {
            let mut copy = crate::recovery::image_buffer(image.len());
            copy.copy_from_slice(image);
            (copy, tick)
        })
    }

    /// As [`ReplicaSet::fetch`], but runs `f` over the mirror image in
    /// place instead of cloning it — for callers that only need to
    /// inspect the image. The mirror lock is held for the duration of
    /// `f`; keep it short.
    pub fn with_mirror<R>(
        &self,
        shard: u32,
        inject: Option<&Inject>,
        f: impl FnOnce(&[u8], u64) -> R,
    ) -> Option<R> {
        for m in &self.shards[shard as usize].copies {
            if let Some(state) = inject {
                if state.consult(Site::ReplicaFetch).is_some() {
                    continue;
                }
            }
            let mirror = relock(m);
            if mirror.complete {
                if let Some(state) = inject {
                    // Peer died *mid-transfer*: the copy was locked and
                    // streaming when the host went away. Discard the
                    // partial copy and try the next mirror — K >= 2
                    // survives — before the caller's disk fallback.
                    if state.consult(Site::ReplicaFetchMid).is_some() {
                        continue;
                    }
                }
                return Some(f(&mirror.image, mirror.tick));
            }
        }
        None
    }

    /// Observability for reports/tests: `(complete_copies, tick of the
    /// newest complete copy)` for `shard`.
    #[must_use]
    pub fn mirror_status(&self, shard: u32) -> (u32, u64) {
        let mut complete = 0_u32;
        let mut newest = 0_u64;
        for m in &self.shards[shard as usize].copies {
            let mirror = relock(m);
            if mirror.complete {
                complete += 1;
                newest = newest.max(mirror.tick);
            }
        }
        (complete, newest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inject::Plan;
    use std::sync::Arc;

    /// `objects` atomic objects of `object_size` bytes, one cell per
    /// object byte-for-byte (cell_size == object_size).
    fn geom(objects: u32, object_size: u32) -> StateGeometry {
        StateGeometry {
            rows: objects,
            cols: 1,
            cell_size: object_size,
            object_size,
        }
    }

    #[test]
    fn mirrors_seed_complete_and_zeroed() {
        let set = ReplicaSet::new(2, &[geom(4, 8), geom(4, 8), geom(4, 8)]);
        for s in 0..3 {
            let (image, tick) = set.fetch(s, None).expect("seed mirror is complete");
            assert_eq!(tick, 0);
            assert_eq!(image, vec![0_u8; 32]);
            assert_eq!(set.mirror_status(s), (2, 0));
        }
        // Successor placement: shard 0's copies live on shards 1 and 2.
        assert_eq!(set.hosts(0), &[1, 2]);
        assert_eq!(set.hosts(2), &[0, 1]);
    }

    #[test]
    fn publish_applies_delta_and_invalidate_hides_mirrors() {
        let set = ReplicaSet::new(1, &[geom(4, 4)]);
        set.invalidate(0);
        assert!(set.fetch(0, None).is_none(), "open push hides the mirror");
        set.publish(0, 7, &[1, 3], &[1, 1, 1, 1, 3, 3, 3, 3], 4);
        let (image, tick) = set.fetch(0, None).expect("published mirror serves");
        assert_eq!(tick, 7);
        assert_eq!(image, vec![0, 0, 0, 0, 1, 1, 1, 1, 0, 0, 0, 0, 3, 3, 3, 3]);
    }

    #[test]
    fn fetch_crash_skips_one_mirror_per_fire() {
        let state = Arc::new(Inject::armed([Plan::at(Site::ReplicaFetch)]));
        let set = ReplicaSet::new(2, &[geom(2, 2), geom(2, 2)]);
        set.publish(0, 5, &[0], &[9, 9], 2);
        // First attempt fires (peer death) and is skipped; the second
        // mirror still serves the published state.
        let (image, tick) = set
            .fetch(0, Some(&state))
            .expect("K=2 survives one peer death");
        assert_eq!((image, tick), (vec![9, 9, 0, 0], 5));
        assert!(state.fired());
    }

    /// Peer death *mid-fetch* (after the mirror lock was taken on a
    /// complete copy): with K = 2 the next complete mirror serves the
    /// same published state, before any disk fallback.
    #[test]
    fn mid_fetch_peer_death_tries_next_mirror_before_disk() {
        let state = Arc::new(Inject::armed([Plan::at(Site::ReplicaFetchMid)]));
        let set = ReplicaSet::new(2, &[geom(2, 2), geom(2, 2)]);
        set.publish(0, 5, &[0], &[9, 9], 2);
        let (image, tick) = set
            .fetch(0, Some(&state))
            .expect("K=2 survives one mid-fetch peer death");
        assert_eq!((image, tick), (vec![9, 9, 0, 0], 5));
        assert!(state.fired());
        // Both mirrors were locked: the first fetch died mid-transfer.
        assert_eq!(state.reach_count(Site::ReplicaFetchMid), 2);

        // K = 1 has no second mirror: the same plan forces the disk
        // fallback (fetch misses without consuming anything).
        let state = Arc::new(Inject::armed([Plan::at(Site::ReplicaFetchMid)]));
        let single = ReplicaSet::new(1, &[geom(2, 2)]);
        assert!(single.fetch(0, Some(&state)).is_none());
    }
}
