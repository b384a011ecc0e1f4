//! Value-level fidelity checking.
//!
//! The cost model tells us how *long* checkpointing takes; this module
//! verifies that the bookkeeping is *correct*: every completed checkpoint
//! must leave on disk exactly the state as of the tick boundary where the
//! checkpoint started (tick-consistency, §3.1).
//!
//! The checker maintains a live [`StateTable`], one shadow byte-array per
//! backup file, and the copy-on-update side buffer. The engine feeds it
//! update/copy/flush events; at every checkpoint completion the shadow is
//! compared byte-for-byte against the image captured at checkpoint start.
//! This exercises the exact mechanism the algorithms exist to protect:
//! that concurrent updates never leak post-checkpoint values into the
//! checkpoint image, and that dirty tracking never loses an object.

use mmoc_core::run::FidelitySummary;
use mmoc_core::{Algorithm, Bookkeeper, CellUpdate, DiskOrg, ObjectId, StateGeometry, StateTable};
use std::collections::HashMap;

/// Tracks live state, shadow disks and the copy-on-update buffer.
#[derive(Debug)]
pub struct FidelityChecker {
    geometry: StateGeometry,
    algorithm: Algorithm,
    live: StateTable,
    /// One shadow per backup file: two for double-backup organizations,
    /// one for logs (the log's *materialized* state).
    shadows: Vec<Vec<u8>>,
    /// Pre-update copies saved by `Handle-Update` this checkpoint.
    saved: HashMap<u32, Vec<u8>>,
    /// Eagerly copied (object, bytes) pairs for snapshot flush jobs.
    eager: Vec<(u32, Vec<u8>)>,
    /// Full state image captured at checkpoint start.
    start_image: Vec<u8>,
    /// Sweep slots already applied to the shadow.
    flushed_to: u64,
    /// Shadow index the in-flight checkpoint writes.
    shadow_idx: usize,
    checkpoint_active: bool,
    checks_passed: u64,
    errors: Vec<String>,
}

impl FidelityChecker {
    /// Create a checker for a zero-initialized state table. Both shadow
    /// backups start as copies of the initial state (the engines pre-load
    /// disk backups at boot).
    pub fn new(geometry: StateGeometry, algorithm: Algorithm) -> Self {
        let live = StateTable::new(geometry).expect("valid geometry");
        let n_shadows = match algorithm.spec().disk_org {
            DiskOrg::DoubleBackup => 2,
            DiskOrg::Log => 1,
        };
        let shadows = vec![live.as_bytes().to_vec(); n_shadows];
        FidelityChecker {
            geometry,
            algorithm,
            live,
            shadows,
            saved: HashMap::new(),
            eager: Vec::new(),
            start_image: Vec::new(),
            flushed_to: 0,
            shadow_idx: 0,
            checkpoint_active: false,
            checks_passed: 0,
            errors: Vec::new(),
        }
    }

    /// Save the pre-update value of an object (the engine calls this
    /// *before* [`FidelityChecker::apply`] when the bookkeeper reports a
    /// copy-on-update).
    pub fn save_copy(&mut self, obj: ObjectId) {
        let bytes = self
            .live
            .object_bytes(obj)
            .expect("copied object in bounds")
            .to_vec();
        self.saved.entry(obj.0).or_insert(bytes);
    }

    /// Apply an update to the live state.
    pub fn apply(&mut self, update: CellUpdate) {
        self.live.apply_unchecked(update);
    }

    /// A checkpoint just started (tick boundary): capture the reference
    /// image and the eager copies.
    pub fn begin_checkpoint(&mut self, bk: &Bookkeeper) {
        self.start_image = self.live.as_bytes().to_vec();
        self.saved.clear();
        self.eager.clear();
        self.flushed_to = 0;
        self.checkpoint_active = true;
        self.shadow_idx = match self.algorithm.spec().disk_org {
            DiskOrg::DoubleBackup => bk.target_backup(),
            DiskOrg::Log => 0,
        };
        if bk.sweep_slots().is_none() {
            // Eager (snapshot) flush job: the write set is copied now,
            // synchronously, from the live state.
            for obj in bk.flush_set().iter_ones() {
                let bytes = self
                    .live
                    .object_bytes(ObjectId(obj))
                    .expect("flush-set object in bounds")
                    .to_vec();
                self.eager.push((obj, bytes));
            }
        }
    }

    /// The asynchronous writer advanced to `frontier` slots: write the
    /// newly flushed objects into the shadow, preferring saved copies.
    pub fn advance_flush(&mut self, bk: &Bookkeeper, frontier: u64) {
        if !self.checkpoint_active {
            return;
        }
        let object_size = self.geometry.object_size as usize;
        for slot in self.flushed_to..frontier {
            let Some(obj) = bk.sweep_object_at(slot) else {
                continue;
            };
            let offset = self.geometry.object_offset(obj) as usize;
            let shadow = &mut self.shadows[self.shadow_idx];
            match self.saved.get(&obj.0) {
                Some(bytes) => shadow[offset..offset + object_size].copy_from_slice(bytes),
                None => {
                    let bytes = self.live.object_bytes(obj).expect("object in bounds");
                    shadow[offset..offset + object_size].copy_from_slice(bytes);
                }
            }
        }
        self.flushed_to = self.flushed_to.max(frontier);
    }

    /// The checkpoint completed: drain remaining flush slots, apply eager
    /// copies, and verify the shadow equals the start image.
    pub fn complete_checkpoint(&mut self, bk: &Bookkeeper) {
        if !self.checkpoint_active {
            return;
        }
        if let Some(slots) = bk.sweep_slots() {
            self.advance_flush(bk, slots);
        }
        let object_size = self.geometry.object_size as usize;
        let shadow = &mut self.shadows[self.shadow_idx];
        for (obj, bytes) in self.eager.drain(..) {
            let offset = obj as usize * object_size;
            shadow[offset..offset + object_size].copy_from_slice(bytes.as_slice());
        }

        let shadow = &self.shadows[self.shadow_idx];
        if shadow == &self.start_image {
            self.checks_passed += 1;
        } else {
            let first_bad = shadow
                .iter()
                .zip(&self.start_image)
                .position(|(a, b)| a != b)
                .unwrap_or(0);
            self.errors.push(format!(
                "{}: checkpoint {} image diverges from start state at byte {} (object {})",
                self.algorithm.name(),
                bk.seq(),
                first_bad,
                first_bad / object_size
            ));
        }
        self.checkpoint_active = false;
    }

    /// Finish checking and return the outcome.
    pub fn into_report(self) -> FidelitySummary {
        FidelitySummary {
            checks_passed: self.checks_passed,
            errors: self.errors,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmoc_core::FlushCursor;

    fn geometry() -> StateGeometry {
        StateGeometry::small(32, 4) // 8 objects of 64 bytes
    }

    /// Hand-drive a COU checkpoint and verify the checker catches both a
    /// correct sequence and a corrupted one.
    #[test]
    fn detects_correct_cou_sequence() {
        let g = geometry();
        let alg = Algorithm::CopyOnUpdate;
        let mut bk = Bookkeeper::new(alg.spec(), g.n_objects());
        let mut f = FidelityChecker::new(g, alg);

        // Dirty object 0 (cells 0..16 are object 0) and object 3.
        for (row, val) in [(0u32, 7u32), (13, 9)] {
            let u = CellUpdate::new(row, 0, val);
            let obj = g.object_of_unchecked(u.addr);
            bk.on_update(obj, FlushCursor::START);
            f.apply(u);
        }
        bk.begin_checkpoint();
        f.begin_checkpoint(&bk);

        // Update object 0 mid-checkpoint before the writer reaches it:
        // bookkeeper says copy, checker saves the pre-update value.
        let u = CellUpdate::new(1, 1, 42);
        let obj = g.object_of_unchecked(u.addr);
        let ops = bk.on_update(obj, FlushCursor::START);
        assert!(ops.copy);
        f.save_copy(obj);
        f.apply(u);

        f.complete_checkpoint(&bk);
        bk.finish_checkpoint();
        let report = f.into_report();
        assert_eq!(report.checks_passed, 1);
        assert!(report.is_clean(), "{:?}", report.errors);
    }

    #[test]
    fn detects_missing_copy_as_corruption() {
        let g = geometry();
        let alg = Algorithm::CopyOnUpdate;
        let mut bk = Bookkeeper::new(alg.spec(), g.n_objects());
        let mut f = FidelityChecker::new(g, alg);

        let u0 = CellUpdate::new(0, 0, 7);
        bk.on_update(g.object_of_unchecked(u0.addr), FlushCursor::START);
        f.apply(u0);

        bk.begin_checkpoint();
        f.begin_checkpoint(&bk);

        // Simulate a BUGGY engine: update the object mid-checkpoint but
        // "forget" to save the pre-update copy.
        let u1 = CellUpdate::new(0, 0, 1234);
        let ops = bk.on_update(g.object_of_unchecked(u1.addr), FlushCursor::START);
        assert!(ops.copy, "bookkeeper demanded a copy");
        // f.save_copy intentionally skipped.
        f.apply(u1);

        f.complete_checkpoint(&bk);
        let report = f.into_report();
        assert!(!report.is_clean(), "corruption must be detected");
        assert!(report.errors[0].contains("diverges"));
    }

    #[test]
    fn eager_checkpoints_verify_trivially() {
        let g = geometry();
        let alg = Algorithm::AtomicCopyDirtyObjects;
        let mut bk = Bookkeeper::new(alg.spec(), g.n_objects());
        let mut f = FidelityChecker::new(g, alg);

        let u = CellUpdate::new(5, 2, 11);
        bk.on_update(g.object_of_unchecked(u.addr), FlushCursor::START);
        f.apply(u);

        bk.begin_checkpoint();
        f.begin_checkpoint(&bk);
        // Concurrent update during the eager checkpoint: harmless, the
        // snapshot buffer was already taken.
        let u2 = CellUpdate::new(5, 2, 99);
        bk.on_update(g.object_of_unchecked(u2.addr), FlushCursor::START);
        f.apply(u2);

        f.complete_checkpoint(&bk);
        bk.finish_checkpoint();
        assert!(f.into_report().is_clean());
    }
}
