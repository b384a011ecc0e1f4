//! Fault-injection fuzzer for the real storage engine.
//!
//! The storage crate instruments every phase boundary of its write path
//! with a named [`mmoc_storage::inject::Site`]. This crate drives
//! seeded, deterministic runs that arm one crash site per case (plus, in a
//! third of cases, a transient-fault schedule), simulate the
//! crash (freeze the disk, finish the run), then perform *real* recovery
//! from the frozen directory and compare the recovered state against an
//! in-memory oracle replay of the full trace. Any divergence is a
//! durability bug.
//!
//! Determinism contract: a case is a pure function of `(seed, id)` —
//! [`FuzzCase::derive`] — so `mmoc-fuzz --repro <seed>:<id>` rebuilds the
//! exact configuration bit-for-bit. The *verdict* (recovered state
//! matches the oracle) is schedule-independent: wall-clock batching may
//! move which batch a window-dependent point fires in, but recovery from
//! any crash placement must match the oracle, so the assertion holds
//! either way.

pub mod case;
pub mod corpus;
pub mod oracle;
pub mod shrink;

pub use case::FuzzCase;
pub use corpus::named_seeds;
pub use oracle::{run_case, CaseOutcome};
pub use shrink::shrink;
