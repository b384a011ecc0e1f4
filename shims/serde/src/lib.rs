//! Empty stub: kept only so `ledger/Cargo.lock` stays unchanged until the benchmark PR (ROADMAP item 1) deletes this crate.
