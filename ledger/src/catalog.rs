//! The metric catalogue: every metric the ledger prints, by name and
//! unit, in print order. `BENCHMARK.json` carries the same two lists (a
//! test holds them together), and every run checks what it measured
//! against them, so the contract's "every end-to-end metric / every
//! per-layer metric" cannot drift silently.

use crate::run::Metric;

/// `(name, unit)` of the end-to-end metrics (`--trace 0`).
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("tick_peak_us", "us"),
    ("checkpoint_overhead_ms", "ms"),
    ("checkpoint_ms", "ms"),
    ("checkpoint_mb", "MB"),
    ("recovery_ms", "ms"),
    ("tick_rate_hz", "1/s"),
];

/// `(name, unit)` of the per-layer metrics (`--trace 1`).
pub const PER_LAYER: [(&str, &str); 57] = [
    ("workload.record_s", "s"),
    ("workload.lateness_max_ms", "ms"),
    ("workload.distinct_objects_per_tick", "count"),
    ("core.bookkeeper.on_update_ns", "ns"),
    ("core.bookkeeper.begin_checkpoint_us", "us"),
    ("core.bookkeeper.bit_ops_per_update", "count"),
    ("core.table.apply_ns", "ns"),
    ("core.driver.ticks_per_checkpoint", "count"),
    ("core.driver.tick_overhead_mean_us", "us"),
    ("core.driver.checkpoint_ms.p90", "ms"),
    ("core.driver.start_ms", "ms"),
    ("core.driver.drain_ms", "ms"),
    ("core.driver.tick_rate_mean_hz", "1/s"),
    ("storage.shared.copy_out_ms", "ms"),
    ("storage.shared.cou_save_ns", "ns"),
    ("storage.shared.write_cell_ns", "ns"),
    ("storage.files.write_ms.file0", "ms"),
    ("storage.files.write_ms.file1", "ms"),
    ("storage.files.write_calls_per_checkpoint", "count"),
    ("storage.files.sync_ms", "ms"),
    ("storage.files.commit_ms", "ms"),
    ("storage.files.invalidate_ms", "ms"),
    ("storage.files.read_full_ms", "ms"),
    ("storage.log_store.append_partial_ms", "ms"),
    ("storage.log_store.append_full_ms", "ms"),
    ("storage.log_store.sync_ms", "ms"),
    ("storage.log_store.reconstruct_ms", "ms"),
    ("storage.log_store.reconstruct_bytes_read", "MB"),
    ("storage.log_store.disk_bytes_per_state_byte", "ratio"),
    ("storage.writer.fsyncs_per_checkpoint", "count"),
    ("storage.writer.avg_batch_jobs", "count"),
    ("storage.writer.avg_sqe_batch", "count"),
    ("storage.writer.retries", "count"),
    ("storage.writer.degraded_jobs", "count"),
    ("storage.writer.fallback", "count"),
    ("storage.writer.busy_pct", "%"),
    ("storage.writer.residual_ms", "ms"),
    ("storage.recovery.restore_ms", "ms"),
    ("storage.recovery.replay_ms", "ms"),
    ("storage.recovery.scan_ms", "ms"),
    ("storage.recovery.replay_ns_per_update", "ns"),
    ("storage.replica.publish_ms", "ms"),
    ("storage.replica.fetch_ms", "ms"),
    ("storage.replica.recovery_ms", "ms"),
    ("storage.sharded.recovery_parallel_speedup", "ratio"),
    ("storage.sharded.update_imbalance", "ratio"),
    ("ceiling.mem_gbps", "GB/s"),
    ("ceiling.disk_mbps", "MB/s"),
    ("sim.checkpoint_ms_predicted", "ms"),
    ("sim.tick_peak_us_predicted", "us"),
    ("sim.recovery_ms_predicted", "ms"),
    ("model_ratio.checkpoint", "ratio"),
    ("model_ratio.tick_peak", "ratio"),
    ("model_ratio.recovery", "ratio"),
    ("process.cpu_ms_per_tick", "ms"),
    ("process.peak_rss_mb", "MB"),
    ("trace.overhead_pct", "%"),
];

/// `Err` unless `metrics` is exactly `catalogue`, name and unit, in
/// order, with finite values.
pub fn check(metrics: &[Metric], catalogue: &[(&str, &str)]) -> Result<(), String> {
    let measured: Vec<(&str, &str)> = metrics.iter().map(|m| (m.name, m.unit)).collect();
    if measured != catalogue {
        return Err(format!(
            "measured metrics differ from the catalogue:\n  measured  {measured:?}\n  catalogue {catalogue:?}"
        ));
    }
    match metrics.iter().find(|m| !m.value.is_finite()) {
        Some(m) => Err(format!("{} is not a finite number: {}", m.name, m.value)),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Value};
    use crate::workloads;

    /// `BENCHMARK.json` sits beside the package directory, in the
    /// repository and in every checkout the benchmark runs from.
    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        parse(&std::fs::read_to_string(path).expect("BENCHMARK.json is readable")).unwrap()
    }

    fn pairs<'a>(doc: &'a Value, list: &str, second: &str) -> Vec<(&'a str, &'a str)> {
        doc.get(list)
            .and_then(Value::as_array)
            .unwrap_or_else(|| panic!("{list} is a list"))
            .iter()
            .map(|e| {
                let field = |k: &str| e.get(k).and_then(Value::as_str).expect("string field");
                (field("name"), field(second))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_what_the_ledger_prints() {
        let doc = benchmark_json();
        assert_eq!(pairs(&doc, "end_to_end", "unit"), END_TO_END);
        assert_eq!(pairs(&doc, "per_layer", "unit"), PER_LAYER);
        let expected: Vec<(&str, &str)> = workloads::ALL.iter().map(|w| (w.name, w.why)).collect();
        assert_eq!(pairs(&doc, "workloads", "why"), expected);
        assert_eq!(
            doc.get("run_seconds").and_then(Value::as_f64),
            Some(crate::DEFAULT_SECONDS as f64)
        );
    }

    #[test]
    fn names_and_units_stay_inside_the_contracts_limits() {
        let name_ok = |n: &str| {
            n.len() <= 64
                && n.starts_with(|c: char| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |u: &str| {
            (1..=16).contains(&u.len())
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(name_ok(name), "{name}");
            assert!(unit_ok(unit), "{name}: {unit}");
            assert!(seen.insert(name), "{name} is used twice");
        }
        for w in &workloads::ALL {
            assert!(name_ok(w.name) && seen.insert(&w.name), "{}", w.name);
        }
    }

    #[test]
    fn check_rejects_a_missing_or_non_finite_metric() {
        let all: Vec<Metric> = END_TO_END
            .iter()
            .map(|&(name, unit)| Metric::new(name, unit, 1.0, 1))
            .collect();
        assert!(check(&all, &END_TO_END).is_ok());
        assert!(check(&all[1..], &END_TO_END).is_err());
        let mut bad = all.clone();
        bad[3].value = f64::NAN;
        assert!(check(&bad, &END_TO_END)
            .unwrap_err()
            .contains("checkpoint_ms"));
    }
}
