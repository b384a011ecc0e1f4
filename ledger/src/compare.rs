//! `ledger --compare a.json b.json`: check two result sets of the same
//! code (or of a parent and a change) against the bounds `BENCHMARK.json`
//! fixes, per end-to-end metric × workload.
//!
//! A result set is what `--out` appends: one JSON object per line, tagged
//! with its workload. Only untraced (`"trace": 0`) lines are compared.

use crate::cycles::median;
use crate::json::{self, Value};

/// One `end_to_end` entry of `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
struct Bounded {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

/// Values per `(workload, metric)`, in file order.
type ResultSet = Vec<((String, String), Vec<f64>)>;

fn read_bounds(text: &str) -> Result<(Vec<String>, Vec<Bounded>), String> {
    let doc = json::parse(text)?;
    let list = |key: &str| {
        doc.get(key)
            .and_then(Value::as_array)
            .ok_or_else(|| format!("BENCHMARK.json has no {key} list"))
    };
    let workloads = list("workloads")?
        .iter()
        .filter_map(|w| w.get("name").and_then(Value::as_str).map(String::from))
        .collect();
    let metrics = list("end_to_end")?
        .iter()
        .map(|m| {
            Some(Bounded {
                name: m.get("name")?.as_str()?.to_string(),
                lower_is_better: m.get("better")?.as_str()? == "lower",
                bound: m.get("bound")?.as_f64()?,
            })
        })
        .collect::<Option<Vec<_>>>()
        .ok_or("BENCHMARK.json: an end_to_end entry lacks name, better or bound")?;
    Ok((workloads, metrics))
}

fn read_set(text: &str) -> Result<ResultSet, String> {
    let mut set: ResultSet = Vec::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let doc = json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        if doc.get("trace").and_then(Value::as_f64) != Some(0.0) {
            continue;
        }
        let workload = doc
            .get("workload")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("line {}: no workload tag (written without --out?)", i + 1))?;
        let metrics = doc
            .get("metrics")
            .and_then(Value::as_object)
            .ok_or_else(|| format!("line {}: no metrics", i + 1))?;
        for (name, m) in metrics {
            let value = m
                .get("value")
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("line {}: {name} has no value", i + 1))?;
            let key = (workload.to_string(), name.clone());
            match set.iter_mut().find(|(k, _)| *k == key) {
                Some((_, values)) => values.push(value),
                None => set.push((key, vec![value])),
            }
        }
    }
    Ok(set)
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method), which is what the driver uses.
fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let len = v.len();
    let cut = |i: usize| {
        let m = len + 1;
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Interquartile range as a share of the median; 0 for fewer than two
/// values (no spread can be seen).
fn spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values).abs()
}

/// How much worse `b`'s median is than `a`'s, as a share of `a`'s
/// (negative: better).
fn worsening(a: &[f64], b: &[f64], lower_is_better: bool) -> f64 {
    let (ma, mb) = (median(a), median(b));
    if lower_is_better {
        (mb - ma) / ma.abs()
    } else {
        (ma - mb) / ma.abs()
    }
}

/// Compare two result sets; prints one row per metric × workload and
/// returns whether every pairing is within its bound.
pub fn compare_files(a_path: &str, b_path: &str) -> Result<bool, String> {
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    let (workloads, metrics) = read_bounds(&read("BENCHMARK.json")?)?;
    let a = read_set(&read(a_path)?).map_err(|e| format!("{a_path}: {e}"))?;
    let b = read_set(&read(b_path)?).map_err(|e| format!("{b_path}: {e}"))?;
    let values = |set: &'_ ResultSet, w: &str, m: &str| -> Option<Vec<f64>> {
        set.iter()
            .find(|((sw, sm), _)| sw == w && sm == m)
            .map(|(_, v)| v.clone())
    };

    println!(
        "{:<16} {:<23} {:>3} {:>12} {:>12} {:>8} {:>8} {:>8} {:>6} {:>9}  verdict",
        "workload",
        "metric",
        "n",
        "median a",
        "median b",
        "gap",
        "iqr a",
        "iqr b",
        "bound",
        "calibrate"
    );
    let mut all_ok = true;
    for w in &workloads {
        for m in &metrics {
            let (Some(va), Some(vb)) = (values(&a, w, &m.name), values(&b, w, &m.name)) else {
                println!("{w:<16} {:<23} missing from one of the sets", m.name);
                all_ok = false;
                continue;
            };
            let gap = worsening(&va, &vb, m.lower_is_better);
            let (sa, sb) = (spread(&va), spread(&vb));
            // The set-up metric's spread is not gated, only its medians.
            let noisy = m.name != "setup_s" && sa.max(sb) > m.bound;
            let verdict = if gap > m.bound {
                "REGRESSION"
            } else if noisy {
                "NOISY"
            } else {
                "ok"
            };
            all_ok &= verdict == "ok";
            // The calibration rule for a bound: 5 % at least, 2.5 × the
            // gap two sets of the same code showed, and no less than
            // either set's own spread.
            let calibrated = 0.05f64.max(2.5 * gap.abs()).max(sa).max(sb);
            println!(
                "{w:<16} {:<23} {:>3} {:>12.4} {:>12.4} {:>+7.2}% {:>7.2}% {:>7.2}% {:>5.1}% {:>8.1}%  {verdict}",
                m.name,
                va.len().min(vb.len()),
                median(&va),
                median(&vb),
                gap * 100.0,
                sa * 100.0,
                sb * 100.0,
                m.bound * 100.0,
                calibrated * 100.0,
            );
        }
    }
    Ok(all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 4.0, 2.0, 8.0]), (1.5, 12.0));
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn worsening_respects_the_direction() {
        assert!((worsening(&[100.0], &[110.0], true) - 0.10).abs() < 1e-12);
        assert!((worsening(&[100.0], &[110.0], false) + 0.10).abs() < 1e-12);
        assert!((worsening(&[100.0], &[90.0], false) - 0.10).abs() < 1e-12);
    }

    #[test]
    fn result_sets_group_untraced_lines_by_workload_and_metric() {
        let text = r#"{"workload": "w", "seed": 1, "trace": 0, "correct": true, "attempted": 2, "failed": 0, "metrics": {"x_ms": {"value": 1.5, "unit": "ms"}}}
{"workload": "w", "seed": 2, "trace": 0, "correct": true, "attempted": 2, "failed": 0, "metrics": {"x_ms": {"value": 2.5, "unit": "ms"}}}
{"workload": "w", "seed": 2, "trace": 1, "correct": true, "attempted": 2, "failed": 0, "metrics": {"layer_ns": {"value": 9, "unit": "ns"}}}
"#;
        let set = read_set(text).unwrap();
        assert_eq!(
            set,
            vec![(("w".to_string(), "x_ms".to_string()), vec![1.5, 2.5])]
        );
    }

    #[test]
    fn bounds_are_read_from_the_benchmark_file() {
        let text = r#"{"workloads": [{"name": "w", "why": "y"}],
            "end_to_end": [{"name": "x_ms", "unit": "ms", "better": "lower", "bound": 0.05},
                           {"name": "r_hz", "unit": "1/s", "better": "higher", "bound": 0.1}]}"#;
        let (workloads, metrics) = read_bounds(text).unwrap();
        assert_eq!(workloads, ["w"]);
        assert_eq!(metrics.len(), 2);
        assert!(metrics[0].lower_is_better && !metrics[1].lower_is_better);
        assert_eq!(metrics[1].bound, 0.1);
    }
}
