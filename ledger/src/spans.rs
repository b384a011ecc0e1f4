//! The span recorder of the traced pass.
//!
//! Spans are recorded from the benchmark's own files, around each call
//! into a layer's public functions: set-up, `execute()`, every tick the
//! engine pulls from the benchmark's trace source, each recovery and each
//! probe. They stay in memory and are written once, at exit. A disabled
//! recorder (the untraced pass) reads no clock and takes no lock.

use crate::json::quote;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// One closed span. `parent` indexes the span that caused it.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// In-memory span store for one workload's traced run.
#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    workload: &'static str,
    base: Instant,
    spans: Mutex<Vec<Span>>,
}

/// An open span; closes when dropped. `id` parents child spans.
#[derive(Debug)]
pub struct Open<'a> {
    recorder: &'a Spans,
    id: Option<usize>,
}

impl Open<'_> {
    /// This span's id, to pass as a child's `parent` (`None` when the
    /// recorder is off).
    pub fn id(&self) -> Option<usize> {
        self.id
    }
}

impl Drop for Open<'_> {
    fn drop(&mut self) {
        if let Some(id) = self.id {
            let end = self.recorder.now_ns();
            self.recorder.lock()[id].end_ns = end;
        }
    }
}

impl Spans {
    pub fn new(workload: &'static str, enabled: bool) -> Self {
        Spans {
            enabled,
            workload,
            base: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        // A poisoned lock means a recording thread panicked; the spans
        // pushed so far are plain data and stay valid.
        self.spans.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Open a span under `parent`; it closes when the guard drops.
    pub fn enter(&self, name: &'static str, parent: Option<usize>) -> Open<'_> {
        if !self.enabled {
            return Open {
                recorder: self,
                id: None,
            };
        }
        let start_ns = self.now_ns();
        let mut spans = self.lock();
        spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        Open {
            recorder: self,
            id: Some(spans.len() - 1),
        }
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Measured cost of recording one span, in seconds: a calibration
    /// loop over a scratch recorder, so the run's own spans are untouched.
    pub fn cost_per_span_s() -> f64 {
        const N: usize = 200_000;
        let scratch = Spans::new("calibration", true);
        let t0 = Instant::now();
        for _ in 0..N {
            drop(scratch.enter("calibration", None));
        }
        t0.elapsed().as_secs_f64() / N as f64
    }

    /// Per-name totals: `(name, count, total_s, self_s)` where self time
    /// is a span's duration minus what its direct children cover.
    pub fn summary(&self) -> Vec<(&'static str, usize, f64, f64)> {
        let spans = self.lock();
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut rows: Vec<(&'static str, usize, f64, f64)> = Vec::new();
        for (i, s) in spans.iter().enumerate() {
            let total = (s.end_ns - s.start_ns) as f64 * 1e-9;
            let own = (s.end_ns - s.start_ns).saturating_sub(child_ns[i]) as f64 * 1e-9;
            match rows.iter_mut().find(|r| r.0 == s.name) {
                Some(r) => {
                    r.1 += 1;
                    r.2 += total;
                    r.3 += own;
                }
                None => rows.push((s.name, 1, total, own)),
            }
        }
        rows
    }

    /// Write every span (and the per-name summary) as one JSON document.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"workload\": {}, \"summary\": [",
            quote(self.workload)
        );
        for (i, (name, count, total_s, self_s)) in self.summary().into_iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}{{\"name\": {}, \"count\": {count}, \"total_s\": {total_s}, \"self_s\": {self_s}}}",
                quote(name)
            );
        }
        out.push_str("],\n\"spans\": [\n");
        let spans = self.lock();
        for (id, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let sep = if id + 1 == spans.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "{{\"id\": {id}, \"parent\": {parent}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}}}{sep}",
                quote(s.name),
                s.start_ns,
                s.end_ns
            );
        }
        out.push_str("]}\n");
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Value};

    #[test]
    fn spans_nest_and_summarise_self_time() {
        let rec = Spans::new("w", true);
        {
            let outer = rec.enter("outer", None);
            for _ in 0..3 {
                let _inner = rec.enter("inner", outer.id());
                std::hint::black_box((0..1_000).sum::<u64>());
            }
        }
        assert_eq!(rec.len(), 4);
        let summary = rec.summary();
        let outer = summary.iter().find(|r| r.0 == "outer").unwrap();
        let inner = summary.iter().find(|r| r.0 == "inner").unwrap();
        assert_eq!((outer.1, inner.1), (1, 3));
        assert!(outer.2 >= inner.2, "children lie inside the parent");
        assert!(
            (outer.3 - (outer.2 - inner.2)).abs() < 1e-9,
            "self = total − children"
        );
    }

    #[test]
    fn a_disabled_recorder_records_nothing() {
        let rec = Spans::new("w", false);
        let g = rec.enter("x", None);
        assert_eq!(g.id(), None);
        drop(g);
        assert_eq!(rec.len(), 0);
    }

    #[test]
    fn the_written_file_is_valid_json() {
        let rec = Spans::new("w", true);
        {
            let a = rec.enter("a", None);
            let _b = rec.enter("b", a.id());
        }
        let dir = std::env::temp_dir().join(format!("ledger-spans-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("spans-w.json");
        rec.write(&path).unwrap();
        let doc = parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(doc.get("workload"), Some(&Value::Str("w".into())));
        let spans = doc.get("spans").and_then(Value::as_array).unwrap();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].get("parent").and_then(Value::as_f64), Some(0.0));
    }
}
