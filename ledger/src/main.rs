//! `ledger` — the performance ledger: one command that runs the four
//! benchmark workloads on the real engine, prints every end-to-end metric
//! by name with its unit and sample count, verifies every recovered state
//! against an in-memory oracle, and (with `--trace 1`) prints the
//! per-layer metrics and writes a span file. See `README.md`.

mod catalog;
mod compare;
mod cycles;
mod json;
mod oracle;
mod probes;
mod run;
mod spans;
mod workloads;

use run::Metric;
use spans::Spans;
use std::fmt::Write as _;
use std::io::Write as _;
use std::process::ExitCode;
use workloads::Workload;

/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: u64 = 25;

const USAGE: &str = "usage:
  ledger --workload <naive-64k|cou-64k|redo-log-2shard|capacity-256k|all>
         [--seed <u64>] [--seconds <n>] [--trace <0|1>] [--out <file>]
  ledger --compare <a.json> <b.json>

--trace 0 (default) prints the end-to-end metrics; --trace 1 re-runs the
workload with the span recorder on, runs the layer probes, prints the
per-layer metrics and writes .ledger/spans-<workload>.json. The last line
of standard output is one JSON object. --out appends the result, tagged
with workload, seed and trace, as one line to <file>; --compare checks
two such files against the bounds in ./BENCHMARK.json.";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: Option<String>,
}

enum Command {
    Run(Args),
    Compare(String, String),
}

fn parse_args(argv: &[String]) -> Result<Command, String> {
    let mut workload = None;
    let mut args = Args {
        workload: String::new(),
        seed: 2009,
        seconds: DEFAULT_SECONDS,
        trace: false,
        out: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--compare" => return Ok(Command::Compare(value()?, value()?)),
            "--workload" => workload = Some(value()?),
            "--seed" => {
                let v = value()?;
                args.seed = v
                    .parse()
                    .map_err(|_| format!("--seed: {v:?} is not a u64"))?;
            }
            "--seconds" => {
                let v = value()?;
                args.seconds = match v.parse() {
                    Ok(s) if (1..=600).contains(&s) => s,
                    _ => return Err(format!("--seconds: {v:?} is not a whole number in 1..=600")),
                };
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, got {v:?}")),
                };
            }
            "--out" => args.out = Some(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(Command::Run(args))
}

/// The result object of the benchmark contract: exactly the keys
/// `correct`, `attempted`, `failed` and `metrics`.
fn result_json(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        failed == 0
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}{}: {{\"value\": {}, \"unit\": {}}}",
            json::quote(m.name),
            m.value,
            json::quote(m.unit)
        );
    }
    out.push_str("}}");
    out
}

/// Run one workload and print its metrics; returns whether every
/// operation succeeded.
fn run_workload(w: &'static Workload, args: &Args) -> Result<bool, String> {
    let spans = Spans::new(w.name, args.trace);
    let m = run::measure(w, args.seed, args.seconds, &spans)?;

    let requested = w.writer;
    println!(
        "{}  seed {}  {} s  {}  ({} shard{}, {} ticks, {} checkpoints, {} threads available)",
        w.name,
        args.seed,
        args.seconds,
        w.algorithm.name(),
        w.shards,
        if w.shards == 1 { "" } else { "s" },
        m.report.ticks,
        m.report.world.checkpoints_completed,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    println!("  why: {}", w.why);
    match m.detail.writer_fallback_from {
        None => println!(
            "  writer backend: requested {requested}, effective {}",
            m.detail.writer_backend
        ),
        Some(from) => println!(
            "  writer backend: requested {from}, effective {} — THE PROBE FELL BACK, \
             this run did not measure {from}",
            m.detail.writer_backend
        ),
    }

    let end_to_end = m.end_to_end();
    catalog::check(&end_to_end, &catalog::END_TO_END)?;
    let metrics = if args.trace {
        let layers = probes::layer_metrics(&m, &spans)?;
        catalog::check(&layers, &catalog::PER_LAYER)?;
        std::fs::create_dir_all(run::scratch_root()).map_err(|e| e.to_string())?;
        let path = run::scratch_root().join(format!("spans-{}.json", w.name));
        spans
            .write(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("  {} spans written to {}", spans.len(), path.display());
        // The traced run's own end-to-end numbers, for comparison with an
        // untraced run of the same seed.
        for e in &end_to_end {
            println!(
                "  (traced) {:<34} {:>14.4} {:<6} n={}",
                e.name, e.value, e.unit, e.n
            );
        }
        layers
    } else {
        end_to_end
    };
    for x in &metrics {
        println!("  {:<43} {:>14.4} {:<6} n={}", x.name, x.value, x.unit, x.n);
    }
    println!("  ops_attempted {}  ops_failed {}", m.attempted, m.failed);
    for f in &m.failures {
        println!("  FAILED: {f}");
    }

    let line = result_json(m.attempted, m.failed, &metrics);
    if let Some(path) = &args.out {
        let tagged = format!(
            "{{\"workload\": {}, \"seed\": {}, \"trace\": {}, {}\n",
            json::quote(w.name),
            args.seed,
            u8::from(args.trace),
            &line[1..]
        );
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| f.write_all(tagged.as_bytes()))
            .map_err(|e| format!("appending to {path}: {e}"))?;
    }
    println!("{line}");
    Ok(m.failed == 0)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let command = match parse_args(&argv) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("ledger: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let args = match command {
        Command::Compare(a, b) => {
            return match compare::compare_files(&a, &b) {
                Ok(true) => ExitCode::SUCCESS,
                Ok(false) => ExitCode::FAILURE,
                Err(e) => {
                    eprintln!("ledger: {e}");
                    ExitCode::from(2)
                }
            }
        }
        Command::Run(args) => args,
    };

    // `RealConfig::new` reads nine MMOC_* variables; a benchmark whose
    // configuration can be changed from outside measures nothing.
    let stray: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("MMOC_"))
        .collect();
    if !stray.is_empty() {
        eprintln!(
            "ledger: refusing to start with {} set: the benchmark pins its configuration",
            stray.join(", ")
        );
        return ExitCode::from(2);
    }

    let selected: Vec<&'static Workload> = if args.workload == "all" {
        workloads::ALL.iter().collect()
    } else {
        match workloads::by_name(&args.workload) {
            Some(w) => vec![w],
            None => {
                eprintln!("ledger: unknown workload {:?}\n{USAGE}", args.workload);
                return ExitCode::from(2);
            }
        }
    };
    let mut all_ok = true;
    for w in selected {
        match run_workload(w, &args) {
            Ok(ok) => all_ok &= ok,
            Err(e) => {
                eprintln!("ledger: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
