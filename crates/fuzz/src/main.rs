//! `mmoc-fuzz` — the crash-point lattice fuzzer CLI.
//!
//! ```text
//! mmoc-fuzz [--runs N] [--seed S] [--log FILE]   seeded corpus run
//! mmoc-fuzz --repro SEED:ID                      re-run one derived case
//! mmoc-fuzz --case SPEC                          run one explicit case
//! mmoc-fuzz --list-points                        registry + reach counts
//! ```
//!
//! The corpus defaults to 200 runs from seed 1. Exit codes: 0 all cases
//! consistent and every reachable point fired; 1 divergence or coverage
//! hole; 2 usage error.

use std::io::Write as _;
use std::process::ExitCode;

use mmoc_fuzz::{named_seeds, run_case, shrink, FuzzCase};
use mmoc_storage::crash::{ring_available, CrashPhase, CrashPoint, ALL_POINTS, N_POINTS};

fn usage() -> String {
    "usage: mmoc-fuzz [--runs N] [--seed S] [--log FILE] | \
     --repro SEED:ID | --case SPEC | --list-points"
        .to_string()
}

struct Options {
    runs: u64,
    seed: u64,
    log: Option<String>,
    mode: Mode,
}

enum Mode {
    Corpus,
    Repro(u64, u64),
    Case(Box<FuzzCase>),
    ListPoints,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        runs: 200,
        seed: 1,
        log: None,
        mode: Mode::Corpus,
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let value = |args: &[String], i: usize, flag: &str| -> Result<String, String> {
        args.get(i + 1)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--runs" => {
                let v = value(&args, i, "--runs")?;
                opts.runs = v.parse().map_err(|_| format!("bad --runs value {v:?}"))?;
                i += 2;
            }
            "--seed" => {
                let v = value(&args, i, "--seed")?;
                opts.seed = v.parse().map_err(|_| format!("bad --seed value {v:?}"))?;
                i += 2;
            }
            "--log" => {
                opts.log = Some(value(&args, i, "--log")?);
                i += 2;
            }
            "--repro" => {
                let v = value(&args, i, "--repro")?;
                let (s, c) = v
                    .split_once(':')
                    .ok_or_else(|| format!("--repro wants SEED:ID, got {v:?}"))?;
                let s = s.parse().map_err(|_| format!("bad repro seed {s:?}"))?;
                let c = c.parse().map_err(|_| format!("bad repro case id {c:?}"))?;
                opts.mode = Mode::Repro(s, c);
                i += 2;
            }
            "--case" => {
                let v = value(&args, i, "--case")?;
                opts.mode = Mode::Case(Box::new(FuzzCase::parse(&v)?));
                i += 2;
            }
            "--list-points" => {
                opts.mode = Mode::ListPoints;
                i += 1;
            }
            "--help" | "-h" => return Err(usage()),
            other => return Err(format!("unknown argument {other:?}\n{}", usage())),
        }
    }
    Ok(opts)
}

/// Sink for the per-case log file (`--log`).
struct CaseLog(Option<std::io::BufWriter<std::fs::File>>);

impl CaseLog {
    fn open(path: Option<&str>) -> Result<CaseLog, String> {
        match path {
            None => Ok(CaseLog(None)),
            Some(p) => std::fs::File::create(p)
                .map(|f| CaseLog(Some(std::io::BufWriter::new(f))))
                .map_err(|e| format!("cannot open log file {p:?}: {e}")),
        }
    }
    fn line(&mut self, origin: &str, case: &FuzzCase, status: &str) {
        if let Some(w) = &mut self.0 {
            let _ = writeln!(w, "{origin}\t{status}\t{}", case.spec());
        }
    }
}

fn run_corpus(opts: &Options) -> ExitCode {
    let mut log = match CaseLog::open(opts.log.as_deref()) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("mmoc-fuzz: {e}");
            return ExitCode::from(2);
        }
    };

    let mut fired_points = [false; N_POINTS];
    let mut reach_totals = [0_u64; N_POINTS];
    let mut ring_requested = 0_u64;
    let mut ring_native = 0_u64;
    let mut fired_cases = 0_u64;
    let mut faults_injected = 0_u64;
    let mut recoveries_retried = 0_u64;
    let mut failures: Vec<(String, FuzzCase)> = Vec::new();
    const MAX_FAILURES: usize = 10;

    // Named seeds first, then the derived stream.
    let seeds = named_seeds();
    let total = seeds.len() as u64 + opts.runs;
    let mut executed = 0_u64;
    let cases = seeds
        .into_iter()
        .map(|(name, c)| (name.to_string(), c))
        .chain((0..opts.runs).map(|id| {
            (
                format!("{}:{id}", opts.seed),
                FuzzCase::derive(opts.seed, id),
            )
        }));

    for (origin, case) in cases {
        let out = run_case(&case);
        executed += 1;
        if mmoc_fuzz::oracle::wants_ring(&case) {
            ring_requested += 1;
            if !out.fell_back {
                ring_native += 1;
            }
        }
        for (i, n) in out.counts.iter().enumerate() {
            reach_totals[i] += n;
        }
        if out.fired {
            fired_cases += 1;
            fired_points[case.plan.point as usize] = true;
        }
        faults_injected += out.faults_injected;
        if out.recovery_retried {
            recoveries_retried += 1;
        }
        let status = match (&out.failure, out.fired) {
            (Some(_), _) => "FAIL",
            (None, true) if out.recovery_retried => "recrashed",
            (None, true) => "fired",
            (None, false) if out.fell_back => "fallback",
            (None, false) => "clean",
        };
        log.line(&origin, &case, status);
        if let Some(why) = out.failure {
            eprintln!("FAIL [{origin}] {why}");
            eprintln!("  case: {}", case.spec());
            if let Some((_, id)) = origin.split_once(':') {
                eprintln!("  repro: mmoc-fuzz --repro {}:{id}", opts.seed);
            }
            let (small, spent) = shrink(&case);
            if small != case {
                eprintln!(
                    "  shrunk ({spent} runs): mmoc-fuzz --case '{}'",
                    small.spec()
                );
                log.line(&origin, &small, "SHRUNK");
            }
            failures.push((origin, case));
            if failures.len() >= MAX_FAILURES {
                eprintln!("stopping after {MAX_FAILURES} failures");
                break;
            }
        }
        if executed.is_multiple_of(100) {
            println!("... {executed}/{total} cases, {fired_cases} crashes fired");
        }
    }

    println!(
        "\n{executed} cases: {fired_cases} fired, {} diverged, \
         {faults_injected} transient faults injected, \
         {recoveries_retried} recoveries re-crashed and restarted",
        failures.len()
    );
    println!("lattice coverage (crashes fired per point):");
    let ring_excused = !ring_available() || (ring_requested > 0 && ring_native == 0);
    let mut holes = Vec::new();
    for p in ALL_POINTS {
        let i = p as usize;
        let is_ring_point = matches!(
            p,
            CrashPoint::UringWaveStaged | CrashPoint::UringWaveComplete
        );
        let mark = if fired_points[i] {
            "fired"
        } else if is_ring_point && ring_excused {
            "excused (io_uring unavailable)"
        } else {
            holes.push(p.name());
            "NEVER FIRED"
        };
        println!(
            "  {:<22} reaches {:>8}  {}",
            p.name(),
            reach_totals[i],
            mark
        );
    }

    if !failures.is_empty() {
        eprintln!(
            "\n{} case(s) diverged — the durability story has a hole",
            failures.len()
        );
        return ExitCode::from(1);
    }
    if !holes.is_empty() {
        eprintln!(
            "\ncoverage hole: point(s) never fired: {}",
            holes.join(", ")
        );
        return ExitCode::from(1);
    }
    println!("all cases consistent; every reachable crash point fired");
    ExitCode::SUCCESS
}

fn run_one(case: &FuzzCase, origin: &str) -> ExitCode {
    println!("case: {}", case.spec());
    let out = run_case(case);
    match out.failure {
        Some(why) => {
            eprintln!("FAIL [{origin}] {why}");
            let (small, spent) = shrink(case);
            if small != *case {
                eprintln!("shrunk ({spent} runs): mmoc-fuzz --case '{}'", small.spec());
            }
            ExitCode::from(1)
        }
        None => {
            let note = if out.fired {
                "crash fired; recovery matched the oracle"
            } else if out.fell_back {
                "backend fell back; clean run matched the oracle"
            } else {
                "plan did not fire; clean run matched the oracle"
            };
            println!("ok: {note}");
            ExitCode::SUCCESS
        }
    }
}

/// `--list-points`: print the registry, with reach counts from a small
/// tracking sweep across both disk organizations and all three backends.
fn list_points() -> ExitCode {
    use mmoc_core::{Algorithm, WriterBackend};
    let sweep = [
        (Algorithm::CopyOnUpdate, WriterBackend::ThreadPool, 1_u32, 0),
        (Algorithm::PartialRedo, WriterBackend::ThreadPool, 1, 0),
        (
            Algorithm::CopyOnUpdatePartialRedo,
            WriterBackend::AsyncBatched,
            1,
            0,
        ),
        (Algorithm::CopyOnUpdate, WriterBackend::AsyncBatched, 4, 2),
        (
            Algorithm::AtomicCopyDirtyObjects,
            WriterBackend::IoUring,
            4,
            0,
        ),
    ];
    let mut totals = [0_u64; N_POINTS];
    for (alg, backend, shards, replication) in sweep {
        let mut case = FuzzCase::derive(0, 0);
        case.algorithm = alg;
        case.backend = backend;
        case.shards = shards;
        case.pipeline_depth = 2;
        case.batch_window_us = 250;
        case.device_sync = shards > 1;
        case.coalesce = true;
        case.ticks = 12;
        case.updates_per_tick = 120;
        case.trace_seed = 7;
        case.replication = replication;
        case.fault = None;
        case.retry_max = 3;
        match mmoc_fuzz::oracle::tracking_run(&case) {
            Ok(counts) => {
                for (i, n) in counts.iter().enumerate() {
                    totals[i] += n;
                }
            }
            Err(e) => {
                eprintln!("mmoc-fuzz: tracking sweep failed: {e}");
                return ExitCode::from(2);
            }
        }
    }
    println!("{:<22} {:>8}  description", "point", "reaches");
    for phase in [
        CrashPhase::Submit,
        CrashPhase::Complete,
        CrashPhase::Recovery,
    ] {
        println!("[{} phase]", phase.label());
        for p in ALL_POINTS.into_iter().filter(|p| p.phase() == phase) {
            println!(
                "  {:<20} {:>8}  {}",
                p.name(),
                totals[p as usize],
                p.describe()
            );
            println!("  {:<20} {:>8}  compat: {}", "", "", p.compat());
        }
    }
    if !ring_available() {
        println!("(io_uring unavailable on this kernel: uring-* reaches are 0 by fallback)");
    }
    println!("(replica-tier reaches require mirrors: only sweeps with replication > 0 count them)");
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("mmoc-fuzz: {e}");
            return ExitCode::from(2);
        }
    };
    match &opts.mode {
        Mode::Corpus => run_corpus(&opts),
        Mode::Repro(seed, id) => {
            let case = FuzzCase::derive(*seed, *id);
            run_one(&case, &format!("{seed}:{id}"))
        }
        Mode::Case(case) => run_one(case, "case"),
        Mode::ListPoints => list_points(),
    }
}
