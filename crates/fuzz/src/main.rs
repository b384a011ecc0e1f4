//! `mmoc-fuzz` — the fault-injection fuzzer CLI.
//!
//! ```text
//! mmoc-fuzz [--runs N] [--seed S] [--log FILE]   seeded corpus run
//! mmoc-fuzz --repro SEED:ID                      re-run one derived case
//! mmoc-fuzz --case SPEC                          run one explicit case
//! mmoc-fuzz --list-points                        registry + reach counts
//! ```
//!
//! The corpus defaults to 200 runs from seed 1. Exit codes: 0 all cases
//! consistent, every crash site fired and every transient site injected;
//! 1 divergence or coverage hole; 2 usage error.

use std::io::Write as _;
use std::process::ExitCode;

use mmoc_core::WriterBackend;
use mmoc_fuzz::oracle::{track, tracking_sweep};
use mmoc_fuzz::{named_seeds, run_case, shrink, FuzzCase};
use mmoc_storage::inject::{ring_available, Phase, Site};

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

    // Per site: a crash site counts when its plan fired, a transient
    // site when its schedule injected at least once; `ring_covered`
    // counts only cases whose io_uring ring actually ran.
    let mut covered = vec![false; Site::all().count()];
    let mut ring_covered = vec![false; Site::all().count()];
    let mut reach_totals = vec![0_u64; Site::all().count()];
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
        let ring = case.backend == WriterBackend::IoUring;
        let native_ring = ring && !out.fell_back;
        ring_requested += u64::from(ring);
        ring_native += u64::from(native_ring);
        for (i, n) in out.counts.iter().enumerate() {
            reach_totals[i] += n;
        }
        let fired = out.fired.then_some(case.plan.site);
        let injected = case
            .fault
            .filter(|_| out.faults_injected > 0)
            .map(|f| f.site);
        fired_cases += u64::from(out.fired);
        for site in fired.into_iter().chain(injected) {
            covered[site as usize] = true;
            ring_covered[site as usize] |= native_ring;
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
    println!(
        "site coverage (crash sites must fire, transient sites must inject; \
         submit-phase sites also on a running io_uring ring):"
    );
    let ring_excused = !ring_available() || (ring_requested > 0 && ring_native == 0);
    let mut holes = Vec::new();
    for s in Site::all() {
        let i = s as usize;
        let crash_site = s.accepts_crash();
        let ring_site = s.reach().backends == [WriterBackend::IoUring];
        // Both data paths stage through the same submission phase, so the
        // ring must reach every submit-phase site too.
        let ring_hole = s.phase() == Phase::Submit && !ring_covered[i] && !ring_excused;
        let mark = if !covered[i] && ring_site && ring_excused {
            "excused (io_uring unavailable)"
        } else if !covered[i] || ring_hole {
            holes.push(s.name());
            match (covered[i], crash_site) {
                (true, _) => "NEVER ON THE RING",
                (false, true) => "NEVER FIRED",
                (false, false) => "NEVER INJECTED",
            }
        } else if crash_site {
            "fired"
        } else {
            "injected"
        };
        println!("  {:<24} reaches {:>8}  {mark}", s.name(), reach_totals[i]);
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
            "\ncoverage hole: site(s) never fired or injected, or never on a running ring: {}",
            holes.join(", ")
        );
        return ExitCode::from(1);
    }
    println!("all cases consistent; every reachable site fired or injected");
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

/// `--list-points`: print the registry, with reach counts from the
/// tracking sweep. Each sweep run is recovered and judged against the
/// oracle like a corpus case.
fn list_points() -> ExitCode {
    let mut totals = vec![0_u64; Site::all().count()];
    for case in tracking_sweep() {
        let out = track(&case);
        if let Some(why) = out.failure {
            eprintln!("mmoc-fuzz: tracking sweep failed: {why}");
            eprintln!("  case: {}", case.spec());
            return ExitCode::from(2);
        }
        for (total, n) in totals.iter_mut().zip(out.counts) {
            *total += n;
        }
    }
    println!("{:<24} {:>8}  description", "site", "reaches");
    for phase in [Phase::Submit, Phase::Complete, Phase::Recovery] {
        println!("[{} phase]", phase.label());
        for s in Site::all().filter(|s| s.phase() == phase) {
            let (reaches, name) = (totals[s as usize], s.name());
            println!("  {name:<22} {reaches:>8}  {}", s.describe());
            println!("  {:<31}  effects: {}", "", s.effects().join(", "));
            println!("  {:<31}  reach: {}", "", s.reach());
        }
    }
    if !ring_available() {
        println!("(io_uring unavailable on this kernel: uring-* reaches are 0 by fallback)");
    }
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
