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
//! consistent, every crash site fired and every transient site injected
//! (or the reader closed stdout early, as `--list-points | head` does);
//! 1 divergence or coverage hole; 2 usage error.

use std::io::{self, Write};
use std::process::ExitCode;

use mmoc_fuzz::oracle::{track, tracking_sweep};
use mmoc_fuzz::{named_seeds, run_case, shrink, FuzzCase};
use mmoc_storage::inject::{Phase, Site};

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

fn run_corpus(opts: &Options, out: &mut impl Write) -> io::Result<ExitCode> {
    let mut log = match CaseLog::open(opts.log.as_deref()) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("mmoc-fuzz: {e}");
            return Ok(ExitCode::from(2));
        }
    };

    // Per site: a crash site counts when its plan fired, a transient
    // site when its schedule injected at least once.
    let mut covered = vec![false; Site::all().count()];
    let mut reach_totals = vec![0_u64; Site::all().count()];
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
        let outcome = run_case(&case);
        executed += 1;
        for (i, n) in outcome.counts.iter().enumerate() {
            reach_totals[i] += n;
        }
        let fired = outcome.fired.then_some(case.plan.site);
        let injected = case
            .fault
            .filter(|_| outcome.faults_injected > 0)
            .map(|f| f.site);
        fired_cases += u64::from(outcome.fired);
        for site in fired.into_iter().chain(injected) {
            covered[site as usize] = true;
        }
        faults_injected += outcome.faults_injected;
        if outcome.recovery_retried {
            recoveries_retried += 1;
        }
        let status = match (&outcome.failure, outcome.fired) {
            (Some(_), _) => "FAIL",
            (None, true) if outcome.recovery_retried => "recrashed",
            (None, true) => "fired",
            (None, false) => "clean",
        };
        log.line(&origin, &case, status);
        if let Some(why) = outcome.failure {
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
            writeln!(
                out,
                "... {executed}/{total} cases, {fired_cases} crashes fired"
            )?;
        }
    }

    writeln!(
        out,
        "\n{executed} cases: {fired_cases} fired, {} diverged, \
         {faults_injected} transient faults injected, \
         {recoveries_retried} recoveries re-crashed and restarted",
        failures.len()
    )?;
    writeln!(
        out,
        "site coverage (crash sites must fire, transient sites must inject):"
    )?;
    let mut holes = Vec::new();
    for s in Site::all() {
        let i = s as usize;
        let mark = match (covered[i], s.accepts_crash()) {
            (true, true) => "fired",
            (true, false) => "injected",
            (false, true) => "NEVER FIRED",
            (false, false) => "NEVER INJECTED",
        };
        if !covered[i] {
            holes.push(s.name());
        }
        writeln!(
            out,
            "  {:<24} reaches {:>8}  {mark}",
            s.name(),
            reach_totals[i]
        )?;
    }

    if !failures.is_empty() {
        eprintln!(
            "\n{} case(s) diverged — the durability story has a hole",
            failures.len()
        );
        return Ok(ExitCode::from(1));
    }
    if !holes.is_empty() {
        eprintln!(
            "\ncoverage hole: site(s) never fired or injected: {}",
            holes.join(", ")
        );
        return Ok(ExitCode::from(1));
    }
    writeln!(
        out,
        "all cases consistent; every reachable site fired or injected"
    )?;
    Ok(ExitCode::SUCCESS)
}

fn run_one(case: &FuzzCase, origin: &str, out: &mut impl Write) -> io::Result<ExitCode> {
    writeln!(out, "case: {}", case.spec())?;
    let outcome = run_case(case);
    if let Some(why) = outcome.failure {
        eprintln!("FAIL [{origin}] {why}");
        let (small, spent) = shrink(case);
        if small != *case {
            eprintln!("shrunk ({spent} runs): mmoc-fuzz --case '{}'", small.spec());
        }
        return Ok(ExitCode::from(1));
    }
    let note = if outcome.fired {
        "crash fired; recovery matched the oracle"
    } else {
        "plan did not fire; clean run matched the oracle"
    };
    writeln!(out, "ok: {note}")?;
    Ok(ExitCode::SUCCESS)
}

/// `--list-points`: print the registry, with reach counts from the
/// tracking sweep. Each sweep run is recovered and judged against the
/// oracle like a corpus case.
fn list_points(out: &mut impl Write) -> io::Result<ExitCode> {
    let mut totals = vec![0_u64; Site::all().count()];
    for case in tracking_sweep() {
        let outcome = track(&case);
        if let Some(why) = outcome.failure {
            eprintln!("mmoc-fuzz: tracking sweep failed: {why}");
            eprintln!("  case: {}", case.spec());
            return Ok(ExitCode::from(2));
        }
        for (total, n) in totals.iter_mut().zip(outcome.counts) {
            *total += n;
        }
    }
    write_listing(out, &totals)?;
    Ok(ExitCode::SUCCESS)
}

/// The registry grouped by phase, each site with its reach count from
/// `totals` (registry order), effects and reach.
fn write_listing(out: &mut impl Write, totals: &[u64]) -> io::Result<()> {
    writeln!(out, "{:<24} {:>8}  description", "site", "reaches")?;
    for phase in [Phase::Submit, Phase::Complete, Phase::Recovery] {
        writeln!(out, "[{} phase]", phase.label())?;
        for s in Site::all().filter(|s| s.phase() == phase) {
            let (reaches, name) = (totals[s as usize], s.name());
            writeln!(out, "  {name:<22} {reaches:>8}  {}", s.describe())?;
            writeln!(out, "  {:<31}  effects: {}", "", s.effects().join(", "))?;
            writeln!(out, "  {:<31}  reach: {}", "", s.reach())?;
        }
    }
    Ok(())
}

/// The exit code of a run whose output went to `stdout`. A reader that
/// stops early (`mmoc-fuzz --list-points | head`) closes the pipe: the
/// run ends quietly with exit 0. Any other write error is exit 2.
fn exit_code(written: io::Result<ExitCode>) -> ExitCode {
    match written {
        Ok(code) => code,
        Err(e) if e.kind() == io::ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("mmoc-fuzz: writing to stdout: {e}");
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("mmoc-fuzz: {e}");
            return ExitCode::from(2);
        }
    };
    let mut out = io::stdout().lock();
    exit_code(match &opts.mode {
        Mode::Corpus => run_corpus(&opts, &mut out),
        Mode::Repro(seed, id) => {
            let case = FuzzCase::derive(*seed, *id);
            run_one(&case, &format!("{seed}:{id}"), &mut out)
        }
        Mode::Case(case) => run_one(case, "case", &mut out),
        Mode::ListPoints => list_points(&mut out),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A reader that has gone away: every write fails with `BrokenPipe`.
    struct ClosedPipe;

    impl Write for ClosedPipe {
        fn write(&mut self, _: &[u8]) -> io::Result<usize> {
            Err(io::ErrorKind::BrokenPipe.into())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// `--list-points | head`: the listing stops at the closed pipe with
    /// `BrokenPipe` instead of panicking, and the run exits 0.
    #[test]
    fn a_closed_pipe_ends_the_listing_quietly() {
        let totals = vec![0; Site::all().count()];
        let err = write_listing(&mut ClosedPipe, &totals).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
        assert_eq!(exit_code(Err(err)), ExitCode::SUCCESS);
        let other = io::Error::from(io::ErrorKind::PermissionDenied);
        assert_eq!(exit_code(Err(other)), ExitCode::from(2));
        let mut listing = Vec::new();
        write_listing(&mut listing, &totals).unwrap();
        let listing = String::from_utf8(listing).unwrap();
        assert!(listing.contains("  job-enqueued "), "{listing}");
    }
}
