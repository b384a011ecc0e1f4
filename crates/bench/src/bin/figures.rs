//! Regenerate the paper's tables and figures.
//!
//! ```text
//! figures [COMMANDS...] [--ticks N] [--out DIR] [--paced HZ] [--quick]
//!
//! COMMANDS (default: all)
//!   tables    Tables 1, 2, 4 (static; printed from algorithm metadata)
//!   table3    Table 3 cost parameters, measured on this machine
//!   table5    Table 5 game-trace characteristics
//!   fig2      Figure 2: updates-per-tick sweep (overhead/checkpoint/recovery)
//!   fig3      Figure 3: per-tick latency at 64k updates/tick
//!   fig4      Figure 4: skew sweep
//!   fig5      Figure 5: game-trace bars
//!   fig6      Figure 6: simulation vs. real implementation
//!   ablations ablation-objsize, ablation-sort, ext-hardware
//!   shards    shard scaling: overhead + recovery vs N ∈ {1,2,4,8}
//!   batching  driver-level update batching at 256k updates/tick
//!
//! OPTIONS
//!   --ticks N   simulate N ticks per run (default 1000, the paper's value)
//!   --out DIR   CSV output directory (default results/)
//!   --paced HZ  pace the fig6 real engine at HZ ticks/sec (default unpaced)
//!   --quick     shorthand for --ticks 120 and a reduced fig6 grid
//! ```

use mmoc_bench::experiments::{self, Row};
use mmoc_bench::{csv, micro, tables};
use mmoc_core::{Algorithm, RunError};
use mmoc_game::GameConfig;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Every command, in the order `figures` with no command runs them.
const COMMANDS: [&str; 11] = [
    "tables",
    "table3",
    "table5",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "ablations",
    "shards",
    "batching",
];

fn usage() -> String {
    format!(
        "usage: figures [{}]* [--ticks N] [--out DIR] [--paced HZ] [--quick]",
        COMMANDS.join("|")
    )
}

struct Options {
    commands: BTreeSet<String>,
    ticks: u64,
    out: PathBuf,
    paced_hz: Option<f64>,
    quick: bool,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Options, String> {
    let mut opts = Options {
        commands: BTreeSet::new(),
        ticks: 1_000,
        out: PathBuf::from("results"),
        paced_hz: None,
        quick: false,
    };
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        let mut value = || {
            args.next()
                .ok_or_else(|| format!("{arg} needs a value\n{}", usage()))
        };
        match arg.as_str() {
            "--ticks" => {
                let v = value()?;
                opts.ticks = v.parse().map_err(|_| format!("bad --ticks value {v:?}"))?;
            }
            "--out" => opts.out = PathBuf::from(value()?),
            "--paced" => {
                let v = value()?;
                opts.paced_hz = match v.parse::<f64>() {
                    Ok(hz) if hz > 0.0 && hz.is_finite() => Some(hz),
                    _ => {
                        return Err(format!(
                            "bad --paced value {v:?}: a positive tick rate in Hz\n{}",
                            usage()
                        ))
                    }
                };
            }
            "--quick" => opts.quick = true,
            "--help" | "-h" => return Err(usage()),
            cmd if COMMANDS.contains(&cmd) => {
                opts.commands.insert(cmd.to_string());
            }
            other => return Err(format!("unknown command {other:?}\n{}", usage())),
        }
    }
    if opts.quick {
        opts.ticks = opts.ticks.min(120);
    }
    if opts.commands.is_empty() {
        opts.commands = COMMANDS.iter().map(ToString::to_string).collect();
    }
    Ok(opts)
}

/// Render a sweep as per-metric CSVs (one column per algorithm) and a
/// paper-style stdout table.
fn emit_sweep(out: &Path, name: &str, x_label: &str, rows: &[Row]) {
    let mut xs: Vec<f64> = rows.iter().map(|r| r.x).collect();
    xs.dedup();
    let metric = |f: fn(&Row) -> f64, file: &str, title: &str| {
        let mut header = vec![x_label.to_string()];
        header.extend(Algorithm::ALL.iter().map(|a| a.short_name().to_string()));
        let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
        let data: Vec<Vec<String>> = xs
            .iter()
            .map(|&x| {
                let mut row = vec![format!("{x}")];
                for alg in Algorithm::ALL {
                    let v = rows
                        .iter()
                        .find(|r| r.x == x && r.algorithm == alg)
                        .map(f)
                        .unwrap_or(f64::NAN);
                    row.push(csv::fnum(v));
                }
                row
            })
            .collect();
        csv::write_csv(&out.join(file), &header_refs, data).expect("write csv");

        println!("\n{title}");
        print!("{x_label:>14}");
        for alg in Algorithm::ALL {
            print!(" {:>16}", alg.short_name());
        }
        println!();
        for &x in &xs {
            print!("{x:>14}");
            for alg in Algorithm::ALL {
                let v = rows
                    .iter()
                    .find(|r| r.x == x && r.algorithm == alg)
                    .map(f)
                    .unwrap_or(f64::NAN);
                print!(" {v:>16.6}");
            }
            println!();
        }
    };
    metric(
        |r| r.overhead_s,
        &format!("{name}a_overhead.csv"),
        &format!("{name}(a): avg overhead time [sec]"),
    );
    metric(
        |r| r.checkpoint_s,
        &format!("{name}b_checkpoint.csv"),
        &format!("{name}(b): avg time to checkpoint [sec]"),
    );
    metric(
        |r| r.recovery_s,
        &format!("{name}c_recovery.csv"),
        &format!("{name}(c): est. recovery time [sec]"),
    );
}

/// One column of a long-format table: its CSV header and how a row's
/// cell is rendered.
type Column = (&'static str, fn(&Row) -> String);

/// The swept parameter under the name the experiment gives it.
const fn x(header: &'static str) -> Column {
    (header, |r| format!("{}", r.x))
}
const ALGORITHM: Column = ("algorithm", |r| r.algorithm.short_name().to_string());
const SOURCE: Column = ("source", |r| r.source.label().to_string());
const OVERHEAD: Column = ("overhead_s", |r| csv::fnum(r.overhead_s));
const CHECKPOINT: Column = ("checkpoint_s", |r| csv::fnum(r.checkpoint_s));
const RECOVERY: Column = ("recovery_s", |r| csv::fnum(r.recovery_s));
const SERIAL_RECOVERY: Column = ("serial_recovery_s", |r| csv::fnum(r.serial_recovery_s));
const WALL_CLOCK: Column = ("wall_clock_s", |r| csv::fnum(r.wall_clock_s));

/// A long-format file: its name and its columns.
type Table = (&'static str, &'static [Column]);

const FIG5_GAME: Table = (
    "fig5_game.csv",
    &[ALGORITHM, OVERHEAD, CHECKPOINT, RECOVERY],
);
const FIG6_VALIDATION: Table = (
    "fig6_validation.csv",
    &[
        x("updates_per_tick"),
        ALGORITHM,
        SOURCE,
        OVERHEAD,
        CHECKPOINT,
        RECOVERY,
    ],
);
const ABLATION_OBJSIZE: Table = (
    "ablation_objsize.csv",
    &[x("object_size"), ALGORITHM, OVERHEAD, CHECKPOINT, RECOVERY],
);
const EXT_HARDWARE: Table = (
    "ext_hardware.csv",
    &[
        x("disk_bandwidth"),
        ALGORITHM,
        OVERHEAD,
        CHECKPOINT,
        RECOVERY,
    ],
);
const SHARD_COLUMNS: &[Column] = &[
    x("n_shards"),
    ALGORITHM,
    OVERHEAD,
    CHECKPOINT,
    RECOVERY,
    SERIAL_RECOVERY,
    WALL_CLOCK,
];
const SHARD_SCALING: Table = ("shard_scaling.csv", SHARD_COLUMNS);
const SHARD_SCALING_REAL: Table = ("shard_scaling_real.csv", SHARD_COLUMNS);

/// Render rows in long format — one line per row, one cell per column —
/// to the table's CSV file and, aligned, to stdout.
fn emit_rows(out: &Path, (file, columns): Table, rows: &[Row]) {
    fn aligned(cells: &[impl std::fmt::Display]) -> String {
        cells.iter().map(|c| format!("{c:>18}")).collect()
    }
    let header: Vec<&str> = columns.iter().map(|c| c.0).collect();
    let data: Vec<Vec<String>> = rows
        .iter()
        .map(|r| columns.iter().map(|c| c.1(r)).collect())
        .collect();
    println!("{}", aligned(&header));
    for cells in &data {
        println!("{}", aligned(cells));
    }
    csv::write_csv(&out.join(file), &header, data).expect("write csv");
}

fn main() -> ExitCode {
    let opts = match parse_args(std::env::args().skip(1)) {
        Ok(opts) => opts,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    match run(&opts) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}

/// Run the selected commands. The simulator's experiments cannot fail on
/// the paper's parameters; a real-engine one (fig6, shards) can, and its
/// typed error ends the run.
fn run(opts: &Options) -> Result<(), RunError> {
    let has = |c: &str| opts.commands.contains(c);
    let t0 = std::time::Instant::now();

    if has("tables") {
        println!("{}", tables::print_table1());
        println!("{}", tables::print_table2());
        println!("{}", tables::print_table4());
    }

    if has("table3") {
        println!("measuring Table 3 parameters on this machine...");
        let scratch = std::env::temp_dir();
        let measured = micro::measure_all(Some(&scratch));
        println!("{}", tables::print_table3(Some(&measured)));
    }

    if has("table5") {
        let cfg = GameConfig::paper().with_ticks(opts.ticks.min(GameConfig::paper().ticks));
        println!(
            "generating the Knights and Archers trace ({} ticks)...",
            cfg.ticks
        );
        let stats = experiments::table5(cfg);
        println!("Table 5: Characteristics of the prototype game server trace");
        println!("{:<34} {}", "number of units", stats.geometry.rows);
        println!(
            "{:<34} {}",
            "number of attributes per unit", stats.geometry.cols
        );
        println!("{:<34} {}", "number of ticks", stats.ticks);
        println!(
            "{:<34} {:.0}   (paper: 35,590)",
            "avg. number of updates per tick", stats.avg_updates_per_tick
        );
        println!(
            "{:<34} {:.0}",
            "avg. distinct objects per tick", stats.avg_distinct_objects_per_tick
        );
        println!("{:<34} {}", "distinct units touched", stats.distinct_rows);
        println!();
    }

    if has("fig2") {
        println!(
            "\n=== Figure 2: scaling on updates per tick ({} ticks) ===",
            opts.ticks
        );
        let rows = experiments::fig2(&experiments::FIG2_RATES, opts.ticks);
        emit_sweep(&opts.out, "fig2", "updates/tick", &rows);
    }

    if has("fig3") {
        println!("\n=== Figure 3: latency analysis, 64k updates/tick ===");
        let data = experiments::fig3(opts.ticks.max(120));
        let mut header = vec!["tick".to_string(), "latency_limit".to_string()];
        header.extend(Algorithm::ALL.iter().map(|a| a.short_name().to_string()));
        let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
        let n_ticks = data.series[0].1.len();
        let rows: Vec<Vec<String>> = (0..n_ticks)
            .map(|t| {
                let mut row = vec![t.to_string(), csv::fnum(data.latency_limit_s)];
                for (_, lengths) in &data.series {
                    row.push(csv::fnum(lengths[t]));
                }
                row
            })
            .collect();
        csv::write_csv(&opts.out.join("fig3_tick_length.csv"), &header_refs, rows)
            .expect("write csv");
        println!(
            "tick lengths [ms] over ticks 55..110 (base {:.1} ms, latency limit {:.1} ms):",
            data.tick_period_s * 1e3,
            data.latency_limit_s * 1e3
        );
        for (alg, lengths) in &data.series {
            let window: Vec<f64> = lengths.iter().skip(55).take(55).map(|&l| l * 1e3).collect();
            let max = window.iter().copied().fold(0.0f64, f64::max);
            let avg = window.iter().sum::<f64>() / window.len().max(1) as f64;
            let over = window
                .iter()
                .filter(|&&l| l > data.latency_limit_s * 1e3)
                .count();
            println!(
                "  {:<28} avg {avg:>7.2}  peak {max:>7.2}  ticks over limit: {over}",
                alg.name()
            );
        }
    }

    if has("fig4") {
        println!("\n=== Figure 4: effect of skew ({} ticks) ===", opts.ticks);
        let rows = experiments::fig4(&experiments::FIG4_SKEWS, opts.ticks);
        emit_sweep(&opts.out, "fig4", "skew", &rows);
    }

    if has("fig5") {
        let cfg = GameConfig::paper().with_ticks(opts.ticks.min(GameConfig::paper().ticks));
        println!("\n=== Figure 5: game trace ({} ticks) ===", cfg.ticks);
        let rows = experiments::fig5(cfg);
        emit_rows(&opts.out, FIG5_GAME, &rows);
    }

    if has("fig6") {
        let rates: Vec<u32> = if opts.quick {
            vec![1_000, 64_000]
        } else {
            experiments::FIG2_RATES.to_vec()
        };
        let ticks = opts.ticks.min(300);
        println!(
            "\n=== Figure 6: validation, simulation vs implementation ({} ticks) ===",
            ticks
        );
        let scratch = std::env::temp_dir().join("mmoc_fig6");
        let rows = experiments::fig6(&rates, ticks, &scratch, opts.paced_hz);
        let _ = std::fs::remove_dir_all(&scratch);
        emit_rows(&opts.out, FIG6_VALIDATION, &rows?);
    }

    if has("ablations") {
        println!("\n=== Ablation: atomic object size (Naive vs COU) ===");
        let sizes = [64u32, 128, 256, 512, 1024, 2048, 4096];
        let rows = experiments::ablation_objsize(&sizes, opts.ticks.min(200));
        emit_rows(&opts.out, ABLATION_OBJSIZE, &rows);

        println!("\n=== Ablation: sorted vs unsorted double-backup writes ===");
        let rows = experiments::ablation_sorted_io(&[1_000, 16_000, 64_000], opts.ticks.min(200));
        let data: Vec<Vec<String>> = rows
            .iter()
            .map(|&(r, s, u)| vec![r.to_string(), csv::fnum(s), csv::fnum(u)])
            .collect();
        csv::write_csv(
            &opts.out.join("ablation_sorted_io.csv"),
            &["updates_per_tick", "sorted_s", "unsorted_s"],
            data,
        )
        .expect("write csv");
        for (r, s, u) in rows {
            println!(
                "  {r:>7} upd/tick: sorted {s:>8.3} s   unsorted {u:>10.1} s   ({:.0}x worse)",
                u / s
            );
        }

        println!("\n=== Extension: disk-bandwidth sweep ===");
        let bws = [60e6, 200e6, 500e6, 2e9];
        let rows = experiments::ext_hardware(&bws, opts.ticks.min(200));
        emit_rows(&opts.out, EXT_HARDWARE, &rows);
    }

    if has("shards") {
        let rate = 64_000;
        let ticks = opts.ticks.min(200);
        println!(
            "\n=== Shard scaling: overhead + recovery vs N shards \
             ({rate} updates/tick, {ticks} ticks, fixed 40 MB state) ==="
        );
        let rows = experiments::shard_scaling(&experiments::SHARD_COUNTS, rate, ticks);
        emit_rows(&opts.out, SHARD_SCALING, &rows);

        println!("\n--- real engine (scaled-down state, measured parallel recovery) ---");
        let scratch = std::env::temp_dir().join("mmoc_shards");
        let real = experiments::shard_scaling_real(
            Algorithm::CopyOnUpdate,
            &experiments::SHARD_COUNTS,
            ticks.min(60),
            &scratch,
        );
        let _ = std::fs::remove_dir_all(&scratch);
        emit_rows(&opts.out, SHARD_SCALING_REAL, &real?);
    }

    if has("batching") {
        println!("\n=== Driver-level update batching (256k updates/tick) ===");
        let ticks = if opts.quick { 8 } else { 20 };
        let m = micro::measure_update_batching(256_000, ticks);
        println!(
            "  unbatched: {:>8.2} ns/update  ({} bit ops)",
            m.unbatched_s_per_update * 1e9,
            m.unbatched_bit_ops
        );
        println!(
            "  batched:   {:>8.2} ns/update  ({} bit ops)",
            m.batched_s_per_update * 1e9,
            m.batched_bit_ops
        );
        println!(
            "  speedup: {:.2}x wall, {:.2}x fewer bookkeeping ops",
            m.speedup(),
            m.unbatched_bit_ops as f64 / m.batched_bit_ops.max(1) as f64
        );
        csv::write_csv(
            &opts.out.join("batching_micro.csv"),
            &[
                "updates",
                "unbatched_ns_per_update",
                "batched_ns_per_update",
                "unbatched_bit_ops",
                "batched_bit_ops",
            ],
            vec![vec![
                m.updates.to_string(),
                csv::fnum(m.unbatched_s_per_update * 1e9),
                csv::fnum(m.batched_s_per_update * 1e9),
                m.unbatched_bit_ops.to_string(),
                m.batched_bit_ops.to_string(),
            ]],
        )
        .expect("write csv");
    }

    eprintln!(
        "\ntotal: {:.1?}, CSVs in {}",
        t0.elapsed(),
        opts.out.display()
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Options, String> {
        parse_args(args.iter().map(ToString::to_string))
    }

    #[test]
    fn no_command_means_every_command() {
        let opts = parse(&["--quick", "--out", "/tmp/o"]).unwrap();
        assert_eq!(opts.commands.len(), COMMANDS.len());
        assert_eq!(opts.ticks, 120);
        let opts = parse(&["fig6", "--ticks", "1"]).unwrap();
        assert_eq!(opts.commands.len(), 1);
        assert_eq!(opts.ticks, 1);
    }

    /// A retired or mistyped command and a flag missing its value are
    /// usage errors naming the valid commands — not a silent no-op run
    /// or a panic.
    #[test]
    fn unknown_commands_and_missing_values_are_usage_errors() {
        for args in [
            &["writers"][..],
            &["fig2", "--json"],
            &["--ticks"],
            &["--out"],
            &["--paced"],
        ] {
            let Err(msg) = parse(args) else {
                panic!("{args:?} must be rejected")
            };
            assert!(msg.contains("usage: figures [tables|"), "{msg}");
        }
        assert!(parse(&["--ticks", "many"]).is_err());
        // Regression: a rate the engine cannot pace at parsed as an `f64`
        // and panicked in library code (`figures fig6 --paced 0`).
        for hz in ["0", "-1", "nan", "inf", "fast"] {
            let Err(msg) = parse(&["fig6", "--paced", hz]) else {
                panic!("--paced {hz} must be rejected")
            };
            assert!(msg.contains("usage: figures [tables|"), "{msg}");
        }
        assert_eq!(parse(&["--paced", "30"]).unwrap().paced_hz, Some(30.0));
    }

    /// The six long-format files keep the names, headers and cell formats
    /// their plots read: literals copied from the output of the six
    /// hand-written blocks `emit_rows` replaced.
    #[test]
    fn long_format_files_keep_their_names_headers_and_cell_formats() {
        let row = Row {
            x: 64_000.0,
            algorithm: Algorithm::CopyOnUpdate,
            source: experiments::Source::Implementation,
            overhead_s: 0.5,
            checkpoint_s: 1.5,
            recovery_s: 2.5,
            serial_recovery_s: 3.5,
            wall_clock_s: 4.5,
        };
        let metrics = "0.500000000,1.500000000,2.500000000";
        let out = tempfile::tempdir().unwrap();
        for (table, file, header, cells) in [
            (
                FIG5_GAME,
                "fig5_game.csv",
                "algorithm,overhead_s,checkpoint_s,recovery_s",
                format!("cou,{metrics}"),
            ),
            (
                FIG6_VALIDATION,
                "fig6_validation.csv",
                "updates_per_tick,algorithm,source,overhead_s,checkpoint_s,recovery_s",
                format!("64000,cou,implementation,{metrics}"),
            ),
            (
                ABLATION_OBJSIZE,
                "ablation_objsize.csv",
                "object_size,algorithm,overhead_s,checkpoint_s,recovery_s",
                format!("64000,cou,{metrics}"),
            ),
            (
                EXT_HARDWARE,
                "ext_hardware.csv",
                "disk_bandwidth,algorithm,overhead_s,checkpoint_s,recovery_s",
                format!("64000,cou,{metrics}"),
            ),
            (
                SHARD_SCALING,
                "shard_scaling.csv",
                "n_shards,algorithm,overhead_s,checkpoint_s,recovery_s,serial_recovery_s,wall_clock_s",
                format!("64000,cou,{metrics},3.500000000,4.500000000"),
            ),
            (
                SHARD_SCALING_REAL,
                "shard_scaling_real.csv",
                "n_shards,algorithm,overhead_s,checkpoint_s,recovery_s,serial_recovery_s,wall_clock_s",
                format!("64000,cou,{metrics},3.500000000,4.500000000"),
            ),
        ] {
            emit_rows(out.path(), table, &[row]);
            let written = std::fs::read_to_string(out.path().join(file)).unwrap();
            assert_eq!(written, format!("{header}\n{cells}\n"), "{file}");
        }
    }
}
