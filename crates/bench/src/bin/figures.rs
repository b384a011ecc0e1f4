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

use mmoc_bench::experiments::{self, SweepRow};
use mmoc_bench::{csv, micro, tables};
use mmoc_core::Algorithm;
use mmoc_game::GameConfig;
use std::collections::BTreeSet;
use std::path::PathBuf;
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
                opts.paced_hz = Some(v.parse().map_err(|_| format!("bad --paced value {v:?}"))?);
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
fn emit_sweep(out: &std::path::Path, name: &str, x_label: &str, rows: &[SweepRow]) {
    let mut xs: Vec<f64> = rows.iter().map(|r| r.x).collect();
    xs.dedup();
    let metric = |f: fn(&SweepRow) -> f64, file: &str, title: &str| {
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

fn main() -> ExitCode {
    let opts = match parse_args(std::env::args().skip(1)) {
        Ok(opts) => opts,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
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
        let header = ["algorithm", "overhead_s", "checkpoint_s", "recovery_s"];
        let data: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                vec![
                    r.algorithm.short_name().to_string(),
                    csv::fnum(r.overhead_s),
                    csv::fnum(r.checkpoint_s),
                    csv::fnum(r.recovery_s),
                ]
            })
            .collect();
        csv::write_csv(&opts.out.join("fig5_game.csv"), &header, data).expect("write csv");
        println!(
            "{:<28} {:>16} {:>16} {:>16}",
            "algorithm", "overhead [ms]", "checkpoint [s]", "recovery [s]"
        );
        for r in &rows {
            println!(
                "{:<28} {:>16.4} {:>16.3} {:>16.3}",
                r.algorithm.name(),
                r.overhead_s * 1e3,
                r.checkpoint_s,
                r.recovery_s
            );
        }
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
        let rows =
            experiments::fig6(&rates, ticks, &scratch, opts.paced_hz).expect("fig6 real engine");
        let header = [
            "updates_per_tick",
            "algorithm",
            "source",
            "overhead_s",
            "checkpoint_s",
            "recovery_s",
        ];
        let data: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                vec![
                    r.updates_per_tick.to_string(),
                    r.algorithm.short_name().to_string(),
                    r.source.label().to_string(),
                    csv::fnum(r.overhead_s),
                    csv::fnum(r.checkpoint_s),
                    csv::fnum(r.recovery_s),
                ]
            })
            .collect();
        csv::write_csv(&opts.out.join("fig6_validation.csv"), &header, data).expect("write csv");
        println!(
            "{:>12} {:<16} {:<16} {:>14} {:>15} {:>13}",
            "updates/tick",
            "algorithm",
            "source",
            "overhead [ms]",
            "checkpoint [s]",
            "recovery [s]"
        );
        for r in &rows {
            println!(
                "{:>12} {:<16} {:<16} {:>14.4} {:>15.3} {:>13.3}",
                r.updates_per_tick,
                r.algorithm.short_name(),
                r.source.label(),
                r.overhead_s * 1e3,
                r.checkpoint_s,
                r.recovery_s
            );
        }
        let _ = std::fs::remove_dir_all(&scratch);
    }

    if has("ablations") {
        println!("\n=== Ablation: atomic object size (Naive vs COU) ===");
        let sizes = [64u32, 128, 256, 512, 1024, 2048, 4096];
        let rows = experiments::ablation_objsize(&sizes, opts.ticks.min(200));
        let header = [
            "object_size",
            "algorithm",
            "overhead_s",
            "checkpoint_s",
            "recovery_s",
        ];
        let data: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                vec![
                    format!("{}", r.x as u32),
                    r.algorithm.short_name().to_string(),
                    csv::fnum(r.overhead_s),
                    csv::fnum(r.checkpoint_s),
                    csv::fnum(r.recovery_s),
                ]
            })
            .collect();
        csv::write_csv(&opts.out.join("ablation_objsize.csv"), &header, data).expect("write csv");
        for r in &rows {
            println!(
                "  Sobj {:>5}  {:<16} overhead {:>9.4} ms  recovery {:>7.3} s",
                r.x as u32,
                r.algorithm.short_name(),
                r.overhead_s * 1e3,
                r.recovery_s
            );
        }

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
        let header = [
            "disk_bandwidth",
            "algorithm",
            "overhead_s",
            "checkpoint_s",
            "recovery_s",
        ];
        let data: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                vec![
                    format!("{}", r.x),
                    r.algorithm.short_name().to_string(),
                    csv::fnum(r.overhead_s),
                    csv::fnum(r.checkpoint_s),
                    csv::fnum(r.recovery_s),
                ]
            })
            .collect();
        csv::write_csv(&opts.out.join("ext_hardware.csv"), &header, data).expect("write csv");
        for r in &rows {
            println!(
                "  Bdisk {:>6.0} MB/s  {:<18} checkpoint {:>7.3} s  recovery {:>7.3} s",
                r.x / 1e6,
                r.algorithm.short_name(),
                r.checkpoint_s,
                r.recovery_s
            );
        }
    }

    if has("shards") {
        let rate = 64_000;
        let ticks = opts.ticks.min(200);
        println!(
            "\n=== Shard scaling: overhead + recovery vs N shards \
             ({rate} updates/tick, {ticks} ticks, fixed 40 MB state) ==="
        );
        let rows = experiments::shard_scaling(&experiments::SHARD_COUNTS, rate, ticks);
        let header = [
            "n_shards",
            "algorithm",
            "overhead_s",
            "checkpoint_s",
            "recovery_s",
            "serial_recovery_s",
            "wall_clock_s",
        ];
        let row_csv = |r: &experiments::ShardScaleRow| {
            vec![
                r.n_shards.to_string(),
                r.algorithm.short_name().to_string(),
                csv::fnum(r.overhead_s),
                csv::fnum(r.checkpoint_s),
                csv::fnum(r.recovery_s),
                csv::fnum(r.serial_recovery_s),
                csv::fnum(r.wall_clock_s),
            ]
        };
        let data: Vec<Vec<String>> = rows.iter().map(row_csv).collect();
        csv::write_csv(&opts.out.join("shard_scaling.csv"), &header, data).expect("write csv");
        println!(
            "{:>8} {:<16} {:>14} {:>15} {:>13}",
            "shards", "algorithm", "overhead [ms]", "checkpoint [s]", "recovery [s]"
        );
        for r in &rows {
            println!(
                "{:>8} {:<16} {:>14.4} {:>15.3} {:>13.3}",
                r.n_shards,
                r.algorithm.short_name(),
                r.overhead_s * 1e3,
                r.checkpoint_s,
                r.recovery_s
            );
        }

        println!("\n--- real engine (scaled-down state, measured parallel recovery) ---");
        let scratch = std::env::temp_dir().join("mmoc_shards");
        let real = experiments::shard_scaling_real(
            mmoc_core::Algorithm::CopyOnUpdate,
            &experiments::SHARD_COUNTS,
            ticks.min(60),
            &scratch,
        )
        .expect("shard scaling real engine");
        let data: Vec<Vec<String>> = real.iter().map(row_csv).collect();
        csv::write_csv(&opts.out.join("shard_scaling_real.csv"), &header, data).expect("write csv");
        for r in &real {
            println!(
                "{:>8} {:<16} overhead {:>9.4} ms   parallel recovery {:>7.3} s \
                 (serial would be {:>7.3} s)",
                r.n_shards,
                r.algorithm.short_name(),
                r.overhead_s * 1e3,
                r.recovery_s,
                r.serial_recovery_s
            );
        }
        let _ = std::fs::remove_dir_all(&scratch);
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
    ExitCode::SUCCESS
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
    }
}
