//! The per-layer metrics of the traced pass.
//!
//! Layers are this repository's modules. Where the run report carries a
//! layer's numbers (driver, writer) they are read from it; otherwise a
//! probe times the layer's *public* functions from outside, on the
//! workload's own geometry and on the mean flush set the end-to-end run
//! wrote per checkpoint. Every probe runs on every workload, so each
//! metric is always a measurement; `README.md` says which end-to-end
//! metric each should move on which workload, and where a layer is not on
//! a workload's path at all.

use crate::cycles::{low_decile, median};
use crate::run::{peak_rss_mb, Measured, Metric, RunDir, SETUP_REPS};
use crate::spans::Spans;
use crate::workloads::{TailTrace, RECOVERY_TAIL_TICKS, TICK_HZ};
use mmoc_core::run::TraceFn;
use mmoc_core::{
    Bookkeeper, CellUpdate, DiskOrg, FlushCursor, ObjectId, Run, ShardFilter, StateTable,
    TraceSource,
};
use mmoc_sim::{HardwareParams, SimConfig};
use mmoc_storage::files::BackupSet;
use mmoc_storage::log_store::LogStore;
use mmoc_storage::recovery::{recover_from_replica, RecoveryOpts};
use mmoc_storage::shared::{Shared, SharedTable};
use mmoc_storage::ReplicaSet;
use std::hint::black_box;
use std::time::Instant;

/// Updates a per-update probe loops over (a prefix of the block).
const PROBE_UPDATES: u64 = 4_000_000;

/// Seconds `f` takes.
fn timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let t0 = Instant::now();
    let r = f();
    (t0.elapsed().as_secs_f64(), r)
}

/// Median seconds of `reps` runs of `f`.
fn median_of(reps: usize, mut f: impl FnMut() -> f64) -> f64 {
    median(&(0..reps).map(|_| f()).collect::<Vec<f64>>())
}

fn io_err(what: &str) -> impl Fn(std::io::Error) -> String + '_ {
    move |e| format!("probe {what}: {e}")
}

/// The per-layer metrics of `m`'s workload, in `BENCHMARK.json` order.
pub fn layer_metrics(m: &Measured, spans: &Spans) -> Result<Vec<Metric>, String> {
    let w = m.workload;
    let e = &m.estimates;
    let root = spans.enter("probes", None);
    let mut out: Vec<Metric> = Vec::new();
    let mut put = |name: &'static str, unit: &'static str, value: f64, n: usize| {
        out.push(Metric::new(name, unit, value, n));
    };

    // Probe inputs: shard 0's geometry (the whole world for one shard),
    // a flush set of the run's mean size spread evenly over it, and a
    // prefix of the recorded block.
    let g0 = m.map.shard_geometry(0);
    let n0 = g0.n_objects();
    let obj_size = g0.object_size as usize;
    let k = ((e.checkpoint_bytes / obj_size as f64).round() as u32).clamp(1, n0);
    let flush_ids: Vec<u32> = (0..k)
        .map(|i| (u64::from(i) * u64::from(n0) / u64::from(k)) as u32)
        .collect();
    let flush_data: Vec<u8> = (0..k as usize * obj_size)
        .map(|i| (i % 251) as u8)
        .collect();
    let object = |i: usize| &flush_data[i * obj_size..][..obj_size];
    let probe_ticks = (PROBE_UPDATES / u64::from(w.updates_per_tick)).clamp(1, w.block_ticks);
    let ticks: &[Vec<CellUpdate>] = &m.block.ticks()[..probe_ticks as usize];
    let updates: u64 = ticks.iter().map(|t| t.len() as u64).sum();
    let from0 = m.from_ticks[0];

    // --- mmoc-workload
    {
        let distinct: Vec<f64> = ticks
            .iter()
            .take(32)
            .map(|t| {
                let mut objs: Vec<u32> = t
                    .iter()
                    .map(|u| w.geometry.object_of_unchecked(u.addr).0)
                    .collect();
                objs.sort_unstable();
                objs.dedup();
                objs.len() as f64
            })
            .collect();
        put("workload.record_s", "s", m.record_s, SETUP_REPS);
        put(
            "workload.lateness_max_ms",
            "ms",
            m.lateness_max_s * 1e3,
            m.report.ticks as usize,
        );
        put(
            "workload.distinct_objects_per_tick",
            "count",
            distinct.iter().sum::<f64>() / distinct.len() as f64,
            distinct.len(),
        );
    }

    // --- core::algorithms::bookkeeper: Handle-Update over the block at
    // the run's checkpoint cadence, writer frontier held at the start
    // (every first touch of a flush-set member pays its copy).
    {
        let spec = w.algorithm.spec();
        let objs: Vec<Vec<ObjectId>> = ticks
            .iter()
            .map(|t| {
                t.iter()
                    .map(|u| w.geometry.object_of_unchecked(u.addr))
                    .collect()
            })
            .collect();
        let cadence = (e.ticks_per_checkpoint.round() as usize).max(1);
        let mut bit_ops = 0u64;
        let mut begin_s = Vec::new();
        let per_update = median_of(3, || {
            let _s = spans.enter("core.bookkeeper.on_update", root.id());
            let mut bk = Bookkeeper::new(spec, w.geometry.n_objects());
            bit_ops = 0;
            let mut begins = 0.0;
            let (total, ()) = timed(|| {
                for (t, tick) in objs.iter().enumerate() {
                    for &obj in tick {
                        bit_ops += u64::from(bk.on_update(obj, FlushCursor::START).bit_ops);
                    }
                    if (t + 1) % cadence == 0 {
                        let (s, ()) = timed(|| {
                            if bk.is_in_flight() {
                                bk.finish_checkpoint();
                            }
                            black_box(bk.begin_checkpoint());
                        });
                        begins += s;
                        begin_s.push(s);
                    }
                }
            });
            black_box(&bk);
            (total - begins) / updates as f64
        });
        put("core.bookkeeper.on_update_ns", "ns", per_update * 1e9, 3);
        put(
            "core.bookkeeper.begin_checkpoint_us",
            "us",
            if begin_s.is_empty() {
                0.0
            } else {
                median(&begin_s) * 1e6
            },
            begin_s.len(),
        );
        put(
            "core.bookkeeper.bit_ops_per_update",
            "count",
            bit_ops as f64 / updates as f64,
            updates as usize,
        );
    }

    // --- core::table: the replay loop's per-update cost.
    {
        let mut table = StateTable::new(w.geometry).map_err(|e| e.to_string())?;
        let per_update = median_of(3, || {
            let _s = spans.enter("core.table.apply_unchecked", root.id());
            let (s, ()) = timed(|| {
                for tick in ticks {
                    for &u in tick {
                        table.apply_unchecked(u);
                    }
                }
            });
            s / updates as f64
        });
        black_box(&table);
        put("core.table.apply_ns", "ns", per_update * 1e9, 3);
    }

    // --- core::driver, from the run's own series.
    {
        let overheads: Vec<f64> = m
            .shard_metrics()
            .iter()
            .flat_map(|s| s.ticks.iter().map(|t| t.overhead_s))
            .collect();
        put(
            "core.driver.ticks_per_checkpoint",
            "count",
            e.ticks_per_checkpoint,
            e.cycles,
        );
        put(
            "core.driver.tick_overhead_mean_us",
            "us",
            overheads.iter().sum::<f64>() / overheads.len() as f64 * 1e6,
            overheads.len(),
        );
        put(
            "core.driver.checkpoint_ms.p90",
            "ms",
            e.checkpoint_p90_s * 1e3,
            e.cycles,
        );
        put("core.driver.start_ms", "ms", m.start_s * 1e3, 1);
        put("core.driver.drain_ms", "ms", m.drain_s * 1e3, 1);
        put(
            "core.driver.tick_rate_mean_hz",
            "1/s",
            m.report.ticks as f64 / m.wall_s,
            m.report.ticks as usize,
        );
    }

    // --- storage::shared
    let copy_out_s;
    {
        let shared = Shared::new(SharedTable::new(w.geometry));
        let mut buf = vec![0u8; k as usize * obj_size];
        copy_out_s = median_of(5, || {
            let _s = spans.enter("storage.shared.read_object_into", root.id());
            timed(|| {
                for (i, &id) in flush_ids.iter().enumerate() {
                    shared
                        .table
                        .read_object_into(ObjectId(id), &mut buf[i * obj_size..][..obj_size]);
                }
            })
            .0
        });
        black_box(&buf);
        let save_s = median_of(3, || {
            let _s = spans.enter("storage.shared.save_to_arena", root.id());
            shared.reset_for_checkpoint();
            timed(|| {
                for &id in &flush_ids {
                    let _guard = shared.locks[id as usize].lock();
                    shared.save_to_arena(ObjectId(id));
                    shared.copied.set(id);
                }
            })
            .0
        });
        let write_s = median_of(3, || {
            let _s = spans.enter("storage.shared.write_cell", root.id());
            timed(|| {
                for tick in ticks {
                    for &u in tick {
                        shared.table.write_cell(u);
                    }
                }
            })
            .0
        });
        put("storage.shared.copy_out_ms", "ms", copy_out_s * 1e3, 5);
        put(
            "storage.shared.cou_save_ns",
            "ns",
            save_s / f64::from(k) * 1e9,
            3,
        );
        put(
            "storage.shared.write_cell_ns",
            "ns",
            write_s / updates as f64 * 1e9,
            3,
        );
    }

    // --- storage::files: two checkpoints into each backup file.
    let (files_write_s, files_sync_s, files_commit_s);
    {
        let dir = RunDir::create().map_err(io_err("files"))?;
        let zeros = vec![0u8; n0 as usize * obj_size];
        let mut set = BackupSet::create(dir.path(), g0, &zeros).map_err(io_err("files"))?;
        let mut write = [Vec::new(), Vec::new()];
        let (mut invalidate, mut sync, mut commit) = (Vec::new(), Vec::new(), Vec::new());
        for round in 0..4u64 {
            let idx = (round % 2) as usize;
            let span = spans.enter("storage.files.checkpoint", root.id());
            let step = |name| spans.enter(name, span.id());
            {
                let _s = step("storage.files.invalidate");
                let (s, r) = timed(|| set.invalidate(idx));
                r.map_err(io_err("files invalidate"))?;
                invalidate.push(s);
            }
            {
                let _s = step("storage.files.write_object");
                let (s, r) = timed(|| {
                    flush_ids
                        .iter()
                        .enumerate()
                        .try_for_each(|(i, &id)| set.write_object(idx, ObjectId(id), object(i)))
                });
                r.map_err(io_err("files write"))?;
                write[idx].push(s);
            }
            {
                let _s = step("storage.files.sync");
                let (s, r) = timed(|| set.sync(idx));
                r.map_err(io_err("files sync"))?;
                sync.push(s);
            }
            {
                let _s = step("storage.files.commit");
                let (s, r) = timed(|| set.commit(idx, round + 1));
                r.map_err(io_err("files commit"))?;
                commit.push(s);
            }
        }
        let mut read = Vec::new();
        for _ in 0..3 {
            let _s = spans.enter("storage.files.read_full", root.id());
            let (s, r) = timed(|| set.read_full(1));
            black_box(r.map_err(io_err("files read"))?);
            read.push(s);
        }
        files_write_s = (median(&write[0]) + median(&write[1])) / 2.0;
        files_sync_s = median(&sync);
        files_commit_s = median(&commit);
        put(
            "storage.files.write_ms.file0",
            "ms",
            median(&write[0]) * 1e3,
            2,
        );
        put(
            "storage.files.write_ms.file1",
            "ms",
            median(&write[1]) * 1e3,
            2,
        );
        put(
            "storage.files.write_calls_per_checkpoint",
            "count",
            f64::from(k),
            1,
        );
        put("storage.files.sync_ms", "ms", files_sync_s * 1e3, 4);
        put("storage.files.commit_ms", "ms", files_commit_s * 1e3, 4);
        put(
            "storage.files.invalidate_ms",
            "ms",
            median(&invalidate) * 1e3,
            4,
        );
        put("storage.files.read_full_ms", "ms", median(&read) * 1e3, 3);
    }

    // --- storage::log_store: a full flush, then partial ones.
    let (log_write_s, log_sync_s);
    {
        let dir = RunDir::create().map_err(io_err("log"))?;
        let mut log = LogStore::create(dir.path(), g0).map_err(io_err("log"))?;
        let full: Vec<u8> = (0..n0 as usize * obj_size)
            .map(|i| (i % 241) as u8)
            .collect();
        let mut sync = Vec::new();
        let mut synced = |log: &LogStore| -> Result<(), String> {
            let _s = spans.enter("storage.log_store.sync", root.id());
            let (s, r) = timed(|| log.sync());
            sync.push(s);
            r.map_err(io_err("log sync"))
        };
        let (full_s, r) = {
            let _s = spans.enter("storage.log_store.append_segment.full", root.id());
            timed(|| {
                let objects =
                    (0..n0).map(|i| (ObjectId(i), &full[i as usize * obj_size..][..obj_size]));
                log.append_segment(0, 1, true, objects, false)
            })
        };
        r.map_err(io_err("log append"))?;
        synced(&log)?;
        let mut partial = Vec::new();
        for seq in 1..=3u64 {
            let (s, r) = {
                let _s = spans.enter("storage.log_store.append_segment.partial", root.id());
                timed(|| {
                    let objects = flush_ids
                        .iter()
                        .enumerate()
                        .map(|(i, &id)| (ObjectId(id), object(i)));
                    log.append_segment(seq, seq + 1, false, objects, false)
                })
            };
            r.map_err(io_err("log append"))?;
            partial.push(s);
            synced(&log)?;
        }
        let (reconstruct_s, r) = {
            let _s = spans.enter("storage.log_store.reconstruct", root.id());
            timed(|| log.reconstruct())
        };
        let (_, _, bytes_read) = r.map_err(io_err("log reconstruct"))?;
        // Space at the end of the *run*: what its directory holds (both
        // images, or the whole append-only log) per byte of state.
        let mut on_disk = 0u64;
        let mut pending = vec![m.dir.path().to_path_buf()];
        while let Some(d) = pending.pop() {
            for entry in std::fs::read_dir(&d).map_err(io_err("run dir"))? {
                let entry = entry.map_err(io_err("run dir"))?;
                let meta = entry.metadata().map_err(io_err("run dir"))?;
                if meta.is_dir() {
                    pending.push(entry.path());
                } else {
                    on_disk += meta.len();
                }
            }
        }
        let partial_s = median(&partial);
        // One cycle of the log organisation: seven partial flushes and
        // the full one.
        log_write_s = (7.0 * partial_s + full_s) / 8.0;
        log_sync_s = median(&sync);
        put(
            "storage.log_store.append_partial_ms",
            "ms",
            partial_s * 1e3,
            3,
        );
        put("storage.log_store.append_full_ms", "ms", full_s * 1e3, 1);
        put(
            "storage.log_store.sync_ms",
            "ms",
            log_sync_s * 1e3,
            sync.len(),
        );
        put(
            "storage.log_store.reconstruct_ms",
            "ms",
            reconstruct_s * 1e3,
            1,
        );
        put(
            "storage.log_store.reconstruct_bytes_read",
            "MB",
            bytes_read as f64 / 1e6,
            1,
        );
        put(
            "storage.log_store.disk_bytes_per_state_byte",
            "ratio",
            on_disk as f64 / w.geometry.state_bytes() as f64,
            1,
        );
    }

    // --- storage::writer (crate-private: read from the run's detail).
    {
        let d = &m.detail;
        let jobs = d.flush_jobs.max(1) as f64;
        let busy: f64 = m
            .shard_metrics()
            .iter()
            .map(|s| {
                s.checkpoints
                    .iter()
                    .map(|c| c.duration_s - c.sync_pause_s)
                    .sum::<f64>()
            })
            .sum::<f64>()
            / m.map.n_shards() as f64;
        let (write_s, sync_s, commit_s) = match w.algorithm.spec().disk_org {
            DiskOrg::DoubleBackup => (files_write_s, files_sync_s, files_commit_s),
            DiskOrg::Log => (log_write_s, log_sync_s, 0.0),
        };
        put(
            "storage.writer.fsyncs_per_checkpoint",
            "count",
            d.data_fsyncs as f64 / jobs,
            d.flush_jobs as usize,
        );
        put(
            "storage.writer.avg_batch_jobs",
            "count",
            d.avg_batch_jobs,
            d.flush_jobs as usize,
        );
        put(
            "storage.writer.avg_sqe_batch",
            "count",
            d.avg_sqe_batch,
            d.flush_jobs as usize,
        );
        put("storage.writer.retries", "count", d.retries as f64, 1);
        put(
            "storage.writer.degraded_jobs",
            "count",
            d.degraded_jobs as f64,
            1,
        );
        put(
            "storage.writer.fallback",
            "count",
            f64::from(u8::from(d.writer_fallback_from.is_some())),
            1,
        );
        put(
            "storage.writer.busy_pct",
            "%",
            busy / m.wall_s * 100.0,
            e.cycles,
        );
        // What the isolated layer costs leave unexplained: queue wait,
        // scheduling and contention with the mutator. Only tracing
        // inside the engine can split it further.
        put(
            "storage.writer.residual_ms",
            "ms",
            (e.checkpoint_s - copy_out_s - write_s - sync_s - commit_s) * 1e3,
            e.cycles,
        );
    }

    // --- storage::recovery, from the run's measured recoveries.
    {
        let per_shard = |f: fn(&(f64, f64, u64)) -> f64| -> Vec<f64> {
            m.recoveries
                .iter()
                .flat_map(|r| r.shards.iter().map(f))
                .collect()
        };
        let replay: f64 = per_shard(|s| s.1).iter().sum();
        let replayed: f64 = per_shard(|s| s.2 as f64).iter().sum();
        let scan_s = median_of(3, || {
            let _s = spans.enter("storage.recovery.scan", root.id());
            let mut log =
                ShardFilter::new(TailTrace::new(&m.block, from0, from0), m.map.clone(), 0);
            let mut buf = Vec::new();
            timed(|| while log.next_tick(&mut buf) {}).0
        });
        let n = m.recoveries.len();
        put(
            "storage.recovery.restore_ms",
            "ms",
            median(&per_shard(|s| s.0)) * 1e3,
            n,
        );
        put(
            "storage.recovery.replay_ms",
            "ms",
            median(&per_shard(|s| s.1)) * 1e3,
            n,
        );
        put("storage.recovery.scan_ms", "ms", scan_s * 1e3, 3);
        put(
            "storage.recovery.replay_ns_per_update",
            "ns",
            replay / replayed.max(1.0) * 1e9,
            replayed as usize,
        );
    }

    // --- storage::replica: a benchmark-owned mirror of shard 0.
    {
        let set = ReplicaSet::new(1, &[g0]);
        let publish_s = median_of(3, || {
            let _s = spans.enter("storage.replica.publish", root.id());
            timed(|| {
                set.invalidate(0);
                set.publish(0, from0, &flush_ids, &flush_data, g0.object_size);
            })
            .0
        });
        let fetch_s = median_of(3, || {
            let _s = spans.enter("storage.replica.fetch", root.id());
            let (s, image) = timed(|| set.fetch(0, None));
            black_box(image);
            s
        });
        let crash = from0 + RECOVERY_TAIL_TICKS;
        let mut recover = Vec::new();
        for _ in 0..3 {
            let _s = spans.enter("storage.replica.recover_from_replica", root.id());
            // Shard 0's slice of the world's log, replayed on its mirror.
            let mut log =
                ShardFilter::new(TailTrace::new(&m.block, from0, crash), m.map.clone(), 0);
            let (s, r) = timed(|| {
                recover_from_replica(&set, 0, g0, &mut log, crash, &RecoveryOpts::default())
            });
            black_box(
                r.ok_or("probe replica: no complete mirror")?
                    .map_err(io_err("replica recovery"))?,
            );
            recover.push(s);
        }
        put("storage.replica.publish_ms", "ms", publish_s * 1e3, 3);
        put("storage.replica.fetch_ms", "ms", fetch_s * 1e3, 3);
        put(
            "storage.replica.recovery_ms",
            "ms",
            median(&recover) * 1e3,
            3,
        );
    }

    // --- storage::sharded
    {
        let speedups: Vec<f64> = m
            .recoveries
            .iter()
            .map(|r| r.shards.iter().map(|s| s.0 + s.1).sum::<f64>() / r.wall_s)
            .collect();
        let per_shard: Vec<f64> = m.report.shards.iter().map(|s| s.updates as f64).collect();
        let mean = per_shard.iter().sum::<f64>() / per_shard.len() as f64;
        put(
            "storage.sharded.recovery_parallel_speedup",
            "ratio",
            median(&speedups),
            speedups.len(),
        );
        put(
            "storage.sharded.update_imbalance",
            "ratio",
            per_shard.iter().fold(0.0f64, |a, &b| a.max(b)) / mean,
            per_shard.len(),
        );
    }

    // --- mmoc-sim + mmoc_bench::micro: the Table 3 budget measured on
    // this host, and what the paper's cost model predicts from it.
    {
        let dir = RunDir::create().map_err(io_err("micro"))?;
        let measured = {
            let _s = spans.enter("bench.micro.measure_all", root.id());
            mmoc_bench::micro::measure_all(Some(dir.path()))
        };
        let disk = measured
            .disk_bandwidth
            .ok_or("probe micro: the disk bandwidth probe failed")?;
        let sim = SimConfig {
            hardware: HardwareParams {
                mem_bandwidth: measured.mem_bandwidth,
                mem_latency: measured.mem_latency.max(1e-12),
                lock_overhead: measured.lock_overhead.max(1e-12),
                bit_overhead: measured.bit_overhead.max(1e-12),
                disk_bandwidth: disk,
            },
            tick_freq_hz: TICK_HZ,
            ..SimConfig::default()
        };
        let predicted = {
            let _s = spans.enter("sim.run", root.id());
            Run::algorithm(w.algorithm)
                .engine(sim)
                .trace(TraceFn(|| m.block.replay()))
                .shards(w.shards)
                .execute()
                .map_err(|e| format!("probe sim: {e}"))?
        };
        let p_checkpoint = predicted.world.avg_checkpoint_s;
        let p_peak = predicted.world.max_overhead_s;
        let p_recovery = predicted.world.recovery_s.unwrap_or(0.0);
        let recovery_s = low_decile(&m.recoveries.iter().map(|r| r.wall_s).collect::<Vec<f64>>());
        let ratio = |measured: f64, predicted: f64| {
            if predicted > 0.0 {
                measured / predicted
            } else {
                0.0
            }
        };
        put("ceiling.mem_gbps", "GB/s", measured.mem_bandwidth / 1e9, 1);
        put("ceiling.disk_mbps", "MB/s", disk / 1e6, 1);
        put("sim.checkpoint_ms_predicted", "ms", p_checkpoint * 1e3, 1);
        put("sim.tick_peak_us_predicted", "us", p_peak * 1e6, 1);
        put("sim.recovery_ms_predicted", "ms", p_recovery * 1e3, 1);
        put(
            "model_ratio.checkpoint",
            "ratio",
            ratio(e.checkpoint_s, p_checkpoint),
            1,
        );
        put(
            "model_ratio.tick_peak",
            "ratio",
            ratio(e.tick_peak_s, p_peak),
            1,
        );
        put(
            "model_ratio.recovery",
            "ratio",
            ratio(recovery_s, p_recovery),
            1,
        );
    }

    // --- process
    {
        put(
            "process.cpu_ms_per_tick",
            "ms",
            m.cpu_s / m.report.ticks.max(1) as f64 * 1e3,
            m.report.ticks as usize,
        );
        put("process.peak_rss_mb", "MB", peak_rss_mb(), 1);
        // The recorder's measured cost per span × the spans recorded
        // while execute() ran, as a share of execute()'s wall time.
        put(
            "trace.overhead_pct",
            "%",
            Spans::cost_per_span_s() * m.execute_spans as f64 / m.wall_s * 100.0,
            m.execute_spans,
        );
    }

    Ok(out)
}
