//! End-to-end streaming pipeline benchmark with a worker-scaling sweep.
//!
//! Drives `prfpga::pipeline::run_pipeline_sweep` — synthesis (warm
//! engine memo) → PRR planning → placement → arena bitstream emission →
//! hardware-multitasking simulation — at 10⁶ tasks (override with
//! `PRFPGA_PIPELINE_TASKS`) under bounded memory, once per worker count
//! in {1, 2, 4, 8, 16} (override with `PRFPGA_PIPELINE_WORKERS`, a comma
//! list), and writes the whole-system regression artifact
//! `results/BENCH_pipeline.json`: tasks/sec, the per-worker scaling
//! table, the active SIMD dispatch paths, host CPU count, peak-RSS
//! proxy, and per-stage log₂-ns histograms. The same run is available
//! interactively as `prfpga bench-pipeline --workers 1,2,4,8,16`.
//!
//! Not a criterion bench: one pipeline run *is* the measurement (the
//! steady-state throughput of millions of streamed tasks), so repeating
//! it under a sampling harness would only add minutes without adding
//! information. Scaling rows are honest wall-clock on whatever host runs
//! this — rows whose workers plus the producer outnumber `host_cpus` are
//! marked `oversubscribed` (they cannot speed up a CPU-bound pipeline).

use prfpga::pipeline::{run_pipeline_sweep, PipelineConfig};

fn main() {
    let tasks = std::env::var("PRFPGA_PIPELINE_TASKS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1_000_000u64);
    let workers: Vec<usize> = std::env::var("PRFPGA_PIPELINE_WORKERS")
        .ok()
        .map(|v| {
            v.split(',')
                .map(|s| s.trim().parse().expect("bad PRFPGA_PIPELINE_WORKERS"))
                .collect()
        })
        .unwrap_or_else(|| vec![1, 2, 4, 8, 16]);
    let cfg = PipelineConfig {
        tasks,
        ..PipelineConfig::default()
    };
    let report = run_pipeline_sweep(&cfg, &workers).expect("pipeline run failed");

    println!(
        "{} tasks on {} (best: {} workers): {:.0} ms — {:.0} tasks/s, \
         peak RSS {:.1} MiB, plan memo {:.0}%, crc {} / fill {}, {} host cpus",
        report.tasks,
        report.device,
        report.workers,
        report.elapsed_ms,
        report.tasks_per_sec,
        report.peak_rss_bytes as f64 / (1024.0 * 1024.0),
        report.plan_hit_rate.unwrap_or(0.0) * 100.0,
        report.crc_dispatch,
        report.fill_dispatch,
        report.host_cpus,
    );
    for row in &report.worker_sweep {
        println!(
            "  workers {:>2}: {:>9.1} ms, {:>9.0} tasks/s, {:>5.2}x vs 1{}",
            row.workers,
            row.elapsed_ms,
            row.tasks_per_sec,
            row.speedup_vs_one,
            if row.oversubscribed {
                " (oversubscribed)"
            } else {
                ""
            },
        );
    }
    for s in &report.stages {
        println!(
            "  {:<20} {:>7} chunks, total {:>9.1} ms, p50 {:>8.1} us, p99 {:>8.1} us",
            s.name,
            s.count,
            s.total_ns as f64 / 1e6,
            s.p50_ns as f64 / 1e3,
            s.p99_ns as f64 / 1e3,
        );
    }
    bench::write_json("BENCH_pipeline", &report);
}
