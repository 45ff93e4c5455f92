//! The per-layer metrics every traced run prints. Each workload fills
//! the layers it exercises; the others print as zero, which is itself
//! the measurement (e.g. no emission on `explore` or `churn`).

use crate::trace::LayerStats;
use crate::Outcome;
use prfpga::prcost::metrics::CounterSnapshot;

/// Per-layer measurements of one traced run. Span aggregates cover all
/// traced passes and are divided by `passes` when printed.
#[derive(Default)]
pub struct Layers {
    /// Traced passes the span aggregates cover.
    pub passes: u64,
    /// Shares of worker busy time (pipeline chunks, or the whole sweep)
    /// spent in emission, planning, synthesis and simulation calls.
    pub emit_share: f64,
    /// See `emit_share`.
    pub plan_share: f64,
    /// See `emit_share`.
    pub synth_share: f64,
    /// See `emit_share`.
    pub sim_share: f64,
    /// `bitstream::emit_arc_into` spans.
    pub emit: LayerStats,
    /// Bytes emitted in one pass.
    pub emit_bytes: u64,
    /// `Engine::plan_arc` / `plan_with_geometry` spans.
    pub plan: LayerStats,
    /// `Engine::synthesize` spans.
    pub synth: LayerStats,
    /// `Engine::geometry` spans.
    pub geometry: LayerStats,
    /// Engine counters of one pass (`Engine::snapshot`).
    pub counters: Option<CounterSnapshot>,
    /// `multitask::simulate_with_scratch` spans.
    pub sim: LayerStats,
    /// Tasks and reconfigurations the simulator handled in one pass.
    pub sim_tasks: u64,
    /// Reconfigurations in one pass.
    pub sim_reconfigs: u64,
    /// `pipeline:gen` stage total of one untraced `run_pipeline` call,
    /// seconds (mean over calls).
    pub gen_busy_s: f64,
    /// Worker idle time of one untraced call, seconds (mean over calls).
    pub worker_idle_s: f64,
    /// `layout::simulate_layout` spans.
    pub layout_sim: LayerStats,
    /// `layout:defrag2_plan` stage count over all passes.
    pub defrag2_calls: u64,
    /// `layout:defrag2_plan` stage total over all passes, seconds.
    pub defrag2_busy_s: f64,
    /// Plans found (`layout:defrag2_plans`).
    pub defrag2_planned: u64,
    /// Plans executed (`layout:defrag2_executed`).
    pub defrag2_executed: u64,
    /// Allocation attempts (`layout:allocs` + failures).
    pub allocs: u64,
    /// Failed allocation attempts.
    pub alloc_fails: u64,
    /// Relocations of one pass.
    pub relocations: u64,
    /// Simulated relocation time of one pass, milliseconds.
    pub relocation_ms: f64,
    /// Highest fragmentation index of one pass.
    pub peak_fragmentation: f64,
    /// Untraced over traced replay throughput, minus one, in percent.
    pub trace_overhead_pct: f64,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

impl Layers {
    /// Print every per-layer metric into `out`.
    pub fn report(&self, out: &mut Outcome) {
        let passes = self.passes.max(1) as f64;
        let per = |x: f64| x / passes;
        let count = |s: &LayerStats| per(s.calls as f64);
        let c = self
            .counters
            .unwrap_or_else(|| prfpga::prcost::Metrics::new().snapshot().counters);

        out.metric("bitstream.emit_calls", count(&self.emit), "count");
        out.metric("bitstream.emit_busy_s", per(self.emit.busy_s), "s");
        out.metric("bitstream.emit_p50_us", self.emit.p50_us, "us");
        out.metric("bitstream.emit_p99_us", self.emit.p99_us, "us");
        out.metric(
            "bitstream.emit_gib_per_s",
            ratio(self.emit_bytes as f64, per(self.emit.busy_s)) / f64::from(1u32 << 30),
            "GiB/s",
        );
        out.metric("bitstream.emit_share", self.emit_share, "ratio");

        out.metric("prcost.plan_calls", count(&self.plan), "count");
        out.metric("prcost.plan_busy_s", per(self.plan.busy_s), "s");
        out.metric("prcost.plan_p50_us", self.plan.p50_us, "us");
        out.metric("prcost.plan_p99_us", self.plan.p99_us, "us");
        out.metric(
            "prcost.plan_memo_hit_ratio",
            ratio(c.plan_cache_hits as f64, c.plans as f64),
            "ratio",
        );
        out.metric(
            "prcost.padded_fallbacks",
            c.padded_fallbacks as f64,
            "count",
        );
        out.metric(
            "prcost.window_probes_per_plan",
            ratio(c.window_probes as f64, c.plan_builds as f64),
            "count",
        );
        out.metric("prcost.plan_share", self.plan_share, "ratio");

        out.metric("synth.calls", count(&self.synth), "count");
        out.metric("synth.busy_s", per(self.synth.busy_s), "s");
        out.metric(
            "synth.memo_hit_ratio",
            ratio(
                c.synth_cache_hits as f64,
                (c.synth_calls + c.synth_cache_hits) as f64,
            ),
            "ratio",
        );
        out.metric("synth.share", self.synth_share, "ratio");

        out.metric("fabric.geometry_builds", c.geometry_builds as f64, "count");
        out.metric("fabric.geometry_busy_s", per(self.geometry.busy_s), "s");

        out.metric("multitask.sim_calls", count(&self.sim), "count");
        out.metric("multitask.sim_busy_s", per(self.sim.busy_s), "s");
        out.metric(
            "multitask.sim_tasks_per_busy_s",
            ratio(self.sim_tasks as f64, per(self.sim.busy_s)),
            "1/s",
        );
        out.metric(
            "multitask.reconfigs_per_task",
            ratio(self.sim_reconfigs as f64, self.sim_tasks as f64),
            "ratio",
        );
        out.metric("multitask.sim_share", self.sim_share, "ratio");

        out.metric("pipeline.gen_busy_s", self.gen_busy_s, "s");
        out.metric("pipeline.worker_idle_s", self.worker_idle_s, "s");

        out.metric("layout.sim_busy_s", per(self.layout_sim.busy_s), "s");
        out.metric(
            "layout.defrag2_calls",
            per(self.defrag2_calls as f64),
            "count",
        );
        out.metric("layout.defrag2_busy_s", per(self.defrag2_busy_s), "s");
        out.metric(
            "layout.defrag2_success_ratio",
            ratio(self.defrag2_executed as f64, self.defrag2_planned as f64),
            "ratio",
        );
        out.metric(
            "layout.defrag2_share",
            ratio(self.defrag2_busy_s, self.layout_sim.busy_s),
            "ratio",
        );
        out.metric(
            "layout.freespace_busy_s",
            per((self.layout_sim.busy_s - self.defrag2_busy_s).max(0.0)),
            "s",
        );
        out.metric(
            "layout.alloc_fail_ratio",
            ratio(self.alloc_fails as f64, self.allocs as f64),
            "ratio",
        );
        out.metric("layout.relocations", self.relocations as f64, "count");
        out.metric("layout.relocation_ms", self.relocation_ms, "ms");
        out.metric(
            "layout.peak_fragmentation",
            self.peak_fragmentation,
            "ratio",
        );

        out.metric("trace_overhead_pct", self.trace_overhead_pct, "%");
    }
}
