//! `stream` and `render`: the end-to-end streaming pipeline
//! (`prfpga::pipeline::run_pipeline`: synth → plan → place → emit →
//! simulate) at its default configuration, with a 6-module pool that
//! fits the per-worker stream cache (`stream`) or a 64-module pool that
//! overflows it so nearly every emission renders (`render`).
//!
//! Untraced runs time `run_pipeline` itself. The traced run replays one
//! call on a single worker through the same public calls the pipeline
//! worker makes (`Engine::plan_arc`, `bitstream::emit_arc_into`,
//! `multitask::simulate_with_scratch`), wrapping each in a span, and
//! requires the replay's bytes, makespan and reconfigurations to equal
//! the untraced call's.

use crate::layers::Layers;
use crate::trace::{Layer, Tracer, ROOT};
use crate::{
    alternate_replays, derive_seed, measured_rounds, median, mix64, peak_rss_mib, pipeline_workers,
    Args, Outcome,
};
use prfpga::bitstream::{self, BitstreamSpec, EmitScratch, IcapModel};
use prfpga::fabric::{self, Device};
use prfpga::multitask::{
    simulate_with_scratch, HwTask, ModuleId, PrSystem, ReuseAware, SimScratch, Workload,
};
use prfpga::pipeline::{run_pipeline, PipelineConfig, PipelineReport};
use prfpga::prcost::metrics::CounterSnapshot;
use prfpga::prcost::{Engine, Metrics, PlanScratch};
use prfpga::synth::prm::GenericPrm;
use prfpga::synth::SynthReport;
use std::sync::Arc;
use std::time::Instant;

/// One pipeline regime: pool size and the number of calls in a round.
pub struct Regime {
    /// Distinct modules in the pool (`PipelineConfig::modules`).
    pub modules: u32,
    /// Calls per round, each with its own pool seed derived from the run
    /// seed, so one round averages over several random pools.
    pub calls: u64,
}

/// Default pool (6 modules): cached-stream emission.
pub const STREAM: Regime = Regime {
    modules: 6,
    calls: 96,
};

/// 64-module pool, larger than the 8-entry stream cache and the
/// 32-entry template cache: rendered emission.
pub const RENDER: Regime = Regime {
    modules: 64,
    calls: 16,
};

/// Chunks per pipeline worker in one call, so every worker gets work.
/// The queue's fill and drain weigh more than at the default 10⁶ tasks;
/// `pipeline.worker_idle_s` shows how much.
const CHUNKS_PER_WORKER: u64 = 4;

/// Tasks per `run_pipeline` call: [`CHUNKS_PER_WORKER`] default-size
/// chunks for each of the pipeline's default workers. Calls are shorter
/// than the default 10⁶ tasks so that a round spans many random pools.
fn tasks_per_call() -> u64 {
    CHUNKS_PER_WORKER * pipeline_workers() as u64 * u64::from(PipelineConfig::default().chunk)
}

fn config(args: &Args, regime: &Regime, call: u64) -> PipelineConfig {
    PipelineConfig {
        tasks: tasks_per_call(),
        modules: regime.modules,
        seed: derive_seed(args.seed, call),
        ..PipelineConfig::default()
    }
}

/// Simulated outcome of one call; must repeat exactly for one seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct SimOutcome {
    tasks: u64,
    bitstream_bytes: u64,
    makespan_ns: u64,
    reconfigurations: u64,
    reuse_hits: u64,
    total_wait_ns: u64,
}

impl SimOutcome {
    fn of(r: &PipelineReport) -> Self {
        SimOutcome {
            tasks: r.tasks,
            bitstream_bytes: r.bitstream_bytes,
            makespan_ns: r.simulated_makespan_ns,
            reconfigurations: r.reconfigurations,
            reuse_hits: r.reuse_hits,
            total_wait_ns: r.total_wait_ns,
        }
    }
}

/// One timed round: every call of the regime once.
struct Round {
    outcomes: Vec<SimOutcome>,
    /// Per call: tasks per host second inside the streamed stages.
    rates: Vec<f64>,
    /// Per call: wall minus `elapsed_ms` (pool synthesis, cover plan,
    /// spec build).
    setups: Vec<f64>,
    /// `pipeline:gen` stage totals summed over the calls, seconds.
    gen_busy_s: f64,
    /// `elapsed × workers` minus the summed worker stage totals, summed
    /// over the calls.
    worker_idle_s: f64,
}

fn run_round(args: &Args, regime: &Regime) -> Result<Round, String> {
    let mut round = Round {
        outcomes: Vec::new(),
        rates: Vec::new(),
        setups: Vec::new(),
        gen_busy_s: 0.0,
        worker_idle_s: 0.0,
    };
    for call in 0..regime.calls {
        let cfg = config(args, regime, call);
        let t = Instant::now();
        let report = run_pipeline(&cfg).map_err(|e| format!("run_pipeline: {e}"))?;
        let wall = t.elapsed().as_secs_f64();
        if report.workers != pipeline_workers() {
            return Err(format!(
                "run_pipeline used {} workers, expected {}",
                report.workers,
                pipeline_workers()
            ));
        }
        let elapsed = report.elapsed_ms / 1e3;
        let stage = |name: &str| {
            report
                .stages
                .iter()
                .find(|s| s.name == name)
                .map_or(0.0, |s| s.total_ns as f64 / 1e9)
        };
        let worker_busy: f64 = [
            "pipeline:synth",
            "pipeline:plan",
            "pipeline:bitstream",
            "pipeline:simulate",
        ]
        .iter()
        .map(|s| stage(s))
        .sum();
        round.outcomes.push(SimOutcome::of(&report));
        round.rates.push(report.tasks as f64 / elapsed);
        round.setups.push(wall - elapsed);
        round.gen_busy_s += stage("pipeline:gen");
        round.worker_idle_s += (elapsed * report.workers as f64 - worker_busy).max(0.0);
    }
    Ok(round)
}

/// Module pool and homogeneous system, built the way `run_pipeline`'s
/// setup builds them.
struct Pool {
    device: Device,
    generators: Vec<GenericPrm>,
    reports: Vec<SynthReport>,
    specs: Vec<Arc<BitstreamSpec>>,
    plan_bytes: Vec<u64>,
    system: PrSystem,
}

fn build_pool(engine: &Engine, cfg: &PipelineConfig, tr: &mut Tracer) -> Result<Pool, String> {
    let device = fabric::device_by_name(&cfg.device).map_err(|e| e.to_string())?;
    let family = device.family();
    tr.span(Layer::Geometry, ROOT, || engine.geometry(&device));
    let generators: Vec<GenericPrm> = (0..cfg.modules.max(1))
        .map(|m| GenericPrm::random(cfg.seed.wrapping_add(u64::from(m) * 7919), cfg.scale))
        .collect();
    let reports: Vec<SynthReport> = generators
        .iter()
        .map(|g| tr.span(Layer::Synth, ROOT, || engine.synthesize(g, family)))
        .collect();
    let max = |f: fn(&SynthReport) -> u64| reports.iter().map(f).max().unwrap_or(0);
    let cover = SynthReport::new(
        "pipeline_cover",
        family,
        max(|r| r.lut_ff_pairs).max(1),
        max(|r| r.luts).max(1),
        max(|r| r.ffs).max(1),
        max(|r| r.dsps),
        max(|r| r.brams),
    );
    let cover_plan = tr
        .span(Layer::Plan, ROOT, || engine.plan(&cover, &device))
        .map_err(|e| e.to_string())?;
    let system = PrSystem::homogeneous(
        &device,
        cover_plan.organization,
        cfg.prrs,
        IcapModel::V5_DMA,
    )
    .map_err(|e| e.to_string())?;
    let mut specs = Vec::new();
    let mut plan_bytes = Vec::new();
    for r in &reports {
        let plan = tr
            .span(Layer::Plan, ROOT, || engine.plan(r, &device))
            .map_err(|e| e.to_string())?;
        plan_bytes.push(plan.bitstream_bytes);
        specs.push(Arc::new(BitstreamSpec::from_plan(
            device.name(),
            &r.module,
            plan.organization,
            &plan.window,
        )));
    }
    Ok(Pool {
        device,
        generators,
        reports,
        specs,
        plan_bytes,
        system,
    })
}

/// The pipeline producer's task stream: splitmix64 seeded with
/// `cfg.seed | 1`, one module draw and two exponential draws per task.
struct Producer {
    state: u64,
    remaining: u64,
    chunk: u32,
    mean_interarrival_ns: u64,
    mean_exec_ns: u64,
}

impl Producer {
    fn new(cfg: &PipelineConfig) -> Self {
        Producer {
            state: cfg.seed | 1,
            remaining: cfg.tasks,
            chunk: cfg.chunk.max(1),
            mean_interarrival_ns: cfg.mean_interarrival_ns,
            mean_exec_ns: cfg.mean_exec_ns,
        }
    }

    fn next_u64(&mut self) -> u64 {
        let out = mix64(self.state);
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        out
    }

    fn exp_ns(&mut self, mean: u64) -> u64 {
        let u = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        ((-(1.0 - u).ln()) * mean as f64) as u64
    }

    /// Next chunk as `(pool index, arrival, exec)` triples, or `None`.
    fn next_chunk(&mut self, pool: usize, out: &mut Vec<(usize, u64, u64)>) -> bool {
        out.clear();
        if self.remaining == 0 {
            return false;
        }
        let n = self.remaining.min(u64::from(self.chunk));
        self.remaining -= n;
        let mut t = 0u64;
        for _ in 0..n {
            let ix = (self.next_u64() % pool as u64) as usize;
            t += self.exp_ns(self.mean_interarrival_ns);
            let exec = self.exp_ns(self.mean_exec_ns).max(1);
            out.push((ix, t, exec));
        }
        true
    }
}

/// What one call's inputs fix before it runs, from the producer's draws.
#[derive(Debug, Clone, Copy)]
struct Prediction {
    /// Σ over the tasks of the task's module plan's Eq. 18 bytes.
    bytes: u64,
    /// Σ of the tasks' execution times, nanoseconds.
    exec_ns: u64,
}

fn predict(cfg: &PipelineConfig, plan_bytes: &[u64]) -> Prediction {
    let mut producer = Producer::new(cfg);
    let mut chunk = Vec::new();
    let mut p = Prediction {
        bytes: 0,
        exec_ns: 0,
    };
    while producer.next_chunk(plan_bytes.len(), &mut chunk) {
        for &(ix, _, exec) in &chunk {
            p.bytes += plan_bytes[ix];
            p.exec_ns += exec;
        }
    }
    p
}

/// Result of one single-worker replay of a pipeline call.
struct Replay {
    outcome: SimOutcome,
    served: u64,
    /// Host seconds in the chunk loop (after pool setup).
    items_s: f64,
    /// Emissions whose length differed from the plan's Eq. 18 bytes.
    bad_lengths: u64,
    /// The replay engine's counters at the end.
    counters: CounterSnapshot,
}

/// Replay one `run_pipeline` call on this thread, worker loop included,
/// with every library call wrapped in a span of `tr`.
fn replay(cfg: &PipelineConfig, tr: &mut Tracer) -> Result<Replay, String> {
    let engine = Engine::new();
    let pool = build_pool(&engine, cfg, tr)?;
    let family = pool.device.family();
    let bytes_word = u64::from(family.params().frames.bytes_word);
    let mut producer = Producer::new(cfg);
    let mut draws = Vec::new();
    let mut plan_scratch = PlanScratch::default();
    let mut emit_scratch = EmitScratch::new();
    let mut emit_buf: Vec<u32> = Vec::new();
    let mut sim_scratch = SimScratch::new();
    let mut pool_ix: Vec<usize> = Vec::new();
    let mut out = Replay {
        outcome: SimOutcome::default(),
        served: 0,
        items_s: 0.0,
        bad_lengths: 0,
        counters: Metrics::new().snapshot().counters,
    };
    let start = Instant::now();
    loop {
        if !producer.next_chunk(pool.reports.len(), &mut draws) {
            break;
        }
        let wl = Workload::new(
            draws
                .iter()
                .enumerate()
                .map(|(id, &(ix, t, exec))| {
                    HwTask::from_report(id as u32, &pool.reports[ix], t, exec)
                })
                .collect(),
        );
        let chunk = tr.open(Layer::Chunk, ROOT);
        pool_ix.clear();
        for id in 0..wl.modules().len() {
            let name = wl.modules().name(ModuleId(id as u32));
            pool_ix.push(
                pool.reports
                    .iter()
                    .position(|r| r.module == name)
                    .ok_or("chunk module missing from the pool")?,
            );
        }
        for &ix in &pool_ix {
            tr.span(Layer::Synth, chunk.id, || {
                engine.synthesize(&pool.generators[ix], family)
            });
        }
        for &id in wl.module_ids() {
            let report = &pool.reports[pool_ix[id.0 as usize]];
            let plan = tr.span(Layer::Plan, chunk.id, || {
                engine.plan_arc(report, &pool.device, &mut plan_scratch)
            });
            if plan.is_err() {
                return Err(format!("plan_arc failed for {}", report.module));
            }
        }
        for &id in wl.module_ids() {
            let ix = pool_ix[id.0 as usize];
            tr.span(Layer::Emit, chunk.id, || {
                bitstream::emit_arc_into(&mut emit_scratch, &pool.specs[ix], &mut emit_buf)
            })
            .map_err(|e| format!("emit_arc_into: {e}"))?;
            let bytes = emit_buf.len() as u64 * bytes_word;
            out.bad_lengths += u64::from(bytes != pool.plan_bytes[ix]);
            out.outcome.bitstream_bytes += bytes;
        }
        let report = tr.span(Layer::Sim, chunk.id, || {
            simulate_with_scratch(&pool.system, &wl, &ReuseAware, &mut sim_scratch)
        });
        tr.close(chunk);
        out.outcome.tasks += wl.tasks.len() as u64;
        out.outcome.makespan_ns += report.makespan_ns;
        out.outcome.reconfigurations += u64::from(report.reconfigurations);
        out.outcome.reuse_hits += u64::from(report.reuse_hits);
        out.outcome.total_wait_ns += report.total_wait_ns;
        out.served += u64::from(report.completed);
    }
    out.items_s = start.elapsed().as_secs_f64();
    out.counters = engine.snapshot().counters;
    Ok(out)
}

/// Emit a sample of the pool's streams and parse them back with strict
/// CRC checking; each must parse and match its plan's Eq. 18 bytes.
fn check_parse_sample(pool: &Pool, out: &mut Outcome) {
    let step = (pool.specs.len() / 8).max(1);
    for ix in (0..pool.specs.len()).step_by(step) {
        let ok = bitstream::generate_arc(&pool.specs[ix])
            .ok()
            .filter(|bs| bs.len_bytes() == pool.plan_bytes[ix])
            .is_some_and(|bs| bitstream::parse(&bs.to_bytes(), true).is_ok());
        out.check_all(ok, &format!("strict parse of pool module {ix}"));
    }
}

/// Run the `stream` or `render` workload.
pub fn run(args: &Args, regime: &Regime, out: &mut Outcome) -> Result<(), String> {
    // The pool plans behind the byte-count check, per call; call 0's
    // pool also gives the strict-parse sample.
    let mut predicted = Vec::new();
    for call in 0..regime.calls {
        let cfg = config(args, regime, call);
        let pool = build_pool(&Engine::new(), &cfg, &mut Tracer::new(false))?;
        predicted.push(predict(&cfg, &pool.plan_bytes));
        if call == 0 {
            check_parse_sample(&pool, out);
        }
    }

    let mut rounds: Vec<Round> = Vec::new();
    measured_rounds(args, |_| {
        let round = run_round(args, regime)?;
        out.attempted += round.outcomes.iter().map(|o| o.tasks).sum::<u64>();
        rounds.push(round);
        Ok(())
    })?;
    let rss = peak_rss_mib();

    let first = &rounds[0].outcomes;
    for round in &rounds {
        let items: u64 = round.outcomes.iter().map(|o| o.tasks).sum();
        let bytes_ok = round
            .outcomes
            .iter()
            .zip(&predicted)
            .all(|(o, p)| o.bitstream_bytes == p.bytes && o.tasks == tasks_per_call());
        out.check(
            bytes_ok,
            items,
            "emitted bytes equal the plans' Eq. 18 bytes",
        );
        out.check(
            round.outcomes == *first,
            items,
            "simulated outcome repeats across rounds of one seed",
        );
    }

    out.check_all(
        first
            .iter()
            .all(|o| o.reconfigurations + o.reuse_hits == o.tasks),
        "every streamed task is dispatched once",
    );

    if args.trace {
        return trace(args, regime, &rounds, out);
    }
    let rates: Vec<f64> = rounds.iter().flat_map(|r| r.rates.clone()).collect();
    let setups: Vec<f64> = rounds.iter().flat_map(|r| r.setups.clone()).collect();
    out.metric("items_per_s", median(&rates), "1/s");
    out.metric("setup_s", median(&setups), "s");
    out.metric("peak_rss_mib", rss, "MiB");
    // The simulated times are medians over the calls: a pool with a large
    // cover PRR has long reconfigurations and would dominate a sum.
    let per_call = |f: &dyn Fn(&SimOutcome, &Prediction) -> f64| {
        median(
            &first
                .iter()
                .zip(&predicted)
                .map(|(o, p)| f(o, p))
                .collect::<Vec<_>>(),
        )
    };
    out.metric(
        "sim_wait_us",
        per_call(&|o, _| o.total_wait_ns as f64 / o.tasks as f64 / 1e3),
        "us",
    );
    let tasks: u64 = first.iter().map(|o| o.tasks).sum();
    let reuse_hits: u64 = first.iter().map(|o| o.reuse_hits).sum();
    out.metric("sim_reuse_ratio", reuse_hits as f64 / tasks as f64, "ratio");
    // Every task is dispatched, so the admission analog is the share of
    // PRR time spent executing tasks, not reconfiguring or idle.
    let prrs = u64::from(PipelineConfig::default().prrs);
    out.metric(
        "sim_admit_ratio",
        per_call(&|o, p| p.exec_ns as f64 / (prrs * o.makespan_ns) as f64),
        "ratio",
    );
    Ok(())
}

/// The traced run: alternate untraced and traced single-worker replays
/// of call 0, then report per-layer metrics from the traced spans.
fn trace(args: &Args, regime: &Regime, rounds: &[Round], out: &mut Outcome) -> Result<(), String> {
    let cfg = config(args, regime, 0);
    let reference = rounds[0].outcomes[0];
    let mut tr = Tracer::new(true);
    let mut layers = Layers::default();
    layers.trace_overhead_pct = alternate_replays(args, |traced| {
        let r = if traced {
            layers.passes += 1;
            replay(&cfg, &mut tr)?
        } else {
            replay(&cfg, &mut Tracer::new(false))?
        };
        let ok = r.outcome == reference && r.bad_lengths == 0 && r.served == reference.tasks;
        out.check_all(ok, "single-worker replay equals the pipeline call");
        layers.counters = Some(r.counters);
        Ok(r.outcome.tasks as f64 / r.items_s)
    })?;

    let busy = tr.layer(Layer::Chunk).busy_s;
    let share = |layer| tr.busy_under_s(layer, Layer::Chunk) / busy;
    layers.emit_share = share(Layer::Emit);
    layers.plan_share = share(Layer::Plan);
    layers.synth_share = share(Layer::Synth);
    layers.sim_share = share(Layer::Sim);
    layers.emit = tr.layer(Layer::Emit);
    layers.emit_bytes = reference.bitstream_bytes;
    layers.plan = tr.layer(Layer::Plan);
    layers.synth = tr.layer(Layer::Synth);
    layers.geometry = tr.layer(Layer::Geometry);
    layers.sim = tr.layer(Layer::Sim);
    layers.sim_tasks = reference.tasks;
    layers.sim_reconfigs = reference.reconfigurations;
    // Per `run_pipeline` call, the basis of the replay numbers.
    let n = rounds.iter().map(|r| r.outcomes.len()).sum::<usize>() as f64;
    layers.gen_busy_s = rounds.iter().map(|r| r.gen_busy_s).sum::<f64>() / n;
    layers.worker_idle_s = rounds.iter().map(|r| r.worker_idle_s).sum::<f64>() / n;
    layers.report(out);
    Ok(())
}
