//! `explore`: a cold design-space sweep, the paper's own use. Every
//! round builds the device list, 1 500 random PRM generators and a
//! fresh `prcost::Engine`, then evaluates the whole (generator × device)
//! grid through `prfpga::sweep::sweep_with_engine`.
//! The generators' scales span a log-uniform range, so the grid mixes
//! exact, padded and infeasible plans; nothing is emitted or simulated.
//!
//! The traced run replays the same grid on one thread through
//! `Engine::geometry`, `Engine::synthesize` and
//! `Engine::plan_with_geometry` and requires the replayed points to
//! equal the sweep's.

use crate::layers::Layers;
use crate::trace::{Layer, Tracer, ROOT};
use crate::{
    alternate_replays, derive_seed, measured_rounds, median, mix64, peak_rss_mib, timed_setups,
    Args, Outcome,
};
use prfpga::bitstream::IcapModel;
use prfpga::fabric::{self, Device};
use prfpga::prcost::metrics::CounterSnapshot;
use prfpga::prcost::{Engine, PlanScratch};
use prfpga::sweep::{sweep_uncached, sweep_with_engine, SweepPlan, SweepPoint};
use prfpga::synth::prm::GenericPrm;
use prfpga::synth::PrmGenerator;
use std::time::Instant;

/// Generators per round.
const GENERATORS: u64 = 1_500;
/// Scales are log-uniform in `[MIN_SCALE, MAX_SCALE)`.
const MIN_SCALE: f64 = 32.0;
const MAX_SCALE: f64 = 8_192.0;
/// Generators in the fixed sample checked against `sweep_uncached`.
const UNCACHED_SAMPLE: u64 = 24;
/// Set-ups timed per round; one takes about half a millisecond.
const SETUPS_PER_ROUND: usize = 16;

type Generators = Vec<Box<dyn PrmGenerator + Sync>>;

fn generator(seed: u64, i: u64) -> GenericPrm {
    let s = derive_seed(seed, i);
    let u = (mix64(s) >> 11) as f64 / (1u64 << 53) as f64;
    let scale = MIN_SCALE * (MAX_SCALE / MIN_SCALE).powf(u);
    GenericPrm::random(s, scale as u32)
}

fn generators(seed: u64, ids: impl Iterator<Item = u64>) -> Generators {
    ids.map(|i| Box::new(generator(seed, i)) as Box<dyn PrmGenerator + Sync>)
        .collect()
}

/// FNV-1a digest of every field of every point, in grid order.
fn digest(points: &[SweepPoint]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    };
    for p in points {
        eat(p.module.as_bytes());
        eat(p.device.as_bytes());
        match &p.outcome {
            Ok(plan) => {
                eat(&plan.height.to_le_bytes());
                eat(&plan.width.to_le_bytes());
                eat(&plan.bitstream_bytes.to_le_bytes());
                eat(&(plan.reconfig.as_nanos() as u64).to_le_bytes());
                eat(&plan.ru_clb.to_bits().to_le_bytes());
            }
            Err(e) => eat(e.as_bytes()),
        }
    }
    h
}

/// Replay the sweep's grid on this thread, each library call in a span.
fn replay(
    devices: &[Device],
    gens: &Generators,
    tr: &mut Tracer,
) -> (Vec<SweepPoint>, CounterSnapshot, f64) {
    let engine = Engine::new();
    let start = Instant::now();
    let sweep = tr.open(Layer::Sweep, ROOT);
    let geometries: Vec<_> = devices
        .iter()
        .map(|d| tr.span(Layer::Geometry, sweep.id, || engine.geometry(d)))
        .collect();
    let reports: Vec<Vec<_>> = gens
        .iter()
        .map(|g| {
            devices
                .iter()
                .map(|d| {
                    tr.span(Layer::Synth, sweep.id, || {
                        engine.synthesize(g.as_ref(), d.family())
                    })
                })
                .collect()
        })
        .collect();
    let mut scratch = PlanScratch::default();
    let mut points = Vec::with_capacity(gens.len() * devices.len());
    for row in &reports {
        for (d, device) in devices.iter().enumerate() {
            let report = &row[d];
            let plan = tr.span(Layer::Plan, sweep.id, || {
                engine.plan_with_geometry(report, device, &geometries[d], &mut scratch)
            });
            points.push(SweepPoint {
                module: report.module.clone(),
                device: device.name().to_string(),
                outcome: plan
                    .map(|plan| SweepPlan {
                        height: plan.organization.height,
                        width: plan.organization.width(),
                        bitstream_bytes: plan.bitstream_bytes,
                        reconfig: IcapModel::V5_DMA.transfer_time(plan.bitstream_bytes),
                        ru_clb: plan.utilization.clb,
                    })
                    .map_err(|e| e.to_string()),
            });
        }
    }
    tr.close(sweep);
    let secs = start.elapsed().as_secs_f64();
    (points, engine.snapshot().counters, secs)
}

/// Run the `explore` workload.
pub fn run(args: &Args, out: &mut Outcome) -> Result<(), String> {
    let mut rates = Vec::new();
    let mut setups = Vec::new();
    let mut digests = Vec::new();
    let mut reference: Vec<SweepPoint> = Vec::new();
    measured_rounds(args, |_| {
        let (devices, gens, engine) = timed_setups(SETUPS_PER_ROUND, &mut setups, || {
            Ok((
                fabric::all_devices(),
                generators(args.seed, 0..GENERATORS),
                Engine::new(),
            ))
        })?;
        let t = Instant::now();
        let run = sweep_with_engine(&engine, &gens, &devices);
        let secs = t.elapsed().as_secs_f64();
        let n = run.points.len() as u64;
        out.attempted += n;
        rates.push(n as f64 / secs);
        digests.push(digest(&run.points));
        out.check(
            n == GENERATORS * devices.len() as u64,
            n,
            "sweep covers the whole grid",
        );
        if reference.is_empty() {
            reference = run.points;
        }
        Ok(())
    })?;
    let rss = peak_rss_mib();

    out.check_all(
        digests.iter().all(|&d| d == digests[0]),
        "sweep points repeat across rounds of one seed",
    );
    let devices = fabric::all_devices();
    let stride = GENERATORS / UNCACHED_SAMPLE;
    let sample: Vec<u64> = (0..UNCACHED_SAMPLE).map(|k| k * stride).collect();
    let uncached = sweep_uncached(&generators(args.seed, sample.iter().copied()), &devices);
    let per_gen = devices.len();
    let sample_ok = sample.iter().enumerate().all(|(k, &g)| {
        let g = g as usize;
        uncached[k * per_gen..(k + 1) * per_gen] == reference[g * per_gen..(g + 1) * per_gen]
    });
    out.check_all(sample_ok, "sampled points equal sweep_uncached");

    if args.trace {
        return trace(args, &devices, &reference, out);
    }
    let feasible: Vec<&SweepPlan> = reference
        .iter()
        .filter_map(|p| p.outcome.as_ref().ok())
        .collect();
    let nf = feasible.len().max(1) as f64;
    out.metric("items_per_s", median(&rates), "1/s");
    out.metric("setup_s", median(&setups), "s");
    out.metric("peak_rss_mib", rss, "MiB");
    out.metric(
        "sim_wait_us",
        feasible
            .iter()
            .map(|p| p.reconfig.as_secs_f64() * 1e6)
            .sum::<f64>()
            / nf,
        "us",
    );
    out.metric(
        "sim_reuse_ratio",
        feasible.iter().map(|p| p.ru_clb / 100.0).sum::<f64>() / nf,
        "ratio",
    );
    out.metric(
        "sim_admit_ratio",
        feasible.len() as f64 / reference.len() as f64,
        "ratio",
    );
    Ok(())
}

/// The traced run: alternate untraced and traced single-thread replays
/// of the grid and report per-layer metrics from the traced spans.
fn trace(
    args: &Args,
    devices: &[Device],
    reference: &[SweepPoint],
    out: &mut Outcome,
) -> Result<(), String> {
    let gens = generators(args.seed, 0..GENERATORS);
    let mut tr = Tracer::new(true);
    let mut layers = Layers::default();
    layers.trace_overhead_pct = alternate_replays(args, |traced| {
        let (points, counters, secs) = if traced {
            layers.passes += 1;
            replay(devices, &gens, &mut tr)
        } else {
            replay(devices, &gens, &mut Tracer::new(false))
        };
        out.check_all(points == reference, "replayed points equal the sweep's");
        layers.counters = Some(counters);
        Ok(points.len() as f64 / secs)
    })?;
    let busy = tr.layer(Layer::Sweep).busy_s;
    layers.plan_share = tr.busy_under_s(Layer::Plan, Layer::Sweep) / busy;
    layers.synth_share = tr.busy_under_s(Layer::Synth, Layer::Sweep) / busy;
    layers.plan = tr.layer(Layer::Plan);
    layers.synth = tr.layer(Layer::Synth);
    layers.geometry = tr.layer(Layer::Geometry);
    layers.report(out);
    Ok(())
}
