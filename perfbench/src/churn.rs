//! `churn`: the online layout manager. Each round simulates a fixed set
//! of heavy-tailed arrival streams (`Workload::generate_heavy_tailed`,
//! 24 modules, base scale 400) on the xc5vlx110t through
//! `layout::simulate_layout` with `DefragPolicy::Always` and a depth-3
//! multi-move defrag search. No engine work, no emission.
//!
//! The traced run wraps each `simulate_layout` call in a span and reads
//! the defrag2 and allocation counters the layout crate records into
//! `prcost::Metrics::global()`.

use crate::layers::Layers;
use crate::trace::{Layer, Tracer, ROOT};
use crate::{
    alternate_replays, derive_seed, measured_rounds, median, peak_rss_mib, timed_setups, Args,
    Outcome,
};
use prfpga::bitstream::{generate, relocate, BitstreamSpec};
use prfpga::fabric::{self, Device, Family, Window};
use prfpga::layout::{simulate_layout, DefragPolicy, LayoutConfig, LayoutReport, RelocationEvent};
use prfpga::multitask::Workload;
use prfpga::prcost::{bitstream_size_bytes, Metrics, MetricsSnapshot};
use std::time::Instant;

/// Arrival streams per round, each from its own derived seed.
const EPISODES: u64 = 1_600;
/// Streams per timed batch. Stream cost is heavy-tailed (a few
/// fragmented streams dominate a batch), so throughput is the median
/// over batches rather than one total.
const BATCH: usize = 100;
/// Arrivals per stream.
const ARRIVALS: u32 = 100;
/// Streams per traced replay pass: a slice of the round, so a traced run
/// alternates several passes.
const TRACE_STREAMS: usize = 4 * BATCH;
/// Relocations per stream replayed through `bitstream::relocate`.
const RELOCATE_SAMPLE: usize = 4;
/// Set-ups timed per round; one generates every stream of the round.
const SETUPS_PER_ROUND: usize = 4;

fn config() -> LayoutConfig {
    LayoutConfig {
        policy: DefragPolicy::Always,
        depth: 3,
        ..LayoutConfig::default()
    }
}

fn workloads(seed: u64) -> Vec<Workload> {
    (0..EPISODES)
        .map(|e| {
            Workload::generate_heavy_tailed(
                derive_seed(seed, e),
                Family::Virtex5,
                ARRIVALS,
                24,
                400,
                100_000,
                400_000,
            )
        })
        .collect()
}

/// Check one stream's report: every arrival decided once, relocation
/// time the sum of the logged transfers, each logged transfer priced on
/// the moved module's Eq. 18 bytes plus its context, and a sample of
/// moves valid through the real relocator (there and back again).
fn check_report(device: &Device, report: &LayoutReport, out: &mut Outcome) {
    let icap = config().icap;
    let decided = report.admitted + report.rejected_capacity + report.rejected_fragmentation;
    out.check(
        decided == ARRIVALS,
        u64::from(ARRIVALS),
        "admitted + rejected equals arrivals",
    );
    let logged: u64 = report.relocation_log.iter().map(|e| e.transfer_ns).sum();
    out.check(
        logged == report.relocation_ns,
        u64::from(ARRIVALS),
        "relocation_ns equals the summed logged transfers",
    );
    for ev in &report.relocation_log {
        let priced = ev.bytes == bitstream_size_bytes(&ev.organization) + ev.context_bytes
            && ev.transfer_ns == icap.transfer_time(ev.bytes).as_nanos() as u64;
        out.check(priced, 1, "relocation priced on Eq. 18 bytes");
    }
    for ev in report.relocation_log.iter().take(RELOCATE_SAMPLE) {
        out.check(
            replays(device, ev),
            1,
            "logged move replays through relocate",
        );
    }
}

fn replays(device: &Device, ev: &RelocationEvent) -> bool {
    let width = ev.organization.width() as usize;
    let window = |col: u32, row: u32| {
        let cols = device.columns().get(col as usize..col as usize + width)?;
        Some(Window {
            start_col: col as usize,
            width: width as u32,
            row,
            height: ev.organization.height,
            columns: cols.to_vec(),
        })
    };
    let (Some(from), Some(to)) = (
        window(ev.from_col, ev.from_row),
        window(ev.to_col, ev.to_row),
    ) else {
        return false;
    };
    let spec = BitstreamSpec::from_plan(device.name(), &ev.module, ev.organization, &from);
    let Ok(bs) = generate(&spec) else {
        return false;
    };
    relocate(&bs, device, &to)
        .and_then(|moved| relocate(&moved, device, &from))
        .is_ok_and(|back| back.words == bs.words)
}

/// Run the `churn` workload.
pub fn run(args: &Args, out: &mut Outcome) -> Result<(), String> {
    let cfg = config();
    let mut rates = Vec::new();
    let mut setups = Vec::new();
    let mut reference: Vec<LayoutReport> = Vec::new();
    let mut device = None;
    measured_rounds(args, |_| {
        let (dev, wls) = timed_setups(SETUPS_PER_ROUND, &mut setups, || {
            let dev = fabric::device_by_name("xc5vlx110t").map_err(|e| e.to_string())?;
            Ok((dev, workloads(args.seed)))
        })?;
        let mut reports = Vec::with_capacity(wls.len());
        for batch in wls.chunks(BATCH) {
            let t = Instant::now();
            reports.extend(batch.iter().map(|wl| simulate_layout(&dev, wl, &cfg)));
            let secs = t.elapsed().as_secs_f64();
            rates.push(batch.iter().map(|w| w.tasks.len()).sum::<usize>() as f64 / secs);
        }
        let n: u64 = wls.iter().map(|w| w.tasks.len() as u64).sum();
        out.attempted += n;
        if reference.is_empty() {
            reference = reports;
        } else {
            out.check(
                reports == reference,
                n,
                "layout reports repeat across rounds of one seed",
            );
        }
        device = Some(dev);
        Ok(())
    })?;
    let rss = peak_rss_mib();
    let device = device.ok_or("no round ran")?;
    for report in &reference {
        check_report(&device, report, out);
    }

    if args.trace {
        return trace(args, &device, &reference, out);
    }
    let admitted: u64 = reference.iter().map(|r| u64::from(r.admitted)).sum();
    let direct: u64 = reference
        .iter()
        .map(|r| u64::from(r.admitted - r.defrag_admissions))
        .sum();
    let wait: u64 = reference.iter().map(|r| r.total_wait_ns).sum();
    out.metric("items_per_s", median(&rates), "1/s");
    out.metric("setup_s", median(&setups), "s");
    out.metric("peak_rss_mib", rss, "MiB");
    out.metric("sim_wait_us", wait as f64 / admitted as f64 / 1e3, "us");
    out.metric("sim_reuse_ratio", direct as f64 / admitted as f64, "ratio");
    out.metric(
        "sim_admit_ratio",
        admitted as f64 / (EPISODES * u64::from(ARRIVALS)) as f64,
        "ratio",
    );
    Ok(())
}

fn stage(snap: &MetricsSnapshot, name: &str) -> (u64, u64) {
    snap.stages
        .iter()
        .find(|s| s.name == name)
        .map_or((0, 0), |s| (s.count, s.total_ns))
}

/// The traced run: alternate untraced and traced passes over the round's
/// first [`TRACE_STREAMS`] streams; per-layer numbers come from the
/// traced passes' spans and the global layout counters they moved.
fn trace(
    args: &Args,
    device: &Device,
    reference: &[LayoutReport],
    out: &mut Outcome,
) -> Result<(), String> {
    let cfg = config();
    let mut wls = workloads(args.seed);
    wls.truncate(TRACE_STREAMS);
    let reference = &reference[..TRACE_STREAMS];
    let mut tr = Tracer::new(true);
    let mut layers = Layers::default();
    let n: u64 = wls.iter().map(|w| w.tasks.len() as u64).sum();
    layers.trace_overhead_pct = alternate_replays(args, |traced| {
        let before = Metrics::global().snapshot();
        let t = Instant::now();
        let reports: Vec<LayoutReport> = if traced {
            wls.iter()
                .map(|wl| tr.span(Layer::LayoutSim, ROOT, || simulate_layout(device, wl, &cfg)))
                .collect()
        } else {
            wls.iter()
                .map(|wl| simulate_layout(device, wl, &cfg))
                .collect()
        };
        let rate = n as f64 / t.elapsed().as_secs_f64();
        let after = Metrics::global().snapshot();
        out.check_all(
            reports == reference,
            "traced reports equal the untraced run's",
        );
        if !traced {
            return Ok(rate);
        }
        layers.passes += 1;
        let delta = |name: &str| after.labeled_value(name) - before.labeled_value(name);
        let (c0, ns0) = stage(&before, "layout:defrag2_plan");
        let (c1, ns1) = stage(&after, "layout:defrag2_plan");
        layers.defrag2_calls += c1 - c0;
        layers.defrag2_busy_s += (ns1 - ns0) as f64 / 1e9;
        layers.defrag2_planned += delta("layout:defrag2_plans");
        layers.defrag2_executed += delta("layout:defrag2_executed");
        let fails = delta("layout:alloc_fail_capacity") + delta("layout:alloc_fail_fragmentation");
        layers.alloc_fails += fails;
        layers.allocs += delta("layout:allocs") + fails;
        Ok(rate)
    })?;
    layers.layout_sim = tr.layer(Layer::LayoutSim);
    layers.relocations = reference.iter().map(|r| u64::from(r.relocations)).sum();
    layers.relocation_ms = reference.iter().map(|r| r.relocation_ns as f64 / 1e6).sum();
    layers.peak_fragmentation = reference
        .iter()
        .map(|r| r.peak_fragmentation)
        .fold(0.0, f64::max);
    layers.report(out);
    Ok(())
}
