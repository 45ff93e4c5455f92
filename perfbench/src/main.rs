//! The prfpga benchmark: one command, four workloads.
//!
//! ```text
//! perfbench --workload stream|render|explore|churn --seed N --seconds S --trace 0|1
//! ```
//!
//! Each workload drives the library's public entry points with inputs
//! made from `--seed`, repeats a fixed round of work until `--seconds`
//! are spent, checks the outputs, and prints one JSON object as the last
//! line of standard output: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics of a separate traced replay with `--trace 1`. See
//! `perfbench/README.md` for what each workload and metric is for.

mod churn;
mod explore;
mod layers;
mod stream;
mod trace;

use std::fmt::Write as _;
use std::time::Instant;

/// One reported metric.
pub struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

/// Accumulates metrics and the correctness verdict of one run.
#[derive(Default)]
pub struct Outcome {
    /// Items attempted in the measured rounds.
    pub attempted: u64,
    failed: u64,
    /// A whole-run check failed: every attempted item counts as failed.
    poisoned: bool,
    metrics: Vec<Metric>,
}

impl Outcome {
    /// Record a metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// A check covering `items` items; on failure they count as failed.
    pub fn check(&mut self, ok: bool, items: u64, what: &str) {
        if !ok {
            eprintln!("perfbench: check failed: {what}");
            self.failed += items;
        }
    }

    /// A check covering the whole run (paper anchors, replay identity,
    /// determinism): on failure every attempted item counts as failed.
    pub fn check_all(&mut self, ok: bool, what: &str) {
        if !ok {
            eprintln!("perfbench: check failed: {what}");
            self.poisoned = true;
        }
    }

    /// Items that failed a check.
    pub fn failed(&self) -> u64 {
        if self.poisoned {
            self.attempted.max(1)
        } else {
            self.failed.min(self.attempted)
        }
    }

    /// `1 - failed / attempted`: the share of items that passed.
    pub fn pass_ratio(&self) -> f64 {
        1.0 - self.failed() as f64 / self.attempted.max(1) as f64
    }

    fn to_json(&self) -> String {
        let correct = self.failed() == 0 && self.attempted > 0;
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.attempted.max(1),
            self.failed()
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// Parsed command line.
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed; the same seed gives the same inputs.
    pub seed: u64,
    /// Seconds one run measures.
    pub seconds: f64,
    /// Print per-layer metrics of a traced run instead of end-to-end ones.
    pub trace: bool,
}

fn number<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("bad value for {flag}: {value}"))
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number(flag, value)?),
            "--seconds" => seconds = Some(number(flag, value)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.unwrap_or(20.0);
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err(format!("--seconds must be in (0, 120], got {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Worker threads `run_pipeline` picks for `workers: 0`, its default:
/// `nproc - 1`, clamped to 1..=16. With the producer that is `nproc`
/// threads on a host with 2 to 17 CPUs.
pub fn pipeline_workers() -> usize {
    nproc().saturating_sub(1).clamp(1, 16)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// `VmHWM` of this process in MiB (0 where procfs is missing).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One splitmix64 output for generator state `z` (the finalizer applied
/// to `z + γ`).
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Independent 64-bit seed number `stream` derived from the run seed.
/// Distinct `(seed, stream)` pairs give seeds that differ in their upper
/// bits, so library generators that OR in bit 0 never alias them.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    mix64(mix64(seed) ^ mix64(stream.wrapping_add(0x5eed)))
}

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Run `round` until `seconds` are spent, at least `min` and at most
/// `max` times; the loop stops before a round that would overrun.
fn repeat_for(
    seconds: f64,
    min: usize,
    max: usize,
    mut round: impl FnMut(usize) -> Result<(), String>,
) -> Result<(), String> {
    let start = Instant::now();
    let mut longest = 0.0f64;
    for n in 0..max {
        if n >= min && start.elapsed().as_secs_f64() + longest > seconds {
            break;
        }
        let t = Instant::now();
        round(n)?;
        longest = longest.max(t.elapsed().as_secs_f64());
    }
    Ok(())
}

/// Run `setup` `n` times (at least once), push each run's seconds onto
/// `times` and return the last result. Reporting the median over several
/// set-ups per round keeps `setup_s` steady when one set-up takes
/// well under a millisecond.
pub fn timed_setups<T>(
    n: usize,
    times: &mut Vec<f64>,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<T, String> {
    let mut last = None;
    for _ in 0..n.max(1) {
        // Drop the previous result first, so `peak_rss_mib` never holds
        // two set-ups at once.
        drop(last.take());
        let t = Instant::now();
        let value = setup()?;
        times.push(t.elapsed().as_secs_f64());
        last = Some(value);
    }
    last.ok_or_else(|| "no set-up ran".to_string())
}

/// Share of `--seconds` for the measured untraced rounds of a traced
/// run; the alternating replays get [`REPLAY_SHARE`].
const ROUNDS_SHARE: f64 = 0.3;
const REPLAY_SHARE: f64 = 0.6;
/// Cap on traced replay passes, bounding the spans kept in memory.
const MAX_TRACED_PASSES: usize = 20;

/// The measured untraced rounds: all of `--seconds` (at least three
/// rounds), or [`ROUNDS_SHARE`] of it (at least one) when a traced replay
/// follows.
pub fn measured_rounds(
    args: &Args,
    round: impl FnMut(usize) -> Result<(), String>,
) -> Result<(), String> {
    if args.trace {
        repeat_for(args.seconds * ROUNDS_SHARE, 1, usize::MAX, round)
    } else {
        repeat_for(args.seconds, 3, usize::MAX, round)
    }
}

/// After one untraced warm-up pass, alternate untraced and traced
/// replay passes (`pass(traced)` returns items per host second) and
/// return the tracing overhead: untraced over traced median throughput,
/// minus one, in percent.
pub fn alternate_replays(
    args: &Args,
    mut pass: impl FnMut(bool) -> Result<f64, String>,
) -> Result<f64, String> {
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    repeat_for(
        args.seconds * REPLAY_SHARE,
        3,
        1 + 2 * MAX_TRACED_PASSES,
        |i| {
            let on = i % 2 == 0 && i > 0;
            let rate = pass(on)?;
            if i > 0 {
                if on { &mut traced } else { &mut plain }.push(rate);
            }
            Ok(())
        },
    )?;
    Ok((median(&plain) / median(&traced) - 1.0) * 100.0)
}

/// The paper's Table V anchors through the public API: FIR on the
/// LX110T plans to H=5 and 83 040 B, SDRAM on the LX75T to H=1 and
/// 23 792 B.
pub fn check_paper_anchors(out: &mut Outcome) {
    use prfpga::reference as r;
    let anchors = [
        (
            prfpga::synth::PaperPrm::Fir,
            "xc5vlx110t",
            r::FIR_V5_HEIGHT,
            r::FIR_V5_BITSTREAM_BYTES,
        ),
        (
            prfpga::synth::PaperPrm::Sdram,
            "xc6vlx75t",
            r::SDRAM_V6_HEIGHT,
            r::SDRAM_V6_BITSTREAM_BYTES,
        ),
    ];
    for (prm, device, height, bytes) in anchors {
        let ok = prfpga::fabric::device_by_name(device)
            .ok()
            .and_then(|d| prfpga::evaluate_prm(&prm.synth_report(d.family()), &d).ok())
            .is_some_and(|e| {
                e.plan.organization.height == height
                    && e.plan.bitstream_bytes == bytes
                    && e.bitstream.len_bytes() == bytes
            });
        out.check_all(ok, &format!("paper anchor {prm:?} on {device}"));
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let dispatch = prfpga::bitstream::arch::active();
    println!(
        "{{\"host\": {{\"nproc\": {}, \"cpu_model\": \"{}\", \"crc_kernel\": \"{}\", \"fill_kernel\": \"{}\", \"workers\": {}, \"workload\": \"{}\", \"seed\": {}, \"trace\": {}}}}}",
        nproc(),
        cpu_model().replace(['"', '\\'], ""),
        dispatch.crc.name(),
        dispatch.fill.name(),
        pipeline_workers(),
        args.workload,
        args.seed,
        u8::from(args.trace),
    );
    let mut out = Outcome::default();
    check_paper_anchors(&mut out);
    let result = match args.workload.as_str() {
        "stream" => stream::run(&args, &stream::STREAM, &mut out),
        "render" => stream::run(&args, &stream::RENDER, &mut out),
        "explore" => explore::run(&args, &mut out),
        "churn" => churn::run(&args, &mut out),
        other => Err(format!(
            "unknown workload {other} (stream, render, explore, churn)"
        )),
    };
    if let Err(e) = result {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
    if !args.trace {
        let pass = out.pass_ratio();
        out.metric("pass_ratio", pass, "ratio");
    }
    println!("{}", out.to_json());
}
