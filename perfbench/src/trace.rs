//! In-memory span recorder for the traced runs.
//!
//! The benchmark wraps each call it makes into a library layer in a
//! span: layer, duration and the span that caused it. Spans stay
//! in memory until the run ends, when [`Tracer::layer`] folds them into
//! per-layer counts, busy time and quantiles. A disabled tracer runs the
//! wrapped call and records nothing, so the same replay loop serves as
//! the untraced twin that `trace_overhead_pct` is measured against.

use std::time::Instant;

/// The layer boundaries the benchmark records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// One pipeline chunk on the replay worker (parent of the per-task
    /// layer spans below).
    Chunk,
    /// `prcost::Engine::synthesize`.
    Synth,
    /// `prcost::Engine::geometry`.
    Geometry,
    /// `prcost::Engine::plan_arc` / `plan_with_geometry`.
    Plan,
    /// `bitstream::emit_arc_into`.
    Emit,
    /// `multitask::simulate_with_scratch`.
    Sim,
    /// One whole design-space replay (parent of its synth/geometry/plan
    /// spans).
    Sweep,
    /// `layout::simulate_layout`.
    LayoutSim,
}

/// Sentinel parent id for root spans.
pub const ROOT: u32 = u32::MAX;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
struct Span {
    layer: Layer,
    parent: u32,
    dur_ns: u64,
}

/// A span opened with [`Tracer::open`], until [`Tracer::close`].
pub struct Open {
    /// The span's id, for the spans it causes to name as their parent.
    pub id: u32,
    start: Option<Instant>,
}

/// Aggregate of every span of one layer.
#[derive(Debug, Default, Clone, Copy)]
pub struct LayerStats {
    /// Spans recorded.
    pub calls: u64,
    /// Summed span duration, seconds.
    pub busy_s: f64,
    /// Median span duration, microseconds.
    pub p50_us: f64,
    /// 99th-percentile span duration, microseconds.
    pub p99_us: f64,
}

/// Span recorder; see the module docs.
pub struct Tracer {
    on: bool,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder that keeps spans (`on`) or only runs the wrapped calls.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            spans: Vec::new(),
        }
    }

    /// Open a span that later spans name as their parent; close it with
    /// [`Tracer::close`]. Its id is [`ROOT`] when tracing is off.
    pub fn open(&mut self, layer: Layer, parent: u32) -> Open {
        if !self.on {
            return Open {
                id: ROOT,
                start: None,
            };
        }
        self.spans.push(Span {
            layer,
            parent,
            dur_ns: 0,
        });
        Open {
            id: (self.spans.len() - 1) as u32,
            start: Some(Instant::now()),
        }
    }

    /// Close a span opened with [`Tracer::open`].
    pub fn close(&mut self, open: Open) {
        if let Some(start) = open.start {
            self.spans[open.id as usize].dur_ns = start.elapsed().as_nanos() as u64;
        }
    }

    /// Run `f` inside a span of `layer` caused by `parent`.
    #[inline]
    pub fn span<T>(&mut self, layer: Layer, parent: u32, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start = Instant::now();
        let out = f();
        let dur_ns = start.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            layer,
            parent,
            dur_ns,
        });
        out
    }

    /// Count, busy time and duration quantiles of `layer`'s spans.
    pub fn layer(&self, layer: Layer) -> LayerStats {
        let mut durs: Vec<u64> = self
            .spans
            .iter()
            .filter(|s| s.layer == layer)
            .map(|s| s.dur_ns)
            .collect();
        if durs.is_empty() {
            return LayerStats::default();
        }
        durs.sort_unstable();
        let q = |p: f64| durs[((durs.len() - 1) as f64 * p).round() as usize] as f64 / 1e3;
        LayerStats {
            calls: durs.len() as u64,
            busy_s: durs.iter().sum::<u64>() as f64 / 1e9,
            p50_us: q(0.50),
            p99_us: q(0.99),
        }
    }

    /// Busy time of the `layer` spans caused by a `parent` span, seconds
    /// (e.g. plan calls inside pipeline chunks, not in pool setup).
    pub fn busy_under_s(&self, layer: Layer, parent: Layer) -> f64 {
        let ns: u64 = self
            .spans
            .iter()
            .filter(|s| {
                s.layer == layer
                    && s.parent != ROOT
                    && self.spans[s.parent as usize].layer == parent
            })
            .map(|s| s.dur_ns)
            .sum();
        ns as f64 / 1e9
    }
}
