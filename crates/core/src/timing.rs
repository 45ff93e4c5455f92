//! Model-evaluation timing (the cost-model side of Table VIII).
//!
//! Table VIII's point is that the cost models replace a minutes-long
//! synthesis + implementation run with an evaluation that is effectively
//! free ("less than 5 minutes in all cases" including synthesis; the
//! formula evaluation itself is instantaneous). This module measures the
//! actual evaluation cost of the models on this host so the `table8` bench
//! can report model-vs-flow wall times on the same substrate.

use crate::error::CostError;
use crate::search::{plan_prr_cached, PlanScratch, PrrPlan};
use fabric::{Device, DeviceGeometry};
use serde::Serialize;
use std::time::{Duration, Instant};
use synth::SynthReport;

/// Wall-clock measurement of repeated cost-model evaluations.
#[derive(Debug, Clone, Serialize)]
pub struct ModelTiming {
    /// Number of evaluations performed.
    pub evaluations: u32,
    /// Total elapsed wall time of the evaluations.
    pub total: Duration,
    /// Time to build the device's composition index, paid once per device
    /// and excluded from `total`.
    pub index_build: Duration,
}

impl ModelTiming {
    /// Mean time per evaluation.
    pub fn per_evaluation(&self) -> Duration {
        if self.evaluations == 0 {
            Duration::ZERO
        } else {
            self.total / self.evaluations
        }
    }
}

/// Run the full Fig. 1 planning `iterations` times and measure it.
///
/// The device's composition index is built once, timed on its own, and
/// shared by every evaluation, so `total` measures the model — Eqs. 2–23
/// and the window search over the index — not the index construction.
/// Returns the last plan alongside the timing so callers can report both.
pub fn time_model(
    report: &SynthReport,
    device: &Device,
    iterations: u32,
) -> Result<(PrrPlan, ModelTiming), CostError> {
    assert!(iterations >= 1);
    let build = Instant::now();
    let geometry = DeviceGeometry::new(device);
    let index_build = build.elapsed();
    let mut scratch = PlanScratch::default();
    let start = Instant::now();
    let mut plan = plan_prr_cached(report, device, &geometry, &mut scratch)?;
    for _ in 1..iterations {
        plan = plan_prr_cached(report, device, &geometry, &mut scratch)?;
    }
    let total = start.elapsed();
    Ok((
        plan,
        ModelTiming {
            evaluations: iterations,
            total,
            index_build,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric::database::xc5vlx110t;
    use fabric::Family;
    use synth::PaperPrm;

    #[test]
    fn timing_counts_and_divides() {
        let device = xc5vlx110t();
        let report = PaperPrm::Sdram.synth_report(Family::Virtex5);
        let (plan, timing) = time_model(&report, &device, 10).unwrap();
        assert_eq!(timing.evaluations, 10);
        assert!(timing.per_evaluation() <= timing.total);
        assert_eq!(plan.organization.height, 1);
        assert_eq!(plan, crate::plan_prr(&report, &device).unwrap());
    }

    /// The paper's claim at our scale: one model evaluation is far under a
    /// millisecond, i.e. orders of magnitude below any synthesis run.
    #[test]
    fn model_evaluation_is_fast() {
        let device = xc5vlx110t();
        let report = PaperPrm::Mips.synth_report(Family::Virtex5);
        let (_, timing) = time_model(&report, &device, 100).unwrap();
        assert!(
            timing.per_evaluation() < Duration::from_millis(5),
            "evaluation took {:?}",
            timing.per_evaluation()
        );
    }

    #[test]
    fn zero_division_guard() {
        let t = ModelTiming {
            evaluations: 0,
            total: Duration::from_secs(1),
            index_build: Duration::ZERO,
        };
        assert_eq!(t.per_evaluation(), Duration::ZERO);
    }
}
