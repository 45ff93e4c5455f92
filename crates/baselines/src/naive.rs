//! Naive PRR sizing strategies.
//!
//! What a designer without the paper's Fig. 1 search might do: fix the PRR
//! height a priori (full device height, or a single row, or the squarest
//! feasible aspect) and derive column counts from Eqs. 2–5 at that height.
//! Benches compare the resulting bitstream sizes and reconfiguration times
//! against the model-planned PRR, quantifying the cost of skipping the
//! search.

use fabric::Device;
use prcost::prr::{OrganizationError, PrrOrganization};
use prcost::{bitstream_size_bytes, CostError, PrrRequirements};
use serde::{Deserialize, Serialize};

/// A fixed-height sizing strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum NaiveStrategy {
    /// Use the full device height (maximal time-multiplexing headroom,
    /// maximal bitstream).
    FullHeight,
    /// Always use one fabric row (fails when a single-DSP-column device
    /// needs more DSP rows).
    SingleRow,
    /// Pick the feasible height whose footprint is closest to square
    /// (aspect ratio of H rows x W columns nearest 1 in CLB units).
    Squarish,
}

impl NaiveStrategy {
    /// All strategies.
    pub const ALL: [NaiveStrategy; 3] = [
        NaiveStrategy::FullHeight,
        NaiveStrategy::SingleRow,
        NaiveStrategy::Squarish,
    ];

    /// Strategy name for reports.
    pub fn name(self) -> &'static str {
        match self {
            NaiveStrategy::FullHeight => "full-height",
            NaiveStrategy::SingleRow => "single-row",
            NaiveStrategy::Squarish => "squarish",
        }
    }
}

/// Result of a naive plan.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NaivePlan {
    /// Strategy used.
    pub strategy: NaiveStrategy,
    /// Chosen organization.
    pub organization: PrrOrganization,
    /// Predicted bitstream size (Eq. 18) for comparison with the model
    /// plan.
    pub bitstream_bytes: u64,
}

/// Size a PRR for `req` on `device` with a naive fixed-height strategy.
///
/// Physical placeability is still enforced (a plan nobody can floorplan is
/// useless as a baseline).
pub fn naive_plan(
    strategy: NaiveStrategy,
    req: &PrrRequirements,
    device: &Device,
) -> Result<NaivePlan, CostError> {
    let single_dsp = device.dsp_column_count() == 1;
    let feasible = |h: u32| -> Option<PrrOrganization> {
        match PrrOrganization::for_height(req, h, single_dsp) {
            Ok(org) if device.has_window(&org.window_request()) => Some(org),
            Ok(_)
            | Err(OrganizationError::SingleDspColumnNeedsRows { .. })
            | Err(OrganizationError::CountOverflow)
            | Err(OrganizationError::EmptyRequirements) => None,
        }
    };

    let org = match strategy {
        NaiveStrategy::FullHeight => feasible(device.rows()),
        NaiveStrategy::SingleRow => feasible(1),
        NaiveStrategy::Squarish => {
            // Aspect = (H * CLB_col) rows of CLBs vs W columns; CLB columns
            // are ~arrays of 1x1 cells, so compare H*CLB_col against
            // W * aspect constant ~ W.
            let clb_col = f64::from(req.family.params().clb_col);
            (1..=device.rows()).filter_map(feasible).min_by(|a, b| {
                let ra = (f64::from(a.height) * clb_col / f64::from(a.width().max(1)))
                    .ln()
                    .abs();
                let rb = (f64::from(b.height) * clb_col / f64::from(b.width().max(1)))
                    .ln()
                    .abs();
                ra.total_cmp(&rb)
            })
        }
    };

    match org {
        Some(org) => Ok(NaivePlan {
            strategy,
            organization: org,
            bitstream_bytes: bitstream_size_bytes(&org),
        }),
        None => Err(CostError::NoFeasiblePlacement {
            device: device.name().to_string(),
            trace: prcost::SearchTrace {
                device: device.name().to_string(),
                candidates: vec![],
            },
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric::database::{xc5vlx110t, xc6vlx75t};
    use fabric::Family;
    use synth::PaperPrm;

    fn req(prm: PaperPrm, fam: Family) -> PrrRequirements {
        PrrRequirements::from_report(&prm.synth_report(fam))
    }

    /// The model's plan is never worse than any naive strategy — by
    /// construction it minimizes the predicted bitstream over all heights.
    #[test]
    fn model_plan_dominates_naive_strategies() {
        for (device, fam) in [
            (xc5vlx110t(), Family::Virtex5),
            (xc6vlx75t(), Family::Virtex6),
        ] {
            for prm in PaperPrm::ALL {
                let r = req(prm, fam);
                let model = prcost::search::plan_prr_from_requirements(&r, &device).unwrap();
                for strat in NaiveStrategy::ALL {
                    if let Ok(naive) = naive_plan(strat, &r, &device) {
                        assert!(
                            model.bitstream_bytes <= naive.bitstream_bytes,
                            "{prm:?}/{fam}/{}: model {} vs naive {}",
                            strat.name(),
                            model.bitstream_bytes,
                            naive.bitstream_bytes
                        );
                    }
                }
            }
        }
    }

    /// Full-height PRRs on the 8-row LX110T inflate the SDRAM bitstream by
    /// roughly the row count.
    #[test]
    fn full_height_inflation_factor() {
        let device = xc5vlx110t();
        let r = req(PaperPrm::Sdram, Family::Virtex5);
        let model = prcost::search::plan_prr_from_requirements(&r, &device).unwrap();
        let naive = naive_plan(NaiveStrategy::FullHeight, &r, &device).unwrap();
        let factor = naive.bitstream_bytes as f64 / model.bitstream_bytes as f64;
        assert!(factor > 2.0, "inflation factor {factor}");
    }

    /// Single-row sizing fails for FIR on the LX110T (needs 4 DSP rows
    /// from the single DSP column) — the model handles it, the naive
    /// strategy cannot.
    #[test]
    fn single_row_fails_where_eq4_binds() {
        let device = xc5vlx110t();
        let r = req(PaperPrm::Fir, Family::Virtex5);
        assert!(naive_plan(NaiveStrategy::SingleRow, &r, &device).is_err());
        assert!(prcost::search::plan_prr_from_requirements(&r, &device).is_ok());
    }

    #[test]
    fn squarish_picks_a_feasible_height() {
        let device = xc5vlx110t();
        let r = req(PaperPrm::Mips, Family::Virtex5);
        let plan = naive_plan(NaiveStrategy::Squarish, &r, &device).unwrap();
        assert!(plan.organization.height >= 1);
        assert!(device.has_window(&plan.organization.window_request()));
    }
}
