//! Sizing one PRR shared by several time-multiplexed PRMs.
//!
//! The paper (§III.B): *"For multiple PRMs that share the same PRR, each
//! PRM has a unique H, and the largest `W_CLB`, `W_DSP`, and `W_BRAM`
//! across all of the PRR's associated PRMs dictates the number of CLB, DSP,
//! and BRAM columns in the PRR."* Operationally: at each candidate height
//! the shared PRR takes the per-kind column maximum over its PRMs, and the
//! height is chosen (as in the single-PRM flow) to minimize the predicted
//! partial bitstream of the *shared* organization.

use crate::error::CostError;
use crate::prr::Utilization;
use crate::requirements::PrrRequirements;
use crate::search::PrrPlan;
use fabric::Device;
use serde::{Deserialize, Serialize};
use synth::SynthReport;

/// A shared-PRR plan: the common organization plus each PRM's utilization
/// of it (the per-PRM internal fragmentation a designer trades off).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SharedPrrPlan {
    /// The shared PRR (sized by the component-wise worst case).
    pub plan: PrrPlan,
    /// Per-PRM utilization of the shared PRR, in input order.
    pub per_prm_utilization: Vec<Utilization>,
}

/// Plan one PRR to host all `reports` (time-multiplexed).
pub fn plan_shared_prr(
    reports: &[SynthReport],
    device: &Device,
) -> Result<SharedPrrPlan, CostError> {
    if reports.is_empty() {
        return Err(CostError::NoPrms);
    }
    for r in reports {
        if r.family != device.family() {
            return Err(CostError::FamilyMismatch {
                report: r.family,
                device: device.family(),
            });
        }
    }
    let reqs: Vec<PrrRequirements> = reports.iter().map(PrrRequirements::from_report).collect();
    let combined = reqs.iter().skip(1).fold(reqs[0], |acc, r| acc.max(r));

    // Per-kind maximum of each PRM's organization at each height is the
    // organization of the component-wise max requirements, since
    // Eqs. 2/3/5 are monotone in the numerator (and Eq. 4's row constraint
    // must hold for the max DSP_req). So the shared search is the single-
    // PRM search over the combined requirements.
    let plan = crate::search::plan_prr_from_requirements(&combined, device)?;
    let per_prm_utilization = reqs
        .iter()
        .map(|r| plan.organization.utilization(r))
        .collect();
    Ok(SharedPrrPlan {
        plan,
        per_prm_utilization,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric::database::{xc5vlx110t, xc6vlx75t};
    use fabric::Family;
    use synth::PaperPrm;

    fn reports(fam: Family) -> Vec<SynthReport> {
        PaperPrm::ALL.iter().map(|p| p.synth_report(fam)).collect()
    }

    #[test]
    fn shared_prr_covers_every_prm() {
        let device = xc6vlx75t();
        let rs = reports(Family::Virtex6);
        let shared = plan_shared_prr(&rs, &device).unwrap();
        let avail = shared.plan.organization.available();
        for r in &rs {
            let req = PrrRequirements::from_report(r);
            assert!(avail.clb() >= req.clb_req, "{}", r.module);
            assert!(avail.dsp() >= req.dsp_req, "{}", r.module);
            assert!(avail.bram() >= req.bram_req, "{}", r.module);
        }
        assert_eq!(shared.per_prm_utilization.len(), 3);
    }

    #[test]
    fn shared_prr_at_least_as_large_as_each_individual() {
        let device = xc6vlx75t();
        let rs = reports(Family::Virtex6);
        let shared = plan_shared_prr(&rs, &device).unwrap();
        for r in &rs {
            let single = crate::search::plan_prr(r, &device).unwrap();
            assert!(
                shared.plan.bitstream_bytes >= single.bitstream_bytes,
                "{} single plan larger than shared",
                r.module
            );
        }
    }

    /// Sharing a PRR between FIR and SDRAM on the LX110T: the DSP row
    /// constraint (FIR needs 32 DSPs from the single column) still binds,
    /// so H >= 4.
    #[test]
    fn shared_prr_respects_worst_case_dsp_rows() {
        let device = xc5vlx110t();
        let rs = vec![
            PaperPrm::Fir.synth_report(Family::Virtex5),
            PaperPrm::Sdram.synth_report(Family::Virtex5),
        ];
        let shared = plan_shared_prr(&rs, &device).unwrap();
        assert!(shared.plan.organization.height >= 4);
        assert_eq!(shared.plan.organization.dsp_cols, 1);
    }

    /// All three paper PRMs sharing one PRR on the LX110T: FIR's 32 DSPs
    /// from the single DSP column force H >= 4 (Eq. 4), and MIPS's BRAMs
    /// force a BRAM column into the same window. The trace records the
    /// Eq. 4 rejections for H = 1..3.
    #[test]
    fn shared_prr_all_three_on_lx110t() {
        let device = xc5vlx110t();
        let shared = plan_shared_prr(&reports(Family::Virtex5), &device).unwrap();
        let org = &shared.plan.organization;
        assert!(org.height >= 4);
        assert_eq!(org.dsp_cols, 1);
        assert!(org.bram_cols >= 1);
        let avail = org.available();
        assert!(avail.clb() >= 328 && avail.dsp() >= 32 && avail.bram() >= 6);
        assert!(shared
            .plan
            .trace
            .candidates
            .iter()
            .take(3)
            .all(|c| matches!(
                c.outcome,
                crate::search::CandidateOutcome::DspRowsInsufficient { min_height: 4 }
            )));
    }

    #[test]
    fn empty_input_is_rejected() {
        let device = xc5vlx110t();
        assert!(matches!(
            plan_shared_prr(&[], &device),
            Err(CostError::NoPrms)
        ));
    }

    #[test]
    fn mixed_families_are_rejected() {
        let device = xc5vlx110t();
        let rs = vec![
            PaperPrm::Fir.synth_report(Family::Virtex5),
            PaperPrm::Mips.synth_report(Family::Virtex6),
        ];
        assert!(matches!(
            plan_shared_prr(&rs, &device),
            Err(CostError::FamilyMismatch { .. })
        ));
    }

    #[test]
    fn singleton_shared_matches_single_plan() {
        let device = xc5vlx110t();
        let r = PaperPrm::Sdram.synth_report(Family::Virtex5);
        let shared = plan_shared_prr(std::slice::from_ref(&r), &device).unwrap();
        let single = crate::search::plan_prr(&r, &device).unwrap();
        assert_eq!(shared.plan.organization, single.organization);
        assert_eq!(shared.plan.bitstream_bytes, single.bitstream_bytes);
    }
}
