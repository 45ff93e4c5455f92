//! The Fig. 1 flow: search device heights for the best feasible PRR.
//!
//! For each candidate height `H` from 1 to the device's row count `R`, the
//! flow recomputes the organization (Eqs. 2–6), checks that the required
//! columns exist contiguously on the device (no IOB/CLK columns inside the
//! span), predicts the partial bitstream size (Eqs. 18–23), and finally
//! selects the candidate with the **smallest predicted bitstream**, breaking
//! ties by smaller `PRR_size` and then smaller `H`. This selection criterion
//! is the one consistent with the paper's reported Table V results — e.g.
//! FIR on the LX110T picks H=5 (bitstream 83 040 B, PRR size 15) over the
//! also-feasible H=4 (90 100 B, size 16); see `DESIGN.md` §6.
//!
//! There is one search. Every window probe is answered by a
//! [`DeviceGeometry`] composition index: the engine, sweep and service
//! reuse one index per device, and the one-shot entry points
//! ([`plan_prr`], [`plan_prr_from_requirements`], [`candidates_for`])
//! build one per call.

use crate::bits::bitstream_size_bytes;
use crate::error::CostError;
use crate::metrics::Metrics;
use crate::prr::{OrganizationError, PrrOrganization, Utilization};
use crate::requirements::PrrRequirements;
use crate::shard::{DeviceEntry, DeviceId, EngineToken};
use fabric::{Device, DeviceGeometry, Window};
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use synth::SynthReport;

/// Cap on the extra DSP columns the padded-window fallback will absorb
/// beyond the Eqs. 2–5 requirement.
///
/// DSP columns are scarce (1–12 per device in the database) and widely
/// separated by CLB columns, so a window forced to swallow many extra DSP
/// columns also swallows the CLB columns between them — which the
/// unbounded CLB-padding axis already covers. The search costs one
/// CLB-list lookup per DSP×BRAM pair, so the cap no longer bounds any
/// real work; it stays because it is part of the planning rule, and
/// dropping it would have to be shown to change no plan first. The
/// padded search debug-asserts, and `padding_caps_lose_no_feasible_plan`
/// in this module's tests verifies, that no database device loses a
/// feasible plan to it.
pub const MAX_PAD_DSP_COLS: u32 = 4;

/// Cap on the extra BRAM columns the padded-window fallback will absorb
/// beyond the Eqs. 2–5 requirement. Same rationale and same no-lost-plans
/// guarantee as [`MAX_PAD_DSP_COLS`].
pub const MAX_PAD_BRAM_COLS: u32 = 4;

/// How a `(W_CLB, W_DSP, W_BRAM)` column composition resolves on a device.
///
/// Window existence is height-independent, and the padded-fallback winner
/// is too (the Eq. 18 bitstream is affine in `H` with height-independent
/// per-row weights, so the `(bytes, pad)` ordering of padding options —
/// ties included — is the same at every height). One resolution therefore
/// serves every candidate height that produces the same base composition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CompResolution {
    /// An exact-composition window exists.
    Exact,
    /// No exact window; the cheapest feasible padding is `pad` extra
    /// `[CLB, DSP, BRAM]` columns.
    Padded {
        /// Winning extra columns per kind.
        pad: [u32; 3],
    },
    /// No window exists even with padding.
    Infeasible,
}

/// Reusable per-worker scratch for the Fig. 1 search.
///
/// Within one plan, each distinct base composition resolves once (an
/// index probe, or one padded-fallback search when no exact window
/// exists) and serves every height that produces it. Across plans, the
/// scratch remembers recently interned devices so a repeat plan against
/// the same engine skips the interner. A fresh `PlanScratch::default()`
/// is always valid — results never depend on scratch contents.
#[derive(Debug, Clone, Default)]
pub struct PlanScratch {
    /// Per-plan composition → resolution cache (linear map: a plan touches
    /// at most `rows` distinct compositions). Cleared at plan start.
    resolutions: Vec<((u32, u32, u32), CompResolution)>,
    /// Cumulative count of padded-fallback searches resolved through
    /// this scratch (never reset; callers read deltas).
    padded_resolutions: u64,
    /// Recently resolved device interns, tagged with the owning engine's
    /// token (see [`EngineToken`]): a repeat plan against the same engine
    /// and device skips the layout hash and the interner's shared read
    /// lock entirely — one structural comparison against the entry's own
    /// device copy. Bounded; purely an accelerator, never authoritative.
    device_cache: Vec<(EngineToken, DeviceId, Arc<DeviceEntry>)>,
}

/// Entries kept in [`PlanScratch`]'s device-resolution cache. Sweeps
/// touch a handful of devices per worker; the cache is scanned linearly
/// so it must stay small.
const DEVICE_CACHE_CAP: usize = 8;

impl PlanScratch {
    /// Cumulative number of padded-fallback resolutions (padded searches)
    /// performed through this scratch. Monotonic; the batch
    /// engine folds per-plan deltas into its metrics registry.
    pub fn padded_resolution_count(&self) -> u64 {
        self.padded_resolutions
    }

    /// The cached intern of `device` under the engine identified by
    /// `token`, if present. Structural equality against the interned copy
    /// keeps a stale or colliding entry from ever resolving wrong.
    pub(crate) fn cached_device(
        &self,
        token: EngineToken,
        device: &Device,
    ) -> Option<(DeviceId, Arc<DeviceEntry>)> {
        self.device_cache
            .iter()
            .find(|(t, _, entry)| *t == token && entry.device == *device)
            .map(|(_, id, entry)| (*id, Arc::clone(entry)))
    }

    /// Remember that `device` interned to `(id, entry)` under the engine
    /// identified by `token`, evicting the oldest entry at capacity.
    pub(crate) fn cache_device(
        &mut self,
        token: EngineToken,
        id: DeviceId,
        entry: &Arc<DeviceEntry>,
    ) {
        if self.device_cache.len() >= DEVICE_CACHE_CAP {
            self.device_cache.remove(0);
        }
        self.device_cache.push((token, id, Arc::clone(entry)));
    }
}

/// Outcome of evaluating one candidate height.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum CandidateOutcome {
    /// A placeable PRR with its predicted bitstream size.
    Feasible {
        /// Organization at this height. When `padded_clb_cols > 0`, its
        /// `clb_cols` already includes the padding.
        organization: PrrOrganization,
        /// Leftmost placement window on the device.
        window: Window,
        /// Predicted `S_bitstream` in bytes.
        bitstream_bytes: u64,
        /// Extra `[CLB, DSP, BRAM]` columns beyond the Eqs. 2–5 counts
        /// that had to be absorbed because no exact-composition window
        /// exists on the device at this height (`[0, 0, 0]` for an exact
        /// fit). Padding is a designer-realistic fallback beyond the
        /// paper's flow, chosen to minimize the padded bitstream; it never
        /// activates for the paper's evaluation points.
        padded_cols: [u32; 3],
    },
    /// Eq. (4) case: a single-DSP-column device needs at least `min_height`
    /// rows to supply the PRM's DSPs.
    DspRowsInsufficient {
        /// Minimum feasible height.
        min_height: u32,
    },
    /// The organization is arithmetically valid but no contiguous column
    /// window with that composition exists on the device.
    NoWindow {
        /// The organization that failed to place.
        organization: PrrOrganization,
    },
    /// A column count or the Eq. (4) minimum height does not fit in
    /// `u32` ([`OrganizationError::CountOverflow`]): no device can host
    /// the organization at this height.
    CountOverflow,
}

/// One row of the Fig. 1 search trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Candidate {
    /// Candidate height `H`.
    pub height: u32,
    /// What happened at this height.
    pub outcome: CandidateOutcome,
}

impl Candidate {
    /// Bitstream size if feasible.
    pub fn bitstream_bytes(&self) -> Option<u64> {
        match &self.outcome {
            CandidateOutcome::Feasible {
                bitstream_bytes, ..
            } => Some(*bitstream_bytes),
            _ => None,
        }
    }
}

/// The complete candidate-by-candidate record of one search.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SearchTrace {
    /// Device searched.
    pub device: String,
    /// One entry per height 1..=R, in order.
    pub candidates: Vec<Candidate>,
}

/// A selected PRR: the model's final answer for one PRM on one device.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PrrPlan {
    /// The requirements that were planned for.
    pub requirements: PrrRequirements,
    /// Chosen organization.
    pub organization: PrrOrganization,
    /// Physical placement (leftmost feasible window, bottom rows).
    pub window: Window,
    /// Predicted partial bitstream size in bytes (Eq. 18).
    pub bitstream_bytes: u64,
    /// Resource utilization of the PRM inside the chosen PRR.
    pub utilization: Utilization,
    /// Full search trace (Fig. 1 reproduction).
    pub trace: SearchTrace,
}

/// Plan the PRR for one synthesis report on `device`.
///
/// ```
/// use fabric::database::xc6vlx75t;
/// use synth::PaperPrm;
///
/// let device = xc6vlx75t();
/// let plan = prcost::plan_prr(&PaperPrm::Sdram.synth_report(device.family()), &device)?;
/// assert_eq!(plan.organization.height, 1);
/// assert_eq!(plan.organization.clb_cols, 2);
/// assert_eq!(plan.bitstream_bytes, 23_792);
/// # Ok::<(), prcost::CostError>(())
/// ```
pub fn plan_prr(report: &SynthReport, device: &Device) -> Result<PrrPlan, CostError> {
    let metrics = Metrics::global();
    metrics.plans.incr();
    let result = metrics.time("plan_prr", || {
        plan_prr_from_requirements(&PrrRequirements::from_report(report), device)
    });
    match &result {
        Ok(_) => metrics.plans_feasible.incr(),
        Err(_) => metrics.plans_infeasible.incr(),
    }
    result
}

/// [`plan_prr`] through a caller-held [`DeviceGeometry`] and a reusable
/// [`PlanScratch`], recording no global metrics (the engine owns its own
/// [`Metrics`] registry and times whole plans around this call).
/// `geometry` must have been derived from `device`.
pub fn plan_prr_cached(
    report: &SynthReport,
    device: &Device,
    geometry: &DeviceGeometry,
    scratch: &mut PlanScratch,
) -> Result<PrrPlan, CostError> {
    plan_requirements_cached(
        &PrrRequirements::from_report(report),
        device,
        geometry,
        scratch,
    )
}

/// [`plan_prr_cached`] from explicit requirements, skipping the synthesis
/// report entirely.
///
/// This is the planning primitive under the memoizing engine and the
/// async planning service: both key their memos on `(requirements,
/// device)` — a plan is a pure function of exactly these inputs — so on a
/// miss they plan from the requirements they already hold. A family
/// mismatch is rejected before emptiness.
pub fn plan_requirements_cached(
    req: &PrrRequirements,
    device: &Device,
    geometry: &DeviceGeometry,
    scratch: &mut PlanScratch,
) -> Result<PrrPlan, CostError> {
    if req.family != device.family() {
        return Err(CostError::FamilyMismatch {
            report: req.family,
            device: device.family(),
        });
    }
    if req.is_empty() {
        return Err(CostError::EmptyRequirements);
    }
    select_best(
        req,
        device,
        candidates_for_cached(req, device, geometry, scratch),
    )
}

/// Plan the PRR for explicit requirements on `device`, building the
/// device's composition index for this one call.
pub fn plan_prr_from_requirements(
    req: &PrrRequirements,
    device: &Device,
) -> Result<PrrPlan, CostError> {
    plan_requirements_cached(
        req,
        device,
        &DeviceGeometry::new(device),
        &mut PlanScratch::default(),
    )
}

/// All candidate evaluations for `req` on `device`, one per height, in
/// ascending height order — the raw material of the Fig. 1 search, also
/// consumed by the multi-PRR automatic floorplanner (`parflow`), which
/// needs every feasible organization rather than just the winner. Empty
/// for empty or wrong-family requirements; otherwise builds the device's
/// composition index for this one call.
pub fn candidates_for(req: &PrrRequirements, device: &Device) -> Vec<Candidate> {
    if req.is_empty() || req.family != device.family() {
        return Vec::new();
    }
    candidates_for_cached(
        req,
        device,
        &DeviceGeometry::new(device),
        &mut PlanScratch::default(),
    )
}

/// [`candidates_for`] through a caller-held [`DeviceGeometry`]: callers
/// that evaluate several requirement sets against one device — the
/// multi-PRR floorplanner above all — share one index. Each distinct base
/// composition resolves once per call and serves every height.
/// `geometry` must have been derived from `device`.
pub fn candidates_for_cached(
    req: &PrrRequirements,
    device: &Device,
    geometry: &DeviceGeometry,
    scratch: &mut PlanScratch,
) -> Vec<Candidate> {
    if req.is_empty() || req.family != device.family() {
        return Vec::new();
    }
    scratch.resolutions.clear();
    (1..=device.rows())
        .map(|h| evaluate_height_cached(req, device, h, geometry, scratch))
        .collect()
}

/// Evaluate one candidate height of the Fig. 1 flow: organization
/// (Eqs. 2–6), then its composition's resolution — an exact window, the
/// cheapest padded one, or none — through the plan's resolution cache
/// (see [`CompResolution`] for why it is height-invariant).
fn evaluate_height_cached(
    req: &PrrRequirements,
    device: &Device,
    h: u32,
    geometry: &DeviceGeometry,
    scratch: &mut PlanScratch,
) -> Candidate {
    let single_dsp = device.dsp_column_count() == 1;
    let outcome = match PrrOrganization::for_height(req, h, single_dsp) {
        Err(OrganizationError::EmptyRequirements) => {
            unreachable!("callers reject empty requirements")
        }
        Err(OrganizationError::SingleDspColumnNeedsRows { min_height }) => {
            CandidateOutcome::DspRowsInsufficient { min_height }
        }
        Err(OrganizationError::CountOverflow) => CandidateOutcome::CountOverflow,
        Ok(org) => {
            let pad = match resolve_composition(&org, device, geometry, scratch) {
                CompResolution::Infeasible => {
                    return Candidate {
                        height: h,
                        outcome: CandidateOutcome::NoWindow { organization: org },
                    }
                }
                CompResolution::Exact => [0; 3],
                CompResolution::Padded { pad } => pad,
            };
            let placed = PrrOrganization {
                clb_cols: org.clb_cols + pad[0],
                dsp_cols: org.dsp_cols + pad[1],
                bram_cols: org.bram_cols + pad[2],
                ..org
            };
            let window = geometry
                .find_window(device, &placed.window_request())
                .expect("resolved composition has a window");
            CandidateOutcome::Feasible {
                bitstream_bytes: bitstream_size_bytes(&placed),
                organization: placed,
                window,
                padded_cols: pad,
            }
        }
    };
    Candidate { height: h, outcome }
}

/// Resolve how `org`'s base composition places on `device`, consulting the
/// plan's resolution cache first. A cache miss costs one index probe
/// (exact case) or one padded search (fallback case); every later
/// height with the same composition is a linear-map hit.
fn resolve_composition(
    org: &PrrOrganization,
    device: &Device,
    geometry: &DeviceGeometry,
    scratch: &mut PlanScratch,
) -> CompResolution {
    let key = (org.clb_cols, org.dsp_cols, org.bram_cols);
    if let Some((_, r)) = scratch.resolutions.iter().find(|(k, _)| *k == key) {
        return *r;
    }
    let resolution = if geometry
        .leftmost_start(org.clb_cols, org.dsp_cols, org.bram_cols)
        .is_some()
    {
        CompResolution::Exact
    } else {
        scratch.padded_resolutions += 1;
        match find_padded_composition(org, device, geometry) {
            Some(pad) => CompResolution::Padded { pad },
            None => CompResolution::Infeasible,
        }
    };
    scratch.resolutions.push((key, resolution));
    resolution
}

/// When no exact-composition window exists, absorb extra columns: among
/// the paddings of up to every spare CLB column and
/// [`MAX_PAD_DSP_COLS`]/[`MAX_PAD_BRAM_COLS`] extra DSP/BRAM columns that
/// have a window, pick the one with the smallest padded bitstream, then
/// the fewest extra columns, then the earliest in `(CLB, DSP, BRAM)`
/// generation order. Returns the winning pad counts, or `None` if no
/// capped padding is feasible — re-checked uncapped in debug builds, so a
/// cap that hid a feasible plan fails loudly.
fn find_padded_composition(
    org: &PrrOrganization,
    device: &Device,
    geometry: &DeviceGeometry,
) -> Option<[u32; 3]> {
    let found = find_padded_composition_with_caps(
        org,
        device,
        geometry,
        MAX_PAD_DSP_COLS,
        MAX_PAD_BRAM_COLS,
    );
    #[cfg(debug_assertions)]
    if found.is_none() {
        debug_assert!(
            find_padded_composition_with_caps(org, device, geometry, u32::MAX, u32::MAX).is_none(),
            "padding caps hid a feasible plan for {org:?} on {}",
            device.name()
        );
    }
    found
}

/// [`find_padded_composition`] with explicit DSP/BRAM padding caps
/// (`u32::MAX` is clamped by the device's column counts).
///
/// Eq. 18 bytes grow with every column count, so for a fixed DSP/BRAM
/// padding `(ed, eb)` the cheapest option is the least achievable CLB
/// count at or above the requirement (one more when `ed + eb == 0`, so
/// the padding is never empty): one [`DeviceGeometry::least_clb_cols`]
/// lookup per pair (it returns only counts of real windows, so no CLB
/// padding exceeds the device). Any larger CLB count for the same pair costs more
/// bytes and more extra columns, so it can never be the winner. The
/// explicit `[ec, ed, eb]` tail of the key reproduces the `(CLB, DSP,
/// BRAM)` generation order of a full enumeration on ties.
fn find_padded_composition_with_caps(
    org: &PrrOrganization,
    device: &Device,
    geometry: &DeviceGeometry,
    dsp_cap: u32,
    bram_cap: u32,
) -> Option<[u32; 3]> {
    let counts = device.column_counts();
    let max_dsp = (counts.dsp() as u32)
        .saturating_sub(org.dsp_cols)
        .min(dsp_cap);
    let max_bram = (counts.bram() as u32)
        .saturating_sub(org.bram_cols)
        .min(bram_cap);

    let mut best: Option<(u64, u32, [u32; 3])> = None;
    for ed in 0..=max_dsp {
        for eb in 0..=max_bram {
            let min_clb = org.clb_cols.saturating_add(u32::from(ed + eb == 0));
            let Some(clb_cols) =
                geometry.least_clb_cols(org.dsp_cols + ed, org.bram_cols + eb, min_clb)
            else {
                continue;
            };
            let ec = clb_cols - org.clb_cols;
            let padded = PrrOrganization {
                clb_cols,
                dsp_cols: org.dsp_cols + ed,
                bram_cols: org.bram_cols + eb,
                ..*org
            };
            let key = (bitstream_size_bytes(&padded), ec + ed + eb, [ec, ed, eb]);
            if best.is_none_or(|b| key < b) {
                best = Some(key);
            }
        }
    }
    best.map(|(_, _, pad)| pad)
}

/// Pick the best feasible candidate: minimum predicted bitstream, then
/// minimum `PRR_size`, then minimum height.
fn select_best(
    req: &PrrRequirements,
    device: &Device,
    candidates: Vec<Candidate>,
) -> Result<PrrPlan, CostError> {
    let mut best: Option<(u64, u64, u32, PrrOrganization, Window)> = None;
    for c in &candidates {
        if let CandidateOutcome::Feasible {
            organization,
            window,
            bitstream_bytes,
            ..
        } = &c.outcome
        {
            let key = (*bitstream_bytes, organization.prr_size(), c.height);
            if best
                .as_ref()
                .is_none_or(|(bb, bs, bh, ..)| key < (*bb, *bs, *bh))
            {
                best = Some((
                    *bitstream_bytes,
                    organization.prr_size(),
                    c.height,
                    *organization,
                    window.clone(),
                ));
            }
        }
    }
    let trace = SearchTrace {
        device: device.name().to_string(),
        candidates,
    };
    match best {
        None => Err(CostError::NoFeasiblePlacement {
            device: device.name().to_string(),
            trace,
        }),
        Some((bytes, _, _, org, window)) => Ok(PrrPlan {
            requirements: *req,
            utilization: org.utilization(req),
            organization: org,
            window,
            bitstream_bytes: bytes,
            trace,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric::database::{xc5vlx110t, xc6vlx75t};
    use fabric::Family;
    use proptest::prelude::*;
    use synth::PaperPrm;

    /// A report claiming 2^64 − 1 BRAMs and DSPs cannot be hosted: every
    /// height's column counts overflow `u32`, so planning fails instead
    /// of truncating them into a small, "feasible" PRR.
    #[test]
    fn saturated_bram_and_dsp_counts_are_infeasible() {
        let v5 = xc5vlx110t();
        let mut report = PaperPrm::Fir.synth_report(Family::Virtex5);
        report.brams = u64::MAX;
        report.dsps = u64::MAX;
        let Err(CostError::NoFeasiblePlacement { trace, .. }) = plan_prr(&report, &v5) else {
            panic!("a saturated report must not plan");
        };
        assert!(!trace.candidates.is_empty());
        for c in &trace.candidates {
            assert_eq!(c.outcome, CandidateOutcome::CountOverflow, "H={}", c.height);
        }
    }

    /// The headline Table V reproduction: the search must select exactly
    /// the paper's PRR organization for all six PRM/device pairs.
    #[test]
    fn table5_organizations_selected() {
        let v5 = xc5vlx110t();
        let v6 = xc6vlx75t();
        // (prm, device, H, W_CLB, W_DSP, W_BRAM)
        let cases = [
            (PaperPrm::Fir, &v5, 5, 2, 1, 0),
            (PaperPrm::Mips, &v5, 1, 17, 1, 2),
            (PaperPrm::Sdram, &v5, 1, 3, 0, 0),
            (PaperPrm::Fir, &v6, 1, 5, 2, 0),
            (PaperPrm::Mips, &v6, 1, 11, 1, 1),
            (PaperPrm::Sdram, &v6, 1, 2, 0, 0),
        ];
        for (prm, device, h, wc, wd, wb) in cases {
            let report = prm.synth_report(device.family());
            let plan = plan_prr(&report, device).unwrap();
            let o = &plan.organization;
            assert_eq!(
                (o.height, o.clb_cols, o.dsp_cols, o.bram_cols),
                (h, wc, wd, wb),
                "{prm:?} on {}",
                device.name()
            );
        }
    }

    /// FIR on the LX110T: H=4 is feasible but H=5 has the smaller
    /// bitstream; the trace must show both and the plan must pick H=5.
    #[test]
    fn fir_v5_prefers_smaller_bitstream_over_first_feasible() {
        let device = xc5vlx110t();
        let plan = plan_prr(&PaperPrm::Fir.synth_report(Family::Virtex5), &device).unwrap();
        assert_eq!(plan.organization.height, 5);

        let h4 = &plan.trace.candidates[3];
        let h5 = &plan.trace.candidates[4];
        let (b4, b5) = (h4.bitstream_bytes().unwrap(), h5.bitstream_bytes().unwrap());
        assert!(b5 < b4, "H=5 ({b5} B) beats H=4 ({b4} B)");
        assert_eq!(plan.bitstream_bytes, b5);

        // Heights 1-3 fail the Eq. 4 DSP-row constraint.
        for c in &plan.trace.candidates[..3] {
            assert!(matches!(
                c.outcome,
                CandidateOutcome::DspRowsInsufficient { min_height: 4 }
            ));
        }
    }

    #[test]
    fn trace_covers_every_height() {
        let device = xc6vlx75t();
        let plan = plan_prr(&PaperPrm::Mips.synth_report(Family::Virtex6), &device).unwrap();
        assert_eq!(plan.trace.candidates.len(), 3);
        assert_eq!(
            plan.trace
                .candidates
                .iter()
                .map(|c| c.height)
                .collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
    }

    #[test]
    fn family_mismatch_is_rejected() {
        let device = xc6vlx75t();
        let report = PaperPrm::Fir.synth_report(Family::Virtex5);
        assert!(matches!(
            plan_prr(&report, &device),
            Err(CostError::FamilyMismatch { .. })
        ));
    }

    #[test]
    fn empty_requirements_are_rejected() {
        let device = xc5vlx110t();
        let req = PrrRequirements::new(Family::Virtex5, 0, 0, 0, 0, 0);
        assert!(matches!(
            plan_prr_from_requirements(&req, &device),
            Err(CostError::EmptyRequirements)
        ));
    }

    #[test]
    fn oversized_prm_yields_no_placement_with_trace() {
        let device = xc5vlx110t();
        // More CLBs than the whole device (8640).
        let req = PrrRequirements::new(Family::Virtex5, 100_000, 0, 0, 0, 0);
        match plan_prr_from_requirements(&req, &device) {
            Err(CostError::NoFeasiblePlacement {
                device: name,
                trace,
            }) => {
                assert_eq!(name, "xc5vlx110t");
                assert_eq!(trace.candidates.len(), 8);
                assert!(trace
                    .candidates
                    .iter()
                    .all(|c| matches!(c.outcome, CandidateOutcome::NoWindow { .. })));
            }
            other => panic!("expected NoFeasiblePlacement, got {other:?}"),
        }
    }

    /// The seed Fig. 1 loop, frozen as the oracle for the live search:
    /// every height rescans the column list with [`Device::find_window`]
    /// and, when no exact window exists, enumerates every capped padding,
    /// stable-sorts the options by `(bytes, pad_sum)` and probes them in
    /// that order. No composition is reused across heights.
    fn seed_candidates(req: &PrrRequirements, device: &Device) -> Vec<Candidate> {
        if req.is_empty() || req.family != device.family() {
            return Vec::new();
        }
        let single_dsp = device.dsp_column_count() == 1;
        (1..=device.rows())
            .map(|h| {
                let outcome = match PrrOrganization::for_height(req, h, single_dsp) {
                    Err(OrganizationError::EmptyRequirements) => unreachable!(),
                    Err(OrganizationError::SingleDspColumnNeedsRows { min_height }) => {
                        CandidateOutcome::DspRowsInsufficient { min_height }
                    }
                    Err(OrganizationError::CountOverflow) => CandidateOutcome::CountOverflow,
                    Ok(org) => match device
                        .find_window(&org.window_request())
                        .map(|w| (org, w, [0; 3]))
                        .or_else(|| seed_padded_window(&org, device))
                    {
                        None => CandidateOutcome::NoWindow { organization: org },
                        Some((org, window, padded_cols)) => CandidateOutcome::Feasible {
                            bitstream_bytes: bitstream_size_bytes(&org),
                            organization: org,
                            window,
                            padded_cols,
                        },
                    },
                };
                Candidate { height: h, outcome }
            })
            .collect()
    }

    /// The seed padded fallback: sort every capped padding by
    /// `(bytes, pad_sum)` (stable, so generation order breaks ties) and
    /// take the first that has a window.
    fn seed_padded_window(
        org: &PrrOrganization,
        device: &Device,
    ) -> Option<(PrrOrganization, Window, [u32; 3])> {
        let counts = device.column_counts();
        let max_clb = (counts.clb() as u32).saturating_sub(org.clb_cols);
        let max_dsp = (counts.dsp() as u32)
            .saturating_sub(org.dsp_cols)
            .min(MAX_PAD_DSP_COLS);
        let max_bram = (counts.bram() as u32)
            .saturating_sub(org.bram_cols)
            .min(MAX_PAD_BRAM_COLS);
        let mut options = Vec::new();
        for ec in 0..=max_clb {
            for ed in 0..=max_dsp {
                for eb in 0..=max_bram {
                    if ec + ed + eb == 0 {
                        continue;
                    }
                    let padded = PrrOrganization {
                        clb_cols: org.clb_cols + ec,
                        dsp_cols: org.dsp_cols + ed,
                        bram_cols: org.bram_cols + eb,
                        ..*org
                    };
                    options.push((bitstream_size_bytes(&padded), [ec, ed, eb], padded));
                }
            }
        }
        options.sort_by_key(|(bytes, pad, _)| (*bytes, pad[0] + pad[1] + pad[2]));
        options.into_iter().find_map(|(_, pad, padded)| {
            device
                .find_window(&padded.window_request())
                .map(|w| (padded, w, pad))
        })
    }

    /// [`plan_prr_from_requirements`] as the seed computed it.
    fn seed_plan(req: &PrrRequirements, device: &Device) -> Result<PrrPlan, CostError> {
        if req.family != device.family() {
            return Err(CostError::FamilyMismatch {
                report: req.family,
                device: device.family(),
            });
        }
        if req.is_empty() {
            return Err(CostError::EmptyRequirements);
        }
        select_best(req, device, seed_candidates(req, device))
    }

    /// The padded fallback as a full enumeration, frozen as the oracle for
    /// the CLB-list search: probe the composition index for every
    /// `(ec, ed, eb)` under the caps and keep the strict minimum of
    /// `(bytes, pad_sum)`, so the first option generated wins ties.
    fn triple_loop_padding(
        org: &PrrOrganization,
        device: &Device,
        geometry: &DeviceGeometry,
        dsp_cap: u32,
        bram_cap: u32,
    ) -> Option<[u32; 3]> {
        let counts = device.column_counts();
        let max_clb = (counts.clb() as u32).saturating_sub(org.clb_cols);
        let max_dsp = (counts.dsp() as u32)
            .saturating_sub(org.dsp_cols)
            .min(dsp_cap);
        let max_bram = (counts.bram() as u32)
            .saturating_sub(org.bram_cols)
            .min(bram_cap);
        let mut best: Option<(u64, u32, [u32; 3])> = None;
        for ec in 0..=max_clb {
            for ed in 0..=max_dsp {
                for eb in 0..=max_bram {
                    if ec + ed + eb == 0 {
                        continue;
                    }
                    if geometry
                        .leftmost_start(org.clb_cols + ec, org.dsp_cols + ed, org.bram_cols + eb)
                        .is_none()
                    {
                        continue;
                    }
                    let padded = PrrOrganization {
                        clb_cols: org.clb_cols + ec,
                        dsp_cols: org.dsp_cols + ed,
                        bram_cols: org.bram_cols + eb,
                        ..*org
                    };
                    let key = (bitstream_size_bytes(&padded), ec + ed + eb);
                    if best.is_none_or(|(bytes, pads, _)| key < (bytes, pads)) {
                        best = Some((key.0, key.1, [ec, ed, eb]));
                    }
                }
            }
        }
        best.map(|(_, _, pad)| pad)
    }

    /// A random fabric for the padded-search oracle: the column mix of
    /// `fabric`'s `window_props` generator (CLB-heavy, with BRAM columns
    /// and IOB/CLK breaks) with 0–12 DSP columns spliced in, in one of
    /// three families with different Eq. 18 constants.
    fn arb_fabric() -> impl Strategy<Value = Device> {
        use fabric::ResourceKind::{Bram, Clb, Clk, Dsp, Iob};
        (
            proptest::collection::vec(
                prop_oneof![
                    6 => Just(Clb),
                    1 => Just(Bram),
                    1 => Just(Iob),
                    1 => Just(Clk),
                ],
                1..80,
            ),
            proptest::collection::vec(any::<usize>(), 0..13),
            1u32..9,
            0usize..3,
        )
            .prop_map(|(mut columns, dsp_at, rows, family)| {
                for at in dsp_at {
                    columns.insert(at % (columns.len() + 1), Dsp);
                }
                let family = [Family::Virtex5, Family::Virtex6, Family::Spartan6][family];
                Device::new("prop", family, rows, columns).expect("non-empty")
            })
    }

    /// A base composition for `device`: the CLB/DSP/BRAM counts of a
    /// random column slice (IOB/CLK columns inside it are skipped, so the
    /// slice need not be a window) less a few columns of each kind. Most
    /// such bases have no exact window but pad to one.
    fn slice_base(device: &Device, (start, len, less): (usize, usize, [u32; 3])) -> [u32; 3] {
        let columns = device.columns();
        let start = start % columns.len();
        let mut counts = [0u32; 3];
        for kind in &columns[start..(start + len).min(columns.len())] {
            if kind.allowed_in_prr() {
                counts[kind.prr_count_slot()] += 1;
            }
        }
        [0, 1, 2].map(|i| counts[i].saturating_sub(less[i]))
    }

    fn arb_slice() -> impl Strategy<Value = (usize, usize, [u32; 3])> {
        (any::<usize>(), 1usize..40, (0u32..4, 0u32..3, 0u32..3))
            .prop_map(|(start, len, (c, d, b))| (start, len, [c, d, b]))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The CLB-list search returns the full enumeration's padding,
        /// ties included, on random fabrics and base compositions, with
        /// the default caps and uncapped.
        #[test]
        fn padded_search_matches_triple_loop_on_random_fabrics(
            device in arb_fabric(),
            slices in proptest::collection::vec(arb_slice(), 1..8),
            height in 1u32..9,
        ) {
            let geo = fabric::DeviceGeometry::new(&device);
            for slice in slices {
                let [clb_cols, dsp_cols, bram_cols] = slice_base(&device, slice);
                let org = PrrOrganization {
                    family: device.family(),
                    height,
                    clb_cols,
                    dsp_cols,
                    bram_cols,
                };
                for (dsp_cap, bram_cap) in
                    [(MAX_PAD_DSP_COLS, MAX_PAD_BRAM_COLS), (u32::MAX, u32::MAX)]
                {
                    prop_assert_eq!(
                        find_padded_composition_with_caps(&org, &device, &geo, dsp_cap, bram_cap),
                        triple_loop_padding(&org, &device, &geo, dsp_cap, bram_cap),
                        "{:?} caps ({}, {}) on {:?}",
                        org,
                        dsp_cap,
                        bram_cap,
                        device.columns()
                    );
                }
            }
        }

        /// A random fabric followed by the tie gadget, in a family where
        /// the gadget ties: the gadget's base pads to the tie unless the
        /// random columns offer a cheaper window, so tie-breaking is
        /// checked on random fabrics too.
        #[test]
        fn padded_search_matches_triple_loop_on_ties(
            noise in arb_fabric(),
            c0 in 2u32..6,
            y_first in any::<bool>(),
            series7 in any::<bool>(),
            height in 1u32..9,
        ) {
            let family = if series7 { Family::Series7 } else { Family::Virtex6 };
            let columns = [
                noise.columns(),
                &[fabric::ResourceKind::Iob],
                &tie_gadget(c0, y_first),
            ]
            .concat();
            let device = Device::new("prop", family, noise.rows(), columns).unwrap();
            let geo = fabric::DeviceGeometry::new(&device);
            let org = PrrOrganization {
                family,
                height,
                clb_cols: c0,
                dsp_cols: 1,
                bram_cols: 1,
            };
            for (dsp_cap, bram_cap) in [(MAX_PAD_DSP_COLS, MAX_PAD_BRAM_COLS), (u32::MAX, u32::MAX)] {
                prop_assert_eq!(
                    find_padded_composition_with_caps(&org, &device, &geo, dsp_cap, bram_cap),
                    triple_loop_padding(&org, &device, &geo, dsp_cap, bram_cap),
                    "{:?} caps ({}, {}) on {:?}",
                    org,
                    dsp_cap,
                    bram_cap,
                    device.columns()
                );
            }
        }
    }

    /// Two paddings can tie on `(bytes, pad_sum)` only across ≥ 15 extra
    /// DSP columns: on Virtex-6 and 7-series, `(+16, 0, 0)` and
    /// `(0, +15, +1)` price alike. This gadget holds one window of each
    /// for the base `(c0, 1, 1)` (`c0 ≥ 2`) and no other window that
    /// holds the base, so only the `(CLB, DSP, BRAM)` generation order
    /// decides between them: `(0, 15, 1)` comes first.
    fn tie_gadget(c0: u32, y_first: bool) -> Vec<fabric::ResourceKind> {
        use fabric::ResourceKind::{Bram, Clb, Dsp, Iob};
        let mut x = vec![Dsp];
        x.extend(std::iter::repeat_n(Clb, c0 as usize + 16));
        x.push(Bram);
        let mut y = vec![Clb];
        y.extend(std::iter::repeat_n(Dsp, 16));
        y.extend([Bram, Bram]);
        y.extend(std::iter::repeat_n(Clb, c0 as usize - 1));
        if y_first {
            [y, vec![Iob], x].concat()
        } else {
            [x, vec![Iob], y].concat()
        }
    }

    #[test]
    fn padding_ties_break_in_generation_order() {
        for family in [Family::Virtex6, Family::Series7] {
            for c0 in 2u32..6 {
                for y_first in [false, true] {
                    let device = Device::new("tie", family, 2, tie_gadget(c0, y_first)).unwrap();
                    let geo = fabric::DeviceGeometry::new(&device);
                    let org = PrrOrganization {
                        family,
                        height: 2,
                        clb_cols: c0,
                        dsp_cols: 1,
                        bram_cols: 1,
                    };
                    let price = |pad: [u32; 3]| {
                        bitstream_size_bytes(&PrrOrganization {
                            clb_cols: c0 + pad[0],
                            dsp_cols: 1 + pad[1],
                            bram_cols: 1 + pad[2],
                            ..org
                        })
                    };
                    assert_eq!(price([16, 0, 0]), price([0, 15, 1]));
                    let oracle = triple_loop_padding(&org, &device, &geo, u32::MAX, u32::MAX);
                    assert_eq!(oracle, Some([0, 15, 1]));
                    assert_eq!(
                        find_padded_composition_with_caps(&org, &device, &geo, u32::MAX, u32::MAX),
                        oracle,
                        "{family:?} c0={c0}"
                    );
                }
            }
        }
    }

    /// Every live entry point against the seed oracle on one point: plans
    /// (traces and errors included) and full candidate vectors, with one
    /// scratch reused across points.
    fn assert_matches_seed(req: &PrrRequirements, device: &Device, scratch: &mut PlanScratch) {
        let geo = fabric::DeviceGeometry::new(device);
        let seed = seed_plan(req, device);
        let what = format!("{req:?} on {}", device.name());
        assert_eq!(plan_prr_from_requirements(req, device), seed, "{what}");
        assert_eq!(
            plan_requirements_cached(req, device, &geo, scratch),
            seed,
            "{what}"
        );
        let seed_cands = seed_candidates(req, device);
        assert_eq!(candidates_for(req, device), seed_cands, "{what}");
        assert_eq!(
            candidates_for_cached(req, device, &geo, scratch),
            seed_cands,
            "{what}"
        );
    }

    /// The live search reproduces the seed loop on the Table V PRMs on
    /// every database device, including the report-level entry points.
    #[test]
    fn cached_planning_matches_seed_on_table5_prms() {
        let mut scratch = PlanScratch::default();
        for device in fabric::all_devices() {
            let geo = fabric::DeviceGeometry::new(&device);
            for prm in PaperPrm::ALL {
                let report = prm.synth_report(device.family());
                let req = PrrRequirements::from_report(&report);
                assert_matches_seed(&req, &device, &mut scratch);
                let seed = seed_plan(&req, &device);
                assert_eq!(plan_prr(&report, &device), seed);
                assert_eq!(plan_prr_cached(&report, &device, &geo, &mut scratch), seed);
            }
        }
    }

    /// A family mismatch is reported before emptiness, and neither
    /// yields candidates.
    #[test]
    fn rejections_keep_their_order() {
        let device = xc5vlx110t();
        let mut scratch = PlanScratch::default();
        for req in [
            PrrRequirements::new(Family::Virtex6, 0, 0, 0, 0, 0),
            PrrRequirements::new(Family::Virtex6, 600, 600, 600, 2, 2),
            PrrRequirements::new(Family::Virtex5, 0, 0, 0, 0, 0),
        ] {
            assert_matches_seed(&req, &device, &mut scratch);
            assert!(candidates_for(&req, &device).is_empty());
        }
        assert!(matches!(
            plan_prr_from_requirements(
                &PrrRequirements::new(Family::Virtex6, 0, 0, 0, 0, 0),
                &device
            ),
            Err(CostError::FamilyMismatch { .. })
        ));
    }

    /// A requirement grid heavy in BRAM/DSP so that many points have no
    /// exact-composition window and exercise the padded fallback.
    fn padding_grid(family: Family) -> Vec<PrrRequirements> {
        let mut reqs = Vec::new();
        for lut_ff in [0u64, 40, 600, 2600] {
            for dsp in [0u64, 3, 9, 30] {
                for bram in [0u64, 2, 6, 20] {
                    let req = PrrRequirements::new(family, lut_ff, lut_ff, lut_ff, dsp, bram);
                    if !req.is_empty() {
                        reqs.push(req);
                    }
                }
            }
        }
        reqs
    }

    /// The DSP/BRAM padding caps must not hide any feasible plan: on every
    /// database device, every grid point that has no exact window pads
    /// identically with capped and uncapped padding, or fails on both.
    #[test]
    fn padding_caps_lose_no_feasible_plan() {
        let mut padded_points = 0u32;
        for device in fabric::all_devices() {
            let geo = fabric::DeviceGeometry::new(&device);
            let single_dsp = device.dsp_column_count() == 1;
            for req in padding_grid(device.family()) {
                for h in 1..=device.rows() {
                    let Ok(org) = PrrOrganization::for_height(&req, h, single_dsp) else {
                        continue;
                    };
                    if geo
                        .leftmost_start(org.clb_cols, org.dsp_cols, org.bram_cols)
                        .is_some()
                    {
                        continue; // exact fit: padding never consulted
                    }
                    padded_points += 1;
                    let capped = find_padded_composition_with_caps(
                        &org,
                        &device,
                        &geo,
                        MAX_PAD_DSP_COLS,
                        MAX_PAD_BRAM_COLS,
                    );
                    let uncapped =
                        find_padded_composition_with_caps(&org, &device, &geo, u32::MAX, u32::MAX);
                    assert_eq!(capped, uncapped, "{org:?} on {}", device.name());
                }
            }
        }
        assert!(padded_points > 100, "grid must exercise the padded path");
    }

    /// The live search reproduces the seed loop on requirement points that
    /// trigger the padded fallback (the Table V points all fit exactly),
    /// on every database device.
    #[test]
    fn cached_planning_matches_seed_on_padding_grid() {
        let mut scratch = PlanScratch::default();
        let mut padded = 0usize;
        for device in fabric::all_devices() {
            for req in padding_grid(device.family()) {
                assert_matches_seed(&req, &device, &mut scratch);
                padded += seed_candidates(&req, &device)
                    .iter()
                    .filter(|c| {
                        matches!(c.outcome, CandidateOutcome::Feasible { padded_cols, .. }
                            if padded_cols != [0; 3])
                    })
                    .count();
            }
        }
        assert!(padded > 100, "grid must reach padded plans ({padded})");
    }

    /// Padded-fallback resolutions are tallied once per distinct
    /// composition, not once per height.
    #[test]
    fn padded_resolutions_are_counted_per_composition() {
        let device = xc5vlx110t();
        let geo = fabric::DeviceGeometry::new(&device);
        let mut scratch = PlanScratch::default();
        // 2 BRAM columns with minimal CLB: no exact window on the LX110T
        // (BRAM columns are isolated), so every height resolves by padding.
        let req = PrrRequirements::new(Family::Virtex5, 8, 8, 8, 0, 40);
        let before = scratch.padded_resolution_count();
        let candidates = candidates_for_cached(&req, &device, &geo, &mut scratch);
        let resolved = scratch.padded_resolution_count() - before;
        assert_eq!(candidates.len(), device.rows() as usize);
        let distinct: std::collections::HashSet<(u32, u32, u32)> = (1..=device.rows())
            .filter_map(|h| PrrOrganization::for_height(&req, h, true).ok())
            .map(|o| (o.clb_cols, o.dsp_cols, o.bram_cols))
            .collect();
        assert!(resolved >= 1);
        assert!(
            resolved <= distinct.len() as u64,
            "padded search must run at most once per composition \
             ({resolved} runs for {} distinct compositions)",
            distinct.len()
        );
    }

    /// The placed window's column mix must match the organization.
    #[test]
    fn window_composition_matches_organization() {
        let device = xc5vlx110t();
        for prm in PaperPrm::ALL {
            let plan = plan_prr(&prm.synth_report(Family::Virtex5), &device).unwrap();
            let counts = plan.window.column_counts();
            assert_eq!(counts.clb(), u64::from(plan.organization.clb_cols));
            assert_eq!(counts.dsp(), u64::from(plan.organization.dsp_cols));
            assert_eq!(counts.bram(), u64::from(plan.organization.bram_cols));
            assert_eq!(plan.window.height, plan.organization.height);
        }
    }
}
