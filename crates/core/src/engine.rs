//! Memoized batch planning engine on sharded concurrent memos.
//!
//! A sweep of G generators × D devices repeats two expensive inputs many
//! times: a generator's synthesis report depends only on the device
//! *family* (not the device), and a device's window-search geometry is
//! shared by every height and PRM planned on it. [`Engine`] interns both,
//! plus whole plan results, in concurrent memos designed so that a *warm*
//! lookup — the overwhelmingly common case in a repeated sweep or a
//! long-running planning service — takes no lock contention and performs
//! **zero heap allocation**:
//!
//! * **device interner** ([`crate::shard::DeviceTable`]) — each distinct
//!   device layout is interned once to a dense [`DeviceId`], pairing it
//!   with its [`DeviceGeometry`]. The hot lookup streams
//!   [`Device::layout_hash`] (no allocation, unlike the seed's
//!   `(String, u32, Vec<ColumnKind>)` key which cloned the name and the
//!   column list on *every* call, hit or miss) and takes one read lock.
//! * **synthesis memo** — keyed by `(generator fingerprint, family)`.
//!   Fingerprints ([`PrmGenerator::fingerprint`]) hash the generator's
//!   name *and* per-family operator counts, so two differently
//!   parameterized generators that share a name can no longer serve each
//!   other's cached reports (the seed keyed on the name alone).
//! * **plan memo** — a [`Sharded`] striped map from the packed
//!   `(requirements, DeviceId)` [`PlanKey`] to
//!   `Arc<Result<PrrPlan, CostError>>`. Writers contend only within one
//!   of 64 stripes; a hit clones an `Arc`, not a whole plan with its
//!   search trace.
//!
//! [`Engine::plan_arc`] is the allocation-free hit path the async
//! planning service ([`crate::service`]) drives; [`Engine::plan`] and
//! friends keep returning owned plans for existing callers. Plans are
//! byte-identical to calling [`synthesize`](PrmGenerator) and
//! [`plan_prr`](crate::plan_prr) directly (property-tested in the
//! workspace's `engine_props` suite), and the whole memo state round-trips
//! through a versioned [`EngineSnapshot`] for persist/reload.
//!
//! Counter accounting is conserved per cache: every lookup is either a
//! build or a hit (`geometry_builds + geometry_cache_hits` equals intern
//! lookups, `synth_calls + synth_cache_hits` equals synthesis requests,
//! `plan_builds + plan_cache_hits` equals `plans`), with insertion-race
//! losers counted as hits. The multi-thread stress suite asserts these
//! identities under 16-way concurrent mixed load.
//!
//! The seed single-lock engine is frozen verbatim as
//! [`reference::ReferenceEngine`] so the `service_mt` benchmark measures
//! this design against an honest baseline rather than a remembered one.

use crate::error::CostError;
use crate::metrics::{Metrics, MetricsSnapshot};
use crate::requirements::PrrRequirements;
use crate::search::{plan_requirements_cached, PlanScratch, PrrPlan};
use crate::shard::{DeviceEntry, DeviceId, DeviceTable, EngineToken, PlanKey, Sharded, SynthKey};
use fabric::{Device, DeviceGeometry, Family};
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use synth::{PrmGenerator, SynthReport};

/// A memoized, instrumented planning engine (see the module docs).
#[derive(Debug, Default)]
pub struct Engine {
    metrics: Metrics,
    /// Process-unique identity; guards scratch-level resolution caches.
    token: EngineToken,
    devices: DeviceTable,
    synth_memo: Sharded<SynthKey, SynthReport>,
    plan_memo: Sharded<PlanKey, Arc<Result<PrrPlan, CostError>>>,
}

impl Engine {
    /// New engine with empty caches and zeroed metrics.
    pub fn new() -> Self {
        Engine::default()
    }

    /// The engine's metrics registry (counters are live).
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Intern `device`, deriving its geometry on first sight; returns the
    /// dense id and the shared entry. Warm calls are allocation-free: a
    /// streamed layout hash, one read lock, one structural comparison.
    ///
    /// Accounting: every call bumps exactly one of `geometry_builds`
    /// (this call derived and inserted the geometry) or
    /// `geometry_cache_hits` (served an existing entry, including losing
    /// an insertion race), so `builds + hits` equals intern lookups.
    pub fn intern_device(&self, device: &Device) -> (DeviceId, Arc<DeviceEntry>) {
        if let Some((id, entry)) = self.devices.lookup(device) {
            self.metrics.geometry_cache_hits.incr();
            return (id, entry);
        }
        let geo = self
            .metrics
            .time("geometry", || Arc::new(DeviceGeometry::new(device)));
        let (id, entry, inserted) = self.devices.insert(device, geo);
        if inserted {
            self.metrics.geometry_builds.incr();
        } else {
            self.metrics.geometry_cache_hits.incr();
        }
        (id, entry)
    }

    /// The interned geometry of `device`, deriving it on first sight.
    pub fn geometry(&self, device: &Device) -> Arc<DeviceGeometry> {
        let (_, entry) = self.intern_device(device);
        Arc::clone(&entry.geometry)
    }

    /// The interned id of `device` (interning it on first sight).
    pub fn device_id(&self, device: &Device) -> DeviceId {
        self.intern_device(device).0
    }

    /// `generator`'s synthesis report for `family`, memoized on
    /// `(generator fingerprint, family)` — the fingerprint covers the
    /// generator's parameters, so same-named but differently configured
    /// generators get distinct entries.
    pub fn synthesize(&self, generator: &dyn PrmGenerator, family: Family) -> SynthReport {
        let key = SynthKey {
            fingerprint: generator.fingerprint(),
            family,
        };
        if let Some(report) = self.synth_memo.get(&key) {
            self.metrics.synth_cache_hits.incr();
            return report;
        }
        let report = self.metrics.time("synth", || generator.synthesize(family));
        // First writer wins; a losing racer's lookup counts as a hit, not
        // a vanished call, so calls + hits equals synthesis requests.
        let (stored, inserted) = self.synth_memo.insert_or_get(key, report);
        if inserted {
            self.metrics.synth_calls.incr();
        } else {
            self.metrics.synth_cache_hits.incr();
        }
        stored
    }

    /// Plan the PRR for `report` on `device` through the device interner.
    pub fn plan(&self, report: &SynthReport, device: &Device) -> Result<PrrPlan, CostError> {
        self.plan_with_scratch(report, device, &mut PlanScratch::default())
    }

    /// [`Engine::plan`] with a caller-owned [`PlanScratch`]; returns an
    /// owned plan (cloned out of the memo on a hit). Workers that can
    /// share the memoized allocation should prefer [`Engine::plan_arc`].
    pub fn plan_with_scratch(
        &self,
        report: &SynthReport,
        device: &Device,
        scratch: &mut PlanScratch,
    ) -> Result<PrrPlan, CostError> {
        self.plan_arc(report, device, scratch).as_ref().clone()
    }

    /// Plan the PRR for `report` on `device`, returning the memo's shared
    /// `Arc` directly.
    ///
    /// This is the engine's hot path: when the `(requirements, device)`
    /// point is already memoized, the call performs **zero heap
    /// allocation** — layout-hash intern lookup, packed-key shard probe,
    /// `Arc` clone — which the `service_mt` benchmark asserts with a
    /// counting allocator. Whole plan results (feasible and infeasible
    /// alike) are memoized; a repeat of a previously planned point never
    /// re-runs the Fig. 1 search.
    pub fn plan_arc(
        &self,
        report: &SynthReport,
        device: &Device,
        scratch: &mut PlanScratch,
    ) -> Arc<Result<PrrPlan, CostError>> {
        self.plan_requirements(&PrrRequirements::from_report(report), device, scratch)
    }

    /// [`Engine::plan_arc`] from explicit requirements — the entry point
    /// the async planning service drives (its requests carry requirements,
    /// not synthesis reports). A family mismatch between `req` and
    /// `device` is planned to (and memoized as) the same
    /// [`CostError::FamilyMismatch`] the report-level paths return.
    pub fn plan_requirements(
        &self,
        req: &PrrRequirements,
        device: &Device,
        scratch: &mut PlanScratch,
    ) -> Arc<Result<PrrPlan, CostError>> {
        self.metrics.plans.incr();
        // Device resolution, fastest first: the scratch's per-caller cache
        // (one structural comparison, no shared state), then the interner.
        // A scratch cache hit is a geometry cache hit — the accounting
        // invariant (`geometry_builds + geometry_cache_hits` = plan-path
        // device resolutions) does not see the shortcut.
        let (id, entry) = match scratch.cached_device(self.token, device) {
            Some(hit) => {
                self.metrics.geometry_cache_hits.incr();
                hit
            }
            None => {
                let (id, entry) = self.intern_device(device);
                scratch.cache_device(self.token, id, &entry);
                (id, entry)
            }
        };
        let key = PlanKey::new(req, id);
        if let Some(hit) = self.plan_memo.get(&key) {
            self.metrics.plan_cache_hits.incr();
            self.record_outcome(&hit);
            return hit;
        }
        self.plan_uncached(key, req, device, &entry.geometry, scratch)
    }

    /// [`Engine::plan_with_scratch`] with the geometry supplied by the
    /// caller (e.g. prefetched once per device by a sweep driver).
    ///
    /// `geometry` **must** have been derived from `device` — a mismatched
    /// pair would memoize a wrong plan under the right key, poisoning
    /// every later lookup of that point.
    ///
    /// # Panics
    ///
    /// If `geometry` is neither the engine's interned geometry for
    /// `device` (what [`Engine::geometry`] returns; checked by address)
    /// nor derived from an equal layout
    /// ([`DeviceGeometry::matches_device`]).
    pub fn plan_with_geometry(
        &self,
        report: &SynthReport,
        device: &Device,
        geometry: &DeviceGeometry,
        scratch: &mut PlanScratch,
    ) -> Result<PrrPlan, CostError> {
        let (id, entry) = self.intern_device(device);
        assert!(
            std::ptr::eq(geometry, &*entry.geometry) || geometry.matches_device(device),
            "geometry was not derived from device `{}` (source layout hash {:#x} != {:#x})",
            device.name(),
            geometry.source_layout_hash(),
            device.layout_hash(),
        );
        self.metrics.plans.incr();
        let req = PrrRequirements::from_report(report);
        let key = PlanKey::new(&req, id);
        if let Some(hit) = self.plan_memo.get(&key) {
            self.metrics.plan_cache_hits.incr();
            self.record_outcome(&hit);
            return hit.as_ref().clone();
        }
        self.plan_uncached(key, &req, device, geometry, scratch)
            .as_ref()
            .clone()
    }

    /// Shared memo-miss path: run the cached Fig. 1 search, tally the
    /// padded-fallback delta, record outcome counters, and memoize.
    fn plan_uncached(
        &self,
        key: PlanKey,
        req: &PrrRequirements,
        device: &Device,
        geometry: &DeviceGeometry,
        scratch: &mut PlanScratch,
    ) -> Arc<Result<PrrPlan, CostError>> {
        let padded_before = scratch.padded_resolution_count();
        let result = self.metrics.time("plan", || {
            plan_requirements_cached(req, device, geometry, scratch)
        });
        self.metrics
            .padded_fallbacks
            .add(scratch.padded_resolution_count() - padded_before);
        self.record_outcome(&result);
        // First writer wins: a racing loser computed an identical result
        // (plans are deterministic) and shares the winner's allocation;
        // its plan counts as a hit so builds + hits == plans.
        let (stored, inserted) = self.plan_memo.insert_or_get(key, Arc::new(result));
        if inserted {
            self.metrics.plan_builds.incr();
        } else {
            self.metrics.plan_cache_hits.incr();
        }
        stored
    }

    /// Bump the per-call feasible/infeasible outcome counters.
    fn record_outcome(&self, result: &Result<PrrPlan, CostError>) {
        match result {
            Ok(_) => self.metrics.plans_feasible.incr(),
            Err(_) => self.metrics.plans_infeasible.incr(),
        }
    }

    /// Synthesize (memoized) and plan (memoized) in one call.
    pub fn evaluate(
        &self,
        generator: &dyn PrmGenerator,
        device: &Device,
    ) -> Result<PrrPlan, CostError> {
        let report = self.synthesize(generator, device.family());
        self.plan(&report, device)
    }

    /// Number of memoized plan points (feasible and infeasible).
    pub fn plan_memo_len(&self) -> usize {
        self.plan_memo.len()
    }

    /// Snapshot of the engine's metrics, with the composition-index stats
    /// (probe count, distinct interned compositions) folded in from the
    /// interned geometries.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = self.metrics.snapshot();
        let (probes, compositions) =
            self.devices
                .entries_in_order()
                .iter()
                .fold((0u64, 0u64), |(p, c), entry| {
                    (
                        p + entry.geometry.probe_count(),
                        c + entry.geometry.distinct_compositions(),
                    )
                });
        snap.counters.window_probes = probes;
        snap.counters.distinct_compositions = compositions;
        snap
    }

    /// Export the engine's memo state as a versioned, deterministic
    /// snapshot (devices in intern order, records sorted by key). Window
    /// geometries are not serialized — they are pure functions of the
    /// devices and are rebuilt on import.
    pub fn export_state(&self) -> EngineSnapshot {
        let devices: Vec<Device> = self
            .devices
            .entries_in_order()
            .iter()
            .map(|e| e.device.clone())
            .collect();
        let mut synth = Vec::new();
        self.synth_memo.for_each(|k, v| {
            synth.push(SynthRecord {
                fingerprint: k.fingerprint,
                family: k.family,
                report: v.clone(),
            });
        });
        synth.sort_by_key(|r| (r.fingerprint, r.family as u8));
        let mut plans = Vec::new();
        self.plan_memo.for_each(|k, v| {
            plans.push(PlanRecord {
                device: k.device.index() as u32,
                family: k.family,
                req: k.req,
                result: v.as_ref().clone(),
            });
        });
        plans.sort_by_key(|r| (r.device, r.family as u8, r.req));
        EngineSnapshot {
            version: SNAPSHOT_VERSION,
            devices,
            synth,
            plans,
        }
    }

    /// Rebuild an engine from an exported snapshot: re-intern every
    /// device (rebuilding its window geometry), then seed the synthesis
    /// and plan memos with the recorded entries.
    ///
    /// A snapshot is untrusted input, so every plan record is replayed
    /// through the Fig. 1 search on its interned geometry and must equal
    /// the fresh result ([`SnapshotError::PlanMismatch`] otherwise): an
    /// accepted snapshot can never poison the memo. Lookups against the
    /// restored engine return byte-identical results to fresh planning.
    /// Replays are not lookups, so the plan counters start at zero; only
    /// `geometry_builds` reflects the reconstruction work done here.
    pub fn import_state(snapshot: &EngineSnapshot) -> Result<Engine, SnapshotError> {
        if snapshot.version != SNAPSHOT_VERSION {
            return Err(SnapshotError::VersionMismatch {
                found: snapshot.version,
                supported: SNAPSHOT_VERSION,
            });
        }
        let engine = Engine::new();
        let interned: Vec<(DeviceId, Arc<DeviceEntry>)> = snapshot
            .devices
            .iter()
            .map(|device| engine.intern_device(device))
            .collect();
        for record in &snapshot.synth {
            engine.synth_memo.insert_or_get(
                SynthKey {
                    fingerprint: record.fingerprint,
                    family: record.family,
                },
                record.report.clone(),
            );
        }
        let mut scratch = PlanScratch::default();
        for (index, record) in snapshot.plans.iter().enumerate() {
            let (id, entry) = interned.get(record.device as usize).ok_or(
                SnapshotError::DeviceIndexOutOfRange {
                    index: record.device,
                    devices: snapshot.devices.len(),
                },
            )?;
            let key = PlanKey::from_parts(*id, record.family, record.req);
            let replayed = plan_requirements_cached(
                &key.requirements(),
                &entry.device,
                &entry.geometry,
                &mut scratch,
            );
            if replayed != record.result {
                return Err(SnapshotError::PlanMismatch { index });
            }
            engine.plan_memo.insert_or_get(key, Arc::new(replayed));
        }
        Ok(engine)
    }
}

/// Version tag of [`EngineSnapshot`]; bump on any layout change so stale
/// snapshots are rejected instead of misread.
pub const SNAPSHOT_VERSION: u32 = 1;

/// Serializable memo state of an [`Engine`]: interned devices (in
/// [`DeviceId`] order), synthesis records, and whole-plan records — `Ok`
/// and `Err` alike. Deterministic for a given memo content (records are
/// key-sorted), so equal engines export equal snapshots.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EngineSnapshot {
    /// Snapshot layout version ([`SNAPSHOT_VERSION`]).
    pub version: u32,
    /// Interned devices, index == [`DeviceId::index`].
    pub devices: Vec<Device>,
    /// Synthesis memo entries.
    pub synth: Vec<SynthRecord>,
    /// Plan memo entries.
    pub plans: Vec<PlanRecord>,
}

/// One synthesis-memo entry of an [`EngineSnapshot`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SynthRecord {
    /// Generator fingerprint ([`PrmGenerator::fingerprint`]).
    pub fingerprint: u64,
    /// Family synthesized for.
    pub family: Family,
    /// The memoized report.
    pub report: SynthReport,
}

/// One plan-memo entry of an [`EngineSnapshot`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlanRecord {
    /// Index into [`EngineSnapshot::devices`].
    pub device: u32,
    /// Requirement family.
    pub family: Family,
    /// The packed requirement numbers
    /// (`[LUT_FF_req, LUT_req, FF_req, DSP_req, BRAM_req]`).
    pub req: [u64; 5],
    /// The memoized plan outcome, `Err` plans included.
    pub result: Result<PrrPlan, CostError>,
}

/// Why an [`EngineSnapshot`] could not be imported.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The snapshot was written by an incompatible engine revision.
    VersionMismatch {
        /// Version found in the snapshot.
        found: u32,
        /// Version this engine reads.
        supported: u32,
    },
    /// A plan record references a device index the snapshot doesn't hold.
    DeviceIndexOutOfRange {
        /// Offending device index.
        index: u32,
        /// Number of devices in the snapshot.
        devices: usize,
    },
    /// A plan record's result differs from planning its requirements
    /// afresh on its device.
    PlanMismatch {
        /// Position of the record in [`EngineSnapshot::plans`].
        index: usize,
    },
}

impl core::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SnapshotError::VersionMismatch { found, supported } => write!(
                f,
                "engine snapshot version {found} is not supported (this engine reads {supported})"
            ),
            SnapshotError::DeviceIndexOutOfRange { index, devices } => write!(
                f,
                "plan record references device {index} but the snapshot holds {devices} devices"
            ),
            SnapshotError::PlanMismatch { index } => write!(
                f,
                "plan record {index} does not match a fresh plan of its requirements"
            ),
        }
    }
}

impl std::error::Error for SnapshotError {}

pub mod reference {
    //! The seed engine, frozen as the benchmark baseline.
    //!
    //! This is the pre-sharding `Engine` verbatim: three global
    //! `RwLock<HashMap>` interiors, `(String, u32, Vec<ColumnKind>)`
    //! device keys rebuilt (with their allocations) on every call, plan
    //! memo values cloned wholesale on every hit, and the synthesis memo
    //! keyed by generator *name* — including that revision's same-name
    //! aliasing bug, which is exactly why the current engine keys on
    //! fingerprints. **Do not optimize or fix this module**; its purpose
    //! is to keep the `service_mt` benchmark honest about what the
    //! sharded engine replaced. Not wired into any production path.

    use crate::error::CostError;
    use crate::metrics::{Metrics, MetricsSnapshot};
    use crate::requirements::PrrRequirements;
    use crate::search::{plan_prr_cached, PlanScratch, PrrPlan};
    use fabric::{ColumnKind, Device, DeviceGeometry, Family};
    use parking_lot::RwLock;
    use std::collections::HashMap;
    use std::sync::Arc;
    use synth::{PrmGenerator, SynthReport};

    /// Cache key identifying a device layout (name + rows + columns;
    /// allocates on every construction).
    type DeviceKey = (String, u32, Vec<ColumnKind>);

    fn device_key(device: &Device) -> DeviceKey {
        (
            device.name().to_string(),
            device.rows(),
            device.columns().to_vec(),
        )
    }

    /// Plan-memo key: requirement numbers plus the device layout key.
    type PlanKey = ((Family, u64, u64, u64, u64, u64), DeviceKey);

    fn plan_key(req: &PrrRequirements, device: &Device) -> PlanKey {
        (
            (
                req.family,
                req.lut_ff_req,
                req.lut_req,
                req.ff_req,
                req.dsp_req,
                req.bram_req,
            ),
            device_key(device),
        )
    }

    /// The frozen seed engine (see the module docs).
    #[derive(Debug, Default)]
    pub struct ReferenceEngine {
        metrics: Metrics,
        geometries: RwLock<HashMap<DeviceKey, Arc<DeviceGeometry>>>,
        synth_memo: RwLock<HashMap<(String, Family), SynthReport>>,
        plan_memo: RwLock<HashMap<PlanKey, Result<PrrPlan, CostError>>>,
    }

    impl ReferenceEngine {
        /// New engine with empty caches and zeroed metrics.
        pub fn new() -> Self {
            ReferenceEngine::default()
        }

        /// The engine's metrics registry.
        pub fn metrics(&self) -> &Metrics {
            &self.metrics
        }

        /// The interned geometry of `device`, deriving it on first sight.
        pub fn geometry(&self, device: &Device) -> Arc<DeviceGeometry> {
            let key = device_key(device);
            if let Some(geo) = self.geometries.read().get(&key) {
                self.metrics.geometry_cache_hits.incr();
                return Arc::clone(geo);
            }
            let geo = self
                .metrics
                .time("geometry", || Arc::new(DeviceGeometry::new(device)));
            let mut map = self.geometries.write();
            match map.entry(key) {
                std::collections::hash_map::Entry::Occupied(e) => {
                    self.metrics.geometry_cache_hits.incr();
                    Arc::clone(e.get())
                }
                std::collections::hash_map::Entry::Vacant(v) => {
                    self.metrics.geometry_builds.incr();
                    Arc::clone(v.insert(geo))
                }
            }
        }

        /// `generator`'s report for `family`, memoized on `(name, family)`
        /// — the seed keying, same-name aliasing bug included.
        pub fn synthesize(&self, generator: &dyn PrmGenerator, family: Family) -> SynthReport {
            let key = (generator.name(), family);
            if let Some(report) = self.synth_memo.read().get(&key) {
                self.metrics.synth_cache_hits.incr();
                return report.clone();
            }
            let report = self.metrics.time("synth", || generator.synthesize(family));
            let mut map = self.synth_memo.write();
            match map.entry(key) {
                std::collections::hash_map::Entry::Occupied(e) => {
                    self.metrics.synth_cache_hits.incr();
                    e.get().clone()
                }
                std::collections::hash_map::Entry::Vacant(v) => {
                    self.metrics.synth_calls.incr();
                    v.insert(report).clone()
                }
            }
        }

        /// Plan through the geometry cache and whole-plan memo.
        pub fn plan(&self, report: &SynthReport, device: &Device) -> Result<PrrPlan, CostError> {
            self.plan_with_scratch(report, device, &mut PlanScratch::default())
        }

        /// [`ReferenceEngine::plan`] with caller-owned scratch. The memo
        /// hit path allocates the full device key and clones the whole
        /// memoized plan — the costs the sharded engine exists to remove.
        pub fn plan_with_scratch(
            &self,
            report: &SynthReport,
            device: &Device,
            scratch: &mut PlanScratch,
        ) -> Result<PrrPlan, CostError> {
            self.metrics.plans.incr();
            let key = plan_key(&PrrRequirements::from_report(report), device);
            if let Some(result) = self.plan_memo.read().get(&key) {
                self.metrics.plan_cache_hits.incr();
                match result {
                    Ok(_) => self.metrics.plans_feasible.incr(),
                    Err(_) => self.metrics.plans_infeasible.incr(),
                }
                return result.clone();
            }
            let geometry = self.geometry(device);
            let padded_before = scratch.padded_resolution_count();
            let result = self.metrics.time("plan", || {
                plan_prr_cached(report, device, &geometry, scratch)
            });
            self.metrics
                .padded_fallbacks
                .add(scratch.padded_resolution_count() - padded_before);
            match &result {
                Ok(_) => self.metrics.plans_feasible.incr(),
                Err(_) => self.metrics.plans_infeasible.incr(),
            }
            self.plan_memo
                .write()
                .entry(key)
                .or_insert_with(|| result.clone());
            result
        }

        /// Synthesize (memoized) and plan in one call.
        pub fn evaluate(
            &self,
            generator: &dyn PrmGenerator,
            device: &Device,
        ) -> Result<PrrPlan, CostError> {
            let report = self.synthesize(generator, device.family());
            self.plan(&report, device)
        }

        /// Metrics snapshot with composition-index stats folded in.
        pub fn snapshot(&self) -> MetricsSnapshot {
            let mut snap = self.metrics.snapshot();
            let (probes, compositions) = self
                .geometries
                .read()
                .values()
                .fold((0u64, 0u64), |(p, c), geo| {
                    (p + geo.probe_count(), c + geo.distinct_compositions())
                });
            snap.counters.window_probes = probes;
            snap.counters.distinct_compositions = compositions;
            snap
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan_prr;
    use fabric::database::{xc5vlx110t, xc6vlx75t};
    use synth::{GenericPrm, PaperPrm};

    #[test]
    fn engine_plans_match_direct_plans() {
        let engine = Engine::new();
        for device in [xc5vlx110t(), xc6vlx75t()] {
            for prm in PaperPrm::ALL {
                let gen = prm.generator();
                let direct = plan_prr(&gen.synthesize(device.family()), &device).unwrap();
                let via_engine = engine.evaluate(gen.as_ref(), &device).unwrap();
                assert_eq!(direct, via_engine, "{prm:?} on {}", device.name());
            }
        }
    }

    #[test]
    fn synthesis_is_memoized_per_family() {
        let engine = Engine::new();
        let v5 = xc5vlx110t();
        let gen = PaperPrm::Fir.generator();
        let a = engine.synthesize(gen.as_ref(), v5.family());
        let b = engine.synthesize(gen.as_ref(), v5.family());
        assert_eq!(a, b);
        let snap = engine.snapshot();
        assert_eq!(snap.counters.synth_calls, 1);
        assert_eq!(snap.counters.synth_cache_hits, 1);
    }

    /// Regression for the seed synth-memo keying bug: two generators that
    /// share a *name* but differ in parameters must not serve each other's
    /// cached reports. The frozen reference engine still exhibits the bug
    /// (asserted here so the regression test itself is known-sensitive).
    #[test]
    fn same_name_generators_do_not_share_synth_entries() {
        let small = GenericPrm::new("dsp_core", GenericPrm::random(1, 500).ops);
        let large = GenericPrm::new("dsp_core", GenericPrm::random(2, 4000).ops);
        assert_eq!(small.name(), large.name());
        assert_ne!(small.fingerprint(), large.fingerprint());

        let engine = Engine::new();
        let fam = Family::Virtex5;
        let a = engine.synthesize(&small, fam);
        let b = engine.synthesize(&large, fam);
        assert_eq!(a, small.synthesize(fam), "small PRM got its own report");
        assert_eq!(b, large.synthesize(fam), "large PRM got its own report");
        assert_ne!(a, b);
        let c = engine.snapshot().counters;
        assert_eq!(c.synth_calls, 2, "two distinct memo entries");
        assert_eq!(c.synth_cache_hits, 0);

        // The reference engine keys on the name alone and aliases them —
        // the bug this test guards against reintroducing.
        let seed = reference::ReferenceEngine::new();
        let a = seed.synthesize(&small, fam);
        let b = seed.synthesize(&large, fam);
        assert_eq!(a, b, "seed engine aliases same-named generators");
    }

    #[test]
    fn geometry_is_interned_per_device() {
        let engine = Engine::new();
        let v5 = xc5vlx110t();
        let g1 = engine.geometry(&v5);
        let g2 = engine.geometry(&v5);
        assert!(Arc::ptr_eq(&g1, &g2));
        let snap = engine.snapshot();
        assert_eq!(snap.counters.geometry_builds, 1);
        assert_eq!(snap.counters.geometry_cache_hits, 1);
        // Same name, different layout: distinct intern entries.
        let twin =
            Device::new(v5.name(), v5.family(), v5.rows() + 1, v5.columns().to_vec()).unwrap();
        let g3 = engine.geometry(&twin);
        assert!(!Arc::ptr_eq(&g1, &g3));
        assert_ne!(engine.device_id(&v5), engine.device_id(&twin));
    }

    #[test]
    fn repeat_plans_hit_the_plan_memo() {
        let engine = Engine::new();
        let v5 = xc5vlx110t();
        let gen = PaperPrm::Mips.generator();
        let first = engine.evaluate(gen.as_ref(), &v5).unwrap();
        let second = engine.evaluate(gen.as_ref(), &v5).unwrap();
        assert_eq!(first, second);
        let c = engine.snapshot().counters;
        assert_eq!(c.plans, 2);
        assert_eq!(c.plan_cache_hits, 1);
        assert_eq!(c.plan_builds, 1);
        assert_eq!(c.plans_feasible, 2);
    }

    #[test]
    fn plan_arc_hits_share_one_allocation() {
        let engine = Engine::new();
        let v5 = xc5vlx110t();
        let report = PaperPrm::Fir.generator().synthesize(v5.family());
        let mut scratch = PlanScratch::default();
        let first = engine.plan_arc(&report, &v5, &mut scratch);
        let second = engine.plan_arc(&report, &v5, &mut scratch);
        assert!(Arc::ptr_eq(&first, &second), "hits return the memo's Arc");
        assert_eq!(engine.plan_memo_len(), 1);
    }

    #[test]
    fn infeasible_plans_are_memoized_too() {
        let engine = Engine::new();
        let v6 = xc6vlx75t();
        // A Virtex-5 report on a Virtex-6 device always fails.
        let report = PaperPrm::Fir
            .generator()
            .synthesize(fabric::Family::Virtex5);
        assert!(engine.plan(&report, &v6).is_err());
        assert!(engine.plan(&report, &v6).is_err());
        let c = engine.snapshot().counters;
        assert_eq!(c.plan_cache_hits, 1);
        assert_eq!(c.plan_builds, 1);
        assert_eq!(c.plans_infeasible, 2);
    }

    #[test]
    fn snapshot_folds_in_window_counters() {
        let engine = Engine::new();
        let v6 = xc6vlx75t();
        let gen = PaperPrm::Sdram.generator();
        engine.evaluate(gen.as_ref(), &v6).unwrap();
        engine.evaluate(gen.as_ref(), &v6).unwrap();
        let snap = engine.snapshot();
        assert!(snap.counters.window_probes > 0);
        assert!(snap.counters.distinct_compositions > 0);
        // SDRAM fits exactly at every height: no padded fallback runs.
        assert_eq!(snap.counters.padded_fallbacks, 0);
        assert_eq!(snap.counters.plans, 2);
        assert_eq!(snap.counters.plans_feasible, 2);
    }

    #[test]
    fn plan_with_geometry_matches_direct_and_memoizes() {
        let engine = Engine::new();
        let v5 = xc5vlx110t();
        let geo = engine.geometry(&v5);
        let report = PaperPrm::Fir.generator().synthesize(v5.family());
        let mut scratch = PlanScratch::default();
        let via_geometry = engine
            .plan_with_geometry(&report, &v5, &geo, &mut scratch)
            .unwrap();
        let direct = plan_prr(&report, &v5).unwrap();
        assert_eq!(via_geometry, direct);
        let c = engine.snapshot().counters;
        // One explicit geometry() intern plus one intern per plan: every
        // intern lookup is a build or a hit.
        assert_eq!(c.geometry_builds, 1);
        assert_eq!(c.geometry_cache_hits, 1);
        assert_eq!(c.geometry_builds + c.geometry_cache_hits, c.plans + 1);
        // The second identical plan is a whole-plan memo hit.
        let again = engine
            .plan_with_geometry(&report, &v5, &geo, &mut scratch)
            .unwrap();
        assert_eq!(again, via_geometry);
        assert_eq!(engine.snapshot().counters.plan_cache_hits, 1);
    }

    /// Bugfix regression: handing `plan_with_geometry` a geometry derived
    /// from a *different* device must be caught, in release builds too,
    /// instead of silently memoizing a wrong plan under the right key.
    #[test]
    #[should_panic(expected = "geometry was not derived from device")]
    fn plan_with_geometry_rejects_foreign_geometry() {
        let engine = Engine::new();
        let v5 = xc5vlx110t();
        let v6 = xc6vlx75t();
        let foreign = engine.geometry(&v6);
        let report = PaperPrm::Fir.generator().synthesize(v5.family());
        let _ = engine.plan_with_geometry(&report, &v5, &foreign, &mut PlanScratch::default());
    }

    #[test]
    fn state_round_trips_through_snapshot() {
        let engine = Engine::new();
        let v5 = xc5vlx110t();
        let v6 = xc6vlx75t();
        for prm in PaperPrm::ALL {
            let gen = prm.generator();
            engine.evaluate(gen.as_ref(), &v5).unwrap();
            engine.evaluate(gen.as_ref(), &v6).unwrap();
        }
        // One memoized Err plan, so the round trip covers both arms.
        let mismatched = PaperPrm::Fir.generator().synthesize(Family::Virtex5);
        assert!(engine.plan(&mismatched, &v6).is_err());

        let state = engine.export_state();
        assert_eq!(state.version, SNAPSHOT_VERSION);
        assert_eq!(state.devices.len(), 2);
        assert_eq!(state.plans.len(), 7);
        // JSON round trip is exact.
        let json = serde_json::to_string_pretty(&state).unwrap();
        let parsed: EngineSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(parsed, state);

        // The restored engine answers every point from its memo,
        // byte-identically, without re-planning.
        let restored = Engine::import_state(&parsed).unwrap();
        let mut scratch = PlanScratch::default();
        for prm in PaperPrm::ALL {
            for device in [&v5, &v6] {
                let report = engine.synthesize(prm.generator().as_ref(), device.family());
                let original = engine.plan_with_scratch(&report, device, &mut scratch);
                let replayed = restored.plan_with_scratch(&report, device, &mut scratch);
                assert_eq!(original, replayed, "{prm:?} on {}", device.name());
            }
        }
        assert_eq!(
            restored.plan(&mismatched, &v6),
            engine.plan(&mismatched, &v6)
        );
        let c = restored.snapshot().counters;
        assert_eq!(c.plan_builds, 0, "restored plans never re-ran the search");
        assert_eq!(c.plan_cache_hits, c.plans);
        // Exporting the restored engine reproduces the snapshot exactly.
        assert_eq!(restored.export_state(), state);
    }

    #[test]
    fn import_rejects_bad_snapshots() {
        let engine = Engine::new();
        engine
            .evaluate(PaperPrm::Fir.generator().as_ref(), &xc5vlx110t())
            .unwrap();
        let mut state = engine.export_state();
        state.version += 1;
        assert!(matches!(
            Engine::import_state(&state),
            Err(SnapshotError::VersionMismatch { .. })
        ));
        let mut state = engine.export_state();
        state.plans[0].device = 99;
        assert!(matches!(
            Engine::import_state(&state),
            Err(SnapshotError::DeviceIndexOutOfRange { index: 99, .. })
        ));
    }

    #[test]
    fn reference_engine_matches_sharded_engine() {
        let seed = reference::ReferenceEngine::new();
        let sharded = Engine::new();
        for device in [xc5vlx110t(), xc6vlx75t()] {
            for prm in PaperPrm::ALL {
                let gen = prm.generator();
                assert_eq!(
                    seed.evaluate(gen.as_ref(), &device).unwrap(),
                    sharded.evaluate(gen.as_ref(), &device).unwrap(),
                    "{prm:?} on {}",
                    device.name()
                );
            }
        }
        let a = seed.snapshot().counters;
        let b = sharded.snapshot().counters;
        assert_eq!(a.plans, b.plans);
        assert_eq!(a.plan_cache_hits, b.plan_cache_hits);
        assert_eq!(a.plans_feasible, b.plans_feasible);
    }
}
