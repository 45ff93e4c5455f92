//! Hostile-input suite for `Engine::import_state`: `prfpga serve --state`
//! reads engine snapshots from disk, so a snapshot is untrusted input. An
//! import must return `Err`, or an engine whose every memoized plan equals
//! planning its key afresh; it must never panic and never poison the memo.
//!
//! Snapshots are edited in the ways a tampered file can differ from an
//! exported one: a plan record's `result` changed, its `req` swapped with
//! another record's or replaced by huge numbers, its device index out of
//! range, and devices with zero rows or no columns (which `Device::new`
//! refuses but deserialization does not).

use fabric::database::{xc5vlx110t, xc6vlx75t};
use fabric::{Device, Family};
use prcost::search::plan_prr_from_requirements;
use prcost::{CostError, Engine, EngineSnapshot, PlanScratch, PrrRequirements, SnapshotError};
use proptest::prelude::*;
use synth::PaperPrm;

/// An exported snapshot with feasible and infeasible records on two
/// devices: every paper PRM on both, one family mismatch, and one
/// oversized PRM.
fn exported() -> EngineSnapshot {
    let engine = Engine::new();
    let mut scratch = PlanScratch::default();
    for device in [xc5vlx110t(), xc6vlx75t()] {
        for prm in PaperPrm::ALL {
            let report = prm.synth_report(device.family());
            let _ = engine.plan_arc(&report, &device, &mut scratch);
        }
        let oversized = PrrRequirements::new(device.family(), 900_000, 900_000, 900_000, 0, 0);
        let _ = engine.plan_requirements(&oversized, &device, &mut scratch);
    }
    let mismatched = PaperPrm::Fir.synth_report(Family::Virtex5);
    let _ = engine.plan_arc(&mismatched, &xc6vlx75t(), &mut scratch);
    engine.export_state()
}

fn requirements(family: Family, req: [u64; 5]) -> PrrRequirements {
    PrrRequirements::new(family, req[0], req[1], req[2], req[3], req[4])
}

/// The plan a record's key gets from fresh planning.
fn fresh(snapshot: &EngineSnapshot, index: usize) -> Result<prcost::PrrPlan, CostError> {
    let record = &snapshot.plans[index];
    plan_prr_from_requirements(
        &requirements(record.family, record.req),
        &snapshot.devices[record.device as usize],
    )
}

/// `device` with zero rows and/or no columns, edited through its
/// serialized form as a tampered file would carry it.
fn degenerate(device: &Device, zero_rows: bool, no_columns: bool) -> Device {
    use serde_json::Value;
    let Value::Object(mut fields) = serde_json::to_value(device).unwrap() else {
        unreachable!("a device serializes to an object")
    };
    for (key, value) in &mut fields {
        match key.as_str() {
            "rows" if zero_rows => *value = Value::UInt(0),
            "columns" if no_columns => *value = Value::Array(Vec::new()),
            _ => {}
        }
    }
    let edited: Device = serde_json::from_value(&Value::Object(fields)).unwrap();
    assert!(!zero_rows || edited.rows() == 0);
    assert!(!no_columns || edited.columns().is_empty());
    edited
}

/// Either the import failed, or every plan the restored engine holds
/// equals fresh planning of its key and a lookup through the engine
/// returns it.
fn assert_never_poisoned(snapshot: &EngineSnapshot) -> Result<(), TestCaseError> {
    let Ok(engine) = Engine::import_state(snapshot) else {
        return Ok(());
    };
    let held = engine.export_state();
    let mut scratch = PlanScratch::default();
    for (index, record) in held.plans.iter().enumerate() {
        let expected = fresh(&held, index);
        prop_assert_eq!(&record.result, &expected);
        let device = &held.devices[record.device as usize];
        let req = requirements(record.family, record.req);
        let looked_up = engine.plan_requirements(&req, device, &mut scratch);
        prop_assert_eq!(looked_up.as_ref(), &expected);
    }
    Ok(())
}

#[test]
fn exported_snapshots_import() {
    let snapshot = exported();
    assert!(snapshot.plans.iter().any(|r| r.result.is_ok()));
    assert!(snapshot.plans.iter().any(|r| r.result.is_err()));
    let engine = Engine::import_state(&snapshot).unwrap();
    assert_eq!(engine.export_state(), snapshot);
    assert_never_poisoned(&snapshot).unwrap();
}

#[test]
fn mutated_results_are_rejected() {
    let snapshot = exported();
    for index in 0..snapshot.plans.len() {
        let mut tampered = snapshot.clone();
        let record = &mut tampered.plans[index];
        record.result = match &record.result {
            Ok(plan) => {
                let mut plan = plan.clone();
                plan.bitstream_bytes -= 1;
                Ok(plan)
            }
            Err(_) => Err(CostError::EmptyRequirements),
        };
        assert_eq!(
            Engine::import_state(&tampered).err(),
            Some(SnapshotError::PlanMismatch { index })
        );
    }
    // A feasible plan moved onto a point that plans to an `Err`.
    let mut tampered = snapshot.clone();
    let ok = tampered
        .plans
        .iter()
        .position(|r| r.result.is_ok())
        .unwrap();
    let err = tampered
        .plans
        .iter()
        .position(|r| r.result.is_err())
        .unwrap();
    tampered.plans[err].result = tampered.plans[ok].result.clone();
    assert_eq!(
        Engine::import_state(&tampered).err(),
        Some(SnapshotError::PlanMismatch { index: err })
    );
}

#[test]
fn swapped_requirements_are_rejected() {
    let snapshot = exported();
    let (a, b) = (0, 1);
    assert_eq!(snapshot.plans[a].device, snapshot.plans[b].device);
    assert_ne!(snapshot.plans[a].req, snapshot.plans[b].req);
    let mut tampered = snapshot.clone();
    tampered.plans[a].req = snapshot.plans[b].req;
    tampered.plans[b].req = snapshot.plans[a].req;
    assert_eq!(
        Engine::import_state(&tampered).err(),
        Some(SnapshotError::PlanMismatch { index: a })
    );
}

#[test]
fn device_index_out_of_range_is_rejected() {
    let snapshot = exported();
    for bad in [snapshot.devices.len() as u32, u32::MAX] {
        let mut tampered = snapshot.clone();
        tampered.plans[3].device = bad;
        assert_eq!(
            Engine::import_state(&tampered).err(),
            Some(SnapshotError::DeviceIndexOutOfRange {
                index: bad,
                devices: snapshot.devices.len(),
            })
        );
    }
}

#[test]
fn huge_requirement_numbers_replay_or_are_rejected() {
    let snapshot = exported();
    for req in [
        [u64::MAX; 5],
        [u64::MAX, 0, 0, u64::MAX, u64::MAX],
        [1 << 40; 5],
    ] {
        // Claiming an unrelated result is caught.
        let mut tampered = snapshot.clone();
        tampered.plans[0].req = req;
        assert_eq!(
            Engine::import_state(&tampered).err(),
            Some(SnapshotError::PlanMismatch { index: 0 })
        );
        // Claiming the true result is accepted, and nothing is poisoned.
        tampered.plans[0].result = fresh(&tampered, 0);
        assert!(tampered.plans[0].result.is_err());
        assert!(Engine::import_state(&tampered).is_ok());
        assert_never_poisoned(&tampered).unwrap();
    }
}

#[test]
fn degenerate_devices_replay_or_are_rejected() {
    let snapshot = exported();
    for (zero_rows, no_columns) in [(true, false), (false, true), (true, true)] {
        let mut tampered = snapshot.clone();
        tampered.devices[0] = degenerate(&snapshot.devices[0], zero_rows, no_columns);
        let index = tampered
            .plans
            .iter()
            .position(|r| r.device == 0 && r.result.is_ok())
            .unwrap();
        // The recorded feasible plan no longer holds on the edited device.
        assert_eq!(
            Engine::import_state(&tampered).err(),
            Some(SnapshotError::PlanMismatch { index })
        );
        // With every device-0 record set to its fresh result, the import
        // is accepted and serves exactly fresh planning.
        for i in 0..tampered.plans.len() {
            if tampered.plans[i].device == 0 {
                tampered.plans[i].result = fresh(&tampered, i);
            }
        }
        assert!(Engine::import_state(&tampered).is_ok());
        assert_never_poisoned(&tampered).unwrap();
    }
}

/// One edit a tampered snapshot can carry.
#[derive(Debug, Clone)]
enum Edit {
    /// Replace a requirement number.
    Req {
        record: usize,
        field: usize,
        value: u64,
    },
    /// Copy one record's result onto another.
    Result { from: usize, to: usize },
    /// Point a record at another device index.
    Device { record: usize, device: u32 },
    /// Give a device zero rows or no columns.
    Degenerate { device: usize, rows: bool },
    /// Swap two records' requirements.
    Swap { a: usize, b: usize },
}

fn edit() -> impl Strategy<Value = Edit> {
    let value = prop_oneof![
        3 => 0u64..4_000,
        1 => any::<u64>(),
        1 => Just(u64::MAX),
    ];
    prop_oneof![
        (any::<usize>(), 0usize..5, value).prop_map(|(record, field, value)| Edit::Req {
            record,
            field,
            value
        }),
        (any::<usize>(), any::<usize>()).prop_map(|(from, to)| Edit::Result { from, to }),
        (any::<usize>(), 0u32..4).prop_map(|(record, device)| Edit::Device { record, device }),
        (0usize..2, any::<bool>()).prop_map(|(device, rows)| Edit::Degenerate { device, rows }),
        (any::<usize>(), any::<usize>()).prop_map(|(a, b)| Edit::Swap { a, b }),
    ]
}

fn apply(snapshot: &mut EngineSnapshot, edit: &Edit) {
    let n = snapshot.plans.len();
    match *edit {
        Edit::Req {
            record,
            field,
            value,
        } => snapshot.plans[record % n].req[field] = value,
        Edit::Result { from, to } => {
            snapshot.plans[to % n].result = snapshot.plans[from % n].result.clone();
        }
        Edit::Device { record, device } => snapshot.plans[record % n].device = device,
        Edit::Degenerate { device, rows } => {
            let d = device % snapshot.devices.len();
            snapshot.devices[d] = degenerate(&snapshot.devices[d], rows, !rows);
        }
        Edit::Swap { a, b } => {
            let (a, b) = (a % n, b % n);
            let req = snapshot.plans[a].req;
            snapshot.plans[a].req = snapshot.plans[b].req;
            snapshot.plans[b].req = req;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any mix of edits gives `Err` or an engine that plans like a fresh
    /// one; with the edited records' results reset to their fresh value,
    /// the import also succeeds whenever every device index is in range.
    #[test]
    fn edited_snapshots_never_poison_the_memo(
        edits in proptest::collection::vec(edit(), 1..5),
    ) {
        let mut snapshot = exported();
        for e in &edits {
            apply(&mut snapshot, e);
        }
        assert_never_poisoned(&snapshot)?;

        let in_range = snapshot
            .plans
            .iter()
            .all(|r| (r.device as usize) < snapshot.devices.len());
        if in_range {
            for i in 0..snapshot.plans.len() {
                snapshot.plans[i].result = fresh(&snapshot, i);
            }
            prop_assert!(Engine::import_state(&snapshot).is_ok());
            assert_never_poisoned(&snapshot)?;
        }
    }
}
