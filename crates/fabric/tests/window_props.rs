//! Property tests for the fabric window search (the physical-feasibility
//! primitive under the Fig. 1 flow), plus the exhaustive equivalence
//! suite for the composition index: [`fabric::DeviceGeometry`] must
//! agree — start column, window bytes, everything — with the uncached
//! linear scan ([`Device::find_window`]) on every achievable composition
//! of every database device and on random synthetic fabrics.

use fabric::{ColumnKind, Device, DeviceGeometry, Family, ResourceKind, WindowRequest};
use proptest::prelude::*;

fn arb_columns() -> impl Strategy<Value = Vec<ColumnKind>> {
    proptest::collection::vec(
        prop_oneof![
            6 => Just(ResourceKind::Clb),
            1 => Just(ResourceKind::Dsp),
            1 => Just(ResourceKind::Bram),
            1 => Just(ResourceKind::Iob),
            1 => Just(ResourceKind::Clk),
        ],
        1..80,
    )
}

fn arb_device() -> impl Strategy<Value = Device> {
    (arb_columns(), 1u32..9).prop_map(|(cols, rows)| {
        Device::new("prop", Family::Virtex5, rows, cols).expect("non-empty")
    })
}

fn arb_request() -> impl Strategy<Value = WindowRequest> {
    (0u32..12, 0u32..3, 0u32..3, 1u32..9)
        .prop_filter("non-empty", |(c, d, b, _)| c + d + b > 0)
        .prop_map(|(c, d, b, h)| WindowRequest::new(c, d, b, h))
}

proptest! {
    /// Any window the search returns really satisfies the request: exact
    /// per-kind counts, no IOB/CLK, in device bounds, and its recorded
    /// columns agree with the device layout.
    #[test]
    fn found_windows_are_sound(device in arb_device(), req in arb_request()) {
        if let Some(w) = device.find_window(&req) {
            prop_assert!(req.height <= device.rows());
            prop_assert!(w.end_col() <= device.width());
            prop_assert_eq!(w.width, req.width());
            prop_assert_eq!(w.height, req.height);
            let counts = w.column_counts();
            prop_assert_eq!(counts.clb(), u64::from(req.clb_cols));
            prop_assert_eq!(counts.dsp(), u64::from(req.dsp_cols));
            prop_assert_eq!(counts.bram(), u64::from(req.bram_cols));
            prop_assert!(w.columns.iter().all(|c| c.allowed_in_prr()));
            prop_assert_eq!(
                &w.columns[..],
                &device.columns()[w.start_col..w.end_col()]
            );
        }
    }

    /// The search is complete and leftmost: the returned start column is
    /// the first position whose span matches; if it returns None, no
    /// position matches.
    #[test]
    fn search_is_leftmost_and_complete(device in arb_device(), req in arb_request()) {
        let width = req.width() as usize;
        let brute: Option<usize> = if req.height > device.rows() || width == 0 {
            None
        } else {
            (0..device.width().saturating_sub(width - 1)).find(|&start| {
                let span = &device.columns()[start..start + width];
                let mut c = (0u32, 0u32, 0u32);
                for &k in span {
                    match k {
                        ResourceKind::Clb => c.0 += 1,
                        ResourceKind::Dsp => c.1 += 1,
                        ResourceKind::Bram => c.2 += 1,
                        _ => return false,
                    }
                }
                c == (req.clb_cols, req.dsp_cols, req.bram_cols)
            })
        };
        prop_assert_eq!(device.find_window(&req).map(|w| w.start_col), brute);
    }

    /// Device resource totals equal column counts x rows x per-column
    /// density.
    #[test]
    fn totals_are_consistent(device in arb_device()) {
        let p = device.params();
        let counts = device.column_counts();
        let totals = device.total_resources();
        prop_assert_eq!(
            totals.clb(),
            counts.clb() * u64::from(device.rows()) * u64::from(p.clb_col)
        );
        prop_assert_eq!(
            totals.dsp(),
            counts.dsp() * u64::from(device.rows()) * u64::from(p.dsp_col)
        );
        prop_assert_eq!(
            totals.bram(),
            counts.bram() * u64::from(device.rows()) * u64::from(p.bram_col)
        );
    }

    /// `windows()` yields strictly increasing, pairwise-distinct start
    /// columns, and each yielded window matches the request.
    #[test]
    fn windows_iterator_is_ordered(device in arb_device(), req in arb_request()) {
        let starts: Vec<usize> = device.windows(&req).map(|w| w.start_col).collect();
        prop_assert!(starts.windows(2).all(|p| p[0] < p[1]));
    }

    /// Equivalence on random synthetic fabrics: the composition index and
    /// the uncached linear scan return identical windows (or identically
    /// nothing) for arbitrary requests.
    #[test]
    fn index_and_scan_agree(device in arb_device(), req in arb_request()) {
        let index = DeviceGeometry::new(&device);
        prop_assert_eq!(index.find_window(&device, &req), device.find_window(&req));
    }
}

/// Every achievable composition of `device` (every contiguous IOB/CLK-free
/// span), plus near-miss variants that have no exact window, as
/// `(clb, dsp, bram)` triples.
fn compositions_to_probe(device: &Device) -> Vec<(u32, u32, u32)> {
    let cols = device.columns();
    let mut comps = Vec::new();
    for start in 0..cols.len() {
        let mut c = (0u32, 0u32, 0u32);
        for &kind in &cols[start..] {
            match kind {
                ResourceKind::Clb => c.0 += 1,
                ResourceKind::Dsp => c.1 += 1,
                ResourceKind::Bram => c.2 += 1,
                _ => break,
            }
            comps.push(c);
            // Near misses: one extra column of each kind beyond this
            // span's exact composition exercises the None paths.
            comps.push((c.0 + 1, c.1, c.2));
            comps.push((c.0, c.1 + 1, c.2));
            comps.push((c.0, c.1, c.2 + 1));
        }
    }
    comps.sort_unstable();
    comps.dedup();
    comps
}

/// Exhaustive equivalence on the paper's device database: for every
/// achievable (and near-miss) composition of every device, at every
/// height from 1 through rows + 1, the composition index and the
/// uncached scan agree exactly.
#[test]
fn index_matches_reference_on_every_database_composition() {
    for device in fabric::all_devices() {
        let index = DeviceGeometry::new(&device);
        for (clb, dsp, bram) in compositions_to_probe(&device) {
            assert_eq!(
                index.leftmost_start(clb, dsp, bram),
                device
                    .find_window(&WindowRequest::new(clb, dsp, bram, 1))
                    .map(|w| w.start_col),
                "{}: leftmost start diverges for ({clb},{dsp},{bram})",
                device.name()
            );
            for height in 1..=device.rows() + 1 {
                let req = WindowRequest::new(clb, dsp, bram, height);
                let direct = device.find_window(&req);
                assert_eq!(
                    index.find_window(&device, &req),
                    direct,
                    "{}: index vs scan diverge for ({clb},{dsp},{bram}) h={height}",
                    device.name()
                );
            }
        }
    }
}
