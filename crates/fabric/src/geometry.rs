//! Composition-indexed device geometry: every window-feasibility probe is
//! a lock-free O(1) hash lookup against an index built once per device.
//!
//! The Fig. 1 search probes the same device with many
//! [`WindowRequest`]s: one per candidate height, and — when a height has
//! no exact-composition window — hundreds more for padded organizations.
//! [`Device::find_window`] answers each probe by rescanning the column
//! list and tallying every candidate span (O(columns × width) per probe).
//!
//! [`DeviceGeometry`] instead *enumerates the entire answer space up
//! front*. A window is a span of contiguous columns containing no IOB/CLK
//! column, so every feasible window lives inside one of the maximal
//! IOB/CLK-free **runs** of the column list. At construction we walk each
//! run once per start column, extending the span one column at a time with
//! O(1) count updates, and intern each achievable composition
//! `(W_CLB, W_DSP, W_BRAM)` → leftmost start column into a hash table.
//! Starts are visited in ascending order across and within runs, so
//! first-insert-wins yields exactly the leftmost match that
//! [`Device::find_window`] would find. Construction is O(Σ runᵢ²) — a few
//! thousand span visits even on the widest database device — and the
//! resulting table is immutable, so probes are lock-free and shared
//! geometry scales linearly across sweep worker threads.
//!
//! A composition absent from the index has no window on the device, and
//! the zero composition `(0, 0, 0)` is never indexed (spans have width
//! ≥ 1) — both return `None`, exactly as the rescan does. Results are
//! byte-identical to [`Device::find_window`]; the equivalence suite in
//! `crates/fabric/tests/window_props.rs` checks the two against each other
//! on every database device and on random fabrics.

use crate::device::Device;
use crate::window::{Window, WindowRequest};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::mem;
use std::sync::atomic::{AtomicU64, Ordering};

/// Packs a composition into one `u64` index key: 21 bits per count, far
/// above any device's column count.
fn comp_key(clb: u32, dsp: u32, bram: u32) -> u64 {
    (u64::from(clb) << 42) | (u64::from(dsp) << 21) | u64::from(bram)
}

/// Single-multiply hasher for the packed composition keys. The padded
/// fallback probes the index hundreds of times per resolution, so probe
/// latency matters: this replaces SipHash with a splitmix64 finalizer —
/// a few ALU ops, well-mixed low bits for the table's bucket selection.
#[derive(Default)]
struct CompKeyHasher(u64);

impl Hasher for CompKeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("composition keys hash as u64");
    }

    fn write_u64(&mut self, key: u64) {
        let mut x = key;
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        self.0 = x ^ (x >> 31);
    }
}

/// Precomputed window-search geometry for one [`Device`]: a read-only
/// composition → leftmost-start index.
#[derive(Debug)]
pub struct DeviceGeometry {
    rows: u32,
    width: usize,
    /// [`Device::layout_hash`] of the device this index was built from,
    /// recorded so callers handed a (device, geometry) pair can cheaply
    /// verify they belong together.
    source_hash: u64,
    /// Packed `(W_CLB, W_DSP, W_BRAM)` → leftmost start column of a
    /// matching span. Immutable after construction; absent ⇒ no window
    /// exists.
    index: HashMap<u64, u32, BuildHasherDefault<CompKeyHasher>>,
    probes: AtomicU64,
}

impl DeviceGeometry {
    /// Build the composition index of `device`.
    ///
    /// Walks the maximal IOB/CLK-free runs ([`Device::prr_free_runs`]),
    /// then for each start column in each run extends the span rightward
    /// with O(1) incremental counts, interning every composition on first
    /// sight (ascending start order ⇒ the stored start is the leftmost).
    pub fn new(device: &Device) -> Self {
        let columns = device.columns();
        let mut index: HashMap<u64, u32, BuildHasherDefault<CompKeyHasher>> = HashMap::default();
        for run in device.prr_free_runs() {
            for start in run.clone() {
                let mut counts = [0u32; 3];
                for &kind in &columns[start..run.end] {
                    counts[kind.prr_count_slot()] += 1;
                    index
                        .entry(comp_key(counts[0], counts[1], counts[2]))
                        .or_insert(start as u32);
                }
            }
        }
        DeviceGeometry {
            rows: device.rows(),
            width: device.width(),
            source_hash: device.layout_hash(),
            index,
            probes: AtomicU64::new(0),
        }
    }

    /// [`Device::layout_hash`] of the device this geometry was derived
    /// from. The planning engine checks this against the device it is
    /// handed alongside a caller-supplied geometry — a mismatched pair
    /// would otherwise silently memoize a wrong plan under the right key.
    pub fn source_layout_hash(&self) -> u64 {
        self.source_hash
    }

    /// Whether this geometry was derived from `device` (layout-hash
    /// identity; collisions aside, equivalent to having been built by
    /// [`DeviceGeometry::new`] on an equal device).
    pub fn matches_device(&self, device: &Device) -> bool {
        self.source_hash == device.layout_hash()
            && self.width == device.width()
            && self.rows == device.rows()
    }

    /// Fabric rows of the underlying device.
    pub fn rows(&self) -> u32 {
        self.rows
    }

    /// Column count of the underlying device.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Leftmost start column of a span containing exactly `clb`/`dsp`/
    /// `bram` columns of each kind and no IOB/CLK columns, or `None`.
    /// Lock-free O(1): one probe of the read-only composition index.
    /// The answer is independent of any requested height.
    pub fn leftmost_start(&self, clb: u32, dsp: u32, bram: u32) -> Option<usize> {
        self.probes.fetch_add(1, Ordering::Relaxed);
        self.index
            .get(&comp_key(clb, dsp, bram))
            .map(|&s| s as usize)
    }

    /// Leftmost window matching `req` on `device`, behaviorally identical
    /// to [`Device::find_window`] but answered from the composition index.
    ///
    /// `device` must be the device this geometry was derived from (checked
    /// in debug builds by column count).
    pub fn find_window(&self, device: &Device, req: &WindowRequest) -> Option<Window> {
        debug_assert_eq!(device.width(), self.width, "geometry/device mismatch");
        if req.height < 1 || req.height > self.rows || req.width() < 1 {
            return None;
        }
        let start = self.leftmost_start(req.clb_cols, req.dsp_cols, req.bram_cols)?;
        let width = req.width() as usize;
        Some(Window {
            start_col: start,
            width: req.width(),
            row: 1,
            height: req.height,
            columns: device.columns()[start..start + width].to_vec(),
        })
    }

    /// Number of distinct achievable compositions interned for this device
    /// (the index size; fixed at construction).
    pub fn distinct_compositions(&self) -> u64 {
        self.index.len() as u64
    }

    /// Total composition-index probes answered (via [`Self::leftmost_start`],
    /// directly or through [`Self::find_window`]).
    pub fn probe_count(&self) -> u64 {
        self.probes.load(Ordering::Relaxed)
    }

    /// Approximate resident size of the composition index in bytes
    /// (allocated key/value slots; excludes the hash table's control
    /// metadata, so treat it as a lower-bound estimate).
    pub fn index_bytes(&self) -> usize {
        self.index.capacity() * mem::size_of::<(u64, u32)>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::ColumnSpec;
    use crate::database::all_devices;
    use crate::family::Family;
    use crate::resource::ResourceKind::*;

    fn tiny() -> Device {
        Device::from_spec(
            "tiny",
            Family::Virtex5,
            4,
            &[
                ColumnSpec::one(Iob),
                ColumnSpec::run(Clb, 2),
                ColumnSpec::one(Bram),
                ColumnSpec::one(Clb),
                ColumnSpec::one(Dsp),
                ColumnSpec::run(Clb, 2),
                ColumnSpec::one(Clk),
                ColumnSpec::one(Clb),
            ],
        )
        .unwrap()
    }

    #[test]
    fn matches_device_find_window_on_tiny() {
        let d = tiny();
        let geo = DeviceGeometry::new(&d);
        for clb in 0..4 {
            for dsp in 0..2 {
                for bram in 0..2 {
                    for h in 0..6 {
                        let req = WindowRequest::new(clb, dsp, bram, h);
                        let expected = d.find_window(&req);
                        assert_eq!(geo.find_window(&d, &req), expected, "req {req:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn matches_device_find_window_on_database() {
        for d in all_devices() {
            let geo = DeviceGeometry::new(&d);
            for clb in [0, 1, 2, 5, 17] {
                for dsp in [0, 1, 2] {
                    for bram in [0, 1, 2] {
                        let req = WindowRequest::new(clb, dsp, bram, 1);
                        assert_eq!(
                            geo.find_window(&d, &req),
                            d.find_window(&req),
                            "{} {req:?}",
                            d.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn probes_accumulate_and_index_is_populated() {
        let d = tiny();
        let geo = DeviceGeometry::new(&d);
        assert!(geo.distinct_compositions() > 0);
        assert!(geo.index_bytes() > 0);
        let w1 = geo.find_window(&d, &WindowRequest::new(2, 0, 1, 1));
        let w4 = geo.find_window(&d, &WindowRequest::new(2, 0, 1, 4));
        // Different heights share one composition entry: same start column.
        assert_eq!(w1.unwrap().start_col, w4.unwrap().start_col);
        assert_eq!(geo.probe_count(), 2);
    }

    #[test]
    fn infeasible_height_short_circuits() {
        let d = tiny();
        let geo = DeviceGeometry::new(&d);
        assert!(geo
            .find_window(&d, &WindowRequest::new(1, 0, 0, 5))
            .is_none());
        assert!(geo
            .find_window(&d, &WindowRequest::new(0, 0, 0, 1))
            .is_none());
        // Height short-circuits never touch (and never count) a probe.
        assert_eq!(geo.probe_count(), 0);
    }

    #[test]
    fn index_enumerates_every_achievable_composition() {
        // Brute-force every span of every database device: each clean span's
        // composition must be indexed with the leftmost matching start, and
        // nothing else may be indexed.
        for d in all_devices() {
            let geo = DeviceGeometry::new(&d);
            let cols = d.columns();
            let mut expected: HashMap<(u32, u32, u32), u32> = HashMap::new();
            for start in 0..cols.len() {
                for end in start + 1..=cols.len() {
                    let span = &cols[start..end];
                    if span.iter().any(|k| !k.allowed_in_prr()) {
                        continue;
                    }
                    let mut c = [0u32; 3];
                    for k in span {
                        c[k.prr_count_slot()] += 1;
                    }
                    expected.entry((c[0], c[1], c[2])).or_insert(start as u32);
                }
            }
            assert_eq!(
                geo.distinct_compositions(),
                expected.len() as u64,
                "{}",
                d.name()
            );
            for (&(clb, dsp, bram), &start) in &expected {
                assert_eq!(
                    geo.leftmost_start(clb, dsp, bram),
                    Some(start as usize),
                    "{} ({clb},{dsp},{bram})",
                    d.name()
                );
            }
        }
    }
}
