//! Golden digest of layout decisions.
//!
//! `simulate_layout` runs a pinned set of heavy-tailed arrival streams on
//! the xc5vlx110t with `DefragPolicy::Always` and a depth-3 multi-move
//! search, once with proactive defrag off and once on. Every report is
//! serialized to JSON and folded, together with the exact bit patterns
//! of its fragmentation floats, into one FNV-1a digest. Any change to a
//! placement, an admission verdict, a relocation or a fragmentation
//! sample changes the digest.
//!
//! The pinned value was computed with the run-list `FreeSpace` and the
//! run-splicing defrag2 search that preceded the row-mask
//! representation; the row masks must reproduce it bit for bit.

use fabric::Family;
use layout::{simulate_layout, DefragPolicy, LayoutConfig, LayoutReport};
use multitask::Workload;

/// Streams per configuration.
const STREAMS: u64 = 32;
/// Arrivals per stream.
const ARRIVALS: u32 = 200;
/// Digest of all `2 × STREAMS` reports, in run order.
const GOLDEN: u64 = 0xa62d_3d53_18e6_1165;

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

fn fold(h: u64, report: &LayoutReport) -> u64 {
    let json = serde_json::to_string(report).expect("report serializes");
    let h = fnv1a(h, json.as_bytes());
    let h = fnv1a(h, &report.peak_fragmentation.to_bits().to_le_bytes());
    fnv1a(h, &report.mean_fragmentation.to_bits().to_le_bytes())
}

#[test]
fn layout_decisions_match_the_pinned_digest() {
    let device = fabric::database::xc5vlx110t();
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    let mut relocations = 0u32;
    for proactive in [false, true] {
        let config = LayoutConfig {
            policy: DefragPolicy::Always,
            depth: 3,
            proactive,
            ..LayoutConfig::default()
        };
        for seed in 0..STREAMS {
            let workload = Workload::generate_heavy_tailed(
                1_000 + seed,
                Family::Virtex5,
                ARRIVALS,
                24,
                400,
                100_000,
                400_000,
            );
            let report = simulate_layout(&device, &workload, &config);
            relocations += report.relocations;
            digest = fold(digest, &report);
        }
    }
    assert!(relocations > 0, "the pinned streams must exercise defrag2");
    assert_eq!(
        digest, GOLDEN,
        "layout decisions changed: digest {digest:#018x}"
    );
}
