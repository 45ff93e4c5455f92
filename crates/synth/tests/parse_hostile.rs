//! Hostile-input suite for `synth::xst::parse_report`: the parser reads
//! `.syr` files a user hands to the planner, so no input may make it
//! panic, and no report it accepts may make planning panic. Every
//! property only requires that parsing *returns* — `Ok` or `Err` — and
//! that each `Ok` report plans (`Ok` or `Err`) on every database device.
//! The suite runs in debug builds, where an arithmetic overflow panics.
//!
//! Inputs range from noise (arbitrary characters mixed with report
//! fragments) to near misses of real reports: `write_report` output with
//! lines dropped or duplicated, and with count values replaced by
//! arbitrary tokens, including values just above `u32::MAX` and
//! `u64::MAX`.

use fabric::{Device, Family};
use proptest::prelude::*;
use synth::xst::{parse_report, write_report};
use synth::{PaperPrm, SynthReport};

/// Parse `text`; when it is accepted, plan the report on every device.
fn parse_and_plan(text: &str, devices: &[Device]) -> Result<(), TestCaseError> {
    if let Ok(report) = parse_report(text) {
        prop_assert!(report.validate().is_ok(), "accepted an inconsistent report");
        for device in devices {
            let _ = prcost::plan_prr(&report, device);
        }
    }
    Ok(())
}

/// Fragments of real report lines, so noise reaches the count parsers.
const FRAGMENTS: [&str; 16] = [
    "* Family : Virtex-5",
    "* Family : Virtex-6",
    "* Family : Spartan-6",
    "* Design : m",
    " Number of Slice Registers: ",
    " Number of Slice LUTs: ",
    " Number of LUT Flip Flop pairs used: ",
    " Number of Block RAM/FIFO: ",
    " Number of DSP48Es: ",
    " Number of DSP48E1s: ",
    " out of 69120  0%",
    ":",
    "\n",
    "4294967296",
    "18446744073709551615",
    "99999999999999999999999",
];

/// One piece of a noise string: an arbitrary character, a digit run or a
/// report fragment.
fn piece() -> impl Strategy<Value = String> {
    prop_oneof![
        3 => any::<u32>().prop_map(|c| char::from_u32(c % 0x11_0000).unwrap_or('?').to_string()),
        2 => (0u64..10, 1usize..30).prop_map(|(d, n)| d.to_string().repeat(n)),
        4 => (0usize..FRAGMENTS.len()).prop_map(|i| FRAGMENTS[i].to_string()),
    ]
}

/// A consistent report: `max(LUTs, FFs) ≤ pairs ≤ LUTs + FFs`, with
/// DSP and BRAM counts from zero to `u64::MAX`. The paper's PRMs are in
/// the mix.
fn report() -> impl Strategy<Value = SynthReport> {
    let random = (
        0usize..Family::ALL.len(),
        0u64..200_000,
        0u64..200_000,
        0u64..=100,
        count(),
        count(),
    )
        .prop_map(|(f, luts, ffs, pct, dsps, brams)| {
            let lo = luts.max(ffs);
            let pairs = lo + (luts + ffs - lo) * pct / 100;
            SynthReport::new("hostile", Family::ALL[f], pairs, luts, ffs, dsps, brams)
        });
    let paper = (0usize..PaperPrm::ALL.len(), 0usize..Family::ALL.len())
        .prop_map(|(p, f)| PaperPrm::ALL[p].synth_report(Family::ALL[f]));
    prop_oneof![3 => random, 1 => paper]
}

/// A count from small to `u64::MAX`.
fn count() -> impl Strategy<Value = u64> {
    prop_oneof![
        3 => 0u64..64,
        1 => any::<u64>(),
        1 => Just(u64::from(u32::MAX) + 1),
        1 => Just(u64::MAX),
    ]
}

/// A replacement for a count value: decimal numbers around the `u32` and
/// `u64` limits, signs, exponents, hex and garbage.
fn token() -> impl Strategy<Value = String> {
    prop_oneof![
        2 => any::<u64>().prop_map(|n| n.to_string()),
        1 => (0u64..1000).prop_map(|k| (u64::from(u32::MAX) + k).to_string()),
        1 => (0u64..1000).prop_map(|k| (u128::from(u64::MAX) + u128::from(k)).to_string()),
        1 => Just(u64::MAX.to_string()),
        1 => (1usize..60).prop_map(|n| "9".repeat(n)),
        1 => (0usize..8).prop_map(|i| {
            ["-5", "x", "", "1e9", "0x10", "+3", "12abc", "½"][i].to_string()
        }),
    ]
}

/// A decimal count near the top of the `u64` range, or just past it.
fn huge() -> impl Strategy<Value = String> {
    prop_oneof![
        2 => (0u64..1 << 20).prop_map(|k| (u64::MAX - k).to_string()),
        1 => (0u64..1 << 20).prop_map(|k| (u64::MAX / 2 + k).to_string()),
        1 => (0u64..1000).prop_map(|k| (u64::from(u32::MAX) + k).to_string()),
        1 => (0u64..1000).prop_map(|k| (u128::from(u64::MAX) + u128::from(k)).to_string()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Noise strings: arbitrary characters, digit runs and fragments of
    /// real report lines.
    #[test]
    fn arbitrary_strings_never_panic(pieces in proptest::collection::vec(piece(), 0..64)) {
        let devices = fabric::all_devices();
        parse_and_plan(&pieces.concat(), &devices)?;
    }

    /// A real report with one line dropped or duplicated per edit.
    #[test]
    fn dropped_or_duplicated_lines_never_panic(
        report in report(),
        edits in proptest::collection::vec((any::<usize>(), any::<bool>()), 1..6),
    ) {
        let devices = fabric::all_devices();
        let text = write_report(&report, "xc_hostile");
        let mut lines: Vec<&str> = text.lines().collect();
        for (at, duplicate) in edits {
            if lines.is_empty() {
                break;
            }
            let i = at % lines.len();
            if duplicate {
                lines.insert(i, lines[i]);
            } else {
                lines.remove(i);
            }
        }
        parse_and_plan(&lines.join("\n"), &devices)?;
    }

    /// A real report with count values replaced by arbitrary tokens.
    #[test]
    fn replaced_counts_never_panic(
        report in report(),
        edits in proptest::collection::vec((any::<usize>(), token()), 1..4),
    ) {
        let devices = fabric::all_devices();
        let text = write_report(&report, "xc_hostile");
        let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
        let counts: Vec<usize> = (0..lines.len())
            .filter(|&i| lines[i].trim_start().starts_with("Number of"))
            .collect();
        for (at, token) in edits {
            let i = counts[at % counts.len()];
            let key = lines[i].rsplit_once(':').map_or("", |(k, _)| k).to_string();
            lines[i] = format!("{key}: {token}");
        }
        parse_and_plan(&lines.join("\n"), &devices)?;
    }

    /// Every count line replaced, each by a value from zero to past
    /// `u64::MAX`: slice counts that only sum past `u64::MAX` reach the
    /// consistency check and the planner.
    #[test]
    fn huge_counts_on_every_line_never_panic(
        report in report(),
        values in proptest::collection::vec(huge(), 8..9),
    ) {
        let devices = fabric::all_devices();
        let text = write_report(&report, "xc_hostile");
        let mut values = values.into_iter();
        let lines: Vec<String> = text
            .lines()
            .map(|line| match line.rsplit_once(':') {
                Some((key, _)) if line.trim_start().starts_with("Number of") => {
                    format!("{key}: {}", values.next().unwrap_or_default())
                }
                _ => line.to_string(),
            })
            .collect();
        parse_and_plan(&lines.join("\n"), &devices)?;
    }

    /// Counts written by `write_report` round-trip whatever their size,
    /// and every such report plans without a panic.
    #[test]
    fn written_reports_round_trip_and_plan(report in report()) {
        let devices = fabric::all_devices();
        let text = write_report(&report, "xc_hostile");
        prop_assert_eq!(parse_report(&text), Ok(report));
        parse_and_plan(&text, &devices)?;
    }
}
