//! Hostile-input suite for `multitask::trace::parse_trace`: `prfpga
//! simulate --trace FILE` reads task traces a user hands it, so no input
//! may make the parser panic, and no number may be silently truncated to
//! fit its field. Every property only requires that parsing *returns* —
//! `Ok` or `Err` — and that each accepted trace writes back to text that
//! parses to the same tasks. The suite runs in debug builds, where an
//! arithmetic overflow panics.
//!
//! Inputs range from arbitrary bytes and noise (arbitrary characters mixed
//! with trace fragments) to near misses of real traces: `write_trace`
//! output with lines dropped or duplicated, and with fields replaced by
//! arbitrary tokens, including values just past `u8::MAX`, `u32::MAX` and
//! `u64::MAX`.
//!
//! Times are also hostile: a trace whose horizon passes
//! `MAX_TRACE_HORIZON_NS` is an error, and every trace that parses must
//! simulate, preemptively or not, without an arithmetic overflow.

use bitstream::IcapModel;
use fabric::database::xc5vlx110t;
use fabric::Resources;
use multitask::preempt::PreemptiveTask;
use multitask::trace::{parse_trace, write_trace, TraceError, MAX_TRACE_HORIZON_NS};
use multitask::{simulate, simulate_preemptive, HwTask, PrSystem, ReuseAware, Workload};
use prcost::PrrOrganization;
use proptest::prelude::*;

/// Parse `text`; when it is accepted, its tasks must round-trip through
/// `write_trace`.
fn parse_and_round_trip(text: &str) -> Result<(), TestCaseError> {
    if let Ok(tasks) = parse_trace(text) {
        prop_assert_eq!(parse_trace(&write_trace(&tasks)), Ok(tasks));
    }
    Ok(())
}

/// Fragments of real trace lines, so noise reaches the field parsers.
const FRAGMENTS: [&str; 14] = [
    "# prfpga task trace v1",
    "#",
    "0 fir32 163 32 0 0 100000 1",
    "uart",
    " ",
    "\t",
    "\n",
    "\r\n",
    "255",
    "256",
    "4294967295",
    "4294967296",
    "18446744073709551615",
    "18446744073709551616",
];

/// One piece of a noise string: an arbitrary character, a digit run or a
/// trace fragment.
fn piece() -> impl Strategy<Value = String> {
    prop_oneof![
        3 => any::<u32>().prop_map(|c| char::from_u32(c % 0x11_0000).unwrap_or('?').to_string()),
        2 => (0u64..10, 1usize..30).prop_map(|(d, n)| d.to_string().repeat(n)),
        4 => (0usize..FRAGMENTS.len()).prop_map(|i| FRAGMENTS[i].to_string()),
    ]
}

/// The error `parse_trace` owes `tasks` as written by `write_trace` (two
/// header lines, then one line per task): the first line at which the
/// task count times (latest arrival + total execution) passes the bound,
/// recomputed here in `u128`.
fn horizon_error(tasks: &[PreemptiveTask]) -> Option<TraceError> {
    let (mut latest, mut exec) = (0u128, 0u128);
    for (i, t) in tasks.iter().enumerate() {
        latest = latest.max(u128::from(t.arrival_ns));
        exec += u128::from(t.exec_ns);
        if (latest + exec) * (i as u128 + 1) > u128::from(MAX_TRACE_HORIZON_NS) {
            return Some(TraceError::HorizonTooLong { line: i + 3 });
        }
    }
    None
}

/// Simulate `tasks` the way `prfpga simulate --trace` does (xc5vlx110t,
/// two 3-CLB-column PRRs of height 1), both preemptively and not. Any
/// overflow in the simulators panics here, in a debug build.
fn simulate_both(tasks: &[PreemptiveTask]) {
    let device = xc5vlx110t();
    let org = PrrOrganization {
        family: device.family(),
        height: 1,
        clb_cols: 3,
        dsp_cols: 0,
        bram_cols: 0,
    };
    let system = PrSystem::homogeneous(&device, org, 2, IcapModel::V5_DMA).unwrap();
    let preemptive = simulate_preemptive(&system, tasks);
    let workload = Workload::new(
        tasks
            .iter()
            .map(|t| HwTask {
                id: t.id,
                module: t.module.clone(),
                needs: t.needs,
                arrival_ns: t.arrival_ns,
                exec_ns: t.exec_ns,
                deadline_ns: None,
            })
            .collect(),
    );
    let report = simulate(&system, &workload, &ReuseAware);
    // Every task fits a PRR, so every task completes, and no task can
    // finish before its arrival plus its execution: a wrapped clock would
    // break this in release builds.
    let finish = tasks
        .iter()
        .map(|t| u128::from(t.arrival_ns) + u128::from(t.exec_ns))
        .max()
        .unwrap_or(0);
    assert_eq!(report.completed as usize, tasks.len());
    assert!(u128::from(report.makespan_ns) >= finish);
    assert_eq!(preemptive.completed as usize, tasks.len());
    assert!(u128::from(preemptive.makespan_ns) >= finish);
}

/// A task with every field from small to its type's maximum.
fn task() -> impl Strategy<Value = PreemptiveTask> {
    (
        any::<u32>(),
        (0usize..4).prop_map(|i| ["fir32", "sdram_ctrl", "m", "uart_9"][i].to_string()),
        (count(), count(), count()),
        (count(), count()),
        any::<u8>(),
    )
        .prop_map(
            |(id, module, (clb, dsp, bram), (arrival_ns, exec_ns), priority)| PreemptiveTask {
                id,
                module,
                needs: Resources::new(clb, dsp, bram),
                arrival_ns,
                exec_ns,
                priority,
            },
        )
}

/// A count from small to `u64::MAX`.
fn count() -> impl Strategy<Value = u64> {
    prop_oneof![
        3 => 0u64..100_000,
        1 => any::<u64>(),
        1 => Just(u64::MAX),
    ]
}

/// A task that fits the simulated PRRs, with arrival and execution times
/// from small to past the horizon bound.
fn timed_task() -> impl Strategy<Value = PreemptiveTask> {
    fn time() -> impl Strategy<Value = u64> {
        prop_oneof![
            2 => 0u64..100_000,
            2 => 0u64..MAX_TRACE_HORIZON_NS / 8,
            1 => Just(MAX_TRACE_HORIZON_NS / 16),
            1 => any::<u64>(),
        ]
    }
    (any::<u32>(), 0usize..3, (time(), time()), 1u64..40).prop_map(
        |(id, module, (arrival_ns, exec_ns), clb)| PreemptiveTask {
            id,
            module: ["a", "b", "c"][module].to_string(),
            needs: Resources::new(clb, 0, 0),
            arrival_ns,
            exec_ns,
            priority: (id % 3) as u8,
        },
    )
}

/// A replacement for a field: decimal numbers around the `u8`, `u32` and
/// `u64` limits, signs, exponents, hex and garbage.
fn token() -> impl Strategy<Value = String> {
    prop_oneof![
        2 => any::<u64>().prop_map(|n| n.to_string()),
        1 => (0u64..1000).prop_map(|k| (u64::from(u8::MAX) + k).to_string()),
        1 => (0u64..1000).prop_map(|k| (u64::from(u32::MAX) + k).to_string()),
        1 => (0u64..1000).prop_map(|k| (u128::from(u64::MAX) + u128::from(k)).to_string()),
        1 => (1usize..60).prop_map(|n| "9".repeat(n)),
        1 => (0usize..8).prop_map(|i| {
            ["-5", "x", "1e9", "0x10", "+3", "12abc", "½", "-0"][i].to_string()
        }),
    ]
}

/// A valid trace of 1–8 tasks.
fn trace() -> impl Strategy<Value = String> {
    proptest::collection::vec(task(), 1..8).prop_map(|tasks| write_trace(&tasks))
}

/// The two truncations the parser once made: an id of 2^32 read as 0 and
/// a priority of 256 read as 0. Both are errors now, as is each field one
/// past its type's maximum; each maximum itself still parses.
#[test]
fn out_of_range_fields_are_rejected_not_truncated() {
    let cases = [
        ("4294967296 m 1 0 0 0 10 0", "4294967296"),
        ("1 m 1 0 0 0 10 256", "256"),
        ("1 m 18446744073709551616 0 0 0 10", "18446744073709551616"),
        ("1 m 1 0 0 18446744073709551616 10", "18446744073709551616"),
        ("1 m 1 0 0 0 18446744073709551616", "18446744073709551616"),
        ("1 m 1 0 0 0 10 -1", "-1"),
    ];
    for (line, token) in cases {
        assert_eq!(
            parse_trace(line),
            Err(TraceError::BadNumber {
                line: 1,
                token: token.to_string()
            }),
            "{line}"
        );
    }
    let max = format!("{} m {m} {m} {m} 0 {m} {}", u32::MAX, u8::MAX, m = u64::MAX);
    assert_eq!(
        parse_trace(&max),
        Err(TraceError::HorizonTooLong { line: 1 })
    );
    let max_counts = format!("{} m {m} {m} {m} 1 2 {}", u32::MAX, u8::MAX, m = u64::MAX);
    let tasks = parse_trace(&max_counts).unwrap();
    assert_eq!((tasks[0].id, tasks[0].priority), (u32::MAX, u8::MAX));
    assert_eq!(tasks[0].needs.clb(), u64::MAX);
}

/// A two-line trace whose second arrival is near `u64::MAX` once made
/// the simulator's clock overflow (a panic in debug builds, a wrapped
/// makespan in release). It is a parse error now, and a trace at the
/// bound simulates.
#[test]
fn time_horizon_past_the_bound_is_rejected() {
    let text = "0 fir 3 0 0 0 1000\n1 fir 3 0 0 18446744073709551000 1000\n";
    assert_eq!(
        parse_trace(text),
        Err(TraceError::HorizonTooLong { line: 2 })
    );
    let quarter = MAX_TRACE_HORIZON_NS / 4;
    let at_bound = format!("0 a 3 0 0 0 {quarter}\n1 b 3 0 0 {quarter} 0\n");
    let tasks = parse_trace(&at_bound).unwrap();
    simulate_both(&tasks);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Arbitrary bytes, read the way a file with invalid UTF-8 would be.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        parse_and_round_trip(&String::from_utf8_lossy(&bytes))?;
    }

    /// Noise strings: arbitrary characters, digit runs and fragments of
    /// real trace lines.
    #[test]
    fn arbitrary_strings_never_panic(pieces in proptest::collection::vec(piece(), 0..64)) {
        parse_and_round_trip(&pieces.concat())?;
    }

    /// Written traces parse back to the same tasks, whatever the field
    /// values, unless their time horizon passes the bound.
    #[test]
    fn written_traces_round_trip(tasks in proptest::collection::vec(task(), 0..8)) {
        let expected = match horizon_error(&tasks) {
            Some(e) => Err(e),
            None => Ok(tasks.clone()),
        };
        prop_assert_eq!(parse_trace(&write_trace(&tasks)), expected);
    }

    /// Every trace that parses simulates without overflow, with times up
    /// to the horizon bound; the others are rejected at the right line.
    #[test]
    fn accepted_traces_simulate_without_overflow(
        tasks in proptest::collection::vec(timed_task(), 1..8),
    ) {
        match parse_trace(&write_trace(&tasks)) {
            Ok(parsed) => {
                prop_assert_eq!(&parsed, &tasks);
                simulate_both(&parsed);
            }
            Err(e) => prop_assert_eq!(Some(e), horizon_error(&tasks)),
        }
    }

    /// A real trace with one line dropped or duplicated per edit.
    #[test]
    fn dropped_or_duplicated_lines_never_panic(
        text in trace(),
        edits in proptest::collection::vec((any::<usize>(), any::<bool>()), 1..6),
    ) {
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
        parse_and_round_trip(&lines.join("\n"))?;
    }

    /// A real trace with fields replaced by arbitrary tokens; a replaced
    /// number is accepted only if it fits its field exactly.
    #[test]
    fn replaced_fields_never_panic_or_truncate(
        text in trace(),
        edits in proptest::collection::vec((any::<usize>(), 0usize..8, token()), 1..4),
    ) {
        let mut lines: Vec<Vec<String>> = text
            .lines()
            .filter(|l| !l.starts_with('#'))
            .map(|l| l.split_whitespace().map(str::to_string).collect())
            .collect();
        for (at, field, token) in &edits {
            let n = lines.len();
            lines[at % n][*field] = token.clone();
        }
        let edited: Vec<String> = lines.iter().map(|l| l.join(" ")).collect();
        let text = edited.join("\n");
        parse_and_round_trip(&text)?;
        if let Ok(tasks) = parse_trace(&text) {
            for (task, fields) in tasks.iter().zip(&lines) {
                prop_assert_eq!(task.id.to_string(), fields[0].trim_start_matches('+'));
                prop_assert_eq!(task.priority.to_string(), fields[7].trim_start_matches('+'));
                prop_assert_eq!(task.exec_ns.to_string(), fields[6].trim_start_matches('+'));
            }
        }
    }
}
