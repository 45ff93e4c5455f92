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

use fabric::Resources;
use multitask::preempt::PreemptiveTask;
use multitask::trace::{parse_trace, write_trace, TraceError};
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
    let max = format!(
        "{} m {m} {m} {m} {m} {m} {}",
        u32::MAX,
        u8::MAX,
        m = u64::MAX
    );
    let tasks = parse_trace(&max).unwrap();
    assert_eq!((tasks[0].id, tasks[0].priority), (u32::MAX, u8::MAX));
    assert_eq!(tasks[0].exec_ns, u64::MAX);
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
    /// values.
    #[test]
    fn written_traces_round_trip(tasks in proptest::collection::vec(task(), 0..8)) {
        prop_assert_eq!(parse_trace(&write_trace(&tasks)), Ok(tasks));
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
