//! Task-trace text format: record and replay multitasking workloads.
//!
//! A line-oriented format so workloads can be versioned, shared and edited
//! by hand:
//!
//! ```text
//! # prfpga task trace v1
//! # id  module      clb dsp bram  arrival_ns  exec_ns  priority
//! 0     fir32       163 32  0     0           100000   1
//! 1     sdram_ctrl  42  0   0     5000        25000    0
//! ```
//!
//! Fields are whitespace-separated; `#` starts a comment; priority is
//! optional (default 0).
//!
//! A trace must also fit the simulators' `u64` nanosecond clock and sums:
//! [`parse_trace`] rejects one whose time horizon passes
//! [`MAX_TRACE_HORIZON_NS`] ([`TraceError::HorizonTooLong`]).

use crate::preempt::PreemptiveTask;
use crate::task::{HwTask, Workload};
use core::fmt;
use core::str::FromStr;
use fabric::Resources;

/// Bound on a trace's time horizon: the task count times (latest arrival
/// plus total execution time), in ns.
///
/// The simulators keep their clock and their sums in `u64` nanoseconds
/// without overflow checks in the event loop. Their clock never passes
/// the latest arrival plus all execution, reconfiguration and context
/// transfer time, and each per-task sum (waiting, response) is at most
/// the task count times that. Capping the trace's part at 2^62 ns leaves
/// three quarters of the `u64` range for the time the PR system adds:
/// the sums stay in range while tasks² × the longest transfer is below
/// 3·2^62 ns (a million tasks at 10 ms per reconfiguration still fit).
/// The cap is far past any real trace: 10⁶ tasks may still span
/// 4.6·10¹² ns (over an hour).
pub const MAX_TRACE_HORIZON_NS: u64 = 1 << 62;

/// Trace parse errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// A line had too few fields.
    TooFewFields {
        /// 1-based line number.
        line: usize,
    },
    /// A numeric field failed to parse.
    BadNumber {
        /// 1-based line number.
        line: usize,
        /// The offending token.
        token: String,
    },
    /// With this line the trace's time horizon passes
    /// [`MAX_TRACE_HORIZON_NS`].
    HorizonTooLong {
        /// 1-based line number.
        line: usize,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::TooFewFields { line } => {
                write!(f, "line {line}: expected at least 7 fields")
            }
            TraceError::BadNumber { line, token } => {
                write!(f, "line {line}: cannot parse number from {token:?}")
            }
            TraceError::HorizonTooLong { line } => write!(
                f,
                "line {line}: tasks x (latest arrival + total execution) passes \
                 {MAX_TRACE_HORIZON_NS} ns, too long to simulate"
            ),
        }
    }
}

impl std::error::Error for TraceError {}

/// Render a workload (priorities all zero) as trace text.
pub fn write_trace(tasks: &[PreemptiveTask]) -> String {
    let mut out = String::from(
        "# prfpga task trace v1\n# id module clb dsp bram arrival_ns exec_ns priority\n",
    );
    for t in tasks {
        out.push_str(&format!(
            "{} {} {} {} {} {} {} {}\n",
            t.id,
            t.module,
            t.needs.clb(),
            t.needs.dsp(),
            t.needs.bram(),
            t.arrival_ns,
            t.exec_ns,
            t.priority
        ));
    }
    out
}

/// Render a non-preemptive workload as trace text.
pub fn write_workload(workload: &Workload) -> String {
    let tasks: Vec<PreemptiveTask> = workload
        .tasks
        .iter()
        .map(|t| PreemptiveTask {
            id: t.id,
            module: t.module.clone(),
            needs: t.needs,
            arrival_ns: t.arrival_ns,
            exec_ns: t.exec_ns,
            priority: 0,
        })
        .collect();
    write_trace(&tasks)
}

/// Parse trace text into prioritized tasks.
///
/// Besides malformed lines, a trace whose time horizon passes
/// [`MAX_TRACE_HORIZON_NS`] is an error, at the first line that takes it
/// past.
pub fn parse_trace(text: &str) -> Result<Vec<PreemptiveTask>, TraceError> {
    let mut tasks: Vec<PreemptiveTask> = Vec::new();
    let (mut latest_arrival, mut total_exec) = (0u64, 0u64);
    for (idx, raw) in text.lines().enumerate() {
        let line = idx + 1;
        let content = raw.split('#').next().unwrap_or("").trim();
        if content.is_empty() {
            continue;
        }
        let fields: Vec<&str> = content.split_whitespace().collect();
        if fields.len() < 7 {
            return Err(TraceError::TooFewFields { line });
        }
        let task = PreemptiveTask {
            id: num(fields[0], line)?,
            module: fields[1].to_string(),
            needs: Resources::new(
                num(fields[2], line)?,
                num(fields[3], line)?,
                num(fields[4], line)?,
            ),
            arrival_ns: num(fields[5], line)?,
            exec_ns: num(fields[6], line)?,
            priority: fields
                .get(7)
                .map(|t| num(t, line))
                .transpose()?
                .unwrap_or(0),
        };
        latest_arrival = latest_arrival.max(task.arrival_ns);
        total_exec = total_exec.saturating_add(task.exec_ns);
        let horizon =
            u128::from(latest_arrival.saturating_add(total_exec)) * (tasks.len() as u128 + 1);
        if horizon > u128::from(MAX_TRACE_HORIZON_NS) {
            return Err(TraceError::HorizonTooLong { line });
        }
        tasks.push(task);
    }
    Ok(tasks)
}

/// Parse one numeric field as the type it is stored in, so a value out of
/// that type's range is a [`TraceError::BadNumber`], not a truncation.
fn num<T: FromStr>(token: &str, line: usize) -> Result<T, TraceError> {
    token.parse().map_err(|_| TraceError::BadNumber {
        line,
        token: token.to_string(),
    })
}

/// Parse trace text into a non-preemptive [`Workload`] (priorities are
/// dropped).
pub fn parse_workload(text: &str) -> Result<Workload, TraceError> {
    let tasks = parse_trace(text)?
        .into_iter()
        .map(|t| HwTask {
            id: t.id,
            module: t.module,
            needs: t.needs,
            arrival_ns: t.arrival_ns,
            exec_ns: t.exec_ns,
            // The trace text format has no deadline column; parsed
            // workloads are loss-system (no deadline accounting).
            deadline_ns: None,
        })
        .collect();
    Ok(Workload::new(tasks))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric::Family;

    fn sample() -> Vec<PreemptiveTask> {
        vec![
            PreemptiveTask {
                id: 0,
                module: "fir32".into(),
                needs: Resources::new(163, 32, 0),
                arrival_ns: 0,
                exec_ns: 100_000,
                priority: 1,
            },
            PreemptiveTask {
                id: 1,
                module: "sdram_ctrl".into(),
                needs: Resources::new(42, 0, 0),
                arrival_ns: 5_000,
                exec_ns: 25_000,
                priority: 0,
            },
        ]
    }

    #[test]
    fn round_trip() {
        let tasks = sample();
        let text = write_trace(&tasks);
        let back = parse_trace(&text).unwrap();
        assert_eq!(back, tasks);
    }

    #[test]
    fn workload_round_trip() {
        let wl = Workload::generate(3, Family::Virtex5, 40, 5, 300, 1_000, 10_000);
        let text = write_workload(&wl);
        let back = parse_workload(&text).unwrap();
        assert_eq!(back, wl);
    }

    #[test]
    fn comments_blank_lines_and_default_priority() {
        let text = "\n# full comment\n3 uart 5 0 0 10 20  # trailing comment\n";
        let tasks = parse_trace(text).unwrap();
        assert_eq!(tasks.len(), 1);
        assert_eq!(tasks[0].id, 3);
        assert_eq!(tasks[0].priority, 0);
        assert_eq!(tasks[0].needs.clb(), 5);
    }

    #[test]
    fn horizon_past_the_bound_is_an_error() {
        let line = |arrival: u64, exec: u64| format!("0 m 1 0 0 {arrival} {exec}\n");
        // One task: its arrival plus its execution is the horizon.
        assert!(parse_trace(&line(MAX_TRACE_HORIZON_NS - 5, 5)).is_ok());
        assert_eq!(
            parse_trace(&line(MAX_TRACE_HORIZON_NS - 5, 6)),
            Err(TraceError::HorizonTooLong { line: 1 })
        );
        // Two tasks count the latest arrival plus both executions twice.
        let half = MAX_TRACE_HORIZON_NS / 2;
        let two = |arrival: u64| format!("{}{}", line(arrival, 5), line(0, 5));
        assert!(parse_trace(&two(half - 10)).is_ok());
        assert_eq!(
            parse_trace(&two(half - 9)),
            Err(TraceError::HorizonTooLong { line: 2 })
        );
        assert_eq!(
            parse_trace(&line(u64::MAX, u64::MAX)),
            Err(TraceError::HorizonTooLong { line: 1 })
        );
    }

    #[test]
    fn errors_carry_line_numbers() {
        assert_eq!(
            parse_trace("0 m 1 2\n"),
            Err(TraceError::TooFewFields { line: 1 })
        );
        assert_eq!(
            parse_trace("# ok\n0 m 1 2 x 10 20\n"),
            Err(TraceError::BadNumber {
                line: 2,
                token: "x".into()
            })
        );
    }
}
