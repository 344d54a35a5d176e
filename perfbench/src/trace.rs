//! Self times from the program's own telemetry spans.
//!
//! `Telemetry::chrome_trace` renders every thread's retained spans as
//! balanced, well-nested `B`/`E` pairs. Walking each thread's events with a
//! stack gives every phase's inclusive time, its self time (inclusive minus
//! the time its child spans cover) and the time of spans with no parent.

use invnorm_tensor::telemetry::{Phase, PHASES, PHASE_COUNT};

/// Per-phase totals over one or more traces, in nanoseconds.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct PhaseTimes {
    /// Span durations, children included.
    pub inclusive: [u64; PHASE_COUNT],
    /// Span durations minus the time their child spans cover.
    pub self_ns: [u64; PHASE_COUNT],
    /// Durations of spans that no other span encloses, by phase.
    pub root: [u64; PHASE_COUNT],
}

impl PhaseTimes {
    /// Adds another trace's totals.
    pub fn add(&mut self, other: &PhaseTimes) {
        for i in 0..PHASE_COUNT {
            self.inclusive[i] += other.inclusive[i];
            self.self_ns[i] += other.self_ns[i];
            self.root[i] += other.root[i];
        }
    }

    /// Total time of every root span (equals the sum of all self times).
    pub fn root_total(&self) -> u64 {
        self.root.iter().sum()
    }

    /// Inclusive time of one phase.
    pub fn inclusive(&self, phase: Phase) -> u64 {
        self.inclusive[phase as usize]
    }

    /// Self time of one phase.
    pub fn self_time(&self, phase: Phase) -> u64 {
        self.self_ns[phase as usize]
    }

    /// Root-span time of one phase.
    pub fn root(&self, phase: Phase) -> u64 {
        self.root[phase as usize]
    }
}

fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let start = line.find(key)? + key.len();
    let rest = &line[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim_matches('"'))
}

/// Parses a `ts` value (`<µs>.<ns, three digits>`) into nanoseconds.
fn parse_ts(ts: &str) -> Option<u64> {
    let (us, ns) = ts.split_once('.').unwrap_or((ts, "0"));
    Some(us.parse::<u64>().ok()? * 1_000 + ns.parse::<u64>().ok()?)
}

/// Computes per-phase times from one `Telemetry::chrome_trace` document.
///
/// # Errors
///
/// Returns a message when an event is malformed or the pairs are unbalanced.
pub fn phase_times(chrome_trace: &str) -> Result<PhaseTimes, String> {
    let mut times = PhaseTimes::default();
    // Open spans per thread: (tid, phase, start_ns, child_ns).
    let mut open: Vec<(u64, usize, u64, u64)> = Vec::new();
    for line in chrome_trace.lines().filter(|l| l.contains("\"ph\"")) {
        let bad = || format!("malformed trace event: {line}");
        let name = field(line, "\"name\":").ok_or_else(bad)?;
        let phase = PHASES
            .iter()
            .position(|p| p.name() == name)
            .ok_or_else(bad)?;
        let ts = parse_ts(field(line, "\"ts\":").ok_or_else(bad)?).ok_or_else(bad)?;
        let tid: u64 = field(line, "\"tid\":")
            .and_then(|t| t.parse().ok())
            .ok_or_else(bad)?;
        match field(line, "\"ph\":").ok_or_else(bad)? {
            "B" => open.push((tid, phase, ts, 0)),
            "E" => {
                // The thread's innermost open span is the one this event ends.
                let pos = open.iter().rposition(|o| o.0 == tid).ok_or_else(bad)?;
                let (_, opened, start, child) = open.remove(pos);
                if opened != phase {
                    return Err(bad());
                }
                let dur = ts.saturating_sub(start);
                times.inclusive[phase] += dur;
                times.self_ns[phase] += dur.saturating_sub(child);
                match open.iter_mut().rev().find(|o| o.0 == tid) {
                    Some(parent) => parent.3 += dur,
                    None => times.root[phase] += dur,
                }
            }
            _ => return Err(bad()),
        }
    }
    if open.is_empty() {
        Ok(times)
    } else {
        Err(format!("{} unclosed spans in trace", open.len()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(name: &str, ph: char, ts: &str, tid: u64) -> String {
        format!(
            "{{\"name\":\"{name}\",\"cat\":\"invnorm\",\"ph\":\"{ph}\",\"ts\":{ts},\"pid\":1,\"tid\":{tid}}}"
        )
    }

    #[test]
    fn self_time_subtracts_children_per_thread() {
        // Thread 1: forward [0, 10µs] holding gemm [2, 5µs] and im2col [6, 7µs].
        // Thread 2 interleaves a root inject [1, 4µs].
        let trace = [
            event("forward", 'B', "0.000", 1),
            event("inject", 'B', "1.000", 2),
            event("gemm", 'B', "2.000", 1),
            event("inject", 'E', "4.000", 2),
            event("gemm", 'E', "5.000", 1),
            event("im2col", 'B', "6.000", 1),
            event("im2col", 'E', "7.000", 1),
            event("forward", 'E', "10.000", 1),
        ]
        .join(",\n");
        let t = phase_times(&trace).unwrap();
        assert_eq!(t.inclusive(Phase::Forward), 10_000);
        assert_eq!(t.self_time(Phase::Forward), 6_000);
        assert_eq!(t.self_time(Phase::Gemm), 3_000);
        assert_eq!(t.root(Phase::Gemm), 0);
        assert_eq!(t.root(Phase::Inject), 3_000);
        assert_eq!(t.root_total(), t.self_ns.iter().sum::<u64>());
    }

    #[test]
    fn unbalanced_traces_are_rejected() {
        assert!(phase_times(&event("gemm", 'B', "1.000", 1)).is_err());
        assert!(phase_times(&event("gemm", 'E', "1.000", 1)).is_err());
        assert!(phase_times(&event("nope", 'B', "1.000", 1)).is_err());
    }
}
