//! Optional per-round tracing.
//!
//! The aggregate metrics of [`crate::metrics::Metrics`] summarise a whole
//! computation; some experiments need the *profile* — how the `h`-relation
//! and the PIM work evolve round by round (e.g. the step structure of the
//! naïve search in §4.2, or the phase boundaries of the pivot divide and
//! conquer). When enabled, the system records one [`RoundTrace`] per round,
//! including the per-module message counts the round's `h` was the max of.

use crate::fault::{FaultKind, FaultRecord};
use crate::handle::ModuleId;

/// One bulk-synchronous round's record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundTrace {
    /// Round index (machine lifetime, 0-based).
    pub round: u64,
    /// The `h` of this round's `h`-relation.
    pub h: u64,
    /// Max local work on any module this round.
    pub max_work: u64,
    /// Total messages this round.
    pub messages: u64,
    /// Total PIM work this round.
    pub work: u64,
    /// Per-module message counts (in + out), length `P`.
    pub per_module_messages: Vec<u64>,
    /// Faults the injector applied this round (empty on healthy rounds).
    pub faults: Vec<FaultRecord>,
}

impl RoundTrace {
    /// Which module realised the round's `h`.
    ///
    /// Ties resolve to the lowest module id; `None` when no per-module
    /// counts were recorded (rather than silently blaming module 0).
    pub fn hottest_module(&self) -> Option<ModuleId> {
        let mut best: Option<(usize, u64)> = None;
        for (i, &m) in self.per_module_messages.iter().enumerate() {
            if best.is_none_or(|(_, bm)| m > bm) {
                best = Some((i, m));
            }
        }
        best.map(|(i, _)| i as ModuleId)
    }

    /// Messages of the busiest module divided by the mean — the round's
    /// own imbalance factor.
    pub fn imbalance(&self) -> f64 {
        let total: u64 = self.per_module_messages.iter().sum();
        if total == 0 {
            return 1.0;
        }
        let mean = total as f64 / self.per_module_messages.len() as f64;
        self.h as f64 / mean
    }
}

/// A sequence of round traces with summary helpers.
///
/// Memory can be bounded with [`Trace::with_cap`]: once `cap` rounds are
/// held the buffer becomes a ring — each new round overwrites the oldest
/// and bumps [`Trace::dropped_rounds`], so exports can state truncation
/// explicitly instead of silently growing without limit on long chaos
/// runs. [`Trace::finalize`] rotates the ring back to oldest-first order;
/// the system calls it when the trace is taken.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// The recorded rounds, oldest first (after [`Trace::finalize`]).
    pub rounds: Vec<RoundTrace>,
    cap: Option<usize>,
    dropped: u64,
    ring_start: usize,
}

impl Trace {
    /// An unbounded trace (every round kept).
    pub fn new() -> Self {
        Self::default()
    }

    /// A trace keeping at most `cap` most-recent rounds (`cap ≥ 1`).
    pub fn with_cap(cap: usize) -> Self {
        Trace {
            cap: Some(cap.max(1)),
            ..Trace::default()
        }
    }

    /// Record one round, evicting the oldest when at capacity.
    pub fn record(&mut self, rt: RoundTrace) {
        match self.cap {
            Some(cap) if self.rounds.len() >= cap => {
                self.rounds[self.ring_start] = rt;
                self.ring_start = (self.ring_start + 1) % cap;
                self.dropped += 1;
            }
            _ => self.rounds.push(rt),
        }
    }

    /// Rounds evicted by the ring cap (0 when unbounded or under cap).
    pub fn dropped_rounds(&self) -> u64 {
        self.dropped
    }

    /// The configured cap, if any.
    pub fn cap(&self) -> Option<usize> {
        self.cap
    }

    /// Restore oldest-first order after ring wrap-around.
    pub fn finalize(&mut self) {
        if self.ring_start > 0 {
            self.rounds.rotate_left(self.ring_start);
            self.ring_start = 0;
        }
    }

    /// The largest `h` observed.
    pub fn max_h(&self) -> u64 {
        self.rounds.iter().map(|r| r.h).max().unwrap_or(0)
    }

    /// A compact text histogram of `h` per round (experiment output).
    ///
    /// Rounds that suffered injected faults are annotated so hot-round
    /// diagnostics can tell workload skew apart from injected adversity:
    /// `!crash(m)`, `!stall(m)`, `!drop(m)` (task or reply loss) and
    /// `!slow(m)`, one marker per applied fault.
    pub fn h_profile(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let max = self.max_h().max(1);
        for r in &self.rounds {
            let bars = (r.h * 40 / max) as usize;
            let _ = write!(out, "{:>5} | {:<40} h={}", r.round, "#".repeat(bars), r.h);
            for f in &r.faults {
                let tag = match f.kind {
                    FaultKind::Crash => "crash",
                    FaultKind::Stall => "stall",
                    FaultKind::DropTask { .. } | FaultKind::DropReply { .. } => "drop",
                    FaultKind::Slow { .. } => "slow",
                };
                let _ = write!(out, " !{}({})", tag, f.module);
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rt(round: u64, per_module: Vec<u64>) -> RoundTrace {
        let h = per_module.iter().copied().max().unwrap_or(0);
        let messages = per_module.iter().sum();
        RoundTrace {
            round,
            h,
            max_work: h,
            messages,
            work: messages,
            per_module_messages: per_module,
            faults: Vec::new(),
        }
    }

    #[test]
    fn hottest_module_and_imbalance() {
        let r = rt(0, vec![1, 5, 2, 0]);
        assert_eq!(r.hottest_module(), Some(1));
        assert!((r.imbalance() - 5.0 / 2.0).abs() < 1e-9);
    }

    #[test]
    fn hottest_module_ties_resolve_to_lowest_id() {
        let r = rt(0, vec![2, 5, 5, 1]);
        assert_eq!(r.hottest_module(), Some(1));
        let all_equal = rt(0, vec![3, 3, 3]);
        assert_eq!(all_equal.hottest_module(), Some(0));
    }

    #[test]
    fn hottest_module_of_empty_is_none() {
        let r = rt(0, vec![]);
        assert_eq!(r.hottest_module(), None);
    }

    #[test]
    fn imbalance_of_idle_round_is_one() {
        let r = rt(0, vec![0, 0]);
        assert_eq!(r.imbalance(), 1.0);
    }

    #[test]
    fn trace_summaries() {
        let t = Trace {
            rounds: vec![rt(0, vec![1, 1]), rt(1, vec![9, 0]), rt(2, vec![2, 3])],
            ..Trace::default()
        };
        assert_eq!(t.max_h(), 9);
        let profile = t.h_profile();
        assert!(profile.contains("h=9"));
        assert_eq!(profile.lines().count(), 3);
    }

    #[test]
    fn h_profile_annotates_faulted_rounds() {
        let mut crashed = rt(1, vec![9, 0]);
        crashed.faults.push(FaultRecord {
            module: 1,
            kind: FaultKind::Crash,
        });
        crashed.faults.push(FaultRecord {
            module: 0,
            kind: FaultKind::Slow { factor: 3 },
        });
        let mut stalled = rt(2, vec![2, 3]);
        stalled.faults.push(FaultRecord {
            module: 0,
            kind: FaultKind::Stall,
        });
        let t = Trace {
            rounds: vec![rt(0, vec![1, 1]), crashed, stalled],
            ..Trace::default()
        };
        let profile = t.h_profile();
        let lines: Vec<&str> = profile.lines().collect();
        assert!(!lines[0].contains('!'), "healthy round must be unmarked");
        assert!(lines[1].contains("!crash(1)"));
        assert!(lines[1].contains("!slow(0)"));
        assert!(lines[2].contains("!stall(0)"));
    }

    #[test]
    fn unbounded_trace_keeps_everything() {
        let mut t = Trace::new();
        for i in 0..100 {
            t.record(rt(i, vec![1, 1]));
        }
        assert_eq!(t.rounds.len(), 100);
        assert_eq!(t.dropped_rounds(), 0);
        assert_eq!(t.cap(), None);
    }

    #[test]
    fn ring_cap_evicts_oldest_and_counts_drops() {
        let mut t = Trace::with_cap(3);
        for i in 0..7 {
            t.record(rt(i, vec![i, 0]));
        }
        assert_eq!(t.rounds.len(), 3);
        assert_eq!(t.dropped_rounds(), 4);
        t.finalize();
        let kept: Vec<u64> = t.rounds.iter().map(|r| r.round).collect();
        assert_eq!(kept, vec![4, 5, 6], "the most recent rounds survive");
    }

    #[test]
    fn finalize_under_cap_is_identity() {
        let mut t = Trace::with_cap(10);
        for i in 0..4 {
            t.record(rt(i, vec![1]));
        }
        t.finalize();
        let kept: Vec<u64> = t.rounds.iter().map(|r| r.round).collect();
        assert_eq!(kept, vec![0, 1, 2, 3]);
        assert_eq!(t.dropped_rounds(), 0);
    }

    #[test]
    fn cap_of_zero_is_clamped_to_one() {
        let mut t = Trace::with_cap(0);
        t.record(rt(0, vec![1]));
        t.record(rt(1, vec![1]));
        t.finalize();
        assert_eq!(t.rounds.len(), 1);
        assert_eq!(t.rounds[0].round, 1);
        assert_eq!(t.dropped_rounds(), 1);
    }
}
