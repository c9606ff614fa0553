//! Run reports: virtual makespan, per-rank clocks, kernel event counters.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::config::ExecMode;
use crate::trace::Trace;

/// Counters of kernel-level events, useful for sanity-checking how much
/// scheduling a run performed.
#[derive(Debug, Default)]
pub struct EventCounters {
    /// Scheduling points taken before shared-state operations.
    pub yields: AtomicU64,
    /// Times a rank parked waiting on a condition.
    pub blocks: AtomicU64,
    /// Wake notifications issued.
    pub unblocks: AtomicU64,
    /// Messages pushed through mailboxes.
    pub messages: AtomicU64,
}

impl EventCounters {
    /// Immutable snapshot of the counters.
    pub fn snapshot(&self) -> EventSnapshot {
        EventSnapshot {
            yields: self.yields.load(Ordering::Relaxed),
            blocks: self.blocks.load(Ordering::Relaxed),
            unblocks: self.unblocks.load(Ordering::Relaxed),
            messages: self.messages.load(Ordering::Relaxed),
        }
    }
}

/// Plain-data snapshot of [`EventCounters`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventSnapshot {
    /// Scheduling points taken before shared-state operations.
    pub yields: u64,
    /// Times a rank parked waiting on a condition.
    pub blocks: u64,
    /// Wake notifications issued.
    pub unblocks: u64,
    /// Messages pushed through mailboxes.
    pub messages: u64,
}

/// Summary of a completed [`crate::Machine::run`].
#[derive(Debug, Clone)]
pub struct Report {
    /// Execution mode the machine ran in.
    pub mode: ExecMode,
    /// Completion time of the run: the maximum final rank clock in
    /// virtual-time mode, wall time in concurrent mode (nanoseconds).
    pub makespan_ns: u64,
    /// Final per-rank clocks in nanoseconds: each rank's final virtual
    /// clock in virtual-time mode; in concurrent mode, each rank thread's
    /// measured wall-clock span (machine start → program return, from the
    /// kernel's monotonic clock — never zero for a completed rank).
    pub rank_clock_ns: Vec<u64>,
    /// Kernel event counts for the whole run.
    pub events: EventSnapshot,
    /// Event trace and metrics, present when the machine ran with
    /// [`crate::TraceConfig::enabled`].
    pub trace: Option<Trace>,
    /// Host-side fiber-stack high-water mark: the most stack any rank
    /// touched, in bytes of resident stack pages. Measured on the event
    /// engine on Linux; 0 on the thread engine and where fiber stacks are
    /// heap buffers. A host measurement, not part of the model: it is
    /// kept out of every pinned baseline.
    pub stack_hwm_bytes: u64,
}

impl Report {
    /// Makespan in seconds.
    pub fn makespan_secs(&self) -> f64 {
        self.makespan_ns as f64 / 1e9
    }

    /// Average final rank clock in nanoseconds (virtual clocks, or
    /// per-thread wall spans in concurrent mode).
    pub fn mean_rank_clock_ns(&self) -> f64 {
        if self.rank_clock_ns.is_empty() {
            return 0.0;
        }
        self.rank_clock_ns.iter().sum::<u64>() as f64 / self.rank_clock_ns.len() as f64
    }

    /// Load imbalance: the ratio of the largest final rank clock to the
    /// mean. 1.0 means perfectly balanced; returns 1.0 for empty reports
    /// or all-zero clocks. Meaningful in both modes now that concurrent
    /// runs fill `rank_clock_ns` with measured thread spans.
    pub fn imbalance(&self) -> f64 {
        let mean = self.mean_rank_clock_ns();
        if mean == 0.0 {
            return 1.0;
        }
        let max = self.rank_clock_ns.iter().copied().max().unwrap_or(0);
        max as f64 / mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_counters() {
        let c = EventCounters::default();
        c.yields.fetch_add(3, Ordering::Relaxed);
        c.messages.fetch_add(1, Ordering::Relaxed);
        let s = c.snapshot();
        assert_eq!(s.yields, 3);
        assert_eq!(s.messages, 1);
        assert_eq!(s.blocks, 0);
    }

    #[test]
    fn report_helpers() {
        let r = Report {
            mode: ExecMode::VirtualTime,
            makespan_ns: 2_000_000_000,
            rank_clock_ns: vec![1_000, 3_000],
            events: EventCounters::default().snapshot(),
            trace: None,
            stack_hwm_bytes: 0,
        };
        assert!((r.makespan_secs() - 2.0).abs() < 1e-12);
        assert!((r.mean_rank_clock_ns() - 2_000.0).abs() < 1e-12);
        // max 3000 over mean 2000.
        assert!((r.imbalance() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn imbalance_degenerate_cases() {
        let mk = |clocks: Vec<u64>| Report {
            mode: ExecMode::VirtualTime,
            makespan_ns: 0,
            rank_clock_ns: clocks,
            events: EventCounters::default().snapshot(),
            trace: None,
            stack_hwm_bytes: 0,
        };
        assert_eq!(mk(vec![]).imbalance(), 1.0);
        assert_eq!(mk(vec![0, 0]).imbalance(), 1.0);
        assert_eq!(mk(vec![500, 500, 500]).imbalance(), 1.0);
    }
}
