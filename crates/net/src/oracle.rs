//! Always-on runtime invariant oracle for the network models.
//!
//! The repository's one invariant system, on in **release** builds: O(1)
//! incremental checkers on the models' hot paths plus an O(state) drain
//! audit ([`Oracle::check_residual`], [`Oracle::check_ledger`]),
//! recording structured [`OracleReport`]s instead of panicking. Debug
//! builds add assertions on top — the shared run loop refuses a drained
//! run whose oracle recorded a conservation, counter-underflow or
//! residual-state violation — but no checks of their own. A
//! violated invariant in a chaos run is data — the chaos harness shrinks
//! the fault plan around it and prints a reproduction — so the oracle
//! must never tear the process down, and must itself be mechanically
//! panic-free (it is inside the `fault-path-panic` lint wall).
//!
//! Checkers (see DESIGN.md "Runtime oracle & chaos convergence" for the
//! cost budget):
//!
//! * **packet conservation ledger** — at drain, `generated ==
//!   delivered + abandoned + expired + ingress drops` and no packet left
//!   `Pending`;
//! * **credit-balance accounting** — electrical models: credits never
//!   exceed the VC cap, and at drain every credit counter is back to the
//!   cap (a leak means repair did not restore state exactly);
//! * **bounded-queue growth** — an input queue deeper than the credit
//!   cap means flow control is broken;
//! * **stuck-flow / livelock** — a progress watermark (last delivery or
//!   abandonment) that falls more than [`OracleConfig::stall_ps`] behind
//!   the clock while work is still outstanding.
//!
//! Violations carry the violation kind, the simulation time, the recent
//! event window (a fixed ring of model events), and the fault-epoch
//! index, and are routed through `core::error` (`BaldurError::Oracle`)
//! by the chaos experiment.

use baldur_sim::Time;
use serde::{Deserialize, Serialize};
use std::fmt;

use crate::metrics::{Collector, OutcomeTally};

/// Capacity of the recent-event ring carried into a report.
const TRACE_WINDOW: usize = 32;

/// Tuning knobs for the oracle. Not part of `RunConfig` (and therefore
/// not part of any sweep cache key): the oracle observes a run, it does
/// not define one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct OracleConfig {
    /// Maximum silent gap (ps) between progress events while work is
    /// outstanding before the stuck-flow detector fires. The default is
    /// far above any legitimate backoff gap (the capped BEB timeout is
    /// ~256 µs with paper parameters) so it only fires on genuine
    /// livelock.
    pub stall_ps: u64,
    /// Reports kept verbatim; further violations only bump
    /// [`OracleSummary::suppressed`].
    pub max_reports: usize,
    /// Consecutive *fair-share rounds* a flow may make zero progress —
    /// while it has work outstanding and *other* flows deliver — before
    /// the starvation watermark fires. An observation window only counts
    /// as a round when the network delivered at least one packet per
    /// contending flow in it, so the budget is denominated in missed
    /// fair shares, not wall-clock windows, and is invariant to both the
    /// oracle-tick cadence and the contention level. 0 disables the
    /// checker.
    pub starvation_windows: u32,
}

impl Default for OracleConfig {
    fn default() -> Self {
        OracleConfig {
            // 50 ms of simulated silence with work outstanding.
            stall_ps: 50_000_000_000,
            max_reports: 8,
            starvation_windows: 16,
        }
    }
}

/// One invariant violation, as structured data (integers and strings
/// only, so reports are `Eq` and can ride inside the `core::error`
/// taxonomy).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Violation {
    /// The drain-time packet ledger does not balance.
    Conservation {
        /// Packets the workload generated.
        generated: u64,
        /// Packets delivered.
        delivered: u64,
        /// Packets abandoned after the retry budget.
        abandoned: u64,
        /// Packets still `Pending` at drain (should be zero).
        stranded: u64,
    },
    /// A monotone counter would have gone negative (the decrement is
    /// skipped and reported instead of wrapping).
    CounterUnderflow {
        /// Which counter.
        counter: String,
    },
    /// State that must be empty at drain was not.
    ResidualState {
        /// What was left over (e.g. `"ack_refs"`, `"nic_queue"`).
        what: String,
        /// How much of it.
        count: u64,
    },
    /// A credit counter exceeded the VC cap (the increment is capped and
    /// reported).
    CreditOverflow {
        /// Router index (`u32::MAX` = a NIC).
        router: u32,
        /// Port/VC slot index.
        port: u32,
        /// The counter value before the offending increment.
        credits: u32,
        /// The VC cap.
        cap: u32,
    },
    /// A credit counter was below the cap at drain — credits leaked,
    /// i.e. a fault/repair cycle failed to restore flow-control state.
    CreditLeak {
        /// `"router"` or `"nic"`.
        element: String,
        /// Element index.
        index: u32,
        /// Port/VC slot index.
        port: u32,
        /// The counter value at drain.
        credits: u32,
        /// The VC cap it should have returned to.
        cap: u32,
    },
    /// An input queue grew past the credit cap: flow control is broken.
    QueueOverflow {
        /// Router index.
        router: u32,
        /// Queue slot index.
        queue: u32,
        /// Queue depth after the offending push.
        len: u64,
        /// The bound (VC cap).
        bound: u64,
    },
    /// No progress (delivery or abandonment) for longer than the stall
    /// budget while work was still outstanding.
    StuckFlow {
        /// Picoseconds since the progress watermark.
        idle_ps: u64,
        /// Work items outstanding when the detector fired.
        outstanding: u64,
    },
    /// One flow made zero delivery progress for
    /// [`OracleConfig::starvation_windows`] consecutive fair-share
    /// rounds — windows in which the network delivered at least one
    /// packet per contending flow — while it had work outstanding:
    /// per-flow starvation, not a global stall and not fair-share
    /// queueing under contention.
    Starvation {
        /// The starved source node / flow index.
        flow: u32,
        /// Consecutive zero-progress fair-share rounds observed.
        windows: u32,
        /// The flow's outstanding work when the watermark fired.
        outstanding: u64,
    },
    /// A bounded ingress queue was observed deeper than its configured
    /// cap: the admission-control drop policy is not being enforced.
    OccupancyBound {
        /// The node whose ingress queue overflowed.
        node: u32,
        /// Observed queue depth.
        len: u64,
        /// The configured cap it must stay within.
        bound: u64,
    },
}

/// One entry of the recent-event window attached to a report.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceEntry {
    /// Event time, ps.
    pub at_ps: u64,
    /// Event tag (e.g. `"inject"`, `"drop"`, `"deliver"`, `"fault"`).
    pub what: String,
    /// First event operand (model-specific: packet id, router, …).
    pub a: u64,
    /// Second event operand.
    pub b: u64,
}

/// A structured invariant-violation report.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct OracleReport {
    /// What went wrong.
    pub violation: Violation,
    /// When, on the simulation clock (ps).
    pub at_ps: u64,
    /// The fault epoch containing `at_ps` (0 when the run had no fault
    /// plan).
    pub epoch: u32,
    /// The most recent model events before the violation, oldest first.
    pub trace: Vec<TraceEntry>,
}

impl fmt::Display for OracleReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "oracle violation at {} ps (fault epoch {}): {:?} [{} trace events]",
            self.at_ps,
            self.epoch,
            self.violation,
            self.trace.len()
        )
    }
}

/// What a run's oracle observed, attached to every
/// [`crate::metrics::LatencyReport`].
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct OracleSummary {
    /// Violations, in detection order (capped at
    /// [`OracleConfig::max_reports`]).
    pub reports: Vec<OracleReport>,
    /// Violations beyond the cap, counted but not kept.
    pub suppressed: u64,
}

impl OracleSummary {
    /// True when the run violated nothing.
    pub fn is_clean(&self) -> bool {
        self.reports.is_empty() && self.suppressed == 0
    }

    /// Total violations observed (kept + suppressed).
    pub fn total(&self) -> u64 {
        self.reports.len() as u64 + self.suppressed
    }
}

/// The live oracle a network model owns. All hot-path operations are
/// O(1) and allocation-free (the trace ring holds `&'static str` tags;
/// strings are materialized only when a violation is recorded).
#[derive(Debug, Clone)]
pub struct Oracle {
    cfg: OracleConfig,
    boundaries: Vec<u64>,
    ring: Vec<(u64, &'static str, u64, u64)>,
    pos: usize,
    reports: Vec<OracleReport>,
    suppressed: u64,
    last_progress_ps: u64,
    stall_latched: bool,
    flows: Vec<FlowWatch>,
    starve_total: u64,
}

/// Per-flow starvation-watermark state.
#[derive(Debug, Clone, Copy, Default)]
struct FlowWatch {
    /// Delivered count at the last observation window.
    last: u64,
    /// Consecutive zero-progress fair-share rounds (with work
    /// outstanding, while the network delivered at least a packet per
    /// contending flow).
    stalled: u32,
    /// Fired already; re-arms on the flow's next delivery.
    latched: bool,
}

impl Oracle {
    /// A fresh oracle with no fault-epoch context.
    pub fn new(cfg: OracleConfig) -> Self {
        Oracle {
            cfg,
            boundaries: Vec::new(),
            ring: Vec::with_capacity(TRACE_WINDOW),
            pos: 0,
            reports: Vec::new(),
            suppressed: 0,
            last_progress_ps: 0,
            stall_latched: false,
            flows: Vec::new(),
            starve_total: 0,
        }
    }

    /// Supplies the fault-epoch boundaries (ascending, ps) reports are
    /// annotated with.
    pub fn set_boundaries(&mut self, boundaries_ps: Vec<u64>) {
        self.boundaries = boundaries_ps;
    }

    /// Records one model event into the recent-event ring.
    #[inline]
    pub fn note(&mut self, at_ps: u64, what: &'static str, a: u64, b: u64) {
        if self.ring.len() < TRACE_WINDOW {
            self.ring.push((at_ps, what, a, b));
            self.pos = self.ring.len() % TRACE_WINDOW;
        } else {
            if let Some(slot) = self.ring.get_mut(self.pos) {
                *slot = (at_ps, what, a, b);
            }
            self.pos = (self.pos + 1) % TRACE_WINDOW;
        }
    }

    /// Advances the progress watermark (a delivery or abandonment
    /// happened at `at_ps`).
    #[inline]
    pub fn progress(&mut self, at_ps: u64) {
        self.last_progress_ps = self.last_progress_ps.max(at_ps);
        self.stall_latched = false;
    }

    /// Records a violation with the current trace window and epoch
    /// context. Never panics, never stops the run.
    pub fn record(&mut self, at_ps: u64, violation: Violation) {
        if self.reports.len() >= self.cfg.max_reports {
            self.suppressed += 1;
            return;
        }
        let epoch = Time::from_ps(at_ps).epoch_index(&self.boundaries) as u32;
        self.reports.push(OracleReport {
            violation,
            at_ps,
            epoch,
            trace: self.trace_window(),
        });
    }

    /// The stuck-flow check: with `outstanding > 0` work items and no
    /// progress for more than the stall budget, fires once (re-arms on
    /// the next progress event). Returns true when it fired — callers
    /// may abort the run early, since a livelocked model would otherwise
    /// spin to the horizon.
    pub fn check_stall(&mut self, now_ps: u64, outstanding: u64) -> bool {
        if self.stall_latched || outstanding == 0 {
            return false;
        }
        let idle = now_ps.saturating_sub(self.last_progress_ps);
        if idle <= self.cfg.stall_ps {
            return false;
        }
        self.stall_latched = true;
        self.record(
            now_ps,
            Violation::StuckFlow {
                idle_ps: idle,
                outstanding,
            },
        );
        true
    }

    /// The per-flow starvation watermark. Call once per observation
    /// window (the models' oracle-tick cadence) with each flow's
    /// cumulative delivered count and its currently outstanding work. A
    /// flow that makes zero progress for
    /// [`OracleConfig::starvation_windows`] consecutive *fair-share
    /// rounds* — while it has work outstanding — records a
    /// [`Violation::Starvation`] once, re-arming on the flow's next
    /// delivery. A window counts as a round only when the network
    /// delivered at least one packet per flow that had work outstanding:
    /// under heavy contention (an incast sink shared by hundreds of
    /// senders) a flow legitimately waits many windows for its fair
    /// share, and that wait must not read as starvation at one topology
    /// scale and not another. A globally stalled network is *not*
    /// starvation either (that is [`Oracle::check_stall`]'s job), so
    /// windows without global progress also leave the counters
    /// untouched.
    pub fn check_starvation(
        &mut self,
        now_ps: u64,
        flow_delivered: &[u64],
        flow_outstanding: &[u64],
    ) {
        let windows = self.cfg.starvation_windows;
        if windows == 0 {
            return;
        }
        let total: u64 = flow_delivered.iter().sum();
        let delta = total.saturating_sub(self.starve_total);
        self.starve_total = total;
        let contenders = flow_outstanding.iter().filter(|&&o| o > 0).count() as u64;
        let fair_round = delta >= contenders.max(1);
        let tracked = flow_delivered.len().max(flow_outstanding.len());
        if self.flows.len() < tracked {
            self.flows.resize(tracked, FlowWatch::default());
        }
        let mut fired: Vec<(u32, u32, u64)> = Vec::new();
        for (i, w) in self.flows.iter_mut().enumerate() {
            let d = flow_delivered.get(i).copied().unwrap_or(0);
            let outstanding = flow_outstanding.get(i).copied().unwrap_or(0);
            if d > w.last {
                w.last = d;
                w.stalled = 0;
                w.latched = false;
            } else if outstanding == 0 {
                w.stalled = 0;
            } else if fair_round {
                w.stalled = w.stalled.saturating_add(1);
                if w.stalled >= windows && !w.latched {
                    w.latched = true;
                    fired.push((i as u32, w.stalled, outstanding));
                }
            }
        }
        for (flow, stalled, outstanding) in fired {
            self.record(
                now_ps,
                Violation::Starvation {
                    flow,
                    windows: stalled,
                    outstanding,
                },
            );
        }
    }

    /// The bounded-queue occupancy checker: records a violation when an
    /// ingress queue is observed deeper than its cap (`bound == 0`
    /// means unbounded / unchecked).
    pub fn check_occupancy(&mut self, at_ps: u64, node: u32, len: u64, bound: u64) {
        if bound == 0 || len <= bound {
            return;
        }
        self.record(at_ps, Violation::OccupancyBound { node, len, bound });
    }

    /// Drain audit: records a [`Violation::ResidualState`] when `count`
    /// units of `what` were left over after the event queue drained.
    pub fn check_residual(&mut self, at_ps: u64, what: &str, count: u64) {
        if count > 0 {
            let what = what.to_string();
            self.record(at_ps, Violation::ResidualState { what, count });
        }
    }

    /// Drain audit of the packet ledger: every generated packet was
    /// delivered, abandoned, expired, or refused at ingress, exactly. A
    /// model that keeps per-packet outcomes passes their `tally`, which
    /// must agree with the collector's counters and leave no packet
    /// pending; a model that keeps none passes `None`.
    pub fn check_ledger(&mut self, at_ps: u64, metrics: &Collector, tally: Option<OutcomeTally>) {
        let counted = OutcomeTally {
            delivered: metrics.delivered(),
            gave_up: metrics.abandoned(),
            expired: metrics.expired(),
            pending: 0,
        };
        let t = tally.unwrap_or(counted);
        self.check_residual(at_ps, "pending_packets", t.pending);
        let drift = (t.delivered, t.gave_up, t.expired)
            != (counted.delivered, counted.gave_up, counted.expired);
        let generated = metrics.generated();
        let shed = t.expired + metrics.ingress_drops();
        if drift || generated != t.delivered + t.gave_up + shed {
            let stranded = generated
                .saturating_sub(t.delivered)
                .saturating_sub(t.gave_up)
                .saturating_sub(shed);
            self.record(
                at_ps,
                Violation::Conservation {
                    generated,
                    delivered: counted.delivered,
                    abandoned: counted.gave_up,
                    stranded,
                },
            );
        }
    }

    /// True when nothing has been reported.
    pub fn is_clean(&self) -> bool {
        self.reports.is_empty() && self.suppressed == 0
    }

    /// Snapshot of everything observed so far.
    pub fn summary(&self) -> OracleSummary {
        OracleSummary {
            reports: self.reports.clone(),
            suppressed: self.suppressed,
        }
    }

    fn trace_window(&self) -> Vec<TraceEntry> {
        let entry = |&(at_ps, what, a, b): &(u64, &'static str, u64, u64)| TraceEntry {
            at_ps,
            what: what.to_string(),
            a,
            b,
        };
        if self.ring.len() < TRACE_WINDOW {
            self.ring.iter().map(entry).collect()
        } else {
            // Oldest-first: the slot at `pos` is the next to be
            // overwritten, i.e. the oldest.
            let (newer, older) = self.ring.split_at(self.pos.min(self.ring.len()));
            older.iter().chain(newer.iter()).map(entry).collect()
        }
    }
}

impl Default for Oracle {
    fn default() -> Self {
        Oracle::new(OracleConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_oracle_reports_nothing() {
        let mut o = Oracle::default();
        o.note(10, "inject", 1, 0);
        o.progress(20);
        assert!(o.is_clean());
        assert!(o.summary().is_clean());
        assert_eq!(o.summary().total(), 0);
    }

    #[test]
    fn records_carry_trace_epoch_and_cap() {
        let mut o = Oracle::new(OracleConfig {
            stall_ps: 1,
            max_reports: 2,
            ..OracleConfig::default()
        });
        o.set_boundaries(vec![1_000, 2_000]);
        for i in 0..40u64 {
            o.note(i, "ev", i, 0);
        }
        o.record(
            1_500,
            Violation::CounterUnderflow {
                counter: "in_flight".into(),
            },
        );
        let s = o.summary();
        assert_eq!(s.reports.len(), 1);
        let r = &s.reports[0];
        assert_eq!(r.epoch, 1, "1_500 is between the boundaries");
        assert_eq!(r.trace.len(), TRACE_WINDOW);
        // Oldest-first window over the last 32 of 40 notes.
        assert_eq!(r.trace[0].at_ps, 8);
        assert_eq!(r.trace[31].at_ps, 39);
        // The cap suppresses, never drops silently.
        o.record(
            1_600,
            Violation::CounterUnderflow {
                counter: "x".into(),
            },
        );
        o.record(
            1_700,
            Violation::CounterUnderflow {
                counter: "y".into(),
            },
        );
        let s = o.summary();
        assert_eq!(s.reports.len(), 2);
        assert_eq!(s.suppressed, 1);
        assert_eq!(s.total(), 3);
        assert!(!s.is_clean());
        assert!(s.reports[0].to_string().contains("fault epoch 1"));
    }

    #[test]
    fn starvation_fires_only_when_others_progress() {
        let mut o = Oracle::new(OracleConfig {
            starvation_windows: 3,
            ..OracleConfig::default()
        });
        // Flow 1 is stuck with outstanding work while flow 0 delivers.
        let outstanding = [0u64, 5];
        let mut delivered = [0u64, 0];
        for tick in 1..=2u64 {
            delivered[0] = tick;
            o.check_starvation(tick * 1_000, &delivered, &outstanding);
        }
        assert!(o.is_clean(), "two stalled windows are under the budget");
        delivered[0] = 3;
        o.check_starvation(3_000, &delivered, &outstanding);
        let s = o.summary();
        assert_eq!(s.reports.len(), 1, "third window fires");
        match &s.reports[0].violation {
            Violation::Starvation {
                flow,
                windows,
                outstanding,
            } => {
                assert_eq!(*flow, 1);
                assert_eq!(*windows, 3);
                assert_eq!(*outstanding, 5);
            }
            other => panic!("wrong violation: {other:?}"),
        }
        // Latched: more stalled windows don't re-fire...
        delivered[0] = 4;
        o.check_starvation(4_000, &delivered, &outstanding);
        assert_eq!(o.summary().total(), 1);
        // ...until the starved flow finally delivers, which re-arms it.
        delivered[1] = 1;
        o.check_starvation(5_000, &delivered, &outstanding);
        for tick in 6..=8u64 {
            delivered[0] += 1;
            o.check_starvation(tick * 1_000, &delivered, &outstanding);
        }
        assert_eq!(o.summary().total(), 2, "re-armed after progress");
    }

    #[test]
    fn fair_share_waiting_is_not_starvation() {
        let mut o = Oracle::new(OracleConfig {
            starvation_windows: 2,
            ..OracleConfig::default()
        });
        // Three contenders share a slow sink: one delivery per window is
        // less than one fair-share round, so no window counts against
        // flow 2 no matter how many pass.
        let outstanding = [5u64, 5, 5];
        let mut delivered = [0u64, 0, 0];
        for tick in 1..=20u64 {
            delivered[(tick % 2) as usize] += 1;
            o.check_starvation(tick * 1_000, &delivered, &outstanding);
        }
        assert!(o.is_clean(), "fair-share waiting under contention");
        // When the sink serves a full round per window and flow 2 still
        // gets nothing, that IS starvation.
        for tick in 21..=22u64 {
            delivered[0] += 2;
            delivered[1] += 1;
            o.check_starvation(tick * 1_000, &delivered, &outstanding);
        }
        let s = o.summary();
        assert_eq!(s.reports.len(), 1);
        match &s.reports[0].violation {
            Violation::Starvation {
                flow, outstanding, ..
            } => {
                assert_eq!(*flow, 2);
                assert_eq!(*outstanding, 5);
            }
            other => panic!("wrong violation: {other:?}"),
        }
    }

    #[test]
    fn global_stall_is_not_starvation() {
        let mut o = Oracle::new(OracleConfig {
            starvation_windows: 2,
            ..OracleConfig::default()
        });
        // Nobody delivers: every flow is stuck, so no flow is starved.
        let outstanding = [4u64, 4];
        let delivered = [1u64, 1];
        o.check_starvation(1_000, &delivered, &outstanding);
        for tick in 2..=10u64 {
            o.check_starvation(tick * 1_000, &delivered, &outstanding);
        }
        assert!(o.is_clean());
        // A flow with no outstanding work is idle, not starved.
        let outstanding = [0u64, 4];
        let mut d = delivered;
        for tick in 11..=20u64 {
            d[1] += 1;
            o.check_starvation(tick * 1_000, &d, &outstanding);
        }
        assert!(o.is_clean());
    }

    #[test]
    fn occupancy_bound_checks_only_bounded_queues() {
        let mut o = Oracle::default();
        o.check_occupancy(100, 3, 1_000, 0);
        assert!(o.is_clean(), "bound 0 = unbounded, never flagged");
        o.check_occupancy(100, 3, 8, 8);
        assert!(o.is_clean(), "at the cap is within bounds");
        o.check_occupancy(200, 3, 9, 8);
        let s = o.summary();
        assert_eq!(s.reports.len(), 1);
        assert_eq!(
            s.reports[0].violation,
            Violation::OccupancyBound {
                node: 3,
                len: 9,
                bound: 8
            }
        );
    }

    #[test]
    fn stall_fires_once_and_rearms_on_progress() {
        let mut o = Oracle::new(OracleConfig {
            stall_ps: 100,
            max_reports: 8,
            ..OracleConfig::default()
        });
        o.progress(50);
        assert!(!o.check_stall(100, 3), "within budget");
        assert!(!o.check_stall(100, 0), "no outstanding work, no stall");
        assert!(o.check_stall(200, 3), "101 ps silent > 100 ps budget");
        assert!(!o.check_stall(300, 3), "latched until progress");
        o.progress(300);
        assert!(o.check_stall(500, 1), "re-armed");
        assert_eq!(o.summary().reports.len(), 2);
        match &o.summary().reports[0].violation {
            Violation::StuckFlow {
                idle_ps,
                outstanding,
            } => {
                assert_eq!(*idle_ps, 150);
                assert_eq!(*outstanding, 3);
            }
            other => panic!("wrong violation: {other:?}"),
        }
    }
}
