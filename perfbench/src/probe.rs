//! Replay probes: each re-creates one layer's share of a run from outside
//! the program, by calling that layer's public entry points with the
//! counts the run reported. They run only in the traced run, outside the
//! timed simulation calls.

use std::hint::black_box;

use baldur::net::ideal_net;
use baldur::net::metrics::{Collector, LatencyReport};
use baldur::sim::{Duration, Scheduler, Time};
use baldur::RunConfig;

use crate::workload::{driver, sample_cap};

/// A small deterministic generator for replay timestamps.
struct XorShift(u64);

impl XorShift {
    fn new(seed: u64) -> Self {
        XorShift(seed | 1)
    }

    /// Uniform in `0..bound` (`bound > 0`).
    fn below(&mut self, bound: u64) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0 % bound
    }
}

/// What a scheduler replay did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedReplay {
    /// Pushes plus pops.
    pub ops: u64,
    /// Sum of popped payloads, so the pops cannot be optimised away.
    pub checksum: u64,
}

/// Pushes `scheduled` events through `Scheduler::new()` in a hold model:
/// `hold` events are pending at once, and each pop schedules the next
/// event until `scheduled` have been pushed, then the queue drains. Each
/// event lands a uniform delay ahead with mean `hold * span_ps /
/// scheduled`, the spacing that keeps `hold` pending over a run of
/// `span_ps`.
pub fn replay_scheduler(scheduled: u64, hold: u64, span_ps: u64, seed: u64) -> SchedReplay {
    let mut sched: Scheduler<u64> = Scheduler::new();
    let mut rng = XorShift::new(seed);
    let mean_gap = (hold.max(1) * span_ps.max(1) / scheduled.max(1)).max(1);
    let mut pushed = 0u64;
    while pushed < hold.min(scheduled) {
        sched.schedule_at(Time::from_ps(rng.below(2 * mean_gap)), pushed);
        pushed += 1;
    }
    let mut popped = 0u64;
    let mut checksum = 0u64;
    while let Some((at, _, payload)) = sched.pop_scheduled() {
        popped += 1;
        checksum = checksum.wrapping_add(black_box(payload));
        if pushed < scheduled {
            sched.schedule_at(Time::from_ps(at.0 + rng.below(2 * mean_gap)), pushed);
            pushed += 1;
        }
    }
    SchedReplay {
        ops: pushed + popped,
        checksum,
    }
}

/// Feeds a fresh `Collector` the run's `generated` and `delivered` calls,
/// spread over its simulated span with latencies around its mean, and
/// finalises it. Returns the replayed report.
pub fn replay_metrics(run: &LatencyReport, seed: u64) -> LatencyReport {
    let mut collector = Collector::new(sample_cap(run.generated));
    let mut rng = XorShift::new(seed);
    let end_ps = (run.sim_end_ns * 1e3) as u64;
    let gen_gap = (end_ps / run.generated.max(1)).max(1);
    for i in 0..run.generated {
        collector.on_generated(Time::from_ps(i * gen_gap));
    }
    let mean_ps = ((run.avg_ns * 1e3) as u64).max(1);
    let del_gap = (end_ps / run.delivered.max(1)).max(1);
    for i in 0..run.delivered {
        let latency = mean_ps / 2 + rng.below(mean_ps);
        collector.on_delivered(Duration::from_ps(latency), Time::from_ps(i * del_gap));
    }
    black_box(collector.report(Time::from_ps(end_ps)))
}

/// Runs the ideal network on a driver identical to `cfg`'s: the cost of
/// the driver, the scheduler and the `Collector` with no fabric at all.
pub fn replay_ideal(cfg: &RunConfig) -> LatencyReport {
    ideal_net::simulate(driver(cfg), None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use baldur::net::traffic::Pattern;
    use baldur::{NetworkKind, Workload};

    #[test]
    fn replay_counts_are_deterministic() {
        let a = replay_scheduler(50_000, 20_000, 1_000_000_000, 7);
        assert_eq!(a, replay_scheduler(50_000, 20_000, 1_000_000_000, 7));
        assert_eq!(a.ops, 100_000);

        let cfg = RunConfig::new(
            64,
            NetworkKind::Ideal,
            Workload::Synthetic {
                pattern: Pattern::RandomPermutation,
                load: 0.5,
                packets_per_node: 10,
            },
        );
        let run = baldur::run(&cfg);
        let m = replay_metrics(&run, 3);
        assert_eq!(m, replay_metrics(&run, 3));
        assert_eq!((m.generated, m.delivered), (run.generated, run.delivered));

        let ideal = replay_ideal(&cfg);
        assert_eq!(ideal, replay_ideal(&cfg));
        assert_eq!(ideal.events, run.events);
    }
}
