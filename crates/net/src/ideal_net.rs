//! The ideal reference network (paper Sec. V-A): infinite bandwidth, no
//! queueing, flat 200 ns latency between any pair of nodes.

use baldur_sim::{Duration, Model, Scheduler, Simulation, Time};

use crate::driver::Driver;
use crate::metrics::{Collector, LatencyReport};

/// Events of the ideal model.
#[derive(Debug, Clone, Copy)]
pub enum Ev {
    /// Driver wakeup for a node.
    Wake(u32),
    /// Flat-latency delivery at a node.
    Deliver {
        /// Destination node.
        node: u32,
        /// Generation time, for latency accounting.
        generated_ps: u64,
    },
}

/// The ideal network model.
pub struct IdealNet {
    driver: Driver,
    latency: Duration,
    metrics: Collector,
}

impl IdealNet {
    fn apply(
        &mut self,
        now: Time,
        node: u32,
        out: crate::driver::DriverOutput,
        sched: &mut Scheduler<Ev>,
    ) {
        for cmd in out.sends {
            for _ in 0..cmd.count {
                self.metrics.on_generated(now);
                sched.schedule_at(
                    now + self.latency,
                    Ev::Deliver {
                        node: cmd.dst.0,
                        generated_ps: now.as_ps(),
                    },
                );
            }
        }
        if let Some(t) = out.wake_at_ps {
            sched.schedule_at(Time::from_ps(t), Ev::Wake(node));
        }
    }
}

impl Model for IdealNet {
    type Event = Ev;

    fn handle(&mut self, now: Time, ev: Ev, sched: &mut Scheduler<Ev>) {
        match ev {
            Ev::Wake(node) => {
                let out = self.driver.wakeup(node, now.as_ps());
                self.apply(now, node, out, sched);
            }
            Ev::Deliver { node, generated_ps } => {
                self.metrics
                    .on_delivered(now.since(Time::from_ps(generated_ps)), now);
                let out = self.driver.delivered(node, now.as_ps());
                self.apply(now, node, out, sched);
            }
        }
    }
}

/// Runs the ideal network. The flat latency is 200 ns unless overridden.
pub fn simulate(driver: Driver, latency_ns: Option<u64>) -> LatencyReport {
    let sample_cap = crate::runner::sample_cap(driver.total_to_send());
    let mut model = IdealNet {
        driver,
        latency: Duration::from_ns(latency_ns.unwrap_or(200)),
        metrics: Collector::new(sample_cap),
    };
    let initial = model.driver.initial();
    let mut sim = Simulation::new(model);
    for (node, t) in initial {
        sim.scheduler_mut()
            .schedule_at(Time::from_ps(t), Ev::Wake(node));
    }
    sim.run();
    let end = sim.scheduler().now();
    let events = sim.scheduler().events_executed();
    let mut report = sim.into_model().metrics.report(end);
    report.events = events;
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LinkParams;
    use crate::traffic::Pattern;

    #[test]
    fn every_packet_takes_exactly_200ns() {
        let d = Driver::open_loop(
            32,
            Pattern::RandomPermutation,
            0.9,
            50,
            &LinkParams::paper(),
            1,
        );
        let r = simulate(d, None);
        assert_eq!(r.delivered, r.generated);
        assert!((r.avg_ns - 200.0).abs() < 1e-9, "{}", r.avg_ns);
        assert!((r.p99_ns - 200.0).abs() < 1e-9);
    }

    #[test]
    fn ping_pong_round_trip_is_400ns() {
        let pairs = crate::workloads::ping_pong1_pairs(8, 2);
        let d = Driver::ping_pong(pairs, 4, 2);
        let r = simulate(d, None);
        assert_eq!(r.delivered, 8 / 2 * 2 * 4);
        assert!((r.avg_ns - 200.0).abs() < 1e-9);
        // A full 4-round exchange is 8 crossings = 1.6 us of simulated time.
        assert!((r.sim_end_ns - 1_600.0).abs() < 1.0, "{}", r.sim_end_ns);
    }

    #[test]
    fn hpc_trace_completes() {
        let scripts =
            crate::workloads::generate(crate::workloads::HpcApp::Amg, 64, Default::default(), 3);
        let d = Driver::trace(scripts, 3);
        let total = d.total_to_send();
        let r = simulate(d, None);
        assert_eq!(r.delivered, total, "trace must run to completion");
    }
}
