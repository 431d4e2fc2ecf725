//! One entry point for every (network × workload) simulation the paper's
//! figures need, and the one run loop every packet model shares.

use baldur_sim::{Model, Simulation, StopReason, Time};
use baldur_topo::dragonfly::Dragonfly;
use baldur_topo::fattree::FatTree;
use baldur_topo::graph::RouterGraph;
use baldur_topo::multibutterfly::MultiButterfly;
use serde::{Deserialize, Serialize};

use crate::baldur_net::StateStats;
use crate::config::{BaldurParams, LinkParams, RouterParams};
use crate::driver::Driver;
use crate::faults::FaultPlan;
use crate::metrics::{Collector, LatencyReport, RecoverySpec};
use crate::oracle::{Oracle, OracleConfig, Violation};
use crate::routing::{build_mb_graph, RoutingAlg};
use crate::traffic::Pattern;
use crate::workloads::{self, HpcApp, TraceParams};
use crate::{baldur_net, baldur_net_baseline, ideal_net, router_net, router_net_baseline};

/// Which network to simulate (the five of Sec. V-A).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum NetworkKind {
    /// The all-optical Baldur network.
    Baldur(BaldurParams),
    /// The buffered electrical multi-butterfly baseline.
    ElectricalMultiButterfly {
        /// Path multiplicity (paper: 4).
        multiplicity: u32,
        /// Router parameters.
        router: RouterParams,
    },
    /// The dragonfly baseline with UGAL-style adaptive routing.
    Dragonfly {
        /// Router parameters.
        router: RouterParams,
    },
    /// Dragonfly with minimal-only routing (ablation; the paper uses the
    /// adaptive configuration).
    DragonflyMinimal {
        /// Router parameters.
        router: RouterParams,
    },
    /// The 3-level fat-tree baseline with adaptive up-routing.
    FatTree {
        /// Router parameters.
        router: RouterParams,
    },
    /// Infinite bandwidth, flat 200 ns.
    Ideal,
}

/// Every name [`NetworkKind::by_name`] resolves, in lineup order. The
/// paper's Sec. V lineup is all of them but `dragonfly_minimal`, the
/// routing ablation.
const NETWORK_NAMES: [&str; 6] = [
    "baldur",
    "electrical_mb",
    "dragonfly",
    "dragonfly_minimal",
    "fattree",
    "ideal",
];

impl NetworkKind {
    /// All five networks at the paper's defaults for `nodes` servers.
    pub fn paper_lineup(nodes: u32) -> Vec<(String, NetworkKind)> {
        NETWORK_NAMES
            .into_iter()
            .filter(|&name| name != "dragonfly_minimal")
            .filter_map(|name| Some((name.to_string(), NetworkKind::by_name(name, nodes)?)))
            .collect()
    }

    /// Resolves one lineup entry from its stable display name (the
    /// strings [`NetworkKind::name`] returns), at the paper's defaults
    /// for `nodes` servers. This is the spec-facing entry point behind
    /// the experiment registry's `networks` axis; `dragonfly_minimal`
    /// (the routing ablation) is resolvable here even though the paper
    /// lineup omits it.
    pub fn by_name(name: &str, nodes: u32) -> Option<NetworkKind> {
        match name {
            "baldur" => Some(NetworkKind::Baldur(BaldurParams::paper_for(u64::from(
                nodes,
            )))),
            "electrical_mb" => Some(NetworkKind::ElectricalMultiButterfly {
                multiplicity: 4,
                router: RouterParams::paper(),
            }),
            "dragonfly" => Some(NetworkKind::Dragonfly {
                router: RouterParams::paper(),
            }),
            "dragonfly_minimal" => Some(NetworkKind::DragonflyMinimal {
                router: RouterParams::paper(),
            }),
            "fattree" => Some(NetworkKind::FatTree {
                router: RouterParams::paper(),
            }),
            "ideal" => Some(NetworkKind::Ideal),
            _ => None,
        }
    }

    /// Builds a named lineup (the shape [`NetworkKind::paper_lineup`]
    /// returns) from a list of display names, preserving order. An
    /// unknown name errs with the valid choices, so the registry runner
    /// can surface it as a usage error instead of a panic.
    pub fn lineup_named(
        nodes: u32,
        names: &[String],
    ) -> Result<Vec<(String, NetworkKind)>, String> {
        names
            .iter()
            .map(|name| match NetworkKind::by_name(name, nodes) {
                Some(net) => Ok((name.clone(), net)),
                None => Err(format!(
                    "unknown network `{name}` (choose from: {})",
                    NETWORK_NAMES.join(", ")
                )),
            })
            .collect()
    }

    /// Short display name.
    pub fn name(&self) -> &'static str {
        match self {
            NetworkKind::Baldur(_) => "baldur",
            NetworkKind::ElectricalMultiButterfly { .. } => "electrical_mb",
            NetworkKind::Dragonfly { .. } => "dragonfly",
            NetworkKind::DragonflyMinimal { .. } => "dragonfly_minimal",
            NetworkKind::FatTree { .. } => "fattree",
            NetworkKind::Ideal => "ideal",
        }
    }
}

/// What traffic to offer.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Workload {
    /// Open-loop synthetic pattern at an input load.
    Synthetic {
        /// Traffic pattern.
        pattern: Pattern,
        /// Input load in (0, 1].
        load: f64,
        /// Packets injected per node.
        packets_per_node: u32,
    },
    /// Closed-loop ping-pong over a random pairing (paper ping_pong1).
    PingPong1 {
        /// Rounds per pair.
        rounds: u32,
    },
    /// Closed-loop ping-pong over dragonfly-adversarial group pairs
    /// (paper ping_pong2).
    PingPong2 {
        /// Rounds per pair.
        rounds: u32,
    },
    /// Synthetic HPC application trace.
    Hpc {
        /// Which application.
        app: HpcApp,
        /// Trace scale knobs.
        params: TraceParams,
    },
    /// Overload storm: open-loop arrivals at an offered load that may
    /// exceed saturation (`load > 1` is allowed), destinations from a
    /// storm [`Pattern`]. Incast wakes only the pattern's sender set;
    /// hotcast sources are bursty on/off.
    Storm {
        /// Storm traffic pattern (usually `Incast`/`Hotcast`; any
        /// pattern works).
        pattern: Pattern,
        /// Offered load relative to line rate, `> 0` (4.0 = 4x
        /// saturation).
        load: f64,
        /// Packets injected per active sender.
        packets_per_node: u32,
    },
}

/// A complete run configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunConfig {
    /// Active server nodes (topologies may be built slightly larger, as in
    /// the paper; the extra nodes idle).
    pub nodes: u32,
    /// The network under test.
    pub network: NetworkKind,
    /// The offered workload.
    pub workload: Workload,
    /// Link/packet parameters.
    pub link: LinkParams,
    /// Master seed.
    pub seed: u64,
    /// Simulated-time bound in ns (None = generous default).
    pub horizon_ns: Option<u64>,
    /// Fault schedule (None = fault-free). Baldur executes every kind;
    /// the electrical baselines honor router-granularity kinds; the ideal
    /// network ignores faults (it has no components to fail).
    pub faults: Option<FaultPlan>,
}

impl RunConfig {
    /// A config with paper defaults for everything but the essentials.
    pub fn new(nodes: u32, network: NetworkKind, workload: Workload) -> Self {
        RunConfig {
            nodes,
            network,
            workload,
            link: LinkParams::paper(),
            seed: 0xBA1D,
            horizon_ns: None,
            faults: None,
        }
    }

    /// The same config with a fault schedule attached.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }
}

fn build_driver(cfg: &RunConfig) -> Driver {
    match cfg.workload {
        Workload::Synthetic {
            pattern,
            load,
            packets_per_node,
        } => Driver::open_loop(
            cfg.nodes,
            pattern,
            load,
            packets_per_node,
            &cfg.link,
            cfg.seed,
        ),
        Workload::PingPong1 { rounds } => Driver::ping_pong(
            workloads::ping_pong1_pairs(cfg.nodes, cfg.seed),
            rounds,
            cfg.seed,
        ),
        Workload::PingPong2 { rounds } => {
            Driver::ping_pong(workloads::ping_pong2_pairs(cfg.nodes), rounds, cfg.seed)
        }
        Workload::Hpc { app, params } => Driver::trace(
            workloads::generate(app, cfg.nodes, params, cfg.seed),
            cfg.seed,
        ),
        Workload::Storm {
            pattern,
            load,
            packets_per_node,
        } => Driver::storm(
            cfg.nodes,
            pattern,
            load,
            packets_per_node,
            &cfg.link,
            cfg.seed,
        ),
    }
}

/// Runs one configuration and returns the report.
///
/// # Panics
///
/// Panics on malformed configurations (e.g. transpose on a non-square node
/// count) — the harnesses construct only valid ones.
pub fn run(cfg: &RunConfig) -> LatencyReport {
    run_with(cfg, baldur_net::simulate_plan, router_net::simulate_plan)
}

/// [`run`] through the retired map-based packet models
/// (`baldur_net_baseline`, `router_net_baseline`) instead of the
/// struct-of-arrays ones. Exists only for differential testing: for any
/// configuration both entry points must return byte-identical
/// [`LatencyReport`]s — the property suite holds them to it. The ideal
/// network has no retired variant (it never had per-packet hot state),
/// so it dispatches to the live model.
///
/// # Panics
///
/// Panics on malformed configurations, exactly like [`run`].
pub fn run_baseline(cfg: &RunConfig) -> LatencyReport {
    run_with(
        cfg,
        baldur_net_baseline::simulate_plan,
        router_net_baseline::simulate_plan,
    )
}

/// The `simulate_plan` signature of the Baldur models.
type BaldurSim =
    fn(u32, BaldurParams, LinkParams, Driver, u64, Option<u64>, &FaultPlan) -> LatencyReport;

/// The `simulate_plan` signature of the electrical models.
type RouterSim = fn(
    RouterGraph,
    RoutingAlg,
    LinkParams,
    RouterParams,
    Driver,
    u64,
    Option<u64>,
    &FaultPlan,
) -> LatencyReport;

/// Builds `cfg`'s driver, fault plan and topology once, and runs them
/// through the given Baldur or electrical model.
fn run_with(cfg: &RunConfig, baldur: BaldurSim, router: RouterSim) -> LatencyReport {
    let driver = build_driver(cfg);
    // An absent schedule is the empty plan: both simulators take the
    // fault-free fast path on it, bit-identical to a plain run.
    let plan = cfg
        .faults
        .clone()
        .unwrap_or_else(|| FaultPlan::new(cfg.seed));
    let nodes = u64::from(cfg.nodes);
    let (graph, alg, rp) = match &cfg.network {
        NetworkKind::Baldur(params) => {
            return baldur(
                cfg.nodes,
                *params,
                cfg.link,
                driver,
                cfg.seed,
                cfg.horizon_ns,
                &plan,
            )
        }
        NetworkKind::Ideal => return ideal_net::simulate(driver, None),
        NetworkKind::ElectricalMultiButterfly {
            multiplicity,
            router,
        } => {
            let topo_nodes = cfg.nodes.next_power_of_two().max(4);
            let mb = MultiButterfly::new(topo_nodes, *multiplicity, cfg.seed);
            // Node fibers 100 ns (Table VI); same-room stage links short.
            let graph = build_mb_graph(&mb, 100_000, 10_000);
            (graph, RoutingAlg::MultiButterfly(mb), router)
        }
        NetworkKind::Dragonfly { router } => {
            let df = Dragonfly::at_least(nodes);
            // Table VI: intra-group 10 ns, inter-group 100 ns.
            let graph = df.build_graph(10_000, 100_000);
            (graph, RoutingAlg::Dragonfly(df), router)
        }
        NetworkKind::DragonflyMinimal { router } => {
            let df = Dragonfly::at_least(nodes);
            let graph = df.build_graph(10_000, 100_000);
            (graph, RoutingAlg::DragonflyMinimal(df), router)
        }
        NetworkKind::FatTree { router } => {
            let ft = FatTree::at_least(nodes);
            // Table VI: level 1/2/3 links at 10/50/100 ns.
            let graph = ft.build_graph(10_000, 50_000, 100_000);
            (graph, RoutingAlg::FatTree(ft), router)
        }
    };
    router(
        graph,
        alg,
        cfg.link,
        *rp,
        driver,
        cfg.seed,
        cfg.horizon_ns,
        &plan,
    )
}

/// Runs a batch of independent configurations across up to `threads`
/// workers, returning reports in input order.
///
/// Every run is a pure function of its `RunConfig`, so the fan-out cannot
/// change any report — results are byte-identical at any thread count.
/// `threads == 0` resolves through `BALDUR_THREADS`, then the machine's
/// available parallelism (see [`baldur_sim::par::thread_count`]).
///
/// # Panics
///
/// Propagates a panic from any individual [`run`].
pub fn run_many(threads: usize, cfgs: Vec<RunConfig>) -> Vec<LatencyReport> {
    baldur_sim::par::par_map(baldur_sim::par::thread_count(threads), cfgs, run)
}

/// [`run_many`] with panic isolation: a configuration whose [`run`]
/// panics (e.g. a malformed topology/pattern pairing) yields
/// `Err(panic message)` in its input-order slot while every other
/// configuration still completes. Never panics and never skips: the
/// isolated pool runs with an unlimited failure budget, so the result is
/// thread-count deterministic like [`run_many`] itself.
pub fn try_run_many(threads: usize, cfgs: Vec<RunConfig>) -> Vec<Result<LatencyReport, String>> {
    use baldur_sim::par::JobSlot;
    let (slots, _aborted) =
        baldur_sim::par::par_map_isolated(baldur_sim::par::thread_count(threads), cfgs, None, run);
    slots
        .into_iter()
        .map(|slot| match slot {
            JobSlot::Done(report) => Ok(report),
            JobSlot::Panicked(msg) => Err(msg),
            JobSlot::Skipped => Err("skipped".to_string()),
        })
        .collect()
}

// ---- The shared packet-model run loop ----

/// What a packet model supplies to [`simulate`]: everything else about a
/// run is the same for `baldur_net`, `router_net` and their retired
/// `_baseline` twins.
pub(crate) trait PacketModel: Model + Sized {
    /// The driver wakeup event for `node`.
    fn wake(node: u32) -> Self::Event;

    /// The event applying fault-plan entry `idx` at its `at_ps`.
    fn fault(idx: u32) -> Self::Event;

    /// The simulated-time bound (ns) of a run whose caller gave none,
    /// for a workload of `total_packets`.
    fn default_horizon_ns(&self, total_packets: u64) -> u64;

    /// The per-run instruments [`simulate`] installs: the metrics
    /// collector, the oracle, and the fault plan the model executes.
    fn instruments(&mut self) -> (&mut Collector, &mut Oracle, &mut FaultPlan);

    /// Periodic oracle tick (stuck-flow and starvation watermarks).
    /// Returns `true` when the run should abort.
    fn oracle_tick(&mut self, now: Time) -> bool;

    /// The drain audit, run once the event queue drained: whatever the
    /// model holds that a finished run must not (packets in flight,
    /// queued or unACKed work, leaked credits or batches, an unbalanced
    /// packet ledger) becomes an oracle violation.
    fn oracle_check_drained(&mut self, end: Time);

    /// Finishes the run and reports.
    fn into_report(self, end: Time) -> LatencyReport;

    /// Kernel-state accounting; [`simulate`] adds the scheduler figures.
    fn state_stats(&self) -> StateStats {
        StateStats::default()
    }
}

/// The latency-sample cap every simulator gives its [`Collector`].
pub(crate) fn sample_cap(total_packets: u64) -> usize {
    total_packets.min(2_000_000) as usize + 16
}

/// Runs one packet model to completion (or its horizon) and reports.
///
/// `build` constructs the model from the driver and the latency-sample
/// cap. The harness then installs an oracle tuned by `oracle_cfg` and,
/// for a non-empty `plan`, per-fault-epoch metrics with recovery
/// measurement; schedules the driver's first wakes and every fault
/// event; and runs with an oracle tick every 8192 executed events (a
/// deterministic cadence, independent of wall clock and thread count),
/// so a latched stall aborts the run instead of burning the horizon. A
/// drained run gets the model's drain audit.
///
/// In debug builds a drained run must also come out free of the
/// violation kinds that only a model bug produces (see
/// [`is_model_bug`]), so every debug `cargo test` run holds the models
/// to their conservation and residual-state invariants.
pub(crate) fn simulate<M: PacketModel>(
    mut driver: Driver,
    horizon_ns: Option<u64>,
    plan: &FaultPlan,
    oracle_cfg: OracleConfig,
    build: impl FnOnce(Driver, usize) -> M,
) -> (LatencyReport, StateStats) {
    let total = driver.total_to_send();
    let cap = sample_cap(total);
    let initial = driver.initial();
    let mut model = build(driver, cap);
    let (metrics, oracle, model_plan) = model.instruments();
    *oracle = Oracle::new(oracle_cfg);
    if !plan.is_empty() {
        *metrics = Collector::with_recovery(cap, plan.epoch_boundaries(), recovery_spec(plan));
        oracle.set_boundaries(plan.epoch_boundaries());
        *model_plan = plan.clone();
    }
    let horizon = Time::from_ns(horizon_ns.unwrap_or_else(|| model.default_horizon_ns(total)));
    let mut sim = Simulation::new(model);
    let sched = sim.scheduler_mut();
    for (node, t) in initial {
        sched.schedule_at(Time::from_ps(t), M::wake(node));
    }
    for (idx, ev) in plan.events.iter().enumerate() {
        sched.schedule_at(Time::from_ps(ev.at_ps), M::fault(idx as u32));
    }
    let stop = sim.run_until_observed(horizon, u64::MAX, 8192, |m, now| !m.oracle_tick(now));
    let sched = sim.scheduler();
    let end = sched.now();
    let events = sched.events_executed();
    let mut stats = sim.model().state_stats();
    stats.peak_pending_events = sched.peak_pending() as u64;
    stats.events_scheduled = sched.events_scheduled();
    stats.calendar_backed = sched.calendar_backed();
    let mut model = sim.into_model();
    let drained = stop == StopReason::Drained;
    if drained {
        model.oracle_check_drained(end);
    }
    let mut report = model.into_report(end);
    report.events = events;
    if cfg!(debug_assertions) && drained {
        if let Some(bug) = report
            .oracle
            .reports
            .iter()
            .find(|r| is_model_bug(&r.violation))
        {
            panic!("drained run broke a model invariant: {bug}");
        }
    }
    (report, stats)
}

/// Recovery measurement for a plan that repairs something: goodput is
/// binned from the first fault, and each repair is timed back to half
/// the pre-fault baseline.
fn recovery_spec(plan: &FaultPlan) -> Option<RecoverySpec> {
    let repairs_ps = plan.repair_times();
    let first_fault_ps = plan.events.iter().map(|e| e.at_ps).min()?;
    (!repairs_ps.is_empty()).then_some(RecoverySpec {
        // 1 us bins resolve recovery on CI-scale runs while a 1 M-bin cap
        // keeps long sweeps bounded.
        bin_ps: 1_000_000,
        frac: 0.5,
        first_fault_ps,
        repairs_ps,
    })
}

/// Violation kinds no fault plan or overload can cause on a drained
/// run, only a model bug: an unbalanced packet ledger, a counter
/// decremented below zero, or state left over after the drain.
fn is_model_bug(v: &Violation) -> bool {
    matches!(
        v,
        Violation::Conservation { .. }
            | Violation::CounterUnderflow { .. }
            | Violation::ResidualState { .. }
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn by_name_reconstructs_the_paper_lineup() {
        let lineup = NetworkKind::paper_lineup(128);
        let order: Vec<&str> = lineup.iter().map(|(name, _)| name.as_str()).collect();
        assert_eq!(
            order,
            ["baldur", "electrical_mb", "dragonfly", "fattree", "ideal"]
        );
        for (name, net) in lineup {
            assert_eq!(NetworkKind::by_name(&name, 128), Some(net), "{name}");
        }
        for name in NETWORK_NAMES {
            let net = NetworkKind::by_name(name, 128);
            assert_eq!(net.map(|n| n.name()), Some(name), "{name} round-trips");
        }
        assert!(NetworkKind::by_name("dragonfly_minimal", 128).is_some());
        assert!(NetworkKind::by_name("token_ring", 128).is_none());
        let names: Vec<String> = ["baldur", "ideal"].iter().map(|s| s.to_string()).collect();
        let lineup = NetworkKind::lineup_named(64, &names).expect("known names resolve");
        assert_eq!(lineup.len(), 2);
        assert_eq!(lineup[1].1, NetworkKind::Ideal);
        let bad = vec!["baldur".to_string(), "token_ring".to_string()];
        assert!(NetworkKind::lineup_named(64, &bad)
            .expect_err("unknown name errs")
            .contains("token_ring"));
    }

    fn synth(load: f64, ppn: u32) -> Workload {
        Workload::Synthetic {
            pattern: Pattern::RandomPermutation,
            load,
            packets_per_node: ppn,
        }
    }

    #[test]
    fn all_five_networks_run_the_same_workload() {
        for (name, net) in NetworkKind::paper_lineup(64) {
            let cfg = RunConfig::new(64, net, synth(0.2, 20));
            let r = run(&cfg);
            assert!(
                r.delivery_ratio() > 0.99,
                "{name}: delivered {} of {}",
                r.delivered,
                r.generated
            );
            assert!(r.avg_ns > 0.0, "{name}");
        }
    }

    #[test]
    fn baldur_beats_electrical_networks_at_moderate_load() {
        let mut avg = std::collections::BTreeMap::new();
        for (name, net) in NetworkKind::paper_lineup(64) {
            let cfg = RunConfig::new(64, net, synth(0.3, 30));
            avg.insert(name, run(&cfg).avg_ns);
        }
        let baldur = avg["baldur"];
        assert!(baldur < avg["electrical_mb"], "{avg:?}");
        assert!(baldur < avg["fattree"], "{avg:?}");
        assert!(baldur < avg["dragonfly"], "{avg:?}");
        // And the ideal network lower-bounds everyone.
        assert!(avg["ideal"] <= baldur, "{avg:?}");
    }

    #[test]
    fn run_many_matches_serial_runs_in_order() {
        let cfgs: Vec<RunConfig> = NetworkKind::paper_lineup(64)
            .into_iter()
            .map(|(_, net)| RunConfig::new(64, net, synth(0.2, 10)))
            .collect();
        let serial: Vec<LatencyReport> = cfgs.iter().map(run).collect();
        let batched = run_many(4, cfgs);
        assert_eq!(serial, batched);
    }

    #[test]
    fn try_run_many_isolates_a_bad_config() {
        // Transpose requires a power-of-two node count; 6 nodes panics —
        // and must not take its siblings with it.
        let bad = RunConfig::new(
            6,
            NetworkKind::Ideal,
            Workload::Synthetic {
                pattern: Pattern::Transpose,
                load: 0.2,
                packets_per_node: 5,
            },
        );
        let good = RunConfig::new(64, NetworkKind::Ideal, synth(0.2, 5));
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let out = try_run_many(2, vec![good.clone(), bad, good.clone()]);
        std::panic::set_hook(prev);
        assert!(out[0].is_ok() && out[2].is_ok());
        assert_eq!(out[0], out[2]);
        assert!(out[1].is_err(), "bad config must surface its panic");
        assert_eq!(
            out[0].as_ref().ok().map(|r| r.delivered),
            Some(run(&good).delivered)
        );
    }

    #[test]
    fn baseline_models_match_soa_models_byte_identically() {
        // The retired map-based models and the struct-of-arrays models
        // must agree on the whole report, including float bits, for every
        // network in the lineup.
        for (name, net) in NetworkKind::paper_lineup(64) {
            let cfg = RunConfig::new(64, net, synth(0.3, 15));
            assert_eq!(run(&cfg), run_baseline(&cfg), "{name}");
        }
    }

    #[test]
    fn ping_pong2_runs_everywhere() {
        for (name, net) in NetworkKind::paper_lineup(64) {
            let cfg = RunConfig::new(64, net, Workload::PingPong2 { rounds: 3 });
            let r = run(&cfg);
            assert_eq!(r.delivered, r.generated, "{name}");
        }
    }

    #[test]
    fn hpc_trace_runs_on_baldur_and_fattree() {
        let wl = Workload::Hpc {
            app: HpcApp::CrystalRouter,
            params: TraceParams {
                iterations: 1,
                halo_packets: 2,
                compute_ps: 100_000,
            },
        };
        for (name, net) in NetworkKind::paper_lineup(64).into_iter().take(2) {
            let cfg = RunConfig::new(64, net, wl);
            let r = run(&cfg);
            assert!(r.delivery_ratio() > 0.99, "{name}");
        }
    }
}
