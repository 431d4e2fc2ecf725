//! The three workloads: which simulation cells each runs, how a cell is
//! set up and simulated through the public entry points, and how every
//! cell's report is checked.

use baldur::experiments::{overload_network, storm_pattern};
use baldur::net::baldur_net::{self, BaldurNet, StateStats};
use baldur::net::driver::Driver;
use baldur::net::metrics::LatencyReport;
use baldur::net::router_net::RouterNet;
use baldur::net::routing::{build_mb_graph, RoutingAlg};
use baldur::net::traffic::Pattern;
use baldur::topo::{Dragonfly, FatTree, MultiButterfly, RouterGraph, Staged};
use baldur::{NetworkKind, RunConfig, Workload};

use crate::trace::Tracer;

/// The seed whose per-cell report digests are recorded in `digests.txt`.
/// It is `RunConfig`'s own default seed.
pub const DEFAULT_SEED: u64 = 0xBA1D;

/// The held-out seed: no change may be tuned on it. A gain claimed at
/// [`DEFAULT_SEED`] is confirmed by re-running the benchmark here, where
/// only the structural checks (conservation, drain, oracle) apply.
pub const HELD_OUT_SEED: u64 = 0x5EED;

/// `baldur_scale`: endpoints (past the scheduler's calendar promotion and
/// the host's last-level cache) and packets injected per endpoint.
const SCALE_NODES: u32 = 131_072;
const SCALE_PPN: u32 = 1;

/// `paper_lineup`: the Fig. 6 machine size and packets per node.
const LINEUP_NODES: u32 = 1_024;
const LINEUP_PPN: u32 = 12;

/// `overload_storm`: endpoints, offered load and packets per sender.
const STORM_NODES: u32 = 16_384;
const STORM_LOAD: f64 = 4.0;
const STORM_PPN: u32 = 100;

/// One named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One large Baldur network under light uniform traffic.
    BaldurScale,
    /// The Fig. 6 five-network lineup at 1,024 nodes.
    PaperLineup,
    /// Baldur with overload controls under incast and hotcast storms.
    OverloadStorm,
}

impl Kind {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Kind; 3] = [Kind::BaldurScale, Kind::PaperLineup, Kind::OverloadStorm];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Kind::BaldurScale => "baldur_scale",
            Kind::PaperLineup => "paper_lineup",
            Kind::OverloadStorm => "overload_storm",
        }
    }

    /// The workload called `name`, if any.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// The simulation cells of one pass, all seeded with `seed`.
    pub fn cells(self, seed: u64) -> Vec<Cell> {
        let cell = |label: String, nodes: u32, network: NetworkKind, workload: Workload| Cell {
            label,
            cfg: RunConfig {
                seed,
                ..RunConfig::new(nodes, network, workload)
            },
        };
        match self {
            Kind::BaldurScale => vec![cell(
                "baldur/uniform/0.5".to_string(),
                SCALE_NODES,
                NetworkKind::Baldur(baldur::net::config::BaldurParams::paper_for(u64::from(
                    SCALE_NODES,
                ))),
                Workload::Synthetic {
                    pattern: Pattern::UniformRandom,
                    load: 0.5,
                    packets_per_node: SCALE_PPN,
                },
            )],
            Kind::PaperLineup => {
                let mut cells = Vec::new();
                for pattern in [Pattern::RandomPermutation, Pattern::GroupPermutation] {
                    for (name, network) in NetworkKind::paper_lineup(LINEUP_NODES) {
                        for load in [0.5, 0.9] {
                            cells.push(cell(
                                format!("{name}/{}/{load}", pattern.name()),
                                LINEUP_NODES,
                                network.clone(),
                                Workload::Synthetic {
                                    pattern,
                                    load,
                                    packets_per_node: LINEUP_PPN,
                                },
                            ));
                        }
                    }
                }
                cells
            }
            Kind::OverloadStorm => ["incast", "hotcast"]
                .into_iter()
                .map(|pname| {
                    cell(
                        format!("baldur/{pname}/{STORM_LOAD}"),
                        STORM_NODES,
                        overload_network("baldur", STORM_NODES)
                            .expect("baldur accepts overload controls"),
                        Workload::Storm {
                            pattern: storm_pattern(pname, STORM_NODES)
                                .expect("incast and hotcast are storm patterns"),
                            load: STORM_LOAD,
                            packets_per_node: STORM_PPN,
                        },
                    )
                })
                .collect(),
        }
    }
}

/// One simulation run of a workload pass.
#[derive(Debug, Clone)]
pub struct Cell {
    /// `network/pattern/load`, unique within the workload.
    pub label: String,
    /// The run configuration handed to the simulator.
    pub cfg: RunConfig,
}

impl Cell {
    /// The network's display name (`baldur`, `electrical_mb`, ...).
    pub fn network(&self) -> &'static str {
        self.cfg.network.name()
    }
}

/// The traffic driver `baldur::run` would build for `cfg`.
pub fn driver(cfg: &RunConfig) -> Driver {
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
        _ => unreachable!("benchmark cells are open loop"),
    }
}

/// The latency-sample cap every simulator gives its `Collector`.
pub fn sample_cap(total_packets: u64) -> usize {
    total_packets.min(2_000_000) as usize + 16
}

/// Runs one cell through a public simulation entry point. Baldur cells
/// go through `simulate_scaling`, which also returns the scheduler and
/// state counters; every other network goes through `baldur::run`. Both
/// return the report `baldur::run` would (a unit test holds them to it).
pub fn simulate(cfg: &RunConfig) -> (LatencyReport, Option<StateStats>) {
    match &cfg.network {
        NetworkKind::Baldur(params) => {
            let (report, stats) = baldur_net::simulate_scaling(
                cfg.nodes,
                *params,
                cfg.link,
                driver(cfg),
                cfg.seed,
                cfg.horizon_ns,
            );
            (report, Some(stats))
        }
        _ => (baldur::run(cfg), None),
    }
}

/// The topology `cfg` simulates on, built alone: Baldur's staged network,
/// or an electrical network's router graph with its routing state.
pub enum Topology {
    /// Baldur's staged multi-butterfly (or Omega), held only so the
    /// topology probe can time its build and drop it.
    Staged(#[allow(dead_code)] Staged),
    /// An electrical router graph.
    Routed(RouterGraph, RoutingAlg),
    /// The ideal network has none.
    None,
}

/// Builds the topology of `cfg` with the same constructors and link
/// delays `baldur::run` uses.
pub fn topology(cfg: &RunConfig) -> Topology {
    let nodes = u64::from(cfg.nodes);
    match &cfg.network {
        NetworkKind::Baldur(p) => Topology::Staged(Staged::build(
            p.staged_kind(),
            cfg.nodes.next_power_of_two().max(4),
            p.multiplicity,
            cfg.seed,
        )),
        NetworkKind::ElectricalMultiButterfly { multiplicity, .. } => {
            let mb = MultiButterfly::new(
                cfg.nodes.next_power_of_two().max(4),
                *multiplicity,
                cfg.seed,
            );
            let graph = build_mb_graph(&mb, 100_000, 10_000);
            Topology::Routed(graph, RoutingAlg::MultiButterfly(mb))
        }
        NetworkKind::Dragonfly { .. } => {
            let df = Dragonfly::at_least(nodes);
            Topology::Routed(df.build_graph(10_000, 100_000), RoutingAlg::Dragonfly(df))
        }
        NetworkKind::DragonflyMinimal { .. } => {
            let df = Dragonfly::at_least(nodes);
            Topology::Routed(
                df.build_graph(10_000, 100_000),
                RoutingAlg::DragonflyMinimal(df),
            )
        }
        NetworkKind::FatTree { .. } => {
            let ft = FatTree::at_least(nodes);
            Topology::Routed(
                ft.build_graph(10_000, 50_000, 100_000),
                RoutingAlg::FatTree(ft),
            )
        }
        NetworkKind::Ideal => Topology::None,
    }
}

/// Builds everything `cfg`'s run builds before its first event (driver,
/// topology, network model) and drops it. Spans: `driver`, `topo` and
/// `<model>.construct`; `BaldurNet::new` builds its topology itself, so
/// Baldur's construct span includes it.
pub fn set_up(cfg: &RunConfig, tr: &mut Tracer) {
    let driver = tr.span("driver", |_| driver(cfg));
    let cap = sample_cap(driver.total_to_send());
    match &cfg.network {
        NetworkKind::Baldur(params) => {
            let model = tr.span("baldur_net.construct", |_| {
                BaldurNet::new(cfg.nodes, *params, cfg.link, driver, cfg.seed, cap)
            });
            drop(model);
        }
        NetworkKind::Ideal => drop(driver),
        NetworkKind::ElectricalMultiButterfly { router, .. }
        | NetworkKind::Dragonfly { router }
        | NetworkKind::DragonflyMinimal { router }
        | NetworkKind::FatTree { router } => {
            let Topology::Routed(graph, alg) = tr.span("topo", |_| topology(cfg)) else {
                unreachable!("electrical networks have a router graph");
            };
            let model = tr.span("router_net.construct", |_| {
                RouterNet::new(graph, alg, cfg.link, *router, driver, cfg.seed, cap)
            });
            drop(model);
        }
    }
}

/// The structural checks every cell must pass at any seed: packet
/// conservation with nothing stranded (every benchmark run drains), and a
/// clean oracle.
pub fn check(report: &LatencyReport) -> Result<(), String> {
    let accounted = [
        report.abandoned,
        report.expired,
        report.ingress_drops,
        report.stranded,
    ]
    .into_iter()
    .try_fold(report.delivered, u64::checked_add);
    if accounted != Some(report.generated) {
        return Err(format!(
            "conservation: generated {} != delivered {} + abandoned {} + expired {} \
             + ingress_drops {} + stranded {}",
            report.generated,
            report.delivered,
            report.abandoned,
            report.expired,
            report.ingress_drops,
            report.stranded
        ));
    }
    if report.stranded != 0 {
        return Err(format!("{} packets stranded", report.stranded));
    }
    if !report.oracle.is_clean() {
        return Err(format!("{} oracle violations", report.oracle.total()));
    }
    Ok(())
}

/// SHA-256 of the report's JSON rendering: equal digests mean every
/// simulated statistic is identical.
pub fn digest(report: &LatencyReport) -> String {
    let json = serde_json::to_string(report).expect("the vendored renderer never fails");
    baldur::hash::hex_digest(json.as_bytes())
}

/// The digests recorded at [`DEFAULT_SEED`], one `workload label digest`
/// line per cell.
const RECORDED: &str = include_str!("../digests.txt");

fn recorded_in<'a>(table: &'a str, workload: Kind, label: &str) -> Option<&'a str> {
    table.lines().find_map(|line| {
        let mut parts = line.split_whitespace();
        match (parts.next(), parts.next(), parts.next()) {
            (Some(w), Some(l), Some(d)) if w == workload.name() && l == label => Some(d),
            _ => None,
        }
    })
}

/// The digest gate: `report` must hash to the digest recorded for its
/// cell.
pub fn gate_digest(
    table: &str,
    workload: Kind,
    label: &str,
    report: &LatencyReport,
) -> Result<(), String> {
    let got = digest(report);
    match recorded_in(table, workload, label) {
        Some(want) if want == got => Ok(()),
        Some(want) => Err(format!("digest {got} differs from recorded {want}")),
        None => Err(format!("no digest recorded (got {got})")),
    }
}

/// [`gate_digest`] against the recorded table.
pub fn gate_recorded(workload: Kind, label: &str, report: &LatencyReport) -> Result<(), String> {
    gate_digest(RECORDED, workload, label, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use baldur::net::config::BaldurParams;

    fn small(network: NetworkKind, workload: Workload) -> RunConfig {
        RunConfig::new(64, network, workload)
    }

    #[test]
    fn simulate_returns_what_baldur_run_returns() {
        let synthetic = Workload::Synthetic {
            pattern: Pattern::RandomPermutation,
            load: 0.5,
            packets_per_node: 8,
        };
        let storm = Workload::Storm {
            pattern: Pattern::Hotcast,
            load: 4.0,
            packets_per_node: 8,
        };
        let mut cfgs: Vec<RunConfig> = NetworkKind::paper_lineup(64)
            .into_iter()
            .map(|(_, net)| small(net, synthetic))
            .collect();
        cfgs.push(small(
            overload_network("baldur", 64).expect("baldur"),
            storm,
        ));
        for cfg in cfgs {
            let (report, stats) = simulate(&cfg);
            assert_eq!(report, baldur::run(&cfg), "{}", cfg.network.name());
            assert_eq!(stats.is_some(), cfg.network.name() == "baldur");
            check(&report).expect("small runs drain cleanly");
        }
    }

    #[test]
    fn a_perturbed_report_fails_the_digest_gate() {
        let cfg = small(
            NetworkKind::Baldur(BaldurParams::paper_for(64)),
            Workload::Synthetic {
                pattern: Pattern::UniformRandom,
                load: 0.5,
                packets_per_node: 4,
            },
        );
        let report = baldur::run(&cfg);
        let table = format!("baldur_scale baldur/uniform/0.5 {}\n", digest(&report));
        let gate =
            |r: &LatencyReport| gate_digest(&table, Kind::BaldurScale, "baldur/uniform/0.5", r);
        assert_eq!(gate(&report), Ok(()));
        let mut later = report.clone();
        later.events += 1;
        assert!(gate(&later).is_err(), "a changed event count must fail");
        let mut slower = report.clone();
        slower.avg_ns = f64::from_bits(slower.avg_ns.to_bits() + 1);
        assert!(gate(&slower).is_err(), "a one-ulp latency change must fail");
        assert!(
            gate_digest(&table, Kind::PaperLineup, "baldur/uniform/0.5", &report).is_err(),
            "an unrecorded cell must fail"
        );
    }

    #[test]
    fn check_rejects_broken_conservation_and_oracle_reports() {
        let cfg = small(
            NetworkKind::Ideal,
            Workload::Synthetic {
                pattern: Pattern::RandomPermutation,
                load: 0.5,
                packets_per_node: 4,
            },
        );
        let report = baldur::run(&cfg);
        assert_eq!(check(&report), Ok(()));
        let mut lost = report.clone();
        lost.delivered -= 1;
        assert!(check(&lost).is_err());
        let mut stranded = report.clone();
        stranded.delivered -= 1;
        stranded.stranded += 1;
        assert!(check(&stranded).is_err());
        let mut flagged = report;
        flagged.oracle.suppressed = 1;
        assert!(check(&flagged).is_err());
    }

    #[test]
    fn every_cell_of_every_workload_has_a_recorded_digest() {
        for kind in Kind::ALL {
            for cell in kind.cells(DEFAULT_SEED) {
                assert!(
                    recorded_in(RECORDED, kind, &cell.label).is_some(),
                    "{} {}",
                    kind.name(),
                    cell.label
                );
            }
        }
    }
}
