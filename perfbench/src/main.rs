//! End-to-end and per-layer benchmark of the Baldur simulator.
//!
//! ```text
//! baldur-perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//! baldur-perfbench --compare <result-set A> <result-set B>
//! baldur-perfbench --print-digests
//! ```
//!
//! A run builds the workload's cells from the seed, runs them once to warm
//! up, then repeats the workload's simulation calls and its set-up until
//! `--seconds` have passed, checking every cell. Each timing is
//! normalised by a host-speed reference kernel run next to it (see
//! `host.rs`). With `--trace 1` it also records spans
//! around each layer call and runs the replay probes, and prints the
//! per-layer metrics instead of the end-to-end ones. The last line of
//! standard output is one JSON result object. See `README.md`.

mod host;
mod probe;
mod stats;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::process::{Command, ExitCode};

use baldur::net::baldur_net::StateStats;
use baldur::net::metrics::LatencyReport;
use baldur_bench::perf::{monotonic_ns, peak_rss_bytes_os};

use host::Reference;
use stats::{median, Catalogue};
use trace::Tracer;
use workload::{Cell, Kind, DEFAULT_SEED, HELD_OUT_SEED};

/// Fewest timed passes of a workload, however long a pass takes.
const MIN_PASSES: usize = 3;
/// After each pass, set-up repetitions run until they have taken at
/// least this share of the pass's time (and at least once). Host speed
/// drifts over seconds on a shared machine, so set-up is sampled across
/// the whole run rather than in one burst.
const SETUP_SHARE: f64 = 0.1;
/// Where a traced run writes its spans, relative to the working
/// directory.
const TRACE_DIR: &str = "perfbench/out";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse(&args) {
        Ok(Mode::Run {
            workload,
            seed,
            seconds,
            trace,
        }) => match workload {
            None => run_all(seed, seconds, trace),
            Some(kind) => run(kind, seed, seconds, trace),
        },
        Ok(Mode::Compare(a, b)) => {
            let names: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
            match stats::compare(Path::new(&a), Path::new(&b), &names, &Catalogue::load()) {
                Ok(false) => ExitCode::SUCCESS,
                Ok(true) => ExitCode::FAILURE,
                Err(e) => {
                    eprintln!("compare: {e}");
                    ExitCode::from(2)
                }
            }
        }
        Ok(Mode::PrintDigests) => {
            for kind in Kind::ALL {
                for cell in kind.cells(DEFAULT_SEED) {
                    let (report, _) = workload::simulate(&cell.cfg);
                    println!(
                        "{} {} {}",
                        kind.name(),
                        cell.label,
                        workload::digest(&report)
                    );
                }
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("usage error: {e}");
            eprintln!(
                "usage: baldur-perfbench --workload <{}|all> --seed <n> --seconds <s> --trace <0|1>\n       \
                 baldur-perfbench --compare <dir A> <dir B>\n       baldur-perfbench --print-digests\n\
                 seeds: {DEFAULT_SEED} is checked against the recorded digests; \
                 {HELD_OUT_SEED} is held out for confirming gains",
                Kind::ALL.map(Kind::name).join("|")
            );
            ExitCode::from(2)
        }
    }
}

enum Mode {
    Run {
        /// `None` runs every workload, each in its own process.
        workload: Option<Kind>,
        seed: u64,
        seconds: f64,
        trace: bool,
    },
    Compare(String, String),
    PrintDigests,
}

fn parse(args: &[String]) -> Result<Mode, String> {
    match args.first().map(String::as_str) {
        Some("--compare") if args.len() == 3 => {
            return Ok(Mode::Compare(args[1].clone(), args[2].clone()))
        }
        Some("--print-digests") if args.len() == 1 => return Ok(Mode::PrintDigests),
        _ => {}
    }
    let mut flags = BTreeMap::new();
    for pair in args.chunks(2) {
        match pair {
            [flag, value] if flag.starts_with("--") => {
                if flags.insert(flag.as_str(), value.as_str()).is_some() {
                    return Err(format!("{flag} given twice"));
                }
            }
            _ => return Err(format!("unexpected argument `{}`", pair[0])),
        }
    }
    let get = |name: &str| flags.get(name).copied().ok_or(format!("missing {name}"));
    let workload = match get("--workload")? {
        "all" => None,
        name => Some(Kind::parse(name).ok_or(format!("unknown workload `{name}`"))?),
    };
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got `{other}`")),
    };
    if flags.len() != 4 {
        return Err("expected exactly --workload, --seed, --seconds and --trace".into());
    }
    Ok(Mode::Run {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Runs every workload in a child process of its own, so each one's
/// peak RSS is its own.
fn run_all(seed: u64, seconds: f64, trace: bool) -> ExitCode {
    let exe = std::env::current_exe().expect("the running executable has a path");
    let mut ok = true;
    for kind in Kind::ALL {
        let status = Command::new(&exe)
            .args(["--workload", kind.name(), "--seed", &seed.to_string()])
            .args([
                "--seconds",
                &seconds.to_string(),
                "--trace",
                if trace { "1" } else { "0" },
            ])
            .status();
        ok &= status.is_ok_and(|s| s.success());
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The warm-up pass's outcome for one cell.
struct CellResult {
    report: LatencyReport,
    stats: Option<StateStats>,
    digest: String,
}

/// What the warm-up and the timed passes measured.
struct Passes {
    /// Host ns in the simulation calls, per timed pass.
    wall_ns: Vec<u64>,
    /// Per timed pass, the mean of the reference timings before and
    /// after it.
    wall_ref_ns: Vec<u64>,
    /// Host ns per set-up repetition.
    setup_ns: Vec<u64>,
    /// Per set-up repetition, the reference timing just before its batch.
    setup_ref_ns: Vec<u64>,
    /// Per cell, the warm-up pass's result (`None` if it failed).
    first: Vec<Option<CellResult>>,
    /// `VmHWM` after the warm-up pass, before the reference kernel's
    /// table is allocated.
    peak_rss: u64,
    attempted: u64,
    failed: u64,
}

/// Runs one pass over every cell, checking each: the structural checks
/// always, the recorded digests at the default seed, and equality with
/// the warm-up pass's report once there is one. Returns the host ns spent
/// in the simulation calls.
fn pass(kind: Kind, cells: &[Cell], seed: u64, out: &mut Passes) -> u64 {
    let warm_up = out.first.is_empty();
    let mut pass_ns = 0;
    for (i, cell) in cells.iter().enumerate() {
        let t0 = monotonic_ns();
        let outcome = catch_unwind(AssertUnwindSafe(|| workload::simulate(&cell.cfg)));
        pass_ns += monotonic_ns() - t0;
        out.attempted += 1;
        let verdict = match outcome {
            Err(_) => Err("panicked".to_string()),
            Ok((report, stats)) => {
                let digest = workload::digest(&report);
                let verdict = workload::check(&report).and_then(|()| {
                    if seed == DEFAULT_SEED {
                        workload::gate_recorded(kind, &cell.label, &report)?;
                    }
                    match out.first.get(i) {
                        Some(Some(f)) if !warm_up && f.digest != digest => {
                            Err("report differs from the warm-up pass".to_string())
                        }
                        _ => Ok(()),
                    }
                });
                if warm_up {
                    out.first.push(verdict.is_ok().then_some(CellResult {
                        report,
                        stats,
                        digest,
                    }));
                }
                verdict
            }
        };
        if warm_up && out.first.len() == i {
            out.first.push(None);
        }
        if let Err(e) = verdict {
            out.failed += 1;
            eprintln!("FAILED {} {} (seed {seed}): {e}", kind.name(), cell.label);
        }
    }
    pass_ns
}

/// Runs one untimed warm-up pass, then timed passes until `seconds` have
/// passed since the start (and at least [`MIN_PASSES`] timed passes ran).
/// The reference kernel runs before the first timed pass and after every
/// pass. Set-up repetitions follow each reference timing: building (and
/// dropping) everything the pass builds before its first event.
fn timed_passes(kind: Kind, cells: &[Cell], seed: u64, seconds: f64) -> Passes {
    let budget_ns = (seconds * 1e9) as u64;
    let start = monotonic_ns();
    let mut out = Passes {
        wall_ns: Vec::new(),
        wall_ref_ns: Vec::new(),
        setup_ns: Vec::new(),
        setup_ref_ns: Vec::new(),
        first: Vec::new(),
        peak_rss: 0,
        attempted: 0,
        failed: 0,
    };
    pass(kind, cells, seed, &mut out);
    out.peak_rss = peak_rss_bytes_os();
    let mut reference = Reference::new();
    let mut ref_before = reference.time_ns();
    // A round is one pass, one reference timing and its set-ups; stop
    // before a round that would overrun the budget.
    let mut round_ns = 0;
    while out.wall_ns.len() < MIN_PASSES || monotonic_ns() - start + round_ns <= budget_ns {
        let round_start = monotonic_ns();
        let pass_ns = pass(kind, cells, seed, &mut out);
        let ref_after = reference.time_ns();
        out.wall_ns.push(pass_ns);
        out.wall_ref_ns.push((ref_before + ref_after) / 2);
        ref_before = ref_after;
        let mut spent = 0;
        while spent == 0 || (spent as f64) < SETUP_SHARE * pass_ns as f64 {
            let t0 = monotonic_ns();
            for cell in cells {
                workload::set_up(&cell.cfg, &mut Tracer::off());
            }
            let rep_ns = (monotonic_ns() - t0).max(1);
            out.setup_ns.push(rep_ns);
            out.setup_ref_ns.push(ref_after);
            spent += rep_ns;
        }
        round_ns = monotonic_ns() - round_start;
    }
    out
}

/// The median of `ns[i] / ref_ns[i]`, in seconds of the nominal host.
fn normalised_s(ns: &[u64], ref_ns: &[u64]) -> f64 {
    let ratios: Vec<f64> = ns
        .iter()
        .zip(ref_ns)
        .map(|(&t, &r)| t as f64 / r as f64)
        .collect();
    median(&ratios) * host::NOMINAL_S
}

/// Generated packets per second of simulation, set-up excluded.
pub fn packets_per_s(packets: u64, wall_s: f64, setup_s: f64) -> f64 {
    packets as f64 / (wall_s - setup_s)
}

/// The end-to-end metrics, in `BENCHMARK.json` order.
fn end_to_end(wall_s: f64, setup_s: f64, packets: u64, peak_rss: u64) -> Vec<(&'static str, f64)> {
    vec![
        ("wall_s", wall_s),
        ("setup_s", setup_s),
        ("packets_per_s", packets_per_s(packets, wall_s, setup_s)),
        ("peak_rss_bytes", peak_rss as f64),
    ]
}

fn run(kind: Kind, seed: u64, seconds: f64, trace: bool) -> ExitCode {
    let cat = Catalogue::load();
    let cells = kind.cells(seed);
    let mut tr = if trace { Tracer::on() } else { Tracer::off() };
    // The topology probe runs first, so the peak-RSS growth over it is
    // the builds' own.
    let rss_before = peak_rss_bytes_os();
    let topo_ns = trace.then(|| probe_topologies(&cells, &mut tr));
    let topo_rss = peak_rss_bytes_os().saturating_sub(rss_before);

    let passes = timed_passes(kind, &cells, seed, seconds);
    let seconds_of = |ns: &[u64]| median(&ns.iter().map(|&x| x as f64).collect::<Vec<f64>>()) / 1e9;
    let wall_s = normalised_s(&passes.wall_ns, &passes.wall_ref_ns);
    let setup_s = normalised_s(&passes.setup_ns, &passes.setup_ref_ns);
    let raw_wall_s = seconds_of(&passes.wall_ns);
    let ref_s = seconds_of(&passes.wall_ref_ns);
    let packets: u64 = passes
        .first
        .iter()
        .flatten()
        .map(|c| c.report.generated)
        .sum();

    let metrics = match topo_ns {
        None => end_to_end(wall_s, setup_s, packets, passes.peak_rss),
        Some(topo_ns) => {
            let layers = per_layer(&cells, &passes, &mut tr, seed, raw_wall_s, ref_s);
            write_trace(kind, seed, &tr);
            let mut m = vec![
                ("topo.build_s", topo_ns as f64 / 1e9),
                ("topo.rss_bytes", topo_rss as f64),
            ];
            m.extend(layers);
            m
        }
    };

    let correct = passes.failed == 0;
    println!(
        "{} seed {seed}{}: {} timed passes x {} cells, {} set-ups, trace {}",
        kind.name(),
        if seed == DEFAULT_SEED {
            " (digest gate on)"
        } else {
            ""
        },
        passes.wall_ns.len(),
        cells.len(),
        passes.setup_ns.len(),
        u8::from(trace)
    );
    for (name, value) in &metrics {
        println!("  {name:<34} {value:>18.6} {}", cat.unit(name));
    }
    println!(
        "  {:<34} {:>18.6} s (raw median pass; reference kernel {:.6} s, nominal {} s)",
        "raw_wall_s",
        raw_wall_s,
        ref_s,
        host::NOMINAL_S
    );
    println!(
        "  {:<34} {:>18.6} share ({} of {} cells)",
        "failed_runs",
        passes.failed as f64 / passes.attempted as f64,
        passes.failed,
        passes.attempted
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                json_number(*value),
                cat.unit(name)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        passes.attempted,
        passes.failed,
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// A finite number as JSON; anything else as 0.
fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}

/// Builds every cell's topology alone; returns the host ns spent.
fn probe_topologies(cells: &[Cell], tr: &mut Tracer) -> u64 {
    let ((), ns) = tr.timed("probe.topo", |tr| {
        for cell in cells {
            let topo = tr.span("topo", |_| workload::topology(&cell.cfg));
            drop(topo);
        }
    });
    ns
}

/// The traced pass and the replay probes, reduced to the per-layer
/// metrics (topology metrics excepted). Per-layer times are raw host
/// seconds; `host.ref_s` is the run's median reference timing, against
/// which they can be normalised.
fn per_layer(
    cells: &[Cell],
    passes: &Passes,
    tr: &mut Tracer,
    seed: u64,
    untraced_wall_s: f64,
    ref_s: f64,
) -> Vec<(&'static str, f64)> {
    // One traced set-up and one traced pass; per cell, the simulation
    // loop is the simulate call's time minus the cell's set-up time.
    let setup_cell_ns: Vec<u64> = tr.span("setup", |tr| {
        cells
            .iter()
            .map(|c| tr.timed("set_up", |tr| workload::set_up(&c.cfg, tr)).1)
            .collect()
    });
    let setup_root = tr.last_root("setup").expect("setup span");
    let sim_cell_ns: Vec<u64> = tr.span("pass", |tr| {
        cells
            .iter()
            .map(|c| {
                let name = format!("simulate.{}", model_layer(c));
                tr.timed(&name, |_| workload::simulate(&c.cfg)).1
            })
            .collect()
    });
    let pass_root = tr.last_root("pass").expect("pass span");
    let loop_ns = |i: usize| sim_cell_ns[i].saturating_sub(setup_cell_ns[i]) as f64;

    // Replay probes, from the warm-up pass's counts.
    let results: Vec<(&Cell, &CellResult)> = cells
        .iter()
        .zip(&passes.first)
        .filter_map(|(c, r)| r.as_ref().map(|r| (c, r)))
        .collect();
    let ((), ideal_ns) = tr.timed("probe.ideal_net", |_| {
        for (c, _) in &results {
            std::hint::black_box(probe::replay_ideal(&c.cfg));
        }
    });
    let (sched_ops, sched_ns) = tr.timed("probe.sim", |_| {
        results
            .iter()
            .filter_map(|(_, r)| r.stats.map(|s| (s, r.report.sim_end_ns)))
            .map(|(s, end_ns)| {
                probe::replay_scheduler(
                    s.events_scheduled,
                    s.peak_pending_events,
                    (end_ns * 1e3) as u64,
                    seed,
                )
                .ops
            })
            .sum::<u64>()
    });
    let ((), metrics_ns) = tr.timed("probe.metrics", |_| {
        for (_, r) in &results {
            probe::replay_metrics(&r.report, seed);
        }
    });

    let sum = |f: fn(&LatencyReport) -> u64| results.iter().map(|(_, r)| f(&r.report)).sum::<u64>();
    // The scheduler and state counters only Baldur cells report.
    let baldur = || {
        results
            .iter()
            .filter_map(|(_, r)| r.stats.as_ref().map(|s| (&r.report, s)))
    };
    let baldur_sum = |f: fn(&LatencyReport, &StateStats) -> u64| {
        baldur().map(|(r, s)| f(r, s)).sum::<u64>() as f64
    };
    let baldur_max = |f: fn(&LatencyReport, &StateStats) -> u64| {
        baldur().map(|(r, s)| f(r, s)).max().unwrap_or(0) as f64
    };
    let events = sum(|r| r.events);
    let generated = sum(|r| r.generated);
    let sim_s = sim_cell_ns.iter().sum::<u64>() as f64 / 1e9;
    let layer_ns = |layer: &str| -> f64 {
        cells
            .iter()
            .enumerate()
            .filter(|(_, c)| model_layer(c) == layer)
            .map(|(i, _)| loop_ns(i))
            .fold(0.0, |a, b| a + b)
    };
    let net_loop_s = |net: &str| -> f64 {
        cells
            .iter()
            .enumerate()
            .filter(|(_, c)| c.network() == net)
            .map(|(i, _)| loop_ns(i))
            .fold(0.0, |a, b| a + b)
            / 1e9
    };
    let layer_events = |layer: &str| -> f64 {
        results
            .iter()
            .filter(|(c, _)| model_layer(c) == layer)
            .map(|(_, r)| r.report.events)
            .sum::<u64>() as f64
    };
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };

    let (setup_map, pass_map) = (tr.self_ns_under(setup_root), tr.self_ns_under(pass_root));
    let setup_self = |name: &str| setup_map.get(name).copied().unwrap_or(0) as f64 / 1e9;
    let pass_self = |name: &str| pass_map.get(name).copied().unwrap_or(0) as f64 / 1e9;

    vec![
        ("driver.build_s", setup_self("driver")),
        ("driver.packets", generated as f64),
        ("ideal_net.replay_s", ideal_ns as f64 / 1e9),
        ("sim.events", events as f64),
        (
            "sim.events_scheduled",
            baldur_sum(|_, s| s.events_scheduled),
        ),
        ("sim.peak_pending", baldur_max(|_, s| s.peak_pending_events)),
        (
            "sim.calendar_backed",
            baldur_sum(|_, s| u64::from(s.calendar_backed)),
        ),
        (
            "sim.events_per_packet",
            ratio(events as f64, generated as f64),
        ),
        ("sim.events_per_s", ratio(events as f64, sim_s)),
        (
            "sim.replay_ns_per_op",
            ratio(sched_ns as f64, sched_ops as f64),
        ),
        ("baldur_net.construct_s", setup_self("baldur_net.construct")),
        ("baldur_net.loop_s", layer_ns("baldur_net") / 1e9),
        (
            "baldur_net.ns_per_event",
            ratio(layer_ns("baldur_net"), layer_events("baldur_net")),
        ),
        ("baldur_net.state_bytes", baldur_max(|_, s| s.state_bytes)),
        (
            "baldur_net.arena_high_water",
            baldur_max(|_, s| s.ack_batches.high_water.max(s.pending_batches.high_water)),
        ),
        (
            "baldur_net.injections_per_delivery",
            ratio(
                baldur_sum(|r, _| r.injections),
                baldur_sum(|r, _| r.delivered),
            ),
        ),
        (
            "baldur_net.retransmissions",
            baldur_sum(|r, _| r.retransmissions),
        ),
        (
            "baldur_net.hop_drop_rate",
            ratio(
                baldur_sum(|r, _| r.drop_attempts),
                baldur_sum(|r, _| r.forward_attempts),
            ),
        ),
        ("router_net.construct_s", setup_self("router_net.construct")),
        (
            "router_net.loop_s.electrical_mb",
            net_loop_s("electrical_mb"),
        ),
        ("router_net.loop_s.dragonfly", net_loop_s("dragonfly")),
        ("router_net.loop_s.fattree", net_loop_s("fattree")),
        (
            "router_net.ns_per_event",
            ratio(layer_ns("router_net"), layer_events("router_net")),
        ),
        ("metrics.replay_s", metrics_ns as f64 / 1e9),
        ("oracle.violations", sum(|r| r.oracle.total()) as f64),
        ("self_s.topo", setup_self("topo")),
        (
            "self_s.baldur_net",
            setup_self("baldur_net.construct") + pass_self("simulate.baldur_net"),
        ),
        (
            "self_s.router_net",
            setup_self("router_net.construct") + pass_self("simulate.router_net"),
        ),
        ("self_s.ideal_net", pass_self("simulate.ideal_net")),
        (
            "self_s.harness",
            setup_self("setup") + setup_self("set_up") + pass_self("pass"),
        ),
        ("trace.wall_s", sim_s),
        ("trace.overhead_s", sim_s - untraced_wall_s),
        ("trace.spans", tr.spans().len() as f64),
        ("host.ref_s", ref_s),
    ]
}

/// The network-model layer a cell's simulate call runs in.
fn model_layer(cell: &Cell) -> &'static str {
    match cell.network() {
        "baldur" => "baldur_net",
        "ideal" => "ideal_net",
        _ => "router_net",
    }
}

/// Writes the spans once, at the end of a traced run.
fn write_trace(kind: Kind, seed: u64, tr: &Tracer) {
    let path = Path::new(TRACE_DIR).join(format!("trace-{}-{seed}.json", kind.name()));
    let written =
        std::fs::create_dir_all(TRACE_DIR).and_then(|()| std::fs::write(&path, tr.to_json()));
    match written {
        Ok(()) => eprintln!("spans written to {}", path.display()),
        Err(e) => eprintln!("spans not written to {}: {e}", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packets_per_s_excludes_setup() {
        assert_eq!(packets_per_s(1_000, 3.0, 1.0), 500.0);
        let m = end_to_end(3.0, 1.0, 1_000, 1 << 20);
        let pps = m
            .iter()
            .find(|(n, _)| *n == "packets_per_s")
            .map(|(_, v)| *v);
        assert_eq!(pps, Some(500.0));
    }

    #[test]
    fn normalised_times_are_median_ratios_in_nominal_seconds() {
        let s = normalised_s(&[2, 9, 6], &[1, 3, 1]);
        assert_eq!(s, 3.0 * host::NOMINAL_S);
    }

    #[test]
    fn every_printed_metric_is_in_benchmark_json() {
        let cat = Catalogue::load();
        let printed: Vec<&str> = end_to_end(2.0, 1.0, 10, 1)
            .iter()
            .map(|(n, _)| *n)
            .collect();
        let e2e: Vec<&str> = cat.end_to_end.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(printed, e2e, "end-to-end metrics, in order");

        // A tiny traced pass over the smallest real cells exercises the
        // same per-layer code the benchmark runs.
        let mut cells = Kind::PaperLineup.cells(1);
        for cell in &mut cells {
            cell.cfg.nodes = 64;
            cell.cfg.workload = baldur::Workload::Synthetic {
                pattern: baldur::net::traffic::Pattern::RandomPermutation,
                load: 0.5,
                packets_per_node: 2,
            };
        }
        cells.truncate(10);
        let passes = timed_passes_unchecked(&cells);
        let mut tr = Tracer::on();
        let mut printed: Vec<&str> = vec!["topo.build_s", "topo.rss_bytes"];
        printed.extend(
            per_layer(&cells, &passes, &mut tr, 1, 0.1, 0.1)
                .iter()
                .map(|(n, _)| *n),
        );
        let layer: Vec<&str> = cat.per_layer.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(printed, layer, "per-layer metrics, in order");
    }

    /// One pass with results kept and no digest gate.
    fn timed_passes_unchecked(cells: &[Cell]) -> Passes {
        let first = cells
            .iter()
            .map(|c| {
                let (report, stats) = workload::simulate(&c.cfg);
                let digest = workload::digest(&report);
                Some(CellResult {
                    report,
                    stats,
                    digest,
                })
            })
            .collect();
        Passes {
            wall_ns: vec![1],
            wall_ref_ns: vec![1],
            setup_ns: vec![1],
            setup_ref_ns: vec![1],
            first,
            peak_rss: 1,
            attempted: cells.len() as u64,
            failed: 0,
        }
    }
}
