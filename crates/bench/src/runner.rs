//! The experiment dispatcher behind the `baldur` binary (call forms in
//! the crate docs): resolve the experiment name (`all` selects every
//! spec), reject any flag the selection does not declare, plan one job
//! per spec (axis sugar, then every `--set` in order, flags, mode,
//! output paths), build the supervised sweep, run each hook, and emit
//! console output, files, and the epilogue.
//!
//! Parameter errors exit 2 (usage); job failures exit 1 via the shared
//! epilogue. This module contains no `process::exit` and no
//! `unwrap`/`expect` — termination is delegated to `cli`, which carries
//! the lint allowances.

use std::fs;
use std::path::{Path, PathBuf};

use baldur::error::BaldurError;
use baldur::experiments::EvalConfig;
use baldur::registry::{self, ExperimentSpec, Params, RunHook};

use crate::cli::{die, finish, usage_error, Args, COMMON_FLAGS};

/// What the experiment name selected.
#[derive(Clone, Copy)]
enum Target {
    /// One registered experiment.
    One(&'static ExperimentSpec),
    /// `all`: every registered experiment, into a results directory.
    All,
}

/// Resolves an experiment name; an unknown name is an error that lists
/// every registered name.
fn resolve(name: &str) -> Result<Target, String> {
    if name == "all" {
        return Ok(Target::All);
    }
    registry::get(name).map(Target::One).ok_or_else(|| {
        let names: Vec<&str> = registry::all().iter().map(|s| s.name).collect();
        format!(
            "unknown experiment `{name}`; expected `all` or one of: {}",
            names.join(", ")
        )
    })
}

/// How `target` takes `--key`: `Some(true)` with a value, `Some(false)`
/// as a switch, `None` when neither the common flags, the spec's axes,
/// flags and modes, nor (for `all`) `--out` declare it.
fn takes_value(key: &str, target: Option<Target>) -> Option<bool> {
    if let Some((_, value, _)) = COMMON_FLAGS.iter().find(|f| f.0 == key) {
        return Some(!value.is_empty());
    }
    match target? {
        Target::All => (key == "out").then_some(true),
        Target::One(spec) if spec.axes.iter().any(|a| a.name == key) => Some(true),
        Target::One(spec) => (spec.flags.iter().any(|f| f.name == key)
            || spec.modes.iter().any(|m| m.flag == key))
        .then_some(false),
    }
}

/// Rejects an undeclared flag, a switch given a value, and an option
/// missing its value.
fn check_flags(args: &Args, target: Option<Target>) -> Result<(), String> {
    for (key, value) in args.opts() {
        match (takes_value(key, target), value) {
            (None, _) => {
                let hint = match target {
                    Some(Target::One(spec)) => {
                        format!(" for `{0}` (see `baldur {0} --describe`)", spec.name)
                    }
                    _ => String::new(),
                };
                return Err(format!("unknown flag `--{key}`{hint}"));
            }
            (Some(true), None) => return Err(format!("--{key} needs a value")),
            (Some(false), Some(v)) => return Err(format!("--{key} takes no value (got `{v}`)")),
            _ => {}
        }
    }
    Ok(())
}

/// Writes `contents` to `path`, creating parent directories as needed,
/// and reports the write on stderr (stdout stays clean and diffable).
fn write_file(path: &Path, contents: &str) {
    if let Some(parent) = path.parent() {
        fs::create_dir_all(parent).unwrap_or_else(|e| panic!("create {}: {e}", parent.display()));
    }
    fs::write(path, contents).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    eprintln!("wrote {}", path.display());
}

/// Applies `--<axis> VALUES` sugar, then every `--set axis=VALUES` in
/// command-line order (so `--set` wins over the sugar, and a later
/// `--set` over an earlier one), then the enabled flags.
fn apply_overrides(
    args: &Args,
    spec: &ExperimentSpec,
    params: &mut Params,
) -> Result<(), BaldurError> {
    for axis in spec.axes {
        if let Some(value) = args.get(axis.name) {
            params.set(spec, axis.name, value)?;
        }
    }
    let sets = args.opts().filter(|(key, _)| *key == "set");
    for raw in sets.filter_map(|(_, value)| value) {
        let Some((axis, value)) = raw.split_once('=') else {
            return Err(BaldurError::InvalidParam {
                param: "set".to_string(),
                message: format!("`{raw}` is not of the form axis=VALUES"),
            });
        };
        params.set(spec, axis.trim(), value)?;
    }
    for flag in spec.flags.iter().filter(|f| args.flag(f.name)) {
        params.enable(spec, flag.name)?;
    }
    Ok(())
}

/// One spec's run, resolved before the sweep starts so that every usage
/// error surfaces before the first simulation.
struct Job {
    spec: &'static ExperimentSpec,
    params: Params,
    hook: RunHook,
    csv: Option<PathBuf>,
    json: Option<PathBuf>,
}

/// Plans the jobs. One spec runs the first [`Mode`](registry::Mode)
/// whose flag was passed, else its default hook, whose default CSV/JSON
/// paths apply when `--csv`/`--json` are absent. `all` (`out` is its
/// directory) runs every spec's default hook with the spec's declared
/// `all_figures` overrides and writes `<out>/<name>.{csv,json}`.
///
/// # Panics
///
/// Panics when a spec's registry-authored `all_figures` overrides do
/// not validate (a wiring bug, caught by the registry completeness
/// test).
fn plan(args: &Args, target: Target, cfg: EvalConfig, out: &Path) -> Result<Vec<Job>, BaldurError> {
    let Target::One(spec) = target else {
        let all = registry::all().iter().map(|&spec| {
            let mut params = Params::for_spec(spec, cfg);
            for (axis, value) in (spec.all_figures)(&cfg) {
                if let Err(e) = params.set(spec, axis, &value) {
                    panic!("spec `{}` all_figures overrides: {e}", spec.name);
                }
            }
            Job {
                spec,
                params,
                hook: spec.run,
                csv: Some(out.join(format!("{}.csv", spec.name))),
                json: Some(out.join(format!("{}.json", spec.name))),
            }
        });
        return Ok(all.collect());
    };
    let mut params = Params::for_spec(spec, cfg);
    apply_overrides(args, spec, &mut params)?;
    let mode = spec.modes.iter().find(|m| args.flag(m.flag));
    let path = |flag: &str, default: Option<&str>| {
        let default = default.filter(|_| mode.is_none());
        args.get(flag).or(default).map(PathBuf::from)
    };
    Ok(vec![Job {
        spec,
        params,
        hook: mode.map_or(spec.run, |m| m.run),
        csv: path("csv", spec.csv_default),
        json: path("json", spec.json_default),
    }])
}

/// The entire body of the `baldur` binary.
///
/// A single experiment prints its console tables and writes its files
/// where they name; `all` discards the console tables (its product is
/// the results directory) and writes everything, gnuplot scripts
/// included, under `--out`.
///
/// # Panics
///
/// Panics when an output file cannot be written.
pub fn main() {
    crate::perf::install_for_registry();
    let args = Args::parse();
    let target = args
        .name()
        .map(|name| resolve(name).unwrap_or_else(|e| usage_error(&e)));
    check_flags(&args, target).unwrap_or_else(|e| usage_error(&e));
    if args.flag("list") {
        print!("{}", registry::list_table());
        return;
    }
    let Some(target) = target else {
        usage_error("no experiment named (`baldur --list` shows them)");
    };
    if args.flag("describe") {
        let Target::One(spec) = target else {
            usage_error("--describe needs one experiment, not `all`");
        };
        let doc = serde_json::to_string_pretty(&registry::describe(spec))
            .unwrap_or_else(|e| panic!("serialize descriptor: {e:?}"));
        println!("{doc}");
        return;
    }
    let all = matches!(target, Target::All);
    let cfg = args.eval_config();
    // Only `all` accepts `--out`; one experiment writes relative to here.
    let out = Path::new(args.get("out").unwrap_or(if all { "results" } else { "" }));
    let jobs = plan(&args, target, cfg, out).unwrap_or_else(|e| usage_error(&e.to_string()));
    let sw = args.sweep(&cfg);
    if all {
        eprintln!(
            "running the full figure set at {} nodes ({} worker threads)...",
            cfg.nodes,
            sw.threads()
        );
    }
    for job in &jobs {
        // A parameter error exits 2 (usage); any other failure exits 1.
        let result = match (job.hook)(&sw, &job.params) {
            Ok(result) => result,
            Err(e @ BaldurError::InvalidParam { .. }) => usage_error(&e.to_string()),
            Err(e) => die(&sw, &e),
        };
        if !all {
            print!("{}", result.console);
        }
        if let (Some(path), Some(csv)) = (&job.csv, &result.csv) {
            write_file(path, csv);
        }
        if let (Some(path), Some(json)) = (&job.json, &result.json) {
            write_file(path, json);
        }
        for (path, contents) in &result.files {
            write_file(&out.join(path), contents);
        }
        if let (true, Some((name, script))) = (all, job.spec.gnuplot) {
            write_file(&out.join(name), script);
        }
    }
    finish(&sw);
    if all {
        eprintln!("done: {}", out.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(line: &str) -> Args {
        Args::from_argv(line.split_whitespace().map(String::from)).expect("well-formed argv")
    }

    fn check(line: &str) -> Result<(), String> {
        let args = argv(line);
        check_flags(&args, args.name().and_then(|n| resolve(n).ok()))
    }

    fn plan_one(line: &str) -> Result<Vec<Job>, BaldurError> {
        let args = argv(line);
        let target = resolve(args.name().expect("named")).expect("registered");
        plan(&args, target, EvalConfig::tiny(), Path::new("o"))
    }

    #[test]
    fn dispatcher_resolves_every_registered_name_and_all() {
        for spec in registry::all() {
            assert_ne!(spec.name, "all", "`all` is reserved for the full run");
            let Ok(Target::One(found)) = resolve(spec.name) else {
                panic!("`{}` does not resolve", spec.name);
            };
            assert_eq!(found.name, spec.name);
        }
        assert!(matches!(resolve("all"), Ok(Target::All)));
        let Err(err) = resolve("fig5_waveform") else {
            panic!("an unregistered name must be rejected");
        };
        let listed = registry::all().iter().all(|s| err.contains(s.name));
        assert!(listed, "{err}");
    }

    #[test]
    fn unknown_and_misshapen_flags_are_rejected() {
        let err = check("tables34 --nodse 64 --smok").unwrap_err();
        assert!(
            err.contains("unknown flag `--nodse` for `tables34`"),
            "{err}"
        );
        for ok in [
            "faults --nodes 64 --smoke --fractions 0,0.1",
            "droptool --big",
            "all --out x",
        ] {
            assert!(check(ok).is_ok(), "{ok}");
        }
        for bad in [
            "tables34 --smoke",
            "fig6 --out x",
            "all --loads 0.5",
            "--list --smoke",
        ] {
            assert!(check(bad).is_err(), "{bad}");
        }
        assert!(check("faults --smoke 1")
            .unwrap_err()
            .contains("takes no value"));
        assert!(check("fig6 --nodes").unwrap_err().contains("needs a value"));
    }

    #[test]
    fn every_set_is_applied_in_order() {
        let jobs = plan_one("reliability --samples 5 --set samples=1000 --set seed=3 --set seed=4");
        let params = &jobs.expect("valid")[0].params;
        assert_eq!(params.u64("samples").ok(), Some(1000));
        assert_eq!(params.u64("seed").ok(), Some(4));
        let err = plan_one("reliability --set seed").err().expect("malformed");
        assert!(
            err.to_string().contains("not of the form axis=VALUES"),
            "{err}"
        );
    }

    #[test]
    fn modes_and_all_choose_their_output_paths() {
        let default = &plan_one("faults").expect("valid")[0];
        assert_eq!(
            default.csv.as_deref(),
            default.spec.csv_default.map(Path::new)
        );
        assert_eq!(plan_one("faults --smoke").expect("valid")[0].csv, None);
        let all = plan_one("all").expect("valid");
        assert_eq!(all[0].csv, Some(PathBuf::from("o/table5.csv")));
    }
}
