//! Shared CLI surface for the bench harness: flag parsing, the usage
//! text, the supervision-policy and sweep builders, and the process
//! epilogue/exit helpers. Everything that may terminate the process
//! lives here (see `allowlist.txt`); `runner.rs` stays exit-free.

use std::time::Duration;

use baldur::experiments::EvalConfig;
use baldur::supervise::Policy;
use baldur::sweep::{Sweep, DEFAULT_CACHE_DIR};

/// The flags every invocation accepts, as `(name, value placeholder,
/// help)`; an empty placeholder marks a boolean switch. The usage text
/// renders this table and the dispatcher validates against it.
#[rustfmt::skip]
pub const COMMON_FLAGS: &[(&str, &str, &str)] = &[
    ("nodes", "N", "active server nodes"),
    ("packets", "N", "packets per node (open-loop runs)"),
    ("rounds", "N", "ping-pong rounds"),
    ("seed", "N", "master seed"),
    ("threads", "N", "worker threads (0 = all cores)"),
    ("json", "PATH", "also write structured results as JSON"),
    ("cache-dir", "DIR", "run-cache directory (default results/cache)"),
    ("no-cache", "", "recompute every run"),
    ("resume", "", "replay journal-confirmed jobs after a crash"),
    ("job-timeout", "SECS", "per-attempt watchdog deadline (default off)"),
    ("timeout-retries", "N", "extra attempts for a timed-out job (default 2)"),
    ("fail-budget", "N", "tolerated failures before aborting the sweep"),
    ("paper", "", "full paper scale (slow)"),
    ("csv", "PATH", "also write the experiment's CSV table"),
    ("set", "axis=VALUES", "override a declared experiment axis (repeatable)"),
    ("list", "", "list every registered experiment and exit"),
    ("describe", "", "print this experiment's JSON descriptor and exit"),
];

/// Reports a usage error, the invocation forms and the common flags on
/// stderr, and exits with code 2 (the conventional bad-invocation code,
/// distinct from exit 1 = sweep aborted).
pub fn usage_error(msg: &str) -> ! {
    eprintln!(
        "error: {msg}\n\n\
         usage: baldur <experiment> [flags]    run one registered experiment\n       \
         baldur all [--out DIR] [flags] run every experiment into DIR (default results)\n       \
         baldur --list                  list the registered experiments\n\n\
         common flags:"
    );
    for (name, value, help) in COMMON_FLAGS {
        eprintln!("{:<21}{help}", format!("--{name} {value}"));
    }
    std::process::exit(2);
}

/// The parsed command line: the experiment name (the one positional
/// argument, which comes first) and every `--key [value]` option in
/// command-line order.
#[derive(Debug, Clone, Default)]
pub struct Args {
    name: Option<String>,
    opts: Vec<(String, Option<String>)>,
}

impl Args {
    /// Parses the process arguments; a malformed command line is a
    /// usage error (exit 2), not a panic.
    pub fn parse() -> Self {
        Self::from_argv(std::env::args().skip(1)).unwrap_or_else(|e| usage_error(&e))
    }

    /// Parses `argv` (without the program name). A `--key` followed by
    /// a token that does not start with `--` takes it as its value;
    /// otherwise it is a boolean switch. Only `--set` may repeat.
    pub fn from_argv(argv: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut argv = argv.into_iter().peekable();
        let mut args = Args {
            name: argv.next_if(|a| !a.starts_with("--")),
            opts: Vec::new(),
        };
        while let Some(arg) = argv.next() {
            let Some(key) = arg.strip_prefix("--") else {
                return Err(format!(
                    "unexpected argument `{arg}` (the experiment name comes first)"
                ));
            };
            if key != "set" && args.opts.iter().any(|(k, _)| k == key) {
                return Err(format!("--{key} given more than once"));
            }
            let value = argv.next_if(|v| !v.starts_with("--"));
            args.opts.push((key.to_string(), value));
        }
        Ok(args)
    }

    /// The experiment name, if one was given.
    pub fn name(&self) -> Option<&str> {
        self.name.as_deref()
    }

    /// Every `--key [value]` option, in command-line order.
    pub fn opts(&self) -> impl Iterator<Item = (&str, Option<&str>)> {
        self.opts.iter().map(|(k, v)| (k.as_str(), v.as_deref()))
    }

    /// True if `--name` was passed.
    pub fn flag(&self, name: &str) -> bool {
        self.opts().any(|(k, _)| k == name)
    }

    /// String value of `--name`.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.opts().find(|(k, _)| *k == name).and_then(|(_, v)| v)
    }

    /// Parsed value of `--name`, if given. A value that does not parse
    /// is a usage error (exit 2), not a panic.
    pub fn parsed<T: std::str::FromStr>(&self, name: &str) -> Option<T>
    where
        T::Err: std::fmt::Display,
    {
        let v = self.get(name)?;
        let parsed = v.parse();
        Some(parsed.unwrap_or_else(|e| usage_error(&format!("--{name}: `{v}` did not parse: {e}"))))
    }

    /// Builds an [`EvalConfig`] from the common flags.
    pub fn eval_config(&self) -> EvalConfig {
        let base = if self.flag("paper") {
            EvalConfig::paper()
        } else {
            EvalConfig::quick()
        };
        EvalConfig {
            nodes: self.parsed("nodes").unwrap_or(base.nodes),
            packets_per_node: self.parsed("packets").unwrap_or(base.packets_per_node),
            pingpong_rounds: self.parsed("rounds").unwrap_or(base.pingpong_rounds),
            seed: self.parsed("seed").unwrap_or(base.seed),
            threads: self.parsed("threads").unwrap_or(base.threads),
        }
    }

    /// Builds the supervision [`Policy`] from `--job-timeout` (seconds),
    /// `--timeout-retries`, and `--fail-budget`.
    pub fn policy(&self) -> Policy {
        let job_timeout = self.parsed::<f64>("job-timeout").map(|secs| {
            if !(secs > 0.0 && secs.is_finite()) {
                usage_error(&format!(
                    "--job-timeout: `{secs}` must be a positive deadline"
                ));
            }
            Duration::from_secs_f64(secs)
        });
        let retries = self.parsed("timeout-retries");
        Policy {
            job_timeout,
            timeout_retries: retries.unwrap_or(Policy::default().timeout_retries),
            fail_budget: self.parsed("fail-budget"),
        }
    }

    /// Builds the [`Sweep`] runner for this invocation: cached into
    /// `--cache-dir` (default [`DEFAULT_CACHE_DIR`]) unless `--no-cache`
    /// was passed; worker count follows `--threads` / `BALDUR_THREADS`;
    /// supervision follows `--job-timeout` / `--timeout-retries` /
    /// `--fail-budget`; `--resume` replays the completion journal.
    pub fn sweep(&self, cfg: &EvalConfig) -> Sweep {
        let sw = Sweep::new(cfg.threads)
            .with_policy(self.policy())
            .with_resume(self.flag("resume"));
        if self.flag("no-cache") {
            sw
        } else {
            sw.with_cache_dir(self.get("cache-dir").unwrap_or(DEFAULT_CACHE_DIR))
        }
    }
}

/// Prints the per-sweep wall-clock and cache-hit counters, then the
/// per-job failure status table (if any job failed), to stderr — so
/// result tables on stdout stay clean and diffable.
fn report(sw: &Sweep) {
    eprint!("\n{}", sw.summary());
    if let Some(table) = sw.status_table() {
        eprint!("\n{table}");
    }
}

/// The standard harness epilogue: the sweep report, then — exactly when
/// a failure budget aborted a sweep — exit 1. Partial failures under an
/// unlimited budget report but exit 0: every completed row was already
/// rendered, and reruns replay them from the cache.
pub fn finish(sw: &Sweep) {
    report(sw);
    if sw.aborted() {
        std::process::exit(1);
    }
}

/// Renders a failed experiment run — the error, then the sweep report,
/// whose status table names the job that sank it — and exits 1.
pub fn die(sw: &Sweep, err: &dyn std::fmt::Display) -> ! {
    eprintln!("error: {err}");
    report(sw);
    std::process::exit(1);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(line: &str) -> Result<Args, String> {
        Args::from_argv(line.split_whitespace().map(String::from))
    }

    #[test]
    fn default_policy_flags_are_permissive() {
        assert_eq!(Args::default().policy(), Policy::default());
    }

    #[test]
    fn name_comes_first_then_valued_and_boolean_options() {
        let args = argv("fig6 --nodes 64 --no-cache --loads 0.1,0.5").unwrap();
        let got = (args.name(), args.get("nodes"), args.get("loads"));
        assert_eq!(got, (Some("fig6"), Some("64"), Some("0.1,0.5")));
        assert!(args.flag("no-cache") && args.get("no-cache").is_none());
        assert_eq!(argv("--list").unwrap().name(), None);
        let err = argv("--nodes 64 fig6").unwrap_err();
        assert!(err.contains("unexpected argument `fig6`"), "{err}");
    }

    #[test]
    fn only_set_may_repeat() {
        assert!(argv("reliability --set samples=1000 --nodes 8 --set seed=3").is_ok());
        let err = argv("fig6 --nodes 64 --nodes 128").unwrap_err();
        assert!(err.contains("--nodes given more than once"), "{err}");
        assert!(argv("faults --smoke --smoke").is_err());
    }
}
