//! The wall-clock side of the perf subsystem.
//!
//! This module is the **only** place in the repository allowed to read
//! `std::time::Instant` (the repo-wide determinism lint enforces it).
//! The measurement engine itself lives in `baldur::experiments::perf`,
//! clock-free; this module supplies the monotonic nanosecond source via
//! [`baldur::experiments::install_wall_clock`], validates the
//! `BALDUR_BENCH_SAMPLES` override (a malformed or zero value is a
//! usage error, exit 2 — not a silent clamp), and reads peak RSS from
//! procfs. `baldur perf` and the `perfbench` harness are its callers.

use std::sync::OnceLock;
use std::time::Instant;

use baldur::experiments::MIN_SAMPLES;

/// Default timed samples per benchmark when `BALDUR_BENCH_SAMPLES` is
/// unset.
pub const DEFAULT_SAMPLES: usize = 10;

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Monotonic nanoseconds since the first call (the process epoch).
///
/// This is the function pointer handed to the clock-free measurement
/// engine; only deltas are ever meaningful.
pub fn monotonic_ns() -> u64 {
    let epoch = EPOCH.get_or_init(Instant::now);
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Peak resident-set size of this process in bytes: the `VmHWM` line of
/// `/proc/self/status`, kilobytes scaled up. Zero when the file is
/// missing or malformed (non-Linux, stripped procfs) — memory reporting
/// is advisory, exactly like the wall clock.
///
/// Lives here with the other OS reads: the clock-free core calls this
/// through the probe installed by [`install_for_registry`].
pub fn peak_rss_bytes_os() -> u64 {
    parse_vm_hwm(&std::fs::read_to_string("/proc/self/status").unwrap_or_default())
}

/// Extracts `VmHWM:  <n> kB` from a `/proc/self/status` body, in bytes.
pub fn parse_vm_hwm(status: &str) -> u64 {
    for line in status.lines() {
        let Some(rest) = line.strip_prefix("VmHWM:") else {
            continue;
        };
        let kb: u64 = rest
            .trim()
            .trim_end_matches("kB")
            .trim()
            .parse()
            .unwrap_or(0);
        return kb.saturating_mul(1024);
    }
    0
}

/// Parses a sample-count override (`BALDUR_BENCH_SAMPLES` or an
/// explicit harness value).
///
/// - `None` → [`DEFAULT_SAMPLES`];
/// - non-numeric → `Err` (usage error at the caller);
/// - `0` → `Err` — zero samples would measure nothing, and the old
///   harness silently clamping it to 3 hid exactly the misconfiguration
///   the variable exists to express;
/// - `1`/`2` → clamped up to [`MIN_SAMPLES`] (documented: a median of
///   fewer than three samples is noise, but the intent is clear).
pub fn parse_samples(raw: Option<&str>) -> Result<usize, String> {
    let Some(raw) = raw else {
        return Ok(DEFAULT_SAMPLES);
    };
    let raw = raw.trim();
    let n: usize = raw
        .parse()
        .map_err(|_| format!("BALDUR_BENCH_SAMPLES: `{raw}` is not an unsigned integer"))?;
    if n == 0 {
        return Err(
            "BALDUR_BENCH_SAMPLES: 0 would measure nothing (use >= 1; values below 3 clamp to 3)"
                .to_string(),
        );
    }
    Ok(n.max(MIN_SAMPLES))
}

/// Reads and validates `BALDUR_BENCH_SAMPLES` from the environment.
/// `Ok(None)` when unset, `Ok(Some(n))` when valid, `Err` when set but
/// malformed or zero.
pub fn samples_from_env() -> Result<Option<usize>, String> {
    match std::env::var("BALDUR_BENCH_SAMPLES") {
        Ok(v) => parse_samples(Some(&v)).map(Some),
        Err(_) => Ok(None),
    }
}

/// Arms the clock-free measurement engine for a `baldur` run:
/// installs [`monotonic_ns`] as the wall-clock source and forwards a
/// validated `BALDUR_BENCH_SAMPLES` override. A malformed override is a
/// usage error (exit 2) — before any work runs.
pub fn install_for_registry() {
    baldur::experiments::install_wall_clock(monotonic_ns);
    baldur::experiments::install_memory_probe(peak_rss_bytes_os);
    match samples_from_env() {
        Ok(Some(n)) => baldur::experiments::override_samples(n),
        Ok(None) => {}
        Err(msg) => crate::cli::usage_error(&msg),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotonic_ns_is_nondecreasing() {
        let a = monotonic_ns();
        let b = monotonic_ns();
        assert!(b >= a);
    }

    #[test]
    fn parse_vm_hwm_reads_kilobytes() {
        let status = "Name:\tperf\nVmPeak:\t  999 kB\nVmHWM:\t  123456 kB\nThreads:\t8\n";
        assert_eq!(parse_vm_hwm(status), 123_456 * 1024);
        assert_eq!(parse_vm_hwm("Name:\tperf\n"), 0);
        assert_eq!(parse_vm_hwm("VmHWM:\tgarbage kB\n"), 0);
    }

    #[test]
    fn peak_rss_probe_is_positive_on_linux() {
        // The test process has touched memory; /proc is present on the
        // CI image. Elsewhere the probe degrades to zero by contract.
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peak_rss_bytes_os() > 0);
        }
    }

    #[test]
    fn parse_samples_default_when_unset() {
        assert_eq!(parse_samples(None), Ok(DEFAULT_SAMPLES));
    }

    #[test]
    fn parse_samples_rejects_zero() {
        let err = parse_samples(Some("0")).unwrap_err();
        assert!(err.contains("measure nothing"), "{err}");
    }

    #[test]
    fn parse_samples_rejects_garbage() {
        assert!(parse_samples(Some("many")).is_err());
        assert!(parse_samples(Some("-3")).is_err());
        assert!(parse_samples(Some("")).is_err());
    }

    #[test]
    fn parse_samples_clamps_tiny_counts_up() {
        assert_eq!(parse_samples(Some("1")), Ok(MIN_SAMPLES));
        assert_eq!(parse_samples(Some("2")), Ok(MIN_SAMPLES));
        assert_eq!(parse_samples(Some("3")), Ok(3));
        assert_eq!(parse_samples(Some(" 25 ")), Ok(25));
    }
}
