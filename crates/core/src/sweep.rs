//! Sweep orchestration: deterministic parallel fan-out, a
//! content-addressed run cache, and a crash-safe completion journal.
//!
//! Every experiment in [`crate::experiments`] is a sweep — a list of fully
//! self-describing jobs (each item serializes to JSON and determines its
//! result completely) mapped through a pure function. That structure buys
//! three things at once:
//!
//! * **Parallelism without divergence.** Jobs fan out over
//!   [`crate::supervise::run_jobs`] (and, below it,
//!   `baldur_sim::par::par_map_isolated`), which returns results in
//!   submission order, so rendered CSV/JSON is byte-identical at any
//!   thread count (`BALDUR_THREADS=1` and `=8` produce the same bytes; a
//!   tier-1 test asserts it).
//! * **Content-addressed caching.** Each job's cache key is the SHA-256 of
//!   `label | schema | crate version | exact-JSON(item)`. A hit replays
//!   the stored result instead of simulating; because results are stored
//!   with [`serde_json::to_string_exact`] (non-finite floats round-trip)
//!   and floats render shortest-round-trip, a replayed result is
//!   bit-identical to a fresh one. Corrupt or unreadable entries are
//!   recomputed, overwritten, counted in [`SweepStats::corrupt`], and
//!   warned about on stderr.
//! * **Crash safety.** Each completed job's cache entry is persisted *as
//!   the job finishes* (temp file + rename), then recorded in an fsync'd
//!   JSONL journal (`journal.jsonl` in the cache directory). A `kill -9`
//!   mid-sweep loses at most the in-flight jobs: a rerun with
//!   [`Sweep::with_resume`] replays everything the journal confirms
//!   (counted in [`SweepStats::resumed`]) and re-executes only the rest.
//!   A torn final journal line — the signature of dying mid-append — is
//!   discarded on load, never fatal.
//!
//! Failure handling is supervised (see [`crate::supervise`]): panicking
//! jobs become [`JobError`] slots instead of tearing down the sweep,
//! watchdog deadlines quarantine hung jobs, and a failure budget aborts
//! the sweep cleanly once exceeded. [`Sweep::try_map`] exposes the full
//! per-slot picture; [`Sweep::map`] keeps the infallible-looking
//! signature the experiments use (failed jobs are dropped from its output
//! after being warned about, recorded in [`Sweep::failures`], and — when
//! a budget aborts — reflected in [`Sweep::aborted`]).
//!
//! The cache lives under `results/cache/` by default (one `<hex>.json`
//! per job) and is enabled by the `baldur` binary, not by unit tests: the
//! experiment wrappers in [`crate::experiments`] default to an uncached
//! [`Sweep`] so `cargo test` never touches the filesystem.

use std::collections::BTreeSet;
use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use serde::{Deserialize, Serialize};

use crate::error::JobError;
use crate::supervise::{self, Policy};

/// Workspace-wide cache-schema baseline, and the default per-experiment
/// cache version for [`Sweep::map`] / [`Sweep::try_map`].
///
/// Experiments registered in [`crate::registry`] carry their own
/// `version` (hashed into every job key via [`Sweep::map_versioned`]);
/// bumping a spec's version invalidates only that experiment's entries.
/// Bump *this* constant only when the meaning of cached payloads changes
/// globally (e.g. the journal format): every key changes, so stale
/// entries are never replayed.
pub const CACHE_SCHEMA: u32 = 1;

/// Default cache directory, relative to the working directory.
pub const DEFAULT_CACHE_DIR: &str = "results/cache";

/// Completion journal file name, inside the cache directory.
pub const JOURNAL_FILE: &str = "journal.jsonl";

/// Per-sweep accounting: one entry per [`Sweep::map`] / [`Sweep::try_map`]
/// call.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SweepStats {
    /// The sweep label (also part of every job's cache key).
    pub label: String,
    /// Jobs in the sweep.
    pub jobs: usize,
    /// Jobs answered from the cache.
    pub cache_hits: usize,
    /// Corrupt cache entries healed by recomputing.
    pub corrupt: usize,
    /// Cache hits confirmed complete by a prior run's journal (only
    /// nonzero on [`Sweep::with_resume`] runs).
    pub resumed: usize,
    /// Jobs that failed: panicked, timed out, or cancelled.
    pub failed: usize,
    /// Wall-clock time for the whole sweep, milliseconds.
    pub wall_ms: u64,
}

/// One failed job, kept for the end-of-run status table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepFailure {
    /// The sweep label the job belonged to.
    pub label: String,
    /// Submission index of the job within its sweep.
    pub index: usize,
    /// The structured failure.
    pub error: JobError,
}

/// One line of the completion journal.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct JournalRecord {
    /// The job's content-addressed cache key (hex SHA-256).
    pub key: String,
    /// The sweep label.
    pub label: String,
    /// `"done"` for completed jobs, else a [`JobError`] kind name
    /// (`"panicked"` / `"timed_out"` / `"skipped"`).
    pub status: String,
    /// Wall-clock milliseconds the job (including retries) took.
    pub wall_ms: u64,
}

/// A journal read back from disk, tolerant of a torn tail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalSnapshot {
    /// Every record that parsed, in append order.
    pub records: Vec<JournalRecord>,
    /// Lines that failed to parse — normally 0 or 1 (a half-written
    /// final line from a crash mid-append). Discarded, never fatal.
    pub torn_lines: usize,
}

/// Reads a completion journal. A missing file is an empty journal; an
/// unparseable line (torn tail from a crash mid-append, or outright
/// corruption) is skipped and counted, never fatal — at worst the job it
/// described is re-executed.
pub fn read_journal(path: &Path) -> JournalSnapshot {
    let mut snap = JournalSnapshot {
        records: Vec::new(),
        torn_lines: 0,
    };
    let Ok(text) = std::fs::read_to_string(path) else {
        return snap;
    };
    for line in text.lines() {
        if line.trim().is_empty() {
            continue;
        }
        match serde_json::from_str::<JournalRecord>(line) {
            Ok(rec) => snap.records.push(rec),
            Err(_) => snap.torn_lines += 1,
        }
    }
    snap
}

/// The live append side of the journal, opened lazily on first use.
#[derive(Debug)]
struct Journal {
    file: File,
    /// Keys the prior run's journal confirms as completed (empty unless
    /// resuming).
    prior_done: BTreeSet<String>,
}

impl Journal {
    /// Opens the journal inside `dir`. Resuming appends to the existing
    /// file (after harvesting its completed keys); a fresh run truncates
    /// it, so stale completions can never leak into a later resume.
    fn open(dir: &Path, resume: bool) -> Option<Journal> {
        std::fs::create_dir_all(dir).ok()?;
        let path = dir.join(JOURNAL_FILE);
        let mut prior_done = BTreeSet::new();
        let file = if resume {
            for rec in read_journal(&path).records {
                if rec.status == "done" {
                    prior_done.insert(rec.key);
                }
            }
            File::options().create(true).append(true).open(&path).ok()?
        } else {
            File::create(&path).ok()?
        };
        Some(Journal { file, prior_done })
    }

    /// Appends one record and syncs it to disk before returning, so a
    /// record the journal reports is durable even through `kill -9`.
    /// (Append + fsync per completed job; jobs are seconds-scale
    /// simulations, so the sync is noise.) I/O failures are swallowed:
    /// the journal is a resume accelerator, never a correctness
    /// dependency.
    fn append(&mut self, rec: &JournalRecord) {
        let Ok(line) = serde_json::to_string_exact(rec) else {
            return;
        };
        if self.file.write_all(line.as_bytes()).is_ok() && self.file.write_all(b"\n").is_ok() {
            let _ = self.file.sync_data();
        }
    }
}

/// Lazily-initialised journal cell: `opened` flips on first use so a
/// cache-less sweep never touches the filesystem.
#[derive(Debug, Default)]
struct JournalCell {
    opened: bool,
    journal: Option<Journal>,
}

/// A supervised parallel sweep runner with optional result caching and
/// crash-safe resume.
///
/// Construct once per harness invocation and thread through the
/// `*_on` experiment variants; [`Sweep::summary`] renders the collected
/// per-sweep wall-clock and cache counters, and [`Sweep::status_table`]
/// renders the failure report (if any).
#[derive(Debug)]
pub struct Sweep {
    threads: usize,
    cache_dir: Option<PathBuf>,
    policy: Policy,
    resume: bool,
    journal: Mutex<JournalCell>,
    stats: Mutex<Vec<SweepStats>>,
    failures: Mutex<Vec<SweepFailure>>,
    aborted: AtomicBool,
}

impl Sweep {
    /// An uncached sweep runner. `threads == 0` resolves through
    /// `BALDUR_THREADS`, then the machine's parallelism.
    pub fn new(threads: usize) -> Self {
        Sweep {
            threads: crate::sim::par::thread_count(threads),
            cache_dir: None,
            policy: Policy::default(),
            resume: false,
            journal: Mutex::new(JournalCell::default()),
            stats: Mutex::new(Vec::new()),
            failures: Mutex::new(Vec::new()),
            aborted: AtomicBool::new(false),
        }
    }

    /// A sweep runner caching into [`DEFAULT_CACHE_DIR`].
    pub fn cached(threads: usize) -> Self {
        Sweep::new(threads).with_cache_dir(DEFAULT_CACHE_DIR)
    }

    /// Redirects (and enables) the cache at `dir`.
    #[must_use]
    pub fn with_cache_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.cache_dir = Some(dir.into());
        self
    }

    /// Disables the cache (jobs always recompute; no journal either).
    #[must_use]
    pub fn without_cache(mut self) -> Self {
        self.cache_dir = None;
        self.journal = Mutex::new(JournalCell::default());
        self
    }

    /// Sets the supervision policy (watchdog deadline, timeout retries,
    /// failure budget).
    #[must_use]
    pub fn with_policy(mut self, policy: Policy) -> Self {
        self.policy = policy;
        self
    }

    /// Resume mode: harvest the prior run's journal instead of
    /// truncating it, and count journal-confirmed cache hits in
    /// [`SweepStats::resumed`]. Only meaningful with a cache directory.
    #[must_use]
    pub fn with_resume(mut self, resume: bool) -> Self {
        self.resume = resume;
        self
    }

    /// The resolved worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The active supervision policy.
    pub fn policy(&self) -> &Policy {
        &self.policy
    }

    /// Maps `f` over `items` in parallel, preserving order, replaying
    /// cached results where available. Failed jobs (panicked, timed out,
    /// or cancelled by the failure budget) are **dropped from the
    /// output** after a stderr warning — they remain visible via
    /// [`Sweep::failures`], [`Sweep::status_table`], and
    /// [`Sweep::aborted`]. Use [`Sweep::try_map`] to see every slot.
    ///
    /// Each item must be *self-describing*: its serialized form (plus
    /// `label`) is the cache key, so everything that influences `f`'s
    /// result must be part of the item — which is why the experiment
    /// sweeps carry their full `RunConfig` in the item tuples.
    pub fn map<T, R, F>(&self, label: &str, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Serialize + Send + Sync,
        R: Serialize + Deserialize + Send,
        F: Fn(&T) -> R + Sync,
    {
        self.map_versioned(label, CACHE_SCHEMA, items, f)
    }

    /// [`Sweep::map`] with an explicit per-experiment cache version.
    ///
    /// The version is hashed into every job's content address, so a spec
    /// that bumps its `version` (because its payload semantics changed)
    /// invalidates exactly its own entries while every other experiment's
    /// cache stays warm. `version == CACHE_SCHEMA` reproduces the keys
    /// [`Sweep::map`] has always written.
    pub fn map_versioned<T, R, F>(&self, label: &str, version: u32, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Serialize + Send + Sync,
        R: Serialize + Deserialize + Send,
        F: Fn(&T) -> R + Sync,
    {
        self.try_map_versioned(label, version, items, f)
            .into_iter()
            .filter_map(Result::ok)
            .collect()
    }

    /// The supervised primitive under [`Sweep::map`]: one
    /// submission-ordered `Result` per item, failures included.
    ///
    /// Completed jobs are persisted to the cache and journaled *as they
    /// finish* (not at the end of the sweep), which is what makes a
    /// `kill -9` mid-sweep resumable.
    pub fn try_map<T, R, F>(&self, label: &str, items: Vec<T>, f: F) -> Vec<Result<R, JobError>>
    where
        T: Serialize + Send + Sync,
        R: Serialize + Deserialize + Send,
        F: Fn(&T) -> R + Sync,
    {
        self.try_map_versioned(label, CACHE_SCHEMA, items, f)
    }

    /// [`Sweep::try_map`] with an explicit per-experiment cache version
    /// (see [`Sweep::map_versioned`] for the key-derivation contract).
    pub fn try_map_versioned<T, R, F>(
        &self,
        label: &str,
        version: u32,
        items: Vec<T>,
        f: F,
    ) -> Vec<Result<R, JobError>>
    where
        T: Serialize + Send + Sync,
        R: Serialize + Deserialize + Send,
        F: Fn(&T) -> R + Sync,
    {
        let start = Instant::now();
        let n = items.len();
        let hexes: Vec<Option<String>> = match self.cache_dir {
            Some(_) => items.iter().map(|it| key_hex(label, version, it)).collect(),
            None => vec![None; n],
        };
        let paths: Vec<Option<PathBuf>> = hexes
            .iter()
            .map(|hex| {
                let (dir, hex) = (self.cache_dir.as_ref()?, hex.as_ref()?);
                Some(dir.join(format!("{hex}.json")))
            })
            .collect();
        let prior_done = self.journal_prior_done();

        let mut results: Vec<Option<Result<R, JobError>>> = Vec::with_capacity(n);
        let mut miss_idx: Vec<usize> = Vec::new();
        let (mut cache_hits, mut corrupt, mut resumed) = (0usize, 0usize, 0usize);
        for i in 0..n {
            match paths[i].as_deref().map_or(CacheRead::Miss, read_entry::<R>) {
                CacheRead::Hit(r) => {
                    cache_hits += 1;
                    if hexes[i].as_ref().is_some_and(|h| prior_done.contains(h)) {
                        resumed += 1;
                    }
                    results.push(Some(Ok(r)));
                }
                CacheRead::Corrupt => {
                    corrupt += 1;
                    miss_idx.push(i);
                    results.push(None);
                }
                CacheRead::Miss => {
                    miss_idx.push(i);
                    results.push(None);
                }
            }
        }

        let outcome = supervise::run_jobs(self.threads, &self.policy, &miss_idx, |_, &i| {
            let t0 = Instant::now();
            let r = f(&items[i]);
            let wall_ms = supervise::elapsed_ms(t0);
            // Persist + journal as the job completes: this is the
            // crash-safety point. A kill after this line loses nothing.
            if let Some(path) = &paths[i] {
                write_entry(path, &r);
            }
            if let Some(hex) = &hexes[i] {
                self.journal_append(JournalRecord {
                    key: hex.clone(),
                    label: label.to_string(),
                    status: "done".to_string(),
                    wall_ms,
                });
            }
            r
        });

        let mut failed = 0usize;
        for (slot, report) in miss_idx.iter().zip(outcome.jobs) {
            let i = *slot;
            match report.result {
                Ok(r) => results[i] = Some(Ok(r)),
                Err(error) => {
                    failed += 1;
                    if let Some(hex) = &hexes[i] {
                        self.journal_append(JournalRecord {
                            key: hex.clone(),
                            label: label.to_string(),
                            status: error.kind.as_str().to_string(),
                            wall_ms: report.wall_ms,
                        });
                    }
                    eprintln!("warning: sweep '{label}': job {i} {error}");
                    self.failures
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner)
                        .push(SweepFailure {
                            label: label.to_string(),
                            index: i,
                            error: error.clone(),
                        });
                    results[i] = Some(Err(error));
                }
            }
        }
        if outcome.aborted {
            self.aborted.store(true, Ordering::Relaxed);
            let budget = self.policy.fail_budget.unwrap_or(0);
            eprintln!(
                "error: sweep '{label}': failure budget ({budget}) exhausted after {failed} \
                 failure{}; remaining jobs cancelled",
                if failed == 1 { "" } else { "s" }
            );
        }
        if corrupt > 0 {
            eprintln!(
                "warning: sweep '{label}': healed {corrupt} corrupt cache entr{} by recomputing",
                if corrupt == 1 { "y" } else { "ies" }
            );
        }

        let wall_ms = supervise::elapsed_ms(start);
        self.stats
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push(SweepStats {
                label: label.to_string(),
                jobs: n,
                cache_hits,
                corrupt,
                resumed,
                failed,
                wall_ms,
            });

        results
            .into_iter()
            .map(|r| match r {
                Some(v) => v,
                None => unreachable!("every sweep job is a hit, a result, or a failure"),
            })
            .collect()
    }

    /// The per-sweep counters collected so far, in execution order.
    pub fn stats(&self) -> Vec<SweepStats> {
        self.stats
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone()
    }

    /// Every job failure recorded so far, in completion-report order.
    pub fn failures(&self) -> Vec<SweepFailure> {
        self.failures
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone()
    }

    /// True once any sweep on this runner exhausted its failure budget
    /// (the `baldur` binary exits nonzero exactly in this case).
    pub fn aborted(&self) -> bool {
        self.aborted.load(Ordering::Relaxed)
    }

    /// Renders the collected counters as an aligned console block, e.g.
    ///
    /// ```text
    /// sweep summary (threads=8, cache=results/cache)
    ///   fig6            48 jobs    48 hits   0 corrupt      213 ms
    ///   total           48 jobs    48 hits (100.0%)   0 corrupt   213 ms
    /// ```
    pub fn summary(&self) -> String {
        let stats = self.stats();
        let cache_note = match &self.cache_dir {
            Some(dir) => format!("cache={}", dir.display()),
            None => "cache=off".to_string(),
        };
        let mut out = format!("sweep summary (threads={}, {cache_note})\n", self.threads);
        let (mut jobs, mut hits, mut corrupt, mut resumed, mut ms) =
            (0usize, 0usize, 0usize, 0usize, 0u64);
        for s in &stats {
            out.push_str(&format!(
                "  {:<18} {:>5} jobs {:>5} hits {:>3} corrupt {:>8} ms\n",
                s.label, s.jobs, s.cache_hits, s.corrupt, s.wall_ms
            ));
            jobs += s.jobs;
            hits += s.cache_hits;
            corrupt += s.corrupt;
            resumed += s.resumed;
            ms += s.wall_ms;
        }
        let pct = if jobs == 0 {
            0.0
        } else {
            100.0 * hits as f64 / jobs as f64
        };
        out.push_str(&format!(
            "  {:<18} {jobs:>5} jobs {hits:>5} hits ({pct:.1}%) {corrupt:>3} corrupt {ms:>4} ms\n",
            "total"
        ));
        if resumed > 0 {
            out.push_str(&format!(
                "  resumed: {resumed} job{} confirmed complete by the journal\n",
                if resumed == 1 { "" } else { "s" }
            ));
        }
        out
    }

    /// Renders the per-job failure report, or `None` when every job
    /// succeeded (so callers can skip the block entirely).
    ///
    /// ```text
    /// job status (2 failed, sweep aborted: failure budget exhausted)
    ///   sweep            job  status     attempts  detail
    ///   fig6               7  panicked          1  index out of bounds...
    /// ```
    pub fn status_table(&self) -> Option<String> {
        let failures = self.failures();
        if failures.is_empty() && !self.aborted() {
            return None;
        }
        let mut out = format!(
            "job status ({} failed{})\n",
            failures.len(),
            if self.aborted() {
                ", sweep aborted: failure budget exhausted"
            } else {
                ""
            }
        );
        out.push_str(&format!(
            "  {:<16} {:>5}  {:<9} {:>8}  detail\n",
            "sweep", "job", "status", "attempts"
        ));
        for fail in &failures {
            let mut detail = fail.error.payload.clone();
            if detail.len() > 60 {
                detail.truncate(57);
                detail.push_str("...");
            }
            out.push_str(&format!(
                "  {:<16} {:>5}  {:<9} {:>8}  {}\n",
                fail.label,
                fail.index,
                fail.error.kind.as_str(),
                fail.error.attempts,
                detail
            ));
        }
        Some(out)
    }

    /// `(total jobs, cache hits)` across every sweep so far.
    pub fn totals(&self) -> (usize, usize) {
        let stats = self.stats();
        (
            stats.iter().map(|s| s.jobs).sum(),
            stats.iter().map(|s| s.cache_hits).sum(),
        )
    }

    /// Total journal-confirmed resumed jobs across every sweep so far.
    pub fn resumed_total(&self) -> usize {
        self.stats().iter().map(|s| s.resumed).sum()
    }

    /// Appends one record to the journal (opening it on first use).
    fn journal_append(&self, rec: JournalRecord) {
        let mut cell = self
            .journal
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        self.ensure_journal(&mut cell);
        if let Some(journal) = cell.journal.as_mut() {
            journal.append(&rec);
        }
    }

    /// The prior run's completed keys (empty unless resuming with a
    /// cache directory).
    fn journal_prior_done(&self) -> BTreeSet<String> {
        let mut cell = self
            .journal
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        self.ensure_journal(&mut cell);
        cell.journal
            .as_ref()
            .map(|j| j.prior_done.clone())
            .unwrap_or_default()
    }

    fn ensure_journal(&self, cell: &mut JournalCell) {
        if cell.opened {
            return;
        }
        cell.opened = true;
        if let Some(dir) = &self.cache_dir {
            cell.journal = Journal::open(dir, self.resume);
        }
    }
}

/// The hex cache key for one `(label, version, item)` job, or `None`
/// when the item fails to serialize — that job simply runs uncached.
///
/// `version` is the experiment's cache version from its
/// [`crate::registry::ExperimentSpec`] (or [`CACHE_SCHEMA`] for sweeps
/// run outside the registry); hashing it here is what makes per-spec
/// invalidation possible without touching other experiments' keys.
fn key_hex<T: Serialize>(label: &str, version: u32, item: &T) -> Option<String> {
    let payload = serde_json::to_string_exact(item).ok()?;
    let mut h = crate::hash::Sha256::new();
    h.update(label.as_bytes());
    h.update(b"|");
    h.update(&version.to_le_bytes());
    h.update(b"|");
    h.update(env!("CARGO_PKG_VERSION").as_bytes());
    h.update(b"|");
    h.update(payload.as_bytes());
    let digest = h.finish();
    let mut name = String::with_capacity(64);
    for b in digest {
        use std::fmt::Write;
        let _ = write!(name, "{b:02x}"); // writing to a String cannot fail
    }
    Some(name)
}

/// Outcome of probing one cache entry.
enum CacheRead<R> {
    /// Decoded successfully.
    Hit(R),
    /// The file exists but is unreadable or undecodable — a torn write
    /// or bit rot. Healed by recomputing (and counted, unlike a miss).
    Corrupt,
    /// No entry.
    Miss,
}

/// Probes one cache entry, distinguishing "absent" from "present but
/// corrupt" so heals are visible in the sweep stats.
fn read_entry<R: Deserialize>(path: &Path) -> CacheRead<R> {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return CacheRead::Miss,
        Err(_) => return CacheRead::Corrupt,
    };
    match serde_json::from_str(&text) {
        Ok(value) => CacheRead::Hit(value),
        Err(_) => CacheRead::Corrupt,
    }
}

/// Writes one cache entry via a temp file + rename so concurrent
/// harnesses never observe a torn entry. Failures are silent: the cache
/// is an accelerator, never a correctness dependency.
fn write_entry<R: Serialize>(path: &Path, value: &R) {
    let Some(dir) = path.parent() else { return };
    if std::fs::create_dir_all(dir).is_err() {
        return;
    }
    let Ok(text) = serde_json::to_string_exact(value) else {
        return;
    };
    let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
    if std::fs::write(&tmp, text).is_ok() && std::fs::rename(&tmp, path).is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::JobErrorKind;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("baldur-sweep-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn quietly<R>(body: impl FnOnce() -> R) -> R {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let out = body();
        std::panic::set_hook(prev);
        out
    }

    #[test]
    fn uncached_map_preserves_order() {
        let sw = Sweep::new(4);
        let out = sw.map("square", (0u64..50).collect(), |&x| x * x);
        assert_eq!(out, (0u64..50).map(|x| x * x).collect::<Vec<_>>());
        let stats = sw.stats();
        assert_eq!(stats.len(), 1);
        assert_eq!((stats[0].jobs, stats[0].cache_hits), (50, 0));
        assert_eq!(
            (stats[0].corrupt, stats[0].resumed, stats[0].failed),
            (0, 0, 0)
        );
    }

    #[test]
    fn second_run_hits_cache_and_agrees() {
        let dir = temp_dir("hits");
        let calls = AtomicUsize::new(0);
        let job = |&x: &u64| {
            calls.fetch_add(1, Ordering::Relaxed);
            (x, (x as f64).sqrt())
        };
        let sw = Sweep::new(2).with_cache_dir(&dir);
        let first = sw.map("roots", (0u64..20).collect(), job);
        assert_eq!(calls.load(Ordering::Relaxed), 20);

        let sw2 = Sweep::new(2).with_cache_dir(&dir);
        let second = sw2.map("roots", (0u64..20).collect(), job);
        assert_eq!(calls.load(Ordering::Relaxed), 20, "all jobs replayed");
        assert_eq!(first, second);
        let stats = sw2.stats();
        assert_eq!((stats[0].jobs, stats[0].cache_hits), (20, 20));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn label_separates_cache_namespaces() {
        let dir = temp_dir("labels");
        let sw = Sweep::new(1).with_cache_dir(&dir);
        let a = sw.map("double", vec![21u64], |&x| x * 2);
        let b = sw.map("triple", vec![21u64], |&x| x * 3);
        assert_eq!((a[0], b[0]), (42, 63));
        let (jobs, hits) = sw.totals();
        assert_eq!((jobs, hits), (2, 0), "same item, different label: no hit");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn version_bump_invalidates_only_its_own_label() {
        let dir = temp_dir("versions");
        let sw = Sweep::new(1).with_cache_dir(&dir);
        sw.map_versioned("fig_a", 1, vec![5u64], |&x| x + 1);
        sw.map_versioned("fig_b", 1, vec![5u64], |&x| x + 2);

        // fig_a bumps its spec version: its entry goes cold, fig_b's
        // entry (same item, untouched version) stays warm.
        let sw2 = Sweep::new(1).with_cache_dir(&dir);
        sw2.map_versioned("fig_a", 2, vec![5u64], |&x| x + 1);
        sw2.map_versioned("fig_b", 1, vec![5u64], |&x| x + 2);
        let stats = sw2.stats();
        assert_eq!(stats[0].cache_hits, 0, "bumped version must miss");
        assert_eq!(stats[1].cache_hits, 1, "other experiment stays warm");

        // Version 1 of fig_a is still addressable — old entries are
        // orphaned, not destroyed.
        let sw3 = Sweep::new(1).with_cache_dir(&dir);
        sw3.map_versioned("fig_a", 1, vec![5u64], |&x| x + 1);
        assert_eq!(sw3.stats()[0].cache_hits, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn default_map_keys_match_versioned_at_schema_baseline() {
        let dir = temp_dir("baseline-keys");
        let sw = Sweep::new(1).with_cache_dir(&dir);
        sw.map("base", vec![9u64], |&x| x * 2);
        // map_versioned at CACHE_SCHEMA replays the plain-map entry:
        // the registry's default spec version preserves historical keys.
        let sw2 = Sweep::new(1).with_cache_dir(&dir);
        sw2.map_versioned("base", CACHE_SCHEMA, vec![9u64], |&x| x * 2);
        assert_eq!(sw2.stats()[0].cache_hits, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_entries_recompute_and_are_counted() {
        let dir = temp_dir("corrupt");
        let sw = Sweep::new(1).with_cache_dir(&dir);
        sw.map("c", vec![7u64], |&x| x + 1);
        for entry in std::fs::read_dir(&dir).expect("cache dir exists") {
            let path = entry.expect("dir entry").path();
            std::fs::write(&path, "{ not json").expect("overwrite entry");
        }
        let sw2 = Sweep::new(1).with_cache_dir(&dir);
        let out = sw2.map("c", vec![7u64], |&x| x + 1);
        assert_eq!(out, vec![8]);
        assert_eq!(sw2.stats()[0].cache_hits, 0);
        assert_eq!(sw2.stats()[0].corrupt, 1, "the heal is surfaced");
        // The corrupt entry was healed: a third run hits, heal count 0.
        let sw3 = Sweep::new(1).with_cache_dir(&dir);
        sw3.map("c", vec![7u64], |&x| x + 1);
        assert_eq!(sw3.stats()[0].cache_hits, 1);
        assert_eq!(sw3.stats()[0].corrupt, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn non_finite_results_round_trip_through_cache() {
        let dir = temp_dir("nonfinite");
        let job = |&x: &u32| match x {
            0 => f64::NAN,
            1 => f64::INFINITY,
            2 => f64::NEG_INFINITY,
            _ => 0.1,
        };
        let sw = Sweep::new(1).with_cache_dir(&dir);
        sw.map("nf", (0u32..4).collect(), job);
        let sw2 = Sweep::new(1).with_cache_dir(&dir);
        let replayed = sw2.map("nf", (0u32..4).collect(), job);
        assert_eq!(sw2.stats()[0].cache_hits, 4);
        assert!(replayed[0].is_nan());
        assert_eq!(replayed[1], f64::INFINITY);
        assert_eq!(replayed[2], f64::NEG_INFINITY);
        assert_eq!(replayed[3].to_bits(), 0.1f64.to_bits());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn summary_mentions_totals() {
        let sw = Sweep::new(1);
        sw.map("alpha", vec![1u32, 2], |&x| x);
        sw.map("beta", vec![3u32], |&x| x);
        let s = sw.summary();
        assert!(s.contains("alpha"), "{s}");
        assert!(s.contains("beta"), "{s}");
        assert!(s.contains("total"), "{s}");
        assert!(s.contains("3 jobs"), "{s}");
        assert!(s.contains("corrupt"), "{s}");
    }

    #[test]
    fn panicking_job_yields_err_slot_and_siblings_complete() {
        let sw = Sweep::new(4);
        let slots = quietly(|| {
            sw.try_map("mix", (0u32..10).collect(), |&x| {
                if x == 6 {
                    panic!("job six is cursed");
                }
                x * 3
            })
        });
        assert_eq!(slots.len(), 10);
        for (i, slot) in slots.iter().enumerate() {
            if i == 6 {
                let err = slot.as_ref().expect_err("job 6 failed");
                assert_eq!(err.kind, JobErrorKind::Panicked);
                assert_eq!(err.payload, "job six is cursed");
            } else {
                assert_eq!(*slot, Ok(i as u32 * 3));
            }
        }
        assert!(!sw.aborted());
        assert_eq!(sw.stats()[0].failed, 1);
        let table = sw.status_table().expect("one failure to report");
        assert!(table.contains("panicked"), "{table}");
        assert!(table.contains("job six is cursed"), "{table}");
        // map() drops the failed slot but keeps order.
        let sw2 = Sweep::new(2);
        let kept = quietly(|| {
            sw2.map("mix", (0u32..10).collect(), |&x| {
                if x == 6 {
                    panic!("job six is cursed");
                }
                x * 3
            })
        });
        assert_eq!(kept, vec![0, 3, 6, 9, 12, 15, 21, 24, 27]);
    }

    #[test]
    fn failure_budget_aborts_the_sweep() {
        let sw = Sweep::new(1).with_policy(Policy {
            fail_budget: Some(1),
            ..Policy::default()
        });
        let slots = quietly(|| {
            sw.try_map("budget", (0u32..10).collect(), |&x| {
                if x == 1 || x == 3 {
                    panic!("bad {x}");
                }
                x
            })
        });
        assert!(sw.aborted());
        assert_eq!(
            slots[3].as_ref().expect_err("second failure").kind,
            JobErrorKind::Panicked
        );
        assert!(slots[4..]
            .iter()
            .all(|s| s.as_ref().is_err_and(|e| e.kind == JobErrorKind::Skipped)));
        let table = sw.status_table().expect("failures to report");
        assert!(table.contains("aborted"), "{table}");
    }

    #[test]
    fn journal_records_completions_and_resume_counts_them() {
        let dir = temp_dir("journal");
        let sw = Sweep::new(2).with_cache_dir(&dir);
        sw.map("j", (0u64..5).collect(), |&x| x * 2);
        let snap = read_journal(&dir.join(JOURNAL_FILE));
        assert_eq!(snap.records.len(), 5);
        assert_eq!(snap.torn_lines, 0);
        assert!(snap.records.iter().all(|r| r.status == "done"));
        assert!(snap.records.iter().all(|r| r.label == "j"));

        // Resume: all five hits are journal-confirmed.
        let sw2 = Sweep::new(2).with_cache_dir(&dir).with_resume(true);
        sw2.map("j", (0u64..5).collect(), |&x| x * 2);
        let stats = sw2.stats();
        assert_eq!(stats[0].cache_hits, 5);
        assert_eq!(stats[0].resumed, 5);
        assert_eq!(sw2.resumed_total(), 5);

        // A fresh (non-resume) run truncates the journal: hits still
        // come from the cache, but nothing is journal-confirmed.
        let sw3 = Sweep::new(2).with_cache_dir(&dir);
        sw3.map("j", (0u64..5).collect(), |&x| x * 2);
        assert_eq!(sw3.stats()[0].resumed, 0);
        assert_eq!(read_journal(&dir.join(JOURNAL_FILE)).records.len(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_journal_tail_is_discarded_not_fatal() {
        let dir = temp_dir("torn");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join(JOURNAL_FILE);
        let whole = serde_json::to_string_exact(&JournalRecord {
            key: "aa".to_string(),
            label: "t".to_string(),
            status: "done".to_string(),
            wall_ms: 3,
        })
        .expect("serialize record");
        // Two whole records, then a half-written line with no newline —
        // exactly what dying mid-append leaves behind.
        let torn = format!("{whole}\n{whole}\n{{\"key\":\"bb\",\"lab");
        std::fs::write(&path, torn).expect("write torn journal");
        let snap = read_journal(&path);
        assert_eq!(snap.records.len(), 2);
        assert_eq!(snap.torn_lines, 1);

        // And a resuming sweep over that journal still works.
        let sw = Sweep::new(1).with_cache_dir(&dir).with_resume(true);
        let out = sw.map("t", vec![1u64], |&x| x + 1);
        assert_eq!(out, vec![2]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failures_are_journaled_with_their_kind() {
        let dir = temp_dir("failrec");
        let sw = Sweep::new(1).with_cache_dir(&dir);
        quietly(|| {
            sw.try_map("f", (0u64..3).collect(), |&x| {
                if x == 1 {
                    panic!("no");
                }
                x
            })
        });
        let snap = read_journal(&dir.join(JOURNAL_FILE));
        let mut statuses: Vec<&str> = snap.records.iter().map(|r| r.status.as_str()).collect();
        statuses.sort_unstable();
        assert_eq!(statuses, vec!["done", "done", "panicked"]);
        // A resume run must NOT treat the panicked job as complete.
        let sw2 = Sweep::new(1).with_cache_dir(&dir).with_resume(true);
        let out = sw2.map("f", (0u64..3).collect(), |&x| x); // healed job fn
        assert_eq!(out, vec![0, 1, 2]);
        assert_eq!(sw2.stats()[0].resumed, 2, "only the two 'done' records");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
