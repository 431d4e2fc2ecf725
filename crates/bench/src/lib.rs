//! The figure/table harness: one registry-driven dispatcher behind the
//! single `baldur` binary (`src/bin/baldur.rs`).
//!
//! `baldur <name> [flags]` regenerates one table or figure of the paper
//! from its experiment's registry entry; `baldur all [--out DIR]` runs
//! every registered experiment into a results directory (default
//! `results`); `baldur --list` lists the registry and `baldur <name>
//! --describe` prints one spec's JSON descriptor. Experiment-specific
//! knobs are declared as axes/flags/modes on the spec in
//! `baldur::registry` and surface automatically as `--<axis> VALUES`,
//! `--<flag>`, and `--set axis=VALUES` (repeatable, applied in order).
//! The common flags (`--nodes`, `--packets`, `--seed`, `--threads`,
//! `--no-cache`, `--resume`, the supervision knobs, ...) are listed in
//! the usage text, which `baldur` prints when run without arguments.
//!
//! A bad invocation (unknown experiment or flag, repeated single-valued
//! flag, bad axis override) exits 2 with the usage text; a sweep whose
//! failure budget ran out exits 1 after its per-job status table.

mod cli;
pub mod perf;
mod runner;

pub use runner::main;
