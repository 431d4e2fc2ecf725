//! Rule passes over the token stream.
//!
//! Every rule is a visitor over the significant tokens of one file plus
//! its scope map ([`crate::scope::Scopes`]) — no per-line regexes. The
//! scoping decisions (which crates a rule walls, which files are
//! job-path) live in [`FileCtx::new`]; the matching itself lives in one
//! pass function per rule family, dispatched from [`run_passes`].

use crate::lexer::Kind;
use crate::scope::{Scopes, Sig};
use crate::{
    Finding, Rule, HOT_PATH_FILES, JOB_PATH_FILES, WALL_CLOCK_EXEMPT_FILES, WALL_CRATES, WALL_FILES,
};

/// Rust keywords, used to tell `ident[expr]` indexing apart from array
/// patterns/literals after keywords (`let [a, b] = …`, `for x in [1, 2]`).
const KEYWORDS: &[&str] = &[
    "as", "async", "await", "box", "break", "const", "continue", "crate", "dyn", "else", "enum",
    "extern", "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub",
    "ref", "return", "static", "struct", "super", "trait", "type", "unsafe", "use", "where",
    "while", "yield",
];

/// Unit suffixes recognised by the unit-safety family, grouped by the
/// dimension they imply. Single-letter units are excluded on purpose —
/// `_s`/`_w` style names are too ambiguous to lint on.
const UNIT_WORDS: &[&str] = &[
    // time
    "fs", "ps", "ns", "us", "ms", "sec", "secs", // rate / frequency
    "hz", "khz", "mhz", "ghz", "bps", "kbps", "mbps", "gbps", "tbps", // energy / power
    "pj", "nj", "uj", "mj", "mw", "uw", "kw", // data / link budget
    "bits", "bytes", "kb", "mb", "gb", "db", "dbm", // geometry
    "nm", "um", "mm", "km",
];

/// Physical-quantity root words: an `f64` parameter whose name contains
/// one of these but no unit word is dimensionally ambiguous.
const QUANTITY_WORDS: &[&str] = &[
    "latency",
    "delay",
    "bandwidth",
    "throughput",
    "power",
    "energy",
    "time",
    "duration",
    "period",
    "interval",
    "timeout",
    "freq",
    "frequency",
    "wavelength",
];

/// Identifier words that mark an expression as time-, event-count-, or
/// index-flavoured for the narrowing-cast rule.
const KERNEL_VALUE_WORDS: &[&str] = &[
    "time", "times", "tick", "ticks", "event", "events", "count", "counter", "counts", "idx",
    "index", "indices", "seq", "epoch", "epochs", "now", "at", "deadline", "horizon", "len", "ps",
    "ns", "us",
];

/// Integer types a cast can truncate into (on 32-bit targets `usize`
/// included — the event kernel must not assume a 64-bit host).
const NARROW_TARGETS: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32", "usize"];

/// Harness modules where `env::var` is part of the documented contract
/// (`BALDUR_THREADS` worker-count resolution) rather than a determinism
/// leak. Everything else inside the wall gets flagged.
pub const ENV_HARNESS_FILES: &[&str] = &["crates/sim/src/par.rs"];

/// Per-file scoping flags, derived once from the relative path.
#[derive(Debug, Clone, Copy)]
pub struct FileCtx<'a> {
    /// Repo-relative `/`-separated path.
    pub rel: &'a str,
    /// `crates/<name>/…` crate directory name, if any.
    pub crate_name: Option<&'a str>,
    /// Determinism wall applies (wall crate, or an extra wall file).
    pub in_wall: bool,
    /// Wall-clock reads are banned (repo-wide, minus the injected-clock
    /// perf harness in [`WALL_CLOCK_EXEMPT_FILES`]).
    pub clock_scope: bool,
    /// Panic rules apply (library code: not `src/bin/`, not `benches/`).
    pub panic_scope: bool,
    /// File lives in `crates/net`.
    pub net_crate: bool,
    /// A `fault`-named file in `crates/net`: every panic site is
    /// fault-path, and the panic-surface-v2 rules apply in full.
    pub fault_file: bool,
    /// One of [`JOB_PATH_FILES`].
    pub job_path: bool,
    /// `process::exit` is banned (library code that is not a `main.rs`).
    pub exit_scope: bool,
    /// The bench binary: must stay a thin wrapper over the dispatcher.
    pub bin_harness: bool,
    /// Event-kernel crate: narrowing-cast rule applies.
    pub kernel: bool,
    /// Unit-safety signature rule applies (phy/power/net).
    pub unit_sig: bool,
    /// Mixed-unit expression rule applies (quantitative crates).
    pub unit_expr: bool,
    /// Slice-index rule applies (supervised job path + net fault files).
    pub index_scope: bool,
    /// One of [`HOT_PATH_FILES`]: per-event allocation is banned.
    pub hot_path: bool,
}

impl<'a> FileCtx<'a> {
    /// Derives every scoping flag from a repo-relative path.
    pub fn new(rel: &'a str) -> Self {
        let crate_name = crate_of(rel);
        let is = |c: &str| crate_name == Some(c);
        let in_wall =
            crate_name.is_some_and(|c| WALL_CRATES.contains(&c)) || WALL_FILES.contains(&rel);
        let panic_scope = !rel.contains("/src/bin/") && !rel.contains("/benches/");
        let net_crate = is("net");
        let lower = rel.to_ascii_lowercase();
        let fault_file = net_crate && (lower.contains("fault") || lower.contains("oracle"));
        let job_path = JOB_PATH_FILES.contains(&rel);
        FileCtx {
            rel,
            crate_name,
            in_wall,
            clock_scope: !WALL_CLOCK_EXEMPT_FILES.contains(&rel),
            panic_scope,
            net_crate,
            fault_file,
            job_path,
            exit_scope: panic_scope && !rel.ends_with("/main.rs"),
            bin_harness: rel.contains("crates/bench/src/bin/"),
            kernel: is("sim"),
            unit_sig: is("phy") || is("power") || is("net"),
            unit_expr: is("phy") || is("power") || is("net") || is("sim") || is("tl"),
            index_scope: job_path || fault_file,
            hot_path: HOT_PATH_FILES.contains(&rel),
        }
    }
}

/// The crate directory name (`sim`, `net`, …) of a `crates/<name>/…`
/// relative path.
pub fn crate_of(rel_path: &str) -> Option<&str> {
    let mut parts = rel_path.split('/');
    if parts.next() != Some("crates") {
        return None;
    }
    parts.next()
}

/// Shared pass state: the token view, scope map, and finding sink.
struct Pass<'a, 'f> {
    ctx: FileCtx<'a>,
    sig: &'a [Sig<'a>],
    scopes: &'a Scopes,
    /// Lines (1-based) carrying a `fault`-ish identifier; used by the
    /// fault-path classification in `crates/net`.
    fault_lines: Vec<u32>,
    out: &'f mut Vec<Finding>,
}

impl<'a, 'f> Pass<'a, 'f> {
    fn text(&self, i: usize) -> &'a str {
        self.sig.get(i).map_or("", |t| t.text)
    }

    fn kind(&self, i: usize) -> Option<Kind> {
        self.sig.get(i).map(|t| t.kind)
    }

    fn line(&self, i: usize) -> u32 {
        self.sig.get(i).map_or(0, |t| t.line)
    }

    fn is_ident(&self, i: usize, name: &str) -> bool {
        self.sig
            .get(i)
            .is_some_and(|t| t.kind == Kind::Ident && t.text == name)
    }

    fn live(&self, i: usize) -> bool {
        !self.scopes.in_test.get(i).copied().unwrap_or(false)
    }

    fn emit(&mut self, rule: Rule, i: usize, message: String) {
        self.out.push(Finding {
            rule: rule.id().to_string(),
            file: self.ctx.rel.to_string(),
            line: self.line(i) as usize,
            message,
        });
    }

    /// Index of the matching `)` for the `(` at `open`.
    fn match_paren(&self, open: usize) -> usize {
        let mut depth = 0usize;
        for k in open..self.sig.len() {
            match self.text(k) {
                "(" => depth += 1,
                ")" => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        return k;
                    }
                }
                _ => {}
            }
        }
        self.sig.len().saturating_sub(1)
    }

    /// True when the statement window ending at `i` (scanning back to a
    /// `;`/`{`/`}` boundary, bounded) contains the identifier `name`.
    fn stmt_contains_back(&self, i: usize, name: &str) -> bool {
        let mut k = i;
        for _ in 0..64 {
            if k == 0 {
                return false;
            }
            k -= 1;
            match self.text(k) {
                ";" | "{" | "}" => return false,
                t if self.kind(k) == Some(Kind::Ident) && t == name => return true,
                _ => {}
            }
        }
        false
    }
}

/// Splits an identifier into lowercase words at `_` boundaries.
fn words(ident: &str) -> Vec<String> {
    ident
        .split('_')
        .filter(|w| !w.is_empty())
        .map(str::to_ascii_lowercase)
        .collect()
}

/// The unit a name implies, judged by its final `_`-separated word.
fn unit_of(ident: &str) -> Option<&'static str> {
    let w = words(ident);
    let last = w.last()?;
    UNIT_WORDS.iter().copied().find(|u| u == last)
}

/// Runs every rule pass over one file, appending findings in token order.
pub fn run_passes(ctx: FileCtx<'_>, sig: &[Sig<'_>], scopes: &Scopes, out: &mut Vec<Finding>) {
    let fault_lines = if ctx.net_crate && !ctx.fault_file {
        // Fault-handling *and* overload-control lines: a panic while
        // shedding load (admission refusal, deadline expiry, starvation
        // accounting) is as bad as one while handling a fault — both run
        // exactly when the system is least able to afford it.
        sig.iter()
            .filter(|t| {
                t.kind == Kind::Ident && {
                    let l = t.text.to_ascii_lowercase();
                    l.contains("fault")
                        || l.contains("overload")
                        || l.contains("ingress")
                        || l.contains("deadline")
                        || l.contains("expire")
                        || l.contains("starv")
                }
            })
            .map(|t| t.line)
            .collect()
    } else {
        Vec::new()
    };
    let mut p = Pass {
        ctx,
        sig,
        scopes,
        fault_lines,
        out,
    };
    determinism_pass(&mut p);
    panic_pass(&mut p);
    slice_index_pass(&mut p);
    narrowing_cast_pass(&mut p);
    unit_signature_pass(&mut p);
    mixed_unit_pass(&mut p);
    harness_pass(&mut p);
    float_literal_pass(&mut p);
    hot_path_alloc_pass(&mut p);
}

/// Hot-path allocation: `Box::new`, `BTreeMap`, or `HashMap` in the
/// event kernel or a SoA packet model. One `Box::new` per event is one
/// malloc per event — at 1M endpoints and tens of millions of events
/// the allocator dominates; node-based maps add a cache miss per
/// lookup on top. Flat `Vec`s and generational arenas only.
fn hot_path_alloc_pass(p: &mut Pass<'_, '_>) {
    if !p.ctx.hot_path {
        return;
    }
    for i in 0..p.sig.len() {
        if !p.live(i) || p.kind(i) != Some(Kind::Ident) {
            continue;
        }
        let what = match p.text(i) {
            "Box" if p.text(i + 1) == "::" && p.is_ident(i + 2, "new") => "`Box::new`",
            "BTreeMap" => "`BTreeMap`",
            "HashMap" => "`HashMap`",
            _ => continue,
        };
        let in_fn = p
            .scopes
            .fn_name(i)
            .map_or(String::new(), |f| format!(" (in fn `{f}`)"));
        p.emit(
            Rule::HotPathAlloc,
            i,
            format!(
                "{what} in kernel/model hot-path code — per-event allocation and \
                 node-per-entry maps do not survive 1M endpoints; use a flat Vec or \
                 an arena, or prove the site cold and allowlist it{in_fn}"
            ),
        );
    }
}

/// Determinism family: wall-clock reads (repo-wide, minus the
/// injected-clock perf harness), plus ambient randomness, environment
/// reads, and unordered collections inside the wall.
fn determinism_pass(p: &mut Pass<'_, '_>) {
    let wall = p.ctx.in_wall;
    let clock = p.ctx.clock_scope;
    if !wall && !clock {
        return;
    }
    let env_exempt = ENV_HARNESS_FILES.contains(&p.ctx.rel);
    for i in 0..p.sig.len() {
        if !p.live(i) || p.kind(i) != Some(Kind::Ident) {
            continue;
        }
        let in_fn = p
            .scopes
            .fn_name(i)
            .map_or(String::new(), |f| format!(" (in fn `{f}`)"));
        match p.text(i) {
            "Instant" if clock && p.text(i + 1) == "::" && p.is_ident(i + 2, "now") => {
                p.emit(
                    Rule::WallClock,
                    i,
                    format!(
                        "wall-clock read `Instant::now` outside the injected-clock \
                         perf harness{in_fn}"
                    ),
                );
            }
            "SystemTime" if clock => {
                p.emit(
                    Rule::WallClock,
                    i,
                    format!("`SystemTime` has no place outside the perf harness{in_fn}"),
                );
            }
            "thread_rng" if wall => {
                p.emit(
                    Rule::AmbientRandom,
                    i,
                    format!("ambient randomness `thread_rng`; derive a StreamRng instead{in_fn}"),
                );
            }
            "rand" if wall && p.text(i + 1) == "::" && p.is_ident(i + 2, "random") => {
                p.emit(
                    Rule::AmbientRandom,
                    i,
                    format!("ambient randomness `rand::random`; derive a StreamRng instead{in_fn}"),
                );
            }
            "env"
                if wall
                    && !env_exempt
                    && p.text(i + 1) == "::"
                    && (p.is_ident(i + 2, "var") || p.is_ident(i + 2, "var_os")) =>
            {
                p.emit(
                    Rule::EnvRead,
                    i,
                    format!(
                        "environment read `env::{}` in walled code: results must be a \
                         function of the config, not the shell{in_fn}",
                        p.text(i + 2)
                    ),
                );
            }
            t @ ("HashMap" | "HashSet") if wall => {
                p.emit(
                    Rule::UnorderedCollection,
                    i,
                    format!(
                        "unordered `{t}` in a result-producing crate; \
                         use BTreeMap/BTreeSet or an index-keyed Vec{in_fn}"
                    ),
                );
            }
            _ => {}
        }
    }
}

/// Panic family: direct `.unwrap()`/`.expect(` sites (classified into the
/// general, fault-path, or job-path budget), `partial_cmp` chains (float
/// hazard instead), and the v2 indirect surface — panicking closures
/// passed to `unwrap_or_else`-style adaptors, which the old line regex
/// could not see because no `.unwrap()`/`.expect(` substring exists.
fn panic_pass(p: &mut Pass<'_, '_>) {
    for i in 0..p.sig.len() {
        if !p.live(i) || p.text(i) != "." || p.kind(i + 1) != Some(Kind::Ident) {
            continue;
        }
        let method = p.text(i + 1);
        let site = i + 1;
        match method {
            "unwrap" if p.text(i + 2) == "(" && p.text(i + 3) == ")" => {
                self::direct_panic_site(p, site, "`.unwrap()`");
            }
            "expect" if p.text(i + 2) == "(" => {
                self::direct_panic_site(p, site, "`.expect(..)`");
            }
            "unwrap_or_else" | "ok_or_else" | "map_or_else"
                if p.ctx.panic_scope && p.text(i + 2) == "(" =>
            {
                let close = p.match_paren(i + 2);
                let panics = (i + 3..close).any(|k| {
                    p.kind(k) == Some(Kind::Ident)
                        && matches!(
                            p.text(k),
                            "panic" | "unreachable" | "todo" | "unimplemented"
                        )
                        && p.text(k + 1) == "!"
                });
                if panics {
                    let in_fn = p
                        .scopes
                        .fn_name(site)
                        .map_or(String::new(), |f| format!(" (in fn `{f}`)"));
                    p.emit(
                        Rule::PanicIndirect,
                        site,
                        format!(
                            "`.{method}(..)` closure panics — an indirect panic site the \
                             line regex could not see; return the error instead{in_fn}"
                        ),
                    );
                }
            }
            _ => {}
        }
    }
}

/// Classifies and emits one direct `.unwrap()`/`.expect(` site. The
/// float-hazard variant applies everywhere (a NaN panics in a bench
/// binary too); the panic-budget variants only in library scope.
fn direct_panic_site(p: &mut Pass<'_, '_>, site: usize, what: &str) {
    if p.stmt_contains_back(site, "partial_cmp") {
        p.emit(
            Rule::FloatCmpPanic,
            site,
            "partial_cmp().unwrap()/expect() panics on NaN; use f64::total_cmp".to_string(),
        );
        return;
    }
    if !p.ctx.panic_scope {
        return;
    }
    let line = p.line(site);
    let fault_path = p.ctx.fault_file || (p.ctx.net_crate && p.fault_lines.contains(&line));
    let (rule, scope) = if p.ctx.job_path {
        (Rule::JobPathPanic, "supervised job-path")
    } else if fault_path {
        (Rule::FaultPathPanic, "fault-handling")
    } else {
        (Rule::PanicSite, "library")
    };
    p.emit(
        rule,
        site,
        format!("{what} in {scope} code; handle the None/Err or allowlist it"),
    );
}

/// Panic-surface v2: slice/array indexing on the supervised job path and
/// in fault-handling files. `xs[i]` panics on out-of-range exactly like
/// `.unwrap()` — and the old regex had no rule for it at all.
fn slice_index_pass(p: &mut Pass<'_, '_>) {
    if !p.ctx.index_scope {
        return;
    }
    for i in 1..p.sig.len() {
        if !p.live(i) || p.text(i) != "[" {
            continue;
        }
        // Indexing only: the `[` must follow a value expression — an
        // identifier (not a keyword), a `)` or `]`, or a literal. This
        // excludes attributes (`#[…]`), array types/literals, patterns,
        // and macro brackets (`vec![…]`).
        let prev_ok = match p.kind(i - 1) {
            Some(Kind::Ident) => !KEYWORDS.contains(&p.text(i - 1)),
            Some(Kind::Punct) => matches!(p.text(i - 1), ")" | "]"),
            _ => false,
        };
        if !prev_ok {
            continue;
        }
        let in_fn = p
            .scopes
            .fn_name(i)
            .map_or(String::new(), |f| format!(" (in fn `{f}`)"));
        p.emit(
            Rule::SliceIndex,
            i,
            format!(
                "slice/array indexing panics on out-of-range — this code must stay \
                 panic-free; use .get() or prove the bound and allowlist it{in_fn}"
            ),
        );
    }
}

/// Narrowing-cast family: `as u32`-style truncations of time-, event-, or
/// index-flavoured expressions in the event kernel. At 1K endpoints these
/// casts are latent; at 1M endpoints and >2^32 events they go live.
fn narrowing_cast_pass(p: &mut Pass<'_, '_>) {
    if !p.ctx.kernel {
        return;
    }
    for i in 0..p.sig.len() {
        if !p.live(i) || !p.is_ident(i, "as") || p.kind(i + 1) != Some(Kind::Ident) {
            continue;
        }
        let target = p.text(i + 1);
        if !NARROW_TARGETS.contains(&target) {
            continue;
        }
        // Walk the cast-ee window back to a statement/assignment boundary
        // and look for a kernel value word among its identifiers.
        let mut hit = false;
        let mut k = i;
        for _ in 0..16 {
            if k == 0 {
                break;
            }
            k -= 1;
            let t = p.text(k);
            if matches!(t, ";" | "{" | "}" | "," | "=" | "let" | "return") {
                break;
            }
            if p.kind(k) == Some(Kind::Ident)
                && words(t)
                    .iter()
                    .any(|w| KERNEL_VALUE_WORDS.contains(&w.as_str()))
            {
                hit = true;
                break;
            }
        }
        if hit {
            let in_fn = p
                .scopes
                .fn_name(i)
                .map_or(String::new(), |f| format!(" (in fn `{f}`)"));
            p.emit(
                Rule::NarrowingCast,
                i,
                format!(
                    "`as {target}` can truncate a time/count/index value — the exact bug \
                     class 1M-endpoint scaling turns live; use u64 or prove the bound \
                     and allowlist it{in_fn}"
                ),
            );
        }
    }
}

/// Unit-safety (signatures): a bare `f64` parameter named like a physical
/// quantity but carrying no unit suffix is dimensionally ambiguous — the
/// caller cannot tell ns from us or pJ from nJ at the call site.
fn unit_signature_pass(p: &mut Pass<'_, '_>) {
    if !p.ctx.unit_sig {
        return;
    }
    let mut i = 0;
    while i + 1 < p.sig.len() {
        if !(p.live(i) && p.is_ident(i, "fn") && p.kind(i + 1) == Some(Kind::Ident)) {
            i += 1;
            continue;
        }
        let fn_name = p.text(i + 1);
        // Find the parameter list opener (skipping generics).
        let mut j = i + 2;
        let mut angle = 0usize;
        while j < p.sig.len() {
            match p.text(j) {
                "<" => angle += 1,
                ">" => angle = angle.saturating_sub(1),
                "(" if angle == 0 => break,
                ";" | "{" => break,
                _ => {}
            }
            j += 1;
        }
        if p.text(j) != "(" {
            i = j;
            continue;
        }
        let close = p.match_paren(j);
        // Walk params at depth 1, tracking `name : type` pairs.
        let mut depth = 0usize;
        let mut k = j;
        while k < close {
            match p.text(k) {
                "(" | "[" => depth += 1,
                ")" | "]" => depth = depth.saturating_sub(1),
                ":" if depth == 1 && p.text(k + 1) != ":" && p.text(k.wrapping_sub(1)) != ":" => {
                    let name = p.text(k - 1);
                    // Type is exactly `f64` (possibly `&f64`) up to the
                    // next top-level `,` or the closing paren.
                    let ty_first = if p.text(k + 1) == "&" { k + 2 } else { k + 1 };
                    let bare_f64 =
                        p.is_ident(ty_first, "f64") && matches!(p.text(ty_first + 1), "," | ")");
                    if bare_f64 && p.kind(k - 1) == Some(Kind::Ident) {
                        let w = words(name);
                        let quantity = w.iter().any(|x| QUANTITY_WORDS.contains(&x.as_str()));
                        let has_unit = w.iter().any(|x| UNIT_WORDS.contains(&x.as_str()));
                        if quantity && !has_unit {
                            p.emit(
                                Rule::UnitF64Param,
                                k - 1,
                                format!(
                                    "bare `f64` parameter `{name}` in fn `{fn_name}` names a \
                                     physical quantity with no unit — add a unit suffix \
                                     (`{name}_ns`, `{name}_gbps`, …) or take a newtype"
                                ),
                            );
                        }
                    }
                }
                _ => {}
            }
            k += 1;
        }
        i = close + 1;
    }
}

/// Unit-safety (expressions): identifiers implying *different* units
/// combined additively or compared in one expression. `guard_ns +
/// settle_ps` is a latent off-by-1000; multiplication/division are
/// legitimate dimensional arithmetic and exempt.
fn mixed_unit_pass(p: &mut Pass<'_, '_>) {
    if !p.ctx.unit_expr {
        return;
    }
    for i in 1..p.sig.len() {
        if !p.live(i) || p.kind(i) != Some(Kind::Punct) {
            continue;
        }
        if !matches!(
            p.text(i),
            "+" | "-" | "+=" | "-=" | "<" | ">" | "<=" | ">=" | "==" | "!="
        ) {
            continue;
        }
        // Nearest identifier on each side, within the expression.
        let left = (0..i)
            .rev()
            .take(8)
            .take_while(|&k| !matches!(p.text(k), ";" | "{" | "}" | ","))
            .find(|&k| p.kind(k) == Some(Kind::Ident));
        let right = (i + 1..p.sig.len())
            .take(8)
            .take_while(|&k| !matches!(p.text(k), ";" | "{" | "}" | ","))
            .find(|&k| p.kind(k) == Some(Kind::Ident));
        let (Some(l), Some(r)) = (left, right) else {
            continue;
        };
        let (Some(lu), Some(ru)) = (unit_of(p.text(l)), unit_of(p.text(r))) else {
            continue;
        };
        if lu != ru {
            p.emit(
                Rule::MixedUnit,
                i,
                format!(
                    "`{}` ({lu}) and `{}` ({ru}) combined with `{}` — mixed units in one \
                     expression; convert explicitly first",
                    p.text(l),
                    p.text(r),
                    p.text(i)
                ),
            );
        }
    }
}

/// Process-exit and ad-hoc-bin rules (harness discipline).
fn harness_pass(p: &mut Pass<'_, '_>) {
    for i in 0..p.sig.len() {
        if !p.live(i) || p.kind(i) != Some(Kind::Ident) {
            continue;
        }
        if p.ctx.exit_scope
            && p.text(i) == "process"
            && p.text(i + 1) == "::"
            && p.is_ident(i + 2, "exit")
        {
            p.emit(
                Rule::ProcessExit,
                i,
                "`process::exit` in library code; return an error and let the binary exit"
                    .to_string(),
            );
        }
        if p.ctx.bin_harness {
            let pat = if p.text(i) == "env" && p.text(i + 1) == "::" && p.is_ident(i + 2, "args") {
                Some("env::args")
            } else if p.text(i) == "Args" && p.text(i + 1) == "::" && p.is_ident(i + 2, "parse") {
                Some("Args::parse")
            } else if p.text(i) == "Sweep" && p.text(i + 1) == "::" {
                Some("Sweep::")
            } else {
                None
            };
            if let Some(pat) = pat {
                p.emit(
                    Rule::AdHocBin,
                    i,
                    format!(
                        "`{pat}` in the bench binary; it is a thin wrapper — declare \
                         the knob on the experiment spec and dispatch through baldur_bench::main"
                    ),
                );
            }
        }
    }
}

/// `==`/`!=` against a float literal (either side), in any crate.
fn float_literal_pass(p: &mut Pass<'_, '_>) {
    for i in 0..p.sig.len() {
        if !p.live(i) || !matches!(p.text(i), "==" | "!=") {
            continue;
        }
        let next_float = match p.kind(i + 1) {
            Some(Kind::Float) => true,
            Some(Kind::Punct) if p.text(i + 1) == "-" => p.kind(i + 2) == Some(Kind::Float),
            _ => false,
        };
        let prev_float = i > 0 && p.kind(i - 1) == Some(Kind::Float);
        if next_float || prev_float {
            p.emit(
                Rule::FloatLiteralEq,
                i,
                format!(
                    "`{}` against a float literal; compare with a tolerance",
                    p.text(i)
                ),
            );
        }
    }
}
