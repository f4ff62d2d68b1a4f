//! The custom static-analysis pass: simulator-specific lint rules that
//! `cargo clippy` cannot express, implemented over a real token stream
//! ([`crate::lex`]), a lightweight item parser ([`crate::items`]), and a
//! workspace call graph ([`crate::callgraph`]) so they run without any
//! external dependency.
//!
//! ## Rules
//!
//! Per-file (token-level) rules:
//!
//! * `no-unwrap` — `.unwrap()` / `.expect(...)` are forbidden in library
//!   code under `crates/*/src`. Panics in the simulator's libraries abort
//!   long experiment sweeps; fallible paths must return `Option`/`Result`
//!   (or carry an `xtask-allow` justification for genuine invariants).
//!   Tests, examples, benches, `src/bin/` binaries, and `#[cfg(test)]`
//!   modules are exempt.
//! * `no-lossy-cast` — value-truncating `as` casts (to any integer type or
//!   `f32`) are forbidden in the accounting-critical modules (`alloc.rs`,
//!   `waterfill.rs`, `resources.rs`, `stats.rs`, `mshr.rs`): a silently
//!   wrapping cast in resource bookkeeping skews every reproduced figure
//!   without failing a test. Use `From`/`try_from` or widen the type.
//! * `no-float-eq` — direct `==`/`!=` against a floating-point literal.
//!   IPC and normalized-performance values accumulate rounding error;
//!   compare with an epsilon instead.
//! * `module-docs` — every library source file must open with `//!` module
//!   documentation before its first item.
//! * `no-index-panic` — direct index expressions (`x[i]`) are forbidden in
//!   the static-analyzer crate (`crates/analysis`) and in the water-filling
//!   kernel (`crates/core/src/waterfill.rs`): both sit on the verification
//!   path, where an out-of-bounds panic would take down the very gate meant
//!   to catch malformed inputs. Use `get`/`get_mut`, iterators, or
//!   destructuring (or carry an `xtask-allow` justification).
//! * `no-unchecked-spawn` — in the execution layer (`crates/exec`), raw
//!   `thread::spawn` is forbidden (persistent workers use a named
//!   `Builder` whose handle is kept and joined on `Drop`), and discarding
//!   the result of `.join(…)`, `.spawn(…)`, `.recv(…)`, or `.try_recv(…)`
//!   (via `.ok()` or a `let _` binding) is flagged: a swallowed worker
//!   panic or channel disconnect breaks the determinism contract. The send
//!   side (`let _ = tx.send(…)`) stays allowed — a dropped receiver is
//!   routine shutdown, and completion accounting happens before the send.
//! * `determinism` — in the simulator core and the accounting layer
//!   (`crates/gpu-sim/src`, `crates/core/src`), iteration over a
//!   `HashMap`/`HashSet` (`.iter()`, `.keys()`, `.drain()`, a `for` loop
//!   over one, …), wall-clock reads (`Instant::now`, `SystemTime`),
//!   `thread::current`, and pointer-identity hashing (`ptr::hash`) are
//!   forbidden: each one lets host state leak into simulated results,
//!   breaking the byte-for-byte determinism contract (DESIGN.md §10). Use
//!   `BTreeMap`/`BTreeSet` or an index-keyed `Vec`. Waivers for this rule
//!   **require a justification** (`// <why>; xtask-allow: determinism` or
//!   `// xtask-allow: determinism -- <why>`).
//! * `no-global-state` — in the simulator, the accounting layer and the
//!   analyzer (`crates/gpu-sim/src`, `crates/core/src`,
//!   `crates/analysis/src`), `thread_local!`, `static mut`, and `static`
//!   items of an interior-mutable type (`Mutex`, `RwLock`, `RefCell`,
//!   `Cell`, `OnceLock`/`LazyLock`, atomics, …) are forbidden. Such state
//!   outlives the values it describes and is shared by every run in the
//!   process: a cache kept there grows with every fresh input and can
//!   answer one run with another's state. Keep it in the value it describes
//!   (as the kept program walk and signature are). Waivers require a
//!   justification, as for `determinism`.
//!
//! Transitive (call-graph) rules — seeded at entry points and applied to
//! every function reachable from a seed, with the concrete call chain
//! reported in the diagnostic:
//!
//! * `no-tick-alloc` — heap allocation (`Vec::new`, `vec![…]`,
//!   `…::with_capacity`, `Box::new`, `.collect()`, `.to_vec()`,
//!   `format!`, `String::from`, the map-entry growth calls
//!   `.or_default()` / `.or_insert_with(…)`, which insert a fresh value
//!   and node on every miss, and the pool misses
//!   `.pop().unwrap_or_default()` / `.pop().unwrap_or_else(…)`, which make
//!   a fresh value whenever the pool is empty) is forbidden in any function reachable
//!   from a per-cycle tick entry point ([`TICK_SEEDS`]) whose body lives
//!   under `crates/gpu-sim/src` or in the ws-trace audit channel
//!   `crates/core/src/audit.rs`. These run millions of times per
//!   experiment; an allocation there is invisible in tests but dominates
//!   sweep wall-clock (DESIGN.md §9). Reuse a member or caller-owned
//!   buffer (`std::mem::take` + `clear` is fine).
//! * `panic-free-accounting` — `unwrap`/`expect`, the `panic!`-family
//!   macros (`panic!`, `todo!`, `unimplemented!`, `unreachable!`), and
//!   direct index expressions are forbidden in any function reachable
//!   from the water-filling / metrics / allocator / ws-predict entry
//!   points ([`ACCOUNTING_SEEDS`]), scoped to `crates/gpu-sim/src`,
//!   `crates/core/src`, and `crates/analysis/src`: these compute the
//!   paper's headline numbers and pick the pruned sweep window, and a
//!   panic there takes down a whole sweep. `assert!` / `debug_assert!`
//!   remain fine — invariant checks are the point.
//!
//! Call-graph resolution is conservative (see [`crate::callgraph`]):
//! "reachable" over-approximates, so a finding may name a chain that a
//! human can prove dead — waive it with a justification rather than
//! narrowing the engine.
//!
//! Any finding is suppressed by a `// xtask-allow: <rule>` comment on the
//! same line or the line immediately above (for `module-docs`: on the first
//! line of the file). Multiple rules may be listed, comma-separated; the
//! `determinism` and `no-global-state` rules additionally require the
//! waiver to carry a justification.

use std::collections::BTreeSet;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::callgraph::CallGraph;
use crate::items::{self, CallSite, FileItems};
use crate::lex::TokenKind;

/// Names of every rule, for help text.
pub const RULE_NAMES: [&str; 10] = [
    "no-unwrap",
    "no-lossy-cast",
    "no-float-eq",
    "module-docs",
    "no-index-panic",
    "no-unchecked-spawn",
    "no-tick-alloc",
    "determinism",
    "no-global-state",
    "panic-free-accounting",
];

/// Rules whose waivers must carry a justification.
const JUSTIFIED_RULES: [&str; 2] = ["determinism", "no-global-state"];

/// Functions on the simulator's per-cycle hot path. Every name here must be
/// reachable from [`TICK_SEEDS`] in the workspace call graph (a unit test
/// asserts it), so the transitive `no-tick-alloc` rule covers at least the
/// surface the old per-name rule did.
#[cfg_attr(not(test), allow(dead_code))]
pub const TICK_PATH_FNS: [&str; 33] = [
    "tick",
    "tick_fast_forward",
    "fast_forward",
    "on_fill",
    "on_fill_batch",
    "next_event",
    "account_skip",
    "classify_stall",
    "compute_horizon",
    "drain_completions_into",
    "record",
    "record_stall_window",
    "refresh_warp",
    "select",
    "l2_slice_tick",
    "classify_issue",
    "head_waiting",
    "advance",
    "migrate",
    "rebuild",
    "reschedule",
    "place",
    "avail_mask",
    "min_head_ready",
    "fetch_due",
    "next_fetch",
    "stall_reason",
    "refresh_fetch",
    "refresh_head",
    "release_barrier",
    "write_fetch",
    "register",
    "complete_into",
];

/// Seed functions for the transitive `no-tick-alloc` rule: the per-cycle
/// entry points of the simulator core and the trace/audit record sinks.
/// Everything reachable from these inside `crates/gpu-sim/src` (plus
/// `crates/core/src/audit.rs`) is tick-path.
pub const TICK_SEEDS: [(&str, &str); 11] = [
    ("Gpu", "tick"),
    ("Gpu", "fast_forward"),
    ("Gpu", "tick_fast_forward"),
    ("Sm", "tick"),
    ("Sm", "on_fill"),
    ("Sm", "on_fill_batch"),
    ("Sm", "drain_completions_into"),
    ("MemSubsystem", "tick"),
    ("TraceSink", "record"),
    ("TraceSink", "record_stall_window"),
    ("DecisionAudit", "record"),
];

/// Seed functions for the transitive `panic-free-accounting` rule: the
/// water-filling partitioner, the Decider's plan, sample-round and
/// decision rules, the headline metrics, the resource allocator, the
/// ws-predict analyzer, and the ws-store curve cache and its key encoder —
/// the call trees that compute the paper's numbers, decide
/// how much of the sweep gets sampled, and serve memoized curves on the
/// decision path.
pub const ACCOUNTING_SEEDS: [(Option<&str>, &str); 28] = [
    (Some("LinearAllocator"), "alloc"),
    (Some("LinearAllocator"), "alloc_in_window"),
    (Some("LinearAllocator"), "free"),
    (Some("LinearAllocator"), "free_in_window"),
    (Some("LinearAllocator"), "largest_free"),
    (Some("LinearAllocator"), "largest_free_in_window"),
    (Some("SmResources"), "try_alloc"),
    (Some("SmResources"), "free"),
    (Some("SweepPlan"), "from_predictions"),
    (Some("Decider"), "plan"),
    (Some("Decider"), "decide"),
    (Some("SampleRounds"), "sample"),
    (None, "water_fill"),
    (None, "brute_force"),
    (None, "speedups"),
    (None, "fairness"),
    (None, "antt"),
    (None, "system_throughput"),
    (None, "predict_kernel"),
    (None, "predict_curve"),
    (None, "extract_features"),
    (None, "miss_profile"),
    (None, "accept_pruned"),
    (Some("CurveStore"), "lookup"),
    (Some("CurveStore"), "insert"),
    (Some("CurveStore"), "evict_oldest"),
    (Some("KernelSignature"), "derive"),
    (Some("KernelSignature"), "from_features"),
];

/// Method names whose call on a `HashMap`/`HashSet` binding observes (or
/// depends on) the container's nondeterministic iteration order.
const UNORDERED_ITER_METHODS: [&str; 10] = [
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
    "retain",
];

/// Standard types with interior mutability: a `static` of one is mutable
/// process-global state. Atomics (`Atomic*`) are matched by prefix.
const INTERIOR_MUTABLE_TYPES: [&str; 9] = [
    "Mutex",
    "RwLock",
    "RefCell",
    "Cell",
    "UnsafeCell",
    "OnceCell",
    "OnceLock",
    "LazyCell",
    "LazyLock",
];

/// Keywords that may legitimately precede a `[` starting an array literal or
/// slice pattern; a `[` after one of these is not an index expression.
const INDEX_EXEMPT_KEYWORDS: [&str; 14] = [
    "return", "in", "let", "mut", "ref", "box", "move", "else", "match", "break", "as", "dyn",
    "const", "static",
];

/// File names (within `crates/*/src`) whose arithmetic is load-bearing for
/// the paper's accounting; `no-lossy-cast` applies only to these.
const ACCOUNTING_MODULES: [&str; 5] = [
    "alloc.rs",
    "waterfill.rs",
    "resources.rs",
    "stats.rs",
    "mshr.rs",
];

/// Cast targets considered lossy. `f64` is deliberately absent: every
/// integer the simulator casts into `f64` (cycle counts, CTA counts) is far
/// below 2^53.
const LOSSY_CAST_TARGETS: [&str; 13] = [
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize", "f32",
];

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Rule identifier (one of [`RULE_NAMES`]).
    pub rule: &'static str,
    /// Path as reported (workspace-relative when walking the workspace).
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Human-oriented explanation.
    pub message: String,
    /// For transitive rules: the call chain from a seed to the function
    /// containing the finding (qualified names, seed first). Empty for
    /// per-file rules.
    pub chain: Vec<String>,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )?;
        if !self.chain.is_empty() {
            write!(f, " [chain: {}]", self.chain.join(" -> "))?;
        }
        Ok(())
    }
}

/// Read-only accessor over a file's significant tokens.
struct Toks<'a> {
    src: &'a str,
    items: &'a FileItems,
}

impl<'a> Toks<'a> {
    fn len(&self) -> usize {
        self.items.sig.len()
    }

    fn text(&self, s: usize) -> &'a str {
        self.items
            .sig
            .get(s)
            .and_then(|&i| self.items.tokens.get(i))
            .map_or("", |t| t.text(self.src))
    }

    fn kind(&self, s: usize) -> Option<TokenKind> {
        self.items
            .sig
            .get(s)
            .and_then(|&i| self.items.tokens.get(i))
            .map(|t| t.kind)
    }

    fn line(&self, s: usize) -> u32 {
        self.items
            .sig
            .get(s)
            .and_then(|&i| self.items.tokens.get(i))
            .map_or(0, |t| t.line)
    }
}

/// Pushes a finding unless a waiver covers it. Waivers of the
/// [`JUSTIFIED_RULES`] must carry a justification; a bare one converts the
/// finding instead of silencing it.
fn emit(
    out: &mut Vec<Violation>,
    items: &FileItems,
    rule: &'static str,
    file: &str,
    line: u32,
    message: String,
    chain: Vec<String>,
) {
    if let Some(allow) = items.allow_for(line, rule) {
        if JUSTIFIED_RULES.contains(&rule) && allow.justification.is_none() {
            out.push(Violation {
                rule,
                file: file.to_string(),
                line: line as usize,
                message: format!(
                    "{message} — the waiver is present but `{rule}` waivers require a \
                     justification (`// <why>; xtask-allow: {rule}` or \
                     `// xtask-allow: {rule} -- <why>`)"
                ),
                chain,
            });
        }
        return;
    }
    out.push(Violation {
        rule,
        file: file.to_string(),
        line: line as usize,
        message,
        chain,
    });
}

/// Whether the `[` at sig index `i` begins an index expression (something
/// panickable) rather than an array literal, slice pattern, type, attribute,
/// or macro delimiter.
fn is_index_expression(t: &Toks<'_>, i: usize) -> bool {
    let Some(j) = i.checked_sub(1) else {
        return false;
    };
    let prev = t.text(j);
    match t.kind(j) {
        Some(TokenKind::Ident) => !INDEX_EXEMPT_KEYWORDS.contains(&prev),
        Some(TokenKind::Punct) => prev == ")" || prev == "]",
        _ => false,
    }
}

/// Whether a sig-index neighbourhood of a `==`/`!=` at `i` contains a float
/// literal operand (looking through a unary minus on the right).
fn float_operand(t: &Toks<'_>, i: usize) -> bool {
    let left = i
        .checked_sub(1)
        .is_some_and(|j| t.kind(j) == Some(TokenKind::Float));
    let mut r = i + 1;
    if t.text(r) == "-" {
        r += 1;
    }
    left || t.kind(r) == Some(TokenKind::Float)
}

/// The process-global state the item at sig index `i` declares, if it is a
/// `thread_local!`, a `static mut`, or a `static` whose type names an
/// interior-mutable type; rendered for the diagnostic.
fn global_state(t: &Toks<'_>, i: usize) -> Option<String> {
    if t.kind(i) != Some(TokenKind::Ident) {
        return None;
    }
    match t.text(i) {
        "thread_local" if t.text(i + 1) == "!" => Some("`thread_local!`".to_string()),
        "static" if t.text(i + 1) == "mut" => Some("`static mut`".to_string()),
        "static" => {
            // The name, the `:` and the type run up to the initializer's
            // `=` (or the `;` of an extern static).
            let mut j = i + 1;
            loop {
                let ty = t.text(j);
                if matches!(ty, "=" | ";" | "") {
                    return None;
                }
                if INTERIOR_MUTABLE_TYPES.contains(&ty) || ty.starts_with("Atomic") {
                    return Some(format!("`static` of type `{ty}`"));
                }
                j += 1;
            }
        }
        _ => None,
    }
}

/// The per-file (token-level) rules.
fn per_file_rules(label: &str, src: &str, items: &FileItems, out: &mut Vec<Violation>) {
    let t = Toks { src, items };
    let file_name = Path::new(label)
        .file_name()
        .and_then(|n| n.to_str())
        .unwrap_or("");
    let is_bin = label.contains("/bin/");
    let check_unwrap = !is_bin;
    let check_casts = ACCOUNTING_MODULES.contains(&file_name);
    let check_index =
        label.contains("crates/analysis/") || label.ends_with("crates/core/src/waterfill.rs");
    let check_spawn = label.contains("crates/exec/");
    let check_det =
        !is_bin && (label.contains("crates/gpu-sim/src") || label.contains("crates/core/src"));
    let check_state = check_det || (!is_bin && label.contains("crates/analysis/src"));

    // module-docs: a `//!` must appear before the first item.
    if !items.has_module_docs && !items.sig.is_empty() {
        emit(
            out,
            items,
            "module-docs",
            label,
            1,
            "missing `//!` module documentation before the first item".to_string(),
            Vec::new(),
        );
    }

    for i in 0..t.len() {
        let line = t.line(i);
        if items.in_test(line) {
            continue;
        }
        let txt = t.text(i);
        if check_unwrap
            && txt == "."
            && matches!(t.text(i + 1), "unwrap" | "expect")
            && t.text(i + 2) == "("
        {
            emit(
                out,
                items,
                "no-unwrap",
                label,
                t.line(i + 1),
                format!(
                    "`.{}(…)` in library code; return Option/Result or justify with \
                     `// xtask-allow: no-unwrap`",
                    t.text(i + 1)
                ),
                Vec::new(),
            );
        }
        if check_casts && txt == "as" && t.kind(i) == Some(TokenKind::Ident) {
            let target = t.text(i + 1);
            if LOSSY_CAST_TARGETS.contains(&target) {
                emit(
                    out,
                    items,
                    "no-lossy-cast",
                    label,
                    line,
                    format!(
                        "lossy `as {target}` cast in accounting-critical module; use \
                         `From`/`try_from` or widen, or justify with \
                         `// xtask-allow: no-lossy-cast`"
                    ),
                    Vec::new(),
                );
            }
        }
        if matches!(txt, "==" | "!=") && float_operand(&t, i) {
            emit(
                out,
                items,
                "no-float-eq",
                label,
                line,
                format!(
                    "direct floating-point `{txt}` comparison; use an epsilon (rounding \
                     error accumulates in IPC/perf values) or justify with \
                     `// xtask-allow: no-float-eq`"
                ),
                Vec::new(),
            );
        }
        if check_index && txt == "[" && is_index_expression(&t, i) {
            emit(
                out,
                items,
                "no-index-panic",
                label,
                line,
                "direct index expression can panic on the verification path; use \
                 `get`/iterators/destructuring or justify with \
                 `// xtask-allow: no-index-panic`"
                    .to_string(),
                Vec::new(),
            );
        }
        if check_spawn {
            if txt == "thread" && t.text(i + 1) == "::" && t.text(i + 2) == "spawn" {
                emit(
                    out,
                    items,
                    "no-unchecked-spawn",
                    label,
                    line,
                    "raw `thread::spawn` in the execution layer; use a named \
                     `thread::Builder` whose handle is kept and joined on shutdown \
                     (or a `std::thread::scope`), or justify with \
                     `// xtask-allow: no-unchecked-spawn`"
                        .to_string(),
                    Vec::new(),
                );
            }
            let method = t.text(i + 1);
            if txt == "."
                && matches!(method, "join" | "spawn" | "recv" | "try_recv")
                && t.text(i + 2) == "("
            {
                // `.join().ok()`, `.spawn(f).ok()`, `.recv().ok()` — scan to
                // the matching close paren, then look for a swallowing `.ok`.
                let mut depth = 0usize;
                let mut j = i + 2;
                let close = loop {
                    match t.text(j) {
                        "(" => depth += 1,
                        ")" => {
                            depth -= 1;
                            if depth == 0 {
                                break Some(j);
                            }
                        }
                        "" => break None,
                        _ => {}
                    }
                    j += 1;
                };
                let swallowed =
                    close.is_some_and(|c| t.text(c + 1) == "." && t.text(c + 2) == "ok");
                // `let _ = handle.join(…)` — walk back to the statement start.
                let mut discarded = false;
                let mut j = i;
                while j > 0 {
                    j -= 1;
                    match t.text(j) {
                        ";" | "{" | "}" => break,
                        "let" if t.text(j + 1) == "_" => {
                            discarded = true;
                            break;
                        }
                        _ => {}
                    }
                }
                if swallowed || discarded {
                    let what = match method {
                        "join" => "join handle result",
                        "spawn" => "spawn handle",
                        _ => "completion-channel receive",
                    };
                    emit(
                        out,
                        items,
                        "no-unchecked-spawn",
                        label,
                        line,
                        format!(
                            "discarded {what} in the execution layer; a swallowed worker \
                             panic or channel disconnect breaks the determinism contract — \
                             handle it or justify with `// xtask-allow: no-unchecked-spawn`"
                        ),
                        Vec::new(),
                    );
                }
            }
        }
        if check_state {
            if let Some(what) = global_state(&t, i) {
                emit(
                    out,
                    items,
                    "no-global-state",
                    label,
                    line,
                    format!(
                        "{what} is process-global state: it outlives the values it \
                         describes and is shared by every run, so a cache there grows with \
                         every fresh input; keep the state in the value it describes, or \
                         justify with `// <why>; xtask-allow: no-global-state`"
                    ),
                    Vec::new(),
                );
            }
        }
        if check_det {
            let wall_clock = (txt == "Instant" && t.text(i + 1) == "::" && t.text(i + 2) == "now")
                || txt == "SystemTime";
            let host_thread =
                txt == "thread" && t.text(i + 1) == "::" && t.text(i + 2) == "current";
            let ptr_hash = txt == "ptr" && t.text(i + 1) == "::" && t.text(i + 2) == "hash";
            if wall_clock || host_thread || ptr_hash {
                let what = if wall_clock {
                    "wall-clock time"
                } else if host_thread {
                    "host thread identity"
                } else {
                    "pointer-identity hashing"
                };
                emit(
                    out,
                    items,
                    "determinism",
                    label,
                    line,
                    format!(
                        "`{txt}` leaks {what} into simulator state, breaking byte-for-byte \
                         determinism; derive the value from simulated state instead"
                    ),
                    Vec::new(),
                );
            }
        }
    }

    if check_det {
        determinism_iteration_rules(label, items, out);
    }
}

/// The iteration-order half of the `determinism` rule: method calls and
/// `for` loops over bindings declared as `HashMap`/`HashSet`.
fn determinism_iteration_rules(label: &str, items: &FileItems, out: &mut Vec<Violation>) {
    if items.hash_idents.is_empty() {
        return;
    }
    // One finding per line: a `for (k, v) in m.iter()` header would
    // otherwise fire twice (once for the call, once for the loop).
    let mut flagged: BTreeSet<u32> = BTreeSet::new();
    for f in &items.fns {
        if f.in_test {
            continue;
        }
        for c in &f.calls {
            if !c.is_method || !UNORDERED_ITER_METHODS.contains(&c.name()) {
                continue;
            }
            let Some(recv) = &c.recv else { continue };
            if items.hash_idents.contains(recv) && flagged.insert(c.line) {
                emit(
                    out,
                    items,
                    "determinism",
                    label,
                    c.line,
                    format!(
                        "`.{}()` observes the nondeterministic iteration order of \
                         `HashMap`/`HashSet` binding `{recv}`; use `BTreeMap`/`BTreeSet` \
                         or an index-keyed `Vec`",
                        c.name()
                    ),
                    Vec::new(),
                );
            }
        }
    }
    for fl in &items.for_loops {
        if fl.in_test || !flagged.insert(fl.line) {
            continue;
        }
        if let Some(ident) = fl
            .expr_idents
            .iter()
            .find(|id| items.hash_idents.contains(*id))
        {
            emit(
                out,
                items,
                "determinism",
                label,
                fl.line,
                format!(
                    "`for` loop iterates `HashMap`/`HashSet` binding `{ident}` in \
                     nondeterministic order; use `BTreeMap`/`BTreeSet` or an index-keyed \
                     `Vec`"
                ),
                Vec::new(),
            );
        }
    }
}

/// The allocation pattern a call site matches on the tick path, if any,
/// rendered for the diagnostic.
fn tick_alloc_pattern(c: &CallSite) -> Option<String> {
    if c.is_macro {
        return matches!(c.name(), "vec!" | "format!").then(|| format!("{}(…)", c.path));
    }
    if c.is_method {
        // A pool miss: `pool.pop().unwrap_or_default()` (or `_else`) makes
        // a fresh value whenever the pool has run dry.
        if matches!(c.name(), "unwrap_or_default" | "unwrap_or_else")
            && c.chained_on.as_deref() == Some("pop")
        {
            return Some(format!(".pop().{}()", c.path));
        }
        return matches!(
            c.name(),
            "to_vec" | "collect" | "or_default" | "or_insert_with"
        )
        .then(|| format!(".{}()", c.path));
    }
    let name = c.name();
    let qual = c.path.rsplit("::").nth(1).unwrap_or("");
    let hit = (name == "with_capacity" && c.path.contains("::"))
        || matches!(
            (qual, name),
            ("Vec", "new") | ("Box", "new") | ("String", "from")
        );
    hit.then(|| format!("{}(…)", c.path))
}

/// The panic pattern a call site matches in accounting code, if any.
fn panic_pattern(c: &CallSite) -> Option<String> {
    if c.is_macro {
        return matches!(
            c.name(),
            "panic!" | "todo!" | "unimplemented!" | "unreachable!"
        )
        .then(|| format!("{}(…)", c.path));
    }
    if c.is_method {
        return matches!(c.name(), "unwrap" | "expect").then(|| format!(".{}()", c.path));
    }
    None
}

/// The transitive rules: builds the workspace call graph, runs reachability
/// from each seed set, and scans the bodies of reached functions.
fn graph_rules(
    files: &[(String, String)],
    parsed: &[(String, FileItems)],
    out: &mut Vec<Violation>,
) {
    let graph = CallGraph::build(parsed);

    // no-tick-alloc: allocation reachable from a per-cycle entry point.
    let mut seeds = Vec::new();
    for (ty, name) in TICK_SEEDS {
        seeds.extend(graph.find(parsed, Some(ty), name));
    }
    let reach = graph.reachable(&seeds);
    for id in reach.iter() {
        let node = &graph.nodes[id];
        let Some((label, items)) = parsed.get(node.file) else {
            continue;
        };
        if !(label.contains("crates/gpu-sim/src") || label.ends_with("crates/core/src/audit.rs")) {
            continue;
        }
        let Some(f) = items.fns.get(node.fn_idx) else {
            continue;
        };
        let chain = reach.chain(&graph, id);
        for c in &f.calls {
            if let Some(what) = tick_alloc_pattern(c) {
                emit(
                    out,
                    items,
                    "no-tick-alloc",
                    label,
                    c.line,
                    format!(
                        "`{what}` allocates inside a function reachable from a per-cycle \
                         tick entry point; reuse a member or caller-owned buffer, or \
                         justify with `// xtask-allow: no-tick-alloc`"
                    ),
                    chain.clone(),
                );
            }
        }
    }

    // panic-free-accounting: panics reachable from the accounting entry
    // points.
    let mut seeds = Vec::new();
    for (ty, name) in ACCOUNTING_SEEDS {
        seeds.extend(graph.find(parsed, ty, name));
    }
    let reach = graph.reachable(&seeds);
    for id in reach.iter() {
        let node = &graph.nodes[id];
        let Some((label, items)) = parsed.get(node.file) else {
            continue;
        };
        if label.contains("/bin/")
            || !(label.contains("crates/gpu-sim/src")
                || label.contains("crates/core/src")
                || label.contains("crates/analysis/src"))
        {
            continue;
        }
        let Some(f) = items.fns.get(node.fn_idx) else {
            continue;
        };
        let chain = reach.chain(&graph, id);
        for c in &f.calls {
            if let Some(what) = panic_pattern(c) {
                emit(
                    out,
                    items,
                    "panic-free-accounting",
                    label,
                    c.line,
                    format!(
                        "`{what}` can panic inside the accounting call tree; return \
                         Option/Result (or justify with \
                         `// xtask-allow: panic-free-accounting`)"
                    ),
                    chain.clone(),
                );
            }
        }
        // Direct index expressions within the body's line span.
        let Some((body_start, body_end)) = f.body_lines else {
            continue;
        };
        let Some(src) = files.get(node.file).map(|(_, s)| s.as_str()) else {
            continue;
        };
        let t = Toks { src, items };
        for i in 0..t.len() {
            let line = t.line(i);
            if line < body_start || line > body_end || items.in_test(line) {
                continue;
            }
            if t.text(i) == "[" && is_index_expression(&t, i) {
                emit(
                    out,
                    items,
                    "panic-free-accounting",
                    label,
                    line,
                    "direct index expression can panic inside the accounting call tree; \
                     use `get`/iterators/destructuring or justify with \
                     `// xtask-allow: panic-free-accounting`"
                        .to_string(),
                    chain.clone(),
                );
            }
        }
    }
}

/// Lints a set of (path label, source text) files as one workspace: all
/// per-file rules plus the call-graph rules, findings sorted by path, line,
/// and rule, deduplicated.
#[must_use]
pub fn lint_files(files: &[(String, String)]) -> Vec<Violation> {
    let parsed: Vec<(String, FileItems)> = files
        .iter()
        .map(|(p, s)| (p.clone(), items::parse(s)))
        .collect();
    let mut out = Vec::new();
    for ((label, src), (_, items)) in files.iter().zip(&parsed) {
        per_file_rules(label, src, items, &mut out);
    }
    graph_rules(files, &parsed, &mut out);
    out.sort_by(|a, b| {
        (&a.file, a.line, a.rule, &a.message).cmp(&(&b.file, b.line, b.rule, &b.message))
    });
    // Overlapping function bodies (nested fns) can make the transitive
    // body scan visit a line twice; the chain may differ, the finding does
    // not. Per-file rules keep one finding per expression, so only the
    // transitive rule deduplicates.
    out.dedup_by(|a, b| {
        a.rule == "panic-free-accounting"
            && a.rule == b.rule
            && a.file == b.file
            && a.line == b.line
            && a.message == b.message
    });
    out
}

/// Lints one source file's text. `file` is the path used in reports; rule
/// applicability (accounting module, binary, crate scopes) is derived from
/// it. Transitive rules see only this one file.
#[must_use]
#[cfg_attr(not(test), allow(dead_code))]
pub fn scan_source(file: &str, src: &str) -> Vec<Violation> {
    lint_files(&[(file.to_string(), src.to_string())])
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Reads every library source under `<root>/crates/*/src` and `<root>/src`
/// as (workspace-relative label, text) pairs, sorted by path.
pub fn workspace_files(root: &Path) -> io::Result<Vec<(String, String)>> {
    let mut paths = Vec::new();
    let crates_dir = root.join("crates");
    for entry in fs::read_dir(&crates_dir)? {
        let src = entry?.path().join("src");
        if src.is_dir() {
            collect_rs_files(&src, &mut paths)?;
        }
    }
    let root_src = root.join("src");
    if root_src.is_dir() {
        collect_rs_files(&root_src, &mut paths)?;
    }
    paths.sort();
    let mut files = Vec::new();
    for path in paths {
        let text = fs::read_to_string(&path)?;
        let label = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        files.push((label, text));
    }
    Ok(files)
}

/// Lints every library source under `<root>/crates/*/src` and `<root>/src`,
/// returning findings sorted by path and line.
#[cfg_attr(not(test), allow(dead_code))]
pub fn lint_workspace(root: &Path) -> io::Result<Vec<Violation>> {
    Ok(lint_files(&workspace_files(root)?))
}

/// Renders findings as JSON Lines: one `lint_report` header record followed
/// by one `violation` record per finding. Shares its string escaping with
/// the simulator's trace writer (`warped_slicer::tracefmt`).
#[must_use]
pub fn report_jsonl(violations: &[Violation], files_scanned: usize) -> String {
    use std::fmt::Write as _;
    use warped_slicer::tracefmt::esc;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{{\"type\":\"lint_report\",\"schema\":1,\"files_scanned\":{files_scanned},\
         \"violations\":{}}}",
        violations.len()
    );
    for v in violations {
        let chain: Vec<String> = v.chain.iter().map(|c| format!("\"{}\"", esc(c))).collect();
        let _ = writeln!(
            out,
            "{{\"type\":\"violation\",\"rule\":\"{}\",\"file\":\"{}\",\"line\":{},\
             \"message\":\"{}\",\"chain\":[{}]}}",
            esc(v.rule),
            esc(&v.file),
            v.line,
            esc(&v.message),
            chain.join(",")
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_found(file: &str, src: &str) -> Vec<&'static str> {
        scan_source(file, src).into_iter().map(|v| v.rule).collect()
    }

    const DOC: &str = "//! Docs.\n";

    #[test]
    fn unwrap_in_library_code_is_flagged() {
        let src = format!("{DOC}fn f() {{ let x = Some(1).unwrap(); }}\n");
        let v = scan_source("crates/x/src/a.rs", &src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "no-unwrap");
        assert_eq!(v[0].line, 2);
    }

    #[test]
    fn expect_is_flagged_and_named() {
        let src = format!("{DOC}fn f() {{ std::fs::read(\"x\").expect(\"boom\"); }}\n");
        let v = scan_source("crates/x/src/a.rs", &src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "no-unwrap");
        assert!(v[0].message.contains("expect"));
    }

    #[test]
    fn unwrap_or_variants_are_fine() {
        let src =
            format!("{DOC}fn f() {{ let _ = None.unwrap_or(1) + Some(2).unwrap_or_default(); }}\n");
        assert!(rules_found("crates/x/src/a.rs", &src).is_empty());
    }

    #[test]
    fn unwrap_inside_cfg_test_is_fine() {
        let src = format!(
            "{DOC}fn lib() {{}}\n\n#[cfg(test)]\nmod tests {{\n    #[test]\n    fn t() {{ \
             Some(1).unwrap(); }}\n}}\n"
        );
        assert!(rules_found("crates/x/src/a.rs", &src).is_empty());
    }

    #[test]
    fn unwrap_after_cfg_test_region_is_flagged() {
        let src = format!(
            "{DOC}#[cfg(test)]\nmod tests {{\n    fn t() {{ Some(1).unwrap(); }}\n}}\n\
             fn lib() {{ Some(1).unwrap(); }}\n"
        );
        let v = scan_source("crates/x/src/a.rs", &src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 6, "the post-module unwrap, not the test one");
    }

    #[test]
    fn unwrap_in_string_or_comment_is_fine() {
        let src = format!(
            "{DOC}fn f() {{\n    // calling .unwrap() here would be wrong\n    let _ = \
             \".unwrap()\";\n}}\n"
        );
        assert!(rules_found("crates/x/src/a.rs", &src).is_empty());
    }

    #[test]
    fn unwrap_in_binary_is_fine() {
        let src = format!("{DOC}fn main() {{ std::env::args().next().unwrap(); }}\n");
        assert!(rules_found("crates/x/src/bin/tool.rs", &src).is_empty());
    }

    #[test]
    fn allow_comment_suppresses_same_line_and_previous_line() {
        let same = format!("{DOC}fn f() {{ Some(1).unwrap(); }} // xtask-allow: no-unwrap\n");
        assert!(rules_found("crates/x/src/a.rs", &same).is_empty());
        let above = format!(
            "{DOC}// invariant: always present; xtask-allow: no-unwrap\nfn f() {{ \
             Some(1).unwrap(); }}\n"
        );
        assert!(rules_found("crates/x/src/a.rs", &above).is_empty());
    }

    #[test]
    fn lossy_cast_flagged_only_in_accounting_modules() {
        let src = format!("{DOC}fn f(x: u64) -> u32 {{ x as u32 }}\n");
        let v = scan_source("crates/x/src/alloc.rs", &src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "no-lossy-cast");
        assert!(rules_found("crates/x/src/other.rs", &src).is_empty());
    }

    #[test]
    fn widening_as_f64_is_fine_in_accounting_modules() {
        let src = format!("{DOC}fn f(x: u32) -> f64 {{ x as f64 }}\n");
        assert!(rules_found("crates/x/src/stats.rs", &src).is_empty());
    }

    #[test]
    fn float_eq_flagged() {
        let src = format!("{DOC}fn f(x: f64) -> bool {{ x == 0.5 }}\n");
        let v = scan_source("crates/x/src/a.rs", &src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "no-float-eq");
    }

    #[test]
    fn float_ne_negative_and_literal_on_left_flagged() {
        let src = format!("{DOC}fn f(x: f64) -> bool {{ 1e-9 != x || x == -0.5 }}\n");
        assert_eq!(
            rules_found("crates/x/src/a.rs", &src),
            ["no-float-eq", "no-float-eq"]
        );
    }

    #[test]
    fn integer_eq_is_fine() {
        let src = format!("{DOC}fn f(x: u32) -> bool {{ x == 5 && x != 7 }}\n");
        assert!(rules_found("crates/x/src/a.rs", &src).is_empty());
    }

    #[test]
    fn raw_spawn_flagged_only_in_exec_crate() {
        let src = format!("{DOC}fn f() {{ std::thread::spawn(|| ()); }}\n");
        let v = scan_source("crates/exec/src/lib.rs", &src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "no-unchecked-spawn");
        assert!(rules_found("crates/workloads/src/runner.rs", &src).is_empty());
    }

    #[test]
    fn discarded_join_flagged_in_exec_crate() {
        let dropped = format!("{DOC}fn f(h: std::thread::JoinHandle<()>) {{ h.join().ok(); }}\n");
        assert_eq!(
            rules_found("crates/exec/src/lib.rs", &dropped),
            ["no-unchecked-spawn"]
        );
        let let_bound =
            format!("{DOC}fn f(h: std::thread::JoinHandle<()>) {{ let _ = h.join(); }}\n");
        assert_eq!(
            rules_found("crates/exec/src/lib.rs", &let_bound),
            ["no-unchecked-spawn"]
        );
    }

    #[test]
    fn scoped_spawn_is_fine_in_exec_crate() {
        let src =
            format!("{DOC}fn f() {{ std::thread::scope(|scope| {{ scope.spawn(|| ()); }}); }}\n");
        assert!(rules_found("crates/exec/src/lib.rs", &src).is_empty());
        let suppressed = format!(
            "{DOC}fn f() {{ std::thread::spawn(|| ()); }} // xtask-allow: no-unchecked-spawn\n"
        );
        assert!(rules_found("crates/exec/src/lib.rs", &suppressed).is_empty());
    }

    #[test]
    fn discarded_spawn_and_swallowed_recv_flagged_in_exec_crate() {
        let spawn =
            format!("{DOC}fn f() {{ let _ = std::thread::Builder::new().spawn(|| ()); }}\n");
        assert_eq!(
            rules_found("crates/exec/src/lib.rs", &spawn),
            ["no-unchecked-spawn"]
        );
        let recv = format!("{DOC}fn f(rx: std::sync::mpsc::Receiver<u32>) {{ rx.recv().ok(); }}\n");
        assert_eq!(
            rules_found("crates/exec/src/lib.rs", &recv),
            ["no-unchecked-spawn"]
        );
        // The send side is allowed to discard: a dropped receiver is
        // routine shutdown. Matched receives are fine too.
        let send =
            format!("{DOC}fn f(tx: std::sync::mpsc::Sender<u32>) {{ let _ = tx.send(1); }}\n");
        assert!(rules_found("crates/exec/src/lib.rs", &send).is_empty());
        let matched = format!(
            "{DOC}fn f(rx: std::sync::mpsc::Receiver<u32>) -> u32 {{ rx.recv().unwrap_or(0) }}\n"
        );
        assert!(rules_found("crates/exec/src/lib.rs", &matched).is_empty());
    }

    #[test]
    fn index_expression_flagged_only_in_scoped_files() {
        let src = format!("{DOC}fn f(xs: &[u32], i: usize) -> u32 {{ xs[i] }}\n");
        let v = scan_source("crates/analysis/src/rules.rs", &src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "no-index-panic");
        assert!(rules_found("crates/gpu-sim/src/lib.rs", &src).is_empty());
        let wf = scan_source("crates/core/src/waterfill.rs", &src);
        assert!(
            wf.iter().any(|v| v.rule == "no-index-panic"),
            "waterfill.rs is in scope: {wf:?}"
        );
    }

    #[test]
    fn index_rule_spares_literals_patterns_types_and_macros() {
        let src = format!(
            "{DOC}fn f() -> [u32; 2] {{\n    let [a, b] = [1u32, 2];\n    let _v = \
             vec![a];\n    let _s: &[u32] = &_v;\n    return [a, b];\n}}\n\
             #[derive(Debug)]\nstruct S;\n"
        );
        assert!(
            rules_found("crates/analysis/src/x.rs", &src).is_empty(),
            "{:?}",
            scan_source("crates/analysis/src/x.rs", &src)
        );
    }

    #[test]
    fn chained_and_call_result_indexing_flagged() {
        let src = format!("{DOC}fn f(m: &Vec<Vec<u32>>) -> u32 {{ make(m)[0] + m[1][2] }}\n");
        let v = scan_source("crates/analysis/src/x.rs", &src);
        assert_eq!(v.len(), 3, "call-result, outer, and inner index: {v:?}");
    }

    #[test]
    fn index_rule_applies_to_analysis_bins_but_allows_suppression() {
        let src = format!("{DOC}fn main() {{ let v = vec![1]; let _ = v[0]; }}\n");
        let v = scan_source("crates/analysis/src/bin/verify-workloads.rs", &src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "no-index-panic");
        let ok = format!(
            "{DOC}fn main() {{ let v = vec![1]; let _ = v[0]; }} // xtask-allow: no-index-panic\n"
        );
        assert!(rules_found("crates/analysis/src/bin/verify-workloads.rs", &ok).is_empty());
    }

    #[test]
    fn tick_alloc_flagged_in_seed_bodies() {
        let src = format!(
            "{DOC}impl Sm {{\n    pub fn tick(&mut self, now: u64) {{\n        let v = \
             Vec::new();\n        drop(v);\n    }}\n    pub fn launch(&mut self) {{\n        \
             let _ = vec![1, 2];\n    }}\n}}\n"
        );
        let v = scan_source("crates/gpu-sim/src/sm.rs", &src);
        assert_eq!(v.len(), 1, "only the tick-body alloc: {v:?}");
        assert_eq!(v[0].rule, "no-tick-alloc");
        assert_eq!(v[0].line, 4);
        assert_eq!(v[0].chain, ["Sm::tick"]);
        // Same source outside the simulator core is exempt.
        assert!(rules_found("crates/workloads/src/suite.rs", &src).is_empty());
    }

    #[test]
    fn tick_alloc_is_transitive_and_reports_the_chain() {
        let src = format!(
            "{DOC}impl Sm {{\n    pub fn tick(&mut self, now: u64) {{\n        \
             self.issue_stage(now);\n    }}\n    fn issue_stage(&mut self, now: u64) {{\n        \
             scratch(now);\n    }}\n}}\nfn scratch(now: u64) {{\n    let _ = \
             format!(\"{{now}}\");\n}}\nfn cold() {{\n    let _ = format!(\"fine\");\n}}\n"
        );
        let v = scan_source("crates/gpu-sim/src/sm.rs", &src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "no-tick-alloc");
        assert_eq!(v[0].chain, ["Sm::tick", "Sm::issue_stage", "scratch"]);
    }

    #[test]
    fn tick_alloc_widened_patterns_fire() {
        let src = format!(
            "{DOC}impl Gpu {{\n    pub fn tick(&mut self) {{\n        let a = \
             Vec::with_capacity(4);\n        let b = Box::new(1u32);\n        let c: Vec<u32> = \
             a.iter().copied().collect();\n        let d = String::from(\"x\");\n        let e = \
             c.to_vec();\n        drop((b, d, e));\n    }}\n}}\n"
        );
        let v = scan_source("crates/gpu-sim/src/gpu.rs", &src);
        let hit: Vec<&str> = v.iter().map(|x| x.rule).collect();
        assert_eq!(
            v.len(),
            5,
            "with_capacity, Box::new, collect, String::from, to_vec: {v:?}"
        );
        assert!(hit.iter().all(|r| *r == "no-tick-alloc"));
    }

    #[test]
    fn tick_alloc_suppressible_and_spares_lookalikes() {
        let ok = format!(
            "{DOC}impl Sm {{\n    pub fn on_fill(&mut self, line: u64) {{\n        // one-shot \
             resize on first fill; xtask-allow: no-tick-alloc\n        let v = Vec::new();\n        \
             drop(v);\n    }}\n}}\n"
        );
        assert!(rules_found("crates/gpu-sim/src/sm.rs", &ok).is_empty());
        // `ticker` is not a seed; `mem::take` of an existing buffer is fine.
        let spared = format!(
            "{DOC}impl Sm {{\n    pub fn ticker(&mut self) {{\n        let _ = Vec::new();\n    \
             }}\n    pub fn tick(&mut self, now: u64) {{\n        let w = \
             std::mem::take(&mut self.buf);\n        self.buf = w;\n    }}\n}}\n"
        );
        assert!(rules_found("crates/gpu-sim/src/sm.rs", &spared).is_empty());
    }

    #[test]
    fn tick_alloc_ignores_trait_declarations() {
        let src = format!(
            "{DOC}trait Ticked {{\n    fn tick(&mut self, now: u64);\n}}\nfn mk() -> Vec<u32> {{ \
             Vec::new() }}\n"
        );
        assert!(rules_found("crates/gpu-sim/src/x.rs", &src).is_empty());
    }

    #[test]
    fn determinism_flags_hashmap_iteration() {
        let src = format!(
            "{DOC}use std::collections::HashMap;\nstruct S {{\n    m: HashMap<u32, u32>,\n}}\n\
             impl S {{\n    fn f(&self) -> u32 {{\n        self.m.values().sum()\n    }}\n}}\n"
        );
        let v = scan_source("crates/gpu-sim/src/s.rs", &src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "determinism");
        assert!(v[0].message.contains('m'));
        // Out of scope: the same source elsewhere is fine.
        assert!(rules_found("crates/workloads/src/s.rs", &src).is_empty());
    }

    #[test]
    fn determinism_flags_for_loops_once_per_line() {
        let src = format!(
            "{DOC}use std::collections::HashMap;\nfn f(m: &HashMap<u32, u32>) -> u64 {{\n    \
             let mut acc = 0;\n    for (k, v) in m.iter() {{\n        acc += u64::from(k + v);\n    \
             }}\n    acc\n}}\n"
        );
        let v = scan_source("crates/core/src/s.rs", &src);
        assert_eq!(v.len(), 1, "call + loop collapse to one finding: {v:?}");
        assert_eq!(v[0].rule, "determinism");
    }

    #[test]
    fn determinism_spares_ordered_containers_and_tests() {
        let src = format!(
            "{DOC}use std::collections::BTreeMap;\nfn f(m: &BTreeMap<u32, u32>) -> u32 {{\n    \
             m.values().sum()\n}}\n#[cfg(test)]\nmod tests {{\n    use std::collections::HashMap;\n    \
             fn t(m: &HashMap<u32, u32>) -> u32 {{ m.values().sum() }}\n}}\n"
        );
        assert!(rules_found("crates/gpu-sim/src/s.rs", &src).is_empty());
    }

    #[test]
    fn determinism_flags_wall_clock_and_thread_identity() {
        let src = format!(
            "{DOC}fn f() -> u128 {{\n    let t = std::time::Instant::now();\n    \
             t.elapsed().as_nanos()\n}}\n"
        );
        let v = scan_source("crates/core/src/s.rs", &src);
        assert!(v.iter().any(|x| x.rule == "determinism"), "{v:?}");
        let sys = format!("{DOC}use std::time::SystemTime;\n");
        assert_eq!(rules_found("crates/core/src/s.rs", &sys), ["determinism"]);
        let thr = format!("{DOC}fn f() {{ let _ = std::thread::current(); }}\n");
        assert_eq!(rules_found("crates/core/src/s.rs", &thr), ["determinism"]);
    }

    #[test]
    fn determinism_waiver_requires_justification() {
        let bare = format!(
            "{DOC}use std::collections::HashMap;\nfn f(m: &HashMap<u32, u32>) -> u32 {{\n    \
             // xtask-allow: determinism\n    m.values().sum()\n}}\n"
        );
        let v = scan_source("crates/gpu-sim/src/s.rs", &bare);
        assert_eq!(v.len(), 1, "bare waiver converts, not silences: {v:?}");
        assert!(v[0].message.contains("justification"));
        let justified = format!(
            "{DOC}use std::collections::HashMap;\nfn f(m: &HashMap<u32, u32>) -> u32 {{\n    \
             // sum is order-independent; xtask-allow: determinism\n    m.values().sum()\n}}\n"
        );
        assert!(rules_found("crates/gpu-sim/src/s.rs", &justified).is_empty());
    }

    #[test]
    fn panic_free_accounting_is_transitive_with_chain() {
        let src = format!(
            "{DOC}pub fn water_fill(budget: u32) -> u32 {{\n    step(budget)\n}}\nfn step(b: u32) \
             -> u32 {{\n    lookup(b).unwrap()\n}}\nfn lookup(b: u32) -> Option<u32> {{\n    \
             Some(b)\n}}\nfn unrelated() -> u32 {{\n    None.unwrap()\n}}\n"
        );
        let v = scan_source("crates/core/src/waterfill.rs", &src);
        let pf: Vec<&Violation> = v
            .iter()
            .filter(|x| x.rule == "panic-free-accounting")
            .collect();
        assert_eq!(pf.len(), 1, "only the reachable unwrap: {v:?}");
        assert_eq!(pf[0].chain, ["water_fill", "step"]);
        // The same unwraps also violate no-unwrap (per-file rule).
        assert_eq!(v.iter().filter(|x| x.rule == "no-unwrap").count(), 2);
    }

    #[test]
    fn panic_free_accounting_flags_macros_and_indexing() {
        let src = format!(
            "{DOC}pub fn speedups(xs: &[f64]) -> f64 {{\n    if xs.is_empty() {{\n        \
             panic!(\"empty\");\n    }}\n    xs[0]\n}}\n"
        );
        let v = scan_source("crates/core/src/metrics.rs", &src);
        let rules: Vec<&str> = v.iter().map(|x| x.rule).collect();
        assert_eq!(
            rules,
            ["panic-free-accounting", "panic-free-accounting"],
            "{v:?}"
        );
        // assert!/debug_assert! are invariant checks, not findings.
        let ok = format!(
            "{DOC}pub fn speedups(xs: &[f64]) -> f64 {{\n    assert!(!xs.is_empty());\n    \
             debug_assert!(xs.len() < 1024);\n    xs.first().copied().unwrap_or(0.0)\n}}\n"
        );
        assert!(rules_found("crates/core/src/metrics.rs", &ok).is_empty());
    }

    #[test]
    fn missing_module_docs_flagged() {
        let src = "fn f() {}\n";
        let v = scan_source("crates/x/src/a.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "module-docs");
        assert_eq!(v[0].line, 1);
    }

    #[test]
    fn module_docs_satisfied_by_inner_doc() {
        assert!(rules_found("crates/x/src/a.rs", "//! Present.\nfn f() {}\n").is_empty());
    }

    #[test]
    fn raw_strings_and_lifetimes_do_not_confuse_the_lexer() {
        let src = format!(
            "{DOC}fn f<'a>(x: &'a str) -> bool {{\n    let p = r\"float == 0.5 .unwrap()\";\n    \
             p.len() == 24\n}}\n"
        );
        assert!(rules_found("crates/x/src/a.rs", &src).is_empty());
    }

    #[test]
    fn multiline_string_is_not_code() {
        let src = format!("{DOC}const S: &str = \"line one\n  .unwrap() inside\n\";\n");
        assert!(rules_found("crates/x/src/a.rs", &src).is_empty());
    }

    #[test]
    fn jsonl_report_shape_and_escaping() {
        let vs = vec![Violation {
            rule: "no-unwrap",
            file: "crates/x/src/a.rs".to_string(),
            line: 3,
            message: "say \"no\"".to_string(),
            chain: vec!["Sm::tick".to_string(), "helper".to_string()],
        }];
        let report = report_jsonl(&vs, 42);
        let n = warped_slicer::tracefmt::validate_json_syntax(&report).expect("valid JSONL");
        assert_eq!(n, 2, "header + one violation");
        assert!(report.contains("\"files_scanned\":42"));
        assert!(report.contains("\\\"no\\\""));
        assert!(report.contains("\"chain\":[\"Sm::tick\",\"helper\"]"));
    }

    // ---- fixture golden tests ------------------------------------------

    const FIX_RAW_STRINGS: &str = include_str!("../fixtures/masker_raw_strings.rs");
    const FIX_NESTED_COMMENTS: &str = include_str!("../fixtures/masker_nested_comments.rs");
    const FIX_NO_UNWRAP: &str = include_str!("../fixtures/rule_no_unwrap.rs");
    const FIX_NO_LOSSY_CAST: &str = include_str!("../fixtures/rule_no_lossy_cast.rs");
    const FIX_NO_FLOAT_EQ: &str = include_str!("../fixtures/rule_no_float_eq.rs");
    const FIX_MODULE_DOCS: &str = include_str!("../fixtures/rule_module_docs.rs");
    const FIX_NO_INDEX_PANIC: &str = include_str!("../fixtures/rule_no_index_panic.rs");
    const FIX_NO_UNCHECKED_SPAWN: &str = include_str!("../fixtures/rule_no_unchecked_spawn.rs");
    const FIX_DETERMINISM: &str = include_str!("../fixtures/rule_determinism.rs");
    const FIX_NO_TICK_ALLOC: &str = include_str!("../fixtures/rule_no_tick_alloc.rs");
    const FIX_NO_TICK_ALLOC_MAP_ENTRY: &str =
        include_str!("../fixtures/rule_no_tick_alloc_map_entry.rs");
    const FIX_NO_TICK_ALLOC_POOL_MISS: &str =
        include_str!("../fixtures/rule_no_tick_alloc_pool_miss.rs");
    const FIX_NO_TICK_ALLOC_SOA: &str = include_str!("../fixtures/rule_no_tick_alloc_soa.rs");
    const FIX_NO_GLOBAL_STATE: &str = include_str!("../fixtures/rule_no_global_state.rs");
    const FIX_PANIC_FREE: &str = include_str!("../fixtures/rule_panic_free_accounting.rs");
    const FIX_PANIC_FREE_PREDICTOR: &str = include_str!("../fixtures/rule_panic_free_predictor.rs");

    const ALL_FIXTURES: [(&str, &str); 14] = [
        ("masker_raw_strings.rs", FIX_RAW_STRINGS),
        ("masker_nested_comments.rs", FIX_NESTED_COMMENTS),
        ("rule_no_unwrap.rs", FIX_NO_UNWRAP),
        ("rule_no_lossy_cast.rs", FIX_NO_LOSSY_CAST),
        ("rule_no_float_eq.rs", FIX_NO_FLOAT_EQ),
        ("rule_module_docs.rs", FIX_MODULE_DOCS),
        ("rule_no_index_panic.rs", FIX_NO_INDEX_PANIC),
        ("rule_no_unchecked_spawn.rs", FIX_NO_UNCHECKED_SPAWN),
        ("rule_determinism.rs", FIX_DETERMINISM),
        ("rule_no_tick_alloc.rs", FIX_NO_TICK_ALLOC),
        ("rule_no_tick_alloc_soa.rs", FIX_NO_TICK_ALLOC_SOA),
        ("rule_no_global_state.rs", FIX_NO_GLOBAL_STATE),
        ("rule_panic_free_accounting.rs", FIX_PANIC_FREE),
        ("rule_panic_free_predictor.rs", FIX_PANIC_FREE_PREDICTOR),
    ];

    /// 1-based line of the first occurrence of `needle` in `src`, so golden
    /// assertions survive edits that shift the fixture around.
    fn line_of(src: &str, needle: &str) -> usize {
        let pos = src
            .find(needle)
            .unwrap_or_else(|| panic!("needle {needle:?} not found in fixture"));
        src[..pos].matches('\n').count() + 1
    }

    /// (rule, line) pairs, in report order.
    fn golden(label: &str, src: &str) -> Vec<(&'static str, usize)> {
        scan_source(label, src)
            .into_iter()
            .map(|v| (v.rule, v.line))
            .collect()
    }

    #[test]
    fn fixture_masker_raw_strings_flags_only_the_final_unwrap() {
        let v = scan_source("crates/x/src/a.rs", FIX_RAW_STRINGS);
        assert_eq!(v.len(), 1, "findings: {v:?}");
        assert_eq!(v[0].rule, "no-unwrap");
        assert_eq!(v[0].line, line_of(FIX_RAW_STRINGS, "std::fs::read"));
    }

    #[test]
    fn fixture_masker_nested_comments_flags_only_the_final_unwrap() {
        let v = scan_source("crates/x/src/a.rs", FIX_NESTED_COMMENTS);
        assert_eq!(v.len(), 1, "findings: {v:?}");
        assert_eq!(v[0].rule, "no-unwrap");
        assert_eq!(
            v[0].line,
            line_of(FIX_NESTED_COMMENTS, "v.first().copied().unwrap()")
        );
    }

    #[test]
    fn fixture_no_unwrap_golden() {
        assert_eq!(
            golden("crates/x/src/a.rs", FIX_NO_UNWRAP),
            [
                ("no-unwrap", line_of(FIX_NO_UNWRAP, "Some(1).unwrap()")),
                ("no-unwrap", line_of(FIX_NO_UNWRAP, "Some(2).expect")),
            ]
        );
    }

    #[test]
    fn fixture_no_lossy_cast_golden() {
        assert_eq!(
            golden("crates/x/src/stats.rs", FIX_NO_LOSSY_CAST),
            [
                ("no-lossy-cast", line_of(FIX_NO_LOSSY_CAST, "cycles as u32")),
                ("no-lossy-cast", line_of(FIX_NO_LOSSY_CAST, "ipc as f32")),
            ]
        );
    }

    #[test]
    fn fixture_no_float_eq_golden() {
        assert_eq!(
            golden("crates/x/src/a.rs", FIX_NO_FLOAT_EQ),
            [
                ("no-float-eq", line_of(FIX_NO_FLOAT_EQ, "x == 0.5")),
                ("no-float-eq", line_of(FIX_NO_FLOAT_EQ, "1e-9 != x")),
                ("no-float-eq", line_of(FIX_NO_FLOAT_EQ, "x == -0.25")),
            ]
        );
    }

    #[test]
    fn fixture_module_docs_golden() {
        assert_eq!(
            golden("crates/x/src/a.rs", FIX_MODULE_DOCS),
            [("module-docs", 1)]
        );
        let waived = "// generated table; xtask-allow: module-docs\npub fn item() {}\n";
        assert!(golden("crates/x/src/a.rs", waived).is_empty());
    }

    #[test]
    fn fixture_no_index_panic_golden() {
        assert_eq!(
            golden("crates/analysis/src/fixture.rs", FIX_NO_INDEX_PANIC),
            [
                ("no-index-panic", line_of(FIX_NO_INDEX_PANIC, "xs[i]")),
                (
                    "no-index-panic",
                    line_of(FIX_NO_INDEX_PANIC, "xs.to_vec()[0]")
                ),
            ]
        );
    }

    #[test]
    fn fixture_no_unchecked_spawn_golden() {
        let f = FIX_NO_UNCHECKED_SPAWN;
        assert_eq!(
            golden("crates/exec/src/fixture.rs", f),
            [
                (
                    "no-unchecked-spawn",
                    line_of(f, "let h = std::thread::spawn")
                ),
                ("no-unchecked-spawn", line_of(f, "let _ = h.join()")),
                (
                    "no-unchecked-spawn",
                    line_of(f, "let h2 = std::thread::spawn")
                ),
                ("no-unchecked-spawn", line_of(f, "h2.join().ok()")),
                (
                    "no-unchecked-spawn",
                    line_of(f, "let _ = std::thread::Builder"),
                ),
                ("no-unchecked-spawn", line_of(f, ".spawn(|| ()).ok()")),
                ("no-unchecked-spawn", line_of(f, "rx.recv().ok()")),
                ("no-unchecked-spawn", line_of(f, "let _ = rx.try_recv()")),
            ]
        );
    }

    #[test]
    fn fixture_determinism_golden() {
        let f = FIX_DETERMINISM;
        let v = scan_source("crates/gpu-sim/src/fixture.rs", f);
        let got: Vec<(&str, usize)> = v.iter().map(|v| (v.rule, v.line)).collect();
        assert_eq!(
            got,
            [
                ("determinism", line_of(f, "m.values()")),
                ("determinism", line_of(f, "for k in s.iter()")),
                ("determinism", line_of(f, "Instant::now()")),
                ("determinism", line_of(f, "std::thread::current()")),
                ("determinism", line_of(f, "SystemTime::now()")),
                ("determinism", line_of(f, "u.values()")),
            ]
        );
        // The bare waiver on `waived_bare` converts the finding rather than
        // silencing it.
        let bare = v.last().expect("has findings");
        assert!(
            bare.message.contains("require a justification"),
            "message: {}",
            bare.message
        );
    }

    #[test]
    fn fixture_no_tick_alloc_golden() {
        let f = FIX_NO_TICK_ALLOC;
        let v = scan_source("crates/gpu-sim/src/fixture.rs", f);
        let got: Vec<(&str, usize)> = v.iter().map(|v| (v.rule, v.line)).collect();
        assert_eq!(
            got,
            [
                ("no-tick-alloc", line_of(f, "Vec::new()")),
                ("no-tick-alloc", line_of(f, "vec![0u32; 4]")),
                ("no-tick-alloc", line_of(f, "Vec::with_capacity(8)")),
                ("no-tick-alloc", line_of(f, "Box::new(1u32)")),
                ("no-tick-alloc", line_of(f, ".collect()")),
                ("no-tick-alloc", line_of(f, ".to_vec()")),
                ("no-tick-alloc", line_of(f, "format!")),
                ("no-tick-alloc", line_of(f, "String::from")),
            ]
        );
        for v in &v {
            assert_eq!(v.chain, ["Sm::tick", "Sm::issue_stage", "Sm::leaf"]);
        }
    }

    #[test]
    fn fixture_no_tick_alloc_map_entry_golden() {
        let f = FIX_NO_TICK_ALLOC_MAP_ENTRY;
        let v = scan_source("crates/gpu-sim/src/mem.rs", f);
        let got: Vec<(&str, usize, &[String])> = v
            .iter()
            .map(|v| (v.rule, v.line, v.chain.as_slice()))
            .collect();
        let chain = |leaf: &str| vec!["MemSubsystem::tick".to_string(), leaf.to_string()];
        assert_eq!(
            got,
            [
                (
                    "no-tick-alloc",
                    line_of(f, ".or_default().push(sm)"),
                    chain("MemSubsystem::l2_slice_tick").as_slice()
                ),
                (
                    "no-tick-alloc",
                    line_of(f, ".or_insert_with(Vec::new)"),
                    chain("MemSubsystem::count_hit").as_slice()
                ),
            ]
        );
        assert!(v[0].message.contains(".or_default()"), "{}", v[0].message);
    }

    #[test]
    fn fixture_no_global_state_golden() {
        let f = FIX_NO_GLOBAL_STATE;
        let bare = "    // xtask-allow: no-global-state\n    static BARE";
        assert_eq!(
            golden("crates/analysis/src/cache.rs", f),
            [
                ("no-global-state", line_of(f, "thread_local! {")),
                ("no-global-state", line_of(f, "static SEEN")),
                ("no-global-state", line_of(f, "static CALLS")),
                ("no-global-state", line_of(f, "static CACHE")),
                ("no-global-state", line_of(f, "static TABLE")),
                ("no-global-state", line_of(f, "static mut LAST")),
                ("no-global-state", line_of(f, "static MEMO")),
                ("no-global-state", line_of(f, bare) + 1),
            ],
            "the thread-local and its cell, every interior-mutable or mutable \
             static and the barely waived one fire; the plain static, the lifetimes, the \
             const, the justified waiver and the test module stay silent"
        );
        let v = scan_source("crates/gpu-sim/src/gpu.rs", f);
        assert!(v
            .last()
            .is_some_and(|v| v.message.contains("require a justification")));
        for label in ["crates/gpu-sim/src/gpu.rs", "crates/core/src/sweep.rs"] {
            assert_eq!(golden(label, f).len(), 8, "{label}");
        }
        assert!(
            golden("crates/workloads/src/suite.rs", f).is_empty(),
            "out of scope"
        );
    }

    #[test]
    fn fixture_no_tick_alloc_pool_miss_golden() {
        let f = FIX_NO_TICK_ALLOC_POOL_MISS;
        let v = scan_source("crates/gpu-sim/src/sm.rs", f);
        let got: Vec<(&str, usize, &[String])> = v
            .iter()
            .map(|v| (v.rule, v.line, v.chain.as_slice()))
            .collect();
        let chain = |leaf: &str| vec!["Sm::tick".to_string(), leaf.to_string()];
        assert_eq!(
            got,
            [
                (
                    "no-tick-alloc",
                    line_of(
                        f,
                        "pool.pop().unwrap_or_default();\n        waiters.push(1)"
                    ),
                    chain("Sm::register").as_slice()
                ),
                (
                    "no-tick-alloc",
                    line_of(f, ".unwrap_or_else(|| Vec::with_capacity(32))"),
                    chain("Sm::start_op").as_slice()
                ),
                (
                    "no-tick-alloc",
                    line_of(f, "Vec::with_capacity(32)"),
                    chain("Sm::start_op").as_slice()
                ),
            ]
        );
        assert!(
            v[0].message.contains(".pop().unwrap_or_default()"),
            "{}",
            v[0].message
        );
        assert!(
            v[1].message.contains(".pop().unwrap_or_else()"),
            "{}",
            v[1].message
        );
    }

    #[test]
    fn fixture_no_tick_alloc_soa_golden() {
        let f = FIX_NO_TICK_ALLOC_SOA;
        let v = scan_source("crates/gpu-sim/src/rule_no_tick_alloc_soa.rs", f);
        let got: Vec<(&str, usize)> = v.iter().map(|v| (v.rule, v.line)).collect();
        assert_eq!(
            got,
            [
                ("no-tick-alloc", line_of(f, "Vec::new()")),
                ("no-tick-alloc", line_of(f, "vec![slot as u64; 4]")),
                ("no-tick-alloc", line_of(f, ".collect()")),
            ]
        );
        for v in &v {
            assert_eq!(
                v.chain,
                ["Sm::on_fill_batch", "Sm::refresh_warp", "Sm::rebuild_entry"]
            );
        }
    }

    #[test]
    fn fixture_panic_free_accounting_golden() {
        let f = FIX_PANIC_FREE;
        let v = scan_source("crates/core/src/metrics.rs", f);
        let got: Vec<(&str, usize)> = v.iter().map(|v| (v.rule, v.line)).collect();
        let unwrap_line = line_of(f, "xs.first().unwrap()");
        let expect_line = line_of(f, "xs.get(1).expect");
        assert_eq!(
            got,
            [
                ("no-unwrap", unwrap_line),
                ("panic-free-accounting", unwrap_line),
                ("no-unwrap", expect_line),
                ("panic-free-accounting", expect_line),
                ("panic-free-accounting", line_of(f, "xs[2]")),
                ("panic-free-accounting", line_of(f, "panic!")),
                ("no-unwrap", line_of(f, "xs.last().unwrap()")),
            ]
        );
        for v in v.iter().filter(|v| v.rule == "panic-free-accounting") {
            assert_eq!(v.chain, ["speedups", "normalize"]);
        }
        for v in v.iter().filter(|v| v.rule == "no-unwrap") {
            assert!(v.chain.is_empty(), "per-file rules carry no chain");
        }
    }

    #[test]
    fn fixture_panic_free_predictor_golden() {
        let f = FIX_PANIC_FREE_PREDICTOR;
        let v = scan_source("crates/analysis/src/fixture.rs", f);
        let got: Vec<(&str, usize)> = v.iter().map(|v| (v.rule, v.line)).collect();
        assert_eq!(
            got,
            [
                ("panic-free-accounting", line_of(f, "sub-CTA occupancy")),
                (
                    "panic-free-accounting",
                    line_of(f, "beyond the occupancy bound")
                ),
                ("panic-free-accounting", line_of(f, "n % 2 is 0 or 1")),
            ],
            "todo!/unimplemented!/unreachable! fire; the waived arm, the \
             assert! helper, and the unreachable-from-seed fn stay silent"
        );
        for v in &v {
            assert_eq!(v.chain, ["predict_kernel", "curve_point"]);
        }
    }

    // ---- lexer round-trip property --------------------------------------

    /// Spans tile `src` exactly: no gaps, no overlaps, full coverage, line
    /// numbers consistent with the newlines actually seen.
    fn assert_round_trip(label: &str, src: &str) {
        let toks = crate::lex::lex(src);
        let mut pos = 0usize;
        let mut line = 1u32;
        for t in &toks {
            assert_eq!(t.start, pos, "{label}: gap or overlap at byte {pos}");
            assert!(t.end > t.start, "{label}: empty token at byte {pos}");
            assert_eq!(t.line, line, "{label}: line drift at byte {pos}");
            let text = &src[t.start..t.end];
            line += u32::try_from(text.matches('\n').count()).unwrap_or(0);
            pos = t.end;
        }
        assert_eq!(pos, src.len(), "{label}: spans do not cover the file");
    }

    #[test]
    fn lexer_round_trips_every_workspace_source_and_fixture() {
        let files = workspace_files(&repo_root()).expect("walk succeeds");
        assert!(files.len() >= 12, "expected a real workspace walk");
        for (label, src) in &files {
            assert_round_trip(label, src);
        }
        for (label, src) in ALL_FIXTURES {
            assert_round_trip(label, src);
        }
    }

    /// The workspace root, from this crate's manifest dir.
    fn repo_root() -> PathBuf {
        let mut d = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        d.pop();
        d.pop();
        d
    }

    #[test]
    fn workspace_walk_reports_relative_paths() {
        let vs = lint_workspace(&repo_root()).expect("walk succeeds");
        for v in &vs {
            assert!(!v.file.starts_with('/'), "relative path: {}", v.file);
            assert!(RULE_NAMES.contains(&v.rule));
        }
    }

    #[test]
    fn workspace_lint_is_clean() {
        let vs = lint_workspace(&repo_root()).expect("walk succeeds");
        assert!(
            vs.is_empty(),
            "the workspace must lint clean; found:\n{}",
            vs.iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join("\n")
        );
    }

    #[test]
    fn every_tick_seed_resolves_and_tick_path_fns_are_reachable() {
        let files = workspace_files(&repo_root()).expect("walk succeeds");
        let parsed: Vec<(String, FileItems)> = files
            .iter()
            .map(|(p, s)| (p.clone(), items::parse(s)))
            .collect();
        let graph = CallGraph::build(&parsed);
        let mut seeds = Vec::new();
        for (ty, name) in TICK_SEEDS {
            let found = graph.find(&parsed, Some(ty), name);
            assert!(!found.is_empty(), "tick seed `{ty}::{name}` not found");
            seeds.extend(found);
        }
        for (ty, name) in ACCOUNTING_SEEDS {
            let found = graph.find(&parsed, ty, name);
            assert!(
                !found.is_empty(),
                "accounting seed `{:?}::{name}` not found",
                ty
            );
        }
        let reach = graph.reachable(&seeds);
        let reached: BTreeSet<&str> = reach
            .iter()
            .filter_map(|id| {
                let n = &graph.nodes[id];
                parsed
                    .get(n.file)
                    .and_then(|(_, items)| items.fns.get(n.fn_idx))
                    .map(|f| f.name.as_str())
            })
            .collect();
        for name in TICK_PATH_FNS {
            assert!(
                reached.contains(name),
                "`{name}` is not reachable from any tick seed; reached: {reached:?}"
            );
        }
    }
}
