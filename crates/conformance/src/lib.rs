//! In-tree contract conformance suite for the instant3d workspace.
//!
//! The static half of the contract enforcement described in
//! `crates/nerf/src/kernels/mod.rs` ("Contract enforcement"): a set of
//! lint passes over a hand-rolled lexer ([`lexer`]) that verify the
//! kernel-contract marker grammar workspace-wide. The crate has no
//! dependencies — it reads the engine's sources, it does not compile them.
//!
//! # Contract enforcement
//!
//! | | proves | how |
//! |---|---|---|
//! | **The compiler** | parallel tasks write disjoint, in-bounds, gap-free ranges | every dispatch seam is `par_chunks_mut().zip(..)` or a `split_at_mut` partition over `&mut` slices; `#![forbid(unsafe_code)]` / `#![deny(unsafe_code)]` at every crate root make a raw-pointer dispatcher justify itself |
//! | **`checked` + these lints** | what types do not see | the `checked` backend (`crates/nerf/src/kernels/checked.rs`) re-runs every kernel seam through the scalar reference on a shadow copy and panics on the first diverging bit (accumulation order); the passes below pin FMA placement, the `unsafe` / `target_feature` census, atomics orderings, determinism and the panic census |
//!
//! # Lint passes
//!
//! * **fma-strict** — in strict kernel modules a literal `mul_add` /
//!   `fadd_fast` / `fmul_fast` may be spelled only in `nerf::simd` (the
//!   home of the accumulate policy), and there — like naming the `Fused`
//!   policy in any of them — only in a function that carries a
//!   `// CONTRACT: lossy-tier` marker.
//! * **unsafe-safety** — every `unsafe` block / fn / impl in `crates/*/src`
//!   and `vendor/rayon/src` must be covered by a `// SAFETY:` comment or a
//!   `# Safety` doc section.
//! * **target-feature-caller** — every `#[target_feature]` function must
//!   carry a `// CALLER:` note naming its runtime-detection guard.
//! * **atomics-ordering** — every `Ordering::Relaxed` must carry an
//!   `// ORDERING:` justification; stronger orderings in `vendor/rayon/src`
//!   are cross-checked against `allowlists/atomics_protocol.txt`.
//! * **determinism** — `HashMap` / `HashSet` / `thread_rng` /
//!   `Instant::now` are forbidden in kernel, trainer, and serving code
//!   paths (`crates/nerf/src`, `crates/core/src`, `crates/serve/src`)
//!   outside `allowlists/determinism.txt` and `#[cfg(test)]` items.
//! * **panic-census** — `unwrap` / `expect` / `panic!` in hot-path
//!   kernel and trainer modules ([`PANIC_CENSUS_FILES`]) must carry a
//!   `// PANICS:` justification; the shipped tree is zero-violation.
//!
//! Marker grammar: a marker is a comment either trailing on the flagged
//! line itself or on a line above it, reachable by walking up through
//! contiguous comment-only and attribute lines; a blank line or an
//! unrelated code line breaks the walk.

#![forbid(unsafe_code)]

use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

pub mod lexer;
use lexer::{lex, Tok, TokKind};

/// Strict-tier kernel modules where FMA contraction is forbidden outside
/// `// CONTRACT: lossy-tier` items. `adam.rs` and `fp16.rs` are the grid
/// optimizer sweep every golden suite runs through.
pub const FMA_STRICT_FILES: &[&str] = &[
    "crates/nerf/src/adam.rs",
    "crates/nerf/src/fp16.rs",
    "crates/nerf/src/grid.rs",
    "crates/nerf/src/mlp.rs",
    "crates/nerf/src/render.rs",
    "crates/nerf/src/simd.rs",
    "crates/nerf/src/kernels/builtin.rs",
];

/// Hot-path kernel / trainer / renderer modules where every `unwrap` /
/// `expect` / `panic!` must carry a `// PANICS:` justification: a panic
/// here unwinds through rayon fork-join scopes mid-training-step, so
/// each site must argue why it cannot fire (or why dying loudly beats
/// corrupting a checkpoint).
pub const PANIC_CENSUS_FILES: &[&str] = &[
    "crates/nerf/src/adam.rs",
    "crates/nerf/src/grid.rs",
    "crates/nerf/src/mlp.rs",
    "crates/nerf/src/render.rs",
    "crates/nerf/src/simd.rs",
    "crates/nerf/src/kernels/builtin.rs",
    "crates/nerf/src/kernels/checked.rs",
    "crates/nerf/src/kernels/fast.rs",
    "crates/core/src/batch.rs",
    "crates/core/src/trainer.rs",
    "crates/core/src/timing.rs",
    "crates/core/src/render.rs",
];

/// The fused operations, plus `Fused`: the single-rounding accumulate
/// policy of `nerf::simd`, which turns a shared kernel body into FMA code.
const FMA_IDENTS: &[&str] = &["mul_add", "fadd_fast", "fmul_fast", FUSED_POLICY];
const FUSED_POLICY: &str = "Fused";
/// The one strict kernel module that may spell a fused operation
/// literally; every other one reaches FMA code by naming [`FUSED_POLICY`].
const FMA_POLICY_FILE: &str = "crates/nerf/src/simd.rs";
const SAFETY_NEEDLES: &[&str] = &["SAFETY:", "# Safety"];
const CALLER_NEEDLES: &[&str] = &["CALLER:"];
const ORDERING_NEEDLES: &[&str] = &["ORDERING:"];
const CONTRACT_NEEDLES: &[&str] = &["CONTRACT: lossy-tier"];
const DETERMINISM_IDENTS: &[&str] = &["HashMap", "HashSet", "thread_rng"];
const PANICS_NEEDLES: &[&str] = &["PANICS:"];
const PANIC_IDENTS: &[&str] = &["unwrap", "expect"];
const STRONG_ORDERINGS: &[&str] = &["SeqCst", "Acquire", "Release", "AcqRel"];

/// One lint diagnostic, printable as `file:line: [lint] message`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    pub file: String,
    pub line: u32,
    pub lint: &'static str,
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.lint, self.message
        )
    }
}

/// One entry of `allowlists/atomics_protocol.txt`:
/// `path function ordering expected-count`.
#[derive(Debug, Clone)]
pub struct ProtocolEntry {
    pub path: String,
    pub func: String,
    pub ordering: String,
    pub count: usize,
}

/// One entry of `allowlists/determinism.txt`: `path name`.
#[derive(Debug, Clone)]
pub struct DeterminismEntry {
    pub path: String,
    pub name: String,
}

/// Allowlists + baseline the passes consult. `Default` (all empty) is the
/// strictest configuration and what fixture tests use.
#[derive(Debug, Clone, Default)]
pub struct Config {
    pub protocol: Vec<ProtocolEntry>,
    pub determinism: Vec<DeterminismEntry>,
    /// `(lint, path)` pairs whose violations are tolerated (reported but
    /// non-fatal). Checked in from day one as empty.
    pub baseline: Vec<(String, String)>,
}

impl Config {
    /// Loads the checked-in allowlists + baseline under
    /// `<root>/crates/conformance/`.
    pub fn load(root: &Path) -> Config {
        let dir = root.join("crates/conformance");
        let mut cfg = Config::default();
        for line in data_lines(&dir.join("allowlists/atomics_protocol.txt")) {
            let parts: Vec<&str> = line.split_whitespace().collect();
            if let [path, func, ordering, count] = parts[..] {
                cfg.protocol.push(ProtocolEntry {
                    path: path.to_string(),
                    func: func.to_string(),
                    ordering: ordering.to_string(),
                    count: count.parse().unwrap_or(0),
                });
            }
        }
        for line in data_lines(&dir.join("allowlists/determinism.txt")) {
            let parts: Vec<&str> = line.split_whitespace().collect();
            if let [path, name] = parts[..] {
                cfg.determinism.push(DeterminismEntry {
                    path: path.to_string(),
                    name: name.to_string(),
                });
            }
        }
        for line in data_lines(&dir.join("baseline.txt")) {
            if let Some((lint, path)) = line.split_once(char::is_whitespace) {
                cfg.baseline
                    .push((lint.trim().to_string(), path.trim().to_string()));
            }
        }
        cfg
    }
}

/// Non-comment, non-blank lines of an allowlist file (missing file = empty).
fn data_lines(path: &Path) -> Vec<String> {
    fs::read_to_string(path)
        .unwrap_or_default()
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(str::to_string)
        .collect()
}

/// Result of [`run_all`]: fatal violations, baselined (tolerated) ones,
/// and how many files were scanned.
#[derive(Debug, Default)]
pub struct Report {
    pub violations: Vec<Violation>,
    pub baselined: Vec<Violation>,
    pub files_scanned: usize,
}

impl Report {
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// A function item span, in code-token index space.
struct FnSpan {
    name: String,
    decl_line: u32,
    start: usize,
    end: usize,
}

/// An attribute `#[...]` / `#![...]` span, in code-token index space.
struct AttrSpan {
    end: usize,
    line: u32,
    /// First identifier inside the brackets (`inline`, `target_feature`, …).
    head: String,
}

/// A lexed source file plus the derived per-line / per-item indexes the
/// passes query.
pub struct Source<'a> {
    pub rel: String,
    lines: Vec<&'a str>,
    toks: Vec<Tok<'a>>,
    /// Indices into `toks` of non-comment tokens.
    code: Vec<usize>,
    /// Comment text touching each 1-based line (multi-line block comments
    /// contribute their full text to every line they span).
    comment_text: HashMap<u32, String>,
    /// Lines on which a code token starts.
    code_lines: HashSet<u32>,
    /// Lines covered by attribute syntax.
    attr_lines: HashSet<u32>,
    fns: Vec<FnSpan>,
    attrs: Vec<AttrSpan>,
    /// Line ranges (inclusive) of `#[cfg(test)]` item bodies.
    test_spans: Vec<(u32, u32)>,
}

impl<'a> Source<'a> {
    pub fn parse(rel: &str, src: &'a str) -> Source<'a> {
        let toks = lex(src);
        let mut code = Vec::new();
        let mut comment_text: HashMap<u32, String> = HashMap::new();
        let mut code_lines = HashSet::new();
        for (i, t) in toks.iter().enumerate() {
            match t.kind {
                TokKind::LineComment | TokKind::BlockComment => {
                    let span = t.text.matches('\n').count() as u32;
                    for l in t.line..=t.line + span {
                        comment_text.entry(l).or_default().push_str(t.text);
                    }
                }
                _ => {
                    code.push(i);
                    code_lines.insert(t.line);
                }
            }
        }
        let mut s = Source {
            rel: rel.to_string(),
            lines: src.lines().collect(),
            toks,
            code,
            comment_text,
            code_lines,
            attr_lines: HashSet::new(),
            fns: Vec::new(),
            attrs: Vec::new(),
            test_spans: Vec::new(),
        };
        s.index_attrs();
        s.index_fns();
        s
    }

    /// Token behind code index `ci`.
    fn ct(&self, ci: usize) -> Option<&Tok<'a>> {
        self.code.get(ci).map(|&i| &self.toks[i])
    }

    fn is_punct(&self, ci: usize, ch: &str) -> bool {
        self.ct(ci)
            .is_some_and(|t| t.kind == TokKind::Punct && t.text == ch)
    }

    fn is_ident(&self, ci: usize, name: &str) -> bool {
        self.ct(ci)
            .is_some_and(|t| t.kind == TokKind::Ident && t.text == name)
    }

    /// Matches the `{`…`}` (or `[`…`]`) pair opening at code index `open`,
    /// returning the index of the closer (or the last token on EOF).
    fn match_delim(&self, open: usize, oc: &str, cc: &str) -> usize {
        let mut depth = 0usize;
        let mut ci = open;
        while let Some(t) = self.ct(ci) {
            if t.kind == TokKind::Punct {
                if t.text == oc {
                    depth += 1;
                } else if t.text == cc {
                    depth -= 1;
                    if depth == 0 {
                        return ci;
                    }
                }
            }
            ci += 1;
        }
        self.code.len().saturating_sub(1)
    }

    fn index_attrs(&mut self) {
        let mut ci = 0;
        while ci < self.code.len() {
            if self.is_punct(ci, "#") {
                let mut open = ci + 1;
                if self.is_punct(open, "!") {
                    open += 1;
                }
                if self.is_punct(open, "[") {
                    let close = self.match_delim(open, "[", "]");
                    let head = self
                        .ct(open + 1)
                        .filter(|t| t.kind == TokKind::Ident)
                        .map(|t| t.text.to_string())
                        .unwrap_or_default();
                    let cfg_test =
                        head == "cfg" && (open + 1..close).any(|k| self.is_ident(k, "test"));
                    let line = self.ct(ci).map_or(0, |t| t.line);
                    let end_line = self.ct(close).map_or(line, |t| t.line);
                    for l in line..=end_line {
                        self.attr_lines.insert(l);
                    }
                    self.attrs.push(AttrSpan {
                        end: close,
                        line,
                        head,
                    });
                    if cfg_test {
                        if let Some((s, e)) = self.item_body_after(close) {
                            self.test_spans.push((s, e));
                        }
                    }
                    ci = close + 1;
                    continue;
                }
            }
            ci += 1;
        }
    }

    /// Line span of the item body following an attribute's `]` — the first
    /// `{`…`}` before any `;` (a `;` first means no body).
    fn item_body_after(&self, close: usize) -> Option<(u32, u32)> {
        let mut ci = close + 1;
        while let Some(t) = self.ct(ci) {
            if t.kind == TokKind::Punct {
                match t.text {
                    "{" => {
                        let end = self.match_delim(ci, "{", "}");
                        return Some((t.line, self.ct(end)?.line));
                    }
                    ";" => return None,
                    _ => {}
                }
            }
            ci += 1;
        }
        None
    }

    fn index_fns(&mut self) {
        let mut spans = Vec::new();
        for ci in 0..self.code.len() {
            if !self.is_ident(ci, "fn") {
                continue;
            }
            // `fn(` is a function-pointer type, not an item.
            let Some(name_tok) = self.ct(ci + 1) else {
                continue;
            };
            if name_tok.kind != TokKind::Ident {
                continue;
            }
            let name = name_tok.text.to_string();
            let decl_line = self.ct(ci).map_or(0, |t| t.line);
            // Find the body `{` or the trailing `;` (trait method decl).
            let mut j = ci + 2;
            let mut end = ci + 1;
            while let Some(t) = self.ct(j) {
                if t.kind == TokKind::Punct {
                    if t.text == "{" {
                        end = self.match_delim(j, "{", "}");
                        break;
                    }
                    if t.text == ";" {
                        end = j;
                        break;
                    }
                }
                j += 1;
            }
            spans.push(FnSpan {
                name,
                decl_line,
                start: ci,
                end,
            });
        }
        self.fns = spans;
    }

    /// Innermost function span containing code index `ci`.
    fn enclosing_fn(&self, ci: usize) -> Option<&FnSpan> {
        self.fns
            .iter()
            .filter(|f| f.start <= ci && ci <= f.end)
            .max_by_key(|f| f.start)
    }

    fn in_test_span(&self, line: u32) -> bool {
        self.test_spans.iter().any(|&(s, e)| s <= line && line <= e)
    }

    fn comment_has(&self, line: u32, needles: &[&str]) -> bool {
        self.comment_text
            .get(&line)
            .is_some_and(|text| needles.iter().any(|n| text.contains(n)))
    }

    /// Marker-grammar coverage check for `line`: a needle in a comment
    /// trailing on the line itself, or found by walking up through
    /// contiguous comment-only / attribute lines. Blank lines and
    /// unrelated code lines break the walk.
    pub fn covered(&self, line: u32, needles: &[&str]) -> bool {
        if self.comment_has(line, needles) {
            return true;
        }
        let mut l = line.saturating_sub(1);
        while l >= 1 {
            if self.comment_has(l, needles) {
                return true;
            }
            let raw = self.lines.get((l - 1) as usize).copied().unwrap_or("");
            if raw.trim().is_empty() {
                return false;
            }
            let comment_only = self.comment_text.contains_key(&l) && !self.code_lines.contains(&l);
            if comment_only || self.attr_lines.contains(&l) {
                l -= 1;
                continue;
            }
            return false;
        }
        false
    }
}

fn path_matches(rel: &str, pattern: &str) -> bool {
    rel == pattern || rel.ends_with(&format!("/{pattern}"))
}

// ---------------------------------------------------------------------------
// Lint passes
// ---------------------------------------------------------------------------

fn fma_pass(s: &Source<'_>, out: &mut Vec<Violation>) {
    for ci in 0..s.code.len() {
        let Some(t) = s.ct(ci) else { continue };
        if t.kind != TokKind::Ident || !FMA_IDENTS.contains(&t.text) {
            continue;
        }
        // Tests that deliberately pin FMA semantics (e.g. asserting a
        // lane mul_add is correctly rounded) are meta-tests of the
        // contract itself, not shipped kernel math.
        if s.in_test_span(t.line) {
            continue;
        }
        let message = if t.text != FUSED_POLICY && !path_matches(&s.rel, FMA_POLICY_FILE) {
            format!(
                "literal `{}` outside `{FMA_POLICY_FILE}`: round through the `{FUSED_POLICY}` accumulate policy instead",
                t.text
            )
        } else {
            let (anchor, who) = match s.enclosing_fn(ci) {
                Some(f) => (f.decl_line, format!("fn `{}`", f.name)),
                None => (t.line, "enclosing item".to_string()),
            };
            if s.covered(anchor, CONTRACT_NEEDLES) {
                continue;
            }
            format!(
                "`{}` in strict kernel module without `// CONTRACT: lossy-tier` marker on {who}",
                t.text
            )
        };
        out.push(Violation {
            file: s.rel.clone(),
            line: t.line,
            lint: "fma-strict",
            message,
        });
    }
}

fn unsafe_pass(s: &Source<'_>, out: &mut Vec<Violation>) {
    for ci in 0..s.code.len() {
        if !s.is_ident(ci, "unsafe") {
            continue;
        }
        // Classify what follows; `unsafe fn(` / `unsafe extern "C" fn(`
        // are function-pointer *types* and carry no obligation.
        let mut j = ci + 1;
        if s.is_ident(j, "extern") {
            j += 1;
            if s.ct(j).is_some_and(|t| t.kind == TokKind::Str) {
                j += 1;
            }
        }
        let kind = if s.is_ident(j, "fn") {
            if s.is_punct(j + 1, "(") {
                continue; // fn-pointer type
            }
            "fn"
        } else if s.is_punct(j, "{") {
            "block"
        } else if s.is_ident(j, "impl") {
            "impl"
        } else if s.is_ident(j, "trait") {
            "trait"
        } else {
            "item"
        };
        let line = s.ct(ci).map_or(0, |t| t.line);
        if !s.covered(line, SAFETY_NEEDLES) {
            out.push(Violation {
                file: s.rel.clone(),
                line,
                lint: "unsafe-safety",
                message: format!(
                    "`unsafe` {kind} without `// SAFETY:` comment (or `# Safety` doc section)"
                ),
            });
        }
    }
}

fn caller_pass(s: &Source<'_>, out: &mut Vec<Violation>) {
    for attr in &s.attrs {
        if attr.head != "target_feature" {
            continue;
        }
        // The annotated function: first `fn` item token after the `]`
        // (skipping any further attributes).
        let mut ci = attr.end + 1;
        while s.is_punct(ci, "#") {
            let mut open = ci + 1;
            if s.is_punct(open, "!") {
                open += 1;
            }
            ci = s.match_delim(open, "[", "]") + 1;
        }
        let (fn_line, fn_name) = loop {
            match s.ct(ci) {
                Some(t) if t.kind == TokKind::Ident && t.text == "fn" => {
                    let name = s.ct(ci + 1).map(|n| n.text.to_string()).unwrap_or_default();
                    break (t.line, name);
                }
                Some(_) => ci += 1,
                None => break (attr.line, String::new()),
            }
        };
        if !s.covered(attr.line, CALLER_NEEDLES) && !s.covered(fn_line, CALLER_NEEDLES) {
            out.push(Violation {
                file: s.rel.clone(),
                line: fn_line,
                lint: "target-feature-caller",
                message: format!(
                    "#[target_feature] fn `{fn_name}` without `// CALLER:` note naming its runtime-detection guard"
                ),
            });
        }
    }
}

fn atomics_relaxed_pass(s: &Source<'_>, out: &mut Vec<Violation>) {
    for ci in 0..s.code.len() {
        if !s.is_ident(ci, "Relaxed") {
            continue;
        }
        let line = s.ct(ci).map_or(0, |t| t.line);
        if !s.covered(line, ORDERING_NEEDLES) {
            out.push(Violation {
                file: s.rel.clone(),
                line,
                lint: "atomics-ordering",
                message: "`Ordering::Relaxed` without `// ORDERING:` justification".to_string(),
            });
        }
    }
}

/// Stronger-than-Relaxed ordering sites in `vendor/rayon/src` must match
/// the protocol manifest exactly, per `(file, function, ordering)` — both
/// unlisted sites and count drift are violations.
fn atomics_protocol_pass(s: &Source<'_>, cfg: &Config, out: &mut Vec<Violation>) {
    // (fn name, ordering) -> (count, first line)
    let mut found: BTreeMap<(String, String), (usize, u32)> = BTreeMap::new();
    for ci in 0..s.code.len() {
        let Some(t) = s.ct(ci) else { continue };
        if t.kind != TokKind::Ident || !STRONG_ORDERINGS.contains(&t.text) {
            continue;
        }
        let func = s
            .enclosing_fn(ci)
            .map(|f| f.name.clone())
            .unwrap_or_else(|| "<top-level>".to_string());
        let e = found
            .entry((func, t.text.to_string()))
            .or_insert((0, t.line));
        e.0 += 1;
    }
    for ((func, ordering), (count, line)) in &found {
        match cfg
            .protocol
            .iter()
            .find(|p| path_matches(&s.rel, &p.path) && p.func == *func && p.ordering == *ordering)
        {
            None => out.push(Violation {
                file: s.rel.clone(),
                line: *line,
                lint: "atomics-protocol",
                message: format!(
                    "`Ordering::{ordering}` in fn `{func}` is not in the atomics protocol allowlist"
                ),
            }),
            Some(p) if p.count != *count => out.push(Violation {
                file: s.rel.clone(),
                line: *line,
                lint: "atomics-protocol",
                message: format!(
                    "`Ordering::{ordering}` count drift in fn `{func}`: found {count}, manifest expects {}",
                    p.count
                ),
            }),
            Some(_) => {}
        }
    }
    // Reverse direction for entries naming this file: the protocol site
    // must still exist (a silently deleted site is also drift).
    for p in cfg
        .protocol
        .iter()
        .filter(|p| path_matches(&s.rel, &p.path))
    {
        if !found.contains_key(&(p.func.clone(), p.ordering.clone())) {
            out.push(Violation {
                file: s.rel.clone(),
                line: 0,
                lint: "atomics-protocol",
                message: format!(
                    "manifest expects `Ordering::{}` x{} in fn `{}` but none found",
                    p.ordering, p.count, p.func
                ),
            });
        }
    }
}

fn determinism_pass(s: &Source<'_>, cfg: &Config, out: &mut Vec<Violation>) {
    let allowed = |name: &str| {
        cfg.determinism
            .iter()
            .any(|d| path_matches(&s.rel, &d.path) && d.name == name)
    };
    for ci in 0..s.code.len() {
        let Some(t) = s.ct(ci) else { continue };
        if t.kind != TokKind::Ident {
            continue;
        }
        let name = if DETERMINISM_IDENTS.contains(&t.text) {
            t.text.to_string()
        } else if t.text == "Instant"
            && s.is_punct(ci + 1, ":")
            && s.is_punct(ci + 2, ":")
            && s.is_ident(ci + 3, "now")
        {
            "Instant::now".to_string()
        } else {
            continue;
        };
        if s.in_test_span(t.line) || allowed(&name) {
            continue;
        }
        out.push(Violation {
            file: s.rel.clone(),
            line: t.line,
            lint: "determinism",
            message: format!(
                "`{name}` in kernel/trainer code path (add a `{name}`-free alternative, or allowlist in allowlists/determinism.txt)"
            ),
        });
    }
}

/// Every `unwrap` / `expect` call and `panic!` invocation in a
/// [`PANIC_CENSUS_FILES`] module must carry a `// PANICS:` justification
/// (same marker grammar as `SAFETY:` / `CALLER:` / `ORDERING:`).
fn panic_pass(s: &Source<'_>, out: &mut Vec<Violation>) {
    for ci in 0..s.code.len() {
        let Some(t) = s.ct(ci) else { continue };
        if t.kind != TokKind::Ident {
            continue;
        }
        let what = if PANIC_IDENTS.contains(&t.text) {
            format!("`.{}()`", t.text)
        } else if t.text == "panic" && s.is_punct(ci + 1, "!") {
            "`panic!`".to_string()
        } else {
            continue;
        };
        if s.in_test_span(t.line) {
            continue;
        }
        if !s.covered(t.line, PANICS_NEEDLES) {
            out.push(Violation {
                file: s.rel.clone(),
                line: t.line,
                lint: "panic-census",
                message: format!("{what} in hot-path module without `// PANICS:` justification"),
            });
        }
    }
}

/// Runs every pass applicable to `rel` over `src`. This is the seam the
/// fixture tests drive directly with fake paths.
pub fn lint_source(rel: &str, src: &str, cfg: &Config) -> Vec<Violation> {
    let s = Source::parse(rel, src);
    let mut out = Vec::new();
    if FMA_STRICT_FILES.iter().any(|f| path_matches(rel, f)) {
        fma_pass(&s, &mut out);
    }
    unsafe_pass(&s, &mut out);
    caller_pass(&s, &mut out);
    atomics_relaxed_pass(&s, &mut out);
    if rel.starts_with("vendor/rayon/src") {
        atomics_protocol_pass(&s, cfg, &mut out);
    }
    if rel.starts_with("crates/nerf/src")
        || rel.starts_with("crates/core/src")
        || rel.starts_with("crates/serve/src")
    {
        determinism_pass(&s, cfg, &mut out);
    }
    if PANIC_CENSUS_FILES.iter().any(|f| path_matches(rel, f)) {
        panic_pass(&s, &mut out);
    }
    out.sort_by(|a, b| (a.line, a.lint).cmp(&(b.line, b.lint)));
    out
}

/// Files in scope: every `crates/*/src/**/*.rs` (except this crate) plus
/// `vendor/rayon/src/**/*.rs`, rel-pathed with forward slashes.
pub fn collect_files(root: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    let crates_dir = root.join("crates");
    if let Ok(entries) = fs::read_dir(&crates_dir) {
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() && p.file_name().is_some_and(|n| n != "conformance") {
                walk_rs(&p.join("src"), &mut files);
            }
        }
    }
    walk_rs(&root.join("vendor/rayon/src"), &mut files);
    files.sort();
    files
}

fn walk_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            walk_rs(&p, out);
        } else if p.extension().is_some_and(|x| x == "rs") {
            out.push(p);
        }
    }
}

/// Lints the whole tree under `root` against the checked-in allowlists
/// and baseline.
pub fn run_all(root: &Path) -> Report {
    let cfg = Config::load(root);
    let files = collect_files(root);
    let mut report = Report {
        files_scanned: files.len(),
        ..Report::default()
    };
    let mut seen_rels: HashSet<String> = HashSet::new();
    for path in &files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        seen_rels.insert(rel.clone());
        let src = match fs::read_to_string(path) {
            Ok(s) => s,
            Err(err) => {
                report.violations.push(Violation {
                    file: rel,
                    line: 0,
                    lint: "io",
                    message: format!("unreadable source file: {err}"),
                });
                continue;
            }
        };
        for v in lint_source(&rel, &src, &cfg) {
            let baselined = cfg
                .baseline
                .iter()
                .any(|(lint, path)| *lint == v.lint && path_matches(&v.file, path));
            if baselined {
                report.baselined.push(v);
            } else {
                report.violations.push(v);
            }
        }
    }
    // Manifest entries pointing at files that are no longer scanned at all.
    for p in &cfg.protocol {
        if !seen_rels.iter().any(|rel| path_matches(rel, &p.path)) {
            report.violations.push(Violation {
                file: p.path.clone(),
                line: 0,
                lint: "atomics-protocol",
                message: format!(
                    "manifest names fn `{}` but the file is not in the scanned tree",
                    p.func
                ),
            });
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covered_walks_through_comments_and_attributes() {
        let src = "\
// CALLER: guarded by is_x86_feature_detected
#[inline]
#[target_feature(enable = \"avx2\")]
unsafe fn f() {}
";
        let s = Source::parse("crates/nerf/src/x.rs", src);
        assert!(s.covered(4, CALLER_NEEDLES));
        assert!(!s.covered(4, SAFETY_NEEDLES));
    }

    #[test]
    fn covered_breaks_on_blank_lines_and_code() {
        let src = "\
// SAFETY: stale marker
let y = 1;
unsafe { x() }
// SAFETY: far away

unsafe { z() }
";
        let s = Source::parse("crates/nerf/src/x.rs", src);
        assert!(!s.covered(3, SAFETY_NEEDLES));
        assert!(!s.covered(6, SAFETY_NEEDLES));
    }

    #[test]
    fn trailing_comment_on_the_same_line_counts() {
        let src = "unsafe { x() } // SAFETY: single-line form\n";
        let s = Source::parse("crates/nerf/src/x.rs", src);
        assert!(s.covered(1, SAFETY_NEEDLES));
    }

    #[test]
    fn fn_spans_resolve_innermost_items() {
        let src = "\
fn outer() {
    fn inner() {
        let v = a.mul_add(b, c);
    }
}
";
        let s = Source::parse("crates/nerf/src/grid.rs", src);
        let ci = (0..s.code.len())
            .find(|&ci| s.is_ident(ci, "mul_add"))
            .unwrap();
        assert_eq!(s.enclosing_fn(ci).unwrap().name, "inner");
    }

    #[test]
    fn fn_pointer_types_are_not_fn_items() {
        let src = "struct J { exec: unsafe fn(*const ()) }\n";
        let s = Source::parse("vendor/rayon/src/job.rs", src);
        assert!(s.fns.is_empty());
        let mut v = Vec::new();
        unsafe_pass(&s, &mut v);
        assert!(v.is_empty(), "fn-pointer type flagged: {v:?}");
    }

    #[test]
    fn cfg_test_spans_cover_the_item_body() {
        let src = "\
fn real() {}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;
}
";
        let s = Source::parse("crates/nerf/src/x.rs", src);
        assert!(s.in_test_span(5));
        assert!(!s.in_test_span(1));
    }
}
