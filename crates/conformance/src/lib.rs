//! In-tree contract conformance suite for the instant3d workspace: the
//! atomics half of the contract enforcement described in
//! `crates/nerf/src/kernels/mod.rs` ("Contract enforcement").
//!
//! rustc, clippy and module privacy enforce every kernel contract they can
//! see (FMA placement, the `unsafe` / `#[target_feature]` census,
//! determinism, the panic census). What they cannot see is whether an
//! atomic ordering is strong enough, so two lint passes over a hand-rolled
//! lexer ([`lexer`]) remain here. The crate has no dependencies — it reads
//! the engine's sources, it does not compile them.
//!
//! # Lint passes
//!
//! * **atomics-ordering** — every `Ordering::Relaxed` in `crates/*/src`
//!   and `vendor/rayon/src` must carry an `// ORDERING:` justification.
//! * **atomics-protocol** — every stronger ordering in `vendor/rayon/src`
//!   must match `allowlists/atomics_protocol.txt` per (file, function,
//!   ordering) and count, in both directions.
//!
//! Marker grammar: an `// ORDERING:` comment either trails the flagged
//! line itself or sits on a line above it, reachable by walking up through
//! contiguous comment-only and attribute lines; a blank line or an
//! unrelated code line breaks the walk.

#![forbid(unsafe_code)]

use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

pub mod lexer;
use lexer::{lex, Tok, TokKind};

const ORDERING_NEEDLES: &[&str] = &["ORDERING:"];
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

/// Protocol manifest + baseline the passes consult. `Default` (both
/// empty) is the strictest configuration and what fixture tests use.
#[derive(Debug, Clone, Default)]
pub struct Config {
    pub protocol: Vec<ProtocolEntry>,
    /// `(lint, path)` pairs whose violations are tolerated (reported but
    /// non-fatal). Checked in from day one as empty.
    pub baseline: Vec<(String, String)>,
}

impl Config {
    /// Loads the checked-in protocol manifest + baseline under
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
    start: usize,
    end: usize,
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
                    let line = self.ct(ci).map_or(0, |t| t.line);
                    let end_line = self.ct(close).map_or(line, |t| t.line);
                    for l in line..=end_line {
                        self.attr_lines.insert(l);
                    }
                    ci = close + 1;
                    continue;
                }
            }
            ci += 1;
        }
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

/// Runs every pass applicable to `rel` over `src`. This is the seam the
/// fixture tests drive directly with fake paths.
pub fn lint_source(rel: &str, src: &str, cfg: &Config) -> Vec<Violation> {
    let s = Source::parse(rel, src);
    let mut out = Vec::new();
    atomics_relaxed_pass(&s, &mut out);
    if rel.starts_with("vendor/rayon/src") {
        atomics_protocol_pass(&s, cfg, &mut out);
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
// ORDERING: Relaxed — debug counter, never synchronizes anything.
#[inline]
#[cfg(debug_assertions)]
fn bump() { C.fetch_add(1, Ordering::Relaxed); }
";
        let s = Source::parse("vendor/rayon/src/x.rs", src);
        assert!(s.covered(4, ORDERING_NEEDLES));
        assert!(!s.covered(4, &["SAFETY:"]));
    }

    #[test]
    fn covered_breaks_on_blank_lines_and_code() {
        let src = "\
// ORDERING: stale marker
let y = 1;
C.load(Ordering::Relaxed);
// ORDERING: far away

C.load(Ordering::Relaxed);
";
        let s = Source::parse("vendor/rayon/src/x.rs", src);
        assert!(!s.covered(3, ORDERING_NEEDLES));
        assert!(!s.covered(6, ORDERING_NEEDLES));
    }

    #[test]
    fn trailing_comment_on_the_same_line_counts() {
        let src = "C.load(Ordering::Relaxed); // ORDERING: single-line form\n";
        let s = Source::parse("vendor/rayon/src/x.rs", src);
        assert!(s.covered(1, ORDERING_NEEDLES));
    }

    #[test]
    fn fn_spans_resolve_innermost_items() {
        let src = "\
fn outer() {
    fn inner() {
        let v = C.load(Ordering::SeqCst);
    }
}
";
        let s = Source::parse("vendor/rayon/src/x.rs", src);
        let ci = (0..s.code.len())
            .find(|&ci| s.is_ident(ci, "SeqCst"))
            .unwrap();
        assert_eq!(s.enclosing_fn(ci).unwrap().name, "inner");
    }

    #[test]
    fn fn_pointer_types_are_not_fn_items() {
        let src = "struct J { exec: unsafe fn(*const ()) }\n";
        let s = Source::parse("vendor/rayon/src/job.rs", src);
        assert!(s.fns.is_empty());
    }
}
