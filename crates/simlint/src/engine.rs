//! The lint engine: configuration, file discovery, suppression directives,
//! and the two-phase driver that runs every rule over a file set.
//!
//! ## Two phases
//!
//! Phase 1 ([`analyze_rust`] / [`analyze_manifest`]) is per-file and pure:
//! lex, parse, run the local rules (SL001–SL006), extract graph facts, and
//! parse directives — *without* applying suppressions. The result
//! ([`FileAnalysis`]) depends only on the file's bytes and the config.
//!
//! Phase 2 ([`finish`]) joins all analyses: the call-graph rules
//! (SL007 v2/SL008/SL009/SL010, see [`crate::graph`]) run over every
//! file's facts, then suppressions are applied per file and unused
//! directives become SL000 errors.
//!
//! ## Suppression
//!
//! A finding is suppressed with a per-line directive naming the rule (slug
//! or `SLnnn` ID), either trailing the offending line or on a comment line
//! directly above it:
//!
//! ```text
//! let t0 = Instant::now(); // simlint: allow(determinism): bench timing only
//! ```
//!
//! ```text
//! // simlint: allow(panic-policy): mutex poisoning is unrecoverable here
//! let g = self.inner.lock().unwrap();
//! ```
//!
//! Directives carry a free-form justification after the closing paren.
//! **Unused directives are themselves errors** (`SL000/unused-allow`): a
//! suppression that no longer suppresses anything is stale documentation
//! and gets removed rather than rotting. TOML manifests use the same
//! syntax behind `#` comments.
//!
//! `allow(determinism-taint)` is special: placed on a call line it both
//! suppresses the SL008 finding *and* stops the taint from propagating
//! through that edge (a declared timing-only boundary). The graph pass
//! reports which of these actually contained an edge, so unused ones are
//! still SL000 errors.

use crate::diag::{Diagnostic, RuleId, Severity};
use crate::graph;
use crate::lexer::{self, Token};
use crate::parse;
use crate::rules;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// Which paths each scoped rule applies to, plus walk exclusions.
/// Paths are workspace-relative with `/` separators; a scope entry matches
/// any file under that prefix.
#[derive(Clone, Debug)]
pub struct Config {
    /// Workspace root all paths are relative to.
    pub root: PathBuf,
    /// Library-crate sources held to the panic policy (SL002).
    pub panic_scope: Vec<String>,
    /// Sim/CCA sources held to the float-eq rule (SL003).
    pub float_scope: Vec<String>,
    /// Sources held to the unit-cast rule (SL004).
    pub cast_scope: Vec<String>,
    /// Sources where SL008 determinism-taint call edges are reported.
    /// (Taint *propagates* through all files; only findings are scoped.)
    pub taint_scope: Vec<String>,
    /// Sources where SL010 discarded-Result findings are reported.
    pub result_scope: Vec<String>,
    /// Sources whose `Event::…` constructions count as live for SL009.
    pub event_construct_scope: Vec<String>,
    /// The file defining `trace::Event` (empty = any file defining an
    /// `enum Event`, which is what the fixture config uses).
    pub trace_def_path: String,
    /// Files exempt from the determinism rule (SL001) wholesale. Empty for
    /// this workspace: the legitimate wall-clock sites carry explicit
    /// justified `allow` directives instead, so each exemption is visible
    /// at the site it covers.
    pub determinism_allow: Vec<String>,
    /// Directory names never descended into.
    pub skip_dirs: Vec<String>,
}

impl Config {
    /// The scopes for *this* workspace: panic/float/taint/result policy
    /// over the five library crates, unit-cast over `netsim`, SL009 live
    /// constructions in `netsim`, everything else global. SL007's hot set
    /// is not a path scope any more — it is the call-graph closure of the
    /// `// simlint: hot-root` annotations wherever they live.
    pub fn for_workspace(root: impl Into<PathBuf>) -> Config {
        let lib = [
            "crates/simcore/src",
            "crates/netsim/src",
            "crates/cca/src",
            "crates/core/src",
            // The scenario DSL + fuzzer: library code other tools embed
            // (canon, sweep, the repro CLI), so it carries library policy.
            "crates/scenario/src",
        ];
        let lib: Vec<String> = lib.iter().map(|s| s.to_string()).collect();
        Config {
            root: root.into(),
            panic_scope: lib.clone(),
            float_scope: lib.clone(),
            cast_scope: vec!["crates/netsim/src".to_string()],
            taint_scope: lib.clone(),
            result_scope: lib,
            event_construct_scope: vec!["crates/netsim/src".to_string()],
            trace_def_path: "crates/simcore/src/trace.rs".to_string(),
            determinism_allow: Vec::new(),
            skip_dirs: vec![
                "target".to_string(),
                ".git".to_string(),
                // simlint's own rule fixtures deliberately violate rules.
                "fixtures".to_string(),
                // Generated experiment artifacts, not source.
                "results".to_string(),
            ],
        }
    }

    /// A config whose scoped rules apply to every file — what the fixture
    /// tests use so a fixture exercises its rule regardless of location.
    pub fn everything(root: impl Into<PathBuf>) -> Config {
        Config {
            root: root.into(),
            panic_scope: vec![String::new()],
            float_scope: vec![String::new()],
            cast_scope: vec![String::new()],
            taint_scope: vec![String::new()],
            result_scope: vec![String::new()],
            event_construct_scope: vec![String::new()],
            trace_def_path: String::new(),
            determinism_allow: Vec::new(),
            skip_dirs: vec!["target".to_string(), ".git".to_string()],
        }
    }

    fn in_scope(scope: &[String], rel: &str) -> bool {
        scope.iter().any(|p| rel.starts_with(p.as_str()))
    }
}

/// One parsed `allow(…)` directive.
#[derive(Clone, Debug)]
pub struct Directive {
    /// Line the directive suppresses (its own line, or the next when the
    /// directive is alone on its line).
    pub target: u32,
    /// Rules it names.
    pub rules: Vec<RuleId>,
    /// Where the directive itself sits (for unused-allow reporting).
    pub line: u32,
    pub col: u32,
}

/// Phase-1 output for one file: everything the graph pass and the
/// suppression pass need, none of it suppressed yet.
#[derive(Clone, Debug)]
pub struct FileAnalysis {
    /// Workspace-relative path.
    pub rel: String,
    /// Raw local findings (SL001–SL006) plus SL000 meta errors (malformed
    /// directives, unattached markers), pre-suppression.
    pub local_diags: Vec<Diagnostic>,
    /// Every well-formed allow directive in the file.
    pub directives: Vec<Directive>,
    /// Call-graph facts (empty for manifests).
    pub facts: graph::FileFacts,
}

/// Parse directives out of a Rust token stream.
fn rust_directives(tokens: &[Token], path: &str, diags: &mut Vec<Diagnostic>) -> Vec<Directive> {
    let code_lines: BTreeSet<u32> =
        tokens.iter().filter(|t| !t.is_comment()).map(|t| t.line).collect();
    let mut out = Vec::new();
    for t in tokens.iter().filter(|t| t.is_comment()) {
        let body = t
            .text
            .trim_start_matches('/')
            .trim_start_matches('*')
            .trim_end_matches('/')
            .trim_end_matches('*');
        if let Some(d) =
            parse_directive(body, t.line, t.col, code_lines.contains(&t.line), path, diags)
        {
            out.push(d);
        }
    }
    out
}

/// Parse directives out of a TOML file's `#` comments.
fn toml_directives(src: &str, path: &str, diags: &mut Vec<Diagnostic>) -> Vec<Directive> {
    let mut out = Vec::new();
    for (idx, raw) in src.lines().enumerate() {
        let line = idx as u32 + 1;
        let before = rules::strip_toml_comment(raw);
        if before.len() == raw.len() {
            continue; // no comment on this line
        }
        let comment = &raw[before.len()..];
        let col = before.chars().count() as u32 + 1;
        let has_code = !before.trim().is_empty();
        if let Some(d) =
            parse_directive(comment.trim_start_matches('#'), line, col, has_code, path, diags)
        {
            out.push(d);
        }
    }
    out
}

/// Parse one comment body. Returns a directive if it is a well-formed
/// `simlint: allow(rule[, rule…])`, records an SL000 diagnostic if it
/// mentions simlint but cannot be parsed or names an unknown rule.
/// `hot-root`/`cold` markers are the graph pass's business
/// ([`graph::extract`]) and pass through silently here.
fn parse_directive(
    body: &str,
    line: u32,
    col: u32,
    trails_code: bool,
    path: &str,
    diags: &mut Vec<Diagnostic>,
) -> Option<Directive> {
    let body = body.trim();
    let rest = body.strip_prefix("simlint:")?.trim_start();
    for marker in ["hot-root", "cold"] {
        if let Some(after) = rest.strip_prefix(marker) {
            let after = after.trim_start();
            if after.is_empty() || after.starts_with(':') {
                return None; // a graph marker, not an allow directive
            }
        }
    }
    let bad = |msg: String, diags: &mut Vec<Diagnostic>| {
        diags.push(Diagnostic::new(RuleId::UnusedAllow, path, line, col, msg));
        None
    };
    let Some(inner) = rest.strip_prefix("allow(").and_then(|r| r.split_once(')')) else {
        return bad(
            format!("malformed simlint directive (expected `simlint: allow(<rule>)`): `{body}`"),
            diags,
        );
    };
    let mut rules_named = Vec::new();
    for name in inner.0.split(',') {
        let name = name.trim();
        match RuleId::from_name(name) {
            Some(r) => rules_named.push(r),
            None => {
                return bad(format!("unknown rule `{name}` in simlint allow directive"), diags)
            }
        }
    }
    if rules_named.is_empty() {
        return bad("empty simlint allow directive".to_string(), diags);
    }
    Some(Directive {
        target: if trails_code { line } else { line + 1 },
        rules: rules_named,
        line,
        col,
    })
}

/// Apply directives to one file's raw findings: drop suppressed findings,
/// then report unused directives as SL000 errors. `pre_used` holds target
/// lines of `allow(determinism-taint)` directives the graph pass consumed
/// by containing an edge. When `judge_graph_dirs` is false (partial file
/// set), directives naming a graph rule are never reported unused — the
/// graph couldn't see enough of the workspace to judge them.
fn apply_suppressions(
    path: &str,
    directives: &[Directive],
    pre_used: &BTreeSet<u32>,
    raw: Vec<Diagnostic>,
    judge_graph_dirs: bool,
) -> Vec<Diagnostic> {
    let mut used = vec![false; directives.len()];
    for (i, dir) in directives.iter().enumerate() {
        if pre_used.contains(&dir.target) && dir.rules.contains(&RuleId::DeterminismTaint) {
            used[i] = true;
        }
    }
    let mut out = Vec::new();
    for d in raw {
        let mut suppressed = false;
        for (i, dir) in directives.iter().enumerate() {
            if dir.target == d.line && dir.rules.contains(&d.rule) {
                used[i] = true;
                suppressed = true;
            }
        }
        if !suppressed {
            out.push(d);
        }
    }
    for (i, dir) in directives.iter().enumerate() {
        if used[i] {
            continue;
        }
        if !judge_graph_dirs && dir.rules.iter().any(|r| graph::GRAPH_RULES.contains(r)) {
            continue;
        }
        let names: Vec<&str> = dir.rules.iter().map(|r| r.slug()).collect();
        out.push(Diagnostic::new(
            RuleId::UnusedAllow,
            path,
            dir.line,
            dir.col,
            format!(
                "unused suppression: allow({}) matched no finding on line {}; remove it",
                names.join(", "),
                dir.target
            ),
        ));
    }
    out
}

/// Phase 1 for one Rust source file. `rel` is the workspace-relative path
/// used both for scope decisions and in diagnostics.
pub fn analyze_rust(cfg: &Config, rel: &str, src: &str) -> FileAnalysis {
    let tokens = lexer::lex(src);
    let mut local = Vec::new();
    let directives = rust_directives(&tokens, rel, &mut local);
    let code: Vec<Token> = tokens.iter().filter(|t| !t.is_comment()).cloned().collect();
    let spans = rules::test_spans(&code);

    if !cfg.determinism_allow.iter().any(|p| p == rel) {
        rules::determinism(rel, &code, &mut local);
    }
    if Config::in_scope(&cfg.panic_scope, rel) {
        rules::panic_policy(rel, &code, &spans, &mut local);
    }
    if Config::in_scope(&cfg.float_scope, rel) {
        rules::float_eq(rel, &code, &spans, &mut local);
    }
    if Config::in_scope(&cfg.cast_scope, rel) {
        rules::unit_cast(rel, &code, &spans, &mut local);
    }
    rules::trace_exhaustiveness(rel, &code, &mut local);

    // Graph facts need the *unfiltered* stream (markers live in comments)
    // and line-based test spans (the parser's indices are unfiltered).
    let line_spans: Vec<(u32, u32)> =
        spans.iter().map(|&(a, b)| (code[a].line, code[b].line)).collect();
    let parsed = parse::parse(&tokens);
    let facts = graph::extract(rel, &tokens, &parsed, &line_spans, &mut local);

    FileAnalysis { rel: rel.to_string(), local_diags: local, directives, facts }
}

/// Phase 1 for one `Cargo.toml`.
pub fn analyze_manifest(_cfg: &Config, rel: &str, src: &str) -> FileAnalysis {
    let mut local = Vec::new();
    let directives = toml_directives(src, rel, &mut local);
    rules::dep_hygiene(rel, src, &mut local);
    FileAnalysis {
        rel: rel.to_string(),
        local_diags: local,
        directives,
        facts: graph::FileFacts::default(),
    }
}

/// Phase 2: run the graph rules over every analysis, then apply
/// suppressions per file. `complete` says the file set covers the whole
/// workspace (enables SL009/SL010, unused-cold checks, and unused-allow
/// judgement of graph-rule directives); `require_roots` makes a hot-root
/// annotated workspace mandatory.
pub fn finish(
    cfg: &Config,
    analyses: &[FileAnalysis],
    complete: bool,
    require_roots: bool,
) -> Vec<Diagnostic> {
    let gfiles: Vec<(String, graph::FileFacts)> =
        analyses.iter().map(|a| (a.rel.clone(), a.facts.clone())).collect();
    let mut taint_allows: BTreeSet<(usize, u32)> = BTreeSet::new();
    for (i, a) in analyses.iter().enumerate() {
        for d in &a.directives {
            if d.rules.contains(&RuleId::DeterminismTaint) {
                taint_allows.insert((i, d.target));
            }
        }
    }
    let gcfg = graph::GraphConfig {
        complete,
        require_roots,
        taint_scope: &cfg.taint_scope,
        result_scope: &cfg.result_scope,
        event_scope: &cfg.event_construct_scope,
        trace_def: &cfg.trace_def_path,
    };
    let gout = graph::run(&gfiles, &gcfg, &taint_allows);

    let mut graph_by_file: std::collections::BTreeMap<String, Vec<Diagnostic>> =
        std::collections::BTreeMap::new();
    for d in gout.diags {
        graph_by_file.entry(d.file.clone()).or_default().push(d);
    }

    let mut out = Vec::new();
    for (i, a) in analyses.iter().enumerate() {
        // SL000 meta errors (parse failures, unattached markers, unused
        // cold markers) must never be "suppressed" by a directive.
        let mut raw = Vec::new();
        let mut meta = Vec::new();
        for d in a.local_diags.iter().cloned() {
            if d.rule == RuleId::UnusedAllow {
                meta.push(d);
            } else {
                raw.push(d);
            }
        }
        for d in graph_by_file.remove(&a.rel).unwrap_or_default() {
            if d.rule == RuleId::UnusedAllow {
                meta.push(d);
            } else {
                raw.push(d);
            }
        }
        let pre_used: BTreeSet<u32> = gout
            .used_taint_allows
            .iter()
            .filter(|&&(fi, _)| fi == i)
            .map(|&(_, l)| l)
            .collect();
        let mut file_out = apply_suppressions(&a.rel, &a.directives, &pre_used, raw, complete);
        file_out.extend(meta);
        out.extend(file_out);
    }
    // Graph diags addressed to files outside the analysis set (the
    // zero-roots guard when no root Cargo.toml was linted).
    for (_, ds) in graph_by_file {
        out.extend(ds);
    }
    sort_diags(&mut out);
    out
}

/// Lint one Rust source file as a self-contained unit (fixtures, tests).
pub fn lint_rust(cfg: &Config, rel: &str, src: &str) -> Vec<Diagnostic> {
    finish(cfg, &[analyze_rust(cfg, rel, src)], true, false)
}

/// Lint one `Cargo.toml` as a self-contained unit.
pub fn lint_manifest(cfg: &Config, rel: &str, src: &str) -> Vec<Diagnostic> {
    finish(cfg, &[analyze_manifest(cfg, rel, src)], true, false)
}

fn sort_diags(diags: &mut [Diagnostic]) {
    diags.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.col, a.rule.id())
            .cmp(&(b.file.as_str(), b.line, b.col, b.rule.id()))
    });
}

/// A finished lint run.
pub struct LintReport {
    /// Findings across all files, sorted by (file, line, col).
    pub diags: Vec<Diagnostic>,
    /// Number of files inspected.
    pub files_checked: usize,
}

impl LintReport {
    /// Count of error-severity findings.
    pub fn errors(&self) -> usize {
        self.diags.iter().filter(|d| d.severity == Severity::Error).count()
    }

    /// Count of warning-severity findings.
    pub fn warnings(&self) -> usize {
        self.diags.iter().filter(|d| d.severity == Severity::Warning).count()
    }

    /// Should the process exit non-zero?
    pub fn failed(&self, deny_warnings: bool) -> bool {
        self.errors() > 0 || (deny_warnings && self.warnings() > 0)
    }
}

/// Lint every `.rs` and `Cargo.toml` under the config's root: the
/// complete-workspace mode. Hot roots are required and SL009/SL010 run.
pub fn lint_workspace(cfg: &Config) -> LintReport {
    let mut files = Vec::new();
    collect_files(cfg, &cfg.root, &mut files);
    files.sort(); // deterministic output order, independent of readdir order

    let mut analyses = Vec::new();
    let mut unreadable = Vec::new();
    for f in &files {
        let rel = f
            .strip_prefix(&cfg.root)
            .unwrap_or(f)
            .to_string_lossy()
            .replace('\\', "/");
        let Ok(src) = std::fs::read_to_string(f) else {
            unreadable.push(Diagnostic::new(
                RuleId::UnusedAllow,
                &rel,
                1,
                1,
                "cannot read file".to_string(),
            ));
            continue;
        };
        if rel.ends_with(".rs") {
            analyses.push(analyze_rust(cfg, &rel, &src));
        } else {
            analyses.push(analyze_manifest(cfg, &rel, &src));
        }
    }

    let mut diags = finish(cfg, &analyses, true, true);
    diags.extend(unreadable);
    sort_diags(&mut diags);

    LintReport { diags, files_checked: analyses.len() }
}

/// Lint an explicit file list (absolute or root-relative paths). This is
/// the *partial* mode: the graph rules that need whole-workspace
/// visibility (SL009, SL010, unused-cold, zero-roots) stay quiet, and
/// directives naming graph rules are never reported unused.
pub fn lint_paths(cfg: &Config, files: &[PathBuf]) -> LintReport {
    let mut analyses = Vec::new();
    let mut unreadable = Vec::new();
    for f in files {
        let abs = if f.is_absolute() { f.clone() } else { cfg.root.join(f) };
        let rel = abs
            .strip_prefix(&cfg.root)
            .unwrap_or(&abs)
            .to_string_lossy()
            .replace('\\', "/");
        let Ok(src) = std::fs::read_to_string(&abs) else {
            unreadable.push(Diagnostic::new(
                RuleId::UnusedAllow,
                &rel,
                1,
                1,
                "cannot read file".to_string(),
            ));
            continue;
        };
        if rel.ends_with(".rs") {
            analyses.push(analyze_rust(cfg, &rel, &src));
        } else if rel.ends_with("Cargo.toml") {
            analyses.push(analyze_manifest(cfg, &rel, &src));
        }
    }
    let mut diags = finish(cfg, &analyses, false, false);
    diags.extend(unreadable);
    sort_diags(&mut diags);
    LintReport { diags, files_checked: analyses.len() }
}

fn collect_files(cfg: &Config, dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if !cfg.skip_dirs.iter().any(|s| s.as_str() == name) {
                collect_files(cfg, &path, out);
            }
        } else if name.ends_with(".rs") || name == "Cargo.toml" {
            out.push(path);
        }
    }
}

/// Walk upward from `start` to the manifest that declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.lines().any(|l| l.trim() == "[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> Config {
        Config::everything("/nonexistent")
    }

    #[test]
    fn trailing_directive_suppresses_same_line() {
        let src = "fn f() { let m: HashMap<u8,u8> = x; } // simlint: allow(determinism): test map\n";
        let out = lint_rust(&cfg(), "f.rs", src);
        assert!(out.is_empty(), "{out:#?}");
    }

    #[test]
    fn standalone_directive_suppresses_next_line() {
        let src = "// simlint: allow(determinism): deliberate\nfn f() { let m: HashMap<u8,u8> = x; }\n";
        let out = lint_rust(&cfg(), "f.rs", src);
        assert!(out.is_empty(), "{out:#?}");
    }

    #[test]
    fn directive_accepts_numeric_id() {
        let src = "fn f() { let m: HashSet<u8> = x; } // simlint: allow(SL001)\n";
        let out = lint_rust(&cfg(), "f.rs", src);
        assert!(out.is_empty(), "{out:#?}");
    }

    #[test]
    fn unused_directive_is_an_error() {
        let src = "// simlint: allow(determinism): nothing here\nfn f() {}\n";
        let out = lint_rust(&cfg(), "f.rs", src);
        assert_eq!(out.len(), 1, "{out:#?}");
        assert_eq!(out[0].rule, RuleId::UnusedAllow);
        assert!(out[0].message.contains("unused suppression"), "{}", out[0].message);
    }

    #[test]
    fn unknown_rule_in_directive_is_an_error() {
        let src = "fn f() {} // simlint: allow(no-such-rule)\n";
        let out = lint_rust(&cfg(), "f.rs", src);
        assert_eq!(out.len(), 1, "{out:#?}");
        assert!(out[0].message.contains("unknown rule"), "{}", out[0].message);
    }

    #[test]
    fn malformed_directive_is_an_error() {
        let src = "fn f() {} // simlint: allowing(determinism)\n";
        let out = lint_rust(&cfg(), "f.rs", src);
        assert_eq!(out.len(), 1, "{out:#?}");
        assert!(out[0].message.contains("malformed"), "{}", out[0].message);
    }

    #[test]
    fn markers_are_not_malformed_directives() {
        let src = "// simlint: hot-root\nfn pump() {}\n";
        let out = lint_rust(&cfg(), "f.rs", src);
        assert!(out.is_empty(), "{out:#?}");
    }

    #[test]
    fn directive_suppresses_only_named_rule() {
        // The determinism finding is suppressed; the unwrap still fires.
        let src = "fn f() { let m: HashMap<u8,u8> = y.unwrap(); } // simlint: allow(determinism)\n";
        let out = lint_rust(&cfg(), "f.rs", src);
        assert_eq!(out.len(), 1, "{out:#?}");
        assert_eq!(out[0].rule, RuleId::PanicPolicy);
    }

    #[test]
    fn multi_rule_directive() {
        let src =
            "fn f() { let m: HashMap<u8,u8> = y.unwrap(); } // simlint: allow(determinism, panic-policy)\n";
        let out = lint_rust(&cfg(), "f.rs", src);
        assert!(out.is_empty(), "{out:#?}");
    }

    #[test]
    fn scoped_rules_respect_config_paths() {
        let mut c = Config::for_workspace("/nonexistent");
        c.determinism_allow.clear();
        // unwrap outside the panic scope: no finding.
        let out = lint_rust(&c, "crates/bench/src/x.rs", "fn f() { y.unwrap(); }");
        assert!(out.is_empty(), "{out:#?}");
        // Same code inside a library crate: finding.
        let out = lint_rust(&c, "crates/netsim/src/x.rs", "fn f() { y.unwrap(); }");
        assert_eq!(out.len(), 1, "{out:#?}");
    }

    #[test]
    fn determinism_allowlist_exempts_whole_file() {
        let mut c = Config::for_workspace("/nonexistent");
        c.determinism_allow.push("crates/x/src/timing.rs".to_string());
        // SL001 is exempted by the allowlist; the SL008 taint edge from
        // `f` into nothing (no callers) produces no finding either.
        let src = "fn f() { let t = Instant::now(); }";
        assert!(lint_rust(&c, "crates/x/src/timing.rs", src).is_empty());
        assert_eq!(lint_rust(&c, "crates/x/src/other.rs", src).len(), 1);
    }

    #[test]
    fn taint_allow_suppresses_edge_and_counts_used() {
        let src = "\
fn wall_now() -> u64 {
    Instant::now() // simlint: allow(determinism): timing sink only
}
fn caller() {
    wall_now(); // simlint: allow(determinism-taint): declared timing boundary
}
fn grand() { caller(); }
";
        let out = lint_rust(&cfg(), "f.rs", src);
        // The contained edge stops propagation: grand sees nothing, and
        // neither allow is reported unused.
        assert!(out.is_empty(), "{out:#?}");
    }

    #[test]
    fn unused_taint_allow_is_an_error() {
        let src = "fn pure() -> u64 { 7 }\nfn caller() {\n    pure(); // simlint: allow(determinism-taint): nothing here\n}\n";
        let out = lint_rust(&cfg(), "f.rs", src);
        assert_eq!(out.len(), 1, "{out:#?}");
        assert_eq!(out[0].rule, RuleId::UnusedAllow);
    }

    #[test]
    fn partial_mode_never_reports_graph_directives_unused() {
        let src = "fn caller() {\n    helper(); // simlint: allow(hot-path-alloc): once per run\n}\n";
        let a = analyze_rust(&cfg(), "f.rs", src);
        // Partial (complete=false): the allow is exempt from judgement.
        let out = finish(&cfg(), &[a.clone()], false, false);
        assert!(out.is_empty(), "{out:#?}");
        // Complete: it is stale and reported.
        let out = finish(&cfg(), &[a], true, false);
        assert_eq!(out.len(), 1, "{out:#?}");
        assert_eq!(out[0].rule, RuleId::UnusedAllow);
    }

    #[test]
    fn toml_directive_suppresses_dep_finding() {
        let toml = "[dependencies]\nserde = \"1.0\" # simlint: allow(dep-hygiene): fixture\n";
        let out = lint_manifest(&cfg(), "Cargo.toml", toml);
        assert!(out.is_empty(), "{out:#?}");
    }

    #[test]
    fn toml_unused_directive_is_an_error() {
        let toml = "[package]\nname = \"x\" # simlint: allow(dep-hygiene)\n";
        let out = lint_manifest(&cfg(), "Cargo.toml", toml);
        assert_eq!(out.len(), 1, "{out:#?}");
        assert_eq!(out[0].rule, RuleId::UnusedAllow);
    }

    #[test]
    fn report_failure_logic() {
        let mk = |sev: Severity| Diagnostic {
            rule: RuleId::FloatEq,
            severity: sev,
            file: "f.rs".into(),
            line: 1,
            col: 1,
            message: String::new(),
        };
        let warn_only = LintReport { diags: vec![mk(Severity::Warning)], files_checked: 1 };
        assert!(!warn_only.failed(false));
        assert!(warn_only.failed(true));
        let err = LintReport { diags: vec![mk(Severity::Error)], files_checked: 1 };
        assert!(err.failed(false));
    }
}
