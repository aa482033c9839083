//! Workspace call graph and the transitive rules built on it.
//!
//! Phase 1 ([`extract`]) reduces one file's token stream + parse tree to
//! [`FileFacts`]: per-fn call sites, allocation sites, wall-clock/RNG
//! reads, `trace::Event` definitions and constructions, and the
//! `// simlint: hot-root` / `// simlint: cold` markers. Facts are cheap
//! and position-stable, and depend on the one file only.
//!
//! Phase 2 ([`run`]) joins all facts into a conservative workspace call
//! graph — direct calls by name, method calls by name, `Type::fn` calls
//! by owner — and evaluates the graph rules:
//!
//! * **SL007 v2 (hot-path-alloc)** — reachability closure from the
//!   `hot-root` annotated event-dispatch fns; any allocation in the
//!   closure is flagged with its call chain. `// simlint: cold` on a fn
//!   prunes its subtree (a once-per-run boundary).
//! * **SL008 (determinism-taint)** — fns that *directly* read a wall
//!   clock or unseeded RNG taint every caller transitively; each call
//!   edge into a tainted fn is a finding, so a leaf `allow(determinism)`
//!   no longer blesses the callers. `allow(determinism-taint)` on a call
//!   line contains the taint at that edge.
//! * **SL009 (dead-trace-event)** — `trace::Event` variants never
//!   constructed in the simulator scope.
//!
//! The graph is *conservative by name*: a method call `x.fold(…)`
//! resolves to every workspace method named `fold`. That over-links, but
//! the rules are designed so over-linking only widens coverage (more
//! reachability, more taint) and precision comes from the annotations.

use crate::diag::{Diagnostic, RuleId};
use crate::lexer::{Token, TokenKind};
use crate::parse::ParsedFile;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// The rules evaluated here rather than per-file. Directives naming them
/// are judged used/unused only after this pass runs.
pub const GRAPH_RULES: &[RuleId] = &[
    RuleId::HotPathAlloc,
    RuleId::DeterminismTaint,
    RuleId::DeadTraceEvent,
];

/// How a call site names its callee.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CallKind {
    /// `foo(…)` — resolves to free fns named `foo`.
    Free,
    /// `x.foo(…)` — resolves to any impl/trait method named `foo`.
    Method,
    /// `Type::foo(…)` / `module::foo(…)` — resolves to methods of the
    /// qualifier, falling back to free fns when the qualifier looks like
    /// a module path segment (lowercase).
    Qualified(String),
}

/// One call site inside a fn body.
#[derive(Clone, Debug)]
pub struct CallFact {
    pub kind: CallKind,
    pub callee: String,
    pub line: u32,
    pub col: u32,
}

/// One allocation site inside a fn body.
#[derive(Clone, Debug)]
pub struct AllocFact {
    pub line: u32,
    pub col: u32,
    /// Human form of the allocating construct (`` `Vec::new` ``, …).
    pub what: String,
}

/// Everything the graph pass needs to know about one fn.
#[derive(Clone, Debug)]
pub struct FnFact {
    pub name: String,
    pub owner: Option<String>,
    pub line: u32,
    pub col: u32,
    pub is_test: bool,
    /// Carries a `// simlint: hot-root` marker.
    pub hot_root: bool,
    /// Carries a `// simlint: cold` marker (closure boundary).
    pub cold: bool,
    /// The wall-clock/RNG construct this fn's body reads directly
    /// (`Instant::now`, `SystemTime`, `thread_rng`), if any.
    pub taint: Option<String>,
    pub calls: Vec<CallFact>,
    pub allocs: Vec<AllocFact>,
}

/// One `trace::Event` variant definition site.
#[derive(Clone, Debug)]
pub struct EventDef {
    pub name: String,
    pub line: u32,
    pub col: u32,
}

/// The per-file summary the graph pass consumes.
#[derive(Clone, Debug, Default)]
pub struct FileFacts {
    pub fns: Vec<FnFact>,
    /// Variants of enums named `Event` defined in this file.
    pub events: Vec<EventDef>,
    /// `Event::X` construction sites (non-pattern, non-test) in this file.
    pub event_uses: Vec<String>,
}

const ALLOC_HINT: &str =
    "reuse a buffer across events or hoist the allocation out of the closure";

/// Idents that look like calls (`ident(`) but never name a workspace fn.
fn is_call_keyword(name: &str) -> bool {
    matches!(
        name,
        "if" | "while"
            | "for"
            | "match"
            | "return"
            | "loop"
            | "else"
            | "in"
            | "as"
            | "move"
            | "let"
            | "unsafe"
            | "ref"
            | "mut"
            | "box"
            | "await"
            | "dyn"
            | "impl"
            | "fn"
            | "use"
            | "pub"
            | "where"
            | "break"
            | "continue"
            | "struct"
            | "enum"
            | "trait"
            | "type"
            | "mod"
            | "static"
            | "const"
            | "true"
            | "false"
            | "Some"
            | "None"
            | "Ok"
            | "Err"
    )
}

fn next_code(toks: &[Token], i: usize, hi: usize) -> Option<usize> {
    let mut j = i + 1;
    while j < hi {
        if !toks[j].is_comment() {
            return Some(j);
        }
        j += 1;
    }
    None
}

fn prev_code(toks: &[Token], i: usize) -> Option<usize> {
    let mut j = i;
    while j > 0 {
        j -= 1;
        if !toks[j].is_comment() {
            return Some(j);
        }
    }
    None
}

fn in_line_spans(spans: &[(u32, u32)], line: u32) -> bool {
    spans.iter().any(|&(a, b)| line >= a && line <= b)
}

/// A simlint marker comment (`hot-root` / `cold`), if this comment is one.
fn parse_marker(comment: &str) -> Option<&'static str> {
    let body = comment
        .trim_start_matches('/')
        .trim_start_matches('*')
        .trim_end_matches('/')
        .trim_end_matches('*')
        .trim();
    let rest = body.strip_prefix("simlint:")?.trim_start();
    for kind in ["hot-root", "cold"] {
        if let Some(after) = rest.strip_prefix(kind) {
            let after = after.trim_start();
            if after.is_empty() || after.starts_with(':') {
                return Some(kind);
            }
        }
    }
    None
}

/// Phase 1: reduce one file to its graph facts. `test_lines` are the line
/// spans of `#[cfg(test)]` items; fns and event constructions there are
/// excluded from the graph. Unattached `hot-root`/`cold` markers are
/// SL000 errors pushed to `diags`.
pub fn extract(
    rel: &str,
    toks: &[Token],
    parsed: &ParsedFile,
    test_lines: &[(u32, u32)],
    diags: &mut Vec<Diagnostic>,
) -> FileFacts {
    let all_test = rel.starts_with("tests/") || rel.contains("/tests/");
    let mut facts = FileFacts::default();

    // --- markers -------------------------------------------------------
    let code_lines: BTreeSet<u32> =
        toks.iter().filter(|t| !t.is_comment()).map(|t| t.line).collect();
    let mut roots: BTreeSet<usize> = BTreeSet::new();
    let mut colds: BTreeSet<usize> = BTreeSet::new();
    for t in toks.iter().filter(|t| t.is_comment()) {
        let Some(kind) = parse_marker(&t.text) else { continue };
        // Trailing a code line, the marker targets that line; alone on
        // its line, it targets the next code line (like allow directives).
        let target = if code_lines.contains(&t.line) {
            Some(t.line)
        } else {
            code_lines.range(t.line..).next().copied()
        };
        // Innermost fn whose decl region covers the target line.
        let hit = target.and_then(|line| {
            parsed
                .fns
                .iter()
                .enumerate()
                .filter(|(_, f)| f.decl_region_contains(line))
                .max_by_key(|(_, f)| f.decl_line)
                .map(|(i, _)| i)
        });
        match hit {
            Some(i) => {
                if kind == "hot-root" {
                    roots.insert(i);
                } else {
                    colds.insert(i);
                }
            }
            None => diags.push(Diagnostic::new(
                RuleId::UnusedAllow,
                rel,
                t.line,
                t.col,
                format!(
                    "`simlint: {kind}` marker attaches to no fn declaration; the annotated \
                     fn was removed or renamed — move or delete the marker"
                ),
            )),
        }
    }

    // --- per-fn facts --------------------------------------------------
    for (idx, item) in parsed.fns.iter().enumerate() {
        let owner = item.owner.clone();
        let mut fact = FnFact {
            name: item.name.clone(),
            owner: owner.clone(),
            line: item.line,
            col: item.col,
            is_test: all_test || in_line_spans(test_lines, item.line),
            hot_root: roots.contains(&idx),
            cold: colds.contains(&idx),
            taint: None,
            calls: Vec::new(),
            allocs: Vec::new(),
        };
        if let Some((open, close)) = item.body {
            scan_body(toks, open, close, owner.as_deref(), &mut fact);
        }
        facts.fns.push(fact);
    }

    // --- trace::Event definitions and constructions --------------------
    for e in parsed.enums.iter().filter(|e| e.name == "Event") {
        for v in &e.variants {
            facts.events.push(EventDef { name: v.name.clone(), line: v.line, col: v.col });
        }
    }
    facts.event_uses = event_constructions(toks, test_lines, all_test);

    facts
}

/// Scan one fn body's token range for calls, allocations and taint
/// sources.
fn scan_body(toks: &[Token], open: usize, close: usize, owner: Option<&str>, fact: &mut FnFact) {
    let hi = (close + 1).min(toks.len());
    let mut j = open;
    while j < hi {
        let t = &toks[j];
        if t.is_comment() {
            j += 1;
            continue;
        }
        // Taint sources — the same constructs SL001 flags, minus
        // hash-order iteration (HashMap perturbs output, not time).
        if fact.taint.is_none() && t.kind == TokenKind::Ident {
            if t.is_ident("Instant")
                && next_code(toks, j, hi).is_some_and(|k| toks[k].is_punct("::"))
                && next_code(toks, j, hi)
                    .and_then(|k| next_code(toks, k, hi))
                    .is_some_and(|k| toks[k].is_ident("now"))
            {
                fact.taint = Some("Instant::now".to_string());
            } else if t.is_ident("SystemTime") {
                fact.taint = Some("SystemTime".to_string());
            } else if t.is_ident("thread_rng") || t.is_ident("ThreadRng") {
                fact.taint = Some("thread_rng".to_string());
            }
        }
        // Allocation sites — predicate-compatible with SL007 v1.
        if let Some((at, what)) = alloc_at(toks, j, hi) {
            fact.allocs.push(AllocFact { line: toks[at].line, col: toks[at].col, what });
        }
        // Call sites: `name(`, `x.name(`, `Type::name(`, `name::<T>(`.
        if t.kind == TokenKind::Ident && !is_call_keyword(&t.text) {
            if let Some(call) = call_at(toks, j, hi, owner) {
                // `fn name(` is a declaration, not a call.
                let is_decl = prev_code(toks, j).is_some_and(|p| toks[p].is_ident("fn"));
                if !is_decl {
                    fact.calls.push(call);
                }
            }
        }
        j += 1;
    }
}

/// The allocation construct at token `j`, if any: (reporting token, what).
fn alloc_at(toks: &[Token], j: usize, hi: usize) -> Option<(usize, String)> {
    let t = &toks[j];
    let at = |k: usize| next_code(toks, k, hi);
    if t.is_ident("Vec")
        && at(j).is_some_and(|k| toks[k].is_punct("::"))
        && at(j)
            .and_then(at)
            .is_some_and(|k| toks[k].is_ident("new") || toks[k].is_ident("with_capacity"))
    {
        let m = at(j).and_then(at).expect("checked above");
        return Some((j, format!("`Vec::{}`", toks[m].text)));
    }
    if t.is_ident("Box")
        && at(j).is_some_and(|k| toks[k].is_punct("::"))
        && at(j).and_then(at).is_some_and(|k| toks[k].is_ident("new"))
    {
        return Some((j, "`Box::new`".to_string()));
    }
    if t.is_ident("vec") && at(j).is_some_and(|k| toks[k].is_punct("!")) {
        return Some((j, "`vec![…]`".to_string()));
    }
    if t.is_punct(".") {
        if let Some(k) = at(j) {
            if toks[k].is_ident("collect") || toks[k].is_ident("to_vec") {
                return Some((k, format!("`.{}()`", toks[k].text)));
            }
        }
    }
    None
}

/// The call whose callee ident is at `j`, if `j` begins one.
fn call_at(toks: &[Token], j: usize, hi: usize, owner: Option<&str>) -> Option<CallFact> {
    let name = &toks[j];
    // After the ident: `(`, or a `::<turbofish>` then `(`.
    let mut k = next_code(toks, j, hi)?;
    if toks[k].is_punct("::") {
        let g = next_code(toks, k, hi)?;
        if !toks[g].is_punct("<") {
            return None; // path continues (`a::b::c`) — the last segment will match
        }
        k = skip_generic_run(toks, g, hi)?;
    }
    if !toks[k].is_punct("(") {
        return None;
    }
    // Before the ident: `.` → method, `qual::` → qualified, else free.
    let kind = match prev_code(toks, j) {
        Some(p) if toks[p].is_punct(".") => CallKind::Method,
        Some(p) if toks[p].is_punct("::") => {
            let q = prev_code(toks, p)?;
            if toks[q].kind != TokenKind::Ident {
                return None; // `<T as Trait>::f(…)` — too exotic to resolve
            }
            match toks[q].text.as_str() {
                "self" | "crate" | "super" => CallKind::Free,
                "Self" => CallKind::Qualified(owner?.to_string()),
                q => CallKind::Qualified(q.to_string()),
            }
        }
        _ => CallKind::Free,
    };
    Some(CallFact { kind, callee: name.text.clone(), line: name.line, col: name.col })
}

/// Index of the first code token past a `<…>` run starting at `lo` (`<`).
fn skip_generic_run(toks: &[Token], lo: usize, hi: usize) -> Option<usize> {
    let mut depth = 0isize;
    let mut j = lo;
    while j < hi {
        let t = &toks[j];
        if t.is_punct("<") {
            depth += 1;
        } else if t.is_punct("<<") {
            depth += 2;
        } else if t.is_punct(">") {
            depth -= 1;
        } else if t.is_punct(">>") {
            depth -= 2;
        }
        if depth <= 0 {
            return next_code(toks, j, hi);
        }
        j += 1;
    }
    None
}

/// `Event::Variant` tokens in construction (non-pattern) position.
fn event_constructions(toks: &[Token], test_lines: &[(u32, u32)], all_test: bool) -> Vec<String> {
    if all_test {
        return Vec::new();
    }
    let mut out = BTreeSet::new();
    let hi = toks.len();
    for j in 0..hi {
        if !toks[j].is_ident("Event") || in_line_spans(test_lines, toks[j].line) {
            continue;
        }
        let Some(c) = next_code(toks, j, hi) else { continue };
        if !toks[c].is_punct("::") {
            continue;
        }
        let Some(v) = next_code(toks, c, hi) else { continue };
        if toks[v].kind != TokenKind::Ident {
            continue;
        }
        // Pattern positions: `let Event::…`, `| Event::…`, or the variant
        // (after its balanced payload) followed by `=>` or `|`.
        if prev_code(toks, j).is_some_and(|p| toks[p].is_ident("let") || toks[p].is_punct("|")) {
            continue;
        }
        let mut k = next_code(toks, v, hi);
        if let Some(kk) = k {
            if toks[kk].is_punct("{") || toks[kk].is_punct("(") {
                let (ot, ct) = if toks[kk].is_punct("{") { ("{", "}") } else { ("(", ")") };
                let mut depth = 0usize;
                let mut m = kk;
                while m < hi {
                    if toks[m].is_punct(ot) {
                        depth += 1;
                    } else if toks[m].is_punct(ct) {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    m += 1;
                }
                k = next_code(toks, m, hi);
            }
        }
        if k.is_some_and(|kk| toks[kk].is_punct("=>") || toks[kk].is_punct("|")) {
            continue;
        }
        out.insert(toks[v].text.clone());
    }
    out.into_iter().collect()
}

// ---------------------------------------------------------------------
// Phase 2: the graph pass.
// ---------------------------------------------------------------------

/// Scope configuration for the graph rules (engine `Config` projection).
pub struct GraphConfig<'a> {
    /// The file set covers the whole compilation target — absence of a
    /// construction/definition is meaningful. False for ad-hoc file
    /// lists, where SL009 and unused-cold checks are skipped.
    pub complete: bool,
    /// Error when no `hot-root` marker exists anywhere (workspace runs).
    pub require_roots: bool,
    /// Path prefixes where SL008 call-edge findings are reported.
    pub taint_scope: &'a [String],
    /// Path prefixes whose `Event::…` constructions count as live (SL009).
    pub event_scope: &'a [String],
    /// The file defining `trace::Event` (empty = any file with an
    /// `enum Event`, used by fixtures).
    pub trace_def: &'a str,
}

/// The graph pass result: diagnostics plus the `(file index, line)`
/// positions of `allow(determinism-taint)` directives that actually
/// contained a taint edge (the engine marks those used).
pub struct GraphOutput {
    pub diags: Vec<Diagnostic>,
    pub used_taint_allows: BTreeSet<(usize, u32)>,
}

fn in_scope(scope: &[String], rel: &str) -> bool {
    scope.iter().any(|p| rel.starts_with(p.as_str()))
}

struct Node<'a> {
    file: usize,
    fact: &'a FnFact,
}

/// Phase 2 over all files' facts. `files` must be sorted by path (the
/// engine sorts); `taint_allows` holds the `(file index, target line)` of
/// every `allow(determinism-taint)` directive.
pub fn run(
    files: &[(String, FileFacts)],
    cfg: &GraphConfig<'_>,
    taint_allows: &BTreeSet<(usize, u32)>,
) -> GraphOutput {
    let mut diags = Vec::new();
    let mut used_taint_allows = BTreeSet::new();

    // Flatten fns into nodes; files are sorted and fns are in source
    // order, so node indices are deterministic.
    let mut nodes: Vec<Node<'_>> = Vec::new();
    for (fi, (_, facts)) in files.iter().enumerate() {
        for fact in &facts.fns {
            nodes.push(Node { file: fi, fact });
        }
    }

    // Name indexes over non-test fns.
    let mut free_by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    let mut method_by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    let mut by_owner_name: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
    for (i, n) in nodes.iter().enumerate() {
        if n.fact.is_test {
            continue;
        }
        match n.fact.owner.as_deref() {
            None => free_by_name.entry(&n.fact.name).or_default().push(i),
            Some(o) => {
                method_by_name.entry(&n.fact.name).or_default().push(i);
                by_owner_name.entry((o, &n.fact.name)).or_default().push(i);
            }
        }
    }
    let resolve = |kind: &CallKind, callee: &str| -> Vec<usize> {
        match kind {
            CallKind::Free => free_by_name.get(callee).cloned().unwrap_or_default(),
            CallKind::Method => method_by_name.get(callee).cloned().unwrap_or_default(),
            CallKind::Qualified(q) => {
                if let Some(v) = by_owner_name.get(&(q.as_str(), callee)) {
                    return v.clone();
                }
                // Lowercase qualifier = module path (`par::map`); an
                // unresolved Type qualifier is a std/external type.
                if q.chars().next().is_some_and(|c| c.is_lowercase()) {
                    free_by_name.get(callee).cloned().unwrap_or_default()
                } else {
                    Vec::new()
                }
            }
        }
    };

    // All resolved call edges, resolved once: forward and reverse.
    let mut fwd: Vec<Vec<(usize, u32, u32)>> = vec![Vec::new(); nodes.len()];
    let mut rev: Vec<Vec<(usize, u32, u32)>> = vec![Vec::new(); nodes.len()];
    for (i, n) in nodes.iter().enumerate() {
        for c in &n.fact.calls {
            for t in resolve(&c.kind, &c.callee) {
                if t == i {
                    continue; // self-recursion adds nothing to closure or taint
                }
                fwd[i].push((t, c.line, c.col));
                rev[t].push((i, c.line, c.col));
            }
        }
    }

    // --- SL007 v2: allocation closure from hot roots -------------------
    let roots: Vec<usize> = (0..nodes.len())
        .filter(|&i| nodes[i].fact.hot_root && !nodes[i].fact.is_test)
        .collect();
    if roots.is_empty() && cfg.require_roots {
        diags.push(Diagnostic::new(
            RuleId::HotPathAlloc,
            "Cargo.toml",
            1,
            1,
            "no `// simlint: hot-root` annotations found anywhere in the workspace; SL007 \
             has no hot set to check — annotate the event-dispatch roots"
                .to_string(),
        ));
    }
    let mut parent: Vec<Option<usize>> = vec![None; nodes.len()];
    let mut reached: Vec<bool> = vec![false; nodes.len()];
    let mut cold_pruned: Vec<bool> = vec![false; nodes.len()];
    let mut queue: VecDeque<usize> = VecDeque::new();
    for &r in &roots {
        if !reached[r] {
            reached[r] = true;
            queue.push_back(r);
        }
    }
    while let Some(i) = queue.pop_front() {
        for &(t, _, _) in &fwd[i] {
            if nodes[t].fact.cold {
                cold_pruned[t] = true;
                continue;
            }
            if !reached[t] && !nodes[t].fact.is_test {
                reached[t] = true;
                parent[t] = Some(i);
                queue.push_back(t);
            }
        }
    }
    let chain_to = |i: usize| -> String {
        let mut names = vec![nodes[i].fact.name.clone()];
        let mut j = i;
        while let Some(p) = parent[j] {
            names.push(nodes[p].fact.name.clone());
            j = p;
        }
        names.reverse();
        names.join(" → ")
    };
    for i in 0..nodes.len() {
        if !reached[i] {
            continue;
        }
        let n = &nodes[i];
        for a in &n.fact.allocs {
            let via = if parent[i].is_none() {
                format!("in hot-root `{}`", n.fact.name)
            } else {
                format!("in `{}`, reachable via {}", n.fact.name, chain_to(i))
            };
            diags.push(Diagnostic::new(
                RuleId::HotPathAlloc,
                &files[n.file].0,
                a.line,
                a.col,
                format!("{} allocates {via}; {ALLOC_HINT}", a.what),
            ));
        }
    }
    // A cold marker must prune something; one on a fn the closure never
    // reaches is stale documentation (complete runs only — a partial
    // file set can't see all the roots).
    if cfg.complete {
        for (i, n) in nodes.iter().enumerate() {
            if n.fact.cold && !cold_pruned[i] && !n.fact.is_test {
                diags.push(Diagnostic::new(
                    RuleId::UnusedAllow,
                    &files[n.file].0,
                    n.fact.line,
                    n.fact.col,
                    format!(
                        "`simlint: cold` marker on `{}` prunes nothing: the fn is not \
                         called from any hot root's closure; remove the marker",
                        n.fact.name
                    ),
                ));
            }
        }
    }

    // --- SL008: determinism taint, propagated caller-ward --------------
    let mut tainted: Vec<bool> = vec![false; nodes.len()];
    let mut taint_via: Vec<Option<usize>> = vec![None; nodes.len()];
    let mut queue: VecDeque<usize> = VecDeque::new();
    for (i, n) in nodes.iter().enumerate() {
        if n.fact.taint.is_some() {
            tainted[i] = true;
            queue.push_back(i);
        }
    }
    let mut taint_findings: BTreeSet<(usize, u32, u32, usize)> = BTreeSet::new();
    while let Some(t) = queue.pop_front() {
        for &(caller, line, col) in &rev[t] {
            if taint_allows.contains(&(nodes[caller].file, line)) {
                // The edge is explicitly contained: no finding, and the
                // taint does not propagate through it.
                used_taint_allows.insert((nodes[caller].file, line));
                continue;
            }
            taint_findings.insert((caller, line, col, t));
            if !tainted[caller] {
                tainted[caller] = true;
                taint_via[caller] = Some(t);
                queue.push_back(caller);
            }
        }
    }
    for (caller, line, col, t) in taint_findings {
        let cn = &nodes[caller];
        if cn.fact.is_test || !in_scope(cfg.taint_scope, &files[cn.file].0) {
            continue;
        }
        // Chain from the callee down to the original source.
        let mut names = Vec::new();
        let mut j = t;
        loop {
            names.push(nodes[j].fact.name.clone());
            match taint_via[j] {
                Some(next) if names.len() < 16 => j = next,
                _ => break,
            }
        }
        let src = &nodes[j];
        let source =
            src.fact.taint.clone().unwrap_or_else(|| "a nondeterministic source".to_string());
        let msg = if names.len() == 1 {
            format!(
                "call to `{}` reads `{source}` directly; deterministic code must use the \
                 event-queue clock / seeded RNG, or contain a timing-only edge with \
                 allow(determinism-taint)",
                names[0]
            )
        } else {
            format!(
                "call to `{}` transitively reaches `{source}` (via {}); deterministic code \
                 must use the event-queue clock / seeded RNG, or contain a timing-only edge \
                 with allow(determinism-taint)",
                names[0],
                names.join(" → ")
            )
        };
        diags.push(Diagnostic::new(RuleId::DeterminismTaint, &files[cn.file].0, line, col, msg));
    }

    // --- SL009: dead trace events --------------------------------------
    if cfg.complete {
        let mut live: BTreeSet<&str> = BTreeSet::new();
        for (rel, facts) in files {
            if in_scope(cfg.event_scope, rel) {
                live.extend(facts.event_uses.iter().map(String::as_str));
            }
        }
        let scope_desc = if cfg.event_scope.iter().any(String::is_empty) {
            "this file set".to_string()
        } else {
            cfg.event_scope.join(", ")
        };
        for (rel, facts) in files {
            if !(cfg.trace_def.is_empty() || rel == cfg.trace_def) {
                continue;
            }
            for ev in &facts.events {
                if !live.contains(ev.name.as_str()) {
                    diags.push(Diagnostic::new(
                        RuleId::DeadTraceEvent,
                        rel,
                        ev.line,
                        ev.col,
                        format!(
                            "trace::Event::{} is never constructed in {scope_desc}; dead \
                             instrumentation — emit it from the simulator or remove the variant",
                            ev.name
                        ),
                    ));
                }
            }
        }
    }

    GraphOutput { diags, used_taint_allows }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parse::parse;
    use crate::rules;

    fn facts_of(rel: &str, src: &str) -> (FileFacts, Vec<Diagnostic>) {
        let toks = lex(src);
        let parsed = parse(&toks);
        let code: Vec<Token> = toks.iter().filter(|t| !t.is_comment()).cloned().collect();
        let spans = rules::test_spans(&code);
        let lines: Vec<(u32, u32)> =
            spans.iter().map(|&(a, b)| (code[a].line, code[b].line)).collect();
        let mut diags = Vec::new();
        let f = extract(rel, &toks, &parsed, &lines, &mut diags);
        (f, diags)
    }

    fn everything<'a>() -> GraphConfig<'a> {
        const ALL: &[String] = &[String::new()];
        GraphConfig {
            complete: true,
            require_roots: false,
            taint_scope: ALL,
            event_scope: ALL,
            trace_def: "",
        }
    }

    fn run_single(src: &str) -> Vec<Diagnostic> {
        let (f, mut diags) = facts_of("f.rs", src);
        let files = vec![("f.rs".to_string(), f)];
        let out = run(&files, &everything(), &BTreeSet::new());
        diags.extend(out.diags);
        diags
    }

    #[test]
    fn closure_flags_alloc_two_calls_deep_with_chain() {
        let src = "\
// simlint: hot-root
fn pump() { process_ack(1); }
fn process_ack(x: u32) { make_sack(x); }
fn make_sack(x: u32) -> Vec<u32> { (0..x).collect() }
fn off_path() -> Vec<u32> { Vec::new() }
";
        let out = run_single(src);
        assert_eq!(out.len(), 1, "{out:#?}");
        let d = &out[0];
        assert_eq!(d.rule, RuleId::HotPathAlloc);
        assert_eq!(d.line, 4);
        assert!(d.message.contains("pump → process_ack → make_sack"), "{}", d.message);
        // `off_path` is unreachable from the root: not flagged.
    }

    #[test]
    fn alloc_in_the_root_itself_is_flagged() {
        let src = "\
fn pump() -> Vec<u8> { // simlint: hot-root
    vec![0]
}
";
        let out = run_single(src);
        assert_eq!(out.len(), 1, "{out:#?}");
        assert!(out[0].message.contains("in hot-root `pump`"), "{}", out[0].message);
    }

    #[test]
    fn cold_marker_prunes_subtree() {
        let src = "\
// simlint: hot-root
fn pump() { spawn_workload(); }
// simlint: cold
fn spawn_workload() { build_table(); }
fn build_table() -> Vec<u8> { Vec::new() }
";
        let out = run_single(src);
        assert!(out.is_empty(), "{out:#?}");
    }

    #[test]
    fn unpruning_cold_marker_is_an_error() {
        let src = "\
// simlint: cold
fn nobody_calls_me() {}
";
        let out = run_single(src);
        assert_eq!(out.len(), 1, "{out:#?}");
        assert_eq!(out[0].rule, RuleId::UnusedAllow);
        assert!(out[0].message.contains("prunes nothing"), "{}", out[0].message);
    }

    #[test]
    fn unattached_marker_is_an_error() {
        let src = "\
// simlint: hot-root
const X: u32 = 1;
fn fine() {}
";
        let out = run_single(src);
        assert_eq!(out.len(), 1, "{out:#?}");
        assert_eq!(out[0].rule, RuleId::UnusedAllow);
        assert!(out[0].message.contains("attaches to no fn"), "{}", out[0].message);
    }

    #[test]
    fn method_and_qualified_calls_resolve() {
        let src = "\
struct Rx;
impl Rx {
    fn on_data(&mut self) { self.flush(); }
    fn flush(&mut self) -> Vec<u8> { Vec::new() }
}
// simlint: hot-root
fn pump(rx: &mut Rx) { rx.on_data(); helper::tick(); }
mod helper { pub fn tick() -> Vec<u8> { vec![1] } }
";
        let out = run_single(src);
        assert_eq!(out.len(), 2, "{out:#?}");
        assert!(out.iter().any(|d| d.message.contains("pump → on_data → flush")), "{out:#?}");
        assert!(out.iter().any(|d| d.message.contains("pump → tick")), "{out:#?}");
    }

    #[test]
    fn taint_propagates_past_leaf_allow() {
        let src = "\
fn wall_now() -> u64 {
    Instant::now()
}
fn caller() { wall_now(); }
fn grand() { caller(); }
";
        let out = run_single(src);
        let taints: Vec<&Diagnostic> =
            out.iter().filter(|d| d.rule == RuleId::DeterminismTaint).collect();
        assert_eq!(taints.len(), 2, "{out:#?}");
        let direct = taints.iter().find(|d| d.line == 4).expect("direct edge");
        assert!(direct.message.contains("reads `Instant::now` directly"), "{}", direct.message);
        let transitive = taints.iter().find(|d| d.line == 5).expect("transitive edge");
        assert!(transitive.message.contains("via caller → wall_now"), "{}", transitive.message);
    }

    #[test]
    fn taint_allow_contains_the_edge_and_is_marked_used() {
        let src = "\
fn wall_now() -> u64 {
    Instant::now()
}
fn caller() {
    wall_now(); // contained below via the allows set
}
fn grand() { caller(); }
";
        let (f, diags) = facts_of("f.rs", src);
        assert!(diags.is_empty(), "{diags:#?}");
        let files = vec![("f.rs".to_string(), f)];
        let allows: BTreeSet<(usize, u32)> = [(0usize, 5u32)].into_iter().collect();
        let out = run(&files, &everything(), &allows);
        assert!(
            out.diags.iter().all(|d| d.rule != RuleId::DeterminismTaint),
            "{:#?}",
            out.diags
        );
        assert!(out.used_taint_allows.contains(&(0, 5)));
    }

    #[test]
    fn dead_event_variant_reported_at_definition() {
        let src = "\
pub enum Event {
    Send { n: u32 },
    Probe,
}
fn emit() -> Event { Event::Send { n: 1 } }
";
        let out = run_single(src);
        assert_eq!(out.len(), 1, "{out:#?}");
        assert_eq!(out[0].rule, RuleId::DeadTraceEvent);
        assert_eq!(out[0].line, 3);
        assert!(out[0].message.contains("Event::Probe"), "{}", out[0].message);
    }

    #[test]
    fn match_patterns_do_not_count_as_constructions() {
        let src = "\
pub enum Event { Send, Probe }
fn sink(ev: &Event) -> u32 {
    match ev { Event::Send => 1, Event::Probe => 2 }
}
fn emit() -> Event { Event::Send }
";
        let out = run_single(src);
        // Probe is matched but never built.
        assert_eq!(out.len(), 1, "{out:#?}");
        assert!(out[0].message.contains("Event::Probe"), "{}", out[0].message);
    }

    #[test]
    fn test_code_stays_out_of_the_graph() {
        let src = "\
// simlint: hot-root
fn pump() { step(); }
fn step() {}
#[cfg(test)]
mod tests {
    fn step() -> Vec<u8> { Vec::new() }
    fn t() { super::pump(); }
}
";
        let out = run_single(src);
        assert!(out.is_empty(), "{out:#?}");
    }

    #[test]
    fn zero_roots_guard_fires_only_when_required() {
        let (f, _) = facts_of("f.rs", "fn a() {}\n");
        let files = vec![("f.rs".to_string(), f)];
        let mut cfg = everything();
        assert!(run(&files, &cfg, &BTreeSet::new()).diags.is_empty());
        cfg.require_roots = true;
        let out = run(&files, &cfg, &BTreeSet::new());
        assert_eq!(out.diags.len(), 1, "{:#?}", out.diags);
        assert!(out.diags[0].message.contains("no `// simlint: hot-root`"));
    }

    #[test]
    fn cross_file_closure_and_scopes() {
        let (fa, _) = facts_of(
            "crates/netsim/src/sim.rs",
            "// simlint: hot-root\nfn pump() { fold_row(); }\n",
        );
        let (fb, _) = facts_of(
            "crates/simcore/src/stats.rs",
            "pub fn fold_row() -> Vec<u8> { Vec::new() }\n",
        );
        let files = vec![
            ("crates/netsim/src/sim.rs".to_string(), fa),
            ("crates/simcore/src/stats.rs".to_string(), fb),
        ];
        let out = run(&files, &everything(), &BTreeSet::new());
        assert_eq!(out.diags.len(), 1, "{:#?}", out.diags);
        assert_eq!(out.diags[0].file, "crates/simcore/src/stats.rs");
        assert!(out.diags[0].message.contains("pump → fold_row"));
    }
}
