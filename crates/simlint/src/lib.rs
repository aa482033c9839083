//! `simlint` — a hermetic static-analysis pass for this workspace's own
//! invariants.
//!
//! The paper's reproductions rest on bit-exact deterministic emulation:
//! the determinism suite proves `jobs=4 ≡ jobs=1`, the golden-trace suite
//! pins packet-level timelines, and the runtime auditor checks invariants
//! *while a simulation runs*. None of that stops a future change from
//! statically reintroducing nondeterminism (a wall clock, an unseeded RNG,
//! hash-order iteration) or from silently dropping a new `trace::Event`
//! variant behind a `_ =>` arm. Clippy can't encode repo-specific rules
//! and the workspace is deliberately dependency-free, so the checker is
//! built in-repo: a minimal Rust [`lexer`], a rule registry ([`diag`]),
//! the [`rules`] themselves, and an [`engine`] that walks the workspace,
//! applies per-line `// simlint: allow(<rule>)` suppressions, and emits
//! human or JSON-lines diagnostics.
//!
//! Run it as `repro lint`, as the `simlint` binary
//! (`cargo run -p simlint -- --workspace --deny-warnings`), or call
//! [`engine::lint_workspace`] directly. The rules:
//!
//! | ID | slug | severity | checks |
//! |----|------|----------|--------|
//! | SL000 | unused-allow | error | suppressions that suppress nothing |
//! | SL001 | determinism | error | wall clocks, unseeded RNG, hash-order iteration |
//! | SL002 | panic-policy | error | bare `.unwrap()` / empty `.expect("")` in library crates |
//! | SL003 | float-eq | warning | `==`/`!=` on float expressions in sim/CCA code |
//! | SL004 | unit-cast | warning | raw `as f64`/`as u64` unit casts in `netsim` |
//! | SL005 | trace-exhaustiveness | error | wildcard arms in `match` over `trace::Event` |
//! | SL006 | dep-hygiene | error | registry/git dependencies in any manifest |
//! | SL007 | hot-path-alloc | warning | heap allocation reachable from a `// simlint: hot-root` fn |
//! | SL008 | determinism-taint | error | calls that transitively reach a wall clock / unseeded RNG |
//! | SL009 | dead-trace-event | warning | `trace::Event` variants never constructed in `netsim` |
//! | SL010 | discarded-result | warning | expression statements dropping a workspace `Result` |
//!
//! SL001–SL006 are single-file rules; SL007–SL010 run on a conservative
//! workspace call graph built by [`parse`] and [`graph`] (v2).

pub mod diag;
pub mod engine;
pub mod graph;
pub mod lexer;
pub mod parse;
pub mod rules;

pub use diag::{Diagnostic, RuleId, Severity, ALL_RULES};
pub use engine::{find_workspace_root, lint_workspace, Config, LintReport};

/// The shipped fixtures, embedded so the self-check works from any cwd:
/// (rule, fixture path, source, expected-dirty).
pub const FIXTURES: &[(RuleId, &str, &str, bool)] = &[
    (
        RuleId::Determinism,
        "fixtures/determinism/bad.rs",
        include_str!("../fixtures/determinism/bad.rs"),
        true,
    ),
    (
        RuleId::Determinism,
        "fixtures/determinism/clean.rs",
        include_str!("../fixtures/determinism/clean.rs"),
        false,
    ),
    (
        RuleId::PanicPolicy,
        "fixtures/panic-policy/bad.rs",
        include_str!("../fixtures/panic-policy/bad.rs"),
        true,
    ),
    (
        RuleId::PanicPolicy,
        "fixtures/panic-policy/clean.rs",
        include_str!("../fixtures/panic-policy/clean.rs"),
        false,
    ),
    (
        RuleId::FloatEq,
        "fixtures/float-eq/bad.rs",
        include_str!("../fixtures/float-eq/bad.rs"),
        true,
    ),
    (
        RuleId::FloatEq,
        "fixtures/float-eq/clean.rs",
        include_str!("../fixtures/float-eq/clean.rs"),
        false,
    ),
    (
        RuleId::UnitCast,
        "fixtures/unit-cast/bad.rs",
        include_str!("../fixtures/unit-cast/bad.rs"),
        true,
    ),
    (
        RuleId::UnitCast,
        "fixtures/unit-cast/clean.rs",
        include_str!("../fixtures/unit-cast/clean.rs"),
        false,
    ),
    (
        RuleId::TraceExhaustiveness,
        "fixtures/trace-exhaustiveness/bad.rs",
        include_str!("../fixtures/trace-exhaustiveness/bad.rs"),
        true,
    ),
    (
        RuleId::TraceExhaustiveness,
        "fixtures/trace-exhaustiveness/clean.rs",
        include_str!("../fixtures/trace-exhaustiveness/clean.rs"),
        false,
    ),
    (
        RuleId::TraceExhaustiveness,
        "fixtures/trace-exhaustiveness/bad-ref.rs",
        include_str!("../fixtures/trace-exhaustiveness/bad-ref.rs"),
        true,
    ),
    (
        RuleId::TraceExhaustiveness,
        "fixtures/trace-exhaustiveness/clean-ref.rs",
        include_str!("../fixtures/trace-exhaustiveness/clean-ref.rs"),
        false,
    ),
    (
        RuleId::DepHygiene,
        "fixtures/dep-hygiene/bad.toml",
        include_str!("../fixtures/dep-hygiene/bad.toml"),
        true,
    ),
    (
        RuleId::DepHygiene,
        "fixtures/dep-hygiene/clean.toml",
        include_str!("../fixtures/dep-hygiene/clean.toml"),
        false,
    ),
    (
        RuleId::HotPathAlloc,
        "fixtures/hot-path-alloc/bad.rs",
        include_str!("../fixtures/hot-path-alloc/bad.rs"),
        true,
    ),
    (
        RuleId::HotPathAlloc,
        "fixtures/hot-path-alloc/clean.rs",
        include_str!("../fixtures/hot-path-alloc/clean.rs"),
        false,
    ),
    (
        RuleId::DeterminismTaint,
        "fixtures/determinism-taint/bad.rs",
        include_str!("../fixtures/determinism-taint/bad.rs"),
        true,
    ),
    (
        RuleId::DeterminismTaint,
        "fixtures/determinism-taint/clean.rs",
        include_str!("../fixtures/determinism-taint/clean.rs"),
        false,
    ),
    (
        RuleId::DeadTraceEvent,
        "fixtures/dead-trace-event/bad.rs",
        include_str!("../fixtures/dead-trace-event/bad.rs"),
        true,
    ),
    (
        RuleId::DeadTraceEvent,
        "fixtures/dead-trace-event/clean.rs",
        include_str!("../fixtures/dead-trace-event/clean.rs"),
        false,
    ),
    (
        RuleId::DiscardedResult,
        "fixtures/discarded-result/bad.rs",
        include_str!("../fixtures/discarded-result/bad.rs"),
        true,
    ),
    (
        RuleId::DiscardedResult,
        "fixtures/discarded-result/clean.rs",
        include_str!("../fixtures/discarded-result/clean.rs"),
        false,
    ),
    (
        RuleId::UnusedAllow,
        "fixtures/allow/unused.rs",
        include_str!("../fixtures/allow/unused.rs"),
        true,
    ),
    (
        RuleId::UnusedAllow,
        "fixtures/allow/used.rs",
        include_str!("../fixtures/allow/used.rs"),
        false,
    ),
];

/// Scope self-check fixtures: each scoped rule's `bad` source linted under
/// the *workspace* config at two virtual paths — one inside the rule's
/// scope, one outside it. The in-scope lint must fire, the out-of-scope
/// one must not: this pins `Config::for_workspace`'s scope lists (e.g.
/// that `crates/scenario` is held to the panic and discarded-result
/// policies) the same way [`FIXTURES`] pins the rules themselves.
/// Layout: (rule, in-scope path, out-of-scope path, source).
pub const SCOPE_FIXTURES: &[(RuleId, &str, &str, &str)] = &[
    (
        RuleId::PanicPolicy,
        "crates/scenario/src/parser.rs",
        "crates/bench/src/main.rs",
        include_str!("../fixtures/panic-policy/bad.rs"),
    ),
    // The fuzzer is library code other tools embed: dropped `Result`s
    // there would silently skip scenario coverage.
    (
        RuleId::DiscardedResult,
        "crates/scenario/src/fuzz.rs",
        "crates/bench/src/main.rs",
        include_str!("../fixtures/discarded-result/bad.rs"),
    ),
    (
        RuleId::UnitCast,
        "crates/netsim/src/link.rs",
        "crates/scenario/src/compile.rs",
        include_str!("../fixtures/unit-cast/bad.rs"),
    ),
    // The content-addressed store carries library panic policy, and as
    // deterministic-replay infrastructure it must not reach a wall clock.
    (
        RuleId::PanicPolicy,
        "crates/simcore/src/store.rs",
        "crates/bench/src/report.rs",
        include_str!("../fixtures/panic-policy/bad.rs"),
    ),
    (
        RuleId::DeterminismTaint,
        "crates/simcore/src/store.rs",
        "crates/bench/src/report.rs",
        include_str!("../fixtures/determinism-taint/bad.rs"),
    ),
];

/// Lint one embedded fixture with scoped rules opened up to every path.
pub fn lint_fixture(path: &str, src: &str) -> Vec<Diagnostic> {
    let cfg = Config::everything("/");
    if path.ends_with(".toml") {
        engine::lint_manifest(&cfg, path, src)
    } else {
        engine::lint_rust(&cfg, path, src)
    }
}

/// Self-check over the embedded fixtures: every `bad` variant must report
/// at least one finding, all of its own rule; every `clean` variant must
/// report none. Returns human-readable failure lines (empty = pass).
pub fn self_check() -> Vec<String> {
    let mut failures = Vec::new();
    for &(rule, path, src, dirty) in FIXTURES {
        let diags = lint_fixture(path, src);
        if dirty {
            if diags.is_empty() {
                failures.push(format!("{path}: expected {} findings, got none", rule.slug()));
            }
            for d in &diags {
                if d.rule != rule {
                    failures.push(format!(
                        "{path}: expected only {} findings, got {}",
                        rule.slug(),
                        d.render_human()
                    ));
                }
            }
        } else if !diags.is_empty() {
            failures.push(format!(
                "{path}: clean variant reported {} finding(s), first: {}",
                diags.len(),
                diags[0].render_human()
            ));
        }
    }
    // Scope checks run under the workspace config, not `everything`: the
    // same bad source must trip its rule at the in-scope path and stay
    // silent (for that rule) at the out-of-scope one. Other rules may
    // still fire — only the scoped rule's findings are judged.
    let workspace = Config::for_workspace("/");
    for &(rule, inside, outside, src) in SCOPE_FIXTURES {
        let hits = |path: &str| {
            engine::lint_rust(&workspace, path, src)
                .into_iter()
                .filter(|d| d.rule == rule)
                .count()
        };
        if hits(inside) == 0 {
            failures.push(format!(
                "{inside}: {} must apply inside its workspace scope, found nothing",
                rule.slug()
            ));
        }
        if hits(outside) != 0 {
            failures.push(format!(
                "{outside}: {} fired outside its workspace scope",
                rule.slug()
            ));
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_check_passes() {
        let failures = self_check();
        assert!(failures.is_empty(), "{failures:#?}");
    }

    #[test]
    fn scope_fixtures_cover_the_scenario_crate() {
        // The scenario crate is library code: it must be held to the
        // panic, taint, and discarded-result policies; the scope
        // self-check above proves the behaviour, this pins the intent.
        let cfg = Config::for_workspace("/");
        assert!(cfg.panic_scope.iter().any(|p| p == "crates/scenario/src"));
        assert!(cfg.taint_scope.iter().any(|p| p == "crates/scenario/src"));
        assert!(cfg.result_scope.iter().any(|p| p == "crates/scenario/src"));
        assert!(SCOPE_FIXTURES
            .iter()
            .any(|&(_, inside, _, _)| inside.starts_with("crates/scenario/src")));
    }

    #[test]
    fn scope_fixtures_cover_the_store_module() {
        // simcore::store is deterministic-replay infrastructure: it must
        // carry panic policy and the determinism-taint policy (a store
        // helper reaching a wall clock would poison every replay), with
        // fixtures proving both rules actually fire there.
        let cfg = Config::for_workspace("/");
        let store = "crates/simcore/src/store.rs";
        assert!(cfg.panic_scope.iter().any(|p| store.starts_with(p.as_str())));
        assert!(cfg.taint_scope.iter().any(|p| store.starts_with(p.as_str())));
        for rule in [RuleId::PanicPolicy, RuleId::DeterminismTaint] {
            assert!(
                SCOPE_FIXTURES
                    .iter()
                    .any(|&(r, inside, _, _)| r == rule && inside == store),
                "{} lacks a store.rs scope fixture",
                rule.slug()
            );
        }
    }

    #[test]
    fn every_rule_has_bad_and_clean_fixtures() {
        for &rule in ALL_RULES {
            let dirty = FIXTURES.iter().any(|&(r, _, _, d)| r == rule && d);
            let clean = FIXTURES.iter().any(|&(r, _, _, d)| r == rule && !d);
            assert!(dirty && clean, "rule {} missing fixtures", rule.slug());
        }
    }
}
