//! Diagnostics, severities, and the stable rule registry.
//!
//! Every rule has a stable numeric ID (`SL001`…) and a human slug
//! (`determinism`, …). Suppression directives and the JSON output use both;
//! IDs never change meaning once shipped, so downstream tooling can match
//! on them across repo history.

use simcore::json::escape;
use std::fmt;

/// Lint severity. `Error`s always fail the run; `Warning`s fail it under
/// `--deny-warnings` (which CI passes).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Fails only under `--deny-warnings`.
    Warning,
    /// Always fails the run.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// The registered rules. The discriminants are stable: new rules append.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RuleId {
    /// SL000 — a suppression directive that suppressed nothing, named an
    /// unknown rule, or could not be parsed.
    UnusedAllow,
    /// SL001 — wall clocks, unseeded RNG, and hash-order iteration.
    Determinism,
    /// SL002 — bare `.unwrap()` / empty `.expect("")` in library crates.
    PanicPolicy,
    /// SL003 — `==` / `!=` on float expressions in sim/CCA code.
    FloatEq,
    /// SL004 — raw `as f64` / `as u64` unit casts in `netsim`.
    UnitCast,
    /// SL005 — wildcard arms in `match` over `trace::Event`.
    TraceExhaustiveness,
    /// SL006 — registry dependencies in workspace manifests.
    DepHygiene,
    /// SL007 — heap allocation in any fn reachable from a
    /// `// simlint: hot-root` annotated event-dispatch root.
    HotPathAlloc,
    /// SL008 — call edge into a fn that transitively reaches a wall clock
    /// or unseeded RNG (determinism taint does not stop at leaf allows).
    DeterminismTaint,
    /// SL009 — `trace::Event` variant never constructed by the simulator
    /// (dead instrumentation).
    DeadTraceEvent,
}

/// Every rule, in ID order — the registry the CLI lists and the engine runs.
pub const ALL_RULES: &[RuleId] = &[
    RuleId::UnusedAllow,
    RuleId::Determinism,
    RuleId::PanicPolicy,
    RuleId::FloatEq,
    RuleId::UnitCast,
    RuleId::TraceExhaustiveness,
    RuleId::DepHygiene,
    RuleId::HotPathAlloc,
    RuleId::DeterminismTaint,
    RuleId::DeadTraceEvent,
];

impl RuleId {
    /// Stable numeric ID (`SL004`).
    pub fn id(self) -> &'static str {
        match self {
            RuleId::UnusedAllow => "SL000",
            RuleId::Determinism => "SL001",
            RuleId::PanicPolicy => "SL002",
            RuleId::FloatEq => "SL003",
            RuleId::UnitCast => "SL004",
            RuleId::TraceExhaustiveness => "SL005",
            RuleId::DepHygiene => "SL006",
            RuleId::HotPathAlloc => "SL007",
            RuleId::DeterminismTaint => "SL008",
            RuleId::DeadTraceEvent => "SL009",
        }
    }

    /// Human slug (`unit-cast`) — what `allow(…)` directives name.
    pub fn slug(self) -> &'static str {
        match self {
            RuleId::UnusedAllow => "unused-allow",
            RuleId::Determinism => "determinism",
            RuleId::PanicPolicy => "panic-policy",
            RuleId::FloatEq => "float-eq",
            RuleId::UnitCast => "unit-cast",
            RuleId::TraceExhaustiveness => "trace-exhaustiveness",
            RuleId::DepHygiene => "dep-hygiene",
            RuleId::HotPathAlloc => "hot-path-alloc",
            RuleId::DeterminismTaint => "determinism-taint",
            RuleId::DeadTraceEvent => "dead-trace-event",
        }
    }

    /// Default severity.
    pub fn severity(self) -> Severity {
        match self {
            RuleId::UnusedAllow => Severity::Error,
            RuleId::Determinism => Severity::Error,
            RuleId::PanicPolicy => Severity::Error,
            RuleId::FloatEq => Severity::Warning,
            RuleId::UnitCast => Severity::Warning,
            RuleId::TraceExhaustiveness => Severity::Error,
            RuleId::DepHygiene => Severity::Error,
            RuleId::HotPathAlloc => Severity::Warning,
            RuleId::DeterminismTaint => Severity::Error,
            RuleId::DeadTraceEvent => Severity::Warning,
        }
    }

    /// One-line description (the CLI's `--rules` listing).
    pub fn describe(self) -> &'static str {
        match self {
            RuleId::UnusedAllow => "suppression directive that suppresses nothing",
            RuleId::Determinism => {
                "wall clock, unseeded RNG, or hash-order iteration in deterministic code"
            }
            RuleId::PanicPolicy => {
                "bare .unwrap() or empty .expect(\"\") in a library crate (document the invariant)"
            }
            RuleId::FloatEq => "== or != on a float expression in sim/CCA code",
            RuleId::UnitCast => {
                "raw `as f64`/`as u64` on a time/byte quantity in netsim (use a named helper)"
            }
            RuleId::TraceExhaustiveness => {
                "wildcard arm in a match over trace::Event (new events would be silently dropped)"
            }
            RuleId::DepHygiene => "registry dependency in a workspace manifest (must be path-only)",
            RuleId::HotPathAlloc => {
                "heap allocation (Vec::new, vec![], Box::new, .collect(), .to_vec()) in a fn \
                 reachable from a `// simlint: hot-root` annotated event-dispatch root"
            }
            RuleId::DeterminismTaint => {
                "call into a fn that transitively reaches a wall clock or unseeded RNG \
                 (a leaf allow(determinism) does not bless the callers)"
            }
            RuleId::DeadTraceEvent => {
                "trace::Event variant never constructed by the simulator (dead instrumentation)"
            }
        }
    }

    /// Resolve a directive name: accepts the slug or the numeric ID.
    pub fn from_name(name: &str) -> Option<RuleId> {
        ALL_RULES
            .iter()
            .copied()
            .find(|r| r.slug() == name || r.id().eq_ignore_ascii_case(name))
    }
}

/// One finding.
#[derive(Clone, Debug)]
pub struct Diagnostic {
    /// Which rule fired.
    pub rule: RuleId,
    /// Severity (usually `rule.severity()`).
    pub severity: Severity,
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// What's wrong and what to do instead.
    pub message: String,
}

impl Diagnostic {
    /// A diagnostic at a token position with the rule's default severity.
    pub fn new(rule: RuleId, file: &str, line: u32, col: u32, message: String) -> Diagnostic {
        Diagnostic { rule, severity: rule.severity(), file: file.to_string(), line, col, message }
    }

    /// Human one-liner: `file:line:col: severity[SLnnn/slug]: message`.
    pub fn render_human(&self) -> String {
        format!(
            "{}:{}:{}: {}[{}/{}]: {}",
            self.file,
            self.line,
            self.col,
            self.severity,
            self.rule.id(),
            self.rule.slug(),
            self.message
        )
    }

    /// One JSON object (no trailing newline) — the JSON-lines output format.
    /// Hand-rolled like the rest of the workspace: there is no serde.
    pub fn render_json(&self) -> String {
        format!(
            "{{\"rule\":\"{}\",\"slug\":\"{}\",\"severity\":\"{}\",\"file\":\"{}\",\"line\":{},\"col\":{},\"message\":\"{}\"}}",
            self.rule.id(),
            self.rule.slug(),
            self.severity,
            escape(&self.file),
            self.line,
            self.col,
            escape(&self.message)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_stable_and_unique() {
        let ids: Vec<&str> = ALL_RULES.iter().map(|r| r.id()).collect();
        assert_eq!(
            ids,
            vec![
                "SL000", "SL001", "SL002", "SL003", "SL004", "SL005", "SL006", "SL007", "SL008",
                "SL009"
            ]
        );
        let slugs: std::collections::BTreeSet<&str> = ALL_RULES.iter().map(|r| r.slug()).collect();
        assert_eq!(slugs.len(), ALL_RULES.len());
    }

    #[test]
    fn from_name_accepts_slug_and_id() {
        assert_eq!(RuleId::from_name("unit-cast"), Some(RuleId::UnitCast));
        assert_eq!(RuleId::from_name("SL004"), Some(RuleId::UnitCast));
        assert_eq!(RuleId::from_name("sl001"), Some(RuleId::Determinism));
        assert_eq!(RuleId::from_name("nope"), None);
    }

    #[test]
    fn render_formats() {
        let d = Diagnostic::new(RuleId::PanicPolicy, "crates/x/src/a.rs", 3, 7, "bare .unwrap()".into());
        assert_eq!(
            d.render_human(),
            "crates/x/src/a.rs:3:7: error[SL002/panic-policy]: bare .unwrap()"
        );
        let j = d.render_json();
        assert!(j.starts_with("{\"rule\":\"SL002\""), "{j}");
        assert!(j.contains("\"line\":3"), "{j}");
        assert!(j.ends_with('}'), "{j}");
    }

    #[test]
    fn json_escaping() {
        let j = Diagnostic::new(RuleId::PanicPolicy, "a\"b.rs", 1, 1, "x\ny".into()).render_json();
        assert!(j.contains("\"file\":\"a\\\"b.rs\"") && j.contains("\"message\":\"x\\ny\""), "{j}");
    }
}
