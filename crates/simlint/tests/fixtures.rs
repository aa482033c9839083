//! Fixture-based rule suite: every rule has a `bad` fixture that must
//! trigger it (with the right rule ID, file, and line, in both human and
//! JSON renderings) and a `clean` fixture that must stay silent under
//! *all* rules.

use simlint::{lint_fixture, Diagnostic, RuleId, FIXTURES};

fn diags_for(path_suffix: &str) -> Vec<Diagnostic> {
    let (_, path, src, _) = FIXTURES
        .iter()
        .find(|(_, p, _, _)| p.ends_with(path_suffix))
        .unwrap_or_else(|| panic!("no fixture named {path_suffix}"));
    lint_fixture(path, src)
}

/// Assert one diagnostic of `rule` exists at `line`, and that both
/// renderings carry the rule ID, file, and line.
fn assert_finding(diags: &[Diagnostic], rule: RuleId, file_suffix: &str, line: u32) {
    let d = diags
        .iter()
        .find(|d| d.rule == rule && d.line == line)
        .unwrap_or_else(|| panic!("no {} finding at line {line} in {diags:#?}", rule.slug()));
    assert!(d.file.ends_with(file_suffix), "{}", d.file);
    let human = d.render_human();
    assert!(human.contains(rule.id()), "{human}");
    assert!(human.contains(&format!("{}:{}:", d.file, line)), "{human}");
    let json = d.render_json();
    assert!(json.contains(&format!("\"rule\":\"{}\"", rule.id())), "{json}");
    assert!(json.contains(&format!("\"file\":\"{}\"", d.file)), "{json}");
    assert!(json.contains(&format!("\"line\":{line}")), "{json}");
}

#[test]
fn determinism_bad_fixture_lines() {
    let diags = diags_for("determinism/bad.rs");
    assert_finding(&diags, RuleId::Determinism, "determinism/bad.rs", 3); // HashMap import
    assert_finding(&diags, RuleId::Determinism, "determinism/bad.rs", 7); // Instant::now()
    assert_finding(&diags, RuleId::Determinism, "determinism/bad.rs", 12); // thread_rng()
    assert_finding(&diags, RuleId::Determinism, "determinism/bad.rs", 16); // HashMap::new()
    assert!(diags.iter().all(|d| d.rule == RuleId::Determinism), "{diags:#?}");
}

#[test]
fn panic_policy_bad_fixture_lines() {
    let diags = diags_for("panic-policy/bad.rs");
    assert_finding(&diags, RuleId::PanicPolicy, "panic-policy/bad.rs", 3); // .unwrap()
    assert_finding(&diags, RuleId::PanicPolicy, "panic-policy/bad.rs", 4); // .expect("")
    assert_eq!(diags.len(), 2, "{diags:#?}");
}

#[test]
fn float_eq_bad_fixture_lines() {
    let diags = diags_for("float-eq/bad.rs");
    assert!(diags.iter().all(|d| d.rule == RuleId::FloatEq), "{diags:#?}");
    assert_eq!(diags.len(), 3, "{diags:#?}");
}

#[test]
fn unit_cast_bad_fixture_lines() {
    let diags = diags_for("unit-cast/bad.rs");
    assert!(diags.iter().all(|d| d.rule == RuleId::UnitCast), "{diags:#?}");
    assert_eq!(diags.len(), 3, "{diags:#?}");
}

#[test]
fn trace_exhaustiveness_bad_fixture() {
    let diags = diags_for("trace-exhaustiveness/bad.rs");
    assert_eq!(diags.len(), 1, "{diags:#?}");
    assert_eq!(diags[0].rule, RuleId::TraceExhaustiveness);
    assert!(diags[0].message.contains("wildcard"), "{}", diags[0].message);
}

#[test]
fn dep_hygiene_bad_fixture() {
    let diags = diags_for("dep-hygiene/bad.toml");
    assert!(diags.iter().all(|d| d.rule == RuleId::DepHygiene), "{diags:#?}");
    assert!(diags.len() >= 3, "{diags:#?}");
}

#[test]
fn hot_path_alloc_bad_fixture_reports_the_call_chain() {
    let diags = diags_for("hot-path-alloc/bad.rs");
    assert!(diags.iter().all(|d| d.rule == RuleId::HotPathAlloc), "{diags:#?}");
    assert_finding(&diags, RuleId::HotPathAlloc, "hot-path-alloc/bad.rs", 14); // Vec::new, 2 calls deep
    assert_eq!(diags.len(), 1, "{diags:#?}");
    // The diagnostic names the allocating fn and the root-to-fn chain.
    let msg = &diags[0].message;
    assert!(msg.contains("make_sack"), "{msg}");
    assert!(msg.contains("pump"), "{msg}");
    assert!(msg.contains("process_ack"), "{msg}");
}

#[test]
fn determinism_taint_bad_fixture_flags_direct_and_transitive_edges() {
    let diags = diags_for("determinism-taint/bad.rs");
    assert!(diags.iter().all(|d| d.rule == RuleId::DeterminismTaint), "{diags:#?}");
    assert_finding(&diags, RuleId::DeterminismTaint, "determinism-taint/bad.rs", 10);
    assert_finding(&diags, RuleId::DeterminismTaint, "determinism-taint/bad.rs", 14);
    assert_eq!(diags.len(), 2, "{diags:#?}");
    let transitive = diags.iter().find(|d| d.line == 14).unwrap();
    assert!(transitive.message.contains("wall_now"), "{}", transitive.message);
}

#[test]
fn dead_trace_event_bad_fixture_reports_the_variant_definition() {
    let diags = diags_for("dead-trace-event/bad.rs");
    assert!(diags.iter().all(|d| d.rule == RuleId::DeadTraceEvent), "{diags:#?}");
    assert_finding(&diags, RuleId::DeadTraceEvent, "dead-trace-event/bad.rs", 6); // Probe
    assert_eq!(diags.len(), 1, "{diags:#?}");
    assert!(diags[0].message.contains("Probe"), "{}", diags[0].message);
}

#[test]
fn trace_exhaustiveness_reference_scrutinee_fixture() {
    let diags = diags_for("trace-exhaustiveness/bad-ref.rs");
    assert_eq!(diags.len(), 1, "{diags:#?}");
    assert_eq!(diags[0].rule, RuleId::TraceExhaustiveness);
    assert_eq!(diags[0].line, 7, "{diags:#?}"); // the `_ => 0` arm
}

#[test]
fn unused_allow_is_itself_an_error() {
    let diags = diags_for("allow/unused.rs");
    assert_eq!(diags.len(), 1, "{diags:#?}");
    assert_eq!(diags[0].rule, RuleId::UnusedAllow);
    assert!(diags[0].message.contains("unused suppression"), "{}", diags[0].message);
}

#[test]
fn used_allow_suppresses_and_stays_silent() {
    let diags = diags_for("allow/used.rs");
    assert!(diags.is_empty(), "{diags:#?}");
}

#[test]
fn clean_fixtures_are_clean_under_all_rules() {
    for &(_, path, src, dirty) in FIXTURES {
        if !dirty {
            let diags = lint_fixture(path, src);
            assert!(diags.is_empty(), "{path}: {diags:#?}");
        }
    }
}

#[test]
fn warning_rules_only_fail_under_deny_warnings() {
    use simlint::Severity;
    let float = diags_for("float-eq/bad.rs");
    let cast = diags_for("unit-cast/bad.rs");
    for d in float.iter().chain(&cast) {
        assert_eq!(d.severity, Severity::Warning, "{d:#?}");
    }
}
