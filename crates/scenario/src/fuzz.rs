//! The coverage-guided scenario fuzzer, with the runtime invariant
//! auditor (`simcore::trace::Auditor`) as its bug oracle.
//!
//! Each round plans a batch of scenarios — corpus mutants, targeted
//! probes of under-explored coverage regions, or fresh draws — compiles
//! them, and runs them under the auditor across the worker pool. A run
//! that panics (an invariant violation, or any other divergence) is a
//! *finding*: it is greedily shrunk to a minimal scenario via the testkit
//! shrinking core and written out as a replayable `.scn` reproducer.
//!
//! Coverage is a feature vector over
//! `(CCA set, jitter/2δ bucket, rate bucket, outcome class)` where the
//! outcome classes are `fair`, `starved`, `loss-dominated` and
//! `violation`. The map persists to `coverage.txt` (sorted, one key per
//! line), so successive runs resume from — and bias away from — what has
//! already been explored.
//!
//! Everything is deterministic per `(seed, corpus, count)`: planning is
//! serial from one seeded stream, execution preserves job order at any
//! worker count (`simcore::par::map`), and results are folded back in
//! order. The determinism suite asserts byte-identical `coverage.txt` and
//! `findings.jsonl` across repeat runs and across `--jobs 4` vs serial.

use crate::ast::{CcaId, Flow, JitterSpec, Link, Scenario, ALL_CCAS};
use crate::compile::compile;
use crate::gen::{boundary_jitter, mutate, ScenarioStrategy};
use netsim::{Network, SimResult};
use simcore::json;
use simcore::par::{self, JobOutcome};
use simcore::rng::Xoshiro256;
use simcore::units::Dur;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use testkit::prop::Strategy;

/// Fuzzer configuration.
pub struct FuzzOptions {
    /// Master seed: same seed + corpus + count ⇒ byte-identical outputs.
    pub seed: u64,
    /// Number of scenarios to generate and run.
    pub count: usize,
    /// Worker threads (0 = available parallelism). Never affects results.
    pub jobs: usize,
    /// Output directory for `coverage.txt`, `findings.jsonl` and
    /// `finding-NNN.scn` reproducers.
    pub out_dir: PathBuf,
    /// Seed corpus (typically the parsed `tests/scenarios/*.scn`).
    pub corpus: Vec<Scenario>,
    /// Findings shrunk and written out before the run stops early — a
    /// budget guard: every shrink evaluation is a full simulation.
    pub max_findings: usize,
    /// Eval budget per finding for the greedy shrinker.
    pub max_shrink_evals: u32,
    /// Log batch progress to stderr.
    pub verbose: bool,
}

impl FuzzOptions {
    /// Defaults: 240 scenarios (the CI smoke floor is 200), up to 3
    /// findings shrunk at 300 evals each, quiet.
    pub fn new(seed: u64, out_dir: PathBuf) -> FuzzOptions {
        FuzzOptions {
            seed,
            count: 240,
            jobs: 0,
            out_dir,
            corpus: Vec::new(),
            max_findings: 3,
            max_shrink_evals: 300,
            verbose: false,
        }
    }
}

/// One shrunk finding.
pub struct Finding {
    /// The minimized scenario (also written to [`Finding::path`]).
    pub scenario: Scenario,
    /// Name of the generated scenario that first failed (`fuzz-NNNNNN`).
    pub origin: String,
    /// The panic message of the original failure (first line is the
    /// auditor's invariant verdict).
    pub message: String,
    /// Shrink evaluations spent minimizing.
    pub shrink_evals: u32,
    /// Where the `.scn` reproducer was written.
    pub path: PathBuf,
}

/// A completed fuzz run.
pub struct FuzzReport {
    /// Scenarios executed this run.
    pub executed: usize,
    /// Distinct coverage features after the run.
    pub features: usize,
    /// Features first seen this run.
    pub new_features: usize,
    /// Total failing scenarios observed (≥ `findings.len()` when the
    /// `max_findings` cap truncates shrinking).
    pub violations: usize,
    /// The shrunk findings, in discovery order.
    pub findings: Vec<Finding>,
}

/// The persisted coverage map: feature key → observation count.
pub type Coverage = BTreeMap<String, u64>;

const COVERAGE_HEADER: &str = "# scenario-fuzz coverage v1";

/// Parse a persisted coverage file (the inverse of [`render_coverage`]).
pub fn parse_coverage(text: &str) -> Coverage {
    let mut map = Coverage::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some((key, count)) = line.rsplit_once(' ') {
            if let Ok(n) = count.parse::<u64>() {
                map.insert(key.to_string(), n);
            }
        }
    }
    map
}

/// Render the coverage map in its persisted form: a header line, then
/// `key count` pairs in sorted key order.
pub fn render_coverage(map: &Coverage) -> String {
    let mut out = String::from(COVERAGE_HEADER);
    out.push('\n');
    for (key, count) in map {
        out.push_str(&format!("{key} {count}\n"));
    }
    out
}

/// The CCA component of a feature key: sorted slugs joined with `+`
/// (`bbr+copa`, or a single slug for one-flow scenarios). A workload
/// block contributes its template CCA as `wl-<slug>`, so population
/// scenarios occupy their own coverage region.
fn cca_key(s: &Scenario) -> String {
    let mut slugs: Vec<String> = s.flows.iter().map(|f| f.cca.slug().to_string()).collect();
    if let Some(w) = &s.workload {
        slugs.push(format!("wl-{}", w.cca.slug()));
    }
    slugs.sort_unstable();
    slugs.join("+")
}

/// The jitter/2δ bucket: where the scenario's largest jitter bound sits
/// relative to the paper's starvation boundary for its CCAs (workload
/// jitter and CCA included).
fn jitter_bucket(s: &Scenario) -> &'static str {
    let wl_jitter = s
        .workload
        .as_ref()
        .and_then(|w| w.jitter.map(|j| j.max.as_millis_f64()))
        .unwrap_or(0.0);
    let jitter_ms = s
        .flows
        .iter()
        .filter_map(|f| f.jitter.map(|j| j.max.as_millis_f64()))
        .fold(wl_jitter, f64::max);
    if jitter_ms <= 0.0 {
        return "j0";
    }
    let wl_delta = s
        .workload
        .as_ref()
        .map(|w| w.cca.delta_hint().as_millis_f64())
        .unwrap_or(1.0);
    let delta_ms = s
        .flows
        .iter()
        .map(|f| f.cca.delta_hint().as_millis_f64())
        .fold(1.0f64.max(wl_delta), f64::max);
    let ratio = jitter_ms / (2.0 * delta_ms);
    if ratio < 0.5 {
        "jlt0.5"
    } else if ratio < 0.9 {
        "j0.5-0.9"
    } else if ratio < 1.1 {
        "j0.9-1.1"
    } else if ratio < 2.0 {
        "j1.1-2"
    } else {
        "jge2"
    }
}

fn rate_bucket(mbps: f64) -> &'static str {
    if mbps < 4.0 {
        "rlt4"
    } else if mbps < 16.0 {
        "r4-16"
    } else if mbps < 64.0 {
        "r16-64"
    } else {
        "rge64"
    }
}

/// Classify a completed run: `loss-dominated` when any flow lost ≥ 5% of
/// its packets, `starved` when the worst flow got under 10% of the best
/// flow's throughput (or nothing moved at all), `fair` otherwise.
fn outcome_class(result: &SimResult) -> &'static str {
    let max_loss = result.flows.iter().map(|f| f.loss_fraction()).fold(0.0f64, f64::max);
    if max_loss >= 0.05 {
        return "loss-dominated";
    }
    let tputs: Vec<f64> = result.throughputs().iter().map(|r| r.bytes_per_sec()).collect();
    let hi = tputs.iter().fold(0.0f64, |a, &b| a.max(b));
    if hi <= 0.0 {
        return "starved";
    }
    let lo = tputs.iter().fold(f64::INFINITY, |a, &b| a.min(b));
    if tputs.len() >= 2 && lo / hi < 0.1 {
        return "starved";
    }
    "fair"
}

/// The full feature key of a scenario and its outcome class.
fn feature_key(s: &Scenario, outcome: &str) -> String {
    format!("{}|{}|{}|{}", cca_key(s), jitter_bucket(s), rate_bucket(s.link.rate_mbps), outcome)
}

/// CCA sets with no coverage entry at all yet, in registry-pair order.
fn uncovered_pairs(coverage: &Coverage) -> Vec<(CcaId, CcaId)> {
    let covered: std::collections::BTreeSet<&str> = coverage
        .keys()
        .filter_map(|k| k.split('|').next())
        .collect();
    let mut out = Vec::new();
    for (i, &a) in ALL_CCAS.iter().enumerate() {
        for &b in &ALL_CCAS[i..] {
            let mut slugs = [a.slug(), b.slug()];
            slugs.sort_unstable();
            if !covered.contains(slugs.join("+").as_str()) {
                out.push((a, b));
            }
        }
    }
    out
}

/// Build a targeted probe: an uncovered CCA pair head-to-head with jitter
/// at the starvation boundary on flow 0.
fn targeted(rng: &mut Xoshiro256, coverage: &Coverage) -> Scenario {
    let pairs = uncovered_pairs(coverage);
    let (a, b) = if pairs.is_empty() {
        // Everything seen at least once: re-probe a random pairing.
        let a = ALL_CCAS[rng.range_u64(ALL_CCAS.len() as u64) as usize];
        let b = ALL_CCAS[rng.range_u64(ALL_CCAS.len() as u64) as usize];
        (a, b)
    } else {
        pairs[rng.range_u64(pairs.len() as u64) as usize]
    };
    let rtt = Dur::from_millis([5, 10, 20, 40, 80][rng.range_u64(5) as usize]);
    let jitter = boundary_jitter(rng, a);
    let mk = |id: &str, cca: CcaId, jitter: Option<JitterSpec>| Flow {
        id: id.to_string(),
        cca,
        rtt,
        jitter,
        loss: None,
        datagram: false,
        start: None,
        mss: None,
        audit_jitter_bound: None,
    };
    Scenario {
        name: "targeted".to_string(),
        link: Link {
            rate_mbps: [4.0, 8.0, 16.0, 24.0, 48.0][rng.range_u64(5) as usize],
            buffer: crate::ast::Buffer::Ample,
            ecn_bytes: None,
        },
        duration: Dur::from_millis(1000),
        sample_every: None,
        flows: vec![
            mk("f0", a, Some(JitterSpec { max: jitter, seed: rng.range_u64(1000) })),
            mk("f1", b, None),
        ],
        workload: None,
    }
}

/// Plan the next scenario: mutate a corpus entry (50%), probe an
/// under-explored coverage region (30%), or draw fresh (20%).
fn plan(
    rng: &mut Xoshiro256,
    strategy: &ScenarioStrategy,
    corpus: &[Scenario],
    coverage: &Coverage,
    index: usize,
) -> Scenario {
    let mode = rng.range_u64(10);
    let mut s = if !corpus.is_empty() && mode < 5 {
        let pick = rng.range_u64(corpus.len() as u64) as usize;
        mutate(rng, strategy, corpus[pick].clone())
    } else if mode < 8 {
        targeted(rng, coverage)
    } else {
        strategy.generate(rng)
    };
    s.name = format!("fuzz-{index:06}");
    s
}

/// Does this scenario fail under the auditor? The shrinking predicate.
fn fails_under_audit(s: &Scenario) -> bool {
    let cfg = compile(s).with_audit(true);
    catch_unwind(AssertUnwindSafe(|| {
        Network::new(cfg).run();
    }))
    .is_err()
}

/// Run the fuzzer. Writes `coverage.txt` (accumulated across runs),
/// `findings.jsonl` (this run's findings) and one `finding-NNN.scn`
/// reproducer per shrunk finding into `opts.out_dir`.
pub fn fuzz(opts: &FuzzOptions) -> Result<FuzzReport, String> {
    let out_dir = &opts.out_dir;
    std::fs::create_dir_all(out_dir).map_err(|e| format!("cannot create {}: {e}", out_dir.display()))?;
    let cov_path = out_dir.join("coverage.txt");
    let mut coverage: Coverage = match std::fs::read_to_string(&cov_path) {
        Ok(text) => parse_coverage(&text),
        Err(_) => Coverage::new(),
    };
    let initial_features = coverage.len();

    let strategy = ScenarioStrategy::default();
    let mut rng = Xoshiro256::new(opts.seed);
    let jobs = if opts.jobs == 0 { par::available_jobs() } else { opts.jobs };
    // Fixed batch size, NOT a function of `jobs`: planning consults the
    // coverage accumulated so far, so batch boundaries are part of the
    // deterministic plan — a jobs-dependent batch would make `--jobs 4`
    // explore differently from a serial run.
    let batch_size = 32;

    let mut executed = 0usize;
    let mut failures: Vec<(Scenario, String)> = Vec::new();
    while executed < opts.count {
        let n = batch_size.min(opts.count - executed);
        // Planning is serial from the single seeded stream (and sees the
        // coverage accumulated so far); only execution fans out.
        let scenarios: Vec<Scenario> = (0..n)
            .map(|i| plan(&mut rng, &strategy, &opts.corpus, &coverage, executed + i))
            .collect();
        let configs: Vec<_> = scenarios.iter().map(|s| compile(s).with_audit(true)).collect();
        let reports = par::map(configs, jobs, |_i, cfg| Network::new(cfg).run(), None);
        for (s, report) in scenarios.into_iter().zip(reports) {
            let outcome = match report.outcome {
                JobOutcome::Ok(result) => outcome_class(&result),
                JobOutcome::Panicked(msg) => {
                    failures.push((s.clone(), msg));
                    "violation"
                }
            };
            *coverage.entry(feature_key(&s, outcome)).or_insert(0) += 1;
        }
        executed += n;
        if opts.verbose {
            eprintln!(
                "fuzz: {executed}/{} scenarios, {} features, {} violation(s)",
                opts.count,
                coverage.len(),
                failures.len()
            );
        }
    }

    // Shrink the findings (each evaluation is a full audited simulation,
    // so the count and per-finding budget are capped).
    let mut findings = Vec::new();
    let mut log_lines = Vec::new();
    for (i, (scenario, message)) in failures.iter().take(opts.max_findings).enumerate() {
        let origin = scenario.name.clone();
        let (mut min, shrink_evals) = testkit::prop::minimize(
            &strategy,
            scenario.clone(),
            fails_under_audit,
            opts.max_shrink_evals,
        );
        min.name = format!("finding-{i:03}");
        let path = out_dir.join(format!("finding-{i:03}.scn"));
        let source = format!(
            "# Minimal reproducer shrunk from {origin} (seed {}).\n# Replay: repro fuzz --replay {}\n{}\n",
            opts.seed,
            path.display(),
            min
        );
        std::fs::write(&path, &source).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        let first_line = message.lines().next().unwrap_or("");
        log_lines.push(format!(
            "{{\"finding\":{i},\"origin\":\"{}\",\"repro\":\"finding-{i:03}.scn\",\"shrink_evals\":{shrink_evals},\"message\":\"{}\"}}",
            json::escape(&origin),
            json::escape(first_line),
        ));
        findings.push(Finding {
            scenario: min,
            origin,
            message: message.clone(),
            shrink_evals,
            path,
        });
    }
    if failures.len() > opts.max_findings {
        log_lines.push(format!(
            "{{\"truncated\":{},\"note\":\"further failures not shrunk (max_findings cap)\"}}",
            failures.len() - opts.max_findings
        ));
    }

    let findings_path = out_dir.join("findings.jsonl");
    let mut text = log_lines.join("\n");
    if !text.is_empty() {
        text.push('\n');
    }
    std::fs::write(&findings_path, text)
        .map_err(|e| format!("cannot write {}: {e}", findings_path.display()))?;
    std::fs::write(&cov_path, render_coverage(&coverage))
        .map_err(|e| format!("cannot write {}: {e}", cov_path.display()))?;

    Ok(FuzzReport {
        executed,
        features: coverage.len(),
        new_features: coverage.len() - initial_features,
        violations: failures.len(),
        findings,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    #[test]
    fn coverage_renders_and_reparses() {
        let mut map = Coverage::new();
        map.insert("bbr+copa|j0.9-1.1|r4-16|fair".to_string(), 3);
        map.insert("reno|j0|rlt4|loss-dominated".to_string(), 1);
        let text = render_coverage(&map);
        assert!(text.starts_with(COVERAGE_HEADER));
        assert_eq!(parse_coverage(&text), map);
    }

    #[test]
    fn feature_key_buckets_make_sense() {
        let s = parse(
            r#"
scenario "k" {
  link { rate 24mbps buffer ample }
  duration 1s
  flow f0 { cca copa rtt 40ms jitter 10ms seed 1 }
  flow f1 { cca bbr rtt 40ms }
}
"#,
        )
        .expect("parses");
        // Copa δ-hint 5 ms, BBR 10 ms → scenario δ = 10 ms; 10 ms jitter
        // over a 20 ms boundary lands in the 0.5 bucket edge.
        assert_eq!(feature_key(&s, "fair"), "bbr+copa|j0.5-0.9|r16-64|fair");
    }

    #[test]
    fn uncovered_pairs_shrink_as_coverage_grows() {
        let mut cov = Coverage::new();
        let all = uncovered_pairs(&cov);
        let n = ALL_CCAS.len();
        assert_eq!(all.len(), n * (n + 1) / 2);
        cov.insert("bbr+copa|j0|rlt4|fair".to_string(), 1);
        let after = uncovered_pairs(&cov);
        assert_eq!(after.len(), all.len() - 1);
        assert!(!after.contains(&(CcaId::Copa, CcaId::Bbr)));
        assert!(!after.contains(&(CcaId::Bbr, CcaId::Copa)));
    }

    #[test]
    fn seeded_violation_fails_under_audit_and_clean_scenario_passes() {
        let bad = parse(
            r#"
scenario "seeded" {
  link { rate 12mbps buffer ample }
  duration 1s
  flow f0 { cca const-cwnd rtt 40ms jitter 20ms seed 5 audit-jitter-bound 1ms }
}
"#,
        )
        .expect("parses");
        assert!(fails_under_audit(&bad));
        let mut good = bad.clone();
        good.flows[0].audit_jitter_bound = None;
        assert!(!fails_under_audit(&good));
    }
}
