//! One run of one workload: set up, measure for the run length, check,
//! report. End-to-end numbers come from an untraced run; a traced run
//! records spans and fills the per-layer table instead.

use crate::host::{self, Scratch};
use crate::json::{obj, Json};
use crate::layers;
use crate::registry::{self, MetricDef};
use crate::span::{ms_by_name, SpanLog};
use crate::stats::{median, spread, Spread};
use crate::workloads::{self, Scale, Tally, Workload};
use std::collections::BTreeMap;

/// Times the set-up is repeated in an untraced run; `setup_s` is the
/// median.
const SETUP_REPEATS: usize = 3;

/// A traced run stops recording once it holds this many spans (a cached
/// sweep re-run makes 1 500 a unit).
const SPAN_BUDGET: usize = 400_000;

/// Raw spans kept in the trace file; the per-layer totals cover all.
const SPANS_IN_FILE: usize = 20_000;

/// Command-line options of `spine run`.
#[derive(Clone, Debug, PartialEq)]
pub struct RunArgs {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Length of the measured phase, seconds.
    pub seconds: f64,
    /// Record spans and report per-layer metrics instead of end-to-end.
    pub trace: bool,
    /// 1/20-size wiring check; output is stamped and never compared.
    pub smoke: bool,
}

/// What a run found.
#[derive(Clone, Debug, PartialEq)]
pub struct RunReport {
    /// The options it ran with.
    pub args: RunArgs,
    /// Checked operations, set-up included.
    pub tally: Tally,
    /// Metric values by name: end-to-end for an untraced run, per-layer
    /// for a traced one.
    pub metrics: BTreeMap<String, f64>,
    /// Work items per unit (deterministic for a given seed).
    pub work_per_unit: u64,
    /// Wall seconds of each measured unit, summarised.
    pub unit_secs: Spread,
}

impl RunArgs {
    fn scale(&self) -> Scale {
        if self.smoke {
            Scale::Smoke
        } else {
            Scale::Full
        }
    }
}

impl RunReport {
    /// The line the driver reads: exactly `correct`, `attempted`,
    /// `failed`, `metrics` — plus a `smoke` stamp on a smoke run, which no
    /// comparison accepts.
    pub fn result_line(&self) -> Json {
        let defs = if self.args.trace { registry::per_layer() } else { registry::end_to_end() };
        let metrics = defs
            .iter()
            .map(|d: &MetricDef| {
                let value = self.metrics.get(&d.name).copied().unwrap_or(f64::NAN);
                (d.name.clone(), obj(vec![("value", Json::Num(value)), ("unit", Json::Str(d.unit.to_string()))]))
            })
            .collect();
        let mut line = vec![
            ("correct".to_string(), Json::Bool(self.tally.failed == 0)),
            ("attempted".to_string(), Json::Num(self.tally.attempted as f64)),
            ("failed".to_string(), Json::Num(self.tally.failed as f64)),
            ("metrics".to_string(), Json::Obj(metrics)),
        ];
        if self.args.smoke {
            line.push(("smoke".to_string(), Json::Bool(true)));
        }
        Json::Obj(line)
    }

    /// Everything a set file keeps about the run.
    pub fn detail(&self) -> Json {
        let s = &self.unit_secs;
        obj(vec![
            ("workload", Json::Str(self.args.workload.clone())),
            ("seed", Json::Num(self.args.seed as f64)),
            ("seconds", Json::Num(self.args.seconds)),
            ("trace", Json::Bool(self.args.trace)),
            ("smoke", Json::Bool(self.args.smoke)),
            ("work_per_unit", Json::Num(self.work_per_unit as f64)),
            (
                "unit_secs",
                obj(vec![
                    ("n", Json::Num(s.n as f64)),
                    ("min", Json::Num(s.min)),
                    ("q1", Json::Num(s.q1)),
                    ("median", Json::Num(s.median)),
                    ("q3", Json::Num(s.q3)),
                    ("max", Json::Num(s.max)),
                ]),
            ),
            ("result", self.result_line()),
        ])
    }

    /// Rebuild from [`RunReport::detail`]'s output.
    pub fn from_detail(doc: &Json) -> Result<RunReport, String> {
        let num = |v: &Json, k: &str| v.member(k).and_then(Json::as_f64).ok_or_else(|| format!("missing number `{k}`"));
        let flag = |k: &str| doc.member(k).and_then(Json::as_bool).ok_or_else(|| format!("missing flag `{k}`"));
        let args = RunArgs {
            workload: doc.member("workload").and_then(Json::as_str).ok_or("missing `workload`")?.to_string(),
            seed: num(doc, "seed")? as u64,
            seconds: num(doc, "seconds")?,
            trace: flag("trace")?,
            smoke: flag("smoke")?,
        };
        let us = doc.member("unit_secs").ok_or("missing `unit_secs`")?;
        let unit_secs = Spread {
            n: num(us, "n")? as usize,
            min: num(us, "min")?,
            q1: num(us, "q1")?,
            median: num(us, "median")?,
            q3: num(us, "q3")?,
            max: num(us, "max")?,
        };
        let result = doc.member("result").ok_or("missing `result`")?;
        let tally = Tally {
            work: 0,
            attempted: num(result, "attempted")? as u64,
            failed: num(result, "failed")? as u64,
        };
        let metrics = result
            .member("metrics")
            .and_then(Json::as_obj)
            .ok_or("missing `metrics`")?
            .iter()
            .map(|(name, m)| Ok((name.clone(), num(m, "value")?)))
            .collect::<Result<_, String>>()?;
        Ok(RunReport { args, tally, metrics, work_per_unit: num(doc, "work_per_unit")? as u64, unit_secs })
    }
}

/// Whether to start another unit: the run length has not passed, and the
/// unit would not mostly overshoot it (an 11-second `figures-quick` pass
/// started at second 11 of 12 would double the run).
fn another_unit(elapsed: f64, unit_secs: &[f64], seconds: f64) -> bool {
    match unit_secs {
        [] => true,
        done => elapsed < seconds && elapsed + median(done) / 2.0 <= seconds,
    }
}

fn prepare<'s>(args: &RunArgs, scratch: &'s Scratch) -> Result<Box<dyn Workload + 's>, String> {
    workloads::prepare(&args.workload, args.seed, args.scale(), scratch).ok_or_else(|| {
        let names: Vec<&str> = registry::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload `{}` (expected one of: {})", args.workload, names.join(", "))
    })
}

/// Run one workload as `args` says.
pub fn run_workload(args: &RunArgs) -> Result<RunReport, String> {
    let scratch = Scratch::create().map_err(|e| format!("cannot create scratch under benchmark/out: {e}"))?;
    host::isolate_environment(&scratch);
    if args.trace {
        traced_run(args, &scratch)
    } else {
        untraced_run(args, &scratch)
    }
}

fn untraced_run(args: &RunArgs, scratch: &Scratch) -> Result<RunReport, String> {
    let mut tally = Tally::default();
    let mut setup_secs = Vec::new();
    let mut prepared = None;
    for _ in 0..if args.smoke { 1 } else { SETUP_REPEATS } {
        drop(prepared.take());
        let t0 = host::host_now();
        let w = prepare(args, scratch)?;
        setup_secs.push(host::secs_since(t0));
        tally.absorb(w.setup_tally());
        prepared = Some(w);
    }
    let mut w = prepared.expect("set-up ran at least once");

    let mut unit_secs = Vec::new();
    let mut work = 0u64;
    let user0 = host::host_user_cpu_secs();
    let phase = host::host_now();
    while another_unit(host::secs_since(phase), &unit_secs, args.seconds) {
        let t0 = host::host_now();
        let unit = w.unit();
        unit_secs.push(host::secs_since(t0));
        work += unit.work;
        tally.absorb(unit);
        tally.absorb(w.settle());
    }
    // User CPU over the whole measured phase, the untimed checks between
    // units included: one 10 ms reading grain in total instead of one
    // per unit.
    let user = (host::host_user_cpu_secs() - user0).max(1e-3);
    drop(w);

    let work_per_unit = work / unit_secs.len() as u64;
    let mut metrics = BTreeMap::new();
    metrics.insert("work_per_s".to_string(), work_per_unit as f64 / median(&unit_secs));
    metrics.insert("work_per_user_cpu_s".to_string(), work as f64 / user);
    metrics.insert("peak_rss_mb".to_string(), host::host_peak_rss_mib());
    metrics.insert("setup_s".to_string(), median(&setup_secs));
    tally.work = work;
    Ok(RunReport { args: args.clone(), tally, metrics, work_per_unit, unit_secs: spread(&unit_secs) })
}

fn traced_run(args: &RunArgs, scratch: &Scratch) -> Result<RunReport, String> {
    let mut w = prepare(args, scratch)?;
    let mut tally = w.setup_tally();
    let mut log = SpanLog::default();
    let (mut plain_secs, mut traced_secs, mut pair_secs) = (Vec::new(), Vec::new(), Vec::new());
    let mut work = 0u64;
    let phase = host::host_now();
    // Untraced and traced units alternate, so the overhead compares like
    // with like; a pair is the unit of progress.
    while another_unit(host::secs_since(phase), &pair_secs, args.seconds) && log.spans().len() < SPAN_BUDGET {
        let pair = host::host_now();
        let t0 = host::host_now();
        let plain = w.unit();
        plain_secs.push(host::secs_since(t0));
        tally.absorb(plain);
        tally.absorb(w.settle());

        let t0 = host::host_now();
        let traced = w.traced_unit(&mut log);
        traced_secs.push(host::secs_since(t0));
        work += traced.work;
        tally.absorb(traced);
        tally.absorb(w.settle());
        pair_secs.push(host::secs_since(pair));
    }
    drop(w);
    let overhead_pct = (median(&traced_secs) / median(&plain_secs) - 1.0) * 100.0;

    let figures_ms = (args.workload == "figures-quick").then(|| ms_by_name(log.spans(), traced_secs.len()));
    let mut metrics = layers::measure_all(&layers::Context {
        seed: args.seed,
        scratch,
        scale: args.scale(),
        figures_ms,
    });
    metrics.insert("harness.trace_overhead_pct".to_string(), overhead_pct);
    let missing: Vec<String> =
        registry::per_layer().into_iter().map(|d| d.name).filter(|n| !metrics.contains_key(n)).collect();
    if !missing.is_empty() {
        return Err(format!("per-layer table is missing {}", missing.join(", ")));
    }

    let file = obj(vec![
        ("workload", Json::Str(args.workload.clone())),
        ("seed", Json::Num(args.seed as f64)),
        ("smoke", Json::Bool(args.smoke)),
        ("trace_overhead_pct", Json::Num(overhead_pct)),
        ("trace", log.trace_document(SPANS_IN_FILE)),
        ("per_layer", Json::Obj(metrics.iter().map(|(k, v)| (k.clone(), Json::Num(*v))).collect())),
    ]);
    let path = host::out_dir().join(format!("trace-{}.json", args.workload));
    std::fs::write(&path, file.render() + "\n")
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;

    tally.work = work;
    let work_per_unit = work / traced_secs.len() as u64;
    Ok(RunReport { args: args.clone(), tally, metrics, work_per_unit, unit_secs: spread(&traced_secs) })
}

/// The table a person reads (stderr; stdout carries the JSON).
pub fn human_summary(r: &RunReport) -> String {
    let unit = registry::workload(&r.args.workload).map_or("work", |w| w.work_unit);
    let s = &r.unit_secs;
    let mut out = format!(
        "{}  seed {}  {}{}\n  {} {unit}/unit x {} units   unit wall: median {:.4} s  min {:.4}  q1 {:.4}  q3 {:.4}  max {:.4}  (iqr {:.2}%)\n  checks: {} failed / {} attempted\n",
        r.args.workload,
        r.args.seed,
        if r.args.trace { "traced" } else { "untraced" },
        if r.args.smoke { "  SMOKE (numbers are not comparable)" } else { "" },
        r.work_per_unit,
        s.n,
        s.median,
        s.min,
        s.q1,
        s.q3,
        s.max,
        s.iqr_share() * 100.0,
        r.tally.failed,
        r.tally.attempted,
    );
    let defs = if r.args.trace { registry::per_layer() } else { registry::end_to_end() };
    for d in defs {
        let v = r.metrics.get(&d.name).copied().unwrap_or(f64::NAN);
        out.push_str(&format!("  {:<44} {:>16.4} {}\n", d.name, v, d.unit));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse_json;

    fn sample(trace: bool, smoke: bool) -> RunReport {
        let defs = if trace { registry::per_layer() } else { registry::end_to_end() };
        let metrics = defs.iter().enumerate().map(|(i, d)| (d.name.clone(), 1.5 + i as f64 / 7.0)).collect();
        RunReport {
            args: RunArgs { workload: "canon-mix".into(), seed: 3, seconds: 12.0, trace, smoke },
            tally: Tally { work: 99, attempted: 1234, failed: 0 },
            metrics,
            work_per_unit: 146_000,
            unit_secs: spread(&[0.028, 0.029, 0.0285, 0.031]),
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys_and_every_metric() {
        for trace in [false, true] {
            let line = parse_json(&sample(trace, false).result_line().render()).expect("parses");
            let keys: Vec<&str> = line.as_obj().expect("object").iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            let want: Vec<String> = if trace { registry::per_layer() } else { registry::end_to_end() }
                .into_iter()
                .map(|d| d.name)
                .collect();
            let got: Vec<String> =
                line.member("metrics").and_then(Json::as_obj).expect("metrics").iter().map(|(k, _)| k.clone()).collect();
            assert_eq!(got, want);
            assert_eq!(line.member("attempted").map(Json::render).as_deref(), Some("1234"));
        }
        let smoke = sample(false, true).result_line();
        assert_eq!(smoke.member("smoke").and_then(Json::as_bool), Some(true));
    }

    #[test]
    fn detail_round_trips_through_text() {
        for (trace, smoke) in [(false, false), (true, false), (false, true)] {
            let r = sample(trace, smoke);
            let text = r.detail().render();
            let mut back = RunReport::from_detail(&parse_json(&text).expect("parses")).expect("rebuilds");
            back.tally.work = r.tally.work; // not part of the file
            assert_eq!(back, r);
        }
    }

    #[test]
    fn a_unit_that_would_mostly_overshoot_is_not_started() {
        assert!(another_unit(0.0, &[], 12.0));
        assert!(another_unit(3.0, &[1.0, 1.0, 1.0], 12.0));
        assert!(!another_unit(12.5, &[1.0], 12.0));
        // An 11.4 s pass at second 11.4 of 12: half of it would overshoot.
        assert!(!another_unit(11.4, &[11.4], 12.0));
        // ...but at 20 s run length a second pass mostly fits.
        assert!(another_unit(11.4, &[11.4], 20.0));
    }

    #[test]
    fn unknown_workloads_are_refused_with_the_list() {
        let args = RunArgs { workload: "nope".into(), seed: 1, seconds: 1.0, trace: false, smoke: true };
        let err = run_workload(&args).expect_err("refused");
        assert!(err.contains("canon-mix") && err.contains("figures-quick"), "{err}");
    }
}
