//! A set is one untraced run of every workload, each in its own child
//! process, one at a time (so `VmHWM` is per workload and nothing shares
//! the two cores). `spine aa` runs two sets of the same binary back to
//! back and holds the difference to the benchmark's own bounds.

use crate::json::{parse_json, Json};
use crate::registry::{self, Better};
use crate::runner::{RunArgs, RunReport};
use std::process::{Command, Stdio};

/// Prefix of the stdout line carrying a run's full detail.
pub const DETAIL_PREFIX: &str = "detail ";

/// Run one workload in a child `spine run` and parse what it printed.
pub fn child_run(args: &RunArgs) -> Result<RunReport, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate the spine binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["run", "--workload", &args.workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }]);
    if args.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a child run: {e}"))?;
    if !out.status.success() {
        return Err(format!("{}: child exited with {}", args.workload, out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let detail = stdout
        .lines()
        .find_map(|l| l.strip_prefix(DETAIL_PREFIX))
        .ok_or_else(|| format!("{}: child printed no detail line", args.workload))?;
    RunReport::from_detail(&parse_json(detail)?)
}

/// Run every workload (or the one named) once.
pub fn run_set(template: &RunArgs, only: Option<&str>) -> Result<Vec<RunReport>, String> {
    registry::WORKLOADS
        .iter()
        .filter(|w| only.is_none_or(|name| name == w.name))
        .map(|w| child_run(&RunArgs { workload: w.name.to_string(), ..template.clone() }))
        .collect()
}

/// A set as a JSON document.
pub fn set_json(reports: &[RunReport]) -> Json {
    Json::Arr(reports.iter().map(RunReport::detail).collect())
}

/// One comparison row of `spine aa`.
#[derive(Clone, Debug, PartialEq)]
pub struct AaRow {
    pub workload: String,
    pub metric: String,
    pub first: f64,
    pub second: f64,
    /// How much worse the second set is, as a share of the first
    /// (negative = better).
    pub worse_by: f64,
    pub bound: f64,
}

impl AaRow {
    /// Within the metric's bound.
    pub fn ok(&self) -> bool {
        self.worse_by <= self.bound
    }
}

/// Compare two sets of the same code. Smoke output is refused: its
/// numbers are not measurements. Returns the rows and the list of hard
/// failures (count mismatches, failed operations).
pub fn compare_sets(first: &[RunReport], second: &[RunReport]) -> Result<(Vec<AaRow>, Vec<String>), String> {
    if first.iter().chain(second).any(|r| r.args.smoke) {
        return Err("refusing to compare smoke-stamped output".to_string());
    }
    let mut rows = Vec::new();
    let mut hard = Vec::new();
    for a in first {
        let Some(b) = second.iter().find(|b| b.args.workload == a.args.workload) else {
            hard.push(format!("{}: missing from the second set", a.args.workload));
            continue;
        };
        if a.work_per_unit != b.work_per_unit {
            hard.push(format!(
                "{}: work per unit differs ({} vs {})",
                a.args.workload, a.work_per_unit, b.work_per_unit
            ));
        }
        for r in [a, b] {
            if r.tally.failed > 0 {
                hard.push(format!("{}: {} of {} operations failed", r.args.workload, r.tally.failed, r.tally.attempted));
            }
        }
        for def in registry::end_to_end() {
            let (Some(&x), Some(&y)) = (a.metrics.get(&def.name), b.metrics.get(&def.name)) else {
                hard.push(format!("{}: {} not reported", a.args.workload, def.name));
                continue;
            };
            let worse_by = match def.better {
                Better::Lower => (y - x) / x,
                Better::Higher => (x - y) / x,
            };
            rows.push(AaRow {
                workload: a.args.workload.clone(),
                metric: def.name,
                first: x,
                second: y,
                worse_by,
                bound: def.bound.expect("end-to-end metrics are bounded"),
            });
        }
    }
    Ok((rows, hard))
}

/// Render the comparison.
pub fn aa_table(rows: &[AaRow], hard: &[String]) -> String {
    let mut out = format!(
        "{:<16} {:<20} {:>16} {:>16} {:>9} {:>7}\n",
        "workload", "metric", "first", "second", "worse by", "bound"
    );
    for r in rows {
        out.push_str(&format!(
            "{:<16} {:<20} {:>16.4} {:>16.4} {:>8.2}% {:>6.0}%{}\n",
            r.workload,
            r.metric,
            r.first,
            r.second,
            r.worse_by * 100.0,
            r.bound * 100.0,
            if r.ok() { "" } else { "  OUTSIDE" }
        ));
    }
    for h in hard {
        out.push_str(&format!("FAIL {h}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::spread;
    use crate::workloads::Tally;

    fn report(workload: &str, rate: f64, smoke: bool) -> RunReport {
        let metrics = [("work_per_s", rate), ("work_per_user_cpu_s", rate), ("peak_rss_mb", 40.0), ("setup_s", 0.5)]
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect();
        RunReport {
            args: RunArgs { workload: workload.into(), seed: 1, seconds: 12.0, trace: false, smoke },
            tally: Tally { work: 0, attempted: 10, failed: 0 },
            metrics,
            work_per_unit: 1000,
            unit_secs: spread(&[1.0]),
        }
    }

    #[test]
    fn differences_are_signed_by_direction_and_held_to_the_bound() {
        let first = vec![report("canon-mix", 100.0, false)];
        let mut slower = report("canon-mix", 80.0, false);
        slower.metrics.insert("peak_rss_mb".into(), 41.0);
        let (rows, hard) = compare_sets(&first, &[slower]).expect("comparable");
        assert!(hard.is_empty());
        let by = |m: &str| rows.iter().find(|r| r.metric == m).expect("row").clone();
        // Higher-is-better fell 20 %: inside work_per_s's 25 %, outside
        // work_per_user_cpu_s's 15 %.
        assert!((by("work_per_s").worse_by - 0.20).abs() < 1e-12 && by("work_per_s").ok());
        assert!(!by("work_per_user_cpu_s").ok());
        // Lower-is-better rose 2.5 %: inside its bound.
        assert!((by("peak_rss_mb").worse_by - 0.025).abs() < 1e-12 && by("peak_rss_mb").ok());
        // An improvement is a negative "worse by" and always inside.
        let (rows, _) = compare_sets(&first, &[report("canon-mix", 120.0, false)]).expect("comparable");
        assert!(rows.iter().all(AaRow::ok));
    }

    #[test]
    fn counts_must_match_exactly_and_failures_are_hard() {
        let first = vec![report("canon-mix", 100.0, false)];
        let mut b = report("canon-mix", 100.0, false);
        b.work_per_unit = 1001;
        b.tally.failed = 1;
        let (_, hard) = compare_sets(&first, &[b]).expect("comparable");
        assert_eq!(hard.len(), 2, "{hard:?}");
    }

    #[test]
    fn smoke_output_is_refused() {
        let a = vec![report("canon-mix", 100.0, true)];
        assert!(compare_sets(&a, &a).is_err());
    }
}
