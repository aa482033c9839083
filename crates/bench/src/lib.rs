//! # repro — the experiment harness
//!
//! One module per table/figure/experiment of the paper, each exposing a
//! `run(quick)` function that regenerates the artifact and returns a
//! printable report; the sweep-engine experiments also take the [`Sweep`]
//! they run on, which the `repro` binary builds from [`SweepFlags`].
//!
//! `quick = true` shrinks durations so CI finishes fast; the
//! full settings match the paper's (60-second runs etc.). Absolute numbers
//! are not expected to match the paper's testbed — the *shape* (who
//! starves, by roughly what factor) is the reproduction target; see
//! EXPERIMENTS.md for side-by-side numbers.

pub mod exp_ablations;
pub mod exp_allegro;
pub mod exp_algo1;
pub mod exp_bbr;
pub mod exp_boundary;
pub mod exp_ccmc;
pub mod exp_copa;
pub mod exp_ecn;
pub mod exp_merit;
pub mod exp_seeds;
pub mod exp_sweep;
pub mod exp_theorems;
pub mod exp_vivace;
pub mod fig1;
pub mod fig2;
pub mod fig3;
pub mod fig7;
pub mod report;
pub mod table;

use simcore::par;
use starvation::sweep::Sweep;
use std::str::FromStr;
use std::sync::Arc;

/// Where CSV outputs land (created on demand).
pub const RESULTS_DIR: &str = "results";

/// Ensure the results directory exists and return the path for `name`.
pub fn result_path(name: &str) -> std::path::PathBuf {
    let dir = std::path::Path::new(RESULTS_DIR);
    let _ = std::fs::create_dir_all(dir);
    dir.join(name)
}

/// The value of `--flag VALUE` or `--flag=VALUE` in `args`, parsed as a
/// `T` (`None` when the flag is absent). A missing or malformed value is an
/// error.
pub fn parse_flag<T: FromStr>(args: &[String], flag: &str) -> Result<Option<T>, String> {
    let prefix = format!("{flag}=");
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let value = if a == flag {
            it.next().ok_or_else(|| format!("{flag} expects a value"))?
        } else if let Some(v) = a.strip_prefix(&prefix) {
            v
        } else {
            continue;
        };
        return value.parse().map(Some).map_err(|_| format!("{flag} expects a number (got {value:?})"));
    }
    Ok(None)
}

/// The sweep-engine flags, parsed once from `repro`'s command line and
/// applied to every sweep it builds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SweepFlags {
    /// `--jobs N`: worker threads (absent or 0: available parallelism).
    pub jobs: usize,
    /// `--progress`: one stderr line per finished job.
    pub progress: bool,
    /// `--audit`: every row runs under the runtime invariant auditor.
    pub audit: bool,
}

impl SweepFlags {
    /// Read the flags from `args`. A malformed `--jobs` value is an error.
    pub fn parse(args: &[String]) -> Result<SweepFlags, String> {
        let jobs = parse_flag(args, "--jobs")?.unwrap_or(0);
        Ok(SweepFlags {
            jobs: if jobs == 0 { par::available_jobs() } else { jobs },
            progress: args.iter().any(|a| a == "--progress"),
            audit: args.iter().any(|a| a == "--audit"),
        })
    }

    /// A sweep named `name` that runs with these flags.
    pub fn sweep(&self, name: &str) -> Sweep {
        let sweep = Sweep::new(name).jobs(self.jobs).audit(self.audit);
        if self.progress {
            sweep.with_log(Arc::new(|msg: &str| eprintln!("{msg}")))
        } else {
            sweep
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::{FlowConfig, Jitter, LinkConfig, SimConfig};
    use simcore::rng::Xoshiro256;
    use simcore::units::{Dur, Rate};
    use starvation::sweep::SweepJob;

    fn flags(args: &[&str]) -> Result<SweepFlags, String> {
        SweepFlags::parse(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    /// A row whose path jitters by up to 20 ms while declaring a 1 ms
    /// bound: only the auditor notices.
    fn jitter_bound_violation() -> SweepJob {
        let flow = FlowConfig::bulk(Box::new(cca::ConstCwnd::new(10 * 1500)), Dur::from_millis(40))
            .with_jitter(Jitter::Random { max: Dur::from_millis(20), rng: Xoshiro256::new(5) })
            .with_audit_jitter_bound(Dur::from_millis(1));
        let link = LinkConfig::ample_buffer(Rate::from_mbps(12.0));
        SweepJob::new("violating", SimConfig::new(link, vec![flow], Dur::from_secs(1)))
    }

    #[test]
    fn audit_flag_reaches_the_sweep_rows() {
        let audited = flags(&["seeds", "--audit", "--jobs", "1"]).expect("valid flags");
        let report = audited.sweep("audit-flag").run(vec![jitter_bound_violation()]);
        match &report.rows[0].outcome {
            Err(msg) => assert!(msg.contains("jitter-bound"), "{msg}"),
            Ok(_) => panic!("--audit must run the row under the auditor"),
        }
        let plain = flags(&["seeds", "--jobs", "1"]).expect("valid flags");
        let report = plain.sweep("audit-flag").run(vec![jitter_bound_violation()]);
        assert!(report.rows[0].outcome.is_ok(), "no --audit, no auditor");
    }

    #[test]
    fn flags_parse_both_jobs_spellings_and_reject_a_bad_count() {
        let f = flags(&["seeds", "--jobs", "3", "--progress"]).expect("valid flags");
        assert_eq!(f, SweepFlags { jobs: 3, progress: true, audit: false });
        assert_eq!(flags(&["--jobs=2"]).map(|f| f.jobs), Ok(2));
        assert_eq!(flags(&["--jobs", "0"]).map(|f| f.jobs), Ok(par::available_jobs()));
        assert_eq!(flags(&[]).map(|f| f.jobs), Ok(par::available_jobs()));
        assert_eq!(flags(&["--jobs", "x"]), Err("--jobs expects a number (got \"x\")".into()));
        assert_eq!(flags(&["--jobs"]), Err("--jobs expects a value".into()));
    }
}
