//! Seed-robustness sweep: the §5 starvation results should not hinge on
//! one lucky random stream. Each scenario runs across several seeds for
//! every randomized component (CCA probe phasing, jitter, loss); we report
//! the min / median / max starvation ratio. Each scenario is a seeded
//! family of [`starvation::paper`]; seed 0 is the run `repro bbr`,
//! `repro vivace` and `repro allegro` publish.
//!
//! (The §5.1 Copa scenario has no randomness at all — it is bit-identical
//! across runs — so it needs no sweep.)
//!
//! The scenario × seed grid runs on the shared sweep engine
//! ([`starvation::sweep`]): one job per (scenario, seed), executed across
//! `--jobs` workers with result order preserved, so the published table is
//! byte-identical at any worker count.

use crate::table::{fnum, TextTable};
use netsim::SimConfig;
use simcore::par;
use simcore::stats::Summary;
use simcore::units::Dur;
use starvation::paper;
use starvation::sweep::{RowSummary, Sweep, SweepJob};
use std::fmt;

/// One scenario's ratio distribution over seeds.
#[derive(Clone, Debug)]
pub struct SeedRow {
    /// Scenario name.
    pub scenario: &'static str,
    /// Starved-over-other ratio per seed.
    pub ratios: Vec<f64>,
}

impl SeedRow {
    /// Distribution summary.
    pub fn summary(&self) -> Summary {
        Summary::of(&self.ratios).expect("non-empty")
    }
}

/// The sweep's results.
pub struct SeedsReport {
    /// One row per scenario.
    pub rows: Vec<SeedRow>,
}

/// Starved-over-other whole-run throughput ratio.
fn end_ratio(r: &RowSummary) -> f64 {
    r.flows[1].throughput_mbps / r.flows[0].throughput_mbps
}

/// A scenario constructor: `(seed, duration) → SimConfig`.
type MkScenario = fn(u64, Dur) -> SimConfig;

/// The sweep's scenarios, in publication order.
const SCENARIOS: [(&str, MkScenario); 3] = [
    ("BBR Rm 40/80 ms (§5.2)", paper::bbr_rtt_asymmetry),
    (
        "Vivace ACK quantization (§5.3)",
        paper::vivace_ack_quantization,
    ),
    (
        "Allegro asymmetric loss (§5.4)",
        paper::allegro_asymmetric_loss,
    ),
];

/// Run each randomized scenario over `n` seeds, using every available core.
pub fn run(quick: bool) -> SeedsReport {
    run_with(quick, par::available_jobs())
}

/// Run the sweep across `jobs` workers.
pub fn run_with(quick: bool, jobs: usize) -> SeedsReport {
    let (n, secs) = if quick { (3u64, 40) } else { (5u64, 60) };
    let dur = Dur::from_secs(secs);
    let job_list: Vec<SweepJob> = SCENARIOS
        .iter()
        .flat_map(|(name, mk)| {
            (0..n).map(move |s| SweepJob::new(format!("{name}/seed{s}"), mk(s, dur)))
        })
        .collect();
    let report = Sweep::new("seeds").jobs(jobs).run(job_list);
    let rows = SCENARIOS
        .iter()
        .enumerate()
        .map(|(i, (name, _))| SeedRow {
            scenario: name,
            ratios: report.rows[i * n as usize..(i + 1) * n as usize]
                .iter()
                .map(|row| end_ratio(row.result()))
                .collect(),
        })
        .collect();
    SeedsReport { rows }
}

impl SeedsReport {
    /// Render the distribution table.
    pub fn table(&self) -> TextTable {
        let mut t = TextTable::new(&["scenario", "seeds", "min", "median", "max"]);
        for r in &self.rows {
            let s = r.summary();
            t.row(&[
                r.scenario.into(),
                s.n.to_string(),
                fnum(s.min),
                fnum(s.p50),
                fnum(s.max),
            ]);
        }
        t
    }
}

impl fmt::Display for SeedsReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Seed-robustness: starvation ratio distributions across random streams"
        )?;
        write!(f, "{}", self.table().render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starvation_holds_across_seeds() {
        let r = run(true);
        for row in &r.rows {
            let s = row.summary();
            if row.scenario.contains("Allegro") {
                // Allegro's RCT noise makes its outcome stochastic: the
                // lossy flow starves in most streams, but the noise-blinded
                // variant occasionally bullies instead (see EXPERIMENTS.md).
                // Require the majority direction.
                assert!(s.p50 > 1.2, "{}: median ratio={}", row.scenario, s.p50);
            } else {
                // BBR and Vivace starve in *every* stream.
                assert!(s.min > 2.0, "{}: min ratio={}", row.scenario, s.min);
            }
        }
    }
}
