//! Seed-robustness sweep: the §5 starvation results should not hinge on
//! one lucky random stream. Each scenario runs across several seeds for
//! every randomized component (CCA probe phasing, jitter, loss); we report
//! the min / median / max starvation ratio.
//!
//! (The §5.1 Copa scenario has no randomness at all — it is bit-identical
//! across runs — so it needs no sweep.)
//!
//! The scenario × seed grid runs on the shared sweep engine
//! ([`starvation::sweep`]): one job per (scenario, seed), executed across
//! `--jobs` workers with result order preserved, so the published table is
//! byte-identical at any worker count.

use crate::table::{fnum, TextTable};
use netsim::{AckPolicy, FlowConfig, Jitter, LinkConfig, SimConfig};
use simcore::par;
use simcore::rng::Xoshiro256;
use simcore::stats::Summary;
use simcore::units::{Dur, Rate};
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

fn bbr_config(seed: u64, secs: u64) -> SimConfig {
    let link = LinkConfig::ample_buffer(Rate::from_mbps(120.0));
    let mk = |rm_ms: u64, s: u64| {
        FlowConfig::bulk(Box::new(cca::Bbr::new(1500, s)), Dur::from_millis(rm_ms)).with_jitter(
            Jitter::Random {
                max: Dur::from_millis(2),
                rng: Xoshiro256::new(s * 7 + 1),
            },
        )
    };
    SimConfig::new(
        link,
        vec![mk(40, seed * 2 + 1), mk(80, seed * 2 + 2)],
        Dur::from_secs(secs),
    )
}

fn vivace_config(seed: u64, secs: u64) -> SimConfig {
    let rm = Dur::from_millis(60);
    let link = LinkConfig::ample_buffer(Rate::from_mbps(120.0));
    let quantized = FlowConfig::bulk(Box::new(cca::Vivace::new(seed * 2 + 1)), rm)
        .with_transport(netsim::Transport::Datagram)
        .with_ack_policy(AckPolicy::Quantized {
            period: Dur::from_millis(60),
        });
    let clean = FlowConfig::bulk(Box::new(cca::Vivace::new(seed * 2 + 2)), rm).with_transport(netsim::Transport::Datagram);
    SimConfig::new(link, vec![quantized, clean], Dur::from_secs(secs))
}

fn allegro_config(seed: u64, secs: u64) -> SimConfig {
    let link = LinkConfig::bdp_buffer(Rate::from_mbps(120.0), Dur::from_millis(40), 1.0);
    let lossy = FlowConfig::bulk(
        Box::new(cca::Allegro::new(seed * 2 + 1)),
        Dur::from_millis(40),
    )
    .with_transport(netsim::Transport::Datagram)
    .with_loss(0.02, seed * 13 + 7);
    let clean = FlowConfig::bulk(
        Box::new(cca::Allegro::new(seed * 2 + 2)),
        Dur::from_millis(40),
    )
    .with_transport(netsim::Transport::Datagram);
    SimConfig::new(link, vec![lossy, clean], Dur::from_secs(secs))
}

/// Starved-over-other whole-run throughput ratio.
fn end_ratio(r: &RowSummary) -> f64 {
    r.flows[1].throughput_mbps / r.flows[0].throughput_mbps
}

/// A scenario constructor: `(seed, secs) → SimConfig`.
type MkScenario = fn(u64, u64) -> SimConfig;

/// The sweep's scenarios, in publication order.
const SCENARIOS: [(&str, MkScenario); 3] = [
    ("BBR Rm 40/80 ms (§5.2)", bbr_config),
    ("Vivace ACK quantization (§5.3)", vivace_config),
    ("Allegro asymmetric loss (§5.4)", allegro_config),
];

/// Run each randomized scenario over `n` seeds, using every available core.
pub fn run(quick: bool) -> SeedsReport {
    run_with(quick, par::available_jobs())
}

/// Run the sweep across `jobs` workers.
pub fn run_with(quick: bool, jobs: usize) -> SeedsReport {
    let (n, secs) = if quick { (3u64, 40) } else { (5u64, 60) };
    let job_list: Vec<SweepJob> = SCENARIOS
        .iter()
        .flat_map(|(name, mk)| {
            (0..n).map(move |s| SweepJob::new(format!("{name}/seed{s}"), mk(s, secs)))
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
