//! The theorem's boundary as a phase diagram.
//!
//! Theorem 1 says starvation is constructible whenever the non-congestive
//! delay bound exceeds twice the CCA's equilibrium oscillation
//! (`D > 2·δ_max`), and §6.2 argues the converse design direction:
//! oscillate *more* than the jitter and the ambiguity can be out-signaled.
//!
//! [`cca::DelayAimd`] makes the oscillation a dial: its RTT sawtooth sweeps
//! `[q_lo, q_hi]`, so `δ ≈ q_hi − q_lo`. We sweep the oscillation width
//! `Δ` against the actual jitter bound `D` (random jitter on one of two
//! flows' paths) and record the throughput ratio in each cell. The
//! expected shape: fair (ratio ≈ 1) below the diagonal where `Δ ≫ D`,
//! increasingly unfair above it — the paper's inequality, visible as a
//! phase boundary.
//!
//! (Random jitter is a *weaker* adversary than the theorem's
//! non-deterministic one, so the transition is gradual rather than sharp —
//! the theorem guarantees a worst case, and §5 shows even benign-looking
//! paths realize it.)

use crate::table::{fnum, TextTable};
use cca::delay_aimd::DelayAimdConfig;
use cca::BoxCca;
#[cfg(test)]
use netsim::Network;
use netsim::SimConfig;
use simcore::par;
use simcore::units::{Dur, Rate};
use starvation::paper;
use starvation::sweep::{RowSummary, Sweep, SweepJob};
use std::fmt;

/// One cell of the phase diagram.
#[derive(Clone, Copy, Debug)]
pub struct BoundaryCell {
    /// The CCA's designed oscillation width `Δ = q_hi − q_lo`, ms.
    pub osc_ms: u64,
    /// The path's jitter bound `D`, ms.
    pub jitter_ms: u64,
    /// Measured throughput ratio between the two flows.
    pub ratio: f64,
}

/// The full sweep.
pub struct BoundaryReport {
    /// Row-major cells (oscillation outer, jitter inner).
    pub cells: Vec<BoundaryCell>,
    /// The oscillation values swept, ms.
    pub osc_values: Vec<u64>,
    /// The jitter values swept, ms.
    pub jitter_values: Vec<u64>,
}

/// The scenario behind one cell: two delay-AIMD flows with oscillation
/// width `Δ = osc_ms` on §6.3's jittered-vs-clean path, with random jitter
/// `D = jitter_ms` on the first path from a stream of the cell's own.
fn cell_config(osc_ms: u64, jitter_ms: u64, secs: u64) -> SimConfig {
    let mk = || -> BoxCca {
        // Sawtooth sweeps [Δ/5, Δ/5 + Δ] of queueing delay: width Δ.
        Box::new(cca::DelayAimd::new(DelayAimdConfig {
            rm: Dur::from_millis(50),
            q_hi: Dur::from_millis(osc_ms / 5 + osc_ms),
            q_lo: Dur::from_millis(osc_ms / 5),
            a: Rate::from_mbps(0.5),
            b: 0.7,
        }))
    };
    paper::jitter_vs_clean_on_stream(
        mk,
        Dur::from_millis(jitter_ms),
        7 + osc_ms * 31 + jitter_ms,
        Dur::from_secs(secs),
    )
}

/// Second-half throughput ratio of a finished cell run.
fn cell_from(osc_ms: u64, jitter_ms: u64, r: &RowSummary) -> BoundaryCell {
    let a = r.flows[0].second_half_mbps;
    let b = r.flows[1].second_half_mbps;
    BoundaryCell {
        osc_ms,
        jitter_ms,
        ratio: a.max(b) / a.min(b).max(1e-9),
    }
}

/// One cell, built and run serially (unit tests probe single cells).
#[cfg(test)]
fn cell(osc_ms: u64, jitter_ms: u64, secs: u64) -> BoundaryCell {
    let r = Network::new(cell_config(osc_ms, jitter_ms, secs)).run();
    cell_from(osc_ms, jitter_ms, &RowSummary::of("", None, &r))
}

/// Sweep the `Δ × D` grid using every available core.
pub fn run(quick: bool) -> BoundaryReport {
    run_with(quick, par::available_jobs())
}

/// Sweep the `Δ × D` grid across `jobs` workers on the shared engine.
/// Cell order (oscillation outer, jitter inner) is preserved at any worker
/// count.
pub fn run_with(quick: bool, jobs: usize) -> BoundaryReport {
    let secs = if quick { 30 } else { 60 };
    let osc_values = vec![2u64, 5, 10, 20, 40];
    let jitter_values = vec![2u64, 5, 10, 20, 40];
    let grid: Vec<(u64, u64)> = osc_values
        .iter()
        .flat_map(|&o| jitter_values.iter().map(move |&j| (o, j)))
        .collect();
    let job_list: Vec<SweepJob> = grid
        .iter()
        .map(|&(o, j)| SweepJob::new(format!("osc{o}/jit{j}"), cell_config(o, j, secs)))
        .collect();
    let report = Sweep::new("boundary").jobs(jobs).run(job_list);
    let cells: Vec<BoundaryCell> = grid
        .iter()
        .zip(&report.rows)
        .map(|(&(o, j), row)| cell_from(o, j, row.result()))
        .collect();
    BoundaryReport {
        cells,
        osc_values,
        jitter_values,
    }
}

impl BoundaryReport {
    /// Ratio at a given cell.
    pub fn ratio_at(&self, osc_ms: u64, jitter_ms: u64) -> Option<f64> {
        self.cells
            .iter()
            .find(|c| c.osc_ms == osc_ms && c.jitter_ms == jitter_ms)
            .map(|c| c.ratio)
    }

    /// Matrix rendering: rows = oscillation, columns = jitter.
    pub fn table(&self) -> TextTable {
        let mut header: Vec<String> = vec!["osc Δ \\ jitter D".into()];
        header.extend(self.jitter_values.iter().map(|j| format!("{j} ms")));
        let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
        let mut t = TextTable::new(&header_refs);
        for &o in &self.osc_values {
            let mut row = vec![format!("{o} ms")];
            for &j in &self.jitter_values {
                row.push(fnum(self.ratio_at(o, j).unwrap_or(f64::NAN)));
            }
            t.row(&row);
        }
        t
    }
}

impl fmt::Display for BoundaryReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Theorem 1's boundary as a phase diagram — throughput ratio of two\n\
             delay-AIMD flows (oscillation Δ) with jitter D on one path:"
        )?;
        write!(f, "{}", self.table().render())?;
        writeln!(
            f,
            "fair below the diagonal (Δ ≳ D), unfair above it (D ≫ Δ) — the\n\
             paper's `starve unless δ > D/2` inequality, measured."
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oscillation_dominating_jitter_is_fair() {
        let c = cell(40, 2, 30);
        assert!(c.ratio < 2.0, "Δ=40,D=2: ratio={}", c.ratio);
    }

    #[test]
    fn jitter_dominating_oscillation_is_unfair() {
        let c = cell(2, 40, 30);
        assert!(c.ratio > 3.0, "Δ=2,D=40: ratio={}", c.ratio);
    }

    #[test]
    fn boundary_is_monotone_along_the_extremes() {
        // Fixing a small oscillation, growing jitter makes things worse.
        let lo = cell(5, 2, 30);
        let hi = cell(5, 40, 30);
        assert!(hi.ratio > lo.ratio, "lo={} hi={}", lo.ratio, hi.ratio);
    }
}
