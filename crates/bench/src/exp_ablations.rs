//! Ablations of the design choices the paper's analysis singles out
//! (DESIGN.md's ablation index):
//!
//! 1. **BBR's `+quanta` term** (§5.2): the paper argues the additive `α`
//!    in `cwnd = 2·BtlBw·RTprop + α` is what gives the cwnd-limited mode a
//!    unique fair fixed point — "if we remove the +α term … any value of
//!    cwnd₁ and cwnd₂ can be a fixed point". Two same-`Rm` BBR flows, the
//!    second starting late: with quanta the latecomer claws back a share;
//!    without it the initial split freezes.
//! 2. **Copa poison magnitude** (§4.1's arithmetic): the starved flow's
//!    ceiling is `1/(δ·q̂)`, so doubling the phantom queueing delay `q̂`
//!    should roughly double the starvation ratio.
//! 3. **Algorithm 1's design margin** (§6.3 / Theorem 1's boundary): a CCA
//!    designed for jitter `D` stays `s`-fair while the actual jitter is
//!    ≤ `D` and degrades once the actual jitter exceeds the design point —
//!    the impossibility result reasserting itself.
//! 4. **AIMD-on-delay threshold** (§6.2): with the MD threshold *below*
//!    the jitter bound the oscillation no longer dominates the ambiguity
//!    and fairness degrades; at `2·D` it holds.

use crate::table::{fnum, TextTable};
use cca::delay_aimd::DelayAimdConfig;
use cca::BoxCca;
#[cfg(test)]
use netsim::Network;
use netsim::SimConfig;
use simcore::units::{Dur, Rate};
use starvation::paper;
use starvation::sweep::{RowSummary, Sweep, SweepJob};
use std::fmt;

/// One ablation row: configuration label and the two flows' throughputs.
#[derive(Clone, Debug)]
pub struct AblationRow {
    /// Which ablation this row belongs to.
    pub group: &'static str,
    /// The varied parameter, rendered.
    pub setting: String,
    /// Flow throughputs in Mbit/s.
    pub flows: (f64, f64),
}

impl AblationRow {
    /// max/min ratio.
    pub fn ratio(&self) -> f64 {
        let (a, b) = self.flows;
        a.max(b) / a.min(b).max(1e-9)
    }
}

/// All ablation results.
pub struct AblationsReport {
    /// Every row, grouped by `group`.
    pub rows: Vec<AblationRow>,
}

// ---- 1. BBR quanta ----

/// The §5.2 cwnd-limited fixed-point iteration, verbatim: each flow's ACK
/// rate is `C·cwnd_i/Σcwnd` (FIFO sharing), its bandwidth estimate tracks
/// that rate, and `cwnd_i ← 2·Rm·bw_i + α`. Starting from a 90/10 split,
/// the `+α` term pulls the windows together; with `α = 0` *every* split
/// with `Σcwnd = 2·Rm·C` is a fixed point and the split freezes — the
/// paper's "even cwnd₁ = 0 and cwnd₂ = 2RmC" observation.
pub fn bbr_quanta_fixed_point(with_quanta: bool) -> AblationRow {
    let c = Rate::from_mbps(96.0).bytes_per_sec();
    let rm = 0.050f64;
    let alpha = if with_quanta { 3.0 * 1500.0 } else { 0.0 };
    // Start from a 90/10 split of the pipe's 2·Rm·C bytes.
    let total = 2.0 * rm * c;
    let mut w = [0.9 * total, 0.1 * total];
    for _ in 0..2000 {
        let sum = w[0] + w[1];
        for wi in &mut w {
            let bw = c * (*wi / sum);
            *wi = 2.0 * rm * bw + alpha;
        }
    }
    // Report the implied steady sending rates (share of C), in Mbit/s.
    let sum = w[0] + w[1];
    let to_mbps = |wi: f64| c * (wi / sum) * 8.0 / 1e6;
    AblationRow {
        group: "bbr-quanta",
        setting: if with_quanta {
            "with +quanta (fixed-point iteration)"
        } else {
            "without +quanta (fixed-point iteration)"
        }
        .into(),
        flows: (to_mbps(w[0]), to_mbps(w[1])),
    }
}

// ---- 2–4: the simulated ablations, as sweep cases ----

/// How a case reads its throughputs off the finished run.
#[derive(Clone, Copy)]
enum Window {
    /// Whole-run throughput (Copa's poison accumulates from the start).
    Full,
    /// Second-half throughput (skip convergence transients).
    SecondHalf,
}

/// One simulated ablation case: report metadata plus the scenario.
struct Case {
    group: &'static str,
    setting: String,
    window: Window,
    config: SimConfig,
}

impl Case {
    fn row(&self, r: &RowSummary) -> AblationRow {
        let tput = |i: usize| match self.window {
            Window::Full => r.flows[i].throughput_mbps,
            Window::SecondHalf => r.flows[i].second_half_mbps,
        };
        AblationRow {
            group: self.group,
            setting: self.setting.clone(),
            flows: (tput(0), tput(1)),
        }
    }

    /// Build and run serially (unit tests probe single cases).
    #[cfg(test)]
    fn run_serial(&self) -> AblationRow {
        let r = Network::new(self.config.clone()).run();
        self.row(&RowSummary::of("", None, &r))
    }
}

fn copa_poison_spec(poison_ms: f64, secs: u64) -> Case {
    Case {
        group: "copa-poison",
        setting: format!("{poison_ms} ms"),
        window: Window::Full,
        config: paper::copa_poison(Dur::from_millis_f64(poison_ms), Dur::from_secs(secs)),
    }
}

#[cfg(test)]
fn copa_poison_case(poison_ms: f64, secs: u64) -> AblationRow {
    copa_poison_spec(poison_ms, secs).run_serial()
}

fn algo1_margin_spec(actual_jitter_ms: u64, secs: u64) -> Case {
    Case {
        group: "algo1-margin",
        setting: format!("actual jitter {actual_jitter_ms} ms (designed 10 ms)"),
        window: Window::SecondHalf,
        config: paper::jitter_vs_clean(
            paper::algorithm1,
            Dur::from_millis(actual_jitter_ms),
            Dur::from_secs(secs),
        ),
    }
}

#[cfg(test)]
fn algo1_margin_case(actual_jitter_ms: u64, secs: u64) -> AblationRow {
    algo1_margin_spec(actual_jitter_ms, secs).run_serial()
}

fn delay_aimd_spec(q_hi_ms: u64, secs: u64) -> Case {
    let mk = || -> BoxCca {
        Box::new(cca::DelayAimd::new(DelayAimdConfig {
            rm: Dur::from_millis(50),
            q_hi: Dur::from_millis(q_hi_ms),
            q_lo: Dur::from_millis(q_hi_ms / 4),
            a: Rate::from_mbps(0.5),
            b: 0.7,
        }))
    };
    Case {
        group: "delay-aimd-threshold",
        setting: format!("q_hi = {q_hi_ms} ms (jitter 10 ms)"),
        window: Window::SecondHalf,
        config: paper::jitter_vs_clean(mk, Dur::from_millis(10), Dur::from_secs(secs)),
    }
}

/// Run all four ablations, the simulated cases on `sweep` (`repro` names
/// it "ablations"). The fixed-point iteration (group 1) is pure arithmetic
/// and stays serial; row order matches the serial harness.
pub fn run(quick: bool, sweep: Sweep) -> AblationsReport {
    let secs = if quick { 40u64 } else { 90 };
    let mut cases: Vec<Case> = Vec::new();
    for poison in [0.5, 1.0, 2.0, 4.0] {
        cases.push(copa_poison_spec(poison, secs.min(60)));
    }
    for jit in [5, 10, 20, 40] {
        cases.push(algo1_margin_spec(jit, secs.min(60)));
    }
    for q_hi in [5, 20] {
        cases.push(delay_aimd_spec(q_hi, secs.min(60)));
    }
    let job_list: Vec<SweepJob> = cases
        .iter()
        .map(|c| SweepJob::new(format!("{}/{}", c.group, c.setting), c.config.clone()))
        .collect();
    let report = sweep.run(job_list);

    let mut rows = vec![bbr_quanta_fixed_point(true), bbr_quanta_fixed_point(false)];
    rows.extend(
        cases
            .iter()
            .zip(&report.rows)
            .map(|(case, row)| case.row(row.result())),
    );
    AblationsReport { rows }
}

/// Crossing stub: `benchmark/` still calls this; the next `benchmark` change moves it to [`run`].
pub fn run_with(quick: bool, jobs: usize) -> AblationsReport { run(quick, Sweep::new("ablations").jobs(jobs)) }

impl AblationsReport {
    /// Rows of one group.
    pub fn group(&self, name: &str) -> Vec<&AblationRow> {
        self.rows.iter().filter(|r| r.group == name).collect()
    }

    /// Render everything.
    pub fn table(&self) -> TextTable {
        let mut t = TextTable::new(&[
            "ablation",
            "setting",
            "flow A (Mbit/s)",
            "flow B (Mbit/s)",
            "ratio",
        ]);
        for r in &self.rows {
            t.row(&[
                r.group.into(),
                r.setting.clone(),
                fnum(r.flows.0),
                fnum(r.flows.1),
                fnum(r.ratio()),
            ]);
        }
        t
    }
}

impl fmt::Display for AblationsReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Ablations of the paper's design claims")?;
        write!(f, "{}", self.table().render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn copa_poison_ratio_grows_with_magnitude() {
        let small = copa_poison_case(0.5, 25);
        let large = copa_poison_case(4.0, 25);
        assert!(
            large.ratio() > small.ratio(),
            "0.5ms → {:.1}, 4ms → {:.1}",
            small.ratio(),
            large.ratio()
        );
        // 4 ms of phantom queue caps the victim near 1/(0.5·4 ms) = 6 Mbit/s.
        assert!(large.flows.0 < 15.0, "victim={}", large.flows.0);
    }

    #[test]
    fn algo1_fair_at_design_point_degrades_beyond() {
        let at_design = algo1_margin_case(10, 40);
        let beyond = algo1_margin_case(40, 40);
        assert!(at_design.ratio() < 3.0, "at design: {:.2}", at_design.ratio());
        assert!(
            beyond.ratio() > at_design.ratio(),
            "design {:.2} vs beyond {:.2}",
            at_design.ratio(),
            beyond.ratio()
        );
    }

    #[test]
    fn bbr_quanta_restores_convergence() {
        // §5.2's unique-fixed-point argument, verbatim: with +α the 90/10
        // split converges to fair; without it the split never moves.
        let with = bbr_quanta_fixed_point(true);
        let without = bbr_quanta_fixed_point(false);
        assert!(with.ratio() < 1.05, "with quanta: ratio={:.3}", with.ratio());
        assert!(
            without.ratio() > 8.5,
            "without quanta: ratio={:.3} (should stay ≈ 9)",
            without.ratio()
        );
    }
}
