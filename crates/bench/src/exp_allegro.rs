//! §5.4 — PCC Allegro starvation under *unequal* random loss.
//!
//! A 120 Mbit/s, 40 ms link with a 1-BDP buffer. Allegro tolerates up to
//! 5 % loss; a single flow with 2 % random loss fills the link, and two
//! flows that *both* see 2 % share fairly. But when only one flow sees the
//! extra 2 %, that flow reaches the 5 % collapse threshold at a much lower
//! level of congestion loss than its competitor, and starves (paper:
//! 10.3 vs 99.1 Mbit/s). The three runs are built by
//! [`starvation::paper`]; the asymmetric one is seed 0 of the family
//! `repro seeds` sweeps.

use crate::table::{fnum, TextTable};
use netsim::Network;
use simcore::units::Dur;
use starvation::paper;
use std::fmt;

/// Outcome of the three §5.4 scenarios.
pub struct AllegroReport {
    /// Asymmetric case: the 2 %-loss flow (paper: 10.3 Mbit/s).
    pub lossy_mbps: f64,
    /// Asymmetric case: the clean flow (paper: 99.1 Mbit/s).
    pub clean_mbps: f64,
    /// Symmetric control: both flows at 2 % — their throughputs.
    pub sym: (f64, f64),
    /// Single-flow control: one flow with 2 % loss (paper: full link).
    pub single_mbps: f64,
}

/// Run all three scenarios.
pub fn run(quick: bool) -> AllegroReport {
    let dur = Dur::from_secs(if quick { 45 } else { 60 });
    let asym = Network::new(paper::allegro_asymmetric_loss(0, dur)).run();
    let sym = Network::new(paper::allegro_symmetric_loss(dur)).run();
    let single = Network::new(paper::allegro_lossy_alone(dur)).run();

    AllegroReport {
        lossy_mbps: asym.flows[0].throughput_at(asym.end).mbps(),
        clean_mbps: asym.flows[1].throughput_at(asym.end).mbps(),
        sym: (
            sym.flows[0].throughput_at(sym.end).mbps(),
            sym.flows[1].throughput_at(sym.end).mbps(),
        ),
        single_mbps: single.flows[0].throughput_at(single.end).mbps(),
    }
}

impl AllegroReport {
    /// Asymmetric-case ratio.
    pub fn ratio(&self) -> f64 {
        self.clean_mbps / self.lossy_mbps
    }

    /// Summary table.
    pub fn table(&self) -> TextTable {
        let mut t = TextTable::new(&["scenario", "flow", "measured (Mbit/s)", "paper"]);
        t.row(&[
            "one flow 2% loss".into(),
            "lossy".into(),
            fnum(self.lossy_mbps),
            "10.3".into(),
        ]);
        t.row(&[
            "one flow 2% loss".into(),
            "clean".into(),
            fnum(self.clean_mbps),
            "99.1".into(),
        ]);
        t.row(&[
            "both flows 2% loss".into(),
            "flow 1".into(),
            fnum(self.sym.0),
            "fair share".into(),
        ]);
        t.row(&[
            "both flows 2% loss".into(),
            "flow 2".into(),
            fnum(self.sym.1),
            "fair share".into(),
        ]);
        t.row(&[
            "single flow 2% loss".into(),
            "solo".into(),
            fnum(self.single_mbps),
            "full link".into(),
        ]);
        t
    }
}

impl fmt::Display for AllegroReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "§5.4 — PCC Allegro, 120 Mbit/s, 40 ms, 1 BDP buffer, 2% random loss"
        )?;
        write!(f, "{}", self.table().render())?;
        writeln!(f, "asymmetric ratio {:.1}:1", self.ratio())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn asymmetric_loss_starves_the_lossy_flow() {
        let r = run(true);
        assert!(
            r.ratio() > 2.5,
            "lossy={} clean={}",
            r.lossy_mbps,
            r.clean_mbps
        );
        // The asymmetry is the cause: with loss on both paths the flows
        // share fairly, and a lone lossy flow still fills the link.
        let (a, b) = r.sym;
        let ratio = a.max(b) / a.min(b).max(0.001);
        assert!(ratio < 3.0, "sym={a} vs {b}");
        assert!(r.single_mbps > 60.0, "single={}", r.single_mbps);
    }
}
