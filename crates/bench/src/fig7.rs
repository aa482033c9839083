//! Figure 7: two loss-based flows (Reno, then Cubic) on a 6 Mbit/s,
//! 120 ms link with a 60-packet buffer; one receiver delays ACKs by up to
//! 4 packets, making that flow's packets arrive in bursts that lose more
//! often when the queue is nearly full.
//!
//! Paper result: bounded unfairness — throughput ratios of 2.7× (Reno) and
//! 3.2× (Cubic) — but **no starvation**, because AIMD's oscillations span
//! the whole buffer (§5.4, §6.2). The scenario is
//! [`starvation::paper::fig7_delayed_ack`].

use crate::table::{fnum, TextTable};
use cca::BoxCca;
use netsim::Network;
use simcore::units::{Dur, Time};
use starvation::paper;
use std::fmt;

/// One CCA's two-flow outcome.
pub struct Fig7Row {
    /// "reno" or "cubic".
    pub cca: &'static str,
    /// Throughput of the per-packet-ACK flow, Mbit/s.
    pub clean_mbps: f64,
    /// Throughput of the delayed-ACK flow, Mbit/s.
    pub delayed_mbps: f64,
    /// cwnd time series of both flows `(t s, cwnd pkts)` for the figure.
    pub cwnd_clean: Vec<(f64, f64)>,
    /// Delayed-ACK flow's cwnd series.
    pub cwnd_delayed: Vec<(f64, f64)>,
}

impl Fig7Row {
    /// clean/delayed throughput ratio.
    pub fn ratio(&self) -> f64 {
        self.clean_mbps / self.delayed_mbps
    }
}

/// The regenerated figure.
pub struct Fig7Report {
    /// Reno row then Cubic row.
    pub rows: Vec<Fig7Row>,
}

fn one(cca: &'static str, mk: fn() -> BoxCca, quick: bool) -> Fig7Row {
    let dur = Dur::from_secs(if quick { 60 } else { 200 });
    let r = Network::new(paper::fig7_delayed_ack(mk, dur)).run();
    let series = |i: usize| -> Vec<(f64, f64)> {
        r.flows[i]
            .cwnd
            .points()
            .iter()
            .map(|&(t, v)| (t.as_secs_f64(), v / 1500.0))
            .collect()
    };
    // Skip slow-start: measure from 10% in.
    let a = Time(r.end.as_nanos() / 10);
    Fig7Row {
        cca,
        clean_mbps: r.flows[0].throughput_over(a, r.end).mbps(),
        delayed_mbps: r.flows[1].throughput_over(a, r.end).mbps(),
        cwnd_clean: series(0),
        cwnd_delayed: series(1),
    }
}

/// Run both CCAs.
pub fn run(quick: bool) -> Fig7Report {
    Fig7Report {
        rows: vec![
            one("reno", || Box::new(cca::NewReno::default_params()), quick),
            one("cubic", || Box::new(cca::Cubic::default_params()), quick),
        ],
    }
}

impl Fig7Report {
    /// Summary table.
    pub fn table(&self) -> TextTable {
        let mut t = TextTable::new(&[
            "CCA",
            "clean flow (Mbit/s)",
            "delayed-ACK flow (Mbit/s)",
            "ratio",
            "paper ratio",
        ]);
        for r in &self.rows {
            let paper = if r.cca == "reno" { "2.7" } else { "3.2" };
            t.row(&[
                r.cca.to_string(),
                fnum(r.clean_mbps),
                fnum(r.delayed_mbps),
                fnum(r.ratio()),
                paper.to_string(),
            ]);
        }
        t
    }
}

impl fmt::Display for Fig7Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Figure 7 — Reno/Cubic, 6 Mbit/s, 120 ms, 60-pkt buffer, one flow with 4-pkt delayed ACKs"
        )?;
        write!(f, "{}", self.table().render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delayed_ack_flow_loses_but_is_not_starved() {
        let r = run(true);
        for row in &r.rows {
            // Unfairness present (clean flow wins)...
            assert!(
                row.ratio() > 1.2,
                "{}: clean={} delayed={}",
                row.cca,
                row.clean_mbps,
                row.delayed_mbps
            );
            // ...but bounded — nothing like the 10:1 starvation of the
            // delay-convergent CCAs.
            assert!(row.ratio() < 8.0, "{}: ratio={}", row.cca, row.ratio());
            // Link roughly utilized.
            assert!(row.clean_mbps + row.delayed_mbps > 4.0);
        }
    }
}
