//! §5.3 — PCC Vivace starvation under ACK quantization.
//!
//! Two Vivace flows share a 120 Mbit/s, 60 ms link; one flow's ACKs are
//! released only at integer multiples of 60 ms (link-layer aggregation).
//! That flow cannot measure RTT gradients within a monitor interval (all
//! its samples arrive in one burst), and its measured per-MI throughput is
//! quantized, so its gradient experiments return noise while the clean
//! flow's experiments return signal — the clean flow takes the link.
//! Paper numbers: 9.9 vs 99.4 Mbit/s. The run is
//! [`starvation::paper::vivace_ack_quantization`] at seed 0.

use crate::table::{fnum, TextTable};
use netsim::Network;
use simcore::units::Dur;
use starvation::paper;
use std::fmt;

/// Outcome of the Vivace experiment.
pub struct VivaceReport {
    /// Quantized-ACK flow's throughput (paper: 9.9 Mbit/s).
    pub quantized_mbps: f64,
    /// Clean flow's throughput (paper: 99.4 Mbit/s).
    pub clean_mbps: f64,
}

/// Run the experiment.
pub fn run(quick: bool) -> VivaceReport {
    let dur = Dur::from_secs(if quick { 20 } else { 60 });
    let r = Network::new(paper::vivace_ack_quantization(0, dur)).run();
    VivaceReport {
        quantized_mbps: r.flows[0].throughput_at(r.end).mbps(),
        clean_mbps: r.flows[1].throughput_at(r.end).mbps(),
    }
}

impl VivaceReport {
    /// clean/quantized throughput ratio.
    pub fn ratio(&self) -> f64 {
        self.clean_mbps / self.quantized_mbps
    }

    /// Summary table.
    pub fn table(&self) -> TextTable {
        let mut t = TextTable::new(&["flow", "measured (Mbit/s)", "paper (Mbit/s)"]);
        t.row(&[
            "ACKs quantized to 60 ms".into(),
            fnum(self.quantized_mbps),
            "9.9".into(),
        ]);
        t.row(&["clean".into(), fnum(self.clean_mbps), "99.4".into()]);
        t
    }
}

impl fmt::Display for VivaceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "§5.3 — two PCC Vivace flows, 120 Mbit/s, Rm = 60 ms; one flow's ACKs at 60 ms boundaries"
        )?;
        write!(f, "{}", self.table().render())?;
        writeln!(f, "ratio {:.1}:1", self.ratio())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantized_flow_starves() {
        let r = run(true);
        assert!(
            r.ratio() > 2.5,
            "quantized={} clean={}",
            r.quantized_mbps,
            r.clean_mbps
        );
        assert!(r.clean_mbps > 40.0, "clean={}", r.clean_mbps);
    }
}
