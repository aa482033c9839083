//! §5.2 — BBR starvation in cwnd-limited mode.
//!
//! Two BBR flows with `Rm` = 40 ms and 80 ms share a 120 Mbit/s link for
//! 60 s. Jitter (the paper used Mahimahi's natural OS noise; we add a
//! small bounded random element) makes the max-filter over-estimate the
//! bandwidth, pushing both flows into the cwnd-limited mode where
//! `cwnd = 2·BtlBw·RTprop + α`. The §5.2 fixed-point analysis then gives
//! `cwnd_i ≈ 2·C·Rm_i/n + α`: the small-`Rm` flow gets a proportionally
//! small window and starves. Paper numbers: 8.3 vs 107 Mbit/s. The run is
//! [`starvation::paper::bbr_rtt_asymmetry`] at seed 0.

use crate::table::{fnum, TextTable};
use netsim::Network;
use simcore::units::{Dur, Time};
use starvation::paper;
use std::fmt;

/// Outcome of the BBR experiment.
pub struct BbrReport {
    /// The 40 ms-RTT flow's throughput (paper: 8.3 Mbit/s).
    pub small_rtt_mbps: f64,
    /// The 80 ms-RTT flow's throughput (paper: 107 Mbit/s).
    pub large_rtt_mbps: f64,
    /// Mean RTT observed by the small-RTT flow at the end (diagnostic:
    /// > 2·Rm confirms cwnd-limited mode).
    pub small_rtt_mean_ms: f64,
}

/// Run the experiment.
pub fn run(quick: bool) -> BbrReport {
    let dur = Dur::from_secs(if quick { 40 } else { 60 });
    let r = Network::new(paper::bbr_rtt_asymmetry(0, dur)).run();
    let a = Time(r.end.as_nanos() / 2);
    BbrReport {
        small_rtt_mbps: r.flows[0].throughput_at(r.end).mbps(),
        large_rtt_mbps: r.flows[1].throughput_at(r.end).mbps(),
        small_rtt_mean_ms: r.flows[0].mean_rtt_in(a, r.end).unwrap_or(0.0) * 1e3,
    }
}

impl BbrReport {
    /// large/small throughput ratio.
    pub fn ratio(&self) -> f64 {
        self.large_rtt_mbps / self.small_rtt_mbps
    }

    /// Summary table.
    pub fn table(&self) -> TextTable {
        let mut t = TextTable::new(&["flow", "measured (Mbit/s)", "paper (Mbit/s)"]);
        t.row(&[
            "Rm = 40 ms".into(),
            fnum(self.small_rtt_mbps),
            "8.3".into(),
        ]);
        t.row(&[
            "Rm = 80 ms".into(),
            fnum(self.large_rtt_mbps),
            "107".into(),
        ]);
        t
    }
}

impl fmt::Display for BbrReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "§5.2 — two BBR flows, Rm 40/80 ms, 120 Mbit/s, 60 s (2 ms jitter both paths)"
        )?;
        write!(f, "{}", self.table().render())?;
        writeln!(
            f,
            "ratio {:.1}:1; small-RTT flow mean RTT {:.1} ms",
            self.ratio(),
            self.small_rtt_mean_ms
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smaller_rtt_flow_starves() {
        let r = run(true);
        assert!(
            r.ratio() > 2.5,
            "small={} large={}",
            r.small_rtt_mbps,
            r.large_rtt_mbps
        );
        // Link stays efficiently used.
        assert!(r.small_rtt_mbps + r.large_rtt_mbps > 80.0);
        // cwnd-limited mode: the small-RTT flow's observed RTT far exceeds
        // its 40 ms propagation delay (≈ 2·Rm of the large flow's
        // equilibrium), and it keeps acking through the measured window.
        assert!(
            r.small_rtt_mean_ms > 80.0,
            "mean rtt={} ms",
            r.small_rtt_mean_ms
        );
    }
}
