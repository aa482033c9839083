//! Single-flow ideal-path runs — the setting of Definition 1.
//!
//! An *ideal path* has a constant bottleneck rate `C`, a fixed propagation
//! RTT `Rm`, an ample buffer, and **zero** non-congestive delay. Every
//! theorem construction starts by running the CCA alone on ideal paths and
//! recording its delay trajectory `d(t)` and rate trajectory `r(t)`
//! (Figure 5's bold curves).

use cca::BoxCca;
use netsim::Network;
use simcore::series::TimeSeries;
use simcore::units::{Dur, Rate, Time};

/// Specification for an ideal-path run.
///
/// This is [`netsim::PathSpec`] under its historical name: the same spec
/// type [`crate::paper`]'s §6.3 paths and `testkit::harness::run_one`
/// expand, constructed here with the impairment fields (jitter, loss) left
/// at zero — Definition 1's ideal path. One spec type, one expansion into
/// `LinkConfig`/`FlowConfig`.
pub type RunSpec = netsim::PathSpec;

/// Results of an ideal-path run.
pub struct IdealRun {
    /// The spec that produced it.
    pub spec: RunSpec,
    /// RTT samples over time (`d(t)`), seconds.
    pub rtt: TimeSeries,
    /// Sending-rate trajectory `r(t)` in bytes/sec, derived from delivered
    /// bytes over fixed ticks.
    pub rate: TimeSeries,
    /// Cumulative delivered bytes.
    pub delivered: TimeSeries,
    /// Mean throughput over the whole run.
    pub throughput: Rate,
    /// Link utilization.
    pub utilization: f64,
    /// Final CCA state (the snapshot used as a warm-start initial state).
    pub final_cca: BoxCca,
}

impl IdealRun {
    /// Throughput over the trailing `window` (steady-state estimate).
    pub fn tail_throughput(&self, window: Dur) -> Rate {
        let end = self.delivered.end_time();
        if end.as_nanos() <= window.as_nanos() {
            return self.throughput;
        }
        let a = end - window;
        let d_a = self.delivered.value_at(a).unwrap_or(0.0);
        let d_b = self.delivered.value_at(end).unwrap_or(0.0);
        Rate::from_bytes_per_sec((d_b - d_a).max(0.0) / window.as_secs_f64())
    }
}

/// Run `cca` alone on the path `spec` describes (an *ideal* path when the
/// spec's jitter/loss fields are zero, as [`RunSpec::new`] leaves them).
pub fn run_ideal_path(cca: BoxCca, spec: RunSpec) -> IdealRun {
    let net = Network::new(spec.sim(cca));
    let (result, mut ccas) = net.run_capture();
    let m = &result.flows[0];

    // Rate trajectory: delivered-byte derivative over 100 ms ticks (or
    // duration/100 for very short runs).
    let tick = Dur::from_millis(100).min(Dur(spec.duration.as_nanos() / 20).max(Dur::from_millis(1)));
    let mut rate = TimeSeries::new();
    let mut t = Time::ZERO + tick;
    let end = Time::ZERO + spec.duration;
    let mut prev = 0.0;
    while t <= end {
        let d = m.delivered.value_at(t).unwrap_or(0.0);
        rate.push(t, (d - prev).max(0.0) / tick.as_secs_f64());
        prev = d;
        t += tick;
    }

    IdealRun {
        spec,
        rtt: m.rtt.clone(),
        rate,
        delivered: m.delivered.clone(),
        throughput: m.throughput_at(result.end),
        utilization: result.utilization,
        final_cca: ccas.remove(0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vegas_fills_an_ideal_link() {
        let spec = RunSpec::new(
            Rate::from_mbps(24.0),
            Dur::from_millis(40),
            Dur::from_secs(20),
        );
        let run = run_ideal_path(Box::new(cca::Vegas::default_params()), spec);
        assert!(
            run.tail_throughput(Dur::from_secs(5)).mbps() > 21.0,
            "tput={}",
            run.tail_throughput(Dur::from_secs(5))
        );
        // Vegas equilibrium: Rm + (2..4 pkts)/C of queueing. 1500 B at
        // 24 Mbit/s = 0.5 ms per packet, so RTT ∈ [~40.5, ~43] ms at the
        // tail (plus the packet's own 0.5 ms transmission).
        let end = run.rtt.end_time();
        let a = end - Dur::from_secs(5);
        let mean = run
            .rtt
            .mean_in(a, end)
            .expect("converged Vegas samples RTTs over the whole tail window");
        assert!(mean > 0.0405 && mean < 0.045, "mean rtt={mean}");
    }

    #[test]
    fn rate_trajectory_tracks_delivery() {
        let spec = RunSpec::new(
            Rate::from_mbps(24.0),
            Dur::from_millis(40),
            Dur::from_secs(10),
        );
        let run = run_ideal_path(Box::new(cca::Vegas::default_params()), spec);
        // Late-run rate samples should be near link rate.
        let end = run.rate.end_time();
        let tail = run
            .rate
            .mean_in(end - Dur::from_secs(3), end)
            .expect("a saturating ideal-path run records rate samples to the end");
        let tail_mbps = tail * 8.0 / 1e6;
        assert!((tail_mbps - 24.0).abs() < 3.0, "tail={tail_mbps}");
    }

    #[test]
    fn final_cca_snapshot_is_converged() {
        let spec = RunSpec::new(
            Rate::from_mbps(24.0),
            Dur::from_millis(40),
            Dur::from_secs(15),
        );
        let run = run_ideal_path(Box::new(cca::Vegas::default_params()), spec);
        // BDP = 24 Mbit/s × 40 ms = 80 packets; Vegas holds BDP + α..β.
        let w = run.final_cca.cwnd() / 1500;
        assert!((78..=92).contains(&w), "w={w}");
    }
}
