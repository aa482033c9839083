//! Emulator-invariant helpers for integration tests: one parameterized
//! single-flow run and a throughput reader. The paper's experiment
//! scenarios are not here; they live in `starvation::paper`.

use netsim::{Network, PathSpec, SimResult};
use simcore::units::{Dur, Rate};

/// Throughput of `flow` over the whole run, in Mbit/s.
pub fn mbps(r: &SimResult, flow: usize) -> f64 {
    r.flows[flow].throughput_at(r.end).mbps()
}

/// Single `ConstCwnd` flow on an ample-buffer link — the emulator-invariant
/// workhorse. `cwnd_pkts` is in 1500-byte packets; jitter is i.i.d. uniform
/// in `[0, jitter_ms]` (off when 0); `loss_pct` is a Bernoulli loss
/// fraction (off when 0).
///
/// Expands a [`netsim::PathSpec`] — the same spec type
/// `starvation::runner::run_ideal_path` consumes — so these runs and
/// ideal-path runs derive their `LinkConfig`/`FlowConfig` from one place.
pub fn run_one(
    cwnd_pkts: u64,
    rate_mbps: f64,
    rm_ms: u64,
    jitter_ms: u64,
    loss_pct: f64,
    seed: u64,
    secs: u64,
) -> SimResult {
    let mut spec = PathSpec::new(
        Rate::from_mbps(rate_mbps),
        Dur::from_millis(rm_ms),
        Dur::from_secs(secs),
    );
    if jitter_ms > 0 {
        spec = spec.with_jitter(Dur::from_millis(jitter_ms), seed);
    }
    if loss_pct > 0.0 {
        spec = spec.with_loss(loss_pct, seed.wrapping_add(1));
    }
    Network::new(spec.sim(Box::new(cca::ConstCwnd::new(cwnd_pkts * 1500)))).run()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_one_produces_traffic() {
        let r = run_one(10, 24.0, 40, 2, 0.01, 1, 2);
        assert!(r.flows[0].total_delivered() > 0);
        assert!(mbps(&r, 0) > 0.0);
    }
}
