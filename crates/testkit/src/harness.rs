//! Shared scenario fixtures for integration tests.
//!
//! These are the `run_one`-style builders that used to be copy-pasted
//! between `tests/*.rs` files. Keeping them here means a scenario change
//! (say, the §5.1 poison pattern) happens in exactly one place.

use cca::BoxCca;
use netsim::{
    AckPolicy, FlowConfig, Jitter, LinkConfig, Network, PathSpec, SimConfig, SimResult, Transport,
};
use simcore::rng::Xoshiro256;
use simcore::units::{Dur, Rate, Time};

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
/// `starvation::runner::run_ideal_path` consumes — so fixtures and
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

/// Two identical-CCA flows on a 40 Mbit/s, `Rm` = 50 ms path; the first
/// sees up to 10 ms of random jitter (seed 11), the second is clean. The
/// §6 jitter-robustness scenario shared by Algorithm 1's tests.
pub fn asymmetric_jitter_run(mk: impl Fn() -> BoxCca, secs: u64) -> SimResult {
    let link = LinkConfig::ample_buffer(Rate::from_mbps(40.0));
    let rm = Dur::from_millis(50);
    let jittered = FlowConfig::bulk(mk(), rm).with_jitter(Jitter::Random {
        max: Dur::from_millis(10),
        rng: Xoshiro256::new(11),
    });
    let clean = FlowConfig::bulk(mk(), rm);
    Network::new(SimConfig::new(link, vec![jittered, clean], Dur::from_secs(secs))).run()
}

/// §5.1: a Copa flow whose path under-reports the propagation delay by
/// 1 ms on one packet in every 5000 (the min-RTT poison).
pub fn copa_poisoned_flow() -> FlowConfig {
    FlowConfig::bulk(Box::new(cca::Copa::default_params()), Dur::from_millis(59)).with_jitter(
        Jitter::ExtraExcept {
            extra: Dur::from_millis(1),
            period: 5_000,
            offset: 0,
        },
    )
}

/// §5.4: the Allegro experiments' 120 Mbit/s, 40 ms, 1-BDP-buffer link.
pub fn allegro_link() -> LinkConfig {
    LinkConfig::bdp_buffer(Rate::from_mbps(120.0), Dur::from_millis(40), 1.0)
}

/// §5.4: a datagram Allegro flow, optionally with Bernoulli random loss.
/// The loss stream is fixed (seed 7): Allegro's RCT noise makes the outcome
/// stream-dependent, and this is the representative stream published by
/// `repro seeds` (see EXPERIMENTS.md). `seed` only varies the CCA's own
/// probing phase.
pub fn allegro_flow(loss: f64, seed: u64) -> FlowConfig {
    let f = FlowConfig::bulk(Box::new(cca::Allegro::new(seed)), Dur::from_millis(40))
        .with_transport(Transport::Datagram);
    if loss > 0.0 {
        f.with_loss(loss, 7)
    } else {
        f
    }
}

/// Figure 7's scenario: two same-CCA flows on a 6 Mbit/s, 120 ms, shallow
/// (60-packet) link, the second with 4-packet delayed ACKs. Returns the
/// steady-state throughputs (Mbit/s) of the clean and delayed flow,
/// skipping the first tenth of the run.
pub fn fig7_scenario(mk: impl Fn() -> BoxCca, secs: u64) -> (f64, f64) {
    let rm = Dur::from_millis(120);
    let link = LinkConfig::new(Rate::from_mbps(6.0), 60 * 1500);
    let clean = FlowConfig::bulk(mk(), rm);
    let delayed = FlowConfig::bulk(mk(), rm).with_ack_policy(AckPolicy::Delayed {
        max_pkts: 4,
        timeout: Dur::from_millis(100),
    });
    let r = Network::new(SimConfig::new(link, vec![clean, delayed], Dur::from_secs(secs))).run();
    let a = Time(r.end.as_nanos() / 10);
    (
        r.flows[0].throughput_over(a, r.end).mbps(),
        r.flows[1].throughput_over(a, r.end).mbps(),
    )
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

    #[test]
    fn asymmetric_jitter_run_has_two_flows() {
        let r = asymmetric_jitter_run(|| Box::new(cca::ConstCwnd::new(20 * 1500)), 2);
        assert_eq!(r.flows.len(), 2);
        assert!(r.flows[1].total_delivered() > 0);
    }

    #[test]
    fn fig7_scenario_reports_both_flows() {
        let (clean, delayed) = fig7_scenario(|| Box::new(cca::NewReno::default_params()), 4);
        assert!(clean > 0.0 && delayed > 0.0);
    }
}
