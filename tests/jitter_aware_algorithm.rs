//! Integration: §6.3's Algorithm 1 (the jitter-aware CCA) and §6.2's
//! AIMD-on-delay conjecture, exercised on the packet-level emulator.

use cca::delay_aimd::DelayAimdConfig;
use cca::jitter_aware::JitterAwareConfig;
use cca::BoxCca;
use netsim::{FlowConfig, LinkConfig, Network, SimConfig, SimResult};
use simcore::units::{Dur, Rate, Time};
use starvation::fairness::check_s_fairness;
use starvation::merit::{exponential_merit, vegas_family_merit};
use starvation::paper;

/// §6.3's scenario for `mk`'s CCA at the designed jitter `D` = 10 ms, 60 s.
fn jitter_vs_clean(mk: impl Fn() -> BoxCca) -> SimResult {
    let config = paper::jitter_vs_clean(mk, Dur::from_millis(10), Dur::from_secs(60));
    Network::new(config).run()
}

#[test]
fn algorithm1_is_s_fair_under_designed_jitter() {
    let r = jitter_vs_clean(paper::algorithm1);
    // Definition 2, checked empirically: a time exists after which the
    // ratio stays below s (with AIMD-sawtooth slack).
    let report = check_s_fairness(&r.flows[0], &r.flows[1], r.end, 2.0 * 1.8, 30);
    assert!(
        report.fair_after.is_some(),
        "final ratio {:.2}",
        report.final_ratio
    );
}

#[test]
fn vegas_is_not_s_fair_under_the_same_jitter() {
    let r = jitter_vs_clean(|| Box::new(cca::Vegas::default_params()));
    let report = check_s_fairness(&r.flows[0], &r.flows[1], r.end, 3.0, 30);
    // Vegas's ratio keeps exceeding 3 in the tail of the run.
    assert!(
        report.fair_after.is_none() || report.final_ratio > 3.0,
        "vegas unexpectedly fair: final={:.2}",
        report.final_ratio
    );
}

#[test]
fn algorithm1_efficient_despite_jitter() {
    // Theorem 2's flip side: because Algorithm 1 maintains ≥ D of delay,
    // jitter ≤ D cannot trick it into under-utilization.
    let r = Network::new(paper::jittered_alone(Dur::from_secs(60)).sim(paper::algorithm1())).run();
    let half = Time(r.end.as_nanos() / 2);
    let tail = r.flows[0].throughput_over(half, r.end).mbps();
    assert!(tail > 20.0, "tail={tail}");
}

#[test]
fn merit_math_matches_paper_examples() {
    let rmax = Dur::from_millis(100);
    let rm = Dur::from_millis(0);
    let d = Dur::from_millis(10);
    // Eq. 2 at s = 2: 2^((100−10)/10) = 512 ≈ the paper's "2^10 ≈ 10^3".
    assert!((exponential_merit(rmax, rm, d, 2.0) - 512.0).abs() < 1e-6);
    // Eq. 1 is linear: (100/10)·(1 − 1/2) = 5.
    assert!((vegas_family_merit(rmax, rm, d, 2.0) - 5.0).abs() < 1e-9);
    // s = 4 → ≈ 2.6e5 (paper: "≈ 10^6" with their rounding).
    assert!(exponential_merit(rmax, rm, d, 4.0) > 1e5);
}

#[test]
fn algorithm1_supported_rate_range_is_exponential() {
    let cfg = JitterAwareConfig::example(Dur::from_millis(50));
    // merit = µ+/µ− = s^((Rmax−Rm−D)/D) = 2^9.
    assert!((cfg.merit() - 512.0).abs() / 512.0 < 1e-9);
    // µ+ covers the 40 Mbit/s links the tests run on.
    assert!(cfg.mu_plus().mbps() > 40.0);
}

#[test]
fn delay_aimd_survives_designed_jitter_and_shares() {
    // §6.2's conjectured design: oscillations larger than the jitter.
    let mk = || -> BoxCca {
        Box::new(cca::DelayAimd::new(DelayAimdConfig::for_jitter(
            Dur::from_millis(50),
            Dur::from_millis(10),
        )))
    };
    let r = jitter_vs_clean(mk);
    let a = r.flows[0].throughput_at(r.end).mbps();
    let b = r.flows[1].throughput_at(r.end).mbps();
    let ratio = a.max(b) / a.min(b).max(1e-9);
    assert!(ratio < 4.0, "a={a} b={b}");
    // Efficient: the pair uses most of the link.
    assert!(a + b > 25.0, "sum={}", a + b);
}

#[test]
fn delay_aimd_oscillates_instead_of_converging() {
    // The design works *because* it is not delay-convergent to a tight
    // band: its RTT sweeps more than the jitter bound D = 10 ms.
    let link = LinkConfig::ample_buffer(Rate::from_mbps(40.0));
    let flow = FlowConfig::bulk(
        Box::new(cca::DelayAimd::new(DelayAimdConfig::for_jitter(
            Dur::from_millis(50),
            Dur::from_millis(10),
        ))),
        Dur::from_millis(50),
    );
    let r = Network::new(SimConfig::new(link, vec![flow], Dur::from_secs(40))).run();
    let half = Time(r.end.as_nanos() / 2);
    let (lo, hi) = r.flows[0]
        .rtt_range_in(half, r.end)
        .expect("a saturating Vegas flow samples RTTs throughout the second half");
    assert!(
        hi - lo > 0.010,
        "oscillation {:.1} ms not > jitter 10 ms",
        (hi - lo) * 1e3
    );
}
