//! Integration: controls and extensions around the paper's §5 starvation
//! scenarios. Each starvation claim is asserted once, on the run the
//! `repro` experiment publishes (the tests of `exp_copa`, `exp_bbr`,
//! `exp_vivace` and `exp_allegro`). This file keeps the runs that differ
//! from those: the same CCAs without the §5 impairment, a lone lossy
//! Allegro flow built by `starvation::paper`, and Copa's competitive mode.

use netsim::{FlowConfig, LinkConfig, Network, SimConfig};
use simcore::units::{Dur, Rate, Time};
use starvation::paper;
use testkit::harness::mbps;

#[test]
fn vivace_fills_clean_link_alone() {
    // Control for §5.3: the same CCA with clean ACKs is f-efficient on this path.
    let link = LinkConfig::ample_buffer(Rate::from_mbps(120.0));
    let flow = FlowConfig::bulk(Box::new(cca::Vivace::new(2)), Dur::from_millis(60))
        .with_transport(netsim::Transport::Datagram);
    let r = Network::new(SimConfig::new(link, vec![flow], Dur::from_secs(20))).run();
    let half = Time(r.end.as_nanos() / 2);
    let tail = r.flows[0].throughput_over(half, r.end).mbps();
    assert!(tail > 80.0, "tail={tail}");
}

#[test]
fn allegro_single_flow_tolerates_two_percent_loss() {
    // PCC's design goal: full utilization below the 5% threshold.
    let r = Network::new(paper::allegro_lossy_alone(Dur::from_secs(30))).run();
    assert!(mbps(&r, 0) > 60.0, "tput={}", mbps(&r, 0));
}

#[test]
fn copa_competitive_mode_survives_reno() {
    // Extension of §5.1's context: real Copa has a TCP-competitive mode.
    // Against NewReno on a 1-BDP buffer, default-mode Copa collapses;
    // competitive mode wins back a meaningful share.
    let link = || LinkConfig::bdp_buffer(Rate::from_mbps(12.0), Dur::from_millis(40), 1.0);
    let run = |competitive: bool| {
        let copa = if competitive {
            cca::Copa::default_params().with_competitive_mode()
        } else {
            cca::Copa::default_params()
        };
        let f1 = FlowConfig::bulk(Box::new(copa), Dur::from_millis(40));
        let f2 = FlowConfig::bulk(
            Box::new(cca::NewReno::default_params()),
            Dur::from_millis(40),
        );
        let r = Network::new(SimConfig::new(link(), vec![f1, f2], Dur::from_secs(40))).run();
        mbps(&r, 0)
    };
    let default_share = run(false);
    let competitive_share = run(true);
    assert!(
        competitive_share > 2.0 * default_share,
        "default={default_share} competitive={competitive_share}"
    );
    assert!(competitive_share > 2.0, "competitive={competitive_share}");
}

#[test]
fn starvation_needs_the_jitter_not_the_topology() {
    // Control for §5.1: remove the 1 ms poison and the same two Copa flows
    // share fairly.
    let link = LinkConfig::ample_buffer(Rate::from_mbps(120.0));
    let mk = || FlowConfig::bulk(Box::new(cca::Copa::default_params()), Dur::from_millis(60));
    let r = Network::new(SimConfig::new(link, vec![mk(), mk()], Dur::from_secs(20))).run();
    let (a, b) = (mbps(&r, 0), mbps(&r, 1));
    let ratio = a.max(b) / a.min(b).max(1e-9);
    assert!(ratio < 2.0, "a={a} b={b}");
    assert!(a + b > 90.0, "under-utilized: {}", a + b);
}
