//! Integration: §5.4's loss-based side — Reno/Cubic keep the pipe busy
//! under random loss, and the `ccmc` model checker bounds AIMD's
//! unfairness over the discrete trace grid. Figure 7's bounded
//! delayed-ACK unfairness is asserted on its published run, in the `repro`
//! test `fig7::delayed_ack_flow_loses_but_is_not_starved`.

use ccmc::{search_max_ratio, ModelConfig, ModelState, SearchConfig};
use netsim::{FlowConfig, LinkConfig, Network, SimConfig};
use simcore::units::{Dur, Rate};

#[test]
fn reno_and_cubic_survive_random_loss() {
    // Loss-based CCAs slow down under random loss but keep the pipe busy.
    for mk in [
        (|| Box::new(cca::NewReno::default_params()) as cca::BoxCca) as fn() -> cca::BoxCca,
        || Box::new(cca::Cubic::default_params()),
    ] {
        let link = LinkConfig::ample_buffer(Rate::from_mbps(12.0));
        let flow = FlowConfig::bulk(mk(), Dur::from_millis(40)).with_loss(0.005, 3);
        let r = Network::new(SimConfig::new(link, vec![flow], Dur::from_secs(20))).run();
        let tput = r.flows[0].throughput_at(r.end).mbps();
        assert!(tput > 2.0, "tput={tput}");
    }
}

#[test]
fn ccmc_aimd_ratio_bounded_over_exhaustive_grid() {
    // The paper's CCAC result (§5.4): no trace of bounded length lets two
    // AIMD flows starve with a 1-BDP buffer. Exhaustive over the discrete
    // grid at a short horizon.
    let m = ModelState::new(
        ModelConfig {
            rate: Rate::from_mbps(12.0),
            tau: Dur::from_millis(20),
            d_steps: 2,
            buffer: 40 * 1500,
            rm: Dur::from_millis(40),
            horizon: 6,
        },
        vec![
            Box::new(cca::NewReno::default_params()),
            Box::new(cca::NewReno::default_params()),
        ],
    );
    let out = search_max_ratio(&m, 6, SearchConfig::default());
    assert!(out.exhaustive, "must cover the whole grid");
    assert!(
        out.best_value.is_finite() && out.best_value < 1e6,
        "ratio={}",
        out.best_value
    );
}

#[test]
fn ccmc_underutilization_agrees_with_theorem2_direction() {
    // Cross-validation between the two adversaries: the model checker's
    // service-deferral adversary and Theorem 2's delay-emulation adversary
    // should both be able to hold a delay-convergent CCA's utilization
    // well below what a full-service trace achieves.
    use ccmc::search_min_utilization;
    let mk = || {
        ModelState::new(
            ModelConfig {
                rate: Rate::from_mbps(12.0),
                tau: Dur::from_millis(20),
                d_steps: 2,
                buffer: 400 * 1500,
                rm: Dur::from_millis(40),
                horizon: 6,
            },
            vec![Box::new(cca::Vegas::default_params()) as cca::BoxCca],
        )
    };
    let worst = search_min_utilization(&mk(), 6, SearchConfig::default());
    assert!(worst.exhaustive);
    // A full-service trace for comparison.
    let mut full = mk();
    while !full.done() {
        full.advance(ccmc::StepChoice {
            service_level: 2,
            split: 0,
        });
    }
    assert!(
        worst.best_value < full.utilization(),
        "adversary {:.3} vs full-service {:.3}",
        worst.best_value,
        full.utilization()
    );
}

#[test]
fn ccmc_beam_finds_unfairness_traces_for_both_families() {
    // Over short horizons the adversary biases delivery against one flow
    // for any CCA; the *unbounded vs bounded over time* distinction is
    // Theorem 1's, not a bounded-horizon property. Here we check the
    // search machinery produces meaningful witnesses for both families.
    let mk_model = |ccas: Vec<cca::BoxCca>| {
        ModelState::new(
            ModelConfig {
                rate: Rate::from_mbps(12.0),
                tau: Dur::from_millis(20),
                d_steps: 2,
                buffer: 40 * 1500,
                rm: Dur::from_millis(40),
                horizon: 14,
            },
            ccas,
        )
    };
    let cfg = SearchConfig::default();
    let reno = search_max_ratio(
        &mk_model(vec![
            Box::new(cca::NewReno::default_params()),
            Box::new(cca::NewReno::default_params()),
        ]),
        14,
        cfg,
    );
    let vegas = search_max_ratio(
        &mk_model(vec![
            Box::new(cca::Vegas::default_params()),
            Box::new(cca::Vegas::default_params()),
        ]),
        14,
        cfg,
    );
    // Both searches find a genuinely unfair trace, and neither diverges.
    assert!(
        vegas.best_value > 1.2 && vegas.best_value.is_finite(),
        "vegas={}",
        vegas.best_value
    );
    assert!(
        reno.best_value > 1.2 && reno.best_value.is_finite(),
        "reno={}",
        reno.best_value
    );
}
