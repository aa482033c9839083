//! `population-10k`: 10 000 Poisson/Pareto NewReno flows over 90 s of
//! simulated time (≈ 1 M events) plus the population summary.
//!
//! The same `netsim` layer as `canon-mix` used differently: flow
//! spawn/retire, per-flow state and `FlowRecord`/series memory dominate
//! and the CCA is trivial. A gain on `canon-mix` bought with many-flow
//! locality or resident memory shows here.

use super::{digest_gate, Scale, Tally, Workload};
use crate::span::{timed, SpanLog};
use netsim::{ArrivalProcess, LinkConfig, Network, SimConfig, SizeDist};
use simcore::units::{Dur, Rate, Time};
use starvation::sweep::{STARVE_FLOOR_MBPS, STARVE_WINDOW};

/// perfbench's `workload_10k()` shape with `flows` arrivals over `secs`
/// simulated seconds. Seed 1 maps to the (9, 5, 3) arrival/size/jitter
/// seeds recorded in `BENCH_netsim.json`; seed `s` shifts the jitter
/// seed by `s − 1` and leaves arrivals and sizes alone, so every seed
/// runs the same flows over differently jittered paths (see
/// `canon_mix::reseeded_ast` for why).
pub fn population_config(flows: u64, secs: u64, seed: u64) -> SimConfig {
    let shift = seed.wrapping_sub(1);
    let link = LinkConfig::ample_buffer(Rate::from_mbps(48.0));
    let wl = netsim::Workload::new(
        flows,
        ArrivalProcess::Poisson { mean: Dur::from_millis(8), seed: 9 },
        SizeDist::Pareto {
            min_bytes: 12_000,
            alpha: 1.3,
            cap_bytes: 300_000,
            seed: 5,
        },
        Box::new(cca::NewReno::default_params()),
        Dur::from_millis(20),
    )
    .with_start(Time::from_millis(100))
    .with_jitter(Dur::from_millis(2), 3u64.wrapping_add(shift));
    SimConfig::new(link, vec![], Dur::from_secs(secs)).with_workload(wl)
}

/// The prepared population run.
pub struct Population {
    cfg: SimConfig,
    flows: usize,
    expect_events: u64,
    setup: Tally,
}

impl Population {
    /// Build the config from `seed`, gate on `workload-1k` (the canonical
    /// scenario of the same shape, whose golden digest exists), and run
    /// once to warm up and fix the expected event count.
    pub fn prepare(seed: u64, scale: Scale) -> Population {
        let (flows, secs) = if scale == Scale::Smoke { (500, 6) } else { (10_000, 90) };
        let mut setup = Tally::default();
        let gate = super::canon_mix::canonical_config("workload-1k", seed);
        setup.check(digest_gate("workload-1k", seed, &gate));
        let cfg = population_config(flows, secs, seed);
        let expect_events = Network::new(cfg.clone()).run().events;
        Population { cfg, flows: flows as usize, expect_events, setup }
    }

    fn drive(&self, mut log: Option<&mut SpanLog>) -> Tally {
        let op = log.as_deref_mut().map(|l| {
            l.next_op();
            l.open_span("population.run")
        });
        let cfg = timed(&mut log, "netsim.config", || self.cfg.clone());
        let result = timed(&mut log, "netsim.run", || Network::new(cfg).run());
        let summary = timed(&mut log, "netsim.metrics", || {
            result.population(Rate::from_mbps(STARVE_FLOOR_MBPS), STARVE_WINDOW)
        });
        if let (Some(l), Some(op)) = (log, op) {
            l.close_span(op);
        }
        let mut t = Tally { work: result.events, ..Tally::default() };
        t.check(result.events == self.expect_events);
        t.check(summary.n == self.flows && summary.completed > 0);
        t
    }
}

impl Workload for Population {
    fn setup_tally(&self) -> Tally {
        self.setup
    }

    fn unit(&mut self) -> Tally {
        self.drive(None)
    }

    fn traced_unit(&mut self, log: &mut SpanLog) -> Tally {
        self.drive(Some(log))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_one_matches_the_canonical_thousand_flow_scenario() {
        // Same generator, same seeds: the 1k-flow instance of this config
        // is bit-for-bit the canonical `workload-1k` run.
        let ours = Network::new(population_config(1000, 12, 1)).run().events;
        let canon = Network::new(starvation::canonical_scenario("workload-1k").expect("canon")).run().events;
        assert_eq!(ours, canon);
        assert_ne!(Network::new(population_config(1000, 12, 2)).run().events, canon);
    }

    #[test]
    fn a_smoke_unit_passes_its_checks() {
        let mut w = Population::prepare(2, Scale::Smoke);
        assert_eq!(w.setup_tally().failed, 0);
        let t = w.unit();
        assert_eq!((t.attempted, t.failed), (2, 0));
        assert!(t.work > 10_000);
    }
}
