//! `canon-mix`: one round = `one-flow-saturating` (5 s) plus the four
//! canonical static scenarios, untraced, serial.
//!
//! Few long-lived flows whose state stays cache-resident, so the
//! per-event hot path (wheel → link → jitter → receiver → `PktStore` →
//! CCA `on_ack`) does all the work while `scenario`, `store`, `par` and
//! the trace sinks do none. `bbr-two-flow` is about 40 % of a round.

use super::{digest_gate, Scale, Tally, Workload};
use crate::span::{timed, SpanLog};
use netsim::{FlowConfig, LinkConfig, Network, SimConfig};
use simcore::units::{Dur, Rate};

/// The canonical scenarios in a round (`workload-1k` belongs to
/// `population-10k`'s side of the fence).
pub const STATIC_CANON: &[&str] = &["reno-ideal", "copa-jitter", "bbr-two-flow", "vivace-lossy"];

/// A one-flow link-saturating run: cwnd 100 pkts ≫ BDP on a 12 Mbit/s,
/// 40 ms path — the densest event stream per simulated second. Same
/// construction as perfbench's `run/one-flow-saturating`.
pub fn one_flow_saturating(secs: u64) -> SimConfig {
    let link = LinkConfig::ample_buffer(Rate::from_mbps(12.0));
    let flow = FlowConfig::bulk(Box::new(cca::ConstCwnd::new(100 * 1500)), Dur::from_millis(40));
    SimConfig::new(link, vec![flow], Dur::from_secs(secs))
}

/// A canonical scenario's AST with its jitter streams re-seeded. Seed 1
/// leaves the frozen file untouched; seed `s` shifts every jitter seed
/// by `s − 1`.
///
/// Only jitter, on purpose. A loss or arrival seed changes how many
/// events a run has (`vivace-lossy` ranges 29 500 – 39 200 events over
/// loss seeds 7–14), and since scenarios cost 130–280 ns an event, a
/// different mix moves events/s by several percent with the code
/// unchanged. Jitter draws change which packets are held and for how
/// long while leaving a run's size and kind alone, so a metric's spread
/// over seeds measures the machine, not the draw.
pub fn reseeded_ast(name: &str, seed: u64) -> scenario::Scenario {
    let src = starvation::canon::canonical_source(name)
        .unwrap_or_else(|| panic!("no canonical scenario named {name}"));
    let mut ast = scenario::parse(src).unwrap_or_else(|e| panic!("{name}.scn: {e}"));
    let shift = seed.wrapping_sub(1);
    let jitters = ast.flows.iter_mut().map(|f| &mut f.jitter).chain(ast.workload.iter_mut().map(|w| &mut w.jitter));
    for j in jitters.flatten() {
        j.seed = j.seed.wrapping_add(shift);
    }
    ast
}

/// Compile a re-seeded canonical scenario.
pub fn canonical_config(name: &str, seed: u64) -> SimConfig {
    scenario::compile(&reseeded_ast(name, seed))
}

/// The prepared round.
pub struct CanonMix {
    /// `(name, config)` in round order.
    round: Vec<(&'static str, SimConfig)>,
    /// Event count of each run in the first round; later rounds must match.
    expect: Vec<u64>,
    setup: Tally,
}

impl CanonMix {
    /// Build the round from `seed`, gate it on the golden digests, and
    /// run one warm-up round that fixes the expected event counts.
    pub fn prepare(seed: u64, scale: Scale) -> CanonMix {
        let secs = if scale == Scale::Smoke { 1 } else { 5 };
        let mut round = vec![("one-flow-saturating", one_flow_saturating(secs))];
        let mut setup = Tally::default();
        for &name in STATIC_CANON {
            let mut cfg = canonical_config(name, seed);
            setup.check(digest_gate(name, seed, &cfg));
            if scale == Scale::Smoke {
                cfg.duration = Dur::from_secs(1);
            }
            round.push((name, cfg));
        }
        let expect = round.iter().map(|(_, cfg)| Network::new(cfg.clone()).run().events).collect();
        CanonMix { round, expect, setup }
    }

    /// One round. With a log, each run is an operation with a span on
    /// each boundary the harness crosses: config in, simulation, results out.
    fn drive(&self, mut log: Option<&mut SpanLog>) -> Tally {
        let mut t = Tally::default();
        for ((_, cfg), &want) in self.round.iter().zip(&self.expect) {
            let op = log.as_deref_mut().map(|l| {
                l.next_op();
                l.open_span("canon.run")
            });
            let cfg = timed(&mut log, "core.canon.load", || cfg.clone());
            let result = timed(&mut log, "netsim.run", || Network::new(cfg).run());
            let delivered = timed(&mut log, "netsim.metrics", || {
                result.flows.iter().map(|f| f.metrics.total_delivered()).sum::<u64>()
            });
            if let (Some(l), Some(op)) = (log.as_deref_mut(), op) {
                l.close_span(op);
            }
            t.work += result.events;
            t.check(result.events == want && delivered > 0);
        }
        t
    }
}

impl Workload for CanonMix {
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
    fn seed_one_is_the_frozen_corpus_and_other_seeds_differ() {
        for &name in STATIC_CANON {
            let frozen = scenario::parse(starvation::canon::canonical_source(name).expect("source"))
                .expect("parses");
            assert_eq!(reseeded_ast(name, 1), frozen, "{name}");
        }
        assert_ne!(reseeded_ast("copa-jitter", 2), reseeded_ast("copa-jitter", 1));
        assert_ne!(reseeded_ast("workload-1k", 5), reseeded_ast("workload-1k", 1));
        // Same seed, same inputs.
        assert_eq!(reseeded_ast("copa-jitter", 9), reseeded_ast("copa-jitter", 9));
    }

    #[test]
    fn a_smoke_round_repeats_its_event_counts() {
        let mut w = CanonMix::prepare(3, Scale::Smoke);
        assert_eq!(w.setup_tally().failed, 0);
        let a = w.unit();
        let mut log = SpanLog::default();
        let b = w.traced_unit(&mut log);
        assert_eq!((a.failed, b.failed), (0, 0));
        assert_eq!(a.work, b.work);
        assert_eq!(log.spans().iter().filter(|s| s.name == "netsim.run").count(), 5);
    }
}
