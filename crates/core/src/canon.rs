//! Canonical trace scenarios: five fixed configurations that exercise
//! every event class the trace subsystem emits.
//!
//! The scenarios live as `.scn` files in `tests/scenarios/` — the
//! scenario-DSL corpus — compiled in via `include_str!` so this crate
//! stays hermetic. They back three consumers:
//!
//! * the golden-trace regression suite (`tests/golden_traces.rs`), which
//!   pins a per-event-class digest of each scenario's full event stream —
//!   any change to simulator scheduling, transport behaviour, CCA
//!   dynamics, *or the DSL compiler* shows up as a digest mismatch;
//! * `repro trace <scenario>`, which streams the same scenarios as
//!   JSON-lines for ad-hoc inspection;
//! * the scenario fuzzer (`repro fuzz`), which uses them as its seed
//!   corpus.
//!
//! The configurations are deliberately frozen: durations, rates, seeds and
//! CCA parameters are part of the golden contract. Behaviour changes that
//! are *intended* re-record the goldens (`BLESS=1`); anything else is a
//! regression.

use netsim::SimConfig;

/// Names of the canonical scenarios, in registry order.
pub const CANONICAL: &[&str] =
    &["reno-ideal", "copa-jitter", "bbr-two-flow", "vivace-lossy", "workload-1k"];

/// The committed `.scn` sources, embedded so the canon is available
/// without filesystem access. Same order as [`CANONICAL`].
const SOURCES: &[(&str, &str)] = &[
    ("reno-ideal", include_str!("../../../tests/scenarios/reno-ideal.scn")),
    ("copa-jitter", include_str!("../../../tests/scenarios/copa-jitter.scn")),
    ("bbr-two-flow", include_str!("../../../tests/scenarios/bbr-two-flow.scn")),
    ("vivace-lossy", include_str!("../../../tests/scenarios/vivace-lossy.scn")),
    ("workload-1k", include_str!("../../../tests/scenarios/workload-1k.scn")),
];

/// The `.scn` source of a canonical scenario. `None` for unknown names.
pub fn canonical_source(name: &str) -> Option<&'static str> {
    SOURCES.iter().find(|(n, _)| *n == name).map(|(_, src)| *src)
}

/// Build a canonical scenario by name. `None` for unknown names.
///
/// Every scenario is deterministic and runs in well under a second:
///
/// * `reno-ideal` — one NewReno flow on an ample-buffer ideal path
///   (slow start, congestion avoidance, ACK clocking; no loss, no jitter).
/// * `copa-jitter` — one Copa flow through 10 ms of random jitter
///   (jitter-hold/release events, delay-sensitive cwnd dynamics).
/// * `bbr-two-flow` — two BBR flows share a 1-BDP buffer (queue build-up,
///   tail drops, retransmissions, two-flow FIFO interleaving).
/// * `vivace-lossy` — one PCC Vivace datagram flow with 2% Bernoulli loss
///   (SACK-style per-packet ACKs, loss events without retransmission).
/// * `workload-1k` — a 1000-flow dynamic workload: Poisson arrivals,
///   heavy-tailed Pareto sizes, NewReno through mild jitter (flow
///   arrive/complete lifecycle, population-scale FCT and fairness).
pub fn canonical_scenario(name: &str) -> Option<SimConfig> {
    let src = canonical_source(name)?;
    // The corpus is committed and covered by the golden suite; a parse
    // failure here means the checked-in file was corrupted.
    let parsed = scenario::parse(src)
        .unwrap_or_else(|e| panic!("canonical scenario `{name}` failed to parse: {e}"));
    Some(scenario::compile(&parsed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::Network;
    use simcore::trace::{RingSink, TraceSink};
    use std::sync::Arc;

    #[test]
    fn every_canonical_name_resolves() {
        for name in CANONICAL {
            assert!(canonical_scenario(name).is_some(), "{name}");
        }
        assert!(canonical_scenario("no-such-scenario").is_none());
        assert!(canonical_source("no-such-scenario").is_none());
    }

    #[test]
    fn embedded_sources_match_the_files_on_disk() {
        // include_str! snapshots the corpus at compile time; this test
        // fails fast if the on-disk files drift from the embedded copies
        // without a rebuild (e.g. a stale incremental cache).
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/scenarios");
        for name in CANONICAL {
            let on_disk = std::fs::read_to_string(dir.join(format!("{name}.scn")))
                .unwrap_or_else(|e| panic!("{name}.scn: {e}"));
            assert_eq!(canonical_source(name), Some(on_disk.as_str()), "{name}");
        }
    }

    #[test]
    fn canonical_scenarios_pass_audit_and_emit_all_core_classes() {
        // Union across the canonical scenarios must cover the full event
        // vocabulary (drop/retransmit/rto come from bbr-two-flow and
        // vivace-lossy; jitter classes appear everywhere).
        let mut seen: std::collections::BTreeSet<&'static str> = Default::default();
        for name in CANONICAL {
            let ring = RingSink::new(16);
            let probe = ring.clone();
            let cfg = canonical_scenario(name)
                .unwrap()
                .with_trace(Arc::new(move || Box::new(probe.clone()) as Box<dyn TraceSink>))
                .with_audit(true);
            let r = Network::new(cfg).run();
            assert!(r.flows[0].total_delivered() > 0, "{name}");
            let digest = ring.digest();
            for class in ["send", "enqueue", "dequeue", "jitter-hold", "jitter-release", "ack", "cwnd", "probe", "run-end"] {
                assert!(digest.count(class) > 0, "{name} missing {class}");
            }
            for (class, _) in digest.classes() {
                seen.insert(class);
            }
        }
        for class in ["drop", "retransmit", "rto"] {
            assert!(seen.contains(class), "no canonical scenario emits {class}");
        }
    }

    #[test]
    fn canonical_event_counts_are_pinned() {
        // Exact per-kind dispatch counts: a change that schedules more or
        // fewer events shows up here by kind, with no clock involved. A
        // deliberate change re-records the row and says so.
        use netsim::EvCounts;
        let row = |wake, depart, data_arrive, ack_arrive, rx_flush, rto, flow_arrival| EvCounts {
            wake,
            depart,
            data_arrive,
            ack_arrive,
            rx_flush,
            rto,
            flow_arrival,
        };
        let table = [
            ("reno-ideal", row(1, 9640, 9560, 9560, 0, 6365, 0)),
            ("copa-jitter", row(2791, 2792, 2766, 2766, 0, 1362, 0)),
            ("bbr-two-flow", row(16745, 7959, 7949, 7949, 0, 1708, 0)),
            ("vivace-lossy", row(7429, 7282, 7218, 7218, 0, 6906, 0)),
            ("workload-1k", row(1000, 25438, 25438, 25438, 0, 15960, 1000)),
        ];
        assert_eq!(table.map(|(name, _)| name), CANONICAL);
        for (name, want) in table {
            let bare = Network::new(canonical_scenario(name).unwrap()).run();
            assert_eq!(bare.counts, want, "{name}");
            assert_eq!(bare.events, bare.counts.total(), "{name}");
            // Observation is inert: the same counts under a sink + auditor.
            let traced = canonical_scenario(name)
                .unwrap()
                .with_trace(Arc::new(|| Box::new(simcore::trace::NullSink) as Box<dyn TraceSink>))
                .with_audit(true);
            assert_eq!(Network::new(traced).run().counts, want, "{name} traced");
        }
        assert_eq!(table[2].1.total(), 42_310);
    }
}
