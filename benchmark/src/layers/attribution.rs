//! Where an event's nanoseconds go, estimated: how often each layer is
//! entered during a run (from the trace's per-class event counts) times
//! what one entry costs in isolation (the kernels), as a share of the
//! run's measured cost per event.
//!
//! This is an estimate, not a measurement. Kernels run hot and alone;
//! inside a simulation the same code shares caches and branch predictors
//! with every other layer. `residual` is everything timing from outside
//! cannot see — the dispatch loop itself, trace-probe checks, series
//! sampling, cache misses — and is reported as it falls out, negative if
//! the kernels overestimate.

use super::runs::ClassCounts;
use super::Table;

/// Which CCA kernel prices a scenario's ACKs.
fn cca_of(scenario: &str) -> &'static str {
    match scenario {
        "bbr-two-flow" => "bbr",
        _ => "reno",
    }
}

/// Fill `attr.<s>.<l>.share` from kernels and class counts already in
/// the table.
pub fn measure(t: &mut Table, classes: &ClassCounts) {
    for (&scenario, counts) in classes {
        let n = |class: &str| counts.get(class).copied().unwrap_or(0) as f64;
        let k = |name: &str| t.get(name).copied().unwrap_or(0.0);
        let events = n("events").max(1.0);
        let total_ns = k(&format!("run.{scenario}.ns_per_event")) * events;
        if total_ns <= 0.0 {
            continue;
        }
        let sends = n("send") + n("retransmit");
        let layers = [
            // Every dispatched event is one schedule and one pop.
            ("wheel", events * 2.0 * k("wheel.interleaved.ns_per_op")),
            // One enqueue + one departure per accepted packet; a refusal
            // per dropped one.
            (
                "link",
                n("enqueue") * k("link.enqueue_depart.ns_per_pkt") + n("drop") * k("link.enqueue_full.ns_per_pkt"),
            ),
            ("jitter", n("jitter-hold") * k("jitter.release_time.ns_per_pkt")),
            ("receiver", n("jitter-release") * k("receiver.on_data_inorder.ns_per_pkt")),
            (
                "sender",
                sends * k("sender.try_emit.ns_per_pkt") + n("ack") * k("sender.process_ack_inorder.ns_per_ack"),
            ),
            ("cca", n("ack") * k(&format!("cca.on_ack.{}.ns", cca_of(scenario)))),
        ];
        let mut explained = 0.0;
        for (layer, ns) in layers {
            explained += ns / total_ns;
            t.insert(format!("attr.{scenario}.{layer}.share"), ns / total_ns);
        }
        t.insert(format!("attr.{scenario}.residual.share"), 1.0 - explained);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn shares_and_residual_sum_to_one() {
        let mut t = Table::new();
        for (name, v) in [
            ("run.bbr-two-flow.ns_per_event", 200.0),
            ("wheel.interleaved.ns_per_op", 10.0),
            ("link.enqueue_depart.ns_per_pkt", 20.0),
            ("link.enqueue_full.ns_per_pkt", 5.0),
            ("jitter.release_time.ns_per_pkt", 8.0),
            ("receiver.on_data_inorder.ns_per_pkt", 15.0),
            ("sender.try_emit.ns_per_pkt", 30.0),
            ("sender.process_ack_inorder.ns_per_ack", 40.0),
            ("cca.on_ack.bbr.ns", 50.0),
        ] {
            t.insert(name.to_string(), v);
        }
        let counts: BTreeMap<String, u64> = [
            ("events", 1000u64),
            ("send", 200),
            ("retransmit", 10),
            ("enqueue", 200),
            ("drop", 10),
            ("jitter-hold", 200),
            ("jitter-release", 200),
            ("ack", 190),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
        let mut classes = ClassCounts::new();
        classes.insert("bbr-two-flow", counts);
        measure(&mut t, &classes);
        let sum: f64 = crate::registry::ATTR_LAYERS
            .iter()
            .map(|l| t[&format!("attr.bbr-two-flow.{l}.share")])
            .sum();
        assert!((sum - 1.0).abs() < 1e-12);
        // wheel: 1000 events × 2 ops × 10 ns of 200 000 ns.
        assert!((t["attr.bbr-two-flow.wheel.share"] - 0.1).abs() < 1e-12);
        assert!((t["attr.bbr-two-flow.cca.share"] - 190.0 * 50.0 / 200_000.0).abs() < 1e-12);
    }
}
