//! `netsim::sim` as a whole: nanoseconds per dispatched event for each
//! reference scenario (`run.*`), the same `bbr-two-flow` run under each
//! trace sink (`trace.*`), and the population summary
//! (`metrics.population.ms`).

use super::{Context, Table, RUN_REPEATS};
use crate::host;
use crate::stats::median;
use crate::workloads::canon_mix::{canonical_config, one_flow_saturating};
use crate::workloads::population::population_config;
use crate::workloads::{audited_digest, Scale};
use netsim::{Network, SimConfig, SimResult};
use simcore::trace::{JsonlSink, NullSink, RingSink, TraceSink};
use simcore::units::Rate;
use starvation::sweep::{STARVE_FLOOR_MBPS, STARVE_WINDOW};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;

/// Per-scenario event-class counts, for the attribution estimate:
/// scenario → (class → count), plus `"events"` → dispatched events.
pub type ClassCounts = BTreeMap<&'static str, BTreeMap<String, u64>>;

/// The reference scenarios by `run.<s>` name. Seed-independent: these
/// are fixed yardsticks, not workload inputs.
fn reference(name: &str, smoke: bool) -> SimConfig {
    match name {
        "one-flow-saturating" => one_flow_saturating(if smoke { 1 } else { 5 }),
        "workload-10k" if smoke => population_config(500, 6, 1),
        "workload-10k" => population_config(10_000, 90, 1),
        canon => canonical_config(canon, 1),
    }
}

/// Median wall nanoseconds of `repeats` runs (after one warm-up), and the
/// last result.
fn timed_runs(cfg: &SimConfig, repeats: usize) -> (f64, SimResult) {
    let mut last = Network::new(cfg.clone()).run();
    let ns: Vec<f64> = (0..repeats)
        .map(|_| {
            let cfg = cfg.clone();
            let t0 = host::host_now();
            last = Network::new(cfg).run();
            host::nanos_since(t0) as f64
        })
        .collect();
    (median(&ns), last)
}

fn with_sink(cfg: SimConfig, sink: &str) -> SimConfig {
    match sink {
        "none" => cfg,
        "null" => cfg.with_trace(Arc::new(|| Box::new(NullSink) as Box<dyn TraceSink>)),
        "ring" => {
            let ring = RingSink::new(16);
            cfg.with_trace(Arc::new(move || Box::new(ring.clone()) as Box<dyn TraceSink>))
        }
        "auditor" => cfg.with_audit(true),
        // Serialization only: the bytes go to `io::sink`, so the number
        // is the JSON encoder's cost, not the disk's.
        "jsonl" => cfg.with_trace(Arc::new(|| {
            Box::new(JsonlSink::from_writer(Box::new(std::io::sink()))) as Box<dyn TraceSink>
        })),
        other => panic!("unknown trace sink `{other}`"),
    }
}

/// Fill `run.*`, `trace.*` and `metrics.population.ms`; return the class
/// counts of the attribution scenarios.
pub fn measure(t: &mut Table, ctx: &Context<'_>) -> ClassCounts {
    let smoke = ctx.scale == Scale::Smoke;
    let repeats = if smoke { 2 } else { RUN_REPEATS };
    let mut classes = ClassCounts::new();
    for &name in crate::registry::RUN_SCENARIOS {
        let cfg = reference(name, smoke);
        let (ns, result) = timed_runs(&cfg, repeats);
        t.insert(format!("run.{name}.ns_per_event"), ns / result.events.max(1) as f64);
        t.insert(format!("run.{name}.events"), result.events as f64);

        if crate::registry::ATTR_SCENARIOS.contains(&name) {
            let digest = audited_digest(cfg);
            let mut counts: BTreeMap<String, u64> =
                digest.classes().map(|(class, n)| (class.to_string(), n)).collect();
            counts.insert("events".to_string(), result.events);
            classes.insert(name, counts);
        }
        if name == "workload-10k" {
            let ms: Vec<f64> = (0..repeats.max(5))
                .map(|_| {
                    let t0 = host::host_now();
                    black_box(result.population(Rate::from_mbps(STARVE_FLOOR_MBPS), STARVE_WINDOW));
                    host::nanos_since(t0) as f64 / 1e6
                })
                .collect();
            t.insert("metrics.population.ms".into(), median(&ms));
        }
    }

    let bbr = reference("bbr-two-flow", smoke);
    for &sink in crate::registry::TRACE_SINKS {
        let (ns, result) = timed_runs(&with_sink(bbr.clone(), sink), repeats);
        t.insert(format!("trace.sink_{sink}.ns_per_event"), ns / result.events.max(1) as f64);
    }
    classes
}
