//! The names everything else is judged by: workloads, end-to-end metrics
//! with their regression bounds, and per-layer metrics. `BENCHMARK.json`
//! at the repository root carries the same lists; a test holds the two
//! in agreement.

/// Which way is better.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One workload: a fixed deterministic unit repeated for the run length.
#[derive(Clone, Copy, Debug)]
pub struct WorkloadDef {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// What `work_per_s` counts on this workload.
    pub work_unit: &'static str,
    /// Why the workload exists (one line).
    pub why: &'static str,
}

/// The workloads, in the order a full set runs them.
pub const WORKLOADS: &[WorkloadDef] = &[
    WorkloadDef {
        name: "canon-mix",
        work_unit: "events",
        why: "few long-lived flows, cache-resident: wheel, link, jitter, receiver, PktStore and CCA on_ack do all the work; scenario, store and par do none",
    },
    WorkloadDef {
        name: "population-10k",
        work_unit: "events",
        why: "10 000 short Reno flows: flow spawn/retire, per-flow state and series memory dominate, the CCA is trivial; guards many-flow locality and RSS",
    },
    WorkloadDef {
        name: "sweep-grid-j1",
        work_unit: "rows",
        why: "384 two-second rows written fresh at jobs 1: per-row overhead (expand, digest, summary, encode, Store::write, checkpoints) is as large as it gets",
    },
    WorkloadDef {
        name: "sweep-grid-j2",
        work_unit: "rows",
        why: "the same fresh grid at jobs 2: the par queue, the checkpoint lock and fsync contention decide how far below 2x the row rate lands",
    },
    WorkloadDef {
        name: "sweep-cached",
        work_unit: "rows",
        why: "fully cached re-run of the grid: the read/validate/decode path that a faster write path must not slow down; no simulation runs",
    },
    WorkloadDef {
        name: "fuzz-campaign",
        work_unit: "scenarios",
        why: "thousands of tiny audited runs: the only workload where .scn generate/mutate/print/parse/compile and the Auditor sink do real work per operation",
    },
    WorkloadDef {
        name: "figures-quick",
        work_unit: "experiments",
        why: "every `repro all` experiment at quick size: the user-visible regenerate-the-paper end, and the only exerciser of core theorem code, ccmc and Sweep::run",
    },
];

/// Look a workload up by name.
pub fn workload(name: &str) -> Option<&'static WorkloadDef> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// A metric's name, unit and direction; end-to-end metrics also carry the
/// share of the parent's median by which they may worsen.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricDef {
    /// Metric name (`[A-Za-z0-9_.-]+`, unique across both lists).
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Regression bound (end-to-end metrics only).
    pub bound: Option<f64>,
}

fn metric(name: impl Into<String>, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name: name.into(), unit, better, bound: None }
}

/// The end-to-end metrics. Every workload reports every one of them,
/// so a bound has to hold on the noisiest workload.
///
/// `work_per_s` is the work a user waits for per second of wall time:
/// simulated events, sweep rows, fuzzed scenarios or experiments (see
/// [`WorkloadDef::work_unit`]), taken from the median repeat. On the
/// fresh sweep workloads a quarter of that time is `fsync`, whose latency
/// on this disk drifts by tens of percent within minutes — hence the
/// wide bound. `work_per_user_cpu_s` divides the same work by the
/// process's user-mode CPU seconds instead: blind to the disk, equal to
/// the wall rate on the CPU-bound workloads, and the tighter of the two.
/// `peak_rss_mb` is `VmHWM`; `figures-quick` runs two-threaded phases
/// whose allocation interleaving moves its peak by ±5 %.
pub fn end_to_end() -> Vec<MetricDef> {
    let bounded = |name: &str, unit, better, bound| MetricDef {
        name: name.to_string(),
        unit,
        better,
        bound: Some(bound),
    };
    vec![
        bounded("work_per_s", "1/s", Better::Higher, 0.25),
        bounded("work_per_user_cpu_s", "1/s", Better::Higher, 0.15),
        bounded("peak_rss_mb", "MiB", Better::Lower, 0.25),
        bounded("setup_s", "s", Better::Lower, 0.25),
    ]
}

/// CCAs with an `on_ack` kernel, by scenario-DSL slug.
pub const KERNEL_CCAS: &[&str] =
    &["reno", "cubic", "vegas", "fast", "copa", "bbr", "vivace", "allegro"];

/// Whole-simulation scenarios with a `run.<s>.*` pair.
pub const RUN_SCENARIOS: &[&str] = &[
    "one-flow-saturating",
    "reno-ideal",
    "copa-jitter",
    "bbr-two-flow",
    "vivace-lossy",
    "workload-1k",
    "workload-10k",
];

/// Trace sinks `bbr-two-flow` is run under.
pub const TRACE_SINKS: &[&str] = &["none", "null", "ring", "auditor", "jsonl"];

/// The experiments of `repro all` (sweep excluded), in its order.
pub const FIGURES: &[&str] = &[
    "fig1", "fig2", "fig3", "thm", "fig7", "copa", "bbr", "vivace", "allegro", "merit", "algo1",
    "ccmc", "ablations", "ecn", "boundary", "seeds",
];

/// Scenarios whose per-event cost is attributed to layers.
pub const ATTR_SCENARIOS: &[&str] = &["bbr-two-flow", "workload-10k"];

/// Layers an event's cost is attributed to; `residual` is what timing
/// from outside cannot see.
pub const ATTR_LAYERS: &[&str] =
    &["wheel", "link", "jitter", "receiver", "sender", "cca", "residual"];

/// The per-layer metrics: every layer timed from outside through its
/// public functions. No bounds; they explain end-to-end movements.
pub fn per_layer() -> Vec<MetricDef> {
    use Better::{Higher, Lower};
    let mut m = Vec::new();
    for name in [
        "wheel.interleaved.ns_per_op",
        "wheel.ties.ns_per_op",
        "wheel.far_future.ns_per_op",
        "wheel.pop_batch.ns_per_ev",
        "link.enqueue_depart.ns_per_pkt",
        "link.enqueue_full.ns_per_pkt",
        "jitter.release_time.ns_per_pkt",
        "pktstore.insert_advance.ns_per_pkt",
        "pktstore.sack_range.ns_per_ack",
        "pktstore.collect_holes.ns_per_scan",
        "pktstore.rto_reset.ns_per_pkt",
        "receiver.on_data_inorder.ns_per_pkt",
        "receiver.on_data_reorder.ns_per_pkt",
        "sender.try_emit.ns_per_pkt",
        "sender.process_ack_inorder.ns_per_ack",
        "sender.process_ack_sack.ns_per_ack",
    ] {
        m.push(metric(name, "ns", Lower));
    }
    for c in KERNEL_CCAS {
        m.push(metric(format!("cca.on_ack.{c}.ns"), "ns", Lower));
    }
    for s in RUN_SCENARIOS {
        m.push(metric(format!("run.{s}.ns_per_event"), "ns", Lower));
        // Deterministic: compared for equality, the direction is nominal.
        m.push(metric(format!("run.{s}.events"), "count", Lower));
    }
    for sink in TRACE_SINKS {
        m.push(metric(format!("trace.sink_{sink}.ns_per_event"), "ns", Lower));
    }
    m.push(metric("metrics.population.ms", "ms", Lower));
    for step in ["parse", "print", "compile", "generate", "mutate"] {
        m.push(metric(format!("scenario.{step}.us"), "us", Lower));
    }
    for stage in ["expand", "digest", "sim", "row_summary", "encode", "decode", "overhead"] {
        m.push(metric(format!("sweep.{stage}.us_per_row"), "us", Lower));
    }
    for name in ["sweep.inmem.rows_per_s_j1", "sweep.disk.rows_per_s_j1", "sweep.disk.rows_per_s_j2"] {
        m.push(metric(name, "1/s", Higher));
    }
    for name in [
        "store.read.us",
        "store.manifest_save.us",
        "store.write_disk.us_p50",
        "store.write_disk.us_p90",
        "par.dispatch.us_per_job_j1",
        "par.dispatch.us_per_job_j2",
    ] {
        m.push(metric(name, "us", Lower));
    }
    m.push(metric("par.efficiency_j2", "share", Higher));
    for e in FIGURES {
        m.push(metric(format!("figures.{e}.ms"), "ms", Lower));
    }
    m.push(metric("simlint.workspace.ms", "ms", Lower));
    for s in ATTR_SCENARIOS {
        for l in ATTR_LAYERS {
            m.push(metric(format!("attr.{s}.{l}.share"), "share", Lower));
        }
    }
    m.push(metric("harness.trace_overhead_pct", "%", Lower));
    m
}

/// `spine list`: every metric with unit, direction and bound.
pub fn listing() -> String {
    let mut out = String::new();
    out.push_str("workloads:\n");
    for w in WORKLOADS {
        out.push_str(&format!("  {:<16} work = {:<12} {}\n", w.name, w.work_unit, w.why));
    }
    out.push_str("end_to_end:\n");
    for m in end_to_end() {
        out.push_str(&format!(
            "  {:<44} {:<6} {:<7} bound {:.0}%\n",
            m.name,
            m.unit,
            m.better.word(),
            m.bound.unwrap_or(0.0) * 100.0
        ));
    }
    out.push_str("per_layer:\n");
    for m in per_layer() {
        out.push_str(&format!("  {:<44} {:<6} {}\n", m.name, m.unit, m.better.word()));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse_json, Json};
    use std::collections::BTreeSet;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn names_use_the_allowed_charset_and_are_unique() {
        let mut seen = BTreeSet::new();
        let metrics = end_to_end().into_iter().chain(per_layer());
        for name in WORKLOADS.iter().map(|w| w.name.to_string()).chain(metrics.map(|m| m.name)) {
            assert!(valid_name(&name), "bad name {name:?}");
            assert!(seen.insert(name.clone()), "duplicate name {name:?}");
        }
    }

    #[test]
    fn limits_of_the_benchmark_contract_hold() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&end_to_end().len()));
        assert!((1..=128).contains(&per_layer().len()));
        for w in WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in end_to_end() {
            let bound = m.bound.expect("end-to-end metrics are bounded");
            assert!(bound > 0.0 && bound <= 0.25, "{}", m.name);
        }
        let setup = end_to_end().into_iter().find(|m| m.name == "setup_s").expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let widest = end_to_end().iter().filter_map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(widest), "setup_s carries the largest bound");
    }

    /// (name, unit, better, bound) rows of one `BENCHMARK.json` list.
    fn declared(doc: &Json, list: &str) -> Vec<(String, String, String, Option<f64>)> {
        doc.member(list)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no `{list}` list"))
            .iter()
            .map(|m| {
                let text = |k: &str| m.member(k).and_then(Json::as_str).unwrap_or("").to_string();
                (text("name"), text("unit"), text("better"), m.member("bound").and_then(Json::as_f64))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_and_the_registry_name_the_same_things() {
        let path = crate::host::repo_root().join("BENCHMARK.json");
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let doc = parse_json(&text).expect("BENCHMARK.json parses");

        let rows = |defs: Vec<MetricDef>| -> Vec<(String, String, String, Option<f64>)> {
            defs.into_iter()
                .map(|m| (m.name, m.unit.to_string(), m.better.word().to_string(), m.bound))
                .collect()
        };
        assert_eq!(declared(&doc, "end_to_end"), rows(end_to_end()));
        assert_eq!(declared(&doc, "per_layer"), rows(per_layer()));

        let workloads: Vec<(String, String)> = doc
            .member("workloads")
            .and_then(Json::as_arr)
            .expect("workloads list")
            .iter()
            .map(|w| {
                let text = |k: &str| w.member(k).and_then(Json::as_str).unwrap_or("").to_string();
                (text("name"), text("why"))
            })
            .collect();
        let ours: Vec<(String, String)> =
            WORKLOADS.iter().map(|w| (w.name.to_string(), w.why.to_string())).collect();
        assert_eq!(workloads, ours);

        // `spine list` prints every declared name.
        let listing = listing();
        for (name, ..) in declared(&doc, "end_to_end").into_iter().chain(declared(&doc, "per_layer")) {
            assert!(listing.contains(&format!("  {name} ")), "`spine list` omits {name}");
        }
    }
}
