//! The repository's benchmark — "the measurement spine": seven workloads
//! that exercise the product end to end, four end-to-end metrics with
//! regression bounds, and a per-layer table in which every product layer
//! is timed from outside through its public functions. See `README.md`.
//!
//! Nothing in the product crates knows this package exists.

pub mod host;
pub mod json;
pub mod layers;
pub mod registry;
pub mod runner;
pub mod sets;
pub mod span;
pub mod stats;
pub mod workloads;

use json::{obj, Json};

/// Run length the driver passes (`BENCHMARK.json`'s `run_seconds`), and
/// the default when `--seconds` is not given.
pub const RUN_SECONDS: u64 = 12;

/// `BENCHMARK.json`, generated from the registry.
pub fn benchmark_json() -> String {
    let metric = |m: &registry::MetricDef| {
        let mut members = vec![
            ("name", Json::Str(m.name.clone())),
            ("unit", Json::Str(m.unit.to_string())),
            ("better", Json::Str(m.better.word().to_string())),
        ];
        if let Some(b) = m.bound {
            members.push(("bound", Json::Num(b)));
        }
        obj(members)
    };
    let strs = |items: &[&str]| Json::Arr(items.iter().map(|s| Json::Str(s.to_string())).collect());
    let doc: Vec<(&str, Vec<Json>)> = vec![
        (
            "workloads",
            registry::WORKLOADS
                .iter()
                .map(|w| obj(vec![("name", Json::Str(w.name.to_string())), ("why", Json::Str(w.why.to_string()))]))
                .collect(),
        ),
        ("end_to_end", registry::end_to_end().iter().map(metric).collect()),
        ("per_layer", registry::per_layer().iter().map(metric).collect()),
    ];
    // One entry per line: the file is reviewed as a diff.
    let mut out = String::from("{\n");
    let command = strs(&[
        "cargo", "run", "--release", "--locked", "--offline", "--quiet", "--manifest-path",
        "benchmark/Cargo.toml", "--", "run",
    ]);
    out.push_str(&format!("  \"command\": {},\n", command.render()));
    out.push_str(&format!("  \"paths\": {},\n", strs(&["benchmark"]).render()));
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    for (i, (key, items)) in doc.iter().enumerate() {
        out.push_str(&format!("  \"{key}\": [\n"));
        for (j, item) in items.iter().enumerate() {
            out.push_str(&format!("    {}{}\n", item.render(), if j + 1 < items.len() { "," } else { "" }));
        }
        out.push_str(&format!("  ]{}\n", if i + 1 < doc.len() { "," } else { "" }));
    }
    out.push_str("}\n");
    out
}
