//! The two things timed whole: each paper experiment at quick size
//! (`figures.*`) and a cold lint of the workspace (`simlint.workspace.ms`).

use super::{Context, Table};
use crate::host;
use crate::span::{ms_by_name, SpanLog};
use crate::stats::median;
use crate::workloads::figures::Figures;
use crate::workloads::Workload;

/// A cold lint of the checkout, no cache — recorded so that deleting the
/// lint cache (ROADMAP item 2) is judged on a number. Build output and
/// the benchmark's own scratch are skipped, as `target/` is.
fn lint_ms() -> f64 {
    let mut cfg = simlint::Config::for_workspace(host::repo_root());
    cfg.skip_dirs.extend([".bench_build".to_string(), "out".to_string()]);
    let t0 = host::host_now();
    let report = simlint::lint_workspace(&cfg);
    std::hint::black_box(report.files_checked);
    host::nanos_since(t0) as f64 / 1e6
}

/// Fill `figures.*` and `simlint.workspace.ms`.
pub fn measure(t: &mut Table, ctx: &Context<'_>) {
    // One pass of the `figures-quick` workload's own traced unit, unless
    // the run this table belongs to was that workload and has just made
    // one. A smoke pass skips the expensive experiments; they read 0.
    let figures = ctx.figures_ms.clone().unwrap_or_else(|| {
        let mut log = SpanLog::default();
        Figures::prepare(ctx.scale).traced_unit(&mut log);
        ms_by_name(log.spans(), 1)
    });
    for name in crate::registry::FIGURES {
        t.insert(format!("figures.{name}.ms"), figures.get(name).copied().unwrap_or(0.0));
    }
    let lint: Vec<f64> = (0..3).map(|_| lint_ms()).collect();
    t.insert("simlint.workspace.ms".into(), median(&lint));
}
