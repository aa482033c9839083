//! `core::sweep`, `simcore::store` and `simcore::par` as a sweep row
//! meets them. The grid is the sweep workloads' grid; the harness drives
//! it through `run_incremental` at jobs 1 and 2 (what the workloads
//! time), stage by stage from outside (where the per-stage numbers come
//! from), through the in-memory `Sweep::run`, and through
//! `run_incremental` with persistence off (the engine's own overhead) —
//! in alternation, so that differences between them are differences in
//! code, not in the minute they were measured.

use super::{Context, Table};
use crate::host;
use crate::span::{layer_totals, SpanLog};
use crate::stats::median;
use crate::workloads::sweep_grid::{Phase, SweepGrid};
use crate::workloads::{Scale, Workload};

/// Alternations of the three drives.
const PASSES: usize = 3;

fn timed_secs<T>(call: impl FnOnce() -> T) -> f64 {
    let t0 = host::host_now();
    std::hint::black_box(call());
    host::secs_since(t0)
}

/// Fill `sweep.*`, `store.*` and `par.efficiency_j2`.
pub fn measure(t: &mut Table, ctx: &Context<'_>) {
    let scale = ctx.scale;
    let passes = if scale == Scale::Smoke { 1 } else { PASSES };

    // Fresh grid: run_incremental at jobs 1 and 2, the stage-by-stage
    // re-drive, and the in-memory runner.
    let mut fresh = SweepGrid::prepare(ctx.seed, scale, ctx.scratch, Phase::FreshJ1);
    let rows = fresh.rows() as f64;
    let (mut engine_j1, mut engine_j2, mut inmem, mut overhead) = (vec![], vec![], vec![], vec![]);
    let mut stage_us: std::collections::BTreeMap<&'static str, Vec<f64>> = Default::default();
    let mut write_us: Vec<f64> = Vec::new();
    let mut save_us: Vec<f64> = Vec::new();
    for _ in 0..passes {
        fresh.set_fresh_phase(Phase::FreshJ1);
        engine_j1.push(timed_secs(|| fresh.unit()));
        fresh.settle();

        let mut log = SpanLog::default();
        fresh.traced_unit(&mut log);
        fresh.settle();
        for (name, total) in layer_totals(log.spans()) {
            stage_us.entry(name).or_default().push(total.total_ns as f64 / 1e3 / rows);
        }
        for s in log.spans() {
            match s.name {
                "simcore.store.write" => write_us.push(s.duration_ns() as f64 / 1e3),
                "simcore.store.manifest_save" => save_us.push(s.duration_ns() as f64 / 1e3),
                _ => {}
            }
        }

        fresh.set_fresh_phase(Phase::FreshJ2);
        engine_j2.push(timed_secs(|| fresh.unit()));
        fresh.settle();

        inmem.push(timed_secs(|| fresh.in_memory()));
        overhead.push(fresh.engine_overhead_secs());
    }
    drop(fresh);

    let stage = |name: &str| stage_us.get(name).map_or(0.0, |v| median(v));
    t.insert("sweep.expand.us_per_row".into(), stage("core.sweep.expand"));
    t.insert("sweep.digest.us_per_row".into(), stage("core.sweep.digest"));
    t.insert("sweep.sim.us_per_row".into(), stage("netsim.run"));
    t.insert("sweep.row_summary.us_per_row".into(), stage("core.sweep.row_summary"));
    t.insert("sweep.encode.us_per_row".into(), stage("core.sweep.encode"));
    // A difference of two ~second-long CPU-bound intervals: good to a few
    // microseconds a row, no better.
    t.insert("sweep.overhead.us_per_row".into(), median(&overhead) * 1e6 / rows);
    let rate_j1 = rows / median(&engine_j1);
    let rate_j2 = rows / median(&engine_j2);
    t.insert("sweep.disk.rows_per_s_j1".into(), rate_j1);
    t.insert("sweep.disk.rows_per_s_j2".into(), rate_j2);
    t.insert("sweep.inmem.rows_per_s_j1".into(), rows / median(&inmem));
    t.insert("par.efficiency_j2".into(), rate_j2 / (2.0 * rate_j1));
    t.insert("store.write_disk.us_p50".into(), median(&write_us));
    t.insert(
        "store.write_disk.us_p90".into(),
        simcore::stats::percentile(&write_us, 90.0).expect("every pass writes rows"),
    );
    t.insert("store.manifest_save.us".into(), median(&save_us));

    // Cached grid: the read path.
    let mut cached = SweepGrid::prepare(ctx.seed, scale, ctx.scratch, Phase::Cached);
    let (mut read_us, mut decode_us) = (Vec::new(), Vec::new());
    for _ in 0..passes.max(3) {
        let mut log = SpanLog::default();
        cached.traced_unit(&mut log);
        let totals = layer_totals(log.spans());
        read_us.push(totals["simcore.store.read"].total_ns as f64 / 1e3 / rows);
        decode_us.push(totals["core.sweep.decode"].total_ns as f64 / 1e3 / rows);
    }
    t.insert("store.read.us".into(), median(&read_us));
    t.insert("sweep.decode.us_per_row".into(), median(&decode_us));
}
