//! `repro sweep` — the incremental grid demo of the sweep service.
//!
//! [`starvation::sweep::ScenarioSpec`] expands a cartesian grid
//! (CCA × rate × RTT × jitter × seed) into the paper's canonical two-flow
//! asymmetric-jitter topology. Since the checkpointed store landed, the
//! grid runs *incrementally* ([`starvation::sweep::Sweep::run_incremental`]):
//! every completed row is persisted content-addressed under
//! `results/store/`, re-runs execute only missing rows (a completed grid
//! re-runs zero simulations), and a killed sweep resumes from its last
//! atomic checkpoint. `repro sweep --fresh` forces full recomputation;
//! `repro report` queries the store afterwards.

use crate::table::{fnum, TextTable};
use simcore::par;
use starvation::sweep::{
    CcaSpec, GridMeta, IncrementalReport, ScenarioSpec, StoreOptions, Sweep,
};
use simcore::units::Dur;
use std::fmt;

/// One grid point's measurement, extracted from its persisted row summary.
#[derive(Clone, Debug)]
pub struct SweepPointRow {
    /// The grid coordinates.
    pub meta: GridMeta,
    /// RTT axis, ms (kept alongside [`GridMeta`] for the table).
    pub rtt_ms: f64,
    /// Second-half throughput of the jittered flow (flow 0), Mbit/s.
    pub jittered_mbps: f64,
    /// Second-half throughput of the clean flow (flow 1), Mbit/s.
    pub clean_mbps: f64,
}

impl SweepPointRow {
    /// Clean-over-jittered ratio: > 1 means the impaired flow loses.
    pub fn ratio(&self) -> f64 {
        self.clean_mbps / self.jittered_mbps.max(1e-9)
    }
}

/// The executed grid plus the incremental-run accounting.
pub struct SweepReport {
    /// One row per grid point, in row-major grid order.
    pub rows: Vec<SweepPointRow>,
    /// Simulations executed this run (0 on a full cache hit).
    pub executed: usize,
    /// Rows served from the store.
    pub cached: usize,
    /// Invalid store entries that were detected and recomputed.
    pub recomputed: usize,
    /// Rows that ran but could not be written to the store.
    pub unpersisted: usize,
    /// True when the fault-injection kill hook stopped the run early.
    pub aborted: bool,
}

/// The demo grid: the paper's probing CCAs over rate × jitter × seed.
pub fn spec(quick: bool) -> ScenarioSpec {
    let (seeds, secs): (&[u64], u64) = if quick { (&[1], 12) } else { (&[1, 2, 3], 30) };
    ScenarioSpec::new("grid-demo")
        .cca(CcaSpec::new("copa", |_s| {
            Box::new(cca::Copa::default_params())
        }))
        .cca(CcaSpec::new("bbr", |s| Box::new(cca::Bbr::new(1500, s))))
        .rates_mbps(&[40.0, 120.0])
        .rtts_ms(&[40])
        .jitters_ms(&[0, 10])
        .seeds(seeds)
        .duration(Dur::from_secs(secs))
        .sample_every(Dur::from_millis(20))
}

/// Run the demo grid using every available core and the default store.
pub fn run(quick: bool) -> SweepReport {
    run_with(quick, par::available_jobs())
}

/// Run the demo grid across `jobs` workers against the default store.
pub fn run_with(quick: bool, jobs: usize) -> SweepReport {
    run_stored(
        quick,
        jobs,
        &StoreOptions::new(starvation::sweep::default_store_dir()),
    )
}

/// Run the demo grid incrementally against a specific store. Returns both
/// the rendered grid report and the raw [`IncrementalReport`] accounting.
pub fn run_incremental(quick: bool, jobs: usize, opts: &StoreOptions) -> IncrementalReport {
    let s = spec(quick);
    Sweep::new(&s.name).jobs(jobs).run_incremental(s.expand(), opts)
}

/// Run the demo grid against `opts` and fold the per-row summaries into
/// the grid table. Rows are extracted from the persisted [`RowSummary`]s
/// (the `SimResult`s died in their workers), so the table is byte-stable
/// between a fresh run and a fully-cached re-run.
///
/// [`RowSummary`]: starvation::sweep::RowSummary
pub fn run_stored(quick: bool, jobs: usize, opts: &StoreOptions) -> SweepReport {
    let s = spec(quick);
    let rtts: Vec<f64> = s
        .points()
        .into_iter()
        .map(|(_, p)| p.rm.as_millis_f64())
        .collect();
    let inc = Sweep::new(&s.name).jobs(jobs).run_incremental(s.expand(), opts);
    if inc.aborted {
        return SweepReport {
            rows: Vec::new(),
            executed: inc.executed,
            cached: inc.cached,
            recomputed: inc.recomputed.len(),
            unpersisted: inc.unpersisted.len(),
            aborted: true,
        };
    }
    let rows = inc
        .rows
        .iter()
        .zip(rtts)
        .map(|(row, rtt_ms)| {
            let summary = row
                .outcome
                .as_ref()
                .unwrap_or_else(|msg| panic!("{} diverged: {msg}", row.label));
            let meta = summary.grid.clone().expect("grid rows carry coordinates");
            SweepPointRow {
                meta,
                rtt_ms,
                jittered_mbps: summary.flows[0].second_half_mbps,
                clean_mbps: summary.flows[1].second_half_mbps,
            }
        })
        .collect();
    SweepReport {
        rows,
        executed: inc.executed,
        cached: inc.cached,
        recomputed: inc.recomputed.len(),
        unpersisted: inc.unpersisted.len(),
        aborted: false,
    }
}

impl SweepReport {
    /// Render the grid.
    pub fn table(&self) -> TextTable {
        let mut t = TextTable::new(&[
            "cca",
            "rate (Mbit/s)",
            "rtt (ms)",
            "jitter (ms)",
            "seed",
            "flow 0 (Mbit/s)",
            "flow 1 (Mbit/s)",
            "ratio",
        ]);
        for r in &self.rows {
            t.row(&[
                r.meta.cca.clone(),
                fnum(r.meta.rate_mbps),
                fnum(r.rtt_ms),
                fnum(r.meta.jitter_ms),
                r.meta.seed.to_string(),
                fnum(r.jittered_mbps),
                fnum(r.clean_mbps),
                fnum(r.ratio()),
            ]);
        }
        t
    }
}

impl fmt::Display for SweepReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let unpersisted = match self.unpersisted {
            0 => String::new(),
            n => format!(", {n} unpersisted"),
        };
        writeln!(
            f,
            "Scenario grid (CCA × rate × jitter × seed) on the sweep engine —\n\
             flow 0 sees the jitter, flow 1 is clean\n\
             [{} executed, {} cached, {} recomputed{unpersisted}]:",
            self.executed, self.cached, self.recomputed
        )?;
        write!(f, "{}", self.table().render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp_store(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("repro_sweep_{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn grid_runs_and_keeps_row_major_order() {
        let dir = tmp_store("order");
        let r = run_stored(true, 4, &StoreOptions::new(&dir));
        // 2 ccas × 2 rates × 1 rtt × 2 jitters × 1 seed.
        assert_eq!(r.rows.len(), 8);
        assert_eq!(r.executed, 8);
        let labels: Vec<String> = r
            .rows
            .iter()
            .map(|row| {
                format!(
                    "{}/r{}/j{}/s{}",
                    row.meta.cca, row.meta.rate_mbps, row.meta.jitter_ms, row.meta.seed
                )
            })
            .collect();
        let expected: Vec<String> = spec(true)
            .points()
            .into_iter()
            .map(|(_, p)| {
                format!(
                    "{}/r{}/j{}/s{}",
                    p.cca,
                    p.rate.mbps(),
                    p.jitter.as_millis_f64(),
                    p.seed
                )
            })
            .collect();
        assert_eq!(labels, expected);
        for row in &r.rows {
            assert!(row.jittered_mbps > 0.0, "{}", row.meta.cca);
            assert!(row.clean_mbps > 0.0, "{}", row.meta.cca);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rerun_is_a_full_cache_hit_with_identical_table() {
        let dir = tmp_store("cachehit");
        let first = run_stored(true, 4, &StoreOptions::new(&dir));
        let second = run_stored(true, 1, &StoreOptions::new(&dir));
        assert_eq!(second.executed, 0, "completed grid re-runs nothing");
        assert_eq!(second.cached, 8);
        assert_eq!(
            first.table().render(),
            second.table().render(),
            "cached table is byte-identical"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unpersisted_count_shows_only_when_nonzero() {
        let mut r = SweepReport {
            rows: Vec::new(),
            executed: 8,
            cached: 0,
            recomputed: 0,
            unpersisted: 0,
            aborted: false,
        };
        assert!(r.to_string().contains("[8 executed, 0 cached, 0 recomputed]:"), "{r}");
        r.unpersisted = 2;
        assert!(r.to_string().contains("[8 executed, 0 cached, 0 recomputed, 2 unpersisted]:"), "{r}");
    }

    #[test]
    fn clean_cells_are_fairer_than_jittered_ones() {
        let dir = tmp_store("fairness");
        let r = run_stored(true, 4, &StoreOptions::new(&dir));
        let mean = |jit: f64| {
            let v: Vec<f64> = r
                .rows
                .iter()
                .filter(|row| row.meta.jitter_ms == jit)
                .map(|row| row.ratio().max(1.0 / row.ratio()))
                .collect();
            v.iter().sum::<f64>() / v.len() as f64
        };
        assert!(
            mean(10.0) > mean(0.0),
            "jittered cells should be less fair: clean={} jittered={}",
            mean(0.0),
            mean(10.0)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
