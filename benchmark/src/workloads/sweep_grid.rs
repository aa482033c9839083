//! The sweep workloads: a 384-row grid (4 CCAs × 2 rates × 2 RTTs × 4
//! jitter bounds × 6 seeds, two simulated seconds a row) through
//! `Sweep::run_incremental` against a store in the scratch directory.
//!
//! Many short rows make per-row overhead — expand, digest, `RowSummary`,
//! encode, `Store::write`, manifest checkpoints, the `par` queue — as
//! large as it ever gets. Three workloads share the grid: written fresh
//! at jobs 1, written fresh at jobs 2, and re-run fully cached (the
//! read/validate/decode path beside the write path, so a gain for one
//! that costs the other shows).
//!
//! The store is on whatever disk holds the checkout: a benchmark run may
//! write nowhere else. `Store::write`'s `sync_all` therefore costs a real
//! fsync, whose latency drifts between sets; `work_per_user_cpu_s` is the
//! steady reading of these workloads, `work_per_s` the one users feel.

use super::{Scale, Tally, Workload};
use crate::host::Scratch;
use crate::span::SpanLog;
use netsim::Network;
use simcore::par;
use simcore::store::{Manifest, Store};
use simcore::units::Dur;
use starvation::sweep::{CcaSpec, RowSummary, ScenarioSpec, StoreOptions, Sweep, SweepJob};
use std::path::{Path, PathBuf};

/// Which of the three sweep workloads this is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Every row executed and persisted, one worker.
    FreshJ1,
    /// Every row executed and persisted, two workers.
    FreshJ2,
    /// Every row served from the store.
    Cached,
}

impl Phase {
    fn jobs(self) -> usize {
        match self {
            Phase::FreshJ2 => 2,
            Phase::FreshJ1 | Phase::Cached => 1,
        }
    }
}

/// Manifest checkpoint cadence of `StoreOptions::new`, which the traced
/// re-drive reproduces.
const CHECKPOINT_ROWS: usize = 64;

/// The grid. Seeds `seed .. seed + 5` are the seed axis, so the harness's
/// `--seed` changes every row's random streams and every store digest.
pub fn grid_spec(seed: u64, scale: Scale) -> ScenarioSpec {
    let spec = ScenarioSpec::new("sweep-grid")
        .cca(CcaSpec::new("vegas", |_s| Box::new(cca::Vegas::default_params())))
        .cca(CcaSpec::new("bbr", |s| Box::new(cca::Bbr::new(1500, s))))
        .duration(Dur::from_secs(2))
        .sample_every(Dur::from_millis(10));
    if scale == Scale::Smoke {
        let seeds: Vec<u64> = (0..3).map(|i| seed.wrapping_add(i)).collect();
        return spec.rates_mbps(&[12.0]).rtts_ms(&[20, 40]).jitters_ms(&[0, 5]).seeds(&seeds);
    }
    let seeds: Vec<u64> = (0..6).map(|i| seed.wrapping_add(i)).collect();
    spec.cca(CcaSpec::new("copa", |_s| Box::new(cca::Copa::default_params())))
        .cca(CcaSpec::new("reno", |_s| Box::new(cca::NewReno::default_params())))
        .rates_mbps(&[12.0, 24.0])
        .rtts_ms(&[20, 40])
        .jitters_ms(&[0, 2, 5, 10])
        .seeds(&seeds)
}

/// Every file under a store root as `(relative path, bytes)`, sorted.
pub fn store_snapshot(root: &Path) -> Vec<(String, Vec<u8>)> {
    fn walk(dir: &Path, root: &Path, out: &mut Vec<(String, Vec<u8>)>) {
        let Ok(entries) = std::fs::read_dir(dir) else { return };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, root, out);
            } else if let Ok(bytes) = std::fs::read(&path) {
                let rel = path.strip_prefix(root).unwrap_or(&path).to_string_lossy().into_owned();
                out.push((rel, bytes));
            }
        }
    }
    let mut out = Vec::new();
    walk(root, root, &mut out);
    out.sort();
    out
}

/// A prepared sweep workload.
pub struct SweepGrid<'s> {
    phase: Phase,
    spec: ScenarioSpec,
    rows: usize,
    scratch: &'s Scratch,
    /// What a jobs-1 fresh run leaves in its store; every fresh run, at
    /// any worker count, must leave exactly these bytes.
    reference: Vec<(String, Vec<u8>)>,
    /// Cached phase: the populated store. Fresh phases: the store the
    /// last unit wrote, until `settle` has compared and removed it.
    store_dir: Option<PathBuf>,
    /// The last unit was the harness re-drive, which keeps no manifest of
    /// the engine's name.
    redriven: bool,
    setup: Tally,
}

impl<'s> SweepGrid<'s> {
    /// Expand the grid, run it once fresh at jobs 1 (the warm-up, and the
    /// reference store contents), and for the cached workload keep that
    /// store as the one every unit re-reads.
    pub fn prepare(seed: u64, scale: Scale, scratch: &'s Scratch, phase: Phase) -> SweepGrid<'s> {
        let spec = grid_spec(seed, scale);
        let rows = spec.points().len();
        let mut w = SweepGrid {
            phase,
            spec,
            rows,
            scratch,
            reference: Vec::new(),
            store_dir: None,
            redriven: false,
            setup: Tally::default(),
        };
        let dir = scratch.fresh("store");
        let report = w.incremental(1, &dir);
        w.setup.check(report.executed == rows && report.cached == 0 && report.panics() == 0);
        w.reference = store_snapshot(&dir);
        // rows + one manifest
        w.setup.check(w.reference.len() == rows + 1);
        if phase == Phase::Cached {
            w.store_dir = Some(dir);
        } else {
            let _ = std::fs::remove_dir_all(&dir);
        }
        w
    }

    /// Switch a fresh-phase workload to the other worker count; the grid,
    /// the reference bytes and the checks are the same.
    pub fn set_fresh_phase(&mut self, phase: Phase) {
        assert!(self.phase != Phase::Cached && phase != Phase::Cached, "only fresh phases interchange");
        self.phase = phase;
    }

    /// Rows in the grid.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// The grid through the in-memory runner (`Sweep::run`), which holds
    /// every `SimResult` and touches no store: the yardstick for merging
    /// the two runners.
    pub fn in_memory(&self) -> Tally {
        let report = Sweep::new("sweep-grid").jobs(1).timing_off().run(self.spec.expand());
        let mut t = Tally { work: report.rows.len() as u64, ..Tally::default() };
        t.check(report.panics() == 0 && report.rows.len() == self.rows);
        t
    }

    /// What the engine adds to the stages it is made of, in seconds for
    /// the whole grid: planning, the job queue, progress closures, report
    /// assembly and the aggregate fold. The grid's jobs are stripped of
    /// their content keys, which makes them uncacheable — `run_incremental`
    /// simulates and summarises every row but persists none — so neither
    /// side of the difference touches the disk: the engine's wall time
    /// minus the same simulate-and-summarise loop run from here.
    pub fn engine_overhead_secs(&self) -> f64 {
        let keyless = || -> Vec<SweepJob> {
            self.spec.expand().into_iter().map(|j| SweepJob::new(j.label, j.config)).collect()
        };
        let dir = self.scratch.fresh("store");
        let jobs = keyless();
        let t0 = crate::host::host_now();
        let report = Sweep::new("sweep-grid").jobs(1).timing_off().run_incremental(jobs, &StoreOptions::new(&dir));
        let engine = crate::host::secs_since(t0);
        assert_eq!(report.uncacheable, self.rows, "keyless jobs are uncacheable");
        let _ = std::fs::remove_dir_all(&dir);

        let jobs = keyless();
        let t0 = crate::host::host_now();
        for job in jobs {
            let result = Network::new(job.config).run();
            std::hint::black_box(RowSummary::of(&job.label, job.meta, &result));
        }
        engine - crate::host::secs_since(t0)
    }

    fn incremental(&self, jobs: usize, dir: &Path) -> starvation::sweep::IncrementalReport {
        Sweep::new("sweep-grid")
            .jobs(jobs)
            .timing_off()
            .run_incremental(self.spec.expand(), &StoreOptions::new(dir))
    }

    /// Where this unit's store lives: the populated one when cached, a
    /// new empty directory when fresh.
    fn unit_dir(&mut self) -> PathBuf {
        match self.phase {
            Phase::Cached => self.store_dir.clone().expect("cached phase keeps its store"),
            Phase::FreshJ1 | Phase::FreshJ2 => {
                let dir = self.scratch.fresh("store");
                self.store_dir = Some(dir.clone());
                dir
            }
        }
    }

    /// One simulated row, stage by stage, with a span on each boundary.
    fn traced_row(op: usize, job: SweepJob, store: &Store, log: &mut SpanLog) -> (simcore::store::Digest, bool) {
        log.begin_op(op as u64 + 1);
        let row_span = log.open_span("sweep.row");
        let digest = log.timed("core.sweep.digest", || job.digest()).expect("grid jobs are keyed");
        let result = log.timed("netsim.run", || Network::new(job.config).run());
        let row = log.timed("core.sweep.row_summary", || RowSummary::of(&job.label, job.meta, &result));
        drop(result);
        let bytes = log.timed("core.sweep.encode", || row.to_store_bytes());
        let ok = log.timed("simcore.store.write", || store.write(&digest, &bytes)).is_ok();
        log.close_span(row_span);
        (digest, ok)
    }

    /// A fresh sweep re-driven from the harness: what `run_incremental`
    /// does for a grid with nothing cached, one public call per stage.
    fn traced_fresh(&mut self, log: &mut SpanLog) -> Tally {
        let dir = self.unit_dir();
        let jobs = self.phase.jobs();
        let unit_span = log.open_span("sweep.unit");
        let job_list = log.timed("core.sweep.expand", || self.spec.expand());
        let store = log.timed("simcore.store.open", || Store::open(&dir)).expect("store opens in scratch");
        let manifest_path = dir.join("sweep-traced.manifest");
        let mut manifest = Manifest::new("sweep-grid", store.tag(), job_list.len());
        let mut t = Tally::default();
        if jobs == 1 {
            for (i, job) in job_list.into_iter().enumerate() {
                let (digest, ok) = Self::traced_row(i, job, &store, log);
                t.check(ok);
                t.work += 1;
                manifest.done.push(digest);
                if manifest.done.len().is_multiple_of(CHECKPOINT_ROWS) {
                    t.check(log.timed("simcore.store.manifest_save", || manifest.save(&manifest_path)).is_ok());
                }
            }
        } else {
            // Workers record into their own logs; the spans are adopted
            // under the unit's span once the pool has drained.
            let pool_span = log.open_span("simcore.par.map");
            let reports = par::map(
                job_list,
                jobs,
                |i, job| {
                    let mut local = log.fork();
                    let (digest, ok) = Self::traced_row(i, job, &store, &mut local);
                    (digest, ok, local)
                },
                None,
            );
            log.close_span(pool_span);
            for report in reports {
                match report.outcome {
                    par::JobOutcome::Ok((digest, ok, local)) => {
                        t.check(ok);
                        t.work += 1;
                        manifest.done.push(digest);
                        log.adopt(local, Some(pool_span));
                    }
                    par::JobOutcome::Panicked(_) => t.check(false),
                }
            }
        }
        t.check(log.timed("simcore.store.manifest_save", || manifest.save(&manifest_path)).is_ok());
        let _ = std::fs::remove_file(&manifest_path);
        self.redriven = true;
        log.close_span(unit_span);
        t
    }

    /// A fully cached sweep re-driven from the harness: probe, validate
    /// and decode every row, then checkpoint.
    fn traced_cached(&mut self, log: &mut SpanLog) -> Tally {
        let dir = self.unit_dir();
        let unit_span = log.open_span("sweep.unit");
        let job_list = log.timed("core.sweep.expand", || self.spec.expand());
        let store = log.timed("simcore.store.open", || Store::open(&dir)).expect("store opens in scratch");
        let mut manifest = Manifest::new("sweep-grid", store.tag(), job_list.len());
        let mut t = Tally::default();
        for (i, job) in job_list.iter().enumerate() {
            log.begin_op(i as u64 + 1);
            let row_span = log.open_span("sweep.row");
            let digest = log.timed("core.sweep.digest", || job.digest()).expect("grid jobs are keyed");
            let bytes = log.timed("simcore.store.read", || store.read(&digest));
            let row = log.timed("core.sweep.decode", || {
                bytes.map_err(|e| e.to_string()).and_then(|b| RowSummary::from_store_bytes(&b))
            });
            log.close_span(row_span);
            t.check(row.is_ok_and(|r| r.label == job.label));
            t.work += 1;
            manifest.done.push(digest);
        }
        let manifest_path = dir.join("sweep-traced.manifest");
        t.check(log.timed("simcore.store.manifest_save", || manifest.save(&manifest_path)).is_ok());
        let _ = std::fs::remove_file(&manifest_path);
        log.close_span(unit_span);
        t
    }
}

impl Workload for SweepGrid<'_> {
    fn setup_tally(&self) -> Tally {
        self.setup
    }

    fn unit(&mut self) -> Tally {
        let dir = self.unit_dir();
        let report = self.incremental(self.phase.jobs(), &dir);
        let mut t = Tally { work: report.total as u64, ..Tally::default() };
        let (executed, cached) = match self.phase {
            Phase::Cached => (0, self.rows),
            Phase::FreshJ1 | Phase::FreshJ2 => (self.rows, 0),
        };
        t.check(!report.aborted && report.executed == executed && report.cached == cached);
        t.check(report.panics() == 0 && report.rows.len() == self.rows);
        t
    }

    fn traced_unit(&mut self, log: &mut SpanLog) -> Tally {
        match self.phase {
            Phase::Cached => self.traced_cached(log),
            Phase::FreshJ1 | Phase::FreshJ2 => self.traced_fresh(log),
        }
    }

    /// Fresh phases: the store the unit just wrote must hold exactly the
    /// reference bytes — every row entry, and after an engine run the
    /// manifest too — then it is removed.
    fn settle(&mut self) -> Tally {
        let mut t = Tally::default();
        let redriven = std::mem::take(&mut self.redriven);
        if self.phase == Phase::Cached {
            return t;
        }
        if let Some(dir) = self.store_dir.take() {
            let got = store_snapshot(&dir);
            let want = self.reference.iter().filter(|(path, _)| !(redriven && path.ends_with(".manifest")));
            t.check(got.iter().eq(want));
            let _ = std::fs::remove_dir_all(&dir);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_full_grid_has_384_rows_and_seeds_move_every_digest() {
        let a = grid_spec(1, Scale::Full).expand();
        assert_eq!(a.len(), 384);
        let b = grid_spec(7, Scale::Full).expand();
        let da: Vec<_> = a.iter().map(|j| j.digest().expect("keyed").hex()).collect();
        let db: Vec<_> = b.iter().map(|j| j.digest().expect("keyed").hex()).collect();
        assert!(da.iter().all(|d| !db.contains(d)), "seed 7 shares a row with seed 1");
        assert_eq!(grid_spec(1, Scale::Smoke).expand().len(), 24);
    }

    #[test]
    fn fresh_and_cached_units_pass_their_checks_and_leave_no_store_behind() {
        let scratch = Scratch::create().expect("scratch");
        for phase in [Phase::FreshJ1, Phase::FreshJ2, Phase::Cached] {
            let mut w = SweepGrid::prepare(4, Scale::Smoke, &scratch, phase);
            assert_eq!(w.setup_tally().failed, 0, "{phase:?}");
            let mut t = w.unit();
            t.absorb(w.settle());
            let mut log = SpanLog::default();
            t.absorb(w.traced_unit(&mut log));
            t.absorb(w.settle());
            assert_eq!(t.failed, 0, "{phase:?}");
            assert_eq!(t.work, 48, "{phase:?}");
            assert!(log.spans().iter().all(|s| s.end_ns >= s.start_ns));
            let stores = std::fs::read_dir(scratch.root()).expect("scratch").count();
            assert_eq!(stores, usize::from(phase == Phase::Cached), "{phase:?}");
        }
    }
}
