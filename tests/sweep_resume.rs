//! Fault injection: a sweep killed at **every** checkpoint boundary
//! resumes and converges to the exact store an uninterrupted run
//! produces.
//!
//! The kill is injected via [`StoreOptions::kill_after`], the test-only
//! hook that stops the run after N rows have been persisted *without*
//! writing a final manifest — precisely what a `kill -9` between a row's
//! atomic rename and the next checkpoint leaves on disk. For every
//! possible boundary N of an 8-row grid this suite asserts, against a
//! fresh uninterrupted serial baseline:
//!
//! * nothing is lost — the resumed run finds all N persisted rows cached;
//! * nothing is re-executed — the resume runs exactly `8 - N` jobs;
//! * nothing is duplicated — the final store holds exactly 8 entries;
//! * the bytes converge — every store file (entries *and* the sweep
//!   manifest) is byte-identical to the baseline's.

use starvation::sweep::{CcaSpec, ScenarioSpec, StoreOptions, Sweep};
use simcore::store::{Manifest, Store};
use simcore::units::Dur;
use std::path::{Path, PathBuf};

/// The grid under test: 8 fast points (2 rates × 2 jitters × 2 seeds).
fn grid() -> ScenarioSpec {
    ScenarioSpec::new("resume-suite")
        .cca(CcaSpec::new("const", |_s| {
            Box::new(cca::ConstCwnd::new(20 * 1500))
        }))
        .rates_mbps(&[12.0, 24.0])
        .rtts_ms(&[40])
        .jitters_ms(&[0, 5])
        .seeds(&[1, 2])
        .duration(Dur::from_secs(2))
}

const GRID_ROWS: usize = 8;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sweep_resume_{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Every file under the store, as sorted (relative path, contents) pairs —
/// the byte-level identity two stores are compared by.
fn store_files(root: &Path) -> Vec<(String, Vec<u8>)> {
    fn walk(root: &Path, dir: &Path, out: &mut Vec<(String, Vec<u8>)>) {
        for entry in std::fs::read_dir(dir).expect("store dir readable") {
            let path = entry.expect("store dir entry").path();
            if path.is_dir() {
                walk(root, &path, out);
            } else {
                let rel = path
                    .strip_prefix(root)
                    .expect("entry under root")
                    .to_string_lossy()
                    .into_owned();
                out.push((rel, std::fs::read(&path).expect("store file readable")));
            }
        }
    }
    let mut out = Vec::new();
    walk(root, root, &mut out);
    out.sort();
    out
}

#[test]
fn kill_at_every_checkpoint_boundary_converges_to_baseline_bytes() {
    // Uninterrupted serial baseline.
    let base_dir = tmp("baseline");
    let base = Sweep::new("resume-suite")
        .jobs(1)
        .run_incremental(grid().expand(), &StoreOptions::new(&base_dir).checkpoint_rows(1));
    assert!(!base.aborted);
    assert_eq!(base.executed, GRID_ROWS);
    let base_files = store_files(&base_dir);
    assert_eq!(
        base_files.len(),
        GRID_ROWS + 1,
        "8 entries + 1 manifest, got {:?}",
        base_files.iter().map(|(p, _)| p).collect::<Vec<_>>()
    );
    let base_rows: Vec<Vec<u8>> = base
        .rows
        .iter()
        .map(|r| r.outcome.as_ref().expect("baseline row runs").to_store_bytes())
        .collect();

    // Kill after every possible number of persisted rows, then resume.
    for kill_n in 1..GRID_ROWS {
        let dir = tmp(&format!("kill{kill_n}"));
        let killed = Sweep::new("resume-suite").jobs(1).run_incremental(
            grid().expand(),
            &StoreOptions::new(&dir).checkpoint_rows(1).kill_after(Some(kill_n)),
        );
        assert!(killed.aborted, "kill_n={kill_n}");
        assert_eq!(killed.executed, kill_n, "kill hook stops after exactly N rows");

        let resumed = Sweep::new("resume-suite")
            .jobs(1)
            .run_incremental(grid().expand(), &StoreOptions::new(&dir).checkpoint_rows(1));
        assert!(!resumed.aborted);
        assert_eq!(resumed.cached, kill_n, "kill_n={kill_n}: no persisted row is lost");
        assert_eq!(
            resumed.executed,
            GRID_ROWS - kill_n,
            "kill_n={kill_n}: no completed row is re-executed"
        );
        assert!(resumed.recomputed.is_empty(), "kill leaves no invalid entries");

        let files = store_files(&dir);
        assert_eq!(files.len(), GRID_ROWS + 1, "kill_n={kill_n}: no duplicated entries");
        assert_eq!(
            files, base_files,
            "kill_n={kill_n}: resumed store is byte-identical to the uninterrupted baseline"
        );

        let rows: Vec<Vec<u8>> = resumed
            .rows
            .iter()
            .map(|r| r.outcome.as_ref().expect("resumed row present").to_store_bytes())
            .collect();
        assert_eq!(rows, base_rows, "kill_n={kill_n}: report rows are byte-identical");
        let _ = std::fs::remove_dir_all(&dir);
    }
    let _ = std::fs::remove_dir_all(&base_dir);
}

#[test]
fn manifest_never_runs_ahead_of_the_store() {
    // Store writers list a digest only after its entry's rename returned,
    // so whatever checkpoint a kill leaves behind names only readable
    // entries — at every boundary, whichever thread took the snapshot.
    let base_dir = tmp("ahead_baseline");
    let _ = Sweep::new("resume-suite")
        .jobs(1)
        .run_incremental(grid().expand(), &StoreOptions::new(&base_dir).checkpoint_rows(1));
    let base_files = store_files(&base_dir);

    for jobs in [1, 2] {
        let fresh_dir = tmp(&format!("ahead_fresh_j{jobs}"));
        let fresh = Sweep::new("resume-suite")
            .jobs(jobs)
            .run_incremental(grid().expand(), &StoreOptions::new(&fresh_dir).checkpoint_rows(1));
        assert_eq!(fresh.executed, GRID_ROWS);
        assert_eq!(
            store_files(&fresh_dir),
            base_files,
            "jobs={jobs}: a fresh store is byte-identical to the serial baseline"
        );
        let _ = std::fs::remove_dir_all(&fresh_dir);

        for kill_n in 1..GRID_ROWS {
            let dir = tmp(&format!("ahead_j{jobs}_kill{kill_n}"));
            let killed = Sweep::new("resume-suite").jobs(jobs).run_incremental(
                grid().expand(),
                &StoreOptions::new(&dir).checkpoint_rows(1).kill_after(Some(kill_n)),
            );
            assert!(killed.aborted, "jobs={jobs} kill_n={kill_n}");
            if let Some(manifest) = Manifest::load(&killed.manifest_path) {
                let store = Store::open(&dir).expect("killed store opens");
                assert!(manifest.done.len() <= killed.executed, "jobs={jobs} kill_n={kill_n}");
                for d in &manifest.done {
                    assert!(
                        store.read(d).is_ok(),
                        "jobs={jobs} kill_n={kill_n}: manifest lists {} but the store cannot serve it",
                        d.hex()
                    );
                }
            }

            let resumed = Sweep::new("resume-suite")
                .jobs(jobs)
                .run_incremental(grid().expand(), &StoreOptions::new(&dir).checkpoint_rows(1));
            assert_eq!(resumed.cached, killed.executed, "jobs={jobs} kill_n={kill_n}");
            assert_eq!(store_files(&dir), base_files, "jobs={jobs} kill_n={kill_n}");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    let _ = std::fs::remove_dir_all(&base_dir);
}

#[test]
fn parallel_killed_sweep_converges_too() {
    // At jobs=4 the abort flag lets in-flight workers finish, so the
    // number persisted before death varies between N and N+3 — the
    // convergence contract (resume completes the rest, bytes match the
    // serial baseline) must hold regardless.
    let base_dir = tmp("par_baseline");
    let _ = Sweep::new("resume-suite")
        .jobs(1)
        .run_incremental(grid().expand(), &StoreOptions::new(&base_dir).checkpoint_rows(1));
    let base_files = store_files(&base_dir);

    let dir = tmp("par_kill");
    let killed = Sweep::new("resume-suite").jobs(4).run_incremental(
        grid().expand(),
        &StoreOptions::new(&dir).checkpoint_rows(1).kill_after(Some(3)),
    );
    assert!(killed.aborted);
    assert!(killed.executed >= 3, "at least the trigger count persisted");
    assert!(killed.executed < GRID_ROWS, "the kill fired before completion");

    let resumed = Sweep::new("resume-suite")
        .jobs(4)
        .run_incremental(grid().expand(), &StoreOptions::new(&dir).checkpoint_rows(1));
    assert!(!resumed.aborted);
    assert_eq!(resumed.cached, killed.executed, "every persisted row survives");
    assert_eq!(resumed.executed, GRID_ROWS - killed.executed);
    assert_eq!(
        store_files(&dir),
        base_files,
        "parallel killed+resumed store is byte-identical to the serial baseline"
    );
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&base_dir);
}

#[test]
fn double_kill_still_converges() {
    // Two consecutive crashes before completion: each resume picks up
    // where the last death left off.
    let base_dir = tmp("dbl_baseline");
    let _ = Sweep::new("resume-suite")
        .jobs(1)
        .run_incremental(grid().expand(), &StoreOptions::new(&base_dir).checkpoint_rows(1));
    let base_files = store_files(&base_dir);

    let dir = tmp("dbl_kill");
    let first = Sweep::new("resume-suite").jobs(1).run_incremental(
        grid().expand(),
        &StoreOptions::new(&dir).checkpoint_rows(1).kill_after(Some(2)),
    );
    assert!(first.aborted);
    let second = Sweep::new("resume-suite").jobs(1).run_incremental(
        grid().expand(),
        &StoreOptions::new(&dir).checkpoint_rows(1).kill_after(Some(3)),
    );
    assert!(second.aborted);
    assert_eq!(second.cached, 2, "second attempt resumes past the first crash");

    let final_run = Sweep::new("resume-suite")
        .jobs(1)
        .run_incremental(grid().expand(), &StoreOptions::new(&dir).checkpoint_rows(1));
    assert!(!final_run.aborted);
    assert_eq!(final_run.cached, 5, "2 + 3 rows survived the two crashes");
    assert_eq!(final_run.executed, 3);
    assert_eq!(store_files(&dir), base_files);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&base_dir);
}

#[test]
fn completed_grid_reruns_zero_jobs_any_worker_count() {
    let dir = tmp("zero_rerun");
    let first = Sweep::new("resume-suite")
        .jobs(2)
        .run_incremental(grid().expand(), &StoreOptions::new(&dir));
    assert_eq!(first.executed, GRID_ROWS);
    let snapshot = store_files(&dir);
    for jobs in [1, 4] {
        let rerun = Sweep::new("resume-suite")
            .jobs(jobs)
            .run_incremental(grid().expand(), &StoreOptions::new(&dir));
        assert_eq!(rerun.executed, 0, "jobs={jobs}: complete grid is a full cache hit");
        assert_eq!(rerun.cached, GRID_ROWS);
        assert_eq!(store_files(&dir), snapshot, "jobs={jobs}: cache hits never write");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
