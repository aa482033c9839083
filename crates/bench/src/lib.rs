//! # repro — the experiment harness
//!
//! One module per table/figure/experiment of the paper, each exposing a
//! `run(quick)` function that regenerates the artifact and returns a
//! printable report. The `repro` binary dispatches to them.
//!
//! `quick = true` shrinks durations so CI finishes fast; the
//! full settings match the paper's (60-second runs etc.). Absolute numbers
//! are not expected to match the paper's testbed — the *shape* (who
//! starves, by roughly what factor) is the reproduction target; see
//! EXPERIMENTS.md for side-by-side numbers.

pub mod exp_ablations;
pub mod exp_allegro;
pub mod exp_algo1;
pub mod exp_bbr;
pub mod exp_boundary;
pub mod exp_ccmc;
pub mod exp_copa;
pub mod exp_ecn;
pub mod exp_merit;
pub mod exp_seeds;
pub mod exp_sweep;
pub mod exp_theorems;
pub mod exp_vivace;
pub mod fig1;
pub mod fig2;
pub mod fig3;
pub mod fig7;
pub mod report;
pub mod table;

/// Where CSV outputs land (created on demand).
pub const RESULTS_DIR: &str = "results";

/// Ensure the results directory exists and return the path for `name`.
pub fn result_path(name: &str) -> std::path::PathBuf {
    let dir = std::path::Path::new(RESULTS_DIR);
    let _ = std::fs::create_dir_all(dir);
    dir.join(name)
}
