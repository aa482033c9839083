//! `figures-quick`: every `repro all` experiment through its library
//! `run*(quick, jobs = 1)` function.
//!
//! The user-visible "regenerate the paper" end, and the only exerciser of
//! the `core` theorem machinery, `ccmc`, and the in-memory `Sweep::run`
//! with long rows (where per-row overhead is nil). `repro sweep` is left
//! out: the sweep workloads cover the store path. Experiments carry their
//! own seeds, so `--seed` does not reach this workload.
//!
//! The library functions are called, never the CLI: `repro … --quick`
//! overwrites the committed full-mode CSVs under `results/`.

use super::{Scale, Tally, Workload};
use crate::span::{timed, SpanLog};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// One experiment: run it at quick size on one worker, report how many
/// bytes of report it rendered (0 would mean it silently did nothing).
pub type Experiment = (&'static str, fn() -> usize);

/// The experiments in `repro all` order; names match
/// `registry::FIGURES`.
pub const EXPERIMENTS: &[Experiment] = &[
    ("fig1", || repro::fig1::run(true).series.len()),
    ("fig2", || repro::fig2::run(true).table().render().len()),
    ("fig3", || repro::fig3::run(true).table().render().len()),
    ("thm", || repro::exp_theorems::run(true).fig4_table().render().len()),
    ("fig7", || repro::fig7::run(true).rows.len()),
    ("copa", || repro::exp_copa::run(true).table().render().len()),
    ("bbr", || repro::exp_bbr::run(true).table().render().len()),
    ("vivace", || repro::exp_vivace::run(true).table().render().len()),
    ("allegro", || repro::exp_allegro::run(true).table().render().len()),
    ("merit", || repro::exp_merit::run_with(true, 1).table().render().len()),
    ("algo1", || repro::exp_algo1::run(true).table().render().len()),
    ("ccmc", || repro::exp_ccmc::run(true).table().render().len()),
    ("ablations", || repro::exp_ablations::run_with(true, 1).table().render().len()),
    ("ecn", || repro::exp_ecn::run(true).table().render().len()),
    ("boundary", || repro::exp_boundary::run_with(true, 1).table().render().len()),
    ("seeds", || repro::exp_seeds::run_with(true, 1).table().render().len()),
];

/// Experiments a smoke run keeps (the three cheapest that still touch
/// `core`, `netsim` and the in-memory sweep).
const SMOKE: &[&str] = &["fig1", "merit", "ecn"];

/// Run one experiment, catching a panic as a failed operation.
pub fn run_experiment(e: &Experiment) -> bool {
    catch_unwind(AssertUnwindSafe(e.1)).is_ok_and(|rows| rows > 0)
}

/// The prepared pass.
pub struct Figures {
    pass: Vec<&'static Experiment>,
    setup: Tally,
}

impl Figures {
    /// There are no inputs to generate; set-up is the warm-up, which runs
    /// the three cheap experiments once.
    pub fn prepare(scale: Scale) -> Figures {
        let pass: Vec<&Experiment> = EXPERIMENTS
            .iter()
            .filter(|(name, _)| scale == Scale::Full || SMOKE.contains(name))
            .collect();
        let mut setup = Tally::default();
        for e in EXPERIMENTS.iter().filter(|(name, _)| SMOKE.contains(name)) {
            setup.check(run_experiment(e));
        }
        Figures { pass, setup }
    }

    fn drive(&self, mut log: Option<&mut SpanLog>) -> Tally {
        let mut t = Tally::default();
        for (i, e) in self.pass.iter().enumerate() {
            if let Some(l) = log.as_deref_mut() {
                l.begin_op(i as u64 + 1);
            }
            let ok = timed(&mut log, e.0, || run_experiment(e));
            t.work += 1;
            t.check(ok);
        }
        t
    }
}

impl Workload for Figures {
    fn setup_tally(&self) -> Tally {
        self.setup
    }

    fn unit(&mut self) -> Tally {
        self.drive(None)
    }

    fn traced_unit(&mut self, log: &mut SpanLog) -> Tally {
        self.drive(Some(log))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiment_names_match_the_registry_in_order() {
        let names: Vec<&str> = EXPERIMENTS.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, crate::registry::FIGURES);
    }

    #[test]
    fn a_smoke_pass_runs_its_three_experiments() {
        let mut w = Figures::prepare(Scale::Smoke);
        let t = w.unit();
        assert_eq!((t.work, t.attempted, t.failed), (3, 3, 0));
    }
}
