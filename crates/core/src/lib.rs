//! # starvation — the paper's contribution, as a library
//!
//! Machinery formalizing and reproducing *Starvation in End-to-End
//! Congestion Control* (Arun, Alizadeh, Balakrishnan — SIGCOMM 2022):
//!
//! * [`glossary`] — Table 1's symbols, documented in one place.
//! * [`runner`] — single-flow ideal-path runs (Definition 1's setting),
//!   recording RTT and rate trajectories.
//! * [`convergence`] — detects the converged region and measures
//!   `d_min(C)`, `d_max(C)`, `δ(C)` (Definition 1, Figure 1).
//! * [`profiler`] — rate–delay curves across a link-rate sweep
//!   (Figures 2 and 3).
//! * [`fairness`] — `s`-fairness, starvation, and `f`-efficiency checks
//!   (Definitions 2–4).
//! * [`pigeonhole`] — step 1 of Theorem 1's proof: find `C₁, C₂` with
//!   `C₂ ≥ (s/f)·C₁` whose converged delay ranges lie within an
//!   `ε`-interval (Figure 4).
//! * [`emulation`] — step 3: the shared-queue delay `d*(t)` (Eq. 5), the
//!   per-flow jitter schedules `η₁(t), η₂(t)`, and their feasibility
//!   check `0 ≤ ηᵢ ≤ D` (Figure 6).
//! * [`theorem1`] — the end-to-end starvation construction: pigeonhole →
//!   record trajectories (Figure 5) → build the 2-flow scenario → run it
//!   and measure the throughput ratio.
//! * [`theorem2`] — the under-utilization construction: any CCA with
//!   `d_max(C) ≤ D` can be driven to arbitrarily low utilization.
//! * [`theorem3`] — the strong-model iterative construction
//!   (`d_{k+1} = max(0, d_k − D)`).
//! * [`merit`] — §6.3's figure of merit `µ₊/µ₋` for the Vegas family
//!   (Eq. 1) vs the exponential mapping (Eq. 2).
//! * [`paper`] — the paper's experiment scenarios (§5.1–§5.4, Figure 7,
//!   §6.3), each built in one constructor that `repro`, the integration
//!   tests and the examples share.
//! * [`canon`] — canonical trace scenarios: five frozen configurations
//!   backing the golden-trace regression suite and `repro trace`.
//! * [`sweep`] — the parallel sweep engine: declarative scenario grids
//!   ([`sweep::ScenarioSpec`]) expanded into `SimConfig`s and executed
//!   order-preservingly across a worker pool ([`simcore::par`]), with
//!   per-job panic isolation and an optional content-addressed result
//!   store.
//!
//! # Example
//!
//! Measure a CCA's delay-convergence (Definition 1) on an ideal path:
//!
//! ```
//! use simcore::units::{Dur, Rate};
//! use starvation::{analyze_convergence, run_ideal_path, RunSpec};
//!
//! let spec = RunSpec::new(Rate::from_mbps(24.0), Dur::from_millis(40), Dur::from_secs(8));
//! let run = run_ideal_path(Box::new(cca::Vegas::default_params()), spec);
//! let conv = analyze_convergence(&run.rtt, 0.5, 1e-4).expect("Vegas converges");
//! // Vegas holds a couple of packets of queue above the 40 ms floor.
//! assert!(conv.d_min >= 0.040);
//! assert!(conv.delta() < 0.010);
//! ```

pub mod canon;
pub mod convergence;
pub mod emulation;
pub mod fairness;
pub mod glossary;
pub mod merit;
pub mod paper;
pub mod pigeonhole;
pub mod profiler;
pub mod runner;
pub mod sweep;
pub mod theorem1;
pub mod theorem2;
pub mod theorem3;

pub use canon::{canonical_scenario, CANONICAL};
pub use convergence::{analyze_convergence, ConvergenceReport};
pub use emulation::{EmulationPlan, plan_emulation};
pub use fairness::{check_f_efficiency, check_s_fairness};
pub use pigeonhole::{pigeonhole_search, PigeonholeResult};
pub use profiler::{profile_rate_delay, ProfilePoint};
pub use runner::{run_ideal_path, IdealRun, RunSpec};
pub use sweep::{CcaSpec, ScenarioSpec, Sweep, SweepJob, SweepReport, SweepRow};
pub use theorem1::{run_theorem1, Theorem1Config, Theorem1Report};
pub use theorem2::{run_theorem2, Theorem2Config, Theorem2Report};
pub use theorem3::{run_theorem3, Theorem3Config, Theorem3Report};
