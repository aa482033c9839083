//! # testkit — hermetic in-repo test toolkit
//!
//! The workspace's reproducibility contract (bit-identical simulations for a
//! given seed) extends to the build itself: no registry dependencies, so the
//! suite compiles and runs with `--locked --offline` on a machine that has
//! never seen crates.io. This crate supplies the two pieces that used to
//! come from registry crates:
//!
//! * [`prop`] — a proptest-style property harness: composable generators
//!   seeded from [`simcore::rng::Xoshiro256`], fixed case counts, greedy
//!   shrinking toward a minimal counterexample, and failure output that is a
//!   ready-to-paste regression test (replaces `proptest`).
//! * [`harness`] — `run_one` (a parameterized single-flow run) and `mbps`,
//!   the helpers the emulator-invariant properties share. The paper's
//!   scenarios live in `starvation::paper`.
//!
//! Determinism is the point: a property run with the same
//! `TESTKIT_SEED`/`TESTKIT_CASES` is bit-identical, and the simulator's own
//! PRNG drives generation, so nothing about test outcomes depends on an
//! external crate's stream stability.
#![warn(missing_docs)]

pub mod harness;
pub mod prop;
