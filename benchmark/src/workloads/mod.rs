//! The workloads. Each is one fixed deterministic unit of product work,
//! built from `--seed` by the harness and repeated for the run length;
//! the product code sees only the generated inputs.
//!
//! A workload is driven two ways. [`Workload::unit`] calls the product
//! the way a user does (one library call per unit) and is what the
//! end-to-end metrics time, with no tracing anywhere. A traced run calls
//! [`Workload::traced_unit`] instead, which re-drives the same work step
//! by step from the harness so that a span sits on every layer boundary.

use crate::host::Scratch;
use crate::span::SpanLog;

pub mod canon_mix;
pub mod figures;
pub mod fuzz_campaign;
pub mod population;
pub mod sweep_grid;

/// What one unit (or one set-up) did: work completed and operations
/// checked. An operation that produced a wrong output counts as failed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Work items completed (see `WorkloadDef::work_unit`).
    pub work: u64,
    /// Operations whose outcome was checked.
    pub attempted: u64,
    /// Checked operations with a wrong outcome.
    pub failed: u64,
}

impl Tally {
    /// Count one checked operation.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Fold another tally in.
    pub fn absorb(&mut self, other: Tally) {
        self.work += other.work;
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// How much of the full-size unit to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the metrics are defined on.
    Full,
    /// Roughly 1/20 of the work: a wiring check whose numbers mean
    /// nothing and whose output is stamped so it is never compared.
    Smoke,
}

/// A prepared workload.
pub trait Workload {
    /// Checks made while preparing (golden digests, run-twice identity).
    fn setup_tally(&self) -> Tally;
    /// One untraced unit.
    fn unit(&mut self) -> Tally;
    /// The same unit, re-driven with a span on each layer boundary.
    fn traced_unit(&mut self, log: &mut SpanLog) -> Tally;
    /// Untimed work between units: verify what the last unit left behind
    /// and clear it away.
    fn settle(&mut self) -> Tally {
        Tally::default()
    }
}

/// Generate `name`'s inputs from `seed`, verify them, and warm up.
/// `None` for an unknown name.
pub fn prepare<'s>(
    name: &str,
    seed: u64,
    scale: Scale,
    scratch: &'s Scratch,
) -> Option<Box<dyn Workload + 's>> {
    Some(match name {
        "canon-mix" => Box::new(canon_mix::CanonMix::prepare(seed, scale)),
        "population-10k" => Box::new(population::Population::prepare(seed, scale)),
        "sweep-grid-j1" => Box::new(sweep_grid::SweepGrid::prepare(seed, scale, scratch, sweep_grid::Phase::FreshJ1)),
        "sweep-grid-j2" => Box::new(sweep_grid::SweepGrid::prepare(seed, scale, scratch, sweep_grid::Phase::FreshJ2)),
        "sweep-cached" => Box::new(sweep_grid::SweepGrid::prepare(seed, scale, scratch, sweep_grid::Phase::Cached)),
        "fuzz-campaign" => Box::new(fuzz_campaign::FuzzCampaign::prepare(scale, scratch)),
        "figures-quick" => Box::new(figures::Figures::prepare(scale)),
        _ => return None,
    })
}

/// Run a simulation with every event folded into a [`TraceDigest`] under
/// the invariant auditor, as `tests/golden_traces.rs` does, and render the
/// digest in the golden-file format.
///
/// [`TraceDigest`]: simcore::trace::TraceDigest
pub fn audited_digest(cfg: netsim::SimConfig) -> simcore::trace::TraceDigest {
    use simcore::trace::{RingSink, TraceSink};
    let ring = RingSink::new(16);
    let probe = ring.clone();
    let cfg = cfg
        .with_trace(std::sync::Arc::new(move || Box::new(probe.clone()) as Box<dyn TraceSink>))
        .with_audit(true);
    netsim::Network::new(cfg).run();
    ring.digest()
}

/// The correctness gate for a canonical scenario. At seed 1 the inputs
/// are the frozen `.scn` files, so the digest must equal the committed
/// golden, read from `tests/golden/` at run time (a PR that re-blesses
/// the goldens needs no benchmark edit). Other seeds have no golden; the
/// check is that two runs of the same inputs agree.
pub fn digest_gate(name: &str, seed: u64, cfg: &netsim::SimConfig) -> bool {
    let got = audited_digest(cfg.clone()).render();
    if seed == 1 {
        let path = crate::host::repo_root().join("tests/golden").join(format!("{name}.digest"));
        match std::fs::read_to_string(&path) {
            Ok(want) => got == want,
            Err(e) => {
                eprintln!("spine: cannot read {}: {e}", path.display());
                false
            }
        }
    } else {
        got == audited_digest(cfg.clone()).render()
    }
}
