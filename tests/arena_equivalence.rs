//! Simulator-level pins for the arena packet store.
//!
//! The sender's per-sequence bookkeeping moved from four B-tree
//! containers to the flat slot arena ([`netsim::PktStore`]). The B-tree
//! containers survive as the reference in `PktStore`'s own test module,
//! where a seeded lockstep test compares the two store by store, operation
//! by operation. This file pins what that substitution means for whole
//! runs:
//!
//! * the audited trace digest of every cell of a seeded loss/SACK-heavy
//!   grid, chosen to hammer exactly the paths the arena rewrote (SACK
//!   merges, hole detection, RTO drains, datagram go-front scans);
//! * the byte-accounting regression for partial final segments: a
//!   Pareto-sized workload (sizes almost never a multiple of the MSS) runs
//!   under the trace auditor, whose per-ACK identity
//!   `sent + spurious_rtx = delivered + in_flight + lost + unresolved`
//!   is the oracle that per-packet byte accounting stays exact, and its
//!   digest is pinned too;
//! * the batched wheel pop dispatches in exactly the order a single-pop
//!   loop produces, including same-time events scheduled mid-batch.
//!
//! The digests under `tests/golden/arena/` were recorded while the network
//! could still run on either store, with the arena and the reference
//! asserted to produce the same digest on every configuration; the
//! canonical scenarios are pinned by `tests/golden_traces.rs`.

use netsim::{
    ArrivalProcess, FlowConfig, Jitter, LinkConfig, Network, SimConfig, SimResult, SizeDist,
    Workload,
};
use simcore::rng::Xoshiro256;
use simcore::trace::{RingSink, TraceSink};
use simcore::units::{Dur, Rate, Time};
use simcore::wheel::TimerWheel;
use std::path::PathBuf;
use std::sync::Arc;

/// Run `cfg` under the auditor, digest its trace in the golden format, and
/// compare against `tests/golden/arena/<name>.digest`.
fn assert_pinned(name: &str, cfg: SimConfig) -> SimResult {
    let ring = RingSink::new(16);
    let probe = ring.clone();
    let cfg = cfg
        .with_trace(Arc::new(move || Box::new(probe.clone()) as Box<dyn TraceSink>))
        .with_audit(true);
    let res = Network::new(cfg).run();
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden/arena")
        .join(format!("{name}.digest"));
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing pinned digest {}: {e}", path.display()));
    assert_eq!(ring.digest().render(), want, "{name}: trace digest diverged from the pin");
    res
}

/// One cell of the loss/SACK-heavy grid: two adaptive reliable flows with
/// Bernoulli loss and jitter (SACK merges, hole detection, fast
/// retransmit, RTO) plus a lossy datagram flow (the go-front scan path).
fn grid_config(seed: u64, loss: f64) -> SimConfig {
    let link = LinkConfig::bdp_buffer(Rate::from_mbps(30.0), Dur::from_millis(40), 0.8);
    let f1 = FlowConfig::bulk(Box::new(cca::Bbr::new(1500, seed)), Dur::from_millis(40))
        .with_jitter(Jitter::Random {
            max: Dur::from_millis(4),
            rng: Xoshiro256::new(seed.wrapping_mul(3).wrapping_add(1)),
        })
        .with_loss(loss, seed.wrapping_add(100));
    let f2 = FlowConfig::bulk(Box::new(cca::Cubic::default_params()), Dur::from_millis(60))
        .with_loss(2.0 * loss, seed.wrapping_add(200));
    let f3 = FlowConfig::bulk(
        Box::new(cca::Vivace::new(seed.wrapping_add(7))),
        Dur::from_millis(50),
    )
    .with_transport(netsim::Transport::Datagram)
    .with_loss(loss, seed.wrapping_add(300));
    SimConfig::new(link, vec![f1, f2, f3], Dur::from_secs(5))
}

/// Every grid cell reproduces the digest the arena and the reference
/// store agreed on.
#[test]
fn arena_matches_reference_on_loss_sack_grid() {
    for seed in [1u64, 7, 42] {
        for loss in [0.005, 0.03] {
            let res = assert_pinned(&format!("grid-seed{seed}-loss{loss}"), grid_config(seed, loss));
            // Sanity: the grid actually exercises the rewritten paths.
            assert!(
                res.flows.iter().any(|f| f.lost_bytes > 0),
                "grid cell seed={seed} loss={loss} saw no loss"
            );
        }
    }
}

/// Satellite regression: byte accounting must stay exact for finite
/// transfers whose size is not a multiple of the MSS. The Pareto size
/// distribution makes ragged sizes the common case; the auditor checks
/// `sent + spurious_rtx = delivered + in_flight + lost + unresolved`
/// per-packet on every ACK and panics the run on the first violation.
#[test]
fn pareto_sized_flows_keep_exact_byte_accounting_under_audit() {
    let link = LinkConfig::bdp_buffer(Rate::from_mbps(20.0), Dur::from_millis(30), 1.0);
    let wl = Workload::new(
        40,
        ArrivalProcess::Poisson {
            mean: Dur::from_millis(40),
            seed: 11,
        },
        SizeDist::Pareto {
            min_bytes: 2001, // never a multiple of the 1500-byte MSS
            alpha: 1.3,
            cap_bytes: 400_000,
            seed: 13,
        },
        Box::new(cca::NewReno::default_params()),
        Dur::from_millis(30),
    )
    .with_start(Time::from_millis(50))
    .with_jitter(Dur::from_millis(2), 17)
    .with_loss(0.02, 19);
    let cfg = SimConfig::new(link, Vec::new(), Dur::from_secs(12)).with_workload(wl);
    let res = assert_pinned("pareto-workload", cfg);
    let done = res.flows.iter().filter(|f| f.completed.is_some()).count();
    assert!(done > 10, "too few finite flows completed: {done}");
    assert!(
        res.flows.iter().any(|f| f.lost_bytes > 0),
        "loss never fired; the audit exercised nothing"
    );
}

/// Property test: draining the queue with `pop_batch_at_or_before` yields
/// exactly the `(time, payload)` sequence of a single-pop loop, under a
/// seeded schedule dense with ties and with same-time events scheduled
/// *during* dispatch (the follow-up pattern simulation handlers use).
#[test]
fn batched_pop_matches_single_pop_order() {
    fn run_single(seed: u64) -> Vec<(Time, u64)> {
        let (mut q, mut rng) = seeded_queue(seed);
        let mut out = Vec::new();
        let mut budget = 200u32; // follow-up events scheduled mid-dispatch
        while let Some((t, v)) = q.pop_at_or_before(Time::from_millis(u64::MAX / 2_000_000)) {
            out.push((t, v));
            maybe_follow_up(&mut q, &mut rng, t, v, &mut budget);
        }
        out
    }

    fn run_batched(seed: u64) -> Vec<(Time, u64)> {
        let (mut q, mut rng) = seeded_queue(seed);
        let mut out = Vec::new();
        let mut batch = Vec::new();
        let mut budget = 200u32;
        while let Some(t) = q.pop_batch_at_or_before(Time::from_millis(u64::MAX / 2_000_000), &mut batch)
        {
            for v in batch.drain(..) {
                out.push((t, v));
                maybe_follow_up(&mut q, &mut rng, t, v, &mut budget);
            }
        }
        out
    }

    fn seeded_queue(seed: u64) -> (TimerWheel<u64>, Xoshiro256) {
        let mut rng = Xoshiro256::new(seed);
        let mut q = TimerWheel::new();
        // A handful of tick-sharing time values so batches are non-trivial.
        let times: Vec<Time> = (0..40)
            .map(|_| Time(rng.next_u64() % 5_000_000))
            .collect();
        for i in 0..2000u64 {
            let t = times[(rng.next_u64() % times.len() as u64) as usize];
            q.schedule_at(t, i);
        }
        (q, rng)
    }

    /// Deterministically (from the shared PRNG stream) schedule follow-up
    /// events at the current instant or slightly later — the pattern that
    /// distinguishes batch semantics from a frozen snapshot of the queue.
    fn maybe_follow_up(q: &mut TimerWheel<u64>, rng: &mut Xoshiro256, t: Time, v: u64, budget: &mut u32) {
        if *budget == 0 {
            return;
        }
        match rng.next_u64() % 8 {
            0 => {
                *budget -= 1;
                q.schedule_at(t, 1_000_000 + v); // same-instant follow-up
            }
            1 => {
                *budget -= 1;
                q.schedule_at(t + Dur(1 + rng.next_u64() % 10_000), 2_000_000 + v);
            }
            _ => {}
        }
    }

    for seed in [3u64, 17, 99, 2024] {
        assert_eq!(run_single(seed), run_batched(seed), "seed {seed}");
    }
}
