//! Integration: the simulator is a deterministic function of its
//! configuration. All randomness (jitter, Bernoulli loss, BBR/PCC probe
//! phasing) flows from explicitly-seeded [`simcore::rng::Xoshiro256`]
//! streams, so the same `SimConfig` must produce **bit-identical**
//! `SimResult`s — the property every paper figure, every `repro` run and
//! every shrunken testkit counterexample relies on to be reproducible.

use netsim::{FlowConfig, Jitter, LinkConfig, Network, SimConfig, SimResult};
use simcore::par;
use simcore::rng::Xoshiro256;
use simcore::series::TimeSeries;
use simcore::units::{Dur, Rate};
use starvation::sweep::SweepJob;

/// A scenario that exercises every randomness source at once: two adaptive
/// CCAs (BBR's probe phasing is itself seeded) on a shallow-buffer link,
/// each flow with random jitter and Bernoulli loss.
fn run(seed: u64) -> SimResult {
    let link = LinkConfig::bdp_buffer(Rate::from_mbps(40.0), Dur::from_millis(50), 1.0);
    let f1 = FlowConfig::bulk(Box::new(cca::Bbr::new(1500, seed)), Dur::from_millis(50))
        .with_jitter(Jitter::Random {
            max: Dur::from_millis(5),
            rng: Xoshiro256::new(seed.wrapping_mul(3).wrapping_add(1)),
        })
        .with_loss(0.01, seed.wrapping_add(100));
    let f2 = FlowConfig::bulk(
        Box::new(cca::Cubic::default_params()),
        Dur::from_millis(80),
    )
    .with_jitter(Jitter::Random {
        max: Dur::from_millis(3),
        rng: Xoshiro256::new(seed.wrapping_mul(5).wrapping_add(2)),
    })
    .with_loss(0.005, seed.wrapping_add(200));
    Network::new(SimConfig::new(link, vec![f1, f2], Dur::from_secs(8))).run()
}

/// Exact (bitwise) equality of two series, including timestamps.
fn series_bits(s: &TimeSeries) -> Vec<(u128, u64)> {
    s.points()
        .iter()
        .map(|&(t, v)| (t.as_nanos() as u128, v.to_bits()))
        .collect()
}

fn assert_bit_identical(a: &SimResult, b: &SimResult) {
    assert_eq!(a.end, b.end);
    assert_eq!(a.utilization.to_bits(), b.utilization.to_bits());
    assert_eq!(a.flows.len(), b.flows.len());
    for (i, (fa, fb)) in a.flows.iter().zip(&b.flows).enumerate() {
        assert_eq!(fa.id, fb.id, "flow {i} id");
        assert_eq!(fa.drops, fb.drops, "flow {i} drops");
        assert_eq!(fa.jitter_clamps, fb.jitter_clamps, "flow {i} jitter clamps");
        assert_eq!(fa.completed, fb.completed, "flow {i} completion");
        assert_eq!(fa.start, fb.start, "flow {i} start");
        assert_eq!(fa.sent_bytes, fb.sent_bytes, "flow {i} sent");
        assert_eq!(fa.lost_bytes, fb.lost_bytes, "flow {i} lost");
        assert_eq!(
            fa.retransmitted_bytes, fb.retransmitted_bytes,
            "flow {i} retransmitted"
        );
        assert_eq!(fa.fast_retransmits, fb.fast_retransmits, "flow {i} fr");
        assert_eq!(fa.timeouts, fb.timeouts, "flow {i} timeouts");
        assert_eq!(series_bits(&fa.rtt), series_bits(&fb.rtt), "flow {i} rtt");
        assert_eq!(
            series_bits(&fa.cwnd),
            series_bits(&fb.cwnd),
            "flow {i} cwnd"
        );
        assert_eq!(
            series_bits(&fa.pacing),
            series_bits(&fb.pacing),
            "flow {i} pacing"
        );
        assert_eq!(
            series_bits(&fa.delivered),
            series_bits(&fb.delivered),
            "flow {i} delivered"
        );
    }
}

#[test]
fn same_seed_is_bit_identical() {
    let a = run(42);
    let b = run(42);
    // Sanity: the scenario actually produced traffic and loss events, so
    // the comparison below covers non-trivial traces.
    assert!(a.flows[0].total_delivered() > 0);
    assert!(a.flows.iter().any(|f| f.lost_bytes > 0));
    assert_bit_identical(&a, &b);
}

#[test]
fn same_seed_is_bit_identical_across_fresh_network_objects() {
    // Paranoia for hidden global state: interleave construction and runs.
    let a = run(7);
    let _noise = run(1234); // a different simulation in between
    let b = run(7);
    assert_bit_identical(&a, &b);
}

/// Run a sweep's job list through the worker pool at `workers` workers and
/// keep every full `SimResult` (sweeps themselves keep only summaries).
/// The pool is what interleaves rows, so this is where bit identity
/// across worker counts is decided. Returns `(index, label, result)`.
fn pool_run(jobs: &[SweepJob], workers: usize, audit: bool) -> Vec<(usize, String, SimResult)> {
    let items: Vec<(String, SimConfig)> =
        jobs.iter().map(|j| (j.label.clone(), j.config.clone().with_audit(audit))).collect();
    par::map(items, workers, |_i, (label, cfg)| (label, Network::new(cfg).run()), None)
        .into_iter()
        .map(|r| {
            let (label, result) = r.outcome.expect("determinism row");
            (r.index, label, result)
        })
        .collect()
}

/// Serial (`jobs = 1`, inline on the calling thread) and parallel
/// (`jobs = 4`) pool runs of one job list: same order, same labels,
/// bit-identical results.
fn assert_pool_serial_matches_parallel(jobs: &[SweepJob], audit: bool) -> Vec<SimResult> {
    let serial = pool_run(jobs, 1, audit);
    let parallel = pool_run(jobs, 4, audit);
    assert_eq!(serial.len(), parallel.len());
    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!(s.0, p.0);
        assert_eq!(s.1, p.1);
        assert_bit_identical(&s.2, &p.2);
    }
    serial.into_iter().map(|(_, _, r)| r).collect()
}

/// The same scenario grid, expanded once and run at `jobs = 1` (inline on
/// the calling thread) and `jobs = 4` (worker pool): every row must come
/// back in the same order with a bit-identical result. This is the property
/// that makes `repro ... --jobs N` produce byte-identical CSVs at any
/// worker count; the sweep engine's own rows must agree byte for byte too.
#[test]
fn parallel_sweep_is_bit_identical_to_serial() {
    use starvation::sweep::{CcaSpec, ScenarioSpec, Sweep};

    let spec = ScenarioSpec::new("determinism")
        .cca(CcaSpec::new("bbr", |s| Box::new(cca::Bbr::new(1500, s))))
        .cca(CcaSpec::new("cubic", |_s| {
            Box::new(cca::Cubic::default_params())
        }))
        .rates_mbps(&[24.0])
        .rtts_ms(&[40, 80])
        .jitters_ms(&[0, 5])
        .seeds(&[1, 2])
        .duration(Dur::from_secs(3));
    let jobs = spec.expand();
    assert_eq!(jobs.len(), 16);

    assert_pool_serial_matches_parallel(&jobs, false);

    let serial = Sweep::new("det-serial").jobs(1).run(jobs.clone());
    let parallel = Sweep::new("det-parallel").jobs(4).run(jobs);
    assert_eq!(serial.rows.len(), parallel.rows.len());
    for (s, p) in serial.rows.iter().zip(&parallel.rows) {
        assert_eq!(s.index, p.index);
        assert_eq!(s.label, p.label);
        assert_eq!(s.result().to_store_bytes(), p.result().to_store_bytes(), "{}", s.label);
    }
}

/// The audited variant: every row runs under the runtime invariant
/// auditor, at four workers, and must still match the serial rows bit for
/// bit. This doubles as the check that the timer-wheel event queue keeps
/// every auditor invariant (FIFO ties, clock monotonicity) while the
/// worker pool interleaves rows arbitrarily.
#[test]
fn audited_parallel_sweep_is_bit_identical_to_serial() {
    use starvation::sweep::{CcaSpec, ScenarioSpec};

    let spec = ScenarioSpec::new("determinism-audited")
        .cca(CcaSpec::new("bbr", |s| Box::new(cca::Bbr::new(1500, s))))
        .rates_mbps(&[24.0])
        .rtts_ms(&[40])
        .jitters_ms(&[0, 5])
        .seeds(&[1, 2])
        .duration(Dur::from_secs(2));
    let jobs = spec.expand();
    assert_eq!(jobs.len(), 4);

    assert_pool_serial_matches_parallel(&jobs, true);
}

/// The population-scale variant: the `workload-1k` canonical scenario
/// (1000 dynamically-arriving flows, heavy-tailed sizes) swept over four
/// arrival seeds, audited, at `jobs = 1` and `jobs = 4`. Dynamic spawn
/// and retirement run through the same event queue as packet delivery,
/// so worker-pool interleaving must not perturb a single lifecycle
/// timestamp — every row comes back bit-identical to serial.
#[test]
fn workload_1k_parallel_sweep_is_bit_identical_to_serial() {
    use netsim::ArrivalProcess;

    let jobs: Vec<SweepJob> = [9u64, 10, 11, 12]
        .iter()
        .map(|&seed| {
            let mut cfg = starvation::canonical_scenario("workload-1k").expect("registered");
            let w = cfg.workload.as_mut().expect("workload-1k has a workload block");
            match &mut w.arrivals {
                ArrivalProcess::Poisson { seed: s, .. } => *s = seed,
                ArrivalProcess::Fixed { .. } => {
                    panic!("workload-1k uses Poisson arrivals")
                }
            }
            SweepJob::new(format!("wl-seed-{seed}"), cfg)
        })
        .collect();

    let serial = assert_pool_serial_matches_parallel(&jobs, true);
    for (job, r) in jobs.iter().zip(&serial) {
        assert_eq!(r.flows.len(), 1000, "{}: every arrival spawned", job.label);
        assert!(
            r.fcts().len() > 900,
            "{}: most flows should complete, got {}",
            job.label,
            r.fcts().len()
        );
    }
}

#[test]
fn different_seed_changes_the_packet_trace() {
    let a = run(42);
    let b = run(43);
    // The delivered-bytes trajectories must diverge: different loss and
    // jitter streams reshape the whole packet timeline.
    let da = series_bits(&a.flows[0].delivered);
    let db = series_bits(&b.flows[0].delivered);
    assert_ne!(da, db, "seed must affect the packet trace");
    let ra = series_bits(&a.flows[0].rtt);
    let rb = series_bits(&b.flows[0].rtt);
    assert_ne!(ra, rb, "seed must affect the RTT trace");
}
