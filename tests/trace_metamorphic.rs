//! Metamorphic tests for the trace/audit subsystem: observing a simulation
//! must never change it.
//!
//! Three relations, each a full-result bitwise comparison:
//!
//! * tracing into any sink (Null or Ring) vs. not tracing;
//! * auditing vs. not auditing;
//! * an **audited** parallel sweep (`jobs = 4`) vs. the serial audited and
//!   serial unaudited sweeps of the same job list.
//!
//! Plus the mutation test for the auditor itself: a deliberately seeded
//! jitter-bound violation (via `SimConfig::with_audit_jitter_bound`) must
//! fail the audit *through the full simulation pipeline*, with the
//! offending event and its recent-event context in the panic message.

use netsim::{FlowConfig, Jitter, LinkConfig, Network, SimConfig, SimResult};
use simcore::par;
use simcore::rng::Xoshiro256;
use simcore::series::TimeSeries;
use simcore::trace::{NullSink, RingSink, TraceSink};
use simcore::units::{Dur, Rate};
use starvation::sweep::SweepJob;
use std::sync::Arc;

/// The determinism suite's stress scenario: two adaptive CCAs, shallow
/// buffer, per-flow jitter and Bernoulli loss — every event class fires.
fn stress_config(seed: u64) -> SimConfig {
    let link = LinkConfig::bdp_buffer(Rate::from_mbps(40.0), Dur::from_millis(50), 1.0);
    let f1 = FlowConfig::bulk(Box::new(cca::Bbr::new(1500, seed)), Dur::from_millis(50))
        .with_jitter(Jitter::Random {
            max: Dur::from_millis(5),
            rng: Xoshiro256::new(seed.wrapping_mul(3).wrapping_add(1)),
        })
        .with_loss(0.01, seed.wrapping_add(100));
    let f2 = FlowConfig::bulk(Box::new(cca::Cubic::default_params()), Dur::from_millis(80))
        .with_jitter(Jitter::Random {
            max: Dur::from_millis(3),
            rng: Xoshiro256::new(seed.wrapping_mul(5).wrapping_add(2)),
        })
        .with_loss(0.005, seed.wrapping_add(200));
    SimConfig::new(link, vec![f1, f2], Dur::from_secs(6))
}

fn series_bits(s: &TimeSeries) -> Vec<(u128, u64)> {
    s.points()
        .iter()
        .map(|&(t, v)| (t.as_nanos() as u128, v.to_bits()))
        .collect()
}

fn assert_bit_identical(a: &SimResult, b: &SimResult, what: &str) {
    assert_eq!(a.end, b.end, "{what}: end");
    assert_eq!(a.utilization.to_bits(), b.utilization.to_bits(), "{what}: utilization");
    assert_eq!(a.flows.len(), b.flows.len(), "{what}: flow count");
    for (i, (fa, fb)) in a.flows.iter().zip(&b.flows).enumerate() {
        assert_eq!(fa.drops, fb.drops, "{what}: flow {i} drops");
        assert_eq!(fa.jitter_clamps, fb.jitter_clamps, "{what}: flow {i} jitter clamps");
        assert_eq!(fa.sent_bytes, fb.sent_bytes, "{what}: flow {i} sent");
        assert_eq!(fa.lost_bytes, fb.lost_bytes, "{what}: flow {i} lost");
        assert_eq!(
            fa.retransmitted_bytes, fb.retransmitted_bytes,
            "{what}: flow {i} retransmitted"
        );
        assert_eq!(fa.fast_retransmits, fb.fast_retransmits, "{what}: flow {i} fr");
        assert_eq!(fa.timeouts, fb.timeouts, "{what}: flow {i} timeouts");
        assert_eq!(series_bits(&fa.rtt), series_bits(&fb.rtt), "{what}: flow {i} rtt");
        assert_eq!(series_bits(&fa.cwnd), series_bits(&fb.cwnd), "{what}: flow {i} cwnd");
        assert_eq!(
            series_bits(&fa.delivered),
            series_bits(&fb.delivered),
            "{what}: flow {i} delivered"
        );
    }
}

#[test]
fn tracing_is_observationally_inert() {
    let plain = Network::new(stress_config(42)).run();
    // Sanity: the scenario exercises loss and retransmission paths.
    assert!(plain.flows.iter().any(|f| f.lost_bytes > 0));

    let null = Network::new(stress_config(42).with_trace(Arc::new(|| {
        Box::new(NullSink) as Box<dyn TraceSink>
    })))
    .run();
    assert_bit_identical(&plain, &null, "null-sink tracing");

    let ring = RingSink::new(1024);
    let probe = ring.clone();
    let ringed = Network::new(stress_config(42).with_trace(Arc::new(move || {
        Box::new(probe.clone()) as Box<dyn TraceSink>
    })))
    .run();
    assert_bit_identical(&plain, &ringed, "ring-sink tracing");
    assert!(ring.digest().total() > 0, "ring sink saw no events");
}

#[test]
fn auditing_is_observationally_inert() {
    let plain = Network::new(stress_config(7)).run();
    let audited = Network::new(stress_config(7).with_audit(true)).run();
    assert_bit_identical(&plain, &audited, "audit");
}

/// A sweep's job list through the worker pool, keeping every full
/// `SimResult` (sweeps themselves keep only summaries). The pool is what
/// interleaves rows.
fn pool_run(jobs: &[SweepJob], workers: usize, audit: bool) -> Vec<par::JobReport<SimResult>> {
    let configs: Vec<SimConfig> = jobs.iter().map(|j| j.config.clone().with_audit(audit)).collect();
    par::map(configs, workers, |_i, cfg| Network::new(cfg).run(), None)
}

#[test]
fn audited_parallel_sweep_is_bit_identical_to_serial() {
    use starvation::sweep::{CcaSpec, ScenarioSpec};

    let spec = ScenarioSpec::new("trace-metamorphic")
        .cca(CcaSpec::new("bbr", |s| Box::new(cca::Bbr::new(1500, s))))
        .cca(CcaSpec::new("copa", |_s| Box::new(cca::Copa::default_params())))
        .rates_mbps(&[24.0])
        .rtts_ms(&[40])
        .jitters_ms(&[0, 5])
        .seeds(&[1, 2])
        .duration(Dur::from_secs(3));
    let jobs = spec.expand();
    assert_eq!(jobs.len(), 8);

    let serial_plain = pool_run(&jobs, 1, false);
    let serial_audit = pool_run(&jobs, 1, true);
    let parallel_audit = pool_run(&jobs, 4, true);

    assert!(serial_audit.iter().all(|r| r.outcome.is_ok()), "serial audit panicked");
    assert!(parallel_audit.iter().all(|r| r.outcome.is_ok()), "parallel audit panicked");
    for (((job, p), s), par) in jobs.iter().zip(serial_plain).zip(serial_audit).zip(parallel_audit) {
        assert_eq!(p.index, s.index);
        assert_eq!(p.index, par.index);
        let p = p.outcome.expect("plain row");
        assert_bit_identical(&p, &s.outcome.expect("serial audited row"), &job.label);
        assert_bit_identical(&p, &par.outcome.expect("parallel audited row"), &job.label);
    }
}

#[test]
fn auditor_catches_seeded_jitter_violation_with_context() {
    // Mutation test: declare a 1 ms jitter bound on a path whose real
    // jitter element delays up to 20 ms. The audit must fail on a
    // jitter-hold event and report the offending event plus its context.
    let link = LinkConfig::ample_buffer(Rate::from_mbps(12.0));
    let flow = FlowConfig::bulk(Box::new(cca::ConstCwnd::new(10 * 1500)), Dur::from_millis(40))
        .with_jitter(Jitter::Random {
            max: Dur::from_millis(20),
            rng: Xoshiro256::new(5),
        })
        .with_audit_jitter_bound(Dur::from_millis(1));
    let cfg = SimConfig::new(link, vec![flow], Dur::from_secs(2)).with_audit(true);
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        Network::new(cfg).run()
    }));
    let err = match outcome {
        Ok(_) => panic!("under-declared jitter bound must fail the audit"),
        Err(e) => e,
    };
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
        .expect("audit panic carries a message");
    assert!(msg.contains("jitter-bound"), "wrong invariant: {msg}");
    assert!(msg.contains("recent events"), "no event context: {msg}");
    assert!(msg.contains("jitter-hold"), "no offending event: {msg}");
}

#[test]
fn seeded_violation_surfaces_as_failed_sweep_row() {
    // The same seeded violation inside a sweep must fail only its row.
    use starvation::sweep::Sweep;
    let link = LinkConfig::ample_buffer(Rate::from_mbps(12.0));
    let rm = Dur::from_millis(40);
    let clean = SweepJob::new(
        "clean",
        SimConfig::new(
            link,
            vec![FlowConfig::bulk(Box::new(cca::ConstCwnd::new(10 * 1500)), rm)],
            Dur::from_secs(1),
        ),
    );
    let violating = SweepJob::new(
        "violating",
        SimConfig::new(
            link,
            vec![FlowConfig::bulk(Box::new(cca::ConstCwnd::new(10 * 1500)), rm)
                .with_jitter(Jitter::Random {
                    max: Dur::from_millis(20),
                    rng: Xoshiro256::new(5),
                })
                .with_audit_jitter_bound(Dur::from_millis(1))],
            Dur::from_secs(1),
        ),
    );
    let report = Sweep::new("audit-isolation")
        .jobs(2)
        .audit(true)
        .run(vec![clean.clone(), violating, clean]);
    assert_eq!(report.panics(), 1);
    assert!(report.rows[0].outcome.is_ok());
    match &report.rows[1].outcome {
        Err(msg) => assert!(msg.contains("jitter-bound"), "{msg}"),
        Ok(_) => panic!("violating row should have failed"),
    }
    assert!(report.rows[2].outcome.is_ok(), "violation must not poison later rows");
}
