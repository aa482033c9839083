//! The paper's experiment scenarios, each defined in exactly one place.
//!
//! Six setups carry the paper's empirical evidence: §5.1 Copa min-RTT
//! poisoning, §5.2 BBR with `Rm` 40/80 ms, §5.3 Vivace ACK quantization,
//! §5.4 Allegro asymmetric loss, Figure 7's delayed ACKs, and §6.3's "one
//! jittered path, one clean path". A constructor takes only what its
//! callers vary — a seed, a duration, an ablated parameter, and the CCA for
//! the Figure 7 and §6.3 families. Everything else is fixed here: link rate
//! and buffer, `Rm`, jitter and ACK policy, transport, and how per-flow
//! seeds derive from the scenario seed. The `repro` experiments, the
//! integration tests and the examples all build their runs from these, so
//! changing a scenario touches one function.
//!
//! Seed 0 of a seeded family is the representative run `repro` publishes;
//! `repro seeds` sweeps the others.
//!
//! ```
//! use netsim::Network;
//! use simcore::units::Dur;
//!
//! let r = Network::new(starvation::paper::bbr_rtt_asymmetry(0, Dur::from_secs(2))).run();
//! assert_eq!(r.flows.len(), 2);
//! ```

use cca::jitter_aware::JitterAwareConfig;
use cca::BoxCca;
use netsim::{AckPolicy, FlowConfig, Jitter, LinkConfig, PathSpec, SimConfig, Transport};
use simcore::rng::Xoshiro256;
use simcore::units::{Dur, Rate};

/// The 120 Mbit/s ample-buffer bottleneck of §5.1–§5.3.
fn link_120() -> LinkConfig {
    LinkConfig::ample_buffer(Rate::from_mbps(120.0))
}

// ---------- §5.1 Copa ----------

/// A Copa flow on a 60 ms path that under-reports its propagation delay by
/// `poison`: the path's `Rm` is `60 ms − poison`, and every packet carries
/// `poison` of extra delay except one in every 5000, which refreshes the
/// poisoned minimum within Copa's 10 s min-RTT window.
fn copa_poisoned_flow(poison: Dur) -> FlowConfig {
    FlowConfig::bulk(
        Box::new(cca::Copa::default_params()),
        Dur::from_millis(60) - poison,
    )
    .with_jitter(Jitter::ExtraExcept {
        extra: poison,
        period: 5_000,
        offset: 0,
    })
}

/// §5.1, single flow: one Copa flow poisoned by 1 ms on the 120 Mbit/s
/// link. Copa's target-rate math caps it near `1/(δ·1 ms)` whatever the
/// link rate.
pub fn copa_poisoned_alone(dur: Dur) -> SimConfig {
    SimConfig::new(
        link_120(),
        vec![copa_poisoned_flow(Dur::from_millis(1))],
        dur,
    )
}

/// §5.1, two flows: a Copa flow poisoned by `poison` (the paper's case is
/// 1 ms) beside a clean Copa flow with `Rm` = 60 ms.
pub fn copa_poison(poison: Dur, dur: Dur) -> SimConfig {
    let clean = FlowConfig::bulk(Box::new(cca::Copa::default_params()), Dur::from_millis(60));
    SimConfig::new(link_120(), vec![copa_poisoned_flow(poison), clean], dur)
}

// ---------- §5.2 BBR ----------

/// §5.2: two BBR flows with `Rm` = 40 ms and 80 ms on the 120 Mbit/s link,
/// each path with up to 2 ms of random jitter. The CCA seeds are
/// `2·seed + 1` and `2·seed + 2`; each flow's jitter stream is its CCA
/// seed `· 7 + 1`.
pub fn bbr_rtt_asymmetry(seed: u64, dur: Dur) -> SimConfig {
    let flow = |rm_ms: u64, s: u64| {
        FlowConfig::bulk(Box::new(cca::Bbr::new(1500, s)), Dur::from_millis(rm_ms)).with_jitter(
            Jitter::Random {
                max: Dur::from_millis(2),
                rng: Xoshiro256::new(s * 7 + 1),
            },
        )
    };
    SimConfig::new(
        link_120(),
        vec![flow(40, seed * 2 + 1), flow(80, seed * 2 + 2)],
        dur,
    )
}

// ---------- §5.3 PCC Vivace ----------

/// §5.3: two datagram Vivace flows with `Rm` = 60 ms on the 120 Mbit/s
/// link; the first flow's ACKs are released only at 60 ms boundaries. The
/// CCA seeds are `2·seed + 1` (quantized) and `2·seed + 2` (clean).
pub fn vivace_ack_quantization(seed: u64, dur: Dur) -> SimConfig {
    let flow = |s: u64| {
        FlowConfig::bulk(Box::new(cca::Vivace::new(s)), Dur::from_millis(60))
            .with_transport(Transport::Datagram)
    };
    let quantized = flow(seed * 2 + 1).with_ack_policy(AckPolicy::Quantized {
        period: Dur::from_millis(60),
    });
    SimConfig::new(link_120(), vec![quantized, flow(seed * 2 + 2)], dur)
}

// ---------- §5.4 PCC Allegro ----------

/// The §5.4 random-loss probability.
const ALLEGRO_LOSS: f64 = 0.02;

/// A datagram Allegro flow with `Rm` = 40 ms; `seed` drives its probing.
fn allegro_flow(seed: u64) -> FlowConfig {
    FlowConfig::bulk(Box::new(cca::Allegro::new(seed)), Dur::from_millis(40))
        .with_transport(Transport::Datagram)
}

/// `flows` on §5.4's 120 Mbit/s, 40 ms link with a 1-BDP buffer.
fn allegro(flows: Vec<FlowConfig>, dur: Dur) -> SimConfig {
    let link = LinkConfig::bdp_buffer(Rate::from_mbps(120.0), Dur::from_millis(40), 1.0);
    SimConfig::new(link, flows, dur)
}

/// §5.4, asymmetric: two Allegro flows, only the first with 2 % random
/// loss. The CCA seeds are `2·seed + 1` (lossy) and `2·seed + 2` (clean);
/// the loss stream is `13·seed + 7`. Allegro's RCT noise makes the outcome
/// stream-dependent; seed 0 (loss stream 7) is the representative run.
pub fn allegro_asymmetric_loss(seed: u64, dur: Dur) -> SimConfig {
    let lossy = allegro_flow(seed * 2 + 1).with_loss(ALLEGRO_LOSS, seed * 13 + 7);
    allegro(vec![lossy, allegro_flow(seed * 2 + 2)], dur)
}

/// §5.4's symmetric control: both Allegro flows (CCA seeds 3 and 4) see
/// 2 % random loss from stream 7.
pub fn allegro_symmetric_loss(dur: Dur) -> SimConfig {
    let lossy = |s: u64| allegro_flow(s).with_loss(ALLEGRO_LOSS, 7);
    allegro(vec![lossy(3), lossy(4)], dur)
}

/// §5.4's single-flow control: one Allegro flow (CCA seed 5) with 2 %
/// random loss from stream 7, alone on the link.
pub fn allegro_lossy_alone(dur: Dur) -> SimConfig {
    allegro(vec![allegro_flow(5).with_loss(ALLEGRO_LOSS, 7)], dur)
}

// ---------- Figure 7 ----------

/// Figure 7: two flows of `mk`'s CCA on a 6 Mbit/s link with a shallow
/// 60-packet buffer, `Rm` = 120 ms; the second flow's receiver delays ACKs
/// by up to 4 packets (100 ms timeout).
pub fn fig7_delayed_ack(mk: impl Fn() -> BoxCca, dur: Dur) -> SimConfig {
    let rm = Dur::from_millis(120);
    let link = LinkConfig::new(Rate::from_mbps(6.0), 60 * 1500);
    let clean = FlowConfig::bulk(mk(), rm);
    let delayed = FlowConfig::bulk(mk(), rm).with_ack_policy(AckPolicy::Delayed {
        max_pkts: 4,
        timeout: Dur::from_millis(100),
    });
    SimConfig::new(link, vec![clean, delayed], dur)
}

// ---------- §6.3 jittered path vs clean path ----------

/// The §6.3 path: 40 Mbit/s, ample buffer, `Rm` = 50 ms.
fn path_63(dur: Dur) -> PathSpec {
    PathSpec::new(Rate::from_mbps(40.0), Dur::from_millis(50), dur)
}

/// §6.3: two flows of `mk`'s CCA on the 40 Mbit/s, `Rm` = 50 ms path; the
/// first path adds random jitter up to `jitter` (the paper's `D` is
/// 10 ms) from stream 11, the second is clean.
pub fn jitter_vs_clean(mk: impl Fn() -> BoxCca, jitter: Dur, dur: Dur) -> SimConfig {
    jitter_vs_clean_on_stream(mk, jitter, 11, dur)
}

/// [`jitter_vs_clean`] with the jitter drawn from `stream`, for sweeps
/// that give each cell a stream of its own.
pub fn jitter_vs_clean_on_stream(
    mk: impl Fn() -> BoxCca,
    jitter: Dur,
    stream: u64,
    dur: Dur,
) -> SimConfig {
    let clean = path_63(dur);
    let jittered = clean.with_jitter(jitter, stream);
    SimConfig::new(
        clean.link(),
        vec![jittered.flow(mk()), clean.flow(mk())],
        dur,
    )
}

/// §6.3's efficiency check: the 40 Mbit/s, `Rm` = 50 ms path with up to
/// 10 ms of random jitter from stream 13, for a single flow
/// ([`PathSpec::sim`]).
pub fn jittered_alone(dur: Dur) -> PathSpec {
    path_63(dur).with_jitter(Dur::from_millis(10), 13)
}

/// Algorithm 1 as §6.3 runs it on that path: designed for `D` = 10 ms,
/// `s` = 2 ([`JitterAwareConfig::example`]), with an additive step of
/// 0.4 Mbit/s per `Rm`.
pub fn algorithm1() -> BoxCca {
    let mut cfg = JitterAwareConfig::example(Dur::from_millis(50));
    cfg.a = Rate::from_mbps(0.4);
    Box::new(cca::JitterAware::new(cfg))
}
