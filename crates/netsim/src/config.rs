//! Simulation configuration types.

use crate::jitter::Jitter;
use cca::BoxCca;
use simcore::units::{f64_as_bytes, Dur, Rate, Time};

/// Transport reliability model.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Transport {
    /// TCP-like: cumulative ACKs, duplicate-ACK fast retransmit, NewReno
    /// recovery, RTO go-back-N. Used by Reno/Cubic/Vegas-family flows.
    #[default]
    Reliable,
    /// UDP-like (the PCC implementations): every packet is acknowledged
    /// individually, nothing is retransmitted, and a packet is deemed lost
    /// as soon as a later-sent packet is acknowledged (the §3 model path
    /// never reorders a flow's packets). Loss becomes a *signal*, not a
    /// recovery problem — matching how PCC's monitor intervals consume it.
    Datagram,
}

/// Receiver acknowledgement policy.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum AckPolicy {
    /// Acknowledge every data packet immediately.
    PerPacket,
    /// Classic delayed ACKs: acknowledge every `max_pkts`-th packet, or
    /// after `timeout` if fewer arrive. Out-of-order arrivals are ACKed
    /// immediately (so duplicate ACKs still signal loss). This is Figure 7's
    /// "delayed ACKs of up to 4 packets".
    Delayed {
        /// ACK after this many data packets.
        max_pkts: u64,
        /// ...or after this long.
        timeout: Dur,
    },
    /// Time-quantized ACK aggregation: ACKs leave the receiver only at
    /// integer multiples of `period` (the §5.3 PCC Vivace scenario with a
    /// 60 ms period). All data that arrived since the last boundary is
    /// covered by a single cumulative ACK released at the boundary.
    Quantized {
        /// The release period.
        period: Dur,
    },
}

/// Bottleneck link configuration.
#[derive(Clone, Copy, Debug)]
pub struct LinkConfig {
    /// Drain rate `C`.
    pub rate: Rate,
    /// Tail-drop buffer in bytes. Use [`LinkConfig::ample_buffer`] for the
    /// paper's "large enough to never overflow" queues.
    pub buffer_bytes: u64,
    /// ECN marking threshold in bytes of backlog (§6.4). `None` disables.
    pub ecn_threshold: Option<u64>,
}

impl LinkConfig {
    /// A link with an explicit tail-drop buffer and ECN disabled.
    pub fn new(rate: Rate, buffer_bytes: u64) -> LinkConfig {
        LinkConfig {
            rate,
            buffer_bytes,
            ecn_threshold: None,
        }
    }

    /// Builder: enable threshold ECN marking.
    pub fn with_ecn(mut self, threshold_bytes: u64) -> LinkConfig {
        self.ecn_threshold = Some(threshold_bytes);
        self
    }
}

/// Seconds of drain held by [`LinkConfig::ample_buffer`]:
/// `buffer = rate × AMPLE_DRAIN_SECS`.
pub const AMPLE_DRAIN_SECS: f64 = 100.0;

impl LinkConfig {
    /// A buffer so large delay-bounding CCAs never overflow it:
    /// [`AMPLE_DRAIN_SECS`] (100 s) of drain at `rate` — i.e. 100 BDPs at a
    /// full second of RTT, thousands at experiment RTTs.
    pub fn ample_buffer(rate: Rate) -> LinkConfig {
        LinkConfig::new(rate, f64_as_bytes(rate.bytes_per_sec() * AMPLE_DRAIN_SECS))
    }

    /// A buffer of `n` bandwidth-delay products for the given RTT.
    pub fn bdp_buffer(rate: Rate, rtt: Dur, n: f64) -> LinkConfig {
        LinkConfig::new(
            rate,
            f64_as_bytes(rate.bytes_per_sec() * rtt.as_secs_f64() * n).max(3000),
        )
    }
}

/// Per-flow configuration.
///
/// `Clone` deep-copies the boxed CCA (via `CongestionControl::clone_box`),
/// so cloned configs replay identically — the sweep engine relies on this to
/// expand a scenario grid once and run it at any worker count.
#[derive(Clone)]
pub struct FlowConfig {
    /// The congestion-control algorithm driving this flow's sender.
    pub cca: BoxCca,
    /// Packet size in bytes (everything the paper runs uses 1500).
    pub mss: u64,
    /// Minimum propagation RTT `Rm` for this flow's path.
    pub rm: Dur,
    /// Non-congestive delay element on this flow's path.
    pub jitter: Jitter,
    /// Receiver ACK behaviour.
    pub ack_policy: AckPolicy,
    /// Reliability model (TCP-like or PCC's UDP-like).
    pub transport: Transport,
    /// Bernoulli random-loss probability on this flow's data path
    /// (the §5.4 PCC Allegro scenario uses 0.02).
    pub loss_rate: f64,
    /// Seed for the loss process.
    pub loss_seed: u64,
    /// When the flow starts sending.
    pub start: Time,
    /// Optional application-rate cap (`None` = bulk flow).
    pub app_limit: Option<Rate>,
    /// Byte budget for a finite transfer: the flow sends
    /// `ceil(size / mss)` packets and retires once they are delivered
    /// (reliable) or resolved (datagram). `None` = bulk, runs to the end.
    pub size: Option<u64>,
    /// Audited jitter-bound override for this flow. A test hook: declaring
    /// a bound *below* the jitter policy's real one seeds a violation the
    /// auditor must catch — the mutation test for the audit machinery
    /// itself. Not for production configs.
    pub audit_jitter_bound: Option<Dur>,
}

impl FlowConfig {
    /// A bulk flow with a clean path: per-packet ACKs, no jitter, no loss.
    pub fn bulk(cca: BoxCca, rm: Dur) -> FlowConfig {
        FlowConfig {
            cca,
            mss: 1500,
            rm,
            jitter: Jitter::None,
            ack_policy: AckPolicy::PerPacket,
            transport: Transport::Reliable,
            loss_rate: 0.0,
            loss_seed: 0,
            start: Time::ZERO,
            app_limit: None,
            size: None,
            audit_jitter_bound: None,
        }
    }

    /// Builder: replace the jitter element.
    pub fn with_jitter(mut self, j: Jitter) -> FlowConfig {
        self.jitter = j;
        self
    }

    /// Builder: replace the ACK policy.
    pub fn with_ack_policy(mut self, p: AckPolicy) -> FlowConfig {
        self.ack_policy = p;
        self
    }

    /// Builder: replace the transport reliability model.
    pub fn with_transport(mut self, t: Transport) -> FlowConfig {
        self.transport = t;
        self
    }

    /// Builder: Bernoulli loss on the data path.
    pub fn with_loss(mut self, rate: f64, seed: u64) -> FlowConfig {
        self.loss_rate = rate;
        self.loss_seed = seed;
        self
    }

    /// Builder: delayed start.
    pub fn with_start(mut self, t: Time) -> FlowConfig {
        self.start = t;
        self
    }

    /// Builder: replace the packet size.
    pub fn with_mss(mut self, mss: u64) -> FlowConfig {
        self.mss = mss;
        self
    }

    /// Builder: cap the application's sending rate (`None` = bulk flow).
    pub fn with_app_limit(mut self, limit: Option<Rate>) -> FlowConfig {
        self.app_limit = limit;
        self
    }

    /// Builder: a finite transfer of `bytes`; the flow retires when its
    /// budget is delivered, recording a completion time.
    pub fn with_size(mut self, bytes: u64) -> FlowConfig {
        self.size = Some(bytes);
        self
    }

    /// Builder: override the audited jitter bound for this flow (the
    /// fault-injection hook; see [`FlowConfig::audit_jitter_bound`]).
    pub fn with_audit_jitter_bound(mut self, bound: Dur) -> FlowConfig {
        self.audit_jitter_bound = Some(bound);
        self
    }
}

/// A complete scenario.
#[derive(Clone)]
pub struct SimConfig {
    /// The shared bottleneck.
    pub link: LinkConfig,
    /// The competing flows.
    pub flows: Vec<FlowConfig>,
    /// How long to simulate.
    pub duration: Dur,
    /// Decimation interval for cwnd/rate series (RTT samples are always
    /// recorded exactly; set this small only for short runs).
    pub sample_every: Dur,
    /// Trace-sink factory (`None` = no tracing, the zero-cost default).
    /// A factory rather than a sink keeps the config `Clone`: every
    /// `Network` builds its own sink at construction.
    pub trace: Option<simcore::trace::TraceFactory>,
    /// Run the scenario under the runtime invariant auditor
    /// ([`simcore::trace::Auditor`]); any trace sink becomes its
    /// downstream consumer. A violation panics with event context, which
    /// the sweep engine's per-job isolation reports as a failed row.
    pub audit: bool,
    /// Optional dynamic workload: a schedule of flow arrivals with finite
    /// sizes that spawns flows mid-run (their ids continue after `flows`
    /// in arrival order) and retires them when delivered.
    pub workload: Option<crate::workload::Workload>,
}

impl SimConfig {
    /// A scenario with 10 ms series decimation and no tracing.
    pub fn new(link: LinkConfig, flows: Vec<FlowConfig>, duration: Dur) -> SimConfig {
        SimConfig {
            link,
            flows,
            duration,
            sample_every: Dur::from_millis(10),
            trace: None,
            audit: false,
            workload: None,
        }
    }

    /// Builder: replace the series decimation interval.
    pub fn with_sample_every(mut self, every: Dur) -> SimConfig {
        self.sample_every = every;
        self
    }

    /// Builder: attach a trace-sink factory; each run built from this
    /// config creates one sink and streams every simulator event into it.
    pub fn with_trace(mut self, factory: simcore::trace::TraceFactory) -> SimConfig {
        self.trace = Some(factory);
        self
    }

    /// Builder: enable (or disable) the runtime invariant auditor.
    pub fn with_audit(mut self, on: bool) -> SimConfig {
        self.audit = on;
        self
    }

    /// Builder: attach a dynamic workload (scheduled flow arrivals with
    /// finite sizes; see [`crate::workload::Workload`]).
    pub fn with_workload(mut self, w: crate::workload::Workload) -> SimConfig {
        self.workload = Some(w);
        self
    }
}

/// A single-flow path specification: bottleneck rate, propagation RTT, run
/// length, and the optional path impairments (random jitter, Bernoulli
/// loss). This is the one spec type shared by `starvation::runner`'s
/// ideal-path runs (where the impairments stay zero), the §6.3 paths of
/// `starvation::paper`, and `testkit::harness::run_one` — all expand it
/// into `LinkConfig` / `FlowConfig` through the same methods instead of
/// re-deriving them.
#[derive(Clone, Copy, Debug)]
pub struct PathSpec {
    /// Bottleneck rate `C`.
    pub rate: Rate,
    /// Propagation RTT `Rm`.
    pub rm: Dur,
    /// How long to run.
    pub duration: Dur,
    /// Random-jitter bound `D` (`ZERO` = no jitter element).
    pub jitter: Dur,
    /// Seed for the jitter stream.
    pub jitter_seed: u64,
    /// Bernoulli loss probability on the data path (`0` = no loss element).
    pub loss: f64,
    /// Seed for the loss process.
    pub loss_seed: u64,
}

impl PathSpec {
    /// An ideal path: no jitter, no loss.
    pub fn new(rate: Rate, rm: Dur, duration: Dur) -> PathSpec {
        PathSpec {
            rate,
            rm,
            duration,
            jitter: Dur::ZERO,
            jitter_seed: 0,
            loss: 0.0,
            loss_seed: 0,
        }
    }

    /// Builder: i.i.d. uniform jitter in `[0, max]` from a seeded stream.
    pub fn with_jitter(mut self, max: Dur, seed: u64) -> PathSpec {
        self.jitter = max;
        self.jitter_seed = seed;
        self
    }

    /// Builder: Bernoulli loss on the data path.
    pub fn with_loss(mut self, p: f64, seed: u64) -> PathSpec {
        self.loss = p;
        self.loss_seed = seed;
        self
    }

    /// The ample-buffer bottleneck this spec describes.
    pub fn link(&self) -> LinkConfig {
        LinkConfig::ample_buffer(self.rate)
    }

    /// A bulk flow for `cca` on this path, with the spec's impairments.
    pub fn flow(&self, cca: BoxCca) -> FlowConfig {
        let mut f = FlowConfig::bulk(cca, self.rm);
        if self.jitter > Dur::ZERO {
            f = f.with_jitter(crate::jitter::Jitter::Random {
                max: self.jitter,
                rng: simcore::rng::Xoshiro256::new(self.jitter_seed),
            });
        }
        if self.loss > 0.0 {
            f = f.with_loss(self.loss, self.loss_seed);
        }
        f
    }

    /// The complete single-flow scenario for `cca`.
    pub fn sim(&self, cca: BoxCca) -> SimConfig {
        SimConfig::new(self.link(), vec![self.flow(cca)], self.duration)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cca::ConstCwnd;

    #[test]
    fn ample_buffer_is_huge() {
        let l = LinkConfig::ample_buffer(Rate::from_mbps(120.0));
        assert!(l.buffer_bytes > 1_000_000_000);
    }

    #[test]
    fn bdp_buffer_math() {
        // 120 Mbit/s × 40 ms = 600 kB; 1 BDP.
        let l = LinkConfig::bdp_buffer(Rate::from_mbps(120.0), Dur::from_millis(40), 1.0);
        assert_eq!(l.buffer_bytes, 600_000);
    }

    #[test]
    fn ample_buffer_matches_named_constant() {
        let rate = Rate::from_mbps(120.0);
        let l = LinkConfig::ample_buffer(rate);
        assert_eq!(l.buffer_bytes, (rate.bytes_per_sec() * AMPLE_DRAIN_SECS) as u64);
    }

    #[test]
    fn configs_clone_deeply() {
        let link = LinkConfig::ample_buffer(Rate::from_mbps(24.0));
        let flow = FlowConfig::bulk(Box::new(ConstCwnd::ten_packets()), Dur::from_millis(40))
            .with_loss(0.01, 3);
        let cfg = SimConfig::new(link, vec![flow], Dur::from_secs(2))
            .with_sample_every(Dur::from_millis(5));
        let copy = cfg.clone();
        assert_eq!(copy.flows.len(), 1);
        assert_eq!(copy.flows[0].cca.cwnd(), cfg.flows[0].cca.cwnd());
        assert_eq!(copy.sample_every, Dur::from_millis(5));
        // Running both must be possible independently (deep copy of the CCA).
        use crate::sim::Network;
        let a = Network::new(cfg).run();
        let b = Network::new(copy).run();
        assert_eq!(a.flows[0].sent_bytes, b.flows[0].sent_bytes);
    }

    #[test]
    fn mss_and_app_limit_builders() {
        let f = FlowConfig::bulk(Box::new(ConstCwnd::ten_packets()), Dur::from_millis(40))
            .with_mss(1200)
            .with_app_limit(Some(Rate::from_mbps(2.0)));
        assert_eq!(f.mss, 1200);
        assert!((f.app_limit.unwrap().mbps() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn path_spec_expands_to_matching_configs() {
        let spec = PathSpec::new(
            Rate::from_mbps(24.0),
            Dur::from_millis(40),
            Dur::from_secs(3),
        )
        .with_jitter(Dur::from_millis(5), 11)
        .with_loss(0.02, 12);
        assert_eq!(spec.link().buffer_bytes, LinkConfig::ample_buffer(spec.rate).buffer_bytes);
        let f = spec.flow(Box::new(ConstCwnd::ten_packets()));
        assert!(matches!(f.jitter, crate::jitter::Jitter::Random { max, .. } if max == Dur::from_millis(5)));
        assert_eq!(f.loss_rate, 0.02);
        assert_eq!(f.loss_seed, 12);
        let cfg = spec.sim(Box::new(ConstCwnd::ten_packets()));
        assert_eq!(cfg.flows.len(), 1);
        assert_eq!(cfg.duration, Dur::from_secs(3));
    }

    #[test]
    fn builders_compose() {
        let f = FlowConfig::bulk(Box::new(ConstCwnd::ten_packets()), Dur::from_millis(40))
            .with_loss(0.02, 7)
            .with_ack_policy(AckPolicy::Quantized {
                period: Dur::from_millis(60),
            })
            .with_start(Time::from_secs(1))
            .with_size(600_000);
        assert_eq!(f.loss_rate, 0.02);
        assert_eq!(f.start, Time::from_secs(1));
        assert_eq!(f.size, Some(600_000));
        assert!(matches!(f.ack_policy, AckPolicy::Quantized { .. }));
    }
}
