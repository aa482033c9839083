//! The network: wiring senders, the shared bottleneck, per-flow propagation
//! and jitter elements, receivers and ACK paths into one deterministic
//! event loop.
//!
//! Topology (the paper's §3 model):
//!
//! ```text
//! sender f ─► [Bernoulli loss] ─► Bottleneck(C, buffer) ─► + Rm(f) ─►
//!   jitter(f) ∈ [0, D] ─► receiver f ─► ACK (policy) ─► sender f
//! ```
//!
//! The whole round-trip propagation `Rm` is applied on the data path and
//! ACKs return instantly; only the sum is observable to an end-to-end CCA,
//! so this loses no generality and lets the adversarial jitter element
//! target full-RTT trajectories directly (as the proofs of Theorems 1–3
//! require).
//!
//! Everything one flow owns on that path is one `FlowSlot`; every event
//! kind has one `on_*` handler, and the run loop only pops, counts and
//! dispatches.

use crate::config::{FlowConfig, SimConfig, Transport};
use crate::jitter::JitterElement;
use crate::link::{Bottleneck, Enqueue};
use crate::metrics::{EvCounts, FlowRecord, SimResult};
use crate::packet::{Ack, FlowId, Packet};
use crate::receiver::Receiver;
use crate::sender::{Emit, Sender};
use crate::workload::WorkloadRun;
use simcore::rng::Xoshiro256;
use simcore::trace::{Auditor, Event, FlowAuditSpec, TraceSink};
use simcore::units::{count_as_u64, Dur, Time};
use simcore::wheel::TimerWheel;

/// Simulator events.
#[derive(Debug)]
enum Ev {
    /// A sender may be able to transmit (flow start, pacing timer, etc.).
    Wake(FlowId),
    /// The bottleneck finishes transmitting its head packet.
    Depart,
    /// A data packet reaches its receiver.
    DataArrive(Packet),
    /// An acknowledgement reaches its sender.
    AckArrive(Ack),
    /// A receiver's delayed-ACK/aggregation timer fires.
    RxFlush(FlowId, Time),
    /// A sender's retransmission timer fires.
    Rto(FlowId, Time),
    /// The workload's next flow arrives (self-rescheduling).
    FlowArrival,
}

/// One flow's whole path: endpoints, the per-flow path elements either side
/// of the shared bottleneck, and the loop's timer bookkeeping for it.
struct FlowSlot {
    sender: Sender,
    receiver: Receiver,
    jitter: JitterElement,
    rm: Dur,
    loss: Option<(f64, Xoshiro256)>,
    /// Earliest pending Wake (deduplicates pacing timers: without this,
    /// every ACK adds a duplicate wake that reschedules itself forever and
    /// the event population grows without bound).
    wake_armed: Option<Time>,
    /// Deadline of the most recently scheduled Rto event (deduplicates
    /// timer events).
    rto_scheduled: Option<Time>,
    /// Packets of this flow the bottleneck tail-dropped.
    drops: u64,
}

/// A runnable network scenario.
pub struct Network {
    q: TimerWheel<Ev>,
    link: Bottleneck,
    /// Indexed by `FlowId::index()`, in arrival order.
    flows: Vec<FlowSlot>,
    /// Trace sink (possibly an [`Auditor`] wrapping the configured sink).
    /// `None` — the default — costs one branch per instrumentation point.
    trace: Option<Box<dyn TraceSink>>,
    /// Dynamic arrival schedule, if the scenario carries one.
    workload: Option<WorkloadRun>,
    sample_every: Dur,
    end: Time,
}

/// The one trace emission point: `build` runs only when a sink is set, so
/// an untraced run pays the branch and nothing else. A free function over
/// the field, so `build` may borrow the rest of the network.
#[inline]
fn emit(trace: &mut Option<Box<dyn TraceSink>>, at: Time, build: impl FnOnce() -> Event) {
    if let Some(tr) = trace.as_mut() {
        tr.event(at, &build());
    }
}

/// The sender's window and pacing rate as they stand, for the trace.
fn cwnd_update(flow: FlowId, s: &Sender) -> Event {
    Event::CwndUpdate { flow, cwnd: s.cwnd(), pacing: s.cca().pacing_rate() }
}

impl Network {
    /// Build a network from a scenario description.
    pub fn new(cfg: SimConfig) -> Network {
        // Build the trace sink first: the audit specs need per-flow MSS and
        // jitter bounds before `cfg.flows` is consumed below. Only the
        // statically-configured flows are registered here; workload flows
        // announce themselves to the auditor via `flow-arrive` events.
        let trace: Option<Box<dyn TraceSink>> = {
            let inner: Option<Box<dyn TraceSink>> = cfg.trace.as_ref().map(|factory| factory());
            if cfg.audit {
                let specs: Vec<FlowAuditSpec> = cfg
                    .flows
                    .iter()
                    .map(|f| FlowAuditSpec {
                        mss: f.mss,
                        jitter_bound: f.audit_jitter_bound.or(f.jitter.bound()),
                    })
                    .collect();
                Some(Box::new(Auditor::new(specs, inner)))
            } else {
                inner
            }
        };
        let mut link = Bottleneck::new(cfg.link.rate, cfg.link.buffer_bytes);
        link.set_ecn_threshold(cfg.link.ecn_threshold);
        let end = Time::ZERO + cfg.duration;
        let mut net = Network {
            q: TimerWheel::new(),
            link,
            flows: Vec::new(),
            trace,
            workload: cfg.workload.map(WorkloadRun::new),
            sample_every: cfg.sample_every,
            end,
        };
        for f in cfg.flows {
            net.add_flow(f, false);
        }
        if let Some(run) = &net.workload {
            let first = run.spec.start;
            if run.spec.count > 0 && first < net.end {
                net.q.schedule_at(first, Ev::FlowArrival);
            }
        }
        net
    }

    /// Wire one flow into the network: endpoints, path elements, and its
    /// start-time wake. `dynamic` flows (workload arrivals) additionally
    /// announce themselves on the trace so the auditor can begin tracking
    /// them mid-run; static flows stay silent, keeping pre-workload trace
    /// digests byte-identical.
    // simlint: cold: runs once per flow arrival, not per packet event
    fn add_flow(&mut self, f: FlowConfig, dynamic: bool) -> FlowId {
        let fid = FlowId::from_index(self.flows.len());
        if dynamic {
            emit(&mut self.trace, self.q.now(), || Event::FlowArrive {
                flow: fid,
                mss: f.mss,
                jitter_bound: f.audit_jitter_bound.or(f.jitter.bound()),
                size: f.size,
            });
        }
        let mut sender =
            Sender::new(fid, f.cca, f.mss, f.app_limit, f.start, self.sample_every);
        sender.set_transport(f.transport);
        sender.set_size(f.size);
        self.flows.push(FlowSlot {
            sender,
            receiver: match f.transport {
                Transport::Reliable => Receiver::new(fid, f.ack_policy),
                Transport::Datagram => Receiver::new_datagram(fid, f.ack_policy),
            },
            jitter: JitterElement::new(f.jitter),
            rm: f.rm,
            loss: (f.loss_rate > 0.0).then(|| (f.loss_rate, Xoshiro256::new(f.loss_seed))),
            wake_armed: None,
            rto_scheduled: None,
            drops: 0,
        });
        self.q.schedule_at(f.start, Ev::Wake(fid));
        fid
    }

    /// Flow id used for warm-start filler packets that belong to no sender.
    pub const PHANTOM: FlowId = FlowId::from_raw(u32::MAX);

    /// Pre-fill the bottleneck queue with `bytes` of phantom traffic before
    /// the run starts, creating an initial queueing delay of
    /// `bytes / C` — the proof's freedom to choose `d*(0)` (Theorem 1,
    /// step 3). Phantom packets drain normally but are discarded at the far
    /// side of the link.
    ///
    /// Call before [`Network::run`].
    pub fn prefill_queue(&mut self, bytes: u64, pkt_bytes: u64) {
        if bytes == 0 {
            return;
        }
        let n = bytes.div_ceil(pkt_bytes);
        let pkts: Vec<Packet> = (0..n)
            .map(|i| Packet {
                flow: Self::PHANTOM,
                seq: i,
                bytes: pkt_bytes,
                sent_at: Time::ZERO,
                delivered_at_send: 0,
                app_limited: false,
                retransmit: false,
                ecn: false,
            })
            .collect();
        if let Some(first) = self.link.warm_fill(self.q.now(), pkts) {
            self.q.schedule_at(first, Ev::Depart);
        }
    }

    /// Let a sender transmit everything it can right now; schedule its next
    /// wake if it is pacing-gated.
    // simlint: hot-root: the per-send path, reached once per emitted packet
    fn pump(&mut self, flow: FlowId) {
        let now = self.q.now();
        loop {
            let slot = &mut self.flows[flow.index()];
            match slot.sender.try_emit(now) {
                Emit::Blocked => break,
                Emit::WaitUntil(t) => {
                    let stale = slot.wake_armed.is_some_and(|armed| armed <= t);
                    if t > now && t < self.end && !stale {
                        slot.wake_armed = Some(t);
                        self.q.schedule_at(t, Ev::Wake(flow));
                    }
                    break;
                }
                Emit::Pkt(pkt) => {
                    emit(&mut self.trace, now, || Event::Send {
                        flow,
                        seq: pkt.seq,
                        bytes: pkt.bytes,
                        retransmit: pkt.retransmit,
                    });
                    self.arm_rto(flow);
                    self.inject(pkt);
                }
            }
        }
    }

    /// Push a packet into the path: loss element, then the bottleneck.
    fn inject(&mut self, pkt: Packet) {
        let now = self.q.now();
        let slot = &mut self.flows[pkt.flow.index()];
        if let Some((p, rng)) = &mut slot.loss {
            if rng.bernoulli(*p) {
                return; // vanished on the path; RTO/dupacks will notice
            }
        }
        let (flow, seq, bytes) = (pkt.flow, pkt.seq, pkt.bytes);
        match self.link.enqueue(now, pkt) {
            Enqueue::Dropped => {
                slot.drops += 1;
                emit(&mut self.trace, now, || Event::Drop { flow, seq, bytes });
            }
            Enqueue::Accepted(first_departure) => {
                emit(&mut self.trace, now, || Event::Enqueue {
                    flow,
                    seq,
                    bytes,
                    queued_bytes: self.link.queued_bytes(),
                });
                if let Some(t) = first_departure {
                    self.q.schedule_at(t, Ev::Depart);
                }
            }
        }
    }

    fn arm_rto(&mut self, flow: FlowId) {
        let slot = &mut self.flows[flow.index()];
        if let Some(deadline) = slot.sender.rto_deadline() {
            if deadline < self.end && slot.rto_scheduled != Some(deadline) {
                slot.rto_scheduled = Some(deadline);
                self.q.schedule_at(deadline, Ev::Rto(flow, deadline));
            }
        }
    }

    /// Report a just-finished flow's retirement on the trace (take-once:
    /// the sender yields the completion exactly one time).
    fn report_completion(&mut self, flow: FlowId) {
        let sender = &mut self.flows[flow.index()].sender;
        if sender.take_completion().is_some() {
            emit(&mut self.trace, self.q.now(), || {
                let acct = sender.accounting();
                Event::FlowComplete {
                    flow,
                    sent: acct.sent,
                    delivered: acct.delivered,
                    in_flight: acct.in_flight,
                    lost: acct.lost,
                    unresolved: acct.unresolved,
                    spurious_rtx: acct.spurious_rtx,
                }
            });
        }
    }

    /// What every sender-side event ends with: retire the flow if it just
    /// finished, re-arm its timer, send what the window now allows.
    fn after_sender_event(&mut self, flow: FlowId) {
        self.report_completion(flow);
        self.arm_rto(flow);
        self.pump(flow);
    }

    fn on_wake(&mut self, f: FlowId) {
        let slot = &mut self.flows[f.index()];
        if slot.wake_armed == Some(self.q.now()) {
            slot.wake_armed = None;
        }
        self.pump(f);
    }

    fn on_flow_arrival(&mut self) {
        let now = self.q.now();
        let Some(run) = self.workload.as_mut() else {
            return;
        };
        if run.spawned >= run.spec.count {
            return;
        }
        let k = run.spawned;
        let size = run.draw_size();
        let fc = run.spec.flow_config(k, now, size);
        run.spawned += 1;
        let next = (run.spawned < run.spec.count).then(|| now + run.next_interarrival());
        self.add_flow(fc, true);
        if let Some(t) = next {
            if t < self.end {
                self.q.schedule_at(t, Ev::FlowArrival);
            }
        }
    }

    fn on_depart(&mut self) {
        let now = self.q.now();
        let (pkt, next) = self.link.depart(now);
        if let Some(t) = next {
            self.q.schedule_at(t, Ev::Depart);
        }
        let f = pkt.flow;
        if f == Self::PHANTOM {
            return; // warm-start filler: occupies queue only
        }
        emit(&mut self.trace, now, || Event::Dequeue {
            flow: f,
            seq: pkt.seq,
            bytes: pkt.bytes,
            queued_bytes: self.link.queued_bytes(),
        });
        let slot = &mut self.flows[f.index()];
        let at_element = now + slot.rm;
        let release = slot.jitter.release_time(at_element, pkt.sent_at, pkt.bytes);
        emit(&mut self.trace, now, || Event::JitterHold {
            flow: f,
            seq: pkt.seq,
            arrive: at_element,
            release,
        });
        self.q.schedule_at(release, Ev::DataArrive(pkt));
    }

    fn on_data_arrive(&mut self, pkt: Packet) {
        let now = self.q.now();
        let f = pkt.flow;
        emit(&mut self.trace, now, || Event::JitterRelease { flow: f, seq: pkt.seq });
        let out = self.flows[f.index()].receiver.on_data(now, pkt);
        if let Some(deadline) = out.arm_flush {
            self.q.schedule_at(deadline, Ev::RxFlush(f, deadline));
        }
        for ack in out.acks {
            // ACK path is instantaneous (Rm is on the data path).
            self.q.schedule_at(now, Ev::AckArrive(ack));
        }
    }

    fn on_rx_flush(&mut self, f: FlowId, deadline: Time) {
        let now = self.q.now();
        for ack in self.flows[f.index()].receiver.on_flush(deadline) {
            self.q.schedule_at(now, Ev::AckArrive(ack));
        }
    }

    fn on_ack_arrive(&mut self, ack: Ack) {
        let now = self.q.now();
        let f = ack.flow;
        let s = &mut self.flows[f.index()].sender;
        let rtt_before = s.metrics.rtt.len();
        s.process_ack(now, &ack);
        emit(&mut self.trace, now, || {
            // A new point in the RTT series means this ACK yielded a
            // (Karn-valid) sample.
            let rtt = if s.metrics.rtt.len() > rtt_before {
                s.metrics.rtt.last().map(|(_, secs)| Dur::from_secs_f64(secs))
            } else {
                None
            };
            let acct = s.accounting();
            Event::Ack {
                flow: f,
                cum_seq: ack.cum_seq,
                rtt,
                sent: acct.sent,
                delivered: acct.delivered,
                in_flight: acct.in_flight,
                lost: acct.lost,
                unresolved: acct.unresolved,
                spurious_rtx: acct.spurious_rtx,
            }
        });
        emit(&mut self.trace, now, || cwnd_update(f, s));
        if self.trace.is_some() {
            s.cca().internals(&mut |key, value| {
                emit(&mut self.trace, now, || Event::Probe { flow: f, key, value });
            });
        }
        self.after_sender_event(f);
    }

    fn on_rto(&mut self, f: FlowId, deadline: Time) {
        let now = self.q.now();
        let s = &mut self.flows[f.index()].sender;
        if !s.on_rto(now, deadline) {
            return; // stale timer: the deadline moved since it was armed
        }
        emit(&mut self.trace, now, || Event::Rto { flow: f });
        emit(&mut self.trace, now, || cwnd_update(f, s));
        // A timeout that writes off a datagram flow's last outstanding
        // packets can retire the flow.
        self.after_sender_event(f);
    }

    /// Run to completion and collect results.
    pub fn run(self) -> SimResult {
        self.run_capture().0
    }

    /// Run to completion, returning the results **and** each sender's final
    /// CCA state (cloned). The theorem constructions use the snapshots as
    /// the "converged initial states" of the 2-flow scenario (proof step 3).
    // simlint: hot-root: the event loop — everything it reaches runs per event
    pub fn run_capture(mut self) -> (SimResult, Vec<cca::BoxCca>) {
        let mut counts = EvCounts::default();
        // Same-time events drain in one slot search and dispatch in
        // insertion order — the exact order the per-event pop loop
        // produced; events a handler schedules at the current instant
        // land in the next batch. The buffer grows once to the largest
        // same-time cohort and is reused for the rest of the run.
        // simlint: allow(hot-path-alloc): single reused batch buffer, amortized across the run
        let mut batch: Vec<Ev> = Vec::new();
        while self.q.pop_batch_at_or_before(self.end, &mut batch).is_some() {
            for ev in batch.drain(..) {
                match ev {
                    Ev::Wake(f) => { counts.wake += 1; self.on_wake(f) }
                    Ev::Depart => { counts.depart += 1; self.on_depart() }
                    Ev::DataArrive(pkt) => { counts.data_arrive += 1; self.on_data_arrive(pkt) }
                    Ev::AckArrive(ack) => { counts.ack_arrive += 1; self.on_ack_arrive(ack) }
                    Ev::RxFlush(f, t) => { counts.rx_flush += 1; self.on_rx_flush(f, t) }
                    Ev::Rto(f, t) => { counts.rto += 1; self.on_rto(f, t) }
                    Ev::FlowArrival => { counts.flow_arrival += 1; self.on_flow_arrival() }
                }
            }
        }
        let end = self.end;
        if let Some(tr) = self.trace.as_mut() {
            let queued = self.link.queued_packets().filter(|p| p.flow != Self::PHANTOM).count();
            tr.event(end, &Event::RunEnd { queued_pkts: count_as_u64(queued) });
            tr.finish(end);
        }
        let utilization = self.link.utilization(end);
        // simlint: allow(hot-path-alloc): end-of-run result assembly, once per run
        let ccas: Vec<cca::BoxCca> = self.flows.iter().map(|s| s.sender.cca_snapshot()).collect();
        let flows = self
            .flows
            .into_iter()
            .enumerate()
            .map(|(i, s)| FlowRecord {
                id: FlowId::from_index(i),
                metrics: s.sender.metrics,
                drops: s.drops,
                jitter_clamps: s.jitter.clamp_violations(),
            })
            // simlint: allow(hot-path-alloc): end-of-run result assembly, once per run
            .collect();
        (SimResult { flows, utilization, end, events: counts.total(), counts }, ccas)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{AckPolicy, FlowConfig, LinkConfig};
    use crate::jitter::Jitter;
    use cca::ConstCwnd;
    use simcore::units::Rate;

    fn one_flow(cwnd_pkts: u64, rate_mbps: f64, rm_ms: u64, secs: u64) -> SimResult {
        let link = LinkConfig::ample_buffer(Rate::from_mbps(rate_mbps));
        let flow = FlowConfig::bulk(
            Box::new(ConstCwnd::new(cwnd_pkts * 1500)),
            Dur::from_millis(rm_ms),
        );
        Network::new(SimConfig::new(link, vec![flow], Dur::from_secs(secs))).run()
    }

    #[test]
    fn const_cwnd_throughput_is_window_over_rtt() {
        // cwnd = 10 pkts, RTT = 50 ms (no queueing at this rate):
        // throughput = 10*1500*8/0.05 = 2.4 Mbit/s.
        let r = one_flow(10, 100.0, 50, 5);
        let tput = r.flows[0].throughput_at(r.end).mbps();
        assert!((tput - 2.4).abs() < 0.1, "tput={tput}");
    }

    #[test]
    fn rtt_equals_rm_plus_tx_when_unqueued() {
        let r = one_flow(2, 12.0, 50, 2);
        // 1500 B at 12 Mbit/s = 1 ms of transmission + 50 ms Rm.
        let (lo, hi) = r.flows[0]
            .rtt_range_in(Time::from_secs(1), r.end)
            .expect("an unqueued constant window samples RTTs continuously");
        assert!((lo - 0.051).abs() < 1e-6, "lo={lo}");
        assert!((hi - 0.051).abs() < 1e-6, "hi={hi}");
    }

    #[test]
    fn saturating_window_fills_link() {
        // BDP at 12 Mbit/s, 50 ms = 50 pkts; cwnd 100 saturates the link.
        let r = one_flow(100, 12.0, 50, 5);
        let tput = r.flows[0].throughput_at(r.end).mbps();
        assert!(tput > 11.0, "tput={tput}");
        // Standing queue of ~50 packets → RTT ≈ 100 ms.
        let mean = r.flows[0]
            .mean_rtt_in(Time::from_secs(2), r.end)
            .expect("a saturating flow samples RTTs past warmup");
        assert!((mean - 0.100).abs() < 0.01, "mean={mean}");
    }

    #[test]
    fn two_flows_share_fifo() {
        let link = LinkConfig::ample_buffer(Rate::from_mbps(12.0));
        let mk = || {
            FlowConfig::bulk(Box::new(ConstCwnd::new(60 * 1500)), Dur::from_millis(50))
        };
        let r = Network::new(SimConfig::new(link, vec![mk(), mk()], Dur::from_secs(5))).run();
        // Identical windows → equal shares.
        let t0 = r.flows[0].throughput_at(r.end).mbps();
        let t1 = r.flows[1].throughput_at(r.end).mbps();
        assert!((t0 - t1).abs() / t0 < 0.05, "t0={t0} t1={t1}");
        assert!(t0 + t1 > 11.0);
    }

    #[test]
    fn random_loss_detected_and_recovered() {
        let link = LinkConfig::ample_buffer(Rate::from_mbps(12.0));
        let flow = FlowConfig::bulk(Box::new(ConstCwnd::new(30 * 1500)), Dur::from_millis(40))
            .with_loss(0.02, 123);
        let r = Network::new(SimConfig::new(link, vec![flow], Dur::from_secs(10))).run();
        let m = &r.flows[0];
        assert!(m.lost_bytes > 0, "no loss detected");
        // The flow keeps making progress despite the loss.
        assert!(m.throughput_at(r.end).mbps() > 1.0);
        // Declared loss tracks the injected 2% but over-counts when an RTO
        // go-back-N retransmits packets the receiver already has (classic
        // SACK-less TCP behaviour).
        let measured = m.loss_fraction();
        assert!(measured > 0.01 && measured < 0.08, "loss={measured}");
    }

    #[test]
    fn finite_buffer_tail_drops() {
        let link = LinkConfig::new(Rate::from_mbps(6.0), 10 * 1500);
        let flow = FlowConfig::bulk(Box::new(ConstCwnd::new(100 * 1500)), Dur::from_millis(40));
        let r = Network::new(SimConfig::new(link, vec![flow], Dur::from_secs(5))).run();
        assert!(r.flows[0].drops > 0, "expected tail drops");
        // A constant window 10× the buffer is pathological — most of every
        // window drops, retransmissions drop too, and RTO backoff stretches
        // recovery exponentially — but the flow must keep making *some*
        // progress, and must rely on timeouts to do it.
        assert!(r.flows[0].total_delivered() >= 20 * 1500);
        assert!(r.flows[0].timeouts > 0);
    }

    #[test]
    fn jitter_increases_observed_rtt() {
        let link = LinkConfig::ample_buffer(Rate::from_mbps(12.0));
        let flow = FlowConfig::bulk(Box::new(ConstCwnd::new(2 * 1500)), Dur::from_millis(50))
            .with_jitter(Jitter::Random {
                max: Dur::from_millis(20),
                rng: Xoshiro256::new(5),
            });
        let r = Network::new(SimConfig::new(link, vec![flow], Dur::from_secs(5))).run();
        let (lo, hi) = r.flows[0]
            .rtt_range_in(Time::from_secs(1), r.end)
            .expect("the jittered flow still delivers and samples RTTs");
        assert!(lo >= 0.051 - 1e-9);
        assert!(hi > 0.060, "hi={hi}");
        assert!(hi < 0.072, "hi={hi}");
    }

    #[test]
    fn quantized_acks_arrive_on_boundaries() {
        let link = LinkConfig::ample_buffer(Rate::from_mbps(12.0));
        let flow = FlowConfig::bulk(Box::new(ConstCwnd::new(20 * 1500)), Dur::from_millis(40))
            .with_ack_policy(AckPolicy::Quantized {
                period: Dur::from_millis(60),
            });
        let r = Network::new(SimConfig::new(link, vec![flow], Dur::from_secs(3))).run();
        // All RTT samples were taken at multiples of 60 ms.
        for &(t, _) in r.flows[0].rtt.points() {
            assert_eq!(t.as_nanos() % Dur::from_millis(60).as_nanos(), 0, "t={t}");
        }
        assert!(r.flows[0].total_delivered() > 0);
    }

    #[test]
    fn delayed_start_respected() {
        let link = LinkConfig::ample_buffer(Rate::from_mbps(12.0));
        let flow = FlowConfig::bulk(Box::new(ConstCwnd::new(10 * 1500)), Dur::from_millis(40))
            .with_start(Time::from_secs(2));
        let r = Network::new(SimConfig::new(link, vec![flow], Dur::from_secs(4))).run();
        let first = r.flows[0].delivered.first().map(|(t, _)| t).unwrap();
        assert!(first >= Time::from_secs(2));
    }

    #[test]
    fn determinism_same_seed_same_result() {
        let run = || {
            let link = LinkConfig::ample_buffer(Rate::from_mbps(12.0));
            let flow =
                FlowConfig::bulk(Box::new(ConstCwnd::new(30 * 1500)), Dur::from_millis(40))
                    .with_loss(0.01, 9)
                    .with_jitter(Jitter::Random {
                        max: Dur::from_millis(5),
                        rng: Xoshiro256::new(3),
                    });
            let r = Network::new(SimConfig::new(link, vec![flow], Dur::from_secs(3))).run();
            (r.flows[0].total_delivered(), r.flows[0].sent_bytes)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn datagram_transport_survives_heavy_loss() {
        // A datagram flow with a big constant window and 5% loss keeps its
        // goodput near (1 − p)·window-rate: no go-back-N collapse.
        let link = LinkConfig::ample_buffer(Rate::from_mbps(120.0));
        let flow = FlowConfig::bulk(Box::new(ConstCwnd::new(100 * 1500)), Dur::from_millis(40))
            .with_transport(Transport::Datagram)
            .with_loss(0.05, 77);
        let r = Network::new(SimConfig::new(link, vec![flow], Dur::from_secs(10))).run();
        let m = &r.flows[0];
        // Window rate = 100 pkts / 40 ms = 30 Mbit/s; goodput ≈ 28.5.
        let tput = m.throughput_at(r.end).mbps();
        assert!(tput > 25.0, "tput={tput}");
        // Measured loss tracks the injected rate.
        let frac = m.loss_fraction();
        assert!((frac - 0.05).abs() < 0.01, "loss={frac}");
        assert_eq!(m.retransmitted_bytes, 0);
    }

    #[test]
    fn audited_lossy_jittery_run_passes_and_traces() {
        // The auditor's six invariants must hold on a stressful scenario:
        // 2% loss (RTO go-back-N, spurious retransmits), 5 ms jitter, a
        // finite buffer (tail drops). A RingSink downstream of the auditor
        // verifies the full event stream reaches the configured sink.
        use simcore::trace::{RingSink, TraceSink};
        use std::sync::Arc;
        let ring = RingSink::new(64);
        let probe = ring.clone();
        let link = LinkConfig::new(Rate::from_mbps(12.0), 30 * 1500);
        let flow = FlowConfig::bulk(Box::new(ConstCwnd::new(30 * 1500)), Dur::from_millis(40))
            .with_loss(0.02, 123)
            .with_jitter(Jitter::Random {
                max: Dur::from_millis(5),
                rng: Xoshiro256::new(11),
            });
        let cfg = SimConfig::new(link, vec![flow], Dur::from_secs(5))
            .with_trace(Arc::new(move || {
                Box::new(probe.clone()) as Box<dyn TraceSink>
            }))
            .with_audit(true);
        let r = Network::new(cfg).run();
        assert!(r.flows[0].total_delivered() > 0);
        let digest = ring.digest();
        for class in ["send", "enqueue", "dequeue", "jitter-hold", "ack", "cwnd", "run-end"] {
            assert!(digest.count(class) > 0, "no {class} events: {}", digest.render());
        }
    }

    #[test]
    fn tracing_does_not_change_results() {
        // NullSink tracing and auditing must be observationally inert.
        let run = |trace: bool| {
            let link = LinkConfig::ample_buffer(Rate::from_mbps(12.0));
            let flow =
                FlowConfig::bulk(Box::new(ConstCwnd::new(30 * 1500)), Dur::from_millis(40))
                    .with_loss(0.01, 9)
                    .with_jitter(Jitter::Random {
                        max: Dur::from_millis(5),
                        rng: Xoshiro256::new(3),
                    });
            let mut cfg = SimConfig::new(link, vec![flow], Dur::from_secs(3));
            if trace {
                cfg = cfg
                    .with_trace(std::sync::Arc::new(|| {
                        Box::new(simcore::trace::NullSink) as Box<dyn simcore::trace::TraceSink>
                    }))
                    .with_audit(true);
            }
            let r = Network::new(cfg).run();
            (
                r.flows[0].total_delivered(),
                r.flows[0].sent_bytes,
                r.flows[0].lost_bytes,
            )
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn conservation_sent_accounted() {
        let r = one_flow(20, 12.0, 40, 3);
        let m = &r.flows[0];
        // No loss path: delivered + in-flight-ish ≈ sent. Everything sent
        // minus at most a window is delivered.
        assert!(m.sent_bytes >= m.total_delivered());
        assert!(m.sent_bytes - m.total_delivered() <= 21 * 1500);
    }

    #[test]
    fn finite_flow_records_completion_time() {
        let link = LinkConfig::ample_buffer(Rate::from_mbps(12.0));
        let flow = FlowConfig::bulk(Box::new(ConstCwnd::new(10 * 1500)), Dur::from_millis(40))
            .with_size(30 * 1500);
        let r = Network::new(SimConfig::new(link, vec![flow], Dur::from_secs(10))).run();
        let m = &r.flows[0];
        assert_eq!(m.total_delivered(), 30 * 1500);
        let fct = m.fct().expect("a 45 kB flow finishes well inside 10 s");
        // 3 windows of 10 packets at ~41 ms per round trip.
        assert!(fct >= Dur::from_millis(80), "fct={fct}");
        assert!(fct < Dur::from_millis(500), "fct={fct}");
        // Throughput is measured over the flow's lifetime, not the run.
        assert!(m.throughput_at(r.end).mbps() > 1.0);
    }

    #[test]
    fn workload_spawns_flows_on_schedule_and_retires_them() {
        use crate::workload::{ArrivalProcess, SizeDist, Workload};
        let link = LinkConfig::ample_buffer(Rate::from_mbps(48.0));
        let wl = Workload::new(
            3,
            ArrivalProcess::Fixed { interval: Dur::from_millis(200) },
            SizeDist::Fixed { bytes: 20 * 1500 },
            Box::new(ConstCwnd::ten_packets()),
            Dur::from_millis(20),
        )
        .with_start(Time::from_millis(100));
        let cfg = SimConfig::new(link, vec![], Dur::from_secs(5)).with_workload(wl);
        let r = Network::new(cfg).run();
        assert_eq!(r.flows.len(), 3);
        for (i, f) in r.flows.iter().enumerate() {
            let expect_start = Time::from_millis(100 + 200 * count_as_u64(i));
            assert_eq!(f.start, expect_start, "flow {i}");
            assert_eq!(f.total_delivered(), 20 * 1500, "flow {i}");
            assert!(f.fct().is_some(), "flow {i} never completed");
        }
        // All three finished: every FCT is well under the arrival spacing
        // plus a few RTTs.
        assert!(r.fcts().len() == 3);
    }

    #[test]
    fn workload_arrivals_past_the_end_are_dropped() {
        use crate::workload::{ArrivalProcess, SizeDist, Workload};
        let link = LinkConfig::ample_buffer(Rate::from_mbps(48.0));
        let wl = Workload::new(
            100,
            ArrivalProcess::Fixed { interval: Dur::from_millis(300) },
            SizeDist::Fixed { bytes: 1500 },
            Box::new(ConstCwnd::ten_packets()),
            Dur::from_millis(20),
        );
        let cfg = SimConfig::new(link, vec![], Dur::from_secs(1)).with_workload(wl);
        let r = Network::new(cfg).run();
        // Arrivals at 0, 300, 600, 900 ms fit inside the 1 s run.
        assert_eq!(r.flows.len(), 4);
    }

    #[test]
    fn audited_workload_with_loss_and_jitter_passes_and_traces_lifecycle() {
        // Mid-run arrivals and departures under loss and jitter must satisfy
        // every auditor invariant, including the flow-retire byte identity:
        // a retired flow's in-flight bytes all resolve before completion.
        use crate::workload::{ArrivalProcess, SizeDist, Workload};
        use simcore::trace::{RingSink, TraceSink};
        use std::sync::Arc;
        let ring = RingSink::new(64);
        let probe = ring.clone();
        let link = LinkConfig::new(Rate::from_mbps(24.0), 60 * 1500);
        let wl = Workload::new(
            20,
            ArrivalProcess::Poisson { mean: Dur::from_millis(120), seed: 21 },
            SizeDist::Pareto {
                min_bytes: 12_000,
                alpha: 1.3,
                cap_bytes: 150_000,
                seed: 22,
            },
            Box::new(ConstCwnd::ten_packets()),
            Dur::from_millis(30),
        )
        .with_jitter(Dur::from_millis(4), 23)
        .with_loss(0.01, 24);
        let cfg = SimConfig::new(link, vec![], Dur::from_secs(8))
            .with_workload(wl)
            .with_trace(Arc::new(move || Box::new(probe.clone()) as Box<dyn TraceSink>))
            .with_audit(true);
        let r = Network::new(cfg).run();
        assert_eq!(r.flows.len(), 20);
        let digest = ring.digest();
        assert_eq!(digest.count("flow-arrive"), 20);
        let completed = r.fcts().len();
        assert!(completed >= 15, "only {completed}/20 flows completed");
        assert_eq!(digest.count("flow-complete"), count_as_u64(completed));
    }

    #[test]
    fn workload_runs_are_deterministic() {
        use crate::workload::{ArrivalProcess, SizeDist, Workload};
        let run = || {
            let link = LinkConfig::new(Rate::from_mbps(24.0), 60 * 1500);
            let wl = Workload::new(
                12,
                ArrivalProcess::Poisson { mean: Dur::from_millis(100), seed: 5 },
                SizeDist::Pareto {
                    min_bytes: 10_000,
                    alpha: 1.2,
                    cap_bytes: 200_000,
                    seed: 6,
                },
                Box::new(ConstCwnd::ten_packets()),
                Dur::from_millis(25),
            )
            .with_loss(0.02, 7);
            let cfg = SimConfig::new(link, vec![], Dur::from_secs(6)).with_workload(wl);
            let r = Network::new(cfg).run();
            r.flows
                .iter()
                .map(|f| (f.start, f.completed, f.sent_bytes, f.total_delivered()))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    // ---- One handler at a time: put the network in the state the event
    // finds it in, call the handler once, look at what it left behind. ----

    const F0: FlowId = FlowId::from_raw(0);

    /// One flow with a 3-packet constant window on a 12 Mbit/s link (1 ms
    /// per 1500 B packet, room for 4), Rm = 40 ms; clock at zero with the
    /// start-time wake popped, so the queue holds only what the handler
    /// under test schedules.
    fn idle_net(shape: impl FnOnce(FlowConfig) -> FlowConfig) -> Network {
        let link = LinkConfig::new(Rate::from_mbps(12.0), 4 * 1500);
        let flow = FlowConfig::bulk(Box::new(ConstCwnd::new(3 * 1500)), Dur::from_millis(40));
        let mut net = Network::new(SimConfig::new(link, vec![shape(flow)], Dur::from_secs(10)));
        assert!(matches!(net.q.pop(), Some((Time::ZERO, Ev::Wake(F0)))));
        assert!(net.q.is_empty());
        net
    }

    /// Move the clock to `t` the only way it moves: by popping an event.
    fn advance(net: &mut Network, t: Time) {
        net.q.schedule_at(t, Ev::FlowArrival);
        net.q.pop();
    }

    /// The sender's next packet, as `pump` would get it.
    fn emit_one(net: &mut Network) -> Packet {
        let now = net.q.now();
        match net.flows[0].sender.try_emit(now) {
            Emit::Pkt(p) => p,
            other => panic!("expected a packet, got {other:?}"),
        }
    }

    #[test]
    fn on_wake_sends_what_pacing_allows_and_arms_one_wake() {
        // App-limited to the link rate: one packet per millisecond.
        let mut net = idle_net(|f| f.with_app_limit(Some(Rate::from_mbps(12.0))));
        net.flows[0].wake_armed = Some(Time::ZERO); // the wake being handled
        net.on_wake(F0);
        assert_eq!(net.link.queue_len(), 1);
        // First departure, the next pacing wake, and the RTO.
        assert_eq!(net.q.len(), 3);
        assert_eq!(net.flows[0].wake_armed, Some(Time::from_millis(1)));
        let rto = net.flows[0].rto_scheduled.expect("a sent packet arms the RTO");
        assert_eq!(Some(rto), net.flows[0].sender.rto_deadline());
        // A duplicate wake at the same instant must not arm a second timer
        // of either kind.
        net.on_wake(F0);
        assert_eq!((net.link.queue_len(), net.q.len()), (1, 3));
    }

    #[test]
    fn on_depart_forwards_the_head_through_rm_and_keeps_the_chain_going() {
        let mut net = idle_net(|f| f);
        let (a, b) = (emit_one(&mut net), emit_one(&mut net));
        assert_eq!(net.link.enqueue(Time::ZERO, a), Enqueue::Accepted(Some(Time::from_millis(1))));
        assert_eq!(net.link.enqueue(Time::ZERO, b), Enqueue::Accepted(None));
        advance(&mut net, Time::from_millis(1));
        net.on_depart();
        assert_eq!(net.link.queue_len(), 1);
        assert_eq!(net.q.len(), 2);
        assert!(matches!(net.q.pop(), Some((t, Ev::Depart)) if t == Time::from_millis(2)));
        // No jitter element: arrival is departure + Rm.
        match net.q.pop() {
            Some((t, Ev::DataArrive(p))) => assert_eq!((t, p.seq), (Time::from_millis(41), a.seq)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn on_depart_discards_phantom_filler() {
        let mut net = idle_net(|f| f);
        net.prefill_queue(1500, 1500);
        assert!(matches!(net.q.pop(), Some((_, Ev::Depart))));
        net.on_depart();
        assert_eq!((net.link.queue_len(), net.q.len()), (0, 0));
    }

    #[test]
    fn on_data_arrive_acks_at_the_same_instant() {
        let mut net = idle_net(|f| f);
        let pkt = emit_one(&mut net);
        advance(&mut net, Time::from_millis(41));
        net.on_data_arrive(pkt);
        assert_eq!(net.flows[0].receiver.packets_received, 1);
        match net.q.pop() {
            Some((t, Ev::AckArrive(ack))) => {
                assert_eq!((t, ack.flow, ack.cum_seq), (Time::from_millis(41), F0, Some(pkt.seq)));
            }
            other => panic!("{other:?}"),
        }
        assert!(net.q.is_empty());
    }

    #[test]
    fn on_data_arrive_under_delayed_acks_arms_the_flush_instead() {
        let policy = AckPolicy::Delayed { max_pkts: 4, timeout: Dur::from_millis(10) };
        let mut net = idle_net(|f| f.with_ack_policy(policy));
        let pkt = emit_one(&mut net);
        advance(&mut net, Time::from_millis(41));
        net.on_data_arrive(pkt);
        let due = Time::from_millis(51);
        assert!(matches!(net.q.pop(), Some((t, Ev::RxFlush(F0, d))) if t == due && d == due));
        assert!(net.q.is_empty());
    }

    #[test]
    fn on_rx_flush_releases_the_held_ack_and_ignores_a_stale_timer() {
        let policy = AckPolicy::Delayed { max_pkts: 4, timeout: Dur::from_millis(10) };
        let mut net = idle_net(|f| f.with_ack_policy(policy));
        let pkt = emit_one(&mut net);
        let out = net.flows[0].receiver.on_data(Time::from_millis(41), pkt);
        let due = out.arm_flush.expect("the first held packet arms the flush timer");
        advance(&mut net, due);
        net.on_rx_flush(F0, due - Dur::from_millis(1));
        assert!(net.q.is_empty(), "a superseded timer releases nothing");
        net.on_rx_flush(F0, due);
        assert!(matches!(net.q.pop(), Some((t, Ev::AckArrive(a))) if t == due && a.cum_seq == Some(pkt.seq)));
        assert!(net.q.is_empty());
    }

    #[test]
    fn on_ack_arrive_opens_the_window_and_rearms_the_rto() {
        let mut net = idle_net(|f| f);
        let first = emit_one(&mut net);
        emit_one(&mut net);
        emit_one(&mut net);
        assert_eq!(net.flows[0].sender.try_emit(Time::ZERO), Emit::Blocked);
        let ack = net.flows[0]
            .receiver
            .on_data(Time::from_millis(41), first)
            .ack()
            .expect("per-packet policy acks at once");
        advance(&mut net, Time::from_millis(41));
        net.on_ack_arrive(ack);
        assert_eq!(net.flows[0].sender.metrics.rtt.len(), 1);
        // One packet acked, one packet sent: onto the idle link, so its
        // departure is scheduled, and the RTO follows the new deadline.
        assert_eq!(net.link.queue_len(), 1);
        assert_eq!(net.q.len(), 2);
        assert_eq!(net.q.peek_time(), Some(Time::from_millis(42)));
        assert!(net.flows[0].rto_scheduled.is_some());
        assert_eq!(net.flows[0].rto_scheduled, net.flows[0].sender.rto_deadline());
        assert_eq!(net.flows[0].wake_armed, None);
    }

    #[test]
    fn on_rto_retransmits_and_backs_off_and_ignores_a_stale_timer() {
        let mut net = idle_net(|f| f);
        // Three packets leave the sender and vanish on the path.
        for _ in 0..3 {
            emit_one(&mut net);
        }
        let deadline = net.flows[0].sender.rto_deadline().expect("data in flight arms the RTO");
        advance(&mut net, deadline);
        net.on_rto(F0, deadline - Dur::from_millis(1));
        assert_eq!((net.flows[0].sender.metrics.timeouts, net.q.len()), (0, 0));
        net.on_rto(F0, deadline);
        assert_eq!(net.flows[0].sender.metrics.timeouts, 1);
        let head = net.link.queued_packets().next().expect("go-back-N resends from the hole");
        assert!(head.retransmit && head.seq == 0);
        assert!(net.flows[0].rto_scheduled > Some(deadline), "the next timeout is later");
        assert_eq!(net.flows[0].rto_scheduled, net.flows[0].sender.rto_deadline());
        // The retransmissions' first departure and the re-armed RTO.
        assert_eq!(net.q.len(), 2);
    }

    #[test]
    fn on_flow_arrival_spawns_one_flow_and_reschedules_until_the_last() {
        use crate::workload::{ArrivalProcess, SizeDist, Workload};
        let wl = Workload::new(
            2,
            ArrivalProcess::Fixed { interval: Dur::from_millis(200) },
            SizeDist::Fixed { bytes: 3000 },
            Box::new(ConstCwnd::ten_packets()),
            Dur::from_millis(20),
        )
        .with_start(Time::from_millis(100));
        let link = LinkConfig::ample_buffer(Rate::from_mbps(12.0));
        let mut net =
            Network::new(SimConfig::new(link, vec![], Dur::from_secs(1)).with_workload(wl));
        assert!(matches!(net.q.pop(), Some((t, Ev::FlowArrival)) if t == Time::from_millis(100)));
        net.on_flow_arrival();
        assert_eq!(net.flows.len(), 1);
        assert_eq!(net.flows[0].sender.start(), Time::from_millis(100));
        assert!(matches!(net.q.pop(), Some((t, Ev::Wake(F0))) if t == Time::from_millis(100)));
        assert!(matches!(net.q.pop(), Some((t, Ev::FlowArrival)) if t == Time::from_millis(300)));
        net.on_flow_arrival();
        assert_eq!(net.flows.len(), 2);
        // The last arrival schedules its own wake and no successor.
        assert_eq!(net.q.len(), 1);
        assert_eq!(net.link.queue_len(), 0);
    }
}
