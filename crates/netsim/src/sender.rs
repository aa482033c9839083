//! The sending endpoint: window + pacing transmission, duplicate-ACK fast
//! retransmit, NewReno-style recovery, and retransmission timeouts.
//!
//! The sender owns the CCA (any [`cca::CongestionControl`]) and feeds it
//! [`cca::AckEvent`]s with exact RTT samples and BBR-style delivery-rate
//! samples, and [`cca::LossEvent`]s when it detects loss. The CCA never sees
//! raw packets — exactly the paper's model of a CCA as a function of its
//! observed delay history (§4.3).

use crate::config::Transport;
use crate::metrics::FlowMetrics;
use crate::packet::{Ack, FlowId, Packet};
use crate::pktstore::{PktStore, SentPkt};
use cca::{AckEvent, BoxCca, LossEvent, LossKind};
use simcore::filter::RttEstimator;
use simcore::units::{bytes_as_f64, count_as_u64, Dur, Rate, Time};
use std::collections::VecDeque;

/// Result of asking the sender for its next transmission.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Emit {
    /// Transmit this packet now.
    Pkt(Packet),
    /// Nothing sendable until this time (pacing or app-limit gate).
    WaitUntil(Time),
    /// Window-blocked: an ACK (or timeout) must arrive first.
    Blocked,
}

/// A snapshot of one flow's byte accounting, taken after processing an
/// acknowledgement. The trace auditor checks the exact identity
/// `sent + spurious_rtx = delivered + in_flight + lost + unresolved`:
/// every transmitted byte is delivered, outstanding, declared lost, or
/// held by the receiver above the cumulative point (`unresolved`), and
/// the only slack is loss declarations the cumulative ACK later revoked
/// (`spurious_rtx`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Accounting {
    /// Lifetime bytes transmitted, including retransmissions.
    pub sent: u64,
    /// Lifetime bytes cumulatively acknowledged.
    pub delivered: u64,
    /// Bytes currently outstanding.
    pub in_flight: u64,
    /// Lifetime bytes declared lost.
    pub lost: u64,
    /// Bytes SACKed or RTO-orphaned above the cumulative point.
    pub unresolved: u64,
    /// Bytes declared lost whose original copy was cumulatively
    /// acknowledged before the retransmission left.
    pub spurious_rtx: u64,
}

/// Sending endpoint of one flow.
pub struct Sender {
    flow: FlowId,
    cca: BoxCca,
    mss: u64,
    transport: Transport,
    app_limit: Option<Rate>,
    /// Finite flows: packets to send before the flow is done
    /// (`ceil(size / mss)`). `None` means bulk (runs to the end).
    budget_pkts: Option<u64>,
    /// When the flow finished delivering its byte budget.
    completed: Option<Time>,
    /// Completion not yet reported to the simulator (take-once).
    completion_pending: bool,
    /// Next never-sent sequence number.
    next_seq: u64,
    /// Highest cumulative ACK received.
    cum_acked: Option<u64>,
    /// Per-sequence packet state: outstanding / sacked / limbo /
    /// retx-done, with exact per-packet byte accounting.
    store: PktStore,
    /// Sequences queued for retransmission (sent before new data).
    retx_queue: VecDeque<u64>,
    /// Reusable scratch for hole collection (`detect_sack_losses`,
    /// `process_sack`) — keeps the per-ACK path allocation-free.
    hole_buf: Vec<(u64, Time, u64)>,
    /// Reusable scratch for RTO drains.
    rto_buf: Vec<u64>,
    /// Bytes declared lost whose original transmission was cumulatively
    /// acknowledged before the retransmission left (spurious go-back-N
    /// declarations; the sim-level test notes this over-count).
    spurious_rtx: u64,
    /// Total bytes cumulatively acknowledged.
    delivered: u64,
    dup_acks: u32,
    /// NewReno recovery: highest sequence outstanding when loss was
    /// detected; recovery ends when `cum_acked` passes it.
    recover: Option<u64>,
    next_send_time: Time,
    rto_deadline: Option<Time>,
    rto_backoff: u32,
    rtt_est: RttEstimator,
    start: Time,
    /// Recorded per-flow statistics.
    pub metrics: FlowMetrics,
    sample_every: Dur,
    last_sample: Time,
}

impl Sender {
    /// A sender for `flow` driving `cca`, starting at `start`.
    pub fn new(
        flow: FlowId,
        cca: BoxCca,
        mss: u64,
        app_limit: Option<Rate>,
        start: Time,
        sample_every: Dur,
    ) -> Self {
        Sender {
            flow,
            cca,
            mss,
            transport: Transport::Reliable,
            app_limit,
            budget_pkts: None,
            completed: None,
            completion_pending: false,
            next_seq: 0,
            cum_acked: None,
            store: PktStore::default(),
            retx_queue: VecDeque::new(),
            hole_buf: Vec::new(),
            rto_buf: Vec::new(),
            spurious_rtx: 0,
            delivered: 0,
            dup_acks: 0,
            recover: None,
            next_send_time: start,
            rto_deadline: None,
            rto_backoff: 0,
            rtt_est: RttEstimator::new(),
            start,
            metrics: FlowMetrics::new(start),
            sample_every,
            last_sample: Time::ZERO,
        }
    }

    /// Bytes currently in flight: the sum of the wire lengths of every
    /// outstanding packet (not `count * mss`, which over-counts a final
    /// segment shorter than one MSS).
    pub fn in_flight(&self) -> u64 {
        self.store.outstanding_bytes()
    }

    /// Total bytes cumulatively acknowledged.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// The CCA's current congestion window (bytes).
    pub fn cwnd(&self) -> u64 {
        self.cca.cwnd()
    }

    /// Immutable access to the CCA (for state snapshots / inspection).
    pub fn cca(&self) -> &dyn cca::CongestionControl {
        self.cca.as_ref()
    }

    /// Clone the CCA's current state.
    // simlint: cold: end-of-run state capture (and warm-start setup), never per event
    pub fn cca_snapshot(&self) -> BoxCca {
        self.cca.clone_box()
    }

    /// Switch the reliability model (set once, before the run).
    pub fn set_transport(&mut self, t: Transport) {
        self.transport = t;
    }

    /// Give the flow a finite byte budget (set once, before the run).
    /// `None` keeps the default bulk behaviour.
    pub fn set_size(&mut self, size: Option<u64>) {
        self.budget_pkts = size.map(|s| s.max(1).div_ceil(self.mss));
    }

    /// When the flow delivered its full byte budget (`None` while active
    /// or for bulk flows).
    pub fn completed(&self) -> Option<Time> {
        self.completed
    }

    /// Take the not-yet-reported completion time, if any. Returns
    /// `Some` exactly once per flow, so the simulator emits exactly one
    /// retirement event.
    pub fn take_completion(&mut self) -> Option<Time> {
        if self.completion_pending {
            self.completion_pending = false;
            self.completed
        } else {
            None
        }
    }

    /// Check whether a finite flow has just delivered its whole budget;
    /// if so, record completion and disarm the retransmission timer.
    fn check_complete(&mut self, now: Time) {
        let Some(budget) = self.budget_pkts else {
            return;
        };
        if self.completed.is_some() {
            return;
        }
        let done = match self.transport {
            // Reliable delivery: the cumulative ACK must cover the budget.
            Transport::Reliable => self.cum_acked.is_some_and(|c| c + 1 >= budget),
            // Datagrams are never retransmitted: the flow is done when
            // everything has been sent and every packet's fate is known.
            Transport::Datagram => {
                self.next_seq >= budget
                    && self.store.is_outstanding_empty()
                    && self.retx_queue.is_empty()
            }
        };
        if done {
            self.completed = Some(now);
            self.completion_pending = true;
            self.metrics.completed = Some(now);
            self.rto_deadline = None;
        }
    }

    /// Whether the sender is in NewReno recovery.
    pub fn in_recovery(&self) -> bool {
        self.recover.is_some()
    }

    /// Current byte-accounting snapshot (see [`Accounting`]).
    pub fn accounting(&self) -> Accounting {
        Accounting {
            sent: self.metrics.sent_bytes,
            delivered: self.delivered,
            in_flight: self.in_flight(),
            lost: self.metrics.lost_bytes,
            unresolved: self.store.unresolved_bytes(),
            spurious_rtx: self.spurious_rtx,
        }
    }

    /// Current RTO deadline the simulator should have armed.
    pub fn rto_deadline(&self) -> Option<Time> {
        self.rto_deadline
    }

    /// The flow's start time.
    pub fn start(&self) -> Time {
        self.start
    }

    fn pacing_gap(&self) -> Dur {
        let mut gap = match self.cca.pacing_rate() {
            Some(r) => r.tx_time(self.mss),
            None => Dur::ZERO,
        };
        if let Some(app) = self.app_limit {
            gap = gap.max(app.tx_time(self.mss));
        }
        gap
    }

    /// Ask for the next transmission at `now`.
    pub fn try_emit(&mut self, now: Time) -> Emit {
        if now < self.start {
            return Emit::WaitUntil(self.start);
        }
        if now < self.next_send_time {
            return Emit::WaitUntil(self.next_send_time);
        }
        // Retransmissions bypass the window check: the lost packet's bytes
        // were already removed from `outstanding`.
        let (seq, is_retx) = match self.retx_queue.front() {
            Some(&seq) => (seq, true),
            None => {
                // Finite flows stop producing fresh data once the budget is
                // fully sent (retransmissions above still drain).
                if self.budget_pkts.is_some_and(|b| self.next_seq >= b) {
                    return Emit::Blocked;
                }
                if self.in_flight() + self.mss > self.cca.cwnd() {
                    return Emit::Blocked;
                }
                (self.next_seq, false)
            }
        };
        if is_retx {
            self.retx_queue.pop_front();
        } else {
            self.next_seq += 1;
        }
        let pkt = Packet {
            flow: self.flow,
            seq,
            bytes: self.mss,
            sent_at: now,
            delivered_at_send: self.delivered,
            app_limited: self.app_limit.is_some(),
            retransmit: is_retx,
            ecn: false,
        };
        self.store.insert(
            seq,
            SentPkt {
                sent_at: now,
                delivered_at_send: self.delivered,
                bytes: self.mss,
                retransmit: is_retx,
            },
        );
        self.next_send_time = now + self.pacing_gap();
        // Start the retransmission timer only if it isn't already running:
        // re-arming on every send would push the deadline forward forever
        // while new data keeps flowing past a stalled hole.
        if self.rto_deadline.is_none() {
            self.arm_rto(now);
        }
        self.cca.on_send(now, self.mss, self.in_flight());
        self.metrics.sent_bytes += self.mss;
        if is_retx {
            self.metrics.retransmitted_bytes += self.mss;
        }
        Emit::Pkt(pkt)
    }

    fn arm_rto(&mut self, now: Time) {
        let backoff = 1u64 << self.rto_backoff.min(12);
        self.rto_deadline = Some(now + Dur(self.rtt_est.rto().0.saturating_mul(backoff)));
    }

    /// Process an arriving ACK. Returns `true` if it made forward progress.
    pub fn process_ack(&mut self, now: Time, ack: &Ack) -> bool {
        if self.transport == Transport::Datagram {
            return self.process_sack(now, ack);
        }
        let progress = match (ack.cum_seq, self.cum_acked) {
            (Some(new), Some(old)) => new > old,
            (Some(_), None) => true,
            (None, _) => false,
        };

        // Merge SACK blocks: those packets reached the receiver and are no
        // longer in flight (the delivery-rate echo lookup happens first).
        let echo = self.store.get(ack.echo_seq);
        for block in ack.sack_blocks.iter().flatten() {
            let (lo, hi) = *block;
            self.store.sack_range(lo, hi);
        }

        if !progress {
            // Duplicate ACK handling: only count ACKs that signal a hole.
            if ack.ooo_count > 0 && !self.store.is_outstanding_empty() {
                self.dup_acks += 1;
            }
            self.detect_sack_losses(now);
            return false;
        }

        let new_cum = ack.cum_seq.expect("progress implies cum");
        let old_next = self.cum_acked.map(|c| c + 1).unwrap_or(0);
        let newly_pkts = new_cum + 1 - old_next;
        let newly_bytes = newly_pkts * self.mss;
        self.cum_acked = Some(new_cum);
        self.delivered += newly_bytes;
        self.dup_acks = 0;
        self.rto_backoff = 0;

        // Drop every tracked state at or below the new cumulative point
        // (outstanding, sacked, and limbo alike). Pending retransmissions
        // the cumulative ACK overtakes were spurious loss declarations
        // (the "lost" original actually arrived); count them so byte
        // accounting stays an exact identity.
        self.store.advance_cum(new_cum);
        let before = self.retx_queue.len();
        self.retx_queue.retain(|&s| s > new_cum);
        self.spurious_rtx += count_as_u64(before - self.retx_queue.len()) * self.mss;

        // Recovery exits when the loss episode's window is fully acked.
        if let Some(recover) = self.recover {
            if new_cum >= recover {
                self.recover = None;
                self.store.clear_retx_done();
            }
        }
        self.detect_sack_losses(now);

        // RTT sample (Karn's rule: never from a retransmitted packet).
        let mut rtt = None;
        if !ack.echo_retransmit {
            if let Some(e) = echo {
                if !e.retransmit {
                    let sample = now.since(e.sent_at);
                    self.rtt_est.update(sample);
                    rtt = Some(sample);
                }
            }
        }

        // Delivery rate per the BBR draft: delivered delta over elapsed.
        let delivery_rate = echo.and_then(|e| {
            let elapsed = now.checked_since(e.sent_at)?;
            if elapsed == Dur::ZERO {
                return None;
            }
            Some(Rate::from_transfer(
                self.delivered - e.delivered_at_send,
                elapsed,
            ))
        });

        if let Some(rtt) = rtt {
            self.metrics.rtt.push(now, rtt.as_secs_f64());
        }
        self.metrics.delivered.push(now, bytes_as_f64(self.delivered));
        if now.checked_since(self.last_sample).is_none_or(|d| d >= self.sample_every) {
            self.last_sample = now;
            self.metrics.cwnd.push(now, bytes_as_f64(self.cca.cwnd()));
            if let Some(r) = self.cca.pacing_rate() {
                self.metrics.pacing.push(now, r.bytes_per_sec());
            }
        }

        let ev = AckEvent {
            now,
            rtt: rtt.unwrap_or_else(|| {
                self.rtt_est.srtt().unwrap_or(Dur::from_millis(100))
            }),
            newly_acked: newly_bytes,
            in_flight: self.in_flight(),
            delivered: self.delivered,
            delivered_at_send: echo.map(|e| e.delivered_at_send).unwrap_or(0),
            delivery_rate,
            app_limited: self.app_limit.is_some(),
            ecn: ack.ecn_echo,
        };
        self.cca.on_ack(&ev);

        if self.store.is_outstanding_empty() && self.retx_queue.is_empty() {
            self.rto_deadline = None;
        } else {
            self.arm_rto(now);
        }
        self.check_complete(now);
        true
    }

    /// Datagram transport: one ACK per packet; anything sent before an
    /// acknowledged packet and still outstanding is lost (the path never
    /// reorders a flow), and nothing is ever retransmitted.
    fn process_sack(&mut self, now: Time, ack: &Ack) -> bool {
        let Some(seq) = ack.sack_seq else {
            return false;
        };
        let Some(pkt) = self.store.remove(seq) else {
            return false; // duplicate
        };
        self.delivered += pkt.bytes;
        self.rto_backoff = 0;

        // Everything older than the acked packet is lost (seq order ==
        // send order: datagram flows never retransmit). Report each loss
        // with its exact send time so PCC's monitor intervals attribute it
        // to the right probe. The snapshot decouples the scan from the
        // interleaved removals: the CCA observes in-flight shrinking one
        // packet at a time, exactly as before.
        let mut lost = std::mem::take(&mut self.hole_buf);
        self.store.collect_below(seq, &mut lost);
        for &(s, sent_at, bytes) in &lost {
            self.store.remove(s);
            self.metrics.lost_bytes += bytes;
            self.cca.on_loss(&LossEvent {
                now,
                lost_bytes: bytes,
                in_flight: self.in_flight(),
                kind: LossKind::FastRetransmit,
                sent_at: Some(sent_at),
            });
        }
        lost.clear();
        self.hole_buf = lost;
        // Everything at or below `seq` is now resolved (delivered or
        // lost), and datagram flows never retransmit — advance the
        // store's floor so its scans and compaction stay bounded by the
        // live window.
        self.store.advance_cum(seq);

        let rtt = now.since(pkt.sent_at);
        self.rtt_est.update(rtt);
        self.metrics.rtt.push(now, rtt.as_secs_f64());
        self.metrics.delivered.push(now, bytes_as_f64(self.delivered));
        if now
            .checked_since(self.last_sample)
            .is_none_or(|d| d >= self.sample_every)
        {
            self.last_sample = now;
            self.metrics.cwnd.push(now, bytes_as_f64(self.cca.cwnd()));
            if let Some(r) = self.cca.pacing_rate() {
                self.metrics.pacing.push(now, r.bytes_per_sec());
            }
        }
        let delivery_rate = {
            let elapsed = rtt;
            if elapsed == Dur::ZERO {
                None
            } else {
                Some(Rate::from_transfer(
                    self.delivered - pkt.delivered_at_send,
                    elapsed,
                ))
            }
        };
        self.cca.on_ack(&AckEvent {
            now,
            rtt,
            newly_acked: pkt.bytes,
            in_flight: self.in_flight(),
            delivered: self.delivered,
            delivered_at_send: pkt.delivered_at_send,
            delivery_rate,
            app_limited: self.app_limit.is_some(),
            ecn: ack.ecn_echo,
        });
        if self.store.is_outstanding_empty() {
            self.rto_deadline = None;
        } else {
            self.arm_rto(now);
        }
        self.check_complete(now);
        true
    }

    /// SACK-based loss detection (simplified RFC 6675): once three
    /// duplicate ACKs have arrived (or recovery is active), every
    /// outstanding sequence below the highest SACKed sequence is a hole;
    /// each hole is retransmitted once per recovery episode.
    fn detect_sack_losses(&mut self, now: Time) {
        if self.dup_acks < 3 && !self.in_recovery() {
            return;
        }
        let Some(high) = self.store.max_sacked() else {
            return;
        };
        // During recovery, only holes from the episode's window count; new
        // losses get their own episode (and window reduction) afterwards.
        let limit = match self.recover {
            Some(r) => high.min(r),
            None => high,
        };
        let mut holes = std::mem::take(&mut self.hole_buf);
        self.store.collect_holes(limit, &mut holes);
        if holes.is_empty() {
            self.hole_buf = holes;
            return;
        }
        let first_sent = holes[0].1;
        let mut lost_bytes = 0;
        for &(s, _, bytes) in &holes {
            lost_bytes += bytes;
            self.store.mark_hole_retx(s);
            self.retx_queue.push_back(s);
        }
        holes.clear();
        self.hole_buf = holes;
        self.metrics.lost_bytes += lost_bytes;
        if !self.in_recovery() {
            self.recover = self.next_seq.checked_sub(1);
            self.metrics.fast_retransmits += 1;
            self.cca.on_loss(&LossEvent {
                now,
                lost_bytes,
                in_flight: self.in_flight(),
                kind: LossKind::FastRetransmit,
                sent_at: Some(first_sent),
            });
        }
        // Allow retransmissions to leave immediately.
        if self.next_send_time > now {
            self.next_send_time = now;
        }
    }

    /// The RTO timer fired for `deadline`. Returns `true` if it was current
    /// (and a timeout was processed).
    pub fn on_rto(&mut self, now: Time, deadline: Time) -> bool {
        if self.rto_deadline != Some(deadline) {
            return false; // stale timer
        }
        if self.store.is_outstanding_empty() && self.retx_queue.is_empty() {
            self.rto_deadline = None;
            return false;
        }
        // Everything in flight is presumed lost; reliable transports
        // go-back-N, datagram transports just move on. `rto_reset` also
        // orphans the SACKed packets into limbo (the receiver still holds
        // them above the cumulative point, so their bytes stay accounted
        // until the cumulative ACK passes them) and ends the recovery
        // episode's retx-done marks.
        let lost_bytes = self.store.outstanding_bytes();
        let mut lost = std::mem::take(&mut self.rto_buf);
        self.store.rto_reset(&mut lost);
        if self.transport == Transport::Reliable {
            for &seq in &lost {
                if !self.retx_queue.contains(&seq) {
                    self.retx_queue.push_back(seq);
                }
            }
        }
        lost.clear();
        self.rto_buf = lost;
        self.metrics.lost_bytes += lost_bytes;
        self.metrics.timeouts += 1;
        self.recover = None;
        self.dup_acks = 0;
        self.rto_backoff += 1;
        self.cca.on_loss(&LossEvent {
            now,
            lost_bytes,
            in_flight: 0,
            kind: LossKind::Timeout,
            sent_at: None,
        });
        self.next_send_time = now;
        self.arm_rto(now);
        // A datagram flow whose last packets the timeout just wrote off may
        // now be finished (nothing outstanding, nothing to retransmit).
        self.check_complete(now);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cca::ConstCwnd;

    fn fid(i: usize) -> FlowId {
        FlowId::from_index(i)
    }

    fn sender(cwnd_pkts: u64) -> Sender {
        Sender::new(
            fid(0),
            Box::new(ConstCwnd::new(cwnd_pkts * 1500)),
            1500,
            None,
            Time::ZERO,
            Dur::from_millis(10),
        )
    }

    fn ack_for(sender_flow: usize, cum: u64, echo: u64, sent_at: Time) -> Ack {
        Ack {
            flow: fid(sender_flow),
            cum_seq: Some(cum),
            echo_seq: echo,
            echo_sent_at: sent_at,
            echo_retransmit: false,
            acked_count: 1,
            ooo_count: 0,
            ecn_echo: false,
            sack_seq: None,
            sack_blocks: [None; 3],
        }
    }

    fn dup_ack(cum: Option<u64>, blocks: &[(u64, u64)]) -> Ack {
        let mut sack_blocks = [None; 3];
        for (i, &b) in blocks.iter().take(3).enumerate() {
            sack_blocks[i] = Some(b);
        }
        Ack {
            flow: fid(0),
            cum_seq: cum,
            echo_seq: 99,
            echo_sent_at: Time::ZERO,
            echo_retransmit: false,
            acked_count: 1,
            ooo_count: blocks.len() as u64,
            ecn_echo: false,
            sack_seq: None,
            sack_blocks,
        }
    }

    #[test]
    fn emits_up_to_window_then_blocks() {
        let mut s = sender(3);
        let t = Time::from_millis(1);
        for i in 0..3 {
            match s.try_emit(t) {
                Emit::Pkt(p) => assert_eq!(p.seq, i),
                other => panic!("{other:?}"),
            }
        }
        assert_eq!(s.try_emit(t), Emit::Blocked);
        assert_eq!(s.in_flight(), 3 * 1500);
    }

    #[test]
    fn ack_opens_window_and_delivers() {
        let mut s = sender(2);
        let t0 = Time::from_millis(1);
        s.try_emit(t0);
        s.try_emit(t0);
        let t1 = Time::from_millis(51);
        assert!(s.process_ack(t1, &ack_for(0, 0, 0, t0)));
        assert_eq!(s.delivered(), 1500);
        assert_eq!(s.in_flight(), 1500);
        assert!(matches!(s.try_emit(t1), Emit::Pkt(_)));
    }

    #[test]
    fn rtt_sample_recorded() {
        let mut s = sender(2);
        let t0 = Time::from_millis(1);
        s.try_emit(t0);
        s.process_ack(Time::from_millis(41), &ack_for(0, 0, 0, t0));
        let (_, rtt) = s.metrics.rtt.last().unwrap();
        assert!((rtt - 0.040).abs() < 1e-9);
    }

    #[test]
    fn cumulative_ack_covers_multiple() {
        let mut s = sender(5);
        let t0 = Time::from_millis(1);
        for _ in 0..5 {
            s.try_emit(t0);
        }
        s.process_ack(Time::from_millis(50), &ack_for(0, 3, 3, t0));
        assert_eq!(s.delivered(), 4 * 1500);
        assert_eq!(s.in_flight(), 1500);
    }

    #[test]
    fn three_dup_acks_trigger_fast_retransmit() {
        let mut s = sender(10);
        let t0 = Time::from_millis(1);
        for _ in 0..5 {
            s.try_emit(t0);
        }
        s.process_ack(Time::from_millis(40), &ack_for(0, 0, 0, t0));
        let t = Time::from_millis(45);
        s.process_ack(t, &dup_ack(Some(0), &[(2, 2)]));
        s.process_ack(t, &dup_ack(Some(0), &[(2, 3)]));
        assert!(!s.in_recovery());
        s.process_ack(t, &dup_ack(Some(0), &[(2, 4)]));
        assert!(s.in_recovery());
        assert_eq!(s.metrics.fast_retransmits, 1);
        // The retransmission goes out before new data.
        match s.try_emit(Time::from_millis(46)) {
            Emit::Pkt(p) => {
                assert_eq!(p.seq, 1);
                assert!(p.retransmit);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn dup_acks_without_hole_hint_ignored() {
        let mut s = sender(10);
        let t0 = Time::from_millis(1);
        for _ in 0..5 {
            s.try_emit(t0);
        }
        s.process_ack(Time::from_millis(40), &ack_for(0, 0, 0, t0));
        for _ in 0..5 {
            s.process_ack(Time::from_millis(45), &dup_ack(Some(0), &[]));
        }
        assert!(!s.in_recovery());
    }

    #[test]
    fn recovery_exits_at_recover_point() {
        let mut s = sender(10);
        let t0 = Time::from_millis(1);
        for _ in 0..6 {
            s.try_emit(t0);
        }
        s.process_ack(Time::from_millis(40), &ack_for(0, 0, 0, t0));
        let t = Time::from_millis(45);
        s.process_ack(t, &dup_ack(Some(0), &[(2, 2)]));
        s.process_ack(t, &dup_ack(Some(0), &[(2, 3)]));
        s.process_ack(t, &dup_ack(Some(0), &[(2, 4)]));
        assert!(s.in_recovery());
        // Full ACK past recover (= seq 5) ends recovery.
        s.process_ack(Time::from_millis(80), &ack_for(0, 5, 5, t0));
        assert!(!s.in_recovery());
    }

    #[test]
    fn sack_declares_all_holes_at_once() {
        // Packets 1 and 3 lost; SACK blocks reveal both holes, and both are
        // queued for retransmission in the same episode with one window cut.
        let mut s = sender(10);
        let t0 = Time::from_millis(1);
        for _ in 0..6 {
            s.try_emit(t0);
        }
        s.process_ack(Time::from_millis(40), &ack_for(0, 0, 0, t0));
        let t = Time::from_millis(45);
        s.process_ack(t, &dup_ack(Some(0), &[(2, 2)]));
        s.process_ack(t, &dup_ack(Some(0), &[(4, 4), (2, 2)]));
        s.process_ack(t, &dup_ack(Some(0), &[(4, 5), (2, 2)]));
        assert!(s.in_recovery());
        assert!(s.retx_queue.contains(&1), "retx={:?}", s.retx_queue);
        assert!(s.retx_queue.contains(&3), "retx={:?}", s.retx_queue);
        assert_eq!(s.metrics.fast_retransmits, 1);
        assert_eq!(s.metrics.lost_bytes, 2 * 1500);
    }

    #[test]
    fn rto_fires_and_goes_back_n() {
        let mut s = sender(4);
        let t0 = Time::from_millis(1);
        for _ in 0..4 {
            s.try_emit(t0);
        }
        let deadline = s.rto_deadline().unwrap();
        assert!(s.on_rto(deadline, deadline));
        assert_eq!(s.metrics.timeouts, 1);
        assert_eq!(s.in_flight(), 0);
        // All four packets queued for retransmission.
        for i in 0..4 {
            match s.try_emit(deadline) {
                Emit::Pkt(p) => {
                    assert_eq!(p.seq, i);
                    assert!(p.retransmit);
                }
                other => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn stale_rto_ignored() {
        let mut s = sender(4);
        let t0 = Time::from_millis(1);
        s.try_emit(t0);
        let stale = s.rto_deadline().unwrap();
        // An ACK re-arms the timer; the old deadline is stale.
        s.process_ack(Time::from_millis(40), &ack_for(0, 0, 0, t0));
        assert!(!s.on_rto(stale, stale));
    }

    #[test]
    fn rto_backoff_doubles() {
        let mut s = sender(4);
        let t0 = Time::from_millis(1);
        s.try_emit(t0);
        let d1 = s.rto_deadline().unwrap();
        s.on_rto(d1, d1);
        let d2 = s.rto_deadline().unwrap();
        let gap1 = d1.since(t0);
        let gap2 = d2.since(d1);
        assert!(gap2 >= gap1, "gap1={gap1} gap2={gap2}");
    }

    #[test]
    fn karn_rule_skips_retransmit_rtt() {
        let mut s = sender(4);
        let t0 = Time::from_millis(1);
        s.try_emit(t0);
        let deadline = s.rto_deadline().unwrap();
        s.on_rto(deadline, deadline);
        // Retransmit packet 0.
        let t1 = deadline;
        s.try_emit(t1);
        let n_before = s.metrics.rtt.len();
        let mut a = ack_for(0, 0, 0, t1);
        a.echo_retransmit = true;
        s.process_ack(t1 + Dur::from_millis(40), &a);
        assert_eq!(s.metrics.rtt.len(), n_before);
    }

    #[test]
    fn pacing_gates_transmissions() {
        // A CCA with pacing: use Vivace which paces.
        let mut s = Sender::new(
            fid(0),
            Box::new(cca::Vivace::default_params()),
            1500,
            None,
            Time::ZERO,
            Dur::from_millis(10),
        );
        let t = Time::from_millis(1);
        match s.try_emit(t) {
            Emit::Pkt(_) => {}
            other => panic!("{other:?}"),
        }
        // Immediately asking again must hit the pacing gate.
        match s.try_emit(t) {
            Emit::WaitUntil(w) => assert!(w > t),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn app_limit_caps_rate() {
        let mut s = Sender::new(
            fid(0),
            Box::new(ConstCwnd::new(100 * 1500)),
            1500,
            Some(Rate::from_mbps(12.0)), // 1 ms per packet
            Time::ZERO,
            Dur::from_millis(10),
        );
        let t = Time::from_millis(1);
        assert!(matches!(s.try_emit(t), Emit::Pkt(_)));
        match s.try_emit(t) {
            Emit::WaitUntil(w) => assert_eq!(w, Time::from_millis(2)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn finite_flow_stops_at_budget_and_completes_on_full_ack() {
        let mut s = sender(10);
        s.set_size(Some(3 * 1500)); // exactly 3 packets
        let t0 = Time::from_millis(1);
        for i in 0..3 {
            match s.try_emit(t0) {
                Emit::Pkt(p) => assert_eq!(p.seq, i),
                other => panic!("{other:?}"),
            }
        }
        // Budget exhausted: no fresh data even though the window is open.
        assert_eq!(s.try_emit(t0), Emit::Blocked);
        assert_eq!(s.completed(), None);
        let t1 = Time::from_millis(41);
        s.process_ack(t1, &ack_for(0, 2, 2, t0));
        assert_eq!(s.completed(), Some(t1));
        assert_eq!(s.take_completion(), Some(t1));
        // Take-once: a second take yields nothing.
        assert_eq!(s.take_completion(), None);
        assert_eq!(s.rto_deadline(), None);
        assert_eq!(s.delivered(), 3 * 1500);
    }

    #[test]
    fn budget_rounds_partial_packet_up() {
        let mut s = sender(10);
        s.set_size(Some(1501)); // 1.0007 packets -> 2
        let t0 = Time::from_millis(1);
        assert!(matches!(s.try_emit(t0), Emit::Pkt(_)));
        assert!(matches!(s.try_emit(t0), Emit::Pkt(_)));
        assert_eq!(s.try_emit(t0), Emit::Blocked);
    }

    #[test]
    fn finite_flow_completion_survives_loss_and_retransmit() {
        let mut s = sender(10);
        s.set_size(Some(5 * 1500));
        let t0 = Time::from_millis(1);
        for _ in 0..5 {
            s.try_emit(t0);
        }
        s.process_ack(Time::from_millis(40), &ack_for(0, 0, 0, t0));
        let t = Time::from_millis(45);
        // Packet 1 lost; SACKs reveal the hole.
        s.process_ack(t, &dup_ack(Some(0), &[(2, 2)]));
        s.process_ack(t, &dup_ack(Some(0), &[(2, 3)]));
        s.process_ack(t, &dup_ack(Some(0), &[(2, 4)]));
        assert!(s.in_recovery());
        assert_eq!(s.completed(), None);
        // Retransmit the hole, then the cumulative ACK covers the budget.
        let t2 = Time::from_millis(46);
        match s.try_emit(t2) {
            Emit::Pkt(p) => assert!(p.retransmit),
            other => panic!("{other:?}"),
        }
        let t3 = Time::from_millis(86);
        s.process_ack(t3, &ack_for(0, 4, 4, t0));
        assert_eq!(s.completed(), Some(t3));
    }

    #[test]
    fn datagram_finite_flow_completes_when_every_fate_is_known() {
        let mut s = sender(10);
        s.set_transport(Transport::Datagram);
        s.set_size(Some(2 * 1500));
        let t0 = Time::from_millis(1);
        s.try_emit(t0);
        s.try_emit(t0);
        assert_eq!(s.try_emit(t0), Emit::Blocked);
        let mut a = ack_for(0, 0, 0, t0);
        a.cum_seq = None;
        a.sack_seq = Some(0);
        s.process_ack(Time::from_millis(41), &a);
        assert_eq!(s.completed(), None);
        let mut b = ack_for(0, 0, 1, t0);
        b.cum_seq = None;
        b.sack_seq = Some(1);
        let t1 = Time::from_millis(42);
        s.process_ack(t1, &b);
        assert_eq!(s.completed(), Some(t1));
    }

    #[test]
    fn bulk_flow_never_completes() {
        let mut s = sender(2);
        let t0 = Time::from_millis(1);
        s.try_emit(t0);
        s.try_emit(t0);
        s.process_ack(Time::from_millis(41), &ack_for(0, 1, 1, t0));
        assert_eq!(s.completed(), None);
        assert_eq!(s.take_completion(), None);
    }

    #[test]
    fn start_time_respected() {
        let mut s = Sender::new(
            fid(0),
            Box::new(ConstCwnd::ten_packets()),
            1500,
            None,
            Time::from_secs(1),
            Dur::from_millis(10),
        );
        match s.try_emit(Time::from_millis(10)) {
            Emit::WaitUntil(w) => assert_eq!(w, Time::from_secs(1)),
            other => panic!("{other:?}"),
        }
    }
}
