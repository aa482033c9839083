//! The shared FIFO bottleneck (§3): one queue, constant drain rate `C`,
//! tail-drop at a configurable buffer size.
//!
//! The paper's model assumes a queue "large enough to never overflow" for
//! delay-bounding CCAs; the loss-based experiments (Figure 7, §5.4) need a
//! finite buffer (60 packets / 1 BDP), so the buffer is a parameter.

use crate::packet::Packet;
use simcore::units::{Dur, Rate, Time};
use std::collections::VecDeque;

/// Outcome of offering a packet to the link.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Enqueue {
    /// Packet accepted; if `Some(t)`, the caller must schedule the *first*
    /// departure at `t` (the link was idle).
    Accepted(Option<Time>),
    /// Tail-dropped: the buffer was full. The link keeps no per-flow
    /// state; the caller counts the drop against the packet's flow.
    Dropped,
}

/// Shared FIFO bottleneck link.
#[derive(Clone, Debug)]
pub struct Bottleneck {
    rate: Rate,
    buffer_bytes: u64,
    /// Mark arriving packets with ECN once the backlog exceeds this
    /// (§6.4's threshold-AQM heuristic). `None` disables marking.
    ecn_threshold: Option<u64>,
    queue: VecDeque<Packet>,
    queued_bytes: u64,
    /// True while a departure event is outstanding.
    busy: bool,
    /// Total bytes served (for utilization accounting).
    served_bytes: u64,
    /// Cumulative busy time.
    busy_time: Dur,
    last_busy_start: Option<Time>,
}

impl Bottleneck {
    /// A link draining at `rate` with `buffer_bytes` of queue.
    pub fn new(rate: Rate, buffer_bytes: u64) -> Self {
        assert!(rate.bytes_per_sec() > 0.0, "link rate must be positive");
        Bottleneck {
            rate,
            buffer_bytes,
            ecn_threshold: None,
            queue: VecDeque::new(),
            queued_bytes: 0,
            busy: false,
            served_bytes: 0,
            busy_time: Dur::ZERO,
            last_busy_start: None,
        }
    }

    /// The configured drain rate `C`.
    pub fn rate(&self) -> Rate {
        self.rate
    }

    /// Enable ECN marking above `threshold` bytes of backlog.
    pub fn set_ecn_threshold(&mut self, threshold: Option<u64>) {
        self.ecn_threshold = threshold;
    }

    /// Bytes currently enqueued (excluding the packet in service).
    pub fn queued_bytes(&self) -> u64 {
        self.queued_bytes
    }

    /// Packets currently enqueued.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// The queued packets, head (next to depart) first. The trace
    /// subsystem uses this to settle conservation at the end of a run.
    pub fn queued_packets(&self) -> impl Iterator<Item = &Packet> + '_ {
        self.queue.iter()
    }

    /// The queueing delay a newly arriving byte would experience.
    pub fn queue_delay(&self) -> Dur {
        self.rate.tx_time(self.queued_bytes)
    }

    /// Total bytes served so far.
    pub fn served_bytes(&self) -> u64 {
        self.served_bytes
    }

    /// Fraction of `[0, now]` the link spent transmitting.
    pub fn utilization(&self, now: Time) -> f64 {
        if now == Time::ZERO {
            return 0.0;
        }
        let mut busy = self.busy_time;
        if let Some(start) = self.last_busy_start {
            busy += now.since(start);
        }
        busy.as_secs_f64() / now.as_secs_f64()
    }

    /// Offer a packet. On `Accepted(Some(t))` the caller schedules the first
    /// departure at `t`; `Accepted(None)` means a departure chain is already
    /// running and will pick this packet up.
    pub fn enqueue(&mut self, now: Time, mut pkt: Packet) -> Enqueue {
        if let Some(th) = self.ecn_threshold {
            if self.queued_bytes >= th {
                pkt.ecn = true;
            }
        }
        if self.queued_bytes + pkt.bytes > self.buffer_bytes {
            return Enqueue::Dropped;
        }
        self.queued_bytes += pkt.bytes;
        self.queue.push_back(pkt);
        if self.busy {
            Enqueue::Accepted(None)
        } else {
            self.busy = true;
            self.last_busy_start = Some(now);
            let head = self.queue.front().expect("just pushed");
            Enqueue::Accepted(Some(now + self.rate.tx_time(head.bytes)))
        }
    }

    /// Complete the in-service packet's transmission at `now`. Returns the
    /// departed packet and, if more packets wait, the next departure time.
    pub fn depart(&mut self, now: Time) -> (Packet, Option<Time>) {
        debug_assert!(self.busy, "depart without a scheduled departure");
        let pkt = self.queue.pop_front().expect("departure from empty queue");
        self.queued_bytes -= pkt.bytes;
        self.served_bytes += pkt.bytes;
        let next = match self.queue.front() {
            Some(head) => Some(now + self.rate.tx_time(head.bytes)),
            None => {
                self.busy = false;
                if let Some(start) = self.last_busy_start.take() {
                    self.busy_time += now.since(start);
                }
                None
            }
        };
        (pkt, next)
    }

    /// Pre-fill the queue (warm start): packets are placed as if already
    /// waiting; the caller schedules the first departure at the returned
    /// time. Panics if the contents exceed the buffer.
    pub fn warm_fill(&mut self, now: Time, pkts: Vec<Packet>) -> Option<Time> {
        for pkt in pkts {
            assert!(
                self.queued_bytes + pkt.bytes <= self.buffer_bytes,
                "warm_fill overflows the buffer"
            );
            self.queued_bytes += pkt.bytes;
            self.queue.push_back(pkt);
        }
        if self.queue.is_empty() || self.busy {
            return None;
        }
        self.busy = true;
        self.last_busy_start = Some(now);
        let head = self.queue.front().expect("queue checked non-empty above");
        Some(now + self.rate.tx_time(head.bytes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::FlowId;

    fn pkt(flow: usize, seq: u64) -> Packet {
        Packet {
            flow: FlowId::from_index(flow),
            seq,
            bytes: 1500,
            sent_at: Time::ZERO,
            delivered_at_send: 0,
            app_limited: false,
            retransmit: false,
            ecn: false,
        }
    }

    #[test]
    fn first_enqueue_schedules_departure() {
        // 12 Mbit/s → 1 ms per 1500 B.
        let mut l = Bottleneck::new(Rate::from_mbps(12.0), 100 * 1500);
        match l.enqueue(Time::ZERO, pkt(0, 0)) {
            Enqueue::Accepted(Some(t)) => assert_eq!(t, Time::from_millis(1)),
            other => panic!("{other:?}"),
        }
        // Second packet: chain already running.
        assert_eq!(l.enqueue(Time::ZERO, pkt(0, 1)), Enqueue::Accepted(None));
    }

    #[test]
    fn fifo_service_order_across_flows() {
        let mut l = Bottleneck::new(Rate::from_mbps(12.0), 100 * 1500);
        l.enqueue(Time::ZERO, pkt(0, 0));
        l.enqueue(Time::ZERO, pkt(1, 0));
        l.enqueue(Time::ZERO, pkt(0, 1));
        let (p1, n1) = l.depart(Time::from_millis(1));
        assert_eq!((p1.flow, p1.seq), (FlowId::from_index(0), 0));
        assert_eq!(n1, Some(Time::from_millis(2)));
        let (p2, _) = l.depart(Time::from_millis(2));
        assert_eq!((p2.flow, p2.seq), (FlowId::from_index(1), 0));
        let (p3, n3) = l.depart(Time::from_millis(3));
        assert_eq!((p3.flow, p3.seq), (FlowId::from_index(0), 1));
        assert_eq!(n3, None);
    }

    #[test]
    fn tail_drop_when_full() {
        let mut l = Bottleneck::new(Rate::from_mbps(12.0), 2 * 1500);
        assert_ne!(l.enqueue(Time::ZERO, pkt(0, 0)), Enqueue::Dropped);
        assert_ne!(l.enqueue(Time::ZERO, pkt(0, 1)), Enqueue::Dropped);
        assert_eq!(l.enqueue(Time::ZERO, pkt(1, 2)), Enqueue::Dropped);
        // A drop leaves the accepted backlog untouched.
        assert_eq!(l.queue_len(), 2);
        assert_eq!(l.queued_bytes(), 2 * 1500);
    }

    #[test]
    fn phantom_id_drop_allocates_nothing() {
        // The public warm-start filler id is u32::MAX: counting drops in a
        // per-flow Vec inside the link would resize it to 2^32 entries.
        let mut l = Bottleneck::new(Rate::from_mbps(12.0), 1500);
        assert_ne!(l.enqueue(Time::ZERO, pkt(0, 0)), Enqueue::Dropped);
        let mut filler = pkt(0, 1);
        filler.flow = <crate::Network>::PHANTOM;
        assert_eq!(l.enqueue(Time::ZERO, filler), Enqueue::Dropped);
        assert_eq!(l.queue_len(), 1);
    }

    #[test]
    fn queue_delay_tracks_backlog() {
        let mut l = Bottleneck::new(Rate::from_mbps(12.0), 100 * 1500);
        assert_eq!(l.queue_delay(), Dur::ZERO);
        for i in 0..10 {
            l.enqueue(Time::ZERO, pkt(0, i));
        }
        assert_eq!(l.queue_delay(), Dur::from_millis(10));
    }

    #[test]
    fn utilization_accounting() {
        let mut l = Bottleneck::new(Rate::from_mbps(12.0), 100 * 1500);
        l.enqueue(Time::ZERO, pkt(0, 0));
        l.depart(Time::from_millis(1));
        // Busy 1 ms of the first 2 ms.
        assert!((l.utilization(Time::from_millis(2)) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn served_bytes_counts() {
        let mut l = Bottleneck::new(Rate::from_mbps(12.0), 100 * 1500);
        l.enqueue(Time::ZERO, pkt(0, 0));
        l.enqueue(Time::ZERO, pkt(0, 1));
        l.depart(Time::from_millis(1));
        l.depart(Time::from_millis(2));
        assert_eq!(l.served_bytes(), 3000);
    }

    #[test]
    fn ecn_marks_above_threshold_only() {
        let mut l = Bottleneck::new(Rate::from_mbps(12.0), 100 * 1500);
        l.set_ecn_threshold(Some(3 * 1500));
        for i in 0..6 {
            l.enqueue(Time::ZERO, pkt(0, i));
        }
        let marks: Vec<bool> = (0..6)
            .map(|i| l.depart(Time::from_millis(i + 1)).0.ecn)
            .collect();
        // Backlog reaches the 3-packet threshold when packet 3 arrives.
        assert_eq!(marks, vec![false, false, false, true, true, true]);
    }

    #[test]
    fn warm_fill_preloads_queue() {
        let mut l = Bottleneck::new(Rate::from_mbps(12.0), 100 * 1500);
        let first = l.warm_fill(Time::ZERO, vec![pkt(0, 0), pkt(1, 0), pkt(0, 1)]);
        assert_eq!(first, Some(Time::from_millis(1)));
        assert_eq!(l.queue_len(), 3);
        assert_eq!(l.queue_delay(), Dur::from_millis(3));
    }

    #[test]
    #[should_panic]
    fn warm_fill_overflow_panics() {
        let mut l = Bottleneck::new(Rate::from_mbps(12.0), 1500);
        l.warm_fill(Time::ZERO, vec![pkt(0, 0), pkt(0, 1)]);
    }
}
