//! `netsim`'s per-packet layers, each driven alone through its public
//! type: the bottleneck (`link.*`), the jitter element (`jitter.*`), the
//! packet-state arena (`pktstore.*`) and the two endpoints
//! (`receiver.*`, `sender.*`).

use super::{kernel_ns, Table, KERNEL_BATCHES};
use crate::host;
use netsim::config::AckPolicy;
use netsim::jitter::JitterElement;
use netsim::link::{Bottleneck, Enqueue};
use netsim::packet::{Ack, Packet};
use netsim::receiver::Receiver;
use netsim::sender::{Emit, Sender};
use netsim::{FlowId, Jitter, PktStore, SentPkt, SeqStore};
use simcore::rng::Xoshiro256;
use simcore::units::{Dur, Rate, Time};
use std::hint::black_box;

const MSS: u64 = 1500;

fn data_packet(seq: u64, sent_at: Time) -> Packet {
    Packet {
        flow: FlowId::from_index(0),
        seq,
        bytes: MSS,
        sent_at,
        delivered_at_send: seq * MSS,
        app_limited: false,
        retransmit: false,
        ecn: false,
    }
}

// ------------------------------------------------------------- link ----

/// A standing queue of 32 packets; every iteration offers one packet and
/// completes one transmission, as a saturated link does per packet.
fn link_enqueue_depart() -> u64 {
    let n = 20_000u64;
    let rate = Rate::from_mbps(24.0);
    let mut link = Bottleneck::new(rate, 1 << 30);
    let mut now = Time::ZERO;
    let mut next_departure = None;
    for seq in 0..32 {
        if let Enqueue::Accepted(Some(t)) = link.enqueue(now, data_packet(seq, now)) {
            next_departure = Some(t);
        }
    }
    let mut served = 0u64;
    for seq in 32..32 + n {
        black_box(link.enqueue(now, data_packet(seq, now)));
        now = next_departure.expect("a standing queue always has a departure pending");
        let (pkt, next) = link.depart(now);
        served += pkt.bytes;
        next_departure = next;
    }
    black_box(served);
    n
}

/// The tail-drop path: a full 32-packet buffer refusing every arrival.
fn link_enqueue_full() -> u64 {
    let n = 20_000u64;
    let mut link = Bottleneck::new(Rate::from_mbps(24.0), 32 * MSS);
    let now = Time::ZERO;
    for seq in 0..32 {
        link.enqueue(now, data_packet(seq, now));
    }
    let mut dropped = 0u64;
    for seq in 32..32 + n {
        if link.enqueue(now, data_packet(seq, now)) == Enqueue::Dropped {
            dropped += 1;
        }
    }
    assert_eq!(dropped, n, "a full buffer drops every arrival");
    n
}

// ----------------------------------------------------------- jitter ----

/// Uniform random jitter in [0, 10 ms] at one packet per half
/// millisecond: the element every `copa-jitter` and sweep packet crosses.
fn jitter_release_time() -> u64 {
    let n = 20_000u64;
    let mut el = JitterElement::new(Jitter::Random { max: Dur::from_millis(10), rng: Xoshiro256::new(42) });
    let mut acc = 0u64;
    for i in 0..n {
        let now = Time::from_micros(20_000 + i * 500);
        acc = acc.wrapping_add(el.release_time(now, Time::from_micros(i * 500), MSS).as_nanos());
    }
    black_box(acc);
    n
}

// --------------------------------------------------------- pktstore ----

fn sent(at: u64) -> SentPkt {
    SentPkt { sent_at: Time(at), delivered_at_send: at, bytes: MSS, retransmit: false }
}

/// The loss-free steady state: a 100-packet window sliding forward, one
/// insert and one cumulative advance per packet.
fn pktstore_insert_advance() -> u64 {
    let n = 50_000u64;
    let window = 100u64;
    let mut store = PktStore::default();
    for seq in 0..n {
        store.insert(seq, sent(seq));
        if seq >= window {
            store.advance_cum(seq - window);
        }
    }
    black_box(store.outstanding_bytes());
    n
}

/// A 64-packet window with its first packet lost: each of the 63
/// duplicate ACKs re-announces a SACK block one packet longer, as a real
/// receiver does, so the merge re-walks what it already merged.
fn pktstore_sack_range() -> u64 {
    let episodes = 200u64;
    let window = 64u64;
    let mut store = PktStore::default();
    let mut acks = 0u64;
    for e in 0..episodes {
        let base = e * window;
        for seq in base..base + window {
            store.insert(seq, sent(seq));
        }
        for hi in base + 1..base + window {
            store.sack_range(base + 1, hi);
            acks += 1;
        }
        black_box(store.max_sacked());
        store.advance_cum(base + window - 1);
    }
    acks
}

/// 256 tracked packets, every other one SACKed: the hole scan a
/// recovering sender runs on each ACK.
fn staged_holes() -> PktStore {
    let mut store = PktStore::default();
    for seq in 0..256u64 {
        store.insert(seq, sent(seq));
    }
    for seq in (1..256u64).step_by(2) {
        store.sack_range(seq, seq);
    }
    store
}

fn pktstore_collect_holes(store: PktStore) -> u64 {
    let scans = 2_000u64;
    let mut out = Vec::with_capacity(256);
    for _ in 0..scans {
        out.clear();
        store.collect_holes(255, &mut out);
        black_box(&out);
    }
    assert_eq!(out.len(), 128);
    scans
}

/// 64 stores of 256 outstanding packets each, built untimed; the timed
/// part drains every one through the RTO path.
fn staged_rto() -> Vec<PktStore> {
    (0..64)
        .map(|_| {
            let mut store = PktStore::default();
            for seq in 0..256u64 {
                store.insert(seq, sent(seq));
            }
            store.sack_range(200, 220);
            store
        })
        .collect()
}

fn pktstore_rto_reset(stores: Vec<PktStore>) -> u64 {
    let mut out = Vec::with_capacity(256);
    let mut pkts = 0u64;
    for mut store in stores {
        out.clear();
        store.rto_reset(&mut out);
        pkts += 256;
        black_box(&out);
    }
    pkts
}

// -------------------------------------------------------- endpoints ----

/// Nanoseconds and call counts of the three endpoint entry points over
/// one closed-loop exchange.
#[derive(Clone, Copy, Debug, Default)]
pub struct EndpointCost {
    pub emit_ns: u64,
    pub emits: u64,
    pub rx_ns: u64,
    pub rx_pkts: u64,
    pub ack_ns: u64,
    pub acks: u64,
}

/// A sender and a receiver wired back to back by the harness, one
/// 64-packet window per 40 ms round, with no link in between. Each
/// round's `try_emit` calls, `on_data` calls and `process_ack` calls are
/// timed as three intervals. `drop_every` removes every n-th fresh packet
/// on the way to the receiver, which turns the round's remaining ACKs
/// into duplicate ACKs carrying SACK blocks and makes the sender
/// retransmit next round. The CCA is a constant window, so the sender's
/// cost excludes congestion control.
pub fn endpoint_exchange(rounds: u64, drop_every: Option<u64>) -> EndpointCost {
    let flow = FlowId::from_index(0);
    let cca = Box::new(cca::ConstCwnd::new(64 * MSS));
    let mut sender: Sender = Sender::new(flow, cca, MSS, None, Time::ZERO, Dur::from_millis(10));
    let mut receiver = Receiver::new(flow, AckPolicy::PerPacket);
    let rtt = Dur::from_millis(40);
    let mut cost = EndpointCost::default();
    let mut pkts: Vec<Packet> = Vec::with_capacity(128);
    let mut acks: Vec<Ack> = Vec::with_capacity(128);
    let mut fresh = 0u64;
    let mut now = Time::ZERO;
    for _ in 0..rounds {
        pkts.clear();
        let t0 = host::host_now();
        while let Emit::Pkt(p) = sender.try_emit(now) {
            pkts.push(p);
        }
        cost.emit_ns += host::nanos_since(t0);
        cost.emits += pkts.len() as u64;

        let arrive = now + Dur::from_millis(20);
        acks.clear();
        let mut delivered = 0u64;
        let t0 = host::host_now();
        for p in &pkts {
            if !p.retransmit {
                fresh += 1;
                if drop_every.is_some_and(|n| fresh.is_multiple_of(n)) {
                    continue;
                }
            }
            delivered += 1;
            acks.extend(receiver.on_data(arrive, *p).acks.iter().copied());
        }
        cost.rx_ns += host::nanos_since(t0);
        cost.rx_pkts += delivered;

        now += rtt;
        let t0 = host::host_now();
        for a in &acks {
            black_box(sender.process_ack(now, a));
        }
        cost.ack_ns += host::nanos_since(t0);
        cost.acks += acks.len() as u64;
    }
    assert!(sender.delivered() > 0, "the exchange moved no data");
    cost
}

/// Repeated exchanges (after one warm-up), for the medians below.
fn endpoint_samples(drop_every: Option<u64>) -> Vec<EndpointCost> {
    (0..=KERNEL_BATCHES).map(|_| endpoint_exchange(300, drop_every)).skip(1).collect()
}

/// Fill `link.*`, `jitter.*`, `pktstore.*`, `receiver.*` and `sender.*`.
pub fn measure(t: &mut Table) {
    let k = KERNEL_BATCHES;
    t.insert("link.enqueue_depart.ns_per_pkt".into(), kernel_ns(k, || (), |()| link_enqueue_depart()));
    t.insert("link.enqueue_full.ns_per_pkt".into(), kernel_ns(k, || (), |()| link_enqueue_full()));
    t.insert("jitter.release_time.ns_per_pkt".into(), kernel_ns(k, || (), |()| jitter_release_time()));
    t.insert("pktstore.insert_advance.ns_per_pkt".into(), kernel_ns(k, || (), |()| pktstore_insert_advance()));
    t.insert("pktstore.sack_range.ns_per_ack".into(), kernel_ns(k, || (), |()| pktstore_sack_range()));
    t.insert("pktstore.collect_holes.ns_per_scan".into(), kernel_ns(k, staged_holes, pktstore_collect_holes));
    t.insert("pktstore.rto_reset.ns_per_pkt".into(), kernel_ns(k, staged_rto, pktstore_rto_reset));

    let per = |ns: u64, n: u64| ns as f64 / n.max(1) as f64;
    let mid = |samples: &[EndpointCost], pick: &dyn Fn(&EndpointCost) -> f64| {
        crate::stats::median(&samples.iter().map(pick).collect::<Vec<f64>>())
    };
    let clean = endpoint_samples(None);
    t.insert("sender.try_emit.ns_per_pkt".into(), mid(&clean, &|c| per(c.emit_ns, c.emits)));
    t.insert("receiver.on_data_inorder.ns_per_pkt".into(), mid(&clean, &|c| per(c.rx_ns, c.rx_pkts)));
    t.insert("sender.process_ack_inorder.ns_per_ack".into(), mid(&clean, &|c| per(c.ack_ns, c.acks)));
    let lossy = endpoint_samples(Some(16));
    t.insert("receiver.on_data_reorder.ns_per_pkt".into(), mid(&lossy, &|c| per(c.rx_ns, c.rx_pkts)));
    t.insert("sender.process_ack_sack.ns_per_ack".into(), mid(&lossy, &|c| per(c.ack_ns, c.acks)));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernels_do_the_operation_counts_they_report() {
        assert_eq!(link_enqueue_depart(), 20_000);
        assert_eq!(link_enqueue_full(), 20_000);
        assert_eq!(jitter_release_time(), 20_000);
        assert_eq!(pktstore_insert_advance(), 50_000);
        assert_eq!(pktstore_sack_range(), 200 * 63);
        assert_eq!(pktstore_collect_holes(staged_holes()), 2_000);
        assert_eq!(pktstore_rto_reset(staged_rto()), 64 * 256);
    }

    #[test]
    fn a_lossless_exchange_acks_everything_it_sends() {
        let c = endpoint_exchange(50, None);
        assert_eq!(c.emits, 50 * 64);
        assert_eq!((c.rx_pkts, c.acks), (c.emits, c.emits));
    }

    #[test]
    fn a_lossy_exchange_retransmits_and_keeps_moving() {
        let c = endpoint_exchange(200, Some(16));
        assert!(c.rx_pkts < c.emits, "drops reached the receiver");
        // Fewer than one emit in eight is lost, so the window keeps cycling.
        assert!(c.emits > 200 * 16, "sender stalled: {} emits", c.emits);
        assert!(c.acks > 0);
    }
}
