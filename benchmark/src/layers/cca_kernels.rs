//! `cca`: each algorithm's per-packet callback cost, called through
//! `Box<dyn CongestionControl>` exactly as the sender calls it.

use super::{kernel_ns, Table, KERNEL_BATCHES};
use crate::registry::KERNEL_CCAS;
use cca::{AckEvent, BoxCca};
use simcore::units::{Dur, Rate, Time};
use std::hint::black_box;

const MSS: u64 = 1500;

/// A fresh instance by scenario-DSL slug, built by `scenario::compile`
/// itself: a one-flow scenario is compiled and its CCA taken.
pub fn cca_by_slug(slug: &str) -> BoxCca {
    let src = format!(
        "scenario \"kernel\" {{ link {{ rate 24mbps buffer ample }} duration 1s flow f0 {{ cca {slug} rtt 40ms }} }}"
    );
    let ast = scenario::parse(&src).unwrap_or_else(|e| panic!("no on_ack kernel for CCA `{slug}`: {e}"));
    scenario::compile(&ast).flows.remove(0).cca
}

/// One packet's worth of CCA work, `n` times: `on_send`, `on_ack`, and
/// the `cwnd()` / `pacing_rate()` reads the sender makes before its next
/// transmission. The ACK stream is a loss-free 24 Mbit/s, 40 ms path
/// whose queueing delay saws between 0 and 10 ms every 200 packets, so
/// delay-reactive algorithms keep moving their window instead of
/// sitting in one branch.
fn per_packet(mut cca: BoxCca) -> u64 {
    let n = 20_000u64;
    let rate = Rate::from_mbps(24.0);
    let mut delivered = 0u64;
    let mut acc = 0u64;
    for i in 0..n {
        let now = Time::from_micros(40_000 + i * 500);
        let in_flight = cca.cwnd().min(80 * MSS);
        cca.on_send(now, MSS, in_flight);
        delivered += MSS;
        let queue_us = (i % 200) * 50;
        cca.on_ack(&AckEvent {
            now,
            rtt: Dur::from_micros(40_000 + queue_us),
            newly_acked: MSS,
            in_flight,
            delivered,
            delivered_at_send: delivered.saturating_sub(in_flight),
            delivery_rate: Some(rate),
            app_limited: false,
            ecn: false,
        });
        acc = acc.wrapping_add(cca.cwnd());
        black_box(cca.pacing_rate());
    }
    black_box(acc);
    n
}

/// Fill `cca.on_ack.<c>.ns`.
pub fn measure(t: &mut Table) {
    for slug in KERNEL_CCAS {
        let ns = kernel_ns(KERNEL_BATCHES, || cca_by_slug(slug), per_packet);
        t.insert(format!("cca.on_ack.{slug}.ns"), ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_registered_cca_has_a_kernel_and_survives_the_stream() {
        for slug in KERNEL_CCAS {
            let cca = cca_by_slug(slug);
            assert!(cca.cwnd() >= MSS, "{slug}");
            assert_eq!(per_packet(cca), 20_000, "{slug}");
        }
    }
}
