//! Starvation, three ways — the paper's §5 scenarios at demo scale.
//!
//! ```sh
//! cargo run --release --example starvation_demo
//! ```
//!
//! 1. **Copa** (§5.1): two identical Copa flows on a 120 Mbit/s link with
//!    equal 60 ms propagation RTTs. One flow's path carries 1 ms of
//!    *persistent* non-congestive delay (its min-RTT estimate is poisoned
//!    by the occasional fast packet). It starves.
//! 2. **BBR** (§5.2): two BBR flows with Rm 40 ms / 80 ms and a little
//!    jitter. Both end up cwnd-limited; the small-RTT flow starves.
//! 3. **PCC Vivace** (§5.3): one flow's ACKs arrive only at 60 ms
//!    boundaries (link-layer aggregation). Its latency-gradient
//!    measurements turn to noise and the latency penalty crushes it.
//!
//! Each scenario is built by `starvation::paper`, as in `repro`, but run
//! for 30 s.

use netsim::Network;
use simcore::units::Dur;
use starvation::paper;

fn report(name: &str, labels: [&str; 2], r: &netsim::SimResult) {
    let t0 = r.flows[0].throughput_at(r.end).mbps();
    let t1 = r.flows[1].throughput_at(r.end).mbps();
    let ratio = t0.max(t1) / t0.min(t1).max(1e-9);
    println!("{name}:");
    println!("  {:<24} {:>8.1} Mbit/s", labels[0], t0);
    println!("  {:<24} {:>8.1} Mbit/s", labels[1], t1);
    println!("  ratio {ratio:.1}:1\n");
}

fn main() {
    let dur = Dur::from_secs(30);

    let r = Network::new(paper::copa_poison(Dur::from_millis(1), dur)).run();
    report(
        "Copa, one flow with 1 ms persistent jitter (paper: 8.8 vs 95)",
        ["poisoned min-RTT", "clean path"],
        &r,
    );

    let r = Network::new(paper::bbr_rtt_asymmetry(0, dur)).run();
    report(
        "BBR, Rm 40 ms vs 80 ms (paper: 8.3 vs 107)",
        ["Rm = 40 ms", "Rm = 80 ms"],
        &r,
    );

    let r = Network::new(paper::vivace_ack_quantization(0, dur)).run();
    report(
        "PCC Vivace, one flow's ACKs quantized to 60 ms (paper: 9.9 vs 99.4)",
        ["quantized ACKs", "clean path"],
        &r,
    );

    println!(
        "All three pairs are the same algorithm against itself, on paths with \
         equal propagation RTTs (except BBR's deliberate asymmetry) — the \
         starvation comes from non-congestive delay alone. That is the \
         paper's point."
    );
}
