//! # netsim — deterministic packet-level network emulator
//!
//! The Mahimahi/ns-3 substitute for the reproduction of *Starvation in
//! End-to-End Congestion Control* (SIGCOMM 2022). It implements the paper's
//! §3 network model exactly, plus the extra path elements §5's experiments
//! need:
//!
//! ```text
//!  sender ─┬─► [loss] ─► shared FIFO bottleneck (C, buffer) ─► prop. Rm ─►
//!          │                                                   per-flow
//!  sender ─┘                                                   jitter
//!                                                              [0, D] ─►
//!  ◄─ ACK path (delayed ACKs / aggregation / quantization) ◄─ receiver
//! ```
//!
//! * Flows share **one FIFO queue** drained at a constant rate `C`; packets
//!   then experience the flow's propagation delay `Rm` and a flow-specific
//!   **non-congestive delay** in `[0, D]` that never reorders packets
//!   (§3's model component). Jitter can be absent, random, scripted, or
//!   adversarial (targeting a recorded RTT trajectory — the construction
//!   inside Theorem 1's proof).
//! * The receiver can acknowledge per packet, with delayed ACKs (Figure 7),
//!   or with time-quantized aggregation (the §5.3 PCC Vivace scenario).
//! * A Bernoulli loss element reproduces the §5.4 PCC Allegro scenario.
//! * Senders implement windowing, pacing, duplicate-ACK fast retransmit,
//!   NewReno-style recovery, and RTO — enough transport realism for the
//!   loss-based baselines without modelling byte streams.
//!
//! Everything is deterministic: integer-nanosecond time, a seeded PRNG, and
//! FIFO tie-breaking (see `simcore`).
//!
//! # Example
//!
//! Two Copa flows share a 24 Mbit/s link; one path carries 1 ms of
//! persistent jitter (the §5.1 scenario, shrunk):
//!
//! ```
//! use netsim::{FlowConfig, Jitter, LinkConfig, Network, SimConfig};
//! use simcore::units::{Dur, Rate};
//!
//! let link = LinkConfig::ample_buffer(Rate::from_mbps(24.0));
//! let poisoned = FlowConfig::bulk(Box::new(cca::Copa::default_params()), Dur::from_millis(59))
//!     .with_jitter(Jitter::ExtraExcept {
//!         extra: Dur::from_millis(1),
//!         period: 5_000,
//!         offset: 0,
//!     });
//! let clean = FlowConfig::bulk(Box::new(cca::Copa::default_params()), Dur::from_millis(60));
//!
//! let result = Network::new(SimConfig::new(link, vec![poisoned, clean], Dur::from_secs(5))).run();
//! let t: Vec<f64> = result.throughputs().iter().map(|r| r.mbps()).collect();
//! assert!(t[0] + t[1] > 15.0, "link should be mostly used: {t:?}");
//! ```

pub mod config;
pub mod jitter;
pub mod link;
pub mod metrics;
pub mod packet;
pub mod pktstore;
pub mod receiver;
pub mod sender;
pub mod sim;
pub mod workload;

pub use config::{AckPolicy, FlowConfig, LinkConfig, PathSpec, SimConfig, Transport};
pub use jitter::Jitter;
pub use metrics::{EvCounts, FlowMetrics, FlowRecord, Percentiles, PopulationSummary, SimResult};
pub use packet::FlowId;
pub use pktstore::{PktStore, SentPkt, SeqStore};
pub use sender::Accounting;
pub use sim::Network;
pub use workload::{ArrivalProcess, SizeDist, Workload};
