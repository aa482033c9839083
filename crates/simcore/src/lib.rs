//! # simcore — deterministic discrete-event simulation core
//!
//! Foundation crate for the reproduction of *Starvation in End-to-End
//! Congestion Control* (SIGCOMM 2022). Everything above this crate — the
//! congestion-control algorithms (`cca`), the packet-level link emulator
//! (`netsim`), the theorem machinery (`starvation`) and the model checker
//! (`ccmc`) — is built on these primitives:
//!
//! * [`units`] — strongly-typed simulated time ([`Time`], [`Dur`]) and
//!   rates ([`Rate`]). Time is integer nanoseconds, so event ordering is
//!   exact and runs are bit-reproducible.
//! * [`engine`] — the event queue's deterministic ordering rule; the queue
//!   itself is [`wheel::TimerWheel`].
//! * [`flow`] — the [`FlowId`] newtype keying all per-flow state (trace
//!   events, audit specs, per-flow results) with dense deterministic ids.
//! * [`wheel`] — a hierarchical timer wheel: `O(1)` near-horizon
//!   schedule/pop with the exact `(time, seq)` firing order of a binary
//!   heap, plus an overflow heap for the far future.
//! * [`json`] — the one JSON string escaper behind every hand-written
//!   JSON writer in the workspace.
//! * [`inlinevec`] — a small-capacity inline vector that spills to the heap
//!   only past `N` elements; used to keep per-event hot paths in `netsim`
//!   allocation-free.
//! * [`par`] — a scoped worker pool over an indexed job queue: order-
//!   preserving, panic-isolating, std-only. The execution layer under the
//!   experiment sweeps (`starvation::sweep`).
//! * [`rng`] — a self-contained xoshiro256** PRNG so simulation results do
//!   not depend on external crate versions.
//! * [`filter`] — windowed min/max and EWMA filters shared by the CCAs
//!   (BBR's bandwidth max-filter, Copa's standing-RTT min-filter, …).
//! * [`series`] — time-series recording used for RTT/rate trajectories
//!   (Figures 1, 5, 6 of the paper).
//! * [`stats`] — summary statistics, percentiles and Jain's fairness index,
//!   plus the fixed-bucket [`stats::Histogram`] the sweep service folds
//!   row summaries into (streaming aggregation, no per-row allocation).
//! * [`store`] — the content-addressed result store behind incremental
//!   sweeps: 128-bit FNV job digests over (canonical config bytes, seed,
//!   code tag), crash-safe write-temp-then-rename entries with validated
//!   headers, and atomic sweep checkpoints ([`store::Manifest`]).
//! * [`trace`] — structured event tracing ([`trace::TraceSink`] with null,
//!   ring-buffer and JSON-lines sinks) and the runtime invariant
//!   [`trace::Auditor`]. Zero-cost when disabled: the simulator holds an
//!   `Option` that stays `None` by default.
//!
//! The design follows the smoltcp school: event-driven, no allocation
//! tricks, no async runtime (the workload is CPU-bound and must be
//! deterministic), simple and robust.

pub mod engine;
pub mod filter;
pub mod flow;
pub mod inlinevec;
pub mod json;
pub mod par;
pub mod rng;
pub mod series;
pub mod stats;
pub mod store;
pub mod trace;
pub mod units;
pub mod wheel;

pub use flow::FlowId;
pub use inlinevec::InlineVec;
pub use rng::Xoshiro256;
pub use series::TimeSeries;
pub use units::{Dur, Rate, Time};
