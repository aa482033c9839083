//! Structured event tracing and runtime invariant auditing.
//!
//! The simulator's aggregate metrics (`netsim::metrics`) tell you *what* a
//! run produced; this module is how you see *why*. Instrumented components
//! push [`Event`]s into a [`TraceSink`]:
//!
//! * [`NullSink`] — discards everything. The simulator's default is no sink
//!   at all (an `Option` left `None`), so tracing costs one branch per
//!   instrumentation point when disabled; `NullSink` exists for sink
//!   plumbing that needs a concrete no-op (e.g. an auditor with no
//!   downstream consumer).
//! * [`RingSink`] — a bounded in-memory ring plus per-class digests
//!   (event count and FNV-1a hash), cheap enough for tests and precise
//!   enough for golden-trace regression checks. Clonable handle: keep one
//!   clone, hand the other to the simulator, read the digest after the run.
//! * [`JsonlSink`] — streams one JSON object per event to a file for
//!   offline analysis (`repro trace <scenario>` writes these).
//! * [`Auditor`] — a checking sink: verifies runtime invariants on the
//!   event stream (conservation of packets, FIFO order, bounded jitter
//!   displacement, monotonic clock, minimum cwnd, per-flow byte
//!   accounting) and panics with the offending event plus recent context
//!   on the first violation. Wraps an optional downstream sink.
//!
//! Event timestamps are the simulator clock at the instant the event was
//! *processed*, so a sink observes a non-decreasing time sequence — one of
//! the invariants the [`Auditor`] checks.

use crate::units::{Dur, Rate, Time};
use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Mutex};

pub use crate::flow::FlowId;

/// One traced simulator event.
///
/// Variants mirror the §3 path: a packet is sent, offered to the bottleneck
/// (enqueue or drop), dequeued at line rate, held by the jitter element,
/// released to the receiver; the returning ACK updates the sender's
/// accounting and its CCA (cwnd/pacing plus named internals via
/// [`Event::Probe`]). [`Event::RunEnd`] closes the stream with the
/// bottleneck's final backlog so conservation can be settled exactly.
#[derive(Clone, Debug)]
pub enum Event {
    /// A sender transmitted a packet (fresh data or a retransmission).
    Send {
        /// The sending flow.
        flow: FlowId,
        /// Sequence number.
        seq: u64,
        /// Packet size in bytes.
        bytes: u64,
        /// True for retransmissions (classified as `"retransmit"`).
        retransmit: bool,
    },
    /// The bottleneck accepted a packet into its queue.
    Enqueue {
        /// The owning flow.
        flow: FlowId,
        /// Sequence number.
        seq: u64,
        /// Packet size in bytes.
        bytes: u64,
        /// Queue backlog in bytes *after* the enqueue.
        queued_bytes: u64,
    },
    /// The bottleneck tail-dropped a packet (buffer full).
    Drop {
        /// The owning flow.
        flow: FlowId,
        /// Sequence number.
        seq: u64,
        /// Packet size in bytes.
        bytes: u64,
    },
    /// The bottleneck finished serving a packet.
    Dequeue {
        /// The owning flow.
        flow: FlowId,
        /// Sequence number.
        seq: u64,
        /// Packet size in bytes.
        bytes: u64,
        /// Queue backlog in bytes *after* the dequeue.
        queued_bytes: u64,
    },
    /// The jitter element decided a packet's hold: it arrives at the
    /// element at `arrive` (post-propagation) and is released at `release`.
    /// Displacement `release − arrive` must stay within the policy's bound.
    JitterHold {
        /// The owning flow.
        flow: FlowId,
        /// Sequence number.
        seq: u64,
        /// Arrival time at the element.
        arrive: Time,
        /// Chosen release time (≥ `arrive`, never reordering the flow).
        release: Time,
    },
    /// A held packet left the jitter element and reached the receiver.
    JitterRelease {
        /// The owning flow.
        flow: FlowId,
        /// Sequence number.
        seq: u64,
    },
    /// A sender processed an acknowledgement. Carries the sender's
    /// byte-accounting snapshot *after* processing; the auditor checks the
    /// exact identity
    /// `sent + spurious_rtx = delivered + in_flight + lost + unresolved`.
    Ack {
        /// The receiving flow.
        flow: FlowId,
        /// Cumulative sequence the ACK carried (reliable transport).
        cum_seq: Option<u64>,
        /// RTT sample this ACK produced, if any (Karn's rule may skip it).
        rtt: Option<Dur>,
        /// Lifetime bytes transmitted (including retransmissions).
        sent: u64,
        /// Lifetime bytes delivered (cumulatively acknowledged).
        delivered: u64,
        /// Bytes currently outstanding.
        in_flight: u64,
        /// Lifetime bytes declared lost.
        lost: u64,
        /// Bytes SACKed or orphaned above the cumulative point: received
        /// by the receiver but not yet cumulatively acknowledged.
        unresolved: u64,
        /// Bytes declared lost whose original copy was later cumulatively
        /// acknowledged before the retransmission left (spurious
        /// go-back-N declarations).
        spurious_rtx: u64,
    },
    /// A retransmission timeout fired and was processed.
    Rto {
        /// The flow whose timer expired.
        flow: FlowId,
    },
    /// The sender's CCA outputs after processing an ACK or a timeout.
    CwndUpdate {
        /// The flow.
        flow: FlowId,
        /// Congestion window in bytes (must be ≥ 1 MSS).
        cwnd: u64,
        /// Pacing rate, when the CCA paces.
        pacing: Option<Rate>,
    },
    /// A named CCA-internal scalar (`"bbr.btl_bw"`, `"copa.min_rtt"`, …)
    /// reported through [`CongestionControl::internals`].
    ///
    /// [`CongestionControl::internals`]: ../../cca/trait.CongestionControl.html
    Probe {
        /// The flow.
        flow: FlowId,
        /// Stable internal-state key.
        key: &'static str,
        /// Current value (units are key-specific).
        value: f64,
    },
    /// A workload-scheduled flow arrived and was spawned mid-run. The
    /// auditor registers the flow from this event; statically-configured
    /// flows are registered at construction and never emit it, which keeps
    /// the canonical golden digests free of workload classes.
    FlowArrive {
        /// The new flow (must extend the dense id sequence).
        flow: FlowId,
        /// The flow's packet size (min-cwnd invariant).
        mss: u64,
        /// Jitter displacement bound, when the flow's policy has one.
        jitter_bound: Option<Dur>,
        /// Byte budget for finite flows (`None` = bulk, runs to the end).
        size: Option<u64>,
    },
    /// A finite flow delivered its byte budget and retired. Carries the
    /// sender's final accounting snapshot; the auditor checks a retired
    /// flow leaks nothing (`in_flight = 0` and the byte identity balances).
    FlowComplete {
        /// The retiring flow.
        flow: FlowId,
        /// Lifetime bytes transmitted (including retransmissions).
        sent: u64,
        /// Lifetime bytes delivered.
        delivered: u64,
        /// Bytes still outstanding (must be zero at retirement).
        in_flight: u64,
        /// Lifetime bytes declared lost.
        lost: u64,
        /// Bytes SACKed or orphaned above the cumulative point.
        unresolved: u64,
        /// Spuriously retransmitted bytes.
        spurious_rtx: u64,
    },
    /// The run ended; `queued_pkts` packets (excluding warm-start phantoms)
    /// were still in the bottleneck queue.
    RunEnd {
        /// Final bottleneck backlog in packets.
        queued_pkts: u64,
    },
}

impl Event {
    /// Stable class name used by digests and JSON output. `Send` events
    /// with `retransmit = true` classify as `"retransmit"`.
    pub fn class(&self) -> &'static str {
        match self {
            Event::Send { retransmit: true, .. } => "retransmit",
            Event::Send { .. } => "send",
            Event::Enqueue { .. } => "enqueue",
            Event::Drop { .. } => "drop",
            Event::Dequeue { .. } => "dequeue",
            Event::JitterHold { .. } => "jitter-hold",
            Event::JitterRelease { .. } => "jitter-release",
            Event::Ack { .. } => "ack",
            Event::Rto { .. } => "rto",
            Event::CwndUpdate { .. } => "cwnd",
            Event::Probe { .. } => "probe",
            Event::FlowArrive { .. } => "flow-arrive",
            Event::FlowComplete { .. } => "flow-complete",
            Event::RunEnd { .. } => "run-end",
        }
    }

    /// The flow the event belongs to (`None` for [`Event::RunEnd`]).
    pub fn flow(&self) -> Option<FlowId> {
        match self {
            Event::Send { flow, .. }
            | Event::Enqueue { flow, .. }
            | Event::Drop { flow, .. }
            | Event::Dequeue { flow, .. }
            | Event::JitterHold { flow, .. }
            | Event::JitterRelease { flow, .. }
            | Event::Ack { flow, .. }
            | Event::Rto { flow }
            | Event::CwndUpdate { flow, .. }
            | Event::Probe { flow, .. }
            | Event::FlowArrive { flow, .. }
            | Event::FlowComplete { flow, .. } => Some(*flow),
            Event::RunEnd { .. } => None,
        }
    }

    /// Fold the event (and its timestamp) into an FNV-1a hash in a
    /// canonical field order, so digests are bit-stable across runs.
    fn fold(&self, at: Time, h: &mut Fnv64) {
        h.u64(at.as_nanos());
        match self {
            Event::Send { flow, seq, bytes, retransmit } => {
                h.u64(flow.as_u64()).u64(*seq).u64(*bytes).u64(*retransmit as u64);
            }
            Event::Enqueue { flow, seq, bytes, queued_bytes }
            | Event::Dequeue { flow, seq, bytes, queued_bytes } => {
                h.u64(flow.as_u64()).u64(*seq).u64(*bytes).u64(*queued_bytes);
            }
            Event::Drop { flow, seq, bytes } => {
                h.u64(flow.as_u64()).u64(*seq).u64(*bytes);
            }
            Event::JitterHold { flow, seq, arrive, release } => {
                h.u64(flow.as_u64()).u64(*seq).u64(arrive.as_nanos()).u64(release.as_nanos());
            }
            Event::JitterRelease { flow, seq } => {
                h.u64(flow.as_u64()).u64(*seq);
            }
            Event::Ack {
                flow,
                cum_seq,
                rtt,
                sent,
                delivered,
                in_flight,
                lost,
                unresolved,
                spurious_rtx,
            } => {
                h.u64(flow.as_u64())
                    .opt_u64(cum_seq.as_ref().copied())
                    .opt_u64(rtt.map(|d| d.as_nanos()))
                    .u64(*sent)
                    .u64(*delivered)
                    .u64(*in_flight)
                    .u64(*lost)
                    .u64(*unresolved)
                    .u64(*spurious_rtx);
            }
            Event::Rto { flow } => {
                h.u64(flow.as_u64());
            }
            Event::CwndUpdate { flow, cwnd, pacing } => {
                h.u64(flow.as_u64())
                    .u64(*cwnd)
                    .opt_u64(pacing.map(|r| r.bytes_per_sec().to_bits()));
            }
            Event::Probe { flow, key, value } => {
                h.u64(flow.as_u64()).bytes(key.as_bytes()).u64(value.to_bits());
            }
            Event::FlowArrive { flow, mss, jitter_bound, size } => {
                h.u64(flow.as_u64())
                    .u64(*mss)
                    .opt_u64(jitter_bound.map(|d| d.as_nanos()))
                    .opt_u64(*size);
            }
            Event::FlowComplete {
                flow,
                sent,
                delivered,
                in_flight,
                lost,
                unresolved,
                spurious_rtx,
            } => {
                h.u64(flow.as_u64())
                    .u64(*sent)
                    .u64(*delivered)
                    .u64(*in_flight)
                    .u64(*lost)
                    .u64(*unresolved)
                    .u64(*spurious_rtx);
            }
            Event::RunEnd { queued_pkts } => {
                h.u64(*queued_pkts);
            }
        }
    }

    /// One JSON object (no trailing newline) for [`JsonlSink`]. Hand-rolled
    /// like the sweep engine's timing records: the repo has no serde.
    pub fn to_json(&self, at: Time) -> String {
        let mut s = format!("{{\"t_ns\":{},\"ev\":\"{}\"", at.as_nanos(), self.class());
        if let Some(f) = self.flow() {
            s.push_str(&format!(",\"flow\":{f}"));
        }
        match self {
            Event::Send { seq, bytes, .. } | Event::Drop { seq, bytes, .. } => {
                s.push_str(&format!(",\"seq\":{seq},\"bytes\":{bytes}"));
            }
            Event::Enqueue { seq, bytes, queued_bytes, .. }
            | Event::Dequeue { seq, bytes, queued_bytes, .. } => {
                s.push_str(&format!(
                    ",\"seq\":{seq},\"bytes\":{bytes},\"queued\":{queued_bytes}"
                ));
            }
            Event::JitterHold { seq, arrive, release, .. } => {
                s.push_str(&format!(
                    ",\"seq\":{seq},\"arrive_ns\":{},\"release_ns\":{}",
                    arrive.as_nanos(),
                    release.as_nanos()
                ));
            }
            Event::JitterRelease { seq, .. } => {
                s.push_str(&format!(",\"seq\":{seq}"));
            }
            Event::Ack {
                cum_seq,
                rtt,
                sent,
                delivered,
                in_flight,
                lost,
                unresolved,
                spurious_rtx,
                ..
            } => {
                if let Some(c) = cum_seq {
                    s.push_str(&format!(",\"cum_seq\":{c}"));
                }
                if let Some(r) = rtt {
                    s.push_str(&format!(",\"rtt_ns\":{}", r.as_nanos()));
                }
                s.push_str(&format!(
                    ",\"sent\":{sent},\"delivered\":{delivered},\"in_flight\":{in_flight},\"lost\":{lost},\"unresolved\":{unresolved},\"spurious_rtx\":{spurious_rtx}"
                ));
            }
            Event::Rto { .. } => {}
            Event::CwndUpdate { cwnd, pacing, .. } => {
                s.push_str(&format!(",\"cwnd\":{cwnd}"));
                if let Some(p) = pacing {
                    s.push_str(&format!(",\"pacing_bps\":{:.3}", p.bytes_per_sec() * 8.0));
                }
            }
            Event::Probe { key, value, .. } => {
                s.push_str(&format!(",\"key\":\"{key}\",\"value\":{value}"));
            }
            Event::FlowArrive { mss, jitter_bound, size, .. } => {
                s.push_str(&format!(",\"mss\":{mss}"));
                if let Some(b) = jitter_bound {
                    s.push_str(&format!(",\"jitter_bound_ns\":{}", b.as_nanos()));
                }
                if let Some(sz) = size {
                    s.push_str(&format!(",\"size\":{sz}"));
                }
            }
            Event::FlowComplete {
                sent,
                delivered,
                in_flight,
                lost,
                unresolved,
                spurious_rtx,
                ..
            } => {
                s.push_str(&format!(
                    ",\"sent\":{sent},\"delivered\":{delivered},\"in_flight\":{in_flight},\"lost\":{lost},\"unresolved\":{unresolved},\"spurious_rtx\":{spurious_rtx}"
                ));
            }
            Event::RunEnd { queued_pkts } => {
                s.push_str(&format!(",\"queued_pkts\":{queued_pkts}"));
            }
        }
        s.push('}');
        s
    }
}

/// A consumer of traced events.
///
/// The simulator calls [`TraceSink::event`] with a non-decreasing `at` and
/// [`TraceSink::finish`] exactly once at the end of the run, after the
/// final [`Event::RunEnd`].
pub trait TraceSink: Send {
    /// Observe one event at simulator time `at`.
    fn event(&mut self, at: Time, ev: &Event);

    /// The run is over; flush any buffered output.
    fn finish(&mut self, at: Time) {
        let _ = at;
    }
}

/// A factory producing a fresh sink per simulation. `SimConfig` must stay
/// `Clone` (the sweep engine expands a job list once and runs it at any
/// worker count), and a boxed sink is not — so configs carry one of these
/// and each `Network` builds its own sink at construction.
pub type TraceFactory = Arc<dyn Fn() -> Box<dyn TraceSink> + Send + Sync>;

/// A sink that discards every event.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn event(&mut self, _at: Time, _ev: &Event) {}
}

/// 64-bit FNV-1a. Hand-rolled (the workspace is dependency-free) and only
/// used for trace digests, where stability matters more than strength.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Fnv64(u64);

impl Fnv64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    fn new() -> Fnv64 {
        Fnv64(Self::OFFSET)
    }

    fn bytes(&mut self, data: &[u8]) -> &mut Fnv64 {
        for &b in data {
            self.0 = (self.0 ^ b as u64).wrapping_mul(Self::PRIME);
        }
        self
    }

    fn u64(&mut self, v: u64) -> &mut Fnv64 {
        self.bytes(&v.to_le_bytes())
    }

    fn opt_u64(&mut self, v: Option<u64>) -> &mut Fnv64 {
        match v {
            None => self.u64(0),
            Some(v) => self.u64(1).u64(v),
        }
    }
}

/// Per-class event counts and order-sensitive FNV-1a hashes — the compact,
/// diff-friendly fingerprint of a trace that the golden-trace regression
/// tests record.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceDigest {
    classes: BTreeMap<&'static str, (u64, Fnv64)>,
}

impl TraceDigest {
    fn observe(&mut self, at: Time, ev: &Event) {
        let entry = self.classes.entry(ev.class()).or_insert((0, Fnv64::new()));
        entry.0 += 1;
        ev.fold(at, &mut entry.1);
    }

    /// Number of events of `class` observed.
    pub fn count(&self, class: &str) -> u64 {
        self.classes.get(class).map(|(n, _)| *n).unwrap_or(0)
    }

    /// Total events across all classes.
    pub fn total(&self) -> u64 {
        self.classes.values().map(|(n, _)| n).sum()
    }

    /// The observed classes with their event counts, in class order.
    pub fn classes(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.classes.iter().map(|(&class, &(n, _))| (class, n))
    }

    /// Render as sorted `class count hash` lines — the golden-file format.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (class, (count, hash)) in &self.classes {
            out.push_str(&format!("{class} {count} {:016x}\n", hash.0));
        }
        out
    }
}

struct RingInner {
    cap: usize,
    ring: VecDeque<(Time, Event)>,
    digest: TraceDigest,
}

/// A bounded in-memory ring of recent events plus an unbounded
/// [`TraceDigest`]. Cloning shares the underlying buffer, so tests keep one
/// handle and give the simulator's trace factory another.
#[derive(Clone)]
pub struct RingSink {
    inner: Arc<Mutex<RingInner>>,
}

impl RingSink {
    /// A ring retaining the last `cap` events (the digest counts them all).
    pub fn new(cap: usize) -> RingSink {
        RingSink {
            inner: Arc::new(Mutex::new(RingInner {
                cap: cap.max(1),
                ring: VecDeque::new(),
                digest: TraceDigest::default(),
            })),
        }
    }

    /// Snapshot of the retained (most recent) events.
    pub fn events(&self) -> Vec<(Time, Event)> {
        self.inner.lock().expect("ring sink mutex poisoned").ring.iter().cloned().collect()
    }

    /// Snapshot of the digest.
    pub fn digest(&self) -> TraceDigest {
        self.inner.lock().expect("ring sink mutex poisoned").digest.clone()
    }
}

impl TraceSink for RingSink {
    fn event(&mut self, at: Time, ev: &Event) {
        let mut g = self.inner.lock().expect("ring sink mutex poisoned");
        g.digest.observe(at, ev);
        if g.ring.len() == g.cap {
            g.ring.pop_front();
        }
        g.ring.push_back((at, ev.clone()));
    }
}

/// Streams one JSON object per line to a writer (usually a file).
///
/// [`TraceSink::event`] cannot return an error, so the first write failure
/// is remembered (and writing stops); [`TraceSink::finish`] panics with it,
/// the way the [`Auditor`] reports a violation — a truncated trace must not
/// end in a clean exit.
pub struct JsonlSink {
    w: std::io::BufWriter<Box<dyn std::io::Write + Send>>,
    failed: Option<std::io::Error>,
}

impl JsonlSink {
    /// Create (truncate) `path` and stream events into it.
    pub fn create(path: &std::path::Path) -> std::io::Result<JsonlSink> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let f = std::fs::File::create(path)?;
        Ok(JsonlSink::from_writer(Box::new(f)))
    }

    /// Wrap any writer.
    pub fn from_writer(w: Box<dyn std::io::Write + Send>) -> JsonlSink {
        JsonlSink {
            w: std::io::BufWriter::new(w),
            failed: None,
        }
    }
}

impl TraceSink for JsonlSink {
    fn event(&mut self, at: Time, ev: &Event) {
        use std::io::Write;
        if self.failed.is_none() {
            self.failed = writeln!(self.w, "{}", ev.to_json(at)).err();
        }
    }

    fn finish(&mut self, _at: Time) {
        use std::io::Write;
        if let Some(e) = self.failed.take().or_else(|| self.w.flush().err()) {
            panic!("trace output is incomplete: {e}");
        }
    }
}

/// What the auditor needs to know about one flow.
#[derive(Clone, Copy, Debug)]
pub struct FlowAuditSpec {
    /// The flow's packet size: `cwnd` must never fall below it.
    pub mss: u64,
    /// The jitter policy's displacement bound `D` (`None` = unbounded
    /// policy, displacement unchecked).
    pub jitter_bound: Option<Dur>,
}

/// How many recent events the auditor reports as context on a violation.
const AUDIT_CONTEXT: usize = 16;

/// Per-flow counters the auditor tracks between [`Event::Ack`]s.
#[derive(Clone, Copy, Debug, Default)]
struct AckCounters {
    sent: u64,
    delivered: u64,
    lost: u64,
    spurious_rtx: u64,
}

/// A [`TraceSink`] that checks runtime invariants and panics with the
/// offending event plus recent context on the first violation:
///
/// 1. **Conservation of packets** — every accepted enqueue is eventually
///    dequeued or still queued when the run ends (cross-checked against the
///    bottleneck's own final backlog in [`Event::RunEnd`]).
/// 2. **FIFO order at the bottleneck** — packets dequeue in exactly the
///    order they enqueued.
/// 3. **Bounded jitter displacement** — every hold satisfies
///    `release − arrive ≤ D` for the flow's declared bound, and releases
///    never reorder a flow.
/// 4. **Monotonic sim clock** — event timestamps never decrease.
/// 5. **Minimum window** — `cwnd ≥ 1 MSS` at every CCA update.
/// 6. **Per-flow byte accounting** — the exact identity
///    `sent + spurious_rtx = delivered + in_flight + lost + unresolved`
///    holds at every ACK, and the lifetime counters are monotone.
/// 7. **Flow lifecycle** — workload-spawned flows register via
///    [`Event::FlowArrive`] in dense id order, and a retired flow
///    ([`Event::FlowComplete`]) leaks nothing: zero bytes in flight, the
///    byte identity balanced, lifetime counters extending the last ACK.
///
/// Failing fast inside the event loop means the panic lands in the sweep
/// engine's per-job isolation (`par::map` catches it) or aborts a CLI run
/// with the full context — either way the violation is tied to the exact
/// simulated instant it occurred.
pub struct Auditor {
    flows: Vec<FlowAuditSpec>,
    inner: Option<Box<dyn TraceSink>>,
    last_at: Option<Time>,
    /// (flow, seq) of queued packets, in enqueue order.
    fifo: VecDeque<(FlowId, u64)>,
    enqueued: u64,
    dequeued: u64,
    /// Last jitter release per flow (no-reorder check).
    last_release: Vec<Option<Time>>,
    prev: Vec<AckCounters>,
    recent: VecDeque<(Time, Event)>,
}

impl Auditor {
    /// An auditor for the given statically-configured flows, forwarding
    /// events to `inner`. Workload-spawned flows register later via
    /// [`Event::FlowArrive`].
    pub fn new(flows: Vec<FlowAuditSpec>, inner: Option<Box<dyn TraceSink>>) -> Auditor {
        let n = flows.len();
        Auditor {
            flows,
            inner,
            last_at: None,
            fifo: VecDeque::new(),
            enqueued: 0,
            dequeued: 0,
            last_release: vec![None; n],
            prev: vec![AckCounters::default(); n],
            recent: VecDeque::new(),
        }
    }

    fn fail(&self, at: Time, ev: &Event, invariant: &str, detail: String) -> ! {
        let mut ctx = String::new();
        for (t, e) in &self.recent {
            ctx.push_str(&format!("  {} {}\n", t.as_nanos(), e.to_json(*t)));
        }
        panic!(
            "audit: {invariant} violated at t={}ns on {}: {detail}\nrecent events:\n{ctx}  {} {}",
            at.as_nanos(),
            ev.class(),
            at.as_nanos(),
            ev.to_json(at),
        );
    }

    fn spec(&self, at: Time, ev: &Event, flow: FlowId) -> FlowAuditSpec {
        match self.flows.get(flow.index()) {
            Some(s) => *s,
            None => self.fail(at, ev, "flow-id", format!("unknown flow {flow}")),
        }
    }
}

impl TraceSink for Auditor {
    fn event(&mut self, at: Time, ev: &Event) {
        // Invariant 4: monotonic clock.
        if let Some(last) = self.last_at {
            if at < last {
                self.fail(
                    at,
                    ev,
                    "monotonic-clock",
                    format!("time went backwards ({} < {})", at.as_nanos(), last.as_nanos()),
                );
            }
        }
        self.last_at = Some(at);

        match ev {
            Event::Enqueue { flow, seq, .. } => {
                self.spec(at, ev, *flow);
                self.fifo.push_back((*flow, *seq));
                self.enqueued += 1;
            }
            Event::Dequeue { flow, seq, .. } => {
                // Invariant 2: FIFO order.
                match self.fifo.pop_front() {
                    Some(head) if head == (*flow, *seq) => {}
                    Some((hf, hs)) => self.fail(
                        at,
                        ev,
                        "fifo-order",
                        format!("dequeued flow {flow} seq {seq} but head of queue is flow {hf} seq {hs}"),
                    ),
                    None => self.fail(
                        at,
                        ev,
                        "conservation",
                        format!("dequeued flow {flow} seq {seq} that was never enqueued"),
                    ),
                }
                self.dequeued += 1;
            }
            Event::JitterHold { flow, seq, arrive, release } => {
                let spec = self.spec(at, ev, *flow);
                if release < arrive {
                    self.fail(
                        at,
                        ev,
                        "jitter-bound",
                        format!(
                            "flow {flow} seq {seq} released before it arrived ({} < {})",
                            release.as_nanos(),
                            arrive.as_nanos()
                        ),
                    );
                }
                if let Some(bound) = spec.jitter_bound {
                    let disp = release.since(*arrive);
                    if disp > bound {
                        self.fail(
                            at,
                            ev,
                            "jitter-bound",
                            format!(
                                "flow {flow} seq {seq} displaced {} ns > bound {} ns",
                                disp.as_nanos(),
                                bound.as_nanos()
                            ),
                        );
                    }
                }
                if let Some(prev) = self.last_release[flow.index()] {
                    if *release < prev {
                        self.fail(
                            at,
                            ev,
                            "jitter-reorder",
                            format!(
                                "flow {flow} seq {seq} released at {} before previous release {}",
                                release.as_nanos(),
                                prev.as_nanos()
                            ),
                        );
                    }
                }
                self.last_release[flow.index()] = Some(*release);
            }
            Event::Ack {
                flow,
                sent,
                delivered,
                in_flight,
                lost,
                unresolved,
                spurious_rtx,
                ..
            } => {
                // Invariant 6: byte accounting.
                self.spec(at, ev, *flow);
                let prev = self.prev[flow.index()];
                if *sent < prev.sent
                    || *delivered < prev.delivered
                    || *lost < prev.lost
                    || *spurious_rtx < prev.spurious_rtx
                {
                    self.fail(
                        at,
                        ev,
                        "byte-accounting",
                        format!(
                            "flow {flow} lifetime counters regressed (prev sent={} delivered={} lost={} spurious={})",
                            prev.sent, prev.delivered, prev.lost, prev.spurious_rtx
                        ),
                    );
                }
                if sent + spurious_rtx != delivered + in_flight + lost + unresolved {
                    self.fail(
                        at,
                        ev,
                        "byte-accounting",
                        format!(
                            "flow {flow}: sent({sent}) + spurious_rtx({spurious_rtx}) != delivered({delivered}) + in_flight({in_flight}) + lost({lost}) + unresolved({unresolved})"
                        ),
                    );
                }
                self.prev[flow.index()] = AckCounters {
                    sent: *sent,
                    delivered: *delivered,
                    lost: *lost,
                    spurious_rtx: *spurious_rtx,
                };
            }
            Event::FlowArrive { flow, mss, jitter_bound, .. } => {
                // Invariant 7: flow lifecycle. Ids are dense and arrive in
                // order; a gap or a duplicate means the workload scheduler
                // and the trace disagree about flow identity.
                if flow.index() != self.flows.len() {
                    self.fail(
                        at,
                        ev,
                        "flow-id",
                        format!(
                            "flow {flow} arrived out of order (next dense index is {})",
                            self.flows.len()
                        ),
                    );
                }
                self.flows.push(FlowAuditSpec { mss: *mss, jitter_bound: *jitter_bound });
                self.last_release.push(None);
                self.prev.push(AckCounters::default());
            }
            Event::FlowComplete {
                flow,
                sent,
                delivered,
                in_flight,
                lost,
                unresolved,
                spurious_rtx,
            } => {
                // Invariant 7: a retired flow leaks nothing. Everything the
                // sender ever put on the wire must be resolved (delivered,
                // lost, or unresolved-at-receiver) — zero bytes in flight —
                // and the final snapshot must extend the last ACK's
                // monotone lifetime counters.
                self.spec(at, ev, *flow);
                if *in_flight != 0 {
                    self.fail(
                        at,
                        ev,
                        "flow-retire",
                        format!("flow {flow} retired with {in_flight} bytes still in flight"),
                    );
                }
                if sent + spurious_rtx != delivered + in_flight + lost + unresolved {
                    self.fail(
                        at,
                        ev,
                        "flow-retire",
                        format!(
                            "flow {flow} retired unbalanced: sent({sent}) + spurious_rtx({spurious_rtx}) != delivered({delivered}) + in_flight({in_flight}) + lost({lost}) + unresolved({unresolved})"
                        ),
                    );
                }
                let prev = self.prev[flow.index()];
                if *sent < prev.sent
                    || *delivered < prev.delivered
                    || *lost < prev.lost
                    || *spurious_rtx < prev.spurious_rtx
                {
                    self.fail(
                        at,
                        ev,
                        "flow-retire",
                        format!(
                            "flow {flow} retirement snapshot regressed lifetime counters (prev sent={} delivered={} lost={} spurious={})",
                            prev.sent, prev.delivered, prev.lost, prev.spurious_rtx
                        ),
                    );
                }
                self.prev[flow.index()] = AckCounters {
                    sent: *sent,
                    delivered: *delivered,
                    lost: *lost,
                    spurious_rtx: *spurious_rtx,
                };
            }
            Event::CwndUpdate { flow, cwnd, .. } => {
                // Invariant 5: cwnd ≥ 1 MSS.
                let spec = self.spec(at, ev, *flow);
                if *cwnd < spec.mss {
                    self.fail(
                        at,
                        ev,
                        "min-cwnd",
                        format!("flow {flow} cwnd {cwnd} < 1 MSS ({})", spec.mss),
                    );
                }
            }
            Event::RunEnd { queued_pkts } => {
                // Invariant 1: conservation, settled exactly at the end.
                let residual = self.fifo.len() as u64;
                if residual != *queued_pkts || self.enqueued != self.dequeued + residual {
                    self.fail(
                        at,
                        ev,
                        "conservation",
                        format!(
                            "enqueued {} = dequeued {} + residual {residual}, but the bottleneck reports {queued_pkts} queued",
                            self.enqueued, self.dequeued
                        ),
                    );
                }
            }
            Event::Send { .. } | Event::Drop { .. } | Event::JitterRelease { .. }
            | Event::Rto { .. } | Event::Probe { .. } => {}
        }

        if self.recent.len() == AUDIT_CONTEXT {
            self.recent.pop_front();
        }
        self.recent.push_back((at, ev.clone()));
        if let Some(inner) = &mut self.inner {
            inner.event(at, ev);
        }
    }

    fn finish(&mut self, at: Time) {
        if let Some(inner) = &mut self.inner {
            inner.finish(at);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> Vec<FlowAuditSpec> {
        vec![FlowAuditSpec {
            mss: 1500,
            jitter_bound: Some(Dur::from_millis(10)),
        }]
    }

    fn fid(i: usize) -> FlowId {
        FlowId::from_index(i)
    }

    fn catch(f: impl FnOnce() + std::panic::UnwindSafe) -> Option<String> {
        std::panic::catch_unwind(f).err().map(|e| {
            e.downcast_ref::<String>()
                .cloned()
                .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_default()
        })
    }

    fn enq(seq: u64) -> Event {
        Event::Enqueue { flow: fid(0), seq, bytes: 1500, queued_bytes: 1500 }
    }

    fn deq(seq: u64) -> Event {
        Event::Dequeue { flow: fid(0), seq, bytes: 1500, queued_bytes: 0 }
    }

    #[test]
    fn clean_stream_passes() {
        let mut a = Auditor::new(spec(), None);
        let t = Time::from_millis(1);
        a.event(t, &enq(0));
        a.event(Time::from_millis(2), &deq(0));
        a.event(Time::from_millis(2), &Event::JitterHold {
            flow: fid(0),
            seq: 0,
            arrive: Time::from_millis(42),
            release: Time::from_millis(45),
        });
        a.event(Time::from_millis(45), &Event::Ack {
            flow: fid(0),
            cum_seq: Some(0),
            rtt: Some(Dur::from_millis(44)),
            sent: 1500,
            delivered: 1500,
            in_flight: 0,
            lost: 0,
            unresolved: 0,
            spurious_rtx: 0,
        });
        a.event(Time::from_millis(45), &Event::CwndUpdate { flow: fid(0), cwnd: 3000, pacing: None });
        a.event(Time::from_secs(1), &Event::RunEnd { queued_pkts: 0 });
        a.finish(Time::from_secs(1));
    }

    #[test]
    fn fifo_violation_detected() {
        let msg = catch(|| {
            let mut a = Auditor::new(spec(), None);
            a.event(Time::from_millis(1), &enq(0));
            a.event(Time::from_millis(1), &enq(1));
            a.event(Time::from_millis(2), &deq(1)); // out of order
        })
        .expect("must panic");
        assert!(msg.contains("fifo-order"), "{msg}");
        assert!(msg.contains("recent events"), "{msg}");
    }

    #[test]
    fn conservation_violation_detected() {
        // A dequeue that was never enqueued.
        let msg = catch(|| {
            let mut a = Auditor::new(spec(), None);
            a.event(Time::from_millis(1), &deq(7));
        })
        .expect("must panic");
        assert!(msg.contains("conservation"), "{msg}");

        // A packet that vanished from the queue: RunEnd disagrees.
        let msg = catch(|| {
            let mut a = Auditor::new(spec(), None);
            a.event(Time::from_millis(1), &enq(0));
            a.event(Time::from_secs(1), &Event::RunEnd { queued_pkts: 0 });
        })
        .expect("must panic");
        assert!(msg.contains("conservation"), "{msg}");
    }

    #[test]
    fn jitter_bound_violation_detected() {
        let msg = catch(|| {
            let mut a = Auditor::new(spec(), None);
            a.event(Time::from_millis(1), &Event::JitterHold {
                flow: fid(0),
                seq: 0,
                arrive: Time::from_millis(40),
                release: Time::from_millis(60), // 20 ms > 10 ms bound
            });
        })
        .expect("must panic");
        assert!(msg.contains("jitter-bound"), "{msg}");
    }

    #[test]
    fn jitter_reorder_detected() {
        let msg = catch(|| {
            let mut a = Auditor::new(spec(), None);
            a.event(Time::from_millis(1), &Event::JitterHold {
                flow: fid(0),
                seq: 0,
                arrive: Time::from_millis(40),
                release: Time::from_millis(45),
            });
            a.event(Time::from_millis(2), &Event::JitterHold {
                flow: fid(0),
                seq: 1,
                arrive: Time::from_millis(41),
                release: Time::from_millis(44), // before seq 0's release
            });
        })
        .expect("must panic");
        assert!(msg.contains("jitter-reorder"), "{msg}");
    }

    #[test]
    fn clock_regression_detected() {
        let msg = catch(|| {
            let mut a = Auditor::new(spec(), None);
            a.event(Time::from_millis(5), &enq(0));
            a.event(Time::from_millis(4), &deq(0));
        })
        .expect("must panic");
        assert!(msg.contains("monotonic-clock"), "{msg}");
    }

    #[test]
    fn min_cwnd_violation_detected() {
        let msg = catch(|| {
            let mut a = Auditor::new(spec(), None);
            a.event(Time::from_millis(1), &Event::CwndUpdate { flow: fid(0), cwnd: 1499, pacing: None });
        })
        .expect("must panic");
        assert!(msg.contains("min-cwnd"), "{msg}");
    }

    #[test]
    fn byte_accounting_violation_detected() {
        let msg = catch(|| {
            let mut a = Auditor::new(spec(), None);
            a.event(Time::from_millis(1), &Event::Ack {
                flow: fid(0),
                cum_seq: Some(0),
                rtt: None,
                sent: 3000,
                delivered: 1500,
                in_flight: 0, // 1500 bytes unaccounted for
                lost: 0,
                unresolved: 0,
                spurious_rtx: 0,
            });
        })
        .expect("must panic");
        assert!(msg.contains("byte-accounting"), "{msg}");
    }

    #[test]
    fn counter_regression_detected() {
        let msg = catch(|| {
            let mut a = Auditor::new(spec(), None);
            let ack = |sent: u64, delivered: u64| Event::Ack {
                flow: fid(0),
                cum_seq: Some(0),
                rtt: None,
                sent,
                delivered,
                in_flight: sent - delivered,
                lost: 0,
                unresolved: 0,
                spurious_rtx: 0,
            };
            a.event(Time::from_millis(1), &ack(3000, 1500));
            a.event(Time::from_millis(2), &ack(1500, 1500)); // sent regressed
        })
        .expect("must panic");
        assert!(msg.contains("regressed"), "{msg}");
    }

    #[test]
    fn auditor_forwards_to_inner_sink() {
        let ring = RingSink::new(8);
        let mut a = Auditor::new(spec(), Some(Box::new(ring.clone())));
        a.event(Time::from_millis(1), &enq(0));
        a.event(Time::from_millis(2), &deq(0));
        assert_eq!(ring.digest().total(), 2);
        assert_eq!(ring.digest().count("enqueue"), 1);
    }

    #[test]
    fn ring_keeps_tail_but_counts_all() {
        let ring = RingSink::new(4);
        let mut sink = ring.clone();
        for i in 0..10 {
            sink.event(Time::from_millis(i), &enq(i));
        }
        assert_eq!(ring.digest().count("enqueue"), 10);
        let ev = ring.events();
        assert_eq!(ev.len(), 4);
        assert!(matches!(ev[0].1, Event::Enqueue { seq: 6, .. }));
    }

    #[test]
    fn digest_is_order_sensitive_and_deterministic() {
        let run = |seqs: &[u64]| {
            let ring = RingSink::new(4);
            let mut sink = ring.clone();
            for (i, &s) in seqs.iter().enumerate() {
                sink.event(Time::from_millis(i as u64), &enq(s));
            }
            ring.digest()
        };
        assert_eq!(run(&[1, 2, 3]).render(), run(&[1, 2, 3]).render());
        assert_ne!(run(&[1, 2, 3]).render(), run(&[2, 1, 3]).render());
    }

    #[test]
    fn digest_render_format() {
        let ring = RingSink::new(4);
        let mut sink = ring.clone();
        sink.event(Time::from_millis(1), &enq(0));
        sink.event(Time::from_millis(2), &deq(0));
        let text = ring.digest().render();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        // Classes render sorted; each line is `class count hash`.
        assert!(lines[0].starts_with("dequeue 1 "), "{text}");
        assert!(lines[1].starts_with("enqueue 1 "), "{text}");
        assert_eq!(lines[0].split_whitespace().count(), 3);
    }

    #[test]
    fn jsonl_sink_writes_one_line_per_event() {
        let dir = std::env::temp_dir().join("trace_jsonl_selftest");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("t.jsonl");
        let mut sink = JsonlSink::create(&path).unwrap();
        sink.event(Time::from_millis(1), &enq(0));
        sink.event(Time::from_millis(2), &Event::Probe { flow: fid(0), key: "x", value: 1.5 });
        sink.finish(Time::from_millis(2));
        drop(sink);
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"ev\":\"enqueue\""), "{text}");
        assert!(lines[1].contains("\"key\":\"x\""), "{text}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Accepts `room` bytes, then fails every write the way a full disk does.
    struct FullDisk {
        room: usize,
        writes_after_full: Arc<Mutex<u32>>,
    }

    impl std::io::Write for FullDisk {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if self.room == 0 {
                *self.writes_after_full.lock().unwrap() += 1;
                return Err(std::io::Error::other("disk full"));
            }
            let n = buf.len().min(self.room);
            self.room -= n;
            Ok(n)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn jsonl_sink_reports_a_failed_write_at_finish() {
        // `events` small: the failure first shows when `finish` flushes the
        // buffer. Large: it shows mid-run, when the buffer spills.
        for events in [2u64, 2_000] {
            let writes_after_full = Arc::new(Mutex::new(0));
            let disk = FullDisk { room: 100, writes_after_full: writes_after_full.clone() };
            let mut sink = JsonlSink::from_writer(Box::new(disk));
            for i in 0..events {
                sink.event(Time::from_millis(i), &enq(0));
            }
            let attempts = *writes_after_full.lock().unwrap();
            let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                sink.finish(Time::from_millis(events));
            }))
            .expect_err("finish must not report success over a truncated trace");
            let msg = died.downcast_ref::<String>().expect("panic carries a message");
            assert!(msg.contains("disk full"), "{msg}");
            if events > 2 {
                // The first error is kept and nothing is written after it.
                assert_eq!(attempts, 1);
                assert_eq!(*writes_after_full.lock().unwrap(), 1);
            }
        }
    }

    #[test]
    fn retransmit_classifies_separately() {
        let fresh = Event::Send { flow: fid(0), seq: 1, bytes: 1500, retransmit: false };
        let retx = Event::Send { flow: fid(0), seq: 1, bytes: 1500, retransmit: true };
        assert_eq!(fresh.class(), "send");
        assert_eq!(retx.class(), "retransmit");
    }

    fn arrive(i: usize) -> Event {
        Event::FlowArrive {
            flow: fid(i),
            mss: 1500,
            jitter_bound: None,
            size: Some(3000),
        }
    }

    #[test]
    fn flow_arrive_registers_a_new_flow() {
        // Flow 1 is unknown at construction (spec() declares only flow 0);
        // after FlowArrive its ACKs and cwnd updates audit cleanly.
        let mut a = Auditor::new(spec(), None);
        a.event(Time::from_millis(1), &arrive(1));
        a.event(Time::from_millis(2), &Event::CwndUpdate {
            flow: fid(1),
            cwnd: 3000,
            pacing: None,
        });
        a.event(Time::from_millis(3), &Event::Ack {
            flow: fid(1),
            cum_seq: Some(0),
            rtt: None,
            sent: 1500,
            delivered: 1500,
            in_flight: 0,
            lost: 0,
            unresolved: 0,
            spurious_rtx: 0,
        });
    }

    #[test]
    fn unregistered_flow_detected() {
        let msg = catch(|| {
            let mut a = Auditor::new(spec(), None);
            a.event(Time::from_millis(1), &Event::CwndUpdate {
                flow: fid(5),
                cwnd: 3000,
                pacing: None,
            });
        })
        .expect("must panic");
        assert!(msg.contains("unknown flow 5"), "{msg}");
    }

    #[test]
    fn flow_arrive_out_of_dense_order_detected() {
        let msg = catch(|| {
            let mut a = Auditor::new(spec(), None);
            a.event(Time::from_millis(1), &arrive(2)); // next dense index is 1
        })
        .expect("must panic");
        assert!(msg.contains("arrived out of order"), "{msg}");
    }

    #[test]
    fn flow_complete_with_clean_accounting_passes() {
        let mut a = Auditor::new(spec(), None);
        a.event(Time::from_millis(5), &Event::FlowComplete {
            flow: fid(0),
            sent: 4500,
            delivered: 3000,
            in_flight: 0,
            lost: 1500,
            unresolved: 0,
            spurious_rtx: 0,
        });
    }

    #[test]
    fn flow_complete_with_in_flight_leak_detected() {
        let msg = catch(|| {
            let mut a = Auditor::new(spec(), None);
            a.event(Time::from_millis(5), &Event::FlowComplete {
                flow: fid(0),
                sent: 3000,
                delivered: 1500,
                in_flight: 1500, // retired while bytes are still on the wire
                lost: 0,
                unresolved: 0,
                spurious_rtx: 0,
            });
        })
        .expect("must panic");
        assert!(msg.contains("flow-retire"), "{msg}");
        assert!(msg.contains("still in flight"), "{msg}");
    }

    #[test]
    fn flow_complete_counter_regression_detected() {
        let msg = catch(|| {
            let mut a = Auditor::new(spec(), None);
            a.event(Time::from_millis(1), &Event::Ack {
                flow: fid(0),
                cum_seq: Some(1),
                rtt: None,
                sent: 3000,
                delivered: 3000,
                in_flight: 0,
                lost: 0,
                unresolved: 0,
                spurious_rtx: 0,
            });
            a.event(Time::from_millis(2), &Event::FlowComplete {
                flow: fid(0),
                sent: 1500, // below the last ACK's lifetime counter
                delivered: 1500,
                in_flight: 0,
                lost: 0,
                unresolved: 0,
                spurious_rtx: 0,
            });
        })
        .expect("must panic");
        assert!(msg.contains("flow-retire"), "{msg}");
        assert!(msg.contains("regressed"), "{msg}");
    }
}
