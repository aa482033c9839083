//! Per-flow and per-run measurement records.
//!
//! The paper's throughput definition (§4.2): "the number of bytes
//! acknowledged between time 0 and t divided by t" — implemented by
//! [`FlowMetrics::throughput_at`] (with time 0 = the flow's start). Both
//! throughput accessors are departure-aware: a finite flow that completed
//! mid-run is measured over its active lifetime, not the idle tail.
//!
//! A run's results are keyed per flow: one [`FlowRecord`] per [`FlowId`]
//! holding the flow's metrics together with its bottleneck drops and
//! jitter clamps (formerly three index-parallel `Vec`s on `SimResult`).
//! Records iterate in dense id order, so results are deterministic and
//! `result.flows[i]` is the record of flow `i`.

use crate::packet::FlowId;
use simcore::series::TimeSeries;
use simcore::stats;
use simcore::units::{bytes_as_f64, count_as_u64, f64_as_bytes, Dur, Rate, Time};

/// Everything recorded about one flow during a run.
#[derive(Clone, Debug)]
pub struct FlowMetrics {
    /// Flow start time.
    pub start: Time,
    /// Completion time of a finite transfer (`None` = still active at the
    /// end of the run, or a bulk flow).
    pub completed: Option<Time>,
    /// RTT samples `(ack time, seconds)` — exact, one per valid sample.
    pub rtt: TimeSeries,
    /// Congestion window samples (decimated), bytes.
    pub cwnd: TimeSeries,
    /// Pacing-rate samples (decimated), bytes/sec.
    pub pacing: TimeSeries,
    /// Cumulative delivered bytes over time.
    pub delivered: TimeSeries,
    /// Total bytes handed to the path (including retransmissions).
    pub sent_bytes: u64,
    /// Bytes the sender declared lost.
    pub lost_bytes: u64,
    /// Retransmitted bytes.
    pub retransmitted_bytes: u64,
    /// Fast-retransmit episodes.
    pub fast_retransmits: u64,
    /// RTO episodes.
    pub timeouts: u64,
}

impl FlowMetrics {
    /// Empty record for a flow starting at `start`.
    pub fn new(start: Time) -> Self {
        FlowMetrics {
            start,
            completed: None,
            rtt: TimeSeries::new(),
            cwnd: TimeSeries::new(),
            pacing: TimeSeries::new(),
            delivered: TimeSeries::new(),
            sent_bytes: 0,
            lost_bytes: 0,
            retransmitted_bytes: 0,
            fast_retransmits: 0,
            timeouts: 0,
        }
    }

    /// Total bytes delivered by the end of the record.
    pub fn total_delivered(&self) -> u64 {
        self.delivered.last().map(|(_, v)| f64_as_bytes(v)).unwrap_or(0)
    }

    /// Flow completion time of a finite transfer (`None` while active).
    pub fn fct(&self) -> Option<Dur> {
        self.completed.map(|c| c.since(self.start))
    }

    /// The instant this flow stopped being active: its completion time if
    /// it finished before `end`, else `end` itself.
    pub fn active_until(&self, end: Time) -> Time {
        match self.completed {
            Some(c) => c.min(end),
            None => end,
        }
    }

    /// The paper's throughput at time `t`: delivered bytes in
    /// `[start, t]` divided by `t − start`. Departure-aware: for a flow
    /// that completed before `t` the window clamps to the completion
    /// time, so a finished transfer reports its lifetime rate instead of
    /// a rate diluted by post-departure idle time.
    pub fn throughput_at(&self, t: Time) -> Rate {
        let t = self.active_until(t);
        if t <= self.start {
            return Rate::ZERO;
        }
        let bytes = self.delivered.value_at(t).unwrap_or(0.0);
        Rate::from_bytes_per_sec(bytes / t.since(self.start).as_secs_f64())
    }

    /// Mean throughput over a window `[a, b]` (delivered delta / elapsed).
    /// Departure-aware: both edges clamp to the completion time, so a
    /// window straddling the departure measures the active part only.
    ///
    /// An empty or inverted window (`b <= a` after clamping) yields
    /// [`Rate::ZERO`]: it arises legitimately when a flow starts within
    /// `window` of the run's end (or completed before `a`). Such a flow
    /// delivered nothing in the window — zero is the honest answer, not a
    /// panic.
    pub fn throughput_over(&self, a: Time, b: Time) -> Rate {
        let (a, b) = match self.completed {
            Some(c) => (a.min(c), b.min(c)),
            None => (a, b),
        };
        if b <= a {
            return Rate::ZERO;
        }
        let d_a = self.delivered.value_at(a).unwrap_or(0.0);
        let d_b = self.delivered.value_at(b).unwrap_or(0.0);
        Rate::from_bytes_per_sec((d_b - d_a).max(0.0) / b.since(a).as_secs_f64())
    }

    /// Total time this flow spent starved: the sum of `window`-sized
    /// slices of its active lifetime `[start, min(completed, end)]` whose
    /// windowed throughput (§4.2 definition over the slice) fell below
    /// `floor`. The trailing partial slice counts with its real width. A
    /// zero `window` treats the whole active lifetime as one slice.
    pub fn starvation_duration(&self, floor: Rate, window: Dur, end: Time) -> Dur {
        let stop = self.active_until(end);
        if stop <= self.start {
            return Dur::ZERO;
        }
        let step = if window.as_nanos() == 0 {
            stop.since(self.start)
        } else {
            window
        };
        let mut starved_ns = 0u64;
        let mut a = self.start;
        while a < stop {
            let b = (a + step).min(stop);
            if self.throughput_over(a, b).bytes_per_sec() < floor.bytes_per_sec() {
                starved_ns += b.since(a).as_nanos();
            }
            a = b;
        }
        Dur(starved_ns)
    }

    /// Mean RTT over `[a, b]`, seconds.
    ///
    /// `None` when the window holds no RTT samples — a flow that never
    /// started, stalled (RTO storm), or whose window predates its first
    /// valid (non-Karn-excluded) sample. Callers must decide explicitly:
    /// `expect` with the scenario's reason when samples are guaranteed,
    /// or a domain-appropriate default when a silent flow is a legal
    /// outcome (starvation scenarios produce exactly such flows).
    pub fn mean_rtt_in(&self, a: Time, b: Time) -> Option<f64> {
        self.rtt.mean_in(a, b)
    }

    /// Min/max RTT over `[a, b]` in seconds — `(d_min, d_max)` of
    /// Definition 1 when measured over the converged region.
    ///
    /// `None` on an empty sample window, exactly as [`Self::mean_rtt_in`].
    pub fn rtt_range_in(&self, a: Time, b: Time) -> Option<(f64, f64)> {
        Some((self.rtt.min_in(a, b)?, self.rtt.max_in(a, b)?))
    }

    /// Fraction of sent bytes declared lost.
    pub fn loss_fraction(&self) -> f64 {
        if self.sent_bytes == 0 {
            0.0
        } else {
            bytes_as_f64(self.lost_bytes) / bytes_as_f64(self.sent_bytes)
        }
    }
}

/// The complete keyed record of one flow in a run: its metrics plus the
/// per-flow counters that used to live in index-parallel `Vec`s on
/// [`SimResult`]. Dereferences to [`FlowMetrics`], so
/// `result.flows[i].throughput_at(..)` reads as before.
#[derive(Clone, Debug)]
pub struct FlowRecord {
    /// The flow this record belongs to.
    pub id: FlowId,
    /// The flow's measurements.
    pub metrics: FlowMetrics,
    /// Tail drops of this flow's packets at the bottleneck.
    pub drops: u64,
    /// Jitter-element clamp violations (nonzero means an adversarial
    /// emulation was infeasible at some instants).
    pub jitter_clamps: u64,
}

impl std::ops::Deref for FlowRecord {
    type Target = FlowMetrics;
    fn deref(&self) -> &FlowMetrics {
        &self.metrics
    }
}

impl std::ops::DerefMut for FlowRecord {
    fn deref_mut(&mut self) -> &mut FlowMetrics {
        &mut self.metrics
    }
}

/// Distribution percentiles over a population (nearest-rank).
#[derive(Clone, Copy, Debug)]
pub struct Percentiles {
    /// Median.
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
}

impl Percentiles {
    /// Percentiles of `xs`; `None` when empty.
    pub fn of(xs: &[f64]) -> Option<Percentiles> {
        if xs.is_empty() {
            return None;
        }
        let pct = |p| stats::percentile(xs, p).unwrap_or(f64::NAN);
        Some(Percentiles {
            p50: pct(50.0),
            p95: pct(95.0),
            p99: pct(99.0),
        })
    }
}

/// Population-scale summary of a run: what fraction of N flows finished,
/// how fast, and how long they starved — the paper's starvation story at
/// population scale.
#[derive(Clone, Copy, Debug)]
pub struct PopulationSummary {
    /// Flows in the run.
    pub n: usize,
    /// Flows that completed their finite transfer before the run ended.
    pub completed: usize,
    /// Flow-completion-time distribution in seconds, over completed flows
    /// (`None` when no flow completed).
    pub fct_secs: Option<Percentiles>,
    /// Per-flow starvation-duration distribution in seconds, over all
    /// flows that were active at some point (`None` when none were).
    pub starvation_secs: Option<Percentiles>,
    /// Fraction of flows that starved at all (starvation duration > 0).
    pub starved_fraction: f64,
    /// Jain fairness index over per-flow throughputs.
    pub jain: f64,
}

/// Events dispatched during a run, by kind. Deterministic for a given
/// scenario, with or without a trace sink.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EvCounts {
    /// Sender wakes (flow start, pacing timer).
    pub wake: u64,
    /// Bottleneck departures (phantom warm-start filler included).
    pub depart: u64,
    /// Data packets reaching a receiver.
    pub data_arrive: u64,
    /// Acknowledgements reaching a sender.
    pub ack_arrive: u64,
    /// Receiver delayed-ACK/aggregation timers.
    pub rx_flush: u64,
    /// Retransmission timers, stale ones included.
    pub rto: u64,
    /// Workload flow arrivals.
    pub flow_arrival: u64,
}

impl EvCounts {
    /// All events dispatched: the sum over kinds.
    pub fn total(&self) -> u64 {
        self.wake
            + self.depart
            + self.data_arrive
            + self.ack_arrive
            + self.rx_flush
            + self.rto
            + self.flow_arrival
    }
}

/// Result of a complete simulation run: one [`FlowRecord`] per flow, in
/// dense [`FlowId`] order (`flows[i].id` is flow `i`).
pub struct SimResult {
    /// Per-flow records, keyed by [`FlowId`] in dense id order.
    pub flows: Vec<FlowRecord>,
    /// Link utilization over the run (busy fraction).
    pub utilization: f64,
    /// When the run ended.
    pub end: Time,
    /// Total simulator events dispatched during the run. Deterministic for
    /// a given scenario; the benchmark divides wall-clock by this for its
    /// `run.<s>.ns_per_event` metrics. Always `counts.total()`.
    pub events: u64,
    /// The same events, by kind.
    pub counts: EvCounts,
}

impl SimResult {
    /// The record of one flow; `None` for unknown ids.
    pub fn flow(&self, id: FlowId) -> Option<&FlowRecord> {
        let r = self.flows.get(id.index())?;
        debug_assert_eq!(r.id, id, "records must be in dense id order");
        Some(r)
    }

    /// Per-flow throughput over the whole run (paper Definition: bytes
    /// acked / elapsed since flow start, clamped to completion).
    pub fn throughputs(&self) -> Vec<Rate> {
        self.flows.iter().map(|f| f.throughput_at(self.end)).collect()
    }

    /// Per-flow throughput over the last `window` of the run — the
    /// "steady-state" number quoted in §5's experiments.
    pub fn steady_throughputs(&self, window: Dur) -> Vec<Rate> {
        let a = if self.end.as_nanos() > window.as_nanos() {
            self.end - window
        } else {
            Time::ZERO
        };
        self.flows
            .iter()
            .map(|f| f.throughput_over(a.max(f.start), self.end))
            .collect()
    }

    /// Max/min throughput ratio (the paper's unfairness measure `s`).
    pub fn throughput_ratio(&self) -> f64 {
        let t: Vec<f64> = self.throughputs().iter().map(|r| r.mbps()).collect();
        stats::max_min_ratio(&t).unwrap_or(1.0)
    }

    /// Jain fairness index over flow throughputs.
    pub fn jain(&self) -> f64 {
        let t: Vec<f64> = self.throughputs().iter().map(|r| r.mbps()).collect();
        stats::jain_index(&t).unwrap_or(1.0)
    }

    /// Total bottleneck drops across flows.
    pub fn total_drops(&self) -> u64 {
        self.flows.iter().map(|f| f.drops).sum()
    }

    /// Total jitter-element clamp violations across flows.
    pub fn total_jitter_clamps(&self) -> u64 {
        self.flows.iter().map(|f| f.jitter_clamps).sum()
    }

    /// Completion times of the flows that finished, in id order.
    pub fn fcts(&self) -> Vec<Dur> {
        self.flows.iter().filter_map(|f| f.fct()).collect()
    }

    /// Per-flow starvation durations (see
    /// [`FlowMetrics::starvation_duration`]), in id order.
    pub fn starvation_durations(&self, floor: Rate, window: Dur) -> Vec<Dur> {
        self.flows
            .iter()
            .map(|f| f.starvation_duration(floor, window, self.end))
            .collect()
    }

    /// The population summary: FCT distribution over completed flows,
    /// starvation-duration distribution (throughput below `floor` per
    /// `window`-sized slice) over all flows, and Jain fairness over N.
    pub fn population(&self, floor: Rate, window: Dur) -> PopulationSummary {
        let fcts: Vec<f64> = self.fcts().iter().map(|d| d.as_secs_f64()).collect();
        let starvation = self.starvation_durations(floor, window);
        let active: Vec<f64> = self
            .flows
            .iter()
            .zip(&starvation)
            .filter(|(f, _)| f.active_until(self.end) > f.start)
            .map(|(_, s)| s.as_secs_f64())
            .collect();
        let starved = starvation.iter().filter(|s| s.as_nanos() > 0).count();
        PopulationSummary {
            n: self.flows.len(),
            completed: fcts.len(),
            fct_secs: Percentiles::of(&fcts),
            starvation_secs: Percentiles::of(&active),
            starved_fraction: if self.flows.is_empty() {
                0.0
            } else {
                bytes_as_f64(count_as_u64(starved)) / bytes_as_f64(count_as_u64(self.flows.len()))
            },
            jain: self.jain(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: usize, metrics: FlowMetrics) -> FlowRecord {
        FlowRecord {
            id: FlowId::from_index(id),
            metrics,
            drops: 0,
            jitter_clamps: 0,
        }
    }

    fn metrics_with_delivery() -> FlowMetrics {
        let mut m = FlowMetrics::new(Time::ZERO);
        // 1 MB after 1 s, 3 MB after 2 s.
        m.delivered.push(Time::from_secs(1), 1e6);
        m.delivered.push(Time::from_secs(2), 3e6);
        m
    }

    #[test]
    fn throughput_at_divides_by_elapsed() {
        let m = metrics_with_delivery();
        // 3 MB over 2 s = 12 Mbit/s.
        assert!((m.throughput_at(Time::from_secs(2)).mbps() - 12.0).abs() < 1e-9);
        assert_eq!(m.throughput_at(Time::ZERO), Rate::ZERO);
    }

    #[test]
    fn throughput_over_window() {
        let m = metrics_with_delivery();
        // Second second: 2 MB = 16 Mbit/s.
        let r = m.throughput_over(Time::from_secs(1), Time::from_secs(2));
        assert!((r.mbps() - 16.0).abs() < 1e-9);
    }

    #[test]
    fn throughput_respects_flow_start() {
        let mut m = FlowMetrics::new(Time::from_secs(1));
        m.delivered.push(Time::from_secs(2), 1e6);
        // 1 MB over 1 s since start = 8 Mbit/s.
        assert!((m.throughput_at(Time::from_secs(2)).mbps() - 8.0).abs() < 1e-9);
    }

    #[test]
    fn throughput_over_empty_or_inverted_window_is_zero() {
        let m = metrics_with_delivery();
        let t = Time::from_secs(1);
        assert_eq!(m.throughput_over(t, t), Rate::ZERO);
        assert_eq!(m.throughput_over(Time::from_secs(2), t), Rate::ZERO);
    }

    #[test]
    fn throughput_is_departure_aware() {
        // Regression for the pre-workload behaviour: a flow that delivered
        // 2 MB in its first 2 s and then completed used to have its
        // whole-run throughput diluted by the idle tail. Clamping to the
        // completion time reports the lifetime rate instead.
        let mut m = metrics_with_delivery();
        m.completed = Some(Time::from_secs(2));
        // At t = 10 s the flow has been gone for 8 s: rate must still be
        // 3 MB / 2 s = 12 Mbit/s, not 3 MB / 10 s = 2.4 Mbit/s.
        assert!((m.throughput_at(Time::from_secs(10)).mbps() - 12.0).abs() < 1e-9);
        // A window straddling the departure (1 s..4 s) measures only the
        // active part (1 s..2 s): 2 MB / 1 s = 16 Mbit/s.
        let r = m.throughput_over(Time::from_secs(1), Time::from_secs(4));
        assert!((r.mbps() - 16.0).abs() < 1e-9);
        // A window entirely after the departure delivered nothing.
        assert_eq!(
            m.throughput_over(Time::from_secs(3), Time::from_secs(4)),
            Rate::ZERO
        );
    }

    #[test]
    fn fct_is_completion_minus_start() {
        let mut m = FlowMetrics::new(Time::from_secs(1));
        assert_eq!(m.fct(), None);
        m.completed = Some(Time::from_secs(3));
        assert_eq!(m.fct(), Some(Dur::from_secs(2)));
    }

    #[test]
    fn starvation_duration_counts_windows_below_the_floor() {
        let mut m = FlowMetrics::new(Time::ZERO);
        // 8 Mbit/s in second 1, nothing in second 2, 8 Mbit/s in second 3.
        m.delivered.push(Time::from_secs(1), 1e6);
        m.delivered.push(Time::from_secs(3), 2e6);
        let floor = Rate::from_mbps(1.0);
        let s = m.starvation_duration(floor, Dur::from_secs(1), Time::from_secs(3));
        assert_eq!(s, Dur::from_secs(1), "exactly the silent middle second");
        // A flow delivering steadily above the floor never starves.
        let mut steady = FlowMetrics::new(Time::ZERO);
        for sec in 1..=3 {
            steady.delivered.push(Time::from_secs(sec), 1e6 * sec as f64);
        }
        let s = steady.starvation_duration(floor, Dur::from_secs(1), Time::from_secs(3));
        assert_eq!(s, Dur::ZERO);
    }

    #[test]
    fn starvation_duration_clamps_to_completion() {
        let mut m = FlowMetrics::new(Time::ZERO);
        m.delivered.push(Time::from_secs(1), 1e6);
        m.completed = Some(Time::from_secs(1));
        // Run lasts 10 s but the flow was only active for 1 s — the idle
        // tail after departure is not starvation.
        let s = m.starvation_duration(Rate::from_mbps(100.0), Dur::from_secs(1), Time::from_secs(10));
        assert_eq!(s, Dur::from_secs(1));
    }

    #[test]
    fn steady_throughputs_with_late_starting_flow() {
        // Regression: a flow starting within `window` of the run's end
        // (here: exactly at it) clamps the window to an empty interval,
        // which used to panic. It must report zero steady throughput.
        let mut early = FlowMetrics::new(Time::ZERO);
        early.delivered.push(Time::from_secs(5), 5e6);
        let late = FlowMetrics::new(Time::from_secs(5));
        let inside = FlowMetrics::new(Time::from_secs(4));
        let r = SimResult {
            flows: vec![rec(0, early), rec(1, late), rec(2, inside)],
            utilization: 0.9,
            end: Time::from_secs(5),
            events: 0,
            counts: EvCounts::default(),
        };
        let steady = r.steady_throughputs(Dur::from_secs(2));
        assert!(steady[0].mbps() > 0.0);
        assert_eq!(steady[1], Rate::ZERO);
        assert_eq!(steady[2], Rate::ZERO); // started inside window, no delivery
    }

    #[test]
    fn loss_fraction() {
        let mut m = FlowMetrics::new(Time::ZERO);
        m.sent_bytes = 100_000;
        m.lost_bytes = 2_000;
        assert!((m.loss_fraction() - 0.02).abs() < 1e-12);
        assert_eq!(FlowMetrics::new(Time::ZERO).loss_fraction(), 0.0);
    }

    #[test]
    fn rtt_range() {
        let mut m = FlowMetrics::new(Time::ZERO);
        m.rtt.push(Time::from_millis(10), 0.050);
        m.rtt.push(Time::from_millis(20), 0.055);
        m.rtt.push(Time::from_millis(30), 0.052);
        let (lo, hi) = m.rtt_range_in(Time::ZERO, Time::from_secs(1)).unwrap();
        assert_eq!((lo, hi), (0.050, 0.055));
    }

    #[test]
    fn sim_result_ratio() {
        let mut a = FlowMetrics::new(Time::ZERO);
        a.delivered.push(Time::from_secs(1), 10e6);
        let mut b = FlowMetrics::new(Time::ZERO);
        b.delivered.push(Time::from_secs(1), 1e6);
        let r = SimResult {
            flows: vec![rec(0, a), rec(1, b)],
            utilization: 0.9,
            end: Time::from_secs(1),
            events: 0,
            counts: EvCounts::default(),
        };
        assert!((r.throughput_ratio() - 10.0).abs() < 1e-9);
        assert!(r.jain() < 1.0);
    }

    #[test]
    fn flow_lookup_by_id() {
        let r = SimResult {
            flows: vec![rec(0, FlowMetrics::new(Time::ZERO)), rec(1, FlowMetrics::new(Time::ZERO))],
            utilization: 0.0,
            end: Time::from_secs(1),
            events: 0,
            counts: EvCounts::default(),
        };
        assert!(r.flow(FlowId::from_index(1)).is_some());
        assert!(r.flow(FlowId::from_index(2)).is_none());
    }

    #[test]
    fn population_summary_over_a_mixed_population() {
        // Three flows: one fast finisher, one slow finisher, one bulk flow
        // that starves in its second half.
        let mut fast = FlowMetrics::new(Time::ZERO);
        fast.delivered.push(Time::from_secs(1), 1e6);
        fast.completed = Some(Time::from_secs(1));

        let mut slow = FlowMetrics::new(Time::ZERO);
        slow.delivered.push(Time::from_secs(4), 1e6);
        slow.completed = Some(Time::from_secs(4));

        let mut bulk = FlowMetrics::new(Time::ZERO);
        bulk.delivered.push(Time::from_secs(2), 4e6);

        let r = SimResult {
            flows: vec![rec(0, fast), rec(1, slow), rec(2, bulk)],
            utilization: 0.9,
            end: Time::from_secs(4),
            events: 0,
            counts: EvCounts::default(),
        };
        let p = r.population(Rate::from_mbps(1.0), Dur::from_secs(1));
        assert_eq!(p.n, 3);
        assert_eq!(p.completed, 2);
        let fct = p.fct_secs.unwrap();
        assert!((fct.p50 - 1.0).abs() < 1e-9 || (fct.p50 - 4.0).abs() < 1e-9);
        assert!((fct.p99 - 4.0).abs() < 1e-9);
        // slow starved (0.25 MB/s < 1 Mbit/s floor? 0.25 MB/s = 2 Mbit/s,
        // above floor) — recompute: slow delivers 1e6 bytes over 4 s =
        // 2 Mbit/s overall but nothing until t=4 in per-second windows
        // except the last. bulk is silent after t=2.
        assert!(p.starved_fraction > 0.0);
        assert!(p.jain > 0.0 && p.jain <= 1.0);
    }
}
