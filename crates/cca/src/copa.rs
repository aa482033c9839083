//! Copa (Arun & Balakrishnan, NSDI 2018).
//!
//! Copa targets a sending rate of `1/(δ·dq)` packets per second, where `dq`
//! is its estimate of the queueing delay: *standing RTT* (minimum RTT over a
//! recent `srtt/2` window) minus *min RTT* (minimum over a long window).
//! On an ideal path it equilibrates with `2/δ` packets in the queue and
//! oscillates within `δ(C) = 4α/C` of delay (paper §2.2: < 0.5 ms when
//! C > 96 Mbit/s), making it sharply delay-convergent and hence susceptible
//! to starvation.
//!
//! The §5.1 scenario: one packet with an RTT 1 ms *below* the true
//! propagation delay poisons the min-RTT filter; Copa then believes there
//! is a standing queue of 1 ms it can never drain, caps its rate near
//! `1/(δ·1 ms)`, and a competing flow without the poisoned estimate takes
//! the rest of the link.

use crate::traits::{AckEvent, CongestionControl, LossEvent, LossKind};
use simcore::filter::WindowedMin;
use simcore::units::{Dur, Rate, Time};

/// Direction of the last window adjustment, for velocity tracking.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Dir {
    Up,
    Down,
}

/// Copa's operating mode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CopaMode {
    /// The delay-targeting mode analyzed by the paper (fixed δ).
    Default,
    /// TCP-competitive mode: AIMD on `1/δ` while the queue never empties
    /// (Copa's mechanism for coexisting with buffer-filling flows). Opt-in
    /// via [`Copa::with_competitive_mode`]; every scenario in the paper
    /// runs Copa against Copa in default mode.
    Competitive,
}

/// Copa congestion control.
#[derive(Clone, Debug)]
pub struct Copa {
    mss: u64,
    delta: f64,
    cwnd: f64, // bytes
    min_rtt: WindowedMin,      // long window (10 s), positions = ns
    standing_rtt: WindowedMin, // short window (srtt/2), positions = ns
    standing_width: u64,       // current width of `standing_rtt`, ns
    srtt: Option<f64>,         // seconds
    velocity: f64,
    last_dir: Option<Dir>,
    dir_streak: u32,
    round_end: Time,
    round_start_cwnd: f64,
    in_slow_start: bool,
    // --- competitive-mode machinery (inactive unless enabled) ---
    competitive_enabled: bool,
    mode: CopaMode,
    /// `1/δ` under AIMD in competitive mode.
    inv_delta: f64,
    /// Last time the queue was observed (nearly) empty.
    last_empty: Time,
    /// Peak queueing delay over a recent window, for the emptiness test.
    dq_peak: simcore::filter::WindowedMax,
}

impl Copa {
    /// Copa with the given MSS and δ (default mode). The NSDI paper's
    /// default is δ = 0.5.
    pub fn new(mss: u64, delta: f64) -> Self {
        assert!(delta > 0.0);
        Copa {
            mss,
            delta,
            cwnd: (2 * mss) as f64,
            min_rtt: WindowedMin::new(Dur::from_secs(10).as_nanos()),
            standing_rtt: WindowedMin::new(Dur::from_millis(100).as_nanos()),
            standing_width: Dur::from_millis(100).as_nanos(),
            srtt: None,
            velocity: 1.0,
            last_dir: None,
            dir_streak: 0,
            round_end: Time::ZERO,
            round_start_cwnd: (2 * mss) as f64,
            in_slow_start: true,
            competitive_enabled: false,
            mode: CopaMode::Default,
            inv_delta: 1.0 / delta,
            last_empty: Time::ZERO,
            dq_peak: simcore::filter::WindowedMax::new(Dur::from_millis(500).as_nanos()),
        }
    }

    /// Enable TCP-competitive mode switching (Copa §4 of its paper): when
    /// the bottleneck queue is never observed nearly-empty for 5 RTTs,
    /// Copa assumes a buffer-filling competitor and runs AIMD on `1/δ`
    /// (+1 per RTT, halved on loss, floored at the default δ).
    pub fn with_competitive_mode(mut self) -> Self {
        self.competitive_enabled = true;
        self
    }

    /// The mode Copa is currently operating in.
    pub fn mode(&self) -> CopaMode {
        self.mode
    }

    /// The effective δ (smaller in competitive mode = more aggressive).
    pub fn effective_delta(&self) -> f64 {
        match self.mode {
            CopaMode::Default => self.delta,
            CopaMode::Competitive => 1.0 / self.inv_delta,
        }
    }

    /// Default parameters: 1500-byte MSS, δ = 0.5.
    pub fn default_params() -> Self {
        Copa::new(1500, 0.5)
    }

    /// Current min-RTT estimate (the poisonable filter).
    pub fn min_rtt(&self) -> Option<Dur> {
        self.min_rtt.get().map(Dur::from_secs_f64)
    }

    /// Current standing-RTT estimate.
    pub fn standing_rtt(&self) -> Option<Dur> {
        self.standing_rtt.get().map(Dur::from_secs_f64)
    }

    /// Estimated queueing delay `dq = standing RTT − min RTT`.
    pub fn queueing_delay(&self) -> Option<Dur> {
        let s = self.standing_rtt.get()?;
        let m = self.min_rtt.get()?;
        Some(Dur::from_secs_f64((s - m).max(0.0)))
    }

    fn cwnd_pkts(&self) -> f64 {
        self.cwnd / self.mss as f64
    }
}

impl CongestionControl for Copa {
    fn on_ack(&mut self, ev: &AckEvent) {
        let pos = ev.now.as_nanos();
        let rtt_s = ev.rtt.as_secs_f64();
        self.min_rtt.insert(pos, rtt_s);
        self.srtt = Some(match self.srtt {
            None => rtt_s,
            Some(s) => 0.9 * s + 0.1 * rtt_s,
        });
        // Standing-RTT window is srtt/2, per the Copa paper. WindowedMin has
        // a fixed width, so rebuild the filter when the desired width drifts
        // by more than 2× (Copa is insensitive to small width errors).
        let srtt = self.srtt.expect("srtt assigned unconditionally above");
        let want_width = Dur::from_secs_f64(srtt / 2.0).as_nanos().max(1);
        if want_width * 2 < self.standing_width || want_width > self.standing_width * 2 {
            let mut f = WindowedMin::new(want_width);
            f.insert(pos, rtt_s);
            self.standing_rtt = f;
            self.standing_width = want_width;
        } else {
            self.standing_rtt.insert(pos, rtt_s);
        }

        let (Some(standing), Some(minr)) = (self.standing_rtt.get(), self.min_rtt.get())
        else {
            return;
        };
        let dq = (standing - minr).max(0.0);

        // --- competitive-mode detection (opt-in) ---
        if self.competitive_enabled {
            let srtt = self.srtt.unwrap_or(standing);
            self.dq_peak.insert(pos, dq);
            let peak = self.dq_peak.get().unwrap_or(0.0);
            // "Nearly empty": queueing delay under 10% of its recent peak
            // (or absolutely tiny).
            if dq < 0.1 * peak || dq < 2e-4 {
                self.last_empty = ev.now;
                if self.mode == CopaMode::Competitive {
                    self.mode = CopaMode::Default;
                }
            } else if ev.now.as_secs_f64() - self.last_empty.as_secs_f64() > 5.0 * srtt
                && self.mode == CopaMode::Default
            {
                self.mode = CopaMode::Competitive;
                self.inv_delta = 1.0 / self.delta;
            }
        }

        let delta = self.effective_delta();
        let target_pps = if dq <= 1e-9 {
            f64::MAX
        } else {
            1.0 / (delta * dq)
        };
        let current_pps = if standing > 0.0 {
            self.cwnd_pkts() / standing
        } else {
            0.0
        };

        if self.in_slow_start {
            if current_pps < target_pps {
                // Double once per RTT: spread the doubling across the
                // window's worth of acks.
                self.cwnd += ev.newly_acked as f64;
            } else {
                self.in_slow_start = false;
            }
        } else {
            // v/(δ·cwnd) packets per ack, cwnd in packets.
            let step = self.velocity / (delta * self.cwnd_pkts()) * self.mss as f64
                * (ev.newly_acked as f64 / self.mss as f64);
            if current_pps <= target_pps {
                self.cwnd += step;
            } else {
                self.cwnd -= step;
            }
        }
        self.cwnd = self.cwnd.max((2 * self.mss) as f64);

        // Velocity update once per RTT.
        if ev.now >= self.round_end {
            let rtt_dur = Dur::from_secs_f64(standing.max(1e-6));
            self.round_end = ev.now + rtt_dur;
            let dir = if self.cwnd >= self.round_start_cwnd {
                Dir::Up
            } else {
                Dir::Down
            };
            if Some(dir) == self.last_dir {
                self.dir_streak += 1;
                // Double velocity only after the direction has persisted
                // for three RTTs (Copa §2.2 of its paper).
                if self.dir_streak >= 3 {
                    self.velocity = (self.velocity * 2.0).min(1e6);
                }
            } else {
                self.velocity = 1.0;
                self.dir_streak = 0;
            }
            self.last_dir = Some(dir);
            self.round_start_cwnd = self.cwnd;
            // Competitive mode: additive increase of 1/δ each RTT.
            if self.mode == CopaMode::Competitive {
                self.inv_delta += 1.0;
            }
        }
    }

    fn on_loss(&mut self, ev: &LossEvent) {
        // Competitive mode: multiplicative decrease of 1/δ (δ doubles,
        // floored at the default) plus a window cut, like the AIMD flows
        // it is coexisting with.
        if self.mode == CopaMode::Competitive && ev.kind == LossKind::FastRetransmit {
            self.inv_delta = (self.inv_delta / 2.0).max(1.0 / self.delta);
            self.cwnd = (self.cwnd * 0.7).max((2 * self.mss) as f64);
            self.velocity = 1.0;
            return;
        }
        // Default-mode Copa reacts to loss only via timeouts (treated as
        // severe congestion).
        if ev.kind == LossKind::Timeout {
            self.cwnd = (2 * self.mss) as f64;
            self.velocity = 1.0;
            self.in_slow_start = true;
        }
    }

    fn cwnd(&self) -> u64 {
        self.cwnd as u64
    }

    fn pacing_rate(&self) -> Option<Rate> {
        // Copa paces at 2·cwnd/RTTstanding to avoid bursts.
        let standing = self.standing_rtt.get()?;
        if standing <= 0.0 {
            return None;
        }
        Some(Rate::from_bytes_per_sec(2.0 * self.cwnd / standing))
    }

    fn name(&self) -> &'static str {
        "copa"
    }

    fn internals(&self, probe: &mut dyn FnMut(&'static str, f64)) {
        if let Some(m) = self.min_rtt() {
            probe("copa.min_rtt", m.as_secs_f64());
        }
        if let Some(s) = self.standing_rtt() {
            probe("copa.standing_rtt", s.as_secs_f64());
        }
        if let Some(q) = self.queueing_delay() {
            probe("copa.queueing_delay", q.as_secs_f64());
        }
        probe("copa.velocity", self.velocity);
        probe("copa.delta", self.effective_delta());
        probe(
            "copa.competitive",
            (self.mode() == CopaMode::Competitive) as u8 as f64,
        );
    }

    fn clone_box(&self) -> Box<dyn CongestionControl> {
        Box::new(self.clone())
    }
}

impl Copa {
    #[doc(hidden)]
    pub fn debug_velocity(&self) -> f64 {
        self.velocity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ack(now_us: u64, rtt_ms: f64) -> AckEvent {
        AckEvent {
            now: Time::from_micros(now_us),
            rtt: Dur::from_millis_f64(rtt_ms),
            newly_acked: 1500,
            in_flight: 0,
            delivered: 0,
            delivered_at_send: 0,
            delivery_rate: None,
            app_limited: false,
            ecn: false,
        }
    }

    #[test]
    fn min_rtt_tracks_minimum() {
        let mut c = Copa::default_params();
        c.on_ack(&ack(0, 60.0));
        c.on_ack(&ack(1000, 59.0));
        c.on_ack(&ack(2000, 61.0));
        let m = c.min_rtt().unwrap();
        assert!((m.as_millis_f64() - 59.0).abs() < 1e-6);
    }

    #[test]
    fn queueing_delay_is_standing_minus_min() {
        let mut c = Copa::default_params();
        c.on_ack(&ack(0, 59.0));
        // Much later, all recent samples are 61 ms: standing = 61, min = 59.
        for i in 0..50 {
            c.on_ack(&ack(1_000_000 + i * 10_000, 61.0));
        }
        let dq = c.queueing_delay().unwrap();
        assert!((dq.as_millis_f64() - 2.0).abs() < 0.2, "dq={dq}");
    }

    #[test]
    fn slow_start_grows_fast() {
        let mut c = Copa::default_params();
        let w0 = c.cwnd();
        for i in 0..100 {
            c.on_ack(&ack(i * 5_000, 50.0));
        }
        assert!(c.cwnd() > 3 * w0);
    }

    #[test]
    fn rate_capped_by_poisoned_min_rtt() {
        // The §5.1 mechanism at the CCA level: min RTT 59 ms, real RTT
        // 60 ms. dq is stuck at 1 ms, so target rate = 1/(0.5·1ms) =
        // 2000 pkt/s. cwnd should gravitate to ≈ target·standing = 120 pkts.
        let mut c = Copa::default_params();
        c.on_ack(&ack(0, 59.0));
        c.cwnd = 400.0 * 1500.0; // start far above
        c.in_slow_start = false;
        // Stay within the 10 s min-RTT window so the poisoned sample holds.
        let mut now = 10_000u64;
        for _ in 0..18_000 {
            c.on_ack(&ack(now, 60.0));
            now += 500; // 2000 acks/sec for 9 s
        }
        let w_pkts = c.cwnd() as f64 / 1500.0;
        assert!(
            (w_pkts - 120.0).abs() < 40.0,
            "cwnd={w_pkts} pkts, expected ≈120"
        );
    }

    #[test]
    fn velocity_doubles_after_persistent_direction() {
        let mut c = Copa::default_params();
        c.in_slow_start = false;
        c.on_ack(&ack(0, 50.0));
        // All samples identical → dq=0 → target ∞ → always increasing.
        let mut now = 1_000u64;
        for _ in 0..400 {
            c.on_ack(&ack(now, 50.0));
            now += 5_000;
        }
        assert!(c.debug_velocity() > 1.0, "v={}", c.debug_velocity());
    }

    #[test]
    fn competitive_mode_engages_when_queue_never_empties() {
        let mut c = Copa::default_params().with_competitive_mode();
        c.in_slow_start = false;
        // Establish min RTT = 50 ms, then persistently high queueing delay.
        c.on_ack(&ack(0, 50.0));
        let mut now = 1_000u64;
        for _ in 0..3000 {
            c.on_ack(&ack(now, 80.0)); // dq = 30 ms forever
            now += 1_000;
        }
        assert_eq!(c.mode(), CopaMode::Competitive);
        // AIMD on 1/δ has been raising aggressiveness.
        assert!(c.effective_delta() < 0.5, "delta={}", c.effective_delta());
    }

    #[test]
    fn competitive_mode_disengages_when_queue_empties() {
        let mut c = Copa::default_params().with_competitive_mode();
        c.in_slow_start = false;
        c.on_ack(&ack(0, 50.0));
        let mut now = 1_000u64;
        for _ in 0..3000 {
            c.on_ack(&ack(now, 80.0));
            now += 1_000;
        }
        assert_eq!(c.mode(), CopaMode::Competitive);
        // Queue drains to (near) empty: back to default.
        c.on_ack(&ack(now, 50.1));
        assert_eq!(c.mode(), CopaMode::Default);
        assert!((c.effective_delta() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn competitive_loss_halves_aggressiveness() {
        let mut c = Copa::default_params().with_competitive_mode();
        c.mode = CopaMode::Competitive;
        c.inv_delta = 16.0;
        c.cwnd = 100.0 * 1500.0;
        c.on_loss(&LossEvent {
            now: Time::from_millis(5),
            lost_bytes: 1500,
            in_flight: 0,
            kind: LossKind::FastRetransmit,
            sent_at: None,
        });
        assert!((c.inv_delta - 8.0).abs() < 1e-9);
        assert_eq!(c.cwnd(), 70 * 1500);
    }

    #[test]
    fn default_mode_never_switches_without_opt_in() {
        let mut c = Copa::default_params();
        c.in_slow_start = false;
        c.on_ack(&ack(0, 50.0));
        let mut now = 1_000u64;
        for _ in 0..3000 {
            c.on_ack(&ack(now, 80.0));
            now += 1_000;
        }
        assert_eq!(c.mode(), CopaMode::Default);
    }

    #[test]
    fn timeout_resets() {
        let mut c = Copa::default_params();
        c.cwnd = 100.0 * 1500.0;
        c.on_loss(&LossEvent {
            now: Time::ZERO,
            lost_bytes: 1500,
            in_flight: 0,
            kind: LossKind::Timeout,
            sent_at: None,
        });
        assert_eq!(c.cwnd(), 2 * 1500);
    }

    #[test]
    fn pacing_rate_is_twice_window_rate() {
        let mut c = Copa::default_params();
        c.on_ack(&ack(0, 50.0));
        c.cwnd = 10.0 * 1500.0;
        let r = c.pacing_rate().unwrap();
        let expect = 2.0 * 10.0 * 1500.0 / 0.050;
        assert!((r.bytes_per_sec() - expect).abs() / expect < 0.01);
    }
}
