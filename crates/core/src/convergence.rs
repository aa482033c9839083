//! Delay-convergence detection (Definition 1, Figure 1).
//!
//! A CCA is *delay-convergent* if, run alone on an ideal path, there is a
//! time `T` after which its RTT stays inside a bounded interval
//! `[d_min(C), d_max(C)]`. This module measures that interval empirically:
//! take the delay band the trajectory occupies over its trailing portion,
//! widen it by a small tolerance, and find the earliest time after which
//! the trajectory never leaves the band.

use simcore::series::TimeSeries;
use simcore::units::{Dur, Time};

/// Measured convergence behaviour of one ideal-path run.
#[derive(Clone, Copy, Debug)]
pub struct ConvergenceReport {
    /// Earliest time after which all RTT samples stay within the band.
    pub t_converge: Time,
    /// `d_min(C)`: least RTT over the converged region, seconds.
    pub d_min: f64,
    /// `d_max(C)`: greatest RTT over the converged region, seconds.
    pub d_max: f64,
}

impl ConvergenceReport {
    /// `δ(C) = d_max(C) − d_min(C)`, seconds.
    pub fn delta(&self) -> f64 {
        self.d_max - self.d_min
    }
}

/// Analyze an RTT trajectory.
///
/// * `tail_fraction` — the trailing share of the run treated as "surely
///   converged" when measuring the band (0.5 is robust).
/// * `tolerance` — widening applied to the band before locating
///   `t_converge`, in seconds (absorbs one-packet quantization).
///
/// Returns `None` if the series is empty or the trajectory still leaves
/// the band in the final `tail_fraction` (i.e. no convergence detected).
pub fn analyze_convergence(
    rtt: &TimeSeries,
    tail_fraction: f64,
    tolerance: f64,
) -> Option<ConvergenceReport> {
    assert!(tail_fraction > 0.0 && tail_fraction <= 1.0);
    let (first_t, _) = rtt.first()?;
    let end = rtt.end_time();
    if end <= first_t {
        return None;
    }
    let span = end.since(first_t);
    let tail_start = end - Dur((span.as_nanos() as f64 * tail_fraction) as u64);
    let d_min = rtt.min_in(tail_start, end)?;
    let d_max = rtt.max_in(tail_start, end)?;

    let lo = d_min - tolerance;
    let hi = d_max + tolerance;
    // Earliest suffix entirely inside [lo, hi]: scan backwards for the last
    // violation.
    let mut t_converge = first_t;
    for &(t, v) in rtt.points().iter().rev() {
        if v < lo || v > hi {
            t_converge = t + Dur(1); // just after the last violation
            break;
        }
    }
    Some(ConvergenceReport {
        t_converge,
        d_min,
        d_max,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(points: &[(u64, f64)]) -> TimeSeries {
        let mut s = TimeSeries::new();
        for &(ms, v) in points {
            s.push(Time::from_millis(ms), v);
        }
        s
    }

    #[test]
    fn detects_step_convergence() {
        // Ramp for 1 s, then settle at 50±1 ms.
        let mut pts = Vec::new();
        for i in 0..100u64 {
            pts.push((i * 10, 0.100 - (i as f64) * 0.0005));
        }
        for i in 100..400u64 {
            pts.push((i * 10, 0.050 + if i % 2 == 0 { 0.001 } else { 0.0 }));
        }
        let r = analyze_convergence(&series(&pts), 0.5, 1e-4).unwrap();
        assert!((r.d_min - 0.050).abs() < 1e-9);
        assert!((r.d_max - 0.051).abs() < 1e-9);
        assert!((r.delta() - 0.001).abs() < 1e-9);
        // Convergence detected somewhere in the ramp's end.
        assert!(r.t_converge <= Time::from_millis(1100), "{:?}", r.t_converge);
        assert!(r.t_converge > Time::from_millis(500));
    }

    #[test]
    fn flat_series_converges_at_start() {
        let pts: Vec<(u64, f64)> = (0..100).map(|i| (i * 10, 0.040)).collect();
        let r = analyze_convergence(&series(&pts), 0.5, 1e-6).unwrap();
        assert_eq!(r.t_converge, Time::ZERO);
        assert_eq!(r.delta(), 0.0);
    }

    #[test]
    fn empty_series_is_none() {
        assert!(analyze_convergence(&TimeSeries::new(), 0.5, 1e-6).is_none());
    }

    #[test]
    fn oscillation_width_measured() {
        // Sawtooth between 60 and 70 ms forever: converged immediately,
        // delta = 10 ms.
        let pts: Vec<(u64, f64)> = (0..200)
            .map(|i| (i * 10, 0.060 + 0.010 * ((i % 10) as f64) / 9.0))
            .collect();
        let r = analyze_convergence(&series(&pts), 0.5, 1e-6).unwrap();
        assert!((r.delta() - 0.010).abs() < 1e-9);
    }

    #[test]
    fn late_spike_delays_convergence_time() {
        let mut pts: Vec<(u64, f64)> = (0..300).map(|i| (i * 10, 0.050)).collect();
        pts[100] = (1000, 0.200); // spike at 1 s
        let r = analyze_convergence(&series(&pts), 0.5, 1e-6).unwrap();
        assert!(r.t_converge > Time::from_millis(1000));
    }
}
