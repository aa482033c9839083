//! Metamorphic equivalence: the [`TimerWheel`] event queue must
//! behave observably identically to the binary heap it replaced.
//!
//! The reference model is a literal min-heap over `(time, insertion seq)`
//! — the exact structure the event queue used before the wheel swap. Random
//! schedule/pop interleavings (with deliberate tie storms and far-future
//! outliers that land in the wheel's overflow heap) must produce the same
//! pop sequence, the same `peek_time` at every step, and the same
//! `pop_at_or_before` refusals. Together with the golden-trace digest
//! tests (which pin whole-simulator behavior), this is the evidence that
//! the wheel swap cannot perturb any simulation result.

use simcore::rng::Xoshiro256;
use simcore::units::Time;
use simcore::wheel::TimerWheel;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use testkit::prop::{check, u64_in};
use testkit::require_eq;

/// The pre-wheel implementation, kept as an executable specification.
struct ReferenceQueue {
    heap: BinaryHeap<Reverse<(Time, u64, u32)>>,
    seq: u64,
    now: Time,
}

impl ReferenceQueue {
    fn new() -> Self {
        ReferenceQueue {
            heap: BinaryHeap::new(),
            seq: 0,
            now: Time::ZERO,
        }
    }

    fn schedule_at(&mut self, at: Time, id: u32) {
        assert!(at >= self.now);
        self.heap.push(Reverse((at, self.seq, id)));
        self.seq += 1;
    }

    fn pop(&mut self) -> Option<(Time, u32)> {
        let Reverse((at, _, id)) = self.heap.pop()?;
        self.now = at;
        Some((at, id))
    }

    fn pop_at_or_before(&mut self, limit: Time) -> Option<(Time, u32)> {
        if self.peek_time()? > limit {
            return None;
        }
        self.pop()
    }

    fn peek_time(&self) -> Option<Time> {
        self.heap.peek().map(|&Reverse((at, _, _))| at)
    }
}

/// One randomized interleaving of schedules and pops, `ops` operations
/// long, exercising tie storms, multi-level spans, overflow outliers and
/// conditional pops — checked step by step against the reference.
fn wheel_matches_reference(&seed: &u64) -> Result<(), String> {
    let mut rng = Xoshiro256::new(seed);
    let mut wheel: TimerWheel<u32> = TimerWheel::new();
    let mut reference = ReferenceQueue::new();
    let mut next_id = 0u32;
    for _ in 0..400 {
        let op = rng.range_u64(10);
        if op < 6 {
            // Schedule at `now` plus an offset whose scale varies from
            // same-tick ties to beyond the wheel's ~19-hour horizon.
            let offset = match rng.range_u64(5) {
                0 => rng.range_u64(4),                      // tie-prone, same tick
                1 => rng.range_u64(2_000),                  // level 0
                2 => rng.range_u64(2_000_000),              // level 1-2 (µs..ms)
                3 => rng.range_u64(5_000_000_000),          // level 3-4 (..5 s)
                _ => 80_000_000_000_000 + rng.range_u64(1 << 50), // overflow
            };
            let at = Time(wheel.now().as_nanos().saturating_add(offset));
            wheel.schedule_at(at, next_id);
            reference.schedule_at(at, next_id);
            next_id += 1;
        } else if op < 8 {
            require_eq!(wheel.pop(), reference.pop());
        } else {
            let limit = Time(
                reference
                    .peek_time()
                    .unwrap_or(wheel.now())
                    .as_nanos()
                    .saturating_add(rng.range_u64(3_000_000))
                    .saturating_sub(rng.range_u64(3_000_000)),
            );
            let limit = limit.max(wheel.now());
            require_eq!(wheel.pop_at_or_before(limit),
                reference.pop_at_or_before(limit));
        }
        require_eq!(wheel.peek_time(), reference.peek_time());
        require_eq!(wheel.len(), reference.heap.len());
        require_eq!(wheel.now(), reference.now);
    }
    // Drain both completely: residues (including overflow) must agree too.
    loop {
        let (w, r) = (wheel.pop(), reference.pop());
        require_eq!(w, r);
        if w.is_none() {
            break;
        }
    }
    Ok(())
}

#[test]
fn prop_wheel_matches_reference_heap() {
    check(
        "wheel_matches_reference_heap",
        (u64_in(0, u64::MAX),),
        |&(seed,): &(u64,)| wheel_matches_reference(&seed),
    );
}

/// Dense tie storm: thousands of events at identical instants interleaved
/// with same-instant reschedules — the FIFO tie contract under stress.
#[test]
fn tie_storm_preserves_insertion_order() {
    let mut wheel: TimerWheel<u32> = TimerWheel::new();
    let mut reference = ReferenceQueue::new();
    let t = Time(5_000_000);
    for id in 0..3_000 {
        wheel.schedule_at(t, id);
        reference.schedule_at(t, id);
    }
    for _ in 0..3_000 {
        let (wt, wid) = wheel.pop().expect("wheel event");
        let (rt, rid) = reference.pop().expect("reference event");
        assert_eq!((wt, wid), (rt, rid));
        // Reschedule some at the same instant mid-drain (the causal-chain
        // pattern the simulator relies on: children fire before later events).
        if wid % 7 == 0 {
            let child = 100_000 + wid;
            wheel.schedule_at(wt, child);
            reference.schedule_at(rt, child);
        }
    }
    let drained_w: Vec<_> = std::iter::from_fn(|| wheel.pop()).collect();
    let drained_r: Vec<_> = std::iter::from_fn(|| reference.pop()).collect();
    assert_eq!(drained_w, drained_r);
}
