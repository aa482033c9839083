//! Hierarchical timer wheel: the simulator's future-event list
//! ([`crate::engine::EventQueue`] is this type under its simulator name).
//!
//! A discrete-event simulator spends a large share of its cycles pushing and
//! popping the future-event list. A binary heap does both in `O(log n)` with
//! poor locality; a hashed hierarchical timer wheel (the classic
//! Varghese–Lauck design, as used by kernel timer subsystems) does the common
//! case — events scheduled near the current time — in `O(1)` with a couple of
//! bitmap instructions.
//!
//! Layout: [`LEVELS`] levels of [`SLOTS`] slots each. Level 0 buckets time at
//! the tick granularity (`2^GRAN_BITS` ns ≈ 1 µs); each higher level is
//! `SLOTS`× coarser. An event files into the finest level whose slot range
//! still contains it, relative to the wheel's `cursor` (the tick the wheel
//! has drained up to). Events beyond the top level's horizon (~19 hours) go
//! to a small overflow heap. Per-level occupancy bitmaps make "next
//! non-empty slot" one `trailing_zeros`, so empty-slot churn — the classic
//! timer-wheel tax — never happens: the cursor jumps directly between
//! occupied slots.
//!
//! Ordering contract (the simulator's determinism hinges on it): events fire
//! in exactly `(time, insertion seq)` order, bit-identical to the binary
//! heap this replaced. Slots are unordered buckets; when the cursor reaches
//! a slot, the slot is drained and either re-filed one level down or, at
//! level 0, sorted by `(time, seq)` into the `ready` queue that `pop`
//! consumes. Sorting per-tick buckets (a handful of entries) is cheaper than
//! paying a heap's comparison cascade on every operation.
//!
//! The pop-side monotonicity check (`popped.at >= now`) is a *hard* assert,
//! not a debug assert: a wheel bug that re-files an entry into the past
//! would silently corrupt causality in release builds otherwise, and the
//! check costs one predictable branch per event.

use crate::units::{Dur, Time};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

/// log2 of the number of slots per level.
const SLOT_BITS: u32 = 6;
/// Slots per level.
const SLOTS: usize = 1 << SLOT_BITS;
/// Number of wheel levels; beyond `SLOT_BITS * LEVELS` tick bits lies the
/// overflow heap.
const LEVELS: usize = 6;
/// log2 of nanoseconds per level-0 tick (1.024 µs).
const GRAN_BITS: u32 = 10;

/// A scheduled event: absolute time, insertion sequence, payload.
struct Entry<E> {
    at: Time,
    seq: u64,
    ev: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, o: &Self) -> bool {
        self.at == o.at && self.seq == o.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, o: &Self) -> Option<Ordering> {
        Some(self.cmp(o))
    }
}
impl<E> Ord for Entry<E> {
    // Reversed: BinaryHeap is a max-heap, we want earliest (time, seq) first.
    fn cmp(&self, o: &Self) -> Ordering {
        (o.at, o.seq).cmp(&(self.at, self.seq))
    }
}

/// Bitmask of slot indices strictly greater than `idx`.
fn above(idx: u64) -> u64 {
    if idx >= (SLOTS as u64 - 1) {
        0
    } else {
        !0u64 << (idx + 1)
    }
}

/// Hierarchical timer wheel with exact `(time, seq)` FIFO-tie ordering.
///
/// Invariants:
/// * `ready` holds, sorted by `(at, seq)`, every pending event whose tick is
///   `<= cursor`;
/// * wheel slots and the overflow heap hold only events with tick `> cursor`;
/// * each occupancy bit is set iff the corresponding slot is non-empty.
pub struct TimerWheel<E> {
    /// Sorted run of imminent events; `pop` takes from the front.
    ready: VecDeque<Entry<E>>,
    /// `slots[level * SLOTS + slot]`: unordered buckets of future events.
    slots: Vec<Vec<Entry<E>>>,
    /// Per-level occupancy bitmaps.
    occ: [u64; LEVELS],
    /// Events past the top level's horizon.
    overflow: BinaryHeap<Entry<E>>,
    /// Tick the wheel has drained up to (events at this tick are in `ready`).
    cursor: u64,
    /// Total pending events across `ready`, slots and overflow.
    len: usize,
    /// Next insertion sequence number.
    seq: u64,
    /// Timestamp of the last popped event.
    now: Time,
}

impl<E> Default for TimerWheel<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> TimerWheel<E> {
    /// An empty wheel at time zero.
    pub fn new() -> Self {
        TimerWheel {
            ready: VecDeque::new(),
            slots: (0..LEVELS * SLOTS).map(|_| Vec::new()).collect(),
            occ: [0; LEVELS],
            overflow: BinaryHeap::new(),
            cursor: 0,
            len: 0,
            seq: 0,
            now: Time::ZERO,
        }
    }

    fn tick_of(at: Time) -> u64 {
        at.as_nanos() >> GRAN_BITS
    }

    /// Current simulated time (timestamp of the last popped event).
    pub fn now(&self) -> Time {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Schedule `ev` at absolute time `at`. Panics if `at` is before the
    /// current time — the simulation can never act on the past.
    pub fn schedule_at(&mut self, at: Time, ev: E) {
        assert!(
            at >= self.now,
            "scheduling into the past: at={at:?} now={:?}",
            self.now
        );
        let e = Entry {
            at,
            seq: self.seq,
            ev,
        };
        self.seq += 1;
        self.len += 1;
        if Self::tick_of(at) <= self.cursor {
            // Imminent (usually: scheduled at the current instant while
            // processing). Sorted insert; same-time chains hit the back.
            let key = (e.at, e.seq);
            let idx = self.ready.partition_point(|x| (x.at, x.seq) <= key);
            self.ready.insert(idx, e);
        } else {
            self.file(e);
        }
    }

    /// Schedule `ev` to fire `after` from now.
    pub fn schedule_after(&mut self, after: Dur, ev: E) {
        self.schedule_at(self.now.saturating_add(after), ev);
    }

    /// File an event with tick strictly greater than `cursor` into the
    /// finest level whose range contains it, or the overflow heap.
    fn file(&mut self, e: Entry<E>) {
        let t = Self::tick_of(e.at);
        debug_assert!(t > self.cursor);
        for level in 0..LEVELS {
            let level_shift = SLOT_BITS * level as u32;
            // Same block at this level's parent granularity => this level's
            // slot range contains the event.
            if (t >> (level_shift + SLOT_BITS)) == (self.cursor >> (level_shift + SLOT_BITS)) {
                let slot = ((t >> level_shift) & (SLOTS as u64 - 1)) as usize;
                self.slots[level * SLOTS + slot].push(e);
                self.occ[level] |= 1u64 << slot;
                return;
            }
        }
        self.overflow.push(e);
    }

    /// Advance the cursor to the next occupied slot, cascading coarse slots
    /// downward, until `ready` gains at least one event (or nothing is
    /// pending outside `ready`). Called only when `ready` is empty.
    fn advance(&mut self) {
        debug_assert!(self.ready.is_empty());
        // simlint: allow(hot-path-alloc): Vec::new is allocation-free until first push; the batch only fills while cascading coarse slots
        let mut batch: Vec<Entry<E>> = Vec::new();
        while batch.is_empty() {
            let mut progressed = false;
            for level in 0..LEVELS {
                let level_shift = SLOT_BITS * level as u32;
                let idx = (self.cursor >> level_shift) & (SLOTS as u64 - 1);
                let mask = self.occ[level] & above(idx);
                if mask == 0 {
                    continue;
                }
                let slot = mask.trailing_zeros() as u64;
                // Jump the cursor straight to the start of that slot's tick
                // range — empty slots are never visited.
                self.cursor =
                    (((self.cursor >> (level_shift + SLOT_BITS)) << SLOT_BITS) | slot) << level_shift;
                self.occ[level] &= !(1u64 << slot);
                let entries = std::mem::take(&mut self.slots[level * SLOTS + slot as usize]);
                if level == 0 {
                    // A level-0 slot is exactly one tick: everything is due.
                    batch = entries;
                } else {
                    for e in entries {
                        self.refile(e, &mut batch);
                    }
                }
                progressed = true;
                break;
            }
            if progressed {
                continue;
            }
            // Wheel empty: pull the next horizon block out of overflow.
            let Some(top) = self.overflow.peek() else {
                return; // nothing pending outside `ready`
            };
            self.cursor = Self::tick_of(top.at);
            let horizon_shift = SLOT_BITS * LEVELS as u32;
            while let Some(top) = self.overflow.peek() {
                if (Self::tick_of(top.at) >> horizon_shift) != (self.cursor >> horizon_shift) {
                    break;
                }
                let e = self.overflow.pop().expect("peeked entry present");
                self.refile(e, &mut batch);
            }
        }
        batch.sort_unstable_by_key(|e| (e.at, e.seq));
        self.ready = batch.into();
    }

    /// Re-file a cascaded event: due now (tick == cursor) goes to `batch`,
    /// anything later goes back into a finer slot.
    fn refile(&mut self, e: Entry<E>, batch: &mut Vec<Entry<E>>) {
        if Self::tick_of(e.at) <= self.cursor {
            batch.push(e);
        } else {
            self.file(e);
        }
    }

    /// Pop the earliest event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(Time, E)> {
        if self.ready.is_empty() {
            self.advance();
        }
        let e = self.ready.pop_front()?;
        // Hard (non-debug) monotonicity check; see the module docs.
        assert!(
            e.at >= self.now,
            "event queue clock went backwards: popped at={:?} now={:?}",
            e.at,
            self.now
        );
        self.now = e.at;
        self.len -= 1;
        Some((e.at, e.ev))
    }

    /// Pop the earliest event only if its timestamp is `<= limit`.
    ///
    /// Equivalent to `peek_time` + conditional `pop`, but does the slot
    /// search once. The simulator's main loop uses this to stop at the end
    /// of the run without disturbing still-pending events.
    pub fn pop_at_or_before(&mut self, limit: Time) -> Option<(Time, E)> {
        if self.ready.is_empty() {
            self.advance();
        }
        if self.ready.front()?.at > limit {
            return None;
        }
        self.pop()
    }

    /// Pop *every* event sharing the earliest timestamp `<= limit` into
    /// `out`, advancing the clock once. Returns that timestamp, or `None`
    /// if nothing is due by `limit` (then `out` is untouched).
    ///
    /// Batch completeness: `ready` is sorted by `(at, seq)` and anything
    /// still in the wheel slots or overflow heap has tick `> cursor >=`
    /// the front entry's tick — so the front equal-`at` run of `ready` is
    /// the *entire* set of pending events at that instant. Events a
    /// handler schedules at the same timestamp mid-batch get a higher
    /// insertion seq and land in the *next* batch, which still dispatches
    /// before any later-time event: the total dispatch order is
    /// bit-identical to calling [`pop`](Self::pop) in a loop. One slot
    /// search and one monotonicity check then cover the whole batch,
    /// which is what makes same-time dispatch cheaper than per-event
    /// popping.
    // simlint: hot-root
    pub fn pop_batch_at_or_before(&mut self, limit: Time, out: &mut Vec<E>) -> Option<Time> {
        if self.ready.is_empty() {
            self.advance();
        }
        let t = self.ready.front()?.at;
        if t > limit {
            return None;
        }
        // Hard (non-debug) monotonicity check; see the module docs.
        assert!(
            t >= self.now,
            "event queue clock went backwards: popped at={t:?} now={:?}",
            self.now
        );
        self.now = t;
        while let Some(e) = self.ready.front() {
            if e.at != t {
                break;
            }
            let e = self.ready.pop_front().expect("front entry present");
            self.len -= 1;
            out.push(e.ev);
        }
        Some(t)
    }

    /// Timestamp of the next event without popping it. Read-only: scans the
    /// occupancy bitmaps instead of draining slots.
    pub fn peek_time(&self) -> Option<Time> {
        if let Some(e) = self.ready.front() {
            return Some(e.at);
        }
        for level in 0..LEVELS {
            let level_shift = SLOT_BITS * level as u32;
            let idx = (self.cursor >> level_shift) & (SLOTS as u64 - 1);
            let mask = self.occ[level] & above(idx);
            if mask == 0 {
                continue;
            }
            let slot = mask.trailing_zeros() as usize;
            // The first occupied slot (finest level first) covers the
            // earliest tick range; the earliest event in it is the minimum.
            return self.slots[level * SLOTS + slot].iter().map(|e| e.at).min();
        }
        self.overflow.peek().map(|e| e.at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fires_in_time_order_across_levels() {
        let mut w = TimerWheel::new();
        // Spread across level 0 (sub-µs), level 2-3 (ms), and overflow (>19h).
        w.schedule_at(Time(100_000_000_000_000), "overflow");
        w.schedule_at(Time::from_millis(30), "c");
        w.schedule_at(Time(500), "a");
        w.schedule_at(Time::from_millis(10), "b");
        let order: Vec<_> = std::iter::from_fn(|| w.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c", "overflow"]);
    }

    #[test]
    fn ties_fire_in_insertion_order_through_slots() {
        let mut w = TimerWheel::new();
        let t = Time::from_millis(5);
        for i in 0..100 {
            w.schedule_at(t, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| w.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn same_tick_different_times_sort_exactly() {
        // Two events in the same 1.024 µs tick but at different nanosecond
        // times must still fire in time order, not insertion order.
        let mut w = TimerWheel::new();
        w.schedule_at(Time(2000 + 700), "late");
        w.schedule_at(Time(2000 + 100), "early");
        assert_eq!(w.pop().map(|(_, e)| e), Some("early"));
        assert_eq!(w.pop().map(|(_, e)| e), Some("late"));
    }

    #[test]
    fn schedule_at_current_instant_lands_in_ready() {
        let mut w = TimerWheel::new();
        w.schedule_at(Time::from_millis(1), "first");
        w.schedule_at(Time::from_millis(2), "later");
        let (t, e) = w.pop().expect("event");
        assert_eq!(e, "first");
        w.schedule_at(t, "child-of-first");
        assert_eq!(w.pop().map(|(_, e)| e), Some("child-of-first"));
        assert_eq!(w.pop().map(|(_, e)| e), Some("later"));
    }

    #[test]
    fn pop_at_or_before_respects_limit() {
        let mut w = TimerWheel::new();
        w.schedule_at(Time::from_millis(10), "in");
        w.schedule_at(Time::from_millis(20), "out");
        assert_eq!(
            w.pop_at_or_before(Time::from_millis(15)).map(|(_, e)| e),
            Some("in")
        );
        assert_eq!(w.pop_at_or_before(Time::from_millis(15)), None);
        assert_eq!(w.len(), 1);
        // The refused event is still intact and pops normally.
        assert_eq!(w.pop().map(|(_, e)| e), Some("out"));
    }

    #[test]
    fn schedule_before_drained_cursor_still_orders() {
        // pop_at_or_before can advance the cursor past a tick that later
        // gets a new event (at >= now is still satisfied). The new event
        // must fire before the already-drained later one.
        let mut w = TimerWheel::new();
        w.schedule_at(Time::from_millis(1), 1u32);
        assert_eq!(w.pop().map(|(_, e)| e), Some(1));
        w.schedule_at(Time::from_millis(50), 3u32);
        // Force the cursor up to the ms-50 tick without popping.
        assert_eq!(w.pop_at_or_before(Time::from_millis(2)), None);
        w.schedule_at(Time::from_millis(10), 2u32);
        assert_eq!(w.pop().map(|(_, e)| e), Some(2));
        assert_eq!(w.pop().map(|(_, e)| e), Some(3));
    }

    #[test]
    fn overflow_far_future_mixes_with_near() {
        let mut w = TimerWheel::new();
        let horizon_ns = 1u64 << (GRAN_BITS + SLOT_BITS * LEVELS as u32);
        w.schedule_at(Time(3 * horizon_ns + 17), 4u32);
        w.schedule_at(Time(horizon_ns + 5), 2u32);
        w.schedule_at(Time(horizon_ns + 5), 3u32); // tie in overflow
        w.schedule_at(Time(42), 1u32);
        let order: Vec<_> = std::iter::from_fn(|| w.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec![1, 2, 3, 4]);
        assert!(w.is_empty());
    }

    #[test]
    fn peek_matches_pop_everywhere() {
        let mut w = TimerWheel::new();
        let times = [
            Time(10),
            Time(2_000),
            Time::from_millis(3),
            Time::from_millis(200),
            Time(1u64 << 50),
        ];
        for (i, &t) in times.iter().enumerate() {
            w.schedule_at(t, i);
        }
        while !w.is_empty() {
            let peeked = w.peek_time();
            let (t, _) = w.pop().expect("non-empty");
            assert_eq!(peeked, Some(t));
        }
    }

    #[test]
    fn schedule_after_relative_and_clock() {
        let mut w = TimerWheel::new();
        w.schedule_at(Time::from_millis(10), 0);
        assert_eq!(w.now(), Time::ZERO);
        w.pop();
        assert_eq!(w.now(), Time::from_millis(10));
        let at = w.now().saturating_add(Dur::from_millis(5));
        w.schedule_at(at, 1);
        let (t, _) = w.pop().expect("event");
        assert_eq!(t, Time::from_millis(15));
    }

    #[test]
    fn batch_pop_drains_exactly_the_tied_run() {
        let mut w = TimerWheel::new();
        let t = Time::from_millis(5);
        for i in 0..4 {
            w.schedule_at(t, i);
        }
        w.schedule_at(Time::from_millis(7), 99);
        let mut out = Vec::new();
        assert_eq!(w.pop_batch_at_or_before(Time::from_millis(10), &mut out), Some(t));
        assert_eq!(out, vec![0, 1, 2, 3]);
        out.clear();
        // Limit refusal leaves the queue intact.
        assert_eq!(w.pop_batch_at_or_before(Time::from_millis(6), &mut out), None);
        assert!(out.is_empty());
        assert_eq!(
            w.pop_batch_at_or_before(Time::from_millis(10), &mut out),
            Some(Time::from_millis(7))
        );
        assert_eq!(out, vec![99]);
        assert!(w.is_empty());
    }

    #[test]
    fn batch_pop_same_time_reschedule_lands_in_next_batch() {
        // A handler scheduling at the batch's own timestamp must see its
        // event dispatched in the *next* batch at the same time — exactly
        // the order a single-pop loop would produce.
        let mut w = TimerWheel::new();
        let t = Time::from_millis(3);
        w.schedule_at(t, "a");
        w.schedule_at(Time::from_millis(9), "later");
        let mut out = Vec::new();
        assert_eq!(w.pop_batch_at_or_before(Time::from_millis(20), &mut out), Some(t));
        assert_eq!(out, vec!["a"]);
        out.clear();
        w.schedule_at(t, "child"); // mid-dispatch follow-up at the same instant
        assert_eq!(w.pop_batch_at_or_before(Time::from_millis(20), &mut out), Some(t));
        assert_eq!(out, vec!["child"]);
        out.clear();
        assert_eq!(
            w.pop_batch_at_or_before(Time::from_millis(20), &mut out),
            Some(Time::from_millis(9))
        );
        assert_eq!(out, vec!["later"]);
    }

    #[test]
    #[should_panic]
    fn scheduling_past_panics() {
        let mut w = TimerWheel::new();
        w.schedule_at(Time::from_millis(10), ());
        w.pop();
        w.schedule_at(Time::from_millis(5), ());
    }
}
