//! Deterministic discrete-event queue.
//!
//! The simulator's only source of ordering is this queue: events fire in
//! `(time, insertion sequence)` order, so two events scheduled for the same
//! instant fire in the order they were scheduled. That rule, plus integer
//! time and the self-contained PRNG, makes every run bit-reproducible.
//!
//! The queue is generic over the event payload; the network simulator in
//! `netsim` instantiates it with its own event enum. There is no trait-object
//! dispatch or async machinery — the main loop is a plain `while let`.
//!
//! The queue *is* the hierarchical timer wheel
//! ([`crate::wheel::TimerWheel`]): near-horizon schedule/pop are `O(1)`
//! bitmap operations instead of `O(log n)` heap sifts, with the exact same
//! `(time, seq)` firing order the original binary heap produced —
//! golden-trace digests are bit-identical across the swap.

/// A deterministic future-event list: the simulator's name for
/// [`TimerWheel`](crate::wheel::TimerWheel).
pub type EventQueue<E> = crate::wheel::TimerWheel<E>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::{Dur, Time};

    // Ordering, ties, same-instant follow-ups and the scheduling-into-the-
    // past panic are tested on the wheel itself; these are the cases its
    // own tests do not spell out.

    #[test]
    fn clock_advances_on_pop() {
        let mut q = EventQueue::new();
        q.schedule_at(Time::from_millis(7), ());
        assert_eq!(q.now(), Time::ZERO);
        q.pop();
        assert_eq!(q.now(), Time::from_millis(7));
    }

    #[test]
    fn schedule_after_is_relative() {
        let mut q = EventQueue::new();
        q.schedule_at(Time::from_millis(10), 0);
        q.pop();
        q.schedule_after(Dur::from_millis(5), 1);
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, Time::from_millis(15));
    }

    #[test]
    fn peek_and_len() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.schedule_at(Time::from_millis(3), ());
        q.schedule_at(Time::from_millis(1), ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(Time::from_millis(1)));
    }
}
