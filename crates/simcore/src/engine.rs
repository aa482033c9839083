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

/// Crossing stub: the simulator names [`TimerWheel`](crate::wheel::TimerWheel)
/// directly; kept only because the separate `benchmark/` workspace still uses it.
pub type EventQueue<E> = crate::wheel::TimerWheel<E>;
