//! `simcore`: the event queue (`wheel.*`) and the worker pool's dispatch
//! cost (`par.dispatch.*`). The store is measured with the sweep, where
//! its calls sit (`sweep_layers`).

use super::{kernel_ns, Table, KERNEL_BATCHES};
use simcore::engine::EventQueue;
use simcore::par;
use simcore::rng::Xoshiro256;
use simcore::units::Time;
use std::hint::black_box;

const EVENTS: u64 = 10_000;

fn drain(mut q: EventQueue<u64>) -> u64 {
    let mut acc = 0u64;
    while let Some((_, v)) = q.pop() {
        acc = acc.wrapping_add(v);
    }
    acc
}

/// Interleaved schedule/pop in 100-event bursts spread over ~2 ms past
/// the clock — the simulator's own access pattern (the queue stays small
/// and time advances continuously). Same shape as perfbench's
/// `queue/interleaved_10k`.
fn interleaved() -> u64 {
    let mut rng = Xoshiro256::new(0xFACE);
    let mut q = EventQueue::new();
    let mut acc = 0u64;
    for burst in 0..100u64 {
        for i in 0..100u64 {
            let at = q.now().as_nanos() + rng.next_u64() % 2_000_000;
            q.schedule_at(Time(at), burst * 100 + i);
        }
        for _ in 0..100 {
            if let Some((_, v)) = q.pop() {
                acc = acc.wrapping_add(v);
            }
        }
    }
    black_box(acc);
    2 * EVENTS
}

/// 10 000 same-instant events: pure FIFO tie ordering.
fn ties() -> u64 {
    let mut q = EventQueue::new();
    let t = Time::from_millis(1);
    for i in 0..EVENTS {
        q.schedule_at(t, i);
    }
    black_box(drain(q));
    2 * EVENTS
}

/// Near-horizon traffic with 1-in-16 far-future outliers (RTO-style
/// timers seconds out): the overflow path of the wheel.
fn far_future() -> u64 {
    let mut rng = Xoshiro256::new(0xD00D);
    let mut q = EventQueue::new();
    for i in 0..EVENTS {
        let at = if i % 16 == 0 {
            Time(1_000_000_000 + rng.next_u64() % 600_000_000_000)
        } else {
            Time(rng.next_u64() % 50_000_000)
        };
        q.schedule_at(at, i);
    }
    black_box(drain(q));
    2 * EVENTS
}

/// 100 instants × 100 events each, scheduled outside the timed interval.
fn staged_batches() -> EventQueue<u64> {
    let mut q = EventQueue::new();
    for instant in 0..100u64 {
        for i in 0..100u64 {
            q.schedule_at(Time::from_micros(100 + instant * 50), instant * 100 + i);
        }
    }
    q
}

/// The main loop's pop: every event of the earliest instant at once.
fn pop_batches(mut q: EventQueue<u64>) -> u64 {
    let mut out = Vec::with_capacity(128);
    let mut popped = 0u64;
    while q.pop_batch_at_or_before(Time::MAX, &mut out).is_some() {
        popped += out.len() as u64;
        black_box(&out);
        out.clear();
    }
    popped
}

/// Trivial jobs through the pool: what the queue, the slot mutexes and
/// (at jobs 2) thread start-up and the shared counter cost per job.
fn dispatch(jobs: usize) -> u64 {
    let n = 20_000usize;
    let reports = par::map_indexed(n, jobs, |i| black_box(i as u64).wrapping_mul(3), None);
    black_box(reports.len());
    n as u64
}

/// Fill `wheel.*` and `par.dispatch.*`.
pub fn measure(t: &mut Table) {
    t.insert("wheel.interleaved.ns_per_op".into(), kernel_ns(KERNEL_BATCHES, || (), |()| interleaved()));
    t.insert("wheel.ties.ns_per_op".into(), kernel_ns(KERNEL_BATCHES, || (), |()| ties()));
    t.insert("wheel.far_future.ns_per_op".into(), kernel_ns(KERNEL_BATCHES, || (), |()| far_future()));
    t.insert("wheel.pop_batch.ns_per_ev".into(), kernel_ns(KERNEL_BATCHES, staged_batches, pop_batches));
    for jobs in [1usize, 2] {
        let ns = kernel_ns(KERNEL_BATCHES, || (), |()| dispatch(jobs));
        t.insert(format!("par.dispatch.us_per_job_j{jobs}"), ns / 1e3);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernels_do_the_operation_counts_they_report() {
        assert_eq!(interleaved(), 20_000);
        assert_eq!(ties(), 20_000);
        assert_eq!(far_future(), 20_000);
        assert_eq!(pop_batches(staged_batches()), 10_000);
        assert_eq!(dispatch(2), 20_000);
    }
}
