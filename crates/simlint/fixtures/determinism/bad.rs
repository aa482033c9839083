//! Deliberate SL001 violations: every class of nondeterminism the rule
//! catches. Line numbers are asserted by the fixture tests.
use std::collections::HashMap;
use std::time::Instant;

fn wall_time() -> Duration {
    let t0 = Instant::now();
    t0.elapsed()
}

fn unseeded() -> u64 {
    let mut rng = thread_rng();
    rng.next()
}

fn hash_order(m: &HashMap<u32, u32>) -> u32 {
    m.values().sum()
}
