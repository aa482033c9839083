//! The per-layer table: every product layer timed from outside through
//! its public functions. One module per product crate (or group of
//! modules); each fills its slice of the metric map.
//!
//! Nothing here is gated. The numbers exist so that an end-to-end
//! movement can be traced to the layer that caused it, and so that a
//! prediction ("this change moves `pktstore.sack_range` and therefore
//! `canon-mix`") can be checked.

use crate::host::{self, Scratch};
use crate::stats::median;
use crate::workloads::Scale;
use std::collections::BTreeMap;

pub mod attribution;
pub mod cca_kernels;
pub mod netsim_kernels;
pub mod runs;
pub mod scenario_kernels;
pub mod simcore_kernels;
pub mod sweep_layers;
pub mod whole;

/// Metric name → value.
pub type Table = BTreeMap<String, f64>;

/// Batches per micro kernel. Each batch is a few milliseconds of work,
/// timed as one interval; the metric is the median batch.
pub const KERNEL_BATCHES: usize = 31;

/// Repeats of a whole simulation (tens to hundreds of milliseconds).
pub const RUN_REPEATS: usize = 9;

/// Median nanoseconds per operation over `batches` batches. `stage`
/// builds a batch's input outside the timed interval; `batch` does the
/// work and returns how many operations it performed. One untimed batch
/// runs first.
pub fn kernel_ns<S>(batches: usize, mut stage: impl FnMut() -> S, mut batch: impl FnMut(S) -> u64) -> f64 {
    std::hint::black_box(batch(stage()));
    let per_op: Vec<f64> = (0..batches)
        .map(|_| {
            let input = stage();
            let t0 = host::host_now();
            let ops = batch(input);
            let ns = host::nanos_since(t0);
            ns as f64 / ops.max(1) as f64
        })
        .collect();
    median(&per_op)
}

/// What the table needs from the run it is part of.
pub struct Context<'a> {
    /// `--seed`.
    pub seed: u64,
    /// Scratch space for stores.
    pub scratch: &'a Scratch,
    /// Smoke runs shrink the whole-run items.
    pub scale: Scale,
    /// Per-experiment milliseconds already measured by a traced
    /// `figures-quick` pass, if this run made one.
    pub figures_ms: Option<BTreeMap<&'static str, f64>>,
}

/// Fill the whole table.
pub fn measure_all(ctx: &Context<'_>) -> Table {
    let mut t = Table::new();
    simcore_kernels::measure(&mut t);
    netsim_kernels::measure(&mut t);
    cca_kernels::measure(&mut t);
    scenario_kernels::measure(&mut t);
    let classes = runs::measure(&mut t, ctx);
    attribution::measure(&mut t, &classes);
    sweep_layers::measure(&mut t, ctx);
    whole::measure(&mut t, ctx);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_timing_excludes_staging_and_divides_by_ops() {
        let mut staged = 0u32;
        let ns = kernel_ns(
            5,
            || {
                staged += 1;
                std::thread::sleep(std::time::Duration::from_millis(2));
                1000u64
            },
            |n| {
                let mut acc = 0u64;
                for i in 0..n {
                    acc = acc.wrapping_add(std::hint::black_box(i));
                }
                std::hint::black_box(acc);
                n
            },
        );
        assert_eq!(staged, 6, "one warm-up batch plus five timed ones");
        assert!(ns < 1000.0, "2 ms of staging leaked into a per-op time of {ns} ns");
    }
}
