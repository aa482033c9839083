//! §6.3 — the figure-of-merit comparison: how large a rate range (`µ₊/µ₋`)
//! each rate–delay mapping supports while staying `s`-fair under jitter
//! `D`, with maximum tolerable delay `Rmax`.
//!
//! Paper's examples: with `D` = 10 ms, `Rmax` = 100 ms — `s` = 2 gives
//! ≈ 2¹⁰ ≈ 10³ for the exponential mapping and only `O(Rmax/D)` = O(10)
//! for the Vegas family; `s` = 4 gives ≈ 10⁶.

use crate::table::{fnum, TextTable};
use simcore::units::Dur;
use starvation::merit::{merit_table, MeritRow};
use std::fmt;

/// The comparison table.
pub struct MeritReport {
    /// One row per `(D, s)` case.
    pub rows: Vec<MeritRow>,
}

/// Build the table for the paper's parameter choices. The evaluation is
/// closed-form arithmetic, so `quick` changes nothing.
pub fn run(_quick: bool) -> MeritReport {
    let rmax = Dur::from_millis(100);
    let rm = Dur::from_millis(0); // the paper's example measures Rmax from Rm
    let cases = [
        (Dur::from_millis(10), 2.0),
        (Dur::from_millis(10), 4.0),
        (Dur::from_millis(5), 2.0),
        (Dur::from_millis(20), 2.0),
        (Dur::from_millis(10), 1.5),
    ];
    MeritReport {
        rows: merit_table(rmax, rm, &cases),
    }
}

/// Crossing stub: `benchmark/src/workloads/figures.rs` calls this; the
/// next `benchmark` change calls [`run`] and the product change after it
/// deletes this. `jobs` is ignored.
pub fn run_with(quick: bool, _jobs: usize) -> MeritReport {
    run(quick)
}

impl MeritReport {
    /// Render.
    pub fn table(&self) -> TextTable {
        let mut t = TextTable::new(&[
            "D (ms)",
            "s",
            "Vegas family (Eq. 1)",
            "exponential (Eq. 2)",
            "advantage",
        ]);
        for r in &self.rows {
            t.row(&[
                fnum(r.d.as_millis_f64()),
                fnum(r.s),
                fnum(r.vegas),
                fnum(r.exponential),
                fnum(r.exponential / r.vegas),
            ]);
        }
        t
    }
}

impl fmt::Display for MeritReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "§6.3 — figure of merit µ+/µ− (Rmax = 100 ms above Rm)"
        )?;
        write!(f, "{}", self.table().render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_cases_present_and_ordered() {
        let r = run(true);
        // D = 10 ms, s = 2 → 2⁹ = 512 (paper quotes "2¹⁰ ≈ 10³").
        let row = &r.rows[0];
        assert!((row.exponential - 512.0).abs() < 1e-6);
        // s = 4 case is ≈ 4⁹ ≈ 2.6e5 (paper: "≈ 10⁶" with their rounding).
        assert!(r.rows[1].exponential > 1e5);
        // Exponential always beats the Vegas family by a wide margin.
        for row in &r.rows {
            assert!(row.exponential > 5.0 * row.vegas);
        }
    }
}
