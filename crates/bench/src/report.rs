//! `repro report` — the query layer over the content-addressed result
//! store.
//!
//! A sweep persists one [`RowSummary`] per completed grid point (see
//! `simcore::store` and `starvation::sweep`). This module scans a store,
//! decodes every row it holds, filters by grid coordinates
//! (CCA / jitter / rate / seed), and renders the selection as a text
//! table, CSV, or JSON-lines — in the spirit of s2n-quic-sim's
//! filter/query reporting. Output order is canonical (sorted by grid
//! coordinates, then label), so a report over a given store is
//! byte-identical no matter how the store was produced: fresh serial run,
//! parallel run, or a killed-and-resumed sweep. The CI smoke job relies
//! on exactly that property.
//!
//! Undecodable entries are *reported* (counted, listed on stderr by the
//! CLI), never silently included or trusted.
//!
//! [`RowSummary`]: starvation::sweep::RowSummary

use crate::table::{fnum, TextTable};
use simcore::json;
use simcore::store::Store;
use starvation::sweep::{RowSummary, SweepAggregate};
use std::path::Path;

/// Grid-coordinate filters; `None` selects everything on that axis.
#[derive(Clone, Debug, Default)]
pub struct Query {
    /// Keep rows whose CCA slug matches exactly.
    pub cca: Option<String>,
    /// Keep rows with this jitter bound (ms).
    pub jitter_ms: Option<f64>,
    /// Keep rows with this bottleneck rate (Mbit/s).
    pub rate_mbps: Option<f64>,
    /// Keep rows with this seed.
    pub seed: Option<u64>,
}

impl Query {
    /// Does `row` pass every set filter? Rows without grid coordinates
    /// (scenario-file sweeps) pass only an unfiltered query — they have
    /// no axes to match on.
    pub fn matches(&self, row: &RowSummary) -> bool {
        let Some(g) = &row.grid else {
            return self.cca.is_none()
                && self.jitter_ms.is_none()
                && self.rate_mbps.is_none()
                && self.seed.is_none();
        };
        self.cca.as_deref().is_none_or(|c| c == g.cca)
            && self.jitter_ms.is_none_or(|j| j == g.jitter_ms)
            && self.rate_mbps.is_none_or(|r| r == g.rate_mbps)
            && self.seed.is_none_or(|s| s == g.seed)
    }
}

/// A scanned store: the decodable rows (canonically ordered) plus the
/// entries that failed to decode.
pub struct Scan {
    /// Every valid row in the store, sorted by grid coordinates then
    /// label.
    pub rows: Vec<RowSummary>,
    /// Entries that exist but did not validate or parse: (digest hex,
    /// reason). Surfaced, never served.
    pub invalid: Vec<(String, String)>,
}

/// Read every row out of the store at `dir`. Fails only when the store
/// directory itself is unreadable; per-entry problems land in
/// [`Scan::invalid`].
pub fn scan(dir: &Path) -> Result<Scan, String> {
    let store = Store::open(dir).map_err(|e| format!("cannot open store {}: {e}", dir.display()))?;
    let digests = store
        .digests()
        .map_err(|e| format!("cannot scan store {}: {e}", dir.display()))?;
    let mut rows = Vec::new();
    let mut invalid = Vec::new();
    for d in digests {
        match store.read(&d) {
            Ok(bytes) => match RowSummary::from_store_bytes(&bytes) {
                Ok(row) => rows.push(row),
                Err(e) => invalid.push((d.hex(), e)),
            },
            Err(e) => invalid.push((d.hex(), e.to_string())),
        }
    }
    sort_rows(&mut rows);
    Ok(Scan { rows, invalid })
}

/// Canonical report order: grid coordinates (cca, rate, rtt, jitter,
/// seed), then label — total and deterministic, so report bytes depend
/// only on store *contents*.
fn sort_rows(rows: &mut [RowSummary]) {
    rows.sort_by(|a, b| {
        let key = |r: &RowSummary| {
            r.grid.as_ref().map(|g| {
                (
                    g.cca.clone(),
                    g.rate_mbps.to_bits(),
                    g.rtt_ms.to_bits(),
                    g.jitter_ms.to_bits(),
                    g.seed,
                )
            })
        };
        key(a).cmp(&key(b)).then_with(|| a.label.cmp(&b.label))
    });
}

/// Apply `q`, preserving canonical order.
pub fn filter(rows: Vec<RowSummary>, q: &Query) -> Vec<RowSummary> {
    rows.into_iter().filter(|r| q.matches(r)).collect()
}

/// CSV header used by [`to_csv`].
pub const CSV_HEADER: &str = "label,cca,rate_mbps,rtt_ms,jitter_ms,seed,utilization,jain,\
flow,throughput_mbps,second_half_mbps,delivered,sent,lost,drops,jitter_clamps,fct_s,starved_s";

/// One CSV line per flow, row-level columns repeated — the layout R /
/// pandas pivot naturally. Floats render shortest-round-trip, so the
/// bytes are a pure function of the rows.
pub fn to_csv(rows: &[RowSummary]) -> String {
    let mut out = String::from(CSV_HEADER);
    out.push('\n');
    for r in rows {
        let (cca, rate, rtt, jitter, seed) = match &r.grid {
            Some(g) => (
                g.cca.clone(),
                format!("{}", g.rate_mbps),
                format!("{}", g.rtt_ms),
                format!("{}", g.jitter_ms),
                format!("{}", g.seed),
            ),
            None => (String::new(), String::new(), String::new(), String::new(), String::new()),
        };
        for f in &r.flows {
            let fct = f.fct_secs.map(|v| format!("{v}")).unwrap_or_default();
            out.push_str(&format!(
                "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{fct},{}\n",
                r.label,
                cca,
                rate,
                rtt,
                jitter,
                seed,
                r.utilization,
                r.jain,
                f.id,
                f.throughput_mbps,
                f.second_half_mbps,
                f.delivered,
                f.sent,
                f.lost,
                f.drops,
                f.jitter_clamps,
                f.starved_secs,
            ));
        }
    }
    out
}

/// JSON-lines: one object per row, flows nested. Field order is fixed,
/// floats shortest-round-trip — byte-stable for a given store content.
pub fn to_json(rows: &[RowSummary]) -> String {
    let mut out = String::new();
    for r in rows {
        out.push_str(&format!("{{\"label\":\"{}\"", json::escape(&r.label)));
        if let Some(g) = &r.grid {
            out.push_str(&format!(
                ",\"cca\":\"{}\",\"rate_mbps\":{},\"rtt_ms\":{},\"jitter_ms\":{},\"seed\":{}",
                json::escape(&g.cca),
                g.rate_mbps,
                g.rtt_ms,
                g.jitter_ms,
                g.seed
            ));
        }
        out.push_str(&format!(",\"utilization\":{},\"jain\":{},\"flows\":[", r.utilization, r.jain));
        for (i, f) in r.flows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let fct = f.fct_secs.map(|v| format!("{v}")).unwrap_or_else(|| "null".into());
            out.push_str(&format!(
                "{{\"id\":{},\"throughput_mbps\":{},\"second_half_mbps\":{},\"delivered\":{},\
                 \"sent\":{},\"lost\":{},\"drops\":{},\"jitter_clamps\":{},\"fct_s\":{fct},\
                 \"starved_s\":{}}}",
                f.id,
                f.throughput_mbps,
                f.second_half_mbps,
                f.delivered,
                f.sent,
                f.lost,
                f.drops,
                f.jitter_clamps,
                f.starved_secs,
            ));
        }
        out.push_str("]}\n");
    }
    out
}

/// Human-readable table over the selection.
pub fn to_table(rows: &[RowSummary]) -> TextTable {
    let mut t = TextTable::new(&[
        "label",
        "cca",
        "rate (Mbit/s)",
        "jitter (ms)",
        "seed",
        "util",
        "jain",
        "flow tput (Mbit/s)",
    ]);
    for r in rows {
        let (cca, rate, jitter, seed) = match &r.grid {
            Some(g) => (
                g.cca.clone(),
                fnum(g.rate_mbps),
                fnum(g.jitter_ms),
                g.seed.to_string(),
            ),
            None => ("-".into(), "-".into(), "-".into(), "-".into()),
        };
        let tputs: Vec<String> = r.flows.iter().map(|f| fnum(f.throughput_mbps)).collect();
        t.row(&[
            r.label.clone(),
            cca,
            rate,
            jitter,
            seed,
            fnum(r.utilization),
            fnum(r.jain),
            tputs.join(" / "),
        ]);
    }
    t
}

/// Fold the selection into the streaming population aggregate
/// (throughput / starvation / Jain histograms).
pub fn aggregate(rows: &[RowSummary]) -> SweepAggregate {
    let mut agg = SweepAggregate::default();
    for r in rows {
        agg.fold(r);
    }
    agg
}

#[cfg(test)]
mod tests {
    use super::*;
    use starvation::sweep::{StoreOptions, Sweep};
    use std::path::PathBuf;

    fn tmp_store(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("repro_report_{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn populated_store(name: &str) -> PathBuf {
        let dir = tmp_store(name);
        let s = crate::exp_sweep::spec(true);
        let inc = Sweep::new(&s.name)
            .jobs(2)
            .run_incremental(s.expand(), &StoreOptions::new(&dir));
        assert!(!inc.aborted);
        dir
    }

    #[test]
    fn scan_filters_and_renders_deterministically() {
        let dir = populated_store("filters");
        let scan = scan(&dir).expect("store scans");
        assert_eq!(scan.rows.len(), 8);
        assert!(scan.invalid.is_empty());

        let copa = filter(scan.rows.clone(), &Query { cca: Some("copa".into()), ..Query::default() });
        assert_eq!(copa.len(), 4);
        assert!(copa.iter().all(|r| r.grid.as_ref().unwrap().cca == "copa"));

        let jittered = filter(scan.rows.clone(), &Query { jitter_ms: Some(10.0), ..Query::default() });
        assert_eq!(jittered.len(), 4);

        let both = filter(
            scan.rows.clone(),
            &Query { cca: Some("bbr".into()), rate_mbps: Some(40.0), ..Query::default() },
        );
        assert_eq!(both.len(), 2);

        // Scanning again yields byte-identical CSV and JSON.
        let rescan = super::scan(&dir).expect("rescan");
        assert_eq!(to_csv(&scan.rows), to_csv(&rescan.rows));
        assert_eq!(to_json(&scan.rows), to_json(&rescan.rows));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn csv_has_one_line_per_flow_plus_header() {
        let dir = populated_store("csv");
        let scan = scan(&dir).expect("store scans");
        let csv = to_csv(&scan.rows);
        // 8 rows × 2 flows + header.
        assert_eq!(csv.lines().count(), 17, "{csv}");
        assert!(csv.starts_with(CSV_HEADER));
        let json = to_json(&scan.rows);
        assert_eq!(json.lines().count(), 8);
        assert!(json.lines().all(|l| l.starts_with("{\"label\":\"") && l.ends_with("]}")));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn json_escapes_control_characters_in_labels() {
        // A `.scn` name may hold a tab or CR; the JSON line must stay valid.
        let row = RowSummary {
            label: "a\tb\rc".into(),
            grid: None,
            utilization: 1.0,
            end_secs: 1.0,
            jain: 1.0,
            flows: Vec::new(),
        };
        let json = to_json(&[row]);
        assert!(json.starts_with("{\"label\":\"a\\tb\\rc\","), "{json:?}");
        assert!(!json.trim_end_matches('\n').bytes().any(|b| b < 0x20), "{json:?}");
    }

    #[test]
    fn aggregate_over_selection_counts_flows() {
        let dir = populated_store("agg");
        let scan = scan(&dir).expect("store scans");
        let agg = aggregate(&scan.rows);
        assert_eq!(agg.rows, 8);
        assert_eq!(agg.flows, 16, "two flows per grid point");
        assert_eq!(agg.throughput_mbps.total(), 16);
        assert!(agg.min_jain <= 1.0 && agg.min_jain > 0.0);
        let rendered = agg.render();
        assert!(rendered.contains("rows 8"), "{rendered}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
