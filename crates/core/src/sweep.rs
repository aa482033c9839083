//! The parallel sweep engine: scenario grids → ordered row summaries.
//!
//! Every §5 reproduction and ablation is a sweep of independent
//! deterministic simulations (seeds × parameters × scenarios). This module
//! turns such a sweep into data for [`simcore::par`]'s worker pool:
//!
//! * [`SweepJob`] — one labelled [`SimConfig`]. Configs are `Clone`, so a
//!   job list can be expanded once and run at any worker count (the
//!   determinism suite runs the *same* list at `jobs = 1` and `jobs = 4`
//!   and asserts bit-identical results).
//! * [`Sweep`] — the runner: executes a job list across `jobs` workers,
//!   reduces each `SimResult` to a [`RowSummary`] inside its worker,
//!   preserves job order in the output, and isolates per-job panics (a
//!   diverging scenario reports instead of poisoning the sweep). One
//!   engine serves both calls: [`Sweep::run`] attaches no store,
//!   [`Sweep::run_incremental`] reads and writes a content-addressed one.
//! * [`ScenarioSpec`] — a declarative grid (CCA constructor × rate × RTT ×
//!   jitter × seed) that expands into the two-flow asymmetric-jitter
//!   topology used throughout the paper's §5/§6 experiments: flow 0 sees
//!   the impairment, flow 1 is clean, and their throughput ratio is the
//!   starvation measurement.
//!
//! A sweep reads no environment: everything it does is set through its
//! builders. [`Sweep::with_log`] attaches a progress callback (one line per
//! completed job; reporting order may vary across runs, result order never
//! does), and [`Sweep::audit`] runs every row under the invariant auditor.

use cca::BoxCca;
use netsim::{FlowConfig, Jitter, LinkConfig, Network, SimConfig, SimResult};
use simcore::par::{self, Progress};
use simcore::rng::Xoshiro256;
use simcore::stats::Histogram;
use simcore::store::{Checkpointer, Digest, Manifest, ReadError, Store, CODE_TAG};
use simcore::units::{Dur, Rate, Time};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

/// The content key of a cacheable job: canonical config bytes plus the
/// scenario seed. [`SweepJob::digest`] folds both with [`CODE_TAG`] into
/// the job's store digest, so a digest changes iff the configuration, the
/// seed, or the simulator version changes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobKey {
    /// Canonical, human-readable description of the full configuration —
    /// a `.scn` file's canonical print, or a grid point's canonical line.
    pub canonical: String,
    /// The scenario seed (0 when the canonical bytes embed all seeds, as
    /// `.scn` files do).
    pub seed: u64,
}

/// One labelled scenario in a sweep.
#[derive(Clone)]
pub struct SweepJob {
    /// Row label (lands in reports and progress messages).
    pub label: String,
    /// The scenario to run.
    pub config: SimConfig,
    /// Content key for the result store. `None` means the job was built
    /// from an opaque `SimConfig` ([`SweepJob::new`]) and cannot be
    /// cached: an incremental sweep always re-executes it.
    pub key: Option<JobKey>,
    /// Grid coordinates, when the job came from a [`ScenarioSpec`] —
    /// persisted with the row so the report layer can filter by
    /// CCA/rate/jitter without re-deriving them.
    pub meta: Option<GridMeta>,
}

/// A row label, checked: the store's row format is line-based, so a label
/// must be one line.
fn single_line(label: impl Into<String>) -> String {
    let label = label.into();
    assert!(!label.contains('\n'), "sweep job label {label:?} must be a single line");
    label
}

impl SweepJob {
    /// Label a config. The job carries no content key, so incremental
    /// sweeps treat it as uncacheable; prefer [`SweepJob::keyed`] or
    /// [`SweepJob::from_scenario`] where a canonical form exists.
    ///
    /// Panics if `label` contains a newline.
    pub fn new(label: impl Into<String>, config: SimConfig) -> SweepJob {
        SweepJob {
            label: single_line(label),
            config,
            key: None,
            meta: None,
        }
    }

    /// Label a config together with its canonical content key.
    ///
    /// Panics if `label` contains a newline.
    pub fn keyed(
        label: impl Into<String>,
        canonical: impl Into<String>,
        seed: u64,
        config: SimConfig,
    ) -> SweepJob {
        SweepJob {
            label: single_line(label),
            config,
            key: Some(JobKey { canonical: canonical.into(), seed }),
            meta: None,
        }
    }

    /// Builder: attach grid coordinates.
    pub fn with_meta(mut self, meta: GridMeta) -> SweepJob {
        self.meta = Some(meta);
        self
    }

    /// The job's store digest: FNV over (canonical bytes, seed,
    /// [`CODE_TAG`]). `None` for unkeyed jobs. A pure function of the
    /// key — stable across [`Clone`], worker counts and process restarts.
    pub fn digest(&self) -> Option<Digest> {
        self.key
            .as_ref()
            .map(|k| Digest::job(k.canonical.as_bytes(), k.seed, CODE_TAG))
    }

    /// Lower a parsed scenario-DSL file into a sweep job, labelled with
    /// the scenario's declared name. Lets `.scn` files ride in the same
    /// sweep as grid-expanded jobs:
    ///
    /// ```
    /// use starvation::sweep::SweepJob;
    /// let s = scenario::parse(
    ///     r#"scenario "dsl-row" {
    ///          link { rate 8mbps buffer ample }
    ///          duration 400ms
    ///          flow f0 { cca reno rtt 20ms }
    ///        }"#,
    /// ).unwrap();
    /// let job = SweepJob::from_scenario(&s);
    /// assert_eq!(job.label, "dsl-row");
    /// ```
    pub fn from_scenario(s: &scenario::Scenario) -> SweepJob {
        // The canonical printer is the digest input: `parse ∘ print ≡ id`,
        // so two sources describing the same scenario share one canonical
        // form, one digest, and one store entry. Per-flow seeds live in
        // the printed text, so the separate seed lane stays 0.
        SweepJob::keyed(s.name.clone(), s.to_string(), 0, scenario::compile(s))
    }
}

/// Shared log-callback type for sweep progress messages.
pub type SweepLog = Arc<dyn Fn(&str) + Send + Sync>;

/// The sweep runner. Construct with [`Sweep::new`], configure with the
/// builder methods, execute with [`Sweep::run`] or
/// [`Sweep::run_incremental`].
pub struct Sweep {
    name: String,
    jobs: usize,
    log: Option<SweepLog>,
    audit: bool,
}

impl Sweep {
    /// A sweep named `name` using every available core, with no progress
    /// log and no auditor.
    pub fn new(name: impl Into<String>) -> Sweep {
        Sweep {
            name: name.into(),
            jobs: par::available_jobs(),
            log: None,
            audit: false,
        }
    }

    /// Builder: worker count (0 means "available parallelism").
    pub fn jobs(mut self, jobs: usize) -> Sweep {
        self.jobs = if jobs == 0 { par::available_jobs() } else { jobs };
        self
    }

    /// No-op: sweeps write no timing records any more. Kept only because
    /// `benchmark/` (frozen for this change) still calls it; the next
    /// `benchmark` PR removes the calls and this method.
    pub fn timing_off(self) -> Sweep {
        self
    }

    /// Builder: attach a progress log callback.
    pub fn with_log(mut self, log: SweepLog) -> Sweep {
        self.log = Some(log);
        self
    }

    /// Builder: run every row under the runtime invariant auditor
    /// ([`simcore::trace::Auditor`]). An invariant violation panics inside
    /// the job, so it surfaces as that row's `Err` outcome without
    /// poisoning the rest of the sweep.
    pub fn audit(mut self, on: bool) -> Sweep {
        self.audit = on;
        self
    }
}

/// Throughput floor defining "starved" in persisted row summaries (§4.2's
/// starvation made operational: a flow below 1 Mbit/s in a window is
/// starving there). Fixed so every store entry measures the same thing.
pub const STARVE_FLOOR_MBPS: f64 = 1.0;

/// Window size for the per-flow starvation-duration measurement persisted
/// in row summaries.
pub const STARVE_WINDOW: Dur = Dur(1_000_000_000);

/// Grid coordinates persisted with a row: the report layer's filter axes.
#[derive(Clone, Debug, PartialEq)]
pub struct GridMeta {
    /// CCA slug (whitespace-free).
    pub cca: String,
    /// Bottleneck rate, Mbit/s.
    pub rate_mbps: f64,
    /// Propagation RTT, ms.
    pub rtt_ms: f64,
    /// Jitter bound on flow 0, ms.
    pub jitter_ms: f64,
    /// Scenario seed.
    pub seed: u64,
}

/// Compact per-flow summary persisted in the store — everything the
/// report and aggregation layers need, a few hundred bytes instead of a
/// `SimResult`'s time series.
#[derive(Clone, Debug, PartialEq)]
pub struct FlowSummary {
    /// Flow id (dense index).
    pub id: usize,
    /// Whole-run throughput (paper definition, departure-aware), Mbit/s.
    pub throughput_mbps: f64,
    /// Second-half throughput, Mbit/s (the steady-state number §5 quotes).
    pub second_half_mbps: f64,
    /// Total delivered bytes.
    pub delivered: u64,
    /// Total sent bytes (incl. retransmissions).
    pub sent: u64,
    /// Bytes declared lost.
    pub lost: u64,
    /// Bottleneck tail drops of this flow's packets.
    pub drops: u64,
    /// Jitter clamp violations on this flow's path.
    pub jitter_clamps: u64,
    /// Flow completion time, seconds (`None` = bulk or still active).
    pub fct_secs: Option<f64>,
    /// Time spent starved (below [`STARVE_FLOOR_MBPS`] per
    /// [`STARVE_WINDOW`]), seconds.
    pub starved_secs: f64,
}

/// One sweep row as persisted in the content-addressed store: label, grid
/// coordinates, run aggregates, and per-flow summaries. The canonical
/// serialization ([`RowSummary::to_store_bytes`]) is deterministic — a
/// pure function of the fields — so two runs of the same job write
/// byte-identical entries.
#[derive(Clone, Debug, PartialEq)]
pub struct RowSummary {
    /// The job's label.
    pub label: String,
    /// Grid coordinates, when the row came from a [`ScenarioSpec`].
    pub grid: Option<GridMeta>,
    /// Link utilization over the run.
    pub utilization: f64,
    /// Simulated end time, seconds.
    pub end_secs: f64,
    /// Jain fairness index over flow throughputs.
    pub jain: f64,
    /// Per-flow summaries in dense id order.
    pub flows: Vec<FlowSummary>,
}

impl RowSummary {
    /// Summarize a finished run. This is the streaming-aggregation pivot:
    /// the worker calls it the moment a simulation finishes, persists the
    /// summary, and drops the `SimResult` — a million-row sweep never
    /// holds more `SimResult`s than it has workers.
    pub fn of(label: &str, grid: Option<GridMeta>, r: &SimResult) -> RowSummary {
        let half = Time(r.end.as_nanos() / 2);
        let flows = r
            .flows
            .iter()
            .map(|f| FlowSummary {
                id: f.id.index(),
                throughput_mbps: f.throughput_at(r.end).mbps(),
                second_half_mbps: f.throughput_over(half, r.end).mbps(),
                delivered: f.total_delivered(),
                sent: f.sent_bytes,
                lost: f.lost_bytes,
                drops: f.drops,
                jitter_clamps: f.jitter_clamps,
                fct_secs: f.fct().map(|d| d.as_secs_f64()),
                starved_secs: f
                    .starvation_duration(Rate::from_mbps(STARVE_FLOOR_MBPS), STARVE_WINDOW, r.end)
                    .as_secs_f64(),
            })
            .collect();
        RowSummary {
            label: label.to_string(),
            grid,
            utilization: r.utilization,
            end_secs: r.end.as_nanos() as f64 / 1e9,
            jain: r.jain(),
            flows,
        }
    }

    /// Canonical store serialization: a fixed line format with
    /// shortest-round-trip float rendering, so equal summaries produce
    /// equal bytes and `from_store_bytes ∘ to_store_bytes ≡ id`.
    pub fn to_store_bytes(&self) -> Vec<u8> {
        let mut out = format!("rowv1 {}\n", self.label);
        if let Some(g) = &self.grid {
            out.push_str(&format!(
                "grid {} {} {} {} {}\n",
                g.cca, g.rate_mbps, g.rtt_ms, g.jitter_ms, g.seed
            ));
        }
        out.push_str(&format!("run {} {} {}\n", self.utilization, self.end_secs, self.jain));
        for f in &self.flows {
            let fct = match f.fct_secs {
                Some(v) => format!("{v}"),
                None => "-".to_string(),
            };
            out.push_str(&format!(
                "flow {} {} {} {} {} {} {} {} {fct} {}\n",
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
        out.into_bytes()
    }

    /// Parse [`RowSummary::to_store_bytes`] output. Errors name the bad
    /// line — an undecodable entry is reported and recomputed, never
    /// trusted.
    pub fn from_store_bytes(bytes: &[u8]) -> Result<RowSummary, String> {
        let text = std::str::from_utf8(bytes).map_err(|_| "row entry is not UTF-8".to_string())?;
        let mut lines = text.lines();
        let head = lines.next().ok_or("empty row entry")?;
        let label = head
            .strip_prefix("rowv1 ")
            .ok_or_else(|| format!("bad row magic in {head:?}"))?
            .to_string();
        let mut grid = None;
        let mut run: Option<(f64, f64, f64)> = None;
        let mut flows = Vec::new();
        let f64_field = |s: &str| s.parse::<f64>().map_err(|_| format!("bad float {s:?}"));
        let u64_field = |s: &str| s.parse::<u64>().map_err(|_| format!("bad integer {s:?}"));
        for line in lines {
            let mut parts = line.split(' ');
            match parts.next() {
                Some("grid") => {
                    let fields: Vec<&str> = parts.collect();
                    let [cca, rate, rtt, jitter, seed] = fields[..] else {
                        return Err(format!("bad grid line {line:?}"));
                    };
                    grid = Some(GridMeta {
                        cca: cca.to_string(),
                        rate_mbps: f64_field(rate)?,
                        rtt_ms: f64_field(rtt)?,
                        jitter_ms: f64_field(jitter)?,
                        seed: u64_field(seed)?,
                    });
                }
                Some("run") => {
                    let fields: Vec<&str> = parts.collect();
                    let [util, end, jain] = fields[..] else {
                        return Err(format!("bad run line {line:?}"));
                    };
                    run = Some((f64_field(util)?, f64_field(end)?, f64_field(jain)?));
                }
                Some("flow") => {
                    let fields: Vec<&str> = parts.collect();
                    let [id, tp, half, delivered, sent, lost, drops, clamps, fct, starved] =
                        fields[..]
                    else {
                        return Err(format!("bad flow line {line:?}"));
                    };
                    flows.push(FlowSummary {
                        id: u64_field(id)? as usize,
                        throughput_mbps: f64_field(tp)?,
                        second_half_mbps: f64_field(half)?,
                        delivered: u64_field(delivered)?,
                        sent: u64_field(sent)?,
                        lost: u64_field(lost)?,
                        drops: u64_field(drops)?,
                        jitter_clamps: u64_field(clamps)?,
                        fct_secs: if fct == "-" { None } else { Some(f64_field(fct)?) },
                        starved_secs: f64_field(starved)?,
                    });
                }
                Some(other) => return Err(format!("unknown row line kind {other:?}")),
                None => continue,
            }
        }
        let (utilization, end_secs, jain) = run.ok_or("row entry has no run line")?;
        Ok(RowSummary { label, grid, utilization, end_secs, jain, flows })
    }
}

/// Streaming sweep aggregate: rows fold in one at a time (counters and
/// fixed-bucket histograms, no per-row allocation), so aggregating a
/// million rows costs a few kilobytes of state. `repro report` folds its
/// sorted selection through it.
#[derive(Clone, Debug)]
pub struct SweepAggregate {
    /// Rows folded in.
    pub rows: usize,
    /// Flows across all rows.
    pub flows: usize,
    /// Flows that completed a finite transfer.
    pub completed_flows: usize,
    /// Flows with nonzero starvation time.
    pub starved_flows: usize,
    /// Per-flow whole-run throughput distribution, Mbit/s.
    pub throughput_mbps: Histogram,
    /// Per-flow starvation-duration distribution (starved flows only),
    /// seconds.
    pub starvation_secs: Histogram,
    /// Per-row Jain index distribution.
    pub jain: Histogram,
    /// Smallest per-row Jain index seen (the worst cell of the grid).
    pub min_jain: f64,
}

impl Default for SweepAggregate {
    fn default() -> SweepAggregate {
        SweepAggregate {
            rows: 0,
            flows: 0,
            completed_flows: 0,
            starved_flows: 0,
            throughput_mbps: Histogram::new(0.01, 10_000.0),
            starvation_secs: Histogram::new(0.001, 100_000.0),
            jain: Histogram::new(0.01, 1.01),
            min_jain: f64::INFINITY,
        }
    }
}

impl SweepAggregate {
    /// Fold one row in (per-row hot path: counters and histogram buckets
    /// only).
    // simlint: hot-root: runs once per row over million-row sweeps
    pub fn fold(&mut self, row: &RowSummary) {
        self.rows += 1;
        for f in &row.flows {
            self.flows += 1;
            self.throughput_mbps.fold(f.throughput_mbps);
            if f.fct_secs.is_some() {
                self.completed_flows += 1;
            }
            if f.starved_secs > 0.0 {
                self.starved_flows += 1;
                self.starvation_secs.fold(f.starved_secs);
            }
        }
        self.jain.fold(row.jain);
        if row.jain < self.min_jain {
            self.min_jain = row.jain;
        }
    }

    /// Fraction of flows that starved at all.
    pub fn starved_fraction(&self) -> f64 {
        if self.flows == 0 {
            0.0
        } else {
            self.starved_flows as f64 / self.flows as f64
        }
    }

    /// Multi-line terminal render.
    pub fn render(&self) -> String {
        format!(
            "rows {}, flows {} ({} completed, {} starved = {:.1}%)\n\
             throughput: {}\n\
             starvation: {}\n\
             jain:       {} (min {:.4})",
            self.rows,
            self.flows,
            self.completed_flows,
            self.starved_flows,
            self.starved_fraction() * 100.0,
            self.throughput_mbps.render(" Mbit/s"),
            self.starvation_secs.render(" s"),
            self.jain.render(""),
            if self.min_jain.is_finite() { self.min_jain } else { 1.0 },
        )
    }
}

/// Manifest checkpoint cadence in wall time: a long-running sweep
/// snapshots its manifest at least this often, whatever its row cadence.
const CHECKPOINT_WALL: Duration = Duration::from_secs(5);

/// Options for an incremental ([`Sweep::run_incremental`]) sweep.
#[derive(Clone, Debug)]
pub struct StoreOptions {
    /// Store root directory.
    pub dir: PathBuf,
    /// Ignore existing entries: recompute every row and overwrite. The
    /// store stays valid (writes are atomic) — this forces fresh results
    /// without invalidating other sweeps sharing the store.
    pub fresh: bool,
    /// Manifest checkpoint cadence in completed rows (0 = wall-time
    /// cadence only, which is every 5 s).
    pub checkpoint_rows: usize,
    /// Crash-injection hook for the fault-injection suite and the CI
    /// smoke: stop dispatching once this many rows have been handed to
    /// the store writers this run, skip all remaining jobs, let the
    /// writers persist what they were handed, and return with `aborted`
    /// set — *without* any further manifest, exactly as a kill between a
    /// row's rename and the next checkpoint would. Production sweeps
    /// leave it `None`.
    pub kill_after: Option<usize>,
}

impl StoreOptions {
    /// Defaults: resume mode, checkpoint every 64 rows or 5 s.
    pub fn new(dir: impl Into<PathBuf>) -> StoreOptions {
        StoreOptions {
            dir: dir.into(),
            fresh: false,
            checkpoint_rows: 64,
            kill_after: None,
        }
    }

    /// Builder: force recomputation of every row.
    pub fn fresh(mut self, on: bool) -> StoreOptions {
        self.fresh = on;
        self
    }

    /// Builder: checkpoint row cadence.
    pub fn checkpoint_rows(mut self, rows: usize) -> StoreOptions {
        self.checkpoint_rows = rows;
        self
    }

    /// Builder: the crash-injection hook.
    pub fn kill_after(mut self, rows: Option<usize>) -> StoreOptions {
        self.kill_after = rows;
        self
    }
}

/// One sweep row: the job's label and its summary (or captured panic), at
/// the same index the job occupied in the input list.
pub struct SweepRow {
    /// Position in the job list.
    pub index: usize,
    /// The job's label.
    pub label: String,
    /// Row summary (from the store or a fresh run), or the panic message
    /// of a diverging scenario.
    pub outcome: Result<RowSummary, String>,
}

impl SweepRow {
    /// The summary, or a panic repeating the scenario's own panic message.
    pub fn result(&self) -> &RowSummary {
        match &self.outcome {
            Ok(r) => r,
            Err(msg) => panic!("sweep job '{}' panicked: {msg}", self.label),
        }
    }
}

/// An executed (or aborted) sweep.
pub struct SweepReport {
    /// The sweep's name.
    pub name: String,
    /// Worker count.
    pub jobs: usize,
    /// Rows in the grid.
    pub total: usize,
    /// Simulations actually executed this run (cache misses, recomputes,
    /// uncacheable jobs, and rows that panicked mid-run; every job when no
    /// store is attached).
    pub executed: usize,
    /// Rows served from the store without simulating.
    pub cached: usize,
    /// Rows whose store entry existed but failed validation, with the
    /// reported reason — each was recomputed, never silently served.
    pub recomputed: Vec<(String, String)>,
    /// Rows that ran but could not be persisted, with the I/O error,
    /// sorted. Each still reports its summary, stays out of the manifest,
    /// and is recomputed by the next run.
    pub unpersisted: Vec<(String, String)>,
    /// Jobs without a content key (always executed, never persisted).
    pub uncacheable: usize,
    /// True when the crash-injection hook fired: the run stopped early
    /// and wrote no final manifest. `rows` is empty; resume by running
    /// the same sweep again.
    pub aborted: bool,
    /// One row per job in job-list order (empty when `aborted`).
    pub rows: Vec<SweepRow>,
    /// Where this sweep's checkpoint manifest lives (`None` without a
    /// store).
    pub manifest_path: Option<PathBuf>,
}

impl SweepReport {
    /// Number of rows that panicked.
    pub fn panics(&self) -> usize {
        self.rows.iter().filter(|r| r.outcome.is_err()).count()
    }
}

/// The report's former name; stays until `benchmark/` stops naming it.
pub type IncrementalReport = SweepReport;

/// What planning decided for one job.
enum Plan {
    /// Serve from the store: the validated, already-parsed summary.
    Cached(RowSummary),
    /// Execute (missing, invalid, uncacheable, or `fresh`).
    Run,
}

/// Shared checkpoint state the store writers feed.
struct CkState {
    manifest: Manifest,
    cadence: Checkpointer,
}

impl Sweep {
    /// Run the job list with no store attached: every job runs, nothing is
    /// read or written, no manifest is named and no writer thread starts.
    /// Rows come back in job-list order regardless of worker count or
    /// completion order.
    pub fn run(self, jobs_list: Vec<SweepJob>) -> SweepReport {
        self.execute(jobs_list, None)
    }

    /// Run the job list incrementally against a content-addressed store:
    /// rows whose digest is already present (and valid) are served from
    /// disk without simulating; everything else runs, is summarized, and
    /// is handed to one of `jobs` store-writer threads that persist it
    /// (write-temp-then-rename) while the worker simulates its next row.
    /// Periodic atomic manifest checkpoints plus per-row durability mean
    /// a killed sweep resumes where it stopped: re-running the same sweep
    /// executes only the rows the store does not hold — zero jobs when
    /// the grid is already complete.
    pub fn run_incremental(self, jobs_list: Vec<SweepJob>, opts: &StoreOptions) -> SweepReport {
        let store = Store::open(&opts.dir).unwrap_or_else(|e| {
            panic!("cannot open result store {}: {e}", opts.dir.display())
        });
        self.execute(jobs_list, Some((&store, opts)))
    }

    /// The one sweep engine. Results stream: each `SimResult` is reduced
    /// to a compact [`RowSummary`] inside its worker and dropped — memory
    /// is O(rows · flows) summaries, never O(rows) simulation states. With
    /// a store, planning serves valid entries and writers persist fresh
    /// rows.
    fn execute(self, jobs_list: Vec<SweepJob>, store: Option<(&Store, &StoreOptions)>) -> SweepReport {
        let total = jobs_list.len();
        let name = self.name;
        let log = self.log;
        let say = |msg: &str| {
            if let Some(log) = &log {
                log(msg);
            }
        };

        // The sweep's identity: a digest over the ordered job digests (or
        // labels, for unkeyed jobs). Names the manifest file, so the same
        // grid always checkpoints to the same place and different grids
        // sharing the store never fight over a manifest.
        let manifest_path = store.map(|(_, opts)| {
            let mut identity = String::new();
            for job in &jobs_list {
                match job.digest() {
                    Some(d) => identity.push_str(&d.hex()),
                    None => identity.push_str(&job.label),
                }
                identity.push('\n');
            }
            let sweep_digest = Digest::of(identity.as_bytes());
            opts.dir.join(format!("sweep-{}.manifest", &sweep_digest.hex()[..16]))
        });

        if let Some(prior) = manifest_path.as_deref().and_then(Manifest::load) {
            say(&format!(
                "sweep {name}: found checkpoint ({}/{} rows, tag {})",
                prior.done.len(),
                prior.total,
                prior.tag
            ));
        }

        // Plan: probe the store for every keyed job. A probe is a full
        // validating read — an entry that exists but is truncated,
        // corrupt, stale-tagged or undecodable is *reported* and queued
        // for recomputation, never served.
        let probe = store.filter(|(_, opts)| !opts.fresh);
        let mut recomputed: Vec<(String, String)> = Vec::new();
        let mut uncacheable = 0usize;
        let mut cached = 0usize;
        let mut done_digests: Vec<Digest> = Vec::new();
        let plans: Vec<Plan> = jobs_list
            .iter()
            .map(|job| match (job.digest(), probe) {
                (None, _) => {
                    uncacheable += 1;
                    Plan::Run
                }
                (Some(_), None) => Plan::Run,
                (Some(d), Some((store, _))) => match store.read(&d) {
                    Ok(bytes) => match RowSummary::from_store_bytes(&bytes) {
                        Ok(row) => {
                            cached += 1;
                            done_digests.push(d);
                            Plan::Cached(row)
                        }
                        Err(e) => {
                            say(&format!("sweep {name}: {} invalid ({e}); recomputing", job.label));
                            recomputed.push((job.label.clone(), format!("undecodable entry: {e}")));
                            Plan::Run
                        }
                    },
                    Err(ReadError::Missing) => Plan::Run,
                    Err(e) => {
                        say(&format!("sweep {name}: {} invalid ({e}); recomputing", job.label));
                        recomputed.push((job.label.clone(), e.to_string()));
                        Plan::Run
                    }
                },
            })
            .collect();

        // Execute the cache misses. Each worker hands its row to a store
        // writer, which notes completion under the checkpoint lock; the
        // manifest is snapshotted atomically on the configured cadence.
        let to_run: Vec<SweepJob> = jobs_list
            .into_iter()
            .zip(&plans)
            .filter(|(_, plan)| matches!(plan, Plan::Run))
            .map(|(job, _)| job)
            .collect();
        if store.is_some() {
            say(&format!(
                "sweep {name}: {cached} cached, {} to run ({} invalid entries recomputing)",
                to_run.len(),
                recomputed.len()
            ));
        }

        let abort = AtomicBool::new(false);
        let handed_off = AtomicUsize::new(0);
        let unpersisted: Mutex<Vec<(String, String)>> = Mutex::new(Vec::new());
        let ck = store.map(|(store, opts)| {
            let mut manifest = Manifest::new(name.clone(), store.tag(), total);
            manifest.done = done_digests;
            Mutex::new(CkState {
                manifest,
                cadence: Checkpointer::new(opts.checkpoint_rows, CHECKPOINT_WALL),
            })
        });
        let kill_after = store.and_then(|(_, opts)| opts.kill_after);
        let audit = self.audit;
        let run_labels: Vec<String> = to_run.iter().map(|j| j.label.clone()).collect();
        let progress = |p: Progress| {
            if let Some(log) = &log {
                log(&format!(
                    "sweep {name}: [{done}/{total}] {label} {status} in {ms:.0} ms",
                    done = p.done,
                    total = p.total,
                    label = run_labels[p.index],
                    status = if p.ok { "done" } else { "PANICKED" },
                    ms = p.elapsed.as_secs_f64() * 1e3,
                ));
            }
        };

        // Workers simulate, summarise and encode, then hand the row to one
        // of `jobs` store writers and move on: the entry's `sync_all` and
        // the manifest checkpoints run off the compute path. A writer
        // lists a digest in the manifest only after its entry's rename
        // returned, so a checkpoint never runs ahead of the store.
        let reports = std::thread::scope(|scope| {
            // Carries (digest, encoded summary, label).
            let (tx, rx) = mpsc::sync_channel::<(Digest, Vec<u8>, String)>(self.jobs);
            // Shared by the writers, and dropped with the last of them, so
            // a worker's `send` fails rather than blocks if they all died.
            let rx = Arc::new(Mutex::new(rx));
            if let (Some((store, _)), Some(ck), Some(manifest_path)) = (store, &ck, manifest_path.as_deref()) {
                // One store writer per worker; none when no keyed job is
                // left to run.
                let writers = self.jobs.min(to_run.iter().filter(|job| job.key.is_some()).count());
                for _ in 0..writers {
                    let rx = Arc::clone(&rx);
                    let (unpersisted, abort) = (&unpersisted, &abort);
                    scope.spawn(move || loop {
                        let next = rx.lock().expect("row channel lock").recv();
                        let Ok((d, bytes, label)) = next else { break };
                        if let Err(e) = store.write(&d, &bytes) {
                            // The row still reports; the next run recomputes it.
                            eprintln!("sweep: cannot persist {label}: {e}");
                            unpersisted.lock().expect("unpersisted list lock").push((label, e.to_string()));
                            continue;
                        }
                        let mut st = ck.lock().expect("checkpoint state lock");
                        st.manifest.done.push(d);
                        // No checkpoint once the kill hook fired: its trigger
                        // row set `abort` before the send this `recv` returned.
                        if !abort.load(Ordering::Relaxed) && st.cadence.row_done() {
                            if let Err(e) = st.manifest.save(manifest_path) {
                                eprintln!("sweep: cannot checkpoint: {e}");
                            }
                        }
                    });
                }
            }
            drop(rx);
            par::map(
                to_run,
                self.jobs,
                |_i, job| {
                    if abort.load(Ordering::Relaxed) {
                        return None;
                    }
                    // Rows are keyed for the store only when one is attached.
                    let digest = store.and_then(|_| job.digest());
                    let config = if audit { job.config.with_audit(true) } else { job.config };
                    let result = Network::new(config).run();
                    let row = RowSummary::of(&job.label, job.meta, &result);
                    drop(result); // streaming: the SimResult dies in its worker
                    if let Some(d) = digest {
                        let n = handed_off.fetch_add(1, Ordering::Relaxed) + 1;
                        if kill_after.is_some_and(|k| n >= k) {
                            // Simulated kill: this row is persisted, no
                            // manifest snapshot follows it.
                            abort.store(true, Ordering::Relaxed);
                        }
                        tx.send((d, row.to_store_bytes(), row.label.clone()))
                            .expect("a store writer outlives every handed-off row");
                    }
                    Some(row)
                },
                Some(&progress),
            )
            // `tx` drops here: the writers drain the channel and exit, and
            // the scope joins them before any report is assembled.
        });

        let executed = reports
            .iter()
            .filter(|r| match &r.outcome {
                par::JobOutcome::Ok(row) => row.is_some(),
                par::JobOutcome::Panicked(_) => true,
            })
            .count();

        let mut unpersisted = unpersisted.into_inner().expect("unpersisted list unpoisoned after the writers joined");
        unpersisted.sort(); // writers finish in any order; the report does not
        let aborted = abort.load(Ordering::Relaxed);
        let mut rows: Vec<SweepRow> = Vec::new();
        if aborted {
            say(&format!(
                "sweep {name}: ABORTED by kill hook after {} rows handed to the store",
                handed_off.load(Ordering::Relaxed)
            ));
        } else {
            // Final checkpoint: the complete (sorted, deduped) digest set.
            // An interrupted-then-resumed sweep converges to the same bytes
            // as an uninterrupted one.
            if let (Some(ck), Some(path)) = (ck, &manifest_path) {
                let ck = ck.into_inner().expect("checkpoint state unpoisoned after the writers joined");
                if let Err(e) = ck.manifest.save(path) {
                    eprintln!("sweep: cannot write final manifest: {e}");
                }
            }

            // Assemble rows in job order.
            let mut fresh_rows = reports.into_iter();
            for (index, plan) in plans.into_iter().enumerate() {
                let (label, outcome) = match plan {
                    Plan::Cached(row) => (row.label.clone(), Ok(row)),
                    Plan::Run => {
                        let report = fresh_rows.next().expect("one pool report exists per planned run");
                        let label = run_labels[report.index].clone();
                        match report.outcome {
                            par::JobOutcome::Ok(Some(row)) => (label, Ok(row)),
                            par::JobOutcome::Ok(None) => unreachable!("jobs are only skipped when aborting"),
                            par::JobOutcome::Panicked(msg) => (label, Err(msg)),
                        }
                    }
                };
                rows.push(SweepRow { index, label, outcome });
            }
        }

        SweepReport {
            name,
            jobs: self.jobs,
            total,
            executed,
            cached,
            recomputed,
            unpersisted,
            uncacheable,
            aborted,
            rows,
            manifest_path,
        }
    }
}

/// A seeded CCA constructor with a report name: the grid's algorithm axis.
#[derive(Clone)]
pub struct CcaSpec {
    /// Short name for labels ("bbr", "delay-aimd", …).
    pub name: String,
    /// Constructor; the seed decorrelates any internal randomness.
    pub mk: Arc<dyn Fn(u64) -> BoxCca + Send + Sync>,
}

impl CcaSpec {
    /// Name a constructor.
    ///
    /// Panics if `name` is empty or contains whitespace: it is one field
    /// of the store's space-separated `grid` line.
    pub fn new(name: impl Into<String>, mk: impl Fn(u64) -> BoxCca + Send + Sync + 'static) -> CcaSpec {
        let name = name.into();
        assert!(
            !name.is_empty() && !name.contains(char::is_whitespace),
            "CCA name {name:?} must be non-empty and whitespace-free"
        );
        CcaSpec {
            name,
            mk: Arc::new(mk),
        }
    }
}

/// One point of an expanded grid.
#[derive(Clone, Debug)]
pub struct GridPoint {
    /// CCA name.
    pub cca: String,
    /// Bottleneck rate.
    pub rate: Rate,
    /// Propagation RTT of both flows.
    pub rm: Dur,
    /// Jitter bound on flow 0's path (`ZERO` = clean).
    pub jitter: Dur,
    /// Scenario seed (CCA phasing and jitter stream derive from it).
    pub seed: u64,
}

impl GridPoint {
    /// The point's row label: `cca/rate/rtt/jitter/seed`.
    pub fn label(&self) -> String {
        format!(
            "{}/r{:.0}/rtt{}/j{}/s{}",
            self.cca,
            self.rate.mbps(),
            self.rm.as_millis_f64(),
            self.jitter.as_millis_f64(),
            self.seed
        )
    }

    /// The point's canonical content bytes: every parameter that reaches
    /// the expanded `SimConfig`, in a fixed field order with exact
    /// representations (integer nanoseconds; shortest-round-trip floats).
    /// Two `GridPoint`s with equal fields produce equal canonical strings
    /// no matter how or where they were constructed — this string, not
    /// the struct, is the digest input.
    pub fn canonical(&self, duration: Dur, sample_every: Dur) -> String {
        format!(
            "two-flow-jitter cca={} rate_mbps={} rtt_ns={} jitter_ns={} seed={} \
             duration_ns={} sample_ns={} buffer=ample",
            self.cca,
            self.rate.mbps(),
            self.rm.as_nanos(),
            self.jitter.as_nanos(),
            self.seed,
            duration.as_nanos(),
            sample_every.as_nanos(),
        )
    }

    /// The point's coordinates as persistable row metadata.
    pub fn meta(&self) -> GridMeta {
        GridMeta {
            cca: self.cca.clone(),
            rate_mbps: self.rate.mbps(),
            rtt_ms: self.rm.as_millis_f64(),
            jitter_ms: self.jitter.as_millis_f64(),
            seed: self.seed,
        }
    }
}

/// A declarative scenario grid: the cartesian product of CCA constructors,
/// link rates, propagation RTTs, jitter bounds and seeds, expanded in that
/// (row-major) order into two-flow asymmetric-jitter scenarios.
pub struct ScenarioSpec {
    /// Sweep name (tags progress messages).
    pub name: String,
    /// The algorithm axis.
    pub ccas: Vec<CcaSpec>,
    /// Bottleneck rates.
    pub rates: Vec<Rate>,
    /// Propagation RTTs.
    pub rtts: Vec<Dur>,
    /// Jitter bounds applied to flow 0 (`ZERO` entries mean both clean).
    pub jitters: Vec<Dur>,
    /// Scenario seeds.
    pub seeds: Vec<u64>,
    /// Simulated duration of every point.
    pub duration: Dur,
    /// Series decimation interval of every point.
    pub sample_every: Dur,
}

impl ScenarioSpec {
    /// An empty grid running 30-second scenarios at 10 ms decimation.
    pub fn new(name: impl Into<String>) -> ScenarioSpec {
        ScenarioSpec {
            name: name.into(),
            ccas: Vec::new(),
            rates: Vec::new(),
            rtts: Vec::new(),
            jitters: Vec::new(),
            seeds: vec![0],
            duration: Dur::from_secs(30),
            sample_every: Dur::from_millis(10),
        }
    }

    /// Builder: add a CCA constructor.
    pub fn cca(mut self, spec: CcaSpec) -> ScenarioSpec {
        self.ccas.push(spec);
        self
    }

    /// Builder: the rate axis, in Mbit/s.
    pub fn rates_mbps(mut self, rates: &[f64]) -> ScenarioSpec {
        self.rates = rates.iter().map(|&m| Rate::from_mbps(m)).collect();
        self
    }

    /// Builder: the RTT axis, in milliseconds.
    pub fn rtts_ms(mut self, rtts: &[u64]) -> ScenarioSpec {
        self.rtts = rtts.iter().map(|&m| Dur::from_millis(m)).collect();
        self
    }

    /// Builder: the jitter axis, in milliseconds (0 = clean paths).
    pub fn jitters_ms(mut self, jitters: &[u64]) -> ScenarioSpec {
        self.jitters = jitters.iter().map(|&m| Dur::from_millis(m)).collect();
        self
    }

    /// Builder: the seed axis.
    pub fn seeds(mut self, seeds: &[u64]) -> ScenarioSpec {
        self.seeds = seeds.to_vec();
        self
    }

    /// Builder: simulated duration per point.
    pub fn duration(mut self, d: Dur) -> ScenarioSpec {
        self.duration = d;
        self
    }

    /// Builder: series decimation per point.
    pub fn sample_every(mut self, every: Dur) -> ScenarioSpec {
        self.sample_every = every;
        self
    }

    /// The expanded grid, row-major: cca → rate → rtt → jitter → seed.
    pub fn points(&self) -> Vec<(CcaSpec, GridPoint)> {
        let mut out = Vec::new();
        for cca in &self.ccas {
            for &rate in &self.rates {
                for &rm in &self.rtts {
                    for &jitter in &self.jitters {
                        for &seed in &self.seeds {
                            out.push((
                                cca.clone(),
                                GridPoint {
                                    cca: cca.name.clone(),
                                    rate,
                                    rm,
                                    jitter,
                                    seed,
                                },
                            ));
                        }
                    }
                }
            }
        }
        out
    }

    /// Expand every point into a labelled two-flow scenario: flow 0 carries
    /// the jitter (rng derived from the seed), flow 1 is clean; both run the
    /// point's CCA with decorrelated seeds on an ample-buffer link.
    pub fn expand(&self) -> Vec<SweepJob> {
        self.points()
            .into_iter()
            .map(|(cca, p)| {
                let link = LinkConfig::ample_buffer(p.rate);
                let mut jittered = FlowConfig::bulk((cca.mk)(p.seed * 2 + 1), p.rm);
                if p.jitter > Dur::ZERO {
                    jittered = jittered.with_jitter(Jitter::Random {
                        max: p.jitter,
                        rng: Xoshiro256::new(p.seed * 31 + 7),
                    });
                }
                let clean = FlowConfig::bulk((cca.mk)(p.seed * 2 + 2), p.rm);
                let config = SimConfig::new(link, vec![jittered, clean], self.duration)
                    .with_sample_every(self.sample_every);
                let meta = p.meta();
                SweepJob::keyed(
                    p.label(),
                    p.canonical(self.duration, self.sample_every),
                    p.seed,
                    config,
                )
                .with_meta(meta)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> ScenarioSpec {
        ScenarioSpec::new("sweep-selftest")
            .cca(CcaSpec::new("const", |_s| {
                Box::new(cca::ConstCwnd::new(20 * 1500))
            }))
            .rates_mbps(&[12.0, 24.0])
            .rtts_ms(&[40])
            .jitters_ms(&[0, 5])
            .seeds(&[1, 2])
            .duration(Dur::from_secs(2))
    }

    #[test]
    fn scenario_files_lower_into_sweep_jobs() {
        // A DSL row and the equivalent hand-built job run identically in
        // one sweep (corpus entries can ride alongside grid points).
        let parsed = scenario::parse(
            r#"scenario "dsl-row" {
                 link { rate 12mbps buffer ample }
                 duration 1s
                 flow f0 { cca reno rtt 40ms }
               }"#,
        )
        .expect("parses");
        let by_hand = SimConfig::new(
            netsim::LinkConfig::ample_buffer(Rate::from_mbps(12.0)),
            vec![netsim::FlowConfig::bulk(
                Box::new(cca::NewReno::default_params()),
                Dur::from_millis(40),
            )],
            Dur::from_secs(1),
        );
        let jobs = vec![SweepJob::from_scenario(&parsed), SweepJob::new("hand", by_hand)];
        let report = Sweep::new("dsl-interop").jobs(2).run(jobs);
        assert_eq!(report.rows[0].label, "dsl-row");
        let a = report.rows[0].outcome.as_ref().expect("dsl row runs");
        let b = report.rows[1].outcome.as_ref().expect("hand row runs");
        assert_eq!(a.flows[0].sent, b.flows[0].sent);
    }

    #[test]
    fn grid_expands_row_major() {
        let spec = tiny_spec();
        let jobs = spec.expand();
        // 1 cca × 2 rates × 1 rtt × 2 jitters × 2 seeds.
        assert_eq!(jobs.len(), 8);
        assert_eq!(jobs[0].label, "const/r12/rtt40/j0/s1");
        assert_eq!(jobs[1].label, "const/r12/rtt40/j0/s2");
        assert_eq!(jobs[2].label, "const/r12/rtt40/j5/s1");
        assert_eq!(jobs[7].label, "const/r24/rtt40/j5/s2");
        // Every point is the two-flow topology.
        assert!(jobs.iter().all(|j| j.config.flows.len() == 2));
    }

    #[test]
    fn sweep_rows_are_ordered_and_complete() {
        let spec = tiny_spec();
        let report = Sweep::new("selftest").jobs(4).run(spec.expand());
        assert_eq!(report.rows.len(), 8);
        assert_eq!(report.panics(), 0);
        for (i, row) in report.rows.iter().enumerate() {
            assert_eq!(row.index, i);
            assert!(row.result().flows[0].delivered > 0, "{}", row.label);
        }
    }

    #[test]
    fn cloned_job_list_runs_twice_identically() {
        let jobs = tiny_spec().expand();
        let a = Sweep::new("a").jobs(2).run(jobs.clone());
        let b = Sweep::new("b").jobs(3).run(jobs);
        for (ra, rb) in a.rows.iter().zip(&b.rows) {
            assert_eq!(ra.label, rb.label);
            assert_eq!(ra.result().to_store_bytes(), rb.result().to_store_bytes());
        }
    }

    #[test]
    fn storeless_run_executes_everything_and_names_no_manifest() {
        let report = Sweep::new("plain").jobs(2).run(tiny_spec().expand());
        assert_eq!((report.total, report.executed, report.cached), (8, 8, 0));
        assert!(report.manifest_path.is_none());
        assert!(!report.aborted && report.unpersisted.is_empty());
        assert_eq!(report.rows.len(), 8);
    }

    #[test]
    #[should_panic(expected = "\"bbr v1\" must be non-empty and whitespace-free")]
    fn cca_names_with_whitespace_are_rejected() {
        let _ = CcaSpec::new("bbr v1", |s| Box::new(cca::Bbr::new(1500, s)));
    }

    #[test]
    #[should_panic(expected = "label \"two\\nlines\" must be a single line")]
    fn multi_line_labels_are_rejected() {
        let config = tiny_spec().expand().remove(0).config;
        let _ = SweepJob::new("two\nlines", config);
    }

    /// A CCA that diverges (panics) on its first acknowledgement — the
    /// "one scenario poisons the sweep" failure mode the engine isolates.
    #[derive(Clone)]
    struct DivergingCca;

    impl cca::CongestionControl for DivergingCca {
        fn on_ack(&mut self, _ev: &cca::AckEvent) {
            panic!("scenario diverged");
        }
        fn on_loss(&mut self, _ev: &cca::LossEvent) {}
        fn cwnd(&self) -> u64 {
            10 * 1500
        }
        fn pacing_rate(&self) -> Option<Rate> {
            None
        }
        fn name(&self) -> &'static str {
            "diverging"
        }
        fn clone_box(&self) -> BoxCca {
            Box::new(self.clone())
        }
    }

    #[test]
    fn panicking_scenario_reports_without_poisoning() {
        let link = LinkConfig::ample_buffer(Rate::from_mbps(12.0));
        let rm = Dur::from_millis(40);
        let good = |label: &str| {
            SweepJob::new(
                label,
                SimConfig::new(
                    link,
                    vec![FlowConfig::bulk(Box::new(cca::ConstCwnd::new(10 * 1500)), rm)],
                    Dur::from_secs(1),
                ),
            )
        };
        let bad = SweepJob::new(
            "bad",
            SimConfig::new(
                link,
                vec![FlowConfig::bulk(Box::new(DivergingCca), rm)],
                Dur::from_secs(1),
            ),
        );
        let report = Sweep::new("panic-isolation")
            .jobs(2)
            .run(vec![good("good-0"), bad, good("good-2")]);
        assert_eq!(report.panics(), 1);
        assert!(report.rows[0].outcome.is_ok());
        match &report.rows[1].outcome {
            Err(msg) => assert!(msg.contains("diverged"), "{msg}"),
            Ok(_) => panic!("diverging scenario should have panicked"),
        }
        assert!(report.rows[2].outcome.is_ok(), "panic must not poison later jobs");
        assert!(report.rows[2].result().flows[0].delivered > 0);
    }

    #[test]
    fn audited_sweep_matches_unaudited() {
        // The auditor must pass on every grid row and change nothing.
        let jobs = tiny_spec().expand();
        let plain = Sweep::new("plain").jobs(2).run(jobs.clone());
        let audited = Sweep::new("audited").jobs(2).audit(true).run(jobs);
        assert_eq!(audited.panics(), 0);
        for (ra, rb) in plain.rows.iter().zip(&audited.rows) {
            assert_eq!(ra.result().flows[0].sent, rb.result().flows[0].sent, "{}", ra.label);
            assert_eq!(
                ra.result().flows[0].delivered,
                rb.result().flows[0].delivered,
                "{}",
                ra.label
            );
        }
    }

    #[test]
    fn progress_callback_fires_per_job() {
        use std::sync::Mutex;
        let seen: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = seen.clone();
        let report = Sweep::new("logged")
            .jobs(2)
            .with_log(Arc::new(move |msg: &str| sink.lock().unwrap().push(msg.to_string())))
            .run(tiny_spec().expand());
        assert_eq!(seen.lock().unwrap().len(), report.rows.len());
        assert!(seen.lock().unwrap().iter().all(|m| m.contains("sweep logged:")));
    }

    fn store_tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sweep_inc_{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn row_summary_store_bytes_roundtrip() {
        let row = &Network::new(tiny_spec().expand().remove(0).config).run();
        let meta = GridMeta {
            cca: "const".to_string(),
            rate_mbps: 12.0,
            rtt_ms: 40.0,
            jitter_ms: 0.0,
            seed: 1,
        };
        let summary = RowSummary::of("const/r12/rtt40/j0/s1", Some(meta), row);
        let bytes = summary.to_store_bytes();
        let back = RowSummary::from_store_bytes(&bytes).expect("roundtrip parses");
        assert_eq!(back, summary);
        // Serialization is a pure function of the summary.
        assert_eq!(back.to_store_bytes(), bytes);
        // Undecodable entries report, not panic.
        assert!(RowSummary::from_store_bytes(b"").is_err());
        assert!(RowSummary::from_store_bytes(b"rowv2 x\nrun 1 2 3\n").is_err());
        assert!(RowSummary::from_store_bytes(b"rowv1 x\nrun 1 nope 3\n").is_err());
        assert!(RowSummary::from_store_bytes(b"rowv1 x\nflow 0 1 2\n").is_err());
        assert!(RowSummary::from_store_bytes(b"rowv1 x\n").is_err(), "no run line");
    }

    #[test]
    fn incremental_rerun_executes_zero_jobs_and_matches_bytes() {
        let dir = store_tmpdir("rerun");
        let opts = StoreOptions::new(&dir).checkpoint_rows(2);
        let first = Sweep::new("inc").jobs(2).run_incremental(tiny_spec().expand(), &opts);
        assert_eq!(first.total, 8);
        assert_eq!(first.executed, 8);
        assert_eq!(first.cached, 0);
        assert!(!first.aborted);
        assert_eq!(first.rows.len(), 8);
        assert!(first.manifest_path.as_ref().is_some_and(|p| p.exists()));

        let second = Sweep::new("inc").jobs(4).run_incremental(tiny_spec().expand(), &opts);
        assert_eq!(second.executed, 0, "complete grid re-runs nothing");
        assert_eq!(second.cached, 8);
        let rows_a: Vec<Vec<u8>> = first
            .rows
            .iter()
            .map(|r| r.outcome.as_ref().unwrap().to_store_bytes())
            .collect();
        let rows_b: Vec<Vec<u8>> = second
            .rows
            .iter()
            .map(|r| r.outcome.as_ref().unwrap().to_store_bytes())
            .collect();
        assert_eq!(rows_a, rows_b, "cached rows are byte-identical to fresh rows");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fresh_flag_recomputes_without_invalidating_store() {
        let dir = store_tmpdir("fresh");
        let opts = StoreOptions::new(&dir);
        let first = Sweep::new("f").jobs(2).run_incremental(tiny_spec().expand(), &opts);
        assert_eq!(first.executed, 8);
        let fresh = Sweep::new("f")
            .jobs(2)
            .run_incremental(tiny_spec().expand(), &opts.clone().fresh(true));
        assert_eq!(fresh.executed, 8, "--fresh re-runs everything");
        assert_eq!(fresh.cached, 0);
        // And the store is still a valid full cache afterwards.
        let third = Sweep::new("f").jobs(2).run_incremental(tiny_spec().expand(), &opts);
        assert_eq!(third.executed, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unkeyed_jobs_always_execute() {
        let dir = store_tmpdir("unkeyed");
        let config = SimConfig::new(
            netsim::LinkConfig::ample_buffer(Rate::from_mbps(12.0)),
            vec![netsim::FlowConfig::bulk(
                Box::new(cca::ConstCwnd::new(20 * 1500)),
                Dur::from_millis(40),
            )],
            Dur::from_secs(1),
        );
        let opts = StoreOptions::new(&dir);
        let jobs = || vec![SweepJob::new("opaque", config.clone())];
        let a = Sweep::new("u").jobs(1).run_incremental(jobs(), &opts);
        assert_eq!((a.executed, a.uncacheable), (1, 1));
        let b = Sweep::new("u").jobs(1).run_incremental(jobs(), &opts);
        assert_eq!((b.executed, b.uncacheable), (1, 1), "no key ⇒ no caching");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn kill_hook_aborts_and_resume_completes_the_grid() {
        let dir = store_tmpdir("kill");
        let killed = Sweep::new("k").jobs(1).run_incremental(
            tiny_spec().expand(),
            &StoreOptions::new(&dir).checkpoint_rows(1).kill_after(Some(3)),
        );
        assert!(killed.aborted);
        assert_eq!(killed.executed, 3);
        assert!(killed.rows.is_empty());

        let resumed = Sweep::new("k")
            .jobs(1)
            .run_incremental(tiny_spec().expand(), &StoreOptions::new(&dir));
        assert!(!resumed.aborted);
        assert_eq!(resumed.cached, 3, "persisted rows survive the kill");
        assert_eq!(resumed.executed, 5, "only the missing rows run");
        assert_eq!(resumed.rows.len(), 8);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn grid_canonical_separates_every_axis() {
        let spec = tiny_spec();
        let jobs = spec.expand();
        let canon: Vec<&str> = jobs.iter().map(|j| j.key.as_ref().unwrap().canonical.as_str()).collect();
        let mut unique = canon.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), jobs.len(), "every grid point has a distinct canonical form");
        let digests: Vec<String> = jobs.iter().map(|j| j.digest().unwrap().hex()).collect();
        let mut ud = digests.clone();
        ud.sort();
        ud.dedup();
        assert_eq!(ud.len(), jobs.len(), "distinct canonical forms ⇒ distinct digests");
    }
}
