//! `repro` — regenerate every table and figure of *Starvation in
//! End-to-End Congestion Control* (SIGCOMM 2022).
//!
//! ```text
//! repro <subcommand> [--quick] [--jobs N] [--progress]
//!
//!   glossary   Table 1
//!   fig1       ideal-path RTT trajectory (Copa)
//!   fig2       rate–delay graph of a delay-convergent CCA (Vegas)
//!   fig3       rate–delay graphs: Vegas/FAST, Copa, BBR, PCC Vivace
//!   thm        Theorems 1–3 constructions + Figures 4, 5, 6
//!   fig7       Reno/Cubic with delayed ACKs
//!   copa       §5.1 Copa min-RTT poisoning
//!   bbr        §5.2 BBR cwnd-limited starvation
//!   vivace     §5.3 Vivace ACK quantization
//!   allegro    §5.4 Allegro asymmetric loss
//!   merit      §6.3 figure-of-merit table
//!   algo1      §6.3 Algorithm 1 vs Vegas under jitter
//!   ccmc       Appendix C model-checker queries
//!   ablations  design-choice ablations (BBR quanta, Copa poison sweep,
//!              Algorithm 1 design margin, AIMD-on-delay threshold)
//!   ecn        §6.4: ECN-reactive vs loss-reactive AIMD under asymmetric loss
//!   boundary   the D vs 2δ phase diagram (oscillation × jitter sweep)
//!   seeds      seed-robustness sweep of the randomized §5 scenarios
//!   sweep      incremental scenario-grid demo (CCA × rate × jitter ×
//!              seed); rows persist content-addressed in results/store,
//!              re-runs execute only missing rows, killed sweeps resume
//!              ([--fresh] [--store DIR])
//!   report     query the result store: filter by grid coordinates,
//!              render table/CSV/JSON ([--store DIR] [--cca NAME]
//!              [--jitter-ms X] [--rate-mbps X] [--seed N]
//!              [--format table|csv|json] [--out FILE])
//!   trace      stream a canonical scenario's audited event trace as
//!              JSON-lines into results/trace/<scenario>.jsonl
//!              (scenarios: reno-ideal, copa-jitter, bbr-two-flow,
//!              vivace-lossy, workload-1k)
//!   lint       run the simlint workspace invariant checks
//!              ([--json] [--deny-warnings]; exits 1 on findings)
//!   fuzz       coverage-guided scenario fuzzing with the runtime
//!              invariant auditor as the bug oracle ([--seed N]
//!              [--count N] [--out DIR] [--replay FILE]; seeds from
//!              tests/scenarios/, writes coverage.txt, findings.jsonl
//!              and minimal finding-NNN.scn reproducers into the out
//!              dir; exits 1 on findings; --quick caps the run for CI)
//!   all        everything above (CSV into results/; excludes lint)
//!
//! --jobs N     worker threads for the sweep-engine experiments
//!              (default: available parallelism; CSV output is
//!              byte-identical at any N)
//! --progress   log each sweep job's completion to stderr
//! --audit      run every sweep-engine scenario under the runtime
//!              invariant auditor (an invariant violation fails the row)
//! ```

use repro::table::TextTable;
use repro::*;
use simcore::par;

fn save(t: &TextTable, name: &str) {
    let path = result_path(name);
    if let Err(e) = t.write_csv(&path) {
        eprintln!("warning: could not write {}: {e}", path.display());
    } else {
        println!("  → {}", path.display());
    }
}

fn run_glossary() {
    println!("Table 1 — glossary of symbols");
    let mut t = TextTable::new(&["symbol", "meaning"]);
    for s in starvation::glossary::TABLE1 {
        t.row(&[s.symbol.to_string(), s.meaning.to_string()]);
    }
    println!("{}", t.render());
}

fn run_fig1(quick: bool) {
    let r = fig1::run(quick);
    println!("{r}");
    let mut t = TextTable::new(&["t (s)", "rtt (ms)"]);
    for (ts, rtt) in &r.series {
        t.row(&[format!("{ts:.3}"), format!("{rtt:.4}")]);
    }
    save(&t, "fig1.csv");
}

fn run_fig2(quick: bool) {
    let r = fig2::run(quick);
    println!("{r}");
    save(&r.table(), "fig2.csv");
}

fn run_fig3(quick: bool) {
    let r = fig3::run(quick);
    println!("{r}");
    save(&r.table(), "fig3.csv");
}

fn run_thm(quick: bool) {
    let r = exp_theorems::run(quick);
    println!("{r}");
    save(&r.fig4_table(), "fig4.csv");
    let mut t = TextTable::new(&[
        "t (s)",
        "d1 (ms)",
        "d2 (ms)",
        "d_star (ms)",
        "eta1 (ms)",
        "eta2 (ms)",
    ]);
    for (ts, d1, d2, ds, e1, e2) in r.fig56_series(400) {
        t.row(&[
            format!("{ts:.3}"),
            format!("{d1:.4}"),
            format!("{d2:.4}"),
            format!("{ds:.4}"),
            format!("{e1:.4}"),
            format!("{e2:.4}"),
        ]);
    }
    save(&t, "fig5_fig6.csv");
    save(&r.thm3_table(), "thm3.csv");
}

fn run_fig7(quick: bool) {
    let r = fig7::run(quick);
    println!("{r}");
    save(&r.table(), "fig7.csv");
    let mut t = TextTable::new(&["cca", "flow", "t (s)", "cwnd (pkts)"]);
    for row in &r.rows {
        for (ts, w) in &row.cwnd_clean {
            t.row(&[row.cca.into(), "clean".into(), format!("{ts:.2}"), format!("{w:.1}")]);
        }
        for (ts, w) in &row.cwnd_delayed {
            t.row(&[row.cca.into(), "delayed".into(), format!("{ts:.2}"), format!("{w:.1}")]);
        }
    }
    save(&t, "fig7_cwnd.csv");
}

fn run_copa(quick: bool) {
    let r = exp_copa::run(quick);
    println!("{r}");
    save(&r.table(), "copa.csv");
}

fn run_bbr(quick: bool) {
    let r = exp_bbr::run(quick);
    println!("{r}");
    save(&r.table(), "bbr.csv");
}

fn run_vivace(quick: bool) {
    let r = exp_vivace::run(quick);
    println!("{r}");
    save(&r.table(), "vivace.csv");
}

fn run_allegro(quick: bool) {
    let r = exp_allegro::run(quick);
    println!("{r}");
    save(&r.table(), "allegro.csv");
}

fn run_merit(quick: bool) {
    let r = exp_merit::run(quick);
    println!("{r}");
    save(&r.table(), "merit.csv");
}

fn run_algo1(quick: bool) {
    let r = exp_algo1::run(quick);
    println!("{r}");
    save(&r.table(), "algo1.csv");
}

fn run_seeds(quick: bool, jobs: usize) {
    let r = exp_seeds::run_with(quick, jobs);
    println!("{r}");
    save(&r.table(), "seeds.csv");
}

fn run_boundary(quick: bool, jobs: usize) {
    let r = exp_boundary::run_with(quick, jobs);
    println!("{r}");
    save(&r.table(), "boundary.csv");
}

fn run_ecn(quick: bool) {
    let r = exp_ecn::run(quick);
    println!("{r}");
    save(&r.table(), "ecn.csv");
}

fn run_ablations(quick: bool, jobs: usize) {
    let r = exp_ablations::run_with(quick, jobs);
    println!("{r}");
    save(&r.table(), "ablations.csv");
}

fn run_ccmc(quick: bool) {
    let r = exp_ccmc::run(quick);
    println!("{r}");
    save(&r.table(), "ccmc.csv");
}

/// `repro sweep [--fresh] [--store DIR]`: run the demo grid incrementally
/// against the content-addressed result store. Re-runs execute only
/// missing rows (a completed grid executes zero simulations); a killed
/// sweep resumes from its last atomic checkpoint on the next invocation.
/// `--fresh` recomputes every row; `--store DIR` overrides the store
/// location (default `results/store`, beside the CSVs).
///
/// Fault-injection hook (tests and the CI resume smoke only): the
/// `SWEEP_KILL_AFTER` environment variable aborts the run after N rows
/// have been persisted, without writing a final checkpoint — exactly what
/// a `kill -9` between a row commit and the next checkpoint leaves
/// behind. An aborted run exits 3.
fn run_sweep(args: &[String], quick: bool, jobs: usize) {
    let fresh = args.iter().any(|a| a == "--fresh");
    let store_dir = store_dir(args);
    let kill_after = std::env::var("SWEEP_KILL_AFTER")
        .ok()
        .and_then(|v| v.parse::<usize>().ok());
    let opts = starvation::sweep::StoreOptions::new(&store_dir)
        .fresh(fresh)
        .kill_after(kill_after);
    let r = exp_sweep::run_stored(quick, jobs, &opts);
    if r.aborted {
        eprintln!(
            "sweep: aborted by SWEEP_KILL_AFTER after {} row(s); run again to resume",
            r.executed
        );
        std::process::exit(3);
    }
    println!("{r}");
    println!("  store: {}", store_dir.display());
    save(&r.table(), "sweep.csv");
}

/// `repro report [--store DIR] [--cca NAME] [--jitter-ms X]
/// [--rate-mbps X] [--seed N] [--format table|csv|json] [--out FILE]`:
/// query the result store. Scans every persisted row, applies the grid
/// filters, and renders the selection. Output order and bytes depend only
/// on store contents — a fresh serial sweep and a killed-and-resumed
/// parallel sweep report identically. Invalid store entries are listed on
/// stderr and excluded (exit 0 still; they recompute on the next sweep).
fn run_report(args: &[String]) {
    let store_dir = store_dir(args);
    let parse_f64 = |flag: &str| -> Option<f64> {
        parse_opt(args, flag).map(|v| {
            v.parse().unwrap_or_else(|_| {
                eprintln!("error: {flag} expects a number (got {v:?})");
                std::process::exit(2);
            })
        })
    };
    let query = report::Query {
        cca: parse_opt(args, "--cca"),
        jitter_ms: parse_f64("--jitter-ms"),
        rate_mbps: parse_f64("--rate-mbps"),
        seed: parse_opt(args, "--seed").map(|v| {
            v.parse().unwrap_or_else(|_| {
                eprintln!("error: --seed expects an integer (got {v:?})");
                std::process::exit(2);
            })
        }),
    };
    let format = parse_opt(args, "--format").unwrap_or_else(|| "table".to_string());
    let scan = report::scan(&store_dir).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    for (digest, reason) in &scan.invalid {
        eprintln!("report: invalid store entry {digest}: {reason}");
    }
    let rows = report::filter(scan.rows, &query);
    let rendered = match format.as_str() {
        "csv" => report::to_csv(&rows),
        "json" => report::to_json(&rows),
        "table" => {
            let agg = report::aggregate(&rows);
            format!(
                "store: {} ({} row(s) selected, {} invalid entr(ies))\n{}\n{}\n",
                store_dir.display(),
                rows.len(),
                scan.invalid.len(),
                report::to_table(&rows).render(),
                agg.render()
            )
        }
        other => {
            eprintln!("error: --format expects table, csv or json (got {other:?})");
            std::process::exit(2);
        }
    };
    match parse_opt(args, "--out") {
        Some(path) => {
            let path = std::path::PathBuf::from(path);
            if let Some(parent) = path.parent() {
                let _ = std::fs::create_dir_all(parent);
            }
            std::fs::write(&path, &rendered).unwrap_or_else(|e| {
                eprintln!("error: cannot write {}: {e}", path.display());
                std::process::exit(2);
            });
            println!("  → {}", path.display());
        }
        None => print!("{rendered}"),
    }
}

/// Run a canonical scenario under the auditor, streaming its full event
/// trace as JSON-lines into `results/trace/<scenario>.jsonl`.
fn run_trace(scenario: Option<&str>) {
    let names = starvation::CANONICAL.join("|");
    let Some(name) = scenario else {
        eprintln!("usage: repro trace <{names}>");
        std::process::exit(2);
    };
    let Some(cfg) = starvation::canonical_scenario(name) else {
        eprintln!("error: unknown scenario '{name}' (expected one of: {names})");
        std::process::exit(2);
    };
    let path = result_path(&format!("trace/{name}.jsonl"));
    let sink_path = path.clone();
    let cfg = cfg
        .with_trace(std::sync::Arc::new(move || {
            let sink = simcore::trace::JsonlSink::create(&sink_path)
                .unwrap_or_else(|e| panic!("cannot create {}: {e}", sink_path.display()));
            Box::new(sink) as Box<dyn simcore::trace::TraceSink>
        }))
        .with_audit(true);
    let r = netsim::Network::new(cfg).run();
    println!("trace {name}: audit clean");
    print_flow_summary(&r);
    let c = r.counts;
    println!(
        "  events: wake={} depart={} data={} ack={} flush={} rto={} arrive={}",
        c.wake, c.depart, c.data_arrive, c.ack_arrive, c.rx_flush, c.rto, c.flow_arrival
    );
    println!("  → {}", path.display());
}

/// One line per flow: what an audited run (`trace`, `fuzz --replay`)
/// shows for it.
fn print_flow_summary(r: &netsim::SimResult) {
    for (i, f) in r.flows.iter().enumerate() {
        println!(
            "  flow {i}: {:.2} Mbit/s, {} bytes delivered",
            f.throughput_at(r.end).mbps(),
            f.total_delivered()
        );
    }
}

/// The workspace root, found the same way from `cargo run` (manifest dir
/// is crates/bench) and from an installed binary (walk up from cwd).
/// Exits 2 when there is none.
fn workspace_root() -> std::path::PathBuf {
    let start = match std::env::var("CARGO_MANIFEST_DIR") {
        Ok(m) => std::path::PathBuf::from(m),
        Err(_) => std::env::current_dir().unwrap_or_else(|_| std::path::PathBuf::from(".")),
    };
    simlint::find_workspace_root(&start).unwrap_or_else(|| {
        eprintln!("error: no [workspace] manifest found above {}", start.display());
        std::process::exit(2);
    })
}

/// `repro lint [--json] [--deny-warnings]`: run the `simlint` workspace
/// invariant checks (see `crates/simlint`). Exits 0 when clean, 1 when
/// findings fail the run, 2 when the workspace root cannot be located.
fn run_lint(args: &[String]) -> ! {
    let json = args.iter().any(|a| a == "--json");
    let deny_warnings = args.iter().any(|a| a == "--deny-warnings");
    let report = simlint::lint_workspace(&simlint::Config::for_workspace(workspace_root()));
    for d in &report.diags {
        if json {
            println!("{}", d.render_json());
        } else {
            println!("{}", d.render_human());
        }
    }
    // Stats go to stderr so `--json` stdout stays machine-clean.
    eprintln!(
        "lint: {} file(s) checked, {} error(s), {} warning(s)",
        report.files_checked,
        report.errors(),
        report.warnings()
    );
    std::process::exit(if report.failed(deny_warnings) { 1 } else { 0 });
}

/// The result store: `--store DIR`, else `results/store`.
fn store_dir(args: &[String]) -> std::path::PathBuf {
    parse_opt(args, "--store")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| result_path("store"))
}

/// Parse a `--flag VALUE` / `--flag=VALUE` string option.
fn parse_opt(args: &[String], flag: &str) -> Option<String> {
    let prefix = format!("{flag}=");
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == flag {
            match it.next() {
                Some(v) => return Some(v.clone()),
                None => {
                    eprintln!("error: {flag} expects a value");
                    std::process::exit(2);
                }
            }
        } else if let Some(v) = a.strip_prefix(&prefix) {
            return Some(v.to_string());
        }
    }
    None
}

/// `repro fuzz [--quick] [--seed N] [--count N] [--jobs N] [--out DIR]
/// [--replay FILE]`: run the coverage-guided scenario fuzzer
/// (`crates/scenario`) with the runtime invariant auditor as the bug
/// oracle. Deterministic per seed at any job count. Exits 1 when the run
/// produced findings, 2 on bad usage, 0 when clean.
///
/// `--replay FILE` instead re-runs one `.scn` file (e.g. a shrunk
/// `finding-NNN.scn` reproducer) under the auditor and reports whether it
/// still fails.
fn run_fuzz(args: &[String], quick: bool, jobs: usize) -> ! {
    // The seed corpus lives relative to the workspace root.
    let root = workspace_root();

    if let Some(file) = parse_opt(args, "--replay") {
        let path = std::path::PathBuf::from(file);
        let s = scenario::load_file(&path).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2);
        });
        let cfg = scenario::compile(&s).with_audit(true);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            netsim::Network::new(cfg).run()
        }));
        match outcome {
            Ok(r) => {
                println!("replay {}: audit clean", path.display());
                print_flow_summary(&r);
                std::process::exit(0);
            }
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| payload.downcast_ref::<&str>().copied())
                    .unwrap_or("<non-string panic>");
                println!("replay {}: FAILS under the auditor", path.display());
                println!("  {}", msg.lines().next().unwrap_or(msg));
                std::process::exit(1);
            }
        }
    }

    let parse_num = |flag: &str, default: u64| -> u64 {
        match parse_opt(args, flag) {
            Some(v) => v.parse().unwrap_or_else(|_| {
                eprintln!("error: {flag} expects a number (got {v:?})");
                std::process::exit(2);
            }),
            None => default,
        }
    };
    let seed = parse_num("--seed", 1);
    // CI's smoke floor is 200 generated scenarios; --quick stays just
    // above it, a full run explores much further.
    let count = parse_num("--count", if quick { 240 } else { 2000 }) as usize;
    let out_dir = parse_opt(args, "--out")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| result_path("fuzz"));
    let corpus_dir = root.join("tests/scenarios");
    let corpus = scenario::load_dir(&corpus_dir).unwrap_or_else(|e| {
        eprintln!("error: bad corpus file: {e}");
        std::process::exit(2);
    });

    let mut opts = scenario::FuzzOptions::new(seed, out_dir.clone());
    opts.count = count;
    opts.jobs = jobs;
    opts.corpus = corpus;
    opts.verbose = true;
    println!(
        "fuzz: seed {seed}, {count} scenarios, corpus {} file(s) from {}",
        opts.corpus.len(),
        corpus_dir.display()
    );
    let report = scenario::fuzz(&opts).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    println!(
        "fuzz: {} scenario(s) executed, {} coverage feature(s) ({} new), {} violation(s)",
        report.executed, report.features, report.new_features, report.violations
    );
    for f in &report.findings {
        println!(
            "  finding: {} (from {}, {} shrink evals)\n    {}",
            f.path.display(),
            f.origin,
            f.shrink_evals,
            f.message.lines().next().unwrap_or("")
        );
    }
    println!("  → {}", out_dir.join("coverage.txt").display());
    println!("  → {}", out_dir.join("findings.jsonl").display());
    std::process::exit(if report.violations > 0 { 1 } else { 0 });
}

/// Parse `--jobs N` / `--jobs=N`. Returns available parallelism when the
/// flag is absent; exits with a usage message when it is malformed.
fn parse_jobs(args: &[String]) -> usize {
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let value = if a == "--jobs" {
            it.next().map(String::as_str)
        } else if let Some(v) = a.strip_prefix("--jobs=") {
            Some(v)
        } else {
            continue;
        };
        return match value.and_then(|v| v.parse::<usize>().ok()) {
            Some(0) => par::available_jobs(),
            Some(n) => n,
            None => {
                eprintln!("error: --jobs expects a number (got {value:?})");
                std::process::exit(2);
            }
        };
    }
    par::available_jobs()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let jobs = parse_jobs(&args);
    if args.iter().any(|a| a == "--progress") {
        // The sweep engine reads this when constructing each runner.
        std::env::set_var("SWEEP_PROGRESS", "1");
    }
    if args.iter().any(|a| a == "--audit") {
        // The sweep engine reads this when constructing each runner.
        std::env::set_var("SWEEP_AUDIT", "1");
    }
    let positional: Vec<&str> = args
        .iter()
        .enumerate()
        .filter(|(i, a)| {
            // Skip flags and the values of value-taking flags.
            const VALUE_FLAGS: &[&str] = &[
                "--jobs", "--seed", "--count", "--out", "--replay", "--store",
                "--format", "--cca", "--jitter-ms", "--rate-mbps",
            ];
            !a.starts_with("--")
                && (*i == 0 || !VALUE_FLAGS.contains(&args[*i - 1].as_str()))
        })
        .map(|(_, a)| a.as_str())
        .collect();
    let cmd = positional.first().copied().unwrap_or("help");

    // simlint: allow(determinism): CLI reports elapsed wall time to the terminal only
    let t0 = std::time::Instant::now();
    match cmd {
        "glossary" => run_glossary(),
        "fig1" => run_fig1(quick),
        "fig2" => run_fig2(quick),
        "fig3" => run_fig3(quick),
        "thm" | "fig4" | "fig5" | "fig6" => run_thm(quick),
        "fig7" => run_fig7(quick),
        "copa" => run_copa(quick),
        "bbr" => run_bbr(quick),
        "vivace" => run_vivace(quick),
        "allegro" => run_allegro(quick),
        "merit" => run_merit(quick),
        "algo1" => run_algo1(quick),
        "ccmc" => run_ccmc(quick),
        "ablations" => run_ablations(quick, jobs),
        "ecn" => run_ecn(quick),
        "boundary" => run_boundary(quick, jobs),
        "seeds" => run_seeds(quick, jobs),
        "sweep" => run_sweep(&args, quick, jobs),
        "report" => run_report(&args),
        "trace" => run_trace(positional.get(1).copied()),
        "lint" => run_lint(&args),
        "fuzz" => run_fuzz(&args, quick, jobs),
        "all" => {
            run_glossary();
            run_fig1(quick);
            run_fig2(quick);
            run_fig3(quick);
            run_thm(quick);
            run_fig7(quick);
            run_copa(quick);
            run_bbr(quick);
            run_vivace(quick);
            run_allegro(quick);
            run_merit(quick);
            run_algo1(quick);
            run_ccmc(quick);
            run_ablations(quick, jobs);
            run_ecn(quick);
            run_boundary(quick, jobs);
            run_seeds(quick, jobs);
            run_sweep(&args, quick, jobs);
        }
        _ => {
            println!(
                "usage: repro <glossary|fig1|fig2|fig3|thm|fig7|copa|bbr|vivace|allegro|merit|algo1|ccmc|ablations|ecn|boundary|seeds|sweep|report|trace|lint|fuzz|all> [--quick] [--jobs N] [--progress] [--audit] [--seed N] [--count N] [--out DIR] [--replay FILE] [--store DIR] [--fresh] [--format table|csv|json] [--cca NAME] [--jitter-ms X] [--rate-mbps X]"
            );
            return;
        }
    }
    eprintln!("[{} completed in {:.1}s]", cmd, t0.elapsed().as_secs_f64());
}
