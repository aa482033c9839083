//! `spine` — the repository's benchmark.
//!
//! ```text
//! spine run --workload W [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//!     One workload, in this process. The last stdout line is the result
//!     the PR driver reads. --trace 1 records spans, writes
//!     benchmark/out/trace-W.json and reports the per-layer table.
//! spine run [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//!     A full set: every workload, each in its own child process, one at
//!     a time; written to benchmark/out/set.json.
//! spine aa [--seed N] [--seconds S]
//!     Two sets back to back; each metric's difference against its bound,
//!     counts for equality. Exits 1 outside.
//! spine list [--json]
//!     Every metric with unit, direction and bound (--json: the exact
//!     contents of BENCHMARK.json).
//! ```

use spine::runner::{self, RunArgs};
use spine::{benchmark_json, host, registry, sets, RUN_SECONDS};
use std::process::ExitCode;

impl Cli {
    /// `--seconds`, else the driver's run length — a twentieth of it for a
    /// smoke run, like the unit sizes.
    fn run_seconds(&self) -> f64 {
        self.seconds.unwrap_or(RUN_SECONDS as f64 / if self.smoke { 20.0 } else { 1.0 })
    }
}

struct Cli {
    command: String,
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    json: bool,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        command: args.first().cloned().unwrap_or_else(|| "help".to_string()),
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        smoke: false,
        json: false,
    };
    let mut it = args.iter().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().cloned().ok_or_else(|| format!("{flag} expects {what}"));
        match flag.as_str() {
            "--workload" => cli.workload = Some(value("a workload name")?),
            "--seed" => {
                let v = value("a number")?;
                cli.seed = v.parse().map_err(|_| format!("--seed expects a whole number (got {v:?})"))?;
            }
            "--seconds" => {
                let v = value("a number")?;
                let secs: Option<f64> = v.parse().ok().filter(|s: &f64| s.is_finite() && *s > 0.0);
                cli.seconds = Some(secs.ok_or_else(|| format!("--seconds expects a positive number (got {v:?})"))?);
            }
            "--trace" => {
                cli.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace expects 0 or 1 (got {other:?})")),
                }
            }
            "--smoke" => cli.smoke = true,
            "--json" => cli.json = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(cli)
}

fn run_command(cli: &Cli) -> Result<bool, String> {
    let template = RunArgs {
        workload: String::new(),
        seed: cli.seed,
        seconds: cli.run_seconds(),
        trace: cli.trace,
        smoke: cli.smoke,
    };
    if let Some(name) = &cli.workload {
        let report = runner::run_workload(&RunArgs { workload: name.clone(), ..template })?;
        eprint!("{}", runner::human_summary(&report));
        println!("{}{}", sets::DETAIL_PREFIX, report.detail().render());
        println!("{}", report.result_line().render());
        return Ok(report.tally.failed == 0);
    }
    let reports = sets::run_set(&template, None)?;
    let path = host::out_dir().join("set.json");
    std::fs::create_dir_all(host::out_dir()).map_err(|e| e.to_string())?;
    std::fs::write(&path, sets::set_json(&reports).render() + "\n")
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    // Each child has already printed its table to standard error.
    println!("set written to {}", path.display());
    Ok(reports.iter().all(|r| r.tally.failed == 0))
}

fn aa_command(cli: &Cli) -> Result<bool, String> {
    if cli.smoke {
        return Err("refusing to A/A smoke runs: their numbers are not measurements".to_string());
    }
    let template =
        RunArgs { workload: String::new(), seed: cli.seed, seconds: cli.run_seconds(), trace: false, smoke: false };
    let first = sets::run_set(&template, cli.workload.as_deref())?;
    let second = sets::run_set(&template, cli.workload.as_deref())?;
    let (rows, hard) = sets::compare_sets(&first, &second)?;
    print!("{}", sets::aa_table(&rows, &hard));
    Ok(hard.is_empty() && rows.iter().all(sets::AaRow::ok))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("spine: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match cli.command.as_str() {
        "run" => run_command(&cli),
        "aa" => aa_command(&cli),
        "list" => {
            print!("{}", if cli.json { benchmark_json() } else { registry::listing() });
            Ok(true)
        }
        _ => {
            println!("usage: spine <run|aa|list> [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--json]");
            Ok(true)
        }
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("spine: {e}");
            ExitCode::from(2)
        }
    }
}
