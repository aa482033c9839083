//! `simlint` CLI.
//!
//! Exit codes: 0 = clean, 1 = findings (errors, or warnings under
//! `--deny-warnings`), 2 = usage / I-O error.

use std::path::PathBuf;
use std::process::ExitCode;

use simlint::{engine, self_check, Config, ALL_RULES};

const USAGE: &str = "\
simlint — hermetic repo-invariant linter

USAGE:
  simlint --workspace [--json] [--deny-warnings] [--root DIR]
  simlint [--json] [--deny-warnings] [--root DIR] FILE...
  simlint --self-check
  simlint --rules

OPTIONS:
  --workspace       lint every .rs and Cargo.toml under the workspace root
  --json            emit diagnostics as JSON lines instead of human text
  --deny-warnings   treat warnings as failures (CI mode)
  --root DIR        workspace root (default: walk up from cwd to [workspace])
  --self-check      lint the embedded fixtures and verify expected outcomes
  --rules           list registered rules and exit";

fn main() -> ExitCode {
    let mut json = false;
    let mut deny_warnings = false;
    let mut workspace = false;
    let mut do_self_check = false;
    let mut list_rules = false;
    let mut root: Option<PathBuf> = None;
    let mut files: Vec<PathBuf> = Vec::new();

    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--deny-warnings" => deny_warnings = true,
            "--workspace" => workspace = true,
            "--self-check" => do_self_check = true,
            "--rules" => list_rules = true,
            "--root" => match argv.next() {
                Some(d) => root = Some(PathBuf::from(d)),
                None => return usage_error("--root requires a directory"),
            },
            "-h" | "--help" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other if other.starts_with('-') => {
                return usage_error(&format!("unknown option: {other}"));
            }
            path => files.push(PathBuf::from(path)),
        }
    }

    if list_rules {
        for r in ALL_RULES {
            println!("{} {:<22} {:<8} {}", r.id(), r.slug(), r.severity().to_string(), r.describe());
        }
        return ExitCode::SUCCESS;
    }

    if do_self_check {
        let failures = self_check();
        if failures.is_empty() {
            println!(
                "simlint self-check: {} fixtures + {} scope checks ok",
                simlint::FIXTURES.len(),
                simlint::SCOPE_FIXTURES.len()
            );
            return ExitCode::SUCCESS;
        }
        for f in &failures {
            eprintln!("simlint self-check FAILED: {f}");
        }
        return ExitCode::FAILURE;
    }

    if workspace != files.is_empty() {
        // Neither or both: exactly one input mode must be selected.
        return usage_error("pass --workspace or one or more files");
    }

    let root = match root {
        Some(r) => r,
        None => {
            let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
            match engine::find_workspace_root(&cwd) {
                Some(r) => r,
                None => return usage_error("no [workspace] manifest found above cwd; pass --root"),
            }
        }
    };

    let cfg = Config::for_workspace(&root);
    let report = if workspace {
        engine::lint_workspace(&cfg)
    } else {
        engine::lint_paths(&cfg, &files)
    };

    for d in &report.diags {
        if json {
            println!("{}", d.render_json());
        } else {
            println!("{}", d.render_human());
        }
    }
    if !json {
        eprintln!(
            "simlint: {} file(s) checked, {} error(s), {} warning(s)",
            report.files_checked,
            report.errors(),
            report.warnings()
        );
    }
    if report.failed(deny_warnings) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("simlint: {msg}\n\n{USAGE}");
    ExitCode::from(2)
}
