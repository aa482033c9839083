//! The `repro` binary end to end: `--progress` reaches the sweep it runs.

use std::process::Command;

/// Run `repro sweep --quick` in a scratch directory (its CSV and store land
/// there) and return its stderr.
fn sweep_stderr(name: &str, extra: &[&str]) -> String {
    let dir = std::env::temp_dir().join(format!("repro_cli_{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch directory");
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .current_dir(&dir)
        .args(["sweep", "--quick", "--jobs", "2", "--store", "store"])
        .args(extra)
        .env_remove("SWEEP_KILL_AFTER")
        .output()
        .expect("repro starts");
    let stderr = String::from_utf8(out.stderr).expect("stderr is UTF-8");
    assert!(out.status.success(), "repro sweep failed:\n{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
    stderr
}

#[test]
fn progress_flag_logs_one_stderr_line_per_job() {
    let stderr = sweep_stderr("progress", &["--progress"]);
    let labels: Vec<String> = repro::exp_sweep::spec(true)
        .points()
        .iter()
        .map(|(_, p)| p.label())
        .collect();
    // `sweep <name>: [<done>/<total>] <label> done in <ms> ms`, in
    // completion order.
    let mut done = Vec::new();
    let mut seen = Vec::new();
    for line in stderr
        .lines()
        .filter_map(|l| l.strip_prefix("sweep grid-demo: ["))
    {
        let parsed = line.split_once("/8] ").and_then(|(count, rest)| {
            let (label, ms) = rest.split_once(" done in ")?;
            ms.strip_suffix(" ms")?.parse::<u64>().ok()?;
            Some((count.parse::<usize>().ok()?, label.to_string()))
        });
        let (count, label) = parsed.unwrap_or_else(|| panic!("bad progress line {line:?}"));
        done.push(count);
        seen.push(label);
    }
    done.sort_unstable();
    assert_eq!(done, (1..=8).collect::<Vec<_>>(), "{stderr}");
    seen.sort();
    let mut expected = labels;
    expected.sort();
    assert_eq!(seen, expected, "{stderr}");
}

#[test]
fn without_progress_no_job_is_logged() {
    let stderr = sweep_stderr("quiet", &[]);
    assert!(!stderr.contains("sweep grid-demo:"), "{stderr}");
}
