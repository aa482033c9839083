//! Everything the harness reads from the host: the wall clock, the
//! process's CPU time and peak resident set, and a scratch directory that
//! lives inside the checkout and is removed when the run ends.
//!
//! The product crates are deterministic and `simlint` keeps wall clocks
//! out of them; the benchmark is the one place whose whole job is to read
//! one. It does so through [`host_now`] only, so the exemption is a single
//! justified line.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// The harness's only wall-clock read.
pub fn host_now() -> Instant {
    // simlint: allow(determinism): the benchmark measures host time; nothing timed here feeds a simulation
    Instant::now()
}

/// Seconds elapsed since `t0`.
pub fn secs_since(t0: Instant) -> f64 {
    host_now().duration_since(t0).as_secs_f64()
}

/// Nanoseconds elapsed since `t0`.
pub fn nanos_since(t0: Instant) -> u64 {
    host_now().duration_since(t0).as_nanos() as u64
}

/// Kernel clock ticks per second in `/proc/<pid>/stat`. `USER_HZ` is 100
/// on every Linux ABI; without a libc binding it cannot be queried.
const USER_HZ: f64 = 100.0;

/// User-mode CPU seconds consumed by this process so far, threads that
/// have already exited included (`utime` of `/proc/self/stat`, 10 ms
/// grain). System time is left out on purpose: for the sweep workloads
/// it is mostly `fsync`, whose cost follows the disk's mood, not the code.
pub fn host_user_cpu_secs() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Field 2 is `(comm)` and may contain spaces; field 14 is counted
    // from the closing parenthesis.
    let after = stat.rsplit_once(')').map(|(_, rest)| rest).unwrap_or("");
    let utime: f64 = after.split_whitespace().nth(11).and_then(|v| v.parse().ok()).unwrap_or(0.0);
    utime / USER_HZ
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn host_peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Root of the checkout the binary was built in: `benchmark/`'s parent.
/// Golden digests and the lint walk are read from here at run time.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("benchmark/ sits directly under the repository root")
        .to_path_buf()
}

/// `benchmark/out/`: traces, set files and scratch space (gitignored).
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Environment variable that moves the scratch directory, for a person
/// who wants the sweep numbers on a memory-backed store
/// (`SPINE_SCRATCH=/dev/shm/spine`). The PR driver never sets it: its
/// runs may write only inside the checkout.
pub const SCRATCH_ENV: &str = "SPINE_SCRATCH";

/// A scratch directory under `benchmark/out/` (or [`SCRATCH_ENV`]), unique
/// to this process, removed on drop. Stores and fuzzer output go here and
/// nowhere else: the library defaults (`default_store_dir`,
/// `result_path`) resolve through `CARGO_MANIFEST_DIR` and would land
/// outside the checkout.
pub struct Scratch {
    root: PathBuf,
    next: std::cell::Cell<u64>,
}

impl Scratch {
    /// Create `benchmark/out/tmp-<pid>-<n>/`.
    pub fn create() -> std::io::Result<Scratch> {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let seq = SEQ.fetch_add(1, Ordering::Relaxed);
        let base = std::env::var_os(SCRATCH_ENV).map_or_else(out_dir, PathBuf::from);
        let root = base.join(format!("tmp-{}-{seq}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root)?;
        Ok(Scratch { root, next: std::cell::Cell::new(0) })
    }

    /// The scratch root.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// A path that no earlier call returned (not created).
    pub fn fresh(&self, stem: &str) -> PathBuf {
        let n = self.next.get();
        self.next.set(n + 1);
        self.root.join(format!("{stem}-{n}"))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// Make the library's ambient configuration inert: the sweep engine reads
/// these variables deep inside `Sweep::new`, and its default timing
/// sidecar would otherwise be appended to `results/bench/sweep.json`
/// (or, under `cargo run`, to a path outside the checkout).
pub fn isolate_environment(scratch: &Scratch) {
    for var in [
        "SWEEP_AUDIT",
        "SWEEP_PROGRESS",
        "SWEEP_TIMING_WALL",
        "SWEEP_STORE_DIR",
        "SWEEP_KILL_AFTER",
        "NETSIM_EVSTATS",
    ] {
        std::env::remove_var(var);
    }
    std::env::set_var("SWEEP_BENCH_DIR", scratch.root().join("sweep-sidecar"));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_return_plausible_values() {
        assert!(host_peak_rss_mib() > 0.5);
        assert!(host_user_cpu_secs() >= 0.0);
    }

    #[test]
    fn scratch_paths_are_distinct_and_removed() {
        let root;
        {
            let s = Scratch::create().expect("scratch");
            root = s.root().to_path_buf();
            assert_ne!(s.fresh("a"), s.fresh("a"));
            assert!(root.is_dir());
        }
        assert!(!root.exists());
    }
}
