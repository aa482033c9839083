//! Digest stability: a job's store digest is a pure function of
//! (canonical bytes, seed, code tag) — nothing else.
//!
//! Same job ⇒ same digest across `Clone`, worker counts (jobs=1 vs
//! jobs=4 produce byte-identical stores), construction order, and process
//! restarts (a known-answer constant pins the function itself). Any
//! change to the canonical config, the seed, or the code tag ⇒ a
//! different digest — checked exhaustively on the demo grid and
//! probabilistically with the testkit property harness (shrinking
//! enabled).

use simcore::store::{Digest, CODE_TAG};
use starvation::sweep::{CcaSpec, GridPoint, ScenarioSpec, StoreOptions, Sweep, SweepJob};
use simcore::units::{Dur, Rate};
use std::path::Path;
use testkit::prop::{check, u64_in, vec_of};

fn grid() -> ScenarioSpec {
    ScenarioSpec::new("digest-suite")
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
fn clone_preserves_the_digest() {
    for job in grid().expand() {
        let d = job.digest().expect("grid jobs are keyed");
        assert_eq!(job.clone().digest(), Some(d), "{}", job.label);
        // And expanding the same spec again reproduces it.
    }
    let a: Vec<_> = grid().expand().iter().map(|j| j.digest()).collect();
    let b: Vec<_> = grid().expand().iter().map(|j| j.digest()).collect();
    assert_eq!(a, b, "re-expansion is digest-stable");
}

fn store_files(root: &Path) -> Vec<(String, Vec<u8>)> {
    fn walk(root: &Path, dir: &Path, out: &mut Vec<(String, Vec<u8>)>) {
        for entry in std::fs::read_dir(dir).expect("dir readable") {
            let path = entry.expect("dir entry").path();
            if path.is_dir() {
                walk(root, &path, out);
            } else {
                let rel = path.strip_prefix(root).expect("under root").to_string_lossy().into_owned();
                out.push((rel, std::fs::read(&path).expect("file readable")));
            }
        }
    }
    let mut out = Vec::new();
    walk(root, root, &mut out);
    out.sort();
    out
}

#[test]
fn serial_and_parallel_sweeps_write_identical_stores() {
    let dir1 = std::env::temp_dir().join("digest_stability_j1");
    let dir4 = std::env::temp_dir().join("digest_stability_j4");
    let _ = std::fs::remove_dir_all(&dir1);
    let _ = std::fs::remove_dir_all(&dir4);
    let _ = Sweep::new("digest-suite")
        .jobs(1)
        .run_incremental(grid().expand(), &StoreOptions::new(&dir1));
    let _ = Sweep::new("digest-suite")
        .jobs(4)
        .run_incremental(grid().expand(), &StoreOptions::new(&dir4));
    assert_eq!(
        store_files(&dir1),
        store_files(&dir4),
        "jobs=1 and jobs=4 stores are byte-identical: same digests, same rows"
    );
    let _ = std::fs::remove_dir_all(&dir1);
    let _ = std::fs::remove_dir_all(&dir4);
}

#[test]
fn construction_order_does_not_reach_the_digest() {
    // Two grid points with the same coordinates, built through different
    // code paths, canonicalize (and therefore digest) identically.
    let direct = GridPoint {
        cca: "probe".into(),
        rate: Rate::from_mbps(40.0),
        rm: Dur::from_millis(40),
        jitter: Dur::from_millis(10),
        seed: 7,
    };
    let mut staged = GridPoint {
        seed: 7,
        jitter: Dur::from_millis(10),
        rm: Dur::from_millis(40),
        rate: Rate::from_mbps(10.0),
        cca: String::new(),
    };
    staged.rate = Rate::from_mbps(40.0);
    staged.cca.push_str("probe");
    let (dur, every) = (Dur::from_secs(2), Dur::from_millis(20));
    assert_eq!(direct.canonical(dur, every), staged.canonical(dur, every));

    // And the same canonical bytes through SweepJob::keyed in either
    // argument-construction order.
    let cfg = scenario_config();
    let j1 = SweepJob::keyed("a", direct.canonical(dur, every), 7, cfg.clone());
    let j2 = SweepJob::keyed("b", staged.canonical(dur, every), 7, cfg);
    assert_eq!(j1.digest(), j2.digest(), "labels and construction path are not digest inputs");
}

fn scenario_config() -> netsim::SimConfig {
    netsim::SimConfig::new(
        netsim::LinkConfig::ample_buffer(Rate::from_mbps(12.0)),
        vec![netsim::FlowConfig::bulk(
            Box::new(cca::ConstCwnd::new(20 * 1500)),
            Dur::from_millis(40),
        )],
        Dur::from_secs(1),
    )
}

/// Pins the digest function across process restarts (and accidental
/// algorithm changes): this constant was computed once and must never
/// drift. If a deliberate digest-function change lands, bump [`CODE_TAG`]
/// and recompute.
#[test]
fn known_answer_digest_is_stable_across_processes() {
    let canonical = "two-flow-jitter cca=probe rate_mbps=40 rtt_ns=40000000 \
                     jitter_ns=10000000 seed=7 duration_ns=2000000000 \
                     sample_ns=20000000 buffer=ample";
    let d = Digest::job(canonical.as_bytes(), 7, CODE_TAG);
    assert_eq!(d.hex(), "9e9a3340df5819b181f10de6ff6cf18c");
}

#[test]
fn any_input_change_changes_the_digest() {
    // Exhaustive on the demo grid: all 8 points have distinct digests,
    // and every single-axis perturbation moves the digest.
    let jobs = grid().expand();
    let mut digests: Vec<Digest> = jobs.iter().map(|j| j.digest().unwrap()).collect();
    digests.sort();
    digests.dedup();
    assert_eq!(digests.len(), jobs.len(), "no two grid points share a digest");

    for job in &jobs {
        let key = job.key.as_ref().unwrap();
        let base = job.digest().unwrap();
        // Seed change.
        assert_ne!(Digest::job(key.canonical.as_bytes(), key.seed + 1, CODE_TAG), base);
        // Code-tag change (what a simulator-version bump does).
        assert_ne!(Digest::job(key.canonical.as_bytes(), key.seed, "starvation-sim/2"), base);
        // Canonical-byte change.
        let mut altered = key.canonical.clone();
        altered.push('x');
        assert_ne!(Digest::job(altered.as_bytes(), key.seed, CODE_TAG), base);
    }
}

// ---------- testkit property harness (with shrinking) ----------

/// Same inputs ⇒ same digest; recomputed from scratch, not compared via
/// `Clone`.
fn prop_digest_is_deterministic(input: &(Vec<u64>, u64)) -> Result<(), String> {
    let (bytes, seed) = input;
    let raw: Vec<u8> = bytes.iter().map(|&b| b as u8).collect();
    let a = Digest::job(&raw, *seed, CODE_TAG);
    let b = Digest::job(&raw.clone(), *seed, CODE_TAG);
    testkit::require_eq!(a, b);
    testkit::require_eq!(a.hex(), b.hex());
    Ok(())
}

/// Flipping any single canonical byte changes the digest.
fn prop_byte_change_changes_digest(input: &(Vec<u64>, u64, u64)) -> Result<(), String> {
    let (bytes, seed, flip_pos) = input;
    let raw: Vec<u8> = bytes.iter().map(|&b| b as u8).collect();
    let base = Digest::job(&raw, *seed, CODE_TAG);
    let mut mutated = raw.clone();
    if mutated.is_empty() {
        return Ok(());
    }
    let pos = (*flip_pos as usize) % mutated.len();
    mutated[pos] ^= 0x01;
    let changed = Digest::job(&mutated, *seed, CODE_TAG);
    testkit::require!(
        changed != base,
        "flipping byte {pos} of {} canonical bytes left the digest at {}",
        raw.len(),
        base.hex()
    );
    Ok(())
}

/// Changing the seed alone changes the digest.
fn prop_seed_change_changes_digest(input: &(Vec<u64>, u64, u64)) -> Result<(), String> {
    let (bytes, seed, delta) = input;
    let raw: Vec<u8> = bytes.iter().map(|&b| b as u8).collect();
    let other = seed.wrapping_add((*delta).max(1));
    let a = Digest::job(&raw, *seed, CODE_TAG);
    let b = Digest::job(&raw, other, CODE_TAG);
    testkit::require!(a != b, "seeds {seed} and {other} collide on {}", a.hex());
    Ok(())
}

/// Changing the code tag alone changes the digest.
fn prop_tag_change_changes_digest(input: &(Vec<u64>, u64)) -> Result<(), String> {
    let (bytes, seed) = input;
    let raw: Vec<u8> = bytes.iter().map(|&b| b as u8).collect();
    let a = Digest::job(&raw, *seed, CODE_TAG);
    let b = Digest::job(&raw, *seed, "starvation-sim/next");
    testkit::require!(a != b, "tag change not reflected in {}", a.hex());
    Ok(())
}

/// Digest hex round-trips through parsing.
fn prop_hex_roundtrips(input: &(Vec<u64>, u64)) -> Result<(), String> {
    let (bytes, seed) = input;
    let raw: Vec<u8> = bytes.iter().map(|&b| b as u8).collect();
    let d = Digest::job(&raw, *seed, CODE_TAG);
    testkit::require_eq!(Digest::from_hex(&d.hex()), Some(d));
    testkit::require_eq!(d.hex().len(), 32);
    Ok(())
}

#[test]
fn digest_properties_hold() {
    let bytes = || vec_of(u64_in(0, 256), 0, 64);
    check("prop_digest_is_deterministic", (bytes(), u64_in(0, u64::MAX)), prop_digest_is_deterministic);
    check(
        "prop_byte_change_changes_digest",
        (bytes(), u64_in(0, u64::MAX), u64_in(0, u64::MAX)),
        prop_byte_change_changes_digest,
    );
    check(
        "prop_seed_change_changes_digest",
        (bytes(), u64_in(0, u64::MAX), u64_in(0, 1 << 32)),
        prop_seed_change_changes_digest,
    );
    check("prop_tag_change_changes_digest", (bytes(), u64_in(0, u64::MAX)), prop_tag_change_changes_digest);
    check("prop_hex_roundtrips", (bytes(), u64_in(0, u64::MAX)), prop_hex_roundtrips);
}
