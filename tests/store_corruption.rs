//! Store corruption: damaged entries are **detected, reported, and
//! transparently recomputed** — never silently served.
//!
//! Four damage modes, each applied to one entry of a completed 8-row
//! grid:
//!
//! * truncation — the payload is shorter than the header declares;
//! * bad header — the entry does not start with the `cas1` magic;
//! * stale code-version tag — the entry was written by a different
//!   simulator version (forged here via `Store::open_tagged`);
//! * checksum mismatch — a payload byte flipped at rest.
//!
//! For each, the next incremental run must report exactly one recomputed
//! row (with a reason naming the damage), execute exactly one simulation,
//! and leave the store byte-identical to its pre-corruption state.
//!
//! The write side too: a row whose entry cannot be written is reported in
//! `SweepReport::unpersisted`, never listed in the manifest, and
//! recomputed by the next run.

use simcore::store::{Manifest, Store};
use starvation::sweep::{CcaSpec, ScenarioSpec, StoreOptions, Sweep};
use simcore::units::Dur;
use std::path::{Path, PathBuf};

fn grid() -> ScenarioSpec {
    ScenarioSpec::new("corruption-suite")
        .cca(CcaSpec::new("const", |_s| {
            Box::new(cca::ConstCwnd::new(20 * 1500))
        }))
        .rates_mbps(&[12.0, 24.0])
        .rtts_ms(&[40])
        .jitters_ms(&[0, 5])
        .seeds(&[1, 2])
        .duration(Dur::from_secs(2))
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("store_corruption_{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Populate a store with the full grid; return the path of one entry and
/// its pristine bytes.
fn populated(dir: &Path) -> (PathBuf, Vec<u8>) {
    let report = Sweep::new("corruption-suite")
        .jobs(2)
        .run_incremental(grid().expand(), &StoreOptions::new(dir));
    assert_eq!(report.executed, 8);
    let store = Store::open(dir).expect("store opens");
    let digest = store.digests().expect("store scans")[0];
    let path = store.path_of(&digest);
    let bytes = std::fs::read(&path).expect("entry readable");
    (path, bytes)
}

/// Corrupt one entry via `damage`, then assert the recovery contract:
/// detected + reported (reason contains `expect_reason`), exactly one row
/// recomputed, store restored byte-identical, and the following run a
/// full cache hit.
fn assert_recovers(name: &str, expect_reason: &str, damage: impl Fn(&Path, &[u8])) {
    let dir = tmp(name);
    let (entry_path, pristine) = populated(&dir);
    damage(&entry_path, &pristine);
    assert_ne!(
        std::fs::read(&entry_path).expect("damaged entry readable"),
        pristine,
        "{name}: the damage must actually change the entry"
    );

    let recovery = Sweep::new("corruption-suite")
        .jobs(2)
        .run_incremental(grid().expand(), &StoreOptions::new(&dir));
    assert!(!recovery.aborted);
    assert_eq!(recovery.executed, 1, "{name}: exactly the damaged row re-runs");
    assert_eq!(recovery.cached, 7, "{name}: intact rows stay cached");
    assert_eq!(recovery.recomputed.len(), 1, "{name}: the damage is reported");
    let (label, reason) = &recovery.recomputed[0];
    assert!(
        reason.contains(expect_reason),
        "{name}: reason for {label} should mention {expect_reason:?}, got {reason:?}"
    );

    assert_eq!(
        std::fs::read(&entry_path).expect("recomputed entry readable"),
        pristine,
        "{name}: recomputation restores the exact original bytes"
    );
    let again = Sweep::new("corruption-suite")
        .jobs(2)
        .run_incremental(grid().expand(), &StoreOptions::new(&dir));
    assert_eq!(again.executed, 0, "{name}: the store is whole again");
    assert!(again.recomputed.is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn truncated_entry_is_detected_and_recomputed() {
    assert_recovers("truncated", "truncated", |path, pristine| {
        // Keep the header line, cut the payload short.
        let header_end = pristine.iter().position(|&b| b == b'\n').expect("header line") + 1;
        let cut = header_end + (pristine.len() - header_end) / 2;
        std::fs::write(path, &pristine[..cut]).expect("truncate entry");
    });
}

#[test]
fn bad_header_is_detected_and_recomputed() {
    assert_recovers("bad_header", "bad header", |path, pristine| {
        let mut bytes = pristine.to_vec();
        bytes[..4].copy_from_slice(b"XXXX");
        std::fs::write(path, &bytes).expect("clobber header");
    });
}

#[test]
fn stale_code_tag_is_detected_and_recomputed() {
    assert_recovers("stale_tag", "stale code tag", |path, pristine| {
        // Re-write the same payload as an older simulator version would
        // have: same digest location, same length, old tag in the header.
        let dir = path
            .parent()
            .and_then(Path::parent)
            .expect("entry lives at <store>/<shard>/<digest>");
        let stale = Store::open_tagged(dir, "starvation-sim/0").expect("stale-tagged store");
        let payload_start = pristine.iter().position(|&b| b == b'\n').expect("header") + 1;
        let digest = simcore::store::Digest::from_hex(
            path.file_name().expect("digest file name").to_str().expect("utf-8 name"),
        )
        .expect("entry name is a digest");
        stale.write(&digest, &pristine[payload_start..]).expect("stale write");
    });
}

#[test]
fn flipped_payload_byte_is_detected_and_recomputed() {
    assert_recovers("bit_flip", "checksum mismatch", |path, pristine| {
        let mut bytes = pristine.to_vec();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x20; // same length, different content
        std::fs::write(path, &bytes).expect("flip byte");
    });
}

#[test]
fn unwritable_row_is_reported_kept_out_of_the_manifest_and_recomputed() {
    let dir = tmp("unwritable");
    let jobs = grid().expand();
    let victim = &jobs[3];
    let digest = victim.digest().expect("grid jobs are keyed");
    // A directory at the entry's final path: the row's `rename` fails.
    let squatter = Store::open(&dir).expect("store opens").path_of(&digest);
    std::fs::create_dir_all(&squatter).expect("squat the entry path");

    let report = Sweep::new("corruption-suite")
        .jobs(2)
        .run_incremental(grid().expand(), &StoreOptions::new(&dir));
    assert!(!report.aborted);
    assert_eq!(report.executed, 8, "the rest of the grid completes");
    assert_eq!(report.panics(), 0);
    assert_eq!(report.rows.len(), 8);
    assert_eq!(report.unpersisted.len(), 1, "{:?}", report.unpersisted);
    assert_eq!(report.unpersisted[0].0, victim.label);
    let manifest = Manifest::load(report.manifest_path.as_ref().expect("store-backed sweep")).expect("final manifest saved");
    assert_eq!(manifest.done.len(), 7);
    assert!(!manifest.done.contains(&digest), "an unpersisted row is never listed");

    std::fs::remove_dir(&squatter).expect("remove the squatter");
    let resumed = Sweep::new("corruption-suite")
        .jobs(2)
        .run_incremental(grid().expand(), &StoreOptions::new(&dir));
    assert_eq!((resumed.executed, resumed.cached), (1, 7), "exactly that row is recomputed");
    assert!(resumed.unpersisted.is_empty());
    assert!(Store::open(&dir).expect("store opens").read(&digest).is_ok());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn undecodable_row_payload_is_detected_and_recomputed() {
    // A store-valid entry (good header, tag, checksum) whose payload is
    // not a RowSummary: the sweep layer's own validation catches it.
    assert_recovers("undecodable", "undecodable entry", |path, _pristine| {
        let dir = path
            .parent()
            .and_then(Path::parent)
            .expect("entry lives at <store>/<shard>/<digest>");
        let store = Store::open(dir).expect("store opens");
        let digest = simcore::store::Digest::from_hex(
            path.file_name().expect("digest file name").to_str().expect("utf-8 name"),
        )
        .expect("entry name is a digest");
        store.write(&digest, b"not a row summary\n").expect("rewrite entry");
    });
}
