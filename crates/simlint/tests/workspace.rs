//! Workspace-level integration: the real repository must lint clean, the
//! `hot-root` annotations must attach to fns that actually exist (the v1
//! `HOT_FNS` name list rotted silently; marker attachment is now checked
//! every run), and the product manifests must still match the dependency
//! edges `benchmark/Cargo.lock` records.

use std::path::PathBuf;

use simlint::{lint_workspace, Config};

fn workspace_root() -> PathBuf {
    // crates/simlint → crates → repo root.
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .expect("simlint sits two levels under the workspace root")
        .to_path_buf()
}

#[test]
fn the_workspace_lints_clean_with_hot_roots_attached() {
    let report = lint_workspace(&Config::for_workspace(workspace_root()));
    // Clean means: no findings at all — in particular no SL000 from a
    // marker or allow that attaches to nothing (the rot class), and no
    // SL007 "no hot-root annotations" guard (roots exist and resolve).
    let rendered: Vec<String> = report.diags.iter().map(|d| d.render_human()).collect();
    assert!(rendered.is_empty(), "workspace not clean:\n{}", rendered.join("\n"));
    assert!(report.files_checked > 20, "suspiciously few files: {}", report.files_checked);
}

#[test]
fn benchmark_manifest_still_resolves_locked_and_offline() {
    // `benchmark/Cargo.lock` records the product crates' dependency edges
    // and the benchmark builds `--locked`: a product manifest that drops
    // or adds an edge stops it from starting. Notice that here.
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let manifest = workspace_root().join("benchmark/Cargo.toml");
    let out = std::process::Command::new(cargo)
        .args(["metadata", "--locked", "--offline", "--format-version", "1", "--manifest-path"])
        .arg(&manifest)
        .output()
        .expect("cargo runs");
    assert!(
        out.status.success(),
        "cargo metadata --locked failed for {}:\n{}",
        manifest.display(),
        String::from_utf8_lossy(&out.stderr)
    );
}
