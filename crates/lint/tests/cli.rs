//! Subprocess tests pinning the `amud-lint` exit-code table:
//!
//! | code | meaning                                   |
//! |------|-------------------------------------------|
//! | 0    | clean                                     |
//! | 1    | rule violation                            |
//! | 2    | usage error (unknown flag)                |
//! | 4    | internal error (unreadable input)         |
//!
//! Mirrors the exit-code table of the training binary: every failure
//! class is distinguishable by a shell script without parsing output.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_amud-lint"))
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("spawn amud-lint: {e}"))
}

fn fixture(name: &str) -> String {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures").join(name).to_string_lossy().into_owned()
}

/// A scratch dir unique to this test process.
fn scratch() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("amud-lint-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap_or_else(|e| panic!("create {}: {e}", dir.display()));
    dir
}

#[test]
fn exit_0_on_clean_file_and_report_is_written() {
    let report = scratch().join("clean-report.json");
    let out = run(&["--report", report.to_str().expect("utf8 path"), &fixture("clean.rs")]);
    assert_eq!(out.status.code(), Some(0), "stdout: {}", String::from_utf8_lossy(&out.stdout));
    let json = std::fs::read_to_string(&report).expect("report written");
    assert!(json.contains("\"schema\": \"amud-analyze/2\""));
    assert!(json.contains("\"files_scanned\": 1"));
}

#[test]
fn exit_1_on_violation() {
    // float-determinism governs every path outside crates/par, so the
    // fixture bites when linted in place.
    let out = run(&[&fixture("float_determinism.rs")]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "stdout: {stdout}");
    assert!(stdout.contains("float-determinism"), "{stdout}");
    assert!(stdout.contains("lane accumulator"), "raw lane-accumulator finding: {stdout}");
}

#[test]
fn exit_1_on_each_path_governed_fixture() {
    // These passes key on workspace-relative path prefixes, so stage each
    // fixture in a scratch dir under its target path and run the CLI from
    // there with a relative argument (relative paths are kept verbatim as
    // labels). amud-quant is governed by cache-key-completeness AND
    // determinism-taint: its fixture trips both in a single run.
    let cases: [(&str, &str, &[&str]); 4] = [
        ("determinism_taint.rs", "crates/train/src/fixture.rs", &["determinism-taint"]),
        ("error_taxonomy.rs", "crates/datasets/src/fixture.rs", &["error-taxonomy"]),
        ("serve_error_taxonomy.rs", "crates/serve/src/fixture.rs", &["error-taxonomy"]),
        (
            "quant_key.rs",
            "crates/quant/src/fixture.rs",
            &["cache-key-completeness", "determinism-taint"],
        ),
    ];
    for (fixture_name, rel_label, rules) in cases {
        let dir = scratch().join("staged").join(fixture_name.trim_end_matches(".rs"));
        let dest = dir.join(rel_label);
        let parent = dest.parent().expect("label has a parent dir");
        std::fs::create_dir_all(parent).expect("create staged crate dir");
        std::fs::copy(fixture(fixture_name), &dest).expect("stage fixture");
        let out = Command::new(env!("CARGO_BIN_EXE_amud-lint"))
            .current_dir(&dir)
            .arg(rel_label)
            .output()
            .expect("spawn amud-lint");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(1), "{fixture_name}: stdout: {stdout}");
        for rule in rules {
            assert!(stdout.contains(rule), "{fixture_name} must trip {rule}: {stdout}");
        }
    }
}

#[test]
fn timings_flag_prints_wall_time_and_keeps_exit_code() {
    let out = run(&["--timings", &fixture("clean.rs")]);
    assert_eq!(out.status.code(), Some(0), "stdout: {}", String::from_utf8_lossy(&out.stdout));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("amud-analyze: analysis wall time"), "total line: {stdout}");
    assert!(stdout.contains(" ms"), "per-pass column: {stdout}");
}

#[test]
fn exit_2_on_unknown_flag() {
    let out = run(&["--frobnicate"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag"));
}

#[test]
fn exit_4_on_unreadable_file() {
    let out = run(&["/nonexistent/amud-lint-input.rs"]);
    assert_eq!(out.status.code(), Some(4));
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));
}
