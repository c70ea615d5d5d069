//! The linter linting its own workspace: the live tree must be clean.
//! This is the same check CI runs via `cargo run -p omu-lint`, kept as a
//! test so `cargo test` alone catches a freshly introduced violation.

use std::path::PathBuf;

#[test]
fn live_workspace_is_clean_against_committed_baseline() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves");
    let report = omu_lint::run(&root).expect("workspace lints");
    assert!(
        report.is_clean(),
        "new lint violations in the workspace:\n{}",
        report
            .violations
            .iter()
            .map(|v| format!("  {} {}:{}: {}", v.rule, v.path, v.line, v.message))
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(
        report.files_checked > 100,
        "workspace discovery looks broken: only {} files",
        report.files_checked
    );
}
