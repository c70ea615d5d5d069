//! Fixture-driven end-to-end tests: a mini workspace seeded with one
//! violation per rule must trip exactly those rules, and the clean
//! fixture — which exercises every rule's negative space (SAFETY
//! comments, justified suppressions, `#[cfg(test)]` code) — must lint
//! spotless.

use std::path::PathBuf;

use omu_lint::Rule;

fn fixture_root(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn lint(name: &str) -> omu_lint::Report {
    omu_lint::run(&fixture_root(name)).expect("fixture tree lints")
}

#[test]
fn violations_fixture_trips_every_rule() {
    let report = lint("violations");
    let hits: Vec<(Rule, &str, usize)> = report
        .violations
        .iter()
        .map(|v| (v.rule, v.path.as_str(), v.line))
        .collect();

    let widgets = "crates/widgets/src/lib.rs";
    let expect = [
        (Rule::SafetyComment, widgets),
        (Rule::ThreadConfinement, widgets),
        (Rule::NoPanic, widgets),
        (Rule::BadSuppression, widgets),
        (Rule::AtomicConfinement, widgets),
        (Rule::FsConfinement, widgets),
        (Rule::HandleBits, "crates/octree/src/widget.rs"),
    ];
    for (rule, path) in expect {
        assert!(
            hits.iter().any(|(r, p, _)| *r == rule && *p == path),
            "expected {rule} in {path}; got {hits:#?}"
        );
    }

    // The reason-less suppression is itself a violation AND fails to
    // suppress: its line reports both L5 and the underlying L3.
    let reasonless_line = hits
        .iter()
        .find(|(r, p, _)| *r == Rule::BadSuppression && *p == widgets)
        .map(|(_, _, l)| *l)
        .expect("bad-suppression hit");
    assert!(
        hits.iter()
            .any(|(r, p, l)| *r == Rule::NoPanic && *p == widgets && *l == reasonless_line),
        "a malformed suppression must not quiet the rule it names"
    );

    // Two L5 forms: missing reason and unknown rule name.
    let l5 = hits
        .iter()
        .filter(|(r, _, _)| *r == Rule::BadSuppression)
        .count();
    assert_eq!(l5, 2, "both malformed suppressions reported: {hits:#?}");

    // Nothing from the #[cfg(test)] module leaked into the report.
    assert!(
        !hits.iter().any(|(_, _, l)| *l >= 40 && *l <= 49),
        "test-gated code must be exempt: {hits:#?}"
    );
}

#[test]
fn clean_fixture_is_spotless() {
    let report = lint("clean");
    assert!(
        report.violations.is_empty(),
        "clean fixture must produce no diagnostics: {:#?}",
        report.violations
    );
    assert!(report.files_checked >= 2, "fixture files were discovered");
}
