//! Runs the full engine over the checked-in fixture mini-workspaces.
//!
//! `tests/fixtures/seeded/` is a deliberately-dirty corpus with one seeded
//! defect per semantic rule (R5–R9), including a cross-file lock-order
//! inversion; `tests/fixtures/clean/` is its clean twin exercising the same
//! shapes with the discipline respected. In each, an `examples/` file calls
//! the `pub fn`s that R9 must count as reached. Fixture directories are
//! excluded from the real workspace walk, so these files never dirty
//! `mbus lint`.

use std::path::PathBuf;

use mbus_lint::{lint_workspace, render_human, render_json, render_sarif, LintReport};

fn lint_fixture(name: &str) -> LintReport {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    lint_workspace(&root).expect("fixture workspace must be readable")
}

/// Every seeded defect, as (rule, workspace-relative path, 1-based line).
const SEEDED: &[(&str, &str, usize)] = &[
    ("safety_comment", "crates/alpha/src/lib.rs", 11),
    ("atomics_ordering", "crates/alpha/src/lib.rs", 17),
    ("atomics_ordering", "crates/alpha/src/lib.rs", 18),
    ("lock_discipline", "crates/beta/src/one.rs", 16),
    ("lock_discipline", "crates/beta/src/two.rs", 8),
    ("lock_discipline", "crates/beta/src/three.rs", 8),
    ("lock_discipline", "crates/beta/src/three.rs", 17),
    ("unchecked_result", "crates/delta/src/lib.rs", 13),
    ("unchecked_result", "crates/delta/src/lib.rs", 14),
    ("unreached_pub", "crates/delta/src/lib.rs", 19),
];

#[test]
fn seeded_fixture_defects_are_each_detected_once() {
    let report = lint_fixture("seeded");
    for (rule, path, line) in SEEDED {
        let hits = report
            .violations
            .iter()
            .filter(|v| v.rule.name() == *rule && v.path == *path && v.line == *line)
            .count();
        assert_eq!(hits, 1, "expected exactly one {rule} at {path}:{line}");
    }
    assert_eq!(
        report.violations.len(),
        SEEDED.len(),
        "no unexpected extra findings: {:#?}",
        report.violations
    );
}

#[test]
fn seeded_lock_order_inversion_names_the_cycle() {
    let report = lint_fixture("seeded");
    let inversions: Vec<_> = report
        .violations
        .iter()
        .filter(|v| v.message.contains("lock-order inversion"))
        .collect();
    assert_eq!(inversions.len(), 2, "one finding per inverted edge");
    for v in inversions {
        assert!(
            v.message.contains("cycle over {beta::a, beta::b}"),
            "cycle membership spelled out: {}",
            v.message
        );
    }
}

#[test]
fn seeded_defects_appear_in_human_json_and_sarif_output() {
    let report = lint_fixture("seeded");
    let human = render_human(&report);
    let json = render_json(&report);
    let sarif = render_sarif(&report);
    for (rule, path, line) in SEEDED {
        assert!(
            human.contains(&format!("{path}:{line}: {rule}:")),
            "human output missing {rule} at {path}:{line}:\n{human}"
        );
        assert!(
            json.contains(&format!(
                "\"rule\": \"{rule}\", \"path\": \"{path}\", \"line\": {line},"
            )),
            "json output missing {rule} at {path}:{line}:\n{json}"
        );
        let sarif_needle =
            format!("\"ruleId\": \"{rule}\", \"level\": \"error\", \"message\": {{\"text\": ");
        assert!(sarif.contains(&sarif_needle), "sarif missing ruleId {rule}");
        assert!(
            sarif.contains(&format!(
                "\"uri\": \"{path}\"}}, \"region\": {{\"startLine\": {line}}}"
            )),
            "sarif output missing location {path}:{line}:\n{sarif}"
        );
    }
}

#[test]
fn seeded_unsafe_inventory_records_the_missing_rationale() {
    let report = lint_fixture("seeded");
    assert_eq!(report.unsafe_sites.len(), 1);
    let site = &report.unsafe_sites[0];
    assert_eq!(site.path, "crates/alpha/src/lib.rs");
    assert_eq!(site.line, 11);
    assert_eq!(site.kind, "unsafe fn");
    assert!(site.rationale.is_none());
    let inventory = mbus_lint::render_unsafe_report(&report);
    assert!(inventory.contains("1 unsafe site(s), 1 without a rationale"));
}

#[test]
fn clean_twin_is_entirely_clean() {
    let report = lint_fixture("clean");
    assert!(report.is_clean(), "{:#?}", report.violations);
    assert_eq!(report.suppressed, 0, "clean by discipline, not by allows");
    // The twin's SAFETY-annotated unsafe block is inventoried, not flagged.
    assert_eq!(report.unsafe_sites.len(), 1);
    assert!(report.unsafe_sites[0]
        .rationale
        .as_deref()
        .is_some_and(|r| r.contains("null is rejected above")));
}
