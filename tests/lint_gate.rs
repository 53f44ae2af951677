//! Workspace self-cleanliness gate: `cargo test` fails if `mbus lint`
//! would — deleting a single allow pragma or reintroducing an `unwrap()`
//! in a library crate breaks this test, not just the CI lint step.

use mbus_lint::{lint_workspace, render_human, workspace_source_files};
use std::path::Path;

#[test]
fn workspace_is_lint_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let report = lint_workspace(root).expect("workspace sources must be readable");
    assert!(
        report.files_scanned > 60,
        "suspiciously few files scanned ({}); did the walker lose the crates?",
        report.files_scanned
    );
    assert!(
        report.is_clean(),
        "the workspace must pass its own lint:\n{}",
        render_human(&report)
    );
    // Every suppression in the tree is annotated; the count only moves when
    // someone adds or removes an allow, which reviewers should see.
    assert!(
        report.suppressed > 0,
        "expected at least one annotated allow in the workspace"
    );
}

#[test]
fn semantic_rules_ran_and_covered_the_concurrent_crates() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let report = lint_workspace(root).expect("workspace sources must be readable");
    // The semantic passes (R5–R8) must actually be active — a refactor that
    // drops one from the engine fails here, not silently.
    for rule in [
        "safety_comment",
        "lock_discipline",
        "atomics_ordering",
        "unchecked_result",
    ] {
        assert!(
            report.rules_active.iter().any(|r| r == rule),
            "rule {rule} must be active; saw {:?}",
            report.rules_active
        );
    }
    // The crates that actually hold locks, atomics, and unsafe code are in
    // scope for those passes.
    for crate_name in ["server", "stats", "sim"] {
        assert!(
            report.crates_scanned.iter().any(|c| c == crate_name),
            "crate {crate_name} must be scanned; saw {:?}",
            report.crates_scanned
        );
    }
}

#[test]
fn unsafe_inventory_covers_the_signal_handler() {
    // The workspace's one production `unsafe` site is the SIGTERM handler
    // registration; the R5 inventory must list it, with its rationale.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let report = lint_workspace(root).expect("workspace sources must be readable");
    let site = report
        .unsafe_sites
        .iter()
        .find(|s| s.path == "crates/server/src/signal.rs")
        .expect("signal.rs unsafe site must be inventoried");
    assert_eq!(site.crate_name, "server");
    assert!(
        site.rationale.is_some(),
        "the signal-handler unsafe block carries a SAFETY rationale"
    );
    // No unsafe site anywhere in the tree is missing its rationale.
    assert!(
        report.unsafe_sites.iter().all(|s| s.rationale.is_some()),
        "every unsafe site documents why it is sound"
    );
}

#[test]
fn lint_walk_covers_the_server_crate() {
    // The serving layer is user-reachable over the network, so the no-panic
    // and lossy-cast gates must actually walk it: a violation there fails
    // `workspace_is_lint_clean` above only if these files are in scope.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let files = workspace_source_files(root).expect("walker");
    let server_files: Vec<&str> = files
        .iter()
        .filter(|(path, _)| path.starts_with("crates/server/src/"))
        .map(|(path, _)| path.as_str())
        .collect();
    for module in [
        "crates/server/src/http.rs",
        "crates/server/src/json.rs",
        "crates/server/src/server.rs",
        "crates/server/src/service.rs",
    ] {
        assert!(
            server_files.contains(&module),
            "lint walk must cover {module}; saw {server_files:?}"
        );
    }
    // And they are attributed to the `server` crate, which R2 targets.
    assert!(
        files
            .iter()
            .all(|(path, name)| !path.starts_with("crates/server/") || name == "server"),
        "server sources must carry the crate name R2 keys on"
    );
    assert!(
        mbus_lint::rules::LOSSY_CAST_CRATES.contains(&"server"),
        "R2 must include the server crate"
    );
}

#[test]
fn lint_walk_covers_the_trace_crate() {
    // The trace codec narrows u64 payloads through varints; a lossy cast
    // there silently corrupts recorded events, so R2 must walk it.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let files = workspace_source_files(root).expect("walker");
    let trace_files: Vec<&str> = files
        .iter()
        .filter(|(path, _)| path.starts_with("crates/trace/src/"))
        .map(|(path, _)| path.as_str())
        .collect();
    for module in [
        "crates/trace/src/format.rs",
        "crates/trace/src/writer.rs",
        "crates/trace/src/reader.rs",
        "crates/trace/src/analyze.rs",
    ] {
        assert!(
            trace_files.contains(&module),
            "lint walk must cover {module}; saw {trace_files:?}"
        );
    }
    assert!(
        files
            .iter()
            .all(|(path, name)| !path.starts_with("crates/trace/") || name == "trace"),
        "trace sources must carry the crate name R2 keys on"
    );
    assert!(
        mbus_lint::rules::LOSSY_CAST_CRATES.contains(&"trace"),
        "R2 must include the trace crate"
    );
}

#[test]
fn lint_walk_covers_the_fabric_crate() {
    // The fabric's analytic decomposition is a formula module: R4 must
    // walk it (its closed forms have to be wired into `stats::prob::check`
    // invariants), and the whole crate must come through the walk clean.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let files = workspace_source_files(root).expect("walker");
    let fabric_files: Vec<&str> = files
        .iter()
        .filter(|(path, _)| path.starts_with("crates/fabric/src/"))
        .map(|(path, _)| path.as_str())
        .collect();
    for module in [
        "crates/fabric/src/topology.rs",
        "crates/fabric/src/engine.rs",
        "crates/fabric/src/analytic.rs",
        "crates/fabric/src/spec.rs",
    ] {
        assert!(
            fabric_files.contains(&module),
            "lint walk must cover {module}; saw {fabric_files:?}"
        );
    }
    assert!(
        mbus_lint::rules::FORMULA_MODULES.contains(&"crates/fabric/src/analytic.rs"),
        "R4 must include the fabric analytic module"
    );
    // Zero violations in the fabric crate specifically.
    let report = lint_workspace(root).expect("workspace sources must be readable");
    let fabric_violations: Vec<_> = report
        .violations
        .iter()
        .filter(|v| v.path.starts_with("crates/fabric/"))
        .collect();
    assert!(
        fabric_violations.is_empty(),
        "fabric crate must be lint-clean: {fabric_violations:?}"
    );
    assert!(
        report.crates_scanned.iter().any(|c| c == "fabric"),
        "fabric crate must be scanned; saw {:?}",
        report.crates_scanned
    );
}

#[test]
fn lint_walk_covers_the_scheduler_and_unsafe_stays_in_server_and_sim() {
    // `parallel_map` runs every sweep, campaign and replication; R6 (lock
    // discipline) is only meaningful for its shared queue if the walk
    // reaches the module.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let files = workspace_source_files(root).expect("walker");
    assert!(
        files
            .iter()
            .any(|(path, _)| path == "crates/stats/src/parallel.rs"),
        "lint walk must cover crates/stats/src/parallel.rs"
    );
    // The unsafe inventory is non-empty (the walk sees the sites that do
    // exist), and every site sits in the server or the simulator: the
    // statistics crate and everything else stay unsafe-free.
    let report = lint_workspace(root).expect("workspace sources must be readable");
    assert!(
        !report.unsafe_sites.is_empty(),
        "the unsafe inventory must list the server and simulator sites"
    );
    let strays: Vec<_> = report
        .unsafe_sites
        .iter()
        .filter(|s| s.crate_name != "server" && s.crate_name != "sim")
        .collect();
    assert!(
        strays.is_empty(),
        "unsafe outside crates server and sim: {strays:?}"
    );
}
