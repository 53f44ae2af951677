//! Workspace walker and suppression engine.
//!
//! Resolution order for every raw violation:
//!
//! 1. an inline `// lint:allow(rule, reason)` pragma on the same line, or on
//!    a comment-only line directly above;
//! 2. a file-level entry in the checked-in `lint.allow` at the workspace
//!    root (`rule path reason...` per line, `#` comments);
//! 3. otherwise the violation is reported.
//!
//! Allows must pull their weight: a pragma or allowlist entry that carries
//! no reason, names an unknown rule, or suppresses nothing at all is itself
//! reported under the `allow_hygiene` meta-rule.

use crate::callgraph::{build_index, file_facts_of, WorkspaceIndex};
use crate::items::{analyze_file, concurrency_decls, tokenize, ConcurrencyDecls, FileAnalysis};
use crate::lexer::{clean, Pragma};
use crate::rules::{check_file, unreached_pub, NameUses, Rule, Violation};
use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// One file-level entry from `lint.allow`.
#[derive(Debug, Clone)]
struct AllowEntry {
    rule: Rule,
    path: String,
    line: usize,
    used: bool,
}

/// One `unsafe` site in the workspace inventory (`mbus lint
/// --unsafe-report`).
#[derive(Debug, Clone)]
pub struct UnsafeInventoryEntry {
    /// Crate the site lives in.
    pub crate_name: String,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line of the `unsafe` keyword.
    pub line: usize,
    /// Kind label (`unsafe block` / `unsafe fn` / ...).
    pub kind: String,
    /// The `SAFETY:` rationale, if present.
    pub rationale: Option<String>,
}

/// Outcome of a full workspace pass.
#[derive(Debug, Clone, Default)]
pub struct LintReport {
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Violations that survived suppression, sorted by (path, line).
    pub violations: Vec<Violation>,
    /// Number of violations suppressed by pragmas or allowlist entries.
    pub suppressed: usize,
    /// Every `unsafe` site found, annotated or not (the `--unsafe-report`
    /// inventory).
    pub unsafe_sites: Vec<UnsafeInventoryEntry>,
    /// Names of the rules that ran in this pass.
    pub rules_active: Vec<String>,
    /// Sorted crate names the pass covered.
    pub crates_scanned: Vec<String>,
}

impl LintReport {
    /// Whether the workspace is clean.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Name of the checked-in allowlist file at the workspace root.
pub(crate) const ALLOWLIST_FILE: &str = "lint.allow";

/// Runs the full pass over the workspace rooted at `root`.
///
/// # Errors
///
/// Returns any I/O error raised while walking or reading sources.
pub fn lint_workspace(root: &Path) -> io::Result<LintReport> {
    let mut report = LintReport::default();
    let allow_path = root.join(ALLOWLIST_FILE);
    let allow_source = match fs::read_to_string(&allow_path) {
        Ok(text) => text,
        Err(err) if err.kind() == io::ErrorKind::NotFound => String::new(),
        Err(err) => return Err(err),
    };
    let (mut entries, mut allow_violations) = parse_allowlist(&allow_source);
    report.violations.append(&mut allow_violations);

    // Phase 1: analyze every file. Concurrency declarations are unioned
    // per crate first so a lock declared in one module resolves when a
    // sibling module acquires it; then the workspace-wide call-graph index
    // is built from the non-test facts of every file.
    let mut sources: Vec<(String, String, String)> = Vec::new();
    for (rel_path, crate_name) in workspace_source_files(root)? {
        let source = fs::read_to_string(root.join(&rel_path))?;
        sources.push((rel_path, crate_name, source));
    }
    let mut crate_decls: BTreeMap<String, ConcurrencyDecls> = BTreeMap::new();
    let mut cleaned: Vec<(String, String, crate::lexer::CleanFile)> = Vec::new();
    for (rel_path, crate_name, source) in sources {
        let file = clean(&source);
        let decls = concurrency_decls(&tokenize(&file));
        let merged = crate_decls.entry(crate_name.clone()).or_default();
        merged.locks.extend(decls.locks);
        merged.atomics.extend(decls.atomics);
        merged.condvars.extend(decls.condvars);
        cleaned.push((rel_path, crate_name, file));
    }
    let mut analyses: Vec<(String, String, FileAnalysis)> = Vec::new();
    for (rel_path, crate_name, file) in cleaned {
        let decls = crate_decls.entry(crate_name.clone()).or_default();
        let is_test_file = is_test_path(&rel_path);
        analyses.push((
            rel_path.clone(),
            crate_name,
            analyze_file(file, decls, is_test_file),
        ));
    }
    let facts: Vec<_> = analyses
        .iter()
        .filter(|(_, _, a)| !a.is_test_file)
        .map(|(rel_path, crate_name, a)| file_facts_of(crate_name, rel_path, a))
        .collect();
    let index = build_index(&facts);

    // R9 counts the names of every walked file plus the files read for
    // names only. A binary crate's `pub fn`s are not API, so R9 skips them.
    let mut uses = NameUses::default();
    for (rel_path, _, analysis) in &analyses {
        uses.add_file(rel_path, &analysis.toks);
    }
    for rel_path in name_only_sources(root)? {
        let file = clean(&fs::read_to_string(root.join(&rel_path))?);
        uses.add_file(&rel_path, &tokenize(&file));
    }
    let binaries: BTreeSet<&str> = analyses
        .iter()
        .filter(|(rel_path, _, _)| rel_path == "src/main.rs" || rel_path.ends_with("/src/main.rs"))
        .map(|(_, crate_name, _)| crate_name.as_str())
        .collect();

    // Phase 2: per-file rule checks + suppression resolution.
    for (rel_path, crate_name, analysis) in &analyses {
        report.files_scanned += 1;
        for site in &analysis.sites {
            report.unsafe_sites.push(UnsafeInventoryEntry {
                crate_name: crate_name.clone(),
                path: rel_path.clone(),
                line: site.line + 1,
                kind: site.kind.label().to_owned(),
                rationale: site.rationale.clone(),
            });
        }
        let library_src = !analysis.is_test_file && !binaries.contains(crate_name.as_str());
        lint_file_inner(
            crate_name,
            rel_path,
            analysis,
            &index,
            library_src.then_some(&uses),
            &mut entries,
            &mut report,
        );
    }
    report.rules_active = Rule::ALL.iter().map(|r| r.name().to_owned()).collect();
    let mut crates: Vec<String> = analyses.iter().map(|(_, c, _)| c.clone()).collect();
    crates.sort();
    crates.dedup();
    report.crates_scanned = crates;

    for entry in &entries {
        if !entry.used {
            report.violations.push(Violation {
                rule: Rule::AllowHygiene,
                path: ALLOWLIST_FILE.to_owned(),
                line: entry.line,
                message: format!(
                    "allowlist entry `{} {}` suppresses nothing; delete it",
                    entry.rule, entry.path
                ),
            });
        }
    }

    report
        .violations
        .sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    Ok(report)
}

/// Lints a single in-memory source file (no allowlist), for the rule unit
/// tests. The file is its own call-graph universe: cross-file lock edges
/// obviously cannot be seen here, and R9 `unreached_pub`, which needs every
/// caller, does not run.
#[cfg(test)]
pub(crate) fn lint_source(crate_name: &str, rel_path: &str, source: &str) -> LintReport {
    let mut report = LintReport {
        files_scanned: 1,
        rules_active: Rule::ALL
            .iter()
            .filter(|r| **r != Rule::UnreachedPub)
            .map(|r| r.name().to_owned())
            .collect(),
        crates_scanned: vec![crate_name.to_owned()],
        ..LintReport::default()
    };
    let file = clean(source);
    let decls = concurrency_decls(&tokenize(&file));
    let analysis = analyze_file(file, &decls, is_test_path(rel_path));
    let index = build_index(&[file_facts_of(crate_name, rel_path, &analysis)]);
    for site in &analysis.sites {
        report.unsafe_sites.push(UnsafeInventoryEntry {
            crate_name: crate_name.to_owned(),
            path: rel_path.to_owned(),
            line: site.line + 1,
            kind: site.kind.label().to_owned(),
            rationale: site.rationale.clone(),
        });
    }
    let mut entries = Vec::new();
    lint_file_inner(
        crate_name,
        rel_path,
        &analysis,
        &index,
        None,
        &mut entries,
        &mut report,
    );
    report
        .violations
        .sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    report
}

/// Whether a workspace-relative path is an integration-test file.
fn is_test_path(rel_path: &str) -> bool {
    rel_path.starts_with("tests/") || rel_path.contains("/tests/")
}

/// Shared per-file pass: run rules (R9 only when given the workspace's
/// name uses), resolve suppressions, and check pragma hygiene.
fn lint_file_inner(
    crate_name: &str,
    rel_path: &str,
    analysis: &FileAnalysis,
    index: &WorkspaceIndex,
    uses: Option<&NameUses>,
    entries: &mut [AllowEntry],
    report: &mut LintReport,
) {
    let file = &analysis.clean;
    let mut raw = check_file(crate_name, rel_path, analysis, index);
    if let Some(uses) = uses {
        raw.extend(unreached_pub(rel_path, analysis, uses));
    }

    // Map each pragma to the line it guards: its own line, or the next line
    // that carries code when the pragma stands alone.
    let mut guards: BTreeMap<(usize, &str), usize> = BTreeMap::new();
    let mut pragma_used = vec![false; file.pragmas.len()];
    for (idx, pragma) in file.pragmas.iter().enumerate() {
        match validate_pragma(pragma, rel_path) {
            Ok(rule) => {
                let guarded = if pragma.own_line {
                    file.lines
                        .iter()
                        .enumerate()
                        .skip(pragma.line + 1)
                        .find(|(_, l)| !l.code.trim().is_empty())
                        .map_or(usize::MAX, |(n, _)| n)
                } else {
                    pragma.line
                };
                guards.insert((guarded, rule.name()), idx);
            }
            Err(violation) => {
                pragma_used[idx] = true; // malformed: reported, not "stale"
                report.violations.push(violation);
            }
        }
    }

    for violation in raw {
        let key = (violation.line - 1, violation.rule.name());
        if let Some(&idx) = guards.get(&key) {
            pragma_used[idx] = true;
            report.suppressed += 1;
            continue;
        }
        if let Some(entry) = entries
            .iter_mut()
            .find(|e| e.rule == violation.rule && e.path == violation.path)
        {
            entry.used = true;
            report.suppressed += 1;
            continue;
        }
        report.violations.push(violation);
    }

    for (idx, pragma) in file.pragmas.iter().enumerate() {
        if !pragma_used[idx] {
            report.violations.push(Violation {
                rule: Rule::AllowHygiene,
                path: rel_path.to_owned(),
                line: pragma.line + 1,
                message: format!(
                    "`lint:allow({}, ...)` suppresses nothing here; delete it",
                    pragma.rule
                ),
            });
        }
    }
}

/// Validates a pragma's rule name and reason.
fn validate_pragma(pragma: &Pragma, rel_path: &str) -> Result<Rule, Violation> {
    let Some(rule) = Rule::parse(&pragma.rule) else {
        return Err(Violation {
            rule: Rule::AllowHygiene,
            path: rel_path.to_owned(),
            line: pragma.line + 1,
            message: format!("`lint:allow({}, ...)` names an unknown rule", pragma.rule),
        });
    };
    if pragma.reason.is_empty() {
        return Err(Violation {
            rule: Rule::AllowHygiene,
            path: rel_path.to_owned(),
            line: pragma.line + 1,
            message: format!(
                "`lint:allow({})` carries no reason; every allow must be justified",
                pragma.rule
            ),
        });
    }
    Ok(rule)
}

/// Parses `lint.allow`: `rule path reason...` per line, `#` comments.
fn parse_allowlist(source: &str) -> (Vec<AllowEntry>, Vec<Violation>) {
    let mut entries = Vec::new();
    let mut violations = Vec::new();
    for (idx, raw_line) in source.lines().enumerate() {
        let line = raw_line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.splitn(3, char::is_whitespace);
        let rule_name = parts.next().unwrap_or_default();
        let path = parts.next().unwrap_or_default();
        let reason = parts.next().unwrap_or_default().trim();
        let Some(rule) = Rule::parse(rule_name) else {
            violations.push(Violation {
                rule: Rule::AllowHygiene,
                path: ALLOWLIST_FILE.to_owned(),
                line: idx + 1,
                message: format!("allowlist entry names unknown rule `{rule_name}`"),
            });
            continue;
        };
        if path.is_empty() || reason.is_empty() {
            violations.push(Violation {
                rule: Rule::AllowHygiene,
                path: ALLOWLIST_FILE.to_owned(),
                line: idx + 1,
                message: "allowlist entries need `rule path reason...`; reason missing".to_owned(),
            });
            continue;
        }
        entries.push(AllowEntry {
            rule,
            path: path.to_owned(),
            line: idx + 1,
            used: false,
        });
    }
    (entries, violations)
}

/// Enumerates every workspace `.rs` source under `root` with its crate
/// name: `src/` and `tests/` of the root package plus `crates/*/src/` and
/// `crates/*/tests/`. Test files get the reduced rule set (`safety_comment`
/// plus pragma hygiene). The vendor tree, `benches/`, `examples/`, and any
/// directory named `fixtures` (lint's own seeded-violation corpora) are out
/// of scope; R9 reads `examples/` for names only.
///
/// Public so the workspace gate test can assert which files the pass
/// actually covers (e.g. that a newly added crate is walked).
///
/// # Errors
///
/// Returns any I/O error raised while walking the tree.
pub fn workspace_source_files(root: &Path) -> io::Result<Vec<(String, String)>> {
    let mut files: Vec<(String, String)> = Vec::new();
    for sub in ["src", "tests"] {
        let dir = root.join(sub);
        if dir.is_dir() {
            for path in rs_files(&dir)? {
                files.push((relative(root, &path), "multibus".to_owned()));
            }
        }
    }
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut crate_dirs: Vec<PathBuf> = fs::read_dir(&crates_dir)?
            .collect::<Result<Vec<_>, _>>()?
            .into_iter()
            .map(|e| e.path())
            .filter(|p| p.is_dir())
            .collect();
        crate_dirs.sort();
        for crate_dir in crate_dirs {
            let name = crate_dir
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default();
            for sub in ["src", "tests"] {
                let dir = crate_dir.join(sub);
                if !dir.is_dir() {
                    continue;
                }
                for path in rs_files(&dir)? {
                    files.push((relative(root, &path), name.clone()));
                }
            }
        }
    }
    files.sort();
    Ok(files)
}

/// The `.rs` files R9 reads for names only and never lints: the root
/// `examples/` and the benchmark harness's `perfbench/src/` and
/// `perfbench/tests/`.
fn name_only_sources(root: &Path) -> io::Result<Vec<String>> {
    let mut files = Vec::new();
    for sub in ["examples", "perfbench/src", "perfbench/tests"] {
        let dir = root.join(sub);
        if dir.is_dir() {
            files.extend(rs_files(&dir)?.iter().map(|p| relative(root, p)));
        }
    }
    Ok(files)
}

/// Recursively collects `.rs` files under `dir`, sorted for determinism.
/// Directories named `fixtures` (deliberately-dirty lint corpora) are
/// skipped.
fn rs_files(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(current) = stack.pop() {
        for entry in fs::read_dir(&current)? {
            let path = entry?.path();
            if path.is_dir() {
                if path.file_name().is_some_and(|n| n == "fixtures") {
                    continue;
                }
                stack.push(path);
            } else if path.extension().is_some_and(|ext| ext == "rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Workspace-relative display path with `/` separators.
fn relative(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn annotated_pragma_suppresses_and_counts() {
        let src = "\
// lint:allow(no_panic, slot is Some by construction)
fn f(x: Option<u8>) -> u8 { x.unwrap() }
";
        let report = lint_source("sim", "crates/sim/src/x.rs", src);
        assert!(report.is_clean(), "{:?}", report.violations);
        assert_eq!(report.suppressed, 1);
    }

    #[test]
    fn same_line_pragma_suppresses() {
        let src = "fn f(x: Option<u8>) -> u8 { x.unwrap() } // lint:allow(no_panic, fixture)\n";
        let report = lint_source("sim", "crates/sim/src/x.rs", src);
        assert!(report.is_clean());
        assert_eq!(report.suppressed, 1);
    }

    #[test]
    fn reasonless_pragma_is_a_violation() {
        let src = "\
// lint:allow(no_panic)
fn f(x: Option<u8>) -> u8 { x.unwrap() }
";
        let report = lint_source("sim", "crates/sim/src/x.rs", src);
        // The malformed pragma suppresses nothing, so both the hygiene
        // violation and the original no_panic hit surface.
        assert_eq!(report.violations.len(), 2);
        assert!(report
            .violations
            .iter()
            .any(|v| v.rule == Rule::AllowHygiene && v.message.contains("no reason")));
        assert!(report.violations.iter().any(|v| v.rule == Rule::NoPanic));
    }

    #[test]
    fn unknown_rule_pragma_is_a_violation() {
        let src = "// lint:allow(made_up, because)\nfn f() {}\n";
        let report = lint_source("sim", "crates/sim/src/x.rs", src);
        assert_eq!(report.violations.len(), 1);
        assert!(report.violations[0].message.contains("unknown rule"));
    }

    #[test]
    fn stale_pragma_is_a_violation() {
        let src = "// lint:allow(no_panic, nothing to suppress below)\nfn f() {}\n";
        let report = lint_source("sim", "crates/sim/src/x.rs", src);
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].rule, Rule::AllowHygiene);
        assert!(report.violations[0].message.contains("suppresses nothing"));
    }

    #[test]
    fn pragma_for_the_wrong_rule_does_not_suppress() {
        let src = "\
// lint:allow(lossy_cast, wrong rule for this site)
fn f(x: Option<u8>) -> u8 { x.unwrap() }
";
        let report = lint_source("sim", "crates/sim/src/x.rs", src);
        assert!(report.violations.iter().any(|v| v.rule == Rule::NoPanic));
        assert!(report
            .violations
            .iter()
            .any(|v| v.rule == Rule::AllowHygiene));
    }

    #[test]
    fn allowlist_parsing_and_hygiene() {
        let (entries, violations) = parse_allowlist(
            "# comment\n\
             no_panic crates/sim/src/reference.rs frozen reference engine\n\
             bogus_rule crates/sim/src/x.rs some reason\n\
             no_panic crates/sim/src/y.rs\n",
        );
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].rule, Rule::NoPanic);
        assert_eq!(entries[0].path, "crates/sim/src/reference.rs");
        assert_eq!(violations.len(), 2);
        assert!(violations[0].message.contains("unknown rule"));
        assert!(violations[1].message.contains("reason missing"));
    }

    #[test]
    fn workspace_walk_applies_allowlist_and_reports_stale_entries() {
        let root = std::env::temp_dir().join(format!("mbus-lint-fixture-{}", std::process::id()));
        let src_dir = root.join("crates/sim/src");
        fs::create_dir_all(&src_dir).unwrap();
        fs::write(
            src_dir.join("lib.rs"),
            "fn f(x: Option<u8>) -> u8 { x.unwrap() }\n",
        )
        .unwrap();
        fs::write(
            root.join(ALLOWLIST_FILE),
            "no_panic crates/sim/src/lib.rs fixture justification\n\
             no_panic crates/sim/src/gone.rs stale entry\n",
        )
        .unwrap();
        let report = lint_workspace(&root).unwrap();
        fs::remove_dir_all(&root).unwrap();
        assert_eq!(report.files_scanned, 1);
        assert_eq!(report.suppressed, 1);
        assert_eq!(report.violations.len(), 1, "{:?}", report.violations);
        assert_eq!(report.violations[0].rule, Rule::AllowHygiene);
        assert!(report.violations[0].message.contains("suppresses nothing"));
    }

    #[test]
    fn unreached_pub_counts_names_outside_the_crate_src() {
        let root = std::env::temp_dir().join(format!("mbus-lint-reach-{}", std::process::id()));
        let write = |rel: &str, text: &str| {
            let path = root.join(rel);
            fs::create_dir_all(path.parent().unwrap()).unwrap();
            fs::write(path, text).unwrap();
        };
        write(
            "crates/lib/src/lib.rs",
            "pub use inner::reexported;\n\
             /// `doc_only` names `own_test_only` here, which does not count.\n\
             pub fn doc_only() {}\n\
             pub fn own_test_only() {}\n\
             pub fn reexported() {}\n\
             pub fn by_other_test() {}\n\
             pub fn by_example() {}\n\
             pub fn by_perfbench() {}\n\
             pub fn by_perfbench_test() {}\n\
             pub fn by_sibling() { helper() }\n\
             pub(crate) fn helper() {}\n\
             #[cfg(test)]\n\
             mod tests {\n\
                 #[test]\n\
                 fn t() { super::own_test_only(); }\n\
             }\n",
        );
        write("crates/lib/src/other.rs", "fn g() { by_sibling(); }\n");
        write(
            "crates/lib/tests/it.rs",
            "#[test]\nfn t() { by_other_test(); }\n",
        );
        write("examples/demo.rs", "fn main() { by_example(); }\n");
        write("perfbench/src/main.rs", "fn main() { by_perfbench(); }\n");
        write(
            "perfbench/tests/run.rs",
            "fn t() { by_perfbench_test(); }\n",
        );
        // A binary crate's `pub fn`s are not checked.
        write(
            "crates/bin/src/main.rs",
            "fn main() {}\npub fn unused() {}\n",
        );
        let report = lint_workspace(&root).unwrap();
        fs::remove_dir_all(&root).unwrap();
        assert_eq!(
            report.files_scanned, 4,
            "examples and perfbench are not linted"
        );
        let flagged: Vec<(usize, &str)> = report
            .violations
            .iter()
            .map(|v| (v.line, v.path.as_str()))
            .collect();
        assert!(report
            .violations
            .iter()
            .all(|v| v.rule == Rule::UnreachedPub));
        // A re-export and a sibling file of the same crate do not count.
        assert_eq!(
            flagged,
            [
                (3, "crates/lib/src/lib.rs"),
                (4, "crates/lib/src/lib.rs"),
                (5, "crates/lib/src/lib.rs"),
                (10, "crates/lib/src/lib.rs")
            ]
        );
    }

    #[test]
    fn reintroduced_unwrap_fails_the_workspace_pass() {
        // The acceptance criterion: dropping an unwrap() into a library
        // crate must turn the report dirty.
        let root = std::env::temp_dir().join(format!("mbus-lint-dirty-{}", std::process::id()));
        let src_dir = root.join("crates/analysis/src");
        fs::create_dir_all(&src_dir).unwrap();
        fs::write(
            src_dir.join("lib.rs"),
            "pub fn f(x: Option<f64>) -> f64 { x.unwrap() }\n",
        )
        .unwrap();
        let report = lint_workspace(&root).unwrap();
        fs::remove_dir_all(&root).unwrap();
        assert!(!report.is_clean());
        // Other rules (R9 on the unreached `pub fn`) may fire too; the
        // unwrap must be flagged by `no_panic` at its own line.
        let no_panic: Vec<_> = report
            .violations
            .iter()
            .filter(|v| v.rule == Rule::NoPanic)
            .collect();
        assert_eq!(no_panic.len(), 1, "{:?}", report.violations);
        assert_eq!(no_panic[0].path, "crates/analysis/src/lib.rs");
        assert_eq!(no_panic[0].line, 1);
    }
}
