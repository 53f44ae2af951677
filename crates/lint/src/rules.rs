//! The eight lint rules plus the allow-hygiene meta-rule.
//!
//! | id | name | scope |
//! |----|------|-------|
//! | R1 | `no_panic` | every workspace crate, non-test code |
//! | R2 | `lossy_cast` | `mbus-sim`, `mbus-core`, `mbus-stats`, `mbus-topology`, `mbus-server`, `mbus-trace` |
//! | R3 | `eq_doc` | `mbus-analysis`, `mbus-exact` |
//! | R4 | `invariant_wiring` | the seven formula modules |
//! | R5 | `safety_comment` | every `unsafe` site and `#[target_feature]` fn, test code included |
//! | R6 | `lock_discipline` | every crate with `Mutex`/`RwLock`/`Condvar` fields, non-test code |
//! | R7 | `atomics_ordering` | every atomic op on a declared `Atomic*` field/static, non-test code |
//! | R8 | `unchecked_result` | discarded workspace `Result`s, non-test code |
//! | —  | `allow_hygiene` | pragmas and the `lint.allow` file themselves |
//!
//! R1–R4 run on the cleaned lines alone; R5–R8 additionally use the item
//! tree ([`crate::items`]) and the workspace call-graph index
//! ([`crate::callgraph`]).

use crate::callgraph::WorkspaceIndex;
use crate::items::{names_code, FileAnalysis, UnsafeKind};
use crate::lexer::{fn_items, idents, next_significant_char, CleanFile};
use std::fmt;

/// Identifier of a lint rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rule {
    /// R1: no `unwrap()`/`expect(`/`panic!`/`unreachable!`/`todo!` in
    /// non-test code.
    NoPanic,
    /// R2: no narrowing / sign-changing `as` casts in the numeric crates.
    LossyCast,
    /// R3: paper-formula functions must cite their equation number.
    EqDoc,
    /// R4: bandwidth/probability functions must route results through the
    /// `mbus_stats::prob::check` helpers (directly or by delegation).
    InvariantWiring,
    /// R5: every `unsafe` block/fn/impl/trait must carry a non-empty
    /// `// SAFETY:` rationale (or a `# Safety` doc section for items), and
    /// every `#[target_feature]` fn a `// SAFETY:` naming the runtime
    /// feature check its callers rely on.
    SafetyComment,
    /// R6: no nested same-lock acquisition, no lock-order inversions
    /// (cycles in the cross-function lock graph), and no user callbacks
    /// invoked while a lock guard is live.
    LockDiscipline,
    /// R7: atomic operations must name their `Ordering` explicitly;
    /// `Relaxed` only on allowlisted stat counters.
    AtomicsOrdering,
    /// R8: no `let _ =` / bare-statement discards of `Result`-returning
    /// workspace calls in non-test code.
    UncheckedResult,
    /// Meta-rule: malformed, reason-less, or stale allows.
    AllowHygiene,
}

impl Rule {
    /// The rule's canonical name, as used inside `lint:allow(...)`.
    pub fn name(self) -> &'static str {
        match self {
            Rule::NoPanic => "no_panic",
            Rule::LossyCast => "lossy_cast",
            Rule::EqDoc => "eq_doc",
            Rule::InvariantWiring => "invariant_wiring",
            Rule::SafetyComment => "safety_comment",
            Rule::LockDiscipline => "lock_discipline",
            Rule::AtomicsOrdering => "atomics_ordering",
            Rule::UncheckedResult => "unchecked_result",
            Rule::AllowHygiene => "allow_hygiene",
        }
    }

    /// Parses a rule name written in a pragma or allowlist entry.
    pub fn parse(name: &str) -> Option<Rule> {
        match name {
            "no_panic" => Some(Rule::NoPanic),
            "lossy_cast" => Some(Rule::LossyCast),
            "eq_doc" => Some(Rule::EqDoc),
            "invariant_wiring" => Some(Rule::InvariantWiring),
            "safety_comment" => Some(Rule::SafetyComment),
            "lock_discipline" => Some(Rule::LockDiscipline),
            "atomics_ordering" => Some(Rule::AtomicsOrdering),
            "unchecked_result" => Some(Rule::UncheckedResult),
            _ => None,
        }
    }

    /// Every enforced rule, in report order (hygiene excluded — it is a
    /// property of suppressions, not of source files).
    pub const ALL: [Rule; 8] = [
        Rule::NoPanic,
        Rule::LossyCast,
        Rule::EqDoc,
        Rule::InvariantWiring,
        Rule::SafetyComment,
        Rule::LockDiscipline,
        Rule::AtomicsOrdering,
        Rule::UncheckedResult,
    ];
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One rule violation at a source location.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Which rule fired.
    pub rule: Rule,
    /// Workspace-relative path of the offending file.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

/// Runs every applicable rule over one analyzed file.
///
/// `crate_name` is the directory name under `crates/` (or `multibus` for the
/// root package); `rel_path` is the workspace-relative path used in reports.
/// Files under `tests/` directories get only R5 (unsafe code in tests still
/// needs a rationale); `src/` files get the full rule set. `index` routes
/// the workspace-level findings (lock-order cycles, cross-call
/// re-acquisitions, `Result`-returning fn names) back to their files.
pub fn check_file(
    crate_name: &str,
    rel_path: &str,
    analysis: &FileAnalysis,
    index: &WorkspaceIndex,
) -> Vec<Violation> {
    let mut out = Vec::new();
    let file = &analysis.clean;
    if !analysis.is_test_file {
        if no_panic_applies(crate_name) {
            no_panic(rel_path, file, &mut out);
        }
        if LOSSY_CAST_CRATES.contains(&crate_name) {
            lossy_cast(rel_path, file, &mut out);
        }
        if EQ_DOC_CRATES.contains(&crate_name) {
            eq_doc(rel_path, file, &mut out);
        }
        if FORMULA_MODULES.iter().any(|m| rel_path.ends_with(m)) {
            invariant_wiring(rel_path, file, &mut out);
        }
        lock_discipline(rel_path, analysis, index, &mut out);
        atomics_ordering(rel_path, analysis, &mut out);
        unchecked_result(rel_path, analysis, index, &mut out);
    }
    safety_comment(rel_path, analysis, &mut out);
    out.sort_by(|a, b| {
        a.line
            .cmp(&b.line)
            .then_with(|| a.rule.name().cmp(b.rule.name()))
    });
    out
}

/// Crates R2 applies to (the numeric/hot-loop layers, the server's JSON
/// number handling, and the trace codec — narrowing a varint or payload
/// value silently corrupts it).
pub const LOSSY_CAST_CRATES: [&str; 6] = ["sim", "core", "stats", "topology", "server", "trace"];

/// Crates R3 applies to.
pub const EQ_DOC_CRATES: [&str; 2] = ["analysis", "exact"];

/// The eight formula modules R4 applies to.
pub const FORMULA_MODULES: [&str; 8] = [
    "crates/analysis/src/bandwidth.rs",
    "crates/analysis/src/degraded.rs",
    "crates/analysis/src/paper.rs",
    "crates/exact/src/enumerate.rs",
    "crates/exact/src/lumped.rs",
    "crates/exact/src/markov.rs",
    "crates/exact/src/transform.rs",
    "crates/fabric/src/analytic.rs",
];

/// R1 applies to every workspace crate (the CLI included — its command
/// paths are exactly the user-reachable ones).
fn no_panic_applies(_crate_name: &str) -> bool {
    true
}

/// R1: flag panic-capable calls/macros in non-test code.
fn no_panic(rel_path: &str, file: &CleanFile, out: &mut Vec<Violation>) {
    for (line_no, line) in file.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        for (col, tok) in idents(&line.code) {
            let after = col + tok.chars().count();
            let next = next_significant_char(&line.code, after);
            let hit = match tok.as_str() {
                "unwrap" | "expect" => next == Some('('),
                "panic" | "unreachable" | "todo" | "unimplemented" => next == Some('!'),
                _ => false,
            };
            if hit {
                out.push(Violation {
                    rule: Rule::NoPanic,
                    path: rel_path.to_owned(),
                    line: line_no + 1,
                    message: format!(
                        "`{tok}` can panic at runtime; return an error instead \
                         (or justify with `// lint:allow(no_panic, reason)`)"
                    ),
                });
            }
        }
    }
}

/// Integer targets an `as` cast can truncate or sign-change into, given the
/// workspace's prevailing `usize`/`u64` working types.
const NARROWING_TARGETS: [&str; 8] = ["i8", "i16", "i32", "i64", "isize", "u8", "u16", "u32"];

/// R2: flag `as` casts whose target can lose value range.
fn lossy_cast(rel_path: &str, file: &CleanFile, out: &mut Vec<Violation>) {
    for (line_no, line) in file.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        let toks = idents(&line.code);
        for pair in toks.windows(2) {
            let [(_, kw), (_, target)] = pair else {
                continue;
            };
            if kw == "as" && NARROWING_TARGETS.contains(&target.as_str()) {
                out.push(Violation {
                    rule: Rule::LossyCast,
                    path: rel_path.to_owned(),
                    line: line_no + 1,
                    message: format!(
                        "`as {target}` can truncate or change sign; use `try_from` \
                         (or justify with `// lint:allow(lossy_cast, reason)`)"
                    ),
                });
            }
        }
    }
}

/// Splits `eq4_full_bandwidth`-style names into their equation number.
fn equation_number(name: &str) -> Option<u32> {
    let rest = name.strip_prefix("eq")?;
    let digits: String = rest.chars().take_while(|c| c.is_ascii_digit()).collect();
    if digits.is_empty() {
        return None;
    }
    let tail = &rest[digits.len()..];
    if !(tail.is_empty() || tail.starts_with('_')) {
        return None;
    }
    digits.parse().ok()
}

/// Whether doc text cites any parenthesized equation number like `(4)`.
fn cites_some_equation(doc: &str) -> bool {
    let chars: Vec<char> = doc.chars().collect();
    for (i, &c) in chars.iter().enumerate() {
        if c == '(' {
            let mut j = i + 1;
            while j < chars.len() && chars[j].is_ascii_digit() {
                j += 1;
            }
            if j > i + 1 && chars.get(j) == Some(&')') {
                return true;
            }
        }
    }
    false
}

/// R3: equation-named public functions must cite their number; every public
/// function in `paper.rs` must cite *some* equation.
fn eq_doc(rel_path: &str, file: &CleanFile, out: &mut Vec<Violation>) {
    let is_paper_module = rel_path.ends_with("analysis/src/paper.rs");
    for item in fn_items(file) {
        if !item.is_plain_pub || file.lines[item.line].in_test {
            continue;
        }
        if let Some(n) = equation_number(&item.name) {
            let needle = format!("({n})");
            if !item.doc.contains(&needle) {
                out.push(Violation {
                    rule: Rule::EqDoc,
                    path: rel_path.to_owned(),
                    line: item.line + 1,
                    message: format!(
                        "`{}` implements a paper formula but its doc comment \
                         does not cite `eq ({n})`",
                        item.name
                    ),
                });
            }
        } else if is_paper_module && !cites_some_equation(&item.doc) {
            out.push(Violation {
                rule: Rule::EqDoc,
                path: rel_path.to_owned(),
                line: item.line + 1,
                message: format!(
                    "`{}` lives in the paper-formula module but its doc comment \
                     cites no equation number like `eq (N)`",
                    item.name
                ),
            });
        }
    }
}

/// The runtime checker entry points in `mbus_stats::prob::check`.
const CHECKER_FNS: [&str; 5] = [
    "assert_probability",
    "assert_probabilities",
    "assert_distribution_sums_to_one",
    "assert_bandwidth_bounds",
    "checked_probability",
];

/// Whether a function name marks a bandwidth/probability-producing formula.
fn is_formula_name(name: &str) -> bool {
    name.contains("bandwidth")
        || name.contains("probability")
        || name.contains("analyze")
        || name.contains("pmf")
        || name.contains("steady_state")
}

/// R4: formula functions must call a checker or delegate to another
/// formula/checker function that does.
fn invariant_wiring(rel_path: &str, file: &CleanFile, out: &mut Vec<Violation>) {
    for item in fn_items(file) {
        if !item.is_plain_pub || file.lines[item.line].in_test || !is_formula_name(&item.name) {
            continue;
        }
        let mut wired = false;
        for (col, tok) in idents(&item.body) {
            let after = col + tok.chars().count();
            if next_significant_char(&item.body, after) != Some('(') {
                continue;
            }
            if CHECKER_FNS.contains(&tok.as_str())
                || tok.starts_with("check")
                || (is_formula_name(&tok) && tok != item.name)
            {
                wired = true;
                break;
            }
        }
        if !wired {
            out.push(Violation {
                rule: Rule::InvariantWiring,
                path: rel_path.to_owned(),
                line: item.line + 1,
                message: format!(
                    "`{}` returns a bandwidth/probability but never routes it \
                     through `mbus_stats::prob::check` (directly or via a \
                     delegate formula function)",
                    item.name
                ),
            });
        }
    }
}

/// R5: every `unsafe` site needs a non-empty `SAFETY:` rationale; a
/// `#[target_feature]` fn's must name, in backticks, the runtime check
/// its callers rely on.
fn safety_comment(rel_path: &str, analysis: &FileAnalysis, out: &mut Vec<Violation>) {
    for site in &analysis.sites {
        let message = match (&site.rationale, site.kind) {
            (Some(rationale), UnsafeKind::TargetFeatureFn) if !names_code(rationale) => {
                "target_feature fn's safety rationale names no runtime check; \
                 name the feature check its callers rely on in backticks \
                 (e.g. `is_x86_feature_detected!`)"
                    .to_owned()
            }
            (Some(_), _) => continue,
            (None, kind) => {
                let hint = match kind {
                    UnsafeKind::Block => "a `// SAFETY:` comment",
                    UnsafeKind::TargetFeatureFn => {
                        "a `// SAFETY:` comment naming the runtime feature check"
                    }
                    _ => "a `// SAFETY:` comment or a `# Safety` doc section",
                };
                format!(
                    "{} has no safety rationale; add {hint} explaining why the \
                     invariants hold",
                    kind.label()
                )
            }
        };
        out.push(Violation {
            rule: Rule::SafetyComment,
            path: rel_path.to_owned(),
            line: site.line + 1,
            message,
        });
    }
}

/// Receivers allowed to use `Ordering::Relaxed`: monotonic stat counters
/// whose values are only ever read for reporting, never used to order
/// other memory operations.
pub const RELAXED_COUNTERS: [&str; 14] = [
    "hits",
    "misses",
    "inserts",
    "retained",
    "total",
    "shed",
    "responses_4xx",
    "responses_5xx",
    "workers",
    "busy_workers",
    "requests",
    "errors",
    "cache_hits",
    "latency_saturated",
];

/// Whether a violation line sits in test-only code (unit-test modules
/// inside `src/` files).
fn line_in_test(analysis: &FileAnalysis, line: usize) -> bool {
    analysis.clean.lines.get(line).is_some_and(|l| l.in_test)
}

/// R6: nested same-lock acquisition, callbacks invoked under a guard, and
/// workspace-level lock-order findings routed to this file.
fn lock_discipline(
    rel_path: &str,
    analysis: &FileAnalysis,
    index: &WorkspaceIndex,
    out: &mut Vec<Violation>,
) {
    for facts in &analysis.facts {
        for (lock, line) in &facts.nested_same {
            if line_in_test(analysis, *line) {
                continue;
            }
            out.push(Violation {
                rule: Rule::LockDiscipline,
                path: rel_path.to_owned(),
                line: line + 1,
                message: format!(
                    "lock `{lock}` acquired again while its guard is still \
                     live in `{}` — self-deadlock on non-reentrant std locks",
                    facts.name
                ),
            });
        }
        for (param, lock, line) in &facts.callback_under_lock {
            if line_in_test(analysis, *line) {
                continue;
            }
            out.push(Violation {
                rule: Rule::LockDiscipline,
                path: rel_path.to_owned(),
                line: line + 1,
                message: format!(
                    "callback `{param}` invoked in `{}` while guard of \
                     `{lock}` is live; run user code unlocked so re-entrant \
                     lookups cannot deadlock",
                    facts.name
                ),
            });
        }
    }
    for finding in index.cycles.iter().chain(&index.reacquires) {
        if finding.path == rel_path && !line_in_test(analysis, finding.line) {
            out.push(Violation {
                rule: Rule::LockDiscipline,
                path: rel_path.to_owned(),
                line: finding.line + 1,
                message: finding.message.clone(),
            });
        }
    }
}

/// R7: atomic ops must name an `Ordering`; `Relaxed` only on allowlisted
/// stat counters.
fn atomics_ordering(rel_path: &str, analysis: &FileAnalysis, out: &mut Vec<Violation>) {
    for facts in &analysis.facts {
        for op in &facts.atomic_ops {
            if line_in_test(analysis, op.line) {
                continue;
            }
            if op.orderings.is_empty() {
                out.push(Violation {
                    rule: Rule::AtomicsOrdering,
                    path: rel_path.to_owned(),
                    line: op.line + 1,
                    message: format!(
                        "`{}.{}` names no explicit `Ordering`; spell out the \
                         memory ordering at the call site",
                        op.receiver, op.method
                    ),
                });
            } else if op.orderings.iter().any(|o| o == "Relaxed")
                && !RELAXED_COUNTERS.contains(&op.receiver.as_str())
            {
                out.push(Violation {
                    rule: Rule::AtomicsOrdering,
                    path: rel_path.to_owned(),
                    line: op.line + 1,
                    message: format!(
                        "`{}.{}` uses `Ordering::Relaxed` but `{}` is not an \
                         allowlisted stat counter; use an acquire/release \
                         ordering or justify with an allow",
                        op.receiver, op.method, op.receiver
                    ),
                });
            }
        }
    }
}

/// R8: flag `let _ = f(...)` and bare `f(...);` statements whose final
/// depth-0 call resolves (by name, unanimously) to a `Result`-returning
/// workspace fn. Statements containing `?` or macros are exempt.
fn unchecked_result(
    rel_path: &str,
    analysis: &FileAnalysis,
    index: &WorkspaceIndex,
    out: &mut Vec<Violation>,
) {
    // Statement boundaries over the whole token stream: `;` `{` `}`, but
    // only at paren/bracket depth 0 — the `;` inside `vec![0u16; m]` or a
    // closure argument does not end the enclosing statement.
    let toks = &analysis.toks;
    let mut start = 0usize;
    let mut depth = 0usize;
    for i in 0..=toks.len() {
        if i < toks.len() {
            if toks[i].is_sym('(') || toks[i].is_sym('[') {
                depth += 1;
            } else if toks[i].is_sym(')') || toks[i].is_sym(']') {
                depth = depth.saturating_sub(1);
            }
        }
        let boundary = i == toks.len()
            || (depth == 0 && (toks[i].is_sym(';') || toks[i].is_sym('{') || toks[i].is_sym('}')));
        if !boundary {
            continue;
        }
        // Only `;`-terminated statements discard values.
        if i < toks.len() && toks[i].is_sym(';') {
            check_discard_stmt(rel_path, analysis, index, &toks[start..i], out);
        }
        start = i + 1;
    }
}

/// Examines one `;`-terminated statement for a discarded workspace Result.
fn check_discard_stmt(
    rel_path: &str,
    analysis: &FileAnalysis,
    index: &WorkspaceIndex,
    stmt: &[crate::items::Tok],
    out: &mut Vec<Violation>,
) {
    if stmt.is_empty() || line_in_test(analysis, stmt[0].line) {
        return;
    }
    if stmt.iter().any(|t| t.is_sym('?')) {
        return; // propagated
    }
    if stmt
        .iter()
        .take_while(|t| !t.is_sym('('))
        .any(|t| t.is_ident("fn"))
    {
        return; // a body-less fn declaration (trait method), not a call
    }
    let is_let_underscore =
        stmt.len() > 2 && stmt[0].is_ident("let") && stmt[1].is_ident("_") && stmt[2].is_sym('=');
    let has_binding = stmt
        .iter()
        .any(|t| t.is_sym('=') || t.is_ident("let") || t.is_ident("return"));
    if !is_let_underscore && has_binding {
        return; // assigned or returned somewhere — not a discard
    }
    // Last call target at paren depth 0: `ident (` outside any nesting.
    // A macro (`ident !`) is not a fn call.
    let body = if is_let_underscore { &stmt[3..] } else { stmt };
    let mut depth = 0usize;
    let mut last_call: Option<(&str, usize)> = None;
    for (j, t) in body.iter().enumerate() {
        if t.is_sym('(') || t.is_sym('[') {
            depth += 1;
        } else if t.is_sym(')') || t.is_sym(']') {
            depth = depth.saturating_sub(1);
        } else if depth == 0 {
            if let Some(w) = t.ident() {
                let next = body.get(j + 1);
                if next.is_some_and(|n| n.is_sym('(')) {
                    last_call = Some((w, t.line));
                } else if next.is_some_and(|n| n.is_sym('!')) {
                    return; // macro statement — not checkable by name
                }
            }
        }
    }
    let Some((callee, line)) = last_call else {
        return;
    };
    if index.result_fns.contains(callee) {
        let form = if is_let_underscore {
            "`let _ =`"
        } else {
            "bare statement"
        };
        out.push(Violation {
            rule: Rule::UncheckedResult,
            path: rel_path.to_owned(),
            line: line + 1,
            message: format!(
                "{form} discards the `Result` of `{callee}`; handle or \
                 propagate it (or justify with `// lint:allow(unchecked_result, reason)`)"
            ),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::{build_index, file_facts_of};
    use crate::items::{analyze_file, concurrency_decls, tokenize, unsafe_sites};
    use crate::lexer::clean;

    fn run_as(crate_name: &str, rel_path: &str, src: &str, is_test_file: bool) -> Vec<Violation> {
        let file = clean(src);
        let toks = tokenize(&file);
        let decls = concurrency_decls(&toks);
        let analysis = analyze_file(file, &decls, is_test_file);
        let index = build_index(&[file_facts_of(crate_name, rel_path, &analysis)]);
        check_file(crate_name, rel_path, &analysis, &index)
    }

    fn run(crate_name: &str, rel_path: &str, src: &str) -> Vec<Violation> {
        run_as(crate_name, rel_path, src, false)
    }

    #[test]
    fn no_panic_flags_each_forbidden_form() {
        let src = "\
fn a(x: Option<u8>) -> u8 { x.unwrap() }
fn b(x: Option<u8>) -> u8 { x.expect(\"msg\") }
fn c() { panic!(\"boom\") }
fn d() { unreachable!() }
fn e() { todo!() }
fn f() { unimplemented!() }
";
        let hits = run("sim", "crates/sim/src/x.rs", src);
        assert_eq!(hits.len(), 6);
        assert!(hits.iter().all(|v| v.rule == Rule::NoPanic));
        let lines: Vec<usize> = hits.iter().map(|v| v.line).collect();
        assert_eq!(lines, vec![1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn no_panic_ignores_test_code_and_lookalikes() {
        let src = "\
fn live() -> u8 { opts.unwrap_or(3) }
fn wrapper() { let unwrap = 1; drop(unwrap); }
#[cfg(test)]
mod tests {
    #[test]
    fn t() { x.unwrap(); }
}
";
        assert!(run("sim", "crates/sim/src/x.rs", src).is_empty());
    }

    #[test]
    fn lossy_cast_scopes_to_numeric_crates() {
        let src = "fn f(x: usize) -> u8 { x as u8 }\n";
        let hits = run("stats", "crates/stats/src/x.rs", src);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].rule, Rule::LossyCast);
        // Out-of-scope crate: silent.
        assert!(run("analysis", "crates/analysis/src/x.rs", src).is_empty());
    }

    #[test]
    fn widening_and_float_casts_pass() {
        let src = "fn f(x: u8, y: usize) -> f64 { (x as usize + y) as f64 }\n";
        assert!(run("stats", "crates/stats/src/x.rs", src).is_empty());
    }

    #[test]
    fn eq_doc_requires_matching_citation() {
        let good = "/// Implements eq (4) of the paper.\npub fn eq4_full(x: f64) -> f64 { x }\n";
        assert!(run("analysis", "crates/analysis/src/other.rs", good).is_empty());
        let wrong_number = "/// Implements eq (6).\npub fn eq4_full(x: f64) -> f64 { x }\n";
        let hits = run("analysis", "crates/analysis/src/other.rs", wrong_number);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].rule, Rule::EqDoc);
        // Private and pub(crate) fns are exempt.
        let private = "fn eq4_full(x: f64) -> f64 { x }\n";
        assert!(run("analysis", "crates/analysis/src/other.rs", private).is_empty());
    }

    #[test]
    fn eq_doc_requires_some_citation_in_paper_module() {
        let src = "/// Helper with no equation.\npub fn helper(x: f64) -> f64 { x }\n";
        let hits = run("analysis", "crates/analysis/src/paper.rs", src);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].rule, Rule::EqDoc);
        // The same function outside paper.rs is fine.
        assert!(run("analysis", "crates/analysis/src/sweep.rs", src).is_empty());
    }

    #[test]
    fn invariant_wiring_accepts_checker_calls_and_delegation() {
        let direct = "\
pub fn memory_bandwidth(x: f64) -> f64 {
    check::assert_bandwidth_bounds(x, 1, 1, 1);
    x
}
";
        assert!(run("analysis", "crates/analysis/src/bandwidth.rs", direct).is_empty());
        let delegated = "\
pub fn memory_bandwidth(x: f64) -> f64 { full_bandwidth(x) }
";
        assert!(run("analysis", "crates/analysis/src/bandwidth.rs", delegated).is_empty());
    }

    #[test]
    fn invariant_wiring_flags_unchecked_formula_fns() {
        let src = "pub fn memory_bandwidth(x: f64) -> f64 { x * 2.0 }\n";
        let hits = run("analysis", "crates/analysis/src/bandwidth.rs", src);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].rule, Rule::InvariantWiring);
        // Same file, non-formula name: exempt.
        let other = "pub fn render(x: f64) -> f64 { x * 2.0 }\n";
        assert!(run("analysis", "crates/analysis/src/bandwidth.rs", other).is_empty());
        // Formula fn outside the formula modules: exempt.
        assert!(run("analysis", "crates/analysis/src/sweep.rs", src).is_empty());
    }

    #[test]
    fn safety_comment_required_on_every_unsafe_site() {
        let bad = "pub fn f() { unsafe { libc() } }\n";
        let hits = run("server", "crates/server/src/x.rs", bad);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].rule, Rule::SafetyComment);
        assert_eq!(hits[0].line, 1);
        let good = "pub fn f() {\n    // SAFETY: handler only sets an atomic flag.\n    unsafe { libc() }\n}\n";
        assert!(run("server", "crates/server/src/x.rs", good).is_empty());
    }

    #[test]
    fn target_feature_fns_need_a_safety_comment_naming_the_check() {
        let path = "crates/sim/src/x.rs";
        // A safe and an unsafe target_feature fn with no rationale: one
        // violation each, reported at the `fn` line.
        let bare = "#[target_feature(enable = \"bmi2\")]\nfn f() {}\n\n\
                    #[inline]\n#[target_feature(enable = \"bmi2\")]\nunsafe fn g() {}\n";
        let hits = run("sim", path, bare);
        assert_eq!(hits.len(), 2, "{hits:?}");
        assert!(hits.iter().all(|v| v.rule == Rule::SafetyComment));
        assert_eq!((hits[0].line, hits[1].line), (2, 6));
        assert!(hits[1]
            .message
            .starts_with("target_feature fn has no safety rationale"));
        // A rationale that names no check in backticks is not enough.
        let vague = "// SAFETY: the CPU supports it.\n#[target_feature(enable = \"bmi2\")]\nunsafe fn g() {}\n";
        let hits = run("sim", path, vague);
        assert_eq!(hits.len(), 1);
        assert!(hits[0].message.contains("names no runtime check"));
        // Nor is a `# Safety` doc section.
        let doc = "/// # Safety\n/// Check `is_x86_feature_detected!` first.\n\
                   #[target_feature(enable = \"bmi2\")]\nunsafe fn g() {}\n";
        assert_eq!(run("sim", path, doc).len(), 1);
        // Naming the check passes, above or below other attributes.
        let good = "// SAFETY: callers hold a token from `detect`, which ran\n\
                    // `is_x86_feature_detected!(\"bmi2\")`.\n\
                    #[target_feature(enable = \"bmi2\")]\n#[inline]\nunsafe fn g() {}\n";
        assert!(run("sim", path, good).is_empty());
    }

    #[test]
    fn unsafe_report_lists_target_feature_fns_once() {
        let src = "// SAFETY: `detect` ran first.\n#[target_feature(enable = \"bmi2\")]\n\
                   unsafe fn g() {}\n// SAFETY: `detect` ran first.\n\
                   #[target_feature(enable = \"popcnt\")]\npub(crate) fn h() {}\n";
        let file = clean(src);
        let sites = unsafe_sites(&file, &tokenize(&file));
        let kinds: Vec<_> = sites.iter().map(|s| (s.line, s.kind)).collect();
        assert_eq!(
            kinds,
            [
                (2, UnsafeKind::TargetFeatureFn),
                (5, UnsafeKind::TargetFeatureFn)
            ]
        );
        assert!(sites
            .iter()
            .all(|s| s.rationale.as_deref() == Some("`detect` ran first.")));
        assert_eq!(UnsafeKind::TargetFeatureFn.label(), "target_feature fn");
    }

    #[test]
    fn safety_comment_applies_in_test_files_too() {
        let bad = "unsafe impl GlobalAlloc for A {}\n";
        let hits = run_as("sim", "crates/sim/tests/alloc.rs", bad, true);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].rule, Rule::SafetyComment);
        // And nothing else runs on test files.
        let panicky = "fn t() { x.unwrap(); }\n";
        assert!(run_as("sim", "crates/sim/tests/t.rs", panicky, true).is_empty());
    }

    #[test]
    fn lock_discipline_flags_nested_and_callback_under_guard() {
        let src = "\
struct S { q: Mutex<u8> }
impl S {
    pub fn bad<F: FnOnce() -> u8>(&self, compute: F) -> u8 {
        let g = self.q.lock();
        let h = self.q.lock();
        compute()
    }
}
";
        let hits = run("stats", "crates/stats/src/x.rs", src);
        let nested: Vec<_> = hits
            .iter()
            .filter(|v| v.message.contains("guard is still"))
            .collect();
        assert_eq!(nested.len(), 1);
        assert_eq!(nested[0].line, 5);
        assert!(hits
            .iter()
            .any(|v| v.message.contains("callback `compute`")));
        assert!(hits.iter().all(|v| v.rule == Rule::LockDiscipline));
    }

    #[test]
    fn lock_discipline_reports_order_inversions() {
        let src = "\
struct S { a: Mutex<u8>, b: Mutex<u8> }
impl S {
    fn fwd(&self) { let x = self.a.lock(); let y = self.b.lock(); }
    fn rev(&self) { let y = self.b.lock(); let x = self.a.lock(); }
}
";
        let hits = run("server", "crates/server/src/x.rs", src);
        assert!(
            hits.iter()
                .any(|v| v.rule == Rule::LockDiscipline && v.message.contains("inversion")),
            "{hits:?}"
        );
    }

    #[test]
    fn atomics_ordering_requires_explicit_ordering() {
        let src = "\
struct S { flag: AtomicBool }
impl S {
    fn f(&self, o: Ordering) {
        self.flag.store(true, o);
        self.flag.store(true, Ordering::SeqCst);
    }
}
";
        let hits = run("server", "crates/server/src/x.rs", src);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].rule, Rule::AtomicsOrdering);
        assert_eq!(hits[0].line, 4);
    }

    #[test]
    fn relaxed_only_on_allowlisted_counters() {
        let ok = "\
struct S { hits: AtomicU64 }
impl S { fn f(&self) { self.hits.fetch_add(1, Ordering::Relaxed); } }
";
        assert!(run("stats", "crates/stats/src/x.rs", ok).is_empty());
        let bad = "\
struct S { ready: AtomicBool }
impl S { fn f(&self) { self.ready.store(true, Ordering::Relaxed); } }
";
        let hits = run("server", "crates/server/src/x.rs", bad);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].rule, Rule::AtomicsOrdering);
        assert!(hits[0].message.contains("Relaxed"));
    }

    #[test]
    fn unchecked_result_flags_let_underscore_discards() {
        let src = "\
fn send() -> Result<(), E> { Ok(()) }
fn f() { let _ = send(); }
fn g() -> Result<(), E> { send()?; Ok(()) }
fn h() { let _ = infallible(); }
";
        let hits = run("server", "crates/server/src/x.rs", src);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].rule, Rule::UncheckedResult);
        assert_eq!(hits[0].line, 2);
    }

    #[test]
    fn unchecked_result_flags_bare_statement_discards() {
        let src = "\
fn send() -> Result<(), E> { Ok(()) }
fn f(x: &mut S) { send(); other_thing(x); }
";
        let hits = run("server", "crates/server/src/x.rs", src);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].line, 2);
    }

    #[test]
    fn unchecked_result_ignores_macros_and_bound_results() {
        let src = "\
fn send() -> Result<(), E> { Ok(()) }
fn f(w: &mut W) {
    let r = send();
    writeln!(w, \"x\");
    if send().is_err() { log(); }
}
";
        assert!(run("server", "crates/server/src/x.rs", src).is_empty());
    }

    #[test]
    fn unchecked_result_ignores_trait_method_declarations() {
        let src = "\
pub trait Source {
    fn field(&self, key: &str) -> Result<Option<usize>, E>;
    fn other(&self) -> Result<(), E>;
}
fn f(s: &dyn Source) { s.other(); }
";
        let hits = run("core", "crates/core/src/x.rs", src);
        assert_eq!(hits.len(), 1, "only the call discards: {hits:?}");
        assert_eq!(hits[0].line, 5);
    }

    #[test]
    fn unchecked_result_not_split_by_semicolons_inside_brackets() {
        // The `;` in `vec![0u16; m]` must not truncate the statement and
        // hide the trailing `?` that propagates the Result.
        let src = "\
fn intern(v: Vec<u16>) -> Result<usize, E> { Ok(v.len()) }
fn f(m: usize) -> Result<(), E> {
    intern(vec![0u16; m])?;
    Ok(())
}
";
        assert!(run("exact", "crates/exact/src/x.rs", src).is_empty());
    }

    #[test]
    fn equation_number_parsing() {
        assert_eq!(equation_number("eq4_full_bandwidth"), Some(4));
        assert_eq!(equation_number("eq12_kclass"), Some(12));
        assert_eq!(equation_number("eq9"), Some(9));
        assert_eq!(equation_number("equation"), None);
        assert_eq!(equation_number("eqx_thing"), None);
        assert_eq!(equation_number("frequency"), None);
    }
}
