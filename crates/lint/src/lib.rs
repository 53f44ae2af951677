//! `mbus-lint` — a dependency-free static-analysis pass over the
//! workspace's own source.
//!
//! The workspace vendors no parser crates, so `lexer` implements a small
//! hand-rolled Rust lexer (comments, strings, raw strings, char literals,
//! `#[cfg(test)]`/`mod tests` region tracking) whose cleaned output feeds
//! the rule engine in [`rules`]:
//!
//! - **R1 `no_panic`** — no `unwrap()` / `expect(` / `panic!` /
//!   `unreachable!` / `todo!` in non-test code, locking in the workspace's
//!   no-panic guarantee for user-reachable paths.
//! - **R2 `lossy_cast`** — no narrowing or sign-changing `as` casts in the
//!   numeric crates (`mbus-sim`, `mbus-core`, `mbus-stats`,
//!   `mbus-topology`), the server's JSON number handling
//!   (`mbus-server`), or the trace codec (`mbus-trace`); use
//!   `try_from` or an annotated allow.
//! - **R3 `eq_doc`** — paper-formula functions in `mbus-analysis` /
//!   `mbus-exact` must cite their equation number (`eq (N)`) in docs.
//! - **R4 `invariant_wiring`** — public bandwidth/probability functions in
//!   the seven formula modules must route results through
//!   `mbus_stats::prob::check`.
//!
//! On top of the lexer, `items` builds a lightweight item tree (function
//! spans, call sites, `unsafe` sites, lock/atomic declarations) and
//! `callgraph` assembles a workspace-wide approximate call graph; these
//! feed the semantic passes:
//!
//! - **R5 `safety_comment`** — every `unsafe` block/fn/impl/trait needs a
//!   non-empty `// SAFETY:` rationale, and every `#[target_feature]` fn a
//!   `// SAFETY:` that names in backticks the runtime feature check its
//!   callers rely on; the full inventory, target_feature fns included, is
//!   available via `mbus lint --unsafe-report`.
//! - **R6 `lock_discipline`** — per-function lock-acquisition analysis over
//!   named `Mutex`/`RwLock`/`Condvar` fields: re-acquiring a lock whose
//!   guard is still live (self-deadlock), lock-order inversions detected as
//!   cycles in the cross-function lock graph, and callbacks invoked while a
//!   guard is live.
//! - **R7 `atomics_ordering`** — atomic operations must name an explicit
//!   `Ordering`; `Relaxed` is allowed only on allowlisted stat counters.
//! - **R8 `unchecked_result`** — no `let _ =` or bare-statement discards of
//!   `Result`-returning workspace calls in non-test code.
//! - **R9 `unreached_pub`** — a plain `pub fn` in a library crate's `src/`
//!   must be named outside that `src/`: by another crate, the crate's own
//!   `tests/`, `examples/` or perfbench (the last two are read for names
//!   only). Its own crate's `src/`, unit tests and doc comments do not
//!   count, and neither does a `pub use` re-export; make such a function
//!   `pub(crate)`, where rustc's dead-code pass takes over. Only
//!   [`lint_workspace`] runs it.
//!
//! Violations are suppressed by per-line `// lint:allow(rule, reason)`
//! pragmas or the checked-in `lint.allow` file; reason-less or stale allows
//! are themselves violations (`allow_hygiene`). See `engine` for the
//! resolution order and `report` for the human/JSON/SARIF renderers used
//! by `mbus lint`.
//!
//! # Examples
//!
//! ```
//! let root = std::env::temp_dir().join(format!("mbus-lint-doc-{}", std::process::id()));
//! std::fs::create_dir_all(root.join("crates/sim/src"))?;
//! std::fs::write(
//!     root.join("crates/sim/src/lib.rs"),
//!     "pub(crate) fn f(x: Option<u8>) -> u8 { x.unwrap() }\n",
//! )?;
//! let report = mbus_lint::lint_workspace(&root)?;
//! std::fs::remove_dir_all(&root)?;
//! assert_eq!(report.violations.len(), 1);
//! assert_eq!(report.violations[0].rule.to_string(), "no_panic");
//! # Ok::<(), std::io::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub(crate) mod callgraph;
pub(crate) mod engine;
pub(crate) mod items;
pub(crate) mod lexer;
pub(crate) mod report;
pub mod rules;

pub use engine::{lint_workspace, workspace_source_files, LintReport, UnsafeInventoryEntry};
pub use report::{render_human, render_json, render_sarif, render_unsafe_report};
