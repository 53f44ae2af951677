//! Token stream and item-tree extraction for the semantic lint passes.
//!
//! Built on top of [`crate::lexer::clean`]: the cleaned lines are flattened
//! into a stream of identifier/symbol tokens, and brace matching over that
//! stream recovers function spans (signature + body ranges), `unsafe` sites,
//! lock/atomic field declarations, and per-function concurrency facts
//! (which locks a body acquires, what it calls while a guard is live).
//!
//! This is deliberately an *approximate* item tree — no type inference, no
//! name resolution beyond "same identifier". The call graph built from it
//! (see [`crate::callgraph`]) merges functions by name, which is documented
//! imprecision: DESIGN.md §13 lists the consequences and mitigations.

use crate::lexer::CleanFile;
use std::collections::BTreeSet;
use std::ops::Range;

/// One token of cleaned source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Tok {
    /// 0-based source line the token starts on.
    pub(crate) line: usize,
    /// The token's kind and text.
    pub(crate) kind: TokKind,
}

/// Token kind: a word (identifier or keyword) or a single symbol char.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum TokKind {
    /// Identifier or keyword text.
    Ident(String),
    /// Any single non-identifier, non-whitespace character.
    Sym(char),
}

impl Tok {
    /// The identifier text, if this token is a word.
    pub(crate) fn ident(&self) -> Option<&str> {
        match &self.kind {
            TokKind::Ident(s) => Some(s.as_str()),
            TokKind::Sym(_) => None,
        }
    }

    /// `true` if the token is the symbol `c`.
    pub(crate) fn is_sym(&self, c: char) -> bool {
        self.kind == TokKind::Sym(c)
    }

    /// `true` if the token is the word `w`.
    pub(crate) fn is_ident(&self, w: &str) -> bool {
        self.ident() == Some(w)
    }
}

/// Flattens a cleaned file into a token stream. Numeric literals are
/// dropped entirely (their suffixes would otherwise read as identifiers);
/// whitespace separates tokens and is not represented.
pub(crate) fn tokenize(file: &CleanFile) -> Vec<Tok> {
    let mut out = Vec::new();
    for (line_no, line) in file.lines.iter().enumerate() {
        let chars: Vec<char> = line.code.chars().collect();
        let mut i = 0usize;
        while i < chars.len() {
            let c = chars[i];
            if c.is_alphabetic() || c == '_' {
                let start = i;
                while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
                out.push(Tok {
                    line: line_no,
                    kind: TokKind::Ident(chars[start..i].iter().collect()),
                });
            } else if c.is_ascii_digit() {
                // Numeric literal (incl. suffix like 1u64 and 1.5e-3).
                while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
                // Float continuation `1.5`: consume `.digits` so the dot is
                // not mistaken for a method-call dot.
                if chars.get(i) == Some(&'.')
                    && chars.get(i + 1).is_some_and(|d| d.is_ascii_digit())
                {
                    i += 1;
                    while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                        i += 1;
                    }
                }
            } else if c.is_whitespace() {
                i += 1;
            } else {
                out.push(Tok {
                    line: line_no,
                    kind: TokKind::Sym(c),
                });
                i += 1;
            }
        }
    }
    out
}

/// Every word of the stream that names something: each identifier except
/// the name a `fn NAME` defines and the words of a `pub use` (or
/// `pub(...) use`) re-export, through its `;`. Rule R9 `unreached_pub`
/// counts these.
pub(crate) fn name_uses(toks: &[Tok]) -> Vec<&str> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].is_ident("pub") {
            let mut j = i + 1;
            if toks.get(j).is_some_and(|t| t.is_sym('(')) {
                while j < toks.len() && !toks[j].is_sym(')') {
                    j += 1;
                }
                j += 1;
            }
            if toks.get(j).is_some_and(|t| t.is_ident("use")) {
                while j < toks.len() && !toks[j].is_sym(';') {
                    j += 1;
                }
                i = j + 1;
                continue;
            }
        }
        if let Some(word) = toks[i].ident() {
            if !(i > 0 && toks[i - 1].is_ident("fn")) {
                out.push(word);
            }
        }
        i += 1;
    }
    out
}

/// A function item with token-index spans into the stream that produced it.
#[derive(Debug, Clone)]
pub(crate) struct FnSpan {
    /// The function's name.
    pub(crate) name: String,
    /// 0-based line of the `fn` keyword.
    pub(crate) line: usize,
    /// Token range of the body, excluding the outer braces. Empty for
    /// bodyless declarations (`fn f(&self) -> T;`).
    pub(crate) body: Range<usize>,
    /// Parameter names whose types are `Fn`/`FnMut`/`FnOnce` callbacks,
    /// whether written inline (`impl FnOnce()`) or via a generic bound.
    pub(crate) callback_params: Vec<String>,
    /// Whether the declared return type mentions `Result`.
    pub(crate) returns_result: bool,
}

/// Extracts every `fn` item from the token stream with brace-matched spans.
pub(crate) fn fn_spans(toks: &[Tok]) -> Vec<FnSpan> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if !toks[i].is_ident("fn") {
            i += 1;
            continue;
        }
        let Some(name) = toks.get(i + 1).and_then(|t| t.ident()) else {
            i += 1;
            continue;
        };
        // Signature runs until the body `{` or a `;` (bodyless decl). Fn
        // signatures contain no braces, so the first one ends the sig.
        let mut sig_end = i + 2;
        while sig_end < toks.len() && !toks[sig_end].is_sym('{') && !toks[sig_end].is_sym(';') {
            sig_end += 1;
        }
        let sig = i..sig_end;
        let body = if toks.get(sig_end).is_some_and(|t| t.is_sym('{')) {
            let close = match_brace(toks, sig_end);
            sig_end + 1..close
        } else {
            sig_end..sig_end
        };
        out.push(FnSpan {
            name: name.to_owned(),
            line: toks[i].line,
            callback_params: callback_params(&toks[sig.clone()]),
            returns_result: returns_result(&toks[sig]),
            body,
        });
        // Continue from just past the signature so nested fns inside the
        // body are discovered as their own items too.
        i = sig_end + 1;
    }
    out
}

/// Index of the `}` matching the `{` at `open` (or the last token if the
/// stream is truncated).
fn match_brace(toks: &[Tok], open: usize) -> usize {
    let mut depth = 0usize;
    let mut i = open;
    while i < toks.len() {
        if toks[i].is_sym('{') {
            depth += 1;
        } else if toks[i].is_sym('}') {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
        i += 1;
    }
    toks.len().saturating_sub(1)
}

/// Whether the signature's return type mentions `Result`.
fn returns_result(sig: &[Tok]) -> bool {
    let mut i = 0usize;
    while i + 1 < sig.len() {
        if sig[i].is_sym('-') && sig[i + 1].is_sym('>') {
            // Return type runs to `where` or end of sig.
            return sig[i + 2..]
                .iter()
                .take_while(|t| !t.is_ident("where"))
                .any(|t| t.is_ident("Result"));
        }
        i += 1;
    }
    false
}

/// Collects parameter names with `Fn`/`FnMut`/`FnOnce` types from a fn
/// signature: inline `impl Fn...` params plus params typed by a generic
/// whose bound (in `<...>` or the `where` clause) is a closure trait.
fn callback_params(sig: &[Tok]) -> Vec<String> {
    let closure_generics = closure_bound_generics(sig);
    let mut out = Vec::new();
    // Param list: the first `(` at angle-depth 0 — parens inside the
    // generics list (`<F: FnOnce() -> V>`) belong to closure bounds, not
    // the parameter list.
    let mut open = None;
    let mut pre_angle = 0isize;
    for (i, t) in sig.iter().enumerate() {
        if t.is_sym('<') {
            pre_angle += 1;
        } else if t.is_sym('>') && !(i > 0 && sig[i - 1].is_sym('-')) {
            pre_angle -= 1;
        } else if t.is_sym('(') && pre_angle == 0 {
            open = Some(i);
            break;
        }
    }
    let Some(open) = open else {
        return out;
    };
    let mut depth = 0usize;
    let mut angle = 0isize;
    let mut param_start = open + 1;
    let mut i = open;
    while i < sig.len() {
        let t = &sig[i];
        if t.is_sym('(') || t.is_sym('[') {
            depth += 1;
        } else if t.is_sym(')') || t.is_sym(']') {
            depth -= 1;
            if depth == 0 {
                push_callback_param(&sig[param_start..i], &closure_generics, &mut out);
                break;
            }
        } else if t.is_sym('<') {
            angle += 1;
        } else if t.is_sym('>') && !sig.get(i.wrapping_sub(1)).is_some_and(|p| p.is_sym('-')) {
            angle -= 1;
        } else if t.is_sym(',') && depth == 1 && angle == 0 {
            push_callback_param(&sig[param_start..i], &closure_generics, &mut out);
            param_start = i + 1;
        }
        i += 1;
    }
    out
}

/// If the param tokens `name : type...` carry a closure type, records the
/// param name.
fn push_callback_param(param: &[Tok], closure_generics: &BTreeSet<String>, out: &mut Vec<String>) {
    let Some(colon) = param.iter().position(|t| t.is_sym(':')) else {
        return; // `self` / `&mut self`
    };
    let name = param[..colon]
        .iter()
        .filter_map(|t| t.ident())
        .find(|w| *w != "mut");
    let Some(name) = name else { return };
    let ty = &param[colon + 1..];
    let is_closure = ty.iter().any(|t| {
        t.ident()
            .is_some_and(|w| is_closure_trait(w) || closure_generics.contains(w))
    });
    if is_closure {
        out.push(name.to_owned());
    }
}

/// `Fn` / `FnMut` / `FnOnce`.
fn is_closure_trait(w: &str) -> bool {
    matches!(w, "Fn" | "FnMut" | "FnOnce")
}

/// Generic parameter names bound by a closure trait, from both the `<...>`
/// list after the fn name and the `where` clause.
fn closure_bound_generics(sig: &[Tok]) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    // `Name : ...bounds...` groups anywhere in the sig outside the param
    // parens; bounds end at `,` `>` `{` or another `Name :`. Scanning the
    // whole sig (rather than delimiting the generics list exactly) is safe
    // because param-list `name: type` groups can only *add* a false closure
    // generic if a param name shadows a generic — not valid Rust.
    let mut i = 0usize;
    while i + 1 < sig.len() {
        if let Some(name) = sig[i].ident() {
            if sig[i + 1].is_sym(':') && !sig.get(i + 2).is_some_and(|t| t.is_sym(':')) {
                // Bound list: scan forward for a closure trait before the
                // group ends at `,` (angle depth 0) or `{`.
                let mut j = i + 2;
                let mut angle = 0isize;
                let mut par = 0isize;
                while j < sig.len() {
                    let t = &sig[j];
                    if t.is_sym('<') {
                        angle += 1;
                    } else if t.is_sym('>') && !sig[j - 1].is_sym('-') {
                        angle -= 1;
                        if angle < 0 {
                            break;
                        }
                    } else if t.is_sym('(') {
                        par += 1;
                    } else if t.is_sym(')') {
                        par -= 1;
                        if par < 0 {
                            break;
                        }
                    } else if t.is_sym(',') && angle == 0 && par == 0 {
                        break;
                    } else if t.ident().is_some_and(is_closure_trait) {
                        out.insert(name.to_owned());
                        break;
                    }
                    j += 1;
                }
            }
        }
        i += 1;
    }
    out
}

/// What an `unsafe` keyword introduces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum UnsafeKind {
    /// An `unsafe { ... }` block.
    Block,
    /// An `unsafe fn` (incl. `unsafe extern ... fn`).
    Fn,
    /// An `unsafe impl` (e.g. for `Send`/`Sync`/`GlobalAlloc`).
    Impl,
    /// An `unsafe trait` declaration.
    Trait,
    /// A `#[target_feature]` fn, `unsafe` or not: calling it is sound
    /// only on a CPU a runtime check has shown to have the features.
    TargetFeatureFn,
}

impl UnsafeKind {
    /// Human-readable label for reports.
    pub(crate) fn label(self) -> &'static str {
        match self {
            UnsafeKind::Block => "unsafe block",
            UnsafeKind::Fn => "unsafe fn",
            UnsafeKind::Impl => "unsafe impl",
            UnsafeKind::Trait => "unsafe trait",
            UnsafeKind::TargetFeatureFn => "target_feature fn",
        }
    }
}

/// One `unsafe` site with its (possibly missing) `SAFETY:` rationale.
#[derive(Debug, Clone)]
pub(crate) struct UnsafeSite {
    /// 0-based line of the `unsafe` keyword.
    pub(crate) line: usize,
    /// What the keyword introduces.
    pub(crate) kind: UnsafeKind,
    /// The rationale text after `SAFETY:`, if a non-empty one was found on
    /// the same line or in the contiguous comment block above.
    pub(crate) rationale: Option<String>,
}

/// Finds every `unsafe` keyword and every `#[target_feature]` fn in the
/// stream and classifies them, attaching the `SAFETY:` rationale from
/// surrounding comments when present. An `unsafe fn` with a
/// `#[target_feature]` attribute is one [`UnsafeKind::TargetFeatureFn`]
/// site; a safe one is listed at its `fn` keyword.
pub(crate) fn unsafe_sites(file: &CleanFile, toks: &[Tok]) -> Vec<UnsafeSite> {
    let mut feature_fns = target_feature_fn_lines(toks);
    let mut sites: Vec<(usize, UnsafeKind)> = Vec::new();
    for (i, tok) in toks.iter().enumerate() {
        if !tok.is_ident("unsafe") {
            continue;
        }
        let kind = match toks.get(i + 1) {
            Some(t) if t.is_ident("fn") && feature_fns.remove(&t.line) => {
                UnsafeKind::TargetFeatureFn
            }
            Some(t) if t.is_ident("fn") || t.is_ident("extern") => UnsafeKind::Fn,
            Some(t) if t.is_ident("impl") => UnsafeKind::Impl,
            Some(t) if t.is_ident("trait") => UnsafeKind::Trait,
            _ => UnsafeKind::Block,
        };
        sites.push((tok.line, kind));
    }
    sites.extend(
        feature_fns
            .into_iter()
            .map(|line| (line, UnsafeKind::TargetFeatureFn)),
    );
    sites.sort_by_key(|&(line, _)| line);
    sites
        .into_iter()
        .map(|(line, kind)| UnsafeSite {
            line,
            kind,
            rationale: safety_rationale(file, line, kind),
        })
        .collect()
}

/// Lines of the `fn` keywords that follow a `#[target_feature(...)]`
/// attribute (other attributes and qualifiers may sit in between).
fn target_feature_fn_lines(toks: &[Tok]) -> BTreeSet<usize> {
    let mut lines = BTreeSet::new();
    for (i, tok) in toks.iter().enumerate() {
        let is_attr = tok.is_ident("target_feature")
            && i >= 2
            && toks[i - 1].is_sym('[')
            && toks[i - 2].is_sym('#');
        if !is_attr {
            continue;
        }
        // The first `fn` before any body or item end is the attributed fn.
        if let Some(f) = toks[i..]
            .iter()
            .take_while(|t| !t.is_sym('{') && !t.is_sym(';'))
            .find(|t| t.is_ident("fn"))
        {
            lines.insert(f.line);
        }
    }
    lines
}

/// Whether a `SAFETY:` rationale names something in backticks — for a
/// `#[target_feature]` fn, the runtime feature check its callers rely
/// on (e.g. `` `is_x86_feature_detected!` ``).
pub(crate) fn names_code(rationale: &str) -> bool {
    let pieces: Vec<&str> = rationale.split('`').collect();
    // Every odd piece up to the last backtick pair is a code span.
    let pairs = (pieces.len() - 1) / 2;
    pieces
        .iter()
        .skip(1)
        .step_by(2)
        .take(pairs)
        .any(|span| !span.trim().is_empty())
}

/// Extracts the `SAFETY:` rationale for an unsafe site at `line`: the same
/// line's trailing comment, else the contiguous comment/attribute block
/// directly above (blank lines break the attachment). For `unsafe fn` /
/// `impl` / `trait` items a doc comment with a `# Safety` section counts;
/// a `#[target_feature]` fn needs the `// SAFETY:` comment.
fn safety_rationale(file: &CleanFile, line: usize, kind: UnsafeKind) -> Option<String> {
    let mut comments: Vec<&str> = Vec::new();
    if let Some(c) = file.lines.get(line).and_then(|l| l.comment.as_deref()) {
        comments.push(c);
    }
    let mut docs: Vec<&str> = Vec::new();
    let mut l = line;
    while l > 0 {
        l -= 1;
        let ln = &file.lines[l];
        if let Some(c) = &ln.comment {
            comments.insert(0, c);
        } else if let Some(d) = &ln.doc {
            docs.insert(0, d);
        } else if !ln.code.trim_start().starts_with("#[") {
            break; // blank line or unrelated code ends the attachment
        }
    }
    let joined = comments.join(" ");
    if let Some(pos) = joined.find("SAFETY:") {
        let text = joined[pos + "SAFETY:".len()..].trim();
        if !text.is_empty() {
            return Some(text.to_owned());
        }
    }
    if matches!(kind, UnsafeKind::Fn | UnsafeKind::Impl | UnsafeKind::Trait) {
        let doc = docs.join(" ");
        if let Some(pos) = doc.find("# Safety") {
            let text = doc[pos + "# Safety".len()..].trim();
            if !text.is_empty() {
                return Some(text.to_owned());
            }
        }
    }
    None
}

/// Names that denote synchronization primitives in the scanned workspace.
#[derive(Debug, Clone, Default)]
pub(crate) struct ConcurrencyDecls {
    /// Lock identities: field/static names declared with a `Mutex` /
    /// `RwLock` / `Condvar` type (directly, via a wrapper such as `Box` /
    /// `Arc` / slices, or via a local `type` alias), plus names of fns whose
    /// return type is a lock (lock-getter pattern, e.g. `fn shard(..) ->
    /// &Shard<K, V>`).
    pub(crate) locks: BTreeSet<String>,
    /// Field/static names declared with an `Atomic*` type.
    pub(crate) atomics: BTreeSet<String>,
    /// Names declared as `Condvar` (subset of `locks` wait-side handling).
    pub(crate) condvars: BTreeSet<String>,
}

/// Built-in lock type names.
const LOCK_TYPES: [&str; 3] = ["Mutex", "RwLock", "Condvar"];

/// Scans declarations (`name: LockType<...>`, `static NAME: AtomicU64`,
/// `type Alias = RwLock<...>`, lock-returning fns) for lock and atomic
/// identities. Returns names only — identity is by name across the file
/// (and, after merging in the engine, across the crate).
pub(crate) fn concurrency_decls(toks: &[Tok]) -> ConcurrencyDecls {
    let mut decls = ConcurrencyDecls::default();
    // Pass 1: `type X = <lock type>` aliases extend the lock-type set. Two
    // sweeps handle aliases declared before use of another alias.
    let mut lock_types: BTreeSet<String> = LOCK_TYPES.iter().map(|s| (*s).to_owned()).collect();
    for _ in 0..2 {
        let mut i = 0usize;
        while i < toks.len() {
            if toks[i].is_ident("type") {
                if let Some(alias) = toks.get(i + 1).and_then(|t| t.ident()) {
                    // Skip generics to the `=`, then look for a lock type
                    // before the terminating `;`.
                    let mut j = i + 2;
                    while j < toks.len() && !toks[j].is_sym('=') && !toks[j].is_sym(';') {
                        j += 1;
                    }
                    if toks.get(j).is_some_and(|t| t.is_sym('=')) {
                        let mut k = j + 1;
                        while k < toks.len() && !toks[k].is_sym(';') {
                            if toks[k].ident().is_some_and(|w| lock_types.contains(w)) {
                                lock_types.insert(alias.to_owned());
                                break;
                            }
                            k += 1;
                        }
                    }
                }
            }
            i += 1;
        }
    }

    for (i, tok) in toks.iter().enumerate() {
        let Some(word) = tok.ident() else { continue };
        let is_lock = lock_types.contains(word);
        let is_atomic = word.starts_with("Atomic") && word.len() > "Atomic".len();
        if !is_lock && !is_atomic {
            continue;
        }
        if let Some(name) = declared_name(toks, i) {
            if is_lock {
                decls.locks.insert(name.clone());
                if word == "Condvar" {
                    decls.condvars.insert(name);
                }
            } else {
                decls.atomics.insert(name);
            }
        } else if is_lock {
            // Return-type position: `fn name(..) -> &Alias<..>` makes the
            // fn itself a lock source.
            if let Some(fn_name) = enclosing_fn_if_return_type(toks, i) {
                decls.locks.insert(fn_name);
            }
        }
    }
    decls
}

/// Walks back from a type token at `i` to the `name :` that declares it,
/// skipping wrapper types, generics, references, and path segments. Returns
/// `None` when the token is not in a declaration-type position (e.g. a
/// `Mutex::new(..)` expression's path, or a return type).
fn declared_name(toks: &[Tok], i: usize) -> Option<String> {
    // A path expression `Mutex::new` has `::` *after* the type name; that
    // is fine — we walk left. But `self.queue.lock()` never mentions the
    // type, so only declarations reach here.
    let mut j = i;
    while j > 0 {
        j -= 1;
        let t = &toks[j];
        if t.is_sym(':') {
            if j > 0 && toks[j - 1].is_sym(':') {
                // `::` path separator — skip it and the segment before it.
                j -= 1;
                continue;
            }
            // Declaration colon: the name is the ident just before it.
            return toks
                .get(j.wrapping_sub(1))
                .and_then(|t| t.ident())
                .map(str::to_owned);
        }
        let wrapper_sym = t.is_sym('<')
            || t.is_sym('[')
            || t.is_sym('&')
            || t.is_sym('\'')
            || t.is_sym(',')
            || t.is_sym('(');
        let wrapper_word = t.ident().is_some_and(|w| {
            matches!(
                w,
                "Box"
                    | "Arc"
                    | "Rc"
                    | "Vec"
                    | "Option"
                    | "mut"
                    | "dyn"
                    | "std"
                    | "sync"
                    | "parking_lot"
            )
        });
        if !wrapper_sym && !wrapper_word {
            return None;
        }
    }
    None
}

/// If the type token at `i` sits in a fn's return type (`-> ... T ...`),
/// returns that fn's name.
fn enclosing_fn_if_return_type(toks: &[Tok], i: usize) -> Option<String> {
    // Walk back looking for the `->` arrow before hitting a boundary.
    let mut j = i;
    let mut seen_arrow = false;
    while j > 0 {
        j -= 1;
        let t = &toks[j];
        if t.is_sym('>') && j > 0 && toks[j - 1].is_sym('-') {
            seen_arrow = true;
            j -= 1;
            continue;
        }
        if t.is_sym('{') || t.is_sym('}') || t.is_sym(';') {
            return None;
        }
        if t.is_ident("fn") && seen_arrow {
            return toks.get(j + 1).and_then(|t| t.ident()).map(str::to_owned);
        }
    }
    None
}

/// One atomic operation found in a fn body.
#[derive(Debug, Clone)]
pub(crate) struct AtomicOp {
    /// Name of the atomic field/static operated on.
    pub(crate) receiver: String,
    /// The method invoked (`load`, `store`, `fetch_add`, ...).
    pub(crate) method: String,
    /// 0-based line of the call.
    pub(crate) line: usize,
    /// `Ordering` variants named literally in the argument list.
    pub(crate) orderings: Vec<String>,
}

/// Concurrency facts extracted from one fn body by a guard-liveness scan.
#[derive(Debug, Clone, Default)]
pub(crate) struct FnFacts {
    /// The fn's name.
    pub(crate) name: String,
    /// 0-based line of the fn item.
    pub(crate) line: usize,
    /// Lock acquisitions `(lock, line)` anywhere in the body.
    pub(crate) acquires: Vec<(String, usize)>,
    /// Re-acquisition of a lock whose guard is still live: `(lock, line)`.
    pub(crate) nested_same: Vec<(String, usize)>,
    /// `(held, acquired, line)`: lock-order edges within this body.
    pub(crate) order_edges: Vec<(String, String, usize)>,
    /// Callback parameters invoked while a guard is live:
    /// `(param, lock, line)`.
    pub(crate) callback_under_lock: Vec<(String, String, usize)>,
    /// Every call-like target name in the body (fn calls + method calls).
    pub(crate) calls: BTreeSet<String>,
    /// Calls made while a guard is live: `(callee, lock, line)`.
    pub(crate) calls_under: Vec<(String, String, usize)>,
    /// Atomic operations on declared `Atomic*` names.
    pub(crate) atomic_ops: Vec<AtomicOp>,
}

/// A live lock guard during the body scan.
struct Guard {
    lock: String,
    /// `let`-bound variable holding the guard, if any.
    var: Option<String>,
    /// Brace depth (relative to the body) the guard was created at.
    depth: usize,
    /// Temporaries (no `let`) die at the next `;` at their depth.
    temp: bool,
    /// `if let` / `while let` / `match` scrutinee guards die when brace
    /// depth returns to their creation depth (end of the control block).
    kill_at_close: bool,
}

/// Chain methods that pass the guard through (`lock().unwrap()` is still a
/// guard); any other chained call consumes it (`lock().unwrap().len()`).
const GUARD_CHAIN: [&str; 5] = ["unwrap", "expect", "ok", "unwrap_or_else", "map_err"];

/// Guard-producing methods on lock receivers.
const ACQUIRE_METHODS: [&str; 3] = ["lock", "read", "write"];

/// Atomic operation method names (std `Atomic*` API).
const ATOMIC_METHODS: [&str; 15] = [
    "load",
    "store",
    "swap",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "fetch_nand",
    "fetch_max",
    "fetch_min",
    "fetch_update",
    "compare_exchange",
    "compare_exchange_weak",
    "compare_and_swap",
];

/// `std::sync::atomic::Ordering` variant names.
pub(crate) const ORDERINGS: [&str; 5] = ["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// Keywords that look like `ident (` but are not calls.
const NON_CALL_KEYWORDS: [&str; 12] = [
    "if", "while", "match", "for", "loop", "return", "fn", "let", "in", "as", "move", "else",
];

/// Scans a fn body for lock acquisitions (with guard liveness), calls made
/// under live guards, callback invocations under guards, and atomic ops.
pub(crate) fn scan_fn(span: &FnSpan, toks: &[Tok], decls: &ConcurrencyDecls) -> FnFacts {
    let mut facts = FnFacts {
        name: span.name.clone(),
        line: span.line,
        ..FnFacts::default()
    };
    let body = &toks[span.body.clone()];
    let mut guards: Vec<Guard> = Vec::new();
    let mut depth = 0usize;
    let mut stmt_start = 0usize;

    let mut i = 0usize;
    while i < body.len() {
        let t = &body[i];
        if t.is_sym('{') {
            depth += 1;
            stmt_start = i + 1;
        } else if t.is_sym('}') {
            depth = depth.saturating_sub(1);
            guards.retain(|g| g.depth <= depth && !(g.kill_at_close && g.depth >= depth));
            stmt_start = i + 1;
        } else if t.is_sym(';') {
            guards.retain(|g| !(g.temp && g.depth >= depth));
            stmt_start = i + 1;
        } else if t.is_sym('.') {
            // Method call `recv.m(...)`.
            if let (Some(m), true) = (
                body.get(i + 1).and_then(|t| t.ident()),
                body.get(i + 2).is_some_and(|t| t.is_sym('(')),
            ) {
                let line = body[i + 1].line;
                let receiver = receiver_name(body, i);
                let is_acquire = ACQUIRE_METHODS.contains(&m)
                    && receiver.as_deref().is_some_and(|r| decls.locks.contains(r));
                let is_atomic = ATOMIC_METHODS.contains(&m)
                    && receiver
                        .as_deref()
                        .is_some_and(|r| decls.atomics.contains(r));
                facts.calls.insert(m.to_owned());
                for g in &guards {
                    facts.calls_under.push((m.to_owned(), g.lock.clone(), line));
                }
                if is_acquire {
                    let lock = receiver.unwrap_or_default();
                    facts.acquires.push((lock.clone(), line));
                    for g in &guards {
                        if g.lock == lock {
                            facts.nested_same.push((lock.clone(), line));
                        } else {
                            facts.order_edges.push((g.lock.clone(), lock.clone(), line));
                        }
                    }
                    let stmt = &body[stmt_start..i];
                    let in_ctrl = stmt
                        .iter()
                        .any(|t| t.is_ident("if") || t.is_ident("while") || t.is_ident("match"));
                    let consumed = chain_consumes_guard(body, i + 2);
                    let var = if in_ctrl || consumed {
                        None
                    } else {
                        let_bound_var(stmt)
                    };
                    guards.push(Guard {
                        lock,
                        temp: var.is_none() && !in_ctrl,
                        var,
                        depth,
                        kill_at_close: in_ctrl,
                    });
                } else if is_atomic {
                    facts.atomic_ops.push(AtomicOp {
                        receiver: receiver.unwrap_or_default(),
                        method: m.to_owned(),
                        line,
                        orderings: orderings_in_args(body, i + 2),
                    });
                }
                i += 2;
                continue;
            }
        } else if let Some(w) = t.ident() {
            // Plain call `w(...)` — not a method, not a macro, not a keyword.
            let prev_dot = i > 0 && body[i - 1].is_sym('.');
            let next_open = body.get(i + 1).is_some_and(|t| t.is_sym('('));
            let next_bang = body.get(i + 1).is_some_and(|t| t.is_sym('!'));
            if next_open && !prev_dot && !next_bang && !NON_CALL_KEYWORDS.contains(&w) {
                let line = t.line;
                if w == "drop" {
                    if let Some(victim) = body.get(i + 2).and_then(|t| t.ident()) {
                        guards.retain(|g| g.var.as_deref() != Some(victim));
                    }
                } else {
                    facts.calls.insert(w.to_owned());
                    for g in &guards {
                        facts.calls_under.push((w.to_owned(), g.lock.clone(), line));
                        if span.callback_params.iter().any(|p| p == w) {
                            facts
                                .callback_under_lock
                                .push((w.to_owned(), g.lock.clone(), line));
                        }
                    }
                }
            }
        }
        i += 1;
    }
    facts
}

/// Resolves the receiver name of a method call whose `.` sits at `dot`:
/// the ident just before the dot, or — for `f(args).m()` / `xs[i].m()` —
/// the ident before the matched `(` / `[` group.
fn receiver_name(body: &[Tok], dot: usize) -> Option<String> {
    if dot == 0 {
        return None;
    }
    let prev = &body[dot - 1];
    if let Some(w) = prev.ident() {
        return Some(w.to_owned());
    }
    let (close, open) = match prev.kind {
        TokKind::Sym(')') => (')', '('),
        TokKind::Sym(']') => (']', '['),
        _ => return None,
    };
    let mut depth = 0usize;
    let mut j = dot - 1;
    loop {
        let t = &body[j];
        if t.is_sym(close) {
            depth += 1;
        } else if t.is_sym(open) {
            depth -= 1;
            if depth == 0 {
                return j
                    .checked_sub(1)
                    .and_then(|k| body[k].ident())
                    .map(str::to_owned);
            }
        }
        if j == 0 {
            return None;
        }
        j -= 1;
    }
}

/// If the statement prefix contains a `let`, the variable the guard binds
/// to: the last ident before `=` that is not `mut` or a constructor.
fn let_bound_var(stmt: &[Tok]) -> Option<String> {
    if !stmt.iter().any(|t| t.is_ident("let")) {
        return None;
    }
    let eq = stmt.iter().rposition(|t| t.is_sym('='))?;
    stmt[..eq]
        .iter()
        .rev()
        .filter_map(|t| t.ident())
        .find(|w| !matches!(*w, "mut" | "Ok" | "Some" | "Err" | "let"))
        .map(str::to_owned)
}

/// Whether the method chain after the acquire call's `(` (at `open`)
/// consumes the guard — i.e. chains into something other than the
/// guard-passing adapters in [`GUARD_CHAIN`], like `.lock().unwrap().len()`.
fn chain_consumes_guard(body: &[Tok], open: usize) -> bool {
    let mut j = match_paren(body, open);
    loop {
        match body.get(j + 1) {
            Some(t) if t.is_sym('?') => j += 1,
            Some(t) if t.is_sym('.') => {
                let is_adapter = body
                    .get(j + 2)
                    .and_then(|t| t.ident())
                    .is_some_and(|m| GUARD_CHAIN.contains(&m));
                if !is_adapter {
                    return true;
                }
                match body.get(j + 3) {
                    Some(t) if t.is_sym('(') => j = match_paren(body, j + 3),
                    _ => return true,
                }
            }
            _ => return false,
        }
    }
}

/// Index of the `)` matching the `(` at `open` (or the last scanned index
/// if the stream is truncated).
fn match_paren(body: &[Tok], open: usize) -> usize {
    let mut depth = 0usize;
    let mut j = open;
    while j < body.len() {
        if body[j].is_sym('(') {
            depth += 1;
        } else if body[j].is_sym(')') {
            depth -= 1;
            if depth == 0 {
                return j;
            }
        }
        j += 1;
    }
    body.len().saturating_sub(1)
}

/// Collects `Ordering` variant names inside the argument parens opening at
/// `open`.
fn orderings_in_args(body: &[Tok], open: usize) -> Vec<String> {
    let mut out = Vec::new();
    let mut depth = 0usize;
    let mut j = open;
    while j < body.len() {
        let t = &body[j];
        if t.is_sym('(') {
            depth += 1;
        } else if t.is_sym(')') {
            depth -= 1;
            if depth == 0 {
                break;
            }
        } else if let Some(w) = t.ident() {
            if ORDERINGS.contains(&w) {
                out.push(w.to_owned());
            }
        }
        j += 1;
    }
    out
}

/// Everything the semantic rules need to know about one file.
#[derive(Debug, Clone)]
pub(crate) struct FileAnalysis {
    /// The cleaned file (lines, pragmas, test regions).
    pub(crate) clean: CleanFile,
    /// Token stream of the cleaned file.
    pub(crate) toks: Vec<Tok>,
    /// Function items with spans.
    pub(crate) fns: Vec<FnSpan>,
    /// Per-function concurrency facts (parallel to `fns`).
    pub(crate) facts: Vec<FnFacts>,
    /// `unsafe` sites with rationales.
    pub(crate) sites: Vec<UnsafeSite>,
    /// Whether the file lives under a `tests/` directory (integration
    /// tests get only the `safety_comment` and hygiene rules).
    pub(crate) is_test_file: bool,
}

/// Runs the item-tree passes over one cleaned file. `decls` should be the
/// crate-level union of concurrency declarations so cross-file field uses
/// resolve (e.g. a lock declared in `server.rs`, acquired in a sibling
/// module).
pub(crate) fn analyze_file(
    clean: CleanFile,
    decls: &ConcurrencyDecls,
    is_test_file: bool,
) -> FileAnalysis {
    let toks = tokenize(&clean);
    let fns = fn_spans(&toks);
    let facts = fns.iter().map(|s| scan_fn(s, &toks, decls)).collect();
    let sites = unsafe_sites(&clean, &toks);
    FileAnalysis {
        clean,
        toks,
        fns,
        facts,
        sites,
        is_test_file,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::clean;

    fn analyze(src: &str) -> (Vec<Tok>, Vec<FnSpan>, ConcurrencyDecls) {
        let file = clean(src);
        let toks = tokenize(&file);
        let fns = fn_spans(&toks);
        let decls = concurrency_decls(&toks);
        (toks, fns, decls)
    }

    #[test]
    fn fn_spans_capture_bodies_and_result_returns() {
        let (_, fns, _) =
            analyze("fn plain() { body(); }\nfn fallible(x: u8) -> Result<u8, Error> { Ok(x) }\n");
        assert_eq!(fns.len(), 2);
        assert!(!fns[0].returns_result);
        assert!(fns[1].returns_result);
        assert!(!fns[1].body.is_empty());
    }

    #[test]
    fn callback_params_found_inline_and_via_generics() {
        let (_, fns, _) = analyze(
            "fn a<F: FnOnce() -> V, K>(key: K, compute: F) {}\n\
             fn b(cb: impl Fn(u8) -> u8) {}\n\
             fn c<F>(f: F) where F: FnMut() {}\n\
             fn d(x: u8) {}\n",
        );
        assert_eq!(fns[0].callback_params, vec!["compute"]);
        assert_eq!(fns[1].callback_params, vec!["cb"]);
        assert_eq!(fns[2].callback_params, vec!["f"]);
        assert!(fns[3].callback_params.is_empty());
    }

    #[test]
    fn unsafe_sites_classified_with_rationales() {
        let src = "\
// SAFETY: signal handlers only set an atomic flag.
unsafe { install() }

unsafe fn raw() {}
/// Allocator shim.
///
/// # Safety
/// Caller upholds the GlobalAlloc contract.
unsafe impl GlobalAlloc for A {}
";
        let file = clean(src);
        let toks = tokenize(&file);
        let sites = unsafe_sites(&file, &toks);
        assert_eq!(sites.len(), 3);
        assert_eq!(sites[0].kind, UnsafeKind::Block);
        assert!(sites[0]
            .rationale
            .as_deref()
            .unwrap()
            .contains("atomic flag"));
        assert_eq!(sites[1].kind, UnsafeKind::Fn);
        assert!(sites[1].rationale.is_none(), "blank line broke attachment");
        assert_eq!(sites[2].kind, UnsafeKind::Impl);
        assert!(sites[2].rationale.as_deref().unwrap().contains("contract"));
    }

    #[test]
    fn lock_and_atomic_declarations_are_collected() {
        let (_, _, decls) = analyze(
            "type Shard<K, V> = RwLock<HashMap<K, V>>;\n\
             struct S { queue: Mutex<Queue>, available: Condvar, shards: Box<[Shard<K, V>]>, hits: AtomicU64 }\n\
             static STOP: AtomicBool = AtomicBool::new(false);\n\
             impl S { fn shard(&self, k: &K) -> &Shard<K, V> { &self.shards[0] } }\n",
        );
        for lock in ["queue", "available", "shards", "shard"] {
            assert!(decls.locks.contains(lock), "missing lock {lock}: {decls:?}");
        }
        assert!(decls.condvars.contains("available"));
        assert!(decls.atomics.contains("hits"));
        assert!(decls.atomics.contains("STOP"));
    }

    #[test]
    fn nested_same_lock_acquisition_is_flagged() {
        let (toks, fns, decls) = analyze(
            "struct S { queue: Mutex<Q> }\n\
             impl S { fn bad(&self) { let q = self.queue.lock().unwrap(); let r = self.queue.lock().unwrap(); } }\n",
        );
        let facts = scan_fn(&fns[0], &toks, &decls);
        assert_eq!(facts.acquires.len(), 2);
        assert_eq!(facts.nested_same.len(), 1);
        assert_eq!(facts.nested_same[0].0, "queue");
    }

    #[test]
    fn dropped_and_scoped_guards_do_not_count_as_nested() {
        let (toks, fns, decls) = analyze(
            "struct S { queue: Mutex<Q> }\n\
             impl S { fn ok(&self) {\n\
               { let q = self.queue.lock().unwrap(); }\n\
               let r = self.queue.lock().unwrap();\n\
               drop(r);\n\
               let s = self.queue.lock().unwrap();\n\
             } }\n",
        );
        let facts = scan_fn(&fns[0], &toks, &decls);
        assert_eq!(facts.acquires.len(), 3);
        assert!(facts.nested_same.is_empty(), "{:?}", facts.nested_same);
    }

    #[test]
    fn order_edges_and_callback_under_lock_are_recorded() {
        let (toks, fns, decls) = analyze(
            "struct S { a: Mutex<Q>, b: Mutex<Q> }\n\
             impl S { fn f<F: FnOnce() -> V>(&self, compute: F) {\n\
               let ga = self.a.lock().unwrap();\n\
               let gb = self.b.lock().unwrap();\n\
               let v = compute();\n\
             } }\n",
        );
        let facts = scan_fn(&fns[0], &toks, &decls);
        assert!(facts
            .order_edges
            .iter()
            .any(|(h, a, _)| h == "a" && a == "b"));
        assert_eq!(facts.callback_under_lock.len(), 2, "under both guards");
        assert!(facts
            .callback_under_lock
            .iter()
            .all(|(p, _, _)| p == "compute"));
    }

    #[test]
    fn temporary_guard_dies_at_statement_end() {
        let (toks, fns, decls) = analyze(
            "struct S { m: Mutex<Q> }\n\
             impl S { fn g(&self) { let n = self.m.lock().unwrap().len(); other(); } }\n",
        );
        let facts = scan_fn(&fns[0], &toks, &decls);
        // `.len()` consumes the guard, so `n` binds a usize and the lock is
        // released at the end of the statement: `other()` runs unlocked.
        assert!(!facts.calls_under.iter().any(|(c, _, _)| c == "other"));
    }

    #[test]
    fn if_let_scrutinee_guard_dies_with_the_block() {
        // The MemoCache fast path: read-guard lives only through the `if
        // let` block, so the compute callback afterwards runs unlocked.
        let (toks, fns, decls) = analyze(
            "type Shard<K> = RwLock<K>;\n\
             struct S { shards: Vec<Shard<u8>> }\n\
             impl S {\n\
               fn shard(&self, k: u8) -> &Shard<u8> { &self.shards[0] }\n\
               fn get_or_insert<F: FnOnce() -> u8>(&self, k: u8, compute: F) -> u8 {\n\
                 if let Some(hit) = self.shard(k).read().unwrap().get(&k) { return *hit; }\n\
                 let value = compute();\n\
                 let mut map = self.shard(k).write().unwrap();\n\
                 map.insert(k, value);\n\
                 value\n\
               }\n\
             }\n",
        );
        let f = fns.iter().position(|f| f.name == "get_or_insert").unwrap();
        let facts = scan_fn(&fns[f], &toks, &decls);
        assert!(
            facts.callback_under_lock.is_empty(),
            "{:?}",
            facts.callback_under_lock
        );
        assert!(facts.nested_same.is_empty(), "read guard dead before write");
        assert_eq!(facts.acquires.len(), 2);
    }

    #[test]
    fn lock_getter_fn_counts_as_acquisition_source() {
        let (toks, fns, decls) = analyze(
            "type Shard<K> = RwLock<K>;\n\
             struct S { shards: Vec<Shard<u8>> }\n\
             impl S {\n\
               fn shard(&self, i: usize) -> &Shard<u8> { &self.shards[i] }\n\
               fn get(&self, i: usize) { let g = self.shard(i).read().unwrap(); }\n\
             }\n",
        );
        let get = fns.iter().position(|f| f.name == "get").unwrap();
        let facts = scan_fn(&fns[get], &toks, &decls);
        assert_eq!(facts.acquires, vec![("shard".to_owned(), 4)]);
    }

    #[test]
    fn atomic_ops_capture_orderings() {
        let (toks, fns, decls) = analyze(
            "struct S { hits: AtomicU64 }\n\
             impl S { fn f(&self) -> u64 {\n\
               self.hits.fetch_add(1, Ordering::Relaxed);\n\
               self.hits.load(Ordering::SeqCst)\n\
             } }\n\
             fn io(w: &mut W) { w.write(buf); }\n",
        );
        let facts = scan_fn(&fns[0], &toks, &decls);
        assert_eq!(facts.atomic_ops.len(), 2);
        assert_eq!(facts.atomic_ops[0].orderings, vec!["Relaxed"]);
        assert_eq!(facts.atomic_ops[1].orderings, vec!["SeqCst"]);
        // `w.write(...)` is io, not a lock acquisition.
        let io = fns.iter().position(|f| f.name == "io").unwrap();
        assert!(scan_fn(&fns[io], &toks, &decls).acquires.is_empty());
    }

    #[test]
    fn implicit_ordering_has_empty_orderings_list() {
        let (toks, fns, decls) = analyze(
            "static N: AtomicUsize = AtomicUsize::new(0);\n\
             fn bump(order: Ordering) { N.fetch_add(1, order); }\n",
        );
        let facts = scan_fn(&fns[0], &toks, &decls);
        assert_eq!(facts.atomic_ops.len(), 1);
        assert!(facts.atomic_ops[0].orderings.is_empty());
    }
}
