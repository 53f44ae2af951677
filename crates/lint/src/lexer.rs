//! A small hand-rolled Rust lexer for the lint pass.
//!
//! The workspace vendors no `syn`, so the rules operate on a *cleaned* view
//! of each source file: comments, string literals, raw strings, and char
//! literals are blanked out (their delimiters survive so expression shape is
//! preserved), doc-comment text and `// lint:allow(rule, reason)` pragmas
//! are captured on the side, and a second pass marks every line that lives
//! inside a `#[cfg(test)]` region, a `mod tests { ... }` block, or a
//! `#[test]` item by tracking brace nesting.
//!
//! This is deliberately not a full parser. It only has to be exact about the
//! four things the rules key on: what is code vs. comment/literal, what is
//! test-only, which doc text belongs to which item, and where function
//! bodies start and end.

/// One `lint:allow` pragma extracted from a line comment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Pragma {
    /// Rule identifier as written, e.g. `no_panic`.
    pub(crate) rule: String,
    /// Free-text justification; the engine rejects empty reasons.
    pub(crate) reason: String,
    /// Line (0-based) the pragma comment sits on.
    pub(crate) line: usize,
    /// Whether the pragma shares its line with code (applies to that line)
    /// or stands alone (applies to the next line that carries code).
    pub(crate) own_line: bool,
}

/// A single source line after cleaning.
#[derive(Debug, Clone, Default)]
pub(crate) struct Line {
    /// The line's code with comment/literal contents blanked.
    pub(crate) code: String,
    /// Doc-comment text (`///` or `//!`) carried by this line, if any.
    pub(crate) doc: Option<String>,
    /// Plain (non-doc) comment text carried by this line, if any. The
    /// `safety_comment` rule reads `SAFETY:` rationales from here.
    pub(crate) comment: Option<String>,
    /// Whether the line is inside test-only code.
    pub(crate) in_test: bool,
}

/// A cleaned source file: per-line code plus captured pragmas.
#[derive(Debug, Clone, Default)]
pub(crate) struct CleanFile {
    /// Cleaned lines, index = 0-based line number.
    pub(crate) lines: Vec<Line>,
    /// All pragmas found in the file, in source order.
    pub(crate) pragmas: Vec<Pragma>,
}

/// A function item discovered in the cleaned source.
#[derive(Debug, Clone)]
pub(crate) struct FnItem {
    /// The function's name.
    pub(crate) name: String,
    /// Line (0-based) of the `fn` keyword.
    pub(crate) line: usize,
    /// `true` for plain `pub fn`; `false` for `pub(crate)`/`pub(super)`.
    pub(crate) is_plain_pub: bool,
    /// Concatenated doc-comment text attached to the item.
    pub(crate) doc: String,
    /// The cleaned body text between the item's outermost braces.
    pub(crate) body: String,
}

/// `true` for characters that may continue a Rust identifier.
fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Strips comments and literal contents from `source`.
///
/// The cleaned text keeps the same line structure as the input, so line
/// numbers reported against it map directly back to the file on disk.
pub(crate) fn clean(source: &str) -> CleanFile {
    let chars: Vec<char> = source.chars().collect();
    let mut out = CleanFile {
        lines: vec![Line::default()],
        pragmas: Vec::new(),
    };
    let mut i = 0usize;
    // Last non-whitespace character emitted as code; used to tell raw
    // strings (`r"..."`) apart from identifiers that merely end in `r`.
    let mut prev_code: Option<char> = None;

    while i < chars.len() {
        let c = chars[i];
        let next = chars.get(i + 1).copied();
        match c {
            '\n' => {
                out.lines.push(Line::default());
                i += 1;
            }
            '/' if next == Some('/') => {
                // Line comment. Capture its text for doc/pragma handling.
                let start = i + 2;
                let mut j = start;
                while j < chars.len() && chars[j] != '\n' {
                    j += 1;
                }
                let text: String = chars[start..j].iter().collect();
                let line_no = out.lines.len() - 1;
                let mut is_doc = false;
                if let Some(doc) = text.strip_prefix('/') {
                    // `///` outer doc (but `////...` is a plain comment).
                    if !doc.starts_with('/') {
                        append_doc(&mut out.lines, doc);
                        is_doc = true;
                    }
                } else if let Some(doc) = text.strip_prefix('!') {
                    // `//!` inner doc.
                    append_doc(&mut out.lines, doc);
                    is_doc = true;
                }
                if !is_doc {
                    append_comment(&mut out.lines, &text);
                }
                if let Some((rule, reason)) = (!is_doc).then(|| parse_pragma(&text)).flatten() {
                    let own_line = current_code_is_blank(&out.lines);
                    out.pragmas.push(Pragma {
                        rule,
                        reason,
                        line: line_no,
                        own_line,
                    });
                }
                i = j;
            }
            '/' if next == Some('*') => {
                // Block comment; Rust block comments nest. Text is captured
                // per line so `SAFETY:` rationales in block form count too.
                let mut depth = 1usize;
                let mut text = String::new();
                i += 2;
                while i < chars.len() && depth > 0 {
                    if chars[i] == '/' && chars.get(i + 1) == Some(&'*') {
                        depth += 1;
                        i += 2;
                    } else if chars[i] == '*' && chars.get(i + 1) == Some(&'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        if chars[i] == '\n' {
                            append_comment(&mut out.lines, &text);
                            text.clear();
                            out.lines.push(Line::default());
                        } else {
                            text.push(chars[i]);
                        }
                        i += 1;
                    }
                }
                append_comment(&mut out.lines, &text);
            }
            '"' => {
                emit(&mut out.lines, '"');
                i = skip_string(&chars, i + 1, &mut out.lines);
                emit(&mut out.lines, '"');
                prev_code = Some('"');
            }
            '\'' => {
                // Lifetime or char literal. `'a` / `'static` are lifetimes;
                // `'x'`, `'\n'`, `'\u{1F600}'` are char literals.
                if next == Some('\\') {
                    i = skip_char_literal(&chars, i + 1);
                    emit_str(&mut out.lines, "' '");
                    prev_code = Some('\'');
                } else if chars.get(i + 2) == Some(&'\'') && next.is_some() {
                    emit_str(&mut out.lines, "' '");
                    i += 3;
                    prev_code = Some('\'');
                } else {
                    // Lifetime: keep the apostrophe so `&'a str` stays code.
                    emit(&mut out.lines, '\'');
                    prev_code = Some('\'');
                    i += 1;
                }
            }
            'r' | 'b' if prev_code.is_none_or(|p| !is_ident_char(p)) => {
                // Possible raw string, byte string, or byte char.
                if let Some(skip) = try_skip_raw_or_byte(&chars, i, &mut out.lines) {
                    i = skip;
                    prev_code = Some('"');
                } else {
                    emit(&mut out.lines, c);
                    prev_code = Some(c);
                    i += 1;
                }
            }
            _ => {
                emit(&mut out.lines, c);
                if !c.is_whitespace() {
                    prev_code = Some(c);
                }
                i += 1;
            }
        }
    }

    mark_test_regions(&mut out.lines);
    out
}

/// Appends `c` to the current (last) line's code.
fn emit(lines: &mut [Line], c: char) {
    if let Some(line) = lines.last_mut() {
        line.code.push(c);
    }
}

/// Appends a short string to the current line's code.
fn emit_str(lines: &mut [Line], s: &str) {
    if let Some(line) = lines.last_mut() {
        line.code.push_str(s);
    }
}

/// Attaches doc text to the current line.
fn append_doc(lines: &mut [Line], text: &str) {
    if let Some(line) = lines.last_mut() {
        let doc = line.doc.get_or_insert_with(String::new);
        doc.push_str(text.trim());
        doc.push(' ');
    }
}

/// Attaches plain-comment text to the current line.
fn append_comment(lines: &mut [Line], text: &str) {
    let trimmed = text.trim();
    if trimmed.is_empty() {
        return;
    }
    if let Some(line) = lines.last_mut() {
        let comment = line.comment.get_or_insert_with(String::new);
        if !comment.is_empty() {
            comment.push(' ');
        }
        comment.push_str(trimmed);
    }
}

/// Whether the current line has no non-whitespace code yet.
fn current_code_is_blank(lines: &[Line]) -> bool {
    lines.last().is_none_or(|l| l.code.trim().is_empty())
}

/// Consumes a (possibly multi-line) string literal body starting right
/// after the opening quote; returns the index just past the closing quote.
fn skip_string(chars: &[char], mut i: usize, lines: &mut Vec<Line>) -> usize {
    while i < chars.len() {
        match chars[i] {
            '\\' => i += 2,
            '"' => return i + 1,
            '\n' => {
                lines.push(Line::default());
                i += 1;
            }
            _ => i += 1,
        }
    }
    i
}

/// Consumes an escaped char literal starting at the backslash; returns the
/// index just past the closing quote.
fn skip_char_literal(chars: &[char], mut i: usize) -> usize {
    while i < chars.len() {
        match chars[i] {
            '\\' => i += 2,
            '\'' => return i + 1,
            _ => i += 1,
        }
    }
    i
}

/// Tries to consume `r"..."`, `r#"..."#`, `b"..."`, `br#"..."#`, or `b'x'`
/// starting at index `i` (which holds `r` or `b`). Returns the index past
/// the literal, or `None` if the text is not such a literal (e.g. the `r`
/// in an identifier, or a raw identifier `r#foo`).
fn try_skip_raw_or_byte(chars: &[char], i: usize, lines: &mut Vec<Line>) -> Option<usize> {
    let mut j = i;
    if chars[j] == 'b' {
        j += 1;
        if chars.get(j) == Some(&'\'') {
            // Byte char b'x' / b'\n'.
            let mut k = j + 1;
            while k < chars.len() {
                match chars[k] {
                    '\\' => k += 2,
                    '\'' => {
                        emit_str(lines, "' '");
                        return Some(k + 1);
                    }
                    _ => k += 1,
                }
            }
            return Some(k);
        }
        if chars.get(j) == Some(&'"') {
            // Byte string b"...".
            emit(lines, '"');
            let end = skip_string(chars, j + 1, lines);
            emit(lines, '"');
            return Some(end);
        }
        if chars.get(j) != Some(&'r') {
            return None;
        }
        j += 1;
    }
    // At `r`: raw (byte) string r"..." / r#"..."# — or a raw identifier.
    if chars.get(j) != Some(&'r') && chars[i] != 'r' {
        return None;
    }
    if chars[j] == 'r' {
        j += 1;
    }
    let mut hashes = 0usize;
    while chars.get(j) == Some(&'#') {
        hashes += 1;
        j += 1;
    }
    if chars.get(j) != Some(&'"') {
        return None; // raw identifier like r#fn, or plain ident starting r/b
    }
    j += 1;
    emit(lines, '"');
    // Scan for `"` followed by `hashes` hashes.
    while j < chars.len() {
        if chars[j] == '"' {
            let mut k = j + 1;
            let mut seen = 0usize;
            while seen < hashes && chars.get(k) == Some(&'#') {
                seen += 1;
                k += 1;
            }
            if seen == hashes {
                emit(lines, '"');
                return Some(k);
            }
            j += 1;
        } else {
            if chars[j] == '\n' {
                lines.push(Line::default());
            }
            j += 1;
        }
    }
    Some(j)
}

/// Parses a `lint:allow(rule, reason)` pragma comment. Only plain (non-doc)
/// comments whose text *starts* with the pragma count, so prose mentions of
/// the syntax do not register as suppressions.
fn parse_pragma(comment: &str) -> Option<(String, String)> {
    let inner = comment.trim_start().strip_prefix("lint:allow(")?;
    let close = inner.find(')')?;
    let inner = &inner[..close];
    let (rule, reason) = match inner.split_once(',') {
        Some((r, why)) => (r.trim().to_owned(), why.trim().to_owned()),
        None => (inner.trim().to_owned(), String::new()),
    };
    Some((rule, reason))
}

/// Second pass: flags lines inside `#[cfg(test)]` regions, `mod tests`
/// blocks, and `#[test]`/`#[bench]` items by tracking brace depth.
fn mark_test_regions(lines: &mut [Line]) {
    let mut depth = 0usize;
    // Brace depths at which a test region opened; a line is test code while
    // this stack is non-empty.
    let mut region_starts: Vec<usize> = Vec::new();
    // An attribute/`mod tests` trigger was seen and the region's opening
    // brace has not arrived yet.
    let mut pending = false;

    for line in lines.iter_mut() {
        let trigger = is_test_trigger(&line.code);
        if trigger {
            pending = true;
        }
        let test_at_start = !region_starts.is_empty() || pending;
        for c in line.code.chars() {
            match c {
                '{' => {
                    if pending {
                        region_starts.push(depth);
                        pending = false;
                    }
                    depth += 1;
                }
                '}' => {
                    depth = depth.saturating_sub(1);
                    if region_starts.last().is_some_and(|&start| depth <= start) {
                        region_starts.pop();
                    }
                }
                // `#[cfg(test)] mod tests;` — out-of-line test module; the
                // trigger does not carry past the semicolon.
                ';' if pending && region_starts.is_empty() => pending = false,
                _ => {}
            }
        }
        line.in_test = test_at_start || trigger || !region_starts.is_empty();
    }
}

/// Whether a cleaned line of code starts a test-only region.
fn is_test_trigger(code: &str) -> bool {
    let compact: String = code.chars().filter(|c| !c.is_whitespace()).collect();
    compact.contains("#[cfg(test)]")
        || compact.contains("#[test]")
        || compact.contains("#[bench]")
        || compact.contains("#[cfg(alltest") // #[cfg(all(test, ...))]
        || compact.contains("#[cfg(all(test")
        || has_mod_tests(code)
}

/// Whether the line declares `mod tests` / `mod test`.
fn has_mod_tests(code: &str) -> bool {
    let mut toks = idents(code).into_iter().map(|(_, t)| t);
    while let Some(tok) = toks.next() {
        if tok == "mod" {
            if let Some(name) = toks.next() {
                if name == "tests" || name == "test" {
                    return true;
                }
            }
        }
    }
    false
}

/// Identifiers (and keywords) in a cleaned line with their char offsets.
pub(crate) fn idents(code: &str) -> Vec<(usize, String)> {
    let chars: Vec<char> = code.chars().collect();
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < chars.len() {
        if chars[i].is_alphabetic() || chars[i] == '_' {
            let start = i;
            while i < chars.len() && is_ident_char(chars[i]) {
                i += 1;
            }
            out.push((start, chars[start..i].iter().collect()));
        } else if chars[i].is_ascii_digit() {
            // Skip numeric literals (incl. suffixes like 1u64) entirely so
            // the suffix does not read as an identifier.
            while i < chars.len() && is_ident_char(chars[i]) {
                i += 1;
            }
        } else {
            i += 1;
        }
    }
    out
}

/// The first non-whitespace character at or after char offset `from`.
pub(crate) fn next_significant_char(code: &str, from: usize) -> Option<char> {
    code.chars().skip(from).find(|c| !c.is_whitespace())
}

/// Extracts every function item (name, docs, body) from a cleaned file.
pub(crate) fn fn_items(file: &CleanFile) -> Vec<FnItem> {
    let mut items = Vec::new();
    for (line_no, line) in file.lines.iter().enumerate() {
        let toks = idents(&line.code);
        let mut k = 0usize;
        while k < toks.len() {
            if toks[k].1 != "fn" {
                k += 1;
                continue;
            }
            let Some((_, name)) = toks.get(k + 1) else {
                break;
            };
            // Visibility: look back over `const` / `async` / `unsafe`
            // modifiers for a `pub` token.
            let mut vis_idx = k;
            while vis_idx > 0
                && matches!(
                    toks[vis_idx - 1].1.as_str(),
                    "const" | "async" | "unsafe" | "extern"
                )
            {
                vis_idx -= 1;
            }
            let has_pub = vis_idx > 0 && toks[vis_idx - 1].1 == "pub";
            // `pub(crate)` / `pub(super)`: a `crate`/`super`/`self`/`in`
            // token sits between `pub` and the modifiers.
            let is_plain_pub = has_pub && {
                let after_pub = toks[vis_idx - 1].0 + "pub".len();
                next_significant_char(&line.code, after_pub) != Some('(')
            };
            items.push(FnItem {
                name: name.clone(),
                line: line_no,
                is_plain_pub,
                doc: collect_doc(file, line_no),
                body: collect_body(file, line_no, toks[k].0),
            });
            k += 2;
        }
    }
    items
}

/// Gathers the doc comment attached to an item at `line_no`, walking back
/// over contiguous doc and attribute lines.
fn collect_doc(file: &CleanFile, line_no: usize) -> String {
    let mut parts: Vec<&str> = Vec::new();
    let mut l = line_no;
    // Walk strictly upwards over the item's contiguous doc and attribute
    // lines; anything else (blank line, other code) ends the attachment.
    while l > 0 {
        l -= 1;
        let line = &file.lines[l];
        if let Some(doc) = &line.doc {
            parts.push(doc);
        } else if !line.code.trim_start().starts_with("#[") {
            break;
        }
    }
    parts.reverse();
    parts.join(" ")
}

/// Extracts the cleaned body of the fn whose `fn` keyword sits at
/// (`line_no`, char offset `col`). Returns an empty string for bodyless
/// declarations.
fn collect_body(file: &CleanFile, line_no: usize, col: usize) -> String {
    let mut body = String::new();
    let mut depth = 0usize;
    let mut seen_open = false;
    for (idx, line) in file.lines.iter().enumerate().skip(line_no) {
        let skip = if idx == line_no { col } else { 0 };
        for c in line.code.chars().skip(skip) {
            if !seen_open {
                match c {
                    '{' => {
                        seen_open = true;
                        depth = 1;
                    }
                    ';' => return body, // declaration without a body
                    _ => {}
                }
            } else {
                match c {
                    '{' => depth += 1,
                    '}' => {
                        depth -= 1;
                        if depth == 0 {
                            return body;
                        }
                    }
                    _ => {}
                }
                body.push(c);
            }
        }
        if seen_open {
            body.push('\n');
        }
    }
    body
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comments_and_strings_are_blanked() {
        let file = clean("let x = \"unwrap()\"; // unwrap() here\nlet y = 1; /* panic!() */\n");
        assert!(!file.lines[0].code.contains("unwrap"));
        assert!(file.lines[0].code.contains("\"\""), "delimiters survive");
        assert!(!file.lines[1].code.contains("panic"));
        assert!(file.lines[1].code.contains("let y = 1;"));
    }

    #[test]
    fn block_comments_nest_and_keep_line_numbers() {
        let file = clean("a\n/* outer /* inner */ still comment */\nb\n");
        assert_eq!(file.lines[0].code.trim(), "a");
        assert_eq!(file.lines[1].code.trim(), "");
        assert_eq!(file.lines[2].code.trim(), "b");
    }

    #[test]
    fn raw_strings_are_blanked() {
        let file = clean("let s = r#\"panic!(\"boom\")\"#;\nlet t = r\"unwrap()\";\n");
        assert!(!file.lines[0].code.contains("panic"));
        assert!(!file.lines[1].code.contains("unwrap"));
    }

    #[test]
    fn byte_and_char_literals_are_blanked_but_lifetimes_survive() {
        let file = clean("let c = '\\n'; let b = b'x'; fn f<'a>(s: &'a str) {}\n");
        let code = &file.lines[0].code;
        assert!(!code.contains("\\n"));
        assert!(code.contains("' '"), "char blanked to spaces: {code}");
        assert!(code.contains("&'a str"), "lifetime kept: {code}");
    }

    #[test]
    fn identifiers_ending_in_r_are_not_raw_strings() {
        let file = clean("let var = other\"\";\n");
        // `other` ends in `r` but is part of an identifier, so the following
        // quote is an ordinary (empty) string.
        assert!(file.lines[0].code.contains("other"));
    }

    #[test]
    fn multiline_strings_keep_line_structure() {
        let file = clean("let s = \"line one\nline two\";\nlet x = 3;\n");
        assert_eq!(file.lines.len(), 4);
        assert!(file.lines[2].code.contains("let x = 3;"));
    }

    #[test]
    fn cfg_test_regions_are_marked_with_nesting() {
        let src = "\
fn live() {}
#[cfg(test)]
mod tests {
    fn helper() {
        if true {
        }
    }
}
fn also_live() {}
";
        let file = clean(src);
        assert!(!file.lines[0].in_test);
        assert!(file.lines[1].in_test, "attribute line itself is test");
        for l in 2..=7 {
            assert!(file.lines[l].in_test, "line {l} inside mod tests");
        }
        assert!(!file.lines[8].in_test, "code after the region is live");
    }

    #[test]
    fn out_of_line_test_module_does_not_swallow_the_file() {
        let src = "#[cfg(test)]\nmod tests;\nfn live() {}\n";
        let file = clean(src);
        assert!(!file.lines[2].in_test);
    }

    #[test]
    fn test_attribute_marks_single_item() {
        let src = "#[test]\nfn check() {\n    body();\n}\nfn live() {}\n";
        let file = clean(src);
        assert!(file.lines[1].in_test);
        assert!(file.lines[2].in_test);
        assert!(!file.lines[4].in_test);
    }

    #[test]
    fn pragmas_are_captured_with_placement() {
        let src = "\
// lint:allow(no_panic, invariant holds by construction)
foo().unwrap();
bar().unwrap(); // lint:allow(no_panic, same-line form)
";
        let file = clean(src);
        assert_eq!(file.pragmas.len(), 2);
        assert!(file.pragmas[0].own_line);
        assert_eq!(file.pragmas[0].rule, "no_panic");
        assert_eq!(file.pragmas[0].reason, "invariant holds by construction");
        assert!(!file.pragmas[1].own_line);
        assert_eq!(file.pragmas[1].line, 2);
    }

    #[test]
    fn doc_comment_mentions_of_the_syntax_are_not_pragmas() {
        let src = "/// Suppress with `// lint:allow(no_panic, reason)`.\nfn f() {}\n";
        let file = clean(src);
        assert!(file.pragmas.is_empty());
        assert!(file.lines[0].doc.is_some());
    }

    #[test]
    fn prose_after_comment_start_is_not_a_pragma() {
        let src = "// the lint:allow(no_panic, x) syntax is described elsewhere\n";
        let file = clean(src);
        assert!(file.pragmas.is_empty(), "pragma must start the comment");
    }

    #[test]
    fn fn_items_capture_visibility_docs_and_bodies() {
        let src = "\
/// Computes the eq (4) value.
pub fn eq4_full_bandwidth(x: f64) -> f64 {
    helper(x)
}
pub(crate) fn internal() {}
fn private() {}
";
        let file = clean(src);
        let items = fn_items(&file);
        assert_eq!(items.len(), 3);
        assert_eq!(items[0].name, "eq4_full_bandwidth");
        assert!(items[0].is_plain_pub);
        assert!(items[0].doc.contains("(4)"));
        assert!(items[0].body.contains("helper"));
        assert!(!items[1].is_plain_pub, "pub(crate) is not plain pub");
        assert!(!items[2].is_plain_pub);
    }

    #[test]
    fn bodyless_declarations_have_empty_bodies() {
        let file = clean("trait T {\n    fn declared(&self) -> f64;\n}\n");
        let items = fn_items(&file);
        assert_eq!(items.len(), 1);
        assert!(items[0].body.is_empty());
    }

    #[test]
    fn plain_comment_text_is_captured_for_safety_rationales() {
        let file = clean("// SAFETY: the pointer outlives the call\nunsafe { x() }\n");
        assert_eq!(
            file.lines[0].comment.as_deref(),
            Some("SAFETY: the pointer outlives the call")
        );
        assert!(file.lines[1].comment.is_none());
    }

    #[test]
    fn block_comment_text_is_captured_per_line() {
        let file = clean("let a = 1; /* SAFETY: first\nsecond line */ let b = 2;\n");
        assert_eq!(file.lines[0].comment.as_deref(), Some("SAFETY: first"));
        assert_eq!(file.lines[1].comment.as_deref(), Some("second line"));
        assert!(file.lines[1].code.contains("let b = 2;"));
    }

    #[test]
    fn deeply_nested_block_comments_resync_exactly() {
        // Three levels of nesting plus brace noise inside the comment; the
        // item-tree pass depends on none of those braces leaking into code.
        let src = "fn a() {\n/* { /* {{ /* } */ }} */ } */\n}\nfn b() {}\n";
        let file = clean(src);
        assert_eq!(file.lines[1].code.trim(), "", "comment fully blanked");
        let items = fn_items(&file);
        assert_eq!(items.len(), 2);
        assert_eq!(items[1].name, "b");
    }

    #[test]
    fn raw_strings_with_hashes_do_not_unbalance_braces() {
        // The `"#` inside the r##...## literal must not close it early, or
        // the stray `{` would corrupt every later body span.
        let src =
            "fn a() -> &'static str {\n    r##\"brace { quote \"# }\"##\n}\nfn b() { body() }\n";
        let file = clean(src);
        let items = fn_items(&file);
        assert_eq!(items.len(), 2, "{:?}", file.lines);
        assert!(items[1].body.contains("body"));
        assert!(!items[0].body.contains('{'), "literal braces blanked");
    }

    #[test]
    fn byte_literal_braces_do_not_unbalance_bodies() {
        let src = "fn a(c: u8) -> bool {\n    c == b'{' || c == b'}'\n}\nfn b() { body() }\n";
        let file = clean(src);
        assert!(!file.lines[1].code.contains('{'), "{}", file.lines[1].code);
        let items = fn_items(&file);
        assert_eq!(items.len(), 2);
        assert!(items[1].body.contains("body"));
    }

    #[test]
    fn char_literal_braces_and_escaped_quotes_stay_blanked() {
        let src = "fn a(c: char) -> bool {\n    c == '{' || c == '\\'' || c == '}'\n}\nfn b() { body() }\n";
        let file = clean(src);
        assert!(!file.lines[1].code.contains('{'));
        assert!(!file.lines[1].code.contains('}'));
        let items = fn_items(&file);
        assert_eq!(items.len(), 2);
        assert!(items[1].body.contains("body"));
    }

    #[test]
    fn raw_identifiers_are_not_mistaken_for_raw_strings() {
        let file = clean("let r#type = 1; let x = r#type + 1;\n");
        assert!(file.lines[0].code.contains("type"));
        assert!(file.lines[0].code.contains("+ 1"));
    }

    #[test]
    fn idents_skip_numeric_literal_suffixes() {
        let toks: Vec<String> = idents("let x = 1u64 + mask;")
            .into_iter()
            .map(|(_, t)| t)
            .collect();
        assert!(toks.contains(&"mask".to_owned()));
        assert!(!toks.contains(&"u64".to_owned()));
    }
}
