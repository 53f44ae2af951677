//! A small, dependency-free JSON value type with a hardened parser.
//!
//! The workspace's vendored `serde` is derive-only (no format), so the
//! serving layer carries its own JSON: a recursive-descent parser over raw
//! bytes and a canonical renderer. The parser is written for hostile input
//! — every byte access is bounds-checked, recursion depth is capped at
//! [`MAX_DEPTH`], and every failure is a structured [`JsonError`] carrying
//! the byte offset, never a panic. The robustness proptests in
//! `tests/robustness.rs` feed it random and truncated bytes.
//!
//! Rendering is canonical enough for cache reuse: objects keep insertion
//! order, integers within the `f64`-exact range print without a fraction,
//! and non-finite numbers (which valid inputs cannot produce) degrade to
//! `null` rather than emitting invalid JSON.

use mbus_core::query::{Fields, QueryError};
use std::fmt::Write as _;

/// Maximum nesting depth the parser accepts; deeper input is rejected
/// instead of risking stack exhaustion.
pub const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (always carried as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order (later duplicates win on lookup is
    /// *not* implemented — the first match is returned).
    Obj(Vec<(String, Json)>),
}

/// A parse failure: where and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure in the input.
    pub offset: usize,
    /// Human-readable reason.
    pub message: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Object field lookup (first match); `None` for non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, for `Num`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The number as an exact non-negative integer (rejects fractions,
    /// negatives, and magnitudes beyond 2^53).
    pub fn as_u64(&self) -> Option<u64> {
        let x = self.as_f64()?;
        if x.is_finite() && x >= 0.0 && x.fract() == 0.0 && x <= 9_007_199_254_740_992.0 {
            // Validated above: non-negative, integral, within u64 range.
            Some(x as u64)
        } else {
            None
        }
    }

    /// The number as an exact `usize` (same rules as [`Json::as_u64`]).
    pub fn as_usize(&self) -> Option<usize> {
        usize::try_from(self.as_u64()?).ok()
    }

    /// The boolean, for `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The string, for `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, for `Arr`.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Whether this is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }

    /// Renders the value as compact JSON text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(x) => write_number(*x, out),
            Json::Str(s) => write_string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(key, out);
                    out.push(':');
                    value.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Convenience constructor for an object literal.
pub fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

/// Convenience constructor for an `f64` array.
pub fn num_array(values: &[f64]) -> Json {
    Json::Arr(values.iter().map(|&x| Json::Num(x)).collect())
}

/// Convenience constructor for an array of counts or indices.
pub fn count_array(values: &[usize]) -> Json {
    Json::Arr(values.iter().map(|&x| Json::Num(x as f64)).collect())
}

/// Request bodies as query fields: an absent or `null` field takes its
/// default, and a present field of the wrong type is a `bad_request`
/// worded in the API's terms.
impl Fields for Json {
    fn usize_field(&self, key: &str) -> Result<Option<usize>, QueryError> {
        self.field(key, Json::as_usize, "a non-negative integer")
    }

    fn u64_field(&self, key: &str) -> Result<Option<u64>, QueryError> {
        self.field(key, Json::as_u64, "a non-negative integer")
    }

    fn f64_field(&self, key: &str) -> Result<Option<f64>, QueryError> {
        self.field(key, Json::as_f64, "a number")
    }

    fn bool_field(&self, key: &str) -> Result<Option<bool>, QueryError> {
        self.field(key, Json::as_bool, "a boolean")
    }

    fn str_field(&self, key: &str) -> Result<Option<&str>, QueryError> {
        self.field(key, Json::as_str, "a string")
    }

    fn usize_list(&self, key: &str, what: &str) -> Result<Option<Vec<usize>>, QueryError> {
        match self.get(key) {
            None | Some(Json::Null) => Ok(None),
            Some(Json::Arr(items)) => items
                .iter()
                .map(|item| {
                    item.as_usize().ok_or_else(|| {
                        QueryError::Invalid(format!("`{key}` entries must be {what}"))
                    })
                })
                .collect::<Result<_, _>>()
                .map(Some),
            Some(_) => Err(QueryError::Invalid(format!(
                "`{key}` must be an array of {what}"
            ))),
        }
    }
}

impl Json {
    /// Object field `key` converted by `read`; `None` when absent or null.
    fn field<'a, T>(
        &'a self,
        key: &str,
        read: impl FnOnce(&'a Json) -> Option<T>,
        expected: &str,
    ) -> Result<Option<T>, QueryError> {
        match self.get(key) {
            None | Some(Json::Null) => Ok(None),
            Some(value) => read(value)
                .map(Some)
                .ok_or_else(|| QueryError::Invalid(format!("`{key}` must be {expected}"))),
        }
    }
}

/// Writes `x` as a JSON number: integral values within the `f64`-exact
/// range print without a fraction, non-zero magnitudes below 1e-5 or from
/// 1e21 up print in shortest round-trip exponent form (`6.4e-11`, `1e300`)
/// instead of hundreds of digits, and non-finite values degrade to `null`.
fn write_number(x: f64, out: &mut String) {
    if !x.is_finite() {
        out.push_str("null");
        return;
    }
    if x != 0.0 && !(1e-5..1e21).contains(&x.abs()) {
        let _ = write!(out, "{x:e}");
    } else if x.fract() == 0.0 && x.abs() <= 9_007_199_254_740_992.0 {
        // Exactly representable integer: canonical integer form.
        // lint:allow(lossy_cast, integrality and magnitude checked on the line above)
        let _ = write!(out, "{}", x as i64);
    } else {
        let _ = write!(out, "{x}");
    }
}

/// Writes `s` with JSON escaping.
fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            // lint:allow(lossy_cast, char-to-u32 is the lossless scalar-value conversion)
            c if (c as u32) < 0x20 => {
                // lint:allow(lossy_cast, char-to-u32 is the lossless scalar-value conversion)
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parses `text` as a single JSON document (trailing whitespace allowed,
/// trailing content rejected).
///
/// # Errors
///
/// Returns a [`JsonError`] with the byte offset of the first problem; the
/// parser never panics, regardless of input.
pub fn parse(text: &str) -> Result<Json, JsonError> {
    let mut parser = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    parser.skip_whitespace();
    let value = parser.value(0)?;
    parser.skip_whitespace();
    if parser.pos != parser.bytes.len() {
        return Err(parser.error("trailing content after the document"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Consumes `keyword` if it is next, else errors.
    fn keyword(&mut self, keyword: &str) -> Result<(), JsonError> {
        let end = self.pos.saturating_add(keyword.len());
        if self.bytes.get(self.pos..end) == Some(keyword.as_bytes()) {
            self.pos = end;
            Ok(())
        } else {
            Err(self.error(format!("expected `{keyword}`")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.error(format!("nesting deeper than {MAX_DEPTH}")));
        }
        match self.peek() {
            None => Err(self.error("unexpected end of input")),
            Some(b'n') => self.keyword("null").map(|()| Json::Null),
            Some(b't') => self.keyword("true").map(|()| Json::Bool(true)),
            Some(b'f') => self.keyword("false").map(|()| Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(self.error(format!("unexpected byte 0x{other:02x}"))),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.pos += 1; // consume '['
        let mut items = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_whitespace();
            items.push(self.value(depth + 1)?);
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.error("expected `,` or `]` in array")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.pos += 1; // consume '{'
        let mut fields = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_whitespace();
            if self.peek() != Some(b'"') {
                return Err(self.error("expected a string key"));
            }
            let key = self.string()?;
            self.skip_whitespace();
            if self.peek() != Some(b':') {
                return Err(self.error("expected `:` after object key"));
            }
            self.pos += 1;
            self.skip_whitespace();
            let value = self.value(depth + 1)?;
            fields.push((key, value));
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.error("expected `,` or `}` in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.pos += 1; // consume '"'
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: run of plain bytes up to the next quote/escape.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            if self.pos > start {
                // The input is a &str, so any byte run that avoids the
                // ASCII specials above is valid UTF-8.
                out.push_str(
                    std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.error("invalid UTF-8 inside string"))?,
                );
            }
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    self.escape(&mut out)?;
                }
                Some(_) => return Err(self.error("raw control byte inside string")),
            }
        }
    }

    fn escape(&mut self, out: &mut String) -> Result<(), JsonError> {
        let Some(code) = self.peek() else {
            return Err(self.error("unterminated escape"));
        };
        self.pos += 1;
        match code {
            b'"' => out.push('"'),
            b'\\' => out.push('\\'),
            b'/' => out.push('/'),
            b'b' => out.push('\u{8}'),
            b'f' => out.push('\u{c}'),
            b'n' => out.push('\n'),
            b'r' => out.push('\r'),
            b't' => out.push('\t'),
            b'u' => {
                let high = self.hex4()?;
                let c = if (0xD800..0xDC00).contains(&high) {
                    // High surrogate: a `\uXXXX` low surrogate must follow.
                    if self.keyword("\\u").is_err() {
                        return Err(self.error("lone high surrogate"));
                    }
                    let low = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&low) {
                        return Err(self.error("invalid low surrogate"));
                    }
                    let combined = 0x10000 + ((high - 0xD800) << 10) + (low - 0xDC00);
                    char::from_u32(combined)
                } else if (0xDC00..0xE000).contains(&high) {
                    None // lone low surrogate
                } else {
                    char::from_u32(high)
                };
                match c {
                    Some(c) => out.push(c),
                    None => return Err(self.error("invalid unicode escape")),
                }
            }
            other => return Err(self.error(format!("invalid escape `\\{}`", other as char))),
        }
        Ok(())
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let end = self.pos.saturating_add(4);
        let Some(slice) = self.bytes.get(self.pos..end) else {
            return Err(self.error("truncated \\u escape"));
        };
        let text = std::str::from_utf8(slice).map_err(|_| self.error("non-ASCII \\u escape"))?;
        let value = u32::from_str_radix(text, 16).map_err(|_| self.error("non-hex \\u escape"))?;
        self.pos = end;
        Ok(value)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let int_digits = self.digits();
        if int_digits == 0 {
            return Err(self.error("expected digits in number"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if self.digits() == 0 {
                return Err(self.error("expected digits after decimal point"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if self.digits() == 0 {
                return Err(self.error("expected digits in exponent"));
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.error("non-ASCII number"))?;
        let value: f64 = text
            .parse()
            .map_err(|_| self.error("number out of range"))?;
        if value.is_finite() {
            Ok(Json::Num(value))
        } else {
            Err(self.error("number overflows f64"))
        }
    }

    fn digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - start
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_scalars_and_containers() {
        let text = r#"{"a":1,"b":[true,false,null],"c":"x\n\"y\"","d":0.5,"e":{"f":-3}}"#;
        let value = parse(text).unwrap();
        assert_eq!(value.get("a").unwrap().as_usize(), Some(1));
        assert_eq!(value.get("b").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(value.get("c").unwrap().as_str(), Some("x\n\"y\""));
        assert_eq!(value.get("d").unwrap().as_f64(), Some(0.5));
        assert_eq!(parse(&value.render()).unwrap(), value);
    }

    #[test]
    fn integers_render_without_fraction() {
        assert_eq!(Json::Num(4.0).render(), "4");
        assert_eq!(Json::Num(-2.0).render(), "-2");
        assert_eq!(Json::Num(0.25).render(), "0.25");
        assert_eq!(Json::Num(f64::NAN).render(), "null");
        assert_eq!(Json::Num(f64::INFINITY).render(), "null");
    }

    #[test]
    fn extreme_magnitudes_render_short_and_round_trip() {
        for x in [5e-324, 1e-300, 6.457623324962469e-11, 1e300, 0.5, 15.9982] {
            let text = Json::Num(x).render();
            assert!(text.len() <= 24, "{x} rendered as {text}");
            let back = parse(&text).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x} rendered as {text}");
        }
        assert_eq!(
            Json::Num(6.457623324962469e-11).render(),
            "6.457623324962469e-11"
        );
        assert_eq!(Json::Num(-1e300).render(), "-1e300");
        // Mid-range values keep their plain decimal bytes.
        for (x, text) in [
            (0.5, "0.5"),
            (15.9982, "15.9982"),
            (1e-5, "0.00001"),
            (0.0, "0"),
            (-0.0, "0"),
            (9_007_199_254_740_992.0, "9007199254740992"),
            (1e20, "100000000000000000000"),
            (123456.789, "123456.789"),
        ] {
            assert_eq!(Json::Num(x).render(), text);
        }
    }

    #[test]
    fn as_u64_rejects_fractions_negatives_and_huge() {
        assert_eq!(Json::Num(3.5).as_u64(), None);
        assert_eq!(Json::Num(-1.0).as_u64(), None);
        assert_eq!(Json::Num(1e20).as_u64(), None);
        assert_eq!(Json::Num(42.0).as_u64(), Some(42));
        assert_eq!(Json::Str("42".into()).as_u64(), None);
    }

    #[test]
    fn malformed_inputs_error_with_offsets() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "{\"a\":}",
            "nul",
            "truex",
            "01x",
            "-",
            "1.",
            "1e",
            "\"abc",
            "\"\\q\"",
            "\"\\u12\"",
            "\"\\ud800\"",
            "\"\\ud800\\u0020\"",
            "[1]]",
            "{\"a\":1,}",
            "[,]",
            "\u{1}",
        ] {
            assert!(parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn surrogate_pairs_decode() {
        let value = parse("\"\\ud83d\\ude00\"").unwrap();
        assert_eq!(value.as_str(), Some("\u{1F600}"));
    }

    #[test]
    fn depth_limit_is_enforced() {
        let deep = "[".repeat(MAX_DEPTH + 2) + &"]".repeat(MAX_DEPTH + 2);
        assert!(parse(&deep).is_err());
        let ok = "[".repeat(MAX_DEPTH / 2) + &"]".repeat(MAX_DEPTH / 2);
        assert!(parse(&ok).is_ok());
    }

    #[test]
    fn control_chars_escape_on_render() {
        let rendered = Json::Str("a\u{1}b".into()).render();
        assert_eq!(rendered, "\"a\\u0001b\"");
        assert_eq!(parse(&rendered).unwrap().as_str(), Some("a\u{1}b"));
    }
}
