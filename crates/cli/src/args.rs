//! A small, dependency-free argument parser for the `mbus` binary.

use mbus_core::query::{Fields, QueryError};
use std::collections::BTreeMap;
use std::str::FromStr;

/// Parsed command line: one subcommand, positional arguments, and
/// `--key value` / `--flag` options.
#[derive(Debug, Clone, Default)]
pub(crate) struct Args {
    /// The subcommand (first non-flag argument).
    pub(crate) command: String,
    /// Positional arguments after the subcommand.
    pub(crate) positional: Vec<String>,
    /// `--key value` options and bare `--flag`s (mapped to `"true"`).
    pub(crate) options: BTreeMap<String, String>,
}

impl Args {
    /// Parses an argument list (without the program name).
    pub(crate) fn parse<I: IntoIterator<Item = String>>(args: I) -> Self {
        let mut parsed = Args::default();
        let mut iter = args.into_iter().peekable();
        while let Some(arg) = iter.next() {
            if let Some(key) = arg.strip_prefix("--") {
                let value = match iter.peek() {
                    Some(next) if !next.starts_with("--") => {
                        iter.next().unwrap_or_else(|| "true".to_owned())
                    }
                    _ => "true".to_owned(),
                };
                parsed.options.insert(key.to_owned(), value);
            } else if parsed.command.is_empty() {
                parsed.command = arg;
            } else {
                parsed.positional.push(arg);
            }
        }
        parsed
    }

    /// A string option.
    pub(crate) fn get(&self, key: &str) -> Option<&str> {
        self.options.get(key).map(String::as_str)
    }

    /// A parsed option with a default.
    ///
    /// # Errors
    ///
    /// Returns a message when the value does not parse.
    pub(crate) fn get_or<T: FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        Ok(self
            .field(key)
            .map_err(|e| e.to_string())?
            .unwrap_or(default))
    }

    /// Whether a bare flag (or `--key true`) is present.
    pub(crate) fn flag(&self, key: &str) -> bool {
        matches!(self.get(key), Some("true"))
    }

    /// Option `key` parsed with `FromStr`, or `None` when absent. Query
    /// field names are respelled to their option first.
    fn field<T: FromStr>(&self, key: &str) -> Result<Option<T>, QueryError> {
        let flag = spelling(key);
        self.get(flag)
            .map(|raw| {
                raw.parse()
                    .map_err(|_| QueryError::Invalid(format!("--{flag}: cannot parse '{raw}'")))
            })
            .transpose()
    }
}

/// The option spelling of a canonical query field name. The two fault
/// lists share `--failed`; `--trace` takes the trace file's path.
fn spelling(key: &str) -> &str {
    match key {
        "failed_links" | "failed_buses" => "failed",
        "trace_summary" => "trace",
        other => other,
    }
}

/// Parses a comma-separated list such as `--ks 4,4` or `--failed 2,5`.
pub(crate) fn parse_list<T: FromStr>(raw: &str, key: &str) -> Result<Vec<T>, String> {
    raw.split(',')
        .map(|part| {
            part.trim()
                .parse()
                .map_err(|_| format!("--{key}: cannot parse '{part}'"))
        })
        .collect()
}

/// Command-line options as query fields: `--key value`, parsed with
/// `FromStr`, and comma-separated lists.
impl Fields for Args {
    fn usize_field(&self, key: &str) -> Result<Option<usize>, QueryError> {
        self.field(key)
    }

    fn u64_field(&self, key: &str) -> Result<Option<u64>, QueryError> {
        self.field(key)
    }

    fn f64_field(&self, key: &str) -> Result<Option<f64>, QueryError> {
        self.field(key)
    }

    fn bool_field(&self, key: &str) -> Result<Option<bool>, QueryError> {
        if key == "trace_summary" {
            // A trace is requested by naming its output file.
            return Ok(self.get(spelling(key)).map(|_| true));
        }
        self.field(key)
    }

    fn str_field(&self, key: &str) -> Result<Option<&str>, QueryError> {
        Ok(self.get(spelling(key)))
    }

    fn usize_list(&self, key: &str, _what: &str) -> Result<Option<Vec<usize>>, QueryError> {
        let flag = spelling(key);
        self.get(flag)
            .map(|raw| parse_list(raw, flag).map_err(QueryError::Invalid))
            .transpose()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_command_positional_and_options() {
        let args = parse("table 2 --csv --n 16 --rate 0.5");
        assert_eq!(args.command, "table");
        assert_eq!(args.positional, vec!["2"]);
        assert!(args.flag("csv"));
        assert_eq!(args.get_or("n", 8usize).unwrap(), 16);
        assert_eq!(args.get_or("rate", 1.0f64).unwrap(), 0.5);
    }

    #[test]
    fn defaults_apply() {
        let args = parse("analyze");
        assert_eq!(args.get_or("n", 8usize).unwrap(), 8);
        assert!(!args.flag("csv"));
    }

    #[test]
    fn bad_values_error() {
        let args = parse("analyze --n banana");
        assert!(args.get_or("n", 8usize).is_err());
    }

    #[test]
    fn parse_list_handles_spaces_and_rejects_garbage() {
        assert_eq!(parse_list::<usize>("4, 2,2", "ks").unwrap(), vec![4, 2, 2]);
        assert!(parse_list::<usize>("4,x", "ks").is_err());
    }

    #[test]
    fn flag_followed_by_flag() {
        let args = parse("simulate --resubmission --cycles 100");
        assert!(args.flag("resubmission"));
        assert_eq!(args.get_or("cycles", 0u64).unwrap(), 100);
    }
}
