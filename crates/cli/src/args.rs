//! A small hand-rolled argument parser: positionals, `--key value`
//! options, and boolean `--flag`s. No external dependencies.

use std::collections::{BTreeMap, BTreeSet};

/// Parsed command-line arguments.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ParsedArgs {
    positionals: Vec<String>,
    options: BTreeMap<String, String>,
    flags: BTreeSet<String>,
}

impl ParsedArgs {
    /// Parses `argv` (without the program/command name). `known_flags`
    /// lists the boolean switches; every other `--name` consumes the next
    /// token as its value, unless that token is itself an option.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message naming the option for a `--name`
    /// with a missing value, a `--name` followed by another `--option`
    /// (write `--name=--value` for a value that starts with `--`), or a
    /// repeated option.
    pub fn parse<I, S>(argv: I, known_flags: &[&str]) -> Result<Self, String>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut out = ParsedArgs::default();
        let mut it = argv.into_iter().map(Into::into).peekable();
        while let Some(tok) = it.next() {
            if let Some(name) = tok.strip_prefix("--") {
                if name.is_empty() {
                    return Err("stray '--'".into());
                }
                if known_flags.contains(&name) {
                    out.flags.insert(name.to_string());
                    continue;
                }
                // Support --name=value and --name value.
                let (key, value) = match name.split_once('=') {
                    Some((k, v)) => (k.to_string(), v.to_string()),
                    None => {
                        let v =
                            it.next().ok_or_else(|| format!("option --{name} needs a value"))?;
                        if v.starts_with("--") {
                            return Err(format!(
                                "option --{name} needs a value, got the option '{v}'"
                            ));
                        }
                        (name.to_string(), v)
                    }
                };
                if out.options.insert(key.clone(), value).is_some() {
                    return Err(format!("option --{key} given twice"));
                }
            } else {
                out.positionals.push(tok);
            }
        }
        Ok(out)
    }

    /// The positional arguments in order.
    pub fn positionals(&self) -> &[String] {
        &self.positionals
    }

    /// The value of option `--name`, if present.
    pub fn opt(&self, name: &str) -> Option<&str> {
        self.options.get(name).map(String::as_str)
    }

    /// The value of `--name` parsed as `T`, or `default` when absent.
    ///
    /// # Errors
    ///
    /// Returns a message when the value does not parse.
    pub fn opt_parse<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.opt(name) {
            None => Ok(default),
            Some(raw) => {
                raw.parse::<T>().map_err(|_| format!("option --{name}: cannot parse '{raw}'"))
            }
        }
    }

    /// Whether boolean `--name` was given.
    pub fn flag(&self, name: &str) -> bool {
        self.flags.contains(name)
    }

    /// Every `--name` given, options then flags, each in name order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.options.keys().chain(&self.flags).map(String::as_str)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixed_parsing() {
        let a = ParsedArgs::parse(
            ["mcf", "--machine", "duo", "--fast", "gzip", "--out=prof.txt"],
            &["fast"],
        )
        .unwrap();
        assert_eq!(a.positionals(), &["mcf".to_string(), "gzip".to_string()]);
        assert_eq!(a.opt("machine"), Some("duo"));
        assert_eq!(a.opt("out"), Some("prof.txt"));
        assert!(a.flag("fast"));
        assert!(!a.flag("full"));
        assert_eq!(a.names().collect::<Vec<_>>(), ["machine", "out", "fast"]);
    }

    #[test]
    fn missing_value_is_an_error() {
        assert!(ParsedArgs::parse(["--machine"], &[]).is_err());
    }

    #[test]
    fn an_option_is_not_a_value() {
        let err = ParsedArgs::parse(["--out", "--fast"], &["fast"]).unwrap_err();
        assert!(err.contains("--out"), "{err}");
        assert!(ParsedArgs::parse(["--out", "--machine", "duo"], &[]).is_err());
        // The explicit form still takes any value, and a lone dash is a
        // value.
        let a = ParsedArgs::parse(["--out=--fast", "--seed", "-3"], &[]).unwrap();
        assert_eq!(a.opt("out"), Some("--fast"));
        assert_eq!(a.opt("seed"), Some("-3"));
    }

    #[test]
    fn duplicate_option_is_an_error() {
        assert!(ParsedArgs::parse(["--m", "a", "--m", "b"], &[]).is_err());
    }

    #[test]
    fn stray_double_dash_is_an_error() {
        assert!(ParsedArgs::parse(["--"], &[]).is_err());
    }

    #[test]
    fn opt_parse_defaults_and_errors() {
        let a = ParsedArgs::parse(["--steps", "100"], &[]).unwrap();
        assert_eq!(a.opt_parse("steps", 5u64).unwrap(), 100);
        assert_eq!(a.opt_parse("other", 5u64).unwrap(), 5);
        let a = ParsedArgs::parse(["--steps", "ten"], &[]).unwrap();
        assert!(a.opt_parse("steps", 5u64).is_err());
    }
}
