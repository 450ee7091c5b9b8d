//! Command-line scanning shared by the `campaign_run`, `campaign_daemon`
//! and `campaign_supervisor` binaries.
//!
//! [`Args::scan`] reads a command line once, left to right, against the
//! binary's flag table. Every token must be a known `--flag`, and a value
//! flag takes the next token as its value unless that token is missing or
//! is itself a `--flag`. A value flag without a value, a flag swallowed as
//! another flag's value, and a stray positional are therefore
//! [`UsageError`]s (exit code 2), never silent defaults.

use std::fmt;
use std::str::FromStr;

/// A malformed command line: the offending flag (or token) and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UsageError {
    /// The flag or token at fault.
    pub flag: String,
    /// What is wrong with it.
    pub reason: String,
}

impl UsageError {
    /// A usage error naming `flag`.
    pub fn new(flag: &str, reason: impl Into<String>) -> Self {
        Self {
            flag: flag.to_string(),
            reason: reason.into(),
        }
    }
}

impl fmt::Display for UsageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.flag, self.reason)
    }
}

/// A scanned command line: every flag in order, with its value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    flags: Vec<(String, Option<String>)>,
}

impl Args {
    /// Scans `args` left to right: each of `valued` takes one value, each
    /// of `bare` none, and anything else is a usage error.
    pub fn scan(args: &[String], valued: &[&str], bare: &[&str]) -> Result<Self, UsageError> {
        let mut flags = Vec::new();
        let mut tokens = args.iter();
        while let Some(flag) = tokens.next() {
            let value = if bare.contains(&flag.as_str()) {
                None
            } else if valued.contains(&flag.as_str()) {
                let value = tokens.next().filter(|value| !value.starts_with("--"));
                Some(value.ok_or_else(|| UsageError::new(flag, "missing value"))?)
            } else if flag.starts_with("--") {
                return Err(UsageError::new(flag, "unknown flag"));
            } else {
                return Err(UsageError::new(flag, "expected a --flag"));
            };
            flags.push((flag.clone(), value.cloned()));
        }
        Ok(Self { flags })
    }

    /// Every flag in command-line order, with its value.
    pub fn iter(&self) -> impl Iterator<Item = (&str, Option<&str>)> {
        self.flags
            .iter()
            .map(|(flag, value)| (flag.as_str(), value.as_deref()))
    }

    /// `true` when `flag` was given.
    pub fn present(&self, flag: &str) -> bool {
        self.iter().any(|(given, _)| given == flag)
    }

    /// The value of the first `flag` given, if any.
    pub fn value(&self, flag: &str) -> Option<&str> {
        self.iter()
            .find(|(given, _)| *given == flag)
            .and_then(|(_, value)| value)
    }

    /// The value of `flag` parsed as `T`, if the flag was given.
    pub fn parse<T: FromStr>(&self, flag: &str) -> Result<Option<T>, UsageError> {
        self.value(flag)
            .map(|raw| {
                raw.parse()
                    .map_err(|_| UsageError::new(flag, format!("cannot parse \"{raw}\"")))
            })
            .transpose()
    }

    /// The value of `flag` parsed as `T`, or `default` when the flag is
    /// absent.
    pub fn parse_or<T: FromStr>(&self, flag: &str, default: T) -> Result<T, UsageError> {
        Ok(self.parse(flag)?.unwrap_or(default))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(line: &[&str]) -> Result<Args, UsageError> {
        let args: Vec<String> = line.iter().map(|arg| arg.to_string()).collect();
        Args::scan(&args, &["--seeds", "--export"], &["--resume", "--list"])
    }

    #[test]
    fn flags_parse_left_to_right_with_their_values() {
        let args = scan(&["--list", "--seeds", "1,2", "--export", "out.bin"]).unwrap();
        assert!(args.present("--list") && !args.present("--resume"));
        assert_eq!(args.value("--seeds"), Some("1,2"));
        assert_eq!(args.value("--export"), Some("out.bin"));
        assert_eq!(args.parse_or("--missing", 7u8), Ok(7));
        let order: Vec<&str> = args.iter().map(|(flag, _)| flag).collect();
        assert_eq!(order, ["--list", "--seeds", "--export"]);
    }

    #[test]
    fn malformed_lines_name_the_offending_token() {
        let cases: [(&[&str], &str, &str); 4] = [
            (&["--list", "--seeds"], "--seeds", "missing value"),
            (&["--export", "--resume"], "--export", "missing value"),
            (&["--list", "stray"], "stray", "expected a --flag"),
            (&["--nope"], "--nope", "unknown flag"),
        ];
        for (line, flag, reason) in cases {
            assert_eq!(scan(line), Err(UsageError::new(flag, reason)), "{line:?}");
        }
        let args = scan(&["--seeds", "x"]).unwrap();
        assert_eq!(
            args.parse_or("--seeds", 1u64),
            Err(UsageError::new("--seeds", "cannot parse \"x\""))
        );
    }
}
