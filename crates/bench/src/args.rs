//! The one command-line parser behind every `tmc` subcommand, and its
//! exit-code convention: 0 = OK, 1 = a check failed, 2 = usage.
//!
//! A command claims what it understands — flags and flag values first,
//! then positionals — and calls [`Args::finish`] before doing any work,
//! so an argument nobody claimed is a usage error instead of being
//! silently ignored.
//!
//! ```
//! use tmc_bench::args::{Args, CliError};
//!
//! let mut args = Args::new(["run", "--seed", "7", "--smoke"].map(String::from));
//! assert!(args.flag("--smoke"));
//! assert_eq!(args.value::<u64>("--seed").unwrap(), Some(7));
//! assert_eq!(args.positional::<String>("verb").unwrap().as_deref(), Some("run"));
//! args.finish().unwrap();
//!
//! let bad = Args::new(["--smok"].map(String::from));
//! assert!(matches!(bad.finish(), Err(CliError::Usage(_))));
//! ```

use std::fmt;
use std::str::FromStr;

/// Why a command stopped early.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// The command line was wrong; exit code 2.
    Usage(String),
    /// The command ran and a check failed; exit code 1.
    Failed(String),
}

impl CliError {
    /// The process exit code for this error.
    pub fn exit_code(&self) -> u8 {
        match self {
            CliError::Usage(_) => 2,
            CliError::Failed(_) => 1,
        }
    }
}

/// A failure message from a command body is a failed check.
impl From<String> for CliError {
    fn from(msg: String) -> Self {
        CliError::Failed(msg)
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(msg) | CliError::Failed(msg) => f.write_str(msg),
        }
    }
}

/// The arguments of one command; each is claimed at most once.
#[derive(Debug, Clone)]
pub struct Args {
    items: Vec<Option<String>>,
}

impl Args {
    /// Wraps the arguments that follow the subcommand name.
    pub fn new(items: impl IntoIterator<Item = String>) -> Args {
        Args {
            items: items.into_iter().map(Some).collect(),
        }
    }

    /// Claims `name` (for example `--smoke`); whether it was given.
    pub fn flag(&mut self, name: &str) -> bool {
        self.claim(|a| a == name).is_some()
    }

    /// Claims `name VALUE` and parses `VALUE`; `None` when `name` is absent.
    ///
    /// # Errors
    ///
    /// A usage error when the value is missing or does not parse.
    pub fn value<T: FromStr>(&mut self, name: &str) -> Result<Option<T>, CliError> {
        let Some((at, _)) = self.claim(|a| a == name) else {
            return Ok(None);
        };
        let raw = self
            .items
            .get_mut(at + 1)
            .and_then(Option::take)
            .ok_or_else(|| CliError::Usage(format!("{name} needs a value")))?;
        parse(&raw, name).map(Some)
    }

    /// Claims the first unclaimed argument that is not a `--flag` and
    /// parses it; `None` when there is none. `what` names it in errors.
    ///
    /// # Errors
    ///
    /// A usage error when the argument does not parse.
    pub fn positional<T: FromStr>(&mut self, what: &str) -> Result<Option<T>, CliError> {
        self.claim(is_positional)
            .map(|(_, raw)| parse(&raw, what))
            .transpose()
    }

    /// Claims every remaining positional, in order.
    pub fn rest(&mut self) -> Vec<String> {
        std::iter::from_fn(|| self.claim(is_positional).map(|(_, raw)| raw)).collect()
    }

    /// Ends parsing.
    ///
    /// # Errors
    ///
    /// A usage error naming the first argument nobody claimed.
    pub fn finish(self) -> Result<(), CliError> {
        match self.items.into_iter().flatten().next() {
            Some(a) if a.starts_with("--") => Err(CliError::Usage(format!("unknown flag `{a}`"))),
            Some(a) => Err(CliError::Usage(format!("unexpected argument `{a}`"))),
            None => Ok(()),
        }
    }

    /// Removes the first unclaimed argument matching `pred`; its index and
    /// text.
    fn claim(&mut self, pred: impl Fn(&str) -> bool) -> Option<(usize, String)> {
        let at = self
            .items
            .iter()
            .position(|a| a.as_deref().is_some_and(&pred))?;
        Some((at, self.items[at].take()?))
    }
}

fn is_positional(arg: &str) -> bool {
    !arg.starts_with("--")
}

fn parse<T: FromStr>(raw: &str, what: &str) -> Result<T, CliError> {
    raw.parse()
        .map_err(|_| CliError::Usage(format!("bad value `{raw}` for {what}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(items: &[&str]) -> Args {
        Args::new(items.iter().map(|s| s.to_string()))
    }

    #[test]
    fn flags_values_and_positionals_are_claimed_once() {
        let mut a = args(&["check", "--dir", "d", "x", "--all", "y"]);
        assert_eq!(a.value::<String>("--dir").unwrap().as_deref(), Some("d"));
        assert!(a.flag("--all"));
        assert!(!a.flag("--all"));
        assert_eq!(a.rest(), ["check", "x", "y"]);
        a.finish().unwrap();
    }

    #[test]
    fn unclaimed_missing_and_unparsable_arguments_are_usage_errors() {
        let usage = |r: Result<(), CliError>| matches!(r, Err(CliError::Usage(_)));
        assert!(usage(args(&["--smok"]).finish()));
        assert!(usage(args(&["abc"]).finish()));
        assert!(usage(args(&["--seed"]).value::<u64>("--seed").map(|_| ())));
        assert!(usage(
            args(&["--seed", "x"]).value::<u64>("--seed").map(|_| ())
        ));
        assert!(usage(args(&["abc"]).positional::<u64>("seed").map(|_| ())));
        assert_eq!(CliError::Usage(String::new()).exit_code(), 2);
        assert_eq!(CliError::from(String::new()).exit_code(), 1);
    }
}
