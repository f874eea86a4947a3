//! Error type for fault-plan construction and use.

use std::error::Error;
use std::fmt;

/// Errors surfaced by fault-plan validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultError {
    /// A [`crate::FaultSpec`] field combination that cannot produce a
    /// well-defined schedule.
    BadSpec(String),
}

impl fmt::Display for FaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultError::BadSpec(why) => write!(f, "invalid fault spec: {why}"),
        }
    }
}

impl Error for FaultError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = FaultError::BadSpec("zero horizon".into());
        assert!(e.to_string().contains("zero horizon"));
    }
}
