//! Error type for the protocol engine.

use std::error::Error;
use std::fmt;

use tmc_faults::FaultError;
use tmc_memsys::{BlockAddr, WordAddr};
use tmc_omeganet::NetError;

/// Errors surfaced by [`crate::System`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoreError {
    /// A processor index at or beyond the machine size.
    BadProcessor {
        /// The rejected processor index.
        proc: usize,
        /// Number of processors in the machine.
        n_procs: usize,
    },
    /// A word address whose block is at or beyond [`BlockAddr::LIMIT`],
    /// which no machine holds.
    BadAddress {
        /// The rejected word address.
        addr: WordAddr,
        /// The block it falls in.
        block: BlockAddr,
    },
    /// Configuration rejected at construction.
    BadConfig(String),
    /// An underlying network error (should not escape a correctly
    /// constructed system; surfaced rather than panicking).
    Net(NetError),
    /// A fault-injection error (bad [`tmc_faults::FaultSpec`], or faults
    /// requested on an engine that does not support them).
    Fault(FaultError),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::BadProcessor { proc, n_procs } => {
                write!(
                    f,
                    "processor {proc} out of range for {n_procs}-processor machine"
                )
            }
            CoreError::BadAddress { addr, block } => write!(
                f,
                "address {} ({:#x}) is in block {:#x}, beyond the machine's 2^32 blocks",
                addr.value(),
                addr.value(),
                block.index()
            ),
            CoreError::BadConfig(why) => write!(f, "invalid system configuration: {why}"),
            CoreError::Net(e) => write!(f, "network error: {e}"),
            CoreError::Fault(e) => write!(f, "fault injection error: {e}"),
        }
    }
}

impl Error for CoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CoreError::Net(e) => Some(e),
            CoreError::Fault(e) => Some(e),
            _ => None,
        }
    }
}

impl From<NetError> for CoreError {
    fn from(e: NetError) -> Self {
        CoreError::Net(e)
    }
}

impl From<FaultError> for CoreError {
    fn from(e: FaultError) -> Self {
        CoreError::Fault(e)
    }
}

/// A violated protocol invariant, found by
/// [`crate::System::check_invariants`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvariantViolation {
    /// Human-readable description of what failed, naming the block and
    /// caches involved.
    pub what: String,
}

impl fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "protocol invariant violated: {}", self.what)
    }
}

impl Error for InvariantViolation {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = CoreError::BadProcessor {
            proc: 9,
            n_procs: 8,
        };
        assert!(e.to_string().contains("processor 9"));
        let a = CoreError::BadAddress {
            addr: WordAddr::new(1 << 40),
            block: BlockAddr::new(1 << 38),
        };
        assert!(a.to_string().contains("1099511627776 (0x10000000000)"));
        let n: CoreError = NetError::EmptyDestSet.into();
        assert!(n.source().is_some());
        let fe: CoreError = FaultError::BadSpec("zero horizon".into()).into();
        assert!(fe.to_string().contains("zero horizon"));
        assert!(fe.source().is_some());
        assert!(CoreError::BadConfig("x".into()).to_string().contains('x'));
        let v = InvariantViolation {
            what: "two owners".into(),
        };
        assert!(v.to_string().contains("two owners"));
    }
}
