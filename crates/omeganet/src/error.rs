//! Error type for network construction, routing and casts. Link outages
//! are not errors: the network bills routes, and a caller modelling a
//! fault asks [`crate::Omega::first_down_link`] what it would cross.

use std::error::Error;
use std::fmt;

/// Errors returned by omega-network construction, routing and multicast.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// Requested `log₂ N` is outside the supported range.
    BadStageCount {
        /// The rejected stage count.
        m: u32,
    },
    /// A port number was at or beyond the network size.
    PortOutOfRange {
        /// The rejected port.
        port: usize,
        /// The network size N.
        n_ports: usize,
    },
    /// A destination set was built for a different network size.
    SizeMismatch {
        /// Size the destination set was built for.
        set_ports: usize,
        /// Size of the network it was used with.
        net_ports: usize,
    },
    /// A multicast was requested with no destinations.
    EmptyDestSet,
    /// Scheme 3 (broadcast-tag) requires the destinations to form an aligned
    /// subcube; this set does not.
    NotASubcube,
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::BadStageCount { m } => {
                write!(f, "stage count {m} not in supported range 1..=16")
            }
            NetError::PortOutOfRange { port, n_ports } => {
                write!(f, "port {port} out of range for an N={n_ports} network")
            }
            NetError::SizeMismatch {
                set_ports,
                net_ports,
            } => write!(
                f,
                "destination set sized for N={set_ports} used with an N={net_ports} network"
            ),
            NetError::EmptyDestSet => write!(f, "multicast requires at least one destination"),
            NetError::NotASubcube => {
                write!(
                    f,
                    "scheme 3 requires destinations to form an aligned subcube"
                )
            }
        }
    }
}

impl Error for NetError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_informative() {
        let e = NetError::PortOutOfRange {
            port: 9,
            n_ports: 8,
        };
        assert!(e.to_string().contains("port 9"));
        assert!(NetError::NotASubcube.to_string().contains("subcube"));
        assert!(NetError::EmptyDestSet.to_string().contains("destination"));
        assert!(NetError::BadStageCount { m: 40 }.to_string().contains("40"));
        let e = NetError::SizeMismatch {
            set_ports: 8,
            net_ports: 16,
        };
        assert!(e.to_string().contains("N=8"));
    }
}
