//! A plain-text trace format, so traces can be saved, inspected, diffed and
//! replayed across runs (or fed in from external trace generators).
//!
//! Format, one record per line:
//!
//! ```text
//! tmctrace v1 procs=16
//! 3 R 0x1a0
//! 0 W 0x1a1
//! # comments and blank lines are ignored
//! ```

use std::error::Error;
use std::fmt;

use tmc_memsys::WordAddr;

use crate::trace::{Op, Reference, Trace};

/// Errors from [`parse_trace`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseTraceError {
    /// The header line is missing or malformed.
    BadHeader(String),
    /// A record line failed to parse.
    BadRecord {
        /// 1-based line number.
        line: usize,
        /// What was wrong.
        why: String,
    },
}

impl fmt::Display for ParseTraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseTraceError::BadHeader(h) => write!(f, "bad trace header: {h:?}"),
            ParseTraceError::BadRecord { line, why } => {
                write!(f, "bad trace record on line {line}: {why}")
            }
        }
    }
}

impl Error for ParseTraceError {}

/// Renders a trace in the text format.
///
/// # Example
///
/// ```
/// use tmc_memsys::WordAddr;
/// use tmc_workload::{format_trace, parse_trace, Op, Reference, Trace};
///
/// let mut t = Trace::new(4);
/// t.push(Reference { proc: 1, addr: WordAddr::new(26), op: Op::Write });
/// let text = format_trace(&t);
/// assert_eq!(parse_trace(&text)?, t);
/// # Ok::<(), tmc_workload::ParseTraceError>(())
/// ```
pub fn format_trace(trace: &Trace) -> String {
    let mut out = format!("tmctrace v1 procs={}\n", trace.n_procs());
    for r in trace.iter() {
        let op = match r.op {
            Op::Read => 'R',
            Op::Write => 'W',
        };
        out.push_str(&format!("{} {} {:#x}\n", r.proc, op, r.addr.value()));
    }
    out
}

/// Parses the text format back into a [`Trace`].
///
/// # Errors
///
/// Returns [`ParseTraceError`] on a malformed header or record, including
/// a `procs=` count outside `1..=65536` (the largest machine) and processor
/// indices at or beyond it.
pub fn parse_trace(text: &str) -> Result<Trace, ParseTraceError> {
    let mut lines = text.lines().enumerate();
    let (_, header) = lines
        .next()
        .ok_or_else(|| ParseTraceError::BadHeader("empty input".into()))?;
    let n_procs = header
        .strip_prefix("tmctrace v1 procs=")
        .and_then(|n| n.trim().parse::<usize>().ok())
        .filter(|n| (1..=65536).contains(n))
        .ok_or_else(|| ParseTraceError::BadHeader(header.to_string()))?;
    let mut trace = Trace::new(n_procs);
    for (idx, line) in lines {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let bad = |why: &str| ParseTraceError::BadRecord {
            line: idx + 1,
            why: why.to_string(),
        };
        let mut parts = line.split_whitespace();
        let proc: usize = parts
            .next()
            .ok_or_else(|| bad("missing processor"))?
            .parse()
            .map_err(|_| bad("unparsable processor"))?;
        if proc >= n_procs {
            return Err(bad(&format!("processor {proc} >= procs={n_procs}")));
        }
        let op = match parts.next() {
            Some("R") => Op::Read,
            Some("W") => Op::Write,
            other => return Err(bad(&format!("bad op {other:?}"))),
        };
        let addr_str = parts.next().ok_or_else(|| bad("missing address"))?;
        let addr = if let Some(hex) = addr_str.strip_prefix("0x") {
            u64::from_str_radix(hex, 16).map_err(|_| bad("unparsable hex address"))?
        } else {
            addr_str.parse().map_err(|_| bad("unparsable address"))?
        };
        if parts.next().is_some() {
            return Err(bad("trailing tokens"));
        }
        trace.push(Reference {
            proc,
            addr: WordAddr::new(addr),
            op,
        });
    }
    Ok(trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SharedBlockWorkload;
    use tmc_simcore::SimRng;

    #[test]
    fn roundtrips_generated_traces() {
        let mut rng = SimRng::seed_from(13);
        let trace = SharedBlockWorkload::new(4, 8, 0.3)
            .references(500)
            .generate(8, &mut rng);
        let text = format_trace(&trace);
        assert_eq!(parse_trace(&text).unwrap(), trace);
    }

    #[test]
    fn tolerates_comments_blanks_and_decimal_addresses() {
        let text = "tmctrace v1 procs=2\n# hello\n\n0 R 10\n1 W 0xff\n";
        let t = parse_trace(text).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.iter().next().unwrap().addr, WordAddr::new(10));
        assert_eq!(t.iter().nth(1).unwrap().addr, WordAddr::new(255));
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(matches!(
            parse_trace(""),
            Err(ParseTraceError::BadHeader(_))
        ));
        assert!(matches!(
            parse_trace("tmctrace v2 procs=2\n"),
            Err(ParseTraceError::BadHeader(_))
        ));
        assert!(matches!(
            parse_trace("tmctrace v1 procs=0\n"),
            Err(ParseTraceError::BadHeader(_))
        ));
        assert!(matches!(
            parse_trace("tmctrace v1 procs=100000\n"),
            Err(ParseTraceError::BadHeader(_))
        ));
        let cases = [
            "tmctrace v1 procs=2\nx R 1\n",
            "tmctrace v1 procs=2\n0 Q 1\n",
            "tmctrace v1 procs=2\n0 R\n",
            "tmctrace v1 procs=2\n0 R zz\n",
            "tmctrace v1 procs=2\n0 R 1 extra\n",
            "tmctrace v1 procs=2\n5 R 1\n",
        ];
        for c in cases {
            assert!(
                matches!(parse_trace(c), Err(ParseTraceError::BadRecord { .. })),
                "accepted {c:?}"
            );
        }
    }

    #[test]
    fn error_messages_carry_line_numbers() {
        let err = parse_trace("tmctrace v1 procs=2\n0 R 1\nbroken\n").unwrap_err();
        assert!(err.to_string().contains("line 3"), "{err}");
    }
}
