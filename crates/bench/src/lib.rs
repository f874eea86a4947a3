//! Experiment harness: table formatting, trace-driven protocol runs, the
//! parallel sweep engine ([`sweep`]) and the bodies of the `tmc`
//! subcommands that need the analytic models or the baselines.
//!
//! Each [`paper`] output regenerates one table or figure of the paper;
//! [`cmd`] holds the tool commands; [`args`] is the one argument parser
//! they all share. See `DESIGN.md` (experiment index) and `EXPERIMENTS.md`
//! (recorded outputs) at the repository root, plus `docs/PERFORMANCE.md`
//! for the sweep engine.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod paper;
pub mod script;
pub mod sweep;
pub mod tracecheck;

/// The tool subcommands of `tmc`, one plain function each.
pub mod cmd {
    pub mod replay;
    pub mod sweep;
    pub mod trace;
}

use tmc_baselines::{
    two_mode_adaptive, two_mode_fixed, CoherentSystem, DirectoryInvalidateSystem, NoCacheSystem,
    UpdateOnlySystem,
};
use tmc_core::{Mode, ModePolicy};
use tmc_memsys::ReferenceMemory;
use tmc_workload::{Op, Trace};

/// Command-line names of the six protocols `tmc replay`, `tmc sweep` and
/// `tmc paper sim-fig8` compare, in report order.
pub const PROTOCOLS: [&str; 6] = ["no-cache", "dir", "update", "dw", "gr", "adaptive"];

/// The mode policy behind a two-mode protocol name (`dw`, `gr`,
/// `adaptive`); `None` for the baselines and unknown names.
pub fn two_mode_policy(protocol: &str) -> Option<ModePolicy> {
    match protocol {
        "dw" => Some(ModePolicy::Fixed(Mode::DistributedWrite)),
        "gr" => Some(ModePolicy::Fixed(Mode::GlobalRead)),
        "adaptive" => Some(ModePolicy::Adaptive { window: 64 }),
        _ => None,
    }
}

/// Builds the protocol named `protocol` (one of [`PROTOCOLS`]) for
/// `n_procs` processors; `None` for an unknown name.
pub fn build_protocol(protocol: &str, n_procs: usize) -> Option<Box<dyn CoherentSystem>> {
    Some(match (protocol, two_mode_policy(protocol)) {
        ("no-cache", _) => Box::new(NoCacheSystem::new(n_procs)),
        ("dir", _) => Box::new(DirectoryInvalidateSystem::new(n_procs)),
        ("update", _) => Box::new(UpdateOnlySystem::new(n_procs)),
        (_, Some(ModePolicy::Fixed(mode))) => Box::new(two_mode_fixed(n_procs, mode)),
        (_, Some(ModePolicy::Adaptive { window })) => Box::new(two_mode_adaptive(n_procs, window)),
        (_, None) => return None,
    })
}

/// A plain-text table printer with right-aligned numeric columns.
///
/// # Example
///
/// ```
/// use tmc_bench::Table;
///
/// let mut t = Table::new(vec!["n".into(), "cost".into()]);
/// t.row(vec!["1".into(), "275".into()]);
/// let s = t.render();
/// assert!(s.contains("275"));
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(headers: Vec<String>) -> Self {
        Table {
            headers,
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header count).
    ///
    /// # Panics
    ///
    /// Panics on a column-count mismatch.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "column count mismatch");
        self.rows.push(cells);
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let line = |cells: &[String], widths: &[usize]| -> String {
            let mut s = String::new();
            for (i, (c, w)) in cells.iter().zip(widths).enumerate() {
                if i > 0 {
                    s.push_str("  ");
                }
                s.push_str(&format!("{c:>w$}", w = w));
            }
            s
        };
        out.push_str(&line(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&line(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Prints the table to stdout under a title.
    pub fn print(&self, title: &str) {
        println!("\n== {title} ==\n{}", self.render());
    }
}

/// Outcome of driving one protocol over one trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunReport {
    /// References executed.
    pub references: usize,
    /// Total bits across all links (flush excluded).
    pub total_bits: u64,
    /// Bits per reference.
    pub bits_per_ref: f64,
}

/// The one reference loop behind [`drive`], [`drive_steady_state`] and
/// [`drive_steady_state_checked`]: executes `trace` on `sys`, stamping
/// writes `1, 2, 3, …`, and reports the traffic added from reference
/// `warmup` on. With an `oracle`, every read is checked against it.
fn drive_from(
    sys: &mut dyn CoherentSystem,
    trace: &Trace,
    warmup: usize,
    mut oracle: Option<ReferenceMemory>,
) -> RunReport {
    let mut stamp = 0u64;
    let mut warm_bits = 0u64;
    for (i, r) in trace.iter().enumerate() {
        if i == warmup {
            warm_bits = sys.total_traffic_bits();
        }
        match r.op {
            Op::Read => {
                let got = sys.read(r.proc, r.addr);
                if let Some(oracle) = &oracle {
                    assert_eq!(
                        got,
                        oracle.read(r.addr),
                        "{}: stale read at reference {i} (proc {}, {:?})",
                        sys.name(),
                        r.proc,
                        r.addr
                    );
                }
            }
            Op::Write => {
                stamp += 1;
                sys.write(r.proc, r.addr, stamp);
                if let Some(oracle) = &mut oracle {
                    oracle.write(r.addr, stamp);
                }
            }
        }
    }
    if trace.len() <= warmup {
        return RunReport {
            references: 0,
            total_bits: 0,
            bits_per_ref: 0.0,
        };
    }
    let measured = trace.len() - warmup;
    let total_bits = sys.total_traffic_bits() - warm_bits;
    RunReport {
        references: measured,
        total_bits,
        bits_per_ref: total_bits as f64 / measured as f64,
    }
}

/// Drives `sys` through `trace` (writes use a running stamp as the value)
/// and reports traffic per reference. The flush at the end is *not*
/// billed to the per-reference figure, matching the paper's steady-state
/// cost models.
pub fn drive(sys: &mut dyn CoherentSystem, trace: &Trace) -> RunReport {
    drive_from(sys, trace, 0, None)
}

/// Drives only the tail of a run: executes `warmup` references unbilled
/// (by subtracting their traffic), then reports per-reference traffic over
/// the remainder — the steady-state figure the paper's models describe.
pub fn drive_steady_state(sys: &mut dyn CoherentSystem, trace: &Trace, warmup: usize) -> RunReport {
    drive_from(sys, trace, warmup, None)
}

/// [`drive_steady_state`], but every read is value-checked against the
/// [`ReferenceMemory`] oracle — the paper commands use this so the
/// published traffic figures come from runs that were *correct*, not just
/// cheap. The write stamps are the same either way, so traffic is
/// bit-identical.
///
/// # Panics
///
/// Panics on the first read that returns a value other than the last one
/// written to that word (a sequential-consistency violation).
pub fn drive_steady_state_checked(
    sys: &mut dyn CoherentSystem,
    trace: &Trace,
    warmup: usize,
) -> RunReport {
    drive_from(sys, trace, warmup, Some(ReferenceMemory::new()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tmc_baselines::NoCacheSystem;
    use tmc_simcore::SimRng;
    use tmc_workload::SharedBlockWorkload;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(vec!["a".into(), "value".into()]);
        t.row(vec!["x".into(), "1".into()]);
        t.row(vec!["longer".into(), "22".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[3].contains("longer"));
        assert_eq!(lines[0].len(), lines[3].len());
    }

    #[test]
    #[should_panic(expected = "column count mismatch")]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new(vec!["a".into()]);
        t.row(vec!["x".into(), "y".into()]);
    }

    #[test]
    fn drive_accumulates_traffic() {
        let mut rng = SimRng::seed_from(1);
        let trace = SharedBlockWorkload::new(4, 4, 0.3)
            .references(200)
            .generate(8, &mut rng);
        let mut sys = NoCacheSystem::new(8);
        let report = drive(&mut sys, &trace);
        assert_eq!(report.references, 200);
        assert!(report.total_bits > 0);
        assert!((report.bits_per_ref - report.total_bits as f64 / 200.0).abs() < 1e-9);
    }

    #[test]
    fn steady_state_excludes_warmup() {
        let mut rng = SimRng::seed_from(1);
        let trace = SharedBlockWorkload::new(4, 4, 0.3)
            .references(400)
            .generate(8, &mut rng);
        let mut a = NoCacheSystem::new(8);
        let full = drive(&mut a, &trace);
        let mut b = NoCacheSystem::new(8);
        let tail = drive_steady_state(&mut b, &trace, 100);
        assert_eq!(tail.references, 300);
        assert!(tail.total_bits < full.total_bits);
    }

    #[test]
    fn steady_state_with_warmup_covering_whole_trace_reports_nothing() {
        let mut rng = SimRng::seed_from(2);
        let trace = SharedBlockWorkload::new(4, 4, 0.3)
            .references(50)
            .generate(8, &mut rng);
        for warmup in [50, 51, 1000] {
            let mut sys = NoCacheSystem::new(8);
            let r = drive_steady_state(&mut sys, &trace, warmup);
            assert_eq!((r.references, r.total_bits), (0, 0), "warmup = {warmup}");
            assert_eq!(r.bits_per_ref, 0.0);
            // The warmup references still executed (state is warm)...
            assert!(sys.total_traffic_bits() > 0);
        }
    }

    #[test]
    fn steady_state_on_empty_trace_is_zero() {
        let trace = Trace::new(8);
        let mut sys = NoCacheSystem::new(8);
        for warmup in [0, 7] {
            let r = drive_steady_state(&mut sys, &trace, warmup);
            assert_eq!((r.references, r.total_bits), (0, 0));
            assert_eq!(r.bits_per_ref, 0.0);
        }
        assert_eq!(drive(&mut sys, &trace).bits_per_ref, 0.0);
    }

    #[test]
    fn checked_drive_matches_unchecked_traffic_exactly() {
        // Value checking must not perturb the measurement: the stamp
        // sequence is identical, so bits are identical.
        let mut rng = SimRng::seed_from(7);
        let trace = SharedBlockWorkload::new(4, 4, 0.3)
            .references(300)
            .generate(8, &mut rng);
        let mut a = NoCacheSystem::new(8);
        let plain = drive_steady_state(&mut a, &trace, 50);
        let mut b = NoCacheSystem::new(8);
        let checked = drive_steady_state_checked(&mut b, &trace, 50);
        assert_eq!(plain, checked);
    }

    #[test]
    #[should_panic(expected = "stale read")]
    fn checked_drive_catches_incoherence() {
        use tmc_memsys::WordAddr;
        use tmc_omeganet::TrafficMatrix;
        use tmc_simcore::CounterSet;
        use tmc_workload::{Op, Reference};

        /// No-cache that drops every write, so a read after a write
        /// returns the stale value.
        struct DropsWrites(NoCacheSystem);

        impl CoherentSystem for DropsWrites {
            fn name(&self) -> &'static str {
                "drops-writes"
            }
            fn read(&mut self, proc: usize, addr: WordAddr) -> u64 {
                self.0.read(proc, addr)
            }
            fn write(&mut self, _: usize, _: WordAddr, _: u64) {}
            fn total_traffic_bits(&self) -> u64 {
                self.0.total_traffic_bits()
            }
            fn traffic(&self) -> &TrafficMatrix {
                self.0.traffic()
            }
            fn counters(&self) -> &CounterSet {
                self.0.counters()
            }
            fn flush(&mut self) {}
            fn peek_word(&self, addr: WordAddr) -> u64 {
                self.0.peek_word(addr)
            }
        }

        let mut trace = Trace::new(4);
        let a = WordAddr::new(0);
        for (proc, op) in [(0, Op::Write), (1, Op::Read), (0, Op::Write), (1, Op::Read)] {
            trace.push(Reference { proc, addr: a, op });
        }
        drive_steady_state_checked(&mut DropsWrites(NoCacheSystem::new(4)), &trace, 0);
    }

    #[test]
    fn zero_warmup_steady_state_equals_full_drive() {
        let mut rng = SimRng::seed_from(3);
        let trace = SharedBlockWorkload::new(4, 4, 0.3)
            .references(120)
            .generate(8, &mut rng);
        let mut a = NoCacheSystem::new(8);
        let full = drive(&mut a, &trace);
        let mut b = NoCacheSystem::new(8);
        let tail = drive_steady_state(&mut b, &trace, 0);
        assert_eq!(full, tail);
    }
}
