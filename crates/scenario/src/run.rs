//! Running a scenario and checking it against its goldens.
//!
//! [`run_scenario`] steps the scenario's script through a
//! [`Runner`] — the serial engine with the sequential-consistency oracle
//! alongside, no journal — and condenses the audited run into a
//! [`ScenarioOutcome`] — the compact observables `[expect]` sections pin
//! (FNV-1a fingerprint, counter totals, per-link charge checksum).
//! [`check_scenario`] materialises the op script once and runs it on two
//! machines. A fault-free scenario's oracle-checked run is also its JSONL
//! capture, and the replay of that capture on a fresh machine is the
//! determinism check (the full replay-obligation suite plus the counters).
//! A scenario with faults cannot be replayed, so it runs twice and the two
//! outcomes must agree. Either way the run's outcome is compared with the
//! goldens.

use std::collections::BTreeMap;
use std::convert::Infallible;
use std::fmt::{self, Write as _};

use tmc_bench::script::{Runner, ScriptOp};
use tmc_bench::tracecheck::{self, nonzero_links};
use tmc_core::System;
use tmc_obs::jsonl::fnv1a64;
use tmc_obs::LinkCharge;

use crate::ops::materialize;
use crate::spec::{Expect, Scenario};

/// The condensed observables of one scenario run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioOutcome {
    /// Ops executed (directives + explicit script + workload).
    pub ops: u64,
    /// Reads among them.
    pub reads: u64,
    /// Writes among them.
    pub writes: u64,
    /// Protocol events emitted (tracing is always on for scenario runs).
    pub events: u64,
    /// FNV-1a of the protocol fingerprint bytes.
    pub fingerprint: u64,
    /// Total bits charged across all network links.
    pub total_bits: u64,
    /// FNV-1a over the canonical nonzero per-link charge list.
    pub link_checksum: u64,
    /// FNV-1a over every read's returned value, in op order.
    pub reads_checksum: u64,
    /// Every named counter.
    pub counters: BTreeMap<String, u64>,
}

impl ScenarioOutcome {
    /// The outcome as a fully pinned `[expect]` section (what
    /// `tmc scenario pin` writes; only nonzero counters are pinned).
    pub fn to_expect(&self) -> Expect {
        Expect {
            fingerprint: Some(self.fingerprint),
            total_bits: Some(self.total_bits),
            link_checksum: Some(self.link_checksum),
            reads_checksum: Some(self.reads_checksum),
            events: Some(self.events),
            ops: Some(self.ops),
            counters: self
                .counters
                .iter()
                .filter(|(_, &v)| v != 0)
                .map(|(k, &v)| (k.clone(), v))
                .collect(),
        }
    }
}

/// Canonical checksum over per-link charges: FNV-1a of
/// `layer:line:bits;` in `(layer, line)` order.
fn link_checksum(links: &[LinkCharge]) -> u64 {
    let mut text = String::new();
    for l in links {
        write!(text, "{}:{}:{};", l.layer, l.line, l.bits).expect("writing to a String");
    }
    fnv1a64(text.as_bytes())
}

pub(crate) fn counters_of(sys: &System) -> BTreeMap<String, u64> {
    sys.counters()
        .iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect()
}

/// Runs the scenario on the serial engine with the oracle alongside.
///
/// # Errors
///
/// Returns a message on configuration rejection, an oracle mismatch
/// (stale read), or an invariant violation at a fault-quiescent end
/// state.
pub fn run_scenario(sc: &Scenario) -> Result<ScenarioOutcome, String> {
    run_ops(sc, &materialize(sc), false).map(|(outcome, _)| outcome)
}

/// [`run_scenario`] over an already materialised script; with `capture`,
/// also the run's JSONL trace.
fn run_ops(
    sc: &Scenario,
    ops: &[ScriptOp],
    capture: bool,
) -> Result<(ScenarioOutcome, Option<String>), String> {
    let sys = traced_system(sc)?;
    let mut runner = if capture {
        Runner::capturing(sys)
    } else {
        Runner::new(sys)
    };
    runner.run(ops, None, None)?;
    let outcome = finish(&mut runner, ops)?;
    let trace = if capture { Some(runner.trace()?) } else { None };
    Ok((outcome, trace))
}

/// A fresh machine for `sc` with tracing on: every scenario run counts its
/// protocol events.
pub(crate) fn traced_system(sc: &Scenario) -> Result<System, String> {
    let mut sys = System::new(sc.config()).map_err(|e| e.to_string())?;
    sys.set_tracing(true);
    Ok(sys)
}

/// Audits a runner that reached the end of `ops` and condenses it.
pub(crate) fn finish(runner: &mut Runner, ops: &[ScriptOp]) -> Result<ScenarioOutcome, String> {
    runner.audit(ops)?;
    let sys = runner.sys();
    Ok(ScenarioOutcome {
        ops: runner.ops_done(),
        reads: runner.reads(),
        writes: runner.writes(),
        events: runner.events(),
        fingerprint: fnv1a64(&sys.protocol_fingerprint()),
        total_bits: sys.traffic().total_bits(),
        link_checksum: link_checksum(&nonzero_links(sys.traffic())),
        reads_checksum: runner.reads_checksum(),
        counters: counters_of(sys),
    })
}

/// What one `check` verified.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckReport {
    /// The serial outcome.
    pub outcome: ScenarioOutcome,
    /// Golden fields compared (0 for an unpinned scenario).
    pub goldens: usize,
    /// Whether the JSONL capture was replayed (every fault-free scenario).
    pub replayed: bool,
}

/// Checks a scenario: one oracle-checked run compared with the goldens,
/// and a second machine for determinism. For a fault-free scenario the run
/// is captured and the second machine replays the capture, which must
/// regenerate every event, the trailer's observables and the run's
/// counters; a scenario with faults runs twice and the two outcomes must
/// be equal.
///
/// The second parameter is a placeholder that only `None` can fill: it
/// keeps the two-argument call the repository benchmark makes, and goes
/// with the next change to that benchmark.
///
/// # Errors
///
/// Returns the first failure, naming the observable that diverged.
pub fn check_scenario(sc: &Scenario, _: Option<Infallible>) -> Result<CheckReport, String> {
    let ops = materialize(sc);
    let replayed = !sc.fault_configured();
    let (outcome, trace) = run_ops(sc, &ops, replayed)?;
    if !replayed && run_ops(sc, &ops, false)?.0 != outcome {
        return Err("nondeterministic: two serial runs disagree".into());
    }

    let goldens = check_expect(&sc.expect, &outcome)?;

    if let Some(trace) = trace {
        check_replay(&outcome, &trace)?;
    }

    Ok(CheckReport {
        outcome,
        goldens,
        replayed,
    })
}

/// One pinned golden that diverged from the run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GoldenDiff {
    /// The `[expect]` key (`total_bits`, `counter reads`, ...).
    pub key: String,
    /// The pinned value.
    pub want: u64,
    /// What the run produced.
    pub got: u64,
}

impl fmt::Display for GoldenDiff {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: expected 0x{:x} ({}), actual 0x{:x} ({})",
            self.key, self.want, self.want, self.got, self.got
        )
    }
}

/// Compares *every* pinned golden against the outcome; returns how many
/// were checked plus each divergence (empty = all goldens hold).
pub fn expect_diffs(expect: &Expect, outcome: &ScenarioOutcome) -> (usize, Vec<GoldenDiff>) {
    let mut checked = 0;
    let mut diffs = Vec::new();
    let mut field = |key: &str, want: Option<u64>, got: u64| {
        if let Some(want) = want {
            checked += 1;
            if want != got {
                diffs.push(GoldenDiff {
                    key: key.to_string(),
                    want,
                    got,
                });
            }
        }
    };
    field("fingerprint", expect.fingerprint, outcome.fingerprint);
    field("total_bits", expect.total_bits, outcome.total_bits);
    field("link_checksum", expect.link_checksum, outcome.link_checksum);
    field(
        "reads_checksum",
        expect.reads_checksum,
        outcome.reads_checksum,
    );
    field("events", expect.events, outcome.events);
    field("ops", expect.ops, outcome.ops);
    for (name, &want) in &expect.counters {
        let got = outcome.counters.get(name).copied().unwrap_or(0);
        field(&format!("counter {name}"), Some(want), got);
    }
    (checked, diffs)
}

/// Compares pinned goldens; returns how many fields were checked.
///
/// Unlike a first-failure check, the error names **every** diverged
/// golden, one per line.
fn check_expect(expect: &Expect, outcome: &ScenarioOutcome) -> Result<usize, String> {
    let (checked, diffs) = expect_diffs(expect, outcome);
    if diffs.is_empty() {
        return Ok(checked);
    }
    Err(diffs
        .iter()
        .map(ToString::to_string)
        .collect::<Vec<_>>()
        .join("\n"))
}

/// Replays a run's own capture on a fresh machine: the determinism check of
/// a fault-free scenario. [`tracecheck::check`] regenerates the event
/// stream event for event (read values included) and verifies the
/// fingerprint, total bits, every link charge, the invariants and the
/// oracle memory image; then the replay's counters must equal the run's.
///
/// # Errors
///
/// The first divergence, or the first counter (in name order) that
/// differs.
fn check_replay(outcome: &ScenarioOutcome, trace: &str) -> Result<(), String> {
    let replayed = tracecheck::check(trace)?.counters;
    let run = |name: &str| outcome.counters.get(name).copied().unwrap_or(0);
    let diverged = outcome
        .counters
        .keys()
        .map(String::as_str)
        .chain(replayed.iter().map(|(name, _)| name))
        .filter(|&name| run(name) != replayed.get(name))
        .min();
    match diverged {
        None => Ok(()),
        Some(name) => Err(format!(
            "counter {name}: run has {}, replay has {}",
            run(name),
            replayed.get(name)
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{Family, Faults, Workload};

    fn small() -> Scenario {
        let mut sc = Scenario::new("unit");
        sc.machine.n_caches = 8;
        sc.machine.sets = 8;
        let mut w = Workload::new(Family::SharedBlock);
        w.tasks = 4;
        w.references = 300;
        sc.workload = Some(w);
        sc
    }

    #[test]
    fn run_and_check_agree() {
        let sc = small();
        let outcome = run_scenario(&sc).unwrap();
        assert_eq!(outcome.ops, 300);
        assert!(outcome.total_bits > 0);
        let report = check_scenario(&sc, None).unwrap();
        assert_eq!(report.outcome, outcome);
        assert!(report.replayed);
    }

    #[test]
    fn link_checksum_hashes_the_canonical_text() {
        let link = |layer, line, bits| LinkCharge { layer, line, bits };
        let links = [link(0, 3, 128), link(10, 1023, 7)];
        assert_eq!(link_checksum(&links), fnv1a64(b"0:3:128;10:1023:7;"));
        assert_eq!(link_checksum(&[]), fnv1a64(b""));
    }

    #[test]
    fn pinned_goldens_catch_drift() {
        let mut sc = small();
        let outcome = run_scenario(&sc).unwrap();
        sc.expect = outcome.to_expect();
        assert!(check_scenario(&sc, None).unwrap().goldens >= 6);
        sc.expect.total_bits = Some(outcome.total_bits + 1);
        let e = check_scenario(&sc, None).unwrap_err();
        assert!(e.contains("total_bits"), "{e}");
    }

    #[test]
    fn every_diverged_golden_is_reported() {
        let sc = small();
        let outcome = run_scenario(&sc).unwrap();
        let mut expect = outcome.to_expect();
        expect.total_bits = Some(outcome.total_bits + 1);
        expect.events = Some(outcome.events + 2);
        expect.counters.insert("reads".into(), 1);
        let (checked, diffs) = expect_diffs(&expect, &outcome);
        assert!(checked >= 6);
        let keys: Vec<&str> = diffs.iter().map(|d| d.key.as_str()).collect();
        assert_eq!(keys, ["total_bits", "events", "counter reads"]);
        let rendered = diffs[0].to_string();
        assert!(
            rendered.contains("expected") && rendered.contains("actual"),
            "{rendered}"
        );
    }

    #[test]
    fn the_replay_of_the_runs_capture_names_what_diverged() {
        let sc = small();
        let (outcome, trace) = run_ops(&sc, &materialize(&sc), true).unwrap();
        let trace = trace.unwrap();
        check_replay(&outcome, &trace).unwrap();

        // One read event's recorded value, off by one.
        let read = trace
            .lines()
            .find(|l| l.starts_with(r#"{"type":"read""#))
            .unwrap();
        let at = read.find(r#""value":"#).unwrap() + r#""value":"#.len();
        let digits = read[at..].find(|c: char| !c.is_ascii_digit()).unwrap();
        let value: u64 = read[at..at + digits].parse().unwrap();
        let bad_read = format!("{}{}{}", &read[..at], value + 1, &read[at + digits..]);
        let e = check_replay(&outcome, &trace.replacen(read, &bad_read, 1)).unwrap_err();
        assert!(e.contains(": read value: "), "{e}");

        // One counter of the run's outcome, off by one.
        let mut drifted = outcome.clone();
        let (name, count) = drifted
            .counters
            .iter_mut()
            .find(|(_, &mut v)| v > 0)
            .unwrap();
        *count += 1;
        let want = format!("counter {name}: run has {count}, replay has {}", *count - 1);
        assert_eq!(check_replay(&drifted, &trace).unwrap_err(), want);
    }

    #[test]
    fn fault_scenarios_skip_non_fault_engines() {
        let mut sc = small();
        sc.faults = Some(Faults {
            seed: 3,
            count: 6,
            horizon: 200,
            mean_outage: 20,
            max_retries: 3,
            backoff_base: 8,
        });
        let report = check_scenario(&sc, None).unwrap();
        assert!(!report.replayed);
        let injected = report.outcome.counters.get("faults_injected").copied();
        assert_eq!(injected, Some(6));
    }
}
