//! Automatic case minimization.
//!
//! Given a case that trips a pair, [`shrink`] searches for the smallest
//! variant that still trips the *same* pair: contiguous chunk removal
//! (ddmin-style, halves down to single ops), dropping every op that
//! touches one block, dropping every op issued by one processor, prefix
//! truncation, and (for the analytic pair) halving the probe's reference
//! counts. The search is greedy and bounded — at most `MAX_CHECKS`
//! predicate evaluations — so a pathological case cannot hang the fuzzer.

use tmc_bench::script::ScriptOp;

use crate::ops::materialize;
use crate::pairs::{check_pair, Pair};
use crate::spec::Scenario;

/// Hard cap on predicate evaluations per shrink.
const MAX_CHECKS: usize = 1500;

/// Minimizes `sc` for `pair`. Returns the smallest failing variant found,
/// its script materialised into `[ops]` (the input itself, so
/// materialised, if nothing smaller still fails).
pub fn shrink(sc: &Scenario, pair: Pair) -> Scenario {
    let budget = std::cell::Cell::new(MAX_CHECKS);
    let mut fails = |c: &Scenario| -> bool {
        if budget.get() == 0 {
            return false;
        }
        budget.set(budget.get() - 1);
        check_pair(c, pair).is_err()
    };

    let mut best = Scenario {
        ops: materialize(sc),
        modes: Vec::new(),
        workload: None,
        ..sc.clone()
    };
    if pair == Pair::SimVsAnalytic {
        shrink_probe(&mut best, &mut fails);
    }
    loop {
        let before = best.ops.len();
        shrink_chunks(&mut best, &mut fails);
        shrink_by_key(&mut best, &mut fails, |c, op| {
            c.machine.block_spec().block_of(op.addr()).index()
        });
        shrink_by_key(&mut best, &mut fails, |_, op| match *op {
            ScriptOp::Read { proc, .. }
            | ScriptOp::Write { proc, .. }
            | ScriptOp::SetMode { proc, .. } => proc as u64,
        });
        if best.ops.len() >= before || budget.get() == 0 {
            break;
        }
    }
    best
}

/// ddmin-lite: try removing contiguous chunks, halving the chunk size.
fn shrink_chunks(best: &mut Scenario, fails: &mut impl FnMut(&Scenario) -> bool) {
    let mut chunk = (best.ops.len() / 2).max(1);
    while chunk >= 1 {
        let mut start = 0;
        while start < best.ops.len() {
            let end = (start + chunk).min(best.ops.len());
            let mut candidate = best.clone();
            candidate.ops.drain(start..end);
            if !candidate.ops.is_empty() && fails(&candidate) {
                *best = candidate;
                // Retry the same start: the window now holds new ops.
            } else {
                start += chunk;
            }
        }
        if chunk == 1 {
            break;
        }
        chunk /= 2;
    }
}

/// Drops all ops sharing one key (block or proc) at a time.
fn shrink_by_key(
    best: &mut Scenario,
    fails: &mut impl FnMut(&Scenario) -> bool,
    key: impl Fn(&Scenario, &ScriptOp) -> u64,
) {
    let mut keys: Vec<u64> = best.ops.iter().map(|op| key(best, op)).collect();
    keys.sort_unstable();
    keys.dedup();
    for k in keys {
        let mut candidate = best.clone();
        candidate.ops.retain(|op| key(best, op) != k);
        if !candidate.ops.is_empty() && candidate.ops.len() < best.ops.len() && fails(&candidate) {
            *best = candidate;
        }
    }
}

/// Halves the analytic probe's measured and warmup references.
fn shrink_probe(best: &mut Scenario, fails: &mut impl FnMut(&Scenario) -> bool) {
    while let Some(p) = best.analytic {
        if p.refs < 200 {
            break;
        }
        let mut candidate = best.clone();
        if let Some(q) = candidate.analytic.as_mut() {
            q.refs /= 2;
            q.warmup /= 2;
        }
        if fails(&candidate) {
            *best = candidate;
        } else {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::generate_case;
    use tmc_memsys::WordAddr;

    // A synthetic "divergence": the shrinking machinery is exercised with
    // a plain predicate by reimplementing the loop on top of it. Here we
    // check the helpers directly.

    #[test]
    fn chunk_removal_minimizes_to_the_culprit() {
        let mut case = generate_case(3);
        // Culprit: the single write of value 77.
        case.ops = (0..40)
            .map(|i| ScriptOp::Write {
                proc: 0,
                addr: WordAddr::new(i % 7),
                value: if i == 23 { 77 } else { i },
            })
            .collect();
        let mut fails = |c: &Scenario| {
            c.ops
                .iter()
                .any(|op| matches!(op, ScriptOp::Write { value: 77, .. }))
        };
        shrink_chunks(&mut case, &mut fails);
        assert_eq!(case.ops.len(), 1, "minimized to the culprit op");
        assert!(fails(&case));
    }

    #[test]
    fn block_dropping_removes_innocent_blocks() {
        let mut case = generate_case(4);
        case.ops = vec![
            ScriptOp::Write {
                proc: 0,
                addr: WordAddr::new(0),
                value: 1,
            },
            ScriptOp::Write {
                proc: 1,
                addr: WordAddr::new(64),
                value: 2,
            },
            ScriptOp::Read {
                proc: 1,
                addr: WordAddr::new(0),
            },
        ];
        let mut fails = |c: &Scenario| {
            c.ops
                .iter()
                .any(|op| op.addr() == WordAddr::new(0) && matches!(op, ScriptOp::Read { .. }))
        };
        shrink_by_key(&mut case, &mut fails, |c, op| {
            c.machine.block_spec().block_of(op.addr()).index()
        });
        assert!(case.ops.iter().all(|op| op.addr() != WordAddr::new(64)));
    }

    /// A scenario with a `[workload]` shrinks over its materialised
    /// script: the result carries the generated references as explicit
    /// `[ops]` and no workload.
    #[test]
    fn a_workload_scenario_shrinks_over_its_explicit_script() {
        let text = "\
[scenario]
name = mini
[machine]
n_caches = 8
[workload]
family = shared-block
tasks = 4
references = 50
";
        let sc = crate::parse(text).expect("parses");
        let shrunk = shrink(&sc, Pair::SerialVsReplay);
        assert_eq!(shrunk.ops, materialize(&sc));
        assert_eq!(shrunk.ops.len(), 50);
        assert!(shrunk.workload.is_none());
        assert_eq!(shrunk.machine, sc.machine);
    }

    #[test]
    fn shrink_keeps_a_failing_case_failing() {
        // End-to-end against a real pair: fabricating a case that fails
        // serial-vs-replay is impossible (the engine is correct), so
        // instead assert shrink() is identity on a passing case.
        let case = generate_case(5);
        let shrunk = shrink(&case, Pair::SerialVsReplay);
        assert_eq!(shrunk, case, "passing cases shrink to themselves");
    }
}
