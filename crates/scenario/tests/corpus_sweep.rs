//! Tier-1 sweep of the committed corpus: every scenario under
//! `scenarios/` must check clean — determinism double-run, pinned
//! goldens, and trace replay on every fault-free scenario. The CI
//! `scenario-sweep` job repeats this in release mode.

use tmc_scenario::{check_scenario, corpus};

#[test]
fn committed_corpus_checks_clean() {
    let entries = corpus::load_dir(&corpus::default_dir()).unwrap();
    assert!(entries.len() >= 20, "corpus shrank to {}", entries.len());
    let mut failures = Vec::new();
    let mut fault = 0;
    let mut adaptive = 0;
    let mut big_n = 0;
    for (path, sc) in &entries {
        if sc.fault_configured() {
            fault += 1;
        }
        if matches!(sc.machine.policy, tmc_core::ModePolicy::Adaptive { .. }) {
            adaptive += 1;
        }
        if sc.machine.n_caches >= 256 {
            big_n += 1;
        }
        assert!(
            sc.expect.is_pinned(),
            "{}: committed scenario has no goldens (run `tmc scenario pin`)",
            path.display()
        );
        if let Err(e) = check_scenario(sc, None) {
            failures.push(format!("{}: {e}", path.display()));
        }
    }
    assert!(
        failures.is_empty(),
        "scenario sweep failed:\n{}",
        failures.join("\n")
    );
    // The coverage floor: faults, adaptive policy and big-N Zipf must
    // each be exercised by at least one scenario.
    assert!(fault >= 1, "no fault scenario in the corpus");
    assert!(adaptive >= 1, "no adaptive-policy scenario in the corpus");
    assert!(big_n >= 1, "no big-N scenario in the corpus");
}
