//! Replays every minimized reproducer committed under
//! `conformance/corpus/` — each one is a bug the fuzzer once found, and
//! none of them may come back.

use tmc_scenario::corpus;

#[test]
fn committed_corpus_stays_green() {
    let dir = corpus::reproducer_dir();
    let report = corpus::run_dir(&dir).expect("corpus dir readable");
    assert!(
        report.failures.is_empty(),
        "corpus regressions: {:?}",
        report.failures
    );
    assert!(
        report.entries >= 2,
        "expected the committed reproducers to be found in {dir:?}"
    );
}
