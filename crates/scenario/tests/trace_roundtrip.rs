//! Golden-trace round-trip: capture one small scenario's JSONL trace,
//! pin the FNV-1a trailer against an independent recomputation, and
//! prove decode → re-encode reproduces the capture byte for byte.

use tmc_bench::script::apply_script;
use tmc_bench::tracecheck::capture;
use tmc_core::System;
use tmc_obs::jsonl::{encode_record, fnv1a64, parse_record, TraceRecord};
use tmc_scenario::ops::materialize;
use tmc_scenario::{corpus, parse, run_scenario};

const SCENARIO: &str = "\
[scenario]
name = trace-roundtrip
[machine]
n_caches = 4
[ops]
op = W 0 0 7
op = R 1 0
op = M 0 4 dw
op = W 0 4 9
op = R 2 4
op = R 3 0
";

#[test]
fn jsonl_trace_roundtrips_byte_identically() {
    let sc = parse(SCENARIO).unwrap();
    let ops = materialize(&sc);
    let text = capture(sc.config(), |sys| apply_script(sys, &ops)).unwrap();

    // Independently rerun the scenario to recompute the trailer goldens.
    let mut sys = System::new(sc.config()).unwrap();
    apply_script(&mut sys, &ops);
    let want_fingerprint = fnv1a64(&sys.protocol_fingerprint());
    let want_bits = sys.traffic().total_bits();

    let records: Vec<TraceRecord> = text.lines().map(|l| parse_record(l).unwrap()).collect();
    let TraceRecord::Header(header) = &records[0] else {
        panic!("first record is not a header");
    };
    assert_eq!(header.n_procs, 4);
    let TraceRecord::Trailer(trailer) = records.last().unwrap() else {
        panic!("last record is not a trailer");
    };
    assert_eq!(
        trailer.fingerprint, want_fingerprint,
        "FNV-1a trailer drifted"
    );
    assert_eq!(trailer.total_bits, want_bits);
    assert_eq!(trailer.events as usize, records.len() - 2);

    // Decode → re-encode must reproduce the capture byte for byte.
    let reencoded: String = records
        .iter()
        .map(|r| format!("{}\n", encode_record(r)))
        .collect();
    assert_eq!(reencoded, text, "re-encode is not byte-identical");

    // And the scenario runner agrees with the trace trailer.
    let outcome = run_scenario(&sc).unwrap();
    assert_eq!(outcome.fingerprint, want_fingerprint);
    assert_eq!(outcome.total_bits, want_bits);
}

/// The committed corpus parses, and re-encoding a parsed scenario is a
/// fixed point of the canonical form.
#[test]
fn committed_corpus_parses_and_encode_is_stable() {
    let entries = corpus::load_dir(&corpus::default_dir()).unwrap();
    assert!(
        entries.len() >= 20,
        "corpus shrank below 20 scenarios ({})",
        entries.len()
    );
    for (path, sc) in &entries {
        let reparsed = parse(&sc.encode()).unwrap_or_else(|e| {
            panic!(
                "{}: canonical re-encode fails to parse: {e}",
                path.display()
            )
        });
        assert_eq!(
            &reparsed,
            sc,
            "{}: encode/parse not a fixed point",
            path.display()
        );
    }
}
