//! Negative-parse suite: every malformed fixture under `tests/fixtures/`
//! must be rejected with the exact line, exact column, and a message
//! naming the offense. This pins the parser's error contract — a
//! refactor that shifts a column or vagues up a message fails here.

use std::fs;
use std::panic::catch_unwind;
use std::path::Path;

use tmc_scenario::parse;

/// `(fixture, line, col, message substring)`.
const EXPECTED: &[(&str, usize, usize, &str)] = &[
    ("unknown-section.tmcs", 3, 2, "unknown section [quantum]"),
    ("unknown-key.tmcs", 4, 1, "unknown key `frob` in [machine]"),
    (
        "bad-n-caches.tmcs",
        4,
        12,
        "n_caches must be a power of two in 2..=65536, got 12",
    ),
    (
        "out-of-range-n.tmcs",
        4,
        12,
        "n_caches must be a power of two in 2..=65536, got 131072",
    ),
    (
        "bad-scheme.tmcs",
        4,
        10,
        "bad scheme (known: replicated, bitvector, broadcast-tag, combined)",
    ),
    (
        "bad-policy.tmcs",
        4,
        10,
        "bad policy (known: fixed-dw, fixed-gr, adaptive:<window>)",
    ),
    (
        "adaptive-window-1.tmcs",
        4,
        10,
        "adaptive window must be >= 2, got 1",
    ),
    (
        "bad-mode-directive.tmcs",
        4,
        8,
        "bad mode directive (want `mode = <block> dw|gr`)",
    ),
    ("bad-op.tmcs", 4, 6, "bad op (want `R <proc> <addr>`"),
    ("missing-equals.tmcs", 4, 1, "expected `key = value`"),
    (
        "machine-shards-key.tmcs",
        4,
        1,
        "unknown key `shards` in [machine]",
    ),
    (
        "scenario-engines-key.tmcs",
        3,
        1,
        "unknown key `engines` in [scenario]",
    ),
    ("bad-theta.tmcs", 5, 9, "theta must be in [0, 1), got 1.5"),
    (
        "checkpoint-unknown-key.tmcs",
        4,
        1,
        "unknown key `when` in [checkpoint]",
    ),
    ("checkpoint-zero-every.tmcs", 4, 9, "every must be >= 1"),
    ("checkpoint-bad-every.tmcs", 4, 9, "bad every: \"soon\""),
    (
        "bad-write-fraction.tmcs",
        5,
        18,
        "write_fraction must be in [0, 1], got 1.5",
    ),
    (
        "family-not-first.tmcs",
        4,
        1,
        "`family` must be the first key of [workload]",
    ),
    (
        "missing-name.tmcs",
        1,
        1,
        "scenario has no name (set `name` in [scenario])",
    ),
    (
        "tasks-exceed-machine.tmcs",
        7,
        9,
        "workload has 8 tasks but the machine has only 4 processors",
    ),
    (
        "wrong-family-key.tmcs",
        5,
        1,
        "key `theta` does not apply to the `stencil` family",
    ),
    ("bad-bool.tmcs", 4, 16, "bad owner_bypass (true/false)"),
    ("empty-value.tmcs", 2, 7, "key `name` has no value"),
    (
        "unterminated-section.tmcs",
        3,
        1,
        "unterminated section header",
    ),
    (
        "faults-count-beyond-bound.tmcs",
        3,
        1,
        "count 2000000 exceeds the supported bound of 1048576",
    ),
    (
        "faults-outage-beyond-bound.tmcs",
        3,
        1,
        "mean_outage 18446744073709551615 exceeds the supported bound",
    ),
];

fn fixtures_dir() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

#[test]
fn every_fixture_fails_at_the_pinned_position() {
    for &(file, line, col, msg) in EXPECTED {
        let path = fixtures_dir().join(file);
        let text = fs::read_to_string(&path).unwrap_or_else(|e| panic!("{file}: {e}"));
        let err = parse(&text).map(|_| ()).expect_err(file);
        assert_eq!(
            (err.line, err.col),
            (line, col),
            "{file}: expected line {line}, col {col}; got `{err}`"
        );
        assert!(
            err.msg.contains(msg),
            "{file}: expected message containing {msg:?}, got `{err}`"
        );
    }
}

#[test]
fn every_fixture_is_covered() {
    let mut files: Vec<String> = fs::read_dir(fixtures_dir())
        .expect("fixtures dir")
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    files.sort();
    let mut expected: Vec<String> = EXPECTED.iter().map(|&(f, ..)| f.to_string()).collect();
    expected.sort();
    assert_eq!(files, expected, "fixtures and table out of sync");
}

#[test]
fn display_format_is_stable() {
    let err = parse("[machine]\nn_caches = 3\n").unwrap_err();
    assert_eq!(
        err.to_string(),
        "line 2, col 12: n_caches must be a power of two in 2..=65536, got 3"
    );
}

/// Every prefix of two committed scenarios, and every substitution of one
/// byte from a fixed set, parses or fails with a position inside the
/// input — never a panic. A byte that breaks UTF-8 is refused before the
/// parser sees it, as reading the file into a `String` would refuse it.
#[test]
fn parser_never_panics_on_truncated_or_substituted_scenarios() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios");
    for name in ["fault-link-outage.tmcs", "producer-consumer-dw.tmcs"] {
        let text = fs::read_to_string(dir.join(name)).unwrap_or_else(|e| panic!("{name}: {e}"));
        let bytes = text.as_bytes();
        let lines = text.lines().count();
        let parses = |input: &[u8], what: &str| -> bool {
            let Ok(input) = std::str::from_utf8(input) else {
                return false;
            };
            match catch_unwind(|| parse(input)).unwrap_or_else(|_| panic!("{what}: panicked")) {
                Ok(_) => true,
                Err(e) => {
                    // A substituted `\n` can split a line in two.
                    assert!(
                        (1..=lines + 1).contains(&e.line) && e.col >= 1,
                        "{what}: `{e}` is outside the {lines}-line input"
                    );
                    false
                }
            }
        };
        assert!(parses(bytes, name));
        for cut in 0..bytes.len() {
            parses(&bytes[..cut], &format!("{name}, prefix {cut}"));
        }
        let mut rejected = 0;
        let mut mutant = bytes.to_vec();
        for i in 0..bytes.len() {
            for &b in b"\n =[]#09x-.\xff" {
                mutant[i] = b;
                rejected += usize::from(!parses(&mutant, &format!("{name}, byte {i} = {b:#04x}")));
            }
            mutant[i] = bytes[i];
        }
        assert!(
            rejected > bytes.len() * 3,
            "{name}: only {rejected} substitutions rejected"
        );
    }
}
