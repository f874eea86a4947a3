//! `--compare` verdicts and the JSON they are read from.

use repo_benchmark::compare::{compare, judge, Reading, Verdict};
use repo_benchmark::json::Json;
use repo_benchmark::manifest::{Manifest, MetricDecl};

fn decl(higher: bool, bound: f64) -> MetricDecl {
    MetricDecl {
        name: "m".into(),
        unit: "u".into(),
        higher_is_better: higher,
        bound: Some(bound),
    }
}

fn reading(samples: &[f64]) -> Reading {
    Reading {
        value: repo_benchmark::stats::median(samples),
        samples: samples.to_vec(),
    }
}

#[test]
fn tight_samples_are_judged_against_the_bound() {
    let d = decl(true, 0.08);
    let old = reading(&[100.0, 101.0, 99.0, 100.5, 99.5]);
    assert_eq!(
        judge(&d, &old, &reading(&[97.0, 98.0, 96.0, 97.5, 96.5])),
        Verdict::Ok
    );
    assert_eq!(
        judge(&d, &old, &reading(&[90.0, 91.0, 89.0, 90.5, 89.5])),
        Verdict::Regression
    );
    assert_eq!(
        judge(&d, &old, &reading(&[110.0, 111.0, 109.0, 110.5, 109.5])),
        Verdict::Improved
    );
    // Lower-is-better flips the direction.
    let d = decl(false, 0.08);
    assert_eq!(
        judge(&d, &old, &reading(&[110.0, 111.0, 109.0, 110.5, 109.5])),
        Verdict::Regression
    );
}

#[test]
fn a_spread_wider_than_the_bound_is_unresolved_not_unchanged() {
    let d = decl(true, 0.05);
    let noisy = reading(&[80.0, 100.0, 120.0, 90.0, 110.0]);
    assert_eq!(judge(&d, &noisy, &noisy), Verdict::Unresolved);
    // ... unless every new rep beats every old rep.
    let clearly_better = reading(&[130.0, 150.0, 170.0, 140.0, 160.0]);
    assert_eq!(judge(&d, &noisy, &clearly_better), Verdict::Improved);
    // A single-sample metric (peak memory) has no spread to hide behind.
    let d = decl(false, 0.05);
    let one = |v| Reading {
        value: v,
        samples: vec![],
    };
    assert_eq!(judge(&d, &one(100.0), &one(104.0)), Verdict::Ok);
    assert_eq!(judge(&d, &one(100.0), &one(106.0)), Verdict::Regression);
}

fn result_doc(refs_per_s: f64, bits: f64, seed: f64) -> Json {
    let text = format!(
        r#"{{"seed": {seed}, "smoke": false, "workloads": {{"paper-grid": {{
            "failed": 0, "sim_digest": "ab",
            "end_to_end": {{
              "refs_per_s": {{"value": {refs_per_s}, "unit": "refs/s", "samples": [{refs_per_s}, {refs_per_s}]}},
              "sim_bits_per_ref": {{"value": {bits}, "unit": "bits/ref"}}
            }}}}}}}}"#
    );
    Json::parse(&text).expect("well-formed test document")
}

#[test]
fn compare_counts_only_out_of_bound_rows_and_demands_exact_sim_values() {
    let m = Manifest::load();
    let base = result_doc(1000.0, 328.5, 1.0);
    assert_eq!(compare(&m, &base, &base), Ok(0));
    assert_eq!(compare(&m, &base, &result_doc(990.0, 328.5, 1.0)), Ok(0));
    assert_eq!(compare(&m, &base, &result_doc(500.0, 328.5, 1.0)), Ok(1));
    // A simulated metric off by one part in a million is a regression.
    assert_eq!(
        compare(&m, &base, &result_doc(1000.0, 328.5003, 1.0)),
        Ok(1)
    );
    // Different seeds are different inputs: refuse, do not judge.
    assert!(compare(&m, &base, &result_doc(1000.0, 328.5, 2.0)).is_err());
}

#[test]
fn json_round_trips_and_rejects_garbage() {
    let doc = Json::obj([
        ("a", Json::nums(&[1.0, 2.5, -3e-7])),
        ("b", Json::Str("q\"uote\n".into())),
        ("c", Json::obj([("d", Json::Null), ("e", Json::Bool(true))])),
    ]);
    assert_eq!(Json::parse(&doc.to_line()), Ok(doc.clone()));
    assert_eq!(Json::parse(&doc.to_pretty()), Ok(doc));
    // Every measured digit survives.
    let v = 0.1 + 0.2;
    assert_eq!(Json::parse(&Json::Num(v).to_line()), Ok(Json::Num(v)));
    for bad in ["", "{", "[1,]", "{\"a\" 1}", "nul", "1 2", "\"open"] {
        assert!(Json::parse(bad).is_err(), "{bad:?} must not parse");
    }
    assert!(Json::parse(&"[".repeat(1000)).is_err(), "depth is bounded");
}
