//! Golden JSONL bytes: the exact length and FNV-1a digest of the trace
//! [`capture`] writes for every fault-free committed scenario and for one
//! N = 256 multi-tenant Zipf stream.
//!
//! The table was computed with the string-building encoder that the
//! byte-direct codec in `tmc_obs::jsonl` replaced, so it pins the codec's
//! output bytes, not just its round trip: one changed digit, key order or
//! escape anywhere in any line fails here. A protocol change that alters
//! the event stream also fails here; recompute the table from the
//! `actual` listing the failure prints only after the scenario goldens
//! and `crates/core/tests/protocol.rs` explain why the stream moved.

use tmc_bench::script::{apply_script, from_trace};
use tmc_bench::tracecheck::capture;
use tmc_core::{ModePolicy, SystemConfig};
use tmc_obs::fnv1a64;
use tmc_scenario::corpus;
use tmc_scenario::ops::materialize;
use tmc_simcore::SimRng;
use tmc_workload::MultiTenantZipfWorkload;

/// `(trace name, byte length, FNV-1a of the bytes)`.
const GOLDEN: &[(&str, usize, u64)] = &[
    ("adaptive-crossover", 306631, 0xeec3d485d36e4d75),
    ("bigN-sharded-1024", 776391, 0xbe060e58897a15c6),
    ("false-sharing", 3272, 0x3c78181470f3a546),
    ("hotspot-contended", 365306, 0x933bd98c6b5ede1a),
    ("iriw", 1968, 0xd2692aecce1c3c83),
    ("migratory-8", 236137, 0x4c1a8f903663d67f),
    ("migratory-adaptive", 295758, 0x495f7c8164074e88),
    ("mode-switch-storm", 396348, 0x24e42c8c8d17f39e),
    ("private-baseline", 177224, 0x3e484c7ebfd4ff2a),
    ("producer-consumer-dw", 3375, 0x2e82d77edfc7e636),
    ("producer-consumer", 3568, 0x064f8786ae5200e0),
    ("readonly-broadcast", 278205, 0xfbcecfdb90720317),
    ("scheme-bitvector", 257303, 0x678c4aa36a80fa7b),
    ("scheme-broadcast-tag", 257572, 0x1df49ec3e92480f2),
    ("scheme-replicated", 257319, 0x0c9e0330a9426ca8),
    ("sharded-k8-shared", 408961, 0xde963392e6f8f723),
    ("single-writer-burst", 182134, 0x84b33a14d39d03d5),
    ("stencil-64", 794356, 0xa667d5fea831db0a),
    ("stencil-8", 317668, 0x556ea25ad32a06ef),
    ("zipf-1m-users", 466629, 0xb398e2d76bec8963),
    ("zipf-bign-1024", 452467, 0xc117b3e691adb041),
    ("zipf-bign-256", 523613, 0xce7c80b4919b4be7),
    ("zipf-256-50k", 8349153, 0x2f2507d97e234b80),
];

/// The traced-durable benchmark stream at a fixed seed: N = 256, 16
/// tenants × 1024 blocks, Zipf users, w = 0.2, adaptive window 64.
fn zipf_trace() -> String {
    let n = 256;
    let trace = MultiTenantZipfWorkload::new(n, 1_000_000, 0.2)
        .tenants(16)
        .blocks_per_tenant(1024)
        .references(50_000)
        .generate(n, &mut SimRng::seed_from(11));
    let ops = from_trace(&trace);
    let cfg = SystemConfig::new(n).mode_policy(ModePolicy::Adaptive { window: 64 });
    capture(cfg, |sys| apply_script(sys, &ops)).unwrap()
}

#[test]
fn captured_trace_bytes_match_the_pinned_digests() {
    let mut actual = Vec::new();
    for (_, sc) in corpus::load_dir(&corpus::default_dir()).unwrap() {
        if sc.fault_configured() {
            continue;
        }
        let ops = materialize(&sc);
        let text = capture(sc.config(), |sys| apply_script(sys, &ops)).unwrap();
        actual.push((sc.name.clone(), text.len(), fnv1a64(text.as_bytes())));
    }
    let text = zipf_trace();
    actual.push(("zipf-256-50k".into(), text.len(), fnv1a64(text.as_bytes())));

    let listing: String = actual
        .iter()
        .map(|(name, len, fnv)| format!("    ({name:?}, {len}, {fnv:#018x}),\n"))
        .collect();
    let want: Vec<(String, usize, u64)> = GOLDEN
        .iter()
        .map(|&(name, len, fnv)| (name.to_owned(), len, fnv))
        .collect();
    assert_eq!(actual, want, "actual:\n{listing}");
}
