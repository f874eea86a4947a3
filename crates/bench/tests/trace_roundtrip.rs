//! End-to-end trace replay: capture a run as JSONL, re-execute it against
//! a fresh system, and verify every trailer obligation — plus the
//! zero-perturbation guarantee that tracing never changes what it records,
//! and the reader's promise to answer any input with a typed error rather
//! than a panic.

use tmc_bench::script::{apply_script, from_trace};
use tmc_bench::tracecheck::{capture, check, config_from, header_for};
use tmc_core::{Mode, ModePolicy, System, SystemConfig};
use tmc_memsys::WordAddr;
use tmc_obs::{fnv1a64, TraceReader};
use tmc_omeganet::SchemeKind;
use tmc_simcore::SimRng;
use tmc_workload::{Placement, SharedBlockWorkload, Trace};

fn workload(seed: u64, refs: usize) -> Trace {
    SharedBlockWorkload::new(4, 8, 0.3)
        .references(refs)
        .placement(Placement::Adjacent { base: 0 })
        .generate(8, &mut SimRng::seed_from(seed))
}

fn drive(sys: &mut System, trace: &Trace) {
    apply_script(sys, &from_trace(trace));
}

#[test]
fn roundtrip_verifies_under_every_policy_and_scheme() {
    let policies = [
        ModePolicy::Fixed(Mode::DistributedWrite),
        ModePolicy::Fixed(Mode::GlobalRead),
        ModePolicy::Adaptive { window: 32 },
    ];
    let schemes = [SchemeKind::Combined, SchemeKind::BitVector];
    for (pi, &policy) in policies.iter().enumerate() {
        for (si, &scheme) in schemes.iter().enumerate() {
            let cfg = SystemConfig::new(8).mode_policy(policy).multicast(scheme);
            let trace = workload(40 + (pi * 2 + si) as u64, 600);
            let report = capture(cfg, |sys| drive(sys, &trace))
                .and_then(|text| check(&text))
                .unwrap_or_else(|e| panic!("policy {policy:?} scheme {scheme:?}: {e}"));
            assert_eq!(report.replayed, 600, "every reference replays");
            assert!(report.events >= report.replayed);
            assert!(report.reads_checked > 0);
            assert!(report.words_checked > 0);
        }
    }
}

#[test]
fn roundtrip_covers_mode_directives_and_small_caches() {
    // A 2-set cache forces replacements and ownership handoffs into the
    // trace; directives exercise SetMode replay.
    let cfg = SystemConfig::new(4)
        .cache_blocks(8)
        .mode_policy(ModePolicy::Adaptive { window: 8 });
    let trace = workload(7, 800);
    let text = capture(cfg, |sys| {
        sys.set_mode(0, WordAddr::new(0), Mode::DistributedWrite)
            .unwrap();
        drive(sys, &trace);
        sys.set_mode(2, WordAddr::new(0), Mode::GlobalRead).unwrap();
        sys.read(1, WordAddr::new(0)).unwrap();
    })
    .unwrap();
    assert_eq!(check(&text).unwrap().replayed, 803);
}

#[test]
fn tracing_does_not_perturb_the_run() {
    // The zero-cost-when-disabled claim, measured: the same drive with
    // tracing on and off must land on identical fingerprints and traffic.
    let cfg = SystemConfig::new(8).mode_policy(ModePolicy::Adaptive { window: 32 });
    let trace = workload(11, 1_000);

    let mut plain = System::new(cfg.clone()).unwrap();
    drive(&mut plain, &trace);

    let mut traced = System::new(cfg).unwrap();
    traced.set_tracing(true);
    drive(&mut traced, &trace);

    assert_eq!(
        fnv1a64(&plain.protocol_fingerprint()),
        fnv1a64(&traced.protocol_fingerprint())
    );
    assert_eq!(plain.traffic().total_bits(), traced.traffic().total_bits());
    assert!(plain.drain_trace().is_empty());
    assert!(!traced.drain_trace().is_empty());
}

#[test]
fn corrupted_traces_are_rejected() {
    let cfg = SystemConfig::new(4);
    let trace = workload(3, 200);
    let text = capture(cfg, |sys| drive(sys, &trace)).unwrap();

    // Baseline: the pristine trace verifies.
    check(&text).unwrap();

    // Tamper with the trailer's total_bits: the replay must notice.
    let lines: Vec<&str> = text.lines().collect();
    let trailer = lines.last().unwrap();
    let tampered = trailer.replace("\"total_bits\":", "\"total_bits\":9");
    assert_ne!(*trailer, tampered);
    let mut bad = lines[..lines.len() - 1].join("\n");
    bad.push('\n');
    bad.push_str(&tampered);
    let err = check(&bad).unwrap_err();
    assert!(err.contains("total link bits"), "unexpected error: {err}");

    // Drop an event: the count check must notice.
    let event_line = lines
        .iter()
        .position(|l| l.contains("\"type\":\"write\""))
        .expect("trace has writes");
    let mut dropped: Vec<&str> = lines.clone();
    dropped.remove(event_line);
    let err = check(&dropped.join("\n")).unwrap_err();
    assert!(
        err.contains("events") || err.contains("regenerated"),
        "unexpected error: {err}"
    );

    // A header naming a machine nothing can build is an error, not a panic.
    for (field, bad) in [
        ("\"sets\":64", "\"sets\":3"),
        ("\"sets\":64", "\"sets\":0"),
        ("\"ways\":4", "\"ways\":0"),
        ("\"words_log2\":2", "\"words_log2\":40"),
    ] {
        let header = lines[0].replace(field, bad);
        assert_ne!(header, lines[0], "{field} not in the header");
        let mut tampered = lines.clone();
        tampered[0] = &header;
        let err = check(&tampered.join("\n")).unwrap_err();
        assert!(err.contains("invalid"), "{bad}: unexpected error: {err}");
    }
}

#[test]
fn headers_pin_the_machine_exactly() {
    let cfg = SystemConfig::new(16)
        .mode_policy(ModePolicy::Adaptive { window: 64 })
        .multicast(SchemeKind::BroadcastTag)
        .owner_bypass(false);
    let sys = System::new(cfg.clone()).unwrap();
    let header = header_for(&sys).unwrap();
    assert_eq!(header.policy, "adaptive:64");
    assert_eq!(header.scheme, "broadcast-tag");
    assert_eq!(config_from(&header).unwrap(), cfg);
}

/// Every prefix and every single-byte substitution of a small capture is
/// read without a panic: the result is the trace or a `TraceError` that
/// names a line of the input.
#[test]
fn reader_never_panics_on_truncated_or_substituted_bytes() {
    let text = capture(SystemConfig::new(4), |sys| {
        let a = WordAddr::new(0);
        sys.set_mode(0, a, Mode::DistributedWrite).unwrap();
        for p in 0..4 {
            sys.read(p, a).unwrap();
        }
        sys.write(1, a, 7).unwrap();
        sys.read(2, WordAddr::new(64)).unwrap();
    })
    .unwrap();
    assert!(text.contains(r#""links":[["#), "the capture has a cast");
    let bytes = text.as_bytes();
    let lines = text.lines().count();
    let read = |input: &[u8]| match TraceReader::new(input).read_all() {
        Ok(_) => true,
        Err(e) => {
            // A substituted `\n` can split a line in two.
            assert!(e.line <= lines + 1, "line {} of {lines}: {e}", e.line);
            false
        }
    };
    assert!(read(bytes));

    // A prefix lacks the trailer or ends inside a record; dropping only
    // the final newline is still a whole trace.
    for cut in 0..bytes.len() {
        assert_eq!(
            read(&bytes[..cut]),
            cut == bytes.len() - 1,
            "prefix of {cut} bytes"
        );
    }

    let mut rejected = 0;
    let mut mutant = bytes.to_vec();
    for i in 0..bytes.len() {
        for &b in b"\":,[]{}09tf\\\n\xc3" {
            mutant[i] = b;
            rejected += usize::from(!read(&mutant));
        }
        mutant[i] = bytes[i];
    }
    assert!(
        rejected > bytes.len() * 8,
        "only {rejected} substitutions rejected"
    );

    // A write to the highest block-aligned address reads as a trace, and
    // its replay is a typed error naming the address, not an abort on a
    // page-directory allocation.
    let write = r#""type":"write","proc":1,"addr":0,"#;
    let max = text.replacen(
        write,
        r#""type":"write","proc":1,"addr":18446744073709551360,"#,
        1,
    );
    assert_ne!(max, text, "the capture has the write");
    assert!(read(max.as_bytes()));
    let err = check(&max).expect_err("the machine refuses the max address");
    assert!(err.contains("address 18446744073709551360"), "{err}");

    // A header naming a geometry past the line bound (2^24 sets of 1024
    // ways, the widest the shape check takes field by field) reads as a
    // trace, and its check is a typed refusal, not an abort in a cache.
    let shape = r#""sets":64,"ways":4,"#;
    let huge = text.replacen(shape, r#""sets":16777216,"ways":1024,"#, 1);
    assert_ne!(huge, text, "the header names the geometry");
    assert!(read(huge.as_bytes()));
    let err = check(&huge).expect_err("no machine holds 2^34 lines per cache");
    assert!(
        err.contains("cache geometry 16777216x1024 exceeds"),
        "{err}"
    );
}
