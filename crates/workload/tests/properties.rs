//! Randomized tests for the workload generators and the trace format,
//! driven by the in-tree [`SimRng`] (no external crates needed).

use std::panic::catch_unwind;

use tmc_simcore::SimRng;
use tmc_workload::{
    format_trace, parse_trace, HotSpotWorkload, MigratingWorkload, Op, ParseTraceError, Placement,
    PrivateWorkload, SharedBlockWorkload, StencilWorkload, Trace,
};

const CASES: usize = 48;

/// Every generator: references stay within the machine, counts are
/// exact, and generation is a pure function of the seed.
#[test]
fn generators_are_deterministic_and_in_range() {
    let mut meta = SimRng::seed_from(0xDE7E);
    for _ in 0..CASES {
        let seed = meta.next_u64();
        let n_tasks = meta.gen_range(1..=8usize);
        let refs = meta.gen_range(1..400usize);
        let w = meta.gen_unit();
        let n_procs = 16;
        let traces: Vec<Trace> = (0..2)
            .map(|_| {
                let mut rng = SimRng::seed_from(seed);
                SharedBlockWorkload::new(n_tasks, 8, w)
                    .references(refs)
                    .generate(n_procs, &mut rng)
            })
            .collect();
        assert_eq!(&traces[0], &traces[1]);
        assert_eq!(traces[0].len(), refs);
        for r in traces[0].iter() {
            assert!(r.proc < n_procs);
        }
    }
}

/// The one-writer invariant holds for every generator that promises it.
#[test]
fn one_writer_invariant() {
    let mut meta = SimRng::seed_from(0x0E13);
    for _ in 0..CASES {
        let seed = meta.next_u64();
        let n_tasks = meta.gen_range(1..=6usize);
        let mut rng = SimRng::seed_from(seed);
        let wl = SharedBlockWorkload::new(n_tasks, 12, 0.4);
        let spec = wl.spec();
        let trace = wl.references(400).generate(8, &mut rng);
        let mut writers = std::collections::HashMap::new();
        for r in trace.iter().filter(|r| r.op == Op::Write) {
            let b = spec.block_of(r.addr);
            if let Some(prev) = writers.insert(b, r.proc) {
                assert_eq!(prev, r.proc);
            }
        }
    }
}

/// Trace text format round-trips every generator's output.
#[test]
fn trace_text_roundtrip() {
    let mut meta = SimRng::seed_from(0x2077);
    for _ in 0..CASES {
        let seed = meta.next_u64();
        let pick = meta.gen_range(0..5usize);
        let mut rng = SimRng::seed_from(seed);
        let n_procs = 16;
        let trace = match pick {
            0 => SharedBlockWorkload::new(4, 8, 0.3)
                .references(120)
                .generate(n_procs, &mut rng),
            1 => StencilWorkload::new(4, 2, 2).generate(n_procs, &mut rng),
            2 => PrivateWorkload::new(4, 4, 0.5)
                .references(120)
                .generate(n_procs, &mut rng),
            3 => MigratingWorkload::new(4, 8, 0.3, 40)
                .references(120)
                .generate(n_procs, &mut rng),
            _ => HotSpotWorkload::new(4, 0.3, 0.2)
                .references(120)
                .generate(n_procs, &mut rng),
        };
        let text = format_trace(&trace);
        assert_eq!(parse_trace(&text).unwrap(), trace);
    }
}

/// Placements are injective and land inside the machine.
#[test]
fn placements_are_injective() {
    let mut meta = SimRng::seed_from(0x14CE);
    for _ in 0..CASES {
        let seed = meta.next_u64();
        let n_tasks = meta.gen_range(1..=16usize);
        let pick = meta.gen_range(0..3usize);
        let n_procs = 32;
        let placement = match pick {
            0 => Placement::Adjacent { base: 0 },
            1 => Placement::Strided {
                base: 0,
                stride: n_procs / n_tasks.next_power_of_two(),
            },
            _ => Placement::Random,
        };
        if let Placement::Strided { stride, .. } = placement {
            if !(stride > 0 && n_tasks * stride < n_procs + stride) {
                continue;
            }
        }
        let mut rng = SimRng::seed_from(seed);
        let a = placement.assign(n_tasks, n_procs, &mut rng);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), n_tasks, "{placement:?}");
        assert!(a.iter().all(|&p| p < n_procs));
    }
}

/// Empirical write fraction converges to the configured one.
#[test]
fn write_fraction_converges() {
    let mut meta = SimRng::seed_from(0xF2AC);
    for _ in 0..16 {
        let seed = meta.next_u64();
        let w = 0.05 + meta.gen_unit() * 0.9;
        let mut rng = SimRng::seed_from(seed);
        let trace = SharedBlockWorkload::new(4, 8, w)
            .references(8000)
            .generate(8, &mut rng);
        assert!((trace.write_fraction() - w).abs() < 0.05);
    }
}

/// Every prefix of a `format_trace` output, and every substitution of one
/// byte from a fixed set, parses or fails with the line it failed on — a
/// record's own line, or line 1 for a bad header — never a panic. A byte
/// that breaks UTF-8 is refused before the parser sees it.
#[test]
fn parse_trace_never_panics_on_truncated_or_substituted_text() {
    let trace = SharedBlockWorkload::new(4, 8, 0.3)
        .references(40)
        .generate(8, &mut SimRng::seed_from(5));
    let text = format_trace(&trace);
    let bytes = text.as_bytes();
    let lines = text.lines().count();
    let header_end = text.find('\n').expect("a header line");
    // Whether `input` parses; `damage` is the offset of the changed byte.
    let parses = |input: &[u8], damage: usize, what: &str| -> bool {
        let Ok(input) = std::str::from_utf8(input) else {
            return false;
        };
        let parsed = catch_unwind(|| parse_trace(input));
        match parsed.unwrap_or_else(|_| panic!("{what}: panicked")) {
            Ok(_) => true,
            Err(ParseTraceError::BadHeader(h)) => {
                assert!(damage <= header_end, "{what}: bad header {h:?}");
                false
            }
            Err(ParseTraceError::BadRecord { line, why }) => {
                // A substituted `\n` can split a line in two.
                assert!(
                    (2..=lines + 1).contains(&line),
                    "{what}: line {line} of {lines}: {why}"
                );
                false
            }
        }
    };
    assert!(parses(bytes, bytes.len(), "the whole trace"));
    for cut in 0..bytes.len() {
        parses(&bytes[..cut], cut, &format!("prefix {cut}"));
    }
    let mut rejected = 0;
    let mut mutant = bytes.to_vec();
    for i in 0..bytes.len() {
        for &b in b"\n #09xRWf\xc3" {
            mutant[i] = b;
            rejected += usize::from(!parses(&mutant, i, &format!("byte {i} = {b:#04x}")));
        }
        mutant[i] = bytes[i];
    }
    assert!(
        rejected > bytes.len() * 3,
        "only {rejected} substitutions rejected"
    );

    // The highest block-aligned address parses exactly: refusing it is the
    // machine's job (`System::write` answers `CoreError::BadAddress`).
    let max = parse_trace("tmctrace v1 procs=4\n0 W 0xFFFFFFFFFFFFFF00\n").expect("parses");
    let r = max.iter().next().expect("one reference");
    assert_eq!((r.op, r.addr.value()), (Op::Write, 0xFFFF_FFFF_FFFF_FF00));
}
