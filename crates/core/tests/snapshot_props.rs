//! Snapshot codec properties: the checkpoint byte format is a fixed
//! point of encode∘decode across every protocol variant and machine
//! scale and at every edge of its compact encodings; journal recovery
//! survives arbitrary single-byte damage and truncation without ever
//! panicking or trusting a corrupt byte; and the payload decoder itself,
//! handed damaged bytes directly, answers with a typed error or a machine
//! that re-encodes to exactly those bytes.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

use tmc_core::{
    decode_system, encode_system, recover_journal, FaultSpec, Journal, Mode, ModePolicy,
    SnapshotError, System, SystemConfig,
};
use tmc_memsys::{BlockAddr, WordAddr};
use tmc_omeganet::SchemeKind;
use tmc_simcore::SimRng;

const SCHEMES: [SchemeKind; 4] = [
    SchemeKind::Replicated,
    SchemeKind::BitVector,
    SchemeKind::BroadcastTag,
    SchemeKind::Combined,
];

const POLICIES: [ModePolicy; 3] = [
    ModePolicy::Fixed(Mode::DistributedWrite),
    ModePolicy::Fixed(Mode::GlobalRead),
    ModePolicy::Adaptive { window: 8 },
];

/// Drives a seeded workload so the machine carries non-trivial state —
/// dirty blocks, populated sharer sets, adaptive-window history — before
/// the codec is exercised.
fn warmed_system(scheme: SchemeKind, policy: ModePolicy, n: usize, ops: usize) -> System {
    let cfg = SystemConfig::new(n).multicast(scheme).mode_policy(policy);
    let mut sys = System::new(cfg).expect("valid config");
    let mut rng = SimRng::seed_from(0x5eed ^ (n as u64) << 8 ^ ops as u64);
    let words = (n as u64) * 4;
    for _ in 0..ops {
        let proc = rng.gen_range(0..n);
        let a = WordAddr::new(rng.gen_range(0..words));
        match rng.gen_range(0..8u32) {
            0..=3 => {
                let _ = sys.read(proc, a).expect("valid proc");
            }
            4..=6 => sys.write(proc, a, rng.next_u64()).expect("valid proc"),
            _ => {
                let mode = if rng.gen_bool(0.5) {
                    Mode::DistributedWrite
                } else {
                    Mode::GlobalRead
                };
                sys.set_mode(proc, a, mode).expect("valid proc");
            }
        }
    }
    sys
}

/// encode → decode → encode reproduces the exact same bytes, for all
/// four §3 schemes × three mode policies × N ∈ {16, 256, 1024}.
#[test]
fn encode_decode_encode_is_a_byte_fixed_point() {
    for &n in &[16usize, 256, 1024] {
        // Keep big machines affordable in debug builds; state variety
        // comes from the scheme/policy grid, not op count.
        let ops = if n >= 1024 { 48 } else { 160 };
        for scheme in SCHEMES {
            for policy in POLICIES {
                let sys = warmed_system(scheme, policy, n, ops);
                let first = encode_system(&sys)
                    .unwrap_or_else(|e| panic!("{scheme:?}/{policy:?}/N={n}: encode: {e}"));
                let thawed = decode_system(&first)
                    .unwrap_or_else(|e| panic!("{scheme:?}/{policy:?}/N={n}: decode: {e}"));
                let second = encode_system(&thawed)
                    .unwrap_or_else(|e| panic!("{scheme:?}/{policy:?}/N={n}: re-encode: {e}"));
                assert_eq!(
                    first, second,
                    "{scheme:?}/{policy:?}/N={n}: codec is not a byte fixed point"
                );
                assert_eq!(
                    sys.protocol_fingerprint(),
                    thawed.protocol_fingerprint(),
                    "{scheme:?}/{policy:?}/N={n}: fingerprint drifted through the codec"
                );
            }
        }
    }
}

/// Builds a small multi-frame journal on disk and returns its bytes and
/// frame payloads.
fn reference_journal(path: &std::path::Path) -> (Vec<u8>, Vec<Vec<u8>>) {
    let mut journal = Journal::create(path).expect("create journal");
    let mut payloads = Vec::new();
    for gen in 0..3u64 {
        let sys = warmed_system(
            SCHEMES[gen as usize % SCHEMES.len()],
            POLICIES[gen as usize % POLICIES.len()],
            16,
            40 + gen as usize * 17,
        );
        let frame = encode_system(&sys).expect("encode");
        journal.append(&frame).expect("append");
        payloads.push(frame);
    }
    (std::fs::read(path).expect("journal bytes"), payloads)
}

/// Every single-byte flip of a valid journal is detected: recovery
/// either rejects the file outright (header damage) or reports typed
/// damage after a salvaged prefix — and the salvaged frames are always
/// an exact prefix of the originals. Never a panic, never a silently
/// accepted corrupt byte.
#[test]
fn every_single_byte_flip_is_detected() {
    let dir = std::env::temp_dir().join(format!("tmc-snapprops-flip-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let path = dir.join("ref.journal");
    let (pristine, payloads) = reference_journal(&path);

    let mut by_outcome: BTreeMap<&'static str, usize> = BTreeMap::new();
    for at in 0..pristine.len() {
        let mut bytes = pristine.clone();
        bytes[at] ^= 0x40;
        std::fs::write(&path, &bytes).expect("write damaged journal");
        let outcome = match recover_journal(&path) {
            Err(SnapshotError::BadMagic { at: 0 }) => {
                assert!(at < 8, "byte {at}: only header flips reject the whole file");
                "rejected-header"
            }
            Err(e) => panic!("byte {at}: unexpected hard error {e}"),
            Ok(rec) => {
                assert!(
                    rec.frames.len() < payloads.len() || rec.damage.is_some(),
                    "byte {at}: flip went completely undetected"
                );
                for (i, frame) in rec.frames.iter().enumerate() {
                    assert_eq!(
                        frame, &payloads[i],
                        "byte {at}: salvaged frame {i} is not a pristine prefix"
                    );
                    decode_system(frame)
                        .unwrap_or_else(|e| panic!("byte {at}: salvaged frame {i}: {e}"));
                }
                match rec.damage {
                    Some(SnapshotError::BadMagic { .. }) => "frame-magic",
                    Some(SnapshotError::Truncated { .. }) => "length-field",
                    Some(SnapshotError::ChecksumMismatch { .. }) => "checksum",
                    Some(e) => panic!("byte {at}: unexpected damage {e}"),
                    None => panic!("byte {at}: flip swallowed without damage report"),
                }
            }
        };
        *by_outcome.entry(outcome).or_default() += 1;
    }
    std::fs::remove_dir_all(&dir).ok();

    // The sweep must actually have exercised every detection path.
    for kind in ["rejected-header", "frame-magic", "length-field", "checksum"] {
        assert!(
            by_outcome.contains_key(kind),
            "flip sweep never hit the {kind} path: {by_outcome:?}"
        );
    }
}

/// Every prefix truncation of a valid journal is handled: shorter than
/// the header it is rejected; anywhere else recovery returns exactly the
/// frames that fit and reports the torn tail — except at precise frame
/// boundaries, which are indistinguishable from a clean shorter journal.
#[test]
fn every_prefix_truncation_is_detected() {
    let dir = std::env::temp_dir().join(format!("tmc-snapprops-trunc-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let path = dir.join("ref.journal");
    let (pristine, payloads) = reference_journal(&path);

    // Frame boundaries: header, then each frame's end offset.
    let mut boundaries = vec![8usize];
    let mut pos = 8usize;
    for p in &payloads {
        pos += 4 + 8 + p.len() + 8;
        boundaries.push(pos);
    }
    assert_eq!(*boundaries.last().unwrap(), pristine.len());

    for cut in 0..pristine.len() {
        std::fs::write(&path, &pristine[..cut]).expect("write truncated journal");
        match recover_journal(&path) {
            Err(SnapshotError::BadMagic { at: 0 }) => {
                assert!(
                    cut < 8,
                    "cut {cut}: only sub-header truncation rejects the file"
                );
            }
            Err(e) => panic!("cut {cut}: unexpected hard error {e}"),
            Ok(rec) => {
                let whole = boundaries.iter().filter(|&&b| b <= cut).count() - 1;
                assert_eq!(
                    rec.frames.len(),
                    whole,
                    "cut {cut}: recovery must salvage exactly the frames that fit"
                );
                for (i, frame) in rec.frames.iter().enumerate() {
                    assert_eq!(frame, &payloads[i], "cut {cut}: frame {i} not pristine");
                }
                if boundaries.contains(&cut) {
                    assert!(
                        rec.damage.is_none(),
                        "cut {cut}: a frame-boundary cut is a clean shorter journal"
                    );
                } else {
                    assert!(
                        matches!(rec.damage, Some(SnapshotError::Truncated { .. })),
                        "cut {cut}: torn tail must be reported as truncation, got {:?}",
                        rec.damage
                    );
                }
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `Journal::append` is a true append: K appends cost O(Σ frame sizes)
/// bytes of I/O, not O(K · journal length). Each append writes exactly
/// one frame (magic + length + payload + checksum), the file grows by
/// exactly that much, and the bytes already on disk are never rewritten
/// — the quadratic whole-file rewrite would show up here as an
/// `appended_bytes` total that grows with the journal, not the frame.
#[test]
fn journal_appends_cost_frame_bytes_not_journal_bytes() {
    const FRAME_OVERHEAD: u64 = 4 + 8 + 8; // "TMCF" + len + digest trailer
    const HEADER: u64 = 8; // "TMCJ0003"
    let dir = std::env::temp_dir().join(format!("tmc-snapprops-cost-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let path = dir.join("cost.journal");

    let mut journal = Journal::create(&path).expect("create journal");
    assert_eq!(journal.appended_bytes(), 0);

    // One large frame followed by many small ones: under the old
    // rewrite-everything scheme each small append would re-write the
    // large frame too, inflating the byte cost ~K-fold.
    let large = vec![0xa5u8; 1 << 20];
    let small = vec![0x5au8; 64];
    let mut expected = 0u64;
    journal.append(&large).expect("append large");
    expected += FRAME_OVERHEAD + large.len() as u64;
    for k in 0..32u64 {
        journal.append(&small).expect("append small");
        expected += FRAME_OVERHEAD + small.len() as u64;
        assert_eq!(
            journal.appended_bytes(),
            expected,
            "append {k}: I/O must grow by one frame, not by the journal"
        );
        let on_disk = std::fs::metadata(&path).expect("stat").len();
        assert_eq!(on_disk, HEADER + expected, "append {k}: file size mismatch");
    }
    assert_eq!(journal.frames(), 33);

    // The appended file is byte-for-byte a valid journal: recovery reads
    // back every payload intact.
    let rec = recover_journal(&path).expect("recover");
    assert!(rec.damage.is_none(), "clean journal reported damage");
    assert_eq!(rec.frames.len(), 33);
    assert_eq!(rec.frames[0], large);
    assert!(rec.frames[1..].iter().all(|f| f == &small));
    std::fs::remove_dir_all(&dir).ok();
}

/// An N = 256 adaptive machine that reaches every edge of the line
/// encoding: a `u64::MAX` word (width 8), a block shared by 40 caches (its
/// present set takes the bitmap form), owners mid-way through an adaptive
/// window (nonzero counters), and — as in any cache — a most recently used
/// line whose stamp age is 0. Small caches keep a decode cheap enough to
/// sweep.
fn edge_system() -> System {
    let n = 256;
    let cfg = SystemConfig::new(n)
        .cache_blocks(32)
        .mode_policy(ModePolicy::Adaptive { window: 8 });
    let mut sys = System::new(cfg).expect("valid config");
    let shared = WordAddr::new(0);
    sys.set_mode(0, shared, Mode::DistributedWrite)
        .expect("valid proc");
    for p in 0..40 {
        sys.read(p * 6, shared).expect("valid proc");
    }
    sys.write(7, WordAddr::new(4), u64::MAX)
        .expect("valid proc");
    let mut rng = SimRng::seed_from(0xed9e);
    for _ in 0..48 {
        let proc = rng.gen_range(0..n);
        let a = WordAddr::new(rng.gen_range(8..72u64));
        if rng.gen_bool(0.3) {
            sys.write(proc, a, rng.next_u64() >> rng.gen_range(0..64u32))
                .expect("valid proc");
        } else {
            sys.read(proc, a).expect("valid proc");
        }
    }
    sys
}

#[test]
fn encoding_edges_are_a_byte_fixed_point_and_resume_identically() {
    let mut live = edge_system();
    let shared = live.present_set(BlockAddr::new(0)).expect("owned");
    assert!(
        shared.len() > 32,
        "{} sharers take the list form",
        shared.len()
    );
    assert_eq!(live.peek_word(WordAddr::new(4)), u64::MAX);

    let first = encode_system(&live).expect("encode");
    let mut thawed = decode_system(&first).expect("decode");
    assert_eq!(encode_system(&thawed).expect("re-encode"), first);
    assert_eq!(thawed.protocol_fingerprint(), live.protocol_fingerprint());

    // The adaptive counters show only when a window closes, so both
    // machines run on over the same blocks and must stay identical.
    let mut rng = SimRng::seed_from(0xc0de);
    for _ in 0..400 {
        let proc = rng.gen_range(0..256);
        let a = WordAddr::new(rng.gen_range(0..64u64));
        if rng.gen_bool(0.4) {
            let v = rng.next_u64();
            live.write(proc, a, v).expect("valid proc");
            thawed.write(proc, a, v).expect("valid proc");
        } else {
            assert_eq!(
                live.read(proc, a).expect("valid proc"),
                thawed.read(proc, a).expect("valid proc")
            );
        }
    }
    assert_eq!(thawed.protocol_fingerprint(), live.protocol_fingerprint());
    assert_eq!(
        thawed.counters().iter().collect::<Vec<_>>(),
        live.counters().iter().collect::<Vec<_>>()
    );
    assert_eq!(thawed.traffic(), live.traffic());
}

/// An N = 16 adaptive machine with a fault plan part-way through its
/// schedule, so the payload carries live fault-injection state.
fn faulty_system() -> System {
    let cfg = SystemConfig::new(16)
        .cache_blocks(32)
        .mode_policy(ModePolicy::Adaptive { window: 8 })
        .faults(FaultSpec::new(5).count(24).horizon(300).mean_outage(20));
    let mut sys = System::new(cfg).expect("valid config");
    let mut rng = SimRng::seed_from(0xfa17);
    for i in 0..120u64 {
        let proc = rng.gen_range(0..16);
        let a = WordAddr::new(rng.gen_range(0..96u64));
        if rng.gen_bool(0.4) {
            sys.write(proc, a, i).expect("valid proc");
        } else {
            sys.read(proc, a).expect("valid proc");
        }
    }
    assert!(sys.faults_injected() > 0, "the plan has started firing");
    sys
}

/// The journal sweeps above never reach the payload decoder with damaged
/// bytes: the frame digest rejects them first. Here every prefix and every
/// single-byte substitution of two payloads goes to `decode_system`
/// directly. Each answer is a typed error or a machine that encodes back
/// to exactly the bytes it came from — never a panic, and never a
/// non-canonical payload accepted.
#[test]
fn payload_decoder_never_panics_on_truncated_or_substituted_bytes() {
    let decode = |bytes: &[u8], what: &str| -> bool {
        let decoded = catch_unwind(AssertUnwindSafe(|| decode_system(bytes)))
            .unwrap_or_else(|_| panic!("{what}: decode panicked"));
        match decoded {
            Ok(sys) => {
                let again = encode_system(&sys).unwrap_or_else(|e| panic!("{what}: {e}"));
                assert_eq!(again, bytes, "{what}: accepted a non-canonical payload");
                true
            }
            Err(SnapshotError::Corrupt(_)) => false,
            Err(e) => panic!("{what}: untyped damage {e:?}"),
        }
    };
    for (name, sys) in [
        ("faulty N=16", faulty_system()),
        ("shared N=256", edge_system()),
    ] {
        let payload = encode_system(&sys).expect("encode");
        assert!(decode(&payload, name));
        for cut in 0..payload.len() {
            assert!(!decode(&payload[..cut], &format!("{name}, prefix {cut}")));
        }
        let mut rejected = 0;
        let mut mutant = payload.clone();
        for i in 0..payload.len() {
            for b in [0x00, 0x01, 0x7f, 0x80, 0xff] {
                if b == payload[i] {
                    continue;
                }
                mutant[i] = b;
                rejected += usize::from(!decode(&mutant, &format!("{name}, byte {i} = {b:#04x}")));
            }
            mutant[i] = payload[i];
        }
        assert!(
            rejected > payload.len() * 2,
            "{name}: only {rejected} of {} substitutions rejected",
            payload.len() * 5
        );
    }

    // A configuration whose caches would pass the line bound: a 4-cache
    // payload (version, cache count, 64 sets, 4 ways, ...) with the set and
    // way counts rewritten to 2^24 and 2^10.
    let payload = encode_system(&System::new(SystemConfig::new(4)).unwrap()).unwrap();
    assert_eq!(payload[..4], [2, 4, 64, 4]);
    let mut huge = payload[..2].to_vec();
    huge.extend_from_slice(&[0x80, 0x80, 0x80, 0x08, 0x80, 0x08]);
    huge.extend_from_slice(&payload[4..]);
    assert!(!decode(&huge, "2^24 sets of 2^10 ways"));
    match decode_system(&huge) {
        Err(SnapshotError::Corrupt(why)) => {
            assert!(
                why.contains("cache geometry 16777216x1024 exceeds"),
                "{why}"
            )
        }
        other => panic!("decoded {:?}", other.map(|_| ())),
    }
}

/// A journal or payload of an earlier format is refused with a typed
/// error at its first byte that differs, never misread.
#[test]
fn earlier_formats_are_rejected_with_typed_errors() {
    let dir = std::env::temp_dir().join(format!("tmc-snapprops-old-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let path = dir.join("old.journal");
    let mut old = b"TMCJ0002".to_vec();
    let payload = encode_system(&faulty_system()).expect("encode");
    old.extend_from_slice(b"TMCF");
    old.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    old.extend_from_slice(&payload);
    old.extend_from_slice(&0u64.to_le_bytes());
    std::fs::write(&path, &old).expect("write old journal");
    assert_eq!(
        recover_journal(&path).map(|r| r.frames.len()),
        Err(SnapshotError::BadMagic { at: 0 })
    );
    std::fs::remove_dir_all(&dir).ok();

    // A version-1 payload opens with a little-endian `u32` 1, then the
    // cache count as a `u64`.
    let mut v1 = 1u32.to_le_bytes().to_vec();
    v1.extend_from_slice(&16u64.to_le_bytes());
    v1.extend_from_slice(&64u64.to_le_bytes());
    match decode_system(&v1) {
        Err(SnapshotError::Corrupt(why)) => assert!(why.contains("version 1"), "{why}"),
        other => panic!("a v1 payload decoded to {:?}", other.map(|_| ())),
    }
}

/// The payload keeps a clock slot and a 65-bucket latency-histogram slot
/// that are always zero and empty. Any other value there is corrupt: the
/// decoder answers with a typed error and does not panic.
#[test]
fn reserved_clock_and_histogram_slots_must_be_empty() {
    let mut sys = System::new(SystemConfig::new(4)).expect("valid config");
    sys.write(0, WordAddr::new(1), 1).unwrap();
    sys.inject_offer_naks(3);
    let payload = encode_system(&sys).expect("encode");
    // clock=0, NAK budget 3, tracing off, then the empty histogram.
    let mut slots = vec![0, 3, 0, 65];
    slots.extend([0; 68]);
    let clock = payload
        .windows(slots.len())
        .position(|w| w == slots)
        .expect("reserved slots");
    for (at, byte, what) in [
        (clock, 7, "clock"),
        (clock + 3, 64, "histogram of 64 buckets"),
        (clock + 4, 1, "histogram is not empty"),
        (clock + 4 + 68 - 1, 1, "histogram is not empty"),
    ] {
        let mut bad = payload.clone();
        bad[at] = byte;
        match catch_unwind(|| decode_system(&bad)) {
            Ok(Err(SnapshotError::Corrupt(why))) => assert!(why.contains(what), "{why}"),
            Ok(other) => panic!("byte {at} = {byte} decoded to {:?}", other.map(|_| ())),
            Err(_) => panic!("byte {at} = {byte}: the decoder panicked"),
        }
    }
}
