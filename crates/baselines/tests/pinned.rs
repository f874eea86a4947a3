//! The baselines' answers on seeded scripts, pinned as digests.
//!
//! Every row drives one engine through one seeded script and pins four
//! digests: the counter set, the per-link ledger, the total link bits and
//! the values the script read (every read, then every word of the
//! footprint after `flush`). A second test pins the JSONL bytes of one
//! traced script per engine.
//!
//! The digests were computed with the baselines as hand-written engines,
//! before their billing moved onto the engine's path (`Omega::charge_unicast`
//! for every unicast, a `CastCache` for every cast, `DestSet` sharer sets in
//! a paged directory). The baselines are now rule tables run by
//! `tmc_core::System` (`System::baseline`), and those tables reproduced
//! every row below, bit for bit, before the hand-written bodies were
//! deleted. The rows stay the contract for any later change to them.

use tmc_baselines::{CoherentSystem, DirectoryInvalidateSystem, NoCacheSystem, UpdateOnlySystem};
use tmc_memsys::{CacheGeometry, WordAddr};
use tmc_obs::jsonl::{encode_event_into, fnv1a64};
use tmc_omeganet::{LinkId, SchemeKind};
use tmc_simcore::SimRng;

/// Words per block in every baseline's default spec.
const BLOCK_WORDS: u64 = 4;
/// Blocks the random phase touches (block 0 is the hot one).
const BLOCKS: u64 = 40;
/// Processors that crowd onto the hot block together: past the 12 members
/// a `DestSet` keeps inline, so at N = 128 its sharer set becomes a bitmap
/// and shrinks back to a list when the crowd is invalidated or evicted.
const CROWD: usize = 20;

const SCHEMES: [SchemeKind; 4] = [
    SchemeKind::Replicated,
    SchemeKind::BitVector,
    SchemeKind::BroadcastTag,
    SchemeKind::Combined,
];

#[derive(Debug, Clone, Copy)]
enum Op {
    Read(usize, WordAddr),
    Write(usize, WordAddr, u64),
}

fn word(block: u64, offset: u64) -> WordAddr {
    WordAddr::new(block * BLOCK_WORDS + offset)
}

/// The script for an `n`-processor machine: the crowd reads the hot block,
/// a seeded random mix follows (30 % of it on the hot block, 35 % writes),
/// a second crowd gathers, then every processor evicts the hot block by
/// reading two other blocks of its set (two ways of four sets), and one
/// write ends it.
fn script(n: usize) -> Vec<Op> {
    let crowd = CROWD.min(n);
    let mut rng = SimRng::seed_from(0xBA5E_11E5 ^ n as u64);
    let mut ops: Vec<Op> = (0..crowd)
        .map(|p| Op::Read(p, word(0, p as u64 % BLOCK_WORDS)))
        .collect();
    for _ in 0..1200 {
        let proc = rng.gen_range(0..n);
        let block = if rng.gen_bool(0.3) {
            0
        } else {
            rng.gen_range(1..BLOCKS)
        };
        let a = word(block, rng.gen_range(0..BLOCK_WORDS));
        ops.push(if rng.gen_bool(0.35) {
            Op::Write(proc, a, rng.next_u64())
        } else {
            Op::Read(proc, a)
        });
    }
    ops.extend((0..crowd).map(|i| Op::Read((i * 7 + 3) % n, word(0, 1))));
    for p in 0..n {
        ops.push(Op::Read(p, word(4, 0)));
        ops.push(Op::Read(p, word(8, 0)));
    }
    ops.push(Op::Write(n - 1, word(0, 2), 0xF1_4A1));
    ops
}

/// One row: `(counters, ledger, total bits, values)`.
type Pinned = (u64, u64, u64, u64);

fn run(sys: &mut dyn CoherentSystem, ops: &[Op]) -> Pinned {
    let mut values = Vec::new();
    for &op in ops {
        match op {
            Op::Read(p, a) => values.extend_from_slice(&sys.read(p, a).to_le_bytes()),
            Op::Write(p, a, v) => sys.write(p, a, v),
        }
    }
    sys.flush();
    for a in 0..BLOCKS * BLOCK_WORDS {
        values.extend_from_slice(&sys.peek_word(WordAddr::new(a)).to_le_bytes());
    }
    let counters = format!("{:?}", sys.counters().iter().collect::<Vec<_>>());
    let traffic = sys.traffic();
    let mut ledger = Vec::new();
    for layer in 0..traffic.layers() as u32 {
        for line in 0..traffic.n_ports() {
            let bits = traffic.link_bits(LinkId { layer, line });
            ledger.extend_from_slice(&bits.to_le_bytes());
        }
    }
    (
        fnv1a64(counters.as_bytes()),
        fnv1a64(&ledger),
        sys.total_traffic_bits(),
        fnv1a64(&values),
    )
}

fn geometry() -> CacheGeometry {
    CacheGeometry::new(4, 2)
}

/// Every engine of one row set, in row order: directory-invalidate and
/// update-only under each scheme, then no-cache.
fn engines(n: usize) -> Vec<(String, Box<dyn CoherentSystem>)> {
    let mut out: Vec<(String, Box<dyn CoherentSystem>)> = Vec::new();
    for scheme in SCHEMES {
        out.push((
            format!("directory-invalidate {scheme:?}"),
            Box::new(DirectoryInvalidateSystem::with_geometry(n, geometry()).multicast(scheme)),
        ));
    }
    for scheme in SCHEMES {
        out.push((
            format!("update-only {scheme:?}"),
            Box::new(UpdateOnlySystem::with_geometry(n, geometry()).multicast(scheme)),
        ));
    }
    out.push(("no-cache".into(), Box::new(NoCacheSystem::new(n))));
    out
}

#[test]
fn seeded_scripts_reproduce_the_pinned_digests() {
    // Row order: N ∈ {4, 16, 128} × the engines of `engines`.
    #[rustfmt::skip]
    const PINNED: [Pinned; 27] = [
        (0xc1e66fc8e2d9c068, 0x381f8b01f0d528c7, 835995, 0x27ea8771ea65d83f),
        (0x1c9e772d7cd1cd1a, 0x7a0aac4af28bd2cd, 832963, 0x27ea8771ea65d83f),
        (0x4d03b938dc76c8d8, 0x728c6517d58da453, 833979, 0x27ea8771ea65d83f),
        (0x9b7dfccf61433a18, 0x5072370e903eeb0d, 832569, 0x27ea8771ea65d83f),
        (0xfc019565a9f284fe, 0x2b2df9fc336ffbf0, 744288, 0x27ea8771ea65d83f),
        (0xe19f47cc657a6b54, 0x07f794bd759cb90d, 725492, 0x27ea8771ea65d83f),
        (0xea80d9ffcddc4e9c, 0x2051d8e89ae650d1, 732232, 0x27ea8771ea65d83f),
        (0x336c7452bf05d44e, 0x8344e98f6357b57f, 725058, 0x27ea8771ea65d83f),
        (0xa243d0727be5b12a, 0xd7490df97f9af93c, 266430, 0x27ea8771ea65d83f),
        (0xdbe2d751f872e4f5, 0xb630593a23962d50, 1731330, 0x12fea5376cee368f),
        (0x770df2d83928a2bf, 0x7f394cb6d5958084, 1706073, 0x12fea5376cee368f),
        (0x358c9c6a481b1279, 0xb26daccfeba4d9d9, 1802544, 0x12fea5376cee368f),
        (0xdddc4a6e004fa68c, 0x6a73819746a96be7, 1704502, 0x12fea5376cee368f),
        (0x794b1825fc90b637, 0x7e80a297311783ad, 1995100, 0x12fea5376cee368f),
        (0xb85c4a4e0291461c, 0x681d84727c0697c9, 1541135, 0x12fea5376cee368f),
        (0x7cbc9f257b50e134, 0x7db0a8e39e9d7a47, 1752380, 0x12fea5376cee368f),
        (0xae08cb31ffe2f448, 0xe9bd134d27aac8cc, 1539547, 0x12fea5376cee368f),
        (0xe0ed2edf862bdbcf, 0x1961ef1a83e3ad94, 472140, 0x12fea5376cee368f),
        (0x077dc7c25e12d913, 0x53c33f74579e053a, 3461832, 0x6532f4b959f1873c),
        (0xe6973909d74de90d, 0x24f2ca0d7337f6ca, 3482495, 0x6532f4b959f1873c),
        (0x7a63993dade22a66, 0x42f2a98cfa2d24b2, 5267842, 0x6532f4b959f1873c),
        (0x540401d52f804c2b, 0x5088aa8208339820, 3443173, 0x6532f4b959f1873c),
        (0x95737a0f1b0a5f1d, 0x09059ba86ac7c4f7, 10795240, 0x6532f4b959f1873c),
        (0xf303b46913303bed, 0x857b9bb341371f71, 5463792, 0x6532f4b959f1873c),
        (0xd24d8d13656b79c9, 0x85ee1c8517a06df1, 9667668, 0x6532f4b959f1873c),
        (0x1a10d2ae7436d36d, 0xf174a8ec67f01faf, 5454431, 0x6532f4b959f1873c),
        (0xc4a0a734138d459e, 0xafcb8411ffac5ff1, 927008, 0x6532f4b959f1873c),
    ];
    let mut names = Vec::new();
    let mut got = Vec::new();
    for n in [4usize, 16, 128] {
        let ops = script(n);
        for (name, mut sys) in engines(n) {
            names.push(format!("N={n} {name}"));
            got.push(run(sys.as_mut(), &ops));
        }
    }
    let table: String = got
        .iter()
        .map(|(c, l, bits, v)| format!("        ({c:#018x}, {l:#018x}, {bits}, {v:#018x}),\n"))
        .collect();
    for ((name, got), want) in names.iter().zip(&got).zip(&PINNED) {
        assert_eq!(
            got, want,
            "{name}: (counters, ledger, total_bits, values); every row now:\n{table}"
        );
    }
}

#[test]
fn traced_scripts_reproduce_the_pinned_event_bytes() {
    const N: usize = 16;
    // (events, FNV-1a of their JSONL bytes) for directory-invalidate,
    // update-only and no-cache.
    const PINNED: [(usize, u64); 3] = [
        (1265, 0xc8172586b8ce1c97),
        (1265, 0x8e1bc7ab58b27a08),
        (1265, 0x15c6469d7c04a3c0),
    ];
    let traced: [Box<dyn CoherentSystem>; 3] = [
        Box::new(DirectoryInvalidateSystem::with_geometry(N, geometry())),
        Box::new(UpdateOnlySystem::with_geometry(N, geometry())),
        Box::new(NoCacheSystem::new(N)),
    ];
    let ops = script(N);
    let got: Vec<(usize, u64)> = traced
        .into_iter()
        .map(|mut sys| {
            sys.set_tracing(true);
            run(sys.as_mut(), &ops);
            let events = sys.drain_trace();
            let mut bytes = Vec::new();
            for event in &events {
                encode_event_into(&mut bytes, event);
                bytes.push(b'\n');
            }
            (events.len(), fnv1a64(&bytes))
        })
        .collect();
    assert_eq!(got, PINNED, "(events, JSONL digest) per engine");
}
