//! Layer replay: the traced run records the input stream each lower
//! layer saw during one cell — the `(proc, block)` stream, the present
//! vector before each write, the drained protocol events — and this
//! module times that layer's public functions on the stream in isolation.
//!
//! The replays are models of what `System` asks of each layer, built from
//! what is observable outside it; they are not a decomposition of
//! `System`'s own time. What they leave over is reported as
//! `core.unattributed_ns_per_ref`, stated as unexplained, not as a layer.

use std::hint::black_box;
use std::time::Instant;

use crate::stats::{median, ratio};
use crate::surface::{
    BlockAddr, BlockData, BlockStore, CacheArray, CacheId, CastCache, DestSet, MainMemory, Mode,
    ModePolicy, ModuleMap, Omega, Op, ProtocolEvent, Reference, ReferenceMemory, SystemConfig,
    TraceHeader, TraceReader, TraceTrailer, TraceWriter, TrafficMatrix, TRACE_VERSION,
};

/// Timed passes per layer; the median total is kept.
const PASSES: usize = 3;
/// Uncached multicasts walk the routing tree; a prefix of the recorded
/// casts is enough to price one.
const UNCACHED_CASTS: usize = 20_000;

/// Events kept for the codec replay over all cells of a run: the cost
/// per event does not depend on how many are encoded, only on their mix,
/// so each cell contributes an equal slice.
pub const CODEC_EVENTS: usize = 120_000;

/// What one traced cell recorded for replay.
#[derive(Default)]
pub struct Recording {
    /// Writer and present vector (writer removed) before each write that
    /// had other holders: the multicasts a distributed write issues.
    pub casts: Vec<(usize, DestSet)>,
    /// Every miss the engine reported, in order.
    pub misses: Vec<(usize, BlockAddr)>,
    /// The first `max_events` drained events, for the JSONL codec.
    pub events: Vec<ProtocolEvent>,
    /// This cell's slice of [`CODEC_EVENTS`].
    pub max_events: usize,
}

/// Totals over every replayed cell; metrics are ratios of these.
#[derive(Debug, Default, Clone)]
pub struct LayerTotals {
    /// References replayed.
    pub refs: u64,
    /// Tag lookups that hit.
    pub tag_hits: u64,
    /// Time in `CacheArray::get/insert`.
    pub tag_ns: f64,
    /// Time in `BlockStore::owner/set_owner`.
    pub store_ns: f64,
    /// Time in `MainMemory::read_block/write_block`.
    pub memory_ns: f64,
    /// Pages the replayed memory materialized.
    pub resident_pages: u64,
    /// Time in `ReferenceMemory::read/write`.
    pub oracle_ns: f64,
    /// Unicast messages billed.
    pub unicasts: u64,
    /// Time in `Omega::charge_unicast`.
    pub unicast_ns: f64,
    /// Multicasts replayed through the memo table.
    pub casts: u64,
    /// Time in `CastCache::multicast_into`.
    pub cast_cached_ns: f64,
    /// Memo-table hits among them.
    pub cast_hits: u64,
    /// Multicasts replayed through `Omega::multicast`.
    pub uncached_casts: u64,
    /// Time in `Omega::multicast`.
    pub cast_uncached_ns: f64,
    /// Sum of destination-set sizes.
    pub dest_len_sum: u64,
    /// Events encoded and parsed.
    pub events: u64,
    /// Time in `TraceWriter::event`.
    pub encode_ns: f64,
    /// JSONL bytes produced.
    pub encoded_bytes: u64,
    /// Time in `TraceReader::read_all`.
    pub parse_ns: f64,
    /// Cells whose JSONL did not read back event for event.
    pub codec_failures: u64,
}

impl LayerTotals {
    /// Replay time per reference summed over the layers `System` calls on
    /// its hot path (the oracle and the codec are not among them).
    pub fn hot_path_ns_per_ref(&self) -> f64 {
        self.memsys_ns_per_ref() + ratio(self.unicast_ns + self.cast_cached_ns, self.refs as f64)
    }

    /// Replay time per reference in the memory-system layers alone.
    pub fn memsys_ns_per_ref(&self) -> f64 {
        ratio(
            self.tag_ns + self.store_ns + self.memory_ns,
            self.refs as f64,
        )
    }
}

/// Median nanoseconds of `pass` over [`PASSES`] runs, each on a fresh
/// `setup()` built outside the timed region.
fn timed_passes<S>(mut setup: impl FnMut() -> S, mut pass: impl FnMut(&mut S)) -> f64 {
    let samples: Vec<f64> = (0..PASSES)
        .map(|_| {
            let mut state = setup();
            let t = Instant::now();
            pass(&mut state);
            let ns = t.elapsed().as_nanos() as f64;
            black_box(&state);
            ns
        })
        .collect();
    median(&samples)
}

enum MemOp {
    Fill(BlockAddr),
    WriteBack(BlockAddr),
}

/// Replays one cell's streams through each layer and adds the timings to
/// `totals`. `refs` is the measured region of the cell's trace.
pub fn replay_cell(
    cfg: &SystemConfig,
    refs: &[Reference],
    rec: &Recording,
    totals: &mut LayerTotals,
) {
    totals.refs += refs.len() as u64;
    let n = cfg.n_caches;
    let blocks: Vec<(usize, BlockAddr)> = refs
        .iter()
        .map(|r| (r.proc, cfg.spec.block_of(r.addr)))
        .collect();
    let fresh_caches =
        || -> Vec<CacheArray<u8>> { (0..n).map(|_| CacheArray::new(cfg.geometry)).collect() };

    // Untimed pass: derive the fill/write-back stream the tag arrays
    // produce, so the timed passes below push nothing.
    let mut mem_ops = Vec::new();
    let mut fills: Vec<(usize, BlockAddr)> = Vec::new();
    let mut caches = fresh_caches();
    for &(p, block) in &blocks {
        if caches[p].get(block).is_some() {
            totals.tag_hits += 1;
        } else {
            fills.push((p, block));
            mem_ops.push(MemOp::Fill(block));
            if let Some((victim, _)) = caches[p].insert(block, 0) {
                mem_ops.push(MemOp::WriteBack(victim));
            }
        }
    }

    totals.tag_ns += timed_passes(fresh_caches, |caches| {
        for &(p, block) in &blocks {
            if caches[p].get(block).is_none() {
                black_box(caches[p].insert(block, 0));
            }
        }
    });

    totals.store_ns += timed_passes(BlockStore::new, |store| {
        for &(p, block) in &fills {
            if black_box(store.owner(block)).is_none() {
                store.set_owner(block, CacheId(p as u16));
            }
        }
    });

    let line = BlockData::zeroed(cfg.spec.words_per_block());
    let mut pages = 0;
    totals.memory_ns += timed_passes(
        || MainMemory::new(cfg.spec),
        |memory| {
            for op in &mem_ops {
                match op {
                    MemOp::Fill(block) => {
                        black_box(memory.read_block(*block));
                    }
                    MemOp::WriteBack(block) => memory.write_block(*block, &line),
                }
            }
            pages = memory.resident_pages();
        },
    );
    totals.resident_pages += pages as u64;

    totals.oracle_ns += timed_passes(ReferenceMemory::new, |oracle| {
        for r in refs {
            match r.op {
                Op::Read => {
                    black_box(oracle.read(r.addr));
                }
                Op::Write => {
                    let stamp = oracle.stamp();
                    oracle.write(r.addr, stamp);
                }
            }
        }
    });

    let net = Omega::with_ports(n).expect("n_caches is a power of two");
    // A miss costs a request to the block's home module and a block back.
    let homes = ModuleMap::new(n);
    let (request, reply) = (cfg.sizing.request_bits(), cfg.sizing.block_transfer_bits());
    totals.unicasts += 2 * rec.misses.len() as u64;
    let fresh_ledger = || TrafficMatrix::new(&net);
    totals.unicast_ns += timed_passes(fresh_ledger, |traffic| {
        for &(p, block) in &rec.misses {
            let home = homes.module_of(block);
            black_box(net.charge_unicast(p, home, request, traffic)).ok();
            black_box(net.charge_unicast(home, p, reply, traffic)).ok();
        }
    });

    let update = cfg.sizing.update_bits();
    totals.casts += rec.casts.len() as u64;
    totals.dest_len_sum += rec.casts.iter().map(|(_, d)| d.len() as u64).sum::<u64>();
    let mut hits = 0;
    totals.cast_cached_ns += timed_passes(
        || (CastCache::new(), fresh_ledger(), Vec::new()),
        |(memo, traffic, delivered)| {
            for (src, dests) in &rec.casts {
                black_box(memo.multicast_into(
                    &net,
                    cfg.multicast,
                    *src,
                    dests,
                    update,
                    traffic,
                    delivered,
                    None,
                ))
                .ok();
            }
            hits = memo.hits();
        },
    );
    totals.cast_hits += hits;
    let uncached = &rec.casts[..rec.casts.len().min(UNCACHED_CASTS)];
    totals.uncached_casts += uncached.len() as u64;
    totals.cast_uncached_ns += timed_passes(fresh_ledger, |traffic| {
        for (src, dests) in uncached {
            black_box(net.multicast(cfg.multicast, *src, dests, update, traffic)).ok();
        }
    });

    replay_codec(cfg, &rec.events, totals);
}

/// The JSONL header describing `cfg` (every workload table uses the
/// combined multicast scheme).
pub fn trace_header(cfg: &SystemConfig) -> TraceHeader {
    TraceHeader {
        version: TRACE_VERSION,
        n_procs: cfg.n_caches,
        sets: cfg.geometry.sets(),
        ways: cfg.geometry.ways(),
        words_log2: cfg.spec.words_per_block().trailing_zeros(),
        scheme: "combined".to_string(),
        policy: match cfg.mode_policy {
            ModePolicy::Fixed(Mode::DistributedWrite) => "fixed-dw".to_string(),
            ModePolicy::Fixed(Mode::GlobalRead) => "fixed-gr".to_string(),
            ModePolicy::Adaptive { window } => format!("adaptive:{window}"),
        },
        owner_bypass: cfg.owner_bypass,
    }
}

/// An empty trailer; `TraceWriter::finish` fills in the event count.
pub fn trace_trailer(total_bits: u64) -> TraceTrailer {
    TraceTrailer {
        events: 0,
        fingerprint: 0,
        total_bits,
        links: Vec::new(),
    }
}

fn replay_codec(cfg: &SystemConfig, events: &[ProtocolEvent], totals: &mut LayerTotals) {
    if events.is_empty() {
        return;
    }
    totals.events += events.len() as u64;
    let header = trace_header(cfg);
    let mut bytes = Vec::new();
    totals.encode_ns += timed_passes(
        || (),
        |()| {
            let mut writer =
                TraceWriter::new(Vec::new(), &header).expect("writing to memory cannot fail");
            for e in events {
                writer.event(e).expect("writing to memory cannot fail");
            }
            bytes = writer
                .finish(trace_trailer(0))
                .expect("writing to memory cannot fail");
        },
    );
    totals.encoded_bytes += bytes.len() as u64;
    let mut round_trips = false;
    totals.parse_ns += timed_passes(
        || (),
        |()| {
            let parsed = TraceReader::new(&bytes[..]).read_all();
            round_trips = parsed.is_ok_and(|(_, read, _)| read == events);
        },
    );
    totals.codec_failures += u64::from(!round_trips);
}
