//! Pins the allocation-free hot paths at full machine scale: N = 1024
//! ports and an M = 2^21-block multi-tenant Zipfian footprint. A counting
//! global allocator proves — not just claims — that after one warmup pass
//! the steady-state paths touch the heap exactly zero times:
//!
//! * `MultiTenantZipfWorkload::generate_into` on reused buffers,
//! * `DestSet` algebra in both its small-list and bitmap layouts,
//! * re-writes and reads against already-materialized `MainMemory` /
//!   `BlockStore` pages,
//! * the `CastCache` replay path through a 1024-port omega network, and
//!   its walk path for casts that never repeat,
//! * a full `System` reference pass (reads, writes, unicast billing),
//! * the no-cache, directory-invalidate and update-only baselines on the
//!   paper's §4 sharing stream, at N = 16 and N = 128.
//!
//! The machine-scale paths live in one `#[test]` and the baselines in a
//! second; the counter is thread-local, so concurrently running tests in
//! this binary cannot pollute each other's counts.

use std::alloc::{GlobalAlloc, Layout, System as SystemAlloc};
use std::cell::Cell;
use std::hint::black_box;

use tmc_baselines::{CoherentSystem, DirectoryInvalidateSystem, NoCacheSystem, UpdateOnlySystem};
use tmc_bench::script::{apply_script, ScriptOp};
use tmc_core::{System, SystemConfig};
use tmc_memsys::{BlockAddr, BlockData, BlockSpec, BlockStore, CacheId, MainMemory, WordAddr};
use tmc_omeganet::{CastCache, DestSet, Omega, SchemeKind, TrafficMatrix};
use tmc_simcore::SimRng;
use tmc_workload::{MultiTenantZipfWorkload, Op, Placement, SharedBlockWorkload, Trace};

/// Counts heap acquisitions on the current thread. Deallocation is free
/// to happen (dropping a demoted bitmap is fine); what the hot paths must
/// never do after warmup is *acquire* memory.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        unsafe { SystemAlloc.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { SystemAlloc.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        unsafe { SystemAlloc.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `f` and returns how many heap acquisitions it performed.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

const N_PORTS: usize = 1024;
/// 2048 tenants × 1024 blocks each = 2^21 distinct blocks.
const TENANTS: u64 = 2048;
const BLOCKS_PER_TENANT: u64 = 1024;
const REFS: usize = 20_000;

#[test]
fn hot_paths_allocate_nothing_after_warmup() {
    workload_regeneration_is_allocation_free();
    destset_small_and_bitmap_ops_are_allocation_free();
    materialized_pages_are_allocation_free();
    castcache_hits_are_allocation_free();
    never_repeating_casts_are_allocation_free();
    reference_pass_is_allocation_free();
}

/// The big-M cell's trace generation: after the first pass sizes the
/// trace and assignment buffers, regenerating 20k references over a
/// 2^21-block footprint is pure arithmetic.
fn workload_regeneration_is_allocation_free() {
    let wl = MultiTenantZipfWorkload::new(N_PORTS, 1 << 20, 0.3)
        .tenants(TENANTS)
        .blocks_per_tenant(BLOCKS_PER_TENANT)
        .references(REFS);
    assert_eq!(wl.total_blocks(), 1 << 21);

    let mut rng = SimRng::seed_from(0xA110C);
    let mut trace = Trace::with_capacity(N_PORTS, REFS);
    let mut assignment = Vec::new();
    wl.generate_into(&mut rng, &mut trace, &mut assignment);
    assert_eq!(trace.len(), REFS);

    let n = allocations(|| {
        wl.generate_into(&mut rng, &mut trace, &mut assignment);
    });
    assert_eq!(n, 0, "generate_into allocated {n} times on reused buffers");
    assert_eq!(trace.len(), REFS);
}

/// Sharer-set algebra at N = 1024 in both post-inline layouts. The
/// small-list arm stays strictly under the promotion threshold; the
/// bitmap arm stays strictly above the demotion threshold, so neither
/// crosses a representation boundary mid-measurement.
fn destset_small_and_bitmap_ops_are_allocation_free() {
    let small_ports = [3usize, 64, 65, 127, 512, 700, 1023];
    let n = allocations(|| {
        let mut s = DestSet::empty(N_PORTS);
        for p in small_ports {
            s.insert(p);
        }
        let t = s.clone();
        assert!(t.contains_all(&s) && s.contains_all(&t));
        assert!(s.intersects(&t));
        assert!(s.any_in_range(512, 513));
        assert!(!s.any_in_range(128, 512));
        let mut sum = 0usize;
        for p in s.iter() {
            sum += p;
        }
        let mut u = t.clone();
        u.union_with(&s);
        u.difference_with(&s);
        assert!(u.is_empty());
        s.remove(700);
        assert_eq!(s.len(), small_ports.len() - 1);
        black_box(sum);
    });
    assert_eq!(n, 0, "small-list DestSet ops allocated {n} times");

    // Bitmap layout: 40 members is far above the 12-entry small list.
    let mut a = DestSet::from_ports(N_PORTS, (0..40).map(|i| i * 25)).expect("ports");
    let b = DestSet::from_ports(N_PORTS, (0..40).map(|i| i * 25 + 1)).expect("ports");
    let n = allocations(|| {
        assert!(a.contains(975) && !a.contains(976));
        assert!(!a.intersects(&b));
        assert!(a.any_in_range(970, N_PORTS));
        let mut sum = 0usize;
        for p in a.iter() {
            sum += p;
        }
        a.remove(0);
        a.insert(0);
        assert_eq!(a.len(), 40);
        black_box(sum);
    });
    assert_eq!(n, 0, "bitmap DestSet ops allocated {n} times");
    // In-place union over already-sized words grows len without new words.
    let n = allocations(|| {
        a.union_with(&b);
        assert_eq!(a.len(), 80);
    });
    assert_eq!(n, 0, "bitmap union_with allocated {n} times");
}

/// Once a page is materialized by first touch, re-writing and reading its
/// blocks is plain indexed access — across a footprint wide enough to
/// span many pages of the sparse directory.
fn materialized_pages_are_allocation_free() {
    let spec = BlockSpec::new(2);
    let mut mem = MainMemory::new(spec);
    let mut store = BlockStore::new();
    let data = BlockData::from_words(vec![0xD15E_A5E5; spec.words_per_block()]);

    // Warmup: touch 64 blocks strided across 16 pages.
    let blocks: Vec<BlockAddr> = (0..64u64).map(|i| BlockAddr::new(i * 251)).collect();
    for &b in &blocks {
        mem.write_block(b, &data);
        store.set_owner(b, CacheId(3));
    }
    assert!(mem.resident_pages() >= 16);

    let n = allocations(|| {
        for &b in &blocks {
            mem.write_block(b, &data);
            assert_eq!(mem.read_block(b)[0], 0xD15E_A5E5);
            assert_eq!(store.owner(b), Some(CacheId(3)));
            store.clear(b);
            store.set_owner(b, CacheId(7));
        }
        assert_eq!(mem.iter().count(), blocks.len());
        assert_eq!(store.iter().count(), blocks.len());
    });
    assert_eq!(n, 0, "materialized-page access allocated {n} times");
}

/// The multicast memo table at full network width: once a sharer set has
/// been walked and, on its second sighting, admitted, repeat casts replay
/// link charges and refill the caller's delivery buffer without touching
/// the heap.
fn castcache_hits_are_allocation_free() {
    let net = Omega::new(10).expect("1024-port omega");
    let mut cache = CastCache::new();
    let mut traffic = TrafficMatrix::new(&net);
    let mut delivered = Vec::new();
    let dests = DestSet::from_ports(N_PORTS, (0..48).map(|i| i * 21)).expect("ports");
    let mut cast = |cache: &mut CastCache| {
        cache
            .multicast_into(
                &net,
                SchemeKind::Combined,
                5,
                &dests,
                128,
                &mut traffic,
                &mut delivered,
                None,
            )
            .expect("valid cast");
        assert_eq!(delivered.len(), 48);
    };

    cast(&mut cache);
    cast(&mut cache);
    let warm = cache.stats();
    assert_eq!((warm.walked, warm.admitted, warm.replayed), (1, 1, 0));

    let n = allocations(|| {
        for _ in 0..64 {
            cast(&mut cache);
        }
    });
    assert_eq!(n, 0, "CastCache hit path allocated {n} times");
    let stats = cache.stats();
    assert_eq!((stats.walked, stats.admitted, stats.replayed), (1, 1, 64));
    assert_eq!((cache.hits(), cache.misses()), (64, 2));
}

/// The other half of protocol traffic: 4096 casts that never repeat (an
/// owner announcing itself to a sharer set nobody casts to again), in the
/// small-list and the bitmap layout, with and without a charge record.
/// Each is a first sighting: walked straight into the caller's buffers,
/// leaving nothing behind but a tag in the sighting table.
fn never_repeating_casts_are_allocation_free() {
    const CASTS: usize = 4096;
    let net = Omega::new(10).expect("1024-port omega");
    let mut cache = CastCache::new();
    let mut traffic = TrafficMatrix::new(&net);
    let (mut delivered, mut record) = (Vec::new(), Vec::new());
    // Cast `i` of a round goes from port `i % 1024` to `len` ports strided
    // after it; the payload tells apart the four laps of the ports within
    // a round, and the four rounds.
    let sets = |len: usize| {
        (0..CASTS)
            .map(|i| DestSet::from_ports(N_PORTS, (1..=len).map(|d| (i + d * 37) % N_PORTS)))
            .collect::<Result<Vec<_>, _>>()
            .expect("ports")
    };
    let (small, bitmap) = (sets(7), sets(40));

    // Warm-up sizes the buffers and allocates the sighting table.
    for dests in [&small[0], &bitmap[0]] {
        cache
            .multicast_into(
                &net,
                SchemeKind::Replicated,
                0,
                dests,
                1,
                &mut traffic,
                &mut delivered,
                Some(&mut record),
            )
            .expect("warmup cast");
    }

    let mut round = 0;
    for dests in [&small, &bitmap] {
        for recording in [false, true] {
            round += 1;
            let n = allocations(|| {
                for (i, d) in dests.iter().enumerate() {
                    record.clear();
                    cache
                        .multicast_into(
                            &net,
                            SchemeKind::Combined,
                            i % N_PORTS,
                            d,
                            64 + 4 * round + (i / N_PORTS) as u64,
                            &mut traffic,
                            &mut delivered,
                            recording.then_some(&mut record),
                        )
                        .expect("valid cast");
                    assert_eq!(delivered.len(), d.len());
                    assert_eq!(record.is_empty(), !recording);
                }
            });
            assert_eq!(
                n,
                0,
                "{CASTS} first-sighting casts of {} ports (record: {recording}) allocated {n} times",
                dests[0].len()
            );
        }
    }
    let stats = cache.stats();
    assert_eq!(
        (stats.walked, stats.admitted, stats.replayed, stats.entries),
        (2 + 4 * CASTS as u64, 0, 0, 0)
    );
}

/// The protocol engine end to end at full machine scale: N = 1024 ports
/// with each processor's stripe strided so the footprint spans the
/// 2^21-block address space. After warmup materializes cache entries,
/// directory pages and counter slots, a full pass through `script::apply` —
/// unicast routing through the 10-stage omega and per-message link and
/// counter billing included — acquires heap memory exactly zero times.
fn reference_pass_is_allocation_free() {
    const BLOCKS_PER_PROC: u64 = 4;
    // 1024 stripes of this stride cover block indices up to 2^21.
    const STRIDE: u64 = (1u64 << 21) / N_PORTS as u64;

    let mut sys = System::new(SystemConfig::new(N_PORTS)).expect("valid config");
    let spec = sys.config().spec;
    let addr =
        |proc: u64, j: u64| WordAddr::new((proc * STRIDE + j) * spec.words_per_block() as u64);

    // Every processor first takes ownership of its own stripe.
    let mut script: Vec<ScriptOp> = Vec::new();
    for p in 0..N_PORTS as u64 {
        for j in 0..BLOCKS_PER_PROC {
            script.push(ScriptOp::Write {
                proc: p as usize,
                addr: addr(p, j),
                value: p ^ j,
            });
        }
    }
    apply_script(&mut sys, &script);

    // Steady state: read a neighbour's stripe (remote-datum service, two
    // unicasts per reference) and re-write its own. Stripes map to
    // distinct cache sets, so nothing ever evicts.
    script.clear();
    for p in 0..N_PORTS as u64 {
        let neighbour = (p + 1) % N_PORTS as u64;
        for j in 0..BLOCKS_PER_PROC {
            script.push(ScriptOp::Read {
                proc: p as usize,
                addr: addr(neighbour, j),
            });
            script.push(ScriptOp::Write {
                proc: p as usize,
                addr: addr(p, j),
                value: p + j,
            });
        }
    }
    // Two passes converge every structure: sharer sets, invalid-hint
    // entries, counter slots.
    apply_script(&mut sys, &script);
    apply_script(&mut sys, &script);

    let bits_before = sys.traffic().total_bits();
    let n = allocations(|| {
        apply_script(&mut sys, &script);
    });
    assert_eq!(n, 0, "reference pass allocated {n} times after warmup");
    assert!(
        sys.traffic().total_bits() > bits_before,
        "measured pass moved no network traffic"
    );
}

/// References in the baselines' stream.
const BASELINE_REFS: usize = 20_000;
/// Passes over the stream before the measured one.
const BASELINE_WARMUP_PASSES: usize = 3;

/// The comparison engines on the paper's §4 sharing stream: baseline
/// `System`s running their rule tables. The same stream runs four times. The first pass fills
/// the caches, materializes the memory and directory pages and touches
/// every counter. Nothing evicts, so from each block's first write in a
/// pass on, a pass repeats the previous one's states and casts, and two
/// more passes let each engine's cast memo admit every cast that repeats.
/// The fourth pass — unicasts through `charge_unicast`, casts replayed
/// from the memo or walked, sharer sets edited in place — acquires heap
/// memory zero times. Its own test (the counter is per thread), so CI can
/// name it.
#[test]
fn baselines_are_allocation_free() {
    // The paper-grid cell at w = 0.5, and a wider machine whose eight
    // scattered sharers stay in a `DestSet`'s inline list.
    let cells = [
        (16, 16, 0.5, Placement::Adjacent { base: 0 }),
        (
            128,
            64,
            0.3,
            Placement::Strided {
                base: 3,
                stride: 13,
            },
        ),
    ];
    for (n, blocks, w, placement) in cells {
        let trace = SharedBlockWorkload::new(8, blocks, w)
            .references(BASELINE_REFS)
            .placement(placement)
            .generate(n, &mut SimRng::seed_from(0xBA5E));
        let engines: [Box<dyn CoherentSystem>; 3] = [
            Box::new(NoCacheSystem::new(n)),
            Box::new(DirectoryInvalidateSystem::new(n)),
            Box::new(UpdateOnlySystem::new(n)),
        ];
        for mut sys in engines {
            for _ in 0..BASELINE_WARMUP_PASSES {
                drive(sys.as_mut(), &trace);
            }
            let bits_before = sys.total_traffic_bits();
            let allocs = allocations(|| drive(sys.as_mut(), &trace));
            assert_eq!(
                allocs,
                0,
                "{} at N = {n}: measured pass allocated {allocs} times",
                sys.name()
            );
            assert!(sys.total_traffic_bits() > bits_before, "{}", sys.name());
        }
    }
}

fn drive(sys: &mut dyn CoherentSystem, trace: &Trace) {
    for (i, r) in trace.iter().enumerate() {
        match r.op {
            Op::Read => {
                black_box(sys.read(r.proc, r.addr));
            }
            Op::Write => sys.write(r.proc, r.addr, i as u64),
        }
    }
}
