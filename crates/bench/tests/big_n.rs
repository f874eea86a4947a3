//! Big-machine coverage: the protocol invariants at N = 128 and N = 256
//! processors, and an N = 256 capture that replays, over the multi-tenant
//! Zipfian workload. These configurations put `DestSet` into its
//! small-list/bitmap layouts and scatter writes across many pages of the
//! paged `MainMemory`/`BlockStore`. At N = 1024, the owner table's
//! occupancy is checked against §5's associative-store arithmetic.

use std::collections::BTreeSet;

use tmc_analytic::state_memory::StateMemoryModel;
use tmc_bench::script;
use tmc_core::{Mode, ModePolicy, StateName, System, SystemConfig};
use tmc_memsys::BlockAddr;
use tmc_simcore::SimRng;
use tmc_workload::{MultiTenantZipfWorkload, Trace};

fn zipf_trace(n_procs: usize, refs: usize, seed: u64) -> Trace {
    MultiTenantZipfWorkload::new(n_procs, 1_000_000, 0.3)
        .tenants(64)
        .blocks_per_tenant(512)
        .references(refs)
        .generate(n_procs, &mut SimRng::seed_from(seed))
}

#[test]
fn invariants_hold_at_big_n() {
    for n in [128usize, 256] {
        for policy in [
            ModePolicy::Fixed(Mode::DistributedWrite),
            ModePolicy::Fixed(Mode::GlobalRead),
            ModePolicy::Adaptive { window: 16 },
        ] {
            let mut sys = System::new(SystemConfig::new(n).mode_policy(policy)).expect("system");
            let trace = zipf_trace(n, 4000, 0xB16 ^ n as u64);
            script::apply_script(&mut sys, &script::from_trace(&trace));
            sys.check_invariants()
                .unwrap_or_else(|e| panic!("N={n} {policy:?}: {e}"));
            assert!(sys.counters().get("msgs_total") > 0);
        }
    }
}

/// An N = 256 adaptive run captured as JSONL replays with every
/// obligation: the bitmap `DestSet` layouts and the paged store survive
/// the capture format.
#[test]
fn capture_replays_at_n_256() {
    let n = 256;
    let cfg = SystemConfig::new(n).mode_policy(ModePolicy::Adaptive { window: 16 });
    let trace = zipf_trace(n, 1500, 0xCA7);
    let script = script::from_trace(&trace);
    let jsonl = tmc_bench::tracecheck::capture(cfg, |sys| script::apply_script(sys, &script))
        .expect("capture");
    tmc_bench::tracecheck::check(&jsonl).expect("replay");
}

/// §5 keeps the present vector "used only by the owner" in an associative
/// store; the machine keeps it in one owner table with an entry per owned
/// block. After a `bigN-zipf`-shaped run (N = 1024, 2048 tenants × 1024
/// blocks, w = 0.2, adaptive window 64) the table's live entries are
/// exactly the owned lines, and `state_memory`'s bit count for the
/// associative store, fed that occupancy, bills `owned × (tag + N)` bits
/// for it and undercuts the per-line present vectors.
#[test]
fn owner_table_is_the_associative_store_at_n_1024() {
    let n = 1024;
    let cfg = SystemConfig::new(n).mode_policy(ModePolicy::Adaptive { window: 64 });
    let geometry = cfg.geometry;
    let mut sys = System::new(cfg).expect("system");
    let trace = MultiTenantZipfWorkload::new(n, 1_000_000, 0.2)
        .tenants(2048)
        .blocks_per_tenant(1024)
        .references(40_000)
        .generate(n, &mut SimRng::seed_from(11));
    script::apply_script(&mut sys, &script::from_trace(&trace));
    sys.check_invariants().expect("invariants");

    // Owned lines, counted at each touched block's owner.
    let spec = sys.config().spec;
    let blocks: BTreeSet<BlockAddr> = trace.iter().map(|r| spec.block_of(r.addr)).collect();
    let owned = blocks
        .iter()
        .filter(|&&b| {
            let owner = sys.owner_of(b);
            let state = owner.and_then(|o| sys.state_name(o.port(), b));
            state.is_some_and(|s| !matches!(s, StateName::Invalid | StateName::UnOwned))
        })
        .count();
    let live = sys.owner_entries();
    assert_eq!(live, owned, "one live entry per owned line");
    assert!(live > 0 && live < n * geometry.capacity_blocks());

    let model = StateMemoryModel::new(
        n as u64,
        geometry.capacity_blocks() as u64,
        BlockAddr::LIMIT,
    );
    let per_cache = live.div_ceil(n) as u64;
    let store_bits =
        model.distributed_associative_bits(per_cache) - model.distributed_associative_bits(0);
    let entry_bits = 32 + n as u128;
    assert!(store_bits >= live as u128 * entry_bits);
    assert!(store_bits < (live + n) as u128 * entry_bits);
    assert!(model.distributed_associative_bits(per_cache) < model.distributed_bits());
}
