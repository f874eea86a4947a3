//! Materializing a scenario into the op script every engine executes.
//!
//! Order is contractual: per-block `[modes]` directives first (issued by
//! processor 0), then the explicit `[ops]` script, then the generated
//! `[workload]` trace with the standard `1, 2, 3, …` write-stamp values
//! ([`tmc_bench::script::from_trace`]). The same scenario text
//! therefore always produces the same script, byte for byte.

use tmc_bench::script::{from_trace, ScriptOp};
use tmc_memsys::BlockAddr;
use tmc_simcore::SimRng;
use tmc_workload::{
    HotSpotWorkload, MigratingWorkload, MultiTenantZipfWorkload, PrivateWorkload,
    SharedBlockWorkload, StencilWorkload, Trace,
};

use crate::spec::{Family, Scenario, Workload};

/// Generates the workload trace a scenario's `[workload]` section
/// describes (empty when there is none).
fn workload_trace(sc: &Scenario) -> Trace {
    let Some(w) = &sc.workload else {
        return Trace::new(sc.machine.n_caches);
    };
    let mut rng = SimRng::seed_from(w.seed);
    build_trace(w, sc.machine.n_caches, &mut rng)
}

// Workload generators lay out addresses with their default 4-word block
// geometry; the machine interprets them with its own `words_log2`, so a
// scenario stays valid (and deterministic) under any block size.
fn build_trace(w: &Workload, n_procs: usize, rng: &mut SimRng) -> Trace {
    match w.family {
        Family::SharedBlock => SharedBlockWorkload::new(w.tasks, w.blocks, w.write_fraction)
            .references(w.references)
            .placement(w.placement)
            .generate(n_procs, rng),
        Family::Stencil => StencilWorkload::new(w.tasks, w.rows_per_task, w.iterations)
            .placement(w.placement)
            .generate(n_procs, rng),
        Family::Private => PrivateWorkload::new(w.tasks, w.blocks_per_task, w.write_fraction)
            .references(w.references)
            .placement(w.placement)
            .generate(n_procs, rng),
        Family::HotSpot => HotSpotWorkload::new(w.tasks, w.hot_fraction, w.write_fraction)
            .any_writer(w.any_writer)
            .hot_block(w.hot_block)
            .references(w.references)
            .placement(w.placement)
            .generate(n_procs, rng),
        Family::Migratory => MigratingWorkload::new(w.tasks, w.blocks, w.write_fraction, w.period)
            .references(w.references)
            .placement(w.placement)
            .generate(n_procs, rng),
        Family::Zipf => MultiTenantZipfWorkload::new(w.tasks, w.users, w.write_fraction)
            .theta(w.theta)
            .tenants(w.tenants)
            .blocks_per_tenant(w.blocks_per_tenant)
            .references(w.references)
            .placement(w.placement)
            .generate(n_procs, rng),
    }
}

/// Materializes the full op script: mode directives, explicit ops, then
/// the generated workload.
pub fn materialize(sc: &Scenario) -> Vec<ScriptOp> {
    let spec = sc.machine.block_spec();
    let mut ops = Vec::new();
    for d in &sc.modes {
        ops.push(ScriptOp::SetMode {
            proc: 0,
            addr: spec.word_at(BlockAddr::new(d.block), 0),
            mode: d.mode,
        });
    }
    ops.extend(sc.ops.iter().copied());
    if sc.workload.is_some() {
        ops.extend(from_trace(&workload_trace(sc)));
    }
    ops
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ModeDirective;
    use tmc_core::Mode;

    #[test]
    fn materialization_is_deterministic_and_ordered() {
        let mut sc = Scenario::new("t");
        sc.machine.n_caches = 8;
        let mut w = Workload::new(Family::SharedBlock);
        w.tasks = 4;
        w.references = 100;
        sc.workload = Some(w);
        sc.modes.push(ModeDirective {
            block: 2,
            mode: Mode::DistributedWrite,
        });
        let a = materialize(&sc);
        let b = materialize(&sc);
        assert_eq!(a, b);
        assert_eq!(a.len(), 101);
        assert!(matches!(a[0], ScriptOp::SetMode { .. }));
    }

    #[test]
    fn every_family_generates() {
        for family in [
            Family::SharedBlock,
            Family::Stencil,
            Family::Private,
            Family::HotSpot,
            Family::Migratory,
            Family::Zipf,
        ] {
            let mut sc = Scenario::new("t");
            sc.machine.n_caches = 8;
            let mut w = Workload::new(family);
            w.tasks = 4;
            w.references = 64;
            sc.workload = Some(w);
            let ops = materialize(&sc);
            assert!(!ops.is_empty(), "{family:?} generated nothing");
        }
    }
}
