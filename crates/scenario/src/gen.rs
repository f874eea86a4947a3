//! Deterministic case generation: one `u64` seed → one [`CaseSpec`].
//!
//! Every draw flows through the in-tree [`SimRng`], so the same seed
//! always yields the same case on every host. Generation is biased toward
//! the corners where coherence bugs hide: tiny caches (down to a single
//! direct-mapped set, forcing constant replacement and ownership
//! handoff), all four multicast schemes, adaptive windows small enough to
//! storm mode switches, and scripts salted with explicit §2.2 mode
//! directives mid-stream.

use tmc_bench::script::{from_trace, ScriptOp};
use tmc_core::{Mode, ModePolicy};
use tmc_omeganet::SchemeKind;
use tmc_simcore::SimRng;
use tmc_workload::{
    HotSpotWorkload, MigratingWorkload, MultiTenantZipfWorkload, Placement, PrivateWorkload,
    SharedBlockWorkload, StencilWorkload, Trace,
};

use crate::case::{AnalyticProbe, CaseSpec};

/// Distinguishes the generator's rng stream from other users of the seed.
const GEN_STREAM: u64 = 0xC0FF_EE00;

/// Which corner of the configuration space to sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GenProfile {
    /// The historical distribution: 2–16 caches, small block counts.
    /// `generate_case` keeps producing exactly these cases, so existing
    /// corpus seeds stay meaningful.
    #[default]
    Classic,
    /// Big machines: 64–1024 caches and footprints up to ~2^17 blocks,
    /// putting `DestSet` in its small-list/bitmap layouts and scattering
    /// state across many store pages. Enabled with `tmc fuzz --bign`.
    BigN,
}

/// Generates the conformance case for `seed` under the classic profile.
pub fn generate_case(seed: u64) -> CaseSpec {
    generate_case_with(seed, GenProfile::Classic)
}

/// Generates the conformance case for `seed` under `profile`.
pub fn generate_case_with(seed: u64, profile: GenProfile) -> CaseSpec {
    let mut rng = SimRng::seed_from(seed).fork(GEN_STREAM);

    let n_caches = match profile {
        GenProfile::Classic => *rng.choose(&[2usize, 4, 8, 16]).unwrap(),
        GenProfile::BigN => *rng.choose(&[64usize, 128, 256, 1024]).unwrap(),
    };
    let sets = *rng.choose(&[1usize, 2, 4, 8]).unwrap();
    let ways = *rng.choose(&[1usize, 2, 4]).unwrap();
    let words_log2 = rng.gen_range(0u32..4);
    let scheme = *rng
        .choose(&[
            SchemeKind::Replicated,
            SchemeKind::BitVector,
            SchemeKind::BroadcastTag,
            SchemeKind::Combined,
        ])
        .unwrap();
    let policy = match rng.gen_range(0u32..4) {
        0 => ModePolicy::Fixed(Mode::DistributedWrite),
        1 => ModePolicy::Fixed(Mode::GlobalRead),
        // Bias toward adaptive: it is the paper's contribution and the
        // richest source of cross-engine races.
        _ => ModePolicy::Adaptive {
            window: rng.gen_range(4u32..33),
        },
    };
    let owner_bypass = rng.gen_bool(0.8);

    let trace = random_trace(&mut rng, n_caches, profile);
    let mut ops = from_trace(&trace);
    sprinkle_mode_directives(&mut rng, &mut ops, n_caches);

    let analytic = match policy {
        ModePolicy::Fixed(_) if owner_bypass => Some(AnalyticProbe {
            n_tasks: *rng.choose(&[2usize, 4, 8]).unwrap().min(&n_caches),
            w: *rng.choose(&[0.05f64, 0.1, 0.2, 0.3, 0.5, 0.7]).unwrap(),
            refs: 4000,
            warmup: 1000,
        }),
        _ => None,
    };

    CaseSpec {
        seed,
        n_caches,
        sets,
        ways,
        words_log2,
        scheme,
        policy,
        owner_bypass,
        fault_seed: rng.next_u64(),
        analytic,
        ops,
    }
}

/// Draws one of the workload families and generates a trace. The big-N
/// profile widens block counts (large-M footprints) and adds the
/// multi-tenant Zipfian family to the rotation.
fn random_trace(rng: &mut SimRng, n_procs: usize, profile: GenProfile) -> Trace {
    let refs = rng.gen_range(40usize..400);
    let n_tasks = rng.gen_range(2usize..=n_procs.max(2)).min(n_procs);
    let placement = Placement::Adjacent { base: 0 };
    let mut wl_rng = rng.fork(1);
    if profile == GenProfile::BigN && rng.gen_bool(0.4) {
        let tenants = rng.gen_range(8u64..65);
        let blocks_per_tenant = rng.gen_range(64u64..2049);
        return MultiTenantZipfWorkload::new(
            n_tasks,
            1 << rng.gen_range(16u32..21),
            rng.gen_unit(),
        )
        .tenants(tenants)
        .blocks_per_tenant(blocks_per_tenant)
        .references(refs)
        .placement(placement)
        .generate(n_procs, &mut wl_rng);
    }
    let m_scale = match profile {
        GenProfile::Classic => 1,
        // Spread the same families over thousands of blocks so page
        // boundaries and sparse directories get crossed constantly.
        GenProfile::BigN => rng.gen_range(64u64..1025),
    };
    match rng.gen_range(0u32..5) {
        0 => SharedBlockWorkload::new(n_tasks, m_scale * rng.gen_range(1u64..9), rng.gen_unit())
            .references(refs)
            .placement(placement)
            .generate(n_procs, &mut wl_rng),
        1 => HotSpotWorkload::new(n_tasks, 0.6, rng.gen_unit())
            .references(refs)
            .placement(placement)
            .generate(n_procs, &mut wl_rng),
        2 => MigratingWorkload::new(
            n_tasks,
            m_scale * rng.gen_range(1u64..5),
            rng.gen_unit(),
            rng.gen_range(3usize..17),
        )
        .references(refs)
        .placement(placement)
        .generate(n_procs, &mut wl_rng),
        3 => PrivateWorkload::new(n_tasks, m_scale * rng.gen_range(1u64..4), rng.gen_unit())
            .references(refs)
            .placement(placement)
            .generate(n_procs, &mut wl_rng),
        _ => StencilWorkload::new(n_tasks, rng.gen_range(1usize..3), rng.gen_range(2usize..6))
            .placement(placement)
            .generate(n_procs, &mut wl_rng),
    }
}

/// Inserts explicit mode directives at random points of the script.
fn sprinkle_mode_directives(rng: &mut SimRng, ops: &mut Vec<ScriptOp>, n_procs: usize) {
    if ops.is_empty() || !rng.gen_bool(0.7) {
        return;
    }
    let n = 1 + ops.len() / 24;
    for _ in 0..n {
        let at = rng.gen_range(0..ops.len());
        let addr = ops[rng.gen_range(0..ops.len())].addr();
        let proc = rng.gen_range(0..n_procs);
        let mode = if rng.gen_bool(0.5) {
            Mode::DistributedWrite
        } else {
            Mode::GlobalRead
        };
        ops.insert(at, ScriptOp::SetMode { proc, addr, mode });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = generate_case(42);
        let b = generate_case(42);
        assert_eq!(a, b);
        assert!(!a.ops.is_empty());
    }

    #[test]
    fn distinct_seeds_vary_the_config() {
        let cases: Vec<CaseSpec> = (0..40).map(generate_case).collect();
        assert!(cases.windows(2).any(|w| w[0].n_caches != w[1].n_caches));
        assert!(cases.windows(2).any(|w| w[0].scheme != w[1].scheme));
        assert!(cases.iter().any(|c| c.sets == 1 && c.ways == 1));
        assert!(cases
            .iter()
            .any(|c| matches!(c.policy, ModePolicy::Adaptive { .. })));
        assert!(cases.iter().any(|c| c.analytic.is_some()));
    }

    #[test]
    fn big_n_profile_is_deterministic_and_big() {
        let a = generate_case_with(7, GenProfile::BigN);
        let b = generate_case_with(7, GenProfile::BigN);
        assert_eq!(a, b);
        let cases: Vec<CaseSpec> = (0..24)
            .map(|s| generate_case_with(s, GenProfile::BigN))
            .collect();
        assert!(cases.iter().all(|c| c.n_caches >= 64));
        assert!(cases.iter().any(|c| c.n_caches >= 256));
        // Classic cases are untouched by the new profile plumbing.
        assert!((0..24).map(generate_case).all(|c| c.n_caches <= 16));
    }

    #[test]
    fn big_n_procs_stay_in_range() {
        for seed in 0..12 {
            let c = generate_case_with(seed, GenProfile::BigN);
            for op in &c.ops {
                let proc = match *op {
                    ScriptOp::Read { proc, .. }
                    | ScriptOp::Write { proc, .. }
                    | ScriptOp::SetMode { proc, .. } => proc,
                };
                assert!(proc < c.n_caches, "seed {seed}: proc {proc} out of range");
            }
        }
    }

    #[test]
    fn generated_procs_stay_in_range() {
        for seed in 0..60 {
            let c = generate_case(seed);
            for op in &c.ops {
                let proc = match *op {
                    ScriptOp::Read { proc, .. }
                    | ScriptOp::Write { proc, .. }
                    | ScriptOp::SetMode { proc, .. } => proc,
                };
                assert!(proc < c.n_caches, "seed {seed}: proc {proc} out of range");
            }
        }
    }
}
