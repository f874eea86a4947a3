//! Deterministic case generation: one `u64` seed → one [`Scenario`].
//!
//! A generated case is self-contained: its machine, a `[faults]` plan
//! carrying the seed of the faults pair (1–16 faults in about one case in
//! four, none in the others), an optional `[analytic]` probe and the
//! explicit `[ops]` script, so it encodes straight to a `.tmcs` reproducer.
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

use crate::spec::{Analytic, Faults, Machine, Scenario};

/// Distinguishes the generator's rng stream from other users of the seed.
const GEN_STREAM: u64 = 0xC0FF_EE00;
/// The fault-campaign draws' own stream, so they move no other draw.
const FAULT_STREAM: u64 = 0xC0FF_EE01;

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
pub fn generate_case(seed: u64) -> Scenario {
    generate_case_with(seed, GenProfile::Classic)
}

/// Generates the conformance case for `seed` under `profile`, named
/// `case-seed<seed>`.
pub fn generate_case_with(seed: u64, profile: GenProfile) -> Scenario {
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

    let mut sc = Scenario::new(&format!("case-seed{seed}"));
    sc.seed = seed;
    sc.machine = Machine {
        n_caches,
        sets,
        ways,
        words_log2,
        scheme,
        policy,
        owner_bypass,
    };
    sc.analytic = match policy {
        ModePolicy::Fixed(_) if owner_bypass => Some(Analytic {
            n_tasks: *rng.choose(&[2usize, 4, 8]).unwrap().min(&n_caches),
            w: *rng.choose(&[0.05f64, 0.1, 0.2, 0.3, 0.5, 0.7]).unwrap(),
            refs: 4000,
            warmup: 1000,
        }),
        _ => None,
    };
    let mut faults = Faults {
        seed: rng.next_u64(),
        count: 0,
        ..Faults::default()
    };
    // Every fault fires in the script's first half and heals within
    // `2·mean_outage ≈ ops/8` ops, so the script outlasts its plan.
    let mut fault_rng = SimRng::seed_from(seed).fork(FAULT_STREAM);
    if fault_rng.gen_bool(0.25) {
        let n = ops.len() as u64;
        faults.count = fault_rng.gen_range(1usize..=16);
        faults.horizon = (n / 2).max(1);
        faults.mean_outage = (n / 16).max(1);
    }
    sc.faults = Some(faults);
    sc.ops = ops;
    sc
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
        let cases: Vec<Scenario> = (0..40).map(generate_case).collect();
        let machines: Vec<&Machine> = cases.iter().map(|c| &c.machine).collect();
        assert!(machines.windows(2).any(|w| w[0].n_caches != w[1].n_caches));
        assert!(machines.windows(2).any(|w| w[0].scheme != w[1].scheme));
        assert!(machines.iter().any(|m| m.sets == 1 && m.ways == 1));
        assert!(machines
            .iter()
            .any(|m| matches!(m.policy, ModePolicy::Adaptive { .. })));
        assert!(cases.iter().any(|c| c.analytic.is_some()));
    }

    #[test]
    fn big_n_profile_is_deterministic_and_big() {
        let a = generate_case_with(7, GenProfile::BigN);
        let b = generate_case_with(7, GenProfile::BigN);
        assert_eq!(a, b);
        let cases: Vec<usize> = (0..24)
            .map(|s| generate_case_with(s, GenProfile::BigN).machine.n_caches)
            .collect();
        assert!(cases.iter().all(|&n| n >= 64));
        assert!(cases.iter().any(|&n| n >= 256));
        // Classic cases are untouched by the new profile plumbing.
        assert!((0..24).all(|s| generate_case(s).machine.n_caches <= 16));
    }

    /// The generated cases, byte for byte: the FNV-1a digest of the
    /// concatenated `.tmcs` text of classic seeds 0..200, then big-N seeds
    /// 0..40, re-pinned when fault campaigns were added (a case that draws
    /// none encodes as before; the others gained a plan's count, horizon
    /// and mean outage). A generator change that moves a draw moves this
    /// digest, and with it every fuzz seed's meaning. Each case also
    /// survives its own text.
    #[test]
    fn generated_cases_are_pinned_and_parse_back() {
        let cases = (0..200)
            .map(generate_case)
            .chain((0..40).map(|s| generate_case_with(s, GenProfile::BigN)));
        let mut digest = tmc_obs::jsonl::FNV1A64_OFFSET;
        for case in cases {
            let text = case.encode();
            assert_eq!(crate::parse(&text).as_ref(), Ok(&case), "{}", case.name);
            digest = tmc_obs::jsonl::fnv1a64_fold(digest, text.as_bytes());
        }
        assert_eq!(digest, 0x250f_eebe_82b9_5436);
    }

    /// The fault cases among the `tmc fuzz --smoke` seeds fire their whole
    /// plans and, between them, reach every recovery path.
    #[test]
    fn smoke_fault_cases_reach_every_recovery_path() {
        use crate::cli::{SMOKE_BUDGET, SMOKE_SEED};

        let mut reached = std::collections::BTreeMap::<String, u64>::new();
        let mut planned = 0;
        for seed in (SMOKE_SEED..).take(SMOKE_BUDGET) {
            let case = generate_case(seed);
            let Some(faults) = case.faults.filter(|f| f.count > 0) else {
                continue;
            };
            planned += faults.count as u64;
            let run = crate::run::run_scenario(&case);
            for (name, n) in run.unwrap_or_else(|e| panic!("seed {seed}: {e}")).counters {
                *reached.entry(name).or_default() += n;
            }
        }
        assert_eq!(reached.get("faults_injected"), Some(&planned));
        for path in [
            "fault_degraded_blocks",
            "fault_quarantined_caches",
            "fault_recoveries",
            "fault_retries",
            "fault_bitflip_refetch",
            "fault_ecc_corrected",
            "fault_mcast_nacks",
            "fault_uncached_setmodes",
        ] {
            assert!(
                reached.get(path).is_some_and(|&n| n > 0),
                "no smoke fault case reached {path}"
            );
        }
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
                assert!(
                    proc < c.machine.n_caches,
                    "seed {seed}: proc {proc} out of range"
                );
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
                assert!(
                    proc < c.machine.n_caches,
                    "seed {seed}: proc {proc} out of range"
                );
            }
        }
    }
}
