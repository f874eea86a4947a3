//! Ablations over the design choices DESIGN.md calls out: the consistency
//! multicast scheme, the OWNER-pointer bypass, and the mode policy — all
//! measured as traffic on the same workload. Every (workload, config) cell
//! is an independent simulation, fanned out on [`crate::sweep`] and
//! merged back in order.

use tmc_baselines::TwoModeAdapter;
use tmc_core::{Mode, ModePolicy, System, SystemConfig};
use tmc_omeganet::SchemeKind;
use tmc_simcore::SimRng;
use tmc_workload::{Placement, SharedBlockWorkload, StencilWorkload, Trace};

use crate::{drive, sweep, Table};

fn bits_per_ref(cfg: SystemConfig, trace: &Trace) -> f64 {
    let mut sys = TwoModeAdapter::new(System::new(cfg).expect("valid"), "ablation");
    let report = drive(&mut sys, trace);
    sys.inner().check_invariants().expect("invariants hold");
    report.bits_per_ref
}

pub fn run(threads: usize) {
    let n_procs = 16;
    let rng = SimRng::seed_from(7);
    let shared = SharedBlockWorkload::new(8, 16, 0.1)
        .references(20_000)
        .placement(Placement::Adjacent { base: 0 })
        .generate(n_procs, &mut rng.fork(1));
    let stencil = StencilWorkload::new(8, 4, 40)
        .placement(Placement::Adjacent { base: 0 })
        .generate(n_procs, &mut rng.fork(2));
    let workloads = [
        ("shared-block w=0.1", &shared),
        ("stencil 8x4x40", &stencil),
    ];

    // The three ablation axes, each a (config, table label) list.
    let scheme_cases: Vec<(SystemConfig, &'static str)> = [
        (SchemeKind::Replicated, "scheme 1 (replicated)"),
        (SchemeKind::BitVector, "scheme 2 (bit-vector)"),
        (SchemeKind::BroadcastTag, "scheme 3 (broadcast-tag)"),
        (SchemeKind::Combined, "scheme 4 (combined, eq.8)"),
    ]
    .into_iter()
    .map(|(scheme, name)| {
        (
            SystemConfig::new(n_procs)
                .multicast(scheme)
                .mode_policy(ModePolicy::Fixed(Mode::DistributedWrite)),
            name,
        )
    })
    .collect();
    let bypass_cases: Vec<(SystemConfig, &'static str)> =
        [(true, "on (paper)"), (false, "off (via memory)")]
            .into_iter()
            .map(|(bypass, name)| {
                (
                    SystemConfig::new(n_procs)
                        .owner_bypass(bypass)
                        .mode_policy(ModePolicy::Fixed(Mode::GlobalRead)),
                    name,
                )
            })
            .collect();
    let policy_cases: Vec<(SystemConfig, &'static str)> = [
        (
            ModePolicy::Fixed(Mode::DistributedWrite),
            "fixed distributed-write",
        ),
        (ModePolicy::Fixed(Mode::GlobalRead), "fixed global-read"),
        (ModePolicy::Adaptive { window: 64 }, "adaptive (sect. 5)"),
    ]
    .into_iter()
    .map(|(policy, name)| (SystemConfig::new(n_procs).mode_policy(policy), name))
    .collect();
    let axes: [(&str, &[(SystemConfig, &'static str)]); 3] = [
        ("Ablation: multicast scheme", &scheme_cases),
        ("Ablation: OWNER-pointer bypass", &bypass_cases),
        ("Ablation: mode policy", &policy_cases),
    ];

    // Flatten (workload × axis × case) into one cell grid and fan it out.
    let cells: Vec<(&Trace, SystemConfig)> = workloads
        .iter()
        .flat_map(|&(_, trace)| {
            axes.iter()
                .flat_map(move |(_, cases)| cases.iter().map(move |(cfg, _)| (trace, cfg.clone())))
        })
        .collect();
    let bits = sweep::map(threads, cells, |(trace, cfg)| bits_per_ref(cfg, trace));

    let mut next = bits.into_iter();
    for (wl_name, _) in workloads {
        for (title, cases) in &axes {
            let mut t = Table::new(vec!["variant".into(), "bits/ref".into()]);
            for (_, name) in *cases {
                let b = next.next().expect("cell count matches");
                t.row(vec![name.to_string(), format!("{b:.1}")]);
            }
            t.print(&format!("{title} ({wl_name})"));
        }
    }
}
