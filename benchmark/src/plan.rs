//! The four in-process workloads as data: which traces, which engines,
//! how many references. `corpus-cli`, the fifth, drives the `tmc` binary
//! and lives in [`crate::corpus`].
//!
//! A run repeats one fixed-size *rep* until its time is up, so simulated
//! results are a function of the seed alone while host timings get one
//! sample per rep. Rep sizes are chosen so a 15 s run holds at least ten.

use crate::engine::EngineKind;
use crate::surface::{
    MigratingWorkload, Mode, ModePolicy, MultiTenantZipfWorkload, Placement, SharedBlockWorkload,
    SimRng, SystemConfig, Trace,
};

/// One engine run over a group's trace.
pub struct Cell {
    /// Per-layer metric that receives this cell's throughput.
    pub throughput_metric: &'static str,
    /// The engine to build.
    pub kind: EngineKind,
}

/// Cells that share one generated trace.
pub struct Group {
    /// Builds the trace from the run seed and the rep's reference count.
    pub generate: Box<dyn Fn(u64, usize) -> Trace>,
    /// The engines driven over it.
    pub cells: Vec<Cell>,
}

/// Tracing and checkpointing done inside the timed region.
#[derive(Debug, Clone, Copy)]
pub struct Durable {
    /// Drain protocol events into the JSONL writer every this many ops.
    pub drain_every: usize,
    /// Snapshot and journal the machine every this many ops.
    pub checkpoint_every: usize,
    /// Start a new journal file after this many frames. An unrotated
    /// journal grows without bound and its append latency drifts with the
    /// file size; see the README.
    pub rotate_every: usize,
}

/// An in-process workload.
pub struct Plan {
    /// Workload name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Processors in the simulated machine.
    pub n_procs: usize,
    /// References per cell executed before measurement starts.
    pub warmup: usize,
    /// References per cell inside the timed region.
    pub measured: usize,
    /// Trace groups.
    pub groups: Vec<Group>,
    /// Tracing and checkpoint work inside the timed region, if any.
    pub durable: Option<Durable>,
}

impl Plan {
    /// Every cell, in run order.
    pub fn cells(&self) -> impl Iterator<Item = &Cell> {
        self.groups.iter().flat_map(|g| &g.cells)
    }
}

/// Paper-grid machine and workload shape (the paper's Figure 8 setting).
pub const GRID_PROCS: usize = 16;
/// Tasks sharing each block in `paper-grid`.
pub const GRID_TASKS: usize = 8;
/// Shared blocks in `paper-grid`.
pub const GRID_BLOCKS: u64 = 16;
/// Write fractions swept by `paper-grid`.
pub const GRID_WS: [f64; 8] = [0.02, 0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9];
/// Throughput metric of the fixed distributed-write cells.
pub const FIXED_DW: &str = "core.fixed_dw_refs_per_s";
/// Throughput metric of the fixed global-read cells.
pub const FIXED_GR: &str = "core.fixed_gr_refs_per_s";
/// Throughput metric of the adaptive cells.
pub const ADAPTIVE: &str = "core.adaptive_refs_per_s";

fn adaptive(n_procs: usize, window: u32) -> EngineKind {
    EngineKind::TwoMode(SystemConfig::new(n_procs).mode_policy(ModePolicy::Adaptive { window }))
}

fn single(kind: EngineKind, generate: impl Fn(u64, usize) -> Trace + 'static) -> Vec<Group> {
    vec![Group {
        generate: Box::new(generate),
        cells: vec![Cell {
            throughput_metric: ADAPTIVE,
            kind,
        }],
    }]
}

fn paper_grid(scale: usize) -> Plan {
    let fixed = |mode| {
        EngineKind::TwoMode(SystemConfig::new(GRID_PROCS).mode_policy(ModePolicy::Fixed(mode)))
    };
    let groups = GRID_WS
        .iter()
        .enumerate()
        .map(|(i, &w)| Group {
            generate: Box::new(move |seed, refs| {
                SharedBlockWorkload::new(GRID_TASKS, GRID_BLOCKS, w)
                    .references(refs)
                    .placement(Placement::Adjacent { base: 0 })
                    .generate(
                        GRID_PROCS,
                        &mut SimRng::seed_from(seed.wrapping_mul(1000) + i as u64),
                    )
            }),
            cells: vec![
                Cell {
                    throughput_metric: "baselines.no_cache_refs_per_s",
                    kind: EngineKind::NoCache,
                },
                Cell {
                    throughput_metric: "baselines.dir_invalidate_refs_per_s",
                    kind: EngineKind::DirInvalidate,
                },
                Cell {
                    throughput_metric: "baselines.update_only_refs_per_s",
                    kind: EngineKind::UpdateOnly,
                },
                Cell {
                    throughput_metric: FIXED_DW,
                    kind: fixed(Mode::DistributedWrite),
                },
                Cell {
                    throughput_metric: FIXED_GR,
                    kind: fixed(Mode::GlobalRead),
                },
                Cell {
                    throughput_metric: ADAPTIVE,
                    kind: adaptive(GRID_PROCS, 64),
                },
            ],
        })
        .collect();
    Plan {
        name: "paper-grid",
        n_procs: GRID_PROCS,
        warmup: 20_000 / scale,
        measured: 200_000 / scale,
        groups,
        durable: None,
    }
}

fn big_n_zipf(scale: usize) -> Plan {
    let n = 1024;
    Plan {
        name: "bigN-zipf",
        n_procs: n,
        warmup: 250_000 / scale,
        measured: 500_000 / scale,
        groups: single(adaptive(n, 64), move |seed, refs| {
            MultiTenantZipfWorkload::new(n, 1_000_000, 0.2)
                .tenants(2048)
                .blocks_per_tenant(1024)
                .references(refs)
                .generate(n, &mut SimRng::seed_from(seed))
        }),
        durable: None,
    }
}

fn migratory_writes(scale: usize) -> Plan {
    let n = 64;
    Plan {
        name: "migratory-writes",
        n_procs: n,
        warmup: 100_000 / scale,
        measured: 1_000_000 / scale,
        groups: single(adaptive(n, 16), move |seed, refs| {
            MigratingWorkload::new(32, 256, 0.5, 64)
                .references(refs)
                .generate(n, &mut SimRng::seed_from(seed))
        }),
        durable: None,
    }
}

fn traced_durable(scale: usize) -> Plan {
    let n = 256;
    Plan {
        name: "traced-durable",
        n_procs: n,
        warmup: 20_000 / scale,
        measured: 200_000 / scale,
        groups: single(adaptive(n, 64), move |seed, refs| {
            MultiTenantZipfWorkload::new(n, 1_000_000, 0.2)
                .tenants(16)
                .blocks_per_tenant(1024)
                .references(refs)
                .generate(n, &mut SimRng::seed_from(seed))
        }),
        durable: Some(Durable {
            drain_every: 4096,
            checkpoint_every: 5000,
            rotate_every: 8,
        }),
    }
}

/// The in-process workload called `name`; `smoke` divides every
/// reference count by ten. `None` for `corpus-cli` and unknown names.
pub fn plan(name: &str, smoke: bool) -> Option<Plan> {
    let scale = if smoke { 10 } else { 1 };
    match name {
        "paper-grid" => Some(paper_grid(scale)),
        "bigN-zipf" => Some(big_n_zipf(scale)),
        "migratory-writes" => Some(migratory_writes(scale)),
        "traced-durable" => Some(traced_durable(scale)),
        _ => None,
    }
}
