//! The scenario data model and its canonical text encoding.
//!
//! A [`Scenario`] is everything one named experiment needs: the machine
//! shape, an optional generated workload, per-block mode directives, an
//! optional fault plan, an explicit op script, and the golden
//! expectations CI asserts. [`Scenario::encode`] renders the canonical
//! `.tmcs` text; [`crate::parse()`] is the inverse.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use tmc_bench::script::ScriptOp;
use tmc_bench::tracecheck::{policy_str, scheme_kind_str};
use tmc_core::{Mode, ModePolicy, SystemConfig};
use tmc_faults::{FaultSpec, RetryPolicy};
use tmc_memsys::{BlockSpec, CacheGeometry};
use tmc_omeganet::SchemeKind;
use tmc_workload::Placement;

/// Machine shape: topology, cache geometry, protocol knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct Machine {
    /// Processors/caches/memory modules (power of two, also the network N).
    pub n_caches: usize,
    /// Cache sets per processor (power of two).
    pub sets: usize,
    /// Ways per set.
    pub ways: usize,
    /// log2 words per block.
    pub words_log2: u32,
    /// Consistency multicast scheme.
    pub scheme: SchemeKind,
    /// Mode-selection policy.
    pub policy: ModePolicy,
    /// OWNER-field bypass on read misses.
    pub owner_bypass: bool,
}

impl Default for Machine {
    fn default() -> Self {
        Machine {
            n_caches: 4,
            sets: 64,
            ways: 4,
            words_log2: 2,
            scheme: SchemeKind::Combined,
            policy: ModePolicy::Fixed(Mode::GlobalRead),
            owner_bypass: true,
        }
    }
}

impl Machine {
    /// The block geometry the machine uses.
    pub fn block_spec(&self) -> BlockSpec {
        BlockSpec::new(self.words_log2)
    }
}

/// Workload family selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// The paper's §4 model: single-writer shared blocks, Bernoulli(w).
    SharedBlock,
    /// Iterative grid sweep with neighbor boundary reads.
    Stencil,
    /// Disjoint per-task working sets (coherence-free baseline).
    Private,
    /// One contended hot block over a private background.
    HotSpot,
    /// Block ownership migrating around the task ring.
    Migratory,
    /// Multi-tenant Zipfian users hashed onto tenant working sets.
    Zipf,
}

impl Family {
    /// Stable scenario-file name.
    pub fn name(self) -> &'static str {
        match self {
            Family::SharedBlock => "shared-block",
            Family::Stencil => "stencil",
            Family::Private => "private",
            Family::HotSpot => "hotspot",
            Family::Migratory => "migratory",
            Family::Zipf => "zipf",
        }
    }

    /// Inverse of [`name`](Self::name).
    pub fn parse(s: &str) -> Option<Family> {
        [
            Family::SharedBlock,
            Family::Stencil,
            Family::Private,
            Family::HotSpot,
            Family::Migratory,
            Family::Zipf,
        ]
        .into_iter()
        .find(|f| f.name() == s)
    }

    /// Which `[workload]` keys this family accepts (beyond the common
    /// `family`, `seed`, `tasks`, `placement`).
    pub fn allowed_keys(self) -> &'static [&'static str] {
        match self {
            Family::SharedBlock => &["blocks", "write_fraction", "references"],
            Family::Stencil => &["rows_per_task", "iterations"],
            Family::Private => &["blocks_per_task", "write_fraction", "references"],
            Family::HotSpot => &[
                "hot_fraction",
                "write_fraction",
                "any_writer",
                "hot_block",
                "references",
            ],
            Family::Migratory => &["blocks", "write_fraction", "period", "references"],
            Family::Zipf => &[
                "users",
                "write_fraction",
                "theta",
                "tenants",
                "blocks_per_tenant",
                "references",
            ],
        }
    }
}

/// A declarative workload: family plus its parameters.
///
/// Only the fields [`Family::allowed_keys`] names are meaningful for a
/// given family; the parser rejects the rest, and [`Scenario::encode`]
/// emits only the relevant ones.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    /// Which generator runs.
    pub family: Family,
    /// Workload rng seed.
    pub seed: u64,
    /// Logical tasks.
    pub tasks: usize,
    /// Reference count (families with a fixed sweep length ignore it).
    pub references: usize,
    /// Task→processor placement.
    pub placement: Placement,
    /// Shared/migratory block count.
    pub blocks: u64,
    /// Write fraction.
    pub write_fraction: f64,
    /// Stencil rows per task.
    pub rows_per_task: usize,
    /// Stencil sweep iterations.
    pub iterations: usize,
    /// Private blocks per task.
    pub blocks_per_task: u64,
    /// Hot-spot fraction of references hitting the hot block.
    pub hot_fraction: f64,
    /// Hot-spot: every task may write the hot block.
    pub any_writer: bool,
    /// Hot block index.
    pub hot_block: u64,
    /// Migration period in references.
    pub period: usize,
    /// Zipf logical users.
    pub users: u64,
    /// Zipf skew θ.
    pub theta: f64,
    /// Zipf tenants.
    pub tenants: u64,
    /// Zipf blocks per tenant.
    pub blocks_per_tenant: u64,
}

impl Workload {
    /// Default parameters for `family`.
    pub fn new(family: Family) -> Self {
        Workload {
            family,
            seed: 1,
            tasks: 4,
            references: 1000,
            placement: Placement::Adjacent { base: 0 },
            blocks: 8,
            write_fraction: 0.2,
            rows_per_task: 4,
            iterations: 4,
            blocks_per_task: 8,
            hot_fraction: 0.2,
            any_writer: false,
            hot_block: 0,
            period: 64,
            users: 1_000_000,
            theta: 0.99,
            tenants: 16,
            blocks_per_tenant: 64,
        }
    }
}

/// A per-block software mode directive, applied before the workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModeDirective {
    /// Target block index.
    pub block: u64,
    /// Mode to pin.
    pub mode: Mode,
}

/// Declarative fault plan (mirrors [`tmc_faults::FaultSpec`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Faults {
    /// Schedule seed.
    pub seed: u64,
    /// Faults to schedule (0 = zero plan, bit-identical to faults off).
    pub count: usize,
    /// Op window over which faults fire.
    pub horizon: u64,
    /// Mean outage length in ops.
    pub mean_outage: u64,
    /// Retry attempts after the first timeout.
    pub max_retries: u32,
    /// Base backoff in simulated cycles.
    pub backoff_base: u64,
}

impl Default for Faults {
    fn default() -> Self {
        let spec = FaultSpec::new(0);
        Faults {
            seed: 0,
            count: spec.count,
            horizon: spec.horizon,
            mean_outage: spec.mean_outage,
            max_retries: spec.retry.max_retries,
            backoff_base: spec.retry.backoff_base,
        }
    }
}

impl Faults {
    /// The `tmc-faults` spec this section describes.
    pub fn to_spec(&self) -> FaultSpec {
        FaultSpec::new(self.seed)
            .count(self.count)
            .horizon(self.horizon)
            .mean_outage(self.mean_outage)
            .retry(RetryPolicy {
                max_retries: self.max_retries,
                backoff_base: self.backoff_base,
            })
    }
}

/// Periodic checkpointing request: snapshot the whole machine into a
/// crash-recovery journal every `every` ops (see
/// `tmc_core::snapshot` and `docs/ROBUSTNESS.md`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Checkpoint {
    /// Ops between journal frames (>= 1).
    pub every: u64,
}

impl Default for Checkpoint {
    fn default() -> Self {
        Checkpoint { every: 1000 }
    }
}

/// Steady-state probe for the conformance sim-vs-analytic pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Analytic {
    /// Sharer tasks per block (the paper's `n`).
    pub n_tasks: usize,
    /// Write fraction (the paper's `w`).
    pub w: f64,
    /// Measured references after warmup.
    pub refs: usize,
    /// Warmup references excluded from the measurement.
    pub warmup: usize,
}

/// Golden expectations. Every populated field is asserted by
/// `tmc scenario check`; an empty section just runs the engines.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Expect {
    /// FNV-1a of the protocol fingerprint bytes.
    pub fingerprint: Option<u64>,
    /// Total bits charged across all network links.
    pub total_bits: Option<u64>,
    /// FNV-1a over the canonical nonzero per-link charge list.
    pub link_checksum: Option<u64>,
    /// FNV-1a over every read's returned value, in op order.
    pub reads_checksum: Option<u64>,
    /// Protocol events emitted with tracing on.
    pub events: Option<u64>,
    /// Ops executed (mode directives + script + workload).
    pub ops: Option<u64>,
    /// Named counter totals (sparse: only listed counters are checked).
    pub counters: BTreeMap<String, u64>,
}

impl Expect {
    /// Whether any golden value is pinned.
    pub fn is_pinned(&self) -> bool {
        self.fingerprint.is_some()
            || self.total_bits.is_some()
            || self.link_checksum.is_some()
            || self.reads_checksum.is_some()
            || self.events.is_some()
            || self.ops.is_some()
            || !self.counters.is_empty()
    }
}

/// One named scenario: the full declarative experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Unique name (the file stem by convention).
    pub name: String,
    /// Free-form rationale.
    pub note: String,
    /// Generator seed (0 for hand-written scenarios; conformance
    /// reproducers record the fuzzer seed here).
    pub seed: u64,
    /// Conformance pair metadata (reproducers only).
    pub pair: Option<String>,
    /// Machine shape.
    pub machine: Machine,
    /// Generated workload, if any.
    pub workload: Option<Workload>,
    /// Per-block mode directives applied before everything else.
    pub modes: Vec<ModeDirective>,
    /// Fault plan, if any.
    pub faults: Option<Faults>,
    /// Analytic steady-state probe (conformance reproducers).
    pub analytic: Option<Analytic>,
    /// Periodic crash-recovery checkpointing, if requested.
    pub checkpoint: Option<Checkpoint>,
    /// Explicit op script, run after mode directives, before the workload.
    pub ops: Vec<ScriptOp>,
    /// Golden expectations.
    pub expect: Expect,
}

impl Scenario {
    /// An empty scenario around the default machine.
    pub fn new(name: &str) -> Self {
        Scenario {
            name: name.to_string(),
            note: String::new(),
            seed: 0,
            pair: None,
            machine: Machine::default(),
            workload: None,
            modes: Vec::new(),
            faults: None,
            analytic: None,
            checkpoint: None,
            ops: Vec::new(),
            expect: Expect::default(),
        }
    }

    /// The fault-free part of the `SystemConfig` this scenario describes,
    /// with the fault plan attached when a `[faults]` section is present.
    pub fn config(&self) -> SystemConfig {
        let m = &self.machine;
        let cfg = SystemConfig::new(m.n_caches)
            .geometry(CacheGeometry::new(m.sets, m.ways))
            .block_spec(BlockSpec::new(m.words_log2))
            .multicast(m.scheme)
            .mode_policy(m.policy)
            .owner_bypass(m.owner_bypass);
        match &self.faults {
            Some(f) => cfg.faults(f.to_spec()),
            None => cfg,
        }
    }

    /// Whether the scenario schedules any faults (a zero-count plan still
    /// counts as fault-*configured*: such a scenario is not replayed).
    pub fn fault_configured(&self) -> bool {
        self.faults.is_some()
    }

    /// Renders the canonical `.tmcs` text. [`crate::parse::parse`] is the
    /// exact inverse: `parse(encode(s)) == s`.
    pub fn encode(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "# tmc scenario");
        let _ = writeln!(s, "[scenario]");
        let _ = writeln!(s, "name = {}", self.name);
        if !self.note.is_empty() {
            let _ = writeln!(s, "note = {}", self.note);
        }
        if self.seed != 0 {
            let _ = writeln!(s, "seed = {}", self.seed);
        }
        if let Some(pair) = &self.pair {
            let _ = writeln!(s, "pair = {pair}");
        }

        let m = &self.machine;
        let _ = writeln!(s, "\n[machine]");
        let _ = writeln!(s, "n_caches = {}", m.n_caches);
        let _ = writeln!(s, "sets = {}", m.sets);
        let _ = writeln!(s, "ways = {}", m.ways);
        let _ = writeln!(s, "words_log2 = {}", m.words_log2);
        let _ = writeln!(s, "scheme = {}", scheme_kind_str(m.scheme));
        let _ = writeln!(s, "policy = {}", policy_str(m.policy));
        let _ = writeln!(s, "owner_bypass = {}", m.owner_bypass);

        if let Some(w) = &self.workload {
            let _ = writeln!(s, "\n[workload]");
            let _ = writeln!(s, "family = {}", w.family.name());
            let _ = writeln!(s, "seed = {}", w.seed);
            let _ = writeln!(s, "tasks = {}", w.tasks);
            let _ = writeln!(s, "placement = {}", placement_str(w.placement));
            for &key in w.family.allowed_keys() {
                let _ = match key {
                    "blocks" => writeln!(s, "blocks = {}", w.blocks),
                    "write_fraction" => writeln!(s, "write_fraction = {}", w.write_fraction),
                    "references" => writeln!(s, "references = {}", w.references),
                    "rows_per_task" => writeln!(s, "rows_per_task = {}", w.rows_per_task),
                    "iterations" => writeln!(s, "iterations = {}", w.iterations),
                    "blocks_per_task" => writeln!(s, "blocks_per_task = {}", w.blocks_per_task),
                    "hot_fraction" => writeln!(s, "hot_fraction = {}", w.hot_fraction),
                    "any_writer" => writeln!(s, "any_writer = {}", w.any_writer),
                    "hot_block" => writeln!(s, "hot_block = {}", w.hot_block),
                    "period" => writeln!(s, "period = {}", w.period),
                    "users" => writeln!(s, "users = {}", w.users),
                    "theta" => writeln!(s, "theta = {}", w.theta),
                    "tenants" => writeln!(s, "tenants = {}", w.tenants),
                    "blocks_per_tenant" => {
                        writeln!(s, "blocks_per_tenant = {}", w.blocks_per_tenant)
                    }
                    _ => unreachable!("unknown workload key {key}"),
                };
            }
        }

        if !self.modes.is_empty() {
            let _ = writeln!(s, "\n[modes]");
            for d in &self.modes {
                let _ = writeln!(s, "mode = {} {}", d.block, mode_str(d.mode));
            }
        }

        if let Some(f) = &self.faults {
            let _ = writeln!(s, "\n[faults]");
            let _ = writeln!(s, "seed = {}", f.seed);
            let _ = writeln!(s, "count = {}", f.count);
            let _ = writeln!(s, "horizon = {}", f.horizon);
            let _ = writeln!(s, "mean_outage = {}", f.mean_outage);
            let _ = writeln!(s, "max_retries = {}", f.max_retries);
            let _ = writeln!(s, "backoff_base = {}", f.backoff_base);
        }

        if let Some(c) = &self.checkpoint {
            let _ = writeln!(s, "\n[checkpoint]");
            let _ = writeln!(s, "every = {}", c.every);
        }

        if let Some(a) = &self.analytic {
            let _ = writeln!(s, "\n[analytic]");
            let _ = writeln!(s, "n_tasks = {}", a.n_tasks);
            let _ = writeln!(s, "w = {}", a.w);
            let _ = writeln!(s, "refs = {}", a.refs);
            let _ = writeln!(s, "warmup = {}", a.warmup);
        }

        if !self.ops.is_empty() {
            let _ = writeln!(s, "\n[ops]");
            for op in &self.ops {
                match *op {
                    ScriptOp::Read { proc, addr } => {
                        let _ = writeln!(s, "op = R {proc} {}", addr.value());
                    }
                    ScriptOp::Write { proc, addr, value } => {
                        let _ = writeln!(s, "op = W {proc} {} {value}", addr.value());
                    }
                    ScriptOp::SetMode { proc, addr, mode } => {
                        let _ = writeln!(s, "op = M {proc} {} {}", addr.value(), mode_str(mode));
                    }
                }
            }
        }

        if self.expect.is_pinned() {
            let _ = writeln!(s, "\n{}", encode_expect(&self.expect).trim_end());
        }
        s
    }
}

/// Renders an `[expect]` section (used by `tmc scenario pin`).
pub fn encode_expect(expect: &Expect) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "[expect]");
    if let Some(v) = expect.fingerprint {
        let _ = writeln!(s, "fingerprint = 0x{v:016x}");
    }
    if let Some(v) = expect.total_bits {
        let _ = writeln!(s, "total_bits = {v}");
    }
    if let Some(v) = expect.link_checksum {
        let _ = writeln!(s, "link_checksum = 0x{v:016x}");
    }
    if let Some(v) = expect.reads_checksum {
        let _ = writeln!(s, "reads_checksum = 0x{v:016x}");
    }
    if let Some(v) = expect.events {
        let _ = writeln!(s, "events = {v}");
    }
    if let Some(v) = expect.ops {
        let _ = writeln!(s, "ops = {v}");
    }
    for (name, v) in &expect.counters {
        let _ = writeln!(s, "counter = {name} {v}");
    }
    s
}

/// Stable text for a [`Mode`].
pub fn mode_str(mode: Mode) -> &'static str {
    match mode {
        Mode::DistributedWrite => "dw",
        Mode::GlobalRead => "gr",
    }
}

/// Inverse of [`mode_str`].
pub fn parse_mode(s: &str) -> Option<Mode> {
    match s {
        "dw" => Some(Mode::DistributedWrite),
        "gr" => Some(Mode::GlobalRead),
        _ => None,
    }
}

/// Stable text for a [`Placement`]: `adjacent:<base>`,
/// `strided:<base>:<stride>`, or `random`.
pub fn placement_str(p: Placement) -> String {
    match p {
        Placement::Adjacent { base } => format!("adjacent:{base}"),
        Placement::Strided { base, stride } => format!("strided:{base}:{stride}"),
        Placement::Random => "random".into(),
    }
}

/// Inverse of [`placement_str`] (also accepts bare `adjacent`).
pub fn parse_placement(s: &str) -> Option<Placement> {
    if s == "random" {
        return Some(Placement::Random);
    }
    if s == "adjacent" {
        return Some(Placement::Adjacent { base: 0 });
    }
    if let Some(rest) = s.strip_prefix("adjacent:") {
        return Some(Placement::Adjacent {
            base: rest.parse().ok()?,
        });
    }
    if let Some(rest) = s.strip_prefix("strided:") {
        let (base, stride) = rest.split_once(':')?;
        return Some(Placement::Strided {
            base: base.parse().ok()?,
            stride: stride.parse().ok()?,
        });
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn families_roundtrip() {
        for f in [
            Family::SharedBlock,
            Family::Stencil,
            Family::Private,
            Family::HotSpot,
            Family::Migratory,
            Family::Zipf,
        ] {
            assert_eq!(Family::parse(f.name()), Some(f));
        }
        assert_eq!(Family::parse("quantum"), None);
    }

    #[test]
    fn placements_roundtrip() {
        for p in [
            Placement::Adjacent { base: 3 },
            Placement::Strided { base: 1, stride: 4 },
            Placement::Random,
        ] {
            assert_eq!(parse_placement(&placement_str(p)), Some(p));
        }
        assert_eq!(
            parse_placement("adjacent"),
            Some(Placement::Adjacent { base: 0 })
        );
        assert_eq!(parse_placement("diagonal"), None);
    }

    #[test]
    fn encode_contains_sections() {
        let mut sc = Scenario::new("demo");
        sc.workload = Some(Workload::new(Family::Stencil));
        sc.modes.push(ModeDirective {
            block: 3,
            mode: Mode::DistributedWrite,
        });
        sc.faults = Some(Faults::default());
        let text = sc.encode();
        for section in [
            "[scenario]",
            "[machine]",
            "[workload]",
            "[modes]",
            "[faults]",
        ] {
            assert!(text.contains(section), "missing {section} in:\n{text}");
        }
        assert!(!text.contains("[expect]"), "no goldens pinned");
    }
}
