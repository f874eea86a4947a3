//! The fully explicit, replayable conformance case.
//!
//! A case is *self-contained*: after shrinking, the op list is no longer
//! derivable from the seed, so the persisted form carries every field —
//! config, shard request, fault seed, analytic probe and the op script.
//! Cases serialize as ordinary `.tmcs` scenario files ([`CaseSpec::encode`]
//! delegates to [`Scenario::encode`]) so one format is the
//! repo's single reproducer currency: a shrunken divergence drops
//! straight into `tmc scenario run`, and the corpus regression replays
//! scenario files through the same parser CI sweeps with.

use std::fmt::Write as _;

use crate::spec::{Analytic, Faults, Scenario};
use tmc_bench::script::ScriptOp;
use tmc_core::{ModePolicy, SystemConfig};
use tmc_memsys::{BlockSpec, CacheGeometry};
use tmc_omeganet::SchemeKind;

/// Steady-state parameters for the simulator-vs-analytic pair.
///
/// The closed forms (eqs. 11–12) assume the §4 sharing model — `n_tasks`
/// sharers per block, write fraction `w`, steady state — so the analytic
/// pair re-derives a `SharedBlockWorkload` from these fields rather than
/// using the case's op script.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnalyticProbe {
    /// Sharer tasks per block (the paper's `n`).
    pub n_tasks: usize,
    /// Write fraction (the paper's `w`).
    pub w: f64,
    /// Measured references after warmup.
    pub refs: usize,
    /// Warmup references excluded from the measurement.
    pub warmup: usize,
}

/// One conformance case: config × op script × shard request × fault seed
/// × optional analytic probe.
#[derive(Debug, Clone, PartialEq)]
pub struct CaseSpec {
    /// Seed the case was generated from (zero for hand-written cases).
    pub seed: u64,
    /// Number of caches/processors (power of two).
    pub n_caches: usize,
    /// Cache sets per processor (power of two).
    pub sets: usize,
    /// Ways per set.
    pub ways: usize,
    /// log2 words per block.
    pub words_log2: u32,
    /// Multicast scheme.
    pub scheme: SchemeKind,
    /// Mode policy.
    pub policy: ModePolicy,
    /// Whether the owner-bypass optimization is on.
    pub owner_bypass: bool,
    /// Requested shard count for the sharded pair (clamped by
    /// `shard_count`; the pair is skipped when it clamps below 2).
    pub shards: usize,
    /// Seed for the zero-count fault plan of the faults pair.
    pub fault_seed: u64,
    /// Steady-state probe for the analytic pair, when applicable.
    pub analytic: Option<AnalyticProbe>,
    /// The op script every value-level engine executes.
    pub ops: Vec<ScriptOp>,
}

impl CaseSpec {
    /// The fault-free `SystemConfig` the case describes.
    pub fn config(&self) -> SystemConfig {
        SystemConfig::new(self.n_caches)
            .geometry(CacheGeometry::new(self.sets, self.ways))
            .block_spec(BlockSpec::new(self.words_log2))
            .multicast(self.scheme)
            .mode_policy(self.policy)
            .owner_bypass(self.owner_bypass)
    }

    /// Same config under a different mode policy (for the adaptive pair).
    pub fn config_with_policy(&self, policy: ModePolicy) -> SystemConfig {
        SystemConfig::new(self.n_caches)
            .geometry(CacheGeometry::new(self.sets, self.ways))
            .block_spec(BlockSpec::new(self.words_log2))
            .multicast(self.scheme)
            .mode_policy(policy)
            .owner_bypass(self.owner_bypass)
    }

    /// The case as a scenario: same machine, the fault seed as a
    /// zero-count `[faults]` plan, the op script under `[ops]`.
    pub fn to_scenario(&self) -> Scenario {
        let mut sc = Scenario::new(&format!("case-seed{}", self.seed));
        sc.seed = self.seed;
        sc.machine.n_caches = self.n_caches;
        sc.machine.sets = self.sets;
        sc.machine.ways = self.ways;
        sc.machine.words_log2 = self.words_log2;
        sc.machine.scheme = self.scheme;
        sc.machine.policy = self.policy;
        sc.machine.owner_bypass = self.owner_bypass;
        sc.machine.shards = self.shards;
        sc.faults = Some(Faults {
            seed: self.fault_seed,
            count: 0,
            ..Faults::default()
        });
        sc.analytic = self.analytic.map(|p| Analytic {
            n_tasks: p.n_tasks,
            w: p.w,
            refs: p.refs,
            warmup: p.warmup,
        });
        sc.ops = self.ops.clone();
        sc
    }

    /// The case a scenario describes. The op script is the scenario's
    /// full materialization, so workload-bearing scenarios become
    /// explicit-op cases.
    pub fn from_scenario(sc: &Scenario) -> CaseSpec {
        CaseSpec {
            seed: sc.seed,
            n_caches: sc.machine.n_caches,
            sets: sc.machine.sets,
            ways: sc.machine.ways,
            words_log2: sc.machine.words_log2,
            scheme: sc.machine.scheme,
            policy: sc.machine.policy,
            owner_bypass: sc.machine.owner_bypass,
            shards: sc.machine.shards,
            fault_seed: sc.faults.map(|f| f.seed).unwrap_or(0),
            analytic: sc.analytic.map(|a| AnalyticProbe {
                n_tasks: a.n_tasks,
                w: a.w,
                refs: a.refs,
                warmup: a.warmup,
            }),
            ops: crate::ops::materialize(sc),
        }
    }

    /// Serializes the case as canonical `.tmcs` scenario text.
    pub fn encode(&self) -> String {
        self.to_scenario().encode()
    }

    /// Parses a case from `.tmcs` scenario text.
    ///
    /// # Errors
    ///
    /// Returns the scenario parser's line/column-addressed message.
    pub fn decode(text: &str) -> Result<CaseSpec, String> {
        let sc = crate::parse(text).map_err(|e| e.to_string())?;
        Ok(CaseSpec::from_scenario(&sc))
    }

    /// Renders the case as a self-contained `#[test]` snippet that rebuilds
    /// the exact case and asserts the named pair holds.
    pub fn rust_snippet(&self, pair: &str) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "/// Minimized reproducer (seed {}).", self.seed);
        let _ = writeln!(s, "#[test]");
        let _ = writeln!(s, "fn conformance_repro_seed_{}() {{", self.seed);
        let _ = writeln!(s, "    use tmc_scenario::{{check_pair, CaseSpec, Pair}};");
        let _ = writeln!(s, "    let text = concat!(");
        for line in self.encode().lines() {
            let _ = writeln!(s, "        {:?}, \"\\n\",", line);
        }
        let _ = writeln!(s, "    );");
        let _ = writeln!(s, "    let case = CaseSpec::decode(text).unwrap();");
        let _ = writeln!(
            s,
            "    if let Err(d) = check_pair(&case, Pair::parse({pair:?}).unwrap()) {{"
        );
        let _ = writeln!(s, "        panic!(\"{{}}\", d);");
        let _ = writeln!(s, "    }}");
        let _ = writeln!(s, "}}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tmc_core::Mode;
    use tmc_memsys::WordAddr;

    fn sample() -> CaseSpec {
        CaseSpec {
            seed: 7,
            n_caches: 8,
            sets: 2,
            ways: 1,
            words_log2: 1,
            scheme: SchemeKind::BitVector,
            policy: ModePolicy::Adaptive { window: 8 },
            owner_bypass: false,
            shards: 2,
            fault_seed: 99,
            analytic: Some(AnalyticProbe {
                n_tasks: 4,
                w: 0.25,
                refs: 400,
                warmup: 100,
            }),
            ops: vec![
                ScriptOp::Write {
                    proc: 0,
                    addr: WordAddr::new(12),
                    value: 1,
                },
                ScriptOp::Read {
                    proc: 3,
                    addr: WordAddr::new(12),
                },
                ScriptOp::SetMode {
                    proc: 0,
                    addr: WordAddr::new(12),
                    mode: Mode::DistributedWrite,
                },
            ],
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        let case = sample();
        let text = case.encode();
        assert!(text.contains("[machine]"), "scenario text:\n{text}");
        let back = CaseSpec::decode(&text).expect("decodes");
        assert_eq!(case, back);
    }

    #[test]
    fn decode_reports_line_and_column() {
        let err = CaseSpec::decode("[scenario]\nname = x\n[machine]\nn_caches = frog\n")
            .expect_err("rejects");
        assert!(err.contains("line 4"), "{err}");
        assert!(CaseSpec::decode("mystery = 3").is_err());
    }

    #[test]
    fn workload_scenarios_materialize_into_cases() {
        let text = "\
[scenario]
name = mini
[machine]
n_caches = 8
[workload]
family = shared-block
tasks = 4
references = 50
";
        let case = CaseSpec::decode(text).expect("decodes");
        assert_eq!(case.ops.len(), 50);
        assert_eq!(case.n_caches, 8);
    }

    #[test]
    fn config_reflects_fields() {
        let cfg = sample().config();
        assert_eq!(cfg.n_caches, 8);
        assert_eq!(cfg.geometry.sets(), 2);
        assert!(!cfg.owner_bypass);
        assert!(cfg.faults.is_none());
    }
}
