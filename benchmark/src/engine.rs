//! One interface over the engines a workload drives: the two-mode
//! [`System`] itself and the comparison protocols behind
//! `CoherentSystem`. The hot loops are written once against it.

use crate::stats::{fnv1a, FNV_OFFSET};
use crate::surface::{
    CoherentSystem, CounterSet, DirectoryInvalidateSystem, NoCacheSystem, System, SystemConfig,
    UpdateOnlySystem, WordAddr,
};

/// A simulated machine that executes references.
pub trait Engine {
    /// Executes a read; `None` when the engine refused the operation.
    fn read(&mut self, proc: usize, addr: WordAddr) -> Option<u64>;
    /// Executes a write; `false` when the engine refused the operation.
    fn write(&mut self, proc: usize, addr: WordAddr, value: u64) -> bool;
    /// Link bits charged so far.
    fn total_bits(&self) -> u64;
    /// The engine's named counters.
    fn counters(&self) -> &CounterSet;
    /// A digest of the engine's simulated end state: two runs of the same
    /// trace must agree on it bit for bit.
    fn digest(&self) -> u64;
    /// The two-mode system inside, for the layers only it has (tracing,
    /// present vectors, per-link ledger, snapshots).
    fn as_system(&mut self) -> Option<&mut System> {
        None
    }
}

fn counters_digest(counters: &CounterSet, mut h: u64) -> u64 {
    for (name, value) in counters.iter() {
        h = fnv1a(h, name.as_bytes());
        h = fnv1a(h, &value.to_le_bytes());
    }
    h
}

impl Engine for System {
    #[inline]
    fn read(&mut self, proc: usize, addr: WordAddr) -> Option<u64> {
        System::read(self, proc, addr).ok()
    }

    #[inline]
    fn write(&mut self, proc: usize, addr: WordAddr, value: u64) -> bool {
        System::write(self, proc, addr, value).is_ok()
    }

    fn total_bits(&self) -> u64 {
        self.traffic().total_bits()
    }

    fn counters(&self) -> &CounterSet {
        System::counters(self)
    }

    fn digest(&self) -> u64 {
        let h = fnv1a(FNV_OFFSET, &self.protocol_fingerprint());
        counters_digest(System::counters(self), h)
    }

    fn as_system(&mut self) -> Option<&mut System> {
        Some(self)
    }
}

/// A comparison protocol from `tmc-baselines`.
pub struct Baseline<T>(pub T);

impl<T: CoherentSystem> Engine for Baseline<T> {
    #[inline]
    fn read(&mut self, proc: usize, addr: WordAddr) -> Option<u64> {
        Some(self.0.read(proc, addr))
    }

    #[inline]
    fn write(&mut self, proc: usize, addr: WordAddr, value: u64) -> bool {
        self.0.write(proc, addr, value);
        true
    }

    fn total_bits(&self) -> u64 {
        self.0.total_traffic_bits()
    }

    fn counters(&self) -> &CounterSet {
        self.0.counters()
    }

    fn digest(&self) -> u64 {
        // The baselines expose no fingerprint; the ledger total with
        // every counter pins their end state.
        let h = fnv1a(FNV_OFFSET, &self.0.total_traffic_bits().to_le_bytes());
        counters_digest(self.0.counters(), h)
    }
}

/// Which engine a cell runs, and how to build a fresh one.
#[derive(Debug, Clone)]
pub enum EngineKind {
    /// The paper's protocol under the given configuration.
    TwoMode(SystemConfig),
    /// Every reference goes to memory.
    NoCache,
    /// Directory-based write-invalidate.
    DirInvalidate,
    /// Update-only (distributed write without modes).
    UpdateOnly,
}

impl EngineKind {
    /// Builds a cold machine with `n_procs` processors.
    ///
    /// # Panics
    ///
    /// Panics if a workload table holds a configuration the simulator
    /// rejects — a bug in this crate's tables, not an input error.
    pub fn build(&self, n_procs: usize) -> Box<dyn Engine> {
        match self {
            EngineKind::TwoMode(cfg) => {
                Box::new(System::new(cfg.clone()).expect("workload tables hold valid configs"))
            }
            EngineKind::NoCache => Box::new(Baseline(NoCacheSystem::new(n_procs))),
            EngineKind::DirInvalidate => {
                Box::new(Baseline(DirectoryInvalidateSystem::new(n_procs)))
            }
            EngineKind::UpdateOnly => Box::new(Baseline(UpdateOnlySystem::new(n_procs))),
        }
    }

    /// The two-mode configuration, if this is the two-mode engine.
    pub fn config(&self) -> Option<&SystemConfig> {
        match self {
            EngineKind::TwoMode(cfg) => Some(cfg),
            _ => None,
        }
    }
}
