//! The paper's own protocol, adapted to the common harness interface —
//! including its degenerate fixed-mode instances, which are the paper's
//! "distributed write protocol" (eq. 11) and "global read" (eq. 12)
//! comparison points.

use tmc_core::{Mode, ModePolicy, System, SystemConfig};
use tmc_memsys::WordAddr;
use tmc_simcore::CounterSet;

use crate::CoherentSystem;

/// Wraps [`tmc_core::System`] as a [`CoherentSystem`].
///
/// # Example
///
/// ```
/// use tmc_baselines::{two_mode_fixed, CoherentSystem};
/// use tmc_core::Mode;
/// use tmc_memsys::WordAddr;
///
/// let mut sys = two_mode_fixed(8, Mode::DistributedWrite);
/// sys.write(0, WordAddr::new(0), 1);
/// assert_eq!(sys.read(3, WordAddr::new(0)), 1);
/// ```
pub struct TwoModeAdapter {
    inner: System,
    name: &'static str,
}

impl TwoModeAdapter {
    /// Wraps an already-configured system under a report `name`.
    ///
    /// # Panics
    ///
    /// Panics if `inner` has fault injection enabled: the baseline harness
    /// is the paper's *fault-free* comparison surface, and its
    /// `expect`-based [`CoherentSystem`] calls could not surface recovery
    /// behaviour meaningfully. Run fault campaigns on [`System`] directly
    /// (see `tmc chaos`).
    pub fn new(inner: System, name: &'static str) -> Self {
        assert!(
            !inner.faults_enabled(),
            "the baseline harness is fault-free; drive fault-injected systems directly"
        );
        TwoModeAdapter { inner, name }
    }

    /// The wrapped system.
    pub fn inner(&self) -> &System {
        &self.inner
    }

    /// Mutable access to the wrapped system (e.g. for `set_mode`).
    pub fn inner_mut(&mut self) -> &mut System {
        &mut self.inner
    }
}

/// The two-mode protocol pinned to a single mode for every block.
///
/// # Panics
///
/// Panics if the configuration is rejected (non-power-of-two `n_procs`).
pub fn two_mode_fixed(n_procs: usize, mode: Mode) -> TwoModeAdapter {
    let sys = System::new(SystemConfig::new(n_procs).mode_policy(ModePolicy::Fixed(mode)))
        .expect("valid configuration");
    let name = match mode {
        Mode::DistributedWrite => "two-mode (fixed distributed-write)",
        Mode::GlobalRead => "two-mode (fixed global-read)",
    };
    TwoModeAdapter::new(sys, name)
}

/// The two-mode protocol with the §5 adaptive controller.
///
/// # Panics
///
/// Panics if the configuration is rejected (non-power-of-two `n_procs`).
pub fn two_mode_adaptive(n_procs: usize, window: u32) -> TwoModeAdapter {
    let sys = System::new(SystemConfig::new(n_procs).mode_policy(ModePolicy::Adaptive { window }))
        .expect("valid configuration");
    TwoModeAdapter::new(sys, "two-mode (adaptive)")
}

impl CoherentSystem for TwoModeAdapter {
    fn name(&self) -> &'static str {
        self.name
    }

    fn read(&mut self, proc: usize, addr: WordAddr) -> u64 {
        self.inner
            .read(proc, addr)
            .expect("harness uses valid processors")
    }

    fn write(&mut self, proc: usize, addr: WordAddr, value: u64) {
        self.inner
            .write(proc, addr, value)
            .expect("harness uses valid processors");
    }

    fn total_traffic_bits(&self) -> u64 {
        self.inner.traffic().total_bits()
    }

    fn traffic(&self) -> &tmc_omeganet::TrafficMatrix {
        self.inner.traffic()
    }

    fn counters(&self) -> &CounterSet {
        self.inner.counters()
    }

    fn flush(&mut self) {
        self.inner.flush();
    }

    fn peek_word(&self, addr: WordAddr) -> u64 {
        self.inner.peek_word(addr)
    }

    fn set_tracing(&mut self, on: bool) {
        self.inner.set_tracing(on);
    }

    fn tracing_enabled(&self) -> bool {
        self.inner.tracing_enabled()
    }

    fn drain_trace(&mut self) -> Vec<tmc_obs::ProtocolEvent> {
        self.inner.drain_trace()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adapter_delegates_and_names() {
        let mut dw = two_mode_fixed(4, Mode::DistributedWrite);
        assert!(dw.name().contains("distributed-write"));
        dw.write(0, WordAddr::new(0), 3);
        assert_eq!(dw.read(1, WordAddr::new(0)), 3);
        assert!(dw.total_traffic_bits() > 0);
        dw.flush();
        assert_eq!(dw.peek_word(WordAddr::new(0)), 3);
        dw.inner().check_invariants().unwrap();

        let gr = two_mode_fixed(4, Mode::GlobalRead);
        assert!(gr.name().contains("global-read"));
        let ad = two_mode_adaptive(4, 32);
        assert!(ad.name().contains("adaptive"));
    }

    #[test]
    #[should_panic(expected = "baseline harness is fault-free")]
    fn fault_injected_systems_are_rejected() {
        let cfg = SystemConfig::new(4).faults(tmc_core::FaultSpec::new(1));
        let sys = System::new(cfg).unwrap();
        TwoModeAdapter::new(sys, "faulty");
    }
}
