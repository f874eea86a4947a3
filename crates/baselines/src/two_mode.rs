//! The paper's own protocol, adapted to the common harness interface —
//! including its degenerate fixed-mode instances, which are the paper's
//! "distributed write protocol" (eq. 11) and "global read" (eq. 12)
//! comparison points.

use tmc_core::{Mode, ModePolicy, System, SystemConfig};

/// Wraps [`tmc_core::System`] as a [`CoherentSystem`](crate::CoherentSystem).
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
    sys: System,
    name: &'static str,
}

on_system!(TwoModeAdapter);

impl TwoModeAdapter {
    /// Wraps an already-configured system under a report `name`.
    ///
    /// # Panics
    ///
    /// Panics if `inner` has fault injection enabled: the baseline harness
    /// is the paper's *fault-free* comparison surface, and its
    /// `expect`-based [`CoherentSystem`](crate::CoherentSystem) calls could not surface recovery
    /// behaviour meaningfully. Run fault campaigns on [`System`] directly
    /// (as `tmc fuzz` does for its generated fault cases).
    pub fn new(inner: System, name: &'static str) -> Self {
        assert!(
            !inner.faults_enabled(),
            "the baseline harness is fault-free; drive fault-injected systems directly"
        );
        TwoModeAdapter { sys: inner, name }
    }

    /// The wrapped system.
    pub fn inner(&self) -> &System {
        &self.sys
    }

    /// Mutable access to the wrapped system (e.g. for `set_mode`).
    pub fn inner_mut(&mut self) -> &mut System {
        &mut self.sys
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CoherentSystem;
    use tmc_memsys::WordAddr;

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
