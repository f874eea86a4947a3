//! Task→processor placement policies.
//!
//! The paper's §3.4 shows that multicast cost drops sharply when the tasks
//! sharing a structure run on *adjacently placed* processors (the scheme-3
//! requirement and the scheme-2 region bound both come from adjacency).
//! Placement is therefore a first-class experiment parameter.

use tmc_simcore::SimRng;

/// How `n_tasks` logical tasks map onto `n_procs` processors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Task `t` runs on processor `base + t` — the allocation the paper
    /// recommends ("tasks that share a data structure are allocated to
    /// adjacent processors").
    Adjacent {
        /// First processor of the region.
        base: usize,
    },
    /// Task `t` runs on processor `(base + t·stride) mod n_procs` —
    /// deliberately scattered, approximating the scheme-2 worst case when
    /// `stride = n_procs / n_tasks`.
    Strided {
        /// First processor.
        base: usize,
        /// Distance between consecutive tasks.
        stride: usize,
    },
    /// A uniformly random one-to-one assignment.
    Random,
}

impl Placement {
    /// Resolves the policy to a concrete assignment: element `t` is the
    /// processor running task `t`. The assignment is injective.
    ///
    /// # Panics
    ///
    /// Panics if the policy cannot place `n_tasks` distinct tasks on
    /// `n_procs` processors (too many tasks, region out of range, or a
    /// stride colliding modulo `n_procs`).
    pub fn assign(&self, n_tasks: usize, n_procs: usize, rng: &mut SimRng) -> Vec<usize> {
        let mut out = Vec::with_capacity(n_tasks);
        self.assign_into(n_tasks, n_procs, rng, &mut out);
        out
    }

    /// Like [`assign`](Self::assign), but appends into a caller-provided
    /// vector so repeated placements (one per sweep cell) can reuse its
    /// allocation. Consumes exactly the same rng stream as
    /// [`assign`](Self::assign).
    ///
    /// # Panics
    ///
    /// Same conditions as [`assign`](Self::assign).
    pub fn assign_into(
        &self,
        n_tasks: usize,
        n_procs: usize,
        rng: &mut SimRng,
        out: &mut Vec<usize>,
    ) {
        assert!(n_tasks <= n_procs, "more tasks than processors");
        match *self {
            Placement::Adjacent { base } => {
                assert!(
                    base + n_tasks <= n_procs,
                    "adjacent region [{base}, {}) exceeds {n_procs} processors",
                    base + n_tasks
                );
                out.extend((0..n_tasks).map(|t| base + t));
            }
            Placement::Strided { base, stride } => {
                assert!(stride > 0, "stride must be positive");
                let start = out.len();
                out.extend((0..n_tasks).map(|t| (base + t * stride) % n_procs));
                let mut sorted = out[start..].to_vec();
                sorted.sort_unstable();
                sorted.dedup();
                assert!(
                    sorted.len() == n_tasks,
                    "stride {stride} collides modulo {n_procs}"
                );
            }
            Placement::Random => out.extend(rng.sample_distinct(n_procs, n_tasks)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adjacent_is_contiguous() {
        let mut rng = SimRng::seed_from(0);
        let a = Placement::Adjacent { base: 4 }.assign(3, 16, &mut rng);
        assert_eq!(a, [4, 5, 6]);
    }

    #[test]
    fn strided_spreads_maximally() {
        let mut rng = SimRng::seed_from(0);
        let a = Placement::Strided { base: 0, stride: 4 }.assign(4, 16, &mut rng);
        assert_eq!(a, [0, 4, 8, 12]);
    }

    #[test]
    fn random_is_injective_and_in_range() {
        let mut rng = SimRng::seed_from(7);
        let a = Placement::Random.assign(10, 32, &mut rng);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 10);
        assert!(a.iter().all(|&p| p < 32));
    }

    #[test]
    fn random_is_reproducible_from_the_seed() {
        let mut a = SimRng::seed_from(3);
        let mut b = SimRng::seed_from(3);
        assert_eq!(
            Placement::Random.assign(6, 16, &mut a),
            Placement::Random.assign(6, 16, &mut b)
        );
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn adjacent_region_bounds_checked() {
        let mut rng = SimRng::seed_from(0);
        Placement::Adjacent { base: 14 }.assign(4, 16, &mut rng);
    }

    #[test]
    #[should_panic(expected = "collides")]
    fn colliding_stride_rejected() {
        let mut rng = SimRng::seed_from(0);
        Placement::Strided { base: 0, stride: 8 }.assign(4, 16, &mut rng);
    }

    #[test]
    #[should_panic(expected = "more tasks than processors")]
    fn too_many_tasks_rejected() {
        let mut rng = SimRng::seed_from(0);
        Placement::Random.assign(17, 16, &mut rng);
    }
}
