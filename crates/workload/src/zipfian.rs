//! A multi-tenant Zipfian workload.
//!
//! The big-machine stressor: millions of logical users, each hashed onto a
//! tenant and onto one block of that tenant's working set, with user
//! popularity following a Zipf law (a few users are referenced constantly,
//! the long tail rarely). This is the access shape that actually exercises
//! the paged stores and hybrid sharer sets at N = 1024 caches over block
//! counts up to 2²¹: total footprint is huge, the hot set is small, and the
//! tenant hash scatters it across the whole address space — exactly the
//! sparse-touch pattern a dense O(M) directory layout cannot afford.
//!
//! The paper's §4 single-writer discipline is preserved: each block has one
//! writer task (chosen by block hash), so the trace stays comparable to the
//! rest of the workload family and the protocol's distributed-write mode
//! still gets exercised.

use tmc_memsys::{BlockAddr, BlockSpec};
use tmc_simcore::SimRng;

use crate::placement::Placement;
use crate::trace::{Op, Reference, Trace};

/// SplitMix64: a cheap, high-quality 64-bit mixer for user→tenant and
/// user→block hashing (stateless, so the mapping is a pure function of the
/// user id).
#[inline]
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Rejection-free Zipfian rank sampler (the YCSB construction): draws rank
/// `r ∈ 0..n` with `P(r) ∝ 1/(r+1)^θ` using one uniform variate and a
/// handful of floating-point ops — no tables, no allocation.
///
/// The `O(n)` harmonic-sum precompute happens once in [`ZipfSampler::new`];
/// sampling is `O(1)`.
#[derive(Debug, Clone, PartialEq)]
pub struct ZipfSampler {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
    half_pow_theta: f64,
}

impl ZipfSampler {
    /// Builds a sampler over ranks `0..n` with skew `theta` (`θ = 0` is
    /// uniform; YCSB's default hot skew is `θ = 0.99`).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or `theta` is outside `0.0..1.0`.
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n > 0, "Zipf population must be nonempty");
        assert!(
            (0.0..1.0).contains(&theta),
            "theta must be in [0, 1) (got {theta})"
        );
        let zetan = Self::zeta(n, theta);
        let zeta2 = Self::zeta(n.min(2), theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
        ZipfSampler {
            n,
            theta,
            alpha: 1.0 / (1.0 - theta),
            zetan,
            eta,
            half_pow_theta: 0.5f64.powf(theta),
        }
    }

    /// Generalized harmonic number `Σ_{i=1..n} 1/i^θ`.
    fn zeta(n: u64, theta: f64) -> f64 {
        (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum()
    }

    /// Population size.
    pub fn population(&self) -> u64 {
        self.n
    }

    /// Draws one rank in `0..n`; rank 0 is the most popular.
    #[inline]
    pub fn sample(&self, rng: &mut SimRng) -> u64 {
        let u = rng.gen_unit();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + self.half_pow_theta {
            return 1.min(self.n - 1);
        }
        let r = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        r.min(self.n - 1)
    }
}

/// Generator for the multi-tenant Zipfian mix.
///
/// Each reference draws a logical user by Zipfian popularity, hashes the
/// user to a tenant and to one block of that tenant's `blocks_per_tenant`
/// working set, and issues a read from a uniformly random task or a write
/// from the block's single designated writer (Bernoulli
/// `write_fraction`).
///
/// # Example
///
/// ```
/// use tmc_simcore::SimRng;
/// use tmc_workload::MultiTenantZipfWorkload;
///
/// let mut rng = SimRng::seed_from(9);
/// let wl = MultiTenantZipfWorkload::new(16, 1_000_000, 0.2)
///     .tenants(64)
///     .blocks_per_tenant(256);
/// assert_eq!(wl.total_blocks(), 64 * 256);
/// let trace = wl.references(1000).generate(16, &mut rng);
/// assert_eq!(trace.len(), 1000);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MultiTenantZipfWorkload {
    n_tasks: usize,
    users: u64,
    write_fraction: f64,
    theta: f64,
    tenants: u64,
    blocks_per_tenant: u64,
    references: usize,
    block_base: u64,
    spec: BlockSpec,
    placement: Placement,
}

impl MultiTenantZipfWorkload {
    /// Creates the workload: `users` logical users with YCSB-default skew
    /// `θ = 0.99`, `write_fraction` of references are writes. Defaults:
    /// 16 tenants × 64 blocks each, 1000 references, adjacent placement.
    ///
    /// # Panics
    ///
    /// Panics if `n_tasks` or `users` is zero or `write_fraction` is
    /// outside `0.0..=1.0`.
    pub fn new(n_tasks: usize, users: u64, write_fraction: f64) -> Self {
        assert!(n_tasks > 0);
        assert!(users > 0);
        assert!((0.0..=1.0).contains(&write_fraction));
        MultiTenantZipfWorkload {
            n_tasks,
            users,
            write_fraction,
            theta: 0.99,
            tenants: 16,
            blocks_per_tenant: 64,
            references: 1000,
            block_base: 0,
            spec: BlockSpec::new(2),
            placement: Placement::Adjacent { base: 0 },
        }
    }

    /// Sets the Zipf skew (`0.0` = uniform users, `0.99` = YCSB default).
    ///
    /// # Panics
    ///
    /// Panics if `theta` is outside `0.0..1.0`.
    pub fn theta(mut self, theta: f64) -> Self {
        assert!((0.0..1.0).contains(&theta));
        self.theta = theta;
        self
    }

    /// Sets the number of tenants.
    ///
    /// # Panics
    ///
    /// Panics if `tenants` is zero.
    pub fn tenants(mut self, tenants: u64) -> Self {
        assert!(tenants > 0);
        self.tenants = tenants;
        self
    }

    /// Sets each tenant's working-set size in blocks; the total footprint
    /// is `tenants × blocks_per_tenant`.
    ///
    /// # Panics
    ///
    /// Panics if `blocks` is zero.
    pub fn blocks_per_tenant(mut self, blocks: u64) -> Self {
        assert!(blocks > 0);
        self.blocks_per_tenant = blocks;
        self
    }

    /// Sets the number of references.
    pub fn references(mut self, count: usize) -> Self {
        self.references = count;
        self
    }

    /// Sets the first block of the footprint.
    pub fn block_base(mut self, base: u64) -> Self {
        self.block_base = base;
        self
    }

    /// Sets the block geometry.
    pub fn block_spec(mut self, spec: BlockSpec) -> Self {
        self.spec = spec;
        self
    }

    /// Sets the task→processor placement.
    pub fn placement(mut self, placement: Placement) -> Self {
        self.placement = placement;
        self
    }

    /// The block geometry in use.
    pub fn spec(&self) -> BlockSpec {
        self.spec
    }

    /// Total addressable footprint in blocks (`tenants × blocks_per_tenant`).
    pub fn total_blocks(&self) -> u64 {
        self.tenants * self.blocks_per_tenant
    }

    /// The single task allowed to write `block` (§4 discipline, by hash).
    pub fn writer_of_block(&self, block: BlockAddr) -> usize {
        (splitmix64(block.index()) % self.n_tasks as u64) as usize
    }

    /// The block a given user id maps to: tenant by one hash stream, the
    /// slot inside the tenant's working set by an independent one.
    pub fn block_of_user(&self, user: u64) -> BlockAddr {
        let tenant = splitmix64(user) % self.tenants;
        let slot = splitmix64(user ^ 0xC0FF_EE00_D15E_A5E5) % self.blocks_per_tenant;
        BlockAddr::new(self.block_base + tenant * self.blocks_per_tenant + slot)
    }

    /// Generates the trace.
    ///
    /// # Panics
    ///
    /// Panics if the placement cannot host the tasks (see
    /// [`Placement::assign`]).
    pub fn generate(self, n_procs: usize, rng: &mut SimRng) -> Trace {
        let mut trace = Trace::with_capacity(n_procs, self.references);
        let mut assignment = Vec::with_capacity(self.n_tasks);
        self.generate_into(rng, &mut trace, &mut assignment);
        trace
    }

    /// Allocation-free variant of [`generate`](Self::generate): clears and
    /// refills the caller's `trace` and task-assignment scratch vector,
    /// reusing both allocations. The reference stream is identical to
    /// [`generate`](Self::generate) for the same rng state.
    ///
    /// # Panics
    ///
    /// Panics if the placement cannot host the tasks (see
    /// [`Placement::assign`]).
    pub fn generate_into(&self, rng: &mut SimRng, trace: &mut Trace, assignment: &mut Vec<usize>) {
        let n_procs = trace.n_procs();
        assignment.clear();
        self.placement
            .assign_into(self.n_tasks, n_procs, rng, assignment);
        trace.clear();
        let zipf = ZipfSampler::new(self.users, self.theta);
        for _ in 0..self.references {
            let user = zipf.sample(rng);
            let block = self.block_of_user(user);
            let offset = rng.gen_range(0..self.spec.words_per_block());
            let addr = self.spec.word_at(block, offset);
            if rng.gen_bool(self.write_fraction) {
                trace.push(Reference {
                    proc: assignment[self.writer_of_block(block)],
                    addr,
                    op: Op::Write,
                });
            } else {
                let task = rng.gen_range(0..self.n_tasks);
                trace.push(Reference {
                    proc: assignment[task],
                    addr,
                    op: Op::Read,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_sampler_stays_in_range_and_skews_low() {
        let mut rng = SimRng::seed_from(2);
        let zipf = ZipfSampler::new(1_000_000, 0.99);
        let mut head = 0usize;
        const DRAWS: usize = 20_000;
        for _ in 0..DRAWS {
            let r = zipf.sample(&mut rng);
            assert!(r < 1_000_000);
            if r < 10_000 {
                head += 1;
            }
        }
        // Under θ=0.99 the top 1% of a 10^6 population draws the large
        // majority of references; uniform would give ~1%.
        let frac = head as f64 / DRAWS as f64;
        assert!(frac > 0.5, "top-1% share {frac} not Zipf-skewed");
    }

    #[test]
    fn theta_zero_is_roughly_uniform() {
        let mut rng = SimRng::seed_from(3);
        let zipf = ZipfSampler::new(1000, 0.0);
        let mut head = 0usize;
        const DRAWS: usize = 20_000;
        for _ in 0..DRAWS {
            if zipf.sample(&mut rng) < 100 {
                head += 1;
            }
        }
        let frac = head as f64 / DRAWS as f64;
        assert!((frac - 0.1).abs() < 0.03, "top-10% share {frac} under θ=0");
    }

    #[test]
    fn one_writer_per_block_holds() {
        let mut rng = SimRng::seed_from(11);
        let wl = MultiTenantZipfWorkload::new(8, 500_000, 0.5)
            .tenants(32)
            .blocks_per_tenant(64);
        let spec = wl.spec();
        let trace = wl.clone().references(5000).generate(8, &mut rng);
        use std::collections::HashMap;
        let mut writers: HashMap<u64, usize> = HashMap::new();
        for r in trace.iter().filter(|r| r.op == Op::Write) {
            let b = spec.block_of(r.addr).index();
            if let Some(prev) = writers.insert(b, r.proc) {
                assert_eq!(prev, r.proc, "block {b} written by two processors");
            }
        }
        assert!(!writers.is_empty());
    }

    #[test]
    fn footprint_stays_inside_the_tenant_grid() {
        let mut rng = SimRng::seed_from(7);
        let wl = MultiTenantZipfWorkload::new(4, 100_000, 0.3)
            .tenants(8)
            .blocks_per_tenant(16)
            .block_base(4096);
        let spec = wl.spec();
        let total = wl.total_blocks();
        let trace = wl.references(3000).generate(4, &mut rng);
        for r in trace.iter() {
            let b = spec.block_of(r.addr).index();
            assert!((4096..4096 + total).contains(&b), "block {b} off-grid");
        }
    }

    #[test]
    fn generate_into_matches_generate_and_reuses_buffers() {
        let wl = MultiTenantZipfWorkload::new(8, 250_000, 0.25).references(2000);
        let mut rng_a = SimRng::seed_from(21);
        let expect = wl.clone().generate(16, &mut rng_a);

        let mut rng_b = SimRng::seed_from(21);
        let mut trace = Trace::with_capacity(16, 2000);
        let mut assignment = Vec::new();
        wl.generate_into(&mut rng_b, &mut trace, &mut assignment);
        assert_eq!(
            trace.iter().collect::<Vec<_>>(),
            expect.iter().collect::<Vec<_>>()
        );

        // Re-generating reuses the same allocations and is deterministic.
        let mut rng_c = SimRng::seed_from(21);
        wl.generate_into(&mut rng_c, &mut trace, &mut assignment);
        assert_eq!(trace.len(), 2000);
    }

    #[test]
    fn hot_users_concentrate_traffic_on_few_blocks() {
        let mut rng = SimRng::seed_from(13);
        let wl = MultiTenantZipfWorkload::new(8, 2_000_000, 0.2)
            .tenants(128)
            .blocks_per_tenant(1024);
        let spec = wl.spec();
        let trace = wl.references(20_000).generate(8, &mut rng);
        use std::collections::HashMap;
        let mut counts: HashMap<u64, usize> = HashMap::new();
        for r in trace.iter() {
            *counts.entry(spec.block_of(r.addr).index()).or_default() += 1;
        }
        let mut by_count: Vec<usize> = counts.values().copied().collect();
        by_count.sort_unstable_by(|a, b| b.cmp(a));
        let top10: usize = by_count.iter().take(10).sum();
        // The footprint is 128×1024 = 131072 blocks, but Zipf users pile
        // onto a handful: the 10 hottest blocks carry well over 10% of all
        // references (uniform would give them ~0.008%).
        assert!(
            top10 * 10 > trace.len(),
            "hottest 10 blocks carry {top10}/{} refs",
            trace.len()
        );
    }
}
