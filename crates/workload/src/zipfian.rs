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
//!
//! # The Zipf normaliser
//!
//! [`ZipfSampler`] needs `ζ(n, θ) = Σ_{i=1..n} i^−θ` to the last bit: its
//! `sample` raises a ζ-derived base to the power `1/(1−θ)` (100 at
//! `θ = 0.99`), so one ulp of drift moves ranks, and with them every
//! generated stream. The reference value is the left fold
//! `(1..=n).map(|i| 1.0 / (i as f64).powf(θ)).sum()`, one `powf` per user.
//! The sampler returns exactly that `f64` while calling `powf` far less:
//!
//! - **Head.** Terms `1..=4096` are folded exactly as the fold does.
//! - **Anchors.** From `a = 4097` on, the exact term `T_a` is folded, and
//!   each of the next `a >> 11` terms `j = a + k` is approximated as
//!   `t = T_a · P(k/a)`, where `P` is the degree-5 Taylor polynomial of
//!   `(1+x)^−θ` (coefficients `|c_m| ≤ 1`, `x ≤ 2⁻¹¹`, truncation error
//!   `≤ 2⁻⁶⁶`), evaluated with plain `*` and `+` (`mul_add` is a libm call
//!   on the default x86-64 target). The next anchor is `a + (a >> 11) + 1`.
//! - **Certificate.** With `e = t · 2⁻⁴⁰`, if `acc + (t − e)` and
//!   `acc + (t + e)` round to the same `f64`, that is the sum the fold
//!   produces: round-to-nearest addition is monotone in the addend, and
//!   the fold's term lies in `[t − e, t + e]`. Otherwise the exact term
//!   is computed and folded. Terms are folded strictly in order `1..=n`.
//!
//! Error budget. The fold's term `1/powf(j, θ)` is within 1.5 ulp of
//! `j^−θ` (`powf` ≤ 1 ulp, glibc documents < 0.52, plus the division).
//! `t` is within `2⁻⁴⁹` relative of `j^−θ` (anchor term, `1/a`, Horner and
//! the final product). So the two differ by less than `t · 2⁻⁴⁸`
//! (`ZETA_TERM_ERROR`), and the certificate's margin is 256 times that.
//!
//! At `n = 10⁶, θ = 0.99` this takes ≈ 20.7 k `powf` calls (4 096 head,
//! 10 794 anchors, 5 818 undecided terms) instead of 10⁶; unit tests bound
//! the count and check the bit equality with the fold.

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

/// Terms `1..=ZETA_HEAD` of ζ are folded exactly, one `powf` each.
const ZETA_HEAD: u64 = 4096;

/// An anchor `a` approximates the next `a >> ZETA_SPAN_SHIFT` terms, so the
/// Taylor argument `k/a` stays `≤ 2⁻¹¹`.
const ZETA_SPAN_SHIFT: u32 = 11;

/// Bound on `|t − T_j| / t` between an approximated term `t` and the
/// fold's exact term `T_j`: `2⁻⁴⁸` (the error budget in the module docs).
const ZETA_TERM_ERROR: f64 = 1.0 / (1u64 << 48) as f64;

/// Relative half-width of the certificate's interval, `2⁻⁴⁰`: 256 times
/// [`ZETA_TERM_ERROR`], and a power of two, so `t · ZETA_MARGIN` is exact.
const ZETA_MARGIN: f64 = 256.0 * ZETA_TERM_ERROR;

/// The exact `i`-th term of ζ, as the reference fold computes it.
#[inline]
fn zeta_term(i: u64, theta: f64) -> f64 {
    1.0 / (i as f64).powf(theta)
}

/// Rejection-free Zipfian rank sampler (the YCSB construction): draws rank
/// `r ∈ 0..n` with `P(r) ∝ 1/(r+1)^θ` using one uniform variate and a
/// handful of floating-point ops — no tables, no allocation.
///
/// [`ZipfSampler::new`] computes the normaliser `ζ(n, θ) = Σ_{i≤n} i^−θ`
/// as an anchored series: it still folds every term in order, but calls
/// `powf` for only ≈ 2 % of them at `n = 10⁶` (the first 4 096, one anchor
/// per `a/2048` terms after that, and the few a rounding certificate
/// cannot decide), and its result is bit-identical to the plain fold. See
/// the [module docs](self#the-zipf-normaliser). Sampling is `O(1)`.
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
        let zetan = Self::zeta(n, theta).0;
        let zeta2 = Self::zeta(n.min(2), theta).0;
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

    /// Generalized harmonic number `Σ_{i=1..n} 1/i^θ`, bit-identical to the
    /// left fold of [`zeta_term`] over `1..=n`, and the number of terms it
    /// computed exactly (with `powf`). The anchored series of the
    /// [module docs](self#the-zipf-normaliser).
    fn zeta(n: u64, theta: f64) -> (f64, u64) {
        // `Sum` for floats starts at −0.0; so does the fold this matches.
        let mut acc = -0.0;
        let head = n.min(ZETA_HEAD);
        for i in 1..=head {
            acc += zeta_term(i, theta);
        }
        let mut exact = head;
        // Taylor coefficients of (1+x)^−θ: c₀ = 1, c_m = c_{m−1}·(−θ−m+1)/m.
        let mut c = [1.0f64; 6];
        for m in 1..c.len() {
            c[m] = c[m - 1] * (-theta - m as f64 + 1.0) / m as f64;
        }
        let [_, c1, c2, c3, c4, c5] = c;
        let mut a = ZETA_HEAD + 1;
        while a <= n {
            let t_a = zeta_term(a, theta);
            acc += t_a;
            exact += 1;
            let inv_a = 1.0 / a as f64;
            let last = a.saturating_add(a >> ZETA_SPAN_SHIFT).min(n);
            // `k` as an f64 counter: exact below 2⁵³, and cheaper than a
            // u64 → f64 conversion per term.
            let mut kf = 0.0;
            for k in 1..=last - a {
                kf += 1.0;
                let x = kf * inv_a;
                let t = t_a * (1.0 + x * (c1 + x * (c2 + x * (c3 + x * (c4 + x * c5)))));
                let e = t * ZETA_MARGIN;
                let lo = acc + (t - e);
                if lo == acc + (t + e) {
                    acc = lo;
                } else {
                    acc += zeta_term(a + k, theta);
                    exact += 1;
                }
            }
            if last == n {
                break;
            }
            a = last + 1;
        }
        (acc, exact)
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

    /// The reference ζ: one `powf` per term, folded left from −0.0.
    fn fold_zeta(n: u64, theta: f64) -> f64 {
        (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum()
    }

    fn assert_zeta_exact(n: u64, theta: f64) {
        let got = ZipfSampler::zeta(n, theta).0;
        let want = fold_zeta(n, theta);
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "ζ({n}, {theta}) = {got:e}, fold gives {want:e}"
        );
    }

    /// Populations near the head/anchor seams and the ends of θ's range.
    const EDGE_N: [u64; 8] = [1, 2, 3, 4095, 4096, 4097, 4098, 100_000];
    const EDGE_THETA: [f64; 6] = [0.0, 1e-9, 0.5, 0.9, 0.99, 1.0 - 1.0 / (1u64 << 20) as f64];

    #[test]
    fn zeta_matches_the_fold_on_the_corpus_and_default_populations() {
        // The corpus's Zipf scenarios, then the default-θ populations tests
        // and benches build.
        for (n, theta) in [(1_000_000, 0.99), (500_000, 0.99), (500_000, 0.9)] {
            assert_zeta_exact(n, theta);
        }
        for n in [1 << 16, 1 << 20, 1_000_000, 2_000_000] {
            assert_zeta_exact(n, 0.99);
        }
    }

    #[test]
    fn zeta_matches_the_fold_on_the_edge_grid() {
        for n in EDGE_N {
            for theta in EDGE_THETA {
                assert_zeta_exact(n, theta);
            }
        }
    }

    #[test]
    fn zeta_calls_powf_for_a_few_percent_of_a_million_terms() {
        let (_, exact) = ZipfSampler::zeta(1_000_000, 0.99);
        assert!(
            exact <= 25_000,
            "ζ(10⁶, 0.99) computed {exact} terms with powf"
        );
        // Below the head every term is exact.
        assert_eq!(ZipfSampler::zeta(ZETA_HEAD, 0.99).1, ZETA_HEAD);
    }

    /// Seeded sweep: ≥ 2 000 pairs, `n` log-uniform in `1..=2²¹`, θ uniform
    /// in `[0, 1)`, plus the edge grid. Slow in a debug build; CI runs it in
    /// release.
    #[test]
    #[ignore]
    fn zeta_matches_the_fold_on_a_seeded_sweep() {
        let mut rng = SimRng::seed_from(0x5a_e7a);
        for _ in 0..2_000 {
            let n = (2f64.powf(21.0 * rng.gen_unit()) as u64).max(1);
            let theta = rng.gen_unit();
            assert_zeta_exact(n, theta);
        }
        for theta in EDGE_THETA {
            assert_zeta_exact(1 << 21, theta);
        }
    }

    /// FNV-1a over each reference's processor, word address and op.
    fn stream_digest(trace: &Trace) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for r in trace.iter() {
            let op = match r.op {
                Op::Read => 0u8,
                Op::Write => 1,
            };
            let bytes = (r.proc as u64)
                .to_le_bytes()
                .into_iter()
                .chain(r.addr.value().to_le_bytes())
                .chain([op]);
            for b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }

    #[test]
    fn zipf_streams_are_pinned() {
        // Shapes of `zipf-1m-users` and `zipf-bign-256`, 10 000 references.
        let a = MultiTenantZipfWorkload::new(16, 1_000_000, 0.2)
            .theta(0.99)
            .tenants(16)
            .blocks_per_tenant(64)
            .references(10_000)
            .generate(16, &mut SimRng::seed_from(12));
        assert_eq!(stream_digest(&a), 0x914a_98b6_bc61_c0c1);
        let b = MultiTenantZipfWorkload::new(256, 500_000, 0.2)
            .theta(0.9)
            .tenants(32)
            .blocks_per_tenant(32)
            .references(10_000)
            .generate(256, &mut SimRng::seed_from(13));
        assert_eq!(stream_digest(&b), 0x805c_55fc_a0a0_1a56);
    }

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
