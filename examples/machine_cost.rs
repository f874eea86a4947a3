//! What a machine costs before and after it runs: construction, drop and
//! the two whole-machine sweeps (`check_invariants`,
//! `protocol_fingerprint`) at N = 16 / 64 / 256 / 1024, each taken after
//! 2000 skewed references so the sweeps have resident state to walk. These
//! are the fixed costs every `tmc scenario check` pays several times per
//! scenario; docs/PERFORMANCE.md ("Fixed cost of a machine") records them.
//!
//! Run with: `cargo run --release --example machine_cost`

use std::hint::black_box;
use std::time::Instant;

use two_mode_coherence::protocol::{System, SystemConfig};
use two_mode_coherence::sim::SimRng;
use two_mode_coherence::workload::{MultiTenantZipfWorkload, Op};

const REFS: usize = 2000;
const REPS: usize = 7;

/// Fastest of `REPS` timings of `f`, in milliseconds.
fn best_ms<T>(mut f: impl FnMut() -> T) -> f64 {
    (0..REPS)
        .map(|_| {
            let t = Instant::now();
            let out = black_box(f());
            let ms = t.elapsed().as_secs_f64() * 1e3;
            drop(out); // after the clock stops: drop has its own column
            ms
        })
        .fold(f64::INFINITY, f64::min)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!(
        "{:>5} {:>10} {:>10} {:>9} {:>12} {:>12}",
        "N", "new cold", "new warm", "drop", "invariants", "fingerprint"
    );
    // Largest first: its first construction is the process's cold one.
    for n in [1024usize, 256, 64, 16] {
        let t = Instant::now();
        let mut sys = System::new(SystemConfig::new(n))?;
        let cold = t.elapsed().as_secs_f64() * 1e3;

        let trace = MultiTenantZipfWorkload::new(n, 500_000, 0.15)
            .tenants(64)
            .blocks_per_tenant(32)
            .references(REFS)
            .generate(n, &mut SimRng::seed_from(14));
        for r in trace.iter() {
            match r.op {
                Op::Read => drop(sys.read(r.proc, r.addr)?),
                Op::Write => sys.write(r.proc, r.addr, 1)?,
            }
        }
        let invariants = best_ms(|| sys.check_invariants());
        let fingerprint = best_ms(|| sys.protocol_fingerprint());
        let t = Instant::now();
        drop(sys);
        let dropped = t.elapsed().as_secs_f64() * 1e3;
        let warm = best_ms(|| System::new(SystemConfig::new(n)));
        println!(
            "{n:>5} {cold:>8.3}ms {warm:>8.3}ms {dropped:>7.3}ms {invariants:>10.3}ms {fingerprint:>10.3}ms"
        );
    }
    Ok(())
}
