//! Calibration probe behind `ADAPTIVE_FACTOR`/`ADAPTIVE_SLACK_BITS` in
//! `src/pairs.rs`: replays generated adaptive cases against both fixed
//! modes and prints the worst adaptive/best-fixed traffic ratio and the
//! largest absolute excess over `2 × best`. Observed over 4000 seeds:
//! worst ratio ≈ 4.3, max excess over 2× ≈ 20k bits — hence the pair's
//! `2.0 × best + 64_000` bound.
//!
//! ```text
//! cargo run --release -p tmc-scenario --example calib_adaptive
//! ```

use tmc_core::{Mode, ModePolicy};
use tmc_scenario::gen::generate_case;
use tmc_scenario::ops::materialize;
use tmc_scenario::Machine;

fn main() {
    let mut worst = 0.0f64;
    let mut worst_seed = 0;
    let mut worst_abs = 0u64;
    let mut worst_abs_seed = 0u64;
    let mut max_excess = 0u64;
    for seed in 0..4000u64 {
        let case = generate_case(seed);
        let m = &case.machine;
        if !matches!(m.policy, ModePolicy::Adaptive { .. }) {
            continue;
        }
        let ops = materialize(&case);
        let run = |policy: ModePolicy| {
            tmc_scenario::outcome::run_serial(Machine { policy, ..*m }.config(), &ops, false)
                .unwrap()
                .total_bits
        };
        let a = run(m.policy);
        let best = run(ModePolicy::Fixed(Mode::DistributedWrite))
            .min(run(ModePolicy::Fixed(Mode::GlobalRead)));
        let ratio = a as f64 / best.max(1) as f64;
        let excess = a.saturating_sub(2 * best);
        if excess > max_excess {
            max_excess = excess;
            worst_abs_seed = seed;
        }
        if ratio > worst {
            worst = ratio;
            worst_seed = seed;
            worst_abs = a.saturating_sub(best);
        }
    }
    println!(
        "worst ratio: {worst:.3} (seed {worst_seed}, excess-at-worst {worst_abs}); \
         max excess over 2x best: {max_excess} bits (seed {worst_abs_seed})"
    );
}
