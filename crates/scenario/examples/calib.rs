//! Calibration probe behind `ANALYTIC_BAND_LO`/`ANALYTIC_BAND_HI` in
//! `src/pairs.rs`: prints measured-vs-predicted bits/ref ratios for both
//! fixed modes across an N × n × w × scheme grid, rebuilding the
//! sim-vs-analytic pair's prediction math. Observed ratios fall in
//! [0.92, 1.04]; the pair's band is set at [0.8, 1.25].
//!
//! ```text
//! cargo run --release -p tmc-scenario --example calib
//! ```

use tmc_bench::script::{apply, from_trace};
use tmc_core::{Mode, ModePolicy, System, SystemConfig};
use tmc_memsys::MsgSizing;
use tmc_omeganet::{DestSet, Omega, SchemeKind};
use tmc_simcore::SimRng;
use tmc_workload::{Placement, SharedBlockWorkload};

fn main() {
    let sizing = MsgSizing::default();
    for &big_n in &[4usize, 8, 16] {
        for &n in &[2usize, 4, 8] {
            if n > big_n {
                continue;
            }
            for &w in &[0.05f64, 0.1, 0.2, 0.3, 0.5, 0.7] {
                for &scheme in &[SchemeKind::Replicated, SchemeKind::Combined] {
                    let warmup = 1000;
                    let refs = 4000;
                    let trace = SharedBlockWorkload::new(n, 2 * n as u64, w)
                        .references(warmup + refs)
                        .placement(Placement::Adjacent { base: 0 })
                        .generate(big_n, &mut SimRng::seed_from(42));
                    let script = from_trace(&trace);
                    let measure = |mode: Mode| -> f64 {
                        let cfg = SystemConfig::new(big_n)
                            .multicast(scheme)
                            .mode_policy(ModePolicy::Fixed(mode));
                        let mut sys = System::new(cfg).unwrap();
                        let mut base = 0u64;
                        for (i, op) in script.iter().enumerate() {
                            if i == warmup {
                                base = sys.traffic().total_bits();
                            }
                            apply(&mut sys, op).unwrap();
                        }
                        (sys.traffic().total_bits() - base) as f64 / refs as f64
                    };
                    let mdw = measure(Mode::DistributedWrite);
                    let mgr = measure(Mode::GlobalRead);
                    let net = Omega::with_ports(big_n).unwrap();
                    let mut cc4_sum = 0u64;
                    for writer in 0..n {
                        let dests =
                            DestSet::from_ports(big_n, (0..n).filter(|&p| p != writer)).unwrap();
                        cc4_sum += net
                            .multicast_cost(scheme, &dests, sizing.update_bits())
                            .unwrap();
                    }
                    let cc4 = cc4_sum as f64 / n as f64;
                    let pdw = w * cc4;
                    let single = |bits: u64| -> f64 {
                        let dests = DestSet::from_ports(big_n, [1usize]).unwrap();
                        net.multicast_cost(SchemeKind::Replicated, &dests, bits)
                            .unwrap() as f64
                    };
                    let rr = single(sizing.request_bits()) + single(sizing.datum_bits());
                    let pgr = (1.0 - w) * ((n - 1) as f64 / n as f64) * rr;
                    println!(
                        "N={big_n:2} n={n} w={w:.2} {scheme:?}: DW {mdw:8.1}/{pdw:8.1} = {:5.2}  \
                         GR {mgr:8.1}/{pgr:8.1} = {:5.2}",
                        mdw / pdw.max(0.001),
                        mgr / pgr.max(0.001)
                    );
                }
            }
        }
    }
}
