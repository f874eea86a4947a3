//! Concurrent-execution extension experiment: machine throughput and mean
//! memory latency when processors issue references concurrently, with
//! per-link contention.
//!
//! The paper evaluates communication cost only; this command uses the
//! concurrent driver to show the *performance* face of the same trade-off:
//! distributed write buys local reads at the price of update bandwidth,
//! global read buys tiny state at the price of remote-read latency, and the
//! adaptive controller picks per write fraction.

use tmc_core::driver::{run_concurrent, DriverOp};
use tmc_core::{Mode, ModePolicy, System, SystemConfig};
use tmc_omeganet::TimingModel;
use tmc_simcore::SimRng;
use tmc_workload::{Op, Placement, SharedBlockWorkload};

use crate::Table;

const N_PROCS: usize = 16;
const N_TASKS: usize = 8;
const REFS: usize = 6_000;

fn streams_for(w: f64, seed: u64) -> Vec<Vec<DriverOp>> {
    let trace = SharedBlockWorkload::new(N_TASKS, 16, w)
        .references(REFS)
        .placement(Placement::Adjacent { base: 0 })
        .generate(N_PROCS, &mut SimRng::seed_from(seed));
    let mut streams: Vec<Vec<DriverOp>> = vec![Vec::new(); N_PROCS];
    let mut stamp = 1u64;
    for r in trace.iter() {
        let op = match r.op {
            Op::Read => DriverOp::Read(r.addr),
            Op::Write => {
                stamp += 1;
                DriverOp::Write(r.addr, stamp)
            }
        };
        streams[r.proc].push(op);
    }
    streams
}

pub fn run() {
    let mut t = Table::new(vec![
        "w".into(),
        "policy".into(),
        "refs/kcycle".into(),
        "mean mem latency (cy)".into(),
        "makespan (kcy)".into(),
    ]);
    for (i, &w) in [0.05f64, 0.2, 0.5].iter().enumerate() {
        let streams = streams_for(w, 300 + i as u64);
        for (policy, label) in [
            (ModePolicy::Fixed(Mode::DistributedWrite), "fixed DW"),
            (ModePolicy::Fixed(Mode::GlobalRead), "fixed GR"),
            (ModePolicy::Adaptive { window: 64 }, "adaptive"),
        ] {
            let mut sys = System::new(
                SystemConfig::new(N_PROCS)
                    .mode_policy(policy)
                    .timing(TimingModel::default()),
            )
            .expect("valid");
            let out = run_concurrent(&mut sys, &streams, 2).expect("streams fit");
            sys.check_invariants().expect("invariants hold");
            t.row(vec![
                format!("{w:.2}"),
                label.to_string(),
                format!("{:.1}", out.throughput_per_kcycle),
                format!("{:.2}", out.mean_latency()),
                format!("{:.1}", out.makespan_cycles as f64 / 1000.0),
            ]);
        }
    }
    t.print("Concurrent execution: throughput and latency (16 procs, 8 sharers)");
    println!(
        "Observation: under the LATENCY metric, distributed write wins over a\n\
         wider range of w than under the paper's traffic metric — an update\n\
         is a one-way multicast the writer fires and forgets, while every\n\
         global read is a synchronous round trip. The paper's w1 = 2/(n+2)\n\
         threshold optimizes bits, not cycles; a latency-oriented controller\n\
         would switch later. The adaptive column uses the traffic threshold\n\
         and therefore tracks GR earlier than the latency optimum."
    );
}
