//! Latency extension experiment (not in the paper, which counts bits only):
//! store-and-forward delivery times with per-link contention.
//!
//! Two measurements, both fanned out on [`crate::sweep`] (each
//! destination count and each protocol mode is an independent cell):
//! 1. raw network: time for the *last* destination of one multicast to
//!    receive the message, per scheme — scheme 1 re-serializes the shared
//!    early links, scheme 2 crosses each link once;
//! 2. whole protocol: per-transaction latency distribution of the two-mode
//!    protocol under the timing model.

use tmc_core::{Mode, ModePolicy, System, SystemConfig};
use tmc_omeganet::{DestSet, LinkSchedule, Omega, SchemeChoice, TimingModel};
use tmc_simcore::{SimRng, SimTime};
use tmc_workload::{Op, Placement, SharedBlockWorkload};

use crate::{sweep, Table};

pub fn run(threads: usize) {
    // --- 1. Raw multicast delivery time under contention. ---
    let net = Omega::new(6).expect("N = 64");
    let model = TimingModel::default();
    let mut t = Table::new(vec![
        "destinations".into(),
        "scheme 1 (cycles)".into(),
        "scheme 2 (cycles)".into(),
        "speedup".into(),
    ]);
    let rows = sweep::map(threads, vec![2u32, 3, 4, 5, 6], |k| {
        let n = 1usize << k;
        let dests = DestSet::worst_case_spread(64, n).expect("valid");
        let last = |scheme: SchemeChoice| {
            let mut sched = LinkSchedule::new(&net);
            sched
                .timed_multicast(&net, model, scheme, 0, &dests, 128, SimTime::ZERO)
                .expect("valid")
                .into_iter()
                .map(|(_, at)| at.cycles())
                .max()
                .expect("nonempty")
        };
        (
            n,
            last(SchemeChoice::Replicated),
            last(SchemeChoice::BitVector),
        )
    });
    for (n, s1, s2) in rows {
        t.row(vec![
            n.to_string(),
            s1.to_string(),
            s2.to_string(),
            format!("{:.2}x", s1 as f64 / s2 as f64),
        ]);
    }
    t.print("Multicast completion time (last delivery), N=64, 128-bit payload");

    // --- 2. Protocol transaction latency distribution. ---
    let mut table = Table::new(vec![
        "mode".into(),
        "mean (cycles)".into(),
        "p50 bucket".into(),
        "p99 bucket".into(),
        "max bucket".into(),
    ]);
    let modes = vec![
        (Mode::DistributedWrite, "distributed write"),
        (Mode::GlobalRead, "global read"),
    ];
    let rows = sweep::map(threads, modes, |(mode, label)| {
        let mut sys = System::new(
            SystemConfig::new(16)
                .mode_policy(ModePolicy::Fixed(mode))
                .timing(model),
        )
        .expect("valid");
        let trace = SharedBlockWorkload::new(8, 16, 0.2)
            .references(8_000)
            .placement(Placement::Adjacent { base: 0 })
            .generate(16, &mut SimRng::seed_from(12));
        let mut stamp = 1;
        for r in trace.iter() {
            match r.op {
                Op::Read => {
                    sys.read(r.proc, r.addr).expect("valid");
                }
                Op::Write => {
                    sys.write(r.proc, r.addr, stamp).expect("valid");
                    stamp += 1;
                }
            }
        }
        let h = sys.latencies();
        vec![
            label.to_string(),
            format!("{:.1}", h.mean()),
            h.quantile_bucket_low(0.5).unwrap_or(0).to_string(),
            h.quantile_bucket_low(0.99).unwrap_or(0).to_string(),
            h.quantile_bucket_low(1.0).unwrap_or(0).to_string(),
        ]
    });
    for row in rows {
        table.row(row);
    }
    table.print("Two-mode protocol transaction latency (timing model, w=0.2)");
    println!(
        "Reading the bucket columns: values are power-of-two bucket lower\n\
         bounds (0 = local hit). DW mode's tail comes from update multicasts;\n\
         GR mode trades cache hits for short two-message datum fetches."
    );
}
