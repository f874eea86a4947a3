//! `tmc sweep`: a parameterized experiment runner for scripting your own
//! sweeps.
//!
//! ```text
//! tmc sweep [PROTOCOL] [N_PROCS] [N_TASKS] [W] [REFS] [SEED]
//!   PROTOCOL  no-cache | dir | update | dw | gr | adaptive | all (default: all)
//!   N_PROCS   power of two in 2..=65536 (default 16)
//!   N_TASKS   sharing tasks, 1..=N_PROCS (default 8)
//!   W         write fraction 0..=1 (default 0.2)
//!   REFS      references (default 20000)
//!   SEED      RNG seed (default 1)
//! ```
//!
//! Output is CSV on stdout: `protocol,n_procs,n_tasks,w,refs,bits_per_ref,msgs`.

use tmc_simcore::SimRng;
use tmc_workload::{Placement, SharedBlockWorkload};

use crate::args::{Args, CliError};
use crate::{build_protocol, drive, PROTOCOLS};

const USAGE: &str =
    "usage: tmc sweep [no-cache|dir|update|dw|gr|adaptive|all] [N_PROCS] [N_TASKS] [W] [REFS] [SEED]";

/// Runs `tmc sweep`.
///
/// # Errors
///
/// A usage error for an unknown protocol or an out-of-range parameter.
pub fn run(mut args: Args) -> Result<(), CliError> {
    let protocol: String = args.positional("PROTOCOL")?.unwrap_or_else(|| "all".into());
    let n_procs: usize = args.positional("N_PROCS")?.unwrap_or(16);
    let n_tasks: usize = args.positional("N_TASKS")?.unwrap_or(8);
    let w: f64 = args.positional("W")?.unwrap_or(0.2);
    let refs: usize = args.positional("REFS")?.unwrap_or(20_000);
    let seed: u64 = args.positional("SEED")?.unwrap_or(1);
    args.finish()?;
    let names: Vec<&str> = match protocol.as_str() {
        "all" => PROTOCOLS.to_vec(),
        p if PROTOCOLS.contains(&p) => vec![p],
        _ => return Err(CliError::Usage(USAGE.into())),
    };
    if !n_procs.is_power_of_two()
        || !(2..=65536).contains(&n_procs)
        || !(1..=n_procs).contains(&n_tasks)
        || !(0.0..=1.0).contains(&w)
    {
        return Err(CliError::Usage(USAGE.into()));
    }

    println!("protocol,n_procs,n_tasks,w,refs,bits_per_ref,msgs");
    for name in names {
        let mut sys = build_protocol(name, n_procs).expect("known protocol");
        let trace = SharedBlockWorkload::new(n_tasks, 2 * n_tasks as u64, w)
            .references(refs)
            .placement(Placement::Adjacent { base: 0 })
            .generate(n_procs, &mut SimRng::seed_from(seed));
        let report = drive(sys.as_mut(), &trace);
        println!(
            "{name},{n_procs},{n_tasks},{w},{refs},{:.2},{}",
            report.bits_per_ref,
            sys.counters().get("msgs_total")
        );
    }
    Ok(())
}
