//! `tmc paper <name>`: every table and figure of the paper, plus the
//! extension experiments, each printed to stdout.
//!
//! ```text
//! tmc paper <name> [--threads N]          one output; N sweep workers
//! ```
//!
//! Output is identical for every `--threads` value except the thread
//! count `sim-fig8` prints in its header.

use crate::args::{Args, CliError};
use crate::sweep;

mod ablation;
mod fig3;
mod fig5;
mod fig6;
mod fig7;
mod fig8;
mod migration;
mod radix_sweep;
mod regime_map;
mod sim_fig8;
mod state_memory;
mod table1;
mod table2;
mod table3;
mod table4;

/// Every `tmc paper` name, in listing order.
pub const NAMES: [&str; 15] = [
    "fig3",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "sim-fig8",
    "table1",
    "table2",
    "table3",
    "table4",
    "radix-sweep",
    "regime-map",
    "ablation",
    "migration",
    "state-memory",
];

/// Runs `tmc paper`.
///
/// # Errors
///
/// A usage error for a missing or unknown name or a bad flag.
pub fn run(mut args: Args) -> Result<(), CliError> {
    let threads = sweep::threads(&mut args)?;
    let name: Option<String> = args.positional("name")?;
    args.finish()?;
    let usage = || CliError::Usage(format!("usage: tmc paper <{}>", NAMES.join("|")));
    let name = name.ok_or_else(usage)?;
    match name.as_str() {
        "fig3" => fig3::run(),
        "fig5" => fig5::run(threads),
        "fig6" => fig6::run(threads),
        "fig7" => fig7::run(threads),
        "fig8" => fig8::run(threads),
        "sim-fig8" => sim_fig8::run(threads),
        "table1" => table1::run(),
        "table2" => table2::run(),
        "table3" => table3::run(),
        "table4" => table4::run(),
        "radix-sweep" => radix_sweep::run(threads),
        "regime-map" => regime_map::run(threads),
        "ablation" => ablation::run(threads),
        "migration" => migration::run(threads),
        "state-memory" => state_memory::run(),
        _ => return Err(usage()),
    }
    Ok(())
}
