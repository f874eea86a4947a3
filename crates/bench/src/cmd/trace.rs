//! `tmc trace`: captures a structured protocol trace, replays it against a
//! fresh system, and verifies every trailer obligation — the top layer of
//! the test pyramid (`docs/TESTING.md`), runnable standalone.
//!
//! ```text
//! tmc trace roundtrip [SEED]     capture + replay in memory
//! tmc trace capture FILE [SEED]  write a JSONL trace to FILE, then replay it
//! tmc trace check FILE           replay + verify a saved trace
//! ```
//!
//! The canonical run is the §4 sharing workload (8 tasks, 16 blocks,
//! w = 0.3) on a 16-processor machine under the §5 adaptive policy, with
//! software mode directives sprinkled in so every replayable event kind
//! appears. The replay re-executes reads/writes/mode directives, checks
//! read values against the [`tmc_memsys::ReferenceMemory`] oracle, and
//! asserts the regenerated event stream, protocol-fingerprint hash, total
//! link bits and per-link charges all match the recorded trace. The report
//! is the trace header, its trailer, and the replayed machine's counters.
//! The trace is parsed once: one that does not parse, or whose header names
//! no buildable machine, is a `malformed trace` before anything runs, and
//! `replay FAILED` names a replay that diverged.

use tmc_core::{Mode, ModePolicy, System, SystemConfig};
use tmc_memsys::WordAddr;
use tmc_simcore::SimRng;
use tmc_workload::{Placement, SharedBlockWorkload};

use crate::args::{Args, CliError};
use crate::{script, tracecheck};

const N_PROCS: usize = 16;
const N_TASKS: usize = 8;
const N_BLOCKS: u64 = 16;
const REFS: usize = 4_000;
const DEFAULT_SEED: u64 = 1989;

const USAGE: &str = "usage: tmc trace [roundtrip [SEED] | capture FILE [SEED] | check FILE]";

fn canonical_drive(sys: &mut System, seed: u64) {
    let trace = SharedBlockWorkload::new(N_TASKS, N_BLOCKS, 0.3)
        .references(REFS)
        .placement(Placement::Adjacent { base: 0 })
        .generate(N_PROCS, &mut SimRng::seed_from(seed));
    // Software directives up front (§2.2 ops 6/7) so SetMode replays too.
    sys.set_mode(0, WordAddr::new(0), Mode::DistributedWrite)
        .expect("valid proc");
    sys.set_mode(1, WordAddr::new(4), Mode::GlobalRead)
        .expect("valid proc");
    script::apply_script(sys, &script::from_trace(&trace));
}

fn capture(seed: u64) -> String {
    let cfg = SystemConfig::new(N_PROCS).mode_policy(ModePolicy::Adaptive { window: 64 });
    tracecheck::capture(cfg, |sys| canonical_drive(sys, seed))
        .expect("canonical config is capturable")
}

/// Runs `tmc trace`.
///
/// # Errors
///
/// A usage error for bad arguments; a failure when the trace cannot be
/// read, written or parsed (a header naming no buildable machine
/// included), or its replay diverges.
pub fn run(mut args: Args) -> Result<(), CliError> {
    let mode: String = args
        .positional("mode")?
        .unwrap_or_else(|| "roundtrip".into());
    let (trace, wrote) = match mode.as_str() {
        "roundtrip" => {
            let seed = args.positional("SEED")?.unwrap_or(DEFAULT_SEED);
            args.finish()?;
            (capture(seed), None)
        }
        "capture" => {
            let path: String = args
                .positional("FILE")?
                .ok_or(CliError::Usage(USAGE.into()))?;
            let seed = args.positional("SEED")?.unwrap_or(DEFAULT_SEED);
            args.finish()?;
            let trace = capture(seed);
            std::fs::write(&path, &trace).map_err(|e| format!("cannot write {path}: {e}"))?;
            (trace, Some(path))
        }
        "check" => {
            let path: String = args
                .positional("FILE")?
                .ok_or(CliError::Usage(USAGE.into()))?;
            args.finish()?;
            let trace =
                std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
            (trace, None)
        }
        other => return Err(CliError::Usage(format!("unknown mode '{other}'\n{USAGE}"))),
    };

    let parsed = tracecheck::parse(&trace).map_err(|e| format!("malformed trace: {e}"))?;
    let (header, trailer) = (&parsed.header, &parsed.trailer);
    println!(
        "trace      : v{} {}p {}x{} cache, scheme={}, policy={}, bypass={}",
        header.version,
        header.n_procs,
        header.sets,
        header.ways,
        header.scheme,
        header.policy,
        header.owner_bypass
    );
    println!(
        "trailer    : {} events, fingerprint {:#018x}, {} bits over {} links",
        trailer.events,
        trailer.fingerprint,
        trailer.total_bits,
        trailer.links.len()
    );
    if let Some(path) = wrote {
        println!("wrote      : {path}");
    }
    let report = tracecheck::replay(&parsed).map_err(|e| format!("replay FAILED: {e}"))?;
    println!("\ncounters:\n{}\n", report.counters);
    println!("replay OK  : {report}");
    Ok(())
}
