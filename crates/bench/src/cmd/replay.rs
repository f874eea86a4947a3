//! `tmc replay`: replays a saved text trace (see
//! `tmc_workload::format_trace`) through a chosen protocol — or through
//! *all* of them in parallel on [`crate::sweep`] — and reports traffic and
//! counters.
//!
//! ```text
//! tmc replay TRACE_FILE [PROTOCOL] [--trace-out FILE]
//! tmc replay TRACE_FILE all [--threads N]
//!   PROTOCOL  no-cache | dir | update | dw | gr | adaptive | all
//!             (default: adaptive; `all` compares every protocol)
//! ```
//!
//! With `--trace-out FILE` and a two-mode protocol (`dw`, `gr` or
//! `adaptive`), the run is additionally captured as a replayable JSONL
//! protocol trace (check it with `tmc trace check FILE`).

use std::path::{Path, PathBuf};

use tmc_core::{ModePolicy, SystemConfig};
use tmc_workload::{parse_trace, Trace};

use crate::args::{Args, CliError};
use crate::{build_protocol, drive, script, sweep, tracecheck, two_mode_policy, Table, PROTOCOLS};

const USAGE: &str = "usage: tmc replay TRACE_FILE [no-cache|dir|update|dw|gr|adaptive|all] \
                     [--threads N] [--trace-out FILE]";

/// Runs `tmc replay`.
///
/// # Errors
///
/// A usage error for bad arguments; a failure when the trace cannot be
/// read or parsed, or the protocol trace cannot be written.
pub fn run(mut args: Args) -> Result<(), CliError> {
    let threads = sweep::threads(&mut args)?;
    let trace_out: Option<PathBuf> = args.value("--trace-out")?;
    let path: Option<String> = args.positional("trace file")?;
    let protocol: String = args
        .positional("protocol")?
        .unwrap_or_else(|| "adaptive".into());
    args.finish()?;
    let path = path.ok_or(CliError::Usage(USAGE.into()))?;
    let all = protocol == "all";
    if !all && !PROTOCOLS.contains(&protocol.as_str()) {
        return Err(CliError::Usage(format!(
            "unknown protocol {protocol}\n{USAGE}"
        )));
    }
    let policy = two_mode_policy(&protocol);
    if trace_out.is_some() && policy.is_none() {
        return Err(CliError::Usage(
            "--trace-out captures a two-mode protocol only (dw|gr|adaptive)".into(),
        ));
    }

    let text = std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let trace = parse_trace(&text).map_err(|e| format!("cannot parse {path}: {e}"))?;
    let n_procs = trace.n_procs().next_power_of_two().max(2);
    // Every protocol runs the default block geometry, so one check covers
    // them all before any runs.
    let cfg = SystemConfig::new(n_procs);
    if let Some((i, e)) = trace
        .iter()
        .enumerate()
        .find_map(|(i, r)| cfg.block_of(r.addr).err().map(|e| (i, e)))
    {
        return Err(format!("cannot replay {path}: reference {i}: {e}").into());
    }

    println!("trace      : {path}");
    println!("references : {}", trace.len());
    println!("write frac : {:.3}", trace.write_fraction());

    if all {
        replay_all(&trace, n_procs, threads);
        return Ok(());
    }
    let mut sys = build_protocol(&protocol, n_procs).expect("known protocol");
    let report = drive(sys.as_mut(), &trace);
    println!("protocol   : {}", sys.name());
    println!(
        "traffic    : {} bits ({:.2} bits/ref)",
        report.total_bits, report.bits_per_ref
    );
    println!("\ncounters:\n{}", sys.counters());
    if let (Some(out), Some(policy)) = (trace_out, policy) {
        save_protocol_trace(&out, policy, &trace, n_procs)?;
    }
    Ok(())
}

fn replay_all(trace: &Trace, n_procs: usize, threads: usize) {
    let rows = sweep::map(threads, PROTOCOLS.to_vec(), |p| {
        let mut sys = build_protocol(p, n_procs).expect("known protocol");
        let report = drive(sys.as_mut(), trace);
        (sys.name().to_string(), report)
    });
    let mut t = Table::new(vec![
        "protocol".into(),
        "total bits".into(),
        "bits/ref".into(),
    ]);
    for (name, report) in rows {
        t.row(vec![
            name,
            report.total_bits.to_string(),
            format!("{:.2}", report.bits_per_ref),
        ]);
    }
    t.print("Replay: all protocols");
}

/// Re-runs the trace on an identically configured `System` with tracing
/// on and saves the replayable JSONL protocol trace to `out`.
fn save_protocol_trace(
    out: &Path,
    policy: ModePolicy,
    trace: &Trace,
    n_procs: usize,
) -> Result<(), String> {
    let cfg = SystemConfig::new(n_procs).mode_policy(policy);
    let text = tracecheck::capture(cfg, |sys| {
        script::apply_script(sys, &script::from_trace(trace));
    })?;
    std::fs::write(out, &text).map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    println!(
        "protocol trace written to {} (verify with tmc trace check)",
        out.display()
    );
    Ok(())
}
