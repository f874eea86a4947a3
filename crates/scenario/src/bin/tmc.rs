//! `tmc`: the one command-line entry point of the workspace. It picks the
//! subcommand and hands the remaining arguments to that command's
//! function; every command parses them with `tmc_bench::args::Args`.
//!
//! Exit codes: 0 = OK, 1 = a check failed, 2 = usage.

use std::process::ExitCode;

use tmc_bench::args::{Args, CliError};
use tmc_bench::{cmd, paper};
use tmc_scenario::cli;

fn usage() -> String {
    format!(
        "usage: tmc <subcommand> [arguments]\n\
         \n\
         \x20 paper <{}> [--threads N]\n\
         \x20 scenario <list|run|check|pin> [--all | <name>...] [--dir D] ...\n\
         \x20 fuzz (--smoke | --budget N | --corpus DIR) [--seed S] [--bign] [--corpus-out DIR]\n\
         \x20 chaos [--smoke]\n\
         \x20 crashsim [--smoke]\n\
         \x20 trace [roundtrip [SEED] | capture FILE [SEED] | check FILE]\n\
         \x20 replay TRACE_FILE [PROTOCOL|all] [--threads N] [--trace-out FILE]\n\
         \x20 sweep [PROTOCOL|all] [N_PROCS] [N_TASKS] [W] [REFS] [SEED]\n\
         \n\
         exit codes: 0 = OK, 1 = a check failed, 2 = usage\n",
        paper::NAMES.join("|")
    )
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1);
    let command = argv.next();
    let args = Args::new(argv);
    let result = match command.as_deref() {
        Some("paper") => paper::run(args),
        Some("scenario") => cli::scenario(args),
        Some("fuzz") => cli::fuzz(args),
        Some("chaos") => cmd::chaos::run(args),
        Some("crashsim") => cmd::crashsim::run(args),
        Some("trace") => cmd::trace::run(args),
        Some("replay") => cmd::replay::run(args),
        Some("sweep") => cmd::sweep::run(args),
        Some("help" | "--help" | "-h") => {
            print!("{}", usage());
            return ExitCode::SUCCESS;
        }
        Some(other) => Err(CliError::Usage(format!(
            "unknown subcommand `{other}`\n{}",
            usage()
        ))),
        None => Err(CliError::Usage(usage())),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(e.exit_code())
        }
    }
}
