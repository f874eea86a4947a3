//! The `tmc` subcommands this crate owns: `tmc scenario` and `tmc fuzz`.
//!
//! ```text
//! tmc scenario list [--dir D]
//! tmc scenario run <name>... [--dir D] [--checkpoint-every N] [--journal P]
//!                            [--kill-at OP] [--resume P]
//! tmc scenario check (--all | <name>...) [--dir D] [--threads N]
//! tmc scenario pin (--all | <name>...) [--dir D]
//! ```
//!
//! `check` is the CI entry point: every scenario runs once against its
//! goldens; a fault-free scenario's run is captured as a JSONL trace and
//! replayed on a second machine (determinism), and a scenario with faults
//! runs a second time instead. The selected scenarios are checked on the
//! sweep pool ([`tmc_bench::sweep::map`], `--threads N` workers, one per
//! available core by default); their lines print in corpus order, so the
//! output does not depend on the worker count.
//! `pin` reruns scenarios and rewrites their `[expect]` sections in place
//! (the golden-regeneration workflow after an intentional protocol
//! change).
//!
//! `run` honors a scenario's `[checkpoint]` section (or the
//! `--checkpoint-every` override) by journaling whole-machine frames to
//! `--journal P` (default `<name>.journal`); `--kill-at OP` injects a
//! crash after that op, and `--resume P` restarts a killed run from the
//! newest intact frame of its journal — bit-identical to an
//! uninterrupted run. When a run diverges from pinned goldens, every
//! divergence is reported as `file.tmcs:LINE: key: expected X, actual Y`
//! (the line of that key in the `[expect]` section) and the exit code is
//! nonzero.
//!
//! ```text
//! tmc fuzz --smoke                          # fixed seeds, CI-sized budget
//! tmc fuzz --budget 5000 --seed 7           # a longer hunt
//! tmc fuzz --corpus conformance/corpus      # replay reproducers
//! tmc fuzz --smoke --corpus-out /tmp/corpus # also save findings
//! ```
//!
//! `fuzz` fails when any divergence (or corpus failure) is found. On
//! divergence the case is shrunk to a minimal reproducer, printed as both
//! `.tmcs` scenario text and a self-contained `#[test]` snippet, and saved
//! when `--corpus-out` is given.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

use tmc_bench::args::{Args, CliError};
use tmc_bench::sweep;

use crate::corpus;
use crate::gen::{generate_case_with, GenProfile};
use crate::journal::{
    cadence_for, default_journal_path, resume_journaled, run_journaled, JournalOptions,
};
use crate::pairs::{check_pair, Pair};
use crate::run::{check_scenario, expect_diffs, run_scenario, ScenarioOutcome};
use crate::shrink::shrink;
use crate::spec::{encode_expect, Scenario};

const SCENARIO_USAGE: &str = "usage: tmc scenario <list|run|check|pin> [--all | <name>...] \
     [--dir D] [--threads N] [--checkpoint-every N] \
     [--journal P] [--kill-at OP] [--resume P]";

struct Cli {
    all: bool,
    dir: PathBuf,
    threads: usize,
    checkpoint_every: Option<u64>,
    journal: Option<PathBuf>,
    kill_at: Option<u64>,
    resume: Option<PathBuf>,
    verb: Option<String>,
    names: Vec<String>,
}

/// Runs `tmc scenario`.
///
/// # Errors
///
/// A usage error for bad arguments; a failure when a scenario is missing
/// or errors, a golden diverges or a check fails.
pub fn scenario(mut args: Args) -> Result<(), CliError> {
    let positive = |flag: &str, n: Option<u64>| match n {
        Some(0) => Err(CliError::Usage(format!("{flag} must be >= 1"))),
        n => Ok(n),
    };
    // Fields evaluate in order: flags and their values first, then the
    // verb, then the scenario names.
    let cli = Cli {
        all: args.flag("--all"),
        dir: args.value("--dir")?.unwrap_or_else(corpus::default_dir),
        threads: sweep::threads(&mut args)?,
        checkpoint_every: positive("--checkpoint-every", args.value("--checkpoint-every")?)?,
        journal: args.value("--journal")?,
        kill_at: args.value("--kill-at")?,
        resume: args.value("--resume")?,
        verb: args.positional("verb")?,
        names: args.rest(),
    };
    args.finish()?;
    let result = match cli.verb.as_deref() {
        Some("list") => cmd_list(&cli),
        Some("run") => cmd_run(&cli),
        Some("check") => cmd_check(&cli),
        Some("pin") => cmd_pin(&cli),
        Some(other) => {
            return Err(CliError::Usage(format!(
                "unknown subcommand `{other}`\n{SCENARIO_USAGE}"
            )))
        }
        None => return Err(CliError::Usage(SCENARIO_USAGE.into())),
    };
    Ok(result?)
}

/// The scenarios the command applies to: the whole corpus with `--all`
/// (or for `list`), otherwise the named subset. The whole corpus must
/// parse; a named subset fails on a file that does not parse only when
/// the file's stem is one of the names.
fn select(cli: &Cli, verb: &str) -> Result<Vec<(PathBuf, Scenario)>, String> {
    if cli.all || (verb == "list" && cli.names.is_empty()) {
        let entries = corpus::load_dir(&cli.dir)?;
        if entries.is_empty() {
            return Err(format!("no .tmcs scenarios in {}", cli.dir.display()));
        }
        return Ok(entries);
    }
    if cli.names.is_empty() {
        return Err(format!("scenario {verb} needs --all or scenario names"));
    }
    let mut entries = Vec::new();
    for path in corpus::tmcs_paths(&cli.dir)? {
        match corpus::load_file(&path) {
            Ok(sc) => entries.push((path, sc)),
            Err(e)
                if path
                    .file_stem()
                    .is_some_and(|stem| cli.names.iter().any(|n| stem == n.as_str())) =>
            {
                return Err(e)
            }
            Err(_) => {}
        }
    }
    let mut selected = Vec::new();
    for name in &cli.names {
        let mut found = entries.iter().filter(|(_, sc)| &sc.name == name);
        match (found.next(), found.next()) {
            (Some(e), None) => selected.push(e.clone()),
            (Some(_), Some((path, _))) => {
                return Err(format!(
                    "{}: duplicate scenario name `{name}`",
                    path.display()
                ))
            }
            (None, _) => {
                return Err(format!(
                    "no scenario named `{name}` in {} ({} available: {})",
                    cli.dir.display(),
                    entries.len(),
                    entries
                        .iter()
                        .map(|(_, sc)| sc.name.as_str())
                        .collect::<Vec<_>>()
                        .join(", ")
                ))
            }
        }
    }
    Ok(selected)
}

fn cmd_list(cli: &Cli) -> Result<(), String> {
    let entries = select(cli, "list")?;
    println!("{} scenarios in {}", entries.len(), cli.dir.display());
    for (_, sc) in &entries {
        let mut tags = Vec::new();
        if let Some(w) = &sc.workload {
            tags.push(w.family.name().to_string());
        }
        if !sc.ops.is_empty() {
            tags.push(format!("{} explicit ops", sc.ops.len()));
        }
        if sc.fault_configured() {
            tags.push("faults".into());
        }
        tags.push(
            if sc.expect.is_pinned() {
                "pinned"
            } else {
                "unpinned"
            }
            .into(),
        );
        println!(
            "  {:<24} N={:<5} {}",
            sc.name,
            sc.machine.n_caches,
            tags.join(", ")
        );
        if !sc.note.is_empty() {
            println!("  {:<24} {}", "", sc.note);
        }
    }
    Ok(())
}

fn cmd_run(cli: &Cli) -> Result<(), String> {
    let entries = select(cli, "run")?;
    if (cli.resume.is_some() || cli.kill_at.is_some()) && entries.len() != 1 {
        return Err("--resume / --kill-at apply to exactly one scenario".into());
    }
    let mut golden_failures = 0usize;
    for (path, sc) in &entries {
        let every = cadence_for(sc, cli.checkpoint_every);
        let journaled = every > 0 || cli.resume.is_some() || cli.kill_at.is_some();
        let outcome = if journaled {
            let jpath = cli
                .journal
                .clone()
                .or_else(|| cli.resume.clone())
                .unwrap_or_else(|| default_journal_path(sc));
            let mut opts = JournalOptions::new(&jpath, every);
            opts.kill_at = cli.kill_at;
            let report = if cli.resume.is_some() {
                resume_journaled(sc, &opts)
            } else {
                run_journaled(sc, &opts)
            }
            .map_err(|e| format!("{}: {e}", sc.name))?;
            if let Some(d) = &report.damage {
                eprintln!("warning: {}: journal tail dropped: {d}", sc.name);
            }
            if let Some(at) = report.resumed_at {
                println!("{}: resumed at op {at} from {}", sc.name, jpath.display());
            }
            let Some(done) = report.outcome else {
                println!(
                    "{}: killed at op {} ({} frames in {})",
                    sc.name,
                    report.ops_done,
                    report.frames,
                    jpath.display()
                );
                continue;
            };
            println!(
                "{}: journaled {} frames to {}",
                sc.name,
                report.frames,
                jpath.display()
            );
            println!("  trace_chksum = 0x{:016x}", done.trace_checksum);
            println!("  mem_digest   = 0x{:016x}", done.memory_digest);
            done.outcome
        } else {
            run_scenario(sc).map_err(|e| format!("{}: {e}", sc.name))?
        };
        println!("{}:", sc.name);
        println!(
            "  ops          = {} ({} reads, {} writes)",
            outcome.ops, outcome.reads, outcome.writes
        );
        println!("  events       = {}", outcome.events);
        println!("  fingerprint  = 0x{:016x}", outcome.fingerprint);
        println!("  total_bits   = {}", outcome.total_bits);
        println!("  link_chksum  = 0x{:016x}", outcome.link_checksum);
        println!("  reads_chksum = 0x{:016x}", outcome.reads_checksum);
        for (name, v) in &outcome.counters {
            if *v != 0 {
                println!("  counter {name:<28} {v}");
            }
        }
        golden_failures += report_golden_diffs(path, sc, &outcome);
    }
    if golden_failures > 0 {
        return Err(format!("{golden_failures} golden field(s) diverged"));
    }
    Ok(())
}

/// Prints one `file.tmcs:LINE: key: expected X, actual Y` line per
/// diverged golden and returns how many diverged.
fn report_golden_diffs(path: &PathBuf, sc: &Scenario, outcome: &ScenarioOutcome) -> usize {
    let (_, diffs) = expect_diffs(&sc.expect, outcome);
    if diffs.is_empty() {
        return 0;
    }
    let text = std::fs::read_to_string(path).unwrap_or_default();
    for d in &diffs {
        match expect_key_line(&text, &d.key) {
            Some(line) => println!("{}:{line}: {d}", path.display()),
            None => println!("{}: {d}", path.display()),
        }
    }
    diffs.len()
}

/// 1-based line of `key` inside the `[expect]` section of `text`
/// (`counter <name>` keys match their `counter = <name> ...` line).
fn expect_key_line(text: &str, key: &str) -> Option<usize> {
    let mut in_expect = false;
    for (i, raw) in text.lines().enumerate() {
        let t = raw.trim();
        if t.starts_with('[') {
            in_expect = t == "[expect]";
            continue;
        }
        if !in_expect {
            continue;
        }
        let Some(eq) = t.find('=') else { continue };
        let k = t[..eq].trim();
        let v = t[eq + 1..].trim();
        let hit = match key.strip_prefix("counter ") {
            Some(name) => k == "counter" && v.split_whitespace().next() == Some(name),
            None => k == key,
        };
        if hit {
            return Some(i + 1);
        }
    }
    None
}

fn cmd_check(cli: &Cli) -> Result<(), String> {
    let entries = select(cli, "check")?;
    let picked: Vec<&Scenario> = entries.iter().map(|(_, sc)| sc).collect();
    let reports = sweep::map(cli.threads, picked, |sc| (sc, check_scenario(sc, None)));
    let mut checked = 0usize;
    let mut goldens = 0usize;
    let mut failures = Vec::new();
    for (sc, report) in reports {
        match report {
            Ok(report) => {
                checked += 1;
                goldens += report.goldens;
                let engines = if report.replayed {
                    "serial+oracle+replay"
                } else {
                    "serial+oracle"
                };
                println!(
                    "ok   {:<24} {} goldens, engines: {engines}",
                    sc.name, report.goldens
                );
            }
            Err(e) => {
                println!("FAIL {:<24} {e}", sc.name);
                failures.push(format!("{}: {e}", sc.name));
            }
        }
    }
    println!("checked {checked} scenarios, {goldens} golden fields");
    if !failures.is_empty() {
        return Err(format!(
            "{} scenario(s) failed:\n  {}",
            failures.len(),
            failures.join("\n  ")
        ));
    }
    Ok(())
}

fn cmd_pin(cli: &Cli) -> Result<(), String> {
    let entries = select(cli, "pin")?;
    for (path, sc) in &entries {
        let outcome = run_scenario(sc).map_err(|e| format!("{}: {e}", sc.name))?;
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let body = match text.find("[expect]") {
            Some(at) => text[..at].trim_end().to_string(),
            None => text.trim_end().to_string(),
        };
        let pinned = format!("{body}\n\n{}", encode_expect(&outcome.to_expect()));
        std::fs::write(path, &pinned).map_err(|e| format!("{}: {e}", path.display()))?;
        println!(
            "pinned {:<24} fingerprint 0x{:016x}",
            sc.name, outcome.fingerprint
        );
    }
    Ok(())
}

/// Default seed for reproducible smoke runs.
pub(crate) const SMOKE_SEED: u64 = 1;
/// Smoke budget: comfortably above the CI floor of 200 cases.
pub(crate) const SMOKE_BUDGET: usize = 240;

/// Runs `tmc fuzz`.
///
/// # Errors
///
/// A usage error for bad arguments or no mode; a failure for any
/// divergence, corpus regression or unreadable corpus.
pub fn fuzz(mut args: Args) -> Result<(), CliError> {
    let smoke = args.flag("--smoke");
    let budget: Option<usize> = args.value("--budget")?;
    let seed = args.value("--seed")?.unwrap_or(SMOKE_SEED);
    let profile = if args.flag("--bign") {
        GenProfile::BigN
    } else {
        GenProfile::Classic
    };
    let corpus_dir: Option<PathBuf> = args.value("--corpus")?;
    let corpus_out: Option<PathBuf> = args.value("--corpus-out")?;
    args.finish()?;
    if !smoke && budget.is_none() && corpus_dir.is_none() {
        return Err(CliError::Usage(
            "usage: tmc fuzz (--smoke | --budget N | --corpus DIR) [--seed S] [--bign] \
             [--corpus-out DIR]"
                .into(),
        ));
    }

    let mut failures = Vec::new();
    if let Some(dir) = &corpus_dir {
        let report = corpus::run_dir(dir).map_err(|e| format!("corpus: {e}"))?;
        println!(
            "corpus: {} reproducer(s) replayed from {}",
            report.entries,
            dir.display()
        );
        for (path, d) in &report.failures {
            println!("  REGRESSION {}: {d}", path.display());
        }
        if report.failures.is_empty() && report.entries > 0 {
            println!("  all reproducers hold");
        }
        if !report.failures.is_empty() {
            failures.push(format!("{} corpus regression(s)", report.failures.len()));
        }
    }
    if smoke || budget.is_some() {
        let budget = budget.unwrap_or(SMOKE_BUDGET);
        if let Err(e) = fuzz_cases(seed, budget, profile, corpus_out.as_deref()) {
            failures.push(e);
        }
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(CliError::Failed(failures.join("; ")))
    }
}

/// Runs `budget` generated cases from `seed0`.
fn fuzz_cases(
    seed0: u64,
    budget: usize,
    profile: GenProfile,
    corpus_out: Option<&Path>,
) -> Result<(), String> {
    let started = Instant::now();
    let mut applied: BTreeMap<&'static str, usize> = BTreeMap::new();
    let mut divergences = 0usize;
    // The resumed pair's audit fails a case whose plan does not fire in full.
    let (mut fault_cases, mut faults) = (0usize, 0usize);

    for i in 0..budget {
        let seed = seed0.wrapping_add(i as u64);
        let case = generate_case_with(seed, profile);
        if let Some(f) = case.faults.filter(|f| f.count > 0) {
            fault_cases += 1;
            faults += f.count;
        }
        for pair in Pair::all() {
            if !pair.applies(&case) {
                continue;
            }
            *applied.entry(pair.name()).or_default() += 1;
            if let Err(d) = check_pair(&case, pair) {
                divergences += 1;
                println!("== DIVERGENCE (seed {seed}) ==");
                println!("{d}");
                let minimized = shrink(&case, pair);
                println!(
                    "-- minimized: {} op(s) (from {}) --",
                    minimized.ops.len(),
                    case.ops.len()
                );
                print!("{}", corpus::entry_text(&minimized, pair, ""));
                println!("-- #[test] snippet --");
                print!("{}", rust_snippet(&minimized, pair));
                if let Some(dir) = corpus_out {
                    match corpus::save(dir, &minimized, pair, "auto-minimized by fuzz run") {
                        Ok(p) => println!("-- saved {}", p.display()),
                        Err(e) => eprintln!("-- could not save reproducer: {e}"),
                    }
                }
            }
        }
        if (i + 1) % 50 == 0 {
            println!(
                "... {} / {budget} cases, {divergences} divergence(s), {:.1}s",
                i + 1,
                started.elapsed().as_secs_f64()
            );
        }
    }

    println!(
        "fuzzed {budget} case(s) from seed {seed0} in {:.1}s ({fault_cases} with faults, \
         {faults} fault(s) injected) — {divergences} divergence(s)",
        started.elapsed().as_secs_f64(),
    );
    println!("pair coverage:");
    for (name, n) in &applied {
        println!("  {name:>20}: {n} case(s)");
    }
    let (pairs_exercised, want) = (applied.len(), Pair::all().len());
    if pairs_exercised < want {
        println!("WARNING: only {pairs_exercised} engine pairs exercised (want >= {want})");
        return Err(format!("only {pairs_exercised} engine pairs exercised"));
    }
    match divergences {
        0 => Ok(()),
        n => Err(format!("{n} divergence(s)")),
    }
}

/// A self-contained `#[test]` that parses the minimized case back from
/// its `.tmcs` text and asserts that `pair` holds on it.
fn rust_snippet(sc: &Scenario, pair: Pair) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "/// Minimized reproducer (seed {}).", sc.seed);
    let _ = writeln!(s, "#[test]");
    let _ = writeln!(s, "fn conformance_repro_seed_{}() {{", sc.seed);
    let _ = writeln!(s, "    use tmc_scenario::{{check_pair, parse, Pair}};");
    let _ = writeln!(s, "    let text = concat!(");
    for line in sc.encode().lines() {
        let _ = writeln!(s, "        {line:?}, \"\\n\",");
    }
    let _ = writeln!(s, "    );");
    let _ = writeln!(s, "    let sc = parse(text).unwrap();");
    let _ = writeln!(
        s,
        "    if let Err(d) = check_pair(&sc, Pair::parse({:?}).unwrap()) {{",
        pair.name()
    );
    let _ = writeln!(s, "        panic!(\"{{}}\", d);");
    let _ = writeln!(s, "    }}");
    let _ = writeln!(s, "}}");
    s
}
