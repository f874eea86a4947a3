//! `corpus-cli`: the user-facing path end to end. Each rep spawns
//! `tmc scenario check` over the whole committed corpus — process start,
//! corpus load and parse, serial run with oracle, sharded rerun (two
//! threads), JSONL capture and replay, golden comparison — and one
//! in-process pass through the same library calls supplies the simulated
//! totals and, in the traced run, the per-scenario timings.

use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::Instant;

use crate::host;
use crate::manifest::Manifest;
use crate::outcome::Outcome;
use crate::runner::RunOptions;
use crate::spans::Spans;
use crate::stats::{fast_decile, fnv1a, ratio, FNV_OFFSET};
use crate::surface::{check_scenario, load_dir, parse, run_scenario, SimRng};

/// `tmc scenario list` invocations per set-up sample: one takes a few
/// milliseconds, too short to time alone.
const LIST_CALLS: usize = 5;
/// Timed parses per file in the traced run.
const PARSE_PASSES: usize = 5;

fn tmc(opts: &RunOptions, verb: &str) -> Command {
    let mut c = Command::new(&opts.tmc_bin);
    c.args(["scenario", verb, "--dir"])
        .arg(&opts.scenarios_dir)
        .stdin(Stdio::null())
        .stderr(Stdio::null());
    c
}

/// Process start, corpus load and parse, nothing run: what a CLI
/// invocation costs before its first reference. Seconds per call.
fn list(opts: &RunOptions) -> Result<f64, String> {
    let t = Instant::now();
    for _ in 0..LIST_CALLS {
        let status = tmc(opts, "list")
            .stdout(Stdio::null())
            .status()
            .map_err(|e| format!("{}: {e}", opts.tmc_bin.display()))?;
        if !status.success() {
            return Err(format!("tmc scenario list: {status}"));
        }
    }
    Ok(t.elapsed().as_secs_f64() / LIST_CALLS as f64)
}

/// One `check` over `names`; wall seconds and how many scenarios it
/// reported `ok`.
fn check(opts: &RunOptions, names: &[String]) -> Result<(f64, usize), String> {
    let t = Instant::now();
    let output = tmc(opts, "check")
        .args(names)
        .output()
        .map_err(|e| format!("{}: {e}", opts.tmc_bin.display()))?;
    let wall = t.elapsed().as_secs_f64();
    let ok = String::from_utf8_lossy(&output.stdout)
        .lines()
        .filter(|l| l.starts_with("ok "))
        .count();
    // A nonzero exit fails the whole invocation, whatever it printed.
    Ok((wall, if output.status.success() { ok } else { 0 }))
}

/// Runs the workload.
///
/// # Errors
///
/// Fails when the `tmc` binary or the corpus cannot be used at all;
/// scenario-level failures are counted in the outcome instead.
pub fn run(opts: &RunOptions, manifest: &Manifest) -> Result<Outcome, String> {
    let mut corpus = load_dir(&opts.scenarios_dir)?;
    if corpus.is_empty() {
        return Err(format!("no scenarios in {}", opts.scenarios_dir.display()));
    }
    // The corpus is committed, so the seed picks the order it runs in.
    SimRng::seed_from(opts.seed).shuffle(&mut corpus);
    let names: Vec<String> = corpus.iter().map(|(_, sc)| sc.name.clone()).collect();
    let mut spans = Spans::new(opts.traced);
    let mut out = Outcome::new("corpus-cli");
    out.threads = 2;

    let budget = if opts.traced {
        opts.seconds * 0.4
    } else {
        opts.seconds
    };
    let min_reps = if opts.smoke { 1 } else { 3 };
    let start = Instant::now();
    let (mut setup_s, mut wall_s) = (Vec::new(), Vec::new());
    while wall_s.len() < min_reps || start.elapsed().as_secs_f64() < budget {
        spans.enter("rep");
        spans.enter("list");
        setup_s.push(list(opts)?);
        spans.exit();
        spans.enter("check");
        let (wall, ok) = check(opts, &names)?;
        spans.exit();
        spans.exit();
        wall_s.push(wall);
        out.attempted += names.len() as u64;
        out.failed += (names.len() - ok.min(names.len())) as u64;
    }
    out.reps = wall_s.len();
    let peak_rss_mib = host::children_peak_rss_mib();

    // The in-process pass: the same checks through the library.
    let (mut ops, mut bits) = (0u64, 0u64);
    let mut check_ms = Vec::new();
    let mut digests = Vec::new();
    spans.enter("in-process");
    for (_, sc) in &corpus {
        spans.enter(format!("{}:check", sc.name));
        let t = Instant::now();
        let report = check_scenario(sc, None);
        check_ms.push(t.elapsed().as_secs_f64() * 1e3);
        spans.exit();
        out.attempted += 1;
        match report {
            Ok(r) => {
                ops += r.outcome.ops;
                bits += r.outcome.total_bits;
                digests.push((sc.name.clone(), r.outcome.fingerprint, r.outcome.total_bits));
            }
            Err(_) => out.failed += 1,
        }
    }
    spans.exit();
    digests.sort();
    out.sim_digest = digests.iter().fold(FNV_OFFSET, |h, (_, fp, b)| {
        fnv1a(fnv1a(h, &fp.to_le_bytes()), &b.to_le_bytes())
    });
    out.refs_per_rep = ops;

    if !opts.traced {
        let rates: Vec<f64> = wall_s.iter().map(|w| ops as f64 / w).collect();
        out.put_reading("refs_per_s", rates, true);
        out.put("sim_bits_per_ref", ratio(bits as f64, ops as f64));
        out.put("peak_rss_mib", peak_rss_mib);
        out.put_reading("setup_s", setup_s, false);
    } else {
        let mut parse_us = Vec::new();
        let mut run_ms = Vec::new();
        spans.enter("layers");
        for (path, sc) in &corpus {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
            spans.enter(format!("{}:parse", sc.name));
            let t = Instant::now();
            for _ in 0..PARSE_PASSES {
                out.failed += u64::from(parse(&text).is_err());
            }
            parse_us.push(t.elapsed().as_secs_f64() * 1e6 / PARSE_PASSES as f64);
            spans.exit();
            spans.enter(format!("{}:run", sc.name));
            let t = Instant::now();
            out.failed += u64::from(run_scenario(sc).is_err());
            run_ms.push(t.elapsed().as_secs_f64() * 1e3);
            spans.exit();
        }
        spans.exit();
        let n = corpus.len() as f64;
        let check_total: f64 = check_ms.iter().sum();
        let run_total: f64 = run_ms.iter().sum();
        let cli_ms = fast_decile(&wall_s, false) * 1e3;
        // Every layer the CLI path does not let the benchmark reach reads
        // zero here; the in-process workloads measure those.
        for d in &manifest.per_layer {
            out.put(&d.name, 0.0);
        }
        out.put(
            "scenario.parse_us_per_file",
            parse_us.iter().sum::<f64>() / n,
        );
        out.put("scenario.run_ms_per_scenario", run_total / n);
        out.put("scenario.check_ms_per_scenario", check_total / n);
        out.put(
            "scenario.check_over_run_ratio",
            ratio(check_total, run_total),
        );
        out.put(
            "scenario.slowest_scenario_share",
            ratio(check_ms.iter().copied().fold(0.0, f64::max), check_total),
        );
        out.put("scenario.cli_overhead_ms", cli_ms - check_total);
        // Traced here means in-process with a span per scenario and
        // engine; untraced is the spawned CLI.
        out.put(
            "bench.trace_overhead_share",
            ratio(check_total - cli_ms, cli_ms),
        );
    }
    out.spans = spans;
    Ok(out)
}

/// The `tmc` binary a cargo build leaves: under `CARGO_TARGET_DIR` when
/// set, else under the repository's own `target/`.
pub fn default_tmc_bin(repo_root: &std::path::Path) -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| repo_root.join("target"), PathBuf::from)
        .join("release/tmc")
}
