//! Command line of the repository benchmark.
//!
//! ```text
//! repo-benchmark --workload W --seed N --seconds S --trace 0|1   one run (the driver's form)
//! repo-benchmark [--seed N] [--traced] [--smoke]                 every workload, result.json
//! repo-benchmark --compare OLD.json NEW.json                     apply the declared bounds
//! ```
//!
//! `--tmc-bin PATH` names the `tmc` binary `corpus-cli` spawns; `run.sh`
//! builds it and passes it.

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use repo_benchmark::json::Json;
use repo_benchmark::manifest::Manifest;
use repo_benchmark::runner::RunOptions;
use repo_benchmark::{compare, default_options, host, repo_root, run_workload};

enum Mode {
    One(String),
    All,
    Compare(PathBuf, PathBuf),
}

fn parse_args(args: &[String]) -> Result<(Mode, RunOptions), String> {
    let mut opts = default_options();
    let mut mode = Mode::All;
    let mut seconds_given = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "--workload" => mode = Mode::One(value("a workload name")?.clone()),
            "--seed" => {
                opts.seed = value("a number")?
                    .parse()
                    .map_err(|_| "--seed needs a whole number".to_string())?;
            }
            "--seconds" => {
                opts.seconds = value("a number")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds needs a positive number")?;
                seconds_given = true;
            }
            "--trace" => {
                opts.traced = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".into()),
                };
            }
            "--traced" => opts.traced = true,
            "--smoke" => opts.smoke = true,
            "--tmc-bin" => opts.tmc_bin = PathBuf::from(value("a path")?),
            "--compare" => {
                let old = PathBuf::from(value("two result files")?);
                let new = PathBuf::from(value("two result files")?);
                mode = Mode::Compare(old, new);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if opts.smoke && !seconds_given {
        opts.seconds = 1.0;
    }
    Ok((mode, opts))
}

fn run_one(name: &str, opts: &RunOptions, manifest: &Manifest) -> Result<(), String> {
    let outcome = run_workload(name, opts, manifest)?;
    if opts.traced {
        std::fs::create_dir_all(&opts.out_dir).map_err(|e| e.to_string())?;
        let path = opts.out_dir.join(format!("trace-{name}.jsonl"));
        std::fs::write(&path, outcome.spans.to_jsonl(name))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    outcome.print(manifest, opts.traced)
}

/// Runs `name` in a child process (so peak memory is the workload's own)
/// and returns its detail record.
fn run_child(name: &str, opts: &RunOptions, traced: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", name, "--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--tmc-bin")
        .arg(&opts.tmc_bin);
    if opts.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut detail = None;
    for line in stdout.lines() {
        match line.strip_prefix("#detail ") {
            Some(d) => detail = Some(Json::parse(d)?),
            None if !line.starts_with('{') => println!("{line}"),
            None => {}
        }
    }
    if !output.status.success() {
        return Err(format!(
            "{name}: {}\n{}",
            output.status,
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    detail.ok_or(format!("{name}: no detail record"))
}

fn run_all(opts: &RunOptions, manifest: &Manifest) -> Result<bool, String> {
    let mut workloads = Vec::new();
    let mut all_correct = true;
    for (name, _) in &manifest.workloads {
        let Json::Obj(mut record) = run_child(name, opts, false)? else {
            return Err(format!("{name}: detail record is not an object"));
        };
        if let Some(entry) = record.iter_mut().find(|(k, _)| k == "metrics") {
            entry.0 = "end_to_end".to_string();
        }
        if opts.traced {
            let traced = run_child(name, opts, true)?;
            all_correct &= traced.get("correct") == Some(&Json::Bool(true));
            if let Some(m) = traced.get("metrics") {
                record.push(("per_layer".to_string(), m.clone()));
            }
        }
        all_correct &= record
            .iter()
            .any(|(k, v)| k == "correct" && *v == Json::Bool(true));
        workloads.push((name.clone(), Json::Obj(record)));
    }
    let result = Json::obj([
        ("host", host::describe(&repo_root())),
        ("seed", Json::Num(opts.seed as f64)),
        ("seconds", Json::Num(opts.seconds)),
        ("smoke", Json::Bool(opts.smoke)),
        ("traced", Json::Bool(opts.traced)),
        ("workloads", Json::Obj(workloads)),
    ]);
    std::fs::create_dir_all(&opts.out_dir).map_err(|e| e.to_string())?;
    let path = opts.out_dir.join("result.json");
    std::fs::write(&path, result.to_pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(all_correct)
}

fn read_json(path: &PathBuf) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let manifest = Manifest::load();
    let done = parse_args(&args).and_then(|(mode, opts)| match mode {
        Mode::One(name) => run_one(&name, &opts, &manifest).map(|()| true),
        Mode::All => run_all(&opts, &manifest),
        Mode::Compare(old, new) => {
            compare::compare(&manifest, &read_json(&old)?, &read_json(&new)?).map(|n| n == 0)
        }
    });
    match done {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}
