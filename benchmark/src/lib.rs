//! The repository benchmark: five workloads, end-to-end metrics from
//! untraced runs, per-layer metrics from a traced run, all declared in
//! `BENCHMARK.json` at the repository root. See `README.md` beside this
//! crate for why each workload exists and how the layers map onto the
//! end-to-end numbers.

#![warn(missing_docs)]

pub mod compare;
pub mod corpus;
pub mod engine;
pub mod host;
pub mod json;
pub mod manifest;
pub mod outcome;
pub mod plan;
pub mod replay;
pub mod runner;
pub mod spans;
pub mod stats;
pub mod surface;

use std::path::{Path, PathBuf};

use manifest::Manifest;
use outcome::Outcome;
use runner::RunOptions;

/// The repository root: the directory above this crate. The crate is
/// always built in place, so the build-time path is the run-time path.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark crate sits inside the repository")
        .to_path_buf()
}

/// [`RunOptions`] with the repository's own paths filled in.
pub fn default_options() -> RunOptions {
    let root = repo_root();
    RunOptions {
        seed: 1,
        seconds: Manifest::load().run_seconds as f64,
        traced: false,
        smoke: false,
        out_dir: root.join("benchmark/out"),
        tmc_bin: corpus::default_tmc_bin(&root),
        scenarios_dir: root.join("scenarios"),
    }
}

/// Runs one workload once.
///
/// # Errors
///
/// Fails for a workload `BENCHMARK.json` does not declare, or when
/// `corpus-cli` cannot start the `tmc` binary or read the corpus.
pub fn run_workload(name: &str, opts: &RunOptions, manifest: &Manifest) -> Result<Outcome, String> {
    if !manifest.workloads.iter().any(|(w, _)| w == name) {
        return Err(format!("unknown workload `{name}`"));
    }
    match plan::plan(name, opts.smoke) {
        Some(plan) => Ok(runner::run(&plan, opts)),
        None => corpus::run(opts, manifest),
    }
}
