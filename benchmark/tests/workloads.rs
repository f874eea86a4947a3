//! Smoke runs of the real workloads: the manifest and the program agree,
//! and simulated results are a function of the seed alone.

use std::path::PathBuf;
use std::process::Command;

use repo_benchmark::manifest::{Manifest, SIM_EXACT};
use repo_benchmark::outcome::Outcome;
use repo_benchmark::{default_options, repo_root, run_workload};

/// The `tmc` binary, built on demand the way `run.sh` builds it.
fn tmc_bin() -> PathBuf {
    let bin = default_options().tmc_bin;
    if !bin.exists() {
        let status = Command::new("cargo")
            .args([
                "build",
                "--release",
                "--offline",
                "-p",
                "tmc-scenario",
                "--bin",
                "tmc",
            ])
            .arg("--manifest-path")
            .arg(repo_root().join("Cargo.toml"))
            .status()
            .expect("cargo is on PATH");
        assert!(status.success(), "building tmc failed");
    }
    bin
}

/// A smoke run in a directory of the test's own (tests run in parallel
/// and the durable workload writes a journal).
fn smoke(test: &str, workload: &str, seed: u64, traced: bool) -> Outcome {
    let mut opts = default_options();
    opts.seed = seed;
    opts.seconds = 0.3;
    opts.smoke = true;
    opts.traced = traced;
    opts.out_dir = opts.out_dir.join(format!("test-{test}"));
    opts.tmc_bin = tmc_bin();
    run_workload(workload, &opts, &Manifest::load()).expect("workload runs")
}

#[test]
fn every_workload_emits_exactly_the_declared_metrics() {
    let manifest = Manifest::load();
    let valid_name = |s: &str| {
        !s.is_empty()
            && s.len() <= 64
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    for (workload, why) in &manifest.workloads {
        assert!(valid_name(workload), "workload name {workload}");
        assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'));
        for (traced, decls) in [(false, &manifest.end_to_end), (true, &manifest.per_layer)] {
            let out = smoke("declared", workload, 1, traced);
            assert!(
                out.correct(),
                "{workload}: {} of {} failed",
                out.failed,
                out.attempted
            );
            let mut declared: Vec<&str> = decls.iter().map(|d| d.name.as_str()).collect();
            declared.sort_unstable();
            let emitted: Vec<&str> = out.metrics.keys().map(String::as_str).collect();
            assert_eq!(emitted, declared, "{workload}, traced = {traced}");
            for d in decls {
                assert!(valid_name(&d.name), "metric name {}", d.name);
                assert!(
                    d.unit.len() <= 16
                        && d.unit
                            .chars()
                            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                    "unit {}",
                    d.unit
                );
                // End-to-end metrics are never zero, on any workload.
                assert!(
                    traced || out.metrics[&d.name] > 0.0,
                    "{workload} {}",
                    d.name
                );
            }
            if traced {
                assert!(
                    !out.spans.is_empty(),
                    "{workload}: the traced run records spans"
                );
            }
        }
    }
    assert!(manifest
        .end_to_end
        .iter()
        .all(|d| d.bound.is_some_and(|b| b <= 0.25)));
    assert!(manifest
        .end_to_end
        .iter()
        .any(|d| d.name == "setup_s" && d.unit == "s"));
    for name in SIM_EXACT {
        let declared = manifest.end_to_end.iter().chain(&manifest.per_layer);
        assert!(
            declared.clone().any(|d| d.name == *name),
            "{name} is not declared"
        );
    }
}

#[test]
fn simulated_results_depend_on_the_seed_and_nothing_else() {
    for workload in ["paper-grid", "migratory-writes", "traced-durable"] {
        let a = smoke("seed", workload, 1, true);
        let b = smoke("seed", workload, 1, true);
        let c = smoke("seed", workload, 2, true);
        assert_eq!(
            a.sim_digest, b.sim_digest,
            "{workload}: same seed, same digest"
        );
        assert_ne!(
            a.sim_digest, c.sim_digest,
            "{workload}: another seed, another digest"
        );
        for name in SIM_EXACT.iter().filter(|n| a.metrics.contains_key(**n)) {
            assert_eq!(
                a.metrics[*name].to_bits(),
                b.metrics[*name].to_bits(),
                "{workload} {name} must repeat exactly"
            );
        }
        let (a, b) = (
            smoke("seed", workload, 1, false),
            smoke("seed", workload, 1, false),
        );
        assert_eq!(
            a.metrics["sim_bits_per_ref"].to_bits(),
            b.metrics["sim_bits_per_ref"].to_bits()
        );
        assert_eq!(a.sim_digest, b.sim_digest);
    }
}
