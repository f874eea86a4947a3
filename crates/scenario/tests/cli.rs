//! The `tmc` exit-code convention, end to end: 0 = OK, 1 = a check
//! failed, 2 = usage. Every argument must be understood; none is ignored.

use std::path::Path;
use std::process::{Command, Output};

fn tmc(argv: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tmc"))
        .args(argv)
        .output()
        .expect("spawn tmc")
}

fn exit_code(argv: &[&str]) -> i32 {
    tmc(argv).status.code().expect("exited")
}

#[test]
fn usage_errors_exit_2() {
    for argv in [
        &["frobnicate"][..],
        &[],
        &["chaos", "--smok"],
        &["crashsim", "--anything"],
        &["trace", "roundtrip", "abc"],
        &["paper", "fig5", "--threads", "lots"],
        &["paper", "fig5", "--threads", "0"],
        &["paper", "fig9"],
        &["paper", "sim-fig8", "--shards", "2"],
        &["replay", "x.trace", "all", "--shards", "2"],
        &["scenario", "check", "--all", "--reshard", "4"],
        &["scenario", "check", "--all", "--sample", "3"],
        &["sweep", "dw", "sixteen"],
        &["scenario", "list", "--dri", "scenarios"],
        &["scenario", "check", "--threads", "0"],
        &["fuzz", "--budget", "many"],
    ] {
        assert_eq!(exit_code(argv), 2, "tmc {}", argv.join(" "));
    }
}

#[test]
fn a_corrupted_golden_fails_the_check_with_exit_1() {
    let dir = std::env::temp_dir().join(format!("tmc-cli-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios/private-baseline.tmcs");
    let text = std::fs::read_to_string(src).unwrap();
    let dst = dir.join("private-baseline.tmcs");
    std::fs::write(&dst, &text).unwrap();
    let dir_arg = dir.to_str().unwrap();
    assert_eq!(
        exit_code(&["scenario", "check", "--all", "--dir", dir_arg]),
        0
    );

    let corrupted = text.replace("total_bits = 103936", "total_bits = 103937");
    assert_ne!(corrupted, text, "the golden to corrupt is pinned");
    std::fs::write(&dst, corrupted).unwrap();
    let out = tmc(&["scenario", "check", "--all", "--dir", dir_arg]);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stdout).contains("FAIL private-baseline"));
}

/// `tmc scenario check` with `argv`, once serially and once on two
/// workers: the two runs must print the same bytes and exit alike.
fn check_serial_and_pooled(argv: &[&str]) -> Output {
    let serial = tmc(&[argv, &["--threads", "1"]].concat());
    let pooled = tmc(&[argv, &["--threads", "2"]].concat());
    assert_eq!(
        String::from_utf8_lossy(&serial.stdout),
        String::from_utf8_lossy(&pooled.stdout),
        "tmc {}: --threads 1 and 2 print differently",
        argv.join(" ")
    );
    assert_eq!(serial.status.code(), pooled.status.code());
    pooled
}

#[test]
fn pooled_check_of_the_corpus_matches_the_serial_one() {
    let out = check_serial_and_pooled(&["scenario", "check", "--all"]);
    assert_eq!(out.status.code(), Some(0));
}

#[test]
fn pooled_check_reports_a_failure_at_its_corpus_position() {
    let dir = std::env::temp_dir().join(format!("tmc-cli-pool-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let corpus = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios");
    // Corpus order is file-name order: the corrupted scenario is third.
    let names = [
        "iriw",
        "migratory-8",
        "private-baseline",
        "producer-consumer",
        "stencil-8",
    ];
    for name in names {
        let file = format!("{name}.tmcs");
        let mut text = std::fs::read_to_string(corpus.join(&file)).unwrap();
        if name == "private-baseline" {
            let corrupted = text.replace("total_bits = 103936", "total_bits = 103937");
            assert_ne!(corrupted, text, "the golden to corrupt is pinned");
            text = corrupted;
        }
        std::fs::write(dir.join(&file), text).unwrap();
    }
    let dir_arg = dir.to_str().unwrap();
    let out = check_serial_and_pooled(&["scenario", "check", "--all", "--dir", dir_arg]);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8(out.stdout).unwrap();
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), names.len() + 1, "{stdout}");
    for (line, name) in lines.iter().zip(names) {
        let verdict = if name == "private-baseline" {
            "FAIL"
        } else {
            "ok  "
        };
        assert!(
            line.starts_with(&format!("{verdict} {name} ")),
            "{name}: {line}"
        );
    }
}

#[test]
fn help_lists_every_subcommand_and_exits_0() {
    let out = tmc(&["--help"]);
    assert_eq!(out.status.code(), Some(0));
    let help = String::from_utf8(out.stdout).unwrap();
    for sub in [
        "paper", "scenario", "fuzz", "chaos", "crashsim", "trace", "replay", "sweep",
    ] {
        assert!(
            help.contains(&format!("\n  {sub} ")),
            "{sub} missing:\n{help}"
        );
    }
    for name in tmc_bench::paper::NAMES {
        assert!(help.contains(name), "paper {name} missing:\n{help}");
    }
}
