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
        &["sweep", "dw", "1", "1"],
        &["sweep", "all", "131072", "8"],
        &["sweep", "dw", "16", "0"],
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

/// Scenarios named on the command line are found beside files that do
/// not parse: only a named file's own parse error stops the run, while
/// `--all` still fails on any file.
#[test]
fn a_named_run_reports_only_the_named_files_parse_error() {
    let fixtures = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let fixtures_arg = fixtures.to_str().unwrap();
    let out = tmc(&[
        "scenario",
        "run",
        "users-beyond-bound",
        "--dir",
        fixtures_arg,
    ]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("users must be in 1..=268435456"),
        "{stderr}"
    );

    let dir = std::env::temp_dir().join(format!("tmc-cli-named-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let corpus = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios");
    std::fs::copy(
        corpus.join("private-baseline.tmcs"),
        dir.join("private-baseline.tmcs"),
    )
    .unwrap();
    std::fs::copy(fixtures.join("bad-bool.tmcs"), dir.join("bad-bool.tmcs")).unwrap();
    let dir_arg = dir.to_str().unwrap();
    let named = exit_code(&["scenario", "run", "private-baseline", "--dir", dir_arg]);
    let all = exit_code(&["scenario", "check", "--all", "--dir", dir_arg]);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(named, 0);
    assert_eq!(all, 1);
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
        "paper", "scenario", "fuzz", "crashsim", "trace", "replay", "sweep",
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

/// `tmc trace check` reports a trace it cannot turn into a machine as
/// malformed, and keeps `replay FAILED` for a replay that diverges; both
/// exit 1.
#[test]
fn trace_check_tells_a_malformed_header_from_a_divergence() {
    let dir = std::env::temp_dir().join(format!("tmc-cli-trace-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("canonical.jsonl");
    let path_arg = path.to_str().unwrap();
    assert_eq!(exit_code(&["trace", "capture", path_arg]), 0);
    let text = std::fs::read_to_string(&path).unwrap();
    assert_eq!(exit_code(&["trace", "check", path_arg]), 0);

    // The first read's recorded value, off by one.
    let read = text
        .lines()
        .find(|l| l.starts_with(r#"{"type":"read""#))
        .unwrap();
    let at = read.find(r#""value":"#).unwrap() + r#""value":"#.len();
    let digits = read[at..].find(|c: char| !c.is_ascii_digit()).unwrap();
    let value: u64 = read[at..at + digits].parse().unwrap();
    let bad_read = format!("{}{}{}", &read[..at], value + 1, &read[at + digits..]);

    for (from, to, want) in [
        (
            r#""sets":64"#,
            r#""sets":3"#,
            "error: malformed trace: cache geometry 3x4 invalid",
        ),
        (
            r#""scheme":"combined""#,
            r#""scheme":"morse""#,
            "error: malformed trace: unknown multicast scheme 'morse'",
        ),
        (
            r#""n_procs":16"#,
            r#""n_procs":12"#,
            "error: malformed trace: bad processor count 12",
        ),
        (read, bad_read.as_str(), "error: replay FAILED: event "),
    ] {
        let edited = text.replacen(from, to, 1);
        assert_ne!(edited, text, "{from} is in the capture");
        std::fs::write(&path, edited).unwrap();
        let out = tmc(&["trace", "check", path_arg]);
        assert_eq!(out.status.code(), Some(1), "{to}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.starts_with(want), "{to}: {stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The highest block-aligned word address: its block is far beyond the
/// machine's 2^32, so the page directories would have to grow to 2^54
/// entries to hold it.
const MAX_ADDR: u64 = 0xFFFF_FFFF_FFFF_FF00;

/// Runs `tmc` on a file holding `text`, named `name` in a fresh temporary
/// directory that `argv`'s `{dir}` and `{file}` stand for.
fn on_file(name: &str, text: &str, argv: &[&str]) -> Output {
    let dir = std::env::temp_dir().join(format!("tmc-cli-addr-{}-{name}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join(name);
    std::fs::write(&file, text).unwrap();
    let argv: Vec<String> = argv
        .iter()
        .map(|a| {
            a.replace("{dir}", dir.to_str().unwrap())
                .replace("{file}", file.to_str().unwrap())
        })
        .collect();
    let argv: Vec<&str> = argv.iter().map(String::as_str).collect();
    let out = tmc(&argv);
    let _ = std::fs::remove_dir_all(&dir);
    out
}

/// An address beyond the machine is an error naming it, exit 1 — not an
/// abort on a page-directory allocation.
fn assert_refuses_max_addr(out: &Output, want: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains(want) && stderr.contains("beyond the machine's 2^32 blocks"),
        "{stderr}"
    );
}

#[test]
fn replay_refuses_an_address_beyond_the_machine() {
    let trace = format!("tmctrace v1 procs=4\n0 W {MAX_ADDR:#X}\n");
    for protocol in ["all", "adaptive"] {
        let out = on_file("max.trace", &trace, &["replay", "{file}", protocol]);
        assert_refuses_max_addr(
            &out,
            &format!("reference 0: address {MAX_ADDR} ({MAX_ADDR:#x})"),
        );
    }
}

#[test]
fn scenario_run_refuses_an_address_beyond_the_machine() {
    let scenario = format!(
        "# tmc scenario\n[scenario]\nname = max-addr\n\n[machine]\nn_caches = 4\n\n\
         [ops]\nop = R 1 0\nop = W 0 {MAX_ADDR} 1\n"
    );
    let out = on_file(
        "max-addr.tmcs",
        &scenario,
        &["scenario", "run", "max-addr", "--dir", "{dir}"],
    );
    assert_refuses_max_addr(&out, &format!("max-addr: op #1: address {MAX_ADDR}"));
}

#[test]
fn trace_check_refuses_an_address_beyond_the_machine() {
    let capture = format!(
        concat!(
            r#"{{"type":"header","version":1,"n_procs":4,"sets":64,"ways":4,"words_log2":2,"#,
            r#""scheme":"combined","policy":"fixed-dw","owner_bypass":true}}"#,
            "\n",
            r#"{{"type":"write","proc":0,"addr":{},"value":1,"hit":false,"cost_bits":0,"#,
            r#""mode":"dw"}}"#,
            "\n",
            r#"{{"type":"trailer","events":1,"fingerprint":0,"total_bits":0,"links":[]}}"#,
            "\n"
        ),
        MAX_ADDR
    );
    let out = on_file("max.jsonl", &capture, &["trace", "check", "{file}"]);
    assert_refuses_max_addr(
        &out,
        &format!("error: replay FAILED: event 0: address {MAX_ADDR}"),
    );
}
