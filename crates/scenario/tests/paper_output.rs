//! Byte-for-byte pins of what the paper and tool commands print: the
//! length and FNV-1a of stdout for every `tmc paper <name> --threads 1`,
//! `tmc sweep` with default arguments, `tmc replay` of `shared-8p.trace`,
//! and the chaos and crashsim smoke runs. The values were recorded from
//! the standalone figure and tool programs these subcommands replaced, so
//! a change here is a change to a published table, not a refactor.

use std::path::Path;
use std::process::Command;

use tmc_obs::fnv1a64;

/// `(paper name, stdout length, FNV-1a of stdout)` of
/// `tmc paper <name> --threads 1`.
const PAPER: &[(&str, usize, u64)] = &[
    ("fig3", 489, 0x9fe02f29cd1c82b9),
    ("fig5", 935, 0x2829e624edd051a1),
    ("fig6", 748, 0xeeaf94642048ca3e),
    ("fig7", 960, 0xff91dfdf4cd48e3e),
    ("fig8", 6783, 0xaa7cde7bab209996),
    ("sim-fig8", 1374, 0x7da71ddf9ea7dd15),
    ("table1", 1277, 0x6ea1ec118fbaa9a8),
    ("table2", 1188, 0x1cecbcb9221492b0),
    ("table3", 796, 0x513b8fd5db240bad),
    ("table4", 793, 0x334634767b4bc028),
    ("radix-sweep", 1250, 0x958b2c2d6b839597),
    ("regime-map", 635, 0x7cfb4138ba6228c8),
    ("ablation", 1310, 0xcd0466db30a1f86d),
    ("migration", 1075, 0xb95722b108daaba5),
    ("state-memory", 1095, 0x781655c85c1e05d5),
];

/// `(arguments, stdout length, FNV-1a of stdout)` of the tool commands.
const TOOLS: &[(&str, usize, u64)] = &[
    ("sweep", 251, 0x78b406d4756d9acd),
    (
        "replay shared-8p.trace all --threads 1",
        552,
        0x0750386dcd78c451,
    ),
    ("replay shared-8p.trace", 1401, 0x24fe1280ef342c55),
    ("chaos --smoke", 774, 0x49ea266d3a2334bc),
    ("crashsim --smoke", 714, 0xef3115dfec63413f),
];

/// Runs `tmc` from this directory (where `shared-8p.trace` lives) and
/// returns its stdout.
fn tmc(argv: &[&str]) -> Vec<u8> {
    let out = Command::new(env!("CARGO_BIN_EXE_tmc"))
        .args(argv)
        .current_dir(Path::new(env!("CARGO_MANIFEST_DIR")).join("tests"))
        .output()
        .expect("spawn tmc");
    assert!(
        out.status.success(),
        "tmc {}: {}",
        argv.join(" "),
        String::from_utf8_lossy(&out.stderr)
    );
    out.stdout
}

#[test]
fn outputs_match_the_pinned_bytes() {
    let paper = PAPER
        .iter()
        .map(|&(name, len, digest)| (format!("paper {name} --threads 1"), len, digest));
    let tools = TOOLS
        .iter()
        .map(|&(cmd, len, digest)| (cmd.to_string(), len, digest));
    let diverged: Vec<String> = paper
        .chain(tools)
        .filter_map(|(cmd, len, digest)| {
            let out = tmc(&cmd.split(' ').collect::<Vec<_>>());
            let got = (out.len(), fnv1a64(&out));
            (got != (len, digest)).then(|| {
                format!(
                    "tmc {cmd}: ({}, {:#018x}), pinned ({len}, {digest:#018x})",
                    got.0, got.1
                )
            })
        })
        .collect();
    assert!(diverged.is_empty(), "{}", diverged.join("\n"));
}

#[test]
fn every_paper_name_is_pinned() {
    let pinned: Vec<&str> = PAPER.iter().map(|&(name, ..)| name).collect();
    assert_eq!(pinned, tmc_bench::paper::NAMES);
    let out = Command::new(env!("CARGO_BIN_EXE_tmc"))
        .args(["paper", "latency"])
        .output()
        .expect("spawn tmc");
    assert_eq!(
        out.status.code(),
        Some(2),
        "an unknown name is a usage error"
    );
    assert!(out.stdout.is_empty());
}
