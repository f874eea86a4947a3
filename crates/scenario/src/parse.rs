//! The `.tmcs` parser: line/column-addressed errors, strict keys.
//!
//! The format is line-based: `[section]` headers, `key = value` pairs,
//! `#` comments and blank lines. Sections are `[scenario]`, `[machine]`,
//! `[workload]`, `[modes]`, `[faults]`, `[checkpoint]`, `[analytic]`,
//! `[ops]` and `[expect]`. Every unknown section, unknown key, malformed value and
//! semantic violation (non-power-of-two machine, out-of-range fraction,
//! invalid fault plan, op naming a processor the machine does not have)
//! is rejected with the 1-based line and column of the offending token —
//! the error contract the negative-parse suite pins.

use std::fmt;

use tmc_bench::script::ScriptOp;
use tmc_bench::tracecheck::{parse_policy, parse_scheme_kind};
use tmc_core::ModePolicy;
use tmc_memsys::WordAddr;

use crate::spec::{
    parse_mode, parse_placement, Analytic, Checkpoint, Expect, Family, Faults, ModeDirective,
    Scenario, Workload,
};

/// A parse failure, addressed to the offending token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line of the offending token.
    pub line: usize,
    /// 1-based column of the offending token.
    pub col: usize,
    /// What went wrong.
    pub msg: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}, col {}: {}", self.line, self.col, self.msg)
    }
}

impl std::error::Error for ParseError {}

fn err<T>(line: usize, col: usize, msg: impl Into<String>) -> Result<T, ParseError> {
    Err(ParseError {
        line,
        col,
        msg: msg.into(),
    })
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Section {
    Scenario,
    Machine,
    Workload,
    Modes,
    Faults,
    Checkpoint,
    Analytic,
    Ops,
    Expect,
}

impl Section {
    fn parse(s: &str) -> Option<Section> {
        match s {
            "scenario" => Some(Section::Scenario),
            "machine" => Some(Section::Machine),
            "workload" => Some(Section::Workload),
            "modes" => Some(Section::Modes),
            "faults" => Some(Section::Faults),
            "checkpoint" => Some(Section::Checkpoint),
            "analytic" => Some(Section::Analytic),
            "ops" => Some(Section::Ops),
            "expect" => Some(Section::Expect),
            _ => None,
        }
    }
}

/// One `key = value` line with the positions the error contract needs.
struct Pair<'a> {
    line: usize,
    key: &'a str,
    key_col: usize,
    val: &'a str,
    val_col: usize,
}

impl Pair<'_> {
    fn bad<T>(&self, what: &str) -> Result<T, ParseError> {
        err(
            self.line,
            self.val_col,
            format!("bad {what}: {:?}", self.val),
        )
    }

    fn parse<T: std::str::FromStr>(&self, what: &str) -> Result<T, ParseError> {
        self.val.parse().or_else(|_| self.bad(what))
    }
}

/// A source position remembered for a post-pass semantic check.
#[derive(Clone, Copy)]
struct At {
    line: usize,
    col: usize,
}

/// Parses scenario text.
///
/// # Errors
///
/// Returns the first [`ParseError`], addressed to the offending token.
pub fn parse(text: &str) -> Result<Scenario, ParseError> {
    let mut sc = Scenario::new("");
    let mut section: Option<Section> = None;
    let mut seen: Vec<Section> = Vec::new();
    let mut tasks_at: Option<At> = None;
    let mut faults_at: Option<At> = None;
    let mut op_ats: Vec<At> = Vec::new();

    for (i, raw) in text.lines().enumerate() {
        let line_no = i + 1;
        let trimmed = raw.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let start_col = raw.len() - raw.trim_start().len() + 1;

        if let Some(body) = trimmed.strip_prefix('[') {
            let Some(name) = body.strip_suffix(']') else {
                return err(line_no, start_col, "unterminated section header");
            };
            let Some(s) = Section::parse(name) else {
                return err(line_no, start_col + 1, format!("unknown section [{name}]"));
            };
            if seen.contains(&s) {
                return err(
                    line_no,
                    start_col + 1,
                    format!("duplicate section [{name}]"),
                );
            }
            seen.push(s);
            section = Some(s);
            if s == Section::Faults {
                sc.faults = Some(Faults::default());
                faults_at = Some(At {
                    line: line_no,
                    col: start_col,
                });
            }
            if s == Section::Checkpoint {
                sc.checkpoint = Some(Checkpoint::default());
            }
            if s == Section::Analytic {
                sc.analytic = Some(Analytic {
                    n_tasks: 2,
                    w: 0.2,
                    refs: 1000,
                    warmup: 200,
                });
            }
            continue;
        }

        let Some(s) = section else {
            return err(
                line_no,
                start_col,
                "expected a [section] header before any key",
            );
        };

        let Some(eq) = raw.find('=') else {
            return err(line_no, start_col, "expected `key = value`");
        };
        let key_part = &raw[..eq];
        let key = key_part.trim();
        let key_col = key_part.len() - key_part.trim_start().len() + 1;
        let val_part = &raw[eq + 1..];
        let val = val_part.trim();
        let val_col = eq + 1 + (val_part.len() - val_part.trim_start().len()) + 1;
        if key.is_empty() {
            return err(line_no, start_col, "expected a key before `=`");
        }
        if val.is_empty() {
            return err(line_no, val_col, format!("key `{key}` has no value"));
        }
        let p = Pair {
            line: line_no,
            key,
            key_col,
            val,
            val_col,
        };

        match s {
            Section::Scenario => parse_scenario_key(&mut sc, &p)?,
            Section::Machine => parse_machine_key(&mut sc, &p)?,
            Section::Workload => parse_workload_key(&mut sc, &p, &mut tasks_at)?,
            Section::Modes => parse_modes_key(&mut sc, &p)?,
            Section::Faults => parse_faults_key(&mut sc, &p)?,
            Section::Checkpoint => parse_checkpoint_key(&mut sc, &p)?,
            Section::Analytic => parse_analytic_key(&mut sc, &p)?,
            Section::Ops => {
                parse_ops_key(&mut sc, &p)?;
                op_ats.push(At {
                    line: p.line,
                    col: p.val_col,
                });
            }
            Section::Expect => parse_expect_key(&mut sc.expect, &p)?,
        }
    }

    // Post-pass semantic checks that need more than one section.
    if sc.name.is_empty() {
        return err(1, 1, "scenario has no name (set `name` in [scenario])");
    }
    if let Some(w) = &sc.workload {
        if w.tasks > sc.machine.n_caches {
            let at = tasks_at.unwrap_or(At { line: 1, col: 1 });
            return err(
                at.line,
                at.col,
                format!(
                    "workload has {} tasks but the machine has only {} processors",
                    w.tasks, sc.machine.n_caches
                ),
            );
        }
    }
    for (op, at) in sc.ops.iter().zip(&op_ats) {
        let proc = match *op {
            ScriptOp::Read { proc, .. }
            | ScriptOp::Write { proc, .. }
            | ScriptOp::SetMode { proc, .. } => proc,
        };
        if proc >= sc.machine.n_caches {
            return err(
                at.line,
                at.col,
                format!(
                    "op names processor {proc} but the machine has only {} processors",
                    sc.machine.n_caches
                ),
            );
        }
    }
    if let (Some(f), Some(at)) = (&sc.faults, faults_at) {
        if let Err(e) = f.to_spec().validate() {
            return err(at.line, at.col, format!("invalid fault plan: {e}"));
        }
    }
    Ok(sc)
}

fn unknown_key<T>(p: &Pair<'_>, section: &str) -> Result<T, ParseError> {
    err(
        p.line,
        p.key_col,
        format!("unknown key `{}` in [{section}]", p.key),
    )
}

fn parse_scenario_key(sc: &mut Scenario, p: &Pair<'_>) -> Result<(), ParseError> {
    match p.key {
        "name" => sc.name = p.val.to_string(),
        "note" => sc.note = p.val.to_string(),
        "seed" => sc.seed = p.parse("seed")?,
        "pair" => sc.pair = Some(p.val.to_string()),
        _ => return unknown_key(p, "scenario"),
    }
    Ok(())
}

fn parse_machine_key(sc: &mut Scenario, p: &Pair<'_>) -> Result<(), ParseError> {
    let m = &mut sc.machine;
    match p.key {
        "n_caches" => {
            let n: usize = p.parse("n_caches")?;
            if !n.is_power_of_two() || !(2..=65536).contains(&n) {
                return err(
                    p.line,
                    p.val_col,
                    format!("n_caches must be a power of two in 2..=65536, got {n}"),
                );
            }
            m.n_caches = n;
        }
        "sets" => {
            let sets: usize = p.parse("sets")?;
            if !sets.is_power_of_two() {
                return err(
                    p.line,
                    p.val_col,
                    format!("sets must be a power of two, got {sets}"),
                );
            }
            m.sets = sets;
        }
        "ways" => {
            let ways: usize = p.parse("ways")?;
            if ways == 0 {
                return err(p.line, p.val_col, "ways must be >= 1");
            }
            m.ways = ways;
        }
        "words_log2" => {
            let w: u32 = p.parse("words_log2")?;
            if w > 12 {
                return err(
                    p.line,
                    p.val_col,
                    format!("words_log2 must be <= 12, got {w}"),
                );
            }
            m.words_log2 = w;
        }
        "scheme" => {
            m.scheme = parse_scheme_kind(p.val).map_or_else(
                || p.bad("scheme (known: replicated, bitvector, broadcast-tag, combined)"),
                Ok,
            )?;
        }
        "policy" => {
            let policy = parse_policy(p.val).map_or_else(
                || p.bad("policy (known: fixed-dw, fixed-gr, adaptive:<window>)"),
                Ok,
            )?;
            if let ModePolicy::Adaptive { window } = policy {
                if window < 2 {
                    return err(
                        p.line,
                        p.val_col,
                        format!("adaptive window must be >= 2, got {window}"),
                    );
                }
            }
            m.policy = policy;
        }
        "owner_bypass" => m.owner_bypass = p.parse("owner_bypass (true/false)")?,
        _ => return unknown_key(p, "machine"),
    }
    Ok(())
}

fn fraction(p: &Pair<'_>, what: &str) -> Result<f64, ParseError> {
    let v: f64 = p.parse(what)?;
    if !(0.0..=1.0).contains(&v) {
        return err(
            p.line,
            p.val_col,
            format!("{what} must be in [0, 1], got {v}"),
        );
    }
    Ok(v)
}

fn parse_workload_key(
    sc: &mut Scenario,
    p: &Pair<'_>,
    tasks_at: &mut Option<At>,
) -> Result<(), ParseError> {
    if p.key == "family" {
        if sc.workload.is_some() {
            return err(p.line, p.key_col, "duplicate `family` key in [workload]");
        }
        let Some(family) = Family::parse(p.val) else {
            return p
                .bad("family (known: shared-block, stencil, private, hotspot, migratory, zipf)");
        };
        sc.workload = Some(Workload::new(family));
        return Ok(());
    }
    let Some(w) = sc.workload.as_mut() else {
        return err(
            p.line,
            p.key_col,
            "`family` must be the first key of [workload]",
        );
    };
    match p.key {
        "seed" => w.seed = p.parse("seed")?,
        "tasks" => {
            let t: usize = p.parse("tasks")?;
            if t == 0 {
                return err(p.line, p.val_col, "tasks must be >= 1");
            }
            w.tasks = t;
            *tasks_at = Some(At {
                line: p.line,
                col: p.val_col,
            });
        }
        "placement" => {
            w.placement = parse_placement(p.val).map_or_else(
                || p.bad("placement (known: adjacent[:base], strided:<base>:<stride>, random)"),
                Ok,
            )?;
        }
        key if w.family.allowed_keys().contains(&key) => match key {
            "blocks" => w.blocks = nonzero_u64(p, "blocks")?,
            "write_fraction" => w.write_fraction = fraction(p, "write_fraction")?,
            "references" => {
                let v: usize = p.parse("references")?;
                if v > Workload::MAX_REFERENCES {
                    return err(
                        p.line,
                        p.val_col,
                        format!(
                            "references must be in 0..={}, got {v}",
                            Workload::MAX_REFERENCES
                        ),
                    );
                }
                w.references = v;
            }
            "rows_per_task" => w.rows_per_task = nonzero_usize(p, "rows_per_task")?,
            "iterations" => w.iterations = nonzero_usize(p, "iterations")?,
            "blocks_per_task" => w.blocks_per_task = nonzero_u64(p, "blocks_per_task")?,
            "hot_fraction" => w.hot_fraction = fraction(p, "hot_fraction")?,
            "any_writer" => w.any_writer = p.parse("any_writer (true/false)")?,
            "hot_block" => w.hot_block = p.parse("hot_block")?,
            "period" => w.period = nonzero_usize(p, "period")?,
            "users" => {
                let v = nonzero_u64(p, "users")?;
                if v > Workload::MAX_USERS {
                    return err(
                        p.line,
                        p.val_col,
                        format!("users must be in 1..={}, got {v}", Workload::MAX_USERS),
                    );
                }
                w.users = v;
            }
            "theta" => {
                let v: f64 = p.parse("theta")?;
                if !(0.0..1.0).contains(&v) {
                    return err(
                        p.line,
                        p.val_col,
                        format!("theta must be in [0, 1), got {v}"),
                    );
                }
                w.theta = v;
            }
            "tenants" => w.tenants = nonzero_u64(p, "tenants")?,
            "blocks_per_tenant" => w.blocks_per_tenant = nonzero_u64(p, "blocks_per_tenant")?,
            _ => unreachable!("allowed key {key} not handled"),
        },
        _ => {
            return err(
                p.line,
                p.key_col,
                format!(
                    "key `{}` does not apply to the `{}` family (allowed: {})",
                    p.key,
                    w.family.name(),
                    w.family.allowed_keys().join(", ")
                ),
            )
        }
    }
    Ok(())
}

fn nonzero_u64(p: &Pair<'_>, what: &str) -> Result<u64, ParseError> {
    let v: u64 = p.parse(what)?;
    if v == 0 {
        return err(p.line, p.val_col, format!("{what} must be >= 1"));
    }
    Ok(v)
}

fn nonzero_usize(p: &Pair<'_>, what: &str) -> Result<usize, ParseError> {
    let v: usize = p.parse(what)?;
    if v == 0 {
        return err(p.line, p.val_col, format!("{what} must be >= 1"));
    }
    Ok(v)
}

fn parse_modes_key(sc: &mut Scenario, p: &Pair<'_>) -> Result<(), ParseError> {
    if p.key != "mode" {
        return unknown_key(p, "modes");
    }
    let f: Vec<&str> = p.val.split_whitespace().collect();
    let directive = (|| -> Option<ModeDirective> {
        match f[..] {
            [block, mode] => Some(ModeDirective {
                block: block.parse().ok()?,
                mode: parse_mode(mode)?,
            }),
            _ => None,
        }
    })();
    let Some(d) = directive else {
        return p.bad("mode directive (want `mode = <block> dw|gr`)");
    };
    sc.modes.push(d);
    Ok(())
}

fn parse_faults_key(sc: &mut Scenario, p: &Pair<'_>) -> Result<(), ParseError> {
    let f = sc.faults.as_mut().expect("section sets default");
    match p.key {
        "seed" => f.seed = p.parse("seed")?,
        "count" => f.count = p.parse("count")?,
        "horizon" => f.horizon = p.parse("horizon")?,
        "mean_outage" => f.mean_outage = p.parse("mean_outage")?,
        "max_retries" => {
            let r: u32 = p.parse("max_retries")?;
            if r > 32 {
                return err(
                    p.line,
                    p.val_col,
                    format!("max_retries must be <= 32, got {r}"),
                );
            }
            f.max_retries = r;
        }
        "backoff_base" => f.backoff_base = p.parse("backoff_base")?,
        _ => return unknown_key(p, "faults"),
    }
    Ok(())
}

fn parse_checkpoint_key(sc: &mut Scenario, p: &Pair<'_>) -> Result<(), ParseError> {
    let c = sc.checkpoint.as_mut().expect("section sets default");
    match p.key {
        "every" => c.every = nonzero_u64(p, "every")?,
        _ => return unknown_key(p, "checkpoint"),
    }
    Ok(())
}

fn parse_analytic_key(sc: &mut Scenario, p: &Pair<'_>) -> Result<(), ParseError> {
    let a = sc.analytic.as_mut().expect("section sets default");
    match p.key {
        "n_tasks" => a.n_tasks = nonzero_usize(p, "n_tasks")?,
        "w" => a.w = fraction(p, "w")?,
        "refs" => a.refs = nonzero_usize(p, "refs")?,
        "warmup" => a.warmup = p.parse("warmup")?,
        _ => return unknown_key(p, "analytic"),
    }
    Ok(())
}

fn parse_ops_key(sc: &mut Scenario, p: &Pair<'_>) -> Result<(), ParseError> {
    if p.key != "op" {
        return unknown_key(p, "ops");
    }
    let f: Vec<&str> = p.val.split_whitespace().collect();
    let op = (|| -> Option<ScriptOp> {
        match f[..] {
            ["R", proc, addr] => Some(ScriptOp::Read {
                proc: proc.parse().ok()?,
                addr: WordAddr::new(addr.parse().ok()?),
            }),
            ["W", proc, addr, value] => Some(ScriptOp::Write {
                proc: proc.parse().ok()?,
                addr: WordAddr::new(addr.parse().ok()?),
                value: value.parse().ok()?,
            }),
            ["M", proc, addr, mode] => Some(ScriptOp::SetMode {
                proc: proc.parse().ok()?,
                addr: WordAddr::new(addr.parse().ok()?),
                mode: parse_mode(mode)?,
            }),
            _ => None,
        }
    })();
    let Some(op) = op else {
        return p.bad(
            "op (want `R <proc> <addr>`, `W <proc> <addr> <value>` or `M <proc> <addr> dw|gr`)",
        );
    };
    sc.ops.push(op);
    Ok(())
}

fn parse_u64_maybe_hex(p: &Pair<'_>, what: &str) -> Result<u64, ParseError> {
    let parsed = match p.val.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => p.val.parse().ok(),
    };
    parsed.map_or_else(|| p.bad(what), Ok)
}

fn parse_expect_key(expect: &mut Expect, p: &Pair<'_>) -> Result<(), ParseError> {
    match p.key {
        "fingerprint" => expect.fingerprint = Some(parse_u64_maybe_hex(p, "fingerprint")?),
        "total_bits" => expect.total_bits = Some(parse_u64_maybe_hex(p, "total_bits")?),
        "link_checksum" => expect.link_checksum = Some(parse_u64_maybe_hex(p, "link_checksum")?),
        "reads_checksum" => expect.reads_checksum = Some(parse_u64_maybe_hex(p, "reads_checksum")?),
        "events" => expect.events = Some(parse_u64_maybe_hex(p, "events")?),
        "ops" => expect.ops = Some(parse_u64_maybe_hex(p, "ops")?),
        "counter" => {
            let f: Vec<&str> = p.val.split_whitespace().collect();
            let parsed = match f[..] {
                [name, value] => value.parse().ok().map(|v: u64| (name.to_string(), v)),
                _ => None,
            };
            let Some((name, v)) = parsed else {
                return p.bad("counter (want `counter = <name> <value>`)");
            };
            expect.counters.insert(name, v);
        }
        _ => return unknown_key(p, "expect"),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{Faults, ModeDirective};
    use tmc_core::Mode;

    const MINIMAL: &str = "[scenario]\nname = minimal\n";

    #[test]
    fn minimal_scenario_parses() {
        let sc = parse(MINIMAL).unwrap();
        assert_eq!(sc.name, "minimal");
        assert_eq!(sc.machine.n_caches, 4);
        assert!(sc.workload.is_none() && sc.faults.is_none());
    }

    #[test]
    fn encode_parse_roundtrip() {
        let mut sc = Scenario::new("roundtrip");
        sc.note = "full-featured scenario".into();
        sc.seed = 42;
        sc.machine.n_caches = 16;
        sc.machine.sets = 8;
        sc.machine.ways = 2;
        let mut w = Workload::new(Family::Zipf);
        w.tasks = 8;
        w.theta = 0.75;
        w.users = 5000;
        sc.workload = Some(w);
        sc.modes.push(ModeDirective {
            block: 7,
            mode: Mode::DistributedWrite,
        });
        sc.ops.push(ScriptOp::Write {
            proc: 3,
            addr: WordAddr::new(44),
            value: 9,
        });
        sc.expect.fingerprint = Some(0xdead_beef);
        sc.expect.counters.insert("reads".into(), 120);
        let text = sc.encode();
        let back = parse(&text).unwrap_or_else(|e| panic!("{e} in:\n{text}"));
        assert_eq!(back, sc);
    }

    #[test]
    fn faults_roundtrip_and_engine_admission() {
        let mut sc = Scenario::new("faulty");
        sc.faults = Some(Faults {
            seed: 5,
            count: 12,
            horizon: 800,
            mean_outage: 32,
            max_retries: 4,
            backoff_base: 16,
        });
        let text = sc.encode();
        assert_eq!(parse(&text).unwrap(), sc);

        let bad = format!("{text}\n[scenario2]");
        assert!(parse(&bad).is_err());

        // A scenario cannot pick its engines: every one runs the serial
        // engine, and replay joins when it is fault-free.
        let with_engines = text.replace("name = faulty", "name = faulty\nengines = serial");
        let e = parse(&with_engines).unwrap_err();
        assert_eq!((e.line, e.col), (4, 1));
        assert!(e.msg.contains("unknown key `engines` in [scenario]"), "{e}");
    }

    #[test]
    fn checkpoint_roundtrip_and_validation() {
        let mut sc = Scenario::new("journaled");
        sc.checkpoint = Some(Checkpoint { every: 250 });
        let text = sc.encode();
        assert_eq!(parse(&text).unwrap(), sc);

        // Bare section header takes the default cadence.
        let bare = parse("[scenario]\nname = x\n[checkpoint]\n").unwrap();
        assert_eq!(bare.checkpoint, Some(Checkpoint::default()));

        let e = parse("[scenario]\nname = x\n[checkpoint]\nevery = 0\n").unwrap_err();
        assert_eq!((e.line, e.col), (4, 9));
        assert!(e.msg.contains("every must be >= 1"), "{e}");
    }

    #[test]
    fn errors_carry_line_and_column() {
        let text = "[scenario]\nname = x\n[machine]\nn_caches = 12\n";
        let e = parse(text).unwrap_err();
        assert_eq!((e.line, e.col), (4, 12));
        assert!(e.msg.contains("power of two"), "{e}");

        let text = "[scenario]\nname = x\n[machine]\n  frob = 1\n";
        let e = parse(text).unwrap_err();
        assert_eq!((e.line, e.col), (4, 3));
        assert!(e.msg.contains("unknown key `frob`"), "{e}");
    }

    #[test]
    fn op_processor_bounds_are_checked() {
        let text = "[scenario]\nname = x\n[machine]\nn_caches = 4\n[ops]\nop = R 7 0\n";
        let e = parse(text).unwrap_err();
        assert_eq!(e.line, 6);
        assert!(e.msg.contains("processor 7"), "{e}");
    }
}
