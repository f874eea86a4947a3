//! Loading `.tmcs` corpora from disk: the committed scenario corpus and
//! the conformance reproducers.
//!
//! Scenario files use the `.tmcs` extension and live in `scenarios/` at
//! the repository root; [`default_dir`] resolves it relative to this
//! crate so the sweep works from any working directory.
//!
//! Every real bug the conformance fuzzer has found lives on under
//! `conformance/corpus/` ([`reproducer_dir`]) as a minimized scenario
//! file: the full case, with the tripped engine pair recorded as
//! `pair = <name>` in the `[scenario]` section and a free-form `note`
//! rationale. [`run_dir`] replays every file and requires every pair to
//! hold — a fixed bug that regresses fails CI with its original minimal
//! reproducer, and every reproducer doubles as input to `tmc scenario run`.

use std::fs;
use std::path::{Path, PathBuf};

use crate::outcome::Divergence;
use crate::pairs::{check_case, check_pair, Pair};
use crate::parse::parse;
use crate::spec::Scenario;

/// The committed corpus directory, `scenarios/` at the repository root.
pub fn default_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios")
}

/// The committed conformance reproducers, `conformance/corpus/` at the
/// repository root.
pub fn reproducer_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../conformance/corpus")
}

/// Loads and parses one scenario file.
///
/// # Errors
///
/// Returns `"<path>: <error>"` on I/O or parse failure.
pub(crate) fn load_file(path: &Path) -> Result<Scenario, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Loads every `.tmcs` file in `dir`, sorted by file name.
///
/// # Errors
///
/// Returns the first unreadable or unparsable file, or a duplicate
/// scenario name.
pub fn load_dir(dir: &Path) -> Result<Vec<(PathBuf, Scenario)>, String> {
    let paths = tmcs_paths(dir)?;
    let mut out = Vec::with_capacity(paths.len());
    for path in paths {
        let sc = load_file(&path)?;
        if out
            .iter()
            .any(|(_, s): &(PathBuf, Scenario)| s.name == sc.name)
        {
            return Err(format!(
                "{}: duplicate scenario name `{}`",
                path.display(),
                sc.name
            ));
        }
        out.push((path, sc));
    }
    Ok(out)
}

/// Every `.tmcs` file in `dir`, sorted by file name.
///
/// # Errors
///
/// Returns `"<dir>: <error>"` when the directory cannot be read.
pub(crate) fn tmcs_paths(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let mut paths: Vec<PathBuf> = fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "tmcs"))
        .collect();
    paths.sort();
    Ok(paths)
}

/// Summary of one reproducer replay.
#[derive(Debug, Clone, Default)]
pub struct CorpusReport {
    /// Entries replayed.
    pub entries: usize,
    /// Failures, as `(path, divergence)`.
    pub failures: Vec<(PathBuf, Divergence)>,
}

/// Serializes a minimized reproducer as a `.tmcs` scenario named
/// `<pair>-seed<seed>`, with the tripped pair and `note` recorded.
pub fn entry_text(sc: &Scenario, pair: Pair, note: &str) -> String {
    Scenario {
        name: format!("{}-seed{}", pair.name(), sc.seed),
        pair: Some(pair.name().to_string()),
        note: note.to_string(),
        ..sc.clone()
    }
    .encode()
}

/// Writes a minimized reproducer under `dir` as
/// `<pair>-seed<seed>.tmcs`.
///
/// # Errors
///
/// Propagates filesystem errors as messages.
pub fn save(dir: &Path, sc: &Scenario, pair: Pair, note: &str) -> Result<PathBuf, String> {
    fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let path = dir.join(format!("{}-seed{}.tmcs", pair.name(), sc.seed));
    fs::write(&path, entry_text(sc, pair, note)).map_err(|e| e.to_string())?;
    Ok(path)
}

/// Replays every reproducer in `dir`: the recorded pair when present,
/// otherwise every applicable pair. An absent directory is an empty
/// corpus, not an error.
///
/// # Errors
///
/// Fails on unreadable or malformed entries (divergences are *reported*,
/// not errors — see [`CorpusReport::failures`]).
pub fn run_dir(dir: &Path) -> Result<CorpusReport, String> {
    let mut report = CorpusReport::default();
    if !dir.exists() {
        return Ok(report);
    }
    for (path, sc) in load_dir(dir)? {
        report.entries += 1;
        let result = match sc.pair.as_deref().and_then(Pair::parse) {
            Some(pair) => check_pair(&sc, pair),
            None => check_case(&sc).map(|_| ()),
        };
        if let Err(d) = result {
            report.failures.push((path, d));
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::generate_case;

    #[test]
    fn default_dir_points_at_scenarios() {
        assert!(default_dir().ends_with("../../scenarios"));
    }

    #[test]
    fn save_load_roundtrip() {
        let dir = std::env::temp_dir().join("tmc-conformance-corpus-test");
        let _ = fs::remove_dir_all(&dir);
        let case = generate_case(9);
        let path = save(&dir, &case, Pair::SerialVsReplay, "unit test").unwrap();
        assert!(path.extension().is_some_and(|x| x == "tmcs"));
        let sc = load_file(&path).unwrap();
        let want = Scenario {
            name: format!("serial-vs-replay-seed{}", case.seed),
            pair: Some(Pair::SerialVsReplay.name().to_string()),
            note: "unit test".into(),
            ..case
        };
        assert_eq!(sc, want);
        assert_eq!(load_dir(&dir).unwrap().len(), 1);
        assert_eq!(run_dir(&dir).unwrap().entries, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn entry_text_is_a_named_scenario() {
        let case = generate_case(3);
        let text = entry_text(&case, Pair::SerialVsReplay, "why it tripped");
        let sc = parse(&text).unwrap();
        assert_eq!(sc.name, format!("serial-vs-replay-seed{}", case.seed));
        assert_eq!(sc.pair.as_deref(), Some("serial-vs-replay"));
        assert_eq!(sc.note, "why it tripped");
    }

    #[test]
    fn missing_dir_is_an_empty_corpus() {
        let report = run_dir(Path::new("/nonexistent/tmc-corpus")).unwrap();
        assert_eq!(report.entries, 0);
        assert!(report.failures.is_empty());
    }
}
