//! `--compare OLD NEW`: one row per workload and end-to-end metric,
//! judged against the bound `BENCHMARK.json` declares.
//!
//! A host-time metric is a regression when NEW's median is worse than
//! OLD's by more than the bound; when the spread between reps on either
//! side exceeds the bound the row is *unresolved* rather than unchanged,
//! unless every rep of NEW beats every rep of OLD. A simulated metric
//! must be bit-equal. Only regressions make the exit code nonzero.

use crate::json::Json;
use crate::manifest::{Manifest, MetricDecl, SIM_EXACT};
use crate::stats::iqr_share;

/// The verdict on one row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound, and the spread is small enough to say so.
    Ok,
    /// Better by more than the bound, or on every rep.
    Improved,
    /// The spread between reps is wider than the bound.
    Unresolved,
    /// Worse by more than the bound, or a simulated value differs.
    Regression,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Improved => "improved",
            Verdict::Unresolved => "unresolved",
            Verdict::Regression => "REGRESSION",
        }
    }
}

/// One side's reading of a metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Reading {
    /// The reported value (a median where there are samples).
    pub value: f64,
    /// Per-rep samples, if the metric has them.
    pub samples: Vec<f64>,
}

/// Judges one host-time metric.
pub fn judge(decl: &MetricDecl, old: &Reading, new: &Reading) -> Verdict {
    let bound = decl.bound.unwrap_or(0.0);
    // Positive = worse, as a share of the old value.
    let sign = if decl.higher_is_better { -1.0 } else { 1.0 };
    let worse_by = sign * (new.value - old.value) / old.value.abs();
    let spread = iqr_share(&old.samples).max(iqr_share(&new.samples));
    if spread > bound {
        let new_always_better = !old.samples.is_empty()
            && !new.samples.is_empty()
            && new
                .samples
                .iter()
                .all(|n| old.samples.iter().all(|o| sign * (n - o) < 0.0));
        return if new_always_better {
            Verdict::Improved
        } else {
            Verdict::Unresolved
        };
    }
    if worse_by > bound {
        Verdict::Regression
    } else if worse_by < -bound {
        Verdict::Improved
    } else {
        Verdict::Ok
    }
}

fn reading(run: &Json, section: &str, name: &str) -> Option<Reading> {
    let m = run.get(section)?.get(name)?;
    Some(Reading {
        value: m.get("value")?.as_f64()?,
        samples: m
            .get("samples")
            .and_then(Json::as_arr)
            .map(|a| a.iter().filter_map(Json::as_f64).collect())
            .unwrap_or_default(),
    })
}

/// Compares two `result.json` documents; prints the table and returns
/// the number of regressions.
///
/// # Errors
///
/// Fails when the files are not comparable: different seeds or sizes.
pub fn compare(manifest: &Manifest, old: &Json, new: &Json) -> Result<usize, String> {
    for key in ["seed", "smoke"] {
        if old.get(key) != new.get(key) {
            return Err(format!("runs differ in `{key}`: not comparable"));
        }
    }
    let workloads = |doc: &Json| {
        doc.get("workloads")
            .and_then(Json::as_obj)
            .map(<[_]>::to_vec)
            .ok_or("result file has no `workloads` object".to_string())
    };
    let (old_w, new_w) = (workloads(old)?, workloads(new)?);
    let mut regressions = 0;
    println!(
        "{:<18} {:<34} {:>16} {:>16} {:>8} {:>7}  verdict",
        "workload", "metric", "old", "new", "change", "bound"
    );
    for (name, old_run) in &old_w {
        let Some((_, new_run)) = new_w.iter().find(|(n, _)| n == name) else {
            println!("{name:<18} missing from the new file                REGRESSION");
            regressions += 1;
            continue;
        };
        let mut row = |decl: &MetricDecl, section: &str| {
            let (Some(o), Some(n)) = (
                reading(old_run, section, &decl.name),
                reading(new_run, section, &decl.name),
            ) else {
                return;
            };
            let exact = SIM_EXACT.contains(&decl.name.as_str());
            let verdict = if exact {
                if o.value.to_bits() == n.value.to_bits() {
                    Verdict::Ok
                } else {
                    Verdict::Regression
                }
            } else if section == "per_layer" {
                return; // host-time layer metrics carry no bound: not judged
            } else {
                judge(decl, &o, &n)
            };
            regressions += usize::from(verdict == Verdict::Regression);
            println!(
                "{:<18} {:<34} {:>16.6} {:>16.6} {:>+7.2}% {:>7}  {}",
                name,
                decl.name,
                o.value,
                n.value,
                (n.value - o.value) / o.value.abs() * 100.0,
                if exact {
                    "exact".to_string()
                } else {
                    format!("{:.0}%", decl.bound.unwrap_or(0.0) * 100.0)
                },
                verdict.label()
            );
        };
        for decl in &manifest.end_to_end {
            row(decl, "end_to_end");
        }
        for decl in &manifest.per_layer {
            row(decl, "per_layer");
        }
        for key in ["sim_digest", "failed"] {
            let (o, n) = (old_run.get(key), new_run.get(key));
            if o != n {
                println!("{name:<18} {key}: {o:?} -> {n:?}  REGRESSION");
                regressions += 1;
            }
        }
    }
    println!("{regressions} regression(s)");
    Ok(regressions)
}
