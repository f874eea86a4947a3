//! What a run of one workload produced, and how it is printed: a line
//! per metric for people, a detail line for the all-workloads mode, and
//! the result object the driver reads last.

use std::collections::BTreeMap;

use crate::json::Json;
use crate::manifest::{Manifest, MetricDecl};
use crate::spans::Spans;
use crate::stats::fast_decile;

/// The result of running one workload once.
pub struct Outcome {
    /// Workload name.
    pub workload: String,
    /// Operations attempted (references, scenario checks).
    pub attempted: u64,
    /// Operations that failed: refused, stale, golden or digest mismatch.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
    /// Per-rep samples behind a metric that is a reading of them.
    pub samples: BTreeMap<String, Vec<f64>>,
    /// Reps the medians were taken over.
    pub reps: usize,
    /// Simulated references (scenario ops) inside one rep's timed region.
    pub refs_per_rep: u64,
    /// Host threads the workload used.
    pub threads: usize,
    /// Digest of the simulated end state; a function of the seed alone.
    pub sim_digest: u64,
    /// Where checkpoints were journaled, if the workload journals.
    pub journal_dir: Option<String>,
    /// Phase spans (traced run only).
    pub spans: Spans,
}

impl Outcome {
    /// An empty outcome for `workload`.
    pub fn new(workload: &str) -> Self {
        Outcome {
            workload: workload.to_string(),
            attempted: 0,
            failed: 0,
            metrics: BTreeMap::new(),
            samples: BTreeMap::new(),
            reps: 0,
            refs_per_rep: 0,
            threads: 1,
            sim_digest: 0,
            journal_dir: None,
            spans: Spans::new(false),
        }
    }

    /// Sets metric `name`.
    pub fn put(&mut self, name: &str, value: f64) {
        // `+ 0.0` turns the `-0.0` an empty float sum yields into `0.0`.
        self.metrics.insert(name.to_string(), value + 0.0);
    }

    /// Sets host-time metric `name` from its per-rep `samples`: the value
    /// is their [`fast_decile`], and the samples are kept beside it.
    pub fn put_reading(&mut self, name: &str, samples: Vec<f64>, higher_is_better: bool) {
        self.put(name, fast_decile(&samples, higher_is_better));
        self.samples.insert(name.to_string(), samples);
    }

    /// Whether every operation succeeded and every value is a number.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0 && self.metrics.values().all(|v| v.is_finite())
    }

    /// The metrics `decls` declares, in declaration order.
    ///
    /// # Errors
    ///
    /// Names a declared metric the run did not produce.
    fn declared<'a>(&self, decls: &'a [MetricDecl]) -> Result<Vec<(&'a MetricDecl, f64)>, String> {
        decls
            .iter()
            .map(|d| {
                self.metrics.get(&d.name).map(|v| (d, *v)).ok_or(format!(
                    "{}: metric `{}` was not measured",
                    self.workload, d.name
                ))
            })
            .collect()
    }

    /// Prints the run: `workload metric value unit` lines, a `#detail`
    /// line, and last the result object.
    ///
    /// # Errors
    ///
    /// Fails, printing no result object, if a declared metric is missing.
    pub fn print(&self, manifest: &Manifest, traced: bool) -> Result<(), String> {
        let decls = if traced {
            &manifest.per_layer
        } else {
            &manifest.end_to_end
        };
        let declared = self.declared(decls)?;
        for (d, v) in &declared {
            println!("{} {} {v} {}", self.workload, d.name, d.unit);
        }
        println!("#detail {}", self.detail(&declared).to_line());
        let metrics = declared.iter().map(|(d, v)| {
            (
                d.name.clone(),
                Json::obj([
                    ("value", Json::Num(*v)),
                    ("unit", Json::Str(d.unit.clone())),
                ]),
            )
        });
        let result = Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ]);
        println!("{}", result.to_line());
        Ok(())
    }

    /// Everything `result.json` keeps about this run.
    fn detail(&self, declared: &[(&MetricDecl, f64)]) -> Json {
        let metrics = declared.iter().map(|(d, v)| {
            let mut fields = vec![
                ("value".to_string(), Json::Num(*v)),
                ("unit".to_string(), Json::Str(d.unit.clone())),
            ];
            if let Some(samples) = self.samples.get(&d.name) {
                fields.push(("samples".to_string(), Json::nums(samples)));
            }
            (d.name.clone(), Json::Obj(fields))
        });
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("reps", Json::Num(self.reps as f64)),
            ("refs_per_rep", Json::Num(self.refs_per_rep as f64)),
            ("threads", Json::Num(self.threads as f64)),
            ("sim_digest", Json::Str(format!("{:016x}", self.sim_digest))),
            (
                "journal_dir",
                self.journal_dir.clone().map_or(Json::Null, Json::Str),
            ),
            ("metrics", Json::obj(metrics)),
        ])
    }
}
