//! `BENCHMARK.json` as the single declaration of workloads and metrics:
//! the code emits values by name and takes units, directions and bounds
//! from here, so the file and the program cannot drift apart.

use crate::json::Json;

/// One declared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDecl {
    /// Metric name.
    pub name: String,
    /// Unit, as printed with every value.
    pub unit: String,
    /// Whether higher values are better.
    pub higher_is_better: bool,
    /// Share of the baseline median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// The parsed manifest.
#[derive(Debug, Clone)]
pub struct Manifest {
    /// Seconds one run measures.
    pub run_seconds: u64,
    /// Workload names with the reason each exists.
    pub workloads: Vec<(String, String)>,
    /// Metrics a user of the system sees; bounded.
    pub end_to_end: Vec<MetricDecl>,
    /// Metrics of single layers; unbounded.
    pub per_layer: Vec<MetricDecl>,
}

/// The manifest text, embedded at build time so the binary does not depend
/// on its working directory.
pub const MANIFEST_TEXT: &str = include_str!("../../BENCHMARK.json");

/// Simulated quantities: exact functions of the seed, so `--compare`
/// demands equality instead of applying a bound.
pub const SIM_EXACT: &[&str] = &[
    "sim_bits_per_ref",
    "core.analytic_err_pct",
    "memsys.tag_hit_ratio",
    "memsys.resident_pages",
    "omeganet.castcache_hit_ratio",
    "omeganet.destset_mean_len",
    "omeganet.hottest_link_share",
    "omeganet.max_layer_share",
    "omeganet.links_used",
    "core.read_hit_share",
    "core.read_miss_per_kref",
    "core.replacements_per_kref",
    "core.ownership_transfers_per_kref",
    "core.updates_multicast_per_kref",
    "core.adaptive_switches_per_kref",
    "core.msgs_per_ref",
    "core.snapshot_bytes",
    "obs.events_per_ref",
    "obs.jsonl_bytes_per_event",
];

impl Manifest {
    /// Parses the embedded `BENCHMARK.json`.
    ///
    /// # Panics
    ///
    /// Panics if the committed file is malformed — a build-time constant,
    /// so that is a bug in the repository, not an input error.
    pub fn load() -> Manifest {
        Manifest::parse(MANIFEST_TEXT).expect("committed BENCHMARK.json is well-formed")
    }

    /// Parses manifest text.
    ///
    /// # Errors
    ///
    /// Returns a message naming the missing or mistyped key.
    pub fn parse(text: &str) -> Result<Manifest, String> {
        let doc = Json::parse(text)?;
        let list = |key: &str| {
            doc.get(key)
                .and_then(Json::as_arr)
                .ok_or(format!("BENCHMARK.json: `{key}` must be an array"))
        };
        let text_of = |item: &Json, key: &str| {
            item.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or(format!("BENCHMARK.json: entry lacks string `{key}`"))
        };
        let metrics = |key: &str| -> Result<Vec<MetricDecl>, String> {
            list(key)?
                .iter()
                .map(|m| {
                    Ok(MetricDecl {
                        name: text_of(m, "name")?,
                        unit: text_of(m, "unit")?,
                        higher_is_better: match text_of(m, "better")?.as_str() {
                            "higher" => true,
                            "lower" => false,
                            other => return Err(format!("BENCHMARK.json: better = `{other}`")),
                        },
                        bound: m.get("bound").and_then(Json::as_f64),
                    })
                })
                .collect()
        };
        Ok(Manifest {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_f64)
                .ok_or("BENCHMARK.json: `run_seconds` must be a number")?
                as u64,
            workloads: list("workloads")?
                .iter()
                .map(|w| Ok((text_of(w, "name")?, text_of(w, "why")?)))
                .collect::<Result<_, String>>()?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }
}
