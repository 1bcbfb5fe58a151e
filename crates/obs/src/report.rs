//! Machine-readable run reports: the canonical `BENCH_*.json` schema.
//!
//! A [`RunReport`] captures everything one `(algorithm, provider)` run
//! produced — configuration, per-phase spans, the per-iteration trace, the
//! final counters and (optionally) modelled memory traffic. A [`ReportSet`]
//! bundles the runs of one experiment (or, for `exp_all`, of the whole
//! suite) under a schema tag, and [`ReportSet::validate`] is the structural
//! check CI runs against emitted reports.

use crate::json::Json;
use crate::observer::IterationEvent;
use crate::span::{Phase, PhaseSpan};
use std::time::Duration;

/// Schema tag written at the root of every report file.
pub const SCHEMA: &str = "goldfinger-bench/v1";

/// Modelled memory traffic of the similarity path, as accumulated by
/// `goldfinger-knn`'s `CountingSimilarity`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Traffic {
    /// Similarity evaluations counted by the wrapper.
    pub calls: u64,
    /// Modelled bytes of profile payload those evaluations read.
    pub bytes: u64,
}

impl Traffic {
    /// Mean bytes per evaluation (0 when nothing ran).
    pub fn bytes_per_call(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.bytes as f64 / self.calls as f64
        }
    }
}

/// One `(algorithm, provider)` run of one experiment.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunReport {
    /// Experiment id (e.g. `"fig12"`, `"table4"`).
    pub experiment: String,
    /// Dataset name (e.g. `"movielens10M"`).
    pub dataset: String,
    /// Algorithm name (e.g. `"Hyrec"`).
    pub algo: String,
    /// `"native"` or `"goldfinger"`.
    pub provider: String,
    /// Population size.
    pub n_users: u64,
    /// Neighbourhood size.
    pub k: u64,
    /// Fingerprint width in bits (0 for native runs).
    pub bits: u64,
    /// Master seed.
    pub seed: u64,
    /// Aggregated per-phase wall times.
    pub phases: Vec<PhaseSpan>,
    /// Per-iteration build trace (empty if the run was not observed).
    pub iterations: Vec<IterationEvent>,
    /// Total similarity evaluations (`BuildStats::similarity_evals`).
    pub similarity_evals: u64,
    /// Total pruned evaluations (`BuildStats::pruned_evals`).
    pub pruned_evals: u64,
    /// Refinement iterations (`BuildStats::iterations`).
    pub n_iterations: u64,
    /// Construction wall time (`BuildStats::wall`).
    pub wall: Duration,
    /// Preparation wall time (`BuildStats::prep_wall`).
    pub prep_wall: Duration,
    /// Modelled similarity-path memory traffic, when measured.
    pub traffic: Option<Traffic>,
    /// Experiment-specific scalars (quality, scanrate, gain, …).
    pub extra: Vec<(String, Json)>,
}

fn secs(d: Duration) -> Json {
    Json::Num(d.as_secs_f64())
}

fn duration_field(json: &Json, key: &str) -> Result<Duration, String> {
    let s = json
        .get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("missing or non-numeric field {key:?}"))?;
    if !s.is_finite() || s < 0.0 {
        return Err(format!("field {key:?} is not a valid duration: {s}"));
    }
    Ok(Duration::from_secs_f64(s))
}

fn u64_field(json: &Json, key: &str) -> Result<u64, String> {
    json.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("missing or non-integer field {key:?}"))
}

fn str_field(json: &Json, key: &str) -> Result<String, String> {
    json.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing or non-string field {key:?}"))
}

impl RunReport {
    /// Serialises the report.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("experiment", Json::from(self.experiment.clone())),
            ("dataset", Json::from(self.dataset.clone())),
            ("algo", Json::from(self.algo.clone())),
            ("provider", Json::from(self.provider.clone())),
            ("n_users", Json::from(self.n_users)),
            ("k", Json::from(self.k)),
            ("bits", Json::from(self.bits)),
            ("seed", Json::from(self.seed)),
            (
                "phases",
                Json::Arr(
                    self.phases
                        .iter()
                        .map(|p| {
                            Json::obj(vec![
                                ("phase", Json::from(p.phase.name())),
                                ("wall_secs", secs(p.wall)),
                                ("entries", Json::from(p.entries)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "iterations",
                Json::Arr(
                    self.iterations
                        .iter()
                        .map(|e| {
                            Json::obj(vec![
                                ("iteration", Json::from(e.iteration as u64)),
                                ("similarity_evals", Json::from(e.similarity_evals)),
                                ("pruned_evals", Json::from(e.pruned_evals)),
                                ("updates", Json::from(e.updates)),
                                ("threshold", Json::from(e.threshold)),
                                ("wall_secs", secs(e.wall)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("similarity_evals", Json::from(self.similarity_evals)),
            ("pruned_evals", Json::from(self.pruned_evals)),
            ("n_iterations", Json::from(self.n_iterations)),
            ("wall_secs", secs(self.wall)),
            ("prep_wall_secs", secs(self.prep_wall)),
        ];
        if let Some(t) = self.traffic {
            fields.push((
                "traffic",
                Json::obj(vec![
                    ("calls", Json::from(t.calls)),
                    ("bytes", Json::from(t.bytes)),
                ]),
            ));
        }
        for (k, v) in &self.extra {
            fields.push((k.as_str(), v.clone()));
        }
        Json::obj(fields)
    }

    /// Deserialises a report; the inverse of [`RunReport::to_json`].
    ///
    /// Unknown extra fields are preserved in [`RunReport::extra`].
    pub fn from_json(json: &Json) -> Result<RunReport, String> {
        const KNOWN: &[&str] = &[
            "experiment",
            "dataset",
            "algo",
            "provider",
            "n_users",
            "k",
            "bits",
            "seed",
            "phases",
            "iterations",
            "similarity_evals",
            "pruned_evals",
            "n_iterations",
            "wall_secs",
            "prep_wall_secs",
            "traffic",
        ];
        let mut phases = Vec::new();
        for p in json
            .get("phases")
            .and_then(Json::as_array)
            .ok_or("missing array field \"phases\"")?
        {
            let name = str_field(p, "phase")?;
            phases.push(PhaseSpan {
                phase: Phase::from_name(&name).ok_or(format!("unknown phase {name:?}"))?,
                wall: duration_field(p, "wall_secs")?,
                entries: u64_field(p, "entries")?,
            });
        }
        let mut iterations = Vec::new();
        for e in json
            .get("iterations")
            .and_then(Json::as_array)
            .ok_or("missing array field \"iterations\"")?
        {
            iterations.push(IterationEvent {
                iteration: u64_field(e, "iteration")? as u32,
                similarity_evals: u64_field(e, "similarity_evals")?,
                pruned_evals: u64_field(e, "pruned_evals")?,
                updates: u64_field(e, "updates")?,
                threshold: e
                    .get("threshold")
                    .and_then(Json::as_f64)
                    .ok_or("missing field \"threshold\"")?,
                wall: duration_field(e, "wall_secs")?,
            });
        }
        let traffic = match json.get("traffic") {
            None => None,
            Some(t) => Some(Traffic {
                calls: u64_field(t, "calls")?,
                bytes: u64_field(t, "bytes")?,
            }),
        };
        let extra = match json {
            Json::Obj(fields) => fields
                .iter()
                .filter(|(k, _)| !KNOWN.contains(&k.as_str()))
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect(),
            _ => return Err("run report must be an object".to_string()),
        };
        Ok(RunReport {
            experiment: str_field(json, "experiment")?,
            dataset: str_field(json, "dataset")?,
            algo: str_field(json, "algo")?,
            provider: str_field(json, "provider")?,
            n_users: u64_field(json, "n_users")?,
            k: u64_field(json, "k")?,
            bits: u64_field(json, "bits")?,
            seed: u64_field(json, "seed")?,
            phases,
            iterations,
            similarity_evals: u64_field(json, "similarity_evals")?,
            pruned_evals: u64_field(json, "pruned_evals")?,
            n_iterations: u64_field(json, "n_iterations")?,
            wall: duration_field(json, "wall_secs")?,
            prep_wall: duration_field(json, "prep_wall_secs")?,
            traffic,
            extra,
        })
    }

    /// Whether the per-iteration trace is consistent with the totals: the
    /// eval/prune counts summed over all events equal the reported totals
    /// and the non-initialisation event count equals `n_iterations`.
    /// Trivially true for runs without a trace.
    pub fn trace_consistent(&self) -> bool {
        if self.iterations.is_empty() {
            return true;
        }
        let evals: u64 = self.iterations.iter().map(|e| e.similarity_evals).sum();
        let pruned: u64 = self.iterations.iter().map(|e| e.pruned_evals).sum();
        let rounds = self.iterations.iter().filter(|e| e.iteration > 0).count() as u64;
        evals == self.similarity_evals && pruned == self.pruned_evals && rounds == self.n_iterations
    }
}

/// A set of runs under one schema tag — the content of a `BENCH_*.json`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ReportSet {
    /// Experiment id, or `"all"` for aggregated sets.
    pub experiment: String,
    /// The runs.
    pub runs: Vec<RunReport>,
}

impl ReportSet {
    /// An empty set for one experiment.
    pub fn new(experiment: impl Into<String>) -> Self {
        ReportSet {
            experiment: experiment.into(),
            runs: Vec::new(),
        }
    }

    /// Serialises the set, schema tag included.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("schema", Json::from(SCHEMA)),
            ("experiment", Json::from(self.experiment.clone())),
            (
                "runs",
                Json::Arr(self.runs.iter().map(RunReport::to_json).collect()),
            ),
        ])
    }

    /// Deserialises a set, checking the schema tag.
    pub fn from_json(json: &Json) -> Result<ReportSet, String> {
        let schema = str_field(json, "schema")?;
        if schema != SCHEMA {
            return Err(format!("unsupported schema {schema:?} (want {SCHEMA:?})"));
        }
        let mut runs = Vec::new();
        for (i, r) in json
            .get("runs")
            .and_then(Json::as_array)
            .ok_or("missing array field \"runs\"")?
            .iter()
            .enumerate()
        {
            runs.push(RunReport::from_json(r).map_err(|e| format!("run #{i}: {e}"))?);
        }
        Ok(ReportSet {
            experiment: str_field(json, "experiment")?,
            runs,
        })
    }

    /// Structural validation: at least one run, and every run's trace is
    /// consistent with its totals. This is what CI asserts on emitted
    /// reports.
    pub fn validate(&self) -> Result<(), String> {
        if self.runs.is_empty() {
            return Err("report contains no runs".to_string());
        }
        for (i, run) in self.runs.iter().enumerate() {
            if run.algo.is_empty() || run.dataset.is_empty() {
                return Err(format!("run #{i}: empty algo or dataset name"));
            }
            if !run.trace_consistent() {
                return Err(format!(
                    "run #{i} ({}/{}/{}): per-iteration trace does not sum to the reported \
                     totals",
                    run.dataset, run.algo, run.provider
                ));
            }
        }
        Ok(())
    }

    /// Everything [`validate`](ReportSet::validate) checks, plus the
    /// stricter invariants CI's `check_report` gate enforces on emitted
    /// files:
    ///
    /// - any `*_p50_*` extra must not exceed its `*_p99_*` counterpart
    ///   (a p50 above p99 means the histogram collapsed, the PR6 serve
    ///   bench failure mode);
    /// - build runs (every experiment except `"serve"`) must report a
    ///   non-empty `phases` list — a build with no phase attribution is
    ///   an instrumentation regression;
    /// - every run must carry a `"prep"` extra object with a numeric
    ///   `prep_secs ≥ 0` — reports without the preparation split cannot
    ///   answer the Table 3 ingest-speed question;
    /// - a `"mem"` extra reporting a positive `rss_peak_kb` must either
    ///   attest `peak_reset = true` (the kernel high-water mark was
    ///   rebased at run start, so the peak is per-run truth) or carry a
    ///   numeric `rss_before_kb` floor — `VmHWM` is a process-lifetime
    ///   value, and a bare lifetime peak inherited from earlier runs in
    ///   the same batch must not pass for a per-run measurement.
    pub fn validate_strict(&self) -> Result<(), String> {
        self.validate()?;
        for (i, run) in self.runs.iter().enumerate() {
            let at = |msg: String| {
                format!(
                    "run #{i} ({}/{}/{}): {msg}",
                    run.dataset, run.algo, run.provider
                )
            };
            for (key, value) in &run.extra {
                let Some(pos) = key.find("_p50_") else {
                    continue;
                };
                let counterpart = format!("{}_p99_{}", &key[..pos], &key[pos + 5..]);
                let p99 = run
                    .extra
                    .iter()
                    .find(|(k, _)| *k == counterpart)
                    .and_then(|(_, v)| v.as_f64());
                if let (Some(p50), Some(p99)) = (value.as_f64(), p99) {
                    if p50 > p99 {
                        return Err(at(format!("{key} = {p50} exceeds {counterpart} = {p99}")));
                    }
                }
            }
            if run.experiment != "serve" && run.phases.is_empty() {
                return Err(at("build run reports an empty phases list".to_string()));
            }
            let prep_secs = run
                .extra
                .iter()
                .find(|(k, _)| k == "prep")
                .and_then(|(_, v)| v.get("prep_secs"))
                .and_then(Json::as_f64);
            match prep_secs {
                Some(secs) if secs >= 0.0 => {}
                Some(secs) => return Err(at(format!("prep extra has prep_secs = {secs} < 0"))),
                None => {
                    return Err(at(
                        "run is missing the \"prep\" extra (object with numeric prep_secs)"
                            .to_string(),
                    ))
                }
            }
            if let Some(mem) = run.extra.iter().find(|(k, _)| k == "mem").map(|(_, v)| v) {
                let peak = mem.get("rss_peak_kb").and_then(Json::as_f64).unwrap_or(0.0);
                let reset = mem
                    .get("peak_reset")
                    .and_then(Json::as_bool)
                    .unwrap_or(false);
                let before = mem.get("rss_before_kb").and_then(Json::as_f64);
                if peak > 0.0 && !reset && before.is_none() {
                    return Err(at(format!(
                        "mem extra reports rss_peak_kb = {peak} without peak_reset or an \
                         rss_before_kb floor — a lifetime VmHWM is not a per-run peak"
                    )));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> RunReport {
        RunReport {
            experiment: "fig12".into(),
            dataset: "movielens10M".into(),
            algo: "Hyrec".into(),
            provider: "goldfinger".into(),
            n_users: 1000,
            k: 30,
            bits: 1024,
            seed: 42,
            phases: vec![PhaseSpan {
                phase: Phase::Join,
                wall: Duration::from_millis(12),
                entries: 3,
            }],
            iterations: vec![
                IterationEvent {
                    iteration: 0,
                    similarity_evals: 100,
                    pruned_evals: 0,
                    updates: 0,
                    threshold: 0.0,
                    wall: Duration::from_millis(1),
                },
                IterationEvent {
                    iteration: 1,
                    similarity_evals: 400,
                    pruned_evals: 0,
                    updates: 75,
                    threshold: 30.0,
                    wall: Duration::from_millis(5),
                },
            ],
            similarity_evals: 500,
            pruned_evals: 0,
            n_iterations: 1,
            wall: Duration::from_millis(6),
            prep_wall: Duration::from_millis(2),
            traffic: Some(Traffic {
                calls: 500,
                bytes: 66000,
            }),
            extra: vec![
                ("quality".to_string(), Json::Num(0.93)),
                ("prep".to_string(), prep_extra()),
            ],
        }
    }

    fn prep_extra() -> Json {
        Json::obj(vec![
            ("sketch", Json::from("shf")),
            ("prep_secs", Json::Num(0.002)),
            ("associations", Json::Num(1000.0)),
            ("assoc_per_sec", Json::Num(500_000.0)),
        ])
    }

    #[test]
    fn run_report_round_trips_through_the_parser() {
        let report = sample_report();
        let text = report.to_json().pretty();
        let back = RunReport::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn report_set_round_trips_and_validates() {
        let mut set = ReportSet::new("fig12");
        set.runs.push(sample_report());
        let text = set.to_json().render();
        let back = ReportSet::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, set);
        assert!(back.validate().is_ok());
    }

    #[test]
    fn trace_inconsistency_is_detected() {
        let mut report = sample_report();
        report.similarity_evals += 1;
        assert!(!report.trace_consistent());
        let mut set = ReportSet::new("fig12");
        set.runs.push(report);
        let err = set.validate().unwrap_err();
        assert!(err.contains("does not sum"), "{err}");
    }

    #[test]
    fn untraced_runs_are_trivially_consistent() {
        let mut report = sample_report();
        report.iterations.clear();
        assert!(report.trace_consistent());
    }

    #[test]
    fn empty_sets_and_wrong_schemas_fail_validation() {
        assert!(ReportSet::new("x").validate().is_err());
        let bad = Json::obj(vec![("schema", Json::from("other/v9"))]);
        assert!(ReportSet::from_json(&bad).unwrap_err().contains("schema"));
    }

    #[test]
    fn strict_validation_rejects_inverted_quantiles() {
        let mut set = ReportSet::new("serve");
        let mut run = sample_report();
        run.extra = vec![
            ("lookup_p50_us".to_string(), Json::Num(10.0)),
            ("lookup_p99_us".to_string(), Json::Num(90.0)),
            ("prep".to_string(), prep_extra()),
        ];
        set.runs.push(run);
        assert!(set.validate_strict().is_ok());
        set.runs[0].extra[0].1 = Json::Num(120.0); // p50 above p99
        let err = set.validate_strict().unwrap_err();
        assert!(err.contains("exceeds"), "{err}");
    }

    #[test]
    fn strict_validation_requires_phases_for_build_runs() {
        let mut set = ReportSet::new("fig12");
        let mut run = sample_report();
        run.phases.clear();
        set.runs.push(run);
        let err = set.validate_strict().unwrap_err();
        assert!(err.contains("phases"), "{err}");
        // Serve runs are exempt: they have drain phases, not build phases.
        set.runs[0].experiment = "serve".to_string();
        assert!(set.validate_strict().is_ok());
    }

    #[test]
    fn strict_validation_requires_the_prep_extra() {
        let mut set = ReportSet::new("fig12");
        let mut run = sample_report();
        run.extra.retain(|(k, _)| k != "prep");
        set.runs.push(run);
        let err = set.validate_strict().unwrap_err();
        assert!(err.contains("prep"), "{err}");
        // A prep object with a negative duration is just as invalid.
        set.runs[0].extra.push((
            "prep".to_string(),
            Json::obj(vec![("prep_secs", Json::Num(-1.0))]),
        ));
        let err = set.validate_strict().unwrap_err();
        assert!(err.contains("< 0"), "{err}");
    }

    #[test]
    fn strict_validation_rejects_unattributed_rss_peaks() {
        let mut set = ReportSet::new("fig12");
        let mut run = sample_report();
        run.extra.push((
            "mem".to_string(),
            Json::obj(vec![("rss_peak_kb", Json::Num(22_388.0))]),
        ));
        set.runs.push(run);
        // A bare lifetime VmHWM with neither attestation nor floor fails.
        let err = set.validate_strict().unwrap_err();
        assert!(err.contains("per-run peak"), "{err}");
        // A reset peak is per-run truth…
        let mem = &mut set.runs[0].extra.last_mut().unwrap().1;
        *mem = Json::obj(vec![
            ("rss_peak_kb", Json::Num(22_388.0)),
            ("peak_reset", Json::Bool(true)),
        ]);
        assert!(set.validate_strict().is_ok());
        // …and so is an unreset one that records its inherited floor.
        let mem = &mut set.runs[0].extra.last_mut().unwrap().1;
        *mem = Json::obj(vec![
            ("rss_peak_kb", Json::Num(22_388.0)),
            ("peak_reset", Json::Bool(false)),
            ("rss_before_kb", Json::Num(21_000.0)),
        ]);
        assert!(set.validate_strict().is_ok());
    }

    #[test]
    fn unknown_fields_survive_as_extras() {
        let mut report = sample_report();
        report.extra = vec![("scanrate".to_string(), Json::Num(0.25))];
        let parsed = RunReport::from_json(&report.to_json()).unwrap();
        assert_eq!(parsed.extra, report.extra);
    }
}
