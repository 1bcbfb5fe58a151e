//! What the benchmark measures: the pinned workloads and the metric
//! catalogue. `BENCHMARK.json` at the repository root mirrors these lists
//! (the tests check that it does) and adds the regression bounds.

use goldfinger_datasets::synth::SynthConfig;

/// Threads of the worker pool every parallel layer runs on, and the
/// number of client threads of the serving segment.
pub const THREADS: usize = 2;

/// Default measuring budget of a run, `run_seconds` in `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 45;

/// Seed of every builder, probe stream and LSH permutation. Inputs vary
/// with `--seed`; the system's own configuration does not.
pub const SYSTEM_SEED: u64 = 42;

/// The registry builders, by the metric key each is reported under (also
/// a spelling `goldfinger_knn::builders::get` accepts).
pub const BUILDERS: [&str; 6] = ["brute", "hyrec", "nndescent", "lsh", "kiff", "cluster"];

/// Builds of `builder` per round: the three fastest run three times so
/// their medians rest on as many samples as the slow builders' time buys.
pub fn reps(builder: &str) -> usize {
    match builder {
        "brute" | "lsh" | "cluster" => 3,
        _ => 1,
    }
}

/// The builders whose build runs on the worker pool (KIFF is serial).
pub const POOLED: [&str; 5] = ["brute", "hyrec", "nndescent", "lsh", "cluster"];

/// The pooled builders that schedule through the work-stealing regions
/// (the refine engine's joins never steal).
pub const STEALING: [&str; 3] = ["brute", "lsh", "cluster"];

/// The build phases each builder reports to a `RecordingObserver`
/// (candidate generation, join, merge); a phase a builder never enters is
/// left out of the metric catalogue rather than reported as zero.
pub fn phases(builder: &str) -> &'static [&'static str] {
    match builder {
        "brute" => &["join", "merge"],
        "lsh" | "kiff" => &["candidate_generation", "join"],
        _ => &["candidate_generation", "join", "merge"],
    }
}

/// The online-serving segment of a round.
#[derive(Debug, Clone, Copy)]
pub struct ServeSpec {
    /// User-range shards.
    pub shards: usize,
    /// Queued updates that trigger a drain.
    pub batch: usize,
    /// Random probes per repair.
    pub probes: usize,
    /// Lookups per second (open loop).
    pub lookup_rate: f64,
    /// Updates per second (open loop).
    pub update_rate: f64,
    /// Length of the segment.
    pub seconds: f64,
}

/// The out-of-core segment of a round.
#[derive(Debug, Clone, Copy)]
pub struct OocSpec {
    /// Users streamed from the packed input file.
    pub users: usize,
    /// Fingerprint width.
    pub bits: u32,
    /// Neighbourhood size.
    pub k: usize,
    /// LSH tables.
    pub tables: usize,
    /// Bucket cap.
    pub max_bucket: usize,
    /// Memory budget, which derives the shard count.
    pub budget_mib: u64,
}

/// One pinned workload.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Name given to `--workload`.
    pub name: &'static str,
    /// One-line reason it is in the benchmark.
    pub why: &'static str,
    /// Calibrated synthetic preset (for both the in-RAM data and the
    /// out-of-core population).
    pub preset: fn() -> SynthConfig,
    /// User-count scale applied to the preset.
    pub scale: f64,
    /// Fingerprint width of the in-RAM store.
    pub bits: u32,
    /// Neighbourhood size of the builds and the served graph.
    pub k: usize,
    /// Serving segment.
    pub serve: ServeSpec,
    /// Out-of-core segment.
    pub ooc: OocSpec,
    /// Set-ups per run; `setup_s` is their median.
    pub setup_reps: usize,
    /// Rounds run even when they overrun `--seconds`.
    pub min_rounds: usize,
}

impl Workload {
    /// The same code path at a size that runs in about a second — for
    /// the tests.
    #[cfg(test)]
    pub fn toy(&self) -> Workload {
        Workload {
            scale: 0.05,
            serve: ServeSpec {
                lookup_rate: 2_000.0,
                update_rate: 400.0,
                seconds: 0.25,
                batch: 16,
                ..self.serve
            },
            // A budget far above the toy's needs: test threads share the
            // process's resident set, so a tight one would flake.
            ooc: OocSpec {
                users: 5_000,
                budget_mib: 256,
                ..self.ooc
            },
            setup_reps: 2,
            min_rounds: 2,
            ..self.clone()
        }
    }
}

/// The pinned workloads.
pub fn workloads() -> Vec<Workload> {
    vec![
        Workload {
            name: "dense",
            why: "movielens1M-calibrated data: long profiles over a small item universe, \
                  where the similarity kernels dominate every layer",
            preset: SynthConfig::ml1m,
            scale: 0.5,
            bits: 1024,
            k: 30,
            serve: ServeSpec {
                shards: 8,
                batch: 64,
                probes: 4,
                lookup_rate: 20_000.0,
                update_rate: 3_000.0,
                seconds: 1.5,
            },
            ooc: OocSpec {
                users: 150_000,
                bits: 256,
                k: 10,
                tables: 2,
                max_bucket: 256,
                budget_mib: 20,
            },
            setup_reps: 3,
            min_rounds: 3,
        },
        Workload {
            name: "sparse",
            why: "DBLP-calibrated data: short Zipf profiles over a huge item universe, \
                  where candidate generation and bucketing weigh most",
            preset: SynthConfig::dblp,
            scale: 0.2,
            bits: 1024,
            k: 30,
            serve: ServeSpec {
                shards: 8,
                batch: 64,
                probes: 4,
                lookup_rate: 20_000.0,
                update_rate: 3_000.0,
                seconds: 1.5,
            },
            ooc: OocSpec {
                users: 150_000,
                bits: 256,
                k: 10,
                tables: 2,
                max_bucket: 256,
                budget_mib: 20,
            },
            setup_reps: 3,
            min_rounds: 3,
        },
    ]
}

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<Workload> {
    workloads().into_iter().find(|w| w.name == name)
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricDef {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Whether a larger value is better.
    pub higher_is_better: bool,
}

fn def(name: impl Into<String>, unit: &'static str, higher_is_better: bool) -> MetricDef {
    MetricDef {
        name: name.into(),
        unit,
        higher_is_better,
    }
}

/// The end-to-end metrics every untraced run reports.
pub fn end_to_end() -> Vec<MetricDef> {
    let mut m = vec![
        def("setup_s", "s", false),
        def("peak_rss_mib", "MiB", false),
    ];
    m.extend(
        BUILDERS
            .iter()
            .map(|b| def(format!("build_s.{b}"), "s", false)),
    );
    m.extend(
        BUILDERS[1..]
            .iter()
            .map(|b| def(format!("recall.{b}"), "fraction", true)),
    );
    m.push(def("lookup_p99_us", "us", false));
    m.push(def("update_visible_p99_ms", "ms", false));
    m.push(def("ooc_build_s", "s", false));
    m
}

/// Whether an end-to-end metric is divided by the run's machine-speed
/// factor (see `speed`): the compute-bound times. Set-up (dominated by
/// file writes), update visibility (dominated by the fixed batch-fill
/// interval), memory and recall are reported as measured.
pub fn speed_normalized(name: &str) -> bool {
    name.starts_with("build_s.") || name == "ooc_build_s" || name == "lookup_p99_us"
}

/// The per-layer metrics every traced run reports.
pub fn per_layer() -> Vec<MetricDef> {
    let mut m = vec![
        def("datasets.generate_s", "s", false),
        def("datasets.prepare_s", "s", false),
        def("shf.fingerprint_s", "s", false),
        def("shf.assoc_per_s", "1/s", true),
    ];
    for b in BUILDERS {
        m.push(def(format!("sim.kernel_s.{b}"), "s", false));
        m.push(def(format!("sim.evals.{b}"), "count", false));
        m.push(def(format!("sim.batched_frac.{b}"), "fraction", true));
        m.push(def(format!("sim.ns_per_eval.{b}"), "ns", false));
    }
    for b in BUILDERS {
        for p in phases(b) {
            m.push(def(format!("{b}.{p}_s"), "s", false));
        }
        m.push(def(format!("{b}.bookkeeping_s"), "s", false));
        m.push(def(format!("{b}.unattributed_frac"), "fraction", false));
    }
    m.extend([
        def("hyrec.iterations", "count", false),
        def("nndescent.iterations", "count", false),
        def("hyrec.updates_per_eval", "fraction", true),
        def("nndescent.updates_per_eval", "fraction", true),
        def("brute.prune_rate", "fraction", true),
        def("cluster.dedup_rate", "fraction", false),
    ]);
    for b in POOLED {
        m.push(def(format!("pool.dispatches.{b}"), "count", false));
        m.push(def(format!("pool.parks.{b}"), "count", false));
    }
    for b in STEALING {
        m.push(def(format!("pool.steals.{b}"), "count", false));
    }
    m.extend([
        def("serve.lookup_p50_us", "us", false),
        def("serve.lookup_due_p99_us", "us", false),
        def("serve.update_visible_p50_ms", "ms", false),
        def("serve.drain_p50_ms", "ms", false),
        def("serve.drain_p99_ms", "ms", false),
        def("serve.client_lag_p99_ms", "ms", false),
        def("serve.drains", "count", false),
        def("serve.repairs", "count", false),
        def("serve.evals_per_repair", "count", false),
    ]);
    for phase in SERVE_SPANS {
        m.push(def(format!("serve.{phase}_s"), "s", false));
    }
    m.extend([
        def("ooc.fingerprint_s", "s", false),
        def("ooc.index_s", "s", false),
        def("ooc.scan_s", "s", false),
        def("ooc.stitch_s", "s", false),
        def("ooc.evals", "count", false),
        def("ooc.spilled_mib", "MiB", false),
        def("ooc.graph_mib", "MiB", false),
        def("input.read_s", "s", false),
    ]);
    m
}

/// The drain phases `knn::serve` traces, in drain order; the traced run
/// reports each one's self time.
pub const SERVE_SPANS: [&str; 5] = [
    "apply_updates",
    "plan_repairs",
    "apply_repairs",
    "rebuild_snapshots",
    "publish",
];

#[cfg(test)]
mod tests {
    use super::*;
    use goldfinger_obs::Json;

    fn names(defs: &[MetricDef]) -> Vec<&str> {
        defs.iter().map(|d| d.name.as_str()).collect()
    }

    #[test]
    fn catalogue_sizes_and_names_are_unique() {
        let e2e = end_to_end();
        let layer = per_layer();
        assert_eq!(e2e.len(), 16);
        assert!(layer.len() <= 128, "{} per-layer metrics", layer.len());
        let mut all = names(&e2e);
        all.extend(names(&layer));
        let mut dedup = all.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), all.len(), "duplicate metric names");
        assert!(e2e.iter().any(|d| d.name == "setup_s" && d.unit == "s"));
    }

    #[test]
    fn every_builder_resolves_in_the_registry() {
        for b in BUILDERS {
            goldfinger_knn::builders::get(b).unwrap();
        }
    }

    /// `BENCHMARK.json` must list exactly these workloads and metrics, with
    /// the same units and directions.
    #[test]
    fn benchmark_json_mirrors_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let json = Json::parse(&text).expect("valid JSON");
        let listed = |key: &str| -> Vec<(String, String, bool)> {
            json.get(key)
                .and_then(Json::as_array)
                .expect(key)
                .iter()
                .map(|m| {
                    (
                        m.get("name").and_then(Json::as_str).unwrap().to_string(),
                        m.get("unit").and_then(Json::as_str).unwrap().to_string(),
                        m.get("better").and_then(Json::as_str).unwrap() == "higher",
                    )
                })
                .collect()
        };
        let expect = |defs: Vec<MetricDef>| -> Vec<(String, String, bool)> {
            defs.into_iter()
                .map(|d| (d.name, d.unit.to_string(), d.higher_is_better))
                .collect()
        };
        assert_eq!(listed("end_to_end"), expect(end_to_end()));
        assert_eq!(listed("per_layer"), expect(per_layer()));
        let workloads: Vec<(&str, &str)> = json
            .get("workloads")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|w| {
                let field = |k| w.get(k).and_then(Json::as_str).unwrap();
                (field("name"), field("why"))
            })
            .collect();
        let pinned: Vec<(&str, &str)> =
            super::workloads().iter().map(|w| (w.name, w.why)).collect();
        assert_eq!(workloads, pinned);
        assert_eq!(
            json.get("run_seconds").and_then(Json::as_u64),
            Some(RUN_SECONDS)
        );
        let command: Vec<&str> = json
            .get("command")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|a| a.as_str().unwrap())
            .collect();
        assert!(command.contains(&"gfbench/Cargo.toml"), "{command:?}");
    }
}
