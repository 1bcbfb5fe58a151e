//! Machine-readable output for the experiment binaries.
//!
//! Every `exp_*` binary accepts `--json PATH`; when given, the experiment
//! re-runs its measurements through a [`RecordingObserver`] and writes a
//! [`ReportSet`] (schema [`goldfinger_obs::SCHEMA`]) to that path. The
//! helpers here turn observed runs into [`RunReport`]s and handle the file
//! I/O; `exp_all` uses [`merge_report_files`] to aggregate every
//! per-experiment file into one `bench.json`.

use crate::args::Args;
use crate::workloads::{
    run_observed, shared_pool, AlgoKind, ExperimentConfig, ProviderKind, RunOutcome,
};
use goldfinger_core::kernels::{self, KernelStats};
use goldfinger_core::pool::PoolStats;
use goldfinger_datasets::model::BinaryDataset;
use goldfinger_obs::{Json, RecordingObserver, ReportSet, RunReport};
use std::path::Path;

/// Runs one `(algorithm, provider)` combination under a recording observer
/// and packages the trace as a [`RunReport`].
///
/// When the run goes through the shared worker pool (`cfg.threads > 1`),
/// the pool-counter delta attributable to this run is attached to the
/// report as a `"pool"` extra object (schema-transparent: `extra` fields
/// round-trip unvalidated). Every run also carries a `"kernel"` extra
/// naming the dispatched similarity kernel and the batched-gather traffic
/// it handled during this run, plus a `"mem"` extra with the live
/// fingerprint-arena bytes and the process peak RSS at report time. When
/// flight-recorder tracing is active (`GF_TRACE`), the run is wrapped in
/// a `bench:run` span so per-run boundaries are visible on the timeline.
pub fn observed_run(
    experiment: &str,
    cfg: &ExperimentConfig,
    kind: AlgoKind,
    data: &BinaryDataset,
    provider: ProviderKind,
) -> (RunOutcome, RunReport) {
    let obs = RecordingObserver::new();
    let pool = (cfg.threads > 1).then(|| shared_pool(cfg.threads));
    let before = pool.as_ref().map(|p| p.stats());
    let kernel_before = kernels::stats();
    // Rebase the kernel's RSS high-water mark so the reported peak covers
    // this run only, and snapshot the floor it starts from either way.
    let peak_reset = goldfinger_obs::mem::reset_rss_peak();
    let mem_before = goldfinger_obs::mem::snapshot();
    let run_trace = goldfinger_obs::trace::span("bench", "run");
    let out = run_observed(cfg, kind, data, provider, &obs);
    drop(run_trace);
    let kernel_delta = kernels::stats().since(&kernel_before);
    let mut report = report_for(experiment, cfg, kind, data, provider, &out, &obs);
    if let (Some(pool), Some(before)) = (&pool, &before) {
        let delta = pool.stats().since(before);
        report
            .extra
            .push(("pool".to_string(), pool_stats_json(&delta)));
    }
    report
        .extra
        .push(("kernel".to_string(), kernel_stats_json(&kernel_delta)));
    report
        .extra
        .push(("mem".to_string(), mem_json(mem_before, peak_reset)));
    (out, report)
}

/// Renders a preparation-phase summary as the `"prep"` extra object of a
/// [`RunReport`] — the kernel-style companion for ingest speed: which
/// sketching path built the similarity representation (`"shf"`,
/// `"onepass"`/`"classic"` minhash, or `"native"` for no sketch at all),
/// how long it took, and the resulting associations/second. `check_report`
/// requires this object on every emitted run, so Table-3-style
/// prep-vs-build splits can be recovered from any report file.
pub fn prep_json(sketch: &str, prep: std::time::Duration, associations: u64) -> Json {
    let secs = prep.as_secs_f64();
    let rate = if secs > 0.0 {
        associations as f64 / secs
    } else {
        0.0
    };
    Json::obj(vec![
        ("sketch", Json::Str(sketch.to_string())),
        ("prep_secs", Json::Num(secs)),
        ("associations", Json::Num(associations as f64)),
        ("assoc_per_sec", Json::Num(rate)),
    ])
}

/// Renders the memory gauges as the `"mem"` extra object of a
/// [`RunReport`] (`0` where `/proc` is unavailable):
///
/// - `arena_bytes` — live heap fingerprint-arena bytes;
/// - `mapped_bytes` — spilled (memory-mapped) arena bytes;
/// - `rss_before_kb` — `VmRSS` snapshotted *before* the run started;
/// - `rss_now_kb` — `VmRSS` at report time;
/// - `rss_peak_kb` — `VmHWM` at report time;
/// - `peak_reset` — whether the kernel high-water mark was reset at run
///   start, making `rss_peak_kb` a genuine per-run peak. When `false`,
///   the peak is a process-lifetime value and `rss_before_kb` is the
///   floor it may have inherited from earlier runs in the same process.
pub fn mem_json(before: Option<goldfinger_obs::mem::MemSnapshot>, peak_reset: bool) -> Json {
    let now = goldfinger_obs::mem::snapshot().unwrap_or_default();
    Json::obj(vec![
        (
            "arena_bytes",
            Json::Num(goldfinger_core::arena::live_arena_bytes() as f64),
        ),
        (
            "mapped_bytes",
            Json::Num(goldfinger_core::arena::mapped_arena_bytes() as f64),
        ),
        (
            "rss_before_kb",
            Json::Num(before.unwrap_or_default().rss_kb as f64),
        ),
        ("rss_now_kb", Json::Num(now.rss_kb as f64)),
        ("rss_peak_kb", Json::Num(now.peak_kb as f64)),
        ("peak_reset", Json::Bool(peak_reset)),
    ])
}

/// Renders a [`PoolStats`] (usually a [`PoolStats::since`] delta) as the
/// `"pool"` extra object of a [`RunReport`].
pub fn pool_stats_json(stats: &PoolStats) -> Json {
    Json::obj(vec![
        ("threads", Json::Num(stats.threads as f64)),
        ("dispatches", Json::Num(stats.dispatches as f64)),
        ("tasks_run", Json::Num(stats.tasks_run as f64)),
        ("steals", Json::Num(stats.steals as f64)),
        ("parks", Json::Num(stats.parks as f64)),
        ("unparks", Json::Num(stats.unparks as f64)),
        ("spawns_avoided", Json::Num(stats.spawns_avoided as f64)),
    ])
}

/// Renders a [`KernelStats`] delta plus the dispatched kernel's name as the
/// `"kernel"` extra object of a [`RunReport`]. The name answers "which
/// code path computed the similarities of this run" when reports from
/// different machines (or `GF_KERNEL` overrides) are compared.
pub fn kernel_stats_json(stats: &KernelStats) -> Json {
    Json::obj(vec![
        ("name", Json::Str(kernels::active().name.to_string())),
        ("batched_calls", Json::Num(stats.batched_calls as f64)),
        ("batched_rows", Json::Num(stats.batched_rows as f64)),
    ])
}

/// Builds the [`RunReport`] for an already-observed run.
pub fn report_for(
    experiment: &str,
    cfg: &ExperimentConfig,
    kind: AlgoKind,
    data: &BinaryDataset,
    provider: ProviderKind,
    out: &RunOutcome,
    obs: &RecordingObserver,
) -> RunReport {
    let stats = &out.result.stats;
    let sketch = match provider {
        ProviderKind::Native => "native",
        ProviderKind::GoldFinger(_) => "shf",
    };
    let prep_extra = prep_json(
        sketch,
        stats.prep_wall,
        data.profiles().n_associations() as u64,
    );
    RunReport {
        experiment: experiment.to_string(),
        dataset: data.name().to_string(),
        algo: kind.name().to_string(),
        provider: provider_name(provider).to_string(),
        n_users: data.n_users() as u64,
        k: cfg.k as u64,
        bits: match provider {
            ProviderKind::Native => 0,
            ProviderKind::GoldFinger(bits) => bits as u64,
        },
        seed: cfg.seed,
        phases: obs.phases(),
        iterations: obs.iterations(),
        similarity_evals: stats.similarity_evals,
        pruned_evals: stats.pruned_evals,
        n_iterations: stats.iterations as u64,
        wall: stats.wall,
        prep_wall: stats.prep_wall,
        traffic: None,
        extra: vec![("prep".to_string(), prep_extra)],
    }
}

/// The report-schema name of a provider.
pub fn provider_name(provider: ProviderKind) -> &'static str {
    match provider {
        ProviderKind::Native => "native",
        ProviderKind::GoldFinger(_) => "goldfinger",
    }
}

/// Writes a report set (pretty-printed, trailing newline) to `path`,
/// creating parent directories.
pub fn write_report(path: &Path, set: &ReportSet) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let mut text = set.to_json().pretty();
    text.push('\n');
    std::fs::write(path, text)
}

/// Reads and validates a report set from `path`.
pub fn read_report(path: &Path) -> Result<ReportSet, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let json = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    ReportSet::from_json(&json).map_err(|e| format!("{}: {e}", path.display()))
}

/// Honours `--json PATH`: validates the set, writes it, and reports the
/// destination on stdout. Does nothing when the flag is absent. Panics on
/// an invalid set or unwritable path — an experiment that cannot emit the
/// report it was asked for should fail loudly, not silently.
pub fn emit_if_requested(args: &Args, set: &ReportSet) {
    let Some(path) = args.get("json") else {
        return;
    };
    set.validate()
        .unwrap_or_else(|e| panic!("refusing to write inconsistent report: {e}"));
    write_report(Path::new(path), set)
        .unwrap_or_else(|e| panic!("cannot write report {path}: {e}"));
    println!("report: wrote {} run(s) to {path}", set.runs.len());
}

/// Merges the report files that exist among `paths` into one `"all"` set.
/// Missing files are skipped (an experiment may have failed); malformed
/// files are errors.
pub fn merge_report_files(paths: &[std::path::PathBuf]) -> Result<ReportSet, String> {
    let mut all = ReportSet::new("all");
    for path in paths {
        if !path.exists() {
            continue;
        }
        let set = read_report(path)?;
        all.runs.extend(set.runs);
    }
    Ok(all)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::build_dataset;
    use goldfinger_datasets::synth::SynthConfig;

    fn tiny_cfg() -> ExperimentConfig {
        ExperimentConfig {
            target_users: 120,
            k: 4,
            ..ExperimentConfig::default()
        }
    }

    #[test]
    fn observed_run_produces_a_consistent_report() {
        let cfg = tiny_cfg();
        let data = build_dataset(&cfg, SynthConfig::ml1m());
        for kind in [
            AlgoKind::BruteForce,
            AlgoKind::NNDescent,
            AlgoKind::Lsh,
            AlgoKind::Kiff,
        ] {
            let (out, report) =
                observed_run("test", &cfg, kind, &data, ProviderKind::GoldFinger(256));
            assert_eq!(report.similarity_evals, out.result.stats.similarity_evals);
            assert!(report.trace_consistent(), "{kind:?} trace inconsistent");
            assert_eq!(report.provider, "goldfinger");
            assert_eq!(report.bits, 256);
            assert!(report.prep_wall > std::time::Duration::ZERO);
        }
    }

    #[test]
    fn reports_round_trip_through_files() {
        let cfg = tiny_cfg();
        let data = build_dataset(&cfg, SynthConfig::ml1m());
        let (_, report) = observed_run(
            "test",
            &cfg,
            AlgoKind::BruteForce,
            &data,
            ProviderKind::Native,
        );
        let mut set = ReportSet::new("test");
        set.runs.push(report);

        let dir = std::env::temp_dir().join("goldfinger-jsonreport-test");
        let path = dir.join("nested").join("test.json");
        write_report(&path, &set).unwrap();
        let back = read_report(&path).unwrap();
        assert_eq!(back, set);

        let merged = merge_report_files(&[path.clone(), dir.join("missing.json")]).unwrap();
        assert_eq!(merged.experiment, "all");
        assert_eq!(merged.runs, set.runs);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn pooled_runs_attach_pool_counters_that_round_trip() {
        let cfg = ExperimentConfig {
            threads: 2,
            ..tiny_cfg()
        };
        let data = build_dataset(&cfg, SynthConfig::ml1m());
        let (_, report) = observed_run(
            "test",
            &cfg,
            AlgoKind::BruteForce,
            &data,
            ProviderKind::GoldFinger(256),
        );
        let pool = report
            .extra
            .iter()
            .find(|(k, _)| k == "pool")
            .map(|(_, v)| v)
            .expect("pooled run must carry pool counters");
        assert_eq!(pool.get("threads").and_then(Json::as_u64), Some(2));
        assert!(pool.get("dispatches").and_then(Json::as_u64).unwrap() > 0);
        assert!(pool.get("spawns_avoided").and_then(Json::as_u64).unwrap() > 0);

        // The extra object must survive a file round-trip untouched.
        let mut set = ReportSet::new("test");
        set.runs.push(report);
        let dir = std::env::temp_dir().join("goldfinger-poolreport-test");
        let path = dir.join("pool.json");
        write_report(&path, &set).unwrap();
        assert_eq!(read_report(&path).unwrap(), set);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn goldfinger_runs_attach_kernel_counters_that_round_trip() {
        let cfg = tiny_cfg();
        let data = build_dataset(&cfg, SynthConfig::ml1m());
        let (_, report) = observed_run(
            "test",
            &cfg,
            AlgoKind::Lsh,
            &data,
            ProviderKind::GoldFinger(256),
        );
        let kernel = report
            .extra
            .iter()
            .find(|(k, _)| k == "kernel")
            .map(|(_, v)| v)
            .expect("every run must carry kernel info");
        assert_eq!(
            kernel.get("name").and_then(Json::as_str),
            Some(kernels::active().name)
        );
        // LSH scores each user's bucket mates through the batched gather.
        assert!(kernel.get("batched_calls").and_then(Json::as_u64).unwrap() > 0);
        assert!(
            kernel.get("batched_rows").and_then(Json::as_u64).unwrap()
                >= kernel.get("batched_calls").and_then(Json::as_u64).unwrap()
        );

        let mut set = ReportSet::new("test");
        set.runs.push(report);
        let dir = std::env::temp_dir().join("goldfinger-kernelreport-test");
        let path = dir.join("kernel.json");
        write_report(&path, &set).unwrap();
        assert_eq!(read_report(&path).unwrap(), set);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn emit_is_a_no_op_without_the_flag() {
        let args = Args::parse(std::iter::empty());
        // Would panic on this empty (invalid) set if it tried to write.
        emit_if_requested(&args, &ReportSet::new("x"));
    }
}
