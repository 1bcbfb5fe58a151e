//! `gfbench` — the pinned benchmark of the GoldFinger workspace.
//!
//! ```text
//! gfbench --workload dense [--seed 42] [--seconds 30] [--trace 0|1]
//!         [--out results.json] [--trace-out trace.json]
//! gfbench diff [--bench BENCHMARK.json] --base A.json … --change B.json …
//! ```
//!
//! A run sets the workload up from `--seed`, then repeats rounds of every
//! layer (the six registry builds, an open-loop serving segment, an
//! out-of-core build) for `--seconds`, checking every output. It prints
//! one line per metric (`workload metric value unit median q1 q3 n`), the
//! failed/attempted operation counts, and finally one JSON object: the
//! end-to-end metrics with `--trace 0`, the per-layer ones with
//! `--trace 1`. It exits non-zero when any check failed. See README.md.
//!
//! The system is driven only through the public APIs of
//! `goldfinger-core`, `-datasets`, `-knn` and `-obs`, and every layer is
//! timed from outside, around calls into it.

mod builds;
mod diff;
mod input;
mod ooc;
mod run;
mod serve;
mod setup;
mod spec;
mod speed;
mod stats;
mod timed;

use goldfinger_obs::Json;
use run::{Outcome, RunConfig, ScratchDir};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage: gfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1] \
                     [--out FILE] [--trace-out FILE]\n       \
                     gfbench diff [--bench BENCHMARK.json] --base FILE... --change FILE...";

/// Scratch space for the out-of-core files, relative to the working
/// directory (the repository root); removed when the run ends.
const SCRATCH: &str = ".gfbench-work";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = if args.first().map(String::as_str) == Some("diff") {
        run_diff(&args[1..])
    } else {
        run_bench(&args)
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("gfbench: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn run_diff(args: &[String]) -> Result<bool, String> {
    let mut bench = PathBuf::from("BENCHMARK.json");
    let (mut base, mut change) = (Vec::new(), Vec::new());
    let mut side: Option<&mut Vec<String>> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--bench" => bench = it.next().ok_or("--bench needs a path")?.into(),
            "--base" => side = Some(&mut base),
            "--change" => side = Some(&mut change),
            path => side
                .as_deref_mut()
                .ok_or(format!("{path}: give --base or --change first"))?
                .push(path.to_string()),
        }
    }
    if base.is_empty() || change.is_empty() {
        return Err("diff needs result files on both sides".into());
    }
    diff::diff(&bench, &base, &change)
}

fn run_bench(args: &[String]) -> Result<bool, String> {
    let mut workload = None;
    let mut cfg = RunConfig {
        seed: 42,
        seconds: spec::RUN_SECONDS as f64,
        traced: false,
        dir: PathBuf::new(),
        trace_out: None,
    };
    let mut out: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let bad = |v: &str| format!("{flag}: cannot parse {v:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => cfg.seed = value()?.parse().map_err(|_| bad(flag))?,
            "--seconds" => {
                let v = value()?;
                cfg.seconds = v.parse().map_err(|_| bad(v))?;
            }
            "--trace" => {
                cfg.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(bad(v)),
                }
            }
            "--out" => out = Some(value()?.into()),
            "--trace-out" => cfg.trace_out = Some(value()?.into()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let name = workload.ok_or("--workload is required")?;
    let w = spec::workload(&name).ok_or_else(|| {
        let known: Vec<&str> = spec::workloads().iter().map(|w| w.name).collect();
        format!("unknown workload {name:?} (known: {})", known.join(", "))
    })?;

    println!("workload {}: {}", w.name, w.why);
    let scratch = ScratchDir::create(Path::new(SCRATCH), w.name).map_err(|e| e.to_string())?;
    cfg.dir = scratch.0.clone();
    let outcome = run::run(&w, &cfg).map_err(|e| format!("run failed: {e}"))?;
    drop(scratch);

    for note in &outcome.notes {
        println!("{note}");
    }
    for m in &outcome.metrics {
        let (d, s) = (&m.def, &m.summary);
        println!(
            "{} {} {} {} {} {} {} {}",
            w.name, d.name, s.median, d.unit, s.median, s.q1, s.q3, s.n
        );
    }
    println!(
        "ops_failed/ops_attempted {}/{}",
        outcome.failed, outcome.attempted
    );
    if let Some(path) = out {
        let file = result_json(&outcome, w.name, &cfg, true).pretty();
        std::fs::write(&path, file).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    println!("{}", result_json(&outcome, w.name, &cfg, false).render());
    Ok(outcome.failed == 0)
}

/// The result object: the bare `correct`/`attempted`/`failed`/`metrics`
/// line closing stdout, or with `detailed` the result file `diff` reads
/// (run identity plus quartiles and sample counts).
fn result_json(o: &Outcome, workload: &str, cfg: &RunConfig, detailed: bool) -> Json {
    let metrics = o
        .metrics
        .iter()
        .map(|m| {
            let (d, s, samples) = (&m.def, &m.summary, &m.samples);
            let mut fields = vec![
                ("value".to_string(), Json::Num(s.median)),
                ("unit".to_string(), Json::Str(d.unit.to_string())),
            ];
            if detailed {
                fields.push(("q1".to_string(), Json::Num(s.q1)));
                fields.push(("q3".to_string(), Json::Num(s.q3)));
                fields.push(("n".to_string(), Json::Num(s.n as f64)));
                let samples = samples.iter().copied().map(Json::Num).collect();
                fields.push(("samples".to_string(), Json::Arr(samples)));
            }
            (d.name.clone(), Json::Obj(fields))
        })
        .collect();
    let mut fields = Vec::new();
    if detailed {
        fields.push(("workload", Json::Str(workload.to_string())));
        fields.push(("seed", Json::Num(cfg.seed as f64)));
        fields.push(("trace", Json::Bool(cfg.traced)));
    }
    fields.extend([
        ("correct", Json::Bool(o.failed == 0)),
        ("attempted", Json::Num(o.attempted as f64)),
        ("failed", Json::Num(o.failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ]);
    Json::obj(fields)
}
