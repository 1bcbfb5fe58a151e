//! One benchmark run: set-up, then timed rounds until `--seconds` is
//! used, then one summary per metric.
//!
//! A round runs every layer once: the six registry builds (in an order
//! rotated each round), a serving segment and an out-of-core build. Each
//! end-to-end metric is the median over the rounds; the traced mode runs
//! one untraced round first (the tracing-overhead baseline) and reports
//! the per-layer metrics as medians over the traced rounds after it.

use crate::builds::{run_build, BuildRun};
use crate::ooc::run_ooc;
use crate::serve::{run_serve, window_p99s, TAIL_WINDOW_S};
use crate::setup::{exact_graph, setup, Setup};
use crate::spec::{
    self, phases, MetricDef, Workload, BUILDERS, POOLED, SERVE_SPANS, STEALING, SYSTEM_SEED,
};
use crate::speed::SpeedProbe;
use crate::stats::{median, percentile, Summary};
use goldfinger_core::pool::Pool;
use goldfinger_core::similarity::ShfJaccard;
use goldfinger_knn::{Cluster, KnnGraph};
use goldfinger_obs::mem;
use goldfinger_obs::trace::{self, Timeline, TraceKind};
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Per-thread flight-recorder capacity (events) of a traced round. The
/// busiest thread runs the out-of-core scan, which records one kernel
/// event per user (150,000), plus the ingest spans.
const TRACE_CAPACITY: usize = 1 << 18;

/// Largest lag the update client may end a serving segment with: more
/// means the drains fell behind the offered load.
const MAX_FINAL_LAG_S: f64 = 1.0;

/// How a run is asked to behave.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Input seed.
    pub seed: u64,
    /// Measuring budget; rounds start while the median round still fits.
    pub seconds: f64,
    /// Traced (per-layer) instead of untraced (end-to-end) metrics.
    pub traced: bool,
    /// Scratch directory for the out-of-core files.
    pub dir: PathBuf,
    /// Where to write the last traced round's Chrome trace, if anywhere.
    pub trace_out: Option<PathBuf>,
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Reported {
    /// Which metric.
    pub def: MetricDef,
    /// Median and quartiles of `samples`.
    pub summary: Summary,
    /// Every sample taken (one per round, set-up or tail window).
    pub samples: Vec<f64>,
}

/// A run's results.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Every reported metric, in catalogue order.
    pub metrics: Vec<Reported>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// Human-readable findings: failed checks, attribution tables,
    /// tracing overhead.
    pub notes: Vec<String>,
}

#[derive(Default)]
struct Samples(BTreeMap<String, Vec<f64>>);

impl Samples {
    fn push(&mut self, name: impl Into<String>, value: f64) {
        self.0.entry(name.into()).or_default().push(value);
    }

    fn summarise(&self, defs: Vec<MetricDef>) -> Result<Vec<Reported>, String> {
        defs.into_iter()
            .map(|def| {
                let values = self.0.get(&def.name).filter(|v| !v.is_empty());
                let values = values.ok_or_else(|| format!("{}: never measured", def.name))?;
                if let Some(bad) = values.iter().find(|v| !v.is_finite()) {
                    return Err(format!("{}: non-finite sample {bad}", def.name));
                }
                Ok(Reported {
                    summary: Summary::of(values),
                    samples: values.clone(),
                    def,
                })
            })
            .collect()
    }
}

/// Mutable state threaded through the rounds.
struct State {
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
    /// First-round digests every later round must reproduce.
    build_digests: BTreeMap<&'static str, u64>,
    serve_digest: Option<u64>,
    ooc_digest: Option<u64>,
    /// Pair slots of the registry's cluster layout (traced runs).
    cluster_pair_slots: Option<u64>,
    probe: SpeedProbe,
    untraced: Samples,
    traced: Samples,
}

impl State {
    fn fail(&mut self, ops: u64, why: String) {
        self.failed += ops;
        self.notes.push(format!("FAILED {why}"));
    }

    /// Where a round's end-to-end samples go: traced rounds keep theirs
    /// apart, so the tracing overhead can be read off against round 0.
    fn e2e(&mut self, traced: bool) -> &mut Samples {
        if traced {
            &mut self.traced
        } else {
            &mut self.untraced
        }
    }
}

/// Runs workload `w`.
pub fn run(w: &Workload, cfg: &RunConfig) -> io::Result<Outcome> {
    let pool = Pool::new(spec::THREADS);
    pool.install(|| run_installed(w, cfg))
}

fn run_installed(w: &Workload, cfg: &RunConfig) -> io::Result<Outcome> {
    let mut setup_times = Vec::with_capacity(w.setup_reps);
    let mut prepared: Option<Setup> = None;
    for _ in 0..w.setup_reps.max(1) {
        drop(prepared.take()); // free the previous set-up before the next
        let s = setup(w, cfg.seed, &cfg.dir)?;
        setup_times.push(s.times);
        prepared = Some(s);
    }
    let setup = prepared.expect("at least one set-up");
    let exact = exact_graph(&setup, w.k);

    let mut st = State {
        attempted: 0,
        failed: 0,
        notes: Vec::new(),
        build_digests: BTreeMap::new(),
        serve_digest: None,
        ooc_digest: None,
        cluster_pair_slots: None,
        probe: SpeedProbe::default(),
        untraced: Samples::default(),
        traced: Samples::default(),
    };
    for t in &setup_times {
        st.untraced.push("setup_s", t.total_s);
        st.traced.push("datasets.generate_s", t.generate_s);
        st.traced.push("datasets.prepare_s", t.prepare_s);
        st.traced.push("shf.fingerprint_s", t.fingerprint_s);
    }

    let start = Instant::now();
    let mut walls: Vec<f64> = Vec::new();
    let min_rounds = w.min_rounds.max(if cfg.traced { 2 } else { 1 });
    while walls.len() < min_rounds || start.elapsed().as_secs_f64() + median(&walls) <= cfg.seconds
    {
        let r = walls.len();
        let traced = cfg.traced && r > 0;
        let t0 = Instant::now();
        round(w, &setup, &exact, r, traced, cfg, &mut st)?;
        walls.push(t0.elapsed().as_secs_f64());
    }

    let summaries = if cfg.traced {
        st.notes.extend(overhead_notes(&st));
        st.notes.extend(split_notes(&st.traced));
        st.traced.summarise(spec::per_layer())
    } else {
        let factor = st.probe.factor();
        let [alu, popcount, gather] = st.probe.medians().map(|s| s * 1e3);
        st.notes.push(format!(
            "machine speed factor {factor:.4} (median of rounds; alu {alu:.3} ms, popcount \
             {popcount:.3} ms, gather {gather:.3} ms): each round's build_s.*, ooc_build_s \
             and lookup_p99_us are divided by that round's factor"
        ));
        st.untraced.summarise(spec::end_to_end())
    };
    let metrics = summaries.map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    Ok(Outcome {
        metrics,
        attempted: st.attempted,
        failed: st.failed,
        notes: st.notes,
    })
}

fn peak_mib() -> f64 {
    mem::snapshot().map_or(0.0, |s| s.peak_kb as f64 / 1024.0)
}

/// Round `r`: the speed probe, the builds, then the serving and
/// out-of-core segments.
fn round(
    w: &Workload,
    setup: &Setup,
    exact: &KnnGraph,
    r: usize,
    traced: bool,
    cfg: &RunConfig,
    st: &mut State,
) -> io::Result<()> {
    let speed = st.probe.measure(5);
    let marks: BTreeMap<String, usize> = st
        .untraced
        .0
        .iter()
        .map(|(k, v)| (k.clone(), v.len()))
        .collect();
    mem::reset_rss_peak();

    // Builds, in an order rotated every round so no builder always runs
    // on a cold (or warm) cache.
    let sim = ShfJaccard::new(&setup.store);
    for i in 0..BUILDERS.len() {
        let key = BUILDERS[(i + r) % BUILDERS.len()];
        for _ in 0..spec::reps(key) {
            build_once(key, &sim, w, setup, exact, r, traced, st);
        }
    }
    let builds_peak = peak_mib();

    // The flight recorder covers the serving and out-of-core segments,
    // whose in-program spans the per-layer metrics read. Builds stay
    // unrecorded: their per-batch kernel events would run to millions per
    // round, and their attribution comes from the observer and the timed
    // provider instead.
    if traced {
        trace::enable(TRACE_CAPACITY);
    }
    let round_span = trace::span_arg("gfbench", "round", r as u64);

    serve_segment(w, setup, r, traced, st);
    let serve_peak = peak_mib();
    let ooc_peak = ooc_segment(w, setup, r, traced, cfg, st);
    st.e2e(traced)
        .push("peak_rss_mib", builds_peak.max(serve_peak).max(ooc_peak));

    drop(round_span);
    // Untraced end-to-end times are reported at the calibration host's
    // speed (see `speed`); traced runs stay raw so their time splits add up.
    if !cfg.traced {
        for (name, samples) in st.untraced.0.iter_mut() {
            if spec::speed_normalized(name) {
                let fresh = marks.get(name).copied().unwrap_or(0);
                samples[fresh..].iter_mut().for_each(|v| *v /= speed);
            }
        }
    }
    if traced {
        let timeline = trace::disable_and_drain();
        if timeline.dropped > 0 {
            st.notes.push(format!(
                "round {r}: flight recorder dropped {} events",
                timeline.dropped
            ));
        }
        for (phase, secs) in serve_self_times(&timeline) {
            st.traced.push(format!("serve.{phase}_s"), secs);
        }
        if let Some(path) = &cfg.trace_out {
            // Spans only: the per-batch kernel and per-task pool events
            // are tens of thousands per round and carry no layer time.
            let spans = Timeline {
                events: timeline
                    .events
                    .iter()
                    .filter(|e| e.kind != TraceKind::Instant && e.cat != "pool")
                    .copied()
                    .collect(),
                dropped: timeline.dropped,
                threads: timeline.threads.clone(),
            };
            std::fs::write(path, spans.to_chrome_json().render())?;
        }
    }
    Ok(())
}

/// The serving segment of round `r`: traffic, checks and metrics.
fn serve_segment(w: &Workload, setup: &Setup, r: usize, traced: bool, st: &mut State) {
    let s = run_serve(&w.serve, setup, w.k);
    let ops = (s.lookup_us.len() + s.visible_ms.len()) as u64;
    st.attempted += ops;
    let same = *st.serve_digest.get_or_insert(s.digest) == s.digest;
    if !same || !s.verified || s.final_lag_s > MAX_FINAL_LAG_S {
        st.fail(
            ops,
            format!(
                "round {r} serve: same-digest={same} verified={} final-lag={:.3}s",
                s.verified, s.final_lag_s
            ),
        );
    } else if s.bad_lookups > 0 {
        st.fail(
            s.bad_lookups,
            format!("round {r} serve: {} bad lookups", s.bad_lookups),
        );
    }
    let pct = |v: &[f64], p: f64| percentile(&mut v.to_vec(), p);
    let window = (w.serve.lookup_rate * TAIL_WINDOW_S) as usize;
    let e2e = st.e2e(traced);
    for p99 in window_p99s(&s.lookup_us, window) {
        e2e.push("lookup_p99_us", p99);
    }
    // A round's updates (4,500 at the pinned rate) leave 45 samples past
    // the p99; a quarter-second window would leave fewer than ten.
    e2e.push("update_visible_p99_ms", pct(&s.visible_ms, 0.99));
    if !traced {
        return;
    }
    let t = &mut st.traced;
    t.push("serve.lookup_p50_us", pct(&s.lookup_us, 0.5));
    t.push("serve.lookup_due_p99_us", pct(&s.lookup_due_us, 0.99));
    t.push("serve.update_visible_p50_ms", pct(&s.visible_ms, 0.5));
    t.push("serve.drain_p50_ms", pct(&s.drain_ms, 0.5));
    t.push("serve.drain_p99_ms", pct(&s.drain_ms, 0.99));
    t.push("serve.client_lag_p99_ms", pct(&s.lag_ms, 0.99));
    t.push("serve.drains", s.drains as f64);
    t.push("serve.repairs", s.repairs as f64);
    t.push(
        "serve.evals_per_repair",
        s.repair_evals as f64 / s.repairs.max(1) as f64,
    );
}

/// The out-of-core segment of round `r`; returns the resident-set peak
/// it reached, MiB (0 when the build failed).
fn ooc_segment(
    w: &Workload,
    setup: &Setup,
    r: usize,
    traced: bool,
    cfg: &RunConfig,
    st: &mut State,
) -> f64 {
    st.attempted += 1;
    let o = match run_ooc(&w.ooc, &setup.input, &cfg.dir, traced) {
        Ok(o) => o,
        Err(e) => {
            st.fail(1, format!("round {r} ooc: {e}"));
            return 0.0;
        }
    };
    let peak = peak_mib();
    let same = *st.ooc_digest.get_or_insert(o.digest) == o.digest;
    // In a traced round the flight recorder's per-thread rings (16 MiB
    // each, allocated on a thread's first event) land in the resident
    // set, so only untraced rounds are held to the budget.
    if !same || !(traced || o.within_budget(&w.ooc)) {
        st.fail(
            1,
            format!(
                "round {r} ooc: same-digest={same} rss-growth={:.1}MiB budget={}MiB",
                o.peak_growth_mib, w.ooc.budget_mib
            ),
        );
    }
    let s = &o.stats;
    st.e2e(traced).push("ooc_build_s", s.wall.as_secs_f64());
    if traced {
        let mib = |bytes: u64| bytes as f64 / (1u64 << 20) as f64;
        let read_s = o.read_s.unwrap_or(0.0);
        let ingest_s = s.fingerprint_wall.as_secs_f64() - read_s;
        let t = &mut st.traced;
        t.push(
            "shf.assoc_per_s",
            s.associations as f64 / ingest_s.max(1e-9),
        );
        t.push("ooc.fingerprint_s", s.fingerprint_wall.as_secs_f64());
        t.push("ooc.index_s", s.index_wall.as_secs_f64());
        t.push("ooc.scan_s", s.scan_wall.as_secs_f64());
        t.push("ooc.stitch_s", s.stitch_wall.as_secs_f64());
        t.push("ooc.evals", s.similarity_evals as f64);
        t.push("ooc.spilled_mib", mib(s.spilled_bytes));
        t.push("ooc.graph_mib", mib(o.graph_bytes));
        t.push("input.read_s", read_s);
    }
    peak
}

#[allow(clippy::too_many_arguments)]
fn build_once(
    key: &'static str,
    sim: &ShfJaccard<'_>,
    w: &Workload,
    setup: &Setup,
    exact: &KnnGraph,
    r: usize,
    traced: bool,
    st: &mut State,
) {
    let b = run_build(key, sim, &setup.data, w.k, exact, traced);
    st.attempted += 1;
    let repeat = match st.build_digests.get(key) {
        Some(&d) => !b.deterministic || d == b.digest,
        None => {
            st.build_digests.insert(key, b.digest);
            true
        }
    };
    if !b.valid || !repeat {
        st.fail(
            1,
            format!(
                "round {r} {key}: valid={} recall={:.4} same-digest={repeat}",
                b.valid, b.recall
            ),
        );
    }
    record_build(key, &b, setup, traced, st);
}

fn record_build(key: &'static str, b: &BuildRun, setup: &Setup, traced: bool, st: &mut State) {
    let e2e = st.e2e(traced);
    e2e.push(format!("build_s.{key}"), b.wall_s);
    if key != "brute" {
        e2e.push(format!("recall.{key}"), b.recall);
    }
    let Some(a) = b.attribution else { return };
    let evals = b.stats.similarity_evals;
    let pair_slots = *st.cluster_pair_slots.get_or_insert_with(|| {
        Cluster {
            seed: SYSTEM_SEED,
            threads: spec::THREADS,
            ..Cluster::default()
        }
        .assign(setup.data.profiles())
        .stats()
        .pair_slots
    });
    let t = &mut st.traced;
    t.push(format!("sim.kernel_s.{key}"), a.kernel.wall_s());
    t.push(format!("sim.evals.{key}"), evals as f64);
    t.push(format!("sim.batched_frac.{key}"), a.kernel.batched_frac());
    t.push(format!("sim.ns_per_eval.{key}"), a.kernel.ns_per_eval());
    let [cand, join, merge] = a.phases;
    for p in phases(key) {
        let secs = match *p {
            "candidate_generation" => cand,
            "join" => join,
            _ => merge,
        };
        t.push(format!("{key}.{p}_s"), secs);
    }
    t.push(format!("{key}.bookkeeping_s"), join - a.kernel.wall_s());
    t.push(
        format!("{key}.unattributed_frac"),
        (b.wall_s - cand - join - merge) / b.wall_s,
    );
    match key {
        "hyrec" | "nndescent" => {
            t.push(format!("{key}.iterations"), b.stats.iterations as f64);
            t.push(
                format!("{key}.updates_per_eval"),
                a.updates as f64 / evals.max(1) as f64,
            );
        }
        "brute" => t.push("brute.prune_rate", b.stats.prune_rate()),
        "cluster" => t.push(
            "cluster.dedup_rate",
            1.0 - (evals + b.stats.pruned_evals) as f64 / pair_slots.max(1) as f64,
        ),
        _ => {}
    }
    if POOLED.contains(&key) {
        t.push(format!("pool.dispatches.{key}"), b.pool.dispatches as f64);
        t.push(format!("pool.parks.{key}"), b.pool.parks as f64);
    }
    if STEALING.contains(&key) {
        t.push(format!("pool.steals.{key}"), b.pool.steals as f64);
    }
}

/// Self time (own duration minus nested spans on the same thread) of each
/// traced drain phase of `knn::serve`, summed over the timeline.
pub fn serve_self_times(timeline: &Timeline) -> Vec<(&'static str, f64)> {
    let mut totals: BTreeMap<&str, f64> = SERVE_SPANS.iter().map(|&p| (p, 0.0)).collect();
    // Per thread: open spans as (cat, name, begin ns, nested ns).
    let mut stacks: BTreeMap<u64, Vec<(&str, &str, u64, u64)>> = BTreeMap::new();
    for e in &timeline.events {
        let stack = stacks.entry(e.tid).or_default();
        match e.kind {
            TraceKind::Begin => stack.push((e.cat, e.name, e.ts_nanos, 0)),
            TraceKind::End => {
                let Some((cat, name, begin, nested)) = stack.pop() else {
                    continue;
                };
                let dur = e.ts_nanos.saturating_sub(begin);
                if let Some(parent) = stack.last_mut() {
                    parent.3 += dur;
                }
                if cat == "serve" {
                    if let Some(total) = totals.get_mut(name) {
                        *total += dur.saturating_sub(nested) as f64 * 1e-9;
                    }
                }
            }
            TraceKind::Instant => {}
        }
    }
    SERVE_SPANS.iter().map(|&p| (p, totals[p])).collect()
}

/// Traced − untraced value of each end-to-end metric measured in both
/// modes: what tracing itself costs.
fn overhead_notes(st: &State) -> Vec<String> {
    let mut notes = vec!["tracing overhead (traced median - untraced):".to_string()];
    for d in spec::end_to_end() {
        let (Some(plain), Some(traced)) = (st.untraced.0.get(&d.name), st.traced.0.get(&d.name))
        else {
            continue;
        };
        let (p, t) = (median(plain), median(traced));
        notes.push(format!(
            "  {:<24} {:>12.6} -> {:>12.6} {:<8} ({:+.1}%)",
            d.name,
            p,
            t,
            d.unit,
            (t - p) / p * 100.0
        ));
    }
    notes
}

/// The per-builder split of `build_s` into candidate generation, kernel,
/// bookkeeping, merge and unattributed time (medians over traced rounds).
fn split_notes(t: &Samples) -> Vec<String> {
    let get = |name: String| t.0.get(&name).map_or(0.0, |v| median(v));
    let mut notes = vec![format!(
        "{:<10} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "builder",
        "build_s",
        "candgen",
        "kernel",
        "bookkeep",
        "merge",
        "unattr%",
        "ns/eval",
        "batched"
    )];
    for key in BUILDERS {
        let build = get(format!("build_s.{key}"));
        let unattr = get(format!("{key}.unattributed_frac"));
        notes.push(format!(
            "{key:<10} {build:>9.4} {:>9.4} {:>9.4} {:>9.4} {:>9.4} {:>9.1} {:>9.1} {:>9.3}",
            get(format!("{key}.candidate_generation_s")),
            get(format!("sim.kernel_s.{key}")),
            get(format!("{key}.bookkeeping_s")),
            get(format!("{key}.merge_s")),
            unattr * 100.0,
            get(format!("sim.ns_per_eval.{key}")),
            get(format!("sim.batched_frac.{key}")),
        ));
        if unattr > 0.10 {
            notes.push(format!(
                "WARN {key}: {:.1}% of build_s unattributed",
                unattr * 100.0
            ));
        }
    }
    notes
}

/// Removes the run's scratch directory when the run ends, however it ends.
pub struct ScratchDir(pub PathBuf);

impl ScratchDir {
    /// Creates `base/<workload>-<pid>`.
    pub fn create(base: &Path, workload: &str) -> io::Result<ScratchDir> {
        let dir = base.join(format!("{workload}-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(ScratchDir(dir))
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(base) = self.0.parent() {
            let _ = std::fs::remove_dir(base); // only succeeds once empty
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every workload, untraced and traced, through the exact code path
    /// of a real run — at toy size, where every check must still pass.
    #[test]
    fn every_workload_runs_at_toy_size_with_no_failed_op() {
        for w in spec::workloads() {
            let toy = w.toy();
            for traced in [false, true] {
                let base = std::env::temp_dir().join(format!("gfbench-toy-{}", std::process::id()));
                let scratch = ScratchDir::create(&base, toy.name).unwrap();
                let trace_out = scratch.0.join("trace.json");
                let cfg = RunConfig {
                    seed: 5,
                    seconds: 0.0,
                    traced,
                    dir: scratch.0.clone(),
                    trace_out: traced.then(|| trace_out.clone()),
                };
                let o = run(&toy, &cfg).unwrap();
                let label = format!("{} traced={traced}", toy.name);
                assert_eq!(o.failed, 0, "{label}: {:#?}", o.notes);
                assert!(o.attempted > 0, "{label}");
                let expected = if traced {
                    spec::per_layer()
                } else {
                    spec::end_to_end()
                };
                let got: Vec<&MetricDef> = o.metrics.iter().map(|m| &m.def).collect();
                assert_eq!(got, expected.iter().collect::<Vec<_>>(), "{label}");
                assert!(
                    o.metrics.iter().all(|m| m.summary.median.is_finite()),
                    "{label}"
                );
                if traced {
                    let text = std::fs::read_to_string(&trace_out).unwrap();
                    let json = goldfinger_obs::Json::parse(&text).unwrap();
                    let events = json.get("traceEvents").and_then(|e| e.as_array()).unwrap();
                    assert!(events.iter().any(|e| {
                        e.get("name").and_then(|n| n.as_str()) == Some("plan_repairs")
                    }));
                }
            }
        }
    }
}
