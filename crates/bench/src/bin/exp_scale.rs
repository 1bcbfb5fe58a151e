//! Out-of-core scale experiment: sharded spill-to-disk GoldFinger LSH
//! builds with a bounded peak RSS.
//!
//! Streams a Table-2-calibrated synthetic population of `--users` users
//! (derived per-user, never materialized) through
//! `goldfinger_knn::oocbuild`, writes the stitched graph straight to
//! disk, and reports per-phase walls, per-shard walls, and the per-run
//! RSS peak against `--mem-budget`. This is the driver behind the
//! `BENCH_pr9.json` scale rows and the CI bounded-RSS smoke leg.
//!
//! The build runs on a worker pool of `GF_THREADS` threads (the machine's
//! parallelism when unset); the graph is the same at any thread count.
//!
//! ```text
//! cargo run --release -p goldfinger-bench --bin exp_scale -- \
//!     --users 10000000 --mem-budget 1g --max-bucket 256 --json scale.json
//! ```

use goldfinger_bench::{emit_if_requested, mem_json, prep_json, Args};
use goldfinger_core::hash::DynHasher;
use goldfinger_core::pool::{self, Pool};
use goldfinger_core::shf::ShfParams;
use goldfinger_datasets::synth::{StreamProfiles, SynthConfig};
use goldfinger_knn::oocbuild::{self, OocConfig};
use goldfinger_obs::{IterationEvent, Json, Phase, PhaseSpan, ReportSet, RunReport, TraceSession};
use std::path::PathBuf;

/// Parses a byte count with optional `k`/`m`/`g` (KiB/MiB/GiB) suffix.
fn parse_bytes(v: &str) -> u64 {
    let v = v.trim().to_lowercase();
    let (num, shift) = match v.as_bytes().last() {
        Some(b'k') => (&v[..v.len() - 1], 10u32),
        Some(b'm') => (&v[..v.len() - 1], 20),
        Some(b'g') => (&v[..v.len() - 1], 30),
        _ => (v.as_str(), 0),
    };
    let n: u64 = num
        .parse()
        .unwrap_or_else(|_| panic!("--mem-budget: cannot parse {v:?} (e.g. 512m, 2g)"));
    n << shift
}

fn main() {
    let _trace = TraceSession::from_env();
    // Per-run peak attribution: rebase the kernel's high-water mark and
    // snapshot the floor before any arena exists.
    let peak_reset = goldfinger_obs::mem::reset_rss_peak();
    let mem_before = goldfinger_obs::mem::snapshot();

    let args = Args::from_env();
    let users = args.get_usize("users", 1_000_000);
    let k = args.get_usize("k", 10);
    let tables = args.get_usize("tables", 2);
    let bits = args.get_usize("bits", 256) as u32;
    let seed = args.get_usize("seed", 42) as u64;
    let mem_budget = args.get("mem-budget").map_or(0, parse_bytes);
    let spill_dir = PathBuf::from(
        args.get("spill")
            .map_or_else(|| "gf-scale-spill".to_string(), str::to_string),
    );

    let mut cfg = OocConfig::new(k, tables, seed, &spill_dir);
    cfg.shards = args.get_usize("shards", 0);
    cfg.mem_budget = mem_budget;
    cfg.spill = !args.has_flag("no-spill");
    // Zipf-popular items put a large fraction of a 10M-user population in
    // the same hot buckets; an uncapped scan is quadratic in those. The
    // cap (off with 0) keeps scan cost linear at a recall price — this is
    // the scale knob, not the fidelity knob.
    cfg.max_bucket = args.get_usize("max-bucket", 256);

    let mut synth = SynthConfig::ml1m().with_seed(seed);
    synth.n_users = users;
    let source = StreamProfiles::new(&synth);
    println!(
        "scale: {users} users ({} calibration, ~{:.0} items/user), k={k}, \
         {tables} tables, {bits}-bit SHFs",
        synth.name, synth.mean_profile
    );
    let pool = Pool::new(pool::default_threads());
    println!(
        "       budget {} · spill {} · max-bucket {} · {} threads",
        if mem_budget > 0 {
            format!("{} MiB", mem_budget >> 20)
        } else {
            "unbounded".to_string()
        },
        if cfg.spill { "on" } else { "off" },
        cfg.max_bucket,
        pool.threads()
    );

    let out = spill_dir.join("graph.gfg");
    std::fs::create_dir_all(&spill_dir).expect("creating spill dir");
    let params = ShfParams::new(bits, DynHasher::default());
    let stats = pool
        .install(|| oocbuild::build_to_disk(&source, &params, &cfg, &out))
        .expect("out-of-core build");
    let graph_bytes = std::fs::metadata(&out).map(|m| m.len()).unwrap_or(0);

    let snap = goldfinger_obs::mem::snapshot().unwrap_or_default();
    println!(
        "built {} users in {:?}: {} shards, {} evals, backend {}",
        stats.n_users, stats.wall, stats.shards, stats.similarity_evals, stats.backend
    );
    println!(
        "  fingerprint {:?} · index {:?} · scan {:?} · stitch {:?}",
        stats.fingerprint_wall, stats.index_wall, stats.scan_wall, stats.stitch_wall
    );
    println!(
        "  arena {} MiB · spilled {} MiB · graph {} MiB on disk",
        stats.arena_bytes >> 20,
        stats.spilled_bytes >> 20,
        graph_bytes >> 20
    );
    println!(
        "  peak rss {} MiB{} (per-run: {peak_reset})",
        snap.peak_kb / 1024,
        if mem_budget > 0 {
            format!(" / budget {} MiB", mem_budget >> 20)
        } else {
            String::new()
        }
    );
    if mem_budget > 0 && snap.peak_kb * 1024 > mem_budget {
        println!("  WARNING: peak RSS exceeds the budget");
    }
    if !args.has_flag("keep-spill") {
        std::fs::remove_dir_all(&spill_dir).ok();
    }

    // Machine-readable report: standard phases for the pipeline stages,
    // per-shard walls and the memory accounting as extras.
    let span = |phase, wall, entries| PhaseSpan {
        phase,
        wall,
        entries,
    };
    let shards_json = Json::Arr(
        stats
            .shard_walls
            .iter()
            .enumerate()
            .map(|(s, w)| {
                Json::obj(vec![
                    ("shard", Json::Num(s as f64)),
                    ("secs", Json::Num(w.as_secs_f64())),
                ])
            })
            .collect(),
    );
    let report = RunReport {
        experiment: "scale".to_string(),
        dataset: synth.name.clone(),
        algo: "LSH-ooc".to_string(),
        provider: "goldfinger".to_string(),
        n_users: stats.n_users as u64,
        k: k as u64,
        bits: bits as u64,
        seed,
        phases: vec![
            span(Phase::Fingerprinting, stats.fingerprint_wall, 1),
            span(Phase::CandidateGeneration, stats.index_wall, tables as u64),
            span(Phase::Join, stats.scan_wall, stats.shards as u64),
            span(Phase::Merge, stats.stitch_wall, stats.shards as u64),
        ],
        iterations: vec![IterationEvent {
            iteration: 1,
            similarity_evals: stats.similarity_evals,
            pruned_evals: 0,
            updates: 0,
            threshold: 0.0,
            wall: stats.scan_wall,
        }],
        similarity_evals: stats.similarity_evals,
        pruned_evals: 0,
        n_iterations: 1,
        wall: stats.wall,
        prep_wall: stats.fingerprint_wall,
        traffic: None,
        extra: vec![
            (
                "prep".to_string(),
                prep_json("shf", stats.fingerprint_wall, stats.associations),
            ),
            ("mem".to_string(), mem_json(mem_before, peak_reset)),
            ("shards".to_string(), shards_json),
            ("shard_count".to_string(), Json::Num(stats.shards as f64)),
            ("mem_budget_bytes".to_string(), Json::Num(mem_budget as f64)),
            (
                "arena_bytes".to_string(),
                Json::Num(stats.arena_bytes as f64),
            ),
            (
                "spilled_bytes".to_string(),
                Json::Num(stats.spilled_bytes as f64),
            ),
            ("graph_bytes".to_string(), Json::Num(graph_bytes as f64)),
            ("max_bucket".to_string(), Json::Num(cfg.max_bucket as f64)),
            ("backend".to_string(), Json::Str(stats.backend.to_string())),
            ("threads".to_string(), Json::Num(pool.threads() as f64)),
        ],
    };
    let mut set = ReportSet::new("scale");
    set.runs.push(report);
    emit_if_requested(&args, &set);
}
