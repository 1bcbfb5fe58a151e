//! Online-serving replay driver: a `KnnService` under a deterministic
//! interleaved stream of profile updates and top-k lookups.
//!
//! The paper's §1.2 motivation — "web real-time" services refreshing
//! suggestions on fresh data — is exercised end to end: the driver builds
//! an initial GoldFinger graph, hands it and its fingerprint store to the
//! service, replays a seeded op log (updates queue batched repairs;
//! lookups read epoch snapshots), and reports p50/p99 latencies plus
//! sustained throughput through the `goldfinger-bench/v1` `RunReport`
//! schema.
//!
//! ```text
//! cargo run --release -p goldfinger-bench --bin exp_serve [-- \
//!     --ops 100000 --batch 256 --update-pct 30 --threads 4 \
//!     --ops-file trace.oplog --verify-serial --json results/serve.json]
//! ```
//!
//! The op log is **streamed**, never materialized: by default a lazy
//! deterministic generator (`synth_op_stream`), or with `--ops-file` a
//! line-at-a-time reader over a recorded log (`OpLogReader`). Memory
//! stays flat no matter how long the replay is.
//!
//! `--verify-serial` replays the identical op log a second time on a
//! fresh single-threaded service (the generator is re-seeded / the file
//! re-opened) and asserts both runs produced the same lookup and graph
//! digests — the CI legs run this at `GF_THREADS ∈ {1,4}` so a
//! thread-count-dependent drain cannot land.
//!
//! Observability hooks: `GF_TRACE=path.json` flight-records the build and
//! the replay (drain phases, pool tasks, kernel batches) into a
//! Chrome-trace file, and `--metrics-addr HOST:PORT` serves live
//! `/metrics` + `/healthz` + `/epoch` from the replay's registry for the
//! duration of the run.

use goldfinger_bench::workloads::{build_dataset, record_mem_gauges, shared_pool};
use goldfinger_bench::{emit_if_requested, mem_json, prep_json, Args, ExperimentConfig, Table};
use goldfinger_core::hash::DynHasher;
use goldfinger_core::parallel::effective_threads;
use goldfinger_core::shf::ShfParams;
use goldfinger_core::similarity::ShfJaccard;
use goldfinger_datasets::synth::SynthConfig;
use goldfinger_knn::brute::BruteForce;
use goldfinger_knn::oplog::OpLogReader;
use goldfinger_knn::serve::{
    replay_stream, synth_op_stream, KnnService, Op, ReplayOutcome, ServeConfig,
};
use goldfinger_obs::{Json, MetricsServer, Registry, ReportSet, RunReport, StatusFn, TraceSession};
use std::sync::Arc;
use std::time::{Duration, Instant};

struct ServeRun {
    outcome: ReplayOutcome,
    wall: Duration,
}

fn build_service(
    data: &goldfinger_datasets::model::BinaryDataset,
    cfg: &ExperimentConfig,
    serve: &ServeConfig,
    registry: &Registry,
) -> (KnnService, Duration) {
    let params = ShfParams::new(cfg.bits, DynHasher::default());
    let t0 = Instant::now();
    let store = params.fingerprint_store(data.profiles());
    let prep = t0.elapsed();
    let graph = BruteForce::default()
        .build(&ShfJaccard::new(&store), cfg.k)
        .graph;
    (
        KnnService::new(&graph, &store, *params.hasher(), serve.clone(), registry),
        prep,
    )
}

/// Where the replay's ops come from. Each replay asks for a fresh stream,
/// so `--verify-serial` re-seeds the generator / re-opens the file instead
/// of holding the log in memory.
enum OpSource {
    Synth {
        n_users: usize,
        n_items: u32,
        n_ops: usize,
        update_pct: u32,
        seed: u64,
    },
    File(String),
}

impl OpSource {
    fn stream(&self) -> Box<dyn Iterator<Item = Op>> {
        match self {
            OpSource::Synth {
                n_users,
                n_items,
                n_ops,
                update_pct,
                seed,
            } => Box::new(synth_op_stream(
                *n_users,
                *n_items,
                *n_ops,
                *update_pct,
                *seed,
            )),
            OpSource::File(path) => {
                let file = std::fs::File::open(path)
                    .unwrap_or_else(|e| panic!("opening --ops-file {path}: {e}"));
                let path = path.clone();
                Box::new(
                    OpLogReader::new(file).map(move |r| {
                        r.unwrap_or_else(|e| panic!("reading --ops-file {path}: {e}"))
                    }),
                )
            }
        }
    }
}

fn run_replay(svc: &KnnService, serve: &ServeConfig, source: &OpSource) -> ServeRun {
    let t0 = Instant::now();
    let outcome = if serve.threads > 1 {
        shared_pool(serve.threads).install(|| replay_stream(svc, source.stream()))
    } else {
        replay_stream(svc, source.stream())
    };
    ServeRun {
        outcome,
        wall: t0.elapsed(),
    }
}

fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn main() {
    let _trace = TraceSession::from_env();
    // Per-run peak attribution: rebase the RSS high-water mark and record
    // the floor this process starts the experiment from.
    let peak_reset = goldfinger_obs::mem::reset_rss_peak();
    let mem_before = goldfinger_obs::mem::snapshot();
    let args = Args::from_env();
    let cfg = ExperimentConfig::from_args(&args);
    let n_ops = args.get_usize("ops", 100_000);
    let serve = ServeConfig {
        batch: args.get_usize("batch", 256),
        probes: args.get_usize("probes", 4),
        seed: cfg.seed,
        threads: effective_threads(cfg.threads),
        ..ServeConfig::default()
    };
    let update_pct = args.get_usize("update-pct", 30) as u32;

    let data = build_dataset(&cfg, SynthConfig::ml1m());
    let n = data.n_users();
    let source = match args.get("ops-file") {
        Some(path) => OpSource::File(path.to_string()),
        None => OpSource::Synth {
            n_users: n,
            n_items: data.n_items() as u32,
            n_ops,
            update_pct,
            seed: cfg.seed ^ 0x0b5,
        },
    };
    match &source {
        OpSource::Synth { .. } => println!(
            "dataset: {n} users, {} items — streaming {n_ops} synthetic ops \
             ({update_pct}% updates, batch {}, {} threads)\n",
            data.n_items(),
            serve.batch,
            serve.threads
        ),
        OpSource::File(path) => println!(
            "dataset: {n} users, {} items — streaming ops from {path} \
             (batch {}, {} threads)\n",
            data.n_items(),
            serve.batch,
            serve.threads
        ),
    }
    let registry = Arc::new(Registry::new());
    let (svc, prep) = build_service(&data, &cfg, &serve, &registry);
    let svc = Arc::new(svc);
    // Live exposition while the replay runs: /metrics from the replay's
    // registry, /epoch reporting the service's published epoch + digest.
    let server = args.get("metrics-addr").map(|addr| {
        let svc = svc.clone();
        let status: StatusFn = Box::new(move || {
            let snap = svc.snapshot();
            Json::obj(vec![
                ("epoch", Json::Num(snap.epoch() as f64)),
                ("digest", Json::Str(format!("{:016x}", snap.digest()))),
            ])
        });
        let server = MetricsServer::start(addr, registry.clone(), Some(status))
            .expect("bind --metrics-addr");
        println!("metrics: http://{}/metrics", server.local_addr());
        server
    });
    let run = run_replay(&svc, &serve, &source);
    let replayed_ops = (run.outcome.lookups + run.outcome.updates) as usize;

    if args.has_flag("verify-serial") {
        let serial_cfg = ServeConfig {
            threads: 1,
            ..serve.clone()
        };
        let serial_registry = Registry::new();
        let (serial_svc, _) = build_service(&data, &cfg, &serial_cfg, &serial_registry);
        let serial = run_replay(&serial_svc, &serial_cfg, &source);
        assert_eq!(
            run.outcome, serial.outcome,
            "replay diverged from the single-threaded reference"
        );
        println!(
            "verify-serial: {}-thread replay matches the serial reference",
            serve.threads
        );
    }

    record_mem_gauges(&registry);
    let snap = registry.snapshot();
    let get = |name: &str| {
        snap.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    };
    let lookup_lat = registry.histogram("serve.lookup_latency");
    let update_lat = registry.histogram("serve.update_latency");
    let repairs = get("serve.repairs");
    let evals = get("serve.repair_evals");
    let drains = get("serve.drains");
    let throughput = replayed_ops as f64 / run.wall.as_secs_f64();
    let evals_per_repair = if repairs == 0 {
        0.0
    } else {
        evals as f64 / repairs as f64
    };

    let mut table = Table::new("Online serving — replay summary", &["metric", "value"]);
    table.push(vec!["ops".into(), replayed_ops.to_string()]);
    table.push(vec![
        "throughput (ops/s)".into(),
        format!("{throughput:.0}"),
    ]);
    table.push(vec![
        "lookup p50/p99 (µs)".into(),
        format!(
            "{:.1} / {:.1}",
            micros(lookup_lat.quantile_upper_bound(0.5)),
            micros(lookup_lat.quantile_upper_bound(0.99))
        ),
    ]);
    table.push(vec![
        "update p50/p99 (µs)".into(),
        format!(
            "{:.1} / {:.1}",
            micros(update_lat.quantile_upper_bound(0.5)),
            micros(update_lat.quantile_upper_bound(0.99))
        ),
    ]);
    table.push(vec!["drains / epochs".into(), drains.to_string()]);
    table.push(vec!["repairs".into(), repairs.to_string()]);
    table.push(vec![
        "evals per repair".into(),
        format!("{evals_per_repair:.1}"),
    ]);
    table.push(vec![
        "final digest".into(),
        format!("{:016x}", run.outcome.final_digest),
    ]);
    table.print();

    let mut report = RunReport {
        experiment: "serve".to_string(),
        dataset: data.name().to_string(),
        algo: "serve-replay".to_string(),
        provider: "goldfinger".to_string(),
        n_users: n as u64,
        k: cfg.k as u64,
        bits: cfg.bits as u64,
        seed: cfg.seed,
        similarity_evals: evals,
        wall: run.wall,
        prep_wall: prep,
        ..RunReport::default()
    };
    for (name, value) in [
        ("ops", replayed_ops as f64),
        ("updates", run.outcome.updates as f64),
        ("lookups", run.outcome.lookups as f64),
        ("update_pct", update_pct as f64),
        ("batch", serve.batch as f64),
        ("threads", serve.threads as f64),
        ("drains", drains as f64),
        ("repairs", repairs as f64),
        ("repair_evals", evals as f64),
        ("evals_per_repair", evals_per_repair),
        ("throughput_ops_per_sec", throughput),
        (
            "lookup_p50_us",
            micros(lookup_lat.quantile_upper_bound(0.5)),
        ),
        (
            "lookup_p99_us",
            micros(lookup_lat.quantile_upper_bound(0.99)),
        ),
        (
            "update_p50_us",
            micros(update_lat.quantile_upper_bound(0.5)),
        ),
        (
            "update_p99_us",
            micros(update_lat.quantile_upper_bound(0.99)),
        ),
        ("final_epoch", run.outcome.final_epoch as f64),
    ] {
        report.extra.push((name.to_string(), Json::Num(value)));
    }
    report.extra.push((
        "final_digest".to_string(),
        Json::Str(format!("{:016x}", run.outcome.final_digest)),
    ));
    report.extra.push((
        "lookup_digest".to_string(),
        Json::Str(format!("{:016x}", run.outcome.lookup_digest)),
    ));
    report.extra.push((
        "prep".to_string(),
        prep_json("shf", prep, data.profiles().n_associations() as u64),
    ));
    report
        .extra
        .push(("mem".to_string(), mem_json(mem_before, peak_reset)));

    let mut set = ReportSet::new("serve");
    set.runs.push(report);
    emit_if_requested(&args, &set);
    if let Some(server) = server {
        server.stop();
    }
}
