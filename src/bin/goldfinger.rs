//! `goldfinger` — command-line interface to the library.
//!
//! ```text
//! goldfinger stats       --synth ml1m [--scale 0.1]
//! goldfinger fingerprint --synth ml1m --bits 1024 --out fp.gfs
//! goldfinger knn         --synth ml1m --algo hyrec --k 30 [--goldfinger] --out graph.gfg
//! goldfinger recommend   --synth ml1m --algo brute --k 30 --user 0 --n 10
//! goldfinger privacy     --items 171356 --bits 1024 --cardinality 56
//! goldfinger serve       --synth ml1m --replay 100000 [--batch 256 --threads 4]
//! ```
//!
//! Datasets come either from `--synth {ml1m,ml10m,ml20m,am,dblp,gowalla}`
//! (Table-2-calibrated generators) or from `--ratings FILE --format
//! {dat,csv,edges}` (the original file formats).

use goldfinger::datasets::load::{load_edge_list, load_movielens_dat, load_ratings_csv};
use goldfinger::datasets::stats::DatasetStats;
use goldfinger::knn::builder::BuildInput;
use goldfinger::knn::builders::{self, BuilderConfig};
use goldfinger::knn::write_knn_graph;
use goldfinger::prelude::*;
use goldfinger::theory::privacy::guarantees;
use std::collections::HashMap;
use std::process::ExitCode;

struct Cli {
    values: HashMap<String, String>,
    flags: Vec<String>,
}

impl Cli {
    fn parse(args: &[String]) -> Cli {
        let mut values = HashMap::new();
        let mut flags = Vec::new();
        let mut i = 0;
        while i < args.len() {
            if let Some(key) = args[i].strip_prefix("--") {
                if i + 1 < args.len() && !args[i + 1].starts_with("--") {
                    values.insert(key.to_string(), args[i + 1].clone());
                    i += 2;
                } else {
                    flags.push(key.to_string());
                    i += 1;
                }
            } else {
                i += 1;
            }
        }
        Cli { values, flags }
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(String::as_str)
    }

    fn get_or(&self, key: &str, default: &str) -> String {
        self.get(key).unwrap_or(default).to_string()
    }

    fn parse_num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key}: cannot parse {v:?}")),
        }
    }

    fn has(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }
}

fn usage() -> &'static str {
    "usage: goldfinger <stats|generate|fingerprint|knn|build|recommend|privacy|serve> [options]\n\
     \n\
     dataset options (stats/fingerprint/knn/recommend):\n\
       --synth ml1m|ml10m|ml20m|am|dblp|gowalla   synthetic dataset (default ml1m)\n\
       --scale F                                  user-count scale (default 0.1)\n\
       --ratings FILE --format dat|csv|edges      load a real ratings file instead\n\
       --seed N                                   RNG seed (default 42)\n\
     \n\
     generate:    --out FILE [--format dat|csv|edges]   export the synthetic dataset\n\
     fingerprint: --bits B (default 1024)  --out FILE (GFS1 format)\n\
                  --stream   two-pass streaming ingestion straight from\n\
                             --ratings FILE (bounded memory, bit-identical)\n\
                  --spill DIR   with --stream: write arena rows straight\n\
                                into a sealed on-disk store under DIR\n\
     knn:         --algo brute|hyrec|nndescent|lsh|kiff|cluster (default brute)\n\
                  --k K (default 30)  --goldfinger [--bits B]  --out FILE (GFCS)\n\
     build:       sharded out-of-core GoldFinger LSH build (spill-to-disk),\n\
                  on GF_THREADS threads; the graph is the same at any count\n\
                  --users N          synthetic population size (overrides --scale)\n\
                  --k K (default 10) --tables T (default 10) --bits B (default 256)\n\
                  --shards N         contiguous user shards (default 0 = derive\n\
                                     from --mem-budget; no budget = 1)\n\
                  --mem-budget BYTES target peak RSS (accepts 512m/2g suffixes)\n\
                  --spill DIR        spill directory (default gf-spill)\n\
                  --no-spill         keep arena + index on the heap (still shards)\n\
                  --max-bucket N     skip LSH buckets larger than N users (0 = off)\n\
                  --out FILE         stream the stitched graph to FILE (GFCS)\n\
     recommend:   knn options plus --user U (default 0) --n N (default 10)\n\
     privacy:     --items M --bits B --cardinality C\n\
     serve:       --replay N (ops, default 100000)  --update-pct P (default 30)\n\
                  --ops-file FILE   stream a recorded op log (`L u` / `U u i,j`\n\
                                    lines) instead of the synthetic generator\n\
                  --batch B (default 256)  --probes P (default 4)\n\
                  --threads T (default 1; 0 = GF_THREADS or all cores)\n\
                  --metrics-addr HOST:PORT   serve /metrics, /healthz and /epoch\n\
                  --hold SECS                keep the exposition server up after\n\
                                             the replay finishes (default 0)\n\
                  replays an interleaved update+lookup log against the\n\
                  online service and reports latency/throughput\n\
     \n\
     environment:\n\
       GF_TRACE=FILE.json      record a flight-recorder trace of the run and\n\
                               write it as Chrome trace-event JSON on exit\n\
       GF_TRACE_CAP=N          per-thread event-ring capacity (default 2^20)\n\
       GF_THREADS=N            worker threads of `build` (default: all cores)"
}

fn synth_preset(name: &str) -> Result<SynthConfig, String> {
    Ok(match name.to_lowercase().as_str() {
        "ml1m" => SynthConfig::ml1m(),
        "ml10m" => SynthConfig::ml10m(),
        "ml20m" => SynthConfig::ml20m(),
        "am" | "amazon" | "amazonmovies" => SynthConfig::amazon_movies(),
        "dblp" => SynthConfig::dblp(),
        "gowalla" | "gw" => SynthConfig::gowalla(),
        other => return Err(format!("unknown --synth {other:?}")),
    })
}

/// Parses a byte count with optional `k`/`m`/`g` (KiB/MiB/GiB) suffix.
fn parse_bytes(v: &str) -> Result<u64, String> {
    let v = v.trim().to_lowercase();
    let (num, shift) = match v.as_bytes().last() {
        Some(b'k') => (&v[..v.len() - 1], 10),
        Some(b'm') => (&v[..v.len() - 1], 20),
        Some(b'g') => (&v[..v.len() - 1], 30),
        _ => (v.as_str(), 0),
    };
    let n: u64 = num
        .parse()
        .map_err(|_| format!("--mem-budget: cannot parse {v:?} (e.g. 512m, 2g)"))?;
    n.checked_shl(shift)
        .filter(|&b| b >> shift == n)
        .ok_or_else(|| format!("--mem-budget: {v:?} overflows"))
}

/// Runs the out-of-core build over any profile source: streamed to a GFCS
/// file when `--out` is given, stitched in memory (and summarized)
/// otherwise.
fn run_ooc<P: goldfinger::core::profile::ProfileSource + ?Sized>(
    cli: &Cli,
    source: &P,
    params: &ShfParams<DynHasher>,
    cfg: &goldfinger::knn::oocbuild::OocConfig,
) -> Result<(goldfinger::knn::oocbuild::OocStats, Option<String>), String> {
    use goldfinger::knn::oocbuild;
    match cli.get("out") {
        Some(out) => {
            let stats = oocbuild::build_to_disk(source, params, cfg, std::path::Path::new(out))
                .map_err(|e| format!("ooc build: {e}"))?;
            Ok((stats, Some(out.to_string())))
        }
        None => {
            let (graph, stats) =
                oocbuild::build(source, params, cfg).map_err(|e| format!("ooc build: {e}"))?;
            println!(
                "graph: {} edges, mean stored similarity {:.4}",
                graph.n_edges(),
                graph.mean_stored_similarity()
            );
            Ok((stats, None))
        }
    }
}

/// A count flag that must be positive (`--k`, `--tables`, `--bits`):
/// zero is a usage error here rather than a panic deeper down.
fn parse_positive<T>(cli: &Cli, name: &str, default: T) -> Result<T, String>
where
    T: std::str::FromStr + PartialEq + From<u8>,
{
    let v = cli.parse_num(name, default)?;
    if v == T::from(0) {
        return Err(format!("--{name}: must be at least 1"));
    }
    Ok(v)
}

fn load_dataset(cli: &Cli) -> Result<BinaryDataset, String> {
    if let Some(path) = cli.get("ratings") {
        let format = cli.get_or("format", "dat");
        let raw = match format.as_str() {
            "dat" => load_movielens_dat(path, path),
            "csv" => load_ratings_csv(path, path),
            "edges" => load_edge_list(path, path),
            other => return Err(format!("unknown --format {other:?} (dat|csv|edges)")),
        }
        .map_err(|e| format!("loading {path}: {e}"))?;
        return Ok(raw.prepare());
    }
    let preset = synth_preset(&cli.get_or("synth", "ml1m"))?;
    let scale: f64 = cli.parse_num("scale", 0.1)?;
    let seed: u64 = cli.parse_num("seed", 42)?;
    Ok(preset.scaled(scale).with_seed(seed).generate().prepare())
}

fn build_graph(cli: &Cli, data: &BinaryDataset) -> Result<(KnnResult, bool), String> {
    let k = parse_positive(cli, "k", 30)?;
    let algo = cli.get_or("algo", "brute");
    let use_gf = cli.has("goldfinger");
    let bits: u32 = parse_positive(cli, "bits", 1024)?;
    let seed: u64 = cli.parse_num("seed", 42)?;
    let profiles = data.profiles();

    let result = if use_gf {
        let store = ShfParams::new(bits, DynHasher::default()).fingerprint_store(profiles);
        let sim = ShfJaccard::new(&store);
        dispatch_algo(&algo, profiles, &sim, k, seed)?
    } else {
        let sim = ExplicitJaccard::new(profiles);
        dispatch_algo(&algo, profiles, &sim, k, seed)?
    };
    Ok((result, use_gf))
}

fn dispatch_algo(
    algo: &str,
    profiles: &ProfileStore,
    sim: &dyn Similarity,
    k: usize,
    seed: u64,
) -> Result<KnnResult, String> {
    let spec = builders::get(algo).map_err(|e| format!("--algo: {e}"))?;
    let builder = spec.instantiate(&BuilderConfig { seed, threads: 1 });
    Ok(builder.build_erased(BuildInput::with_profiles(sim, profiles), k, &NoopObserver))
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first().cloned() else {
        return Err(usage().to_string());
    };
    let cli = Cli::parse(&args[1..]);

    match command.as_str() {
        "stats" => {
            let data = load_dataset(&cli)?;
            let s = DatasetStats::compute(&data);
            println!("dataset        users    items   ratings>3    |Pu|    |Pi|  density");
            println!("{}", s.table2_row());
        }
        "fingerprint" => {
            let bits: u32 = parse_positive(&cli, "bits", 1024)?;
            let params = ShfParams::new(bits, DynHasher::default());
            let t0 = std::time::Instant::now();
            let store = if cli.has("stream") {
                // Streaming ingestion: two passes over the file, arena rows
                // written in place — no RatingsDataset/ProfileStore, bounded
                // memory. Bit-identical to the in-memory path below.
                let path = cli
                    .get("ratings")
                    .ok_or_else(|| "--stream requires --ratings FILE".to_string())?;
                let format = match cli.get_or("format", "dat").as_str() {
                    "dat" => goldfinger::datasets::RatingsFormat::MovielensDat,
                    "csv" => goldfinger::datasets::RatingsFormat::Csv,
                    "edges" => goldfinger::datasets::RatingsFormat::EdgeList,
                    other => return Err(format!("unknown --format {other:?} (dat|csv|edges)")),
                };
                let cfg = goldfinger::datasets::StreamConfig::default();
                let (store, summary) = match cli.get("spill") {
                    // Arena rows land in a sealed on-disk store under DIR
                    // instead of the heap (Linux mmap backend).
                    Some(dir) => goldfinger::datasets::stream_fingerprint_spilled(
                        path, format, &params, &cfg, dir,
                    ),
                    None => goldfinger::datasets::stream_fingerprint(path, format, &params, &cfg),
                }
                .map_err(|e| format!("streaming {path}: {e}"))?;
                if let Some(dir) = cli.get("spill") {
                    println!(
                        "spilled arena: {dir}/arena.words ({})",
                        store.backend_kind()
                    );
                }
                println!(
                    "streamed {} ratings ({} positive) over {} users \
                     ({} kept) and {} items",
                    summary.n_ratings,
                    summary.n_positive,
                    summary.raw_users,
                    summary.kept_users,
                    summary.n_items
                );
                store
            } else {
                let data = load_dataset(&cli)?;
                params.fingerprint_store(data.profiles())
            };
            println!(
                "fingerprinted {} profiles into {bits}-bit SHFs in {:?} ({} bytes/user)",
                store.len(),
                t0.elapsed(),
                bits / 8 + 4
            );
            if let Some(out) = cli.get("out") {
                let mut file =
                    std::fs::File::create(out).map_err(|e| format!("creating {out}: {e}"))?;
                goldfinger::core::serial::write_shf_store(&store, &mut file)
                    .map_err(|e| format!("writing {out}: {e}"))?;
                println!("wrote {out}");
            }
        }
        "knn" => {
            let data = load_dataset(&cli)?;
            let (result, used_gf) = build_graph(&cli, &data)?;
            println!(
                "{} graph over {} users: {} edges, {} similarity evals, {:?}{}",
                cli.get_or("algo", "brute"),
                result.graph.n_users(),
                result.graph.n_edges(),
                result.stats.similarity_evals,
                result.stats.wall,
                if used_gf {
                    " (GoldFinger)"
                } else {
                    " (native)"
                },
            );
            println!(
                "mean stored similarity: {:.4}",
                result.graph.mean_stored_similarity()
            );
            if let Some(out) = cli.get("out") {
                let file =
                    std::fs::File::create(out).map_err(|e| format!("creating {out}: {e}"))?;
                // Buffered; write_knn_graph flushes when the graph is done.
                write_knn_graph(&result.graph, &mut std::io::BufWriter::new(file))
                    .map_err(|e| format!("writing {out}: {e}"))?;
                println!("wrote {out}");
            }
        }
        "build" => {
            use goldfinger::datasets::StreamProfiles;
            use goldfinger::knn::oocbuild::OocConfig;

            let k = parse_positive(&cli, "k", 10)?;
            let tables: usize = parse_positive(&cli, "tables", 10)?;
            let bits: u32 = parse_positive(&cli, "bits", 256)?;
            let seed: u64 = cli.parse_num("seed", 42)?;
            let spill_dir = cli.get_or("spill", "gf-spill");

            let mut cfg = OocConfig::new(k, tables, seed, spill_dir.as_str());
            cfg.shards = cli.parse_num("shards", 0)?;
            cfg.mem_budget = match cli.get("mem-budget") {
                Some(v) => parse_bytes(v)?,
                None => 0,
            };
            cfg.spill = !cli.has("no-spill");
            cfg.max_bucket = cli.parse_num("max-bucket", 0)?;
            let params = ShfParams::new(bits, DynHasher::default());
            let pool = goldfinger::core::pool::Pool::new(goldfinger::core::pool::default_threads());

            // Profile source: a per-user-derivable synthetic stream (any
            // size, no materialization) or an in-memory loaded dataset.
            let (stats, stitched) = if cli.get("ratings").is_some() {
                let data = load_dataset(&cli)?;
                pool.install(|| run_ooc(&cli, data.profiles(), &params, &cfg))?
            } else {
                let preset = synth_preset(&cli.get_or("synth", "ml1m"))?;
                let scale: f64 = cli.parse_num("scale", 0.1)?;
                let mut synth = preset.scaled(scale).with_seed(seed);
                if let Some(users) = cli.get("users") {
                    synth.n_users = users
                        .parse()
                        .map_err(|_| format!("--users: cannot parse {users:?}"))?;
                }
                let source = StreamProfiles::new(&synth);
                println!(
                    "streaming {} synthetic users ({}, ~{:.0} items/user)",
                    synth.n_users, synth.name, synth.mean_profile
                );
                pool.install(|| run_ooc(&cli, &source, &params, &cfg))?
            };
            println!(
                "ooc build: {} users, {} shards, {} threads, {} evals, backend {} \
                 ({} spilled bytes)",
                stats.n_users,
                stats.shards,
                pool.threads(),
                stats.similarity_evals,
                stats.backend,
                stats.spilled_bytes
            );
            println!(
                "  fingerprint {:?} · index {:?} · scan {:?} · stitch {:?} · total {:?}",
                stats.fingerprint_wall,
                stats.index_wall,
                stats.scan_wall,
                stats.stitch_wall,
                stats.wall
            );
            if let Some(snap) = goldfinger::obs::mem::snapshot() {
                println!(
                    "  rss {} MiB · peak {} MiB{}",
                    snap.rss_kb / 1024,
                    snap.peak_kb / 1024,
                    if cfg.mem_budget > 0 {
                        format!(" · budget {} MiB", cfg.mem_budget >> 20)
                    } else {
                        String::new()
                    }
                );
            }
            if let Some(out) = stitched {
                println!("wrote {out}");
            }
        }
        "recommend" => {
            let data = load_dataset(&cli)?;
            let (result, _) = build_graph(&cli, &data)?;
            let user: u32 = cli.parse_num("user", 0)?;
            let n: usize = cli.parse_num("n", 10)?;
            if user as usize >= data.n_users() {
                return Err(format!(
                    "--user {user} out of range (population {})",
                    data.n_users()
                ));
            }
            let recs = recommend_for_user(&result.graph, &data, user, n);
            if recs.is_empty() {
                println!("no recommendations for user {user} (empty neighbourhood?)");
            }
            for r in recs {
                println!("item {:>8}  score {:.3}", r.item, r.score);
            }
        }
        "generate" => {
            // Export a synthetic dataset in a loadable format.
            if cli.get("ratings").is_some() {
                return Err("generate only works with --synth datasets".into());
            }
            let scale: f64 = cli.parse_num("scale", 0.1)?;
            let seed: u64 = cli.parse_num("seed", 42)?;
            let raw = synth_preset(&cli.get_or("synth", "ml1m"))?
                .scaled(scale)
                .with_seed(seed)
                .generate();
            let out = cli
                .get("out")
                .ok_or_else(|| "generate requires --out FILE".to_string())?;
            let mut file =
                std::fs::File::create(out).map_err(|e| format!("creating {out}: {e}"))?;
            match cli.get_or("format", "dat").as_str() {
                "dat" => goldfinger::datasets::write::write_movielens_dat(&raw, &mut file),
                "csv" => goldfinger::datasets::write::write_ratings_csv(&raw, &mut file),
                "edges" => goldfinger::datasets::write::write_edge_list(&raw, &mut file),
                other => return Err(format!("unknown --format {other:?} (dat|csv|edges)")),
            }
            .map_err(|e| format!("writing {out}: {e}"))?;
            println!(
                "wrote {} ratings for {} users to {out}",
                raw.ratings().len(),
                raw.n_users()
            );
        }
        "serve" => {
            use goldfinger::knn::oplog::OpLogReader;
            use goldfinger::knn::serve::{
                replay_stream, synth_op_stream, KnnService, Op, ServeConfig,
            };
            use goldfinger::obs::{Json, MetricsServer, Registry, StatusFn};
            use std::sync::Arc;

            let data = load_dataset(&cli)?;
            let n = data.n_users();
            let k = parse_positive(&cli, "k", 30)?;
            let bits: u32 = parse_positive(&cli, "bits", 1024)?;
            let seed: u64 = cli.parse_num("seed", 42)?;
            let n_ops: usize = cli.parse_num("replay", 100_000)?;
            let update_pct: u32 = cli.parse_num("update-pct", 30)?;
            let threads =
                goldfinger::core::parallel::effective_threads(cli.parse_num("threads", 1)?);
            let cfg = ServeConfig {
                batch: cli.parse_num("batch", 256)?,
                probes: cli.parse_num("probes", 4)?,
                seed,
                threads,
                ..ServeConfig::default()
            };

            let params = ShfParams::new(bits, DynHasher::default());
            let store = params.fingerprint_store(data.profiles());
            let sim = ShfJaccard::new(&store);
            let result = dispatch_algo("brute", data.profiles(), &sim, k, seed)?;

            let reg = Arc::new(Registry::new());
            let svc = Arc::new(KnnService::new(
                &result.graph,
                &store,
                *params.hasher(),
                cfg,
                &reg,
            ));
            // Optional live exposition: /metrics from the replay's registry,
            // /epoch reporting the service's published epoch + digest.
            let server = match cli.get("metrics-addr") {
                Some(addr) => {
                    let status_svc = svc.clone();
                    let status: StatusFn = Box::new(move || {
                        let snap = status_svc.snapshot();
                        Json::obj(vec![
                            ("epoch", Json::Num(snap.epoch() as f64)),
                            ("digest", Json::Str(format!("{:016x}", snap.digest()))),
                        ])
                    });
                    let server = MetricsServer::start(addr, reg.clone(), Some(status))
                        .map_err(|e| format!("binding --metrics-addr {addr}: {e}"))?;
                    println!("metrics: http://{}/metrics", server.local_addr());
                    Some(server)
                }
                None => None,
            };
            // The op log is streamed, not materialized: either the lazy
            // synthetic generator or a line-at-a-time file reader.
            let ops: Box<dyn Iterator<Item = Op>> = match cli.get("ops-file") {
                Some(path) => {
                    let file = std::fs::File::open(path)
                        .map_err(|e| format!("opening --ops-file {path}: {e}"))?;
                    let path = path.to_string();
                    Box::new(OpLogReader::new(file).map(move |r| match r {
                        Ok(Op::Update { user, .. }) if user as usize >= n => {
                            eprintln!(
                                "reading --ops-file {path}: update for user {user} out of range (population {n})"
                            );
                            std::process::exit(1);
                        }
                        Ok(op) => op,
                        Err(e) => {
                            eprintln!("reading --ops-file {path}: {e}");
                            std::process::exit(1);
                        }
                    }))
                }
                None => Box::new(synth_op_stream(
                    n,
                    data.n_items() as u32,
                    n_ops,
                    update_pct,
                    seed ^ 0x0b5,
                )),
            };
            let t0 = std::time::Instant::now();
            // One pool for the whole replay, so the drain phases reuse its
            // parked workers instead of building a pool per helper call.
            let outcome = if threads > 1 {
                goldfinger::core::pool::Pool::new(threads).install(|| replay_stream(&svc, ops))
            } else {
                replay_stream(&svc, ops)
            };
            let wall = t0.elapsed();
            let n_ops = (outcome.lookups + outcome.updates) as usize;

            let p = |h: &goldfinger::obs::Histogram, q: f64| {
                h.quantile_upper_bound(q).as_secs_f64() * 1e6
            };
            let lookup = reg.histogram("serve.lookup_latency");
            let update = reg.histogram("serve.update_latency");
            println!(
                "served {n_ops} ops over {n} users in {wall:?} \
                 ({:.0} ops/s)",
                n_ops as f64 / wall.as_secs_f64()
            );
            println!(
                "  lookups {:>8}   p50 {:>9.1}µs   p99 {:>9.1}µs",
                outcome.lookups,
                p(&lookup, 0.5),
                p(&lookup, 0.99)
            );
            println!(
                "  updates {:>8}   p50 {:>9.1}µs   p99 {:>9.1}µs",
                outcome.updates,
                p(&update, 0.5),
                p(&update, 0.99)
            );
            println!(
                "  epochs {} · repairs {} · evals {}",
                outcome.final_epoch,
                reg.counter("serve.repairs").get(),
                reg.counter("serve.repair_evals").get()
            );
            println!("  final digest {:016x}", outcome.final_digest);
            if let Some(server) = server {
                let hold: u64 = cli.parse_num("hold", 0)?;
                if hold > 0 {
                    println!("holding http://{}/metrics for {hold}s", server.local_addr());
                    std::thread::sleep(std::time::Duration::from_secs(hold));
                }
                server.stop();
            }
        }
        "privacy" => {
            let items: usize = cli.parse_num("items", 171_356)?;
            let bits: u32 = parse_positive(&cli, "bits", 1024)?;
            let card: u32 = cli.parse_num("cardinality", 56)?;
            let g = guarantees(items, bits, card);
            println!(
                "m = {items}, b = {bits}, c_u = {card}:\n  k-anonymity: 2^{:.0}\n  l-diversity: {:.0}",
                g.anonymity_log2, g.diversity
            );
        }
        "help" | "--help" | "-h" => println!("{}", usage()),
        other => return Err(format!("unknown command {other:?}\n\n{}", usage())),
    }
    Ok(())
}

fn main() -> ExitCode {
    // Armed by GF_TRACE=FILE.json; drains and writes the trace on exit.
    let _trace = goldfinger::obs::TraceSession::from_env();
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}
