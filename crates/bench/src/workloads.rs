//! Shared machinery for the experiment binaries: dataset assembly at a
//! chosen scale, algorithm dispatch, and native-vs-GoldFinger comparison
//! runs.

use goldfinger_core::hash::{DynHasher, HasherKind};
use goldfinger_core::kernels::KernelStats;
use goldfinger_core::pool::{Pool, PoolStats};
use goldfinger_core::profile::ProfileStore;
use goldfinger_core::shf::{ShfParams, ShfStore};
use goldfinger_core::similarity::{ExplicitJaccard, ShfJaccard, Similarity};
use goldfinger_datasets::model::BinaryDataset;
use goldfinger_datasets::synth::SynthConfig;
use goldfinger_knn::builder::BuildInput;
use goldfinger_knn::builders::{self, BuilderConfig, BuilderSpec};
use goldfinger_knn::graph::KnnResult;
use goldfinger_obs::{BuildObserver, NoopObserver, Phase, Registry};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The four KNN construction algorithms of the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlgoKind {
    /// Exhaustive pairwise search.
    BruteForce,
    /// Greedy neighbours-of-neighbours (Boutet et al.).
    Hyrec,
    /// Greedy local joins with reverse graph (Dong et al.).
    NNDescent,
    /// MinHash bucketing.
    Lsh,
    /// Bipartite candidate generation (Boutet et al., ICDE 2016) — not in
    /// the paper's Table 4, available for extended comparisons.
    Kiff,
    /// Cluster-and-Conquer (Giakkoupis et al.): blip-hashed cache-resident
    /// cluster scans — not in the paper's Table 4, available for extended
    /// comparisons.
    Cluster,
}

impl AlgoKind {
    /// All four, in the paper's table order.
    pub fn all() -> [AlgoKind; 4] {
        [
            AlgoKind::BruteForce,
            AlgoKind::Hyrec,
            AlgoKind::NNDescent,
            AlgoKind::Lsh,
        ]
    }

    /// All six implemented algorithms (the paper's four plus KIFF and
    /// Cluster).
    pub fn all_extended() -> [AlgoKind; 6] {
        [
            AlgoKind::BruteForce,
            AlgoKind::Hyrec,
            AlgoKind::NNDescent,
            AlgoKind::Lsh,
            AlgoKind::Kiff,
            AlgoKind::Cluster,
        ]
    }

    /// The registry entry backing this kind. `AlgoKind` is only a
    /// CLI-friendly index into [`goldfinger_knn::builders::all`]; the enum
    /// variants are declared in registry order (pinned by a test below).
    pub fn spec(&self) -> &'static BuilderSpec {
        &builders::all()[*self as usize]
    }

    /// Display name as printed in Table 4.
    pub fn name(&self) -> &'static str {
        self.spec().name
    }
}

/// Which similarity representation an algorithm runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProviderKind {
    /// Explicit profiles (the paper's *native* rows).
    Native,
    /// SHFs of the given width (the *GoldFinger* rows).
    GoldFinger(u32),
}

/// Common experiment parameters with the paper's defaults.
#[derive(Debug, Clone, Copy)]
pub struct ExperimentConfig {
    /// User-count scale override (0.0 = pick automatically so every
    /// dataset has about `target_users` users).
    pub scale: f64,
    /// Automatic target population when `scale == 0.0`.
    pub target_users: usize,
    /// Neighbourhood size (paper: 30).
    pub k: usize,
    /// Fingerprint width (paper default: 1024).
    pub bits: u32,
    /// Master seed.
    pub seed: u64,
    /// Worker threads shared by every build of the run (`--threads`; falls
    /// back to the `GF_THREADS` environment variable, then to 1). With more
    /// than one thread, a process-wide persistent [`Pool`] is installed
    /// around each run so all builds reuse the same parked workers.
    pub threads: usize,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            scale: 0.0,
            target_users: 1_500,
            k: 30,
            bits: 1024,
            seed: 42,
            threads: threads_from_env(),
        }
    }
}

/// `GF_THREADS` when set to a positive integer, 1 (serial) otherwise.
fn threads_from_env() -> usize {
    std::env::var("GF_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&t| t > 0)
        .unwrap_or(1)
}

impl ExperimentConfig {
    /// Reads the shared options from parsed CLI arguments.
    pub fn from_args(args: &crate::args::Args) -> Self {
        let d = ExperimentConfig::default();
        ExperimentConfig {
            scale: args.get_f64("scale", d.scale),
            target_users: args.get_usize("users", d.target_users),
            k: args.get_usize("k", d.k),
            bits: args.get_u32_list("bits", &[d.bits])[0],
            seed: args.get_u64("seed", d.seed),
            threads: args.get_usize("threads", d.threads),
        }
    }

    /// The Jenkins-hashed fingerprint scheme used by every experiment.
    pub fn shf_params(&self, bits: u32) -> ShfParams<DynHasher> {
        ShfParams::new(bits, DynHasher::new(HasherKind::Jenkins, self.seed))
    }
}

/// Generates the synthetic counterpart of one preset at the configured
/// scale and runs the paper's preparation pipeline.
pub fn build_dataset(cfg: &ExperimentConfig, preset: SynthConfig) -> BinaryDataset {
    let _t = goldfinger_obs::trace::span("phase", "dataset_prep");
    let factor = if cfg.scale > 0.0 {
        cfg.scale
    } else {
        (cfg.target_users as f64 / preset.n_users as f64).min(1.0)
    };
    preset
        .scaled(factor)
        .with_seed(cfg.seed)
        .generate()
        .prepare()
}

/// All six datasets of Table 2 at the configured scale, optionally filtered
/// by a comma-separated name list (substring match, case-insensitive).
pub fn build_datasets(cfg: &ExperimentConfig, filter: Option<&str>) -> Vec<BinaryDataset> {
    SynthConfig::all_presets()
        .into_iter()
        .filter(|p| match filter {
            None => true,
            Some(f) => f
                .split(',')
                .any(|w| p.name.to_lowercase().contains(&w.trim().to_lowercase())),
        })
        .map(|p| build_dataset(cfg, p))
        .collect()
}

/// Outcome of one algorithm run, including the preparation time of the
/// representation it ran on (Table 3's quantity).
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Graph and build statistics.
    pub result: KnnResult,
    /// Time to construct the similarity representation (fingerprinting for
    /// GoldFinger, zero-cost borrow for native).
    pub prep: Duration,
}

/// Fingerprints a profile store, timing the preparation.
pub fn fingerprint(
    cfg: &ExperimentConfig,
    bits: u32,
    profiles: &ProfileStore,
) -> (ShfStore, Duration) {
    let t0 = Instant::now();
    let store = cfg.shf_params(bits).fingerprint_store(profiles);
    (store, t0.elapsed())
}

/// Runs one `(algorithm, provider)` combination.
pub fn run(
    cfg: &ExperimentConfig,
    kind: AlgoKind,
    data: &BinaryDataset,
    provider: ProviderKind,
) -> RunOutcome {
    run_observed(cfg, kind, data, provider, &NoopObserver)
}

/// The process-wide pool shared by every experiment run, created on first
/// use and rebuilt only if a different size is requested. Sharing one pool
/// across a whole `exp_all` invocation is the point of this layer: workers
/// are spawned once and every build — dozens of (algorithm, provider,
/// dataset) combinations — broadcasts to the same parked threads.
pub fn shared_pool(threads: usize) -> Arc<Pool> {
    static POOL: Mutex<Option<Arc<Pool>>> = Mutex::new(None);
    let mut slot = POOL.lock().unwrap();
    match slot.as_ref() {
        Some(pool) if pool.threads() == goldfinger_core::parallel::effective_threads(threads) => {
            pool.clone()
        }
        _ => {
            let pool = Pool::new(threads);
            *slot = Some(pool.clone());
            pool
        }
    }
}

/// Copies a [`PoolStats`] delta into `reg` as `pool.*` counters plus a
/// `pool.threads` gauge, the bridge between the pool and the observability
/// layer (and from there into JSON run reports).
pub fn record_pool_stats(reg: &Registry, stats: &PoolStats) {
    reg.gauge("pool.threads").set(stats.threads as i64);
    reg.counter("pool.dispatches").add(stats.dispatches);
    reg.counter("pool.tasks_run").add(stats.tasks_run);
    reg.counter("pool.steals").add(stats.steals);
    reg.counter("pool.parks").add(stats.parks);
    reg.counter("pool.unparks").add(stats.unparks);
    reg.counter("pool.spawns_avoided").add(stats.spawns_avoided);
}

/// Copies a [`KernelStats`] delta into `reg` as `kernel.*` counters, the
/// similarity-kernel analogue of [`record_pool_stats`]. The active kernel's
/// name travels in the JSON report's `"kernel"` extra, not the registry
/// (registries hold numbers).
pub fn record_kernel_stats(reg: &Registry, stats: &KernelStats) {
    reg.counter("kernel.batched_calls").add(stats.batched_calls);
    reg.counter("kernel.batched_rows").add(stats.batched_rows);
}

/// Records the process memory gauges into `reg` — `mem.arena_bytes`
/// (live heap fingerprint-arena allocation, from `goldfinger-core`'s
/// accounting), `mem.mapped_bytes` (spilled arena segments),
/// `mem.rss_now_kb` (`VmRSS`) and `mem.rss_peak_kb` (`VmHWM`; a per-run
/// value only after `goldfinger_obs::mem::reset_rss_peak`, lifetime
/// otherwise; 0 off Linux). Called at report time so the peak covers the
/// whole run.
pub fn record_mem_gauges(reg: &Registry) {
    let snap = goldfinger_obs::mem::snapshot().unwrap_or_default();
    reg.gauge("mem.arena_bytes")
        .set(goldfinger_core::arena::live_arena_bytes() as i64);
    reg.gauge("mem.mapped_bytes")
        .set(goldfinger_core::arena::mapped_arena_bytes() as i64);
    reg.gauge("mem.rss_now_kb").set(snap.rss_kb as i64);
    reg.gauge("mem.rss_peak_kb").set(snap.peak_kb as i64);
}

/// Runs one `(algorithm, provider)` combination, reporting per-iteration
/// events and phase spans (fingerprinting included) to `obs`. The
/// preparation time lands both in [`RunOutcome::prep`] and in
/// `BuildStats::prep_wall`.
///
/// With `cfg.threads > 1` the shared persistent pool is installed for the
/// duration of the run, so fingerprinting and every parallel build phase
/// dispatch to parked workers instead of spawning threads.
pub fn run_observed(
    cfg: &ExperimentConfig,
    kind: AlgoKind,
    data: &BinaryDataset,
    provider: ProviderKind,
    obs: &dyn BuildObserver,
) -> RunOutcome {
    if cfg.threads > 1 {
        let pool = shared_pool(cfg.threads);
        return pool.install(|| run_observed_inner(cfg, kind, data, provider, obs));
    }
    run_observed_inner(cfg, kind, data, provider, obs)
}

fn run_observed_inner(
    cfg: &ExperimentConfig,
    kind: AlgoKind,
    data: &BinaryDataset,
    provider: ProviderKind,
    obs: &dyn BuildObserver,
) -> RunOutcome {
    let profiles = data.profiles();
    let (mut result, prep) = match provider {
        ProviderKind::Native => {
            let sim = ExplicitJaccard::new(profiles);
            (
                dispatch_observed(cfg, kind, profiles, &sim, obs),
                Duration::ZERO,
            )
        }
        ProviderKind::GoldFinger(bits) => {
            let (store, prep) = fingerprint(cfg, bits, profiles);
            obs.on_span(Phase::Fingerprinting, prep);
            let sim = ShfJaccard::new(&store);
            (dispatch_observed(cfg, kind, profiles, &sim, obs), prep)
        }
    };
    result.stats.prep_wall = prep;
    RunOutcome { result, prep }
}

/// Dispatches to the concrete algorithm with the paper's parameters
/// (δ = 0.001, ≤ 30 iterations, 10 LSH tables).
pub fn dispatch(
    cfg: &ExperimentConfig,
    kind: AlgoKind,
    profiles: &ProfileStore,
    sim: &dyn Similarity,
) -> KnnResult {
    dispatch_observed(cfg, kind, profiles, sim, &NoopObserver)
}

/// [`dispatch`] with a build observer attached. There is no per-algorithm
/// code here: the kind's registry entry instantiates the builder and the
/// erased trait runs it, so every algorithm (KIFF included) reports the same
/// iteration events and phase spans.
pub fn dispatch_observed(
    cfg: &ExperimentConfig,
    kind: AlgoKind,
    profiles: &ProfileStore,
    sim: &dyn Similarity,
    obs: &dyn BuildObserver,
) -> KnnResult {
    let builder = kind.spec().instantiate(&BuilderConfig {
        seed: cfg.seed,
        threads: cfg.threads,
    });
    builder.build_erased(BuildInput::with_profiles(sim, profiles), cfg.k, obs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use goldfinger_knn::metrics::quality;

    fn small_cfg() -> ExperimentConfig {
        ExperimentConfig {
            target_users: 150,
            k: 5,
            ..ExperimentConfig::default()
        }
    }

    #[test]
    fn build_dataset_hits_the_target_population() {
        let cfg = small_cfg();
        let data = build_dataset(&cfg, SynthConfig::ml1m());
        // prepare() drops some sub-20-rating users; stay in the ballpark.
        assert!(
            data.n_users() > 80 && data.n_users() <= 160,
            "{}",
            data.n_users()
        );
    }

    #[test]
    fn filter_selects_datasets_by_name() {
        let cfg = small_cfg();
        let picked = build_datasets(&cfg, Some("dblp,gowalla"));
        assert_eq!(picked.len(), 2);
        assert!(picked.iter().any(|d| d.name() == "DBLP"));
    }

    #[test]
    fn every_algorithm_runs_native_and_goldfinger() {
        let cfg = small_cfg();
        let data = build_dataset(&cfg, SynthConfig::ml1m());
        let exact = run(&cfg, AlgoKind::BruteForce, &data, ProviderKind::Native);
        let native_sim = ExplicitJaccard::new(data.profiles());
        for kind in AlgoKind::all_extended() {
            for provider in [ProviderKind::Native, ProviderKind::GoldFinger(1024)] {
                let out = run(&cfg, kind, &data, provider);
                assert_eq!(out.result.graph.n_users(), data.n_users());
                let q = quality(&out.result.graph, &exact.result.graph, &native_sim);
                assert!(q > 0.5, "{} / {:?}: quality {q}", kind.name(), provider);
                assert_eq!(out.result.stats.prep_wall, out.prep);
                if let ProviderKind::GoldFinger(_) = provider {
                    assert!(out.prep > Duration::ZERO);
                }
            }
        }
    }

    #[test]
    fn algo_kinds_index_the_registry_in_order() {
        // `spec()` indexes by discriminant, so the enum declaration order
        // must mirror the registry order.
        let names: Vec<&str> = AlgoKind::all_extended().iter().map(|k| k.name()).collect();
        assert_eq!(
            names,
            [
                "Brute Force",
                "Hyrec",
                "NNDescent",
                "LSH",
                "KIFF",
                "Cluster"
            ]
        );
        assert!(AlgoKind::all().iter().all(|k| k.spec().in_paper));
        assert!(!AlgoKind::Kiff.spec().in_paper);
        assert!(!AlgoKind::Cluster.spec().in_paper);
    }

    #[test]
    fn config_from_args_reads_overrides() {
        let args = crate::args::Args::parse(
            "--scale 0.5 --k 10 --bits 256 --seed 7 --threads 3"
                .split_whitespace()
                .map(String::from),
        );
        let cfg = ExperimentConfig::from_args(&args);
        assert_eq!(cfg.scale, 0.5);
        assert_eq!(cfg.k, 10);
        assert_eq!(cfg.bits, 256);
        assert_eq!(cfg.seed, 7);
        assert_eq!(cfg.threads, 3);
    }

    #[test]
    fn shared_pool_is_reused_for_same_size() {
        let a = shared_pool(3);
        let b = shared_pool(3);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(a.threads(), 3);
    }

    #[test]
    fn record_pool_stats_lands_in_registry() {
        let reg = Registry::new();
        let pool = Pool::new(2);
        let before = pool.stats();
        pool.install(|| {
            let _ = goldfinger_core::parallel::par_fold_dynamic(64, 2, 1, |_| (), |_, _| {});
        });
        record_pool_stats(&reg, &pool.stats().since(&before));
        assert_eq!(reg.gauge("pool.threads").get(), 2);
        assert_eq!(reg.counter("pool.dispatches").get(), 1);
        assert_eq!(reg.counter("pool.tasks_run").get(), 2);
        assert_eq!(reg.counter("pool.spawns_avoided").get(), 2);
    }

    #[test]
    fn record_kernel_stats_lands_in_registry() {
        let reg = Registry::new();
        let before = goldfinger_core::kernels::stats();
        let profiles = ProfileStore::from_item_lists(vec![vec![1, 2], vec![2, 3], vec![3, 4]]);
        let store = ShfParams::default().fingerprint_store(&profiles);
        let mut out = [0.0f64; 2];
        ShfJaccard::new(&store).similarity_batch(0, &[1, 2], &mut out);
        record_kernel_stats(&reg, &goldfinger_core::kernels::stats().since(&before));
        assert!(reg.counter("kernel.batched_calls").get() >= 1);
        assert!(reg.counter("kernel.batched_rows").get() >= 2);
    }
}
