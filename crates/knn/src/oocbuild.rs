//! Sharded out-of-core KNN construction: LSH routing, spill-to-disk
//! state, bounded peak RSS.
//!
//! The in-RAM builders assume three things fit in memory at once: the
//! fingerprint arena, the LSH bucket index, and the finished graph. This
//! module drops all three assumptions while keeping the *output* pinned:
//! with the bucket cap off (the default), [`build`] equals
//! [`Lsh::build`](crate::lsh::Lsh::build) over the GoldFinger provider
//! by construction, for any shard count and either backend. Both build
//! the same bucket index of [`crate::lsh`] (here on the spill backend) and
//! score each user's bucket mates through the same per-user scan
//! (`knn::userscan`); only the scheduling around them differs.
//!
//! Pipeline, in four phases. Phases 1 and 3 run on the installed
//! [`Pool`] (serially when none is installed); the output file and every
//! [`OocStats`] counter are byte-identical at any thread count.
//!
//! 1. **Fingerprint** — stream profiles once from a
//!    [`ProfileSource`], OR-ing fingerprints into an [`ShfStore`] whose
//!    arena lives on the spill backend, and writing each user's
//!    per-table MinHash keys into the index's user-major key arena,
//!    `keys[u·tables + t]`. Workers claim chunks of `FINGERPRINT_CHUNK`
//!    users; a chunk's arena rows and key slots are two disjoint slices,
//!    so no two workers write the same word. Peak memory: one profile per
//!    worker.
//! 2. **Index** — sort each table's `(key, user)` pairs into the index's
//!    two spilled arrays, one table at a time.
//! 3. **Scan** — users are partitioned into contiguous shards, scanned
//!    one after the other. Inside a shard, each block of `SCAN_BLOCK`
//!    users is one run of the per-user scan, whose workers keep their
//!    visit stamps for the whole build. Each block's top-k lists then go
//!    to the shard's on-disk `GFCS` segment ([`crate::csr::SegmentWriter`])
//!    in user order. After a shard, the arena and index pages it touched
//!    are advised cold, bounding resident growth to roughly one shard's
//!    working set.
//! 4. **Stitch** — segments are replayed in shard order into a
//!    [`CsrBuilder`] ([`build`]) or streamed through one
//!    [`SegmentWriter`] into a whole-graph `GFCS` file
//!    ([`build_to_disk`]), which never materializes the full edge set in
//!    RAM.

use crate::csr::{read_segment, Segment, SegmentWriter};
use crate::graph::{CsrBuilder, KnnGraph};
use crate::lsh::{arena, write_keys, BucketIndex};
use crate::userscan::UserScan;
use goldfinger_core::hash::ItemHasher;
use goldfinger_core::parallel::par_fold_dynamic;
use goldfinger_core::pool::Pool;
use goldfinger_core::profile::ProfileSource;
use goldfinger_core::shf::{ShfParams, ShfStore, ShfStreamWriter};
use goldfinger_core::similarity::ShfJaccard;
use goldfinger_core::topk::Scored;
use goldfinger_core::visit::VisitStamp;
use goldfinger_obs::trace;
use std::fs::File;
use std::io::{self, BufReader, BufWriter};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Users per work unit of the fingerprint phase: small enough to balance
/// the workers, large enough that claiming a unit costs nothing.
const FINGERPRINT_CHUNK: usize = 1024;

/// Users per parallel block of a shard scan: the block's lists are held
/// in RAM until they are written, in user order, to the segment.
const SCAN_BLOCK: usize = 4096;

/// Configuration of an out-of-core build.
#[derive(Debug, Clone)]
pub struct OocConfig {
    /// Neighbourhood size.
    pub k: usize,
    /// Number of LSH tables (MinHash permutations).
    pub tables: usize,
    /// LSH permutation seed (same derivation as [`crate::lsh::Lsh`]).
    pub seed: u64,
    /// Shard count; `0` derives it from `mem_budget` (see
    /// [`OocConfig::effective_shards`]).
    pub shards: usize,
    /// Target peak RSS in bytes (`0` = unbounded). Drives shard
    /// auto-derivation; the CI gate checks the measured peak against it.
    pub mem_budget: u64,
    /// Directory for spilled state (arena, key arrays, graph segments).
    pub spill_dir: PathBuf,
    /// Spill the fingerprint arena and key/index arrays to mapped files
    /// (Linux only). With `false` they stay on the heap — the pipeline
    /// still shards and still writes graph segments to disk.
    pub spill: bool,
    /// Skip buckets larger than this many users during the scan
    /// (`0` = no cap). A cap bounds worst-case scan cost on
    /// popularity-skewed data but departs from plain LSH output.
    pub max_bucket: usize,
}

impl OocConfig {
    /// A config with the in-RAM-equivalent defaults: no bucket cap,
    /// spilling on, shards derived from the budget.
    pub fn new(k: usize, tables: usize, seed: u64, spill_dir: impl Into<PathBuf>) -> Self {
        OocConfig {
            k,
            tables,
            seed,
            shards: 0,
            mem_budget: 0,
            spill_dir: spill_dir.into(),
            spill: true,
            max_bucket: 0,
        }
    }

    /// The shard count the build will actually run with: the configured
    /// one, or — when `shards == 0` — derived so one shard's share of the
    /// spilled state (arena + key index) is about a quarter of
    /// `mem_budget`, leaving the rest for the scan's transient state —
    /// one 4·n-byte visit stamp per pool worker, the block's lists and
    /// candidate buffers — and the segment writer. Unbounded budget ⇒ one
    /// shard.
    pub fn effective_shards(&self, n_users: usize, arena_bytes: u64) -> usize {
        if self.shards > 0 {
            return self.shards.min(n_users.max(1));
        }
        if self.mem_budget == 0 {
            return 1;
        }
        let key_bytes = (self.tables as u64) * (n_users as u64) * 8 * 3; // keys + sorted pairs
        let data = arena_bytes + key_bytes;
        let shards = (4 * data).div_ceil(self.mem_budget).max(1);
        (shards as usize).min(n_users.max(1))
    }
}

/// Counters and timings of one out-of-core build.
#[derive(Debug, Clone, Default)]
pub struct OocStats {
    /// Population size.
    pub n_users: usize,
    /// Shards the scan ran with.
    pub shards: usize,
    /// Similarity evaluations across all shards (same counting rule as
    /// the in-RAM LSH: one per deduplicated candidate).
    pub similarity_evals: u64,
    /// (user, item) associations streamed during fingerprinting.
    pub associations: u64,
    /// Fingerprint-arena size in bytes (padded rows).
    pub arena_bytes: u64,
    /// Bytes written to spill files (arena + keys + index + segments).
    pub spilled_bytes: u64,
    /// Arena backend actually used (`"heap"` / `"mmap"`).
    pub backend: &'static str,
    /// Wall time of the fingerprint+key streaming phase.
    pub fingerprint_wall: Duration,
    /// Wall time of the bucket-index sort phase.
    pub index_wall: Duration,
    /// Wall time of the candidate scan across all shards.
    pub scan_wall: Duration,
    /// Wall time of segment stitching.
    pub stitch_wall: Duration,
    /// Per-shard scan wall times (length `shards`).
    pub shard_walls: Vec<Duration>,
    /// End-to-end wall time.
    pub wall: Duration,
}

/// The spilled state shared by the scan phase.
struct OocState {
    store: ShfStore,
    index: BucketIndex,
}

impl OocState {
    /// Evicts every resident spill page (no-op on heap backends).
    fn advise_all_cold(&self) -> io::Result<()> {
        self.store.advise_cold_rows(0, self.store.len())?;
        self.index.advise_cold()
    }

    fn spilled_bytes(&self) -> u64 {
        if self.store.is_spilled() {
            (self.store.arena_words().len() + self.index.words()) as u64 * 8
        } else {
            0
        }
    }
}

/// Phase 1+2: stream profiles into a (possibly spilled) fingerprint store
/// and per-user key arena, then sort the per-table bucket runs.
fn prepare<P: ProfileSource + ?Sized, H: ItemHasher + Sync>(
    source: &P,
    params: &ShfParams<H>,
    cfg: &OocConfig,
    threads: usize,
    stats: &mut OocStats,
) -> io::Result<OocState> {
    let n = source.n_users();
    let tables = cfg.tables;
    let spill_dir = cfg.spill.then_some(cfg.spill_dir.as_path());

    // Fingerprint + keys in one streaming pass over the profiles. A unit
    // is one chunk of users: their arena rows and their key slots. ORs
    // into disjoint rows commute, so the store does not depend on which
    // worker ran which unit, or when.
    let t0 = Instant::now();
    let _span = trace::span_arg("phase", "ooc_fingerprint", n as u64);
    std::fs::create_dir_all(&cfg.spill_dir)?;
    let mut writer = if cfg.spill {
        ShfStreamWriter::new_spilled(params.bits(), n, &cfg.spill_dir)?
    } else {
        ShfStreamWriter::new(params.bits(), n)
    };
    let mut keys = arena(spill_dir, "keys.words", n * tables)?;
    let units: Vec<Mutex<Option<_>>> = writer
        .row_chunks_mut(FINGERPRINT_CHUNK)
        .zip(keys.chunks_mut(FINGERPRINT_CHUNK * tables))
        .map(|unit| Mutex::new(Some(unit)))
        .collect();
    let per_worker = par_fold_dynamic(
        units.len(),
        threads,
        1,
        |_| (0u64, Vec::new()),
        |(associations, items), c| {
            let (mut rows, keys) = units[c]
                .lock()
                .expect("no worker panics holding a unit")
                .take()
                .expect("each unit is claimed once");
            for (row, slots) in keys.chunks_mut(tables).enumerate() {
                source.items_into((c * FINGERPRINT_CHUNK + row) as u32, items);
                *associations += items.len() as u64;
                write_keys(items, cfg.seed, slots);
                for &it in items.iter() {
                    rows.insert(row, it, params.hasher());
                }
            }
        },
    );
    drop(units);
    stats.associations = per_worker.iter().map(|&(a, _)| a).sum();
    let store = writer.finish();
    keys.sync()?;
    drop(_span);
    stats.fingerprint_wall = t0.elapsed();

    let t1 = Instant::now();
    let _span = trace::span_arg("phase", "ooc_index", cfg.tables as u64);
    let index = BucketIndex::sort(keys, tables, |u| store.cardinality(u) != 0, spill_dir)?;
    stats.index_wall = t1.elapsed();

    stats.n_users = n;
    stats.backend = store.backend_kind();
    Ok(OocState { store, index })
}

/// Phase 3: scan one shard's users and spill their top-k lists as a
/// `GFCS` segment. Returns the similarity-evaluation count.
///
/// Each block of [`SCAN_BLOCK`] users is one [`UserScan`] run; its lists
/// are written in user order once the whole block is scored, so the
/// segment does not depend on the thread count.
fn scan_shard(
    k: usize,
    shard: usize,
    users: Range<u32>,
    scan_block: &dyn Fn(Range<u32>) -> (Vec<Vec<Scored>>, u64),
    seg_path: &Path,
) -> io::Result<u64> {
    let _span = trace::span_arg("phase", "ooc_shard", shard as u64);
    let file = BufWriter::new(File::create(seg_path)?);
    let mut seg = SegmentWriter::new(file, k, u64::from(users.start), users.len() as u64)?;
    let mut evals = 0;
    for block_lo in users.clone().step_by(SCAN_BLOCK) {
        let block_hi = (block_lo as usize + SCAN_BLOCK).min(users.end as usize) as u32;
        let (lists, block_evals) = scan_block(block_lo..block_hi);
        evals += block_evals;
        for list in &lists {
            seg.push_list(list)?;
        }
    }
    seg.finish()?;
    Ok(evals)
}

/// Reads back one spilled segment of a graph over `n` users, with the
/// full `read_segment` validation.
fn read_spilled(path: &Path, n: u64) -> io::Result<Segment> {
    let mut r = BufReader::new(File::open(path)?);
    read_segment(&mut r, n).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
}

/// Runs phases 1–3 and returns the state plus segment paths, in shard
/// order. Shared by [`build`] and [`build_to_disk`].
fn run_scan<P: ProfileSource + ?Sized, H: ItemHasher + Sync>(
    source: &P,
    params: &ShfParams<H>,
    cfg: &OocConfig,
) -> io::Result<(OocState, Vec<PathBuf>, OocStats)> {
    assert!(cfg.k > 0, "k must be positive");
    assert!(cfg.tables > 0, "need at least one hash table");
    let threads = Pool::current().map_or(1, |p| p.threads());
    let mut stats = OocStats::default();
    let state = prepare(source, params, cfg, threads, &mut stats)?;
    let n = state.store.len();

    let arena_bytes = state.store.arena_words().len() as u64 * 8;
    stats.arena_bytes = arena_bytes;
    let shards = cfg.effective_shards(n, arena_bytes);
    stats.shards = shards;

    // One visit stamp per worker for the whole build; a user with an
    // empty profile (cardinality zero) hashes nowhere.
    let t0 = Instant::now();
    let sim = ShfJaccard::new(&state.store);
    let scan = UserScan::new(cfg.k, threads, || VisitStamp::new(n));
    let scan_block = |users: Range<u32>| {
        scan.run(users, &sim, |stamp, u, out| {
            if state.store.cardinality(u) != 0 {
                state.index.bucket_mates(u, cfg.max_bucket, stamp, out);
            }
        })
    };
    let mut segments = Vec::with_capacity(shards);
    let per = n.div_ceil(shards.max(1)).max(1);
    for s in 0..shards {
        let lo = (s * per).min(n) as u32;
        let hi = ((s + 1) * per).min(n) as u32;
        let path = cfg.spill_dir.join(format!("seg-{s:05}.gfcs"));
        let t_shard = Instant::now();
        let evals = scan_shard(cfg.k, s, lo..hi, &scan_block, &path)?;
        stats.similarity_evals += evals;
        stats.shard_walls.push(t_shard.elapsed());
        // Drop this shard's page residency before the next one starts:
        // the whole point of the spill backend.
        state.advise_all_cold()?;
        segments.push(path);
    }
    stats.scan_wall = t0.elapsed();
    stats.spilled_bytes = state.spilled_bytes()
        + segments
            .iter()
            .map(|p| std::fs::metadata(p).map(|m| m.len()).unwrap_or(0))
            .sum::<u64>();
    Ok((state, segments, stats))
}

/// Out-of-core GoldFinger LSH build, stitched into an in-memory
/// [`KnnGraph`].
///
/// With `max_bucket == 0` (the default), the graph is bit-identical to
/// [`Lsh::build`](crate::lsh::Lsh::build) with the same `(tables, seed)`
/// over [`ShfJaccard`] of the same fingerprint store, for any shard count
/// and either backend.
///
/// # Panics
/// Panics if `k == 0` or `tables == 0`.
pub fn build<P: ProfileSource + ?Sized, H: ItemHasher + Sync>(
    source: &P,
    params: &ShfParams<H>,
    cfg: &OocConfig,
) -> io::Result<(KnnGraph, OocStats)> {
    let total = Instant::now();
    let (state, segments, mut stats) = run_scan(source, params, cfg)?;
    let n = state.store.len() as u64;

    let t0 = Instant::now();
    let _span = trace::span_arg("phase", "ooc_stitch", segments.len() as u64);
    let mut builder = CsrBuilder::with_capacity(cfg.k, n as usize);
    for path in &segments {
        read_spilled(path, n)?.append_into(&mut builder);
    }
    stats.stitch_wall = t0.elapsed();
    stats.wall = total.elapsed();
    Ok((builder.finish(), stats))
}

/// Out-of-core build stitched **streaming** into a `GFCS` graph file at
/// `out`: every spilled segment's lists pass through one
/// [`SegmentWriter`] covering the whole population, so the full edge set
/// never exists in RAM and peak memory stays bounded even when the final
/// graph is larger than the budget.
///
/// The file is byte-identical to
/// [`write_knn_graph`](crate::csr::write_knn_graph) of the
/// [`build`]-returned graph.
///
/// # Panics
/// Panics if `k == 0` or `tables == 0`.
pub fn build_to_disk<P: ProfileSource + ?Sized, H: ItemHasher + Sync>(
    source: &P,
    params: &ShfParams<H>,
    cfg: &OocConfig,
    out: &Path,
) -> io::Result<OocStats> {
    let total = Instant::now();
    let (state, segments, mut stats) = run_scan(source, params, cfg)?;
    let n = state.store.len() as u64;

    let t0 = Instant::now();
    let _span = trace::span_arg("phase", "ooc_stitch", segments.len() as u64);
    let mut w = SegmentWriter::new(BufWriter::new(File::create(out)?), cfg.k, 0, n)?;
    for path in &segments {
        let seg = read_spilled(path, n)?;
        for local in 0..seg.n_users() {
            w.push_list(&seg.list(local))?;
        }
    }
    w.finish()?;
    stats.stitch_wall = t0.elapsed();
    stats.wall = total.elapsed();
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::{read_knn_graph, write_knn_graph};
    use crate::lsh::Lsh;
    use goldfinger_core::hash::{DynHasher, HasherKind};
    use goldfinger_core::profile::ProfileStore;
    use goldfinger_core::similarity::ShfJaccard;
    use std::sync::Arc;

    fn fixture() -> ProfileStore {
        // Clustered + ragged + one empty profile: every routing edge case.
        let mut lists: Vec<Vec<u32>> = Vec::new();
        for u in 0..14u32 {
            let base = (u / 5) * 40;
            lists.push((base..base + 20 + u % 7).collect());
        }
        lists.push(vec![]);
        for u in 0..14u32 {
            lists.push(((u * 3)..(u * 3 + 9)).collect());
        }
        ProfileStore::from_item_lists(lists)
    }

    fn params() -> ShfParams<DynHasher> {
        ShfParams::new(256, DynHasher::new(HasherKind::Jenkins, 42))
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("gf-ooc-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// No pool, then installed pools of 1 to 4 threads: the build must be
    /// byte-identical across all of them.
    fn pools() -> Vec<Option<Arc<Pool>>> {
        std::iter::once(None)
            .chain((1..=4).map(|t| Some(Pool::new(t))))
            .collect()
    }

    fn on<R>(pool: &Option<Arc<Pool>>, f: impl FnOnce() -> R) -> R {
        match pool {
            Some(p) => p.install(f),
            None => f(),
        }
    }

    fn reference(profiles: &ProfileStore, tables: usize, seed: u64, k: usize) -> KnnGraph {
        let fps = params().fingerprint_store(profiles);
        Lsh {
            tables,
            seed,
            threads: 1,
        }
        .build(profiles, &ShfJaccard::new(&fps), k)
        .graph
    }

    #[test]
    fn matches_in_ram_lsh_for_any_shard_count() {
        let profiles = fixture();
        let expected = reference(&profiles, 4, 99, 3);
        let mut serial_evals = None;
        for shards in [1usize, 2, 5, 29] {
            for pool in pools() {
                let dir = tmp(&format!("eq{shards}"));
                let mut cfg = OocConfig::new(3, 4, 99, &dir);
                cfg.shards = shards;
                cfg.spill = false;
                let (graph, stats) = on(&pool, || build(&profiles, &params(), &cfg)).unwrap();
                assert_eq!(graph.n_users(), expected.n_users());
                for u in 0..graph.n_users() as u32 {
                    assert_eq!(
                        graph.neighbors(u),
                        expected.neighbors(u),
                        "shards={shards} pool={pool:?} u={u}"
                    );
                }
                assert_eq!(stats.shards, shards.min(profiles.n_users()));
                assert!(stats.similarity_evals > 0);
                let evals = *serial_evals.get_or_insert(stats.similarity_evals);
                assert_eq!(
                    stats.similarity_evals, evals,
                    "shards={shards} pool={pool:?}"
                );
                let _ = std::fs::remove_dir_all(&dir);
            }
        }
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn spilled_build_matches_heap_build() {
        let profiles = fixture();
        let expected = reference(&profiles, 3, 7, 2);
        let dir = tmp("spill");
        let mut cfg = OocConfig::new(2, 3, 7, &dir);
        cfg.shards = 3;
        cfg.spill = true;
        let (graph, stats) = build(&profiles, &params(), &cfg).unwrap();
        assert_eq!(stats.backend, "mmap");
        assert!(stats.spilled_bytes > 0);
        for u in 0..graph.n_users() as u32 {
            assert_eq!(graph.neighbors(u), expected.neighbors(u), "u={u}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_stitch_is_byte_identical_to_in_memory_graph() {
        let profiles = fixture();
        let dir = tmp("disk");
        let mut cfg = OocConfig::new(3, 4, 99, &dir);
        cfg.shards = 4;
        cfg.spill = false;
        let (graph, _) = build(&profiles, &params(), &cfg).unwrap();
        let mut expected = Vec::new();
        write_knn_graph(&graph, &mut expected).unwrap();
        let out = dir.join("graph.gfg");
        for pool in pools() {
            let (in_ram, _) = on(&pool, || build(&profiles, &params(), &cfg)).unwrap();
            let mut in_ram_bytes = Vec::new();
            write_knn_graph(&in_ram, &mut in_ram_bytes).unwrap();
            assert_eq!(in_ram_bytes, expected, "pool={pool:?}");
            on(&pool, || build_to_disk(&profiles, &params(), &cfg, &out)).unwrap();
            let bytes = std::fs::read(&out).unwrap();
            assert_eq!(bytes, expected, "pool={pool:?}");
        }
        let bytes = std::fs::read(&out).unwrap();
        let loaded = read_knn_graph(&mut bytes.as_slice()).unwrap();
        assert_eq!((loaded.n_users(), loaded.k()), (graph.n_users(), graph.k()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A population spanning several fingerprint units and scan blocks,
    /// with ragged tails on both: the unit and block seams must not show
    /// in the output at any thread count.
    #[test]
    fn unit_and_block_seams_are_invisible_at_any_thread_count() {
        let n = 2 * SCAN_BLOCK + 123;
        let lists: Vec<Vec<u32>> = (0..n as u32)
            .map(|u| (0..u % 9).map(|i| (u * 31 + i * 977) % 3000).collect())
            .collect();
        let profiles = ProfileStore::from_item_lists(lists);
        let dir = tmp("seams");
        let mut cfg = OocConfig::new(4, 3, 17, &dir);
        cfg.shards = 2;
        cfg.spill = false;
        let out = dir.join("graph.gfg");
        let mut expected = None;
        for pool in pools() {
            let stats = on(&pool, || build_to_disk(&profiles, &params(), &cfg, &out)).unwrap();
            let got = (
                std::fs::read(&out).unwrap(),
                stats.similarity_evals,
                stats.associations,
            );
            assert_eq!(
                &got,
                expected.get_or_insert_with(|| got.clone()),
                "pool={pool:?}"
            );
        }
        let (graph, _) = build(&profiles, &params(), &cfg).unwrap();
        let mut in_ram = Vec::new();
        write_knn_graph(&graph, &mut in_ram).unwrap();
        assert_eq!(in_ram, expected.unwrap().0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bucket_cap_only_drops_hot_buckets() {
        // All users share one hot bucket (identical profiles) except two
        // loners; with a tiny cap the hot bucket is skipped wholesale.
        let mut lists: Vec<Vec<u32>> = (0..8).map(|_| (0..20).collect()).collect();
        lists.push((100..120).collect());
        lists.push((100..120).collect());
        let profiles = ProfileStore::from_item_lists(lists);
        let dir = tmp("cap");
        let mut cfg = OocConfig::new(2, 2, 5, &dir);
        cfg.shards = 1;
        cfg.spill = false;
        cfg.max_bucket = 4;
        let (graph, stats) = build(&profiles, &params(), &cfg).unwrap();
        // The clones' bucket (8 users) is over the cap: no neighbours.
        for u in 0..8u32 {
            assert!(graph.neighbors(u).is_empty(), "u={u}");
        }
        // The loner pair (bucket of 2) is under the cap and survives.
        assert_eq!(graph.neighbors(8)[0].user, 9);
        assert_eq!(graph.neighbors(9)[0].user, 8);
        assert!(stats.similarity_evals > 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn effective_shards_honours_budget_and_floor() {
        let cfg = OocConfig::new(5, 2, 1, "/tmp/x");
        assert_eq!(cfg.effective_shards(1000, 1 << 20), 1); // unbounded
        let mut budgeted = cfg.clone();
        budgeted.mem_budget = 1 << 20;
        // 4 × (1MiB arena + 48KiB keys) / 1MiB ≈ 5.
        let s = budgeted.effective_shards(1000, 1 << 20);
        assert!(s >= 4, "derived {s}");
        let mut fixed = cfg;
        fixed.shards = 7;
        assert_eq!(fixed.effective_shards(3, 1 << 30), 3); // capped at n
    }
}
