//! Sharded out-of-core KNN construction: LSH routing, spill-to-disk
//! state, bounded peak RSS.
//!
//! The in-RAM builders assume three things fit in memory at once: the
//! fingerprint arena, the LSH bucket tables, and the finished graph. This
//! module drops all three assumptions while keeping the *output* pinned:
//! with spilling disabled and one shard, [`build`] is **bit-identical**
//! to [`Lsh::build`](crate::lsh::Lsh::build) over the GoldFinger
//! provider, and the one knob that changes that (the bucket cap) is off
//! by default.
//!
//! Pipeline, in four phases:
//!
//! 1. **Fingerprint** — stream profiles once from a
//!    [`ProfileSource`], OR-ing fingerprints into an [`ShfStore`] whose
//!    arena lives on the spill backend, and recording each user's
//!    per-table MinHash key ([`crate::lsh::bucket_key`]) in a spilled
//!    key arena. Peak memory: one profile + one ingest batch.
//! 2. **Index** — per table, sort the `(key, user)` pairs into two
//!    spilled arrays; a bucket is a run of equal keys, found by binary
//!    search. Users enter in ascending id order and the sort is stable,
//!    so in-bucket order matches the `HashMap<_, Vec<u32>>` insertion
//!    order of the in-RAM LSH — the determinism contract.
//! 3. **Scan** — users are partitioned into contiguous shards; each
//!    shard scans its users' buckets across all tables (visit-stamp
//!    deduplicated, exactly the LSH candidate sequence), scores
//!    candidates through the batched gather kernels, and streams its
//!    top-k lists into an on-disk `GFCS` segment
//!    ([`crate::csr::SegmentWriter`]). After a shard, the arena and key
//!    pages it touched are advised cold, bounding resident growth to
//!    roughly one shard's working set.
//! 4. **Stitch** — segments are replayed in shard order into a
//!    [`CsrBuilder`] ([`build`]) or streamed through one
//!    [`SegmentWriter`] into a whole-graph `GFCS` file
//!    ([`build_to_disk`]), which never materializes the full edge set in
//!    RAM.

use crate::csr::{read_segment, Segment, SegmentWriter};
use crate::graph::{CsrBuilder, KnnGraph};
use crate::lsh::{bucket_key, table_seed};
use goldfinger_core::arena::ArenaBackend;
use goldfinger_core::hash::ItemHasher;
use goldfinger_core::profile::ProfileSource;
use goldfinger_core::shf::{ShfParams, ShfStore, ShfStreamWriter};
use goldfinger_core::topk::TopK;
use goldfinger_core::visit::VisitStamp;
use goldfinger_obs::trace;
use std::fs::File;
use std::io::{self, BufReader, BufWriter};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Ingest batch size of the fingerprint phase, in (user, item)
/// associations: large enough to amortize the parallel hash dispatch,
/// small enough to stay cache-resident.
const INGEST_BATCH: usize = 1 << 16;

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
    /// `mem_budget`, leaving the rest for the stamp array, the scan
    /// buffers, and the segment writer. Unbounded budget ⇒ one shard.
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
    /// Per-table MinHash keys, `keys[t * n + u]` (undefined where
    /// `cardinality(u) == 0` — empty profiles hash nowhere).
    keys: ArenaBackend,
    /// Per-table sorted bucket index: `(index_keys[t], index_users[t])`
    /// aligned pairs sorted by key (stable ⇒ users ascending per key).
    index_keys: Vec<ArenaBackend>,
    index_users: Vec<ArenaBackend>,
}

impl OocState {
    /// Evicts every resident spill page (no-op on heap backends).
    fn advise_all_cold(&self) -> io::Result<()> {
        self.store.advise_cold_rows(0, self.store.len())?;
        self.keys.advise_cold(0, self.keys.len())?;
        for (k, u) in self.index_keys.iter().zip(&self.index_users) {
            k.advise_cold(0, k.len())?;
            u.advise_cold(0, u.len())?;
        }
        Ok(())
    }

    fn spilled_bytes(&self) -> u64 {
        let words = self.store.arena_words().len()
            + self.keys.len()
            + self.index_keys.iter().map(|a| a.len()).sum::<usize>()
            + self.index_users.iter().map(|a| a.len()).sum::<usize>();
        if self.store.is_spilled() {
            words as u64 * 8
        } else {
            0
        }
    }
}

/// Allocates a words arena on the configured backend.
fn make_arena(cfg: &OocConfig, name: &str, len: usize) -> io::Result<ArenaBackend> {
    if cfg.spill {
        ArenaBackend::spill(&cfg.spill_dir.join(name), len)
    } else {
        Ok(ArenaBackend::heap(len))
    }
}

/// Phase 1+2: stream profiles into a (possibly spilled) fingerprint store
/// and per-table key arena, then sort the per-table bucket indexes.
fn prepare<P: ProfileSource + ?Sized, H: ItemHasher + Sync>(
    source: &P,
    params: &ShfParams<H>,
    cfg: &OocConfig,
    stats: &mut OocStats,
) -> io::Result<OocState> {
    let n = source.n_users();

    // Fingerprint + keys in one streaming pass over the profiles.
    let t0 = Instant::now();
    let _span = trace::span_arg("phase", "ooc_fingerprint", n as u64);
    std::fs::create_dir_all(&cfg.spill_dir)?;
    let mut writer = if cfg.spill {
        ShfStreamWriter::new_spilled(params.bits(), n, &cfg.spill_dir)?
    } else {
        ShfStreamWriter::new(params.bits(), n)
    };
    let mut keys = make_arena(cfg, "keys.words", cfg.tables * n)?;
    let mut items: Vec<u32> = Vec::new();
    let mut batch: Vec<(u32, u32)> = Vec::with_capacity(INGEST_BATCH);
    for u in 0..n as u32 {
        source.items_into(u, &mut items);
        stats.associations += items.len() as u64;
        for t in 0..cfg.tables {
            if let Some(key) = bucket_key(&items, table_seed(cfg.seed, t)) {
                keys[t * n + u as usize] = key;
            }
        }
        for &it in &items {
            batch.push((u, it));
            if batch.len() == INGEST_BATCH {
                writer.ingest_batch(&batch, params.hasher());
                batch.clear();
            }
        }
    }
    writer.ingest_batch(&batch, params.hasher());
    drop(batch);
    let store = writer.finish();
    keys.sync()?;
    drop(_span);
    stats.fingerprint_wall = t0.elapsed();

    // Sort each table's (key, user) pairs into the spilled bucket index.
    // The transient sort buffer is the memory peak of this phase — one
    // table at a time, freed before the next.
    let t1 = Instant::now();
    let _span = trace::span_arg("phase", "ooc_index", cfg.tables as u64);
    let mut index_keys = Vec::with_capacity(cfg.tables);
    let mut index_users = Vec::with_capacity(cfg.tables);
    for t in 0..cfg.tables {
        let mut pairs: Vec<(u64, u32)> = (0..n as u32)
            .filter(|&u| store.cardinality(u) != 0)
            .map(|u| (keys[t * n + u as usize], u))
            .collect();
        // Stable by key: equal-key users stay in ascending-id order,
        // matching the insertion order of the in-RAM bucket vectors.
        pairs.sort_by_key(|&(key, _)| key);
        let mut ik = make_arena(cfg, &format!("index-keys-{t}.words"), pairs.len())?;
        let mut iu = make_arena(cfg, &format!("index-users-{t}.words"), pairs.len())?;
        for (i, &(key, u)) in pairs.iter().enumerate() {
            ik[i] = key;
            iu[i] = u as u64;
        }
        ik.sync()?;
        iu.sync()?;
        index_keys.push(ik);
        index_users.push(iu);
    }
    stats.index_wall = t1.elapsed();

    stats.n_users = n;
    stats.backend = store.backend_kind();
    Ok(OocState {
        store,
        keys,
        index_keys,
        index_users,
    })
}

/// Phase 3: scan one shard's users and spill their top-k lists as a
/// `GFCS` segment. Returns the similarity-evaluation count.
fn scan_shard(
    state: &OocState,
    cfg: &OocConfig,
    shard: usize,
    lo: u32,
    hi: u32,
    stamp: &mut VisitStamp,
    seg_path: &Path,
) -> io::Result<u64> {
    let _span = trace::span_arg("phase", "ooc_shard", shard as u64);
    let n = state.store.len();
    let file = BufWriter::new(File::create(seg_path)?);
    let mut seg = SegmentWriter::new(file, cfg.k, u64::from(lo), u64::from(hi - lo))?;
    let mut candidates: Vec<u32> = Vec::new();
    let mut sims: Vec<f64> = Vec::new();
    let mut evals = 0u64;
    for u in lo..hi {
        stamp.next_round();
        stamp.mark(u as usize);
        candidates.clear();
        if state.store.cardinality(u) != 0 {
            for t in 0..cfg.tables {
                let key = state.keys[t * n + u as usize];
                let ik: &[u64] = &state.index_keys[t];
                let start = ik.partition_point(|&x| x < key);
                let end = ik.partition_point(|&x| x <= key);
                if cfg.max_bucket != 0 && end - start > cfg.max_bucket {
                    continue; // capped: this bucket is too hot to scan
                }
                for &v in &state.index_users[t][start..end] {
                    if stamp.mark(v as usize) {
                        candidates.push(v as u32);
                    }
                }
            }
        }
        evals += candidates.len() as u64;
        sims.clear();
        sims.resize(candidates.len(), 0.0);
        state.store.jaccard_batch(u, &candidates, &mut sims);
        let mut top = TopK::new(cfg.k);
        for (&v, &s) in candidates.iter().zip(&sims) {
            top.offer(s, v);
        }
        seg.push_list(&top.into_sorted())?;
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
    let mut stats = OocStats::default();
    let state = prepare(source, params, cfg, &mut stats)?;
    let n = state.store.len();

    let arena_bytes = state.store.arena_words().len() as u64 * 8;
    stats.arena_bytes = arena_bytes;
    let shards = cfg.effective_shards(n, arena_bytes);
    stats.shards = shards;

    let t0 = Instant::now();
    let mut stamp = VisitStamp::new(n);
    let mut segments = Vec::with_capacity(shards);
    let per = n.div_ceil(shards.max(1)).max(1);
    for s in 0..shards {
        let lo = (s * per).min(n) as u32;
        let hi = ((s + 1) * per).min(n) as u32;
        let path = cfg.spill_dir.join(format!("seg-{s:05}.gfcs"));
        let t_shard = Instant::now();
        let evals = scan_shard(&state, cfg, s, lo, hi, &mut stamp, &path)?;
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
/// over [`ShfJaccard`](goldfinger_core::similarity::ShfJaccard) of the
/// same fingerprint store, for any shard count and either backend.
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
        for shards in [1usize, 2, 5, 29] {
            let dir = tmp(&format!("eq{shards}"));
            let mut cfg = OocConfig::new(3, 4, 99, &dir);
            cfg.shards = shards;
            cfg.spill = false;
            let (graph, stats) = build(&profiles, &params(), &cfg).unwrap();
            assert_eq!(graph.n_users(), expected.n_users());
            for u in 0..graph.n_users() as u32 {
                assert_eq!(
                    graph.neighbors(u),
                    expected.neighbors(u),
                    "shards={shards} u={u}"
                );
            }
            assert_eq!(stats.shards, shards.min(profiles.n_users()));
            assert!(stats.similarity_evals > 0);
            let _ = std::fs::remove_dir_all(&dir);
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
        let out = dir.join("graph.gfg");
        build_to_disk(&profiles, &params(), &cfg, &out).unwrap();
        let mut expected = Vec::new();
        write_knn_graph(&graph, &mut expected).unwrap();
        let bytes = std::fs::read(&out).unwrap();
        assert_eq!(bytes, expected);
        let loaded = read_knn_graph(&mut bytes.as_slice()).unwrap();
        assert_eq!((loaded.n_users(), loaded.k()), (graph.n_users(), graph.k()));
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
