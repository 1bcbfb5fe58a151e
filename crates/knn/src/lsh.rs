//! Locality-Sensitive Hashing KNN construction (Indyk & Motwani, STOC 1998)
//! with MinHash bucketing (Broder 1997).
//!
//! Each of `tables` hash tables buckets users by the minimum of a min-wise
//! independent permutation over their profile items; two users collide in a
//! table with probability equal to their Jaccard index. Neighbours are then
//! searched only among same-bucket users.
//!
//! Bucket construction always reads *explicit* profiles — that cost is
//! proportional to the number of (user, item) associations and is **not**
//! reduced by GoldFinger, which is exactly why the paper observes little
//! GoldFinger speedup for LSH on sparse datasets (bucketing dominates):
//! only the in-bucket similarity evaluations go through the provider.
//!
//! `BucketIndex` is the crate's one bucket index, shared with the
//! out-of-core build ([`crate::oocbuild`]), which keeps it on the spill
//! backend instead of the heap, and with Cluster-and-Conquer
//! ([`crate::cluster`]), whose cluster keys are blip bits instead of
//! MinHash values. It has two parts: a user-major key arena,
//! `keys[u·tables + t]`, where each user's key for each table is computed
//! once (in RAM, by a caller-supplied key writer on the build's worker
//! threads); and per table, the `(key, user)` pairs of every user with a
//! non-empty profile sorted by key (ties by user), so a bucket is a run of
//! equal keys, its users in ascending id order. LSH finds a user's buckets
//! by binary search: its candidates are its bucket mates across the tables
//! in table order, deduplicated with a visit stamp, and are scored by the
//! shared per-user scan (`knn::userscan`). Cluster instead walks every
//! table's runs once (`BucketIndex::runs`) into its own cluster table.

use crate::graph::KnnResult;
use crate::partials::scan_workers;
use crate::userscan::scan_all_users;
use goldfinger_core::arena::ArenaBackend;
use goldfinger_core::hash::splitmix64_mix;
use goldfinger_core::parallel::par_map_chunks;
use goldfinger_core::profile::ProfileStore;
use goldfinger_core::similarity::Similarity;
use goldfinger_core::visit::VisitStamp;
use goldfinger_obs::trace;
use goldfinger_obs::{BuildObserver, NoopObserver, Phase};
use std::io;
use std::path::Path;
use std::time::Instant;

/// LSH parameters. The paper uses 10 hash functions (§3.3).
#[derive(Debug, Clone, Copy)]
pub struct Lsh {
    /// Number of hash tables (one MinHash permutation each).
    pub tables: usize,
    /// Seed deriving the per-table permutations.
    pub seed: u64,
    /// Worker threads for the key fill and the in-bucket candidate scan
    /// (`0` = default parallelism, `1` = serial). Every user's keys and
    /// every per-user scan are self-contained, so the graph is
    /// bit-identical for any thread count.
    pub threads: usize,
}

impl Default for Lsh {
    fn default() -> Self {
        Lsh {
            tables: 10,
            seed: 0x15_4A,
            threads: 1,
        }
    }
}

/// Derives table `t`'s MinHash permutation seed from the build seed.
#[inline]
pub fn table_seed(seed: u64, t: usize) -> u64 {
    splitmix64_mix(seed ^ (t as u64).wrapping_mul(0x9E37))
}

/// MinHash bucket key of a profile under one table's permutation
/// ([`table_seed`]); `None` for an empty profile, which hashes nowhere.
#[inline]
pub fn bucket_key(items: &[u32], table_seed: u64) -> Option<u64> {
    items
        .iter()
        .map(|&i| splitmix64_mix(i as u64 ^ table_seed))
        .min()
}

/// Writes a profile's key for each table into its `slots` of the key
/// arena; an empty profile leaves them untouched.
pub(crate) fn write_keys(items: &[u32], seed: u64, slots: &mut [u64]) {
    for (t, slot) in slots.iter_mut().enumerate() {
        if let Some(key) = bucket_key(items, table_seed(seed, t)) {
            *slot = key;
        }
    }
}

/// Users per unit of the in-RAM key fill: units are the disjoint pieces of
/// the key arena the workers split between them.
const KEY_FILL_CHUNK: usize = 256;

/// A zeroed arena of `len` words: spilled to `name` under `spill_dir`
/// when one is given, on the heap otherwise.
pub(crate) fn arena(spill_dir: Option<&Path>, name: &str, len: usize) -> io::Result<ArenaBackend> {
    match spill_dir {
        Some(dir) => ArenaBackend::spill(&dir.join(name), len),
        None => Ok(ArenaBackend::heap(len)),
    }
}

/// The LSH bucket index (see the module docs).
pub(crate) struct BucketIndex {
    tables: usize,
    /// Per-table keys, user-major: `keys[u * tables + t]` (zero for a user
    /// with an empty profile, which hashes nowhere).
    keys: ArenaBackend,
    /// Per table, aligned arrays of the `(key, user)` pairs of every user
    /// with a non-empty profile, sorted by key, then user.
    sorted_keys: Vec<ArenaBackend>,
    sorted_users: Vec<ArenaBackend>,
}

impl BucketIndex {
    /// The heap index of an in-memory population. `fill(items, slots)`
    /// writes one user's key for each table into its slots of the key
    /// arena; the users are filled in parallel on `threads` workers, each
    /// on its own units of consecutive users. Users with empty profiles
    /// get no bucket, whatever `fill` left in their slots.
    pub(crate) fn in_ram(
        profiles: &ProfileStore,
        tables: usize,
        threads: usize,
        fill: impl Fn(&[u32], &mut [u64]) + Sync,
    ) -> Self {
        let mut keys = ArenaBackend::heap(profiles.n_users() * tables);
        let mut units: Vec<&mut [u64]> = keys.chunks_mut(KEY_FILL_CHUNK * tables).collect();
        par_map_chunks(&mut units, scan_workers(threads), |_, first, units| {
            for (c, unit) in units.iter_mut().enumerate() {
                let base = (first + c) * KEY_FILL_CHUNK;
                for (row, slots) in unit.chunks_mut(tables).enumerate() {
                    fill(profiles.items((base + row) as u32), slots);
                }
            }
        });
        Self::sort(keys, tables, |u| !profiles.items(u).is_empty(), None)
            .expect("heap arenas do not fail")
    }

    /// Sorts the bucket runs of a filled key arena. `live(u)` says whether
    /// user `u` has a non-empty profile; the sorted arrays go on the
    /// backend [`arena`] picks for `spill_dir`, one table at a time, so the
    /// transient sort buffer holds one table's pairs.
    pub(crate) fn sort(
        keys: ArenaBackend,
        tables: usize,
        live: impl Fn(u32) -> bool,
        spill_dir: Option<&Path>,
    ) -> io::Result<Self> {
        let n = keys.len() / tables;
        let mut sorted_keys = Vec::with_capacity(tables);
        let mut sorted_users = Vec::with_capacity(tables);
        for t in 0..tables {
            let mut pairs: Vec<(u64, u32)> = (0..n as u32)
                .filter(|&u| live(u))
                .map(|u| (keys[u as usize * tables + t], u))
                .collect();
            // Stable by key: users enter in id order and keep it per run.
            pairs.sort_by_key(|&(key, _)| key);
            let mut ks = arena(spill_dir, &format!("index-keys-{t}.words"), pairs.len())?;
            let mut us = arena(spill_dir, &format!("index-users-{t}.words"), pairs.len())?;
            for ((k, u), &(key, user)) in ks.iter_mut().zip(us.iter_mut()).zip(&pairs) {
                *k = key;
                *u = u64::from(user);
            }
            ks.sync()?;
            us.sync()?;
            sorted_keys.push(ks);
            sorted_users.push(us);
        }
        Ok(BucketIndex {
            tables,
            keys,
            sorted_keys,
            sorted_users,
        })
    }

    /// Appends `u`'s bucket mates to `out`: across the tables in table
    /// order, each bucket's users in id order, first occurrences only, `u`
    /// itself never. A bucket of more than `max_bucket` users is skipped
    /// (`0` = no cap). `u` must have a non-empty profile.
    pub(crate) fn bucket_mates(
        &self,
        u: u32,
        max_bucket: usize,
        stamp: &mut VisitStamp,
        out: &mut Vec<u32>,
    ) {
        stamp.next_round();
        stamp.mark(u as usize);
        let keys = &self.keys[u as usize * self.tables..][..self.tables];
        for ((&key, sk), su) in keys.iter().zip(&self.sorted_keys).zip(&self.sorted_users) {
            // Both searches span the whole table, so their first probes hit
            // the same few cached words for every user; a search over the
            // tail past `start` would miss on nearly every probe.
            let start = sk.partition_point(|&x| x < key);
            let end = sk.partition_point(|&x| x <= key);
            if max_bucket != 0 && end - start > max_bucket {
                continue; // capped: this bucket is too hot to scan
            }
            for &v in &su[start..end] {
                if stamp.mark(v as usize) {
                    out.push(v as u32);
                }
            }
        }
    }

    /// Table `t`'s buckets in ascending key order, each as its key and its
    /// users in ascending id order.
    pub(crate) fn runs(&self, t: usize) -> impl Iterator<Item = (u64, &[u64])> {
        let (keys, users) = (&self.sorted_keys[t][..], &self.sorted_users[t][..]);
        let mut start = 0;
        std::iter::from_fn(move || {
            let &key = keys.get(start)?;
            let len = keys[start..].iter().take_while(|&&k| k == key).count();
            start += len;
            Some((key, &users[start - len..start]))
        })
    }

    /// Every arena of the index.
    fn arenas(&self) -> impl Iterator<Item = &ArenaBackend> {
        std::iter::once(&self.keys)
            .chain(&self.sorted_keys)
            .chain(&self.sorted_users)
    }

    /// Words held by the index's arenas.
    pub(crate) fn words(&self) -> usize {
        self.arenas().map(|a| a.len()).sum()
    }

    /// Evicts the index's resident spill pages (a no-op on the heap).
    pub(crate) fn advise_cold(&self) -> io::Result<()> {
        self.arenas().try_for_each(|a| a.advise_cold(0, a.len()))
    }
}

impl Lsh {
    /// Builds an approximate KNN graph.
    ///
    /// `profiles` supplies the raw item sets for bucketing; `sim` scores the
    /// in-bucket candidates (explicit provider = native LSH, SHF provider =
    /// GoldFinger LSH).
    ///
    /// # Panics
    /// Panics if `k == 0`, `tables == 0`, or the provider's population
    /// differs from the profile store's.
    pub fn build<S: Similarity + ?Sized>(
        &self,
        profiles: &ProfileStore,
        sim: &S,
        k: usize,
    ) -> KnnResult {
        self.build_observed(profiles, sim, k, &NoopObserver)
    }

    /// Builds the graph, reporting progress to `obs`: one span for the
    /// GoldFinger-immune bucket construction
    /// ([`Phase::CandidateGeneration`]), one for the in-bucket scans
    /// ([`Phase::Join`]), and a single [`IterationEvent`] with the final
    /// counters. Observation never changes the output; with the default
    /// [`NoopObserver`] the hooks compile to nothing.
    ///
    /// [`IterationEvent`]: goldfinger_obs::IterationEvent
    ///
    /// # Panics
    /// Same contract as [`Lsh::build`].
    pub fn build_observed<S: Similarity + ?Sized, O: BuildObserver>(
        &self,
        profiles: &ProfileStore,
        sim: &S,
        k: usize,
        obs: &O,
    ) -> KnnResult {
        assert!(k > 0, "k must be positive");
        assert!(self.tables > 0, "need at least one hash table");
        assert_eq!(
            profiles.n_users(),
            sim.n_users(),
            "profile store and similarity provider disagree on population"
        );
        let n = profiles.n_users();
        let start = Instant::now();

        // Bucketing: the expensive, GoldFinger-immune phase.
        let bucket_start = O::ENABLED.then(Instant::now);
        let bucket_trace = trace::span("phase", "candidate_generation");
        let index = BucketIndex::in_ram(profiles, self.tables, self.threads, |items, slots| {
            write_keys(items, self.seed, slots)
        });
        drop(bucket_trace);
        if let Some(t) = bucket_start {
            obs.on_span(Phase::CandidateGeneration, t.elapsed());
        }

        scan_all_users(
            sim,
            k,
            self.threads,
            obs,
            start,
            || VisitStamp::new(n),
            |stamp, u, out| {
                // A user with no item hashes nowhere.
                if !profiles.items(u).is_empty() {
                    index.bucket_mates(u, 0, stamp, out);
                }
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use goldfinger_core::similarity::ExplicitJaccard;

    fn clustered() -> ProfileStore {
        let mut lists = Vec::new();
        for u in 0..10u32 {
            let mut items: Vec<u32> = (0..25).collect();
            items.push(200 + u);
            lists.push(items);
        }
        for u in 0..10u32 {
            let mut items: Vec<u32> = (100..125).collect();
            items.push(300 + u);
            lists.push(items);
        }
        ProfileStore::from_item_lists(lists)
    }

    #[test]
    fn same_cluster_users_share_buckets() {
        let profiles = clustered();
        let sim = ExplicitJaccard::new(&profiles);
        let result = Lsh::default().build(&profiles, &sim, 5);
        // High-similarity users (J ≈ 25/27) collide with near-certainty in
        // at least one of 10 tables.
        let mut found = 0usize;
        let mut total = 0usize;
        for u in 0..20u32 {
            for s in result.graph.neighbors(u) {
                total += 1;
                if (s.user < 10) == (u < 10) {
                    found += 1;
                }
            }
        }
        assert!(total > 0);
        assert_eq!(found, total, "cross-cluster neighbours found");
    }

    #[test]
    fn empty_profiles_get_no_neighbors_but_keep_slots() {
        let profiles =
            ProfileStore::from_item_lists(vec![(0..30).collect(), (0..30).collect(), vec![]]);
        let sim = ExplicitJaccard::new(&profiles);
        let result = Lsh::default().build(&profiles, &sim, 2);
        assert_eq!(result.graph.n_users(), 3);
        assert!(result.graph.neighbors(2).is_empty());
        assert_eq!(result.graph.neighbors(0)[0].user, 1);
    }

    #[test]
    fn evals_are_bounded_by_bucket_collisions() {
        let profiles = clustered();
        let sim = ExplicitJaccard::new(&profiles);
        let result = Lsh::default().build(&profiles, &sim, 5);
        // Never more than full brute force (ordered pairs).
        assert!(result.stats.similarity_evals <= 20 * 19);
    }

    #[test]
    fn is_deterministic() {
        let profiles = clustered();
        let sim = ExplicitJaccard::new(&profiles);
        let a = Lsh::default().build(&profiles, &sim, 5);
        let b = Lsh::default().build(&profiles, &sim, 5);
        for u in 0..20u32 {
            assert_eq!(a.graph.neighbors(u), b.graph.neighbors(u));
        }
    }

    #[test]
    fn parallel_scan_is_bit_identical_to_serial() {
        let profiles = clustered();
        let sim = ExplicitJaccard::new(&profiles);
        let serial = Lsh::default().build(&profiles, &sim, 5);
        for threads in [2usize, 3, 8] {
            let par = Lsh {
                threads,
                ..Lsh::default()
            }
            .build(&profiles, &sim, 5);
            assert_eq!(par.stats.similarity_evals, serial.stats.similarity_evals);
            for u in 0..20u32 {
                assert_eq!(
                    par.graph.neighbors(u),
                    serial.graph.neighbors(u),
                    "threads={threads} u={u}"
                );
            }
        }
    }

    #[test]
    fn more_tables_find_no_fewer_candidates() {
        let profiles = clustered();
        let sim = ExplicitJaccard::new(&profiles);
        let small = Lsh {
            tables: 1,
            seed: 1,
            ..Lsh::default()
        }
        .build(&profiles, &sim, 5);
        let large = Lsh {
            tables: 12,
            seed: 1,
            ..Lsh::default()
        }
        .build(&profiles, &sim, 5);
        assert!(large.stats.similarity_evals >= small.stats.similarity_evals);
    }

    #[test]
    fn key_fill_and_runs_are_thread_count_invariant() {
        // Several fill units, the last one short, with empty profiles
        // scattered through them.
        let lists: Vec<Vec<u32>> = (0..3 * KEY_FILL_CHUNK as u32 + 17)
            .map(|u| match u % 100 {
                0 => Vec::new(),
                _ => (u % 97..u % 97 + 5).collect(),
            })
            .collect();
        let profiles = ProfileStore::from_item_lists(lists);
        let (n, tables) = (profiles.n_users(), 3);
        let live = (0..n as u32).filter(|&u| !profiles.items(u).is_empty());
        let mut want = vec![0u64; n * tables];
        for ((_, items), slots) in profiles.iter().zip(want.chunks_mut(tables)) {
            write_keys(items, 7, slots);
        }
        for threads in [1usize, 2, 4] {
            let index = BucketIndex::in_ram(&profiles, tables, threads, |items, slots| {
                write_keys(items, 7, slots)
            });
            assert_eq!(&index.keys[..], &want[..], "threads={threads}");
            for t in 0..tables {
                let runs: Vec<(u64, &[u64])> = index.runs(t).collect();
                assert!(runs.windows(2).all(|w| w[0].0 < w[1].0), "keys ascend");
                let mut users = Vec::new();
                for (key, run) in runs {
                    assert!(run.windows(2).all(|w| w[0] < w[1]), "ids ascend");
                    for &u in run {
                        assert_eq!(want[u as usize * tables + t], key);
                        users.push(u as u32);
                    }
                }
                users.sort_unstable();
                assert!(users.into_iter().eq(live.clone()), "each live user once");
            }
        }
    }

    #[test]
    #[should_panic(expected = "disagree")]
    fn population_mismatch_panics() {
        let profiles = clustered();
        let other = ProfileStore::from_item_lists(vec![vec![1]]);
        let sim = ExplicitJaccard::new(&other);
        let _ = Lsh::default().build(&profiles, &sim, 5);
    }
}
