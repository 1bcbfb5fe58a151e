//! Cluster-and-Conquer KNN construction (Giakkoupis, Kermarrec & Ruas —
//! see PAPERS.md): hash every user into `tables` independent clusters via a
//! cheap fingerprint-derived key, brute-force each cluster while its rows
//! are cache-resident, and deterministically merge the per-cluster top-k
//! partials.
//!
//! The cluster key is *not* a full MinHash pass over the profile. Each user
//! first folds its items into a tiny one-off **blip** — a few 64-bit words
//! set by hashing every item exactly once, i.e. a miniature SHF — and each
//! table then takes the min-wise smallest blip *bit* under a per-table
//! bit-priority hash ([`crate::lsh::table_seed`] derives the seeds, exactly
//! like LSH). Two users land in the same cluster of table `t` with
//! probability equal to the Jaccard index of their blips, a noisy but
//! monotone proxy of their profile similarity. The per-table cost is
//! `O(popcount(blip))` — bounded by the blip width, independent of the
//! profile size — where LSH pays a full `O(|profile|)` permutation scan per
//! table.
//!
//! The keys go through LSH's bucket index ([`crate::lsh`]): the blip key
//! writer fills the index's user-major key arena on the build's worker
//! threads, the index sorts each table's `(key, user)` pairs, and one walk
//! over every table's runs lays out the clusters (members, cross-table
//! dedup keys, scan list). The index is dropped before the scan.
//!
//! Zipf-hot buckets are handled like `oocbuild::max_bucket`: a cluster
//! larger than [`Cluster::max_cluster`] is skipped entirely (`0` disables
//! the cap). Every surviving cluster is scanned with the same discipline as
//! [`crate::brute::BruteForce`]: rows gathered through
//! [`Similarity::similarity_batch`] (the SIMD gather kernels for
//! fingerprint providers), each unordered pair visited **once globally** —
//! a pair co-clustered in several tables is charged to the first table
//! where it shares an uncapped cluster. Every surviving pair scores
//! straight into the worker's global top-k partials, the floor-filtered
//! fold Brute Force uses too (`crate::partials`). Because the visited
//! pairs depend only on the assignment (never on which worker got which
//! cluster) and the top-k kept set is insertion-order independent, the
//! graph *and* the eval counter are bit-identical for any thread count,
//! kernel, and work-stealing schedule. Nothing is pruned:
//! [`crate::graph::BuildStats::pruned_evals`] is always 0. DESIGN.md §17.

use crate::graph::KnnResult;
use crate::lsh::{table_seed, BucketIndex};
use crate::partials::fold_scan;
use goldfinger_core::hash::splitmix64_mix;
use goldfinger_core::profile::ProfileStore;
use goldfinger_core::similarity::Similarity;
use goldfinger_obs::{BuildObserver, NoopObserver, Phase, PhaseTimer};
use std::time::Instant;

/// Blip width in 64-bit words: 16384 bucket slots per table — wide enough
/// that paper-scale profiles (tens to a few hundred items) set nearly one
/// bit per item, so the blip Jaccard tracks the profile Jaccard and
/// per-table collision probabilities match LSH's, while the 2 KiB blip
/// stays comfortably cache-resident (and, with the set bits collected
/// once, the per-table argmin never rescans it).
const BLIP_WORDS: usize = 256;

/// Cluster-and-Conquer parameters.
#[derive(Debug, Clone, Copy)]
pub struct Cluster {
    /// Number of independent clusterings (one bit-priority hash each).
    pub tables: usize,
    /// Skip clusters larger than this many users (`0` = no cap), mirroring
    /// `oocbuild`'s `max_bucket`: Zipf-hot buckets would otherwise devolve
    /// into quadratic scans of near-random candidates.
    pub max_cluster: usize,
    /// Seed deriving the blip item hash and the per-table bit priorities.
    pub seed: u64,
    /// Worker threads for the key fill and the per-cluster scans (`0` =
    /// default parallelism, `1` = serial). Output and counters are
    /// bit-identical for any thread count.
    pub threads: usize,
}

impl Default for Cluster {
    fn default() -> Self {
        Cluster {
            tables: 14,
            max_cluster: 256,
            seed: 0xC1A5,
            threads: 1,
        }
    }
}

/// The cluster layout one [`Cluster`] configuration induces on a
/// population: per-(table, bucket) membership lists in CSR form, plus the
/// per-user keys the scan's cross-table dedup check reads. Exposed so
/// harnesses can report layout statistics ([`ClusterAssignment::stats`])
/// without re-running a build.
#[derive(Debug)]
pub struct ClusterAssignment {
    tables: usize,
    buckets: usize,
    cap: usize,
    /// `dedup[u * tables + t]`: user `u`'s bucket key in table `t`, with
    /// empty-profile and capped-cluster slots replaced by a per-user
    /// sentinel (high bit set, low bits the user id) that never equals
    /// another user's entry. The first-shared-table check then reduces to a
    /// word-equality scan of two contiguous rows — no size lookups, no
    /// branching on the cap.
    dedup: Vec<u32>,
    /// Bucket membership, grouped by cluster (ascending user ids within
    /// each), sliced by `clusters`.
    members: Vec<u32>,
    /// Every non-empty cluster as `(flat_bucket, start, len)` into
    /// `members`, ascending by flat bucket `t * buckets + b`. Sparse on
    /// purpose: wide blips make `tables * buckets` huge while only O(n ·
    /// tables) slots are ever occupied.
    clusters: Vec<(u32, u32, u32)>,
    /// Indices into `clusters` of the ones the scan visits: at least two
    /// members and within the cap.
    scannable: Vec<u32>,
}

/// Summary of a [`ClusterAssignment`], the source of the `"cluster"` extra
/// in JSON run reports.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterStats {
    /// Independent clusterings.
    pub tables: usize,
    /// Bucket slots per table (blip bits).
    pub buckets: usize,
    /// Non-empty clusters across all tables.
    pub clusters: usize,
    /// Clusters the scan visits (≥ 2 members, within the cap).
    pub scannable: usize,
    /// Clusters skipped for exceeding the cap.
    pub capped: usize,
    /// Largest cluster (capped ones included).
    pub max_size: usize,
    /// Mean size over scannable clusters.
    pub mean_size: f64,
    /// Σ `size·(size−1)/2` over scannable clusters: every in-cluster pair
    /// slot before cross-table dedup. Together with the build's
    /// `similarity_evals` (the *distinct* co-clustered pairs) this yields
    /// the dedup rate.
    pub pair_slots: u64,
    /// `size_hist[i]`: non-empty clusters with `floor(log2(size)) == i`.
    pub size_hist: Vec<u64>,
}

impl ClusterAssignment {
    /// Layout statistics (cluster counts, size histogram, pair slots).
    pub fn stats(&self) -> ClusterStats {
        let mut stats = ClusterStats {
            tables: self.tables,
            buckets: self.buckets,
            clusters: 0,
            scannable: 0,
            capped: 0,
            max_size: 0,
            mean_size: 0.0,
            pair_slots: 0,
            size_hist: Vec::new(),
        };
        let mut scanned_members = 0usize;
        for &(_, _, size) in &self.clusters {
            let size = size as usize;
            stats.clusters += 1;
            stats.max_size = stats.max_size.max(size);
            let log2 = usize::BITS as usize - 1 - size.leading_zeros() as usize;
            if stats.size_hist.len() <= log2 {
                stats.size_hist.resize(log2 + 1, 0);
            }
            stats.size_hist[log2] += 1;
            if self.cap != 0 && size > self.cap {
                stats.capped += 1;
            } else if size >= 2 {
                stats.scannable += 1;
                scanned_members += size;
                stats.pair_slots += (size as u64) * (size as u64 - 1) / 2;
            }
        }
        if stats.scannable > 0 {
            stats.mean_size = scanned_members as f64 / stats.scannable as f64;
        }
        stats
    }

    /// Whether the unordered pair `(u, v)` shares an uncapped cluster in a
    /// table before `t` — in which case the scan of table `t` must not
    /// visit it again. Deciding by the *first* shared table makes the
    /// visited-pair set a function of the assignment alone, independent of
    /// cluster scheduling.
    #[inline]
    fn seen_before_table(&self, u: u32, v: u32, t: usize) -> bool {
        let du = &self.dedup[u as usize * self.tables..][..t];
        let dv = &self.dedup[v as usize * self.tables..][..t];
        du.iter().zip(dv).any(|(a, b)| a == b)
    }
}

/// Writes a profile's cluster key for each table into its `slots` of the
/// key arena. The profile first folds into a blip, each item hashed once;
/// the blip's set bits are then collected once, so each table's key, the
/// set bit of least rank under that table's priority hash `seeds[t]`, costs
/// O(popcount) instead of a rescan of every word. An empty profile leaves
/// the slots untouched.
fn write_blip_keys(items: &[u32], blip_seed: u64, seeds: &[u64], slots: &mut [u64]) {
    let buckets = (BLIP_WORDS * 64) as u64;
    let mut blip = [0u64; BLIP_WORDS];
    for &item in items {
        let b = (splitmix64_mix(item as u64 ^ blip_seed) % buckets) as usize;
        blip[b >> 6] |= 1u64 << (b & 63);
    }
    let mut set_bits: Vec<u64> = Vec::new();
    for (w, &word) in blip.iter().enumerate() {
        let mut bits = word;
        while bits != 0 {
            set_bits.push((w * 64) as u64 + u64::from(bits.trailing_zeros()));
            bits &= bits - 1;
        }
    }
    for (slot, &ts) in slots.iter_mut().zip(seeds) {
        // splitmix64_mix is a bijection, so ranks are distinct and the
        // argmin is unique.
        if let Some(b) = set_bits
            .iter()
            .copied()
            .min_by_key(|&b| splitmix64_mix(b ^ ts))
        {
            *slot = b;
        }
    }
}

impl Cluster {
    /// Assigns every user to its per-table clusters: one blip key per user
    /// and table in the shared bucket index, then one walk over each
    /// table's sorted runs into CSR membership lists.
    ///
    /// # Panics
    /// Panics if `tables == 0`.
    pub fn assign(&self, profiles: &ProfileStore) -> ClusterAssignment {
        assert!(self.tables > 0, "need at least one table");
        let n = profiles.n_users();
        let tables = self.tables;
        let buckets = BLIP_WORDS * 64;
        let blip_seed = splitmix64_mix(self.seed ^ 0xB11F);
        let seeds: Vec<u64> = (0..tables).map(|t| table_seed(self.seed, t)).collect();
        let index = BucketIndex::in_ram(profiles, tables, self.threads, |items, slots| {
            write_blip_keys(items, blip_seed, &seeds, slots)
        });

        // Each table's runs come in ascending key order with ascending user
        // ids, so the clusters are laid out ascending by flat bucket
        // `t * buckets + key`. Sparse on purpose: wide blips make
        // `tables * buckets` far larger than the O(n · tables) occupied
        // slots.
        let cap = self.max_cluster;
        // Sized for every user; the pages empty profiles would fill are
        // never touched.
        let mut members = Vec::with_capacity(n * tables);
        let mut clusters: Vec<(u32, u32, u32)> = Vec::new();
        let mut scannable: Vec<u32> = Vec::new();
        // Dedup view of the keys: a slot that can never host a shared scan
        // (empty profile, capped cluster) becomes a per-user sentinel, so
        // the hot first-shared-table check is a branch-free equality scan.
        // Real keys are bucket indices (< 2^31), sentinels have the high
        // bit set — the two ranges cannot collide.
        let mut dedup: Vec<u32> = (0..n)
            .flat_map(|u| std::iter::repeat_n(0x8000_0000 | u as u32, tables))
            .collect();
        for t in 0..tables {
            for (key, users) in index.runs(t) {
                let (start, len) = (members.len() as u32, users.len() as u32);
                members.extend(users.iter().map(|&u| u as u32));
                if cap == 0 || users.len() <= cap {
                    for &u in users {
                        dedup[u as usize * tables + t] = key as u32;
                    }
                    if len >= 2 {
                        scannable.push(clusters.len() as u32);
                    }
                }
                clusters.push(((t * buckets) as u32 + key as u32, start, len));
            }
        }

        ClusterAssignment {
            tables,
            buckets,
            cap,
            dedup,
            members,
            clusters,
            scannable,
        }
    }

    /// Builds an approximate KNN graph.
    ///
    /// `profiles` supplies the item sets the blips are derived from; `sim`
    /// scores the in-cluster candidates (explicit provider = native run,
    /// SHF provider = GoldFinger run).
    ///
    /// # Panics
    /// Panics if `k == 0`, `tables == 0`, or the provider's population
    /// differs from the profile store's.
    pub fn build(&self, profiles: &ProfileStore, sim: &dyn Similarity, k: usize) -> KnnResult {
        self.build_observed(profiles, sim, k, &NoopObserver)
    }

    /// Builds the graph, reporting progress to `obs`: one span for blip and
    /// cluster assembly ([`Phase::CandidateGeneration`]), one for the
    /// per-cluster scans ([`Phase::Join`]), one for the deterministic
    /// reduction ([`Phase::Merge`]), and a single [`IterationEvent`](goldfinger_obs::IterationEvent) with
    /// the final counters. Observation never changes the output; with the
    /// default [`NoopObserver`] the hooks are skipped.
    ///
    /// # Panics
    /// Same contract as [`Cluster::build`].
    pub fn build_observed(
        &self,
        profiles: &ProfileStore,
        sim: &dyn Similarity,
        k: usize,
        obs: &dyn BuildObserver,
    ) -> KnnResult {
        assert!(k > 0, "k must be positive");
        assert_eq!(
            profiles.n_users(),
            sim.n_users(),
            "profile store and similarity provider disagree on population"
        );
        let n = profiles.n_users();
        let start = Instant::now();

        let assigning = PhaseTimer::start(obs, Phase::CandidateGeneration);
        let assignment = self.assign(profiles);
        drop(assigning);

        let asg = &assignment;
        fold_scan(
            n,
            k,
            self.threads,
            asg.scannable.len(),
            obs,
            start,
            &|p, c| {
                let (fb, start, len) = asg.clusters[asg.scannable[c] as usize];
                let t = fb as usize / asg.buckets;
                let m = &asg.members[start as usize..(start + len) as usize];
                // Every surviving pair scores straight into the worker's
                // global partials. The visited-pair set is fixed by the
                // assignment alone (dedup is a pure key lookup) and the
                // top-k kept set is insertion-order independent, so this is
                // bit-identical for any schedule. Clusters are usually
                // smaller than k, so cluster-local heaps would accept every
                // offer and then replay them all into the global partials —
                // twice the heap work for nothing.
                for i in 0..m.len() {
                    let u = m[i];
                    p.ids.clear();
                    for &v in &m[i + 1..] {
                        if !asg.seen_before_table(u, v, t) {
                            p.ids.push(v);
                        }
                    }
                    if p.ids.len() <= 2 {
                        // Sparse populations leave most rows with one or
                        // two survivors; the per-pair entry point computes
                        // bit-identical values without the gather-batch
                        // setup.
                        for j in 0..p.ids.len() {
                            let v = p.ids[j];
                            p.score_pair(sim, u, v);
                        }
                    } else {
                        p.score_row(sim, u);
                    }
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

    /// Naive reference for the visited-pair set: distinct unordered pairs
    /// sharing at least one uncapped cluster.
    fn distinct_coclustered_pairs(c: &Cluster, profiles: &ProfileStore) -> u64 {
        let asg = c.assign(profiles);
        let n = profiles.n_users();
        let mut count = 0u64;
        for u in 0..n as u32 {
            for v in (u + 1)..n as u32 {
                if asg.seen_before_table(u, v, asg.tables) {
                    count += 1;
                }
            }
        }
        count
    }

    #[test]
    fn same_cluster_users_find_each_other() {
        let profiles = clustered();
        let sim = ExplicitJaccard::new(&profiles);
        let result = Cluster::default().build(&profiles, &sim, 5);
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
        let result = Cluster::default().build(&profiles, &sim, 2);
        assert_eq!(result.graph.n_users(), 3);
        assert!(result.graph.neighbors(2).is_empty());
        assert_eq!(result.graph.neighbors(0)[0].user, 1);
    }

    #[test]
    fn pair_accounting_matches_the_assignment() {
        let profiles = clustered();
        let sim = ExplicitJaccard::new(&profiles);
        for cap in [0usize, 8] {
            let c = Cluster {
                max_cluster: cap,
                ..Cluster::default()
            };
            let r = c.build(&profiles, &sim, 5);
            let distinct = distinct_coclustered_pairs(&c, &profiles);
            assert_eq!(
                r.stats.similarity_evals, distinct,
                "cap={cap}: evals must equal the distinct co-clustered pairs"
            );
            assert_eq!(r.stats.pruned_evals, 0, "cap={cap}: nothing is pruned");
            let stats = c.assign(&profiles).stats();
            assert!(
                distinct <= stats.pair_slots,
                "cap={cap}: dedup can only shrink the pair count"
            );
        }
    }

    #[test]
    fn parallel_scan_is_bit_identical_to_serial() {
        let profiles = clustered();
        let sim = ExplicitJaccard::new(&profiles);
        let serial = Cluster::default().build(&profiles, &sim, 5);
        for threads in [2usize, 3, 8] {
            let par = Cluster {
                threads,
                ..Cluster::default()
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
    fn capped_clusters_are_skipped_entirely() {
        // Twenty clones share every cluster in every table; a cap below the
        // clone count leaves them neighbourless while the pair below stays.
        let mut lists: Vec<Vec<u32>> = (0..20).map(|_| (0..30).collect()).collect();
        lists.push((500..540).collect());
        lists.push((500..540).collect());
        let profiles = ProfileStore::from_item_lists(lists);
        let sim = ExplicitJaccard::new(&profiles);
        let capped = Cluster {
            max_cluster: 10,
            ..Cluster::default()
        }
        .build(&profiles, &sim, 3);
        for u in 0..20u32 {
            assert!(
                capped.graph.neighbors(u).is_empty(),
                "user {u} sits only in over-cap clusters"
            );
        }
        assert_eq!(capped.graph.neighbors(20)[0].user, 21);
        let stats = Cluster {
            max_cluster: 10,
            ..Cluster::default()
        }
        .assign(&profiles)
        .stats();
        assert!(stats.capped > 0, "cap must have fired: {stats:?}");
    }

    #[test]
    fn layout_stats_add_up() {
        let profiles = clustered();
        let c = Cluster::default();
        let stats = c.assign(&profiles).stats();
        assert_eq!(stats.tables, Cluster::default().tables);
        assert_eq!(stats.buckets, BLIP_WORDS * 64);
        assert!(stats.clusters > 0);
        assert_eq!(stats.size_hist.iter().sum::<u64>(), stats.clusters as u64);
        assert!(stats.max_size <= 20);
        assert!(stats.pair_slots > 0);
        assert_eq!(stats.capped, 0);
    }

    #[test]
    fn more_tables_find_no_fewer_pairs() {
        let profiles = clustered();
        let small = Cluster {
            tables: 1,
            ..Cluster::default()
        };
        let large = Cluster {
            tables: 12,
            ..Cluster::default()
        };
        assert!(
            distinct_coclustered_pairs(&large, &profiles)
                >= distinct_coclustered_pairs(&small, &profiles)
        );
    }

    #[test]
    #[should_panic(expected = "disagree")]
    fn population_mismatch_panics() {
        let profiles = clustered();
        let other = ProfileStore::from_item_lists(vec![vec![1]]);
        let sim = ExplicitJaccard::new(&other);
        let _ = Cluster::default().build(&profiles, &sim, 5);
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn zero_k_panics() {
        let profiles = clustered();
        let sim = ExplicitJaccard::new(&profiles);
        let _ = Cluster::default().build(&profiles, &sim, 0);
    }
}
