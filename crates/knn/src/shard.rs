//! User-id-partitioned shards of a dynamic KNN graph: the local repair
//! engine behind online serving.
//!
//! Rebuilding the whole graph for one changed profile is wasteful. A
//! repair instead re-scores the changed user `u` against a Hyrec-style
//! candidate set — its neighbours, their neighbours, its reverse
//! neighbours, plus optional random probes — and offers `u` back to each
//! candidate's list. Reverse neighbours come from a maintained inverted
//! index, so one repair costs `O(k² + |rev(u)|)` evaluations, independent
//! of the population size.
//!
//! The serving layer ([`crate::serve`]) splits the population into
//! contiguous user-id ranges. Each [`Shard`] owns its range's slice of the
//! fingerprint arena (cut with `ShfStore::slice_rows`, so profile updates
//! write only the owner's rows), the range's neighbour lists, the
//! reverse-adjacency index for the owned users, and their repair counters.
//! The [`ShardSet`] splits every repair into a **read-only planning half**
//! ([`ShardSet::plan_repair`], safe to fan out across threads over a
//! frozen set) and a **serial application half**
//! ([`ShardSet::apply_repair`], cheap `O(k)` list surgery), which is what
//! makes batched drains deterministic for any thread count. A one-shard
//! set is the plain, unpartitioned graph.
//!
//! The application half tracks which users' lists it mutated
//! ([`ShardSet::take_dirty`]), so the serving layer republishes only
//! those. A symmetric offer first asks the reverse index whether the
//! offered user is already a member and, if not, compares it with the
//! target's floor (its full list's worst entry, which the list caches): a
//! candidate that does not outrank the floor is rejected without scanning
//! the list. Because the reverse index and the floors are exact after
//! every operation, this filter makes exactly the decisions a scan would.

use crate::graph::KnnGraph;
use crate::neighborlist::{outranks, NeighborList};
use goldfinger_core::hash::{splitmix64_mix, ItemHasher};
use goldfinger_core::kernels;
use goldfinger_core::shf::{jaccard_from_counts, ShfStore};
use goldfinger_core::topk::{Scored, TopK};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Mixes a per-user repair counter into the probe seed.
///
/// Seeding with `seed ^ u` alone makes every repair of the same user draw
/// the *same* probes, so re-repairing can never explore new candidates;
/// folding a monotonic counter through a splitmix64-style finalizer gives
/// each `(user, repair)` pair an independent stream while staying
/// deterministic for replay.
pub fn probe_seed(seed: u64, u: u32, counter: u64) -> u64 {
    splitmix64_mix(
        seed ^ (u as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ counter.wrapping_mul(0xBF58_476D_1CE4_E5B9),
    )
}

/// Inserts `v` into a sorted id vector (no-op when present).
fn sorted_insert(ids: &mut Vec<u32>, v: u32) {
    if let Err(i) = ids.binary_search(&v) {
        ids.insert(i, v);
    }
}

/// Removes `v` from a sorted id vector (no-op when absent).
fn sorted_remove(ids: &mut Vec<u32>, v: u32) {
    if let Ok(i) = ids.binary_search(&v) {
        ids.remove(i);
    }
}

/// One contiguous user-id range of the service: rows `lo .. lo + len` of
/// the global population. Neighbour and reverse-neighbour ids stored
/// inside a shard are **global**; only the vector indices are local.
#[derive(Debug, Clone)]
pub struct Shard {
    lo: u32,
    store: ShfStore,
    lists: Vec<NeighborList>,
    /// `rev[local]` = sorted global ids of users whose list contains
    /// `lo + local` (those users may live on any shard).
    rev: Vec<Vec<u32>>,
    /// Per-owned-user repair counters, mixed into probe seeds.
    repairs: Vec<u64>,
}

impl Shard {
    /// First global user id owned by this shard.
    pub fn lo(&self) -> u32 {
        self.lo
    }

    /// Number of users owned by this shard.
    pub fn len(&self) -> usize {
        self.lists.len()
    }

    /// True when the shard owns no users (never produced by
    /// [`ShardSet::partition`], but the type allows it).
    pub fn is_empty(&self) -> bool {
        self.lists.is_empty()
    }

    /// The owned slice of the fingerprint arena.
    pub fn store(&self) -> &ShfStore {
        &self.store
    }

    /// Reverse neighbours (global ids, sorted) of local user `local`.
    pub fn reverse(&self, local: usize) -> &[u32] {
        &self.rev[local]
    }

    /// Applies a whole drain batch of `(local, items)` deltas to the
    /// owned arena slice in batch order (delta fingerprinting:
    /// `ShfStore::apply_deltas`) and returns the total bits newly set.
    /// This is the per-shard write path of profile updates: only the
    /// owner's arena slice is touched.
    pub fn apply_updates<H: ItemHasher + Sync>(
        &mut self,
        deltas: &[(u32, Vec<u32>)],
        hasher: &H,
    ) -> u32 {
        self.store.apply_deltas(deltas, hasher)
    }

    /// Returns the repair counter for `local` and advances it — one call
    /// per scheduled repair, so consecutive repairs of the same user draw
    /// distinct probe streams (see [`probe_seed`]).
    pub fn bump_repair(&mut self, local: usize) -> u64 {
        let c = self.repairs[local];
        self.repairs[local] += 1;
        c
    }
}

/// The planned outcome of repairing one user against a frozen
/// [`ShardSet`]: the user's rebuilt neighbour list plus every scored
/// candidate (for the symmetric offers). Produced by the parallel
/// read-only phase, consumed by the serial apply phase.
#[derive(Debug, Clone)]
pub struct Repair {
    /// The repaired user (global id).
    pub user: u32,
    /// Similarity evaluations this plan spent.
    pub evals: u64,
    fresh: TopK,
    scored: Vec<(u32, f64)>,
}

/// A full population partitioned into contiguous [`Shard`]s, with every
/// repair split into a parallel-safe planning half and a serial applying
/// half.
#[derive(Debug, Clone)]
pub struct ShardSet {
    k: usize,
    n: usize,
    /// Users per shard (`ceil(n / shards)`); `owner(u) = u / per`.
    per: usize,
    shards: Vec<Shard>,
    /// `dirty[u]`: `u`'s list changed since [`ShardSet::take_dirty`].
    dirty: Vec<bool>,
    /// The users flagged in `dirty`, in marking order — the snapshot
    /// rebuild set.
    changed: Vec<u32>,
}

impl ShardSet {
    /// Partitions a built graph and its fingerprint store into (at most)
    /// `shards` contiguous user-id ranges.
    ///
    /// # Panics
    /// Panics when the store and graph disagree on the population or the
    /// population is empty.
    pub fn partition(graph: &KnnGraph, store: &ShfStore, shards: usize) -> Self {
        let n = graph.n_users();
        assert!(n > 0, "cannot partition an empty population");
        assert_eq!(store.len(), n, "store/graph population mismatch");
        let per = n.div_ceil(shards.clamp(1, n));
        let n_shards = n.div_ceil(per);
        let mut out: Vec<Shard> = (0..n_shards)
            .map(|s| {
                let lo = s * per;
                let hi = ((s + 1) * per).min(n);
                let lists: Vec<NeighborList> = (lo..hi)
                    .map(|u| {
                        let mut list = NeighborList::new(graph.k());
                        for sc in graph.neighbors(u as u32) {
                            list.insert(sc.user, sc.sim);
                        }
                        list
                    })
                    .collect();
                Shard {
                    lo: lo as u32,
                    store: store.slice_rows(lo, hi),
                    lists,
                    rev: vec![Vec::new(); hi - lo],
                    repairs: vec![0; hi - lo],
                }
            })
            .collect();
        // Second pass: the reverse index. `u` lists `v` → `v`'s owner
        // records `u`, wherever the two live.
        for u in 0..n as u32 {
            for sc in graph.neighbors(u) {
                let (s, l) = (sc.user as usize / per, sc.user as usize % per);
                out[s].rev[l].push(u);
            }
        }
        for shard in &mut out {
            for ids in &mut shard.rev {
                ids.sort_unstable();
            }
        }
        ShardSet {
            k: graph.k(),
            n,
            per,
            shards: out,
            dirty: vec![false; n],
            changed: Vec::new(),
        }
    }

    /// Total number of users.
    pub fn n_users(&self) -> usize {
        self.n
    }

    /// Neighbourhood size.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// Shard index owning global user `u`.
    pub fn owner(&self, u: u32) -> usize {
        u as usize / self.per
    }

    /// `u`'s index inside its owner shard.
    pub fn local(&self, u: u32) -> usize {
        u as usize % self.per
    }

    /// The shards, immutable (snapshot building, planning).
    pub fn shards(&self) -> &[Shard] {
        &self.shards
    }

    /// The shards, mutable — for the parallel per-shard update phase
    /// (each worker writes only its own shards' arena slices).
    pub fn shards_mut(&mut self) -> &mut [Shard] {
        &mut self.shards
    }

    /// Returns the users whose lists changed since the last call, in
    /// ascending order, and resets their flags — `O(changed)`, not
    /// `O(n)`. [`ShardSet::apply_repair`] marks precisely the lists it
    /// mutated, so the serving layer republishes only those.
    pub fn take_dirty(&mut self) -> Vec<u32> {
        let mut out = std::mem::take(&mut self.changed);
        for &u in &out {
            self.dirty[u as usize] = false;
        }
        out.sort_unstable();
        out
    }

    fn mark(&mut self, u: u32) {
        if !std::mem::replace(&mut self.dirty[u as usize], true) {
            self.changed.push(u);
        }
    }

    /// Fingerprint similarity of two global users, computed straight from
    /// the owning shards' arena slices (cross-shard reads are plain
    /// immutable loads).
    pub fn similarity(&self, u: u32, v: u32) -> f64 {
        let (a, ca) = self.fp(u);
        let (b, cb) = self.fp(v);
        jaccard_from_counts(kernels::and_count(a, b), ca, cb)
    }

    fn fp(&self, u: u32) -> (&[u64], u32) {
        let shard = &self.shards[self.owner(u)];
        let l = self.local(u) as u32;
        (shard.store.fingerprint_words(l), shard.store.cardinality(l))
    }

    /// Current neighbours of `u`, sorted by decreasing similarity.
    pub fn neighbors(&self, u: u32) -> Vec<Scored> {
        self.list(u).to_sorted()
    }

    /// `u`'s neighbour list, unsorted.
    pub(crate) fn list(&self, u: u32) -> &NeighborList {
        &self.shards[self.owner(u)].lists[self.local(u)]
    }

    /// Hyrec-style candidate set of `u`: neighbours, their neighbours,
    /// and the maintained reverse neighbours — `O(k² + |rev(u)|)`,
    /// independent of both the population and the shard count.
    pub fn candidate_set(&self, u: u32) -> Vec<u32> {
        let mut out: Vec<u32> = Vec::new();
        for &v in self.list(u).users() {
            out.push(v);
            out.extend_from_slice(self.list(v).users());
        }
        out.extend_from_slice(&self.shards[self.owner(u)].rev[self.local(u)]);
        out.sort_unstable();
        out.dedup();
        out.retain(|&v| v != u);
        out
    }

    /// Read-only planning half of a repair: scores `u` against its
    /// candidate set plus `probes` random users (stream selected by
    /// `(seed, u, counter)`, see [`probe_seed`]) and returns the rebuilt
    /// list plus all scored pairs. Takes `&self` — many plans can run
    /// concurrently over a frozen set, and a plan depends only on that
    /// frozen state, never on sibling plans. The rebuilt list is the
    /// exact top-k of the candidates under the `(sim desc, id asc)` total
    /// order, so it does not depend on the order candidates are scored in.
    pub fn plan_repair(&self, u: u32, counter: u64, probes: usize, seed: u64) -> Repair {
        let mut candidates = self.candidate_set(u);
        if probes > 0 && self.n > 1 {
            let mut rng = StdRng::seed_from_u64(probe_seed(seed, u, counter));
            for _ in 0..probes {
                let v = rng.gen_range(0..self.n) as u32;
                if v != u {
                    candidates.push(v);
                }
            }
            candidates.sort_unstable();
            candidates.dedup();
        }
        let (a, ca) = self.fp(u);
        let mut top = TopK::new(self.k);
        let mut scored = Vec::with_capacity(candidates.len());
        for &v in &candidates {
            let (b, cb) = self.fp(v);
            let s = jaccard_from_counts(kernels::and_count(a, b), ca, cb);
            top.offer(s, v);
            scored.push((v, s));
        }
        Repair {
            user: u,
            evals: scored.len() as u64,
            fresh: top,
            scored,
        }
    }

    /// Serial application half: installs a planned repair — symmetric
    /// offers first (a member's changed similarity is updated **in
    /// place**, a non-member must beat the worst), then the rebuilt list,
    /// with the reverse index maintained through every membership change.
    pub fn apply_repair(&mut self, r: &Repair) {
        for &(v, s) in &r.scored {
            self.offer_entry(v, r.user, s);
        }
        self.replace_list(r.user, &r.fresh);
    }

    /// The symmetric half of a repair: `u`'s similarity to `v` changed to
    /// `s`. If `u` already sits in `v`'s list its stored similarity is
    /// updated **in place** — a downgrade must not be laundered into a
    /// remove-then-insert, which would always succeed (the removal frees a
    /// slot) and re-admit `u` no matter how bad the new similarity is. If
    /// `u` is absent it must outrank `v`'s floor to enter.
    ///
    /// Membership comes from the reverse index (`u` is in `v`'s list
    /// exactly when `v` is in `rev[u]`), so a rejected non-member costs one
    /// binary search and one floor comparison; every other offer is one
    /// slot write into `v`'s list plus a rescan for its new worst entry
    /// ([`NeighborList::upsert`]).
    fn offer_entry(&mut self, v: u32, u: u32, s: f64) {
        let member = self.shards[self.owner(u)].rev[self.local(u)]
            .binary_search(&v)
            .is_ok();
        let (sv, lv) = (self.owner(v), self.local(v));
        let list = &mut self.shards[sv].lists[lv];
        let evict = match list.floor() {
            _ if member => None,
            Some(f) if !outranks(s, u, f.sim, f.user) => return,
            floor => floor.map(|f| f.user),
        };
        list.upsert(u, s, evict);
        self.mark(v);
        if !member {
            self.rev_insert(u, v);
            if let Some(evicted) = evict {
                self.rev_remove(evicted, v);
            }
        }
    }

    /// Replaces `u`'s whole list in its own buffer, routing every
    /// reverse-index delta to the affected user's owner shard.
    ///
    /// Refilling in place, rather than installing a list the plan
    /// allocated, keeps the long-lived lists in their own buffers: lists
    /// allocated amid the plans' short-lived buffers fragment the heap and
    /// raise resident memory.
    fn replace_list(&mut self, u: u32, fresh: &TopK) {
        let (su, lu) = (self.owner(u), self.local(u));
        let old = self.list(u).users().to_vec();
        for &w in &old {
            if !fresh.users().any(|x| x == w) {
                self.rev_remove(w, u);
            }
        }
        for w in fresh.users() {
            if !old.contains(&w) {
                self.rev_insert(w, u);
            }
        }
        self.shards[su].lists[lu].refill(fresh.entries());
        self.mark(u);
    }

    /// Records "`w` lists `u`" on `u`'s owner.
    fn rev_insert(&mut self, u: u32, w: u32) {
        let (s, l) = (self.owner(u), self.local(u));
        sorted_insert(&mut self.shards[s].rev[l], w);
    }

    /// Drops "`w` lists `u`" from `u`'s owner.
    fn rev_remove(&mut self, u: u32, w: u32) {
        let (s, l) = (self.owner(u), self.local(u));
        sorted_remove(&mut self.shards[s].rev[l], w);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::BruteForce;
    use goldfinger_core::hash::DynHasher;
    use goldfinger_core::profile::ProfileStore;
    use goldfinger_core::shf::ShfParams;
    use goldfinger_core::similarity::ShfJaccard;

    fn fixture(clusters: u32) -> (KnnGraph, ShfStore, ShfParams<DynHasher>) {
        let mut lists = Vec::new();
        for c in 0..clusters {
            for u in 0..6u32 {
                let base = c * 1000;
                let mut items: Vec<u32> = (base..base + 15).collect();
                items.push(base + 100 + u);
                lists.push(items);
            }
        }
        let params = ShfParams::new(1024, DynHasher::default());
        let store = params.fingerprint_store(&ProfileStore::from_item_lists(lists));
        let graph = BruteForce::default()
            .build(&ShfJaccard::new(&store), 3)
            .graph;
        (graph, store, params)
    }

    fn rev_invariant(set: &ShardSet) {
        let mut expect = vec![Vec::new(); set.n_users()];
        for u in 0..set.n_users() as u32 {
            for &v in set.list(u).users() {
                expect[v as usize].push(u);
            }
        }
        for ids in &mut expect {
            ids.sort_unstable();
        }
        for u in 0..set.n_users() as u32 {
            let shard = &set.shards()[set.owner(u)];
            assert_eq!(
                shard.reverse(set.local(u)),
                &expect[u as usize][..],
                "reverse index out of sync for user {u}"
            );
        }
    }

    #[test]
    fn partition_covers_the_population_and_preserves_the_graph() {
        let (graph, store, _) = fixture(3); // 18 users
        for shards in [1usize, 3, 4, 18, 99] {
            let set = ShardSet::partition(&graph, &store, shards);
            assert!(set.n_shards() <= 18);
            let total: usize = set.shards().iter().map(Shard::len).sum();
            assert_eq!(total, 18);
            for u in 0..18u32 {
                let s = &set.shards()[set.owner(u)];
                assert!(!s.is_empty());
                assert_eq!(
                    (u - s.lo()) as usize,
                    set.local(u),
                    "owner/local disagree for u={u}, shards={shards}"
                );
                assert_eq!(set.neighbors(u), graph.neighbors(u).to_vec());
                // The owned arena slice carries the user's exact row.
                assert_eq!(
                    s.store().fingerprint_words(set.local(u) as u32),
                    store.fingerprint_words(u)
                );
            }
            rev_invariant(&set);
        }
    }

    #[test]
    fn cross_shard_similarity_matches_the_unsharded_store() {
        let (graph, store, _) = fixture(2);
        let set = ShardSet::partition(&graph, &store, 4);
        let sim = ShfJaccard::new(&store);
        use goldfinger_core::similarity::Similarity;
        for u in 0..12u32 {
            for v in 0..12u32 {
                assert_eq!(set.similarity(u, v), sim.similarity(u, v));
            }
        }
    }

    /// One scheduled repair, run the way a serve drain runs it: bump the
    /// user's counter, plan against the frozen set, apply.
    fn repair(set: &mut ShardSet, u: u32, probes: usize, seed: u64) -> u64 {
        let (s, l) = (set.owner(u), set.local(u));
        let counter = set.shards_mut()[s].bump_repair(l);
        let plan = set.plan_repair(u, counter, probes, seed);
        set.apply_repair(&plan);
        plan.evals
    }

    /// Folds `items` into `u`'s fingerprint on its owner shard.
    fn update(set: &mut ShardSet, params: &ShfParams<DynHasher>, u: u32, items: &[u32]) -> u32 {
        let (s, l) = (set.owner(u), set.local(u));
        set.shards_mut()[s].apply_updates(&[(l as u32, items.to_vec())], params.hasher())
    }

    #[test]
    fn one_shard_and_three_shard_repairs_agree() {
        // The one-shard set is the plain monolithic graph; the same update,
        // plan and apply sequence over three shards must match it in
        // every neighbour list and every eval count.
        let (graph, store, params) = fixture(2);
        let mut mono = ShardSet::partition(&graph, &store, 1);
        let mut sharded = ShardSet::partition(&graph, &store, 3);
        assert_eq!((mono.n_shards(), sharded.n_shards()), (1, 3));
        let cluster_b: Vec<u32> = (1000..1015).collect();
        update(&mut mono, &params, 0, &cluster_b);
        update(&mut sharded, &params, 0, &cluster_b);
        for u in (0..12u32).chain([0, 0]) {
            let evals = repair(&mut mono, u, 4, 42);
            assert!(evals > 0);
            assert_eq!(repair(&mut sharded, u, 4, 42), evals, "repair of {u}");
            for v in 0..12u32 {
                assert_eq!(
                    sharded.neighbors(v),
                    mono.neighbors(v),
                    "user {v} diverged after repairing {u}"
                );
            }
        }
        rev_invariant(&mono);
        rev_invariant(&sharded);
    }

    #[test]
    fn reverse_index_tracks_probed_repairs_of_every_user() {
        let (graph, store, _) = fixture(2);
        let mut set = ShardSet::partition(&graph, &store, 3);
        for u in 0..set.n_users() as u32 {
            repair(&mut set, u, 3, 99);
            // Reverse neighbours stay exactly the users listing u.
            rev_invariant(&set);
        }
    }

    #[test]
    fn repair_cost_is_independent_of_population_size() {
        // Regression for the O(n·k) reverse-neighbour scan: the same user
        // in the same cluster structure must cost the *same* number of
        // evaluations whether the population holds 2 clusters or 20 —
        // repairs read the maintained reverse index, never all n lists.
        let mut costs = Vec::new();
        for clusters in [2u32, 20] {
            let (graph, store, _) = fixture(clusters);
            // Sanity: the exact graph keeps user 0 inside its own cluster,
            // so the candidate set cannot grow with the cluster count.
            assert!(graph.neighbors(0).iter().all(|s| s.user < 6));
            let mut set = ShardSet::partition(&graph, &store, 3);
            costs.push(repair(&mut set, 0, 0, 0));
            rev_invariant(&set);
        }
        assert_eq!(
            costs[0], costs[1],
            "repair cost changed with population size: {costs:?}"
        );
        assert!(costs[0] <= 3 + 9 + 6);
    }

    #[test]
    fn rescored_sims_follow_a_fingerprint_delta() {
        let (graph, store, params) = fixture(2);
        let mut set = ShardSet::partition(&graph, &store, 3);
        // Fold cluster B's items into user 0's fingerprint incrementally.
        assert!(update(&mut set, &params, 0, &(1000..1015).collect::<Vec<_>>()) > 0);
        repair(&mut set, 0, 0, 0);
        // The candidate set only covers the old neighbourhood, but every
        // stored similarity involving user 0 — on its own list and on the
        // candidates' lists — must now match the updated fingerprint.
        assert!(!set.neighbors(0).is_empty());
        for s in set.neighbors(0) {
            assert_eq!(s.sim, set.similarity(0, s.user));
        }
        for v in 1..12u32 {
            for s in set.neighbors(v).iter().filter(|s| s.user == 0) {
                assert_eq!(s.sim, set.similarity(v, 0), "user {v}'s entry for 0");
            }
        }
    }

    #[test]
    fn probe_seed_changes_with_the_counter() {
        // Regression for `seed ^ u` probe seeding: the counter mixed into
        // the seed must give each repair of the same user a fresh stream.
        for u in [0u32, 3, 17] {
            let a = probe_seed(42, u, 0);
            let b = probe_seed(42, u, 1);
            assert_ne!(a, b, "user {u}: counter did not change the seed");
        }
        // End to end: two plans of one user over the same frozen set share
        // the candidate set, so their scored users differ only through
        // the probes the counter selects.
        let (graph, store, _) = fixture(20);
        let set = ShardSet::partition(&graph, &store, 3);
        let scored = |counter| {
            let mut ids: Vec<u32> = set
                .plan_repair(0, counter, 4, 7)
                .scored
                .iter()
                .map(|&(v, _)| v)
                .collect();
            ids.sort_unstable();
            ids
        };
        assert_ne!(
            scored(0),
            scored(1),
            "two consecutive probe repairs explored the same probe set"
        );
    }

    #[test]
    fn downgraded_member_is_updated_in_place_then_evicted() {
        // Regression for the symmetric-offer downgrade: when a member's
        // similarity collapses, the entry must be updated in place (and
        // become evictable), not removed-and-reinserted as if it were a
        // winning fresh offer.
        let (graph, store, params) = fixture(2);
        let mut set = ShardSet::partition(&graph, &store, 3);
        let lists = |set: &ShardSet, v: u32, w: u32| set.neighbors(v).iter().any(|s| s.user == w);
        let victim = (1..6u32)
            .find(|&v| lists(&set, v, 0))
            .expect("a cluster-A user lists user 0");

        // User 0's fingerprint floods with alien items: sim(0, A) ≈ 0.
        update(&mut set, &params, 0, &(50_000..52_000).collect::<Vec<_>>());
        repair(&mut set, 0, 0, 0);
        rev_invariant(&set);
        // In place: still a member (nothing displaced it yet), but at the
        // collapsed similarity...
        let entry = set
            .neighbors(victim)
            .into_iter()
            .find(|s| s.user == 0)
            .expect("downgraded entry should remain until displaced");
        assert!(entry.sim < 0.05, "stale similarity kept: {}", entry.sim);

        // ...so the next fresh candidate that beats it must evict it: a
        // cluster mate the victim does not list yet scores far higher.
        let fresh = (1..6u32)
            .find(|&w| w != victim && !lists(&set, victim, w))
            .expect("the victim has an unlisted cluster mate");
        set.offer_entry(victim, fresh, set.similarity(victim, fresh));
        rev_invariant(&set);
        let after = set.neighbors(victim);
        assert!(
            after.iter().any(|s| s.user == fresh),
            "victim did not adopt the better fresh candidate: {after:?}"
        );
        assert!(
            after.iter().all(|s| s.user != 0),
            "full list retained the downgraded user over a better candidate: {after:?}"
        );
    }

    #[test]
    fn apply_updates_tracks_dirty_users_and_fingerprints() {
        let (graph, store, params) = fixture(2);
        let mut set = ShardSet::partition(&graph, &store, 3);
        assert!(set.take_dirty().is_empty(), "clean at rest");
        // Fold new items into user 9's fingerprint on its owner shard.
        let (s, l) = (set.owner(9), set.local(9));
        let before = set.similarity(9, 0);
        let added =
            set.shards_mut()[s].apply_updates(&[(l as u32, (0..15).collect())], params.hasher());
        assert!(added > 0);
        assert!(
            set.similarity(9, 0) > before,
            "update did not move similarity"
        );
        // Updates alone don't dirty lists; a repair does, and marks
        // exactly the lists whose stored entries changed.
        assert!(set.take_dirty().is_empty());
        let before: Vec<Vec<Scored>> = (0..12).map(|u| set.neighbors(u)).collect();
        let counter = set.shards_mut()[s].bump_repair(l);
        let plan = set.plan_repair(9, counter, 2, 7);
        set.apply_repair(&plan);
        let dirty = set.take_dirty();
        assert!(
            dirty.contains(&9),
            "the repaired user's list must be rebuilt"
        );
        assert!(dirty.windows(2).all(|w| w[0] < w[1]), "sorted, distinct");
        for u in 0..12u32 {
            if set.neighbors(u) != before[u as usize] {
                assert!(dirty.contains(&u), "user {u} changed but is not dirty");
            }
        }
        assert!(set.take_dirty().is_empty(), "taking resets the flags");
        rev_invariant(&set);
    }
}
