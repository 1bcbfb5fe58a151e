//! The local repair engine behind online serving: one dynamic KNN graph
//! over one fingerprint arena.
//!
//! Rebuilding the whole graph for one changed profile is wasteful. A
//! repair instead re-scores the changed user `u` against a Hyrec-style
//! candidate set — its neighbours, their neighbours, its reverse
//! neighbours, plus optional random probes — and offers `u` back to each
//! candidate's list. Reverse neighbours come from a maintained inverted
//! index, so one repair costs `O(k² + |rev(u)|)` evaluations, independent
//! of the population size.
//!
//! A [`RepairGraph`] holds the serving layer's ([`crate::serve`]) own copy
//! of the fingerprint arena, which profile updates write through
//! `ShfStore::apply_deltas`, plus one vector each of neighbour lists,
//! reverse-adjacency lists and per-user repair counters. Repairs score
//! through [`ShfJaccard`], the provider every builder runs on, so a plan
//! gathers its candidates' rows with the store's batched kernel. Every
//! repair is split into a **read-only planning half**
//! ([`RepairGraph::plan_repair`], safe to fan out across threads over a
//! frozen graph) and a **serial application half**
//! ([`RepairGraph::apply_repair`], cheap `O(k)` list surgery), which is
//! what makes batched drains deterministic for any thread count.
//!
//! The application half tracks which users' lists it mutated
//! ([`RepairGraph::take_dirty`]), so the serving layer republishes only
//! those. A symmetric offer first asks the reverse index whether the
//! offered user is already a member and, if not, compares it with the
//! target's floor (its full list's worst entry, which the list caches): a
//! candidate that does not outrank the floor is rejected without scanning
//! the list. Because the reverse index and the floors are exact after
//! every operation, this filter makes exactly the decisions a scan would.

use crate::graph::KnnGraph;
use crate::neighborlist::{outranks, NeighborList};
use goldfinger_core::hash::splitmix64_mix;
use goldfinger_core::shf::ShfStore;
use goldfinger_core::similarity::{ShfJaccard, Similarity};
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

/// The planned outcome of repairing one user against a frozen
/// [`RepairGraph`]: the user's rebuilt neighbour list plus every scored
/// candidate (for the symmetric offers). Produced by the parallel
/// read-only phase, consumed by the serial apply phase.
#[derive(Debug, Clone)]
pub struct Repair {
    /// The repaired user.
    pub user: u32,
    /// Similarity evaluations this plan spent.
    pub evals: u64,
    fresh: TopK,
    /// The scored candidates, ascending, and their similarities to `user`.
    candidates: Vec<u32>,
    sims: Vec<f64>,
}

/// A dynamic KNN graph over its own fingerprint arena, with every repair
/// split into a parallel-safe planning half and a serial applying half.
#[derive(Debug, Clone)]
pub struct RepairGraph {
    k: usize,
    store: ShfStore,
    lists: Vec<NeighborList>,
    /// `rev[u]` = sorted ids of the users whose list contains `u`.
    rev: Vec<Vec<u32>>,
    /// Per-user repair counters, mixed into probe seeds.
    repairs: Vec<u64>,
    /// `dirty[u]`: `u`'s list changed since [`RepairGraph::take_dirty`].
    dirty: Vec<bool>,
    /// The users flagged in `dirty`, in marking order — the snapshot
    /// rebuild set.
    changed: Vec<u32>,
}

impl RepairGraph {
    /// Loads a built graph and copies its fingerprint store, which the
    /// repair graph then owns and updates. The copy is always on the heap,
    /// even when `store` is spilled.
    ///
    /// # Panics
    /// Panics when the store and graph disagree on the population or the
    /// population is empty.
    pub fn new(graph: &KnnGraph, store: &ShfStore) -> Self {
        let n = graph.n_users();
        assert!(n > 0, "cannot serve an empty population");
        assert_eq!(store.len(), n, "store/graph population mismatch");
        let lists = (0..n as u32)
            .map(|u| {
                let mut list = NeighborList::new(graph.k());
                for sc in graph.neighbors(u) {
                    list.insert(sc.user, sc.sim);
                }
                list
            })
            .collect();
        // `u` lists `v` → `rev[v]` records `u`. Users are visited in
        // ascending order, so every `rev[v]` comes out sorted.
        let mut rev = vec![Vec::new(); n];
        for u in 0..n as u32 {
            for sc in graph.neighbors(u) {
                rev[sc.user as usize].push(u);
            }
        }
        RepairGraph {
            k: graph.k(),
            store: store.clone(),
            lists,
            rev,
            repairs: vec![0; n],
            dirty: vec![false; n],
            changed: Vec::new(),
        }
    }

    /// Total number of users.
    pub fn n_users(&self) -> usize {
        self.lists.len()
    }

    /// Neighbourhood size.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Applies a whole drain batch of `(user, items)` deltas to the arena
    /// in batch order (delta fingerprinting with the store's own hasher:
    /// `ShfStore::apply_deltas`) and returns the total bits newly set.
    /// Neighbour lists are untouched until the users are repaired.
    pub fn apply_updates(&mut self, deltas: &[(u32, Vec<u32>)]) -> u32 {
        self.store.apply_deltas(deltas)
    }

    /// Returns the repair counter for `u` and advances it — one call per
    /// scheduled repair, so consecutive repairs of the same user draw
    /// distinct probe streams (see [`probe_seed`]).
    pub fn bump_repair(&mut self, u: u32) -> u64 {
        let c = self.repairs[u as usize];
        self.repairs[u as usize] += 1;
        c
    }

    /// Returns the users whose lists changed since the last call, in
    /// ascending order, and resets their flags — `O(changed)`, not
    /// `O(n)`. [`RepairGraph::apply_repair`] marks precisely the lists it
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

    /// Current neighbours of `u`, sorted by decreasing similarity.
    pub fn neighbors(&self, u: u32) -> Vec<Scored> {
        self.list(u).to_sorted()
    }

    /// `u`'s neighbour list, unsorted.
    pub(crate) fn list(&self, u: u32) -> &NeighborList {
        &self.lists[u as usize]
    }

    /// Hyrec-style candidate set of `u`, ascending: neighbours, their
    /// neighbours, and the maintained reverse neighbours —
    /// `O(k² + |rev(u)|)`, independent of the population.
    pub fn candidate_set(&self, u: u32) -> Vec<u32> {
        let mut out: Vec<u32> = Vec::new();
        for &v in self.list(u).users() {
            out.push(v);
            out.extend_from_slice(self.list(v).users());
        }
        out.extend_from_slice(&self.rev[u as usize]);
        out.sort_unstable();
        out.dedup();
        out.retain(|&v| v != u);
        out
    }

    /// Read-only planning half of a repair: scores `u` against its
    /// candidate set plus `probes` random users (stream selected by
    /// `(seed, u, counter)`, see [`probe_seed`]) in one batched
    /// [`ShfJaccard`] call, and returns the rebuilt list plus all scored
    /// pairs. Takes `&self` — many plans can run concurrently over a
    /// frozen graph, and a plan depends only on that frozen state, never
    /// on sibling plans. The rebuilt list is the exact top-k of the
    /// candidates under the `(sim desc, id asc)` total order, so it does
    /// not depend on the order candidates are scored in.
    pub fn plan_repair(&self, u: u32, counter: u64, probes: usize, seed: u64) -> Repair {
        let mut candidates = self.candidate_set(u);
        let n = self.n_users();
        if probes > 0 && n > 1 {
            let mut rng = StdRng::seed_from_u64(probe_seed(seed, u, counter));
            for _ in 0..probes {
                let v = rng.gen_range(0..n) as u32;
                if v != u {
                    candidates.push(v);
                }
            }
            candidates.sort_unstable();
            candidates.dedup();
        }
        let mut sims = vec![0.0; candidates.len()];
        ShfJaccard::new(&self.store).similarity_batch(u, &candidates, &mut sims);
        let mut fresh = TopK::new(self.k);
        for (&v, &s) in candidates.iter().zip(&sims) {
            fresh.offer(s, v);
        }
        Repair {
            user: u,
            evals: candidates.len() as u64,
            fresh,
            candidates,
            sims,
        }
    }

    /// Serial application half: installs a planned repair — symmetric
    /// offers first (a member's changed similarity is updated **in
    /// place**, a non-member must beat the worst), then the rebuilt list,
    /// with the reverse index maintained through every membership change.
    pub fn apply_repair(&mut self, r: &Repair) {
        for (&v, &s) in r.candidates.iter().zip(&r.sims) {
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
        let member = self.rev[u as usize].binary_search(&v).is_ok();
        let list = &mut self.lists[v as usize];
        let evict = match list.floor() {
            _ if member => None,
            Some(f) if !outranks(s, u, f.sim, f.user) => return,
            floor => floor.map(|f| f.user),
        };
        list.upsert(u, s, evict);
        self.mark(v);
        if !member {
            sorted_insert(&mut self.rev[u as usize], v);
            if let Some(evicted) = evict {
                sorted_remove(&mut self.rev[evicted as usize], v);
            }
        }
    }

    /// Replaces `u`'s whole list in its own buffer, applying every
    /// reverse-index delta.
    ///
    /// Refilling in place, rather than installing a list the plan
    /// allocated, keeps the long-lived lists in their own buffers: lists
    /// allocated amid the plans' short-lived buffers fragment the heap and
    /// raise resident memory.
    fn replace_list(&mut self, u: u32, fresh: &TopK) {
        let old = self.list(u).users().to_vec();
        for &w in &old {
            if !fresh.users().any(|x| x == w) {
                sorted_remove(&mut self.rev[w as usize], u);
            }
        }
        for w in fresh.users() {
            if !old.contains(&w) {
                sorted_insert(&mut self.rev[w as usize], u);
            }
        }
        self.lists[u as usize].refill(fresh.entries());
        self.mark(u);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::BruteForce;
    use goldfinger_core::hash::DynHasher;
    use goldfinger_core::profile::ProfileStore;
    use goldfinger_core::shf::ShfParams;

    fn fixture(clusters: u32) -> (KnnGraph, ShfStore) {
        let mut lists = Vec::new();
        for c in 0..clusters {
            for u in 0..6u32 {
                let base = c * 1000;
                let mut items: Vec<u32> = (base..base + 15).collect();
                items.push(base + 100 + u);
                lists.push(items);
            }
        }
        let store = ShfParams::new(1024, DynHasher::default())
            .fingerprint_store(&ProfileStore::from_item_lists(lists));
        let graph = BruteForce::default()
            .build(&ShfJaccard::new(&store), 3)
            .graph;
        (graph, store)
    }

    fn rev_invariant(set: &RepairGraph) {
        let mut expect = vec![Vec::new(); set.n_users()];
        for u in 0..set.n_users() as u32 {
            for &v in set.list(u).users() {
                expect[v as usize].push(u);
            }
        }
        for ids in &mut expect {
            ids.sort_unstable();
        }
        assert_eq!(set.rev, expect, "reverse index out of sync");
    }

    /// The fingerprint similarity the repair graph's own arena gives.
    fn sim(set: &RepairGraph, u: u32, v: u32) -> f64 {
        ShfJaccard::new(&set.store).similarity(u, v)
    }

    /// One scheduled repair, run the way a serve drain runs it: bump the
    /// user's counter, plan against the frozen graph, apply.
    fn repair(set: &mut RepairGraph, u: u32, probes: usize, seed: u64) -> u64 {
        let counter = set.bump_repair(u);
        let plan = set.plan_repair(u, counter, probes, seed);
        set.apply_repair(&plan);
        plan.evals
    }

    /// Folds `items` into `u`'s fingerprint.
    fn update(set: &mut RepairGraph, u: u32, items: &[u32]) -> u32 {
        set.apply_updates(&[(u, items.to_vec())])
    }

    #[test]
    fn new_preserves_the_graph_and_copies_the_store() {
        let (graph, store) = fixture(3); // 18 users
        let set = RepairGraph::new(&graph, &store);
        assert_eq!((set.n_users(), set.k()), (18, 3));
        assert_eq!(set.store.arena_words(), store.arena_words());
        for u in 0..18u32 {
            assert_eq!(set.store.cardinality(u), store.cardinality(u));
            assert_eq!(set.neighbors(u), graph.neighbors(u).to_vec());
        }
        rev_invariant(&set);
    }

    #[test]
    fn reverse_index_tracks_probed_repairs_of_every_user() {
        let (graph, store) = fixture(2);
        let mut set = RepairGraph::new(&graph, &store);
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
            let (graph, store) = fixture(clusters);
            // Sanity: the exact graph keeps user 0 inside its own cluster,
            // so the candidate set cannot grow with the cluster count.
            assert!(graph.neighbors(0).iter().all(|s| s.user < 6));
            let mut set = RepairGraph::new(&graph, &store);
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
        let (graph, store) = fixture(2);
        let mut set = RepairGraph::new(&graph, &store);
        // Fold cluster B's items into user 0's fingerprint incrementally.
        assert!(update(&mut set, 0, &(1000..1015).collect::<Vec<_>>()) > 0);
        repair(&mut set, 0, 0, 0);
        // The candidate set only covers the old neighbourhood, but every
        // stored similarity involving user 0 — on its own list and on the
        // candidates' lists — must now match the updated fingerprint.
        assert!(!set.neighbors(0).is_empty());
        for s in set.neighbors(0) {
            assert_eq!(s.sim, sim(&set, 0, s.user));
        }
        for v in 1..12u32 {
            for s in set.neighbors(v).iter().filter(|s| s.user == 0) {
                assert_eq!(s.sim, sim(&set, v, 0), "user {v}'s entry for 0");
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
        // End to end: two plans of one user over the same frozen graph
        // share the candidate set, so their scored users differ only
        // through the probes the counter selects.
        let (graph, store) = fixture(20);
        let set = RepairGraph::new(&graph, &store);
        let scored = |counter| set.plan_repair(0, counter, 4, 7).candidates;
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
        let (graph, store) = fixture(2);
        let mut set = RepairGraph::new(&graph, &store);
        let lists =
            |set: &RepairGraph, v: u32, w: u32| set.neighbors(v).iter().any(|s| s.user == w);
        let victim = (1..6u32)
            .find(|&v| lists(&set, v, 0))
            .expect("a cluster-A user lists user 0");

        // User 0's fingerprint floods with alien items: sim(0, A) ≈ 0.
        update(&mut set, 0, &(50_000..52_000).collect::<Vec<_>>());
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
        set.offer_entry(victim, fresh, sim(&set, victim, fresh));
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
        let (graph, store) = fixture(2);
        let mut set = RepairGraph::new(&graph, &store);
        assert!(set.take_dirty().is_empty(), "clean at rest");
        // Fold new items into user 9's fingerprint.
        let before = sim(&set, 9, 0);
        assert!(update(&mut set, 9, &(0..15).collect::<Vec<_>>()) > 0);
        assert!(sim(&set, 9, 0) > before, "update did not move similarity");
        // The caller's store is a separate copy and stays as it was.
        assert_eq!(ShfJaccard::new(&store).similarity(9, 0), before);
        // Updates alone don't dirty lists; a repair does, and marks
        // exactly the lists whose stored entries changed.
        assert!(set.take_dirty().is_empty());
        let before: Vec<Vec<Scored>> = (0..12).map(|u| set.neighbors(u)).collect();
        let counter = set.bump_repair(9);
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
