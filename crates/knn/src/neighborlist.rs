//! The mutable k-bounded neighbour lists greedy algorithms refine.

use goldfinger_core::topk::Scored;
use rand::rngs::StdRng;
use rand::Rng;

/// A capacity-`k` neighbour list with duplicate rejection and
/// replace-the-worst updates — the building block of NNDescent and Hyrec.
///
/// Entries live in slots, stored as columns: neighbour ids, similarities
/// and NNDescent's "new" flags (set while an entry has not yet taken part
/// in a local join). A membership test is one branch-free compare over the
/// contiguous ids, and a full list caches its worst entry and that entry's
/// slot, so its `floor` reads no column and a replacement
/// costs one rescan.
/// Slots are stable: an entry is appended while there is room and
/// otherwise replaces the worst one in place, so slot order (which
/// NNDescent's sampling shuffles over) depends only on the offers made.
///
/// Determinism: ties on similarity are broken towards lower user ids, so a
/// fixed seed yields bit-identical graphs across runs.
#[derive(Debug, Clone)]
pub struct NeighborList {
    k: usize,
    users: Vec<u32>,
    sims: Vec<f64>,
    new: Vec<bool>,
    /// The worst entry and its slot once the list is full; stale while it
    /// has room.
    floor: Scored,
    worst: usize,
}

/// The goodness order of list entries: `(sim, user)` outranks
/// `(than_sim, than_user)` when its similarity is higher, or equal with a
/// lower user id.
#[inline]
pub(crate) fn outranks(sim: f64, user: u32, than_sim: f64, than_user: u32) -> bool {
    sim > than_sim || (sim == than_sim && user < than_user)
}

impl NeighborList {
    /// Creates an empty list of capacity `k`.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "k must be positive");
        NeighborList {
            k,
            users: Vec::with_capacity(k),
            sims: Vec::with_capacity(k),
            new: Vec::with_capacity(k),
            floor: Scored { sim: 0.0, user: 0 },
            worst: 0,
        }
    }

    /// Capacity.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Current number of entries.
    pub fn len(&self) -> usize {
        self.users.len()
    }

    /// True when no entry is stored.
    pub fn is_empty(&self) -> bool {
        self.users.is_empty()
    }

    /// True if `user` is already a neighbour.
    #[inline]
    pub fn contains(&self, user: u32) -> bool {
        // No early exit, so the compare vectorises.
        self.users.iter().fold(false, |hit, &u| hit | (u == user))
    }

    /// Offers `(user, sim)`; returns `true` if the list changed.
    ///
    /// Rejects duplicates; when full, replaces the worst entry if the
    /// candidate is strictly better (ties towards lower user id). Inserted
    /// entries are flagged new.
    pub fn insert(&mut self, user: u32, sim: f64) -> bool {
        debug_assert!(!sim.is_nan(), "similarity must not be NaN");
        let full = self.len() == self.k;
        if full && !outranks(sim, user, self.floor.sim, self.floor.user) {
            return false;
        }
        if self.contains(user) {
            return false;
        }
        if full {
            self.put(self.worst, user, sim);
        } else {
            self.push(user, sim);
        }
        true
    }

    /// The entry an offer must outrank (see [`outranks`]) to get into the
    /// full list — its worst one; `None` while the list has room.
    #[inline]
    pub(crate) fn floor(&self) -> Option<Scored> {
        if self.len() < self.k {
            return None;
        }
        let Scored { sim, user } = self.floor;
        debug_assert!(
            self.users[self.worst] == user
                && self
                    .scored()
                    .all(|e| e.user == user || outranks(e.sim, e.user, sim, user)),
            "cached floor is not the worst entry"
        );
        Some(self.floor)
    }

    /// Replaces every entry with `entries`, which the caller guarantees
    /// are at most `k` distinct users (a `TopK` selection), all flagged
    /// new. Reuses the list's buffers.
    pub(crate) fn refill(&mut self, entries: impl IntoIterator<Item = Scored>) {
        self.users.clear();
        self.sims.clear();
        self.new.clear();
        for s in entries {
            self.push(s.user, s.sim);
        }
        debug_assert!(self.len() <= self.k);
    }

    /// An offer whose outcome the caller already knows: sets a member
    /// `user`'s similarity in place (`evict == None`, flag kept), puts
    /// `(user, sim)` in the slot of the full list's floor user `evict`, or
    /// appends it to a list with room (`evict == None`, `user` absent).
    ///
    /// A member's changed similarity is set in place, never removed and
    /// re-offered: the entry may now be the worst and get displaced by
    /// later candidates, but must not jump the replace-the-worst queue the
    /// way a remove-then-insert would.
    pub(crate) fn upsert(&mut self, user: u32, sim: f64, evict: Option<u32>) {
        debug_assert!(!sim.is_nan(), "similarity must not be NaN");
        if let Some(floor) = evict {
            debug_assert_eq!(self.floor().map(|f| f.user), Some(floor));
            self.put(self.worst, user, sim);
        } else if let Some(slot) = self.users.iter().position(|&u| u == user) {
            self.sims[slot] = sim;
            self.settle();
        } else {
            debug_assert!(self.len() < self.k, "append to a full list");
            self.push(user, sim);
        }
    }

    /// Neighbour ids, by slot.
    pub fn users(&self) -> &[u32] {
        &self.users
    }

    /// "New" flags, by slot.
    pub fn new_flags(&self) -> &[bool] {
        &self.new
    }

    /// Clears the "new" flag of `slot` (its entry took part in a join).
    pub fn mark_old(&mut self, slot: usize) {
        self.new[slot] = false;
    }

    /// `(sim, user)` entries, by slot.
    pub fn scored(&self) -> impl Iterator<Item = Scored> + '_ {
        self.sims
            .iter()
            .zip(&self.users)
            .map(|(&sim, &user)| Scored { sim, user })
    }

    /// Converts to a sorted [`Scored`] list (descending similarity, ties by
    /// ascending user id).
    pub fn to_sorted(&self) -> Vec<Scored> {
        let mut out: Vec<Scored> = self.scored().collect();
        out.sort_unstable_by(|a, b| {
            b.sim
                .partial_cmp(&a.sim)
                .expect("similarities are not NaN")
                .then(a.user.cmp(&b.user))
        });
        out
    }

    /// Appends a new entry to a list with room.
    fn push(&mut self, user: u32, sim: f64) {
        self.users.push(user);
        self.sims.push(sim);
        self.new.push(true);
        self.settle();
    }

    /// Overwrites `slot` with a new entry.
    fn put(&mut self, slot: usize, user: u32, sim: f64) {
        self.users[slot] = user;
        self.sims[slot] = sim;
        self.new[slot] = true;
        self.settle();
    }

    /// Recomputes the cached worst entry of a full list: the lowest
    /// similarity, and among entries tied at it the highest user id.
    fn settle(&mut self) {
        if self.len() < self.k {
            return;
        }
        let min = self
            .sims
            .iter()
            .fold(f64::INFINITY, |m, &s| if s < m { s } else { m });
        self.worst = (0..self.len())
            .filter(|&i| self.sims[i] == min)
            .max_by_key(|&i| self.users[i])
            .expect("a full list has a minimum");
        self.floor = Scored {
            sim: self.sims[self.worst],
            user: self.users[self.worst],
        };
    }
}

/// Initialises one random neighbour list per user: `k` distinct random
/// neighbours (≠ owner), scored with the provider. Counts the similarity
/// evaluations it performs into `evals`.
pub fn random_lists<S: goldfinger_core::similarity::Similarity + ?Sized>(
    sim: &S,
    k: usize,
    rng: &mut StdRng,
    evals: &mut u64,
) -> Vec<NeighborList> {
    let n = sim.n_users();
    (0..n)
        .map(|u| {
            let mut list = NeighborList::new(k);
            let wanted = k.min(n.saturating_sub(1));
            let mut guard = 0usize;
            while list.len() < wanted && guard < 20 * k + 100 {
                guard += 1;
                let v = rng.gen_range(0..n) as u32;
                if v as usize == u || list.contains(v) {
                    continue;
                }
                *evals += 1;
                list.insert(v, sim.similarity(u as u32, v));
            }
            list
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use goldfinger_core::profile::ProfileStore;
    use goldfinger_core::similarity::ExplicitJaccard;
    use proptest::prelude::*;
    use rand::SeedableRng;

    /// The array-of-structs list the columns replaced, kept as the oracle:
    /// entries in slots, linear scans for membership and the worst entry.
    #[derive(Debug, Clone)]
    struct Reference {
        k: usize,
        entries: Vec<(f64, u32, bool)>,
    }

    impl Reference {
        fn new(k: usize) -> Self {
            Reference {
                k,
                entries: Vec::new(),
            }
        }

        fn contains(&self, user: u32) -> bool {
            self.entries.iter().any(|e| e.1 == user)
        }

        fn worst_index(&self) -> usize {
            let mut worst = 0usize;
            for (i, e) in self.entries.iter().enumerate().skip(1) {
                let w = self.entries[worst];
                if outranks(w.0, w.1, e.0, e.1) {
                    worst = i;
                }
            }
            worst
        }

        fn floor(&self) -> Option<Scored> {
            (self.entries.len() == self.k).then(|| {
                let (sim, user, _) = self.entries[self.worst_index()];
                Scored { sim, user }
            })
        }

        fn insert(&mut self, user: u32, sim: f64) -> bool {
            if self.contains(user) {
                return false;
            }
            if self.entries.len() < self.k {
                self.entries.push((sim, user, true));
                return true;
            }
            let worst = self.worst_index();
            let (wsim, wuser, _) = self.entries[worst];
            if outranks(sim, user, wsim, wuser) {
                self.entries[worst] = (sim, user, true);
                true
            } else {
                false
            }
        }

        fn upsert(&mut self, user: u32, sim: f64, evict: Option<u32>) {
            let target = evict.unwrap_or(user);
            match self.entries.iter_mut().find(|e| e.1 == target) {
                Some(e) if evict.is_some() => *e = (sim, user, true),
                Some(e) => e.0 = sim,
                None => self.entries.push((sim, user, true)),
            }
        }

        fn refill(&mut self, entries: &[Scored]) {
            self.entries = entries.iter().map(|s| (s.sim, s.user, true)).collect();
        }
    }

    /// Slot order, flags, floor and sorted view must all agree.
    fn assert_same(list: &NeighborList, oracle: &Reference) {
        let slots: Vec<(f64, u32, bool)> = list
            .scored()
            .zip(list.new_flags())
            .map(|(e, &new)| (e.sim, e.user, new))
            .collect();
        assert_eq!(slots, oracle.entries);
        assert_eq!(list.floor(), oracle.floor());
        let mut sorted: Vec<Scored> = oracle
            .entries
            .iter()
            .map(|&(sim, user, _)| Scored { sim, user })
            .collect();
        sorted.sort_unstable_by(|a, b| b.sim.total_cmp(&a.sim).then(a.user.cmp(&b.user)));
        assert_eq!(list.to_sorted(), sorted);
    }

    /// One list operation: `(kind, user, sim level)`. Eight similarity
    /// levels over 48 users make ties common; refills are rare enough that
    /// lists fill up between them.
    fn ops() -> impl Strategy<Value = Vec<(u8, u32, u8)>> {
        proptest::collection::vec((0u8..16, 0u32..48, 0u8..8), 0..300)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn columns_match_the_aos_oracle(k in 1usize..40, ops in ops()) {
            let mut list = NeighborList::new(k);
            let mut oracle = Reference::new(k);
            for (kind, user, level) in ops {
                let sim = level as f64 / 8.0;
                match kind {
                    // Inserts, the engine's and the init's one operation.
                    0..=8 => prop_assert_eq!(list.insert(user, sim), oracle.insert(user, sim)),
                    // Upserts under the serving layer's contract: members
                    // update in place, non-members must outrank the floor
                    // and then evict it.
                    9..=12 => {
                        let evict = match oracle.floor() {
                            _ if oracle.contains(user) => None,
                            Some(f) if !outranks(sim, user, f.sim, f.user) => continue,
                            floor => floor.map(|f| f.user),
                        };
                        list.upsert(user, sim, evict);
                        oracle.upsert(user, sim, evict);
                    }
                    // Refill with up to k distinct users.
                    13 => {
                        let fresh: Vec<Scored> = (0..k.min(user as usize % 41) as u32)
                            .map(|i| Scored {
                                sim: ((i * 7 + level as u32) % 8) as f64 / 8.0,
                                user: (user + i * 5) % 211,
                            })
                            .collect();
                        list.refill(fresh.iter().copied());
                        oracle.refill(&fresh);
                    }
                    // A join clears a flag.
                    _ => {
                        if !oracle.entries.is_empty() {
                            let slot = user as usize % oracle.entries.len();
                            list.mark_old(slot);
                            oracle.entries[slot].2 = false;
                        }
                    }
                }
                assert_same(&list, &oracle);
            }
        }
    }

    #[test]
    fn insert_dedups_and_replaces_worst() {
        let mut l = NeighborList::new(2);
        assert!(l.insert(1, 0.5));
        assert!(!l.insert(1, 0.5), "duplicate must be rejected");
        assert!(l.insert(2, 0.3));
        assert_eq!(l.floor(), Some(Scored { sim: 0.3, user: 2 }));
        assert!(l.insert(3, 0.4)); // replaces user 2
        assert!(!l.contains(2));
        assert!(!l.insert(4, 0.1));
        assert_eq!(l.len(), 2);
    }

    #[test]
    fn upsert_appends_updates_in_place_and_evicts_the_floor() {
        let floor = |l: &NeighborList| l.floor().map(|e| (e.sim, e.user));
        let mut l = NeighborList::new(3);
        // Appends to a list with room; the floor appears once it is full.
        l.upsert(4, 0.5, None);
        l.upsert(2, 0.2, None);
        assert_eq!(floor(&l), None);
        l.upsert(9, 0.2, None);
        assert_eq!(floor(&l), Some((0.2, 9)));
        // A member's similarity changes in place, keeping its flag; the
        // downgraded entry becomes the floor.
        l.mark_old(1);
        l.upsert(2, 0.1, None);
        assert_eq!(floor(&l), Some((0.1, 2)));
        assert_eq!(l.scored().nth(1).map(|e| e.sim), Some(0.1));
        assert!(!l.new_flags()[1], "in-place update must keep the flag");
        // A non-member that beats the floor takes the floor's slot, as
        // `insert` would.
        let mut inserted = l.clone();
        assert!(inserted.insert(7, 0.3));
        l.upsert(7, 0.3, Some(2));
        assert_eq!(floor(&l), Some((0.2, 9)));
        assert!(l.scored().eq(inserted.scored()));
        assert_eq!(l.new_flags(), inserted.new_flags());
        assert!(l.new_flags()[1]);
    }

    #[test]
    fn ties_replace_towards_lower_ids() {
        let mut l = NeighborList::new(1);
        l.insert(9, 0.5);
        assert!(l.insert(3, 0.5), "equal sim but lower id should replace");
        assert!(!l.insert(7, 0.5), "equal sim but higher id should not");
        assert!(l.contains(3));
    }

    #[test]
    fn to_sorted_orders_descending() {
        let mut l = NeighborList::new(3);
        l.insert(5, 0.2);
        l.insert(6, 0.9);
        l.insert(7, 0.2);
        let sorted = l.to_sorted();
        assert_eq!(
            sorted.iter().map(|s| s.user).collect::<Vec<_>>(),
            vec![6, 5, 7]
        );
    }

    #[test]
    fn new_flag_set_on_insert() {
        let mut l = NeighborList::new(2);
        l.insert(1, 0.5);
        assert!(l.new_flags()[0]);
        l.mark_old(0);
        assert!(!l.new_flags()[0]);
    }

    #[test]
    fn random_lists_have_k_distinct_non_self_entries() {
        let profiles =
            ProfileStore::from_item_lists((0..20).map(|i| vec![i as u32, i as u32 + 1]).collect());
        let sim = ExplicitJaccard::new(&profiles);
        let mut rng = StdRng::seed_from_u64(0);
        let mut evals = 0u64;
        let lists = random_lists(&sim, 5, &mut rng, &mut evals);
        assert_eq!(lists.len(), 20);
        assert!(evals >= 5 * 20);
        for (u, l) in lists.iter().enumerate() {
            assert_eq!(l.len(), 5);
            assert!(!l.contains(u as u32));
            let mut ids = l.users().to_vec();
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(ids.len(), 5);
        }
    }

    #[test]
    fn random_lists_handle_tiny_populations() {
        let profiles = ProfileStore::from_item_lists(vec![vec![1], vec![2]]);
        let sim = ExplicitJaccard::new(&profiles);
        let mut rng = StdRng::seed_from_u64(0);
        let mut evals = 0u64;
        let lists = random_lists(&sim, 30, &mut rng, &mut evals);
        assert_eq!(lists[0].len(), 1);
        assert_eq!(lists[1].len(), 1);
    }
}
