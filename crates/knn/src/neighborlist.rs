//! The mutable k-bounded neighbour lists greedy algorithms refine.

use goldfinger_core::topk::Scored;
use rand::rngs::StdRng;
use rand::Rng;

/// One candidate neighbour inside a [`NeighborList`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NeighborEntry {
    /// Similarity to the list's owner.
    pub sim: f64,
    /// Neighbour user id.
    pub user: u32,
    /// NNDescent's "new" flag: set when the entry has not yet taken part in
    /// a local join.
    pub is_new: bool,
}

/// A capacity-`k` neighbour list with duplicate rejection and
/// replace-the-worst updates — the building block of NNDescent and Hyrec.
///
/// Determinism: ties on similarity are broken towards lower user ids, so a
/// fixed seed yields bit-identical graphs across runs.
#[derive(Debug, Clone)]
pub struct NeighborList {
    k: usize,
    entries: Vec<NeighborEntry>,
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
            entries: Vec::with_capacity(k),
        }
    }

    /// Capacity.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Current number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no entry is stored.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// True if `user` is already a neighbour.
    pub fn contains(&self, user: u32) -> bool {
        self.entries.iter().any(|e| e.user == user)
    }

    /// Offers `(user, sim)`; returns `true` if the list changed.
    ///
    /// Rejects duplicates; when full, replaces the worst entry if the
    /// candidate is strictly better (ties towards lower user id). Inserted
    /// entries carry `is_new = true`.
    pub fn insert(&mut self, user: u32, sim: f64) -> bool {
        debug_assert!(!sim.is_nan(), "similarity must not be NaN");
        if self.contains(user) {
            return false;
        }
        let entry = NeighborEntry {
            sim,
            user,
            is_new: true,
        };
        if self.entries.len() < self.k {
            self.entries.push(entry);
            return true;
        }
        let worst = self.worst_index();
        let w = self.entries[worst];
        if outranks(sim, user, w.sim, w.user) {
            self.entries[worst] = entry;
            true
        } else {
            false
        }
    }

    /// The entry an offer must outrank (see [`outranks`]) to get into the
    /// full list — its worst one; `None` while the list has room.
    pub(crate) fn floor(&self) -> Option<&NeighborEntry> {
        (self.entries.len() == self.k).then(|| &self.entries[self.worst_index()])
    }

    /// Replaces every entry with `entries`, which the caller guarantees
    /// are at most `k` distinct users (a `TopK` selection), all with
    /// `is_new = true`. Reuses the list's buffer.
    pub(crate) fn refill(&mut self, entries: impl IntoIterator<Item = Scored>) {
        self.entries.clear();
        self.entries
            .extend(entries.into_iter().map(|s| NeighborEntry {
                sim: s.sim,
                user: s.user,
                is_new: true,
            }));
        debug_assert!(self.entries.len() <= self.k);
    }

    /// One-scan offer for a caller that already knows the outcome: sets a
    /// member `user`'s similarity in place (`evict == None`, `is_new`
    /// kept), puts `(user, sim)` in the slot of the full list's floor user
    /// `evict`, or appends it to a list with room (`evict == None`, `user`
    /// absent). Returns the new [`NeighborList::floor`] as `(sim, user)`,
    /// found in the same scan.
    ///
    /// A member's changed similarity is set in place, never removed and
    /// re-offered: the entry may now be the worst and get displaced by
    /// later candidates, but must not jump the replace-the-worst queue the
    /// way a remove-then-insert would.
    pub(crate) fn upsert(&mut self, user: u32, sim: f64, evict: Option<u32>) -> Option<Scored> {
        debug_assert!(!sim.is_nan(), "similarity must not be NaN");
        let fresh = NeighborEntry {
            sim,
            user,
            is_new: true,
        };
        let target = evict.unwrap_or(user);
        let mut found = false;
        let mut worst: Option<Scored> = None;
        for e in &mut self.entries {
            if e.user == target {
                found = true;
                match evict {
                    Some(_) => *e = fresh,
                    None => e.sim = sim,
                }
            }
            if worst.is_none_or(|w| outranks(w.sim, w.user, e.sim, e.user)) {
                worst = Some(Scored {
                    sim: e.sim,
                    user: e.user,
                });
            }
        }
        if !found {
            debug_assert!(evict.is_none() && self.entries.len() < self.k);
            self.entries.push(fresh);
            if worst.is_none_or(|w| outranks(w.sim, w.user, sim, user)) {
                worst = Some(Scored { sim, user });
            }
        }
        worst.filter(|_| self.entries.len() == self.k)
    }

    /// Entries, unsorted.
    pub fn entries(&self) -> &[NeighborEntry] {
        &self.entries
    }

    /// Mutable entries (for flag bookkeeping).
    pub fn entries_mut(&mut self) -> &mut [NeighborEntry] {
        &mut self.entries
    }

    /// Neighbour ids, unsorted.
    pub fn users(&self) -> impl Iterator<Item = u32> + '_ {
        self.entries.iter().map(|e| e.user)
    }

    /// Converts to a sorted [`Scored`] list (descending similarity, ties by
    /// ascending user id).
    pub fn to_sorted(&self) -> Vec<Scored> {
        let mut out: Vec<Scored> = self
            .entries
            .iter()
            .map(|e| Scored {
                sim: e.sim,
                user: e.user,
            })
            .collect();
        out.sort_unstable_by(|a, b| {
            b.sim
                .partial_cmp(&a.sim)
                .expect("similarities are not NaN")
                .then(a.user.cmp(&b.user))
        });
        out
    }

    fn worst_index(&self) -> usize {
        let mut worst = 0usize;
        for (i, e) in self.entries.iter().enumerate().skip(1) {
            let w = &self.entries[worst];
            if outranks(w.sim, w.user, e.sim, e.user) {
                worst = i;
            }
        }
        worst
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
    use rand::SeedableRng;

    #[test]
    fn insert_dedups_and_replaces_worst() {
        let mut l = NeighborList::new(2);
        assert!(l.insert(1, 0.5));
        assert!(!l.insert(1, 0.5), "duplicate must be rejected");
        assert!(l.insert(2, 0.3));
        assert_eq!(l.floor().map(|e| (e.sim, e.user)), Some((0.3, 2)));
        assert!(l.insert(3, 0.4)); // replaces user 2
        assert!(!l.contains(2));
        assert!(!l.insert(4, 0.1));
        assert_eq!(l.len(), 2);
    }

    #[test]
    fn upsert_appends_updates_in_place_and_evicts_the_floor() {
        let floor = |l: &NeighborList| l.floor().map(|e| (e.sim, e.user));
        let mut l = NeighborList::new(3);
        // Appends to a list with room report the floor once it is full.
        assert_eq!(l.upsert(4, 0.5, None), None);
        assert_eq!(l.upsert(2, 0.2, None), None);
        let f = l.upsert(9, 0.2, None).unwrap();
        assert_eq!((f.sim, f.user), (0.2, 9));
        // A member's similarity changes in place, keeping its flag; the
        // downgraded entry becomes the floor.
        l.entries_mut()[1].is_new = false;
        let f = l.upsert(2, 0.1, None).unwrap();
        assert_eq!((f.sim, f.user), (0.1, 2));
        assert_eq!(l.entries()[1].sim, 0.1);
        assert!(!l.entries()[1].is_new, "in-place update must keep the flag");
        // A non-member that beats the floor takes the floor's slot, as
        // `insert` would, and the next floor is found in the same scan.
        let mut scanned = l.clone();
        assert!(scanned.insert(7, 0.3));
        let f = l.upsert(7, 0.3, Some(2)).unwrap();
        assert_eq!((f.sim, f.user), (0.2, 9));
        assert_eq!(l.entries(), scanned.entries());
        assert_eq!(floor(&l), Some((0.2, 9)));
        assert!(l.entries()[1].is_new);
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
        assert!(l.entries()[0].is_new);
        l.entries_mut()[0].is_new = false;
        assert!(!l.entries()[0].is_new);
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
            let mut ids: Vec<u32> = l.users().collect();
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
