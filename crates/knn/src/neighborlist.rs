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

/// What happened to an offered candidate — the eviction-reporting variant
/// of [`NeighborList::insert`] that reverse-adjacency maintenance needs:
/// every membership change the list makes is visible to the caller, so an
/// inverted index can be updated without rescanning the list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Offer {
    /// The candidate was already present; the list is unchanged.
    Duplicate,
    /// The list was full and the candidate did not beat the worst entry.
    Rejected,
    /// The candidate was appended to a non-full list.
    Added,
    /// The candidate replaced the worst entry; the evicted user is carried
    /// so reverse indices can drop the stale edge.
    Replaced(u32),
}

/// The goodness order of list entries: `(sim, user)` outranks
/// `(than_sim, than_user)` when its similarity is higher, or equal with a
/// lower user id.
#[inline]
pub(crate) fn outranks(sim: f64, user: u32, than_sim: f64, than_user: u32) -> bool {
    sim > than_sim || (sim == than_sim && user < than_user)
}

impl Offer {
    /// True when the offer changed the list's membership.
    pub fn accepted(&self) -> bool {
        matches!(self, Offer::Added | Offer::Replaced(_))
    }
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
        self.offer(user, sim).accepted()
    }

    /// [`NeighborList::insert`] with a full account of the outcome: whether
    /// the candidate was a duplicate, was rejected, was appended, or
    /// replaced (and if so, whom it evicted).
    pub fn offer(&mut self, user: u32, sim: f64) -> Offer {
        debug_assert!(!sim.is_nan(), "similarity must not be NaN");
        if self.contains(user) {
            return Offer::Duplicate;
        }
        let entry = NeighborEntry {
            sim,
            user,
            is_new: true,
        };
        if self.entries.len() < self.k {
            self.entries.push(entry);
            return Offer::Added;
        }
        let worst = self.worst_index();
        let w = self.entries[worst];
        if outranks(sim, user, w.sim, w.user) {
            self.entries[worst] = entry;
            Offer::Replaced(w.user)
        } else {
            Offer::Rejected
        }
    }

    /// Overwrites the stored similarity of `user` in place, preserving its
    /// membership and `is_new` flag. Returns `false` when `user` is not in
    /// the list.
    ///
    /// This is the correct move when a *member's* similarity changes (e.g.
    /// its profile was updated): the entry may now be the worst and get
    /// displaced by future candidates, but it must not jump the
    /// replace-the-worst queue the way a remove-then-insert would.
    pub fn update_sim(&mut self, user: u32, sim: f64) -> bool {
        debug_assert!(!sim.is_nan(), "similarity must not be NaN");
        match self.entries.iter_mut().find(|e| e.user == user) {
            Some(e) => {
                e.sim = sim;
                true
            }
            None => false,
        }
    }

    /// The entry an offer must outrank (see [`outranks`]) to get into the
    /// full list — its worst one; `None` while the list has room.
    pub(crate) fn floor(&self) -> Option<&NeighborEntry> {
        (self.entries.len() == self.k).then(|| &self.entries[self.worst_index()])
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
    fn offer_reports_membership_changes() {
        let mut l = NeighborList::new(2);
        assert_eq!(l.offer(1, 0.5), Offer::Added);
        assert_eq!(l.offer(1, 0.9), Offer::Duplicate);
        assert_eq!(l.offer(2, 0.3), Offer::Added);
        assert_eq!(l.offer(3, 0.4), Offer::Replaced(2));
        assert_eq!(l.offer(4, 0.1), Offer::Rejected);
        assert!(Offer::Added.accepted() && Offer::Replaced(7).accepted());
        assert!(!Offer::Rejected.accepted() && !Offer::Duplicate.accepted());
    }

    #[test]
    fn update_sim_changes_value_in_place() {
        let mut l = NeighborList::new(2);
        l.insert(1, 0.5);
        l.insert(2, 0.8);
        l.entries_mut()[0].is_new = false;
        assert!(l.update_sim(1, 0.1));
        assert!(!l.update_sim(9, 0.7), "absent user cannot be updated");
        let e = l.entries().iter().find(|e| e.user == 1).unwrap();
        assert_eq!(e.sim, 0.1);
        assert!(!e.is_new, "in-place update must preserve the flag");
        assert_eq!(l.len(), 2);
        // The downgraded entry is now the worst and loses to a fresh offer.
        assert_eq!(l.offer(3, 0.4), Offer::Replaced(1));
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
