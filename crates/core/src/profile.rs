//! Explicit (clear-text) user profiles.
//!
//! A profile is the set of items associated with a user, stored as a sorted,
//! deduplicated `Vec<ItemId>`. This is the "native" representation that
//! fingerprints compete against: set intersections run as linear merges over
//! the sorted ids.
//!
//! [`ProfileStore`] packs all users' profiles into one CSR-style allocation
//! (offsets + items) so that brute-force scans stay cache-friendly — the
//! strongest realistic baseline for the paper's native algorithms.

/// Identifier of an item (movie, page, author, …).
pub type ItemId = u32;

/// Identifier of a user (a node of the KNN graph).
pub type UserId = u32;

/// A sorted, deduplicated set of items belonging to one user.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Profile {
    items: Vec<ItemId>,
}

impl Profile {
    /// Builds a profile from arbitrary item ids (sorts and deduplicates).
    pub fn from_items(mut items: Vec<ItemId>) -> Self {
        items.sort_unstable();
        items.dedup();
        Profile { items }
    }

    /// Number of items.
    #[inline]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True if the profile holds no item.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The sorted item ids.
    #[inline]
    pub fn items(&self) -> &[ItemId] {
        &self.items
    }

    /// Membership test (binary search).
    #[inline]
    pub fn contains(&self, item: ItemId) -> bool {
        self.items.binary_search(&item).is_ok()
    }

    /// Size of the intersection with `other` (sorted merge).
    pub fn intersection_size(&self, other: &Profile) -> usize {
        intersection_size_sorted(&self.items, &other.items)
    }
}

impl FromIterator<ItemId> for Profile {
    fn from_iter<T: IntoIterator<Item = ItemId>>(iter: T) -> Self {
        Profile::from_items(iter.into_iter().collect())
    }
}

/// Intersection size of two sorted, unique id slices via linear merge.
///
/// This is the kernel whose cost Figure 1 of the paper measures; it scans
/// `O(|a| + |b|)` ids and touches 4 bytes per scanned id.
#[inline]
pub fn intersection_size_sorted(a: &[ItemId], b: &[ItemId]) -> usize {
    let (mut i, mut j, mut n) = (0usize, 0usize, 0usize);
    while i < a.len() && j < b.len() {
        let (x, y) = (a[i], b[j]);
        n += usize::from(x == y);
        i += usize::from(x <= y);
        j += usize::from(y <= x);
    }
    n
}

/// All users' profiles packed contiguously (CSR layout).
///
/// `offsets` has `n_users + 1` entries; user `u`'s items live in
/// `items[offsets[u]..offsets[u+1]]`, sorted and unique.
#[derive(Debug, Clone, Default)]
pub struct ProfileStore {
    offsets: Vec<u32>,
    items: Vec<ItemId>,
}

impl ProfileStore {
    /// Builds the packed store from per-user profiles.
    pub fn from_profiles(profiles: &[Profile]) -> Self {
        let mut offsets = Vec::with_capacity(profiles.len() + 1);
        let total: usize = profiles.iter().map(Profile::len).sum();
        let mut items = Vec::with_capacity(total);
        offsets.push(0u32);
        for p in profiles {
            items.extend_from_slice(p.items());
            offsets.push(items.len() as u32);
        }
        ProfileStore { offsets, items }
    }

    /// Builds the packed store from per-user item lists (each list is sorted
    /// and deduplicated internally).
    pub fn from_item_lists(lists: Vec<Vec<ItemId>>) -> Self {
        let profiles: Vec<Profile> = lists.into_iter().map(Profile::from_items).collect();
        Self::from_profiles(&profiles)
    }

    /// Number of users.
    #[inline]
    pub fn n_users(&self) -> usize {
        self.offsets.len() - 1
    }

    /// True if the store holds no user.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n_users() == 0
    }

    /// Total number of (user, item) associations.
    #[inline]
    pub fn n_associations(&self) -> usize {
        self.items.len()
    }

    /// The sorted items of user `u`.
    ///
    /// # Panics
    /// Panics if `u` is out of range.
    #[inline]
    pub fn items(&self, u: UserId) -> &[ItemId] {
        let (lo, hi) = (self.offsets[u as usize], self.offsets[u as usize + 1]);
        &self.items[lo as usize..hi as usize]
    }

    /// Profile length of user `u`.
    #[inline]
    pub fn profile_len(&self, u: UserId) -> usize {
        (self.offsets[u as usize + 1] - self.offsets[u as usize]) as usize
    }

    /// Mean profile length across users.
    pub fn mean_profile_len(&self) -> f64 {
        if self.n_users() == 0 {
            return 0.0;
        }
        self.n_associations() as f64 / self.n_users() as f64
    }

    /// Jaccard index between users `u` and `v` on the explicit profiles.
    #[inline]
    pub fn jaccard(&self, u: UserId, v: UserId) -> f64 {
        let (a, b) = (self.items(u), self.items(v));
        let inter = intersection_size_sorted(a, b);
        let union = a.len() + b.len() - inter;
        if union == 0 {
            0.0
        } else {
            inter as f64 / union as f64
        }
    }

    /// Iterates `(user, items)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (UserId, &[ItemId])> + '_ {
        (0..self.n_users() as u32).map(move |u| (u, self.items(u)))
    }

    /// Largest item id + 1 (0 if there are no associations), i.e. a safe
    /// universe bound for hashing or array sizing.
    pub fn item_universe_bound(&self) -> u32 {
        self.items.iter().copied().max().map_or(0, |m| m + 1)
    }
}

/// Streaming access to user profiles — the seam that lets out-of-core
/// pipelines consume profiles without requiring them all in RAM.
///
/// [`ProfileStore`] implements it by borrowing its packed slices; a
/// synthetic generator implements it by *deriving* each user's items on
/// demand from a per-user seed. Implementations must be deterministic:
/// `items_into(u, …)` yields the same sorted, deduplicated list every
/// call, because out-of-core builds visit users more than once.
pub trait ProfileSource: Sync {
    /// Number of users.
    fn n_users(&self) -> usize;

    /// Replaces `buf`'s contents with user `u`'s sorted, deduplicated
    /// items.
    ///
    /// # Panics
    /// Panics if `u` is out of range.
    fn items_into(&self, u: UserId, buf: &mut Vec<ItemId>);
}

impl ProfileSource for ProfileStore {
    fn n_users(&self) -> usize {
        ProfileStore::n_users(self)
    }

    fn items_into(&self, u: UserId, buf: &mut Vec<ItemId>) {
        buf.clear();
        buf.extend_from_slice(self.items(u));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_sorts_and_dedups() {
        let p = Profile::from_items(vec![5, 1, 5, 3, 1]);
        assert_eq!(p.items(), &[1, 3, 5]);
        assert_eq!(p.len(), 3);
        assert!(p.contains(3));
        assert!(!p.contains(4));
    }

    #[test]
    fn empty_profile() {
        let p = Profile::default();
        assert!(p.is_empty());
        assert_eq!(p.intersection_size(&Profile::from_items(vec![1, 2])), 0);
    }

    #[test]
    fn intersection_and_union_sizes() {
        let a = Profile::from_items(vec![1, 2, 3, 4]);
        let b = Profile::from_items(vec![3, 4, 5]);
        assert_eq!(a.intersection_size(&b), 2);
        // symmetry
        assert_eq!(b.intersection_size(&a), 2);
    }

    #[test]
    fn merge_kernel_edge_cases() {
        assert_eq!(intersection_size_sorted(&[], &[]), 0);
        assert_eq!(intersection_size_sorted(&[1], &[]), 0);
        assert_eq!(intersection_size_sorted(&[1, 2, 3], &[1, 2, 3]), 3);
        assert_eq!(intersection_size_sorted(&[1, 3, 5], &[2, 4, 6]), 0);
        assert_eq!(intersection_size_sorted(&[u32::MAX], &[u32::MAX]), 1);
    }

    #[test]
    fn store_layout_and_access() {
        let store = ProfileStore::from_item_lists(vec![vec![2, 1], vec![], vec![7, 7, 8]]);
        assert_eq!(store.n_users(), 3);
        assert_eq!(store.items(0), &[1, 2]);
        assert_eq!(store.items(1), &[] as &[u32]);
        assert_eq!(store.items(2), &[7, 8]);
        assert_eq!(store.n_associations(), 4);
        assert_eq!(store.profile_len(2), 2);
        assert_eq!(store.item_universe_bound(), 9);
        assert!((store.mean_profile_len() - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn store_jaccard_matches_profile_jaccard() {
        let store = ProfileStore::from_item_lists(vec![vec![1, 2, 3, 4], vec![3, 4, 5]]);
        assert!((store.jaccard(0, 1) - 2.0 / 5.0).abs() < 1e-12);
        assert!((store.jaccard(0, 0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn jaccard_of_two_empty_profiles_is_zero() {
        let store = ProfileStore::from_item_lists(vec![vec![], vec![]]);
        assert_eq!(store.jaccard(0, 1), 0.0);
    }
}
