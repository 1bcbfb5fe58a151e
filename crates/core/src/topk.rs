//! Bounded top-k selection of weighted candidates.
//!
//! KNN construction constantly asks "keep the k most similar users seen so
//! far". [`TopK`] is a size-bounded min-heap over `(similarity, user)` pairs
//! with O(log k) insertion and an O(1) admission test against the current
//! k-th best — the structure behind `argtopk` in the paper's Eq. (1).

/// A totally ordered non-NaN `f64` similarity value.
///
/// Similarities are always finite in this crate; constructing a
/// [`SimValue`] from NaN panics rather than silently misordering a heap.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimValue(f64);

impl SimValue {
    /// Wraps a finite similarity.
    ///
    /// # Panics
    /// Panics if `v` is NaN.
    #[inline]
    pub fn new(v: f64) -> Self {
        assert!(!v.is_nan(), "similarity must not be NaN");
        SimValue(v)
    }

    /// The wrapped value.
    #[inline]
    pub fn get(self) -> f64 {
        self.0
    }
}

impl Eq for SimValue {}

impl PartialOrd for SimValue {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for SimValue {
    #[inline]
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Safe: NaN is excluded at construction.
        self.0.partial_cmp(&other.0).expect("SimValue is never NaN")
    }
}

/// One scored candidate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scored {
    /// Similarity to the query user.
    pub sim: f64,
    /// Candidate user id.
    pub user: u32,
}

/// A bounded collection keeping the `k` entries with the highest similarity.
///
/// Ties on similarity are broken towards lower user ids (deterministic
/// output regardless of insertion order), which keeps experiment runs
/// reproducible.
#[derive(Debug, Clone)]
pub struct TopK {
    k: usize,
    // Min-heap via reversed comparison: heap[0] is the *worst* kept entry.
    heap: Vec<(SimValue, std::cmp::Reverse<u32>)>,
}

impl TopK {
    /// Creates an empty selector for the best `k` entries.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "k must be positive");
        TopK {
            k,
            heap: Vec::with_capacity(k + 1),
        }
    }

    /// Capacity `k`.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of entries currently kept.
    #[inline]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no entry has been kept yet.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// The similarity of the worst kept entry, or `None` when not yet full.
    ///
    /// A candidate strictly below this threshold cannot enter the top-k, so
    /// callers can skip the O(log k) insert.
    #[inline]
    pub fn threshold(&self) -> Option<f64> {
        if self.heap.len() < self.k {
            None
        } else {
            self.heap.first().map(|e| e.0.get())
        }
    }

    /// Offers a candidate; returns `true` if it was kept.
    ///
    /// The caller is responsible for not offering duplicates (KNN algorithms
    /// guarantee this by construction or by flag bookkeeping); duplicates
    /// would occupy several of the k slots.
    pub fn offer(&mut self, sim: f64, user: u32) -> bool {
        let entry = (SimValue::new(sim), std::cmp::Reverse(user));
        if self.heap.len() < self.k {
            self.heap.push(entry);
            self.sift_up(self.heap.len() - 1);
            return true;
        }
        // heap[0] is the current minimum under (sim asc, user desc).
        if entry <= self.heap[0] {
            return false;
        }
        self.heap[0] = entry;
        self.sift_down(0);
        true
    }

    /// Consumes the selector, returning kept entries sorted by decreasing
    /// similarity (ties: increasing user id).
    pub fn into_sorted(self) -> Vec<Scored> {
        let mut entries = self.heap;
        entries.sort_unstable_by(|a, b| b.cmp(a));
        entries
            .into_iter()
            .map(|(s, std::cmp::Reverse(u))| Scored {
                sim: s.get(),
                user: u,
            })
            .collect()
    }

    /// Sorts the kept entries in place (decreasing similarity, ties by
    /// increasing user id) and iterates them without allocating — the
    /// zero-copy variant of [`TopK::into_sorted`] for callers draining many
    /// selectors straight into one arena. The heap invariant is destroyed;
    /// clear or drop the selector before offering again.
    pub fn sorted_entries(&mut self) -> impl Iterator<Item = Scored> + '_ {
        self.heap.sort_unstable_by(|a, b| b.cmp(a));
        self.heap.iter().map(|&(s, std::cmp::Reverse(u))| Scored {
            sim: s.get(),
            user: u,
        })
    }

    /// Kept user ids in unspecified order.
    pub fn users(&self) -> impl Iterator<Item = u32> + '_ {
        self.heap.iter().map(|&(_, std::cmp::Reverse(u))| u)
    }

    /// Kept entries in unspecified order.
    ///
    /// Because the kept set is insertion-order independent (the admission
    /// order is total: similarity descending, user id ascending), offering
    /// another selector's entries merges two partial selections into the
    /// exact top-k of their union — the reducer of the parallel brute-force
    /// scan.
    pub fn entries(&self) -> impl Iterator<Item = Scored> + '_ {
        self.heap.iter().map(|&(s, std::cmp::Reverse(u))| Scored {
            sim: s.get(),
            user: u,
        })
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.heap[i] < self.heap[parent] {
                self.heap.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut smallest = i;
            if l < self.heap.len() && self.heap[l] < self.heap[smallest] {
                smallest = l;
            }
            if r < self.heap.len() && self.heap[r] < self.heap[smallest] {
                smallest = r;
            }
            if smallest == i {
                break;
            }
            self.heap.swap(i, smallest);
            i = smallest;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn zero_k_panics() {
        let _ = TopK::new(0);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_similarity_panics() {
        let mut t = TopK::new(2);
        t.offer(f64::NAN, 1);
    }

    #[test]
    fn keeps_the_best_k() {
        let mut t = TopK::new(3);
        for (sim, user) in [(0.1, 10), (0.9, 20), (0.5, 30), (0.7, 40), (0.2, 50)] {
            t.offer(sim, user);
        }
        let out = t.into_sorted();
        assert_eq!(
            out.iter().map(|s| s.user).collect::<Vec<_>>(),
            vec![20, 40, 30]
        );
        assert!((out[0].sim - 0.9).abs() < 1e-12);
    }

    #[test]
    fn underfull_returns_all() {
        let mut t = TopK::new(10);
        t.offer(0.3, 1);
        t.offer(0.8, 2);
        assert_eq!(t.len(), 2);
        assert_eq!(t.threshold(), None);
        let out = t.into_sorted();
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].user, 2);
    }

    #[test]
    fn threshold_gates_admission() {
        let mut t = TopK::new(2);
        assert!(t.offer(0.5, 1));
        assert!(t.offer(0.6, 2));
        assert_eq!(t.threshold(), Some(0.5));
        assert!(!t.offer(0.4, 3));
        assert!(t.offer(0.7, 4));
        assert_eq!(t.threshold(), Some(0.6));
    }

    #[test]
    fn ties_break_towards_lower_user_ids() {
        // Two insertion orders must produce identical results.
        let mut a = TopK::new(2);
        for (s, u) in [(0.5, 7), (0.5, 3), (0.5, 9)] {
            a.offer(s, u);
        }
        let mut b = TopK::new(2);
        for (s, u) in [(0.5, 9), (0.5, 7), (0.5, 3)] {
            b.offer(s, u);
        }
        let ua: Vec<u32> = a.into_sorted().iter().map(|s| s.user).collect();
        let ub: Vec<u32> = b.into_sorted().iter().map(|s| s.user).collect();
        assert_eq!(ua, vec![3, 7]);
        assert_eq!(ua, ub);
    }

    #[test]
    fn agrees_with_full_sort_on_random_input() {
        // Deterministic pseudo-random stream (no rand dependency needed).
        let mut x = 0x9E3779B97F4A7C15u64;
        let mut pairs = Vec::new();
        for user in 0..500u32 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            pairs.push(((x % 1000) as f64 / 1000.0, user));
        }
        let mut t = TopK::new(30);
        for &(s, u) in &pairs {
            t.offer(s, u);
        }
        let got: Vec<u32> = t.into_sorted().iter().map(|s| s.user).collect();
        let mut sorted = pairs.clone();
        sorted.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap().then(a.1.cmp(&b.1)));
        let want: Vec<u32> = sorted.iter().take(30).map(|&(_, u)| u).collect();
        assert_eq!(got, want);
    }
}
