//! K-fold cross-validation over positive items.
//!
//! The paper evaluates recommendation with 5-fold cross-validation: for each
//! run, 1/5 of every user's positive items is hidden, the KNN graph and
//! recommendations are computed on the remaining 4/5, and a recommendation
//! counts as successful when the user positively rated it in the hidden
//! fifth.

use crate::model::BinaryDataset;
use goldfinger_core::profile::ItemId;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// One train/test split.
#[derive(Debug, Clone)]
pub struct FoldSplit {
    /// Training dataset (the visible items).
    pub train: BinaryDataset,
    /// Per-user hidden positive items (sorted), aligned with user ids.
    pub test: Vec<Vec<ItemId>>,
}

/// Splits a binary dataset into `folds` cross-validation splits.
///
/// Each user's positive items are shuffled once (seeded) and dealt
/// round-robin into folds, so every item is hidden in exactly one fold and
/// folds differ in size by at most one item per user.
///
/// # Panics
/// Panics if `folds < 2`.
pub fn k_fold(data: &BinaryDataset, folds: usize, seed: u64) -> Vec<FoldSplit> {
    assert!(folds >= 2, "need at least two folds");
    let n_users = data.n_users();
    let mut rng = StdRng::seed_from_u64(seed);

    // Per user: the fold assignment of each rated item.
    let mut assignments: Vec<Vec<usize>> = Vec::with_capacity(n_users);
    for u in 0..n_users as u32 {
        let n = data.rated_items(u).len();
        let mut idx: Vec<usize> = (0..n).collect();
        idx.shuffle(&mut rng);
        let mut fold_of = vec![0usize; n];
        for (round, &i) in idx.iter().enumerate() {
            fold_of[i] = round % folds;
        }
        assignments.push(fold_of);
    }

    (0..folds)
        .map(|f| {
            let mut train_lists: Vec<Vec<(ItemId, f32)>> = Vec::with_capacity(n_users);
            let mut test: Vec<Vec<ItemId>> = Vec::with_capacity(n_users);
            for u in 0..n_users as u32 {
                let rated = data.rated_items(u);
                let fold_of = &assignments[u as usize];
                let mut tr = Vec::with_capacity(rated.len());
                let mut te = Vec::new();
                for (i, &(item, value)) in rated.iter().enumerate() {
                    if fold_of[i] == f {
                        te.push(item);
                    } else {
                        tr.push((item, value));
                    }
                }
                te.sort_unstable();
                train_lists.push(tr);
                test.push(te);
            }
            FoldSplit {
                train: BinaryDataset::from_rated_lists(
                    format!("{}-fold{}", data.name(), f),
                    data.n_items(),
                    train_lists,
                ),
                test,
            }
        })
        .collect()
}

/// The paper's configuration: 5 folds.
pub fn five_fold(data: &BinaryDataset, seed: u64) -> Vec<FoldSplit> {
    k_fold(data, 5, seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dataset() -> BinaryDataset {
        BinaryDataset::from_positive_lists(
            "cv",
            100,
            vec![(0..25).collect(), (10..33).collect(), vec![1, 2], vec![]],
        )
    }

    #[test]
    fn folds_partition_each_user_profile() {
        let d = dataset();
        let folds = five_fold(&d, 3);
        assert_eq!(folds.len(), 5);
        for u in 0..d.n_users() as u32 {
            let mut recovered: Vec<u32> = Vec::new();
            for f in &folds {
                recovered.extend(f.test[u as usize].iter().copied());
            }
            recovered.sort_unstable();
            let original: Vec<u32> = d.profiles().items(u).to_vec();
            assert_eq!(recovered, original, "user {u}");
        }
    }

    #[test]
    fn train_and_test_are_disjoint() {
        let d = dataset();
        for f in five_fold(&d, 9) {
            for u in 0..d.n_users() as u32 {
                for &hidden in &f.test[u as usize] {
                    assert!(
                        !f.train.profiles().items(u).contains(&hidden),
                        "hidden item {hidden} leaked into training for user {u}"
                    );
                }
            }
        }
    }

    #[test]
    fn fold_sizes_are_balanced() {
        let d = dataset();
        let folds = five_fold(&d, 1);
        // User 0 has 25 items: exactly 5 per fold.
        for f in &folds {
            assert_eq!(f.test[0].len(), 5);
        }
        // User 1 has 23 items: folds get 4 or 5.
        for f in &folds {
            assert!((4..=5).contains(&f.test[1].len()));
        }
    }

    #[test]
    fn split_is_seed_deterministic() {
        let d = dataset();
        let a = five_fold(&d, 42);
        let b = five_fold(&d, 42);
        for (fa, fb) in a.iter().zip(&b) {
            assert_eq!(fa.test, fb.test);
        }
        let c = five_fold(&d, 43);
        assert!(a.iter().zip(&c).any(|(x, y)| x.test != y.test));
    }

    #[test]
    fn empty_profile_user_has_empty_folds() {
        let d = dataset();
        for f in five_fold(&d, 5) {
            assert!(f.test[3].is_empty());
            assert!(f.train.profiles().items(3).is_empty());
        }
    }

    #[test]
    #[should_panic(expected = "two folds")]
    fn one_fold_panics() {
        let _ = k_fold(&dataset(), 1, 0);
    }

    #[test]
    fn training_ratings_are_preserved() {
        let d = BinaryDataset::from_positive_lists("t", 50, vec![(0..20).collect()]);
        let folds = five_fold(&d, 0);
        for f in &folds {
            for &(item, value) in f.train.rated_items(0) {
                assert_eq!(d.rating(0, item), Some(value));
            }
        }
    }
}
