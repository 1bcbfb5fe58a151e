//! Property-based tests for the fingerprint kernels.

use goldfinger_core::bits::{and_count_words, and_count_words_lut, or_count_words, BitArray};
use goldfinger_core::hash::{DynHasher, HasherKind, ItemHasher};
use goldfinger_core::kernels;
use goldfinger_core::profile::{intersection_size_sorted, Profile, ProfileStore};
use goldfinger_core::shf::ShfParams;
use goldfinger_core::topk::TopK;
use proptest::prelude::*;

fn item_set() -> impl Strategy<Value = Vec<u32>> {
    proptest::collection::vec(0u32..5000, 0..300)
}

proptest! {
    /// popcount(A AND B) + popcount(A OR B) == popcount(A) + popcount(B).
    #[test]
    fn inclusion_exclusion_on_bit_arrays(
        xs in proptest::collection::vec(0u32..512, 0..200),
        ys in proptest::collection::vec(0u32..512, 0..200),
    ) {
        let a = BitArray::from_positions(512, xs);
        let b = BitArray::from_positions(512, ys);
        prop_assert_eq!(
            a.and_count(&b) + a.or_count(&b),
            a.count_ones() + b.count_ones()
        );
        // XOR = OR − AND.
        prop_assert_eq!(a.xor_count(&b), a.or_count(&b) - a.and_count(&b));
    }

    /// iter_ones returns exactly the set positions, in order.
    #[test]
    fn iter_ones_is_sorted_and_complete(xs in proptest::collection::vec(0u32..300, 0..100)) {
        let a = BitArray::from_positions(300, xs.clone());
        let ones: Vec<u32> = a.iter_ones().collect();
        let mut want = xs;
        want.sort_unstable();
        want.dedup();
        prop_assert_eq!(ones, want);
    }

    /// The LUT popcount ablation matches the hardware popcount kernel.
    #[test]
    fn lut_popcount_equals_hw(
        xs in proptest::collection::vec(0u32..1024, 0..400),
        ys in proptest::collection::vec(0u32..1024, 0..400),
    ) {
        let a = BitArray::from_positions(1024, xs);
        let b = BitArray::from_positions(1024, ys);
        prop_assert_eq!(
            and_count_words(a.words(), b.words()),
            and_count_words_lut(a.words(), b.words())
        );
    }

    /// The unrolled pairwise kernel matches the LUT baseline on arbitrary
    /// widths, including ones that are not a multiple of 64 or of the
    /// 4-word unroll.
    #[test]
    fn kernels_match_lut_on_arbitrary_widths(
        bits in 1u32..600,
        seeds in proptest::collection::vec(0u64..1000, 1..8),
        query_seed in 0u64..1000,
    ) {
        let fill = |seed: u64| {
            let positions: Vec<u32> = (0..bits)
                .filter(|&p| (p as u64).wrapping_mul(0x9E37_79B9).wrapping_add(seed).is_multiple_of(3))
                .collect();
            BitArray::from_positions(bits, positions)
        };
        let query = fill(query_seed);
        let fps: Vec<BitArray> = seeds.iter().map(|&s| fill(s)).collect();
        for fp in &fps {
            prop_assert_eq!(
                and_count_words(query.words(), fp.words()),
                and_count_words_lut(query.words(), fp.words())
            );
        }
    }

    /// Every runtime-dispatchable kernel variant available on this host is
    /// bit-identical to the LUT baseline — pairwise and gathered —
    /// on arbitrary widths including non-multiples of 64 and the one-word
    /// fast-path width.
    #[test]
    fn every_kernel_variant_matches_lut_on_arbitrary_widths(
        bits in prop_oneof![1u32..600, Just(64u32), 600u32..2048],
        seeds in proptest::collection::vec(0u64..1000, 1..8),
        query_seed in 0u64..1000,
    ) {
        let fill = |seed: u64| {
            let positions: Vec<u32> = (0..bits)
                .filter(|&p| (p as u64).wrapping_mul(0x6A09_E667).wrapping_add(seed).is_multiple_of(3))
                .collect();
            BitArray::from_positions(bits, positions)
        };
        let query = fill(query_seed);
        let fps: Vec<BitArray> = seeds.iter().map(|&s| fill(s)).collect();
        let w = query.words().len();
        let block: Vec<u64> = fps.iter().flat_map(|f| f.words().iter().copied()).collect();
        let ids: Vec<u32> = (0..fps.len() as u32).collect();
        for kernel in kernels::available() {
            // Pairwise entry points vs the LUT baseline.
            for fp in &fps {
                let and_want = and_count_words_lut(query.words(), fp.words());
                let or_want = or_count_words(query.words(), fp.words());
                prop_assert_eq!(
                    (kernel.and_count)(query.words(), fp.words()),
                    and_want,
                    "{} and_count at {} bits", kernel.name, bits
                );
                prop_assert_eq!(
                    (kernel.or_count)(query.words(), fp.words()),
                    or_want,
                    "{} or_count at {} bits", kernel.name, bits
                );
            }
            // The gathered entry point (stride = width: dense block),
            // element-wise against the pairwise results.
            let mut and_gather = vec![0u32; fps.len()];
            (kernel.and_counts_gather)(query.words(), &block, w, &ids, &mut and_gather);
            for (i, fp) in fps.iter().enumerate() {
                let and_want = and_count_words_lut(query.words(), fp.words());
                prop_assert_eq!(and_gather[i], and_want, "{} and_gather", kernel.name);
            }
        }
        // The module-level one-word fast path agrees too when applicable.
        if w == 1 {
            for fp in &fps {
                prop_assert_eq!(
                    kernels::and_count(query.words(), fp.words()),
                    and_count_words_lut(query.words(), fp.words())
                );
                prop_assert_eq!(
                    kernels::or_count(query.words(), fp.words()),
                    or_count_words(query.words(), fp.words())
                );
            }
        }
    }

    /// Merge intersection equals a naive O(n·m) count.
    #[test]
    fn merge_matches_naive(xs in item_set(), ys in item_set()) {
        let a = Profile::from_items(xs);
        let b = Profile::from_items(ys);
        let naive = a.items().iter().filter(|i| b.contains(**i)).count();
        prop_assert_eq!(intersection_size_sorted(a.items(), b.items()), naive);
    }

    /// Jaccard on explicit profiles is symmetric, bounded, and 1 on self.
    #[test]
    fn explicit_jaccard_axioms(xs in item_set(), ys in item_set()) {
        let store = ProfileStore::from_item_lists(vec![xs.clone(), ys]);
        let j = store.jaccard(0, 1);
        prop_assert!((0.0..=1.0).contains(&j));
        prop_assert_eq!(j, store.jaccard(1, 0));
        if !xs.is_empty() {
            prop_assert!((store.jaccard(0, 0) - 1.0).abs() < 1e-12);
        }
    }

    /// SHF estimator axioms: symmetric, in [0,1], exact 1 on identical
    /// non-empty profiles, and store/solo agreement.
    #[test]
    fn shf_estimator_axioms(
        xs in item_set(),
        ys in item_set(),
        bits in prop_oneof![Just(64u32), Just(256), Just(1024)],
        seed in 0u64..8,
    ) {
        let params = ShfParams::new(bits, DynHasher::new(HasherKind::Jenkins, seed));
        let fa = params.fingerprint(&xs);
        let fb = params.fingerprint(&ys);
        let j = fa.jaccard(&fb);
        prop_assert!((0.0..=1.0).contains(&j), "j = {j}");
        prop_assert_eq!(j, fb.jaccard(&fa));
        if !xs.is_empty() {
            prop_assert!((fa.jaccard(&fa) - 1.0).abs() < 1e-12);
        }
        let store = params.fingerprint_store(
            &ProfileStore::from_item_lists(vec![xs, ys]),
        );
        prop_assert!((store.jaccard(0, 1) - j).abs() < 1e-12);
    }

    /// The estimator never *underestimates below* what the common items
    /// force: hashing identical items always produces identical bits, so
    /// fingerprints of supersets keep intersecting.
    #[test]
    fn subset_keeps_full_overlap(xs in proptest::collection::vec(0u32..2000, 1..150)) {
        let params = ShfParams::new(1024, DynHasher::default());
        let full = Profile::from_items(xs.clone());
        let half: Vec<u32> = full.items().iter().copied().step_by(2).collect();
        let f_full = params.fingerprint(full.items());
        let f_half = params.fingerprint(&half);
        // Every bit of the subset fingerprint is set in the superset's.
        prop_assert_eq!(
            f_half.bits().and_count(f_full.bits()),
            f_half.cardinality()
        );
    }

    /// Hash positions are always within range, for every hasher kind.
    #[test]
    fn hash_positions_in_range(
        item in any::<u64>(),
        bits in 1u32..10_000,
        kind in prop_oneof![
            Just(HasherKind::Jenkins),
            Just(HasherKind::Lookup3),
            Just(HasherKind::SplitMix),
            Just(HasherKind::FxLike),
        ],
    ) {
        let h = DynHasher::new(kind, 7);
        prop_assert!(h.bit_position(item, bits) < bits);
    }

    /// Delta fingerprinting is bit-identical to a from-scratch
    /// refingerprint of the grown profiles: for every hasher kind, for
    /// batched application at 1 and 4 pool threads, and as scored by
    /// every available similarity kernel.
    #[test]
    fn apply_delta_equals_from_scratch_refingerprint(
        mut lists in proptest::collection::vec(item_set(), 1..6),
        fresh in proptest::collection::vec(item_set(), 1..6),
        kind in prop_oneof![
            Just(HasherKind::Jenkins),
            Just(HasherKind::Lookup3),
            Just(HasherKind::SplitMix),
            Just(HasherKind::FxLike),
        ],
    ) {
        use goldfinger_core::pool::Pool;
        let params = ShfParams::new(448, DynHasher::new(kind, 11));
        let base = params.fingerprint_store(&ProfileStore::from_item_lists(lists.clone()));
        let deltas: Vec<(u32, Vec<u32>)> = fresh
            .iter()
            .enumerate()
            .map(|(i, items)| ((i % lists.len()) as u32, items.clone()))
            .collect();
        for (u, items) in &deltas {
            lists[*u as usize].extend(items);
        }
        let scratch = params.fingerprint_store(&ProfileStore::from_item_lists(lists.clone()));
        for threads in [1usize, 4] {
            let mut grown = base.clone();
            Pool::new(threads).install(|| grown.apply_deltas(&deltas));
            for u in 0..lists.len() as u32 {
                prop_assert_eq!(
                    grown.fingerprint_words(u),
                    scratch.fingerprint_words(u),
                    "threads={} user={}", threads, u
                );
                prop_assert_eq!(grown.cardinality(u), scratch.cardinality(u));
            }
            // Every kernel variant scores the delta-built and the
            // scratch-built arenas identically.
            for kernel in kernels::available() {
                for u in 0..lists.len() as u32 {
                    prop_assert_eq!(
                        (kernel.and_count)(grown.fingerprint_words(0), grown.fingerprint_words(u)),
                        (kernel.and_count)(scratch.fingerprint_words(0), scratch.fingerprint_words(u)),
                        "{} user {}", kernel.name, u
                    );
                }
            }
        }
    }

    /// TopK equals sort-and-truncate for arbitrary inputs.
    #[test]
    fn topk_matches_sort(
        sims in proptest::collection::vec(0u32..=1000, 1..200),
        k in 1usize..40,
    ) {
        let pairs: Vec<(f64, u32)> = sims
            .iter()
            .enumerate()
            .map(|(i, &s)| (s as f64 / 1000.0, i as u32))
            .collect();
        let mut t = TopK::new(k);
        for &(s, u) in &pairs {
            t.offer(s, u);
        }
        let got: Vec<u32> = t.into_sorted().iter().map(|e| e.user).collect();
        let mut sorted = pairs;
        sorted.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap().then(a.1.cmp(&b.1)));
        let want: Vec<u32> = sorted.iter().take(k).map(|&(_, u)| u).collect();
        prop_assert_eq!(got, want);
    }
}
