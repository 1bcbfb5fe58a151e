//! Property tests for persistence and the extended estimators.

use goldfinger_core::blip::{BlipParams, BlipStore};
use goldfinger_core::estimate::{corrected_jaccard_from_counts, estimate_set_size};
use goldfinger_core::hash::DynHasher;
use goldfinger_core::profile::ProfileStore;
use goldfinger_core::serial::{
    read_profile_store, read_shf_store, write_profile_store, write_shf_store,
};
use goldfinger_core::shf::ShfParams;
use proptest::prelude::*;

fn populations() -> impl Strategy<Value = Vec<Vec<u32>>> {
    proptest::collection::vec(proptest::collection::vec(0u32..2_000, 0..80), 0..12)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any fingerprint store survives a serialisation roundtrip exactly.
    #[test]
    fn shf_store_roundtrips(lists in populations(), bits in prop_oneof![Just(64u32), Just(100), Just(256)]) {
        let profiles = ProfileStore::from_item_lists(lists);
        let store = ShfParams::new(bits, DynHasher::default()).fingerprint_store(&profiles);
        let mut buf = Vec::new();
        write_shf_store(&store, &mut buf).unwrap();
        let back = read_shf_store(&mut buf.as_slice()).unwrap();
        prop_assert_eq!(back.len(), store.len());
        prop_assert_eq!(back.width(), store.width());
        for u in 0..store.len() as u32 {
            prop_assert_eq!(back.fingerprint_words(u), store.fingerprint_words(u));
            prop_assert_eq!(back.cardinality(u), store.cardinality(u));
        }
    }

    /// Any profile store survives a roundtrip exactly.
    #[test]
    fn profile_store_roundtrips(lists in populations()) {
        let profiles = ProfileStore::from_item_lists(lists);
        let mut buf = Vec::new();
        write_profile_store(&profiles, &mut buf).unwrap();
        let back = read_profile_store(&mut buf.as_slice()).unwrap();
        prop_assert_eq!(back.n_users(), profiles.n_users());
        for u in 0..profiles.n_users() as u32 {
            prop_assert_eq!(back.items(u), profiles.items(u));
        }
    }

    /// Truncating a serialised store anywhere always errors, never panics
    /// or returns a wrong store.
    #[test]
    fn truncated_shf_payloads_always_error(cut in 0usize..200) {
        let profiles = ProfileStore::from_item_lists(vec![
            (0..30).collect(),
            (10..50).collect(),
        ]);
        let store = ShfParams::new(128, DynHasher::default()).fingerprint_store(&profiles);
        let mut buf = Vec::new();
        write_shf_store(&store, &mut buf).unwrap();
        if cut < buf.len() {
            buf.truncate(cut);
            prop_assert!(read_shf_store(&mut buf.as_slice()).is_err());
        }
    }

    /// Linear counting is monotone and bounded by its inputs, saturated
    /// rows included.
    #[test]
    fn set_size_estimate_is_monotone((b, c) in prop_oneof![
        (Just(64u32), 0..=64u32),
        (Just(256u32), 0..=256u32),
        (Just(1024u32), 0..=1024u32),
    ]) {
        let here = estimate_set_size(c, b);
        prop_assert!(here >= c as f64 - 1e-9, "n̂ ≥ c");
        if c < b {
            prop_assert!(estimate_set_size(c + 1, b) > here);
        }
    }

    /// The corrected estimator is always a valid similarity, for any
    /// counts a width-`b` fingerprint pair can produce.
    #[test]
    fn corrected_estimator_stays_in_range((b, and_count, c1, c2) in prop_oneof![
        (Just(64u32), 0..=64u32, 0..=64u32, 0..=64u32),
        (Just(256u32), 0..=256u32, 0..=256u32, 0..=256u32),
        (Just(1024u32), 0..=1024u32, 0..=1024u32, 0..=1024u32),
    ]) {
        let and_count = and_count % (c1.min(c2) + 1);
        let j = corrected_jaccard_from_counts(and_count, c1, c2, b);
        prop_assert!((0.0..=1.0).contains(&j), "j = {j}");
    }

    /// BLIP estimates are valid similarities for any epsilon and seed.
    #[test]
    fn blip_estimates_stay_in_range(eps_tenths in 1u32..80, seed in 0u64..20) {
        let profiles = ProfileStore::from_item_lists(vec![
            (0..50).collect(),
            (25..75).collect(),
        ]);
        let store = ShfParams::new(256, DynHasher::default()).fingerprint_store(&profiles);
        let noisy = BlipStore::from_shf_store(
            &store,
            BlipParams { epsilon: eps_tenths as f64 / 10.0, seed },
        );
        let j = noisy.jaccard(0, 1);
        prop_assert!((0.0..=1.0).contains(&j));
    }
}
