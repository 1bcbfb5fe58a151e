//! Property tests for persistence and the extended estimators.

use goldfinger_core::blip::{BlipParams, BlipStore};
use goldfinger_core::estimate::{corrected_jaccard_from_counts, estimate_set_size};
use goldfinger_core::hash::{DynHasher, HasherKind};
use goldfinger_core::profile::ProfileStore;
use goldfinger_core::serial::{read_store, write_store};
use goldfinger_core::shf::{ShfParams, ShfStore};
use proptest::prelude::*;

fn populations() -> impl Strategy<Value = Vec<Vec<u32>>> {
    proptest::collection::vec(proptest::collection::vec(0u32..2_000, 0..80), 0..12)
}

/// Asserts that two stores are bit-equal: width and hasher, rows
/// (padding included) and cards.
fn assert_same(got: &ShfStore, want: &ShfStore, what: &str) {
    assert_eq!(got.params(), want.params(), "{what}");
    assert_eq!(got.arena_words(), want.arena_words(), "{what}");
    let cards = |s: &ShfStore| {
        (0..s.len() as u32)
            .map(|u| s.cardinality(u))
            .collect::<Vec<_>>()
    };
    assert_eq!(cards(got), cards(want), "{what}");
}

/// Reopens the store file at `path` by reading and, on Linux, by mapping,
/// and checks both against `want`.
fn assert_reopens(path: &std::path::Path, want: &ShfStore, what: &str) {
    let file = std::fs::File::open(path).unwrap();
    let read = read_store(&mut std::io::BufReader::new(file)).unwrap();
    assert_same(&read, want, &format!("{what}, read"));
    #[cfg(target_os = "linux")]
    assert_same(
        &ShfStore::open_spilled(path).unwrap(),
        want,
        &format!("{what}, mapped"),
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any store, made with any hasher, survives its file exactly: written
    /// by `write_store`, by `spill_to` and by the spilled stream writer, and
    /// reopened by reading and by mapping, it keeps its rows, cards, width
    /// and hasher.
    #[test]
    fn store_file_reopens_bit_equal(
        lists in populations(),
        bits in prop_oneof![Just(64u32), Just(100), Just(256), Just(640)],
        kind in prop_oneof![
            Just(HasherKind::Jenkins),
            Just(HasherKind::Lookup3),
            Just(HasherKind::SplitMix),
            Just(HasherKind::FxLike),
        ],
        seed in any::<u64>(),
    ) {
        let params = ShfParams::new(bits, DynHasher::new(kind, seed));
        let profiles = ProfileStore::from_item_lists(lists);
        let store = params.fingerprint_store(&profiles);
        let path = std::env::temp_dir()
            .join(format!("gf-serialprop-{}.store", std::process::id()));

        let mut buf = Vec::new();
        write_store(&store, &mut buf).unwrap();
        assert_same(&read_store(&mut buf.as_slice()).unwrap(), &store, "heap bytes");
        std::fs::write(&path, &buf).unwrap();
        assert_reopens(&path, &store, "write_store");

        #[cfg(target_os = "linux")]
        {
            use goldfinger_core::shf::ShfStreamWriter;
            drop(store.spill_to(&path).unwrap());
            prop_assert_eq!(&std::fs::read(&path).unwrap(), &buf);
            assert_reopens(&path, &store, "spill_to");

            let mut w = ShfStreamWriter::new_spilled(params, profiles.n_users(), &path).unwrap();
            let assoc: Vec<(u32, u32)> = profiles
                .iter()
                .flat_map(|(u, items)| items.iter().map(move |&it| (u, it)))
                .collect();
            w.ingest_batch(&assoc);
            assert_same(&w.finish().unwrap(), &store, "spilled writer");
            assert_reopens(&path, &store, "spilled writer");
        }
        std::fs::remove_file(&path).unwrap();
    }

    /// Truncating a store file anywhere always errors, never panics or
    /// returns a wrong store.
    #[test]
    fn truncated_store_files_always_error(cut in 0usize..70_000) {
        let profiles = ProfileStore::from_item_lists(vec![
            (0..30).collect(),
            (10..50).collect(),
        ]);
        let store = ShfParams::new(128, DynHasher::default()).fingerprint_store(&profiles);
        let mut buf = Vec::new();
        write_store(&store, &mut buf).unwrap();
        buf.truncate(cut % buf.len());
        prop_assert!(read_store(&mut buf.as_slice()).is_err());
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
