//! Streaming-ingest == in-memory-ingest equality on a synthetic file: the
//! two-pass streaming pipeline must produce a bit-identical `ShfStore` for
//! any pool thread count and any batch size.

use goldfinger_core::hash::{DynHasher, HasherKind};
use goldfinger_core::pool::Pool;
use goldfinger_core::shf::ShfParams;
use goldfinger_datasets::load::{load_movielens_dat, load_ratings_csv, RatingsFormat};
use goldfinger_datasets::stream::{stream_fingerprint, StreamConfig};
use goldfinger_datasets::synth::SynthConfig;
use goldfinger_datasets::write::{write_movielens_dat, write_ratings_csv};
use goldfinger_datasets::{BINARIZE_THRESHOLD, MIN_RATINGS_PER_USER};

fn tmp(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("gf-stream-eq-{}-{name}", std::process::id()))
}

#[test]
fn streaming_ingest_equals_in_memory_ingest() {
    // A synthetic ML-like dataset: enough users for the min-ratings
    // filter to bite, sparse ids, repeated (user, item) pairs possible.
    let data = SynthConfig::ml1m().scaled(0.01).with_seed(97).generate();
    let path = tmp("ml.dat");
    let mut file = std::fs::File::create(&path).unwrap();
    write_movielens_dat(&data, &mut file).unwrap();
    drop(file);

    let params = ShfParams::new(1024, DynHasher::new(HasherKind::Jenkins, 42));
    let reference = params.fingerprint_store(
        load_movielens_dat(&path, "t")
            .unwrap()
            .filter_min_ratings(MIN_RATINGS_PER_USER)
            .binarize(BINARIZE_THRESHOLD)
            .profiles(),
    );
    assert!(reference.len() > 10, "fixture too small to be meaningful");

    for threads in [1usize, 4] {
        for batch in [64usize, 1 << 16] {
            let cfg = StreamConfig {
                batch,
                ..StreamConfig::default()
            };
            let (streamed, summary) = Pool::new(threads)
                .install(|| stream_fingerprint(&path, RatingsFormat::MovielensDat, &params, &cfg))
                .unwrap();
            assert_eq!(summary.kept_users, reference.len());
            assert_eq!(streamed.len(), reference.len(), "threads={threads}");
            assert_eq!(streamed.width(), reference.width());
            for u in 0..reference.len() as u32 {
                assert_eq!(
                    streamed.fingerprint_words(u),
                    reference.fingerprint_words(u),
                    "threads={threads} batch={batch} user={u}"
                );
                assert_eq!(streamed.cardinality(u), reference.cardinality(u));
            }
        }
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn streaming_ingest_equals_in_memory_ingest_for_csv() {
    let data = SynthConfig::ml1m().scaled(0.005).with_seed(13).generate();
    let path = tmp("ml.csv");
    let mut file = std::fs::File::create(&path).unwrap();
    write_ratings_csv(&data, &mut file).unwrap();
    drop(file);

    let params = ShfParams::new(256, DynHasher::default());
    let reference = params.fingerprint_store(
        load_ratings_csv(&path, "t")
            .unwrap()
            .filter_min_ratings(MIN_RATINGS_PER_USER)
            .binarize(BINARIZE_THRESHOLD)
            .profiles(),
    );
    let (streamed, _) =
        stream_fingerprint(&path, RatingsFormat::Csv, &params, &StreamConfig::default()).unwrap();
    std::fs::remove_file(&path).unwrap();
    assert_eq!(streamed.len(), reference.len());
    for u in 0..reference.len() as u32 {
        assert_eq!(
            streamed.fingerprint_words(u),
            reference.fingerprint_words(u)
        );
        assert_eq!(streamed.cardinality(u), reference.cardinality(u));
    }
}
