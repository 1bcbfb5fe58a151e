//! Streaming dataset ingestion: fingerprint a ratings file at I/O speed
//! with bounded memory.
//!
//! The in-memory path materializes every triple
//! (`load → RatingsDataset → prepare() → ProfileStore →
//! fingerprint_store`), which costs RAM proportional to the *ratings*.
//! [`stream_fingerprint`] produces the **bit-identical** [`ShfStore`]
//! with peak memory proportional to `users + items + arena` instead:
//!
//! ```text
//! pass 1   TripleReader ──► intern users/items (first-seen order)
//!                            + count ratings per user (pre-binarize)
//!          filter: keep users with ≥ min ratings, renumber ascending
//! pass 2   TripleReader ──► batch (row, item) positives
//!                 │               (value > threshold, user kept)
//!                 ▼
//!          ShfStreamWriter::ingest_batch        (core::pool workers
//!                 │                              hash + OR arena rows
//!                 ▼                              in place, stripe-wise)
//!          ShfStreamWriter::finish ──► ShfStore (popcount cardinalities)
//! ```
//!
//! Pass 1 mirrors [`RatingsDataset::from_sparse_ids`] (interning order)
//! and [`RatingsDataset::filter_min_ratings`] (pre-binarization counts,
//! ascending renumbering) exactly; pass 2 mirrors
//! [`RatingsDataset::binarize`]'s strict `value > threshold` rule. Since
//! OR-ing bits is idempotent and order-independent, the resulting arena
//! and cardinalities equal the in-memory path's for any thread count and
//! batch size — the streaming-equality tests pin this.
//!
//! [`RatingsDataset::from_sparse_ids`]: crate::model::RatingsDataset::from_sparse_ids
//! [`RatingsDataset::filter_min_ratings`]: crate::model::RatingsDataset::filter_min_ratings
//! [`RatingsDataset::binarize`]: crate::model::RatingsDataset::binarize

use crate::load::{LoadError, RatingsFormat, TripleReader};
use crate::model::{BINARIZE_THRESHOLD, MIN_RATINGS_PER_USER};
use goldfinger_core::shf::{ShfParams, ShfStore, ShfStreamWriter};
use std::collections::HashMap;
use std::fs::File;
use std::path::Path;

/// Knobs of the streaming pipeline. The defaults reproduce the paper's
/// standard preparation (`prepare()`).
#[derive(Debug, Clone, Copy)]
pub struct StreamConfig {
    /// Minimum pre-binarization ratings for a user to be kept.
    pub min_ratings: usize,
    /// Strict binarization threshold (`value > threshold` is positive).
    pub threshold: f32,
    /// Associations buffered before a batch is handed to the pool
    /// workers — the only part of pass 2 whose memory scales with
    /// anything, and it is a constant.
    pub batch: usize,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            min_ratings: MIN_RATINGS_PER_USER,
            threshold: BINARIZE_THRESHOLD,
            batch: 1 << 16,
        }
    }
}

/// What the two passes saw (the streaming stand-in for
/// [`crate::stats::DatasetStats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamSummary {
    /// Distinct users in the file, before the min-ratings filter.
    pub raw_users: usize,
    /// Users kept (= rows of the returned store).
    pub kept_users: usize,
    /// Distinct items in the file.
    pub n_items: usize,
    /// Total ratings read per pass.
    pub n_ratings: usize,
    /// Positive associations OR-ed into the arena (kept user, value
    /// strictly above the threshold; duplicates counted as read).
    pub n_positive: usize,
}

/// Streams `path` twice and fingerprints every kept user directly into a
/// packed [`ShfStore`] — no [`crate::model::RatingsDataset`], no
/// [`goldfinger_core::profile::ProfileStore`], no triple vector. The
/// result is bit-identical to
/// `load(path).filter_min_ratings(min).binarize(threshold)` followed by
/// `params.fingerprint_store(..)`.
pub fn stream_fingerprint(
    path: impl AsRef<Path>,
    format: RatingsFormat,
    params: &ShfParams,
    cfg: &StreamConfig,
) -> Result<(ShfStore, StreamSummary), LoadError> {
    stream_fingerprint_inner(path.as_ref(), format, params, cfg, None)
}

/// [`stream_fingerprint`] with the arena **spilled**: fingerprint rows go
/// straight into the mapped rows of the store file `out` (see
/// [`goldfinger_core::serial`]) instead of the heap, so ingesting a
/// dataset whose fingerprints exceed RAM stays bounded — the kernel writes
/// cold arena pages back as the build proceeds. The finished file is
/// sealed ([`ShfStore::open_spilled`] reopens it) and holds the store
/// bit-identical to the heap path. Linux only; elsewhere the spill
/// request fails with `Unsupported` rather than silently falling back.
pub fn stream_fingerprint_spilled(
    path: impl AsRef<Path>,
    format: RatingsFormat,
    params: &ShfParams,
    cfg: &StreamConfig,
    out: impl AsRef<Path>,
) -> Result<(ShfStore, StreamSummary), LoadError> {
    stream_fingerprint_inner(path.as_ref(), format, params, cfg, Some(out.as_ref()))
}

fn stream_fingerprint_inner(
    path: &Path,
    format: RatingsFormat,
    params: &ShfParams,
    cfg: &StreamConfig,
    out: Option<&Path>,
) -> Result<(ShfStore, StreamSummary), LoadError> {
    // Pass 1: intern ids in first-seen order, count ratings per user.
    let mut users: HashMap<u64, u32> = HashMap::new();
    let mut items: HashMap<u64, u32> = HashMap::new();
    let mut counts: Vec<usize> = Vec::new();
    let mut n_ratings = 0usize;
    for triple in TripleReader::new(File::open(path)?, format) {
        let (u, i, _v) = triple?;
        let next_u = users.len() as u32;
        let du = *users.entry(u).or_insert(next_u);
        if du as usize == counts.len() {
            counts.push(0);
        }
        counts[du as usize] += 1;
        let next_i = items.len() as u32;
        items.entry(i).or_insert(next_i);
        n_ratings += 1;
    }

    // The min-ratings filter, as a row remap: survivors keep their
    // relative order (ascending dense id), exactly like
    // `filter_min_ratings`.
    let mut remap = vec![u32::MAX; counts.len()];
    let mut kept = 0u32;
    for (u, &c) in counts.iter().enumerate() {
        if c >= cfg.min_ratings {
            remap[u] = kept;
            kept += 1;
        }
    }

    // Pass 2: batch the positive associations of kept users into the
    // pool-parallel arena writer (heap or spilled, same row layout).
    let mut writer = match out {
        Some(file) => {
            ShfStreamWriter::new_spilled(*params, kept as usize, file).map_err(LoadError::Io)?
        }
        None => ShfStreamWriter::new(*params, kept as usize),
    };
    let mut batch: Vec<(u32, u32)> = Vec::with_capacity(cfg.batch.max(1));
    let mut n_positive = 0usize;
    for triple in TripleReader::new(File::open(path)?, format) {
        let (u, i, v) = triple?;
        let row = remap[users[&u] as usize];
        if row != u32::MAX && v > cfg.threshold {
            batch.push((row, items[&i]));
            n_positive += 1;
            if batch.len() >= cfg.batch.max(1) {
                writer.ingest_batch(&batch);
                batch.clear();
            }
        }
    }
    writer.ingest_batch(&batch);

    Ok((
        writer.finish()?,
        StreamSummary {
            raw_users: users.len(),
            kept_users: kept as usize,
            n_items: items.len(),
            n_ratings,
            n_positive,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::load::load_movielens_dat;
    use goldfinger_core::hash::DynHasher;

    fn write_fixture(lines: &str) -> std::path::PathBuf {
        let path = std::env::temp_dir().join(format!(
            "gf-stream-{}-{}.dat",
            std::process::id(),
            lines.len()
        ));
        std::fs::write(&path, lines).unwrap();
        path
    }

    #[test]
    fn streaming_equals_in_memory_on_a_small_file() {
        // Three users: one kept with mixed ratings, one dropped by the
        // min-ratings filter, one kept with all positives.
        let mut content = String::new();
        for i in 0..6 {
            content.push_str(&format!("10::{}::{}::0\n", 100 + i, 2 + i % 4));
        }
        content.push_str("20::100::5::0\n"); // dropped: one rating
        for i in 0..5 {
            content.push_str(&format!("30::{}::5::0\n", 100 + i));
        }
        let path = write_fixture(&content);
        let params = ShfParams::new(256, DynHasher::default());
        let cfg = StreamConfig {
            min_ratings: 5,
            threshold: 3.0,
            batch: 2,
        };
        let (streamed, summary) =
            stream_fingerprint(&path, RatingsFormat::MovielensDat, &params, &cfg).unwrap();
        let reference = params.fingerprint_store(
            load_movielens_dat(&path, "t")
                .unwrap()
                .filter_min_ratings(5)
                .binarize(3.0)
                .profiles(),
        );
        std::fs::remove_file(&path).unwrap();
        assert_eq!(summary.raw_users, 3);
        assert_eq!(summary.kept_users, 2);
        assert_eq!(summary.n_ratings, 12);
        assert_eq!(streamed.len(), reference.len());
        for u in 0..reference.len() as u32 {
            assert_eq!(
                streamed.fingerprint_words(u),
                reference.fingerprint_words(u)
            );
            assert_eq!(streamed.cardinality(u), reference.cardinality(u));
        }
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn spilled_streaming_seals_a_bit_identical_store_on_disk() {
        let mut content = String::new();
        for u in [1u32, 2, 3] {
            for i in 0..7 {
                content.push_str(&format!("{u}::{}::5::0\n", 50 * u + i));
            }
        }
        let path = write_fixture(&content);
        let file = std::env::temp_dir().join(format!("gf-stream-{}.store", std::process::id()));
        let params = ShfParams::new(128, DynHasher::default());
        let cfg = StreamConfig {
            min_ratings: 5,
            ..StreamConfig::default()
        };
        let (spilled, summary) =
            stream_fingerprint_spilled(&path, RatingsFormat::MovielensDat, &params, &cfg, &file)
                .unwrap();
        let (heap, _) =
            stream_fingerprint(&path, RatingsFormat::MovielensDat, &params, &cfg).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(summary.kept_users, 3);
        assert!(spilled.is_spilled());
        for u in 0..heap.len() as u32 {
            assert_eq!(spilled.fingerprint_words(u), heap.fingerprint_words(u));
            assert_eq!(spilled.cardinality(u), heap.cardinality(u));
        }
        // The sealed file reopens as the same store, hasher included.
        drop(spilled);
        let reopened = goldfinger_core::shf::ShfStore::open_spilled(&file).unwrap();
        assert_eq!(reopened.params(), &params);
        for u in 0..heap.len() as u32 {
            assert_eq!(reopened.fingerprint_words(u), heap.fingerprint_words(u));
        }
        drop(reopened);
        std::fs::remove_file(&file).unwrap();
    }

    #[test]
    fn parse_errors_surface_from_either_pass() {
        let path = write_fixture("1::bad::5::0\n");
        let err = stream_fingerprint(
            &path,
            RatingsFormat::MovielensDat,
            &ShfParams::new(64, DynHasher::default()),
            &StreamConfig::default(),
        )
        .unwrap_err();
        std::fs::remove_file(&path).unwrap();
        assert!(matches!(err, LoadError::Parse { line: 1, .. }), "{err}");
    }
}
