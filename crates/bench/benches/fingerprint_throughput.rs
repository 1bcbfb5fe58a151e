//! Ingest-speed bench: associations/second through each fingerprinting
//! path, plus the delta-update path against its from-scratch baseline.
//!
//! - `shf_1024`: GoldFinger SHFs (one hash + one OR per association) —
//!   the paper's Table 3 headline.
//! - `minhash_classic_256` vs `minhash_onepass_256`: hashed MinHash at
//!   the paper's 256 permutations, per-permutation hashing vs one-pass
//!   sketching (`SketchMode`). The one-pass path must be ≥ 3× faster —
//!   it hashes each item once instead of 256 times.
//! - `apply_delta_1_item` vs `refingerprint_1_user`: folding a
//!   single-item delta into an existing fingerprint vs refingerprinting
//!   the whole profile from scratch — the serve drain's delta path must
//!   be ≥ 5× faster.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use goldfinger_core::hash::{DynHasher, HasherKind};
use goldfinger_core::shf::ShfParams;
use goldfinger_datasets::synth::SynthConfig;
use goldfinger_minhash::{MinHashParams, MinHashStore, PermutationStrategy, SketchMode};
use std::hint::black_box;
use std::time::Duration;

fn bench(c: &mut Criterion) {
    let data = SynthConfig::ml1m()
        .scaled(0.02)
        .with_seed(42)
        .generate()
        .prepare();
    let profiles = data.profiles();
    let associations = profiles.n_associations() as u64;
    let params = ShfParams::new(1024, DynHasher::new(HasherKind::Jenkins, 42));
    let minhash = |strategy| MinHashParams {
        permutations: 256,
        strategy,
        seed: 42,
    };

    let mut group = c.benchmark_group("fingerprint_throughput");
    group.throughput(Throughput::Elements(associations));
    group.bench_function("shf_1024", |b| {
        b.iter(|| black_box(params.fingerprint_store(profiles)))
    });
    group.bench_function("minhash_classic_256", |b| {
        b.iter(|| {
            black_box(MinHashStore::build_with_mode(
                minhash(PermutationStrategy::Hashed),
                profiles,
                SketchMode::Classic,
            ))
        })
    });
    group.bench_function("minhash_onepass_256", |b| {
        b.iter(|| {
            black_box(MinHashStore::build_with_mode(
                minhash(PermutationStrategy::Hashed),
                profiles,
                SketchMode::OnePass,
            ))
        })
    });
    group.finish();

    // Delta path: one new item for the heaviest user, applied to a grown
    // copy of the store vs refingerprinting that user's full profile.
    let store = params.fingerprint_store(profiles);
    let (victim, _) = (0..profiles.n_users() as u32)
        .map(|u| (u, profiles.profile_len(u)))
        .max_by_key(|&(_, len)| len)
        .unwrap();
    let mut extended: Vec<u32> = profiles.items(victim).to_vec();
    extended.push(u32::MAX - 7);

    let mut group = c.benchmark_group("delta_update");
    group.throughput(Throughput::Elements(1));
    group.bench_function("apply_delta_1_item", |b| {
        let mut grown = store.clone();
        b.iter(|| black_box(grown.apply_delta(victim, &[u32::MAX - 7])))
    });
    group.bench_function("refingerprint_1_user", |b| {
        b.iter(|| black_box(params.fingerprint(&extended)))
    });
    group.finish();
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2))
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench
}
criterion_main!(benches);
