//! Criterion bench for the tiled brute-force scan engine: the store's
//! gather AND+popcount kernel (`ShfStore::and_counts_gather`, which
//! `ShfStore::estimate_batch` drives for every row of a tile cell, whatever
//! the provider's count function) against the per-pair kernel, and the
//! whole scan on explicit and fingerprint providers.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use goldfinger_core::bits::{and_count_words, BitArray};
use goldfinger_core::hash::{DynHasher, HasherKind};
use goldfinger_core::profile::ProfileStore;
use goldfinger_core::shf::{ShfParams, ShfStore};
use goldfinger_core::similarity::{ExplicitJaccard, ShfJaccard, Similarity};
use goldfinger_knn::brute::BruteForce;
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Duration;

const BITS: u32 = 1024;
const BLOCK: usize = 128;

fn random_fp(bits: u32, rng: &mut StdRng) -> BitArray {
    let positions: Vec<u32> = (0..bits).filter(|_| rng.gen_bool(0.3)).collect();
    BitArray::from_positions(bits, positions)
}

/// Profiles of skewed sizes, 1–120 items each.
fn skewed_profiles(n: usize, rng: &mut StdRng) -> ProfileStore {
    let lists = (0..n)
        .map(|_| {
            let len = 1 + rng.gen_range(0..120usize);
            let base = rng.gen_range(0..500u32);
            (0..len as u32).map(|i| base + i * 3).collect()
        })
        .collect();
    ProfileStore::from_item_lists(lists)
}

fn bench_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("brute_scan_kernels");
    group.throughput(Throughput::Elements(BLOCK as u64));
    for bits in [128u32, BITS] {
        let mut rng = StdRng::seed_from_u64(7);
        // Row 0 is the query, rows 1..=BLOCK the block.
        let rows: Vec<BitArray> = (0..=BLOCK).map(|_| random_fp(bits, &mut rng)).collect();
        let store = ShfStore::from_raw_parts(
            ShfParams::new(bits, DynHasher::default()),
            rows.iter().map(BitArray::count_ones).collect(),
            rows.iter()
                .flat_map(|r| r.words().iter().copied())
                .collect(),
        );
        let ids: Vec<u32> = (1..=BLOCK as u32).collect();
        group.bench_function(format!("per_pair_{bits}"), |b| {
            b.iter(|| {
                let mut acc = 0u64;
                for &v in &ids {
                    acc += and_count_words(store.fingerprint_words(0), store.fingerprint_words(v))
                        as u64;
                }
                black_box(acc)
            })
        });
        group.bench_function(format!("gather_{bits}"), |b| {
            let mut counts = vec![0u32; BLOCK];
            b.iter(|| {
                store.and_counts_gather(0, &ids, &mut counts);
                black_box(counts.iter().map(|&c| c as u64).sum::<u64>())
            })
        });
    }
    group.finish();
}

fn bench_scan(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(11);
    let profiles = skewed_profiles(400, &mut rng);
    let store =
        ShfParams::new(BITS, DynHasher::new(HasherKind::Jenkins, 42)).fingerprint_store(&profiles);

    let explicit = ExplicitJaccard::new(&profiles);
    let shf = ShfJaccard::new(&store);
    let providers: [(&str, &dyn Similarity); 2] = [("explicit", &explicit), ("shf", &shf)];
    let mut group = c.benchmark_group("brute_scan_engine");
    for (name, sim) in providers {
        group.bench_function(name, |b| {
            b.iter(|| {
                let r = BruteForce {
                    threads: 1,
                    tile: 0,
                }
                .build(sim, 5);
                black_box(r.stats.similarity_evals)
            })
        });
    }
    group.finish();
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(20)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(600))
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_kernels, bench_scan
}
criterion_main!(benches);
