//! Criterion bench for the tiled brute-force scan engine: the fused batch
//! AND+popcount kernel against the per-pair kernel, and the whole scan on
//! explicit and fingerprint providers.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use goldfinger_core::bits::{and_count_words, and_count_words_batch, BitArray};
use goldfinger_core::hash::{DynHasher, HasherKind};
use goldfinger_core::profile::ProfileStore;
use goldfinger_core::shf::ShfParams;
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
    // 128 bits: the fused pair loop shares query loads across fingerprints
    // (~2x). 1024 bits: popcount-bound, both kernels stream at parity.
    for bits in [128u32, BITS] {
        let mut rng = StdRng::seed_from_u64(7);
        let query = random_fp(bits, &mut rng);
        let fps: Vec<BitArray> = (0..BLOCK).map(|_| random_fp(bits, &mut rng)).collect();
        let block: Vec<u64> = fps.iter().flat_map(|f| f.words().iter().copied()).collect();
        group.bench_function(format!("per_pair_{bits}"), |b| {
            b.iter(|| {
                let mut acc = 0u64;
                for fp in &fps {
                    acc += and_count_words(query.words(), fp.words()) as u64;
                }
                black_box(acc)
            })
        });
        group.bench_function(format!("batch_fused_{bits}"), |b| {
            let mut counts = vec![0u32; BLOCK];
            b.iter(|| {
                and_count_words_batch(query.words(), &block, &mut counts);
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
