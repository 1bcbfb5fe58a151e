//! Criterion bench for the persistent worker pool: dispatch on an installed
//! pool vs a call-scoped pool (built and dropped per helper call, what the
//! helpers do when no pool is installed) on the same helper, across work
//! sizes, and the same comparison for a multi-threaded NNDescent build.
//!
//! The pool exists for the per-iteration regime: NNDescent and Hyrec call a
//! parallel helper twice per join window, so the fixed dispatch cost (OS
//! spawn/join vs condvar broadcast to parked workers) is paid many times
//! per build. At n = 1k trivial tasks the dispatch cost dominates and the
//! installed pool must win clearly; by n = 100k real work amortises both
//! paths toward parity.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use goldfinger_core::parallel::par_fold_dynamic;
use goldfinger_core::pool::Pool;
use goldfinger_core::profile::ProfileStore;
use goldfinger_core::similarity::ExplicitJaccard;
use goldfinger_knn::nndescent::NNDescent;
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Duration;

const THREADS: usize = 4;

/// One dispatch of `n` trivial (single add) tasks, one block per slot.
fn trivial_dispatch(n: usize) -> u64 {
    let grain = n.div_ceil(THREADS);
    par_fold_dynamic(n, THREADS, grain, |_| 0u64, |acc, i| *acc += i as u64)
        .into_iter()
        .sum()
}

fn bench_dispatch(c: &mut Criterion) {
    let pool = Pool::new(THREADS);
    let mut group = c.benchmark_group("pool_dispatch");
    for n in [1_000usize, 10_000, 100_000] {
        group.throughput(Throughput::Elements(n as u64));
        group.bench_function(format!("call_scoped_pool_{n}"), |b| {
            b.iter(|| black_box(trivial_dispatch(n)))
        });
        group.bench_function(format!("pooled_{n}"), |b| {
            b.iter(|| black_box(pool.install(|| trivial_dispatch(n))))
        });
    }
    group.finish();
}

fn random_profiles(n: usize, rng: &mut StdRng) -> ProfileStore {
    let lists = (0..n)
        .map(|_| {
            let len = 5 + rng.gen_range(0..40usize);
            let base = rng.gen_range(0..300u32);
            (0..len as u32).map(|i| base + i * 2).collect()
        })
        .collect();
    ProfileStore::from_item_lists(lists)
}

/// A full multi-threaded NNDescent build (its join phase dispatches to the
/// parallel helpers once per iteration — the pool's target workload).
fn bench_nndescent_iterations(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(13);
    let profiles = random_profiles(300, &mut rng);
    let sim = ExplicitJaccard::new(&profiles);
    let builder = NNDescent {
        threads: THREADS,
        max_iterations: 5,
        ..NNDescent::default()
    };
    let pool = Pool::new(THREADS);
    let mut group = c.benchmark_group("pool_nndescent");
    group.bench_function("call_scoped_pools", |b| {
        b.iter(|| black_box(builder.build(&sim, 10).stats.iterations))
    });
    group.bench_function("pooled_iterations", |b| {
        b.iter(|| black_box(pool.install(|| builder.build(&sim, 10).stats.iterations)))
    });
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
    targets = bench_dispatch, bench_nndescent_iterations
}
criterion_main!(benches);
