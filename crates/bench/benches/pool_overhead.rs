//! Criterion bench for the persistent worker pool: dispatch on an installed
//! pool vs a call-scoped pool (built and dropped per helper call, what the
//! helpers do when no pool is installed) on the same helper, across work
//! sizes; the same comparison for a multi-threaded NNDescent build; and a
//! wake-latency sweep of a 2-slot dispatch against running both slots
//! inline, across per-slot work sizes.
//!
//! NNDescent and Hyrec call a parallel helper twice per join window, so
//! the fixed dispatch cost is paid hundreds of times per build. An
//! installed pool replaces an OS spawn/join per call with a condvar
//! broadcast; at n = 1k trivial tasks it must win clearly, and by n = 100k
//! real work amortises both paths toward parity. The broadcast is cheap
//! for the dispatcher, not for the worker: between dispatches the workers
//! park, and a parked worker must be woken before it claims a slot. With
//! too little work per slot the dispatcher drains both slots itself
//! before the worker arrives, and the dispatch is slower than running the
//! slots inline; the `pool_wake` sweep finds the slot length from which
//! the wake-up pays back, after no idle gap and after a longer one.

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
use std::time::{Duration, Instant};

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

/// `iters` rounds of a xorshift chain: a fixed amount of per-slot work
/// the compiler cannot shortcut (~2 ns a round on a ~3 GHz core).
fn spin_work(iters: u64) -> u64 {
    let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
    for _ in 0..iters {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    x
}

/// Keeps the calling thread busy for `gap` while the pool's worker stays
/// parked, as when a dispatch follows a stretch of serial work.
fn busy_for(gap: Duration) {
    let start = Instant::now();
    while start.elapsed() < gap {
        std::hint::spin_loop();
    }
}

/// Two slots of `spin_work` on a 2-thread pool (the dispatcher and one
/// worker, parked between dispatches) vs both slots run inline, from a
/// few µs to ~1.5 ms of work per slot. Each dispatch follows a busy gap of
/// 0 (back-to-back dispatches, as inside one build) or 1 ms (a worker
/// parked for longer); both sides pay the same gap.
fn bench_wake_latency(c: &mut Criterion) {
    let pool = Pool::new(2);
    let mut group = c.benchmark_group("pool_wake");
    for gap_us in [0u64, 1_000] {
        let gap = Duration::from_micros(gap_us);
        for iters in [2_500u64, 12_500, 50_000, 235_000, 750_000] {
            group.bench_function(format!("inline_gap{gap_us}us_{iters}"), |b| {
                b.iter(|| {
                    busy_for(gap);
                    black_box(spin_work(iters)) ^ black_box(spin_work(iters))
                })
            });
            group.bench_function(format!("pooled_gap{gap_us}us_{iters}"), |b| {
                b.iter(|| {
                    busy_for(gap);
                    pool.scope(2, |_| {
                        black_box(spin_work(iters));
                    })
                })
            });
        }
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
    targets = bench_dispatch, bench_nndescent_iterations, bench_wake_latency
}
criterion_main!(benches);
