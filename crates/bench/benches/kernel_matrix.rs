//! Criterion bench for the runtime-dispatched similarity kernels: a
//! (fingerprint width × batch size) grid, run once per kernel variant
//! available on the host (`goldfinger_core::kernels::available()`).
//!
//! The grid answers two questions the dispatcher's design depends on:
//!
//! * does the SIMD variant beat the scalar baseline where it matters —
//!   wide fingerprints (≥1024 bits) gathered in batches (≥64 rows)?
//! * does dispatch cost anything at the paper's smallest configuration
//!   (64-bit fingerprints), where the one-word fast path and the stride-1
//!   arena layout must keep the scalar and SIMD variants at parity?
//!
//! Rows are gathered through each variant's `and_counts_gather` entry point
//! exactly as `ShfStore::estimate_batch` drives it: an aligned arena, rows
//! padded to the cache-line stride, ids in shuffled order so the prefetcher
//! works for its living.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use goldfinger_core::arena::{row_words_for, AlignedWords};
use goldfinger_core::bits::BitArray;
use goldfinger_core::kernels;
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Duration;

/// Number of fingerprints in the arena each gather samples from.
const POPULATION: usize = 512;

fn random_fp(bits: u32, rng: &mut StdRng) -> BitArray {
    let positions: Vec<u32> = (0..bits).filter(|_| rng.gen_bool(0.3)).collect();
    BitArray::from_positions(bits, positions)
}

/// An aligned arena of `POPULATION` random fingerprints at `bits` width,
/// rows padded to the cache-line stride like `ShfStore`'s.
fn arena(bits: u32, rng: &mut StdRng) -> (AlignedWords, usize) {
    let w = BitArray::words_for(bits);
    let stride = row_words_for(w);
    let mut data = AlignedWords::zeroed(stride * POPULATION);
    for u in 0..POPULATION {
        let fp = random_fp(bits, rng);
        data[u * stride..u * stride + w].copy_from_slice(fp.words());
    }
    (data, stride)
}

fn bench_matrix(c: &mut Criterion) {
    for &bits in &[64u32, 256, 1024, 4096] {
        let mut rng = StdRng::seed_from_u64(0x5EED ^ bits as u64);
        let query = random_fp(bits, &mut rng);
        let (data, stride) = arena(bits, &mut rng);
        let mut group = c.benchmark_group(format!("kernel_matrix_b{bits}"));
        for &batch in &[16usize, 64, 256] {
            // Shuffled ids: a gather, not a sequential scan.
            let ids: Vec<u32> = (0..batch)
                .map(|_| rng.gen_range(0..POPULATION as u32))
                .collect();
            group.throughput(Throughput::Elements(batch as u64));
            for kernel in kernels::available() {
                let mut counts = vec![0u32; batch];
                group.bench_function(format!("{}_n{batch}", kernel.name), |b| {
                    b.iter(|| {
                        (kernel.and_counts_gather)(query.words(), &data, stride, &ids, &mut counts);
                        black_box(counts.iter().map(|&c| c as u64).sum::<u64>())
                    })
                });
            }
        }
        group.finish();
    }
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
    targets = bench_matrix
}
criterion_main!(benches);
