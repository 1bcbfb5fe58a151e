//! Spill-backend equivalence: a memory-mapped fingerprint arena must be
//! indistinguishable from the heap arena it was copied from — same words,
//! same cardinalities, same similarities — across ingest thread counts
//! and across every similarity kernel this host can run. The kernels read
//! the arena through the same `&[u64]` slice either way; these tests pin
//! that the backend seam really is invisible above `ShfStore`.
#![cfg(target_os = "linux")]

use goldfinger_core::hash::{DynHasher, HasherKind};
use goldfinger_core::kernels;
use goldfinger_core::pool::Pool;
use goldfinger_core::profile::ProfileStore;
use goldfinger_core::shf::{jaccard_from_counts, ShfParams, ShfStore};
use std::path::PathBuf;

fn fixture(n: usize) -> ProfileStore {
    // Deterministic clustered + ragged profiles, one empty user.
    let mut lists: Vec<Vec<u32>> = Vec::with_capacity(n);
    for u in 0..n as u32 {
        if u % 17 == 3 {
            lists.push(vec![]);
            continue;
        }
        let base = (u % 5) * 1000;
        let len = 8 + (u * 7) % 60;
        lists.push((0..len).map(|i| base + (i * (1 + u % 3))).collect());
    }
    ProfileStore::from_item_lists(lists)
}

fn spill_file(name: &str) -> PathBuf {
    let path =
        std::env::temp_dir().join(format!("gf-spillprop-{name}-{}.store", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

fn digest_store(store: &ShfStore) -> u64 {
    // FNV-1a over every fingerprint word and cardinality: a cheap
    // bit-identity witness.
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |v: u64| {
        h ^= v;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for u in 0..store.len() as u32 {
        mix(u64::from(store.cardinality(u)));
        for &w in store.fingerprint_words(u) {
            mix(w);
        }
    }
    h
}

#[test]
fn spilled_stores_match_heap_stores_across_thread_counts() {
    let profiles = fixture(300);
    let params = ShfParams::new(512, DynHasher::new(HasherKind::Jenkins, 7));
    let mut digests = Vec::new();
    for threads in [1usize, 4] {
        let heap = Pool::new(threads).install(|| params.fingerprint_store(&profiles));
        assert_eq!(heap.backend_kind(), "heap");
        let path = spill_file(&format!("t{threads}"));
        let spilled = heap.spill_to(&path).unwrap();
        assert_eq!(spilled.backend_kind(), "mmap");
        assert!(spilled.is_spilled());
        digests.push(digest_store(&heap));
        digests.push(digest_store(&spilled));

        // The sealed on-disk form must reopen to the same digest too.
        drop(spilled);
        let reopened = ShfStore::open_spilled(&path).unwrap();
        digests.push(digest_store(&reopened));
        std::fs::remove_file(&path).unwrap();
    }
    assert!(
        digests.windows(2).all(|w| w[0] == w[1]),
        "store digests diverged across backends/threads: {digests:x?}"
    );
}

#[test]
fn every_available_kernel_reads_both_backends_identically() {
    let profiles = fixture(150);
    let params = ShfParams::new(256, DynHasher::new(HasherKind::Jenkins, 42));
    let heap = params.fingerprint_store(&profiles);
    let path = spill_file("kernels");
    let spilled = heap.spill_to(&path).unwrap();

    let n = heap.len() as u32;
    let ids: Vec<u32> = (0..n).rev().collect(); // gather in scrambled order
    let queries = [0u32, 3, 17, n - 1];
    for kernel in kernels::available() {
        for &q in &queries {
            let query = heap.fingerprint_words(q);
            let mut heap_counts = vec![0u32; ids.len()];
            let mut spill_counts = vec![0u32; ids.len()];
            (kernel.and_counts_gather)(
                query,
                heap.arena_words(),
                heap.row_words(),
                &ids,
                &mut heap_counts,
            );
            (kernel.and_counts_gather)(
                spilled.fingerprint_words(q),
                spilled.arena_words(),
                spilled.row_words(),
                &ids,
                &mut spill_counts,
            );
            assert_eq!(
                heap_counts, spill_counts,
                "kernel {} diverged between heap and mmap arenas (query {q})",
                kernel.name
            );
        }
    }

    // And the high-level batch API agrees through the active kernel.
    let mut heap_sims = vec![0.0f64; ids.len()];
    let mut spill_sims = vec![0.0f64; ids.len()];
    heap.estimate_batch(5, &ids, &mut heap_sims, jaccard_from_counts);
    spilled.estimate_batch(5, &ids, &mut spill_sims, jaccard_from_counts);
    assert_eq!(heap_sims, spill_sims);
    drop(spilled);
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn advising_cold_does_not_change_spilled_contents() {
    let profiles = fixture(80);
    let params = ShfParams::new(128, DynHasher::default());
    let heap = params.fingerprint_store(&profiles);
    let path = spill_file("cold");
    let spilled = heap.spill_to(&path).unwrap();
    let before = digest_store(&spilled);
    // Evict everything, then fault it back in by re-reading.
    spilled.advise_cold_rows(0, spilled.len()).unwrap();
    assert_eq!(digest_store(&spilled), before);
    drop(spilled);
    std::fs::remove_file(&path).unwrap();
}
