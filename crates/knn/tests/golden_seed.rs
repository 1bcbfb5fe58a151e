//! Golden-seed regression suite: pins the exact output of every builder on
//! a fixed synthetic population so refactors of the construction machinery
//! can prove themselves behavior-preserving.
//!
//! For each `(builder, provider)` combination (fixed seeds; serial and
//! 4-thread runs, which every builder makes bit-identical by
//! construction), the test computes a 64-bit FNV-1a digest over the full
//! graph — every `(user, neighbour, similarity-bits)` triple in order —
//! together with the exact `BuildStats` counters, and compares them against
//! constants captured before the builder abstraction refactor. Any change
//! to the refinement scaffolding, join order, RNG draw sequence,
//! tie-breaking, or eval accounting shows up here as a digest or counter
//! mismatch. The `*/t4` rows carry the same constants as their serial rows.
//!
//! One exception: at 4 threads Brute Force splits its pairs between
//! `similarity_evals` and `pruned_evals` depending on which worker folds
//! which tile cell, so `brute/t4` is pinned on its digest, iteration count
//! and `evals + pruned` (= n(n−1)/2) only.
//!
//! To regenerate after an *intentional* behavior change, run with
//! `GF_GOLDEN_PRINT=1` and paste the printed table:
//!
//! ```text
//! GF_GOLDEN_PRINT=1 cargo test -p goldfinger-knn --test golden_seed -- --nocapture
//! ```

use goldfinger_core::hash::{DynHasher, HasherKind};
use goldfinger_core::profile::ProfileStore;
use goldfinger_core::shf::ShfParams;
use goldfinger_core::similarity::{ExplicitJaccard, ShfJaccard, Similarity};
use goldfinger_knn::brute::BruteForce;
use goldfinger_knn::cluster::Cluster;
use goldfinger_knn::graph::KnnResult;
use goldfinger_knn::hyrec::Hyrec;
use goldfinger_knn::kiff::Kiff;
use goldfinger_knn::lsh::Lsh;
use goldfinger_knn::nndescent::NNDescent;

const K: usize = 7;

/// One pinned outcome: graph digest plus the exact eval counters.
#[derive(Debug, PartialEq, Eq)]
struct Golden {
    case: &'static str,
    graph: u64,
    evals: u64,
    pruned: u64,
    iterations: u32,
}

/// 64-bit FNV-1a over the graph's `(user, neighbour, sim bits)` stream.
fn graph_digest(result: &KnnResult) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    let mut eat = |x: u64| {
        for byte in x.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    };
    for u in 0..result.graph.n_users() as u32 {
        for s in result.graph.neighbors(u) {
            eat(u as u64);
            eat(s.user as u64);
            eat(s.sim.to_bits());
        }
    }
    h
}

/// A deterministic clustered population with per-user noise: 12 taste
/// clusters of 25 users; each user keeps a noisy subset of its cluster's
/// 40 items plus a few private ones. Pure xorshift — no rand dependency,
/// stable forever.
fn population() -> ProfileStore {
    let mut x = 0x9E3779B97F4A7C15u64;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut lists = Vec::new();
    for c in 0..12u32 {
        for u in 0..25u32 {
            // Keep a random 25–75% slice of the cluster's 40 items, so
            // profile sizes are skewed (upper-bound pruning fires) and
            // cluster membership is fuzzy (approximate builders do not
            // simply converge onto the exact graph).
            let keep = 10 + (next() % 21) as usize;
            let mut items: Vec<u32> = (c * 60..c * 60 + 40)
                .filter(|_| next() % 4 != 0)
                .take(keep)
                .collect();
            // Bleed into the next cluster's range for cross-cluster edges.
            for i in 0..(next() % 6) {
                items.push(((c + 1) % 12) * 60 + (i as u32 % 40));
            }
            // Globally popular items shared by everyone now and then.
            if next() % 3 == 0 {
                items.push(20_000 + (next() % 5) as u32);
            }
            let privates = 1 + (next() % 4) as u32;
            for p in 0..privates {
                items.push(10_000 + c * 500 + u * 8 + p);
            }
            items.sort_unstable();
            items.dedup();
            lists.push(items);
        }
    }
    ProfileStore::from_item_lists(lists)
}

fn golden(case: &'static str, result: &KnnResult) -> Golden {
    Golden {
        case,
        graph: graph_digest(result),
        evals: result.stats.similarity_evals,
        pruned: result.stats.pruned_evals,
        iterations: result.stats.iterations,
    }
}

fn run_all<S: Similarity>(profiles: &ProfileStore, sim: &S, tag: &'static str) -> Vec<Golden> {
    let brute1 = BruteForce {
        threads: 1,
        ..BruteForce::default()
    };
    let brute4 = BruteForce {
        threads: 4,
        ..BruteForce::default()
    };
    let hyrec = Hyrec {
        seed: 42,
        ..Hyrec::default()
    };
    let nnd = NNDescent {
        seed: 42,
        ..NNDescent::default()
    };
    let nnd_half = NNDescent {
        seed: 42,
        sample_rate: 0.5,
        ..NNDescent::default()
    };
    let hyrec4 = Hyrec {
        threads: 4,
        ..hyrec
    };
    let nnd4 = NNDescent { threads: 4, ..nnd };
    let nnd_half4 = NNDescent {
        threads: 4,
        ..nnd_half
    };
    let lsh1 = Lsh {
        seed: 42,
        threads: 1,
        ..Lsh::default()
    };
    let lsh4 = Lsh {
        seed: 42,
        threads: 4,
        ..Lsh::default()
    };
    let kiff = Kiff::default();
    let kiff_capped = Kiff {
        candidate_factor: 2,
        max_item_degree: Some(200),
        ..Kiff::default()
    };
    let kiff4 = Kiff { threads: 4, ..kiff };
    let kiff_capped4 = Kiff {
        threads: 4,
        ..kiff_capped
    };
    // Cluster is bit-identical for any thread count by construction.
    let cluster1 = Cluster {
        seed: 42,
        threads: 1,
        ..Cluster::default()
    };
    let cluster4 = Cluster {
        seed: 42,
        threads: 4,
        ..Cluster::default()
    };

    // Truncated runs freeze the refinement mid-trajectory: unlike the
    // converged graphs (which several algorithms agree on), these digests
    // are unique to the exact join order and RNG draw sequence.
    let hyrec_cut = Hyrec {
        max_iterations: 2,
        ..hyrec
    };
    let nnd_cut = NNDescent {
        max_iterations: 2,
        ..nnd
    };

    let cases: Vec<(&'static str, KnnResult)> = vec![
        ("brute/t1", brute1.build(sim, K)),
        ("brute/t4", brute4.build(sim, K)),
        ("hyrec", hyrec.build(sim, K)),
        ("hyrec/t4", hyrec4.build(sim, K)),
        ("hyrec/iters=2", hyrec_cut.build(sim, K)),
        ("nndescent", nnd.build(sim, K)),
        ("nndescent/t4", nnd4.build(sim, K)),
        ("nndescent/iters=2", nnd_cut.build(sim, K)),
        ("nndescent/rho=0.5", nnd_half.build(sim, K)),
        ("nndescent/rho=0.5/t4", nnd_half4.build(sim, K)),
        ("lsh/t1", lsh1.build(profiles, sim, K)),
        ("lsh/t4", lsh4.build(profiles, sim, K)),
        ("kiff", kiff.build(profiles, sim, K)),
        ("kiff/capped", kiff_capped.build(profiles, sim, K)),
        ("kiff/t4", kiff4.build(profiles, sim, K)),
        ("kiff/capped/t4", kiff_capped4.build(profiles, sim, K)),
        ("cluster/t1", cluster1.build(profiles, sim, K)),
        ("cluster/t4", cluster4.build(profiles, sim, K)),
    ];
    let _ = tag;
    cases.iter().map(|(c, r)| golden(c, r)).collect()
}

fn check(tag: &str, got: &[Golden], want: &[(&str, u64, u64, u64, u32)]) {
    if std::env::var("GF_GOLDEN_PRINT").is_ok() {
        println!("// --- {tag} ---");
        for g in got {
            println!(
                "    (\"{}\", 0x{:016x}, {}, {}, {}),",
                g.case, g.graph, g.evals, g.pruned, g.iterations
            );
        }
        return;
    }
    assert_eq!(got.len(), want.len(), "{tag}: case count");
    for (g, w) in got.iter().zip(want) {
        assert_eq!(g.case, w.0, "{tag}: case order");
        if g.case == "brute/t4" {
            // The evaluated/pruned split is scheduler-dependent here; the
            // graph and the pair total are not.
            assert_eq!(
                (g.graph, g.evals + g.pruned, g.iterations),
                (w.1, w.2 + w.3, w.4),
                "{tag}/{}: output drifted from the pinned golden",
                g.case
            );
            continue;
        }
        assert_eq!(
            (g.graph, g.evals, g.pruned, g.iterations),
            (w.1, w.2, w.3, w.4),
            "{tag}/{}: output drifted from the pinned golden",
            g.case
        );
    }
}

/// Pinned pre-refactor outputs, native provider.
const GOLDEN_NATIVE: &[(&str, u64, u64, u64, u32)] = &[
    ("brute/t1", 0xa278dfda9aef5e00, 44848, 2, 1),
    ("brute/t4", 0xa278dfda9aef5e00, 44848, 2, 1),
    ("hyrec", 0xa278dfda9aef5e00, 27346, 0, 4),
    ("hyrec/t4", 0xa278dfda9aef5e00, 27346, 0, 4),
    ("hyrec/iters=2", 0x412758909d45cce1, 21962, 0, 2),
    ("nndescent", 0xa278dfda9aef5e00, 46200, 0, 4),
    ("nndescent/t4", 0xa278dfda9aef5e00, 46200, 0, 4),
    ("nndescent/iters=2", 0x16fc680d63db381d, 35661, 0, 2),
    ("nndescent/rho=0.5", 0xefa79c91f63d8996, 51351, 0, 4),
    ("nndescent/rho=0.5/t4", 0xefa79c91f63d8996, 51351, 0, 4),
    ("lsh/t1", 0xbf32c6e50d5952b8, 11458, 0, 1),
    ("lsh/t4", 0xbf32c6e50d5952b8, 11458, 0, 1),
    ("kiff", 0xa278dfda9aef5e00, 8396, 0, 1),
    ("kiff/capped", 0x99ee006d80126df9, 4200, 0, 1),
    ("kiff/t4", 0xa278dfda9aef5e00, 8396, 0, 1),
    ("kiff/capped/t4", 0x99ee006d80126df9, 4200, 0, 1),
    // The clustered scan recovers the exact brute-force graph here (same
    // digest) from ~6× fewer evaluations: the synthetic taste clusters are
    // exactly what the blip keys recover.
    ("cluster/t1", 0xa278dfda9aef5e00, 7311, 0, 1),
    ("cluster/t4", 0xa278dfda9aef5e00, 7311, 0, 1),
];

/// Pinned pre-refactor outputs, GoldFinger provider (256-bit SHF).
const GOLDEN_SHF256: &[(&str, u64, u64, u64, u32)] = &[
    ("brute/t1", 0xaa150c85a851a1f1, 44845, 5, 1),
    ("brute/t4", 0xaa150c85a851a1f1, 44845, 5, 1),
    ("hyrec", 0xa074ac4d667e2083, 30204, 0, 5),
    ("hyrec/t4", 0xa074ac4d667e2083, 30204, 0, 5),
    ("hyrec/iters=2", 0x4d9d67076fd4a146, 22263, 0, 2),
    ("nndescent", 0xaa150c85a851a1f1, 46511, 0, 4),
    ("nndescent/t4", 0xaa150c85a851a1f1, 46511, 0, 4),
    ("nndescent/iters=2", 0xb5c66967c84e4799, 35610, 0, 2),
    ("nndescent/rho=0.5", 0xffeff400b83f5d46, 51244, 0, 4),
    ("nndescent/rho=0.5/t4", 0xffeff400b83f5d46, 51244, 0, 4),
    ("lsh/t1", 0xbfd9cfe1e3507ec4, 11458, 0, 1),
    ("lsh/t4", 0xbfd9cfe1e3507ec4, 11458, 0, 1),
    ("kiff", 0xaa150c85a851a1f1, 8396, 0, 1),
    ("kiff/capped", 0x08ca07912666121e, 4200, 0, 1),
    ("kiff/t4", 0xaa150c85a851a1f1, 8396, 0, 1),
    ("kiff/capped/t4", 0x08ca07912666121e, 4200, 0, 1),
    ("cluster/t1", 0x32054bdbe6f79ac8, 7311, 0, 1),
    ("cluster/t4", 0x32054bdbe6f79ac8, 7311, 0, 1),
];

#[test]
fn native_outputs_match_the_pinned_goldens() {
    let profiles = population();
    let sim = ExplicitJaccard::new(&profiles);
    let got = run_all(&profiles, &sim, "native");
    check("native", &got, GOLDEN_NATIVE);
}

#[test]
fn goldfinger_outputs_match_the_pinned_goldens() {
    let profiles = population();
    let store =
        ShfParams::new(256, DynHasher::new(HasherKind::Jenkins, 42)).fingerprint_store(&profiles);
    let sim = ShfJaccard::new(&store);
    let got = run_all(&profiles, &sim, "shf256");
    check("shf256", &got, GOLDEN_SHF256);
}
