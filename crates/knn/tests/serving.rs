//! Concurrent serving semantics: epoch consistency under reader/writer
//! interleaving, and thread-count-independent replay determinism.
//!
//! The epoch protocol publishes each drain's result as one immutable
//! `Arc<ServiceSnapshot>` behind a single pointer swap, so a reader must
//! never observe a half-applied drain. These tests hammer that claim from
//! real reader threads while a writer drains batched repairs, and check
//! that the final graph digest is a pure function of the op log — not of
//! `GF_THREADS`.

use goldfinger_core::hash::DynHasher;
use goldfinger_core::pool::Pool;
use goldfinger_core::profile::ProfileStore;
use goldfinger_core::shf::{ShfParams, ShfStore};
use goldfinger_core::similarity::ShfJaccard;
use goldfinger_knn::brute::BruteForce;
use goldfinger_knn::graph::KnnGraph;
use goldfinger_knn::serve::{replay, synth_ops, KnnService, ServeConfig};
use goldfinger_obs::Registry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

fn fixture(users: u32) -> (KnnGraph, ShfStore, ShfParams<DynHasher>) {
    let lists: Vec<Vec<u32>> = (0..users)
        .map(|u| {
            let base = (u / 10) * 400;
            let mut items: Vec<u32> = (base..base + 10).collect();
            items.push(base + 200 + u);
            items
        })
        .collect();
    let params = ShfParams::new(512, DynHasher::default());
    let store = params.fingerprint_store(&ProfileStore::from_item_lists(lists));
    let graph = BruteForce::default()
        .build(&ShfJaccard::new(&store), 5)
        .graph;
    (graph, store, params)
}

fn service(cfg: ServeConfig) -> KnnService {
    let (graph, store, params) = fixture(60);
    KnnService::new(&graph, &store, *params.hasher(), cfg, &Registry::new())
}

/// Seeded-interleaving consistency: reader threads continuously take
/// snapshots while the writer runs updates (and therefore drains). Every
/// observed snapshot must (a) verify its own digests — no torn or
/// mutated-after-publish state, (b) advance epochs monotonically per
/// reader, and (c) agree with the writer on the digest of every epoch.
#[test]
fn snapshot_readers_always_observe_a_consistent_epoch() {
    let svc = service(ServeConfig {
        batch: 8,
        probes: 3,
        seed: 9,
        threads: 2,
        ..ServeConfig::default()
    });
    let done = AtomicBool::new(false);
    let observed: Mutex<Vec<(u64, u64)>> = Mutex::new(Vec::new());
    // The writer records each epoch's digest right after publishing it;
    // epochs are published exactly once, so any reader observation of
    // epoch e must carry this digest.
    let mut published: HashMap<u64, u64> = HashMap::new();
    {
        let snap = svc.snapshot();
        published.insert(snap.epoch(), snap.digest());
    }

    std::thread::scope(|scope| {
        for _ in 0..3 {
            scope.spawn(|| {
                let mut last_epoch = 0u64;
                let mut seen = Vec::new();
                while !done.load(Ordering::Relaxed) {
                    let snap = svc.snapshot();
                    assert!(snap.verify(), "reader saw an inconsistent snapshot");
                    assert!(
                        snap.epoch() >= last_epoch,
                        "epoch went backwards: {} -> {}",
                        last_epoch,
                        snap.epoch()
                    );
                    last_epoch = snap.epoch();
                    seen.push((snap.epoch(), snap.digest()));
                    // Lookups during drains must also resolve.
                    assert!(svc.lookup(7).is_some());
                }
                observed.lock().unwrap().extend(seen);
            });
        }
        // Writer: a seeded op stream with plenty of drains.
        let ops = synth_ops(60, 5000, 400, 100, 21);
        for op in &ops {
            if let goldfinger_knn::serve::Op::Update { user, items } = op {
                svc.update(*user, items.clone());
                let snap = svc.snapshot();
                published.entry(snap.epoch()).or_insert_with(|| {
                    assert!(snap.verify());
                    snap.digest()
                });
            }
        }
        svc.flush();
        let snap = svc.snapshot();
        published
            .entry(snap.epoch())
            .or_insert_with(|| snap.digest());
        done.store(true, Ordering::Relaxed);
    });

    let observed = observed.into_inner().unwrap();
    assert!(!observed.is_empty());
    for (epoch, digest) in observed {
        let expect = published
            .get(&epoch)
            .unwrap_or_else(|| panic!("reader saw unpublished epoch {epoch}"));
        assert_eq!(
            *expect, digest,
            "epoch {epoch}: reader and writer disagree on the digest"
        );
    }
}

/// Replaying one op log must yield bit-identical graphs and lookup
/// results whatever the drain parallelism — the `GF_THREADS ∈ {1, 4}` CI
/// legs run this same binary and must commit the same digests.
#[test]
fn replay_is_deterministic_across_thread_counts() {
    let ops = synth_ops(60, 5000, 1000, 55, 77);
    let mut outcomes = Vec::new();
    for threads in [1usize, 4] {
        let svc = service(ServeConfig {
            batch: 16,
            probes: 3,
            seed: 9,
            threads,
            ..ServeConfig::default()
        });
        // Run both bare and under an installed work-stealing pool: the
        // drain must dispatch identically through either parallel path.
        let outcome = if threads > 1 {
            Pool::new(threads).install(|| replay(&svc, &ops))
        } else {
            replay(&svc, &ops)
        };
        outcomes.push(outcome);
    }
    assert_eq!(
        outcomes[0], outcomes[1],
        "drain thread count changed the served graph"
    );
    assert!(outcomes[0].final_epoch > 0);
    assert!(outcomes[0].lookups > 0 && outcomes[0].updates > 0);
}

/// Served lists are pinned across implementations of the drain: the
/// lookup digest folds every list a replay looked up, so any change to
/// repair decisions or to the published order shows here. The graph
/// digest is not pinned: its function is free to change.
#[test]
fn replay_lookups_match_the_golden_outcomes() {
    let (graph, store, params) = fixture(300);
    let ops = synth_ops(300, 30_000, 3000, 45, 31);
    // (batch, lookup_digest, final_epoch); 1693 lookups, 1307 updates.
    let goldens = [
        (1usize, 0x0ed4_759e_374b_0afd_u64, 1307u64),
        (16, 0x1d19_e640_dd73_dd16, 82),
    ];
    for (batch, lookup_digest, final_epoch) in goldens {
        // 0 is the default parallelism.
        for threads in [0usize, 1, 4] {
            let cfg = ServeConfig {
                batch,
                probes: 3,
                seed: 9,
                threads,
                ..ServeConfig::default()
            };
            let svc = KnnService::new(&graph, &store, *params.hasher(), cfg, &Registry::new());
            let outcome = replay(&svc, &ops);
            let at = format!("batch {batch}, {threads} threads");
            assert_eq!((outcome.lookups, outcome.updates), (1693, 1307), "{at}");
            assert_eq!(outcome.lookup_digest, lookup_digest, "{at}");
            assert_eq!(outcome.final_epoch, final_epoch, "{at}");
            assert!(svc.snapshot().verify(), "{at}");
        }
    }
}
