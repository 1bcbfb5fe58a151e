//! Streaming updates: fold fresh activity into fingerprints in O(1) and
//! repair the KNN graph locally instead of rebuilding it.
//!
//! This is the paper's "web real-time" motivation (§1.2) made concrete:
//! a news service where users keep clicking, the graph must stay fresh,
//! and a full rebuild per click is out of the question. The graph is
//! served by a `KnnService` that drains every update at once.
//!
//! ```text
//! cargo run --release --example streaming_updates
//! ```

use goldfinger::knn::serve::{KnnService, ServeConfig};
use goldfinger::obs::Registry;
use goldfinger::prelude::*;
use std::time::Instant;

fn main() {
    // A small population with two interest clusters.
    let data = SynthConfig::ml1m()
        .scaled(0.08)
        .with_seed(9)
        .generate()
        .prepare();
    let profiles = data.profiles();
    let n = profiles.n_users();
    let k = 10;
    println!("population: {n} users, k = {k}");

    // Initial state: fingerprint everything, build the graph once.
    let params = ShfParams::default();
    let mut fingerprints = params.fingerprint_store(profiles);
    let t0 = Instant::now();
    let initial = BruteForce::default().build(&ShfJaccard::new(&fingerprints), k);
    let full_build = t0.elapsed();
    println!(
        "initial build: {:?} ({} similarity evaluations)\n",
        full_build, initial.stats.similarity_evals
    );

    // A drain per update, 16 random probes per repair so the repair can
    // escape a stale neighbourhood.
    let cfg = ServeConfig {
        batch: 1,
        probes: 16,
        seed: 7,
        threads: 1,
        ..ServeConfig::default()
    };
    let registry = Registry::new();
    let service = KnnService::new(
        &initial.graph,
        &fingerprints,
        *params.hasher(),
        cfg,
        &registry,
    );

    // Simulate a stream of activity: user 0 starts consuming the items of
    // a completely different cluster (borrow another user's tastes).
    let donor = (n - 1) as u32;
    let new_items: Vec<u32> = profiles.items(donor).iter().copied().take(40).collect();
    println!(
        "user 0 clicks {} items from user {donor}'s cluster…",
        new_items.len()
    );

    // The fingerprint delta is O(1) per click: set one bit, bump the
    // cardinality. Applied here to a local copy for the reference rebuild;
    // the service applies the same delta to its own arena.
    let t0 = Instant::now();
    let fresh_bits = fingerprints.apply_delta(0, &new_items);
    println!(
        "fingerprint delta: {:?} ({fresh_bits} new bits, no re-fingerprinting)",
        t0.elapsed()
    );

    // Local repair: the first drain's random probes escape the stale
    // neighbourhood, a second (empty) update re-repairs user 0 by walking
    // the discovered cluster.
    let t0 = Instant::now();
    service.update(0, new_items);
    service.update(0, Vec::new());
    let repair = t0.elapsed();
    let evals = registry.counter("serve.repair_evals").get();
    println!(
        "update + local repair: {:?} ({evals} similarity evaluations vs {} for a rebuild)",
        repair, initial.stats.similarity_evals
    );

    // Verify against a fresh brute-force build on the updated fingerprints.
    let truth = BruteForce::default().build(&ShfJaccard::new(&fingerprints), k);
    let repaired_ids: Vec<u32> = service
        .lookup(0)
        .expect("user 0 is served")
        .iter()
        .map(|s| s.user)
        .collect();
    let truth_ids: Vec<u32> = truth.graph.neighbors(0).iter().map(|s| s.user).collect();
    let overlap = truth_ids
        .iter()
        .filter(|u| repaired_ids.contains(u))
        .count();
    println!(
        "\nuser 0's repaired neighbourhood matches {overlap}/{} of a full rebuild's;",
        truth_ids.len()
    );
    println!("donor-cluster users now dominate: {repaired_ids:?}");
}
