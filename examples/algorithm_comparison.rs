//! Head-to-head: every registered KNN construction algorithm, native vs
//! GoldFinger, on one dataset — a miniature of the paper's Table 4 (plus
//! KIFF from the related-work discussion).
//!
//! The example never names a concrete builder type: it iterates the
//! [`goldfinger::knn::builders`] registry, so a newly registered algorithm
//! shows up in the table automatically.
//!
//! ```text
//! cargo run --release --example algorithm_comparison
//! ```

use goldfinger::knn::builder::BuildInput;
use goldfinger::knn::builders::{self, BuilderConfig};
use goldfinger::prelude::*;

fn main() {
    let data = SynthConfig::ml1m().scaled(0.15).generate().prepare();
    let profiles = data.profiles();
    let k = 30;
    println!(
        "dataset: {} users, mean profile {:.1}, k = {k}\n",
        profiles.n_users(),
        profiles.mean_profile_len()
    );

    let native = ExplicitJaccard::new(profiles);
    let fingerprints = ShfParams::default().fingerprint_store(profiles);
    let gf = ShfJaccard::new(&fingerprints);

    // Ground truth for quality.
    let exact = BruteForce::default().build(&native, k);

    println!(
        "{:<12} {:>12} {:>12} {:>8} {:>8} {:>8}",
        "algorithm", "native", "goldfinger", "gain %", "q nat.", "q GolFi"
    );
    let cfg = BuilderConfig::default();
    for spec in builders::all() {
        let builder = spec.instantiate(&cfg);
        let nat = builder.build_erased(
            BuildInput::with_profiles(&native, profiles),
            k,
            &NoopObserver,
        );
        let gold = builder.build_erased(BuildInput::with_profiles(&gf, profiles), k, &NoopObserver);
        let t_nat = nat.stats.wall.as_secs_f64();
        let t_gf = gold.stats.wall.as_secs_f64();
        println!(
            "{:<12} {:>10.1}ms {:>10.1}ms {:>8.1} {:>8.2} {:>8.2}",
            spec.name,
            t_nat * 1e3,
            t_gf * 1e3,
            (1.0 - t_gf / t_nat) * 100.0,
            quality(&nat.graph, &exact.graph, &native),
            quality(&gold.graph, &exact.graph, &native),
        );
    }

    println!(
        "\nedge recall of GoldFinger brute force vs exact: {:.2}",
        edge_recall(&BruteForce::default().build(&gf, k).graph, &exact.graph)
    );
}
