//! Ablation (extension of §2.4): the collision-corrected estimator
//! `Ĵ*` vs the paper's raw estimator `Ĵ` (Eq. 4) as the fingerprint
//! shrinks. The corrected estimator inverts the occupancy expectations, so
//! its bias stays near zero where Eq. 4 drifts upward — buying back
//! quality at small b for a closed-form inversion (one square root, two
//! logarithms) per comparison.
//!
//! ```text
//! cargo run --release -p goldfinger-bench --bin exp_ablation_corrected
//! ```

use goldfinger_bench::workloads::build_dataset;
use goldfinger_bench::{dispatch, fingerprint, AlgoKind, Args, ExperimentConfig, Table};
use goldfinger_core::estimate::CorrectedShfJaccard;
use goldfinger_core::similarity::{ExplicitJaccard, ShfJaccard};
use goldfinger_datasets::synth::SynthConfig;
use goldfinger_knn::metrics::quality;

fn main() {
    let args = Args::from_env();
    let cfg = ExperimentConfig::from_args(&args);
    let data = build_dataset(&cfg, SynthConfig::ml1m());
    let profiles = data.profiles();
    println!(
        "dataset: {} users, mean profile {:.1}\n",
        profiles.n_users(),
        profiles.mean_profile_len()
    );

    let native_sim = ExplicitJaccard::new(profiles);
    let exact = dispatch(&cfg, AlgoKind::BruteForce, profiles, &native_sim);

    let mut table = Table::new(
        "Ablation — raw (Eq. 4) vs collision-corrected Jaccard estimator, Brute Force",
        &[
            "bits",
            "quality raw",
            "quality corrected",
            "time raw (s)",
            "time corrected (s)",
        ],
    );
    for bits in args.get_u32_list("bits", &[64, 128, 256, 512, 1024]) {
        let (store, _) = fingerprint(&cfg, bits, profiles);
        let raw = dispatch(
            &cfg,
            AlgoKind::BruteForce,
            profiles,
            &ShfJaccard::new(&store),
        );
        let corrected = dispatch(
            &cfg,
            AlgoKind::BruteForce,
            profiles,
            &CorrectedShfJaccard::new(&store),
        );
        table.push(vec![
            bits.to_string(),
            format!("{:.3}", quality(&raw.graph, &exact.graph, &native_sim)),
            format!(
                "{:.3}",
                quality(&corrected.graph, &exact.graph, &native_sim)
            ),
            format!("{:.3}", raw.stats.wall.as_secs_f64()),
            format!("{:.3}", corrected.stats.wall.as_secs_f64()),
        ]);
    }
    table.print();
    if let Some(out) = args.get("csv") {
        table.write_csv(out).expect("write CSV");
        println!("wrote {out}");
    }
    println!(
        "Expected shape: the correction helps most at small b (where Eq. 4's upward bias \
         compresses the ranking) at a per-comparison cost; at b ≥ 1024 the two coincide. Note \
         KNN quality depends on *ordering*, so gains are bounded — the correction mainly fixes \
         absolute similarity values."
    );
}
