//! Table 5: memory traffic of the similarity path, native vs GoldFinger.
//!
//! **Substitution note (DESIGN.md §4):** the paper measures L1 cache loads
//! and stores with `perf` hardware counters on ml10M. Hardware counters are
//! unavailable here, so this experiment wraps each provider in
//! [`goldfinger_knn::instrument::CountingSimilarity`] and reports the exact
//! bytes of profile payload the similarity kernels read. Because the
//! similarity path's L1 traffic is a direct function of those bytes, the
//! native-vs-GoldFinger *ratios* are the reproducible quantity.
//!
//! ```text
//! cargo run --release -p goldfinger-bench --bin exp_table5
//! ```

use goldfinger_bench::jsonreport::report_for;
use goldfinger_bench::workloads::{build_dataset, dispatch_observed};
use goldfinger_bench::{
    emit_if_requested, AlgoKind, Args, ExperimentConfig, ProviderKind, RunOutcome, Table,
};
use goldfinger_core::similarity::{ExplicitJaccard, ShfJaccard};
use goldfinger_datasets::synth::SynthConfig;
use goldfinger_knn::instrument::CountingSimilarity;
use goldfinger_obs::{RecordingObserver, ReportSet};
use std::time::Duration;

fn main() {
    let args = Args::from_env();
    let cfg = ExperimentConfig::from_args(&args);
    let data = build_dataset(&cfg, SynthConfig::ml10m());
    let profiles = data.profiles();
    let mut set = ReportSet::new("table5");
    println!(
        "dataset: {} ({} users, mean profile {:.1})\n",
        data.name(),
        profiles.n_users(),
        profiles.mean_profile_len()
    );
    let store = cfg.shf_params(cfg.bits).fingerprint_store(profiles);

    let mut table = Table::new(
        "Table 5 — similarity-path memory traffic (bytes read by similarity kernels; \
         substitute for perf L1 counters)",
        &[
            "algo",
            "evals nat.",
            "MB nat.",
            "evals GolFi",
            "MB GolFi",
            "gain %",
        ],
    );
    for kind in AlgoKind::all() {
        let native = ExplicitJaccard::new(profiles);
        let counted_nat = CountingSimilarity::new(&native);
        let obs_nat = RecordingObserver::new();
        let result_nat = dispatch_observed(&cfg, kind, profiles, &counted_nat, &obs_nat);
        let t_nat = counted_nat.traffic();

        let gf = ShfJaccard::new(&store);
        let counted_gf = CountingSimilarity::new(&gf);
        let obs_gf = RecordingObserver::new();
        let result_gf = dispatch_observed(&cfg, kind, profiles, &counted_gf, &obs_gf);
        let mut t_gf = counted_gf.traffic();

        // LSH reads every explicit profile once per table to build its
        // buckets — in both modes, since fingerprints cannot bucket. This
        // GoldFinger-immune traffic is what erases the gain in the paper.
        let mut t_nat = t_nat;
        if kind == AlgoKind::Lsh {
            let bucket_bytes = 10 * profiles.n_associations() as u64 * 4;
            t_nat.bytes += bucket_bytes;
            t_gf.bytes += bucket_bytes;
        }

        for (provider, result, obs, traffic) in [
            (ProviderKind::Native, result_nat, &obs_nat, t_nat),
            (ProviderKind::GoldFinger(cfg.bits), result_gf, &obs_gf, t_gf),
        ] {
            let out = RunOutcome {
                result,
                prep: Duration::ZERO,
            };
            let mut report = report_for("table5", &cfg, kind, &data, provider, &out, obs);
            report.traffic = Some(traffic);
            set.runs.push(report);
        }

        let gain = if t_nat.bytes == 0 {
            0.0
        } else {
            (1.0 - t_gf.bytes as f64 / t_nat.bytes as f64) * 100.0
        };
        table.push(vec![
            kind.name().to_string(),
            t_nat.calls.to_string(),
            format!("{:.1}", t_nat.bytes as f64 / 1e6),
            t_gf.calls.to_string(),
            format!("{:.1}", t_gf.bytes as f64 / 1e6),
            format!("{gain:.1}"),
        ]);
    }
    table.print();
    if let Some(out) = args.get("csv") {
        table.write_csv(out).expect("write CSV");
        println!("wrote {out}");
    }
    emit_if_requested(&args, &set);
    println!(
        "Paper's shape: GoldFinger cuts similarity-path traffic by ~70–88% for Brute Force / \
         Hyrec / NNDescent; LSH's totals stay comparable because its cost is dominated by \
         bucket creation, which fingerprints cannot shrink."
    );
}
