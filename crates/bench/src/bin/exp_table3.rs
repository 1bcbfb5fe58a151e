//! Table 3: dataset preparation time — native in-memory representation vs
//! b-bit minwise hashing (256 explicit permutations × 4 bits) vs GoldFinger
//! (1024-bit SHFs, Jenkins' hash) — and GoldFinger's speedup over MinHash.
//!
//! The paper's point: MinHash preparation is proportional to
//! `permutations × |items|` and becomes self-defeating on large item
//! universes (AmazonMovies, DBLP, Gowalla), while GoldFinger costs one hash
//! per association and is even slightly faster than building the explicit
//! representation.
//!
//! ```text
//! cargo run --release -p goldfinger-bench --bin exp_table3
//! ```

use goldfinger_bench::{
    build_datasets, emit_if_requested, fmt_duration, prep_json, Args, ExperimentConfig, Table,
};
use goldfinger_core::profile::ProfileStore;
use goldfinger_minhash::{BbitParams, BbitStore, MinHashParams, PermutationStrategy, SketchMode};
use goldfinger_obs::{Phase, PhaseSpan, ReportSet, RunReport};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Runs `f` once and returns how long it took; its output is dropped
/// after the clock stops.
fn timed<T>(f: impl FnOnce() -> T) -> Duration {
    let t0 = Instant::now();
    let out = f();
    let wall = t0.elapsed();
    black_box(out);
    wall
}

fn main() {
    let args = Args::from_env();
    let cfg = ExperimentConfig::from_args(&args);
    let perms = args.get_usize("perms", 256);
    let bbit = args.get_u32_list("bbit", &[4])[0];
    let mut set = ReportSet::new("table3");

    let mut table = Table::new(
        format!(
            "Table 3 — preparation time (GoldFinger {} bits; MinHash {perms} perms x {bbit} bits)",
            cfg.bits
        ),
        &[
            "dataset",
            "native",
            "MinHash",
            "MinHash (classic)",
            "MinHash (onepass)",
            "GoldFinger",
            "speedup (x)",
        ],
    );
    let bbit_params = |strategy| BbitParams {
        minhash: MinHashParams {
            permutations: perms,
            strategy,
            seed: cfg.seed,
        },
        bits: bbit,
    };
    for data in build_datasets(&cfg, args.get("datasets")) {
        let profiles = data.profiles();

        // Native preparation: rebuilding the packed explicit representation
        // from per-user item lists (what the paper's Java loader builds).
        let lists: Vec<Vec<u32>> = profiles.iter().map(|(_, items)| items.to_vec()).collect();
        let native = timed(|| ProfileStore::from_item_lists(lists));

        // MinHash: explicit permutations over the full item universe.
        let minhash =
            timed(|| BbitStore::build(bbit_params(PermutationStrategy::Explicit), profiles));

        // Hashed MinHash in both sketch modes: classic hashes each
        // association once per permutation, one-pass hashes it once.
        // Comparing the two columns is the Table 3 ingest-speed story for
        // MinHash itself.
        let [classic, onepass] = [SketchMode::Classic, SketchMode::OnePass].map(|mode| {
            timed(|| {
                BbitStore::build_with_mode(bbit_params(PermutationStrategy::Hashed), profiles, mode)
            })
        });

        // GoldFinger: one Jenkins hash per association.
        let goldfinger = timed(|| cfg.shf_params(cfg.bits).fingerprint_store(profiles));

        let associations = profiles.n_associations() as u64;
        for (provider, sketch, phase, bits, prep) in [
            ("native", "native", Phase::DatasetPrep, 0u64, native),
            (
                "minhash",
                "explicit",
                Phase::Fingerprinting,
                (perms as u64) * bbit as u64,
                minhash,
            ),
            (
                "minhash-hashed",
                SketchMode::Classic.name(),
                Phase::Fingerprinting,
                (perms as u64) * bbit as u64,
                classic,
            ),
            (
                "minhash-hashed",
                SketchMode::OnePass.name(),
                Phase::Fingerprinting,
                (perms as u64) * bbit as u64,
                onepass,
            ),
            (
                "goldfinger",
                "shf",
                Phase::Fingerprinting,
                cfg.bits as u64,
                goldfinger,
            ),
        ] {
            set.runs.push(RunReport {
                experiment: "table3".to_string(),
                dataset: data.name().to_string(),
                algo: "Preparation".to_string(),
                provider: provider.to_string(),
                n_users: data.n_users() as u64,
                k: cfg.k as u64,
                bits,
                seed: cfg.seed,
                prep_wall: prep,
                phases: vec![PhaseSpan {
                    phase,
                    wall: prep,
                    entries: 1,
                }],
                extra: vec![("prep".to_string(), prep_json(sketch, prep, associations))],
                ..RunReport::default()
            });
        }

        table.push(vec![
            data.name().to_string(),
            fmt_duration(native),
            fmt_duration(minhash),
            fmt_duration(classic),
            fmt_duration(onepass),
            fmt_duration(goldfinger),
            format!(
                "{:.1}",
                minhash.as_secs_f64() / goldfinger.as_secs_f64().max(1e-9)
            ),
        ]);
    }
    table.print();
    if let Some(out) = args.get("csv") {
        table.write_csv(out).expect("write CSV");
        println!("wrote {out}");
    }
    emit_if_requested(&args, &set);
    println!(
        "Paper's shape: GoldFinger prep is on par with (or below) native and 1–3 orders of \
         magnitude below MinHash; the gap widens with the item-universe size (AM/DBLP/GW)."
    );
}
