//! # GoldFinger
//!
//! A complete Rust implementation of *"Fingerprinting Big Data: The Case of
//! KNN Graph Construction"* (Guerraoui, Kermarrec, Ruas, Taïani — ICDE
//! 2019): Single Hash Fingerprints, fingerprint-accelerated KNN graph
//! construction, the b-bit minwise hashing baseline, the estimator's exact
//! distribution theory, privacy guarantees, and a KNN recommender.
//!
//! This facade crate re-exports the workspace's sub-crates under one roof:
//!
//! - [`core`] ([`goldfinger_core`]) — SHFs, hashing, profiles, providers;
//! - [`datasets`] ([`goldfinger_datasets`]) — loaders, synthetic data, CV;
//! - [`knn`] ([`goldfinger_knn`]) — Brute Force, NNDescent, Hyrec, LSH,
//!   KIFF and Cluster behind the `ErasedBuilder` trait and its registry;
//! - [`minhash`] ([`goldfinger_minhash`]) — the sketching baseline;
//! - [`theory`] ([`goldfinger_theory`]) — estimator law and privacy;
//! - [`recommend`] ([`goldfinger_recommend`]) — the application case study.
//!
//! ## End-to-end example
//!
//! ```
//! use goldfinger::prelude::*;
//!
//! // A small synthetic dataset with planted taste clusters.
//! let data = SynthConfig::ml1m().scaled(0.02).generate().prepare();
//!
//! // Native KNN graph…
//! let native = ExplicitJaccard::new(data.profiles());
//! let exact = BruteForce::default().build(&native, 10);
//!
//! // …and the GoldFinger version: fingerprint once, swap the provider.
//! let fingerprints = ShfParams::default().fingerprint_store(data.profiles());
//! let gf = ShfJaccard::new(&fingerprints);
//! let approx = BruteForce::default().build(&gf, 10);
//!
//! let q = quality(&approx.graph, &exact.graph, &native);
//! assert!(q > 0.8, "KNN quality {q}");
//! ```

pub use goldfinger_core as core;
pub use goldfinger_datasets as datasets;
pub use goldfinger_knn as knn;
pub use goldfinger_minhash as minhash;
pub use goldfinger_obs as obs;
pub use goldfinger_recommend as recommend;
pub use goldfinger_theory as theory;

/// One-stop imports for applications.
pub mod prelude {
    pub use goldfinger_core::blip::{BlipJaccard, BlipParams, BlipStore};
    pub use goldfinger_core::estimate::{corrected_jaccard, CorrectedShfJaccard};
    pub use goldfinger_core::hash::{DynHasher, HasherKind, ItemHasher};
    pub use goldfinger_core::profile::{ItemId, Profile, ProfileStore, UserId};
    pub use goldfinger_core::shf::{Shf, ShfParams, ShfStore};
    pub use goldfinger_core::similarity::{
        ExplicitCosine, ExplicitJaccard, ShfCosine, ShfJaccard, Similarity,
    };
    pub use goldfinger_core::topk::{Scored, TopK};
    pub use goldfinger_datasets::cv::{five_fold, FoldSplit};
    pub use goldfinger_datasets::model::{BinaryDataset, RatingsDataset};
    pub use goldfinger_datasets::sample::sample_least_popular;
    pub use goldfinger_datasets::stats::DatasetStats;
    pub use goldfinger_datasets::synth::SynthConfig;
    pub use goldfinger_knn::brute::BruteForce;
    pub use goldfinger_knn::builder::{BuildInput, ErasedBuilder};
    pub use goldfinger_knn::builders::{BuilderConfig, BuilderSpec};
    pub use goldfinger_knn::graph::{KnnGraph, KnnResult};
    pub use goldfinger_knn::hyrec::Hyrec;
    pub use goldfinger_knn::kiff::Kiff;
    pub use goldfinger_knn::lsh::Lsh;
    pub use goldfinger_knn::metrics::{average_similarity, edge_recall, quality};
    pub use goldfinger_knn::nndescent::NNDescent;
    pub use goldfinger_minhash::{BbitParams, BbitStore};
    pub use goldfinger_obs::{
        BuildObserver, IterationEvent, NoopObserver, Phase, RecordingObserver, RunReport, SpanSet,
    };
    pub use goldfinger_recommend::{evaluate_fold, recommend_for_user, RecallStats};
    pub use goldfinger_theory::pair::ProfilePair;
    pub use goldfinger_theory::privacy::guarantees;
}
