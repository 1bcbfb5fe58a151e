//! # goldfinger-knn
//!
//! KNN graph construction algorithms over any
//! [`goldfinger_core::similarity::Similarity`] provider. Running any
//! algorithm with the explicit provider reproduces the paper's *native*
//! baselines; swapping in the SHF provider turns the same algorithm into its
//! *GoldFinger* variant — no other change required, which is the paper's
//! genericity claim.
//!
//! | Algorithm | Module | Character |
//! |-----------|--------|-----------|
//! | Brute Force | [`brute`] | exact, `n(n−1)/2` comparisons |
//! | NNDescent | [`nndescent`] | greedy local joins + reverse graph |
//! | Hyrec | [`hyrec`] | greedy neighbours-of-neighbours |
//! | LSH | [`lsh`] | MinHash bucketing, in-bucket scans |
//! | KIFF | [`kiff`] | inverted-index co-rating candidates |
//! | Cluster | [`cluster`] | blip-hashed cache-resident cluster scans |
//!
//! All six implement the [`ErasedBuilder`] trait ([`builder`]) and take
//! the provider as `&dyn Similarity`; harnesses enumerate them through the
//! [`builders`] registry instead of naming concrete types, and the greedy
//! refiners share the iterative scaffolding of [`engine::RefineEngine`].
//!
//! ```
//! use goldfinger_core::shf::ShfParams;
//! use goldfinger_core::similarity::{ExplicitJaccard, ShfJaccard};
//! use goldfinger_core::profile::ProfileStore;
//! use goldfinger_knn::brute::BruteForce;
//!
//! let profiles = ProfileStore::from_item_lists(vec![
//!     (0..40).collect(), (20..60).collect(), (100..140).collect(),
//! ]);
//! // Native…
//! let exact = BruteForce::default().build(&ExplicitJaccard::new(&profiles), 2);
//! // …and GoldFinger, same algorithm:
//! let fps = ShfParams::default().fingerprint_store(&profiles);
//! let approx = BruteForce::default().build(&ShfJaccard::new(&fps), 2);
//! assert_eq!(exact.graph.neighbors(0)[0].user, approx.graph.neighbors(0)[0].user);
//! ```

#![warn(missing_docs)]

pub mod analysis;
pub mod brute;
pub mod builder;
pub mod builders;
pub mod cluster;
pub mod csr;
pub mod engine;
pub mod graph;
pub mod hyrec;
mod idsets;
pub mod instrument;
pub mod kiff;
pub mod lsh;
pub mod metrics;
pub mod neighborlist;
pub mod nndescent;
pub mod oocbuild;
pub mod oplog;
mod partials;
pub mod serve;
pub mod shard;
mod userscan;

pub use analysis::{degree_stats, edge_overlap, in_degrees, reverse_graph, DegreeStats};
// Observability: every builder also has a `build_observed` variant taking a
// `BuildObserver` (re-exported from `goldfinger-obs` for convenience).
pub use brute::BruteForce;
pub use builder::{BuildInput, ErasedBuilder};
pub use cluster::{Cluster, ClusterAssignment, ClusterStats};
pub use csr::{read_knn_graph, write_knn_graph};
pub use engine::{JoinStrategy, RefineEngine};
pub use goldfinger_obs::{BuildObserver, IterationEvent, NoopObserver, RecordingObserver};
pub use graph::{BuildStats, KnnGraph, KnnResult};
pub use hyrec::Hyrec;
pub use instrument::CountingSimilarity;
pub use kiff::Kiff;
pub use lsh::Lsh;
pub use metrics::{average_similarity, edge_recall, quality};
pub use nndescent::NNDescent;
pub use oocbuild::{OocConfig, OocStats};
pub use oplog::{write_op_log, OpLogReader};
pub use serve::{
    replay, replay_stream, synth_op_stream, synth_ops, KnnService, Op, ReplayOutcome, ServeConfig,
    ServiceSnapshot,
};
pub use shard::{Repair, Shard, ShardSet};
