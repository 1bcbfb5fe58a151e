//! # goldfinger-core
//!
//! Core building blocks of **GoldFinger**, the fingerprinting scheme of
//! *"Fingerprinting Big Data: The Case of KNN Graph Construction"*
//! (Guerraoui, Kermarrec, Ruas, Taïani — ICDE 2019).
//!
//! The central idea: instead of computing set similarities on explicit
//! profiles (sets of item ids), compact every profile into a **Single Hash
//! Fingerprint** — a `b`-bit array plus its popcount — and estimate Jaccard's
//! index with one bitwise `AND` and two popcounts. Construction is a single
//! pass over the profile with one hash per item; comparison cost is
//! independent of profile size; and the lossy hashing obfuscates the
//! clear-text profile (k-anonymity / ℓ-diversity, analysed in
//! `goldfinger-theory`).
//!
//! ## Quick example
//!
//! ```
//! use goldfinger_core::shf::ShfParams;
//!
//! let params = ShfParams::default(); // 1024 bits, Jenkins' hash
//! let alice = params.fingerprint(&[1, 2, 3, 4, 5]);
//! let bob = params.fingerprint(&[4, 5, 6, 7]);
//! let estimate = alice.jaccard(&bob); // ≈ 2/7
//! assert!((estimate - 2.0 / 7.0).abs() < 0.1);
//! ```
//!
//! ## Module map
//!
//! - [`arena`] — cache-line-aligned word storage for fingerprint arenas.
//! - [`bits`] — fixed-width bit arrays and popcount kernels.
//! - [`blip`] — BLIP differential privacy (randomized response) on SHFs.
//! - [`estimate`] — collision-corrected size/Jaccard estimators.
//! - [`hash`] — item hash functions (Jenkins' hash is the paper's choice).
//! - [`kernels`] — runtime-dispatched SIMD popcount kernels (`GF_KERNEL`).
//! - [`profile`] — explicit sorted-set profiles and their packed store.
//! - [`serial`] — the versioned fingerprint store file, with integrity checks.
//! - [`shf`] — Single Hash Fingerprints and the packed fingerprint store.
//! - [`similarity`] — the provider abstraction KNN algorithms consume.
//! - [`topk`] — bounded top-k selection (`argtopk` of the paper).
//! - [`visit`] — stamp/round visited-sets with O(1) clear.
//! - [`parallel`] — data-parallel helpers (pool-backed when one is installed).
//! - [`pool`] — persistent work-stealing worker pool with a scoped API.

#![warn(missing_docs)]

pub mod arena;
pub mod bits;
pub mod blip;
pub mod estimate;
pub mod hash;
pub mod kernels;
pub mod parallel;
pub mod pool;
pub mod profile;
pub mod serial;
pub mod shf;
pub mod similarity;
pub mod topk;
pub mod visit;

pub use arena::{AlignedWords, CACHE_LINE};
pub use bits::BitArray;
pub use blip::{BlipJaccard, BlipParams, BlipStore};
pub use estimate::{corrected_jaccard, estimate_set_size, CorrectedShfJaccard};
pub use hash::{DynHasher, HasherKind, ItemHasher, JenkinsOneAtATime};
pub use kernels::{KernelStats, SimKernel};
pub use pool::{Pool, PoolStats};
pub use profile::{ItemId, Profile, ProfileStore, UserId};
pub use serial::{read_store, write_store, DecodeError};
pub use shf::{Shf, ShfParams, ShfStore};
pub use similarity::{ExplicitCosine, ExplicitJaccard, ShfCosine, ShfJaccard, Similarity};
pub use topk::{Scored, TopK};
pub use visit::VisitStamp;
