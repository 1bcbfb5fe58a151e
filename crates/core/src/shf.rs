//! Single Hash Fingerprints (SHFs) — the paper's core data structure.
//!
//! An SHF summarises a profile `P` as a pair `(B, c)` where `B` is a `b`-bit
//! array with bit `h(e)` set for every item `e ∈ P`, and `c = popcount(B)`
//! is cached. Jaccard's index between two profiles is then estimated with a
//! single `AND` + popcount (Eq. 4 of the paper):
//!
//! ```text
//! Ĵ(P1, P2) = |B1 ∧ B2| / (c1 + c2 − |B1 ∧ B2|)
//! ```
//!
//! Unlike Bloom filters, SHFs deliberately use a *single* hash function:
//! extra hash functions increase single-bit collisions and degrade the
//! similarity approximation (see the multi-hash ablation in
//! `goldfinger-bench`).

use crate::arena::{row_words_for, AlignedWords, ArenaBackend};
use crate::bits::BitArray;
use crate::hash::{DynHasher, ItemHasher};
use crate::kernels;
use crate::parallel::{par_fill_users, par_map_chunks, par_map_indexed};
use crate::pool::Pool;
use crate::profile::{ItemId, ProfileStore};
use crate::serial::{self, DecodeError};
use std::fs::{File, OpenOptions};
use std::io::{self, BufReader, BufWriter};
use std::path::Path;

/// Parameters of a fingerprinting scheme: the fingerprint width `b` and the
/// item hash function. Every [`ShfStore`] carries the parameters that made
/// it, and folds later items with them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShfParams<H = DynHasher> {
    bits: u32,
    hasher: H,
}

impl Default for ShfParams<DynHasher> {
    /// The paper's default configuration: 1024-bit SHFs with Jenkins' hash.
    fn default() -> Self {
        ShfParams::new(1024, DynHasher::default())
    }
}

impl ShfParams {
    /// Creates a scheme with `bits`-bit fingerprints and the given hasher.
    ///
    /// # Panics
    /// Panics if `bits == 0`.
    pub fn new(bits: u32, hasher: DynHasher) -> Self {
        assert!(bits > 0, "fingerprint width must be positive");
        ShfParams { bits, hasher }
    }

    /// Fingerprint width in bits.
    #[inline]
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// The item hasher.
    #[inline]
    pub fn hasher(&self) -> &DynHasher {
        &self.hasher
    }

    /// The bit `item` sets in a fingerprint.
    #[inline]
    pub fn bit_position(&self, item: ItemId) -> u32 {
        self.hasher.bit_position(item as u64, self.bits)
    }

    /// Fingerprints one profile.
    pub fn fingerprint(&self, items: &[ItemId]) -> Shf {
        let mut bits = BitArray::zeroed(self.bits);
        for &it in items {
            bits.set(self.bit_position(it));
        }
        let card = bits.count_ones();
        Shf { bits, card }
    }

    /// Fingerprints every profile using `hashes` hash functions per item,
    /// Bloom-filter style.
    ///
    /// This exists as an *ablation*: the paper argues (§2.3) that unlike
    /// Bloom filters, SHFs must use a single hash function — every extra
    /// hash inflates single-bit collisions and degrades the similarity
    /// approximation. `hashes = 1` is identical to
    /// [`ShfParams::fingerprint_store`].
    ///
    /// # Panics
    /// Panics if `hashes == 0`.
    pub fn fingerprint_store_multi(&self, profiles: &ProfileStore, hashes: u32) -> ShfStore {
        assert!(hashes > 0, "need at least one hash function");
        self.fill_store(profiles, |rows, row, items| {
            for &it in items {
                for h in 0..hashes {
                    // Derive per-function inputs by folding the function
                    // index into the item id with an odd multiplier.
                    let salted = (it as u64) ^ (h as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    rows.set(row, self.hasher.bit_position(salted, self.bits));
                }
            }
        })
    }

    /// Fingerprints every profile of a [`ProfileStore`] into a packed
    /// [`ShfStore`] (one contiguous allocation, cache-friendly scans).
    ///
    /// When a worker [`Pool`] is installed ([`Pool::install`]), construction
    /// is parallelized across its threads — fingerprinting is one of the
    /// paper's five cost phases, and at large scales (Table 4 datasets) the
    /// serial pass is a visible fraction of end-to-end build time. Without a
    /// pool this runs serially. Every user's row is computed from that
    /// user's profile alone, so the result is bit-identical either way.
    pub fn fingerprint_store(&self, profiles: &ProfileStore) -> ShfStore {
        let _t =
            goldfinger_obs::trace::span_arg("phase", "fingerprinting", profiles.n_users() as u64);
        self.fill_store(profiles, |rows, row, items| {
            for &it in items {
                rows.insert(row, it);
            }
        })
    }

    /// Fills a heap [`ShfStreamWriter`] with one [`par_fill_users`] pass on
    /// the installed [`Pool`] (serially without one) and seals it;
    /// `set_bits(rows, row, items)` ORs one user's bits into its row.
    fn fill_store(
        &self,
        profiles: &ProfileStore,
        set_bits: impl Fn(&mut RowChunk, usize, &[ItemId]) + Sync,
    ) -> ShfStore {
        let threads = Pool::current().map_or(1, |p| p.threads());
        let mut writer = ShfStreamWriter::new(*self, profiles.n_users());
        par_fill_users(
            profiles,
            threads,
            |size| writer.row_chunks_mut(size),
            set_bits,
        );
        writer.finish().expect("heap arenas do not fail")
    }
}

/// Incremental builder of an [`ShfStore`] for streaming ingestion: the
/// aligned arena is allocated up front for a known population, batches of
/// `(row, item)` associations are OR-ed in as they come off the wire, and
/// cardinalities are computed once by popcount at [`ShfStreamWriter::finish`].
///
/// This is the arena-side half of the `datasets → core::pool →
/// core::arena` streaming pipeline: a chunked file reader feeds batches,
/// each batch is hashed in parallel on the installed [`Pool`], and the
/// resulting bit positions are OR-ed stripe-parallel — each worker owns a
/// contiguous range of arena rows, so no two threads ever write the same
/// word. ORs are idempotent and commutative and the popcount pass is
/// order-independent, so the finished store is **bit-identical** to
/// [`ShfParams::fingerprint_store`] over the same associations, for any
/// thread count and any batch boundaries. Peak memory is the arena plus
/// one in-flight batch — independent of the file size.
///
/// The arena can live on either [`ArenaBackend`]: [`ShfStreamWriter::new`]
/// allocates it on the heap, [`ShfStreamWriter::new_spilled`] maps it
/// straight onto the rows of a store file, so a multi-GB ratings ingest
/// never holds the full arena as anonymous memory — the kernel writes
/// back and evicts pages as it pleases.
#[derive(Debug)]
pub struct ShfStreamWriter {
    params: ShfParams,
    words_per_fp: usize,
    row_words: usize,
    data: ArenaBackend,
    n: usize,
}

impl ShfStreamWriter {
    /// Allocates a zeroed arena for `n_users` fingerprints made with
    /// `params`.
    pub fn new(params: ShfParams, n_users: usize) -> Self {
        Self::with_arena(params, n_users, |len| Ok(ArenaBackend::heap(len)))
            .expect("heap arenas do not fail")
    }

    /// Like [`ShfStreamWriter::new`], but the arena is the rows of a new
    /// store file at `path` (see [`crate::serial`]), mapped in place.
    /// [`ShfStreamWriter::finish`] writes the file's head, so the file
    /// reopens with [`ShfStore::open_spilled`] or [`serial::read_store`].
    pub fn new_spilled(params: ShfParams, n_users: usize, path: &Path) -> io::Result<Self> {
        Self::with_arena(params, n_users, |len| map_rows(path, n_users, len, true))
    }

    fn with_arena(
        params: ShfParams,
        n: usize,
        arena: impl FnOnce(usize) -> io::Result<ArenaBackend>,
    ) -> io::Result<Self> {
        let words_per_fp = BitArray::words_for(params.bits());
        let row_words = row_words_for(words_per_fp);
        Ok(ShfStreamWriter {
            params,
            words_per_fp,
            row_words,
            data: arena(row_words * n)?,
            n,
        })
    }

    /// ORs one batch of `(row, item)` associations into the arena: items
    /// are hashed in parallel on the installed [`Pool`], then each worker
    /// applies the positions falling into its own contiguous row stripe.
    ///
    /// # Panics
    /// Panics if a row is out of range.
    pub fn ingest_batch(&mut self, batch: &[(u32, ItemId)]) {
        if batch.is_empty() {
            return;
        }
        let _t = goldfinger_obs::trace::span_arg("phase", "stream_ingest", batch.len() as u64);
        let threads = Pool::current().map_or(1, |p| p.threads());
        let params = self.params;
        let n = self.n;
        let positions: Vec<(u32, u32)> = par_map_indexed(batch.len(), threads, |i| {
            let (row, it) = batch[i];
            assert!((row as usize) < n, "row {row} out of range");
            (row, params.bit_position(it))
        });
        let per = n.div_ceil(threads.max(1)).max(1);
        let mut stripes: Vec<RowChunk> = self.row_chunks_mut(per).collect();
        par_map_chunks(&mut stripes, threads, |_, first, stripes| {
            for (s, stripe) in stripes.iter_mut().enumerate() {
                let lo = (first + s) * per;
                let rows = lo as u32..(lo + per).min(n) as u32;
                for &(row, pos) in &positions {
                    if rows.contains(&row) {
                        stripe.set(row as usize - lo, pos);
                    }
                }
            }
        });
    }

    /// Hands the arena out as consecutive chunks of `users` rows each (the
    /// last may be shorter): chunk `c` holds rows `c·users..`. Callers that
    /// fingerprint disjoint users on several threads write through these
    /// instead of [`ShfStreamWriter::ingest_batch`]. A chunk only ORs item
    /// bits into its rows, so the padding stays zero, and the finished
    /// store is the same whatever the chunking or the write order.
    ///
    /// # Panics
    /// Panics if `users == 0`.
    pub fn row_chunks_mut(&mut self, users: usize) -> impl Iterator<Item = RowChunk<'_>> {
        assert!(users > 0, "chunks need at least one row");
        let (params, row_words) = (self.params, self.row_words);
        self.data
            .chunks_mut(users * row_words)
            .map(move |words| RowChunk {
                params,
                row_words,
                words,
            })
    }

    /// Seals the arena into an [`ShfStore`], computing every cached
    /// cardinality with one parallel popcount sweep. This is the one place
    /// a freshly filled arena becomes a store.
    ///
    /// A spilled writer ([`ShfStreamWriter::new_spilled`]) seals its store
    /// file: the mapping is synced and the head is written in front of the
    /// rows. A failed sync or write is returned; a heap writer never
    /// fails.
    pub fn finish(self) -> io::Result<ShfStore> {
        let threads = Pool::current().map_or(1, |p| p.threads());
        let ShfStreamWriter {
            params,
            words_per_fp,
            row_words,
            data,
            n,
        } = self;
        let cards: Vec<u32> = par_map_indexed(n, threads, |u| {
            data[u * row_words..u * row_words + words_per_fp]
                .iter()
                .map(|w| w.count_ones())
                .sum()
        });
        let store = ShfStore::from_arena(params, data, cards);
        store.seal()?;
        Ok(store)
    }
}

/// A run of consecutive arena rows of an [`ShfStreamWriter`], from
/// [`ShfStreamWriter::row_chunks_mut`].
#[derive(Debug)]
pub struct RowChunk<'a> {
    params: ShfParams,
    row_words: usize,
    words: &'a mut [u64],
}

impl RowChunk<'_> {
    /// ORs `item`'s bit into row `row` of this chunk (counted from the
    /// chunk's first row).
    ///
    /// # Panics
    /// Panics if `row` is past the chunk's end.
    #[inline]
    pub fn insert(&mut self, row: usize, item: ItemId) {
        self.set(row, self.params.bit_position(item));
    }

    /// ORs bit `pos` (below the fingerprint width) into row `row` of this
    /// chunk.
    ///
    /// # Panics
    /// Panics if `row` is past the chunk's end.
    #[inline]
    pub(crate) fn set(&mut self, row: usize, pos: u32) {
        debug_assert!(
            pos < self.params.bits(),
            "bit {pos} past the fingerprint width"
        );
        self.words[row * self.row_words + (pos / 64) as usize] |= 1u64 << (pos % 64);
    }
}

/// A Single Hash Fingerprint: a bit array plus its cached cardinality.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Shf {
    bits: BitArray,
    card: u32,
}

impl Shf {
    /// Builds an SHF directly from a bit array (recomputes the cardinality).
    pub fn from_bits(bits: BitArray) -> Self {
        let card = bits.count_ones();
        Shf { bits, card }
    }

    /// The underlying bit array.
    #[inline]
    pub fn bits(&self) -> &BitArray {
        &self.bits
    }

    /// Cached number of set bits (`c` in the paper).
    #[inline]
    pub fn cardinality(&self) -> u32 {
        self.card
    }

    /// Fingerprint width in bits (`b`).
    #[inline]
    pub fn width(&self) -> u32 {
        self.bits.len()
    }

    /// Estimated Jaccard index between the fingerprinted profiles (Eq. 4).
    ///
    /// Returns 0 when both fingerprints are empty.
    ///
    /// # Panics
    /// Panics if the fingerprint widths differ.
    #[inline]
    pub fn jaccard(&self, other: &Shf) -> f64 {
        let inter = self.bits.and_count(&other.bits);
        jaccard_from_counts(inter, self.card, other.card)
    }

    /// Merges another fingerprint into this one (set union of the
    /// underlying profiles).
    ///
    /// # Panics
    /// Panics if the widths differ.
    pub fn merge(&mut self, other: &Shf) {
        self.bits.union_with(&other.bits);
        self.card = self.bits.count_ones();
    }

    /// Estimated cosine similarity between the fingerprinted binary
    /// profiles: `|B1 ∧ B2| / √(c1·c2)`.
    ///
    /// The paper focuses on Jaccard but notes the scheme covers any
    /// intersection-driven set similarity; cosine is the other common one.
    #[inline]
    pub fn cosine(&self, other: &Shf) -> f64 {
        cosine_from_counts(self.bits.and_count(&other.bits), self.card, other.card)
    }
}

/// Assembles the Jaccard estimate from an AND-popcount and two cardinalities.
#[inline]
pub fn jaccard_from_counts(intersection: u32, c1: u32, c2: u32) -> f64 {
    // `c1 + c2` can exceed u32::MAX for two near-full wide fingerprints;
    // widen before adding so the union never wraps.
    let union = (c1 as u64 + c2 as u64).saturating_sub(intersection as u64);
    if union == 0 {
        0.0
    } else {
        intersection as f64 / union as f64
    }
}

/// Assembles the cosine estimate `|B1 ∧ B2| / √(c1·c2)` from an
/// AND-popcount and two cardinalities; 0 when either fingerprint is empty.
#[inline]
pub(crate) fn cosine_from_counts(intersection: u32, c1: u32, c2: u32) -> f64 {
    if c1 == 0 || c2 == 0 {
        return 0.0;
    }
    intersection as f64 / ((c1 as f64) * (c2 as f64)).sqrt()
}

/// Ids per gather chunk in [`ShfStore::estimate_batch`]: large enough to
/// amortise the kernel call and keep the prefetch pipeline full, small
/// enough for the intermediate counts to live on the stack.
const GATHER_CHUNK: usize = 64;

/// Maps the rows of the store file of `n` fingerprints at `path` (a new
/// file of `len` zero words of rows with `create`). The file's
/// little-endian words are used as they lie, so mapping needs a
/// little-endian host.
fn map_rows(path: &Path, n: usize, len: usize, create: bool) -> io::Result<ArenaBackend> {
    if cfg!(target_endian = "big") {
        return Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "store files are mapped only on little-endian hosts",
        ));
    }
    ArenaBackend::spill(path, serial::rows_offset(n), len, create)
}

/// All users' fingerprints packed into one cache-line-aligned arena.
///
/// Fingerprint `u` occupies the first `words_per_fp` words of row
/// `data[u*row_words .. (u+1)*row_words]`, where `row_words` is the
/// [`row_words_for`] stride: the arena base is 64-byte aligned and rows are
/// padded (with zero words) so no fingerprint straddles a cache line it
/// did not need to touch. This is the representation every GoldFinger KNN
/// algorithm scans; batched lookups go through the runtime-dispatched
/// [`crate::kernels`].
///
/// The store carries the [`ShfParams`] that made it, so later folds
/// ([`ShfStore::apply_deltas`]) hash with the same width and hasher.
///
/// The arena lives on an [`ArenaBackend`]: the heap by default, or the
/// mapped rows of a store file after [`ShfStore::spill_to`] /
/// [`ShfStore::open_spilled`]. Every accessor — `fingerprint_words`, the
/// batched gather kernels, the delta writers — is backend-agnostic; the
/// only observable difference is residency, which
/// [`ShfStore::advise_cold_rows`] lets out-of-core builds manage.
#[derive(Debug, Clone)]
pub struct ShfStore {
    params: ShfParams,
    words_per_fp: usize,
    row_words: usize,
    data: ArenaBackend,
    cards: Vec<u32>,
}

impl ShfStore {
    /// Wraps a filled arena of padded rows and its cached cardinalities.
    ///
    /// # Panics
    /// Panics if the arena length does not match the population and width.
    pub(crate) fn from_arena(params: ShfParams, data: ArenaBackend, cards: Vec<u32>) -> Self {
        let words_per_fp = BitArray::words_for(params.bits());
        let row_words = row_words_for(words_per_fp);
        assert_eq!(
            data.len(),
            row_words * cards.len(),
            "arena length does not match population and width"
        );
        ShfStore {
            params,
            words_per_fp,
            row_words,
            data,
            cards,
        }
    }

    /// Reassembles a store made with `params` from raw parts (the inverse
    /// of [`ShfStore::fingerprint_words`] / [`ShfStore::cardinality`]
    /// dumps, used by BLIP's flipped rows and by benches). `data` is
    /// *unpadded* — `words_per_fp` words per fingerprint, back to back —
    /// and is repacked into the aligned padded arena here.
    ///
    /// Cached cardinalities are verified against their bit arrays in debug
    /// builds only: callers pass trusted data, and untrusted bytes go
    /// through [`serial::read_store`], which checks them. Dimensions are
    /// still checked in release.
    ///
    /// # Panics
    /// Panics if the dimensions are inconsistent, or (debug builds) if a
    /// cached cardinality does not match its bit array.
    pub fn from_raw_parts(params: ShfParams, cards: Vec<u32>, data: Vec<u64>) -> Self {
        let words_per_fp = BitArray::words_for(params.bits());
        assert_eq!(
            data.len(),
            cards.len() * words_per_fp,
            "data length does not match population and width"
        );
        #[cfg(debug_assertions)]
        for (u, &card) in cards.iter().enumerate() {
            let words = &data[u * words_per_fp..(u + 1) * words_per_fp];
            let actual: u32 = words.iter().map(|w| w.count_ones()).sum();
            assert_eq!(actual, card, "cardinality mismatch for fingerprint {u}");
        }
        let row_words = row_words_for(words_per_fp);
        let mut arena = AlignedWords::zeroed(row_words * cards.len());
        for (u, fp) in data.chunks_exact(words_per_fp).enumerate() {
            arena[u * row_words..u * row_words + words_per_fp].copy_from_slice(fp);
        }
        ShfStore::from_arena(params, arena.into(), cards)
    }

    /// Copies the store into a new store file at `path` (see
    /// [`crate::serial`]) and returns the store mapped from it (the
    /// receiver is untouched). The mapped rows *are* the working arena;
    /// there is no separate serialization step.
    pub fn spill_to(&self, path: &Path) -> io::Result<ShfStore> {
        let mut data = map_rows(path, self.len(), self.data.len(), true)?;
        data.copy_from_slice(&self.data);
        let store = ShfStore::from_arena(self.params, data, self.cards.clone());
        store.seal()?;
        Ok(store)
    }

    /// Maps the store file at `path` (written by [`ShfStore::spill_to`],
    /// a spilled [`ShfStreamWriter`] or [`serial::write_store`]) in place:
    /// no bytes are copied. The head is checked as by
    /// [`serial::read_store`]; the rows' popcounts are not, since that
    /// would fault in the whole file.
    pub fn open_spilled(path: &Path) -> Result<ShfStore, DecodeError> {
        let head = serial::read_head(&mut BufReader::new(File::open(path)?))?;
        let data = map_rows(path, head.cards.len(), head.arena_words, false)?;
        Ok(ShfStore::from_arena(head.params, data, head.cards))
    }

    /// Backend name of the arena (`"heap"` / `"mmap"`), for reports.
    #[inline]
    pub fn backend_kind(&self) -> &'static str {
        self.data.kind()
    }

    /// True when the arena is file-backed (spilled).
    #[inline]
    pub fn is_spilled(&self) -> bool {
        self.data.is_spilled()
    }

    /// Evicts the resident pages of fingerprint rows `lo..hi` on a spilled
    /// arena (no-op on the heap backend): the residency lever of the
    /// out-of-core build — after a shard finishes scanning a row range,
    /// dropping it bounds peak RSS without invalidating any `&[u64]` the
    /// kernels might gather later (the pages simply fault back in).
    ///
    /// # Panics
    /// Panics if `lo > hi` or `hi > len()`.
    pub fn advise_cold_rows(&self, lo: usize, hi: usize) -> io::Result<()> {
        assert!(lo <= hi && hi <= self.len(), "invalid row range {lo}..{hi}");
        self.data
            .advise_cold(lo * self.row_words, hi * self.row_words)
    }

    /// Completes a mapped store's file: syncs the rows and writes the head
    /// in front of them. No-op on the heap.
    fn seal(&self) -> io::Result<()> {
        let Some(path) = self.data.spill_path() else {
            return Ok(());
        };
        self.data.sync()?;
        let mut file = BufWriter::new(OpenOptions::new().write(true).open(path)?);
        serial::write_head(&mut file, &self.params, &self.cards)?;
        file.into_inner()
            .map_err(io::IntoInnerError::into_error)?
            .sync_all()
    }

    /// The parameters that made the store: width and hasher.
    #[inline]
    pub fn params(&self) -> &ShfParams {
        &self.params
    }

    /// Every cached cardinality, in user order.
    #[inline]
    pub(crate) fn cards(&self) -> &[u32] {
        &self.cards
    }

    /// Number of fingerprints.
    #[inline]
    pub fn len(&self) -> usize {
        self.cards.len()
    }

    /// True if the store is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.cards.is_empty()
    }

    /// Fingerprint width in bits.
    #[inline]
    pub fn width(&self) -> u32 {
        self.params.bits()
    }

    /// Words per fingerprint (`ceil(bits / 64)`).
    #[inline]
    pub fn words_per_fingerprint(&self) -> usize {
        self.words_per_fp
    }

    /// Row stride of the arena in words (`words_per_fp` plus cache-line
    /// padding; see [`row_words_for`]).
    #[inline]
    pub fn row_words(&self) -> usize {
        self.row_words
    }

    /// The whole arena (padded rows), for batched kernels and benches.
    #[inline]
    pub fn arena_words(&self) -> &[u64] {
        &self.data
    }

    /// The raw words of fingerprint `u` (without its row padding).
    #[inline]
    pub fn fingerprint_words(&self, u: u32) -> &[u64] {
        let start = u as usize * self.row_words;
        &self.data[start..start + self.words_per_fp]
    }

    /// Cached cardinality of fingerprint `u`.
    #[inline]
    pub fn cardinality(&self, u: u32) -> u32 {
        self.cards[u as usize]
    }

    /// Estimated Jaccard index between users `u` and `v` (Eq. 4).
    #[inline]
    pub fn jaccard(&self, u: u32, v: u32) -> f64 {
        self.estimate(u, v, jaccard_from_counts)
    }

    /// Per-pair twin of [`ShfStore::estimate_batch`]:
    /// `f(|B_u ∧ B_v|, c_u, c_v)` through the active kernel.
    #[inline]
    pub fn estimate<F>(&self, u: u32, v: u32, f: F) -> f64
    where
        F: Fn(u32, u32, u32) -> f64,
    {
        let inter = kernels::and_count(self.fingerprint_words(u), self.fingerprint_words(v));
        f(inter, self.cards[u as usize], self.cards[v as usize])
    }

    /// Jaccard estimate computed without the cached cardinalities,
    /// recomputing `|B1 ∨ B2|` instead (ablation: Eq. 7 denominator `û`).
    #[inline]
    pub fn jaccard_via_or(&self, u: u32, v: u32) -> f64 {
        let a = self.fingerprint_words(u);
        let b = self.fingerprint_words(v);
        let inter = kernels::and_count(a, b);
        let union = kernels::or_count(a, b);
        if union == 0 {
            0.0
        } else {
            inter as f64 / union as f64
        }
    }

    /// Batched `|B_u ∧ B_id|` for a scattered id list, through the active
    /// kernel's gather entry point (with next-row software prefetch).
    ///
    /// # Panics
    /// Panics if `ids.len() != counts.len()` or any id is out of range.
    #[inline]
    pub fn and_counts_gather(&self, u: u32, ids: &[u32], counts: &mut [u32]) {
        assert_eq!(ids.len(), counts.len());
        let query = self.fingerprint_words(u);
        (kernels::active().and_counts_gather)(query, &self.data, self.row_words, ids, counts);
        kernels::note_batched(ids.len());
    }

    /// Query-major batched estimate: `out[i] = f(|B_u ∧ B_id|, c_u, c_id)`
    /// for every `id`, where `f` is a count function such as
    /// [`jaccard_from_counts`]. This is the one chunked gather of every SHF
    /// estimator: ids go through [`ShfStore::and_counts_gather`] in
    /// fixed-size stack chunks (no allocation, any `ids.len()`), and `f` is
    /// monomorphised into the loop.
    ///
    /// Values are identical to per-pair [`ShfStore::estimate`] calls with
    /// the same `f`: the counts are exact integers whatever the kernel, and
    /// `f` sees the same inputs.
    ///
    /// # Panics
    /// Panics if `ids.len() != out.len()` or any id is out of range.
    pub fn estimate_batch<F>(&self, u: u32, ids: &[u32], out: &mut [f64], f: F)
    where
        F: Fn(u32, u32, u32) -> f64,
    {
        assert_eq!(ids.len(), out.len());
        let c_u = self.cards[u as usize];
        let mut counts = [0u32; GATHER_CHUNK];
        for (ids, out) in ids.chunks(GATHER_CHUNK).zip(out.chunks_mut(GATHER_CHUNK)) {
            let counts = &mut counts[..ids.len()];
            self.and_counts_gather(u, ids, counts);
            for ((&inter, &v), o) in counts.iter().zip(ids).zip(out.iter_mut()) {
                *o = f(inter, c_u, self.cards[v as usize]);
            }
        }
    }

    /// Folds fresh items into fingerprint `u` in place, hashed with the
    /// store's own [`ShfParams`] — the delta-fingerprinting primitive:
    /// bits are OR-ed directly into the
    /// arena row and the cached cardinality is maintained incrementally,
    /// so a profile-growth update costs `O(|added_items|)` instead of
    /// refingerprinting the whole profile. Returns the number of bits
    /// newly set. Each bit is tested before it is set, so duplicate items
    /// within one call — and items whose hash collides with an already-set
    /// bit — contribute nothing to the cardinality: the result always
    /// equals a from-scratch fingerprint of the deduplicated union profile.
    ///
    /// # Panics
    /// Panics if `u` is out of range.
    pub fn apply_delta(&mut self, u: u32, added_items: &[ItemId]) -> u32 {
        let params = self.params;
        self.or_new_bits(u, added_items.iter().map(|&it| params.bit_position(it)))
    }

    /// Applies a batch of deltas: hashes every delta's items in parallel
    /// on the installed [`Pool`] (the expensive half of a delta), then
    /// ORs the resulting bit positions into the arena serially **in batch
    /// order**. Returns the total number of bits newly set.
    ///
    /// The serial OR phase makes the result independent of the thread
    /// count even when the same user appears in several deltas, and each
    /// bit is still tested before it is set, so cardinalities stay exact
    /// under duplicates — bit-identical to calling
    /// [`ShfStore::apply_delta`] once per delta in order.
    ///
    /// # Panics
    /// Panics if any user id is out of range.
    pub fn apply_deltas(&mut self, deltas: &[(u32, Vec<ItemId>)]) -> u32 {
        let threads = Pool::current().map_or(1, |p| p.threads());
        let params = self.params;
        let positions: Vec<Vec<u32>> = par_map_indexed(deltas.len(), threads, |i| {
            deltas[i]
                .1
                .iter()
                .map(|&it| params.bit_position(it))
                .collect()
        });
        deltas
            .iter()
            .zip(&positions)
            .map(|(&(u, _), pos)| self.or_new_bits(u, pos.iter().copied()))
            .sum()
    }

    /// The test-and-set row update of the delta writers: ORs bit
    /// positions into fingerprint `u`, counting only bits not already
    /// set, and adds that count to its cached cardinality. Returns the
    /// count.
    fn or_new_bits(&mut self, u: u32, positions: impl IntoIterator<Item = u32>) -> u32 {
        let start = u as usize * self.row_words;
        let row = &mut self.data[start..start + self.words_per_fp];
        let mut added = 0u32;
        for pos in positions {
            let word = &mut row[(pos / 64) as usize];
            let mask = 1u64 << (pos % 64);
            if *word & mask == 0 {
                *word |= mask;
                added += 1;
            }
        }
        self.cards[u as usize] += added;
        added
    }

    /// Extracts fingerprint `u` as an owned [`Shf`] (for inspection/tests).
    pub fn get(&self, u: u32) -> Shf {
        let mut bits = BitArray::zeroed(self.width());
        for pos in 0..self.width() {
            let w = self.fingerprint_words(u)[(pos / 64) as usize];
            if (w >> (pos % 64)) & 1 == 1 {
                bits.set(pos);
            }
        }
        Shf::from_bits(bits)
    }

    /// Bytes of fingerprint payload touched by one similarity evaluation
    /// (two fingerprints), used by the memory-traffic model of Table 5.
    #[inline]
    pub fn bytes_per_comparison(&self) -> u64 {
        2 * (self.words_per_fp as u64 * 8 + 4)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::{DynHasher, HasherKind};
    use crate::profile::ProfileStore;

    fn params(bits: u32) -> ShfParams<DynHasher> {
        ShfParams::new(bits, DynHasher::new(HasherKind::Jenkins, 42))
    }

    #[test]
    fn jaccard_from_counts_survives_u32_boundary() {
        // Two near-full cardinalities whose sum wraps u32: the estimate must
        // stay the true ratio, not collapse through a wrapped union.
        let c = u32::MAX - 3;
        let inter = u32::MAX - 7;
        let union = (c as u64 + c as u64) - inter as u64;
        let expected = inter as f64 / union as f64;
        let got = jaccard_from_counts(inter, c, c);
        assert!(
            (got - expected).abs() < 1e-12,
            "got {got}, expected {expected}"
        );
        // Identical full-width fingerprints: intersection == union == c.
        assert!((jaccard_from_counts(c, c, c) - 1.0).abs() < 1e-12);
        assert_eq!(jaccard_from_counts(0, 0, 0), 0.0);
    }

    #[test]
    fn default_params_match_paper() {
        let p = ShfParams::default();
        assert_eq!(p.bits(), 1024);
    }

    #[test]
    fn fingerprint_cardinality_bounded_by_profile_and_width() {
        let p = params(64);
        let items: Vec<u32> = (0..200).collect();
        let f = p.fingerprint(&items);
        assert!(f.cardinality() <= 64);
        assert!(f.cardinality() > 0);
        assert_eq!(f.cardinality(), f.bits().count_ones());
    }

    #[test]
    fn identical_profiles_have_jaccard_one() {
        let p = params(1024);
        let items: Vec<u32> = (0..80).collect();
        let a = p.fingerprint(&items);
        let b = p.fingerprint(&items);
        assert_eq!(a, b);
        assert!((a.jaccard(&b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn disjoint_small_profiles_have_low_jaccard() {
        let p = params(4096);
        let a = p.fingerprint(&(0..20).collect::<Vec<_>>());
        let b = p.fingerprint(&(1000..1020).collect::<Vec<_>>());
        // With 40 items in 4096 bits, collisions are rare: estimate ≈ 0.
        assert!(a.jaccard(&b) < 0.1);
    }

    #[test]
    fn empty_fingerprint_jaccard_is_zero() {
        let p = params(64);
        let a = p.fingerprint(&[]);
        let b = p.fingerprint(&[1, 2, 3]);
        assert_eq!(a.jaccard(&b), 0.0);
        assert_eq!(a.jaccard(&a), 0.0);
        assert_eq!(a.cosine(&b), 0.0);
    }

    #[test]
    fn estimator_overestimates_on_collisions() {
        // Tiny b forces collisions; the estimate of disjoint profiles rises.
        let p = params(8);
        let a = p.fingerprint(&(0..50).collect::<Vec<_>>());
        let b = p.fingerprint(&(100..150).collect::<Vec<_>>());
        assert!(a.jaccard(&b) > 0.5, "heavy collisions should inflate Ĵ");
    }

    #[test]
    fn store_matches_individual_fingerprints() {
        let lists: Vec<Vec<u32>> = vec![
            (0..80).collect(),
            (40..120).collect(),
            vec![],
            (0..5).collect(),
        ];
        let profiles = ProfileStore::from_item_lists(lists.clone());
        let p = params(256);
        let store = p.fingerprint_store(&profiles);
        assert_eq!(store.len(), 4);
        for (u, items) in lists.iter().enumerate() {
            let solo = p.fingerprint(items);
            assert_eq!(store.cardinality(u as u32), solo.cardinality());
            assert_eq!(store.get(u as u32), solo);
        }
        for u in 0..4u32 {
            for v in 0..4u32 {
                let solo = p
                    .fingerprint(&lists[u as usize])
                    .jaccard(&p.fingerprint(&lists[v as usize]));
                assert!((store.jaccard(u, v) - solo).abs() < 1e-12);
            }
        }
    }

    /// The reference of every fill test: each user's row copied from its
    /// own [`ShfParams::fingerprint`], padding left zero.
    fn serial_fill(p: &ShfParams, profiles: &ProfileStore) -> (Vec<u64>, Vec<u32>) {
        let row_words = row_words_for(BitArray::words_for(p.bits()));
        let mut data = vec![0u64; row_words * profiles.n_users()];
        let mut cards = Vec::new();
        for ((_, items), row) in profiles.iter().zip(data.chunks_mut(row_words)) {
            let shf = p.fingerprint(items);
            row[..shf.bits().words().len()].copy_from_slice(shf.bits().words());
            cards.push(shf.cardinality());
        }
        (data, cards)
    }

    #[test]
    fn fill_pass_matches_the_serial_fill_at_any_thread_count() {
        use crate::pool::Pool;
        // 200 bits is not a multiple of 64, so rows carry padding.
        let p = params(200);
        // An empty population, and one whose last unit is short.
        for n in [0usize, 2 * crate::parallel::FILL_UNIT + 37] {
            let lists: Vec<Vec<u32>> = (0..n as u32)
                .map(|u| ((u * 7)..(u * 7 + u % 11)).collect())
                .collect();
            let profiles = ProfileStore::from_item_lists(lists);
            let want = serial_fill(&p, &profiles);
            let check = |store: ShfStore, what: &str| {
                assert_eq!(&store.data[..], &want.0[..], "n={n} {what}");
                assert_eq!(store.cards, want.1, "n={n} {what}");
            };
            check(p.fingerprint_store(&profiles), "no pool");
            for threads in 1..=4 {
                let fill = || {
                    let mut w = ShfStreamWriter::new(p, n);
                    par_fill_users(
                        &profiles,
                        threads,
                        |size| w.row_chunks_mut(size),
                        |rows, row, items| {
                            for &it in items {
                                rows.insert(row, it);
                            }
                        },
                    );
                    w.finish().unwrap()
                };
                let pool = Pool::new(threads);
                check(
                    fill(),
                    &format!("par_fill_users, {threads} threads, no pool"),
                );
                check(
                    pool.install(fill),
                    &format!("par_fill_users, pool of {threads}"),
                );
                check(
                    pool.install(|| p.fingerprint_store(&profiles)),
                    &format!("fingerprint_store, pool of {threads}"),
                );
            }
        }
    }

    #[test]
    fn row_chunks_write_the_same_store_in_any_order() {
        let lists: Vec<Vec<u32>> = (0..53)
            .map(|u| ((u * 7)..(u * 7 + u % 11)).collect())
            .collect();
        let profiles = ProfileStore::from_item_lists(lists);
        let p = params(200); // not a multiple of 64: rows carry padding
        let want = p.fingerprint_store(&profiles);
        for users in [1usize, 4, 10, 53, 100] {
            let mut w = ShfStreamWriter::new(p, profiles.n_users());
            let mut chunks: Vec<RowChunk> = w.row_chunks_mut(users).collect();
            assert_eq!(chunks.len(), profiles.n_users().div_ceil(users));
            // Last chunk first: the order of the writes must not matter.
            for (c, chunk) in chunks.iter_mut().enumerate().rev() {
                for row in 0..users.min(profiles.n_users() - c * users) {
                    for &it in profiles.items((c * users + row) as u32) {
                        chunk.insert(row, it);
                    }
                }
            }
            let got = w.finish().unwrap();
            assert_eq!(&got.data[..], &want.data[..], "users={users}");
            assert_eq!(got.cards, want.cards, "users={users}");
        }
    }

    #[test]
    fn jaccard_via_or_agrees_with_cached_cardinalities() {
        // By inclusion-exclusion |A∨B| = c1 + c2 − |A∧B| exactly, so the two
        // estimators must agree to the last bit.
        let profiles = ProfileStore::from_item_lists(vec![(0..90).collect(), (30..140).collect()]);
        let store = params(512).fingerprint_store(&profiles);
        assert_eq!(store.jaccard(0, 1), store.jaccard_via_or(0, 1));
    }

    #[test]
    fn estimate_tracks_true_jaccard_for_wide_fingerprints() {
        // 100-item profiles with 50 shared items: J = 50/150 ≈ 0.333.
        let a_items: Vec<u32> = (0..100).collect();
        let b_items: Vec<u32> = (50..150).collect();
        let p = params(8192);
        let est = p.fingerprint(&a_items).jaccard(&p.fingerprint(&b_items));
        assert!((est - 1.0 / 3.0).abs() < 0.05, "est = {est}");
    }

    #[test]
    fn incremental_insert_matches_batch_fingerprinting() {
        let p = params(256);
        let items: Vec<u32> = (0..60).collect();
        let batch = p.fingerprint_store(&ProfileStore::from_item_lists(vec![items.clone()]));
        let mut incremental = p.fingerprint_store(&ProfileStore::from_item_lists(vec![vec![]]));
        for &it in &items {
            incremental.apply_delta(0, &[it]);
        }
        assert_eq!(incremental.data, batch.data);
        assert_eq!(incremental.cards, batch.cards);
        // Re-inserting is a no-op reported as a collision.
        assert_eq!(incremental.apply_delta(0, &items[..1]), 0);
        assert_eq!(incremental.cards, batch.cards);
    }

    #[test]
    fn merge_equals_fingerprint_of_union() {
        let p = params(512);
        let a_items: Vec<u32> = (0..40).collect();
        let b_items: Vec<u32> = (20..70).collect();
        let mut a = p.fingerprint(&a_items);
        let b = p.fingerprint(&b_items);
        a.merge(&b);
        let union: Vec<u32> = (0..70).collect();
        assert_eq!(a, p.fingerprint(&union));
    }

    #[test]
    fn multi_hash_with_one_function_matches_single_hash() {
        let profiles = ProfileStore::from_item_lists(vec![(0..90).collect(), (30..140).collect()]);
        let p = params(512);
        let single = p.fingerprint_store(&profiles);
        let multi = p.fingerprint_store_multi(&profiles, 1);
        assert_eq!(multi.data, single.data);
        assert_eq!(multi.cards, single.cards);
    }

    #[test]
    fn extra_hash_functions_inflate_cardinality_and_distort_jaccard() {
        let profiles = ProfileStore::from_item_lists(vec![(0..100).collect(), (50..150).collect()]);
        let p = params(256);
        let single = p.fingerprint_store_multi(&profiles, 1);
        let quad = p.fingerprint_store_multi(&profiles, 4);
        assert!(quad.cardinality(0) > single.cardinality(0));
        // True J = 1/3; the 4-hash estimate drifts further from it than the
        // single-hash estimate (the paper's argument against Bloom-style
        // multi-hashing).
        let truth = 1.0 / 3.0;
        assert!(
            (quad.jaccard(0, 1) - truth).abs() >= (single.jaccard(0, 1) - truth).abs(),
            "single {} quad {}",
            single.jaccard(0, 1),
            quad.jaccard(0, 1)
        );
    }

    #[test]
    fn bytes_per_comparison_model() {
        let profiles = ProfileStore::from_item_lists(vec![vec![1], vec![2]]);
        let store = params(1024).fingerprint_store(&profiles);
        // 1024 bits = 128 bytes per fingerprint + 4-byte cardinality, ×2.
        // The model counts logical payload; arena padding is not traffic.
        assert_eq!(store.bytes_per_comparison(), 2 * (128 + 4));
    }

    #[test]
    fn arena_rows_are_aligned_and_padding_stays_zero() {
        // 320 bits = 5 words, padded to a stride of 8 (one cache line).
        let lists: Vec<Vec<u32>> = (0..6).map(|u| (u * 10..u * 10 + 30).collect()).collect();
        let store = params(320).fingerprint_store(&ProfileStore::from_item_lists(lists));
        assert_eq!(store.words_per_fingerprint(), 5);
        assert_eq!(store.row_words(), 8);
        assert_eq!(store.arena_words().as_ptr() as usize % 64, 0);
        for u in 0..store.len() {
            let row = &store.arena_words()[u * 8..(u + 1) * 8];
            assert!(row[5..].iter().all(|&w| w == 0), "padding dirty for {u}");
        }
        // b = 64 must not inflate: one word per row, stride 1.
        let narrow = params(64).fingerprint_store(&ProfileStore::from_item_lists(vec![vec![1]]));
        assert_eq!(narrow.row_words(), 1);
    }

    fn batch_fixture() -> ShfStore {
        let lists: Vec<Vec<u32>> = (0..37)
            .map(|u| ((u * 3)..(u * 3 + 5 + u % 17)).collect())
            .collect();
        params(320).fingerprint_store(&ProfileStore::from_item_lists(lists))
    }

    #[test]
    fn gather_counts_match_pairwise_kernel() {
        let store = batch_fixture();
        // Repeats, non-monotonic order, and more ids than one gather chunk.
        let ids: Vec<u32> = (0..150u32).map(|i| (i * 13) % 37).collect();
        let mut and_counts = vec![0u32; ids.len()];
        store.and_counts_gather(5, &ids, &mut and_counts);
        for (&v, &a) in ids.iter().zip(&and_counts) {
            assert_eq!(a, store.get(5).bits().and_count(store.get(v).bits()));
        }
    }

    #[test]
    fn batched_estimates_equal_per_pair_calls() {
        let store = batch_fixture();
        let ids: Vec<u32> = (0..150u32).map(|i| (i * 7) % 37).collect();
        let mut jac = vec![0.0; ids.len()];
        let mut cos = vec![0.0; ids.len()];
        store.estimate_batch(3, &ids, &mut jac, jaccard_from_counts);
        store.estimate_batch(3, &ids, &mut cos, cosine_from_counts);
        let q = store.get(3);
        for ((&v, &j), &c) in ids.iter().zip(&jac).zip(&cos) {
            let other = store.get(v);
            // Bit-identical, not merely close: same integer counts, same
            // division — the determinism contract of the batched path.
            assert_eq!(j, q.jaccard(&other), "jaccard id {v}");
            assert_eq!(c, q.cosine(&other), "cosine id {v}");
        }
    }

    #[test]
    fn batched_calls_are_counted() {
        let store = batch_fixture();
        let before = kernels::stats();
        let ids = [0u32, 4, 9];
        let mut out = [0.0; 3];
        store.estimate_batch(0, &ids, &mut out, jaccard_from_counts);
        let delta = kernels::stats().since(&before);
        assert!(delta.batched_calls >= 1);
        assert!(delta.batched_rows >= ids.len() as u64);
    }

    #[test]
    fn apply_delta_matches_fingerprint_of_union() {
        let p = params(256);
        let mut lists: Vec<Vec<u32>> = vec![(0..40).collect(), (10..60).collect(), vec![]];
        let mut delta = p.fingerprint_store(&ProfileStore::from_item_lists(lists.clone()));
        let before = delta.cardinality(1);
        let fresh: Vec<u32> = (1000..1030).chain(0..5).chain(10..15).collect(); // new + present
        let added = delta.apply_delta(1, &fresh);
        // From scratch: the deduplicated union profile, fingerprinted anew.
        lists[1].extend(&fresh);
        let scratch = p.fingerprint_store(&ProfileStore::from_item_lists(lists));
        assert_eq!(delta.data, scratch.data);
        assert_eq!(delta.cards, scratch.cards);
        assert_eq!(added, scratch.cardinality(1) - before);
        assert!(added > 0);
        // Re-inserting is a no-op.
        assert_eq!(delta.apply_delta(1, &fresh), 0);
    }

    #[test]
    fn duplicate_items_in_one_delta_keep_cardinality_exact() {
        // Regression: duplicates within one apply_delta call must count
        // once — the estimated cardinality has to match a from-scratch
        // fingerprint of the *deduplicated* profile.
        let p = params(256);
        let base: Vec<u32> = (0..30).collect();
        let mut store = p.fingerprint_store(&ProfileStore::from_item_lists(vec![base.clone()]));
        let delta = [500u32, 500, 501, 5, 501, 500, 5];
        let added = store.apply_delta(0, &delta);
        let mut union = base;
        union.extend([500, 501]); // 5 was already present
        let scratch = p.fingerprint(&union);
        assert_eq!(store.cardinality(0), scratch.cardinality());
        assert_eq!(store.get(0), scratch);
        assert!(added <= 2, "two distinct new items at most");
    }

    #[test]
    fn apply_deltas_is_bit_identical_to_sequential_apply_delta() {
        use crate::pool::Pool;
        let p = params(512);
        let lists: Vec<Vec<u32>> = (0..9).map(|u| (u * 5..u * 5 + 12).collect()).collect();
        let base = p.fingerprint_store(&ProfileStore::from_item_lists(lists));
        // Repeated users, overlapping and duplicate items, an empty delta.
        let deltas: Vec<(u32, Vec<u32>)> = vec![
            (3, (700..740).collect()),
            (0, vec![2000, 2000, 2001]),
            (3, (720..760).collect()),
            (8, vec![]),
            (0, vec![2001, 3]),
        ];
        let mut reference = base.clone();
        let mut expect_added = 0u32;
        for (u, items) in &deltas {
            expect_added += reference.apply_delta(*u, items);
        }
        for threads in [1usize, 4] {
            let mut batched = base.clone();
            let added = Pool::new(threads).install(|| batched.apply_deltas(&deltas));
            assert_eq!(added, expect_added, "threads={threads}");
            assert_eq!(batched.data, reference.data, "threads={threads}");
            assert_eq!(batched.cards, reference.cards, "threads={threads}");
        }
    }

    #[test]
    fn apply_deltas_matches_from_scratch_refingerprint() {
        // Bit-identity with a full refingerprint of the merged profiles —
        // the delta path must never drift from the one-shot path.
        let p = params(320);
        let mut lists: Vec<Vec<u32>> = (0..7).map(|u| (u * 9..u * 9 + 20).collect()).collect();
        let mut store = p.fingerprint_store(&ProfileStore::from_item_lists(lists.clone()));
        let deltas: Vec<(u32, Vec<u32>)> = (0..7)
            .map(|u| (u, (u * 13 + 900..u * 13 + 930).collect()))
            .collect();
        store.apply_deltas(&deltas);
        for (u, items) in &deltas {
            lists[*u as usize].extend(items);
        }
        let scratch = p.fingerprint_store(&ProfileStore::from_item_lists(lists));
        assert_eq!(store.data, scratch.data);
        assert_eq!(store.cards, scratch.cards);
    }

    #[test]
    fn stream_writer_matches_fingerprint_store_for_any_batching() {
        use crate::pool::Pool;
        let p = params(320);
        let lists: Vec<Vec<u32>> = (0..23)
            .map(|u| ((u * 11)..(u * 11 + 3 + u % 13)).collect())
            .collect();
        let reference = p.fingerprint_store(&ProfileStore::from_item_lists(lists.clone()));
        // Associations in an order no in-memory store would produce, with
        // duplicates sprinkled in.
        let mut assoc: Vec<(u32, u32)> = lists
            .iter()
            .enumerate()
            .flat_map(|(u, items)| items.iter().map(move |&it| (u as u32, it)))
            .collect();
        assoc.reverse();
        assoc.extend_from_slice(&assoc.clone()[..7]);
        for threads in [1usize, 4] {
            for batch in [1usize, 8, 1000] {
                let store = Pool::new(threads).install(|| {
                    let mut w = ShfStreamWriter::new(p, lists.len());
                    for chunk in assoc.chunks(batch) {
                        w.ingest_batch(chunk);
                    }
                    w.finish().unwrap()
                });
                assert_eq!(
                    store.data, reference.data,
                    "threads={threads} batch={batch}"
                );
                assert_eq!(
                    store.cards, reference.cards,
                    "threads={threads} batch={batch}"
                );
            }
        }
        // An empty population finishes into an empty store.
        assert!(ShfStreamWriter::new(params(64), 0)
            .finish()
            .unwrap()
            .is_empty());
    }

    #[test]
    #[should_panic(expected = "row 2 out of range")]
    fn ingest_batch_rejects_out_of_range_rows() {
        let mut w = ShfStreamWriter::new(params(64), 2);
        w.ingest_batch(&[(0, 1), (2, 1)]);
    }

    #[test]
    fn from_raw_parts_round_trips_through_unpadded_wire_layout() {
        let store = batch_fixture();
        let mut data = Vec::new();
        let mut cards = Vec::new();
        for u in 0..store.len() as u32 {
            data.extend_from_slice(store.fingerprint_words(u));
            cards.push(store.cardinality(u));
        }
        let back = ShfStore::from_raw_parts(*store.params(), cards, data);
        assert_eq!(back.data, store.data);
        assert_eq!(back.cards, store.cards);
        assert_eq!(back.row_words(), store.row_words());
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn from_raw_parts_rejects_bad_dimensions_in_release_too() {
        let _ = ShfStore::from_raw_parts(params(128), vec![1, 1], vec![1u64; 3]);
    }

    #[cfg(target_os = "linux")]
    fn spill_file(name: &str) -> std::path::PathBuf {
        let path = std::env::temp_dir().join(format!("gf-shf-{name}-{}.store", std::process::id()));
        let _ = std::fs::remove_file(&path);
        path
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn spill_round_trip_is_bit_identical_and_queryable() {
        let store = batch_fixture();
        let path = spill_file("roundtrip");
        let spilled = store.spill_to(&path).unwrap();
        assert_eq!(spilled.backend_kind(), "mmap");
        assert!(spilled.is_spilled());
        assert!(!store.is_spilled());
        assert_eq!(spilled.data, store.data);
        assert_eq!(spilled.cards, store.cards);
        // Queries go through the same kernels and match exactly.
        let ids: Vec<u32> = (0..37).collect();
        let mut heap_j = vec![0.0; ids.len()];
        let mut mmap_j = vec![0.0; ids.len()];
        store.estimate_batch(5, &ids, &mut heap_j, jaccard_from_counts);
        spilled.estimate_batch(5, &ids, &mut mmap_j, jaccard_from_counts);
        assert_eq!(heap_j, mmap_j);
        // Evicting rows must not change what subsequent reads observe.
        spilled.advise_cold_rows(0, spilled.len()).unwrap();
        assert_eq!(spilled.data, store.data);
        // Reopening maps the same bytes, and a clone rematerializes on the
        // heap without aliasing the file.
        let reopened = ShfStore::open_spilled(&path).unwrap();
        assert_eq!(reopened.data, store.data);
        assert_eq!(reopened.cards, store.cards);
        assert_eq!(reopened.params, store.params);
        let clone = reopened.clone();
        assert_eq!(clone.backend_kind(), "heap");
        assert_eq!(clone.data, store.data);
        drop(spilled);
        drop(reopened);
        // `spill_to` and `write_store` write the same file.
        let mut written = Vec::new();
        serial::write_store(&store, &mut written).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), written);
        std::fs::remove_file(&path).unwrap();
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn spilled_stream_writer_seals_a_reopenable_store() {
        let p = params(320);
        let lists: Vec<Vec<u32>> = (0..19)
            .map(|u| ((u * 11)..(u * 11 + 3 + u % 13)).collect())
            .collect();
        let reference = p.fingerprint_store(&ProfileStore::from_item_lists(lists.clone()));
        let path = spill_file("stream");
        let mut w = ShfStreamWriter::new_spilled(p, lists.len(), &path).unwrap();
        let assoc: Vec<(u32, u32)> = lists
            .iter()
            .enumerate()
            .flat_map(|(u, items)| items.iter().map(move |&it| (u as u32, it)))
            .collect();
        for chunk in assoc.chunks(7) {
            w.ingest_batch(chunk);
        }
        let store = w.finish().unwrap();
        assert!(store.is_spilled());
        assert_eq!(store.data, reference.data);
        assert_eq!(store.cards, reference.cards);
        // finish() already wrote the head: the file reopens cold.
        drop(store);
        let reopened = ShfStore::open_spilled(&path).unwrap();
        assert_eq!(reopened.data, reference.data);
        assert_eq!(reopened.cards, reference.cards);
        assert_eq!(reopened.params, p);
        drop(reopened);
        std::fs::remove_file(&path).unwrap();
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn finish_returns_spill_errors() {
        let path = spill_file("sealfail");
        let w = ShfStreamWriter::new_spilled(params(64), 3, &path).unwrap();
        // The head has nowhere to go.
        std::fs::remove_file(&path).unwrap();
        assert!(w.finish().is_err());
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn open_spilled_rejects_a_corrupt_file() {
        let path = spill_file("corrupt");
        drop(batch_fixture().spill_to(&path).unwrap());
        let good = std::fs::read(&path).unwrap();
        let reopen = |bytes: &[u8]| {
            std::fs::write(&path, bytes).unwrap();
            ShfStore::open_spilled(&path)
        };
        let mut bytes = good.clone();
        bytes[0] ^= 0xFF;
        assert!(matches!(reopen(&bytes), Err(DecodeError::BadMagic { .. })));
        // A card above the width (320 bits).
        let mut bytes = good.clone();
        bytes[32..36].copy_from_slice(&321u32.to_le_bytes());
        assert!(matches!(reopen(&bytes), Err(DecodeError::Corrupt(_))));
        // Rows cut short, or a word too many.
        assert!(matches!(
            reopen(&good[..good.len() - 8]),
            Err(DecodeError::Io(_))
        ));
        let mut bytes = good.clone();
        bytes.extend_from_slice(&[0; 8]);
        assert!(matches!(reopen(&bytes), Err(DecodeError::Io(_))));
        // Truncated inside the head.
        assert!(matches!(reopen(&good[..40]), Err(DecodeError::Io(_))));
        assert!(reopen(&good).is_ok());
        std::fs::remove_file(&path).unwrap();
    }
}
