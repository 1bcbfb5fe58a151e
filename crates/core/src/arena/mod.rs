//! Cache-line-aligned word storage for packed fingerprint arenas.
//!
//! The SIMD similarity kernels ([`crate::kernels`]) load fingerprints as
//! 256-bit vectors; a `Vec<u64>` only guarantees 8-byte alignment, so a row
//! can straddle cache lines and every vector load can split across two of
//! them. [`AlignedWords`] is a fixed-length `u64` buffer whose base address
//! is aligned to [`CACHE_LINE`] bytes. Combined with row strides chosen by
//! [`row_words_for`], every fingerprint row starts either at a cache-line
//! boundary or packs a whole number of rows per line — no row ever
//! straddles a line it did not need to touch.

use std::alloc::{alloc_zeroed, dealloc, handle_alloc_error, Layout};
use std::ops::{Deref, DerefMut};
use std::path::Path;
use std::ptr::NonNull;
use std::sync::atomic::{AtomicU64, Ordering};

#[cfg(target_os = "linux")]
pub mod mmap;

/// Bytes currently mapped by live spill-backend buffers (0 where the spill
/// backend is unavailable). Mirrors [`live_arena_bytes`] for the
/// memory-mapped side; mapped bytes are address space, not residency.
pub fn mapped_arena_bytes() -> u64 {
    #[cfg(target_os = "linux")]
    {
        mmap::mapped_arena_bytes()
    }
    #[cfg(not(target_os = "linux"))]
    {
        0
    }
}

/// Alignment (and padding quantum) of fingerprint arenas, in bytes.
pub const CACHE_LINE: usize = 64;

/// Bytes currently held by live [`AlignedWords`] buffers, process-wide.
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);

/// Bytes currently allocated across every live [`AlignedWords`] arena —
/// all `ShfStore` fingerprints in the process are backed by these, so
/// this is the `mem.arena_bytes` gauge the bench reports surface.
pub fn live_arena_bytes() -> u64 {
    LIVE_BYTES.load(Ordering::Relaxed)
}

/// Words per cache line (`CACHE_LINE / 8`).
pub const LINE_WORDS: usize = CACHE_LINE / 8;

/// Row stride (in words) for fingerprints of `w` logical words.
///
/// Wide rows are padded up to a whole number of cache lines; narrow rows
/// are padded to the next power of two, which divides [`LINE_WORDS`], so a
/// line holds a whole number of rows. Either way a row never straddles a
/// cache-line boundary gratuitously, and `b = 64` (one word) keeps a
/// stride of 1 — no memory inflation on the narrowest fingerprints.
#[inline]
pub fn row_words_for(w: usize) -> usize {
    if w == 0 {
        0
    } else if w >= LINE_WORDS {
        w.next_multiple_of(LINE_WORDS)
    } else {
        w.next_power_of_two()
    }
}

/// A fixed-length, zero-initialised `u64` buffer aligned to [`CACHE_LINE`]
/// bytes. Dereferences to `[u64]`; the length never changes after
/// construction.
pub struct AlignedWords {
    ptr: NonNull<u64>,
    len: usize,
}

// The buffer is owned and uniquely borrowed through &self/&mut self.
unsafe impl Send for AlignedWords {}
unsafe impl Sync for AlignedWords {}

impl AlignedWords {
    /// Allocates `len` zeroed words at [`CACHE_LINE`] alignment.
    pub fn zeroed(len: usize) -> Self {
        if len == 0 {
            return AlignedWords {
                ptr: NonNull::dangling(),
                len: 0,
            };
        }
        let layout = Self::layout(len);
        // SAFETY: layout has non-zero size (len > 0).
        let raw = unsafe { alloc_zeroed(layout) } as *mut u64;
        let Some(ptr) = NonNull::new(raw) else {
            handle_alloc_error(layout);
        };
        LIVE_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        AlignedWords { ptr, len }
    }

    fn layout(len: usize) -> Layout {
        Layout::from_size_align(len * std::mem::size_of::<u64>(), CACHE_LINE)
            .expect("arena size overflows a Layout")
    }

    /// Length in words.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the buffer holds no words.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl Deref for AlignedWords {
    type Target = [u64];

    #[inline]
    fn deref(&self) -> &[u64] {
        // SAFETY: ptr is valid for len words (or dangling with len == 0).
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }
}

impl DerefMut for AlignedWords {
    #[inline]
    fn deref_mut(&mut self) -> &mut [u64] {
        // SAFETY: ptr is valid for len words and uniquely borrowed.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.as_ptr(), self.len) }
    }
}

impl Drop for AlignedWords {
    fn drop(&mut self) {
        if self.len > 0 {
            let layout = Self::layout(self.len);
            // SAFETY: allocated in `zeroed` with the same layout.
            unsafe { dealloc(self.ptr.as_ptr() as *mut u8, layout) };
            LIVE_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        }
    }
}

impl Clone for AlignedWords {
    fn clone(&self) -> Self {
        let mut copy = AlignedWords::zeroed(self.len);
        copy.copy_from_slice(self);
        copy
    }
}

impl PartialEq for AlignedWords {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for AlignedWords {}

impl std::fmt::Debug for AlignedWords {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "AlignedWords({} words)", self.len)
    }
}

impl From<&[u64]> for AlignedWords {
    fn from(words: &[u64]) -> Self {
        let mut buf = AlignedWords::zeroed(words.len());
        buf.copy_from_slice(words);
        buf
    }
}

/// Storage backend of a fingerprint arena: the seam between "how rows are
/// addressed" (always a flat `[u64]` with [`row_words_for`] strides) and
/// "where the words live".
///
/// - [`ArenaBackend::Heap`] — the default: a cache-line-aligned heap
///   allocation, fully resident for the lifetime of the store.
/// - [`ArenaBackend::Mmap`] — the spill backend: a `MAP_SHARED` mapping of
///   a plain file. Pages fault in on demand, the kernel evicts cold ones
///   under pressure, and [`ArenaBackend::advise_cold`] evicts eagerly.
///   Only available on Linux; [`ArenaBackend::spill`] reports an error
///   elsewhere rather than silently falling back.
///
/// Both variants dereference to `[u64]`, so every consumer of the arena —
/// the batched gather kernels above all — is backend-agnostic.
#[derive(Debug)]
pub enum ArenaBackend {
    /// Resident, cache-line-aligned heap words.
    Heap(AlignedWords),
    /// File-backed mapped words (the spill backend).
    #[cfg(target_os = "linux")]
    Mmap(mmap::MmapWords),
}

impl ArenaBackend {
    /// Allocates `len` zeroed heap words (the default backend).
    pub fn heap(len: usize) -> ArenaBackend {
        ArenaBackend::Heap(AlignedWords::zeroed(len))
    }

    /// Maps `len` words at byte `at` (a multiple of the page size) of the
    /// spill file `path`: a new zero-filled file with `create`, otherwise
    /// an existing file that must end right after the words.
    ///
    /// Returns an `Unsupported` error on platforms without the mmap
    /// backend instead of quietly allocating on the heap: a caller asking
    /// to spill is making a memory-budget promise this module must not
    /// break silently.
    pub fn spill(path: &Path, at: u64, len: usize, create: bool) -> std::io::Result<ArenaBackend> {
        #[cfg(target_os = "linux")]
        {
            Ok(ArenaBackend::Mmap(mmap::MmapWords::open(
                path, at, len, create,
            )?))
        }
        #[cfg(not(target_os = "linux"))]
        {
            let _ = (path, at, len, create);
            Err(std::io::Error::new(
                std::io::ErrorKind::Unsupported,
                "spill arena backend requires Linux",
            ))
        }
    }

    /// Backend name for reports and diagnostics (`"heap"` / `"mmap"`).
    pub fn kind(&self) -> &'static str {
        match self {
            ArenaBackend::Heap(_) => "heap",
            #[cfg(target_os = "linux")]
            ArenaBackend::Mmap(_) => "mmap",
        }
    }

    /// True when the words live in a file-backed mapping.
    pub fn is_spilled(&self) -> bool {
        !matches!(self, ArenaBackend::Heap(_))
    }

    /// Path of the backing spill file, when there is one.
    pub fn spill_path(&self) -> Option<&Path> {
        match self {
            ArenaBackend::Heap(_) => None,
            #[cfg(target_os = "linux")]
            ArenaBackend::Mmap(m) => Some(m.path()),
        }
    }

    /// Length in words.
    #[inline]
    pub fn len(&self) -> usize {
        match self {
            ArenaBackend::Heap(w) => w.len(),
            #[cfg(target_os = "linux")]
            ArenaBackend::Mmap(m) => m.len(),
        }
    }

    /// True when the arena holds no words.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Evicts the resident pages of word range `lo..hi` on the spill
    /// backend (syncing dirty pages first); a no-op on the heap backend,
    /// where residency is not the caller's to manage.
    pub fn advise_cold(&self, lo: usize, hi: usize) -> std::io::Result<()> {
        match self {
            ArenaBackend::Heap(_) => Ok(()),
            #[cfg(target_os = "linux")]
            ArenaBackend::Mmap(m) => m.advise_dontneed(lo, hi),
        }
    }

    /// Flushes dirty pages to the backing file (no-op on the heap).
    pub fn sync(&self) -> std::io::Result<()> {
        match self {
            ArenaBackend::Heap(_) => Ok(()),
            #[cfg(target_os = "linux")]
            ArenaBackend::Mmap(m) => m.sync(),
        }
    }
}

impl Deref for ArenaBackend {
    type Target = [u64];

    #[inline]
    fn deref(&self) -> &[u64] {
        match self {
            ArenaBackend::Heap(w) => w,
            #[cfg(target_os = "linux")]
            ArenaBackend::Mmap(m) => m,
        }
    }
}

impl DerefMut for ArenaBackend {
    #[inline]
    fn deref_mut(&mut self) -> &mut [u64] {
        match self {
            ArenaBackend::Heap(w) => w,
            #[cfg(target_os = "linux")]
            ArenaBackend::Mmap(m) => m,
        }
    }
}

impl From<AlignedWords> for ArenaBackend {
    fn from(words: AlignedWords) -> Self {
        ArenaBackend::Heap(words)
    }
}

/// Cloning an arena always materializes on the heap: a spilled arena's
/// backing file is owned by the original, and an independent resident copy
/// is the only clone semantics that cannot silently alias it.
impl Clone for ArenaBackend {
    fn clone(&self) -> Self {
        match self {
            ArenaBackend::Heap(w) => ArenaBackend::Heap(w.clone()),
            #[cfg(target_os = "linux")]
            ArenaBackend::Mmap(m) => ArenaBackend::Heap(AlignedWords::from(&m[..])),
        }
    }
}

impl PartialEq for ArenaBackend {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for ArenaBackend {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocation_is_cache_line_aligned_and_zeroed() {
        for len in [1usize, 7, 16, 1000] {
            let a = AlignedWords::zeroed(len);
            assert_eq!(a.len(), len);
            assert_eq!(a.as_ptr() as usize % CACHE_LINE, 0, "len = {len}");
            assert!(a.iter().all(|&w| w == 0));
        }
    }

    #[test]
    fn empty_allocation_is_fine() {
        let a = AlignedWords::zeroed(0);
        assert!(a.is_empty());
        assert_eq!(&*a, &[] as &[u64]);
        let _ = a.clone();
    }

    #[test]
    fn writes_round_trip_and_clone_copies() {
        let mut a = AlignedWords::zeroed(9);
        for (i, w) in a.iter_mut().enumerate() {
            *w = i as u64 * 3;
        }
        let b = a.clone();
        assert_eq!(a, b);
        assert_eq!(b[8], 24);
        let c = AlignedWords::from(&b[..4]);
        assert_eq!(&*c, &[0, 3, 6, 9]);
    }

    #[test]
    fn live_bytes_track_alloc_and_drop() {
        // Concurrent tests also touch the global counter, so allocate an
        // arena far larger than their noise and assert on deltas.
        const WORDS: usize = 1 << 20; // 8 MB
        let before = live_arena_bytes();
        let a = AlignedWords::zeroed(WORDS);
        let held = live_arena_bytes();
        assert!(held >= before + (WORDS * 8) as u64);
        drop(a);
        assert!(live_arena_bytes() <= held - (WORDS * 8) as u64 + (1 << 20));
    }

    #[test]
    fn row_stride_never_straddles_lines() {
        // Narrow rows: power-of-two strides divide the line.
        assert_eq!(row_words_for(1), 1);
        assert_eq!(row_words_for(2), 2);
        assert_eq!(row_words_for(3), 4);
        assert_eq!(row_words_for(4), 4);
        assert_eq!(row_words_for(5), 8);
        assert_eq!(row_words_for(7), 8);
        // Wide rows: whole cache lines.
        assert_eq!(row_words_for(8), 8);
        assert_eq!(row_words_for(9), 16);
        assert_eq!(row_words_for(16), 16);
        assert_eq!(row_words_for(17), 24);
        assert_eq!(row_words_for(0), 0);
        for w in 1usize..=40 {
            let stride = row_words_for(w);
            assert!(stride >= w);
            if stride < LINE_WORDS {
                assert_eq!(LINE_WORDS % stride, 0, "w = {w}");
            } else {
                assert_eq!(stride % LINE_WORDS, 0, "w = {w}");
            }
        }
    }
}
