//! File-backed memory-mapped word buffers — the spill backend of the
//! fingerprint arena.
//!
//! The heap backend ([`super::AlignedWords`]) pins the whole arena in
//! resident memory for the lifetime of the store. For out-of-core builds
//! the arena must be larger than the memory budget, so this module maps a
//! plain file instead: pages are faulted in on first touch, the kernel
//! writes dirty pages back and evicts cold ones under memory pressure, and
//! [`MmapWords::advise_dontneed`] lets the build orchestrator evict a
//! segment *eagerly* once a shard is done with it. Reads still hand out
//! `&[u64]` — a faulted page is indistinguishable from heap memory to the
//! similarity kernels — which is what keeps `fingerprint_words` /
//! `and_counts_gather` backend-agnostic.
//!
//! The implementation is dependency-free: `std` already links the platform
//! libc on Linux, so the four syscall wrappers (`mmap`, `munmap`, `msync`,
//! `madvise`) are declared here directly instead of pulling in the `libc`
//! crate. Mappings are `MAP_SHARED`, so the backing file *is* the on-disk
//! form of the arena — a spilled store can be reopened by a later process
//! without any serialization step.

use std::fs::OpenOptions;
use std::io;
use std::ops::{Deref, DerefMut};
use std::os::unix::io::AsRawFd;
use std::path::{Path, PathBuf};
use std::ptr::NonNull;
use std::sync::atomic::{AtomicU64, Ordering};

/// Raw libc bindings for the five calls this module needs. `std` links
/// libc on every supported Linux target, so the symbols resolve without a
/// `libc` crate dependency.
mod sys {
    use std::os::raw::{c_int, c_long, c_void};

    pub const PROT_READ: c_int = 1;
    pub const PROT_WRITE: c_int = 2;
    pub const MAP_SHARED: c_int = 1;
    pub const MS_SYNC: c_int = 4;
    pub const MADV_DONTNEED: c_int = 4;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: c_long,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> c_int;
        pub fn msync(addr: *mut c_void, len: usize, flags: c_int) -> c_int;
        pub fn madvise(addr: *mut c_void, len: usize, advice: c_int) -> c_int;
        pub fn getpagesize() -> c_int;
    }
}

/// Bytes currently mapped by live [`MmapWords`] buffers, process-wide —
/// the spill-side counterpart of [`super::live_arena_bytes`]. Mapped bytes
/// are *address space*, not residency: the kernel decides how much of a
/// mapping is in RAM at any moment.
static MAPPED_BYTES: AtomicU64 = AtomicU64::new(0);

/// Bytes currently mapped across every live [`MmapWords`] arena.
pub fn mapped_arena_bytes() -> u64 {
    MAPPED_BYTES.load(Ordering::Relaxed)
}

/// The system page size in bytes (cached after the first call).
pub fn page_size() -> usize {
    use std::sync::OnceLock;
    static PAGE: OnceLock<usize> = OnceLock::new();
    // SAFETY: getpagesize has no preconditions.
    *PAGE.get_or_init(|| unsafe { sys::getpagesize() }.max(4096) as usize)
}

/// A fixed-length `u64` buffer backed by a `MAP_SHARED` mapping of a plain
/// file. Dereferences to `[u64]`; the base address is page-aligned, which
/// satisfies (and exceeds) the [`super::CACHE_LINE`] alignment the SIMD
/// kernels need.
pub struct MmapWords {
    ptr: NonNull<u64>,
    len: usize,
    path: PathBuf,
}

// The mapping is owned and borrowed through &self/&mut self exactly like
// a heap allocation; the file descriptor is closed after mapping.
unsafe impl Send for MmapWords {}
unsafe impl Sync for MmapWords {}

impl MmapWords {
    /// Maps the `len` words at byte `at` of `path` read-write; `at` must be
    /// a multiple of the page size. With `create`, `path` is created (or
    /// truncated) as a zero-filled file that ends right after the words;
    /// otherwise the existing file must end there.
    pub fn open(path: &Path, at: u64, len: usize, create: bool) -> io::Result<MmapWords> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(create)
            .truncate(create)
            .open(path)?;
        let bytes = file.metadata()?.len();
        match (len as u64).checked_mul(8).and_then(|b| b.checked_add(at)) {
            Some(end) if create => file.set_len(end)?,
            Some(end) if end == bytes => {}
            _ => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "{}: length {bytes}, expected {len} words at byte {at}",
                        path.display()
                    ),
                ))
            }
        }
        Self::map(&file, at, len, path.to_path_buf())
    }

    fn map(file: &std::fs::File, at: u64, len: usize, path: PathBuf) -> io::Result<MmapWords> {
        if len == 0 {
            return Ok(MmapWords {
                ptr: NonNull::dangling(),
                len: 0,
                path,
            });
        }
        // SAFETY: fd is a valid open file of at least at + len*8 bytes; a
        // MAP_SHARED read-write mapping of it has no aliasing requirements
        // beyond the usual "don't map the same file twice and race", which
        // ownership of the path enforces by convention.
        let raw = unsafe {
            sys::mmap(
                std::ptr::null_mut(),
                len * 8,
                sys::PROT_READ | sys::PROT_WRITE,
                sys::MAP_SHARED,
                file.as_raw_fd(),
                at as std::os::raw::c_long,
            )
        };
        if raw as isize == -1 {
            return Err(io::Error::last_os_error());
        }
        MAPPED_BYTES.fetch_add((len * 8) as u64, Ordering::Relaxed);
        Ok(MmapWords {
            ptr: NonNull::new(raw as *mut u64).expect("mmap returned null"),
            len,
            path,
        })
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

    /// The backing file.
    #[inline]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Flushes every dirty page to the backing file (`msync(MS_SYNC)`).
    pub fn sync(&self) -> io::Result<()> {
        if self.len == 0 {
            return Ok(());
        }
        // SAFETY: the range is exactly this mapping.
        let rc = unsafe { sys::msync(self.ptr.as_ptr() as *mut _, self.len * 8, sys::MS_SYNC) };
        if rc != 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Evicts the resident pages covering the word range `lo..hi` (rounded
    /// *inward* to page boundaries, so neighbouring ranges are never
    /// clobbered). Dirty pages are synced first — for a `MAP_SHARED` file
    /// mapping `MADV_DONTNEED` only drops the page-table entries, but the
    /// explicit sync makes the eviction an RSS release rather than a
    /// deferred-writeback gamble. Subsequent reads fault the data back in
    /// from the file transparently.
    ///
    /// This is the residency-policy primitive of the out-of-core build:
    /// once a shard's arena segment goes cold, the orchestrator calls this
    /// and the pages stop counting against the process RSS.
    pub fn advise_dontneed(&self, lo: usize, hi: usize) -> io::Result<()> {
        let page = page_size();
        let hi = hi.min(self.len);
        if lo >= hi {
            return Ok(());
        }
        let base = self.ptr.as_ptr() as usize;
        let start = (base + lo * 8).next_multiple_of(page);
        let end = (base + hi * 8) / page * page;
        if start >= end {
            return Ok(()); // range spans less than one whole page
        }
        // SAFETY: [start, end) is page-aligned and inside this mapping.
        unsafe {
            if sys::msync(start as *mut _, end - start, sys::MS_SYNC) != 0 {
                return Err(io::Error::last_os_error());
            }
            if sys::madvise(start as *mut _, end - start, sys::MADV_DONTNEED) != 0 {
                return Err(io::Error::last_os_error());
            }
        }
        Ok(())
    }
}

impl Deref for MmapWords {
    type Target = [u64];

    #[inline]
    fn deref(&self) -> &[u64] {
        // SAFETY: ptr maps len words (or dangles with len == 0).
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }
}

impl DerefMut for MmapWords {
    #[inline]
    fn deref_mut(&mut self) -> &mut [u64] {
        // SAFETY: ptr maps len words and is uniquely borrowed.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.as_ptr(), self.len) }
    }
}

impl Drop for MmapWords {
    fn drop(&mut self) {
        if self.len > 0 {
            // Dirty pages outlive the mapping in the page cache and reach
            // the file via writeback; an explicit sync here would punish
            // every drop for the rare caller who actually re-reads the
            // file (those call `sync` themselves).
            // SAFETY: unmapping the exact region mapped in `map`.
            unsafe { sys::munmap(self.ptr.as_ptr() as *mut _, self.len * 8) };
            MAPPED_BYTES.fetch_sub((self.len * 8) as u64, Ordering::Relaxed);
        }
    }
}

impl std::fmt::Debug for MmapWords {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "MmapWords({} words @ {})", self.len, self.path.display())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("gf-mmap-{}-{name}", std::process::id()))
    }

    #[test]
    fn create_write_reopen_round_trips() {
        let path = tmp("roundtrip");
        {
            let mut m = MmapWords::open(&path, 0, 1000, true).unwrap();
            assert_eq!(m.len(), 1000);
            assert!(m.iter().all(|&w| w == 0), "fresh mapping must be zeroed");
            for (i, w) in m.iter_mut().enumerate() {
                *w = (i as u64).wrapping_mul(0x9E37_79B9);
            }
            m.sync().unwrap();
        }
        let back = MmapWords::open(&path, 0, 1000, false).unwrap();
        assert_eq!(back.len(), 1000);
        for (i, &w) in back.iter().enumerate() {
            assert_eq!(w, (i as u64).wrapping_mul(0x9E37_79B9));
        }
        drop(back);
        // The length must match exactly.
        assert!(MmapWords::open(&path, 0, 999, false).is_err());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn words_map_behind_a_page_aligned_offset() {
        let path = tmp("offset");
        let at = page_size() as u64;
        {
            let mut m = MmapWords::open(&path, at, 10, true).unwrap();
            m[9] = 0xABCD;
            m.sync().unwrap();
        }
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(bytes.len() as u64, at + 80);
        assert!(bytes[..at as usize].iter().all(|&b| b == 0));
        assert_eq!(MmapWords::open(&path, at, 10, false).unwrap()[9], 0xABCD);
        assert!(MmapWords::open(&path, at / 2, 10 + at as usize / 16, false).is_err());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn mapping_is_cache_line_aligned_and_counted() {
        let path = tmp("aligned");
        // Concurrent tests also map arenas, so assert on deltas with slack.
        let before = mapped_arena_bytes();
        let m = MmapWords::open(&path, 0, 64, true).unwrap();
        assert_eq!(m.as_ptr() as usize % crate::arena::CACHE_LINE, 0);
        let held = mapped_arena_bytes();
        assert!(held >= before + 512);
        drop(m);
        assert!(mapped_arena_bytes() <= held - 512 + (1 << 20));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn advise_dontneed_preserves_data() {
        let path = tmp("advise");
        let words = 3 * page_size() / 8;
        let mut m = MmapWords::open(&path, 0, words, true).unwrap();
        for (i, w) in m.iter_mut().enumerate() {
            *w = i as u64 + 7;
        }
        // Evict everything (inner-aligned), then read it all back.
        m.advise_dontneed(0, words).unwrap();
        for (i, &w) in m.iter().enumerate() {
            assert_eq!(w, i as u64 + 7, "word {i} lost after eviction");
        }
        // Sub-page ranges are a no-op, not an error.
        m.advise_dontneed(1, 3).unwrap();
        m.advise_dontneed(10, 5).unwrap();
        drop(m);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_and_errors() {
        let path = tmp("empty");
        let m = MmapWords::open(&path, 0, 0, true).unwrap();
        assert!(m.is_empty());
        m.sync().unwrap();
        drop(m);
        std::fs::remove_file(&path).unwrap();
        assert!(MmapWords::open(&tmp("missing-file"), 0, 0, false).is_err());
    }
}
