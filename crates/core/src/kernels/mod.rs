//! Runtime-dispatched SIMD similarity kernels.
//!
//! The paper's entire speed argument rests on one primitive — `|B1 ∧ B2|`
//! via bitwise `AND` + popcount (Eq. 4) — so this module gives that
//! primitive a CPU-feature-aware implementation. A [`SimKernel`] is a small
//! vtable of population-count kernels; [`active`] selects one **once** per
//! process by runtime feature detection (`is_x86_feature_detected!` on
//! x86-64, compile-time NEON on aarch64) and every packed-store similarity
//! evaluation goes through it. Variants:
//!
//! - `avx2` — 256-bit `vpshufb` nibble-LUT popcount with lane-wise
//!   accumulation (Muła, Kurz & Lemire, *Faster population counts using
//!   AVX2 instructions*), the technique b-bit minwise implementations use;
//! - `popcnt` — the scalar 4-way unrolled loop compiled with the hardware
//!   `POPCNT` instruction enabled;
//! - `neon` — aarch64 `cnt` (`vcntq_u8`) bytewise popcount;
//! - `scalar` — the portable fallback in [`crate::bits`], always available.
//!
//! Every variant returns **bit-identical counts** — popcounts are exact
//! integer quantities, so kernel choice can never change a similarity,
//! a graph, or an eval counter (pinned by the conformance and golden-seed
//! suites and by property tests sweeping [`available`]).
//!
//! The selection is overridable for testing with `GF_KERNEL=scalar|popcnt|
//! avx2|neon`; forcing a variant the host cannot run panics loudly rather
//! than silently falling back. The chosen kernel's [`SimKernel::name`] is
//! recorded in JSON run reports by `goldfinger-bench`.
//!
//! Besides the pairwise kernels, each variant carries one *batched* entry
//! point: a scattered row gather (`and_counts_gather`) that walks an arena
//! by `(stride, id)` with a software prefetch of the next gathered row —
//! candidate lists produced by NNDescent/Hyrec joins and LSH buckets are
//! scattered, and prefetching the next row while popcounting the current
//! one hides the gather latency.
//! [`stats`] counts batched calls/rows process-wide so run reports can show
//! how much traffic went through the batched paths.

mod scalar;

#[cfg(target_arch = "aarch64")]
mod neon;
#[cfg(target_arch = "x86_64")]
mod x86;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// A set of popcount kernels sharing one CPU-feature level.
///
/// All function pointers are *safe to call on any input*: a variant is only
/// ever exposed (via [`active`], [`available`] or [`by_name`]) after its
/// CPU features have been detected on the running host.
///
/// Contracts (checked by debug assertions and property tests):
/// - `and_count(a, b)` == `popcount(a & b)`; slices must have equal length;
/// - `or_count(a, b)` == `popcount(a | b)`;
/// - `and_counts_gather(query, data, stride, ids, counts)` reads row `id`
///   at `data[id * stride .. id * stride + query.len()]` (so `stride` may
///   exceed the logical width — padded arenas).
#[derive(Clone, Copy)]
pub struct SimKernel {
    /// Kernel name as accepted by `GF_KERNEL` and reported in run reports.
    pub name: &'static str,
    /// `popcount(a AND b)` over equal-length word slices.
    pub and_count: fn(&[u64], &[u64]) -> u32,
    /// `popcount(a OR b)` over equal-length word slices.
    pub or_count: fn(&[u64], &[u64]) -> u32,
    /// Gathered `popcount(query AND row(ids[i]))` with next-row prefetch.
    pub and_counts_gather: GatherFn,
}

/// Signature of the gathered entry points:
/// `(query, data, stride, ids, counts)`.
pub type GatherFn = fn(&[u64], &[u64], usize, &[u32], &mut [u32]);

impl std::fmt::Debug for SimKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SimKernel({})", self.name)
    }
}

/// The always-available portable kernel.
static SCALAR: SimKernel = SimKernel {
    name: "scalar",
    and_count: scalar::and_count,
    or_count: scalar::or_count,
    and_counts_gather: scalar::and_counts_gather,
};

/// Every kernel variant the running host supports, best first. `scalar` is
/// always present and always last. Conformance tests sweep this list to
/// prove bit-identity across variants.
pub fn available() -> Vec<&'static SimKernel> {
    let mut kernels: Vec<&'static SimKernel> = Vec::new();
    #[cfg(target_arch = "x86_64")]
    {
        // The AVX2 kernel pops scalar tail words with `popcnt`; every
        // AVX2-capable CPU has it, but detect both to keep the unsafe
        // wrappers honest.
        if std::arch::is_x86_feature_detected!("avx2")
            && std::arch::is_x86_feature_detected!("popcnt")
        {
            kernels.push(&x86::AVX2);
        }
        if std::arch::is_x86_feature_detected!("popcnt") {
            kernels.push(&x86::POPCNT);
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        // NEON is a baseline feature of aarch64.
        kernels.push(&neon::NEON);
    }
    kernels.push(&SCALAR);
    kernels
}

/// Looks a variant up by its `GF_KERNEL` name among the ones this host
/// supports. Returns `None` for unknown names *and* for known variants the
/// host cannot run.
pub fn by_name(name: &str) -> Option<&'static SimKernel> {
    available().into_iter().find(|k| k.name == name)
}

/// The kernel every packed-store similarity evaluation dispatches to,
/// selected once per process: the `GF_KERNEL` environment variable if set
/// (panicking on names the host cannot honour — a forced kernel silently
/// degrading to another would invalidate whatever the force was testing),
/// otherwise the best variant the CPU supports.
pub fn active() -> &'static SimKernel {
    static ACTIVE: OnceLock<&'static SimKernel> = OnceLock::new();
    ACTIVE.get_or_init(|| match std::env::var("GF_KERNEL") {
        Ok(name) if !name.trim().is_empty() => {
            let name = name.trim();
            by_name(name).unwrap_or_else(|| {
                panic!(
                    "GF_KERNEL={name} is not available on this host (available: {})",
                    available()
                        .iter()
                        .map(|k| k.name)
                        .collect::<Vec<_>>()
                        .join(", ")
                )
            })
        }
        _ => available()[0],
    })
}

/// `popcount(a AND b)` through the active kernel.
///
/// One-word fingerprints (`b ≤ 64`, a single `AND` + popcount) skip the
/// indirect call entirely — at that width the dispatch would cost more
/// than the work.
#[inline]
pub fn and_count(a: &[u64], b: &[u64]) -> u32 {
    debug_assert_eq!(a.len(), b.len());
    if let ([x], [y]) = (a, b) {
        return (x & y).count_ones();
    }
    (active().and_count)(a, b)
}

/// `popcount(a OR b)` through the active kernel (same 1-word fast path as
/// [`and_count`]).
#[inline]
pub fn or_count(a: &[u64], b: &[u64]) -> u32 {
    debug_assert_eq!(a.len(), b.len());
    if let ([x], [y]) = (a, b) {
        return (x | y).count_ones();
    }
    (active().or_count)(a, b)
}

/// Counter of batched kernel invocations (calls and rows), process-wide.
static BATCHED_CALLS: AtomicU64 = AtomicU64::new(0);
static BATCHED_ROWS: AtomicU64 = AtomicU64::new(0);

/// Snapshot of the batched-kernel counters, in the mould of
/// [`crate::pool::PoolStats`]: take one before a run and one after, and
/// [`KernelStats::since`] yields the delta attributable to the run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// Batched kernel calls (one gather or block scan).
    pub batched_calls: u64,
    /// Fingerprint rows processed across those calls.
    pub batched_rows: u64,
}

impl KernelStats {
    /// Counter increments since an earlier snapshot.
    pub fn since(&self, earlier: &KernelStats) -> KernelStats {
        KernelStats {
            batched_calls: self.batched_calls - earlier.batched_calls,
            batched_rows: self.batched_rows - earlier.batched_rows,
        }
    }
}

/// Current process-wide batched-call counters.
pub fn stats() -> KernelStats {
    KernelStats {
        batched_calls: BATCHED_CALLS.load(Ordering::Relaxed),
        batched_rows: BATCHED_ROWS.load(Ordering::Relaxed),
    }
}

/// Records one batched call over `rows` fingerprints. Called by the
/// batched [`crate::shf::ShfStore`] entry points, not by the kernels
/// themselves, so the counters measure *API traffic* independent of which
/// variant serves it.
#[inline]
pub(crate) fn note_batched(rows: usize) {
    BATCHED_CALLS.fetch_add(1, Ordering::Relaxed);
    BATCHED_ROWS.fetch_add(rows as u64, Ordering::Relaxed);
    goldfinger_obs::trace::instant("kernel", "batched", rows as u64);
}

/// Prefetches the cache line at `data[idx]` into all cache levels, when the
/// architecture exposes a prefetch hint. In the gather loops this is issued
/// for the *next* row while the current one is being popcounted.
#[inline(always)]
pub(crate) fn prefetch(data: &[u64], idx: usize) {
    #[cfg(target_arch = "x86_64")]
    if idx < data.len() {
        // SAFETY: the pointer is in bounds; prefetch has no side effects.
        unsafe {
            use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            _mm_prefetch(data.as_ptr().add(idx) as *const i8, _MM_HINT_T0);
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (data, idx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bits::{and_count_words_lut, BitArray};

    fn pattern(bits: u32, seed: u64) -> BitArray {
        let positions = (0..bits).filter(|&p| {
            (p as u64)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(seed)
                .is_multiple_of(3)
        });
        BitArray::from_positions(bits, positions)
    }

    #[test]
    fn scalar_is_always_available_and_last() {
        let kernels = available();
        assert!(!kernels.is_empty());
        assert_eq!(kernels.last().unwrap().name, "scalar");
        assert!(by_name("scalar").is_some());
        assert!(by_name("definitely-not-a-kernel").is_none());
    }

    #[test]
    fn active_kernel_is_among_available() {
        let name = active().name;
        assert!(
            available().iter().any(|k| k.name == name),
            "active kernel {name} not in available set"
        );
        // When the suite runs under a forced kernel, the force must win.
        if let Ok(forced) = std::env::var("GF_KERNEL") {
            if !forced.trim().is_empty() {
                assert_eq!(name, forced.trim());
            }
        }
    }

    #[test]
    fn every_variant_matches_the_lut_baseline() {
        for bits in [1u32, 63, 64, 65, 127, 128, 256, 512, 1000, 1024, 4096] {
            let a = pattern(bits, 1);
            let b = pattern(bits, 2);
            let want_and = and_count_words_lut(a.words(), b.words());
            let want_or = a.count_ones() + b.count_ones() - want_and;
            for k in available() {
                assert_eq!(
                    (k.and_count)(a.words(), b.words()),
                    want_and,
                    "{} and, bits = {bits}",
                    k.name
                );
                assert_eq!(
                    (k.or_count)(a.words(), b.words()),
                    want_or,
                    "{} or, bits = {bits}",
                    k.name
                );
            }
        }
    }

    #[test]
    fn batch_and_gather_match_pairwise_for_every_variant() {
        let bits = 320u32; // 5 words: exercises unroll remainders
        let w = BitArray::words_for(bits);
        let stride = 8usize; // padded arena stride
        let query = pattern(bits, 9);
        let rows: Vec<BitArray> = (0..7).map(|s| pattern(bits, s)).collect();
        let mut padded = vec![0u64; stride * rows.len()];
        for (i, r) in rows.iter().enumerate() {
            padded[i * stride..i * stride + w].copy_from_slice(r.words());
        }
        let ids: Vec<u32> = [3u32, 0, 6, 1, 1, 5].to_vec();
        for k in available() {
            let mut gathered = vec![0u32; ids.len()];
            (k.and_counts_gather)(query.words(), &padded, stride, &ids, &mut gathered);
            for (j, &id) in ids.iter().enumerate() {
                assert_eq!(
                    gathered[j],
                    query.and_count(&rows[id as usize]),
                    "{} gather id {id}",
                    k.name
                );
            }
        }
    }

    #[test]
    fn one_word_fast_path_agrees_with_kernels() {
        let a = [0xDEAD_BEEF_0123_4567u64];
        let b = [0xFFFF_0000_FFFF_0000u64];
        assert_eq!(and_count(&a, &b), (a[0] & b[0]).count_ones());
        assert_eq!(or_count(&a, &b), (a[0] | b[0]).count_ones());
    }

    #[test]
    fn batched_counters_accumulate() {
        let before = stats();
        note_batched(5);
        note_batched(2);
        let delta = stats().since(&before);
        assert!(delta.batched_calls >= 2);
        assert!(delta.batched_rows >= 7);
    }
}
