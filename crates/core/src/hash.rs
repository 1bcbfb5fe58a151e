//! Item hash functions used to build fingerprints.
//!
//! The paper builds SHFs with Jenkins' hash; this module provides that plus
//! a handful of alternatives so the choice can be ablated. All hashers map a
//! 64-bit item id to a 64-bit value; fingerprint construction reduces that
//! value modulo the fingerprint width.
//!
//! Every hasher is deterministic for a given seed, which the privacy analysis
//! relies on (the attacker is assumed to know `h`).

/// A deterministic hash function over 64-bit item identifiers.
pub trait ItemHasher: Sync + Send {
    /// Hashes an item id to a uniform-looking 64-bit value.
    fn hash64(&self, item: u64) -> u64;

    /// Hashes an item to a bit position in `[0, bits)`.
    ///
    /// Uses the high-quality multiply-shift range reduction rather than `%`
    /// so non-power-of-two widths stay unbiased and cheap.
    #[inline]
    fn bit_position(&self, item: u64, bits: u32) -> u32 {
        // 128-bit multiply keeps all 64 hash bits involved in the reduction.
        ((self.hash64(item) as u128 * bits as u128) >> 64) as u32
    }
}

/// Jenkins' one-at-a-time hash (Bob Jenkins, Dr Dobb's 1997) over the item's
/// little-endian bytes, finalised with a 64-bit avalanche.
///
/// This is the hash function the paper uses for GoldFinger.
#[derive(Debug, Clone, Copy)]
pub struct JenkinsOneAtATime {
    seed: u64,
}

impl JenkinsOneAtATime {
    /// Creates the hasher with the given seed (mixed into the initial state).
    pub fn new(seed: u64) -> Self {
        JenkinsOneAtATime { seed }
    }
}

impl Default for JenkinsOneAtATime {
    fn default() -> Self {
        JenkinsOneAtATime::new(0)
    }
}

impl ItemHasher for JenkinsOneAtATime {
    #[inline]
    fn hash64(&self, item: u64) -> u64 {
        let mut h: u64 = self.seed;
        for byte in item.to_le_bytes() {
            h = h.wrapping_add(byte as u64);
            h = h.wrapping_add(h << 10);
            h ^= h >> 6;
        }
        h = h.wrapping_add(h << 3);
        h ^= h >> 11;
        h = h.wrapping_add(h << 15);
        // The classic routine only guarantees 32 bits of avalanche; finish
        // with splitmix so all 64 output bits are usable.
        splitmix64_mix(h)
    }
}

/// Jenkins' `lookup3`-style final mixing applied to the two 32-bit halves of
/// the item, a faster fixed-width variant of the byte-stream hash.
#[derive(Debug, Clone, Copy)]
pub struct JenkinsLookup3 {
    seed: u64,
}

impl JenkinsLookup3 {
    /// Creates the hasher with the given seed.
    pub fn new(seed: u64) -> Self {
        JenkinsLookup3 { seed }
    }
}

impl Default for JenkinsLookup3 {
    fn default() -> Self {
        JenkinsLookup3::new(0)
    }
}

impl ItemHasher for JenkinsLookup3 {
    #[inline]
    fn hash64(&self, item: u64) -> u64 {
        let init = 0xdead_beefu32
            .wrapping_add(8)
            .wrapping_add(self.seed as u32);
        let mut a = init.wrapping_add((item & 0xffff_ffff) as u32);
        let mut b = init.wrapping_add((item >> 32) as u32);
        let mut c = init ^ ((self.seed >> 32) as u32);
        // lookup3 final() mix.
        c ^= b;
        c = c.wrapping_sub(b.rotate_left(14));
        a ^= c;
        a = a.wrapping_sub(c.rotate_left(11));
        b ^= a;
        b = b.wrapping_sub(a.rotate_left(25));
        c ^= b;
        c = c.wrapping_sub(b.rotate_left(16));
        a ^= c;
        a = a.wrapping_sub(c.rotate_left(4));
        b ^= a;
        b = b.wrapping_sub(a.rotate_left(14));
        c ^= b;
        c = c.wrapping_sub(b.rotate_left(24));
        ((b as u64) << 32) | c as u64
    }
}

/// SplitMix64: a fast, statistically strong mixer; the de-facto standard for
/// seeding and integer finalisation.
#[derive(Debug, Clone, Copy)]
pub struct SplitMix64 {
    seed: u64,
}

impl SplitMix64 {
    /// Creates the hasher with the given seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { seed }
    }
}

impl Default for SplitMix64 {
    fn default() -> Self {
        SplitMix64::new(0)
    }
}

impl ItemHasher for SplitMix64 {
    #[inline]
    fn hash64(&self, item: u64) -> u64 {
        splitmix64_mix(
            item.wrapping_add(self.seed)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15),
        )
    }
}

/// FxHash-style multiplicative hash (rustc's default); extremely fast but
/// lower quality — kept as an ablation point.
#[derive(Debug, Clone, Copy)]
pub struct FxLikeHash {
    seed: u64,
}

impl FxLikeHash {
    /// Creates the hasher with the given seed.
    pub fn new(seed: u64) -> Self {
        FxLikeHash { seed }
    }
}

impl Default for FxLikeHash {
    fn default() -> Self {
        FxLikeHash::new(0)
    }
}

impl ItemHasher for FxLikeHash {
    #[inline]
    fn hash64(&self, item: u64) -> u64 {
        const K: u64 = 0x51_7c_c1_b7_27_22_0a_95;
        (item ^ self.seed).rotate_left(5).wrapping_mul(K)
    }
}

/// The SplitMix64 finaliser (Stafford's Mix13 constants).
#[inline]
pub fn splitmix64_mix(mut z: u64) -> u64 {
    z ^= z >> 30;
    z = z.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^= z >> 27;
    z = z.wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    z
}

/// Kinds of hashers available to fingerprint builders; used where a dynamic
/// choice (CLI flags, experiment configs) is more convenient than generics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HasherKind {
    /// Jenkins one-at-a-time (the paper's choice).
    Jenkins,
    /// Jenkins lookup3 final-mix variant.
    Lookup3,
    /// SplitMix64 finaliser.
    SplitMix,
    /// FxHash-style multiplicative hash.
    FxLike,
}

/// A dynamically selected hasher. Implements [`ItemHasher`] by dispatching
/// on the kind; the indirection is one predictable branch and does not affect
/// fingerprint-construction throughput measurably.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DynHasher {
    kind: HasherKind,
    seed: u64,
}

impl DynHasher {
    /// Creates a hasher of the given kind and seed.
    pub fn new(kind: HasherKind, seed: u64) -> Self {
        DynHasher { kind, seed }
    }

    /// The kind of this hasher.
    pub fn kind(&self) -> HasherKind {
        self.kind
    }

    /// The seed of this hasher.
    pub fn seed(&self) -> u64 {
        self.seed
    }
}

impl Default for DynHasher {
    fn default() -> Self {
        DynHasher::new(HasherKind::Jenkins, 0)
    }
}

impl ItemHasher for DynHasher {
    #[inline]
    fn hash64(&self, item: u64) -> u64 {
        match self.kind {
            HasherKind::Jenkins => JenkinsOneAtATime::new(self.seed).hash64(item),
            HasherKind::Lookup3 => JenkinsLookup3::new(self.seed).hash64(item),
            HasherKind::SplitMix => SplitMix64::new(self.seed).hash64(item),
            HasherKind::FxLike => FxLikeHash::new(self.seed).hash64(item),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniformity_chi2<H: ItemHasher>(h: &H, bits: u32, n: u64) -> f64 {
        let mut counts = vec![0u64; bits as usize];
        for item in 0..n {
            counts[h.bit_position(item, bits) as usize] += 1;
        }
        let expected = n as f64 / bits as f64;
        counts
            .iter()
            .map(|&c| {
                let d = c as f64 - expected;
                d * d / expected
            })
            .sum()
    }

    #[test]
    fn hashers_are_deterministic() {
        let h = JenkinsOneAtATime::new(7);
        assert_eq!(h.hash64(42), h.hash64(42));
        let h2 = JenkinsOneAtATime::new(8);
        assert_ne!(h.hash64(42), h2.hash64(42));
    }

    #[test]
    fn bit_position_in_range() {
        for bits in [1u32, 64, 100, 1024, 8192] {
            let h = JenkinsOneAtATime::default();
            for item in 0..1000u64 {
                assert!(h.bit_position(item, bits) < bits);
            }
        }
    }

    #[test]
    fn jenkins_is_roughly_uniform() {
        // chi-square with 1023 dof; mean 1023, sd ~45. Accept a generous band.
        let chi2 = uniformity_chi2(&JenkinsOneAtATime::default(), 1024, 100_000);
        assert!(chi2 < 1300.0, "chi2 = {chi2}");
    }

    #[test]
    fn lookup3_is_roughly_uniform() {
        let chi2 = uniformity_chi2(&JenkinsLookup3::default(), 1024, 100_000);
        assert!(chi2 < 1300.0, "chi2 = {chi2}");
    }

    #[test]
    fn splitmix_is_roughly_uniform() {
        let chi2 = uniformity_chi2(&SplitMix64::default(), 1024, 100_000);
        assert!(chi2 < 1300.0, "chi2 = {chi2}");
    }

    #[test]
    fn dyn_hasher_matches_static_hasher() {
        let d = DynHasher::new(HasherKind::Jenkins, 3);
        let s = JenkinsOneAtATime::new(3);
        for item in [0u64, 1, 99, u64::MAX] {
            assert_eq!(d.hash64(item), s.hash64(item));
        }
    }

    #[test]
    fn different_kinds_disagree() {
        let a = DynHasher::new(HasherKind::Jenkins, 0);
        let b = DynHasher::new(HasherKind::SplitMix, 0);
        let disagreements = (0..100u64).filter(|&i| a.hash64(i) != b.hash64(i)).count();
        assert!(disagreements > 95);
    }
}
