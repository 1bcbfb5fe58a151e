//! Sketch-construction modes: classic per-hash-function MinHash vs the
//! one-pass construction.
//!
//! The classic construction evaluates one permutation rank per `(item,
//! coordinate)` pair — `O(perms · associations)` hash work, which Table 3
//! of the paper shows is self-defeating next to GoldFinger's one hash per
//! association. The *one-pass* construction (in the spirit of Bachrach &
//! Porat's fast pseudo-random fingerprints and one-permutation hashing)
//! hashes each item **once** and derives every signature slot from that
//! single 64-bit value:
//!
//! 1. the hash's high bits select the one slot the item competes for
//!    (`slot = (hi32 · perms) >> 32`, the same multiply-shift used for SHF
//!    bit positions);
//! 2. a single extra mix of the hash yields the item's rank in that slot;
//! 3. empty slots are *densified* by borrowing the value of the nearest
//!    filled slot to their right (circularly), offset by the borrow
//!    distance times an odd constant so unequal borrow distances cannot
//!    produce accidental matches (Shrivastava & Li's improved
//!    densification).
//!
//! Both constructions feed the same coordinate-match estimator, so the
//! b-bit compaction and every downstream consumer are mode-agnostic.
//! `build` always sketches hashed permutations in one pass; the classic
//! per-hash-function loop stays reachable through `build_with_mode` as the
//! accuracy reference. The explicit Fisher–Yates strategy always uses the
//! classic loop — it *is* the Table 3 baseline being measured.

/// How signature slots are filled from a profile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SketchMode {
    /// One hash per item; all slots derived from it (fast ingest path).
    OnePass,
    /// One permutation rank per `(item, slot)` pair — bit-exact with the
    /// pre-one-pass construction.
    Classic,
}

impl SketchMode {
    /// Report/bench label of the mode.
    pub fn name(&self) -> &'static str {
        match self {
            SketchMode::OnePass => "onepass",
            SketchMode::Classic => "classic",
        }
    }
}

/// Offset per unit of borrow distance during densification. Odd, so
/// repeated addition walks the whole residue ring and two slots borrowing
/// the same source at different distances can never collide.
const DENSIFY_STEP: u64 = 0x9E37_79B9_7F4A_7C15;

/// Fills the empty (`u64::MAX`) slots of a one-pass signature in place:
/// each borrows the value of the nearest *originally* filled slot to its
/// right (wrapping), plus `distance · DENSIFY_STEP`.
///
/// A signature with no filled slot at all (empty profile) is left as all
/// `u64::MAX` — the estimator's "never matches" sentinel.
pub(crate) fn densify(mins: &mut [u64]) {
    let k = mins.len();
    if !mins.iter().any(|&m| m != u64::MAX) {
        return;
    }
    // Walk the ring right-to-left twice: a read-only warm-up lap to find
    // the wrap-around source, then the writing lap. `carry` always refers
    // to an originally filled slot — the writing lap visits each index
    // exactly once, descending, and tests it before writing it, so a
    // borrowed value is never mistaken for a source.
    let mut carry: Option<(u64, u64)> = None; // (value, distance so far)
    for p in (0..2 * k).rev() {
        let idx = p % k;
        if mins[idx] != u64::MAX {
            // In the warm-up lap every non-MAX slot is original; in the
            // writing lap idx == p and the slot is tested before the only
            // write it will ever receive, so it is original there too.
            carry = Some((mins[idx], 0));
        } else if let Some((value, dist)) = carry {
            let dist = dist + 1;
            if p < k {
                let mut v = value.wrapping_add(dist.wrapping_mul(DENSIFY_STEP));
                if v == u64::MAX {
                    // Keep the sentinel unreachable; deterministic on both
                    // sides of a comparison since it depends only on
                    // (value, dist).
                    v = 0;
                }
                mins[idx] = v;
            }
            carry = Some((value, dist));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_names() {
        assert_eq!(SketchMode::OnePass.name(), "onepass");
        assert_eq!(SketchMode::Classic.name(), "classic");
    }

    #[test]
    fn densify_borrows_from_the_right_with_distance_offsets() {
        let mut mins = vec![u64::MAX, 7, u64::MAX, u64::MAX, 40];
        densify(&mut mins);
        assert_eq!(mins[1], 7);
        assert_eq!(mins[4], 40);
        // Slot 0 borrows slot 1 at distance 1; slots 2 and 3 borrow slot 4.
        assert_eq!(mins[0], 7u64.wrapping_add(DENSIFY_STEP));
        assert_eq!(mins[3], 40u64.wrapping_add(DENSIFY_STEP));
        assert_eq!(mins[2], 40u64.wrapping_add(2u64.wrapping_mul(DENSIFY_STEP)));
    }

    #[test]
    fn densify_wraps_around_the_ring() {
        let mut mins = vec![u64::MAX, u64::MAX, 13];
        densify(&mut mins);
        assert_eq!(mins[2], 13);
        assert_eq!(mins[1], 13u64.wrapping_add(DENSIFY_STEP));
        assert_eq!(mins[0], 13u64.wrapping_add(2u64.wrapping_mul(DENSIFY_STEP)));
    }

    #[test]
    fn densify_leaves_all_empty_signatures_alone() {
        let mut mins = vec![u64::MAX; 4];
        densify(&mut mins);
        assert!(mins.iter().all(|&m| m == u64::MAX));
    }

    #[test]
    fn densified_slots_never_hit_the_sentinel() {
        // Craft a borrow that would land exactly on u64::MAX.
        let value = u64::MAX.wrapping_sub(DENSIFY_STEP);
        let mut mins = vec![u64::MAX, value];
        densify(&mut mins);
        assert_eq!(mins[0], 0, "sentinel collision must be remapped");
    }
}
