//! Word-parallel bitsets — the sub-query vectors of the per-node
//! reference interpreter.
//!
//! No production path uses them: every fragment pass runs on the column
//! kernel (`eval/columns.rs`). The per-node reference interpreter
//! ([`crate::eval::centralized_eval_reference`]), the kernel's oracle,
//! keeps three Boolean vectors of width `|QList|` per live traversal
//! frame; packing them
//! into `u64` words turns per-node child accumulation (`CV |= V_w`,
//! `DV |= DV_w`) into a handful of word ORs. The bulk kernels
//! ([`BitSet::or_assign`], [`BitSet::and_assign`],
//! [`BitSet::count_ones`], [`BitSet::any_intersect`]) process words in
//! chunks of four so LLVM autovectorizes them; [`BitSet::iter_ones`]
//! walks set bits with `trailing_zeros`, skipping zero words entirely.
//!
//! Width is fixed at construction; binary kernels require equal widths
//! (checked in debug builds). Bits between `width` and the last word
//! boundary are kept zero by every operation, so `count_ones`/
//! `is_empty` never see padding.

/// Fixed-width bitset backed by `u64` words.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitSet {
    words: Vec<u64>,
    width: usize,
}

impl BitSet {
    /// All-zero set of `width` bits.
    pub fn zeros(width: usize) -> BitSet {
        BitSet {
            words: vec![0; width.div_ceil(64)],
            width,
        }
    }

    /// Builds a set from a slice of bools (bit `i` = `bits[i]`).
    pub fn from_bools(bits: &[bool]) -> BitSet {
        let mut out = BitSet::zeros(bits.len());
        for (i, &b) in bits.iter().enumerate() {
            out.set(i, b);
        }
        out
    }

    /// The number of addressable bits (fixed at construction).
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// True when no bit is set.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Reads bit `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Writes bit `i`. Branchless: clears the bit, then ORs the value
    /// in — the per-op loops of the evaluators call this for every
    /// `(node, sub-query)` pair, so a data-dependent branch here is a
    /// misprediction farm.
    #[inline]
    pub fn set(&mut self, i: usize, value: bool) {
        let w = &mut self.words[i / 64];
        let bit = (i % 64) as u32;
        *w = (*w & !(1u64 << bit)) | (u64::from(value) << bit);
    }

    /// `self |= other` (widths must match).
    #[inline]
    pub fn or_assign(&mut self, other: &BitSet) {
        debug_assert_eq!(self.width, other.width);
        let mut a = self.words.chunks_exact_mut(4);
        let mut b = other.words.chunks_exact(4);
        for (ca, cb) in (&mut a).zip(&mut b) {
            ca[0] |= cb[0];
            ca[1] |= cb[1];
            ca[2] |= cb[2];
            ca[3] |= cb[3];
        }
        for (x, y) in a.into_remainder().iter_mut().zip(b.remainder()) {
            *x |= *y;
        }
    }

    /// `self &= other` (widths must match).
    #[inline]
    pub fn and_assign(&mut self, other: &BitSet) {
        debug_assert_eq!(self.width, other.width);
        let mut a = self.words.chunks_exact_mut(4);
        let mut b = other.words.chunks_exact(4);
        for (ca, cb) in (&mut a).zip(&mut b) {
            ca[0] &= cb[0];
            ca[1] &= cb[1];
            ca[2] &= cb[2];
            ca[3] &= cb[3];
        }
        for (x, y) in a.into_remainder().iter_mut().zip(b.remainder()) {
            *x &= *y;
        }
    }

    /// Number of set bits.
    #[inline]
    pub fn count_ones(&self) -> usize {
        let mut chunks = self.words.chunks_exact(4);
        let mut total = 0u64;
        for c in &mut chunks {
            total += u64::from(c[0].count_ones())
                + u64::from(c[1].count_ones())
                + u64::from(c[2].count_ones())
                + u64::from(c[3].count_ones());
        }
        for w in chunks.remainder() {
            total += u64::from(w.count_ones());
        }
        total as usize
    }

    /// True when `self ∩ other` is non-empty (widths must match); early
    /// exits per chunk without materializing the intersection.
    #[inline]
    pub fn any_intersect(&self, other: &BitSet) -> bool {
        debug_assert_eq!(self.width, other.width);
        let mut a = self.words.chunks_exact(4);
        let mut b = other.words.chunks_exact(4);
        for (ca, cb) in (&mut a).zip(&mut b) {
            if (ca[0] & cb[0]) | (ca[1] & cb[1]) | (ca[2] & cb[2]) | (ca[3] & cb[3]) != 0 {
                return true;
            }
        }
        a.remainder()
            .iter()
            .zip(b.remainder())
            .any(|(x, y)| x & y != 0)
    }

    /// Iterates the indices of set bits in ascending order; zero words
    /// cost one load each, set bits one `trailing_zeros` each.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                if rest == 0 {
                    None
                } else {
                    let tz = rest.trailing_zeros() as usize;
                    rest &= rest - 1;
                    Some(wi * 64 + tz)
                }
            })
        })
    }

    /// Copies `other` into `self` (widths must match).
    #[inline]
    pub fn copy_from(&mut self, other: &BitSet) {
        debug_assert_eq!(self.width, other.width);
        self.words.copy_from_slice(&other.words);
    }

    /// Clears all bits (for frame reuse).
    #[inline]
    pub fn clear(&mut self) {
        self.words.fill(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_roundtrip() {
        let mut b = BitSet::zeros(130);
        assert!(!b.get(0));
        b.set(0, true);
        b.set(64, true);
        b.set(129, true);
        assert!(b.get(0) && b.get(64) && b.get(129));
        assert!(!b.get(1) && !b.get(63) && !b.get(128));
        b.set(64, false);
        assert!(!b.get(64));
        // Re-setting an already-set bit keeps it (branchless path).
        b.set(0, true);
        assert!(b.get(0));
    }

    #[test]
    fn or_assign_unions() {
        let mut a = BitSet::zeros(70);
        let mut b = BitSet::zeros(70);
        a.set(3, true);
        b.set(69, true);
        a.or_assign(&b);
        assert!(a.get(3) && a.get(69));
    }

    #[test]
    fn kernels_cover_chunked_and_remainder_words() {
        // 6 words: one full chunk of 4 plus 2 remainder words.
        let width = 6 * 64;
        let mut a = BitSet::zeros(width);
        let mut b = BitSet::zeros(width);
        for i in (0..width).step_by(3) {
            a.set(i, true);
        }
        for i in (0..width).step_by(5) {
            b.set(i, true);
        }
        let mut or = a.clone();
        or.or_assign(&b);
        let mut and = a.clone();
        and.and_assign(&b);
        for i in 0..width {
            assert_eq!(or.get(i), a.get(i) || b.get(i), "or bit {i}");
            assert_eq!(and.get(i), a.get(i) && b.get(i), "and bit {i}");
        }
        assert_eq!(or.count_ones(), (0..width).filter(|i| or.get(*i)).count());
        assert!(a.any_intersect(&b), "multiples of 15 intersect");
        let ones: Vec<usize> = and.iter_ones().collect();
        assert_eq!(ones, (0..width).step_by(15).collect::<Vec<_>>());
    }

    #[test]
    fn disjoint_sets_do_not_intersect() {
        let mut a = BitSet::zeros(300);
        let mut b = BitSet::zeros(300);
        a.set(0, true);
        a.set(299, true);
        b.set(1, true);
        b.set(298, true);
        assert!(!a.any_intersect(&b));
        b.set(299, true);
        assert!(a.any_intersect(&b));
    }

    #[test]
    fn width_and_emptiness() {
        let mut a = BitSet::zeros(97);
        assert_eq!(a.width(), 97);
        assert!(a.is_empty());
        assert_eq!(a.count_ones(), 0);
        a.set(96, true);
        assert!(!a.is_empty());
        assert_eq!(a.count_ones(), 1);
        assert_eq!(a.iter_ones().collect::<Vec<_>>(), vec![96]);
    }

    #[test]
    fn from_bools_and_copy_from() {
        let bits: Vec<bool> = (0..130).map(|i| i % 7 == 0).collect();
        let a = BitSet::from_bools(&bits);
        assert_eq!(a.width(), 130);
        for (i, &b) in bits.iter().enumerate() {
            assert_eq!(a.get(i), b);
        }
        let mut c = BitSet::zeros(130);
        c.set(1, true);
        c.copy_from(&a);
        assert_eq!(c, a);
        assert!(!c.get(1));
    }

    #[test]
    fn clear_resets() {
        let mut a = BitSet::zeros(10);
        a.set(7, true);
        a.clear();
        assert!(!a.get(7));
        assert!(a.is_empty());
    }
}
