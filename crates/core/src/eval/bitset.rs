//! Word-parallel bitsets — the sub-query vectors of the per-node
//! reference interpreter.
//!
//! No production path uses them: every fragment pass runs on the column
//! kernel (`eval/columns.rs`). The per-node reference interpreter
//! ([`crate::eval::centralized_eval_reference`]), the kernel's oracle,
//! keeps three Boolean vectors of width `|QList|` per live traversal
//! frame; packing them into `u64` words turns per-node child
//! accumulation (`CV |= V_w`, `DV |= DV_w`) into a handful of word ORs
//! ([`BitSet::or_assign`]).
//!
//! Width is fixed at construction; `or_assign` requires equal widths
//! (checked in debug builds). Bits between `width` and the last word
//! boundary are never set.

/// Fixed-width bitset backed by `u64` words.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct BitSet {
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
        for i in 0..width {
            assert_eq!(or.get(i), a.get(i) || b.get(i), "or bit {i}");
        }
    }

    #[test]
    fn width_and_emptiness() {
        let mut a = BitSet::zeros(97);
        assert_eq!(a.width, 97);
        assert_eq!(a.words.len(), 2);
        assert!(a.words.iter().all(|&w| w == 0));
        a.set(96, true);
        assert_eq!((0..97).filter(|&i| a.get(i)).collect::<Vec<_>>(), vec![96]);
    }

    #[test]
    fn clear_resets() {
        let mut a = BitSet::zeros(10);
        a.set(7, true);
        a.clear();
        assert!(!a.get(7));
    }
}
