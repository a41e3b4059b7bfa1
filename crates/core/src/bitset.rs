//! Dense `u64`-word bitsets for the CDAG graph passes.
//!
//! The CDAG engine's node indices are small dense integers (`depth · width +
//! slot`), so node sets are represented as flat word arrays instead of
//! generation-stamped `Vec<u32>` mark vectors: membership is one shift and
//! mask, set union is a word-OR loop over 64 nodes at a time, and emptiness
//! of an intersection is decided without materializing it. Two shapes cover
//! every pass:
//!
//! * [`BitSet`] — a growable flat set over node indices, used for the sparse
//!   reachability walks (provenance trimming, prefix conflicts). A
//!   high-water mark keeps `clear` proportional to the words actually
//!   touched since the last clear, preserving the `O(touched)` behaviour of
//!   the generation-stamp scheme it replaces.
//! * [`BitGrid`] — a `rows × cols` bit matrix with one row per CDAG level,
//!   used by the level-synchronous descendant closure: a whole frontier is
//!   one row, and stepping the closure is OR-ing per-symbol child masks into
//!   the next row. Only the dirtied row range is re-zeroed on reset.
//!
//! The free functions ([`or_into`], [`intersects`], [`ones`]) operate on raw
//! word slices so per-symbol masks can be stored flattened next to each
//! other and combined without intermediate allocations.

/// Bits per storage word.
pub const WORD_BITS: usize = 64;

#[inline]
fn word_of(bit: u32) -> usize {
    (bit as usize) / WORD_BITS
}

#[inline]
fn mask_of(bit: u32) -> u64 {
    1u64 << ((bit as usize) % WORD_BITS)
}

/// A growable dense bitset over `u32` indices.
#[derive(Clone, Debug, Default)]
pub struct BitSet {
    words: Vec<u64>,
    /// Number of leading words possibly non-zero (high-water mark since the
    /// last [`Self::clear`]); bounds the cost of clearing.
    hot: usize,
}

impl BitSet {
    /// An empty set.
    pub fn new() -> Self {
        BitSet::default()
    }

    /// Removes every element. Cost is proportional to the highest word
    /// touched since the previous clear, not the allocated capacity.
    pub fn clear(&mut self) {
        let hot = self.hot.min(self.words.len());
        self.words[..hot].fill(0);
        self.hot = 0;
    }

    /// Inserts `bit`, growing the word array on demand. Returns `true` when
    /// the bit was not previously set.
    #[inline]
    pub fn insert(&mut self, bit: u32) -> bool {
        let w = word_of(bit);
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        self.hot = self.hot.max(w + 1);
        let m = mask_of(bit);
        let fresh = self.words[w] & m == 0;
        self.words[w] |= m;
        fresh
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, bit: u32) -> bool {
        self.words
            .get(word_of(bit))
            .is_some_and(|&w| w & mask_of(bit) != 0)
    }

    /// Returns `true` when no bit is set.
    pub fn is_empty(&self) -> bool {
        self.words[..self.hot.min(self.words.len())]
            .iter()
            .all(|&w| w == 0)
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Word-OR of `other` into `self`.
    pub fn union_with(&mut self, other: &BitSet) {
        let n = other.hot.min(other.words.len());
        if n > self.words.len() {
            self.words.resize(n, 0);
        }
        self.hot = self.hot.max(n);
        for (d, &s) in self.words[..n].iter_mut().zip(&other.words[..n]) {
            *d |= s;
        }
    }

    /// Iterates the set bits in ascending order.
    pub fn iter_ones(&self) -> impl Iterator<Item = u32> + '_ {
        ones(&self.words[..self.hot.min(self.words.len())])
    }
}

/// A `rows × cols` bit matrix with per-row word alignment — one row per CDAG
/// level. Reset only re-zeroes the rows dirtied since the previous reset, so
/// passes over shallow DAGs never pay for the full grid.
#[derive(Clone, Debug, Default)]
pub struct BitGrid {
    words: Vec<u64>,
    /// Words per row.
    stride: usize,
    /// Dirty row range `[dirty_lo, dirty_hi)` to zero on the next reset.
    dirty_lo: usize,
    dirty_hi: usize,
}

impl BitGrid {
    /// An empty grid; size it with [`Self::reset`] before use.
    pub fn new() -> Self {
        BitGrid::default()
    }

    /// Sizes the grid to `rows × cols` bits and clears it, reusing the
    /// allocation. Only rows written since the last reset are re-zeroed.
    pub fn reset(&mut self, rows: usize, cols: usize) {
        let stride = cols.div_ceil(WORD_BITS).max(1);
        if stride != self.stride || rows * stride > self.words.len() {
            self.words.clear();
            self.words.resize(rows * stride, 0);
            self.stride = stride;
        } else if self.dirty_lo < self.dirty_hi {
            // Zero the dirty rows of the *previous* layout, clamped to the
            // allocation (the dirty range may exceed the new row count).
            let lo = (self.dirty_lo * stride).min(self.words.len());
            let hi = (self.dirty_hi * stride).min(self.words.len());
            self.words[lo..hi].fill(0);
        }
        self.dirty_lo = usize::MAX;
        self.dirty_hi = 0;
    }

    /// Words per row.
    pub fn stride(&self) -> usize {
        self.stride
    }

    #[inline]
    fn mark_dirty(&mut self, row: usize) {
        self.dirty_lo = self.dirty_lo.min(row);
        self.dirty_hi = self.dirty_hi.max(row + 1);
    }

    /// Sets bit `(row, col)`; returns `true` when it was not previously set.
    #[inline]
    pub fn set(&mut self, row: usize, col: usize) -> bool {
        self.mark_dirty(row);
        let w = row * self.stride + col / WORD_BITS;
        let m = 1u64 << (col % WORD_BITS);
        let fresh = self.words[w] & m == 0;
        self.words[w] |= m;
        fresh
    }

    /// Tests bit `(row, col)`.
    #[inline]
    pub fn test(&self, row: usize, col: usize) -> bool {
        self.words[row * self.stride + col / WORD_BITS] & (1u64 << (col % WORD_BITS)) != 0
    }

    /// The words of one row.
    #[inline]
    pub fn row(&self, row: usize) -> &[u64] {
        &self.words[row * self.stride..(row + 1) * self.stride]
    }

    /// Word-OR of `mask` into a row (`mask` must have `stride` words).
    pub fn or_into_row(&mut self, row: usize, mask: &[u64]) {
        self.mark_dirty(row);
        let s = self.stride;
        for (d, &m) in self.words[row * s..(row + 1) * s].iter_mut().zip(mask) {
            *d |= m;
        }
    }

    /// Returns `true` when a row has no set bit.
    pub fn row_is_empty(&self, row: usize) -> bool {
        self.row(row).iter().all(|&w| w == 0)
    }
}

/// Word-OR of `src` into `dst` (`dst` must be at least as long).
#[inline]
pub fn or_into(dst: &mut [u64], src: &[u64]) {
    for (d, &s) in dst.iter_mut().zip(src) {
        *d |= s;
    }
}

/// Returns `true` when the word slices share a set bit (`a ∧ b ≠ 0`),
/// without materializing the intersection.
#[inline]
pub fn intersects(a: &[u64], b: &[u64]) -> bool {
    a.iter().zip(b).any(|(&x, &y)| x & y != 0)
}

/// Iterates the indices of the set bits of a word slice in ascending order.
pub fn ones(words: &[u64]) -> impl Iterator<Item = u32> + '_ {
    words.iter().enumerate().flat_map(|(wi, &w)| {
        let base = (wi * WORD_BITS) as u32;
        std::iter::successors((w != 0).then_some(w), |&rest| {
            let next = rest & (rest - 1);
            (next != 0).then_some(next)
        })
        .map(move |rest| base + rest.trailing_zeros())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_and_clear() {
        let mut s = BitSet::new();
        assert!(s.insert(3));
        assert!(!s.insert(3));
        assert!(s.insert(64));
        assert!(s.insert(1000));
        assert!(s.contains(3) && s.contains(64) && s.contains(1000));
        assert!(!s.contains(4) && !s.contains(65) && !s.contains(100_000));
        assert_eq!(s.count_ones(), 3);
        assert_eq!(s.iter_ones().collect::<Vec<_>>(), vec![3, 64, 1000]);
        s.clear();
        assert!(s.is_empty());
        assert!(!s.contains(3));
        assert!(s.insert(3), "clear really unset the bit");
    }

    #[test]
    fn union_with_merges_words() {
        let mut a = BitSet::new();
        a.insert(1);
        a.insert(200);
        let mut b = BitSet::new();
        b.insert(1);
        b.insert(63);
        b.insert(512);
        a.union_with(&b);
        assert_eq!(a.iter_ones().collect::<Vec<_>>(), vec![1, 63, 200, 512]);
    }

    #[test]
    fn grid_reset_rezeros_only_dirty_rows_but_fully() {
        let mut g = BitGrid::new();
        g.reset(10, 100);
        assert_eq!(g.stride(), 2);
        assert!(g.set(3, 70));
        assert!(!g.set(3, 70));
        assert!(g.test(3, 70));
        g.or_into_row(9, &[0b1010, 0]);
        assert!(g.test(9, 1) && g.test(9, 3));
        g.reset(10, 100);
        assert!(!g.test(3, 70) && !g.test(9, 1), "reset clears dirty rows");
        assert!((0..10).all(|r| g.row_is_empty(r)));
        // Growing the row count past the allocation starts from zeroed words.
        g.set(0, 0);
        g.reset(20, 100);
        assert!((0..20).all(|r| g.row_is_empty(r)));
    }

    #[test]
    fn word_slice_helpers() {
        let a = [0b1100u64, 0];
        let b = [0b0100u64, 1 << 40];
        assert!(intersects(&a, &b));
        assert!(!intersects(&a, &[0b0011, 0]));
        let mut d = [0u64, 0];
        or_into(&mut d, &a);
        or_into(&mut d, &b);
        assert_eq!(ones(&d).collect::<Vec<_>>(), vec![2, 3, 104]);
    }

    #[test]
    fn ones_handles_dense_and_sparse_words() {
        assert_eq!(ones(&[]).count(), 0);
        assert_eq!(ones(&[0, 0]).count(), 0);
        let all = [u64::MAX];
        assert_eq!(ones(&all).count(), 64);
        assert_eq!(ones(&all).next(), Some(0));
        assert_eq!(ones(&all).last(), Some(63));
    }
}
