//! Bit-packed binary vectors.
//!
//! A [`BitVec`] stores a vector over {0, 1} packed 64 bits per word. In the
//! BNN convention used throughout this workspace (and the paper's Eq. 1),
//! bit `1` encodes the bipolar value `+1` and bit `0` encodes `-1`.
//!
//! The type maintains the invariant that all bits beyond `len` in the last
//! word are zero, so [`BitVec::popcount`] and the bitwise operations never
//! need per-call masking of intermediate results.

use std::fmt;

/// Number of bits stored per backing word.
pub const WORD_BITS: usize = 64;

/// Walks the set bits of packed `words` in increasing index order, one
/// `trailing_zeros` per set bit. Shared by [`BitVec::iter_ones`] and the
/// word-level kernels in [`crate::ops`] that walk matrix rows directly.
pub(crate) fn iter_set_bits(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(wi, &word)| {
        let base = wi * WORD_BITS;
        std::iter::successors((word != 0).then_some(word), |&m| {
            let next = m & (m - 1);
            (next != 0).then_some(next)
        })
        .map(move |m| base + m.trailing_zeros() as usize)
    })
}

/// The low `n ≤ 64` bits set.
fn low_mask(n: usize) -> u64 {
    if n >= WORD_BITS {
        u64::MAX
    } else {
        (1 << n) - 1
    }
}

/// A bit-packed binary vector over {0, 1}.
///
/// Bit `1` encodes bipolar `+1`, bit `0` encodes bipolar `-1`.
///
/// # Examples
///
/// ```
/// use eb_bitnn::BitVec;
///
/// let v = BitVec::from_bools(&[true, false, true, true]);
/// assert_eq!(v.len(), 4);
/// assert_eq!(v.popcount(), 3);
/// assert_eq!(v.get(1), Some(false));
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct BitVec {
    words: Vec<u64>,
    len: usize,
}

impl BitVec {
    /// Creates an all-zero vector of `len` bits.
    ///
    /// # Examples
    ///
    /// ```
    /// use eb_bitnn::BitVec;
    /// let v = BitVec::zeros(100);
    /// assert_eq!(v.popcount(), 0);
    /// assert_eq!(v.len(), 100);
    /// ```
    pub fn zeros(len: usize) -> Self {
        Self {
            words: vec![0; len.div_ceil(WORD_BITS)],
            len,
        }
    }

    /// Creates an all-one vector of `len` bits.
    ///
    /// # Examples
    ///
    /// ```
    /// use eb_bitnn::BitVec;
    /// let v = BitVec::ones(70);
    /// assert_eq!(v.popcount(), 70);
    /// ```
    pub fn ones(len: usize) -> Self {
        let mut v = Self {
            words: vec![u64::MAX; len.div_ceil(WORD_BITS)],
            len,
        };
        v.mask_tail();
        v
    }

    /// Builds a vector from a slice of booleans (`true` ⇒ bit 1 ⇒ bipolar +1).
    pub fn from_bools(bits: &[bool]) -> Self {
        let mut v = Self::zeros(bits.len());
        for (i, &b) in bits.iter().enumerate() {
            if b {
                v.set(i, true);
            }
        }
        v
    }

    /// Builds a vector from bipolar values; any value > 0 becomes bit 1.
    ///
    /// This is the binarization (`sign`) step of a BNN applied to raw values:
    /// positives map to +1 (bit 1), zero and negatives map to -1 (bit 0).
    pub fn from_bipolar(values: &[i8]) -> Self {
        let mut v = Self::zeros(values.len());
        for (i, &x) in values.iter().enumerate() {
            if x > 0 {
                v.set(i, true);
            }
        }
        v
    }

    /// Builds a vector of `len` bits from backing words.
    ///
    /// Bits past `len` in the final word are cleared.
    ///
    /// # Panics
    ///
    /// Panics if `words` is shorter than `len.div_ceil(64)` words.
    pub fn from_words(words: Vec<u64>, len: usize) -> Self {
        assert!(
            words.len() >= len.div_ceil(WORD_BITS),
            "word slice too short: {} words for {} bits",
            words.len(),
            len
        );
        let mut v = Self { words, len };
        v.words.truncate(len.div_ceil(WORD_BITS));
        v.mask_tail();
        v
    }

    /// Number of bits in the vector.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` when the vector holds zero bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Backing words; bits past `len` are guaranteed zero.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Iterator over the indices of set bits, in increasing order.
    ///
    /// Walks the packed words directly (one `trailing_zeros` per set bit),
    /// so sparse vectors iterate in `O(popcount)` word operations — the
    /// primitive behind the word-level fixed-point and batch-VMM kernels.
    ///
    /// # Examples
    ///
    /// ```
    /// use eb_bitnn::BitVec;
    /// let v = BitVec::from_bools(&[true, false, false, true]);
    /// assert_eq!(v.iter_ones().collect::<Vec<_>>(), vec![0, 3]);
    /// ```
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        iter_set_bits(&self.words)
    }

    /// Reads bit `i`, or `None` when out of range.
    pub fn get(&self, i: usize) -> Option<bool> {
        if i >= self.len {
            return None;
        }
        Some((self.words[i / WORD_BITS] >> (i % WORD_BITS)) & 1 == 1)
    }

    /// Sets bit `i` to `value`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn set(&mut self, i: usize, value: bool) {
        assert!(
            i < self.len,
            "bit index {i} out of range for length {}",
            self.len
        );
        let w = i / WORD_BITS;
        let b = i % WORD_BITS;
        if value {
            self.words[w] |= 1 << b;
        } else {
            self.words[w] &= !(1 << b);
        }
    }

    /// Number of set bits (population count).
    pub fn popcount(&self) -> u32 {
        self.words.iter().map(|w| w.count_ones()).sum()
    }

    /// Element-wise XNOR: the BNN replacement for multiplication (Eq. 1).
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    ///
    /// # Examples
    ///
    /// ```
    /// use eb_bitnn::BitVec;
    /// let a = BitVec::from_bools(&[true, false, true]);
    /// let b = BitVec::from_bools(&[true, true, false]);
    /// assert_eq!(a.xnor(&b).popcount(), 1); // only position 0 agrees
    /// ```
    pub fn xnor(&self, other: &Self) -> Self {
        assert_eq!(self.len, other.len, "xnor length mismatch");
        let mut out = Self {
            words: self
                .words
                .iter()
                .zip(&other.words)
                .map(|(a, b)| !(a ^ b))
                .collect(),
            len: self.len,
        };
        out.mask_tail();
        out
    }

    /// Element-wise AND.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn and(&self, other: &Self) -> Self {
        assert_eq!(self.len, other.len, "and length mismatch");
        Self {
            words: self
                .words
                .iter()
                .zip(&other.words)
                .map(|(a, b)| a & b)
                .collect(),
            len: self.len,
        }
    }

    /// Element-wise OR.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn or(&self, other: &Self) -> Self {
        assert_eq!(self.len, other.len, "or length mismatch");
        Self {
            words: self
                .words
                .iter()
                .zip(&other.words)
                .map(|(a, b)| a | b)
                .collect(),
            len: self.len,
        }
    }

    /// Element-wise XOR.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn xor(&self, other: &Self) -> Self {
        assert_eq!(self.len, other.len, "xor length mismatch");
        Self {
            words: self
                .words
                .iter()
                .zip(&other.words)
                .map(|(a, b)| a ^ b)
                .collect(),
            len: self.len,
        }
    }

    /// Bitwise complement (the "barred" vectors of the paper's Fig. 2/3).
    ///
    /// # Examples
    ///
    /// ```
    /// use eb_bitnn::BitVec;
    /// let v = BitVec::from_bools(&[true, false]);
    /// assert_eq!(v.complement().popcount(), 1);
    /// ```
    pub fn complement(&self) -> Self {
        let mut out = Self {
            words: self.words.iter().map(|w| !w).collect(),
            len: self.len,
        };
        out.mask_tail();
        out
    }

    /// Concatenates `self` followed by `other`.
    pub fn concat(&self, other: &Self) -> Self {
        let mut out = Self::zeros(self.len + other.len);
        out.copy_range_from(0, self, 0, self.len);
        out.copy_range_from(self.len, other, 0, other.len);
        out
    }

    /// The TacitMap input encoding: `[v ; v̄]` (vector followed by its
    /// complement), which is applied to the crossbar rows so that a plain
    /// AND-accumulate column readout equals `popcount(v ⊙ w)`.
    ///
    /// # Examples
    ///
    /// ```
    /// use eb_bitnn::BitVec;
    /// let v = BitVec::from_bools(&[true, false]);
    /// let t = v.with_complement();
    /// assert_eq!(t.len(), 4);
    /// assert_eq!(t.popcount(), 2);
    /// ```
    pub fn with_complement(&self) -> Self {
        self.concat(&self.complement())
    }

    /// Extracts the sub-vector `[start, start + len)`.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the vector length.
    pub fn slice(&self, start: usize, len: usize) -> Self {
        assert!(start + len <= self.len, "slice out of range");
        let mut out = Self::zeros(len);
        out.copy_range_from(0, self, start, len);
        out
    }

    /// Overwrites bits `[at, at + len)` with `src` bits
    /// `[start, start + len)`, one destination word at a time.
    ///
    /// # Panics
    ///
    /// Panics if either range exceeds its vector.
    ///
    /// # Examples
    ///
    /// ```
    /// use eb_bitnn::BitVec;
    /// let src = BitVec::from_bools(&[true, true, false, true]);
    /// let mut dst = BitVec::zeros(6);
    /// dst.copy_range_from(3, &src, 1, 3);
    /// assert_eq!(dst.iter_ones().collect::<Vec<_>>(), vec![3, 5]);
    /// ```
    pub fn copy_range_from(&mut self, at: usize, src: &Self, start: usize, len: usize) {
        assert!(
            at + len <= self.len && start + len <= src.len,
            "range copy out of bounds"
        );
        let mut done = 0;
        while done < len {
            let (w, b) = ((at + done) / WORD_BITS, (at + done) % WORD_BITS);
            let n = (WORD_BITS - b).min(len - done);
            let mask = low_mask(n) << b;
            let bits = src.bits_at(start + done, n) << b;
            self.words[w] = (self.words[w] & !mask) | bits;
            done += n;
        }
    }

    /// The `n ≤ 64` bits starting at `at`, right-aligned.
    fn bits_at(&self, at: usize, n: usize) -> u64 {
        let (w, b) = (at / WORD_BITS, at % WORD_BITS);
        let mut bits = self.words[w] >> b;
        if b + n > WORD_BITS {
            bits |= self.words[w + 1] << (WORD_BITS - b);
        }
        bits & low_mask(n)
    }

    /// Converts to a vector of booleans.
    pub fn to_bools(&self) -> Vec<bool> {
        (0..self.len)
            .map(|i| self.get(i).unwrap_or(false))
            .collect()
    }

    /// Converts to bipolar values (+1 for bit 1, -1 for bit 0).
    pub fn to_bipolar(&self) -> Vec<i8> {
        (0..self.len)
            .map(|i| if self.get(i) == Some(true) { 1 } else { -1 })
            .collect()
    }

    /// Iterator over bits as booleans.
    pub fn iter(&self) -> Iter<'_> {
        Iter { vec: self, idx: 0 }
    }

    /// Hamming distance to `other` (number of disagreeing positions).
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn hamming(&self, other: &Self) -> u32 {
        self.xor(other).popcount()
    }

    fn mask_tail(&mut self) {
        let rem = self.len % WORD_BITS;
        if rem != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << rem) - 1;
            }
        }
        if self.len == 0 {
            self.words.clear();
        }
    }
}

impl fmt::Debug for BitVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BitVec[{}; ", self.len)?;
        for i in 0..self.len.min(64) {
            write!(f, "{}", u8::from(self.get(i) == Some(true)))?;
        }
        if self.len > 64 {
            write!(f, "…")?;
        }
        write!(f, "]")
    }
}

impl fmt::Display for BitVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.len {
            write!(f, "{}", u8::from(self.get(i) == Some(true)))?;
        }
        Ok(())
    }
}

impl FromIterator<bool> for BitVec {
    fn from_iter<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        let bits: Vec<bool> = iter.into_iter().collect();
        Self::from_bools(&bits)
    }
}

/// Iterator over the bits of a [`BitVec`], produced by [`BitVec::iter`].
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    vec: &'a BitVec,
    idx: usize,
}

impl Iterator for Iter<'_> {
    type Item = bool;

    fn next(&mut self) -> Option<bool> {
        let b = self.vec.get(self.idx)?;
        self.idx += 1;
        Some(b)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.vec.len.saturating_sub(self.idx);
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for Iter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_ones_have_expected_popcounts() {
        assert_eq!(BitVec::zeros(130).popcount(), 0);
        assert_eq!(BitVec::ones(130).popcount(), 130);
        assert_eq!(BitVec::ones(64).popcount(), 64);
        assert_eq!(BitVec::ones(0).popcount(), 0);
    }

    #[test]
    fn set_get_roundtrip() {
        let mut v = BitVec::zeros(100);
        v.set(0, true);
        v.set(63, true);
        v.set(64, true);
        v.set(99, true);
        assert_eq!(v.get(0), Some(true));
        assert_eq!(v.get(1), Some(false));
        assert_eq!(v.get(63), Some(true));
        assert_eq!(v.get(64), Some(true));
        assert_eq!(v.get(99), Some(true));
        assert_eq!(v.get(100), None);
        assert_eq!(v.popcount(), 4);
        v.set(63, false);
        assert_eq!(v.popcount(), 3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn set_out_of_range_panics() {
        let mut v = BitVec::zeros(10);
        v.set(10, true);
    }

    #[test]
    fn xnor_matches_scalar_definition() {
        let a = BitVec::from_bools(&[true, true, false, false]);
        let b = BitVec::from_bools(&[true, false, true, false]);
        let x = a.xnor(&b);
        assert_eq!(x.to_bools(), vec![true, false, false, true]);
    }

    #[test]
    fn xnor_tail_bits_stay_clear() {
        // XNOR of two all-zero vectors is all ones *within len*; beyond len
        // the invariant requires zeros so popcount stays correct.
        let a = BitVec::zeros(70);
        let b = BitVec::zeros(70);
        assert_eq!(a.xnor(&b).popcount(), 70);
    }

    #[test]
    fn complement_inverts_and_masks() {
        let v = BitVec::from_bools(&[true, false, true]);
        let c = v.complement();
        assert_eq!(c.to_bools(), vec![false, true, false]);
        assert_eq!(v.popcount() + c.popcount(), 3);
        let long = BitVec::zeros(100);
        assert_eq!(long.complement().popcount(), 100);
    }

    #[test]
    fn with_complement_always_half_set() {
        for len in [1usize, 7, 64, 65, 200] {
            let mut v = BitVec::zeros(len);
            for i in (0..len).step_by(3) {
                v.set(i, true);
            }
            let t = v.with_complement();
            assert_eq!(t.len(), 2 * len);
            assert_eq!(t.popcount() as usize, len);
        }
    }

    #[test]
    fn concat_preserves_order() {
        let a = BitVec::from_bools(&[true, false]);
        let b = BitVec::from_bools(&[false, true, true]);
        let c = a.concat(&b);
        assert_eq!(c.to_bools(), vec![true, false, false, true, true]);
    }

    #[test]
    fn range_copy_matches_bitwise_copy_across_word_boundaries() {
        let src: BitVec = (0..200).map(|i| (i * 7 + i / 3) % 5 < 2).collect();
        for (at, start, len) in [
            (0, 0, 0),
            (0, 0, 200),
            (5, 3, 64),
            (63, 1, 70),
            (64, 64, 64),
            (1, 127, 73),
            (130, 0, 70),
        ] {
            let mut dst: BitVec = (0..200).map(|i| i % 3 == 0).collect();
            let mut want = dst.clone();
            for i in 0..len {
                want.set(at + i, src.get(start + i) == Some(true));
            }
            dst.copy_range_from(at, &src, start, len);
            assert_eq!(dst, want, "at={at} start={start} len={len}");
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn range_copy_past_the_end_panics() {
        BitVec::zeros(8).copy_range_from(4, &BitVec::ones(8), 0, 5);
    }

    #[test]
    fn slice_extracts_window() {
        let v = BitVec::from_bools(&[true, false, true, true, false, true]);
        let s = v.slice(2, 3);
        assert_eq!(s.to_bools(), vec![true, true, false]);
    }

    #[test]
    fn bipolar_roundtrip() {
        let vals: Vec<i8> = vec![1, -1, -1, 1, 1];
        let v = BitVec::from_bipolar(&vals);
        assert_eq!(v.to_bipolar(), vals);
    }

    #[test]
    fn from_words_masks_excess_bits() {
        let v = BitVec::from_words(vec![u64::MAX], 5);
        assert_eq!(v.popcount(), 5);
    }

    #[test]
    fn hamming_distance() {
        let a = BitVec::from_bools(&[true, true, false]);
        let b = BitVec::from_bools(&[false, true, true]);
        assert_eq!(a.hamming(&b), 2);
        assert_eq!(a.hamming(&a), 0);
    }

    #[test]
    fn iterator_yields_all_bits() {
        let v = BitVec::from_bools(&[true, false, true]);
        let collected: Vec<bool> = v.iter().collect();
        assert_eq!(collected, vec![true, false, true]);
        let back: BitVec = collected.into_iter().collect();
        assert_eq!(back, v);
    }

    #[test]
    fn display_formats_bits() {
        let v = BitVec::from_bools(&[true, false, true]);
        assert_eq!(v.to_string(), "101");
        assert!(!format!("{v:?}").is_empty());
    }

    #[test]
    fn iter_ones_matches_scalar_scan() {
        for len in [0usize, 1, 63, 64, 65, 130, 200] {
            let mut v = BitVec::zeros(len);
            for i in (0..len).step_by(7) {
                v.set(i, true);
            }
            let expect: Vec<usize> = (0..len).filter(|&i| v.get(i) == Some(true)).collect();
            assert_eq!(v.iter_ones().collect::<Vec<_>>(), expect, "len {len}");
        }
        assert_eq!(BitVec::ones(70).iter_ones().count(), 70);
        assert_eq!(BitVec::zeros(70).iter_ones().count(), 0);
    }
}
