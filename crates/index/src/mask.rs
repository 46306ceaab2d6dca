//! Bit-set of masked global bank positions.

/// A set of masked positions over a bank's global coordinate space.
///
/// Backed by a plain `u64` bit vector: one bit per bank position
/// (including sentinels, which are simply never queried).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MaskSet {
    bits: Vec<u64>,
    len: usize,
    masked: usize,
}

impl MaskSet {
    /// An all-clear mask over `len` positions.
    pub fn new(len: usize) -> MaskSet {
        MaskSet {
            bits: vec![0u64; len.div_ceil(64)],
            len,
            masked: 0,
        }
    }

    /// Rebuilds a mask from its raw bit words (the persistence path).
    ///
    /// Validates the [`MaskSet::words`] invariants: exactly
    /// `len.div_ceil(64)` words, with every bit at or beyond `len` clear.
    /// The masked count is recomputed from the words. Returns `None` on
    /// violation instead of constructing a set whose count and
    /// [`MaskSet::intervals`] would read garbage.
    pub(crate) fn from_raw_words(bits: Vec<u64>, len: usize) -> Option<MaskSet> {
        if bits.len() != len.div_ceil(64) {
            return None;
        }
        if !len.is_multiple_of(64) {
            if let Some(last) = bits.last() {
                if last >> (len % 64) != 0 {
                    return None;
                }
            }
        }
        let masked = bits.iter().map(|w| w.count_ones() as usize).sum();
        Some(MaskSet { bits, len, masked })
    }

    /// Number of addressable positions.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if no positions are addressable.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of masked positions.
    pub fn masked_count(&self) -> usize {
        self.masked
    }

    /// Fraction of positions masked.
    pub fn masked_fraction(&self) -> f64 {
        if self.len == 0 {
            0.0
        } else {
            self.masked as f64 / self.len as f64
        }
    }

    /// Marks position `pos`.
    #[inline]
    pub fn set(&mut self, pos: usize) {
        debug_assert!(pos < self.len);
        let word = &mut self.bits[pos / 64];
        let bit = 1u64 << (pos % 64);
        if *word & bit == 0 {
            *word |= bit;
            self.masked += 1;
        }
    }

    /// Marks every position in `[start, end)` (clipped to `len()`), a
    /// word at a time.
    pub fn set_range(&mut self, start: usize, end: usize) {
        let end = end.min(self.len);
        if start >= end {
            return;
        }
        let (first, last) = (start / 64, (end - 1) / 64);
        for w in first..=last {
            let mut span = u64::MAX;
            if w == first {
                span &= u64::MAX << (start % 64);
            }
            if w == last {
                span &= u64::MAX >> (63 - (end - 1) % 64);
            }
            let word = &mut self.bits[w];
            self.masked += (span & !*word).count_ones() as usize;
            *word |= span;
        }
    }

    /// Whether `pos` is masked.
    #[inline]
    pub fn contains(&self, pos: usize) -> bool {
        if pos >= self.len {
            return false;
        }
        self.bits[pos / 64] & (1u64 << (pos % 64)) != 0
    }

    /// Returns a mask over *word start* positions: position `p` is set
    /// when any of the `w` positions `p .. p+w` is set in `self`.
    ///
    /// This is the masking semantics BLAST applies when building its
    /// lookup table — a W-mer is discarded if it *overlaps* a masked
    /// region, not merely if it starts inside one. Computed by dilating
    /// every masked interval `w − 1` positions to the left.
    pub fn dilated_left(&self, w: usize) -> MaskSet {
        assert!(w >= 1);
        let mut out = MaskSet::new(self.len);
        for (a, b) in self.intervals() {
            out.set_range(a.saturating_sub(w - 1), b);
        }
        out
    }

    /// The backing bit words: position `p` is bit `p % 64` of word
    /// `p / 64` (set = masked). The slice covers `len().div_ceil(64)`
    /// words; bits at or beyond `len()` are always clear.
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.bits
    }

    /// Heap bytes used by the bit vector.
    pub fn heap_bytes(&self) -> usize {
        self.bits.len() * 8
    }

    /// Returns the maximal masked intervals as `(start, end)` pairs.
    ///
    /// Walks the bit words, not the positions: a clear word costs one
    /// comparison, a run is found by counting trailing zeros and ones.
    pub fn intervals(&self) -> Vec<(usize, usize)> {
        let mut out: Vec<(usize, usize)> = Vec::new();
        for (w, &word) in self.bits.iter().enumerate() {
            let mut rest = word;
            while rest != 0 {
                let lo = rest.trailing_zeros() as usize;
                let run = (rest >> lo).trailing_ones() as usize;
                let (start, end) = (w * 64 + lo, w * 64 + lo + run);
                match out.last_mut() {
                    // A run that starts a word may continue the one
                    // that ended the word before.
                    Some(prev) if prev.1 == start => prev.1 = end,
                    _ => out.push((start, end)),
                }
                if lo + run == 64 {
                    break;
                }
                rest &= u64::MAX << (lo + run);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_and_contains() {
        let mut m = MaskSet::new(100);
        m.set(0);
        m.set(63);
        m.set(64);
        m.set(99);
        assert!(m.contains(0) && m.contains(63) && m.contains(64) && m.contains(99));
        assert!(!m.contains(1) && !m.contains(65));
        assert_eq!(m.masked_count(), 4);
    }

    #[test]
    fn double_set_counts_once() {
        let mut m = MaskSet::new(10);
        m.set(3);
        m.set(3);
        assert_eq!(m.masked_count(), 1);
    }

    #[test]
    fn set_range_clips_to_len() {
        let mut m = MaskSet::new(10);
        m.set_range(8, 20);
        assert_eq!(m.masked_count(), 2);
        assert!(m.contains(9));
        assert!(!m.contains(10));
    }

    #[test]
    fn out_of_range_contains_is_false() {
        let m = MaskSet::new(5);
        assert!(!m.contains(5));
        assert!(!m.contains(1000));
    }

    #[test]
    fn intervals_reconstruct_runs() {
        let mut m = MaskSet::new(20);
        m.set_range(2, 5);
        m.set_range(5, 8); // adjacent → merged implicitly
        m.set_range(15, 20);
        assert_eq!(m.intervals(), vec![(2, 8), (15, 20)]);
    }

    #[test]
    fn dilated_left_covers_overlapping_words() {
        let mut m = MaskSet::new(30);
        m.set_range(10, 15);
        let d = m.dilated_left(4);
        assert_eq!(d.intervals(), vec![(7, 15)]);
        // word starting at 7 covers 7..11, overlapping the mask at 10
        assert!(d.contains(7));
        assert!(!d.contains(6));
    }

    #[test]
    fn dilated_left_clips_at_zero() {
        let mut m = MaskSet::new(10);
        m.set_range(1, 3);
        let d = m.dilated_left(5);
        assert_eq!(d.intervals(), vec![(0, 3)]);
    }

    #[test]
    fn dilation_by_one_is_identity() {
        let mut m = MaskSet::new(20);
        m.set_range(3, 7);
        m.set(12);
        assert_eq!(m.dilated_left(1), m);
    }

    #[test]
    fn words_agree_with_contains() {
        let mut m = MaskSet::new(200);
        for p in [0usize, 1, 63, 64, 65, 127, 128, 199] {
            m.set(p);
        }
        let words = m.words();
        assert_eq!(words.len(), 200usize.div_ceil(64));
        for p in 0..200 {
            let bit = words[p / 64] & (1u64 << (p % 64)) != 0;
            assert_eq!(bit, m.contains(p), "position {p}");
        }
        // bits beyond len are clear
        for w in &words[199 / 64 + 1..] {
            assert_eq!(*w, 0);
        }
    }

    proptest::proptest! {
        /// The word-wise `set_range`, `intervals` and `dilated_left` agree
        /// with their one-bit-at-a-time definitions, across word
        /// boundaries, overlapping ranges and ranges past the end.
        #[test]
        fn word_operations_match_the_per_bit_definitions(
            len in 0usize..300,
            ranges in proptest::collection::vec(0usize..330, 0..12),
            w in 1usize..70,
        ) {
            let mut fast = MaskSet::new(len);
            let mut slow = MaskSet::new(len);
            for pair in ranges.chunks_exact(2) {
                let (start, end) = (pair[0], pair[0] + pair[1] % 140);
                fast.set_range(start, end);
                for p in start..end.min(len) {
                    slow.set(p);
                }
            }
            proptest::prop_assert_eq!(&fast, &slow);

            let mut runs = Vec::new();
            let mut p = 0;
            while p < len {
                if slow.contains(p) {
                    let start = p;
                    while slow.contains(p) {
                        p += 1;
                    }
                    runs.push((start, p));
                } else {
                    p += 1;
                }
            }
            proptest::prop_assert_eq!(fast.intervals(), runs);

            let mut dilated = MaskSet::new(len);
            for p in 0..len {
                if (p..p + w).any(|q| slow.contains(q)) {
                    dilated.set(p);
                }
            }
            proptest::prop_assert_eq!(fast.dilated_left(w), dilated);
        }
    }

    #[test]
    fn fraction() {
        let mut m = MaskSet::new(10);
        m.set_range(0, 5);
        assert!((m.masked_fraction() - 0.5).abs() < 1e-12);
    }
}
