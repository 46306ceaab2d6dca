//! The paper's `codeSEED` encoding and rolling window updates.
//!
//! Section 2.1 defines, for a seed `S` of `W` characters:
//!
//! ```text
//! codeSEED(S) = sum_{i=0}^{W-1}  4^i * codeNT(S_i)
//! ```
//!
//! i.e. the *first* character of the word occupies the **low-order** 2 bits.
//! This is the opposite of the usual big-endian k-mer packing, and it
//! matters: the ordering `code(SA) < code(SB)` induced by this little-endian
//! layout is the one the uniqueness proof of step 2 relies on, and our
//! property tests compare codes produced by three independent routes
//! (direct sum, left-rolling, right-rolling).
//!
//! A window is *valid* only if all `W` bytes are concrete nucleotides
//! (codes 0–3); windows containing [`oris_seqio::AMBIG`] or
//! [`oris_seqio::SENTINEL`] have no code.

use oris_seqio::alphabet::is_nucleotide;

/// Maximum supported seed length.
///
/// `4^13` dictionary entries × 4 bytes = 256 MiB, the practical ceiling for
/// the direct-addressed dictionary on a laptop-scale machine. The paper uses
/// `W = 11` (and `W = 10` for the asymmetric mode).
pub const MAX_SEED_LEN: usize = 13;

/// Encoder/decoder for W-mer seed codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeedCoder {
    w: usize,
    mask: u32,
}

impl SeedCoder {
    /// Creates a coder for seeds of `w` nucleotides.
    ///
    /// # Panics
    /// Panics unless `1 <= w <= MAX_SEED_LEN`.
    pub fn new(w: usize) -> SeedCoder {
        assert!(
            (1..=MAX_SEED_LEN).contains(&w),
            "seed length {w} outside 1..={MAX_SEED_LEN}"
        );
        SeedCoder {
            w,
            mask: if w == 16 {
                u32::MAX
            } else {
                (1u32 << (2 * w)) - 1
            },
        }
    }

    /// Seed length `W`.
    #[inline]
    pub fn w(&self) -> usize {
        self.w
    }

    /// Number of possible seeds, `4^W`.
    #[inline]
    pub fn num_seeds(&self) -> usize {
        1usize << (2 * self.w)
    }

    /// Bit mask covering `2·W` bits.
    #[inline]
    pub fn mask(&self) -> u32 {
        self.mask
    }

    /// Encodes the window starting at `window[0]`, or `None` if any of the
    /// `W` bytes is not a concrete nucleotide.
    ///
    /// # Panics
    /// Panics if `window.len() < W`.
    #[inline]
    pub fn encode(&self, window: &[u8]) -> Option<u32> {
        let mut code = 0u32;
        for (i, &c) in window.iter().enumerate().take(self.w) {
            if !is_nucleotide(c) {
                return None;
            }
            code |= (c as u32) << (2 * i);
        }
        Some(code)
    }

    /// Decodes a code back to `W` nucleotide code bytes.
    pub fn decode(&self, code: u32) -> Vec<u8> {
        assert!(
            code <= self.mask,
            "code {code} out of range for W={}",
            self.w
        );
        (0..self.w)
            // oris-lint: allow(narrow-cast) — masked to two bits, always < 256
            .map(|i| ((code >> (2 * i)) & 0b11) as u8)
            .collect()
    }

    /// Slides a window one position to the **right**: drops the first
    /// character (low bits) and appends `incoming` as the new last
    /// character (high bits).
    #[inline]
    pub fn roll_right(&self, code: u32, incoming: u8) -> u32 {
        debug_assert!(is_nucleotide(incoming));
        (code >> 2) | ((incoming as u32) << (2 * (self.w - 1)))
    }

    /// Slides a window one position to the **left**: the new first
    /// character `incoming` takes the low bits and the old last character
    /// falls off the high end.
    #[inline]
    pub fn roll_left(&self, code: u32, incoming: u8) -> u32 {
        debug_assert!(is_nucleotide(incoming));
        ((code << 2) & self.mask) | incoming as u32
    }

    /// Renders a code as an ASCII seed string (for diagnostics).
    pub fn code_to_string(&self, code: u32) -> String {
        self.decode(code)
            .into_iter()
            .map(oris_seqio::code_to_char)
            .collect()
    }

    /// Parses an ASCII seed of exactly `W` characters into a code.
    pub fn string_to_code(&self, s: &str) -> Option<u32> {
        if s.len() != self.w {
            return None;
        }
        let codes: Vec<u8> = s.bytes().map(oris_seqio::nuc_from_char).collect();
        self.encode(&codes)
    }
}

/// Incremental coder walking a code array left-to-right, skipping invalid
/// windows (those containing sentinels or ambiguous bases).
///
/// Yields `(position, code)` for every position `p` such that
/// `data[p..p+W]` is a valid seed window. Each byte is examined exactly
/// once: the code is maintained by [`SeedCoder::roll_right`] and a
/// run-length counter tracks how many consecutive valid nucleotides end at
/// the scan head, so any invalid byte simply resets the run.
#[derive(Debug)]
pub struct RollingCoder<'a> {
    coder: SeedCoder,
    data: &'a [u8],
    /// Scan head: index of the next byte to consume.
    head: usize,
    /// Number of consecutive valid nucleotides ending just before `head`.
    run: usize,
    /// Rolling code of the last `W` consumed bytes (meaningful once
    /// `run >= W`; always `< 4^W` by construction).
    code: u32,
}

impl<'a> RollingCoder<'a> {
    /// Starts a rolling scan of `data` with the given coder.
    pub fn new(coder: SeedCoder, data: &'a [u8]) -> RollingCoder<'a> {
        RollingCoder {
            coder,
            data,
            head: 0,
            run: 0,
            code: 0,
        }
    }
}

impl<'a> Iterator for RollingCoder<'a> {
    type Item = (usize, u32);

    #[inline]
    fn next(&mut self) -> Option<(usize, u32)> {
        let w = self.coder.w();
        while self.head < self.data.len() {
            let c = self.data[self.head];
            let consumed_at = self.head;
            self.head += 1;
            if !is_nucleotide(c) {
                self.run = 0;
                continue;
            }
            self.code = self.coder.roll_right(self.code, c);
            self.run += 1;
            if self.run >= w {
                return Some((consumed_at + 1 - w, self.code));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oris_seqio::alphabet::{AMBIG, SENTINEL};
    use oris_seqio::nuc_from_char;
    use proptest::prelude::*;

    fn codes(s: &str) -> Vec<u8> {
        s.bytes().map(nuc_from_char).collect()
    }

    #[test]
    fn encode_matches_paper_formula() {
        // codeSEED("CAG") with A=00,C=01,G=11:
        //   4^0*1 + 4^1*0 + 4^2*3 = 1 + 0 + 48 = 49
        let coder = SeedCoder::new(3);
        assert_eq!(coder.encode(&codes("CAG")), Some(49));
    }

    #[test]
    fn first_char_is_low_order() {
        let coder = SeedCoder::new(2);
        // "CA" = 1 + 4*0 = 1 ; "AC" = 0 + 4*1 = 4
        assert_eq!(coder.encode(&codes("CA")), Some(1));
        assert_eq!(coder.encode(&codes("AC")), Some(4));
    }

    #[test]
    fn all_a_is_zero_and_all_g_is_max() {
        let coder = SeedCoder::new(5);
        assert_eq!(coder.encode(&codes("AAAAA")), Some(0));
        assert_eq!(coder.encode(&codes("GGGGG")), Some(coder.mask()));
    }

    #[test]
    fn invalid_window_has_no_code() {
        let coder = SeedCoder::new(3);
        assert_eq!(coder.encode(&[0, AMBIG, 1]), None);
        assert_eq!(coder.encode(&[0, SENTINEL, 1]), None);
    }

    #[test]
    fn decode_roundtrip_exhaustive_w3() {
        let coder = SeedCoder::new(3);
        for code in 0..coder.num_seeds() as u32 {
            let word = coder.decode(code);
            assert_eq!(coder.encode(&word), Some(code));
        }
    }

    #[test]
    fn roll_right_matches_reencode() {
        let coder = SeedCoder::new(4);
        let data = codes("ACGTTGCA");
        let mut code = coder.encode(&data[0..4]).unwrap();
        for start in 1..=4 {
            code = coder.roll_right(code, data[start + 3]);
            assert_eq!(Some(code), coder.encode(&data[start..start + 4]));
        }
    }

    #[test]
    fn roll_left_matches_reencode() {
        let coder = SeedCoder::new(4);
        let data = codes("ACGTTGCA");
        let mut code = coder.encode(&data[4..8]).unwrap();
        for start in (0..4).rev() {
            code = coder.roll_left(code, data[start]);
            assert_eq!(Some(code), coder.encode(&data[start..start + 4]));
        }
    }

    #[test]
    fn string_code_roundtrip() {
        let coder = SeedCoder::new(8);
        let s = "AACTGTAA";
        let code = coder.string_to_code(s).unwrap();
        assert_eq!(coder.code_to_string(code), s);
    }

    #[test]
    fn rolling_coder_simple() {
        let coder = SeedCoder::new(3);
        let data = codes("ACGTA");
        let got: Vec<(usize, u32)> = RollingCoder::new(coder, &data).collect();
        assert_eq!(got.len(), 3);
        for (pos, code) in got {
            assert_eq!(Some(code), coder.encode(&data[pos..pos + 3]));
        }
    }

    #[test]
    fn rolling_coder_skips_ambiguous() {
        let coder = SeedCoder::new(3);
        let data = codes("ACGNACG");
        let got: Vec<usize> = RollingCoder::new(coder, &data).map(|(p, _)| p).collect();
        assert_eq!(got, vec![0, 4]);
    }

    #[test]
    fn rolling_coder_skips_sentinels() {
        let coder = SeedCoder::new(2);
        let mut data = codes("ACG");
        data.push(SENTINEL);
        data.extend(codes("TT"));
        let got: Vec<usize> = RollingCoder::new(coder, &data).map(|(p, _)| p).collect();
        assert_eq!(got, vec![0, 1, 4]);
    }

    #[test]
    fn rolling_coder_short_input() {
        let coder = SeedCoder::new(5);
        let data = codes("ACG");
        assert_eq!(RollingCoder::new(coder, &data).count(), 0);
    }

    #[test]
    #[should_panic]
    fn w_zero_rejected() {
        let _ = SeedCoder::new(0);
    }

    #[test]
    #[should_panic]
    fn w_too_large_rejected() {
        let _ = SeedCoder::new(MAX_SEED_LEN + 1);
    }

    proptest! {
        /// Rolling scan yields exactly the positions whose windows encode,
        /// with codes equal to direct encoding.
        #[test]
        fn rolling_equals_direct(data in proptest::collection::vec(0u8..6, 0..200), w in 1usize..7) {
            let coder = SeedCoder::new(w);
            let direct: Vec<(usize, u32)> = (0..data.len().saturating_sub(w - 1))
                .filter_map(|p| coder.encode(&data[p..p + w]).map(|c| (p, c)))
                .collect();
            let rolled: Vec<(usize, u32)> = RollingCoder::new(coder, &data).collect();
            prop_assert_eq!(direct, rolled);
        }

        /// decode ∘ encode is the identity on valid windows.
        #[test]
        fn decode_encode_roundtrip(word in proptest::collection::vec(0u8..4, 1..10)) {
            let coder = SeedCoder::new(word.len());
            let code = coder.encode(&word).unwrap();
            prop_assert_eq!(coder.decode(code), word);
        }

        /// The code order is a strict total order consistent with
        /// little-endian radix-4 interpretation.
        #[test]
        fn order_is_radix4_little_endian(a in proptest::collection::vec(0u8..4, 6), b in proptest::collection::vec(0u8..4, 6)) {
            let coder = SeedCoder::new(6);
            let ca = coder.encode(&a).unwrap();
            let cb = coder.encode(&b).unwrap();
            // Compare as little-endian radix-4 numbers.
            let va: u64 = a.iter().enumerate().map(|(i, &c)| (c as u64) << (2 * i)).sum();
            let vb: u64 = b.iter().enumerate().map(|(i, &c)| (c as u64) << (2 * i)).sum();
            prop_assert_eq!(ca.cmp(&cb), va.cmp(&vb));
        }
    }
}
