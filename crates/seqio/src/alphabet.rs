//! Nucleotide alphabet and the paper's 2-bit code.
//!
//! Section 2.1 of the paper fixes the nucleotide code used to order seeds:
//!
//! ```text
//!  A    C    G    T
//!  00   01   11   10
//! ```
//!
//! Note the *non-alphabetical* order (`A < C < T < G` by code value). The
//! ordering itself is irrelevant to correctness — the algorithm only needs a
//! strict total order on W-mers — but we keep the paper's table so seed codes
//! match the publication exactly.
//!
//! Two extra byte values exist in bank code arrays:
//!
//! * [`SENTINEL`] separates sequences (and pads both ends of a bank) so that
//!   no seed window or extension can cross a sequence boundary: the sentinel
//!   never compares equal to any code, including itself.
//! * [`AMBIG`] represents any non-ACGT FASTA character (N and the IUPAC
//!   ambiguity codes). Like the sentinel it never matches, but it *is* part
//!   of a sequence and counted in its length.

/// 2-bit code of `A` (00).
pub const CODE_A: u8 = 0b00;
/// 2-bit code of `C` (01).
pub const CODE_C: u8 = 0b01;
/// 2-bit code of `G` (11) — the paper's table, not alphabetical order.
pub const CODE_G: u8 = 0b11;
/// 2-bit code of `T` (10).
pub const CODE_T: u8 = 0b10;

/// The four nucleotide codes in code order (`A`, `C`, `T`, `G`).
pub const NUC_CODES: [u8; 4] = [CODE_A, CODE_C, CODE_T, CODE_G];

/// Separator byte between sequences inside a [`crate::Bank`].
///
/// Chosen `> 3` so it is never a valid nucleotide code; comparisons against
/// it (including against another sentinel) must be treated as mismatches.
pub const SENTINEL: u8 = 4;

/// Code byte for ambiguous / non-ACGT characters (e.g. `N`).
pub const AMBIG: u8 = 5;

/// A concrete nucleotide.
///
/// The discriminant of each variant is its 2-bit code from the paper, so
/// `Nuc::G as u8 == 0b11`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum Nuc {
    /// Adenine, code `00`.
    A = CODE_A,
    /// Cytosine, code `01`.
    C = CODE_C,
    /// Thymine, code `10`.
    T = CODE_T,
    /// Guanine, code `11`.
    G = CODE_G,
}

impl Nuc {
    /// All four nucleotides, in increasing code order.
    pub const ALL: [Nuc; 4] = [Nuc::A, Nuc::C, Nuc::T, Nuc::G];

    /// The 2-bit code of this nucleotide.
    #[inline]
    pub fn code(self) -> u8 {
        self as u8
    }

    /// Builds a nucleotide from a 2-bit code.
    ///
    /// # Panics
    /// Panics if `code > 3`.
    #[inline]
    pub fn from_code(code: u8) -> Nuc {
        match code {
            CODE_A => Nuc::A,
            CODE_C => Nuc::C,
            CODE_T => Nuc::T,
            CODE_G => Nuc::G,
            _ => panic!("invalid nucleotide code {code}"),
        }
    }

    /// Watson–Crick complement.
    #[inline]
    pub fn complement(self) -> Nuc {
        match self {
            Nuc::A => Nuc::T,
            Nuc::T => Nuc::A,
            Nuc::C => Nuc::G,
            Nuc::G => Nuc::C,
        }
    }

    /// Upper-case ASCII letter of this nucleotide.
    #[cfg(test)]
    fn to_char(self) -> char {
        match self {
            Nuc::A => 'A',
            Nuc::C => 'C',
            Nuc::G => 'G',
            Nuc::T => 'T',
        }
    }
}

/// Maps an ASCII character to a bank code byte.
///
/// `A/C/G/T` (either case) map to their 2-bit codes; every other letter
/// (IUPAC ambiguity codes, `N`, `-`, …) maps to [`AMBIG`].
#[inline]
pub const fn nuc_from_char(c: u8) -> u8 {
    match c {
        b'A' | b'a' => CODE_A,
        b'C' | b'c' => CODE_C,
        b'G' | b'g' => CODE_G,
        b'T' | b't' | b'U' | b'u' => CODE_T,
        _ => AMBIG,
    }
}

/// Maps a bank code byte back to an ASCII character.
///
/// Codes 0–3 map to `A/C/G/T`; [`AMBIG`] maps to `N`; [`SENTINEL`] maps to
/// `|` (it should never appear inside a written sequence — the bank writer
/// splits on sentinels).
#[inline]
pub fn code_to_char(code: u8) -> char {
    match code {
        CODE_A => 'A',
        CODE_C => 'C',
        CODE_G => 'G',
        CODE_T => 'T',
        AMBIG => 'N',
        SENTINEL => '|',
        _ => '?',
    }
}

/// Complements a bank code byte; sentinel and ambiguous codes are unchanged.
#[inline]
pub fn complement_code(code: u8) -> u8 {
    match code {
        CODE_A => CODE_T,
        CODE_T => CODE_A,
        CODE_C => CODE_G,
        CODE_G => CODE_C,
        other => other,
    }
}

/// Returns `true` if `code` is one of the four concrete nucleotide codes.
#[inline]
pub fn is_nucleotide(code: u8) -> bool {
    code < 4
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_code_table() {
        // The exact table from section 2.1 of the paper.
        assert_eq!(Nuc::A.code(), 0b00);
        assert_eq!(Nuc::C.code(), 0b01);
        assert_eq!(Nuc::G.code(), 0b11);
        assert_eq!(Nuc::T.code(), 0b10);
    }

    #[test]
    fn code_order_is_a_c_t_g() {
        let mut sorted = Nuc::ALL;
        sorted.sort_by_key(|n| n.code());
        assert_eq!(sorted, [Nuc::A, Nuc::C, Nuc::T, Nuc::G]);
    }

    #[test]
    fn roundtrip_code() {
        for n in Nuc::ALL {
            assert_eq!(Nuc::from_code(n.code()), n);
        }
    }

    #[test]
    fn complement_is_involution() {
        for n in Nuc::ALL {
            assert_eq!(n.complement().complement(), n);
        }
        for code in 0u8..6 {
            assert_eq!(complement_code(complement_code(code)), code);
        }
    }

    #[test]
    fn complement_pairs() {
        assert_eq!(Nuc::A.complement(), Nuc::T);
        assert_eq!(Nuc::G.complement(), Nuc::C);
    }

    #[test]
    fn char_mapping_both_cases() {
        assert_eq!(nuc_from_char(b'a'), CODE_A);
        assert_eq!(nuc_from_char(b'A'), CODE_A);
        assert_eq!(nuc_from_char(b'g'), CODE_G);
        assert_eq!(nuc_from_char(b'U'), CODE_T); // RNA input tolerated
        assert_eq!(nuc_from_char(b'N'), AMBIG);
        assert_eq!(nuc_from_char(b'X'), AMBIG);
    }

    #[test]
    fn char_roundtrip_for_concrete_nucleotides() {
        for n in Nuc::ALL {
            assert_eq!(nuc_from_char(n.to_char() as u8), n.code());
        }
    }

    #[test]
    fn sentinel_and_ambig_are_not_nucleotides() {
        assert!(!is_nucleotide(SENTINEL));
        assert!(!is_nucleotide(AMBIG));
        for code in NUC_CODES {
            assert!(is_nucleotide(code));
        }
    }

    #[test]
    #[should_panic]
    fn from_code_rejects_sentinel() {
        let _ = Nuc::from_code(SENTINEL);
    }
}
