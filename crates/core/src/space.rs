//! Effective search-space parameterization for e-values.
//!
//! The Karlin–Altschul expectation `E = K·m·n·e^{−λS}` needs a subject-
//! side length `n`, and the right `n` depends on what the caller is
//! searching:
//!
//! * **One bank, SCORIS-N convention** (paper section 3.1): `n` is the
//!   length of the *subject sequence* the alignment was found in, not
//!   the whole of bank 2. This is [`SubjectSpace::PerSequence`], the
//!   default — what the prototype computed and what all single-bank
//!   comparisons report.
//! * **A database**: when the subject is a sharded collection searched
//!   volume by volume, a per-sequence (or per-volume!) `n` would make an
//!   alignment's significance depend on how `makedb` happened to shard
//!   the input. [`SubjectSpace::Database`] fixes `n` to the total
//!   residue count of the **whole collection** — read once from the
//!   database manifest — so every volume computes e-values over the same
//!   database-wide effective search space and a multi-volume search
//!   reports exactly the numbers a single concatenated bank would under
//!   the same convention. (BLAST's `-z`/`dbsize` override is this same
//!   idea.)

/// Subject-side effective search-space policy for e-value computation.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum SubjectSpace {
    /// `n` = the length of the subject sequence the alignment lies in
    /// (the SCORIS-N convention of paper section 3.1).
    #[default]
    PerSequence,
    /// `n` = this fixed residue total for every alignment — the whole
    /// database's size from its manifest, or an explicit `--dbsize`
    /// override. Volume- and shard-invariant by construction.
    Database(u64),
}

impl SubjectSpace {
    /// The subject-side length `n` for an alignment found in a subject
    /// sequence of `sequence_len` residues. Returned as `u64` (callers
    /// feed it into an `f64` search space): a >4 Gbp database total must
    /// not truncate on 32-bit targets.
    #[inline]
    pub fn subject_n(&self, sequence_len: usize) -> u64 {
        match self {
            SubjectSpace::PerSequence => sequence_len as u64,
            SubjectSpace::Database(total) => *total,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_sequence_uses_the_record_length() {
        assert_eq!(SubjectSpace::PerSequence.subject_n(812), 812);
    }

    #[test]
    fn database_ignores_the_record_length() {
        let db = SubjectSpace::Database(5_000_000);
        assert_eq!(db.subject_n(812), 5_000_000);
        assert_eq!(db.subject_n(1), 5_000_000);
    }

    #[test]
    fn default_is_the_paper_convention() {
        assert_eq!(SubjectSpace::default(), SubjectSpace::PerSequence);
    }
}
