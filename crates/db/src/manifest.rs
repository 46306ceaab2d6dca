//! The database manifest: one small text file naming every volume and
//! the database-wide statistics a search needs before touching any
//! volume.
//!
//! The manifest is the database's root of trust: the **total residue
//! count** recorded here is the subject-side effective search space every
//! volume prices e-values against (so significance cannot depend on the
//! sharding), and the per-volume content hashes let an attach refuse a
//! volume whose FASTA no longer matches what `makedb` indexed.
//!
//! Format (plain text, line-oriented, space-separated):
//!
//! ```text
//! ORISDB 1
//! w 11
//! stride 1
//! filter 1
//! total_residues 123456
//! volumes 2
//! volume 0 61728 40 a1b2c3d4e5f60718 vol00000.fa vol00000.oidx
//! volume 1 61728 41 18f7e6d5c4b3a291 vol00001.fa vol00001.oidx
//! checksum 0123456789abcdef
//! ```
//!
//! `volume` rows carry: id, residues, sequences, bank content hash
//! (FNV-1a, hex), FASTA file name, index file name — names are relative
//! to the database directory and may not contain whitespace (they are
//! generated by `makedb`, not user input). The trailing `checksum` line
//! is FNV-1a over every preceding byte, so a truncated or hand-edited
//! manifest is refused rather than silently searched with the wrong
//! total.

use oris_index::persist::fnv1a;

/// Manifest file name inside a database directory.
pub const MANIFEST_FILE: &str = "manifest.orisdb";

/// Format version of the manifest text.
pub const MANIFEST_VERSION: u32 = 1;

/// One volume's row in the manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VolumeMeta {
    /// Volume ordinal (0-based, dense).
    pub id: usize,
    /// Residues (sequence characters, sentinels excluded) in the volume.
    pub residues: u64,
    /// Number of sequences in the volume.
    pub sequences: u64,
    /// FNV-1a hash of the volume bank's packed data — must match both
    /// the re-read FASTA and the index file's recorded `bank_hash`.
    pub bank_hash: u64,
    /// FASTA file name, relative to the database directory.
    pub fasta: String,
    /// Index file name, relative to the database directory.
    pub index: String,
}

/// The parsed, validated manifest of a database directory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// Indexed word length of every volume index (the *effective* word
    /// length — `W`, or `W − 1` for an asymmetric database).
    pub w: usize,
    /// Sampling stride of every volume index (1 = full, 2 = asymmetric).
    pub stride: usize,
    /// `FilterKind` code the volumes were prepared under.
    pub filter_code: u32,
    /// Database-wide residue total — the subject-side effective search
    /// space for e-values, and the sum of the volume rows (validated).
    pub total_residues: u64,
    /// Per-volume rows, ordered by id.
    pub volumes: Vec<VolumeMeta>,
}

impl Manifest {
    /// Renders the manifest text, trailing checksum line included.
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        writeln!(s, "ORISDB {MANIFEST_VERSION}").unwrap();
        writeln!(s, "w {}", self.w).unwrap();
        writeln!(s, "stride {}", self.stride).unwrap();
        writeln!(s, "filter {}", self.filter_code).unwrap();
        writeln!(s, "total_residues {}", self.total_residues).unwrap();
        writeln!(s, "volumes {}", self.volumes.len()).unwrap();
        for v in &self.volumes {
            writeln!(
                s,
                "volume {} {} {} {:016x} {} {}",
                v.id, v.residues, v.sequences, v.bank_hash, v.fasta, v.index
            )
            .unwrap();
        }
        let checksum = fnv1a(s.as_bytes());
        writeln!(s, "checksum {checksum:016x}").unwrap();
        s
    }

    /// Parses and validates manifest text: header fields, dense volume
    /// ids, residue total consistency, and the trailing checksum.
    pub fn parse(text: &str) -> Result<Manifest, String> {
        // Split off and verify the checksum line first, so every other
        // complaint is about content the checksum vouched for.
        let body_end = text
            .rfind("checksum ")
            .ok_or("missing checksum line".to_string())?;
        let checksum_line = text[body_end..].trim_end();
        let stored = u64::from_str_radix(
            checksum_line
                .strip_prefix("checksum ")
                .ok_or("malformed checksum line".to_string())?,
            16,
        )
        .map_err(|e| format!("malformed checksum line: {e}"))?;
        let computed = fnv1a(&text.as_bytes()[..body_end]);
        if stored != computed {
            return Err(format!(
                "manifest checksum mismatch (stored {stored:016x}, computed {computed:016x})"
            ));
        }

        let mut lines = text[..body_end].lines();
        let magic = lines.next().ok_or("empty manifest".to_string())?;
        let version: u32 = magic
            .strip_prefix("ORISDB ")
            .ok_or("not an ORIS database manifest".to_string())?
            .parse()
            .map_err(|e| format!("bad manifest version: {e}"))?;
        if version != MANIFEST_VERSION {
            return Err(format!(
                "unsupported manifest version {version} (expected {MANIFEST_VERSION})"
            ));
        }

        fn field<T: std::str::FromStr>(
            lines: &mut std::str::Lines<'_>,
            key: &str,
        ) -> Result<T, String>
        where
            T::Err: std::fmt::Display,
        {
            let line = lines.next().ok_or(format!("missing `{key}` line"))?;
            line.strip_prefix(key)
                .and_then(|rest| rest.strip_prefix(' '))
                .ok_or(format!("expected `{key} <value>`, got {line:?}"))?
                .parse()
                .map_err(|e| format!("bad `{key}` value: {e}"))
        }

        let w: usize = field(&mut lines, "w")?;
        let stride: usize = field(&mut lines, "stride")?;
        if !(1..=oris_index::MAX_SEED_LEN).contains(&w) {
            return Err(format!(
                "word length {w} outside 1..={}",
                oris_index::MAX_SEED_LEN
            ));
        }
        if stride == 0 {
            return Err("stride must be at least 1".into());
        }
        let filter_code: u32 = field(&mut lines, "filter")?;
        let total_residues: u64 = field(&mut lines, "total_residues")?;
        let num_volumes: usize = field(&mut lines, "volumes")?;

        // Grown from the rows actually present: `num_volumes` is a number
        // the file merely states, and is held against them below.
        let mut volumes = Vec::new();
        for line in lines {
            let mut it = line.split_ascii_whitespace();
            if it.next() != Some("volume") {
                return Err(format!("expected a `volume` row, got {line:?}"));
            }
            let mut next = |what: &str| it.next().ok_or(format!("volume row missing {what}"));
            let id: usize = next("id")?
                .parse()
                .map_err(|e| format!("bad volume id: {e}"))?;
            let residues: u64 = next("residues")?
                .parse()
                .map_err(|e| format!("bad volume residues: {e}"))?;
            let sequences: u64 = next("sequences")?
                .parse()
                .map_err(|e| format!("bad volume sequences: {e}"))?;
            let bank_hash = u64::from_str_radix(next("hash")?, 16)
                .map_err(|e| format!("bad volume hash: {e}"))?;
            let fasta = next("fasta file")?.to_string();
            let index = next("index file")?.to_string();
            if it.next().is_some() {
                return Err(format!("trailing fields in volume row {line:?}"));
            }
            for name in [&fasta, &index] {
                // Bare file names only: the checksum is not a MAC, so a
                // hand-edited row must not be able to point the attach at
                // files outside the database directory.
                if name.contains(['/', '\\']) || name.starts_with('.') || name.is_empty() {
                    return Err(format!(
                        "volume file name {name:?} must be a bare file name \
                         inside the database directory"
                    ));
                }
            }
            if id != volumes.len() {
                return Err(format!(
                    "volume ids must be dense and ordered (row {} has id {id})",
                    volumes.len()
                ));
            }
            volumes.push(VolumeMeta {
                id,
                residues,
                sequences,
                bank_hash,
                fasta,
                index,
            });
        }
        if volumes.len() != num_volumes {
            return Err(format!(
                "manifest declares {num_volumes} volumes but lists {}",
                volumes.len()
            ));
        }
        if volumes.is_empty() {
            return Err("database has no volumes".into());
        }
        let sum = volumes
            .iter()
            .try_fold(0u64, |sum, v: &VolumeMeta| sum.checked_add(v.residues))
            .ok_or("volume residue total overflows".to_string())?;
        if sum != total_residues {
            return Err(format!(
                "total_residues {total_residues} does not match the volume sum {sum}"
            ));
        }
        Ok(Manifest {
            w,
            stride,
            filter_code,
            total_residues,
            volumes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Manifest {
        Manifest {
            w: 11,
            stride: 1,
            filter_code: 1,
            total_residues: 300,
            volumes: vec![
                VolumeMeta {
                    id: 0,
                    residues: 120,
                    sequences: 2,
                    bank_hash: 0xdead_beef,
                    fasta: "vol00000.fa".into(),
                    index: "vol00000.oidx".into(),
                },
                VolumeMeta {
                    id: 1,
                    residues: 180,
                    sequences: 1,
                    bank_hash: 0x0123_4567_89ab_cdef,
                    fasta: "vol00001.fa".into(),
                    index: "vol00001.oidx".into(),
                },
            ],
        }
    }

    #[test]
    fn roundtrip() {
        let m = sample();
        let text = m.to_text();
        assert_eq!(Manifest::parse(&text).unwrap(), m);
    }

    #[test]
    fn checksum_protects_every_byte() {
        let text = sample().to_text();
        // Flip each byte of the body in turn: the parse must fail (either
        // the checksum or, for whitespace-neutral flips, a field check).
        let body = text.rfind("checksum ").unwrap();
        for i in 0..body {
            let mut t = text.clone().into_bytes();
            t[i] ^= 0x01;
            let t = String::from_utf8_lossy(&t).into_owned();
            assert!(Manifest::parse(&t).is_err(), "byte {i} flip accepted");
        }
    }

    #[test]
    fn total_must_match_volume_sum() {
        let mut m = sample();
        m.total_residues += 1;
        let err = Manifest::parse(&m.to_text()).unwrap_err();
        assert!(err.contains("does not match the volume sum"), "{err}");
    }

    #[test]
    fn volume_ids_must_be_dense() {
        let mut m = sample();
        m.volumes[1].id = 5;
        assert!(Manifest::parse(&m.to_text()).is_err());
    }

    #[test]
    fn empty_database_is_refused() {
        let m = Manifest {
            volumes: vec![],
            total_residues: 0,
            ..sample()
        };
        let err = Manifest::parse(&m.to_text()).unwrap_err();
        assert!(err.contains("no volumes"), "{err}");
    }

    #[test]
    fn traversal_file_names_are_refused() {
        // The checksum is recomputable by anyone editing the file, so the
        // parser itself must refuse names that escape the database
        // directory.
        for bad in ["../../etc/passwd", "/etc/hosts", "a/b.fa", "..", ".hidden"] {
            let mut m = sample();
            m.volumes[0].fasta = bad.into();
            let err = Manifest::parse(&m.to_text()).unwrap_err();
            assert!(err.contains("bare file name"), "{bad}: {err}");
        }
    }

    #[test]
    fn truncation_is_refused() {
        let text = sample().to_text();
        for cut in 0..text.len() - 1 {
            assert!(
                Manifest::parse(&text[..cut]).is_err(),
                "prefix of {cut} bytes accepted"
            );
        }
    }
}
