//! Versioned on-disk format for the CSR bank index.
//!
//! The paper's premise is *intensive* comparison: one bank is indexed once
//! and amortized over a large stream of comparisons. This module makes the
//! amortization cross *processes*, not just calls — `mkindex` writes the
//! index of a subject bank to a file, `scoris-n --index` (or any embedder
//! via [`read_index_file`]) loads it back in one sequential read and skips
//! step 1 entirely. A loaded index is behaviourally identical to a fresh
//! build: same `occurrences()` slices, same `stats()`, and the same
//! [`BankIndex::is_fully_indexed`] provenance, so step 2's guard
//! auto-selection makes the same choice it would have made in memory.
//!
//! ## Format (version 2, all integers little-endian)
//!
//! ```text
//! magic             8 B   "ORISIDX\0"
//! version           u32   2
//! w                 u32   seed length
//! stride            u32   sampling stride (1 = full, 2 = asymmetric)
//! flags             u32   bit 0 = fully_indexed; bit 1 = sparse backend;
//!                         other bits reserved (must be 0)
//! bank_len          u64   global coordinate space of the bank
//! masked_fraction   f64   fraction of bank positions the filter masked
//! filter_code       u32   caller-defined filter tag (see [`IndexMeta`])
//! bank_hash         u64   FNV-1a of the bank data (0 = not recorded)
//! num_offsets       u64   dense: must equal 4^w + 1;
//!                         sparse: k = number of populated codes
//! num_positions     u64   number of postings
//! num_bitset_words  u64   must equal bank_len.div_ceil(64)
//! -- then, dense (flags bit 1 clear):
//!    offsets        num_offsets × u32
//!    positions      num_positions × u32
//! -- or, sparse (flags bit 1 set):
//!    codes          k × u32          ascending populated codes
//!    row_offsets    (k + 1) × u32    row boundaries over positions
//!    slots          S × u32          open-addressed code→row table,
//!                                    S = sparse_slot_count(k) (derived, not stored)
//!    positions      num_positions × u32
//! -- finally, either way:
//!    bitset         num_bitset_words × u64
//!    checksum       u64   FNV-1a of every preceding byte of the stream
//! ```
//!
//! Every array section is preceded by zero padding to the next 8-byte
//! file offset.
//!
//! Version 2 differs from version 1 only in the zero padding that starts
//! every array section on an 8-byte file offset. That alignment is what
//! lets the sharded-database attach path (`oris_index::mmap`) reference
//! the offsets and postings sections **zero-copy from the mapped file**
//! — a `&[u32]` view requires its byte offset to be aligned, and an
//! unaligned section would force the copy the mapping exists to avoid.
//! Version-1 files are refused with a typed error (rebuild with
//! `mkindex`); the format carries no compatibility shims.
//!
//! The sparse backend (flags bit 1) reuses version 2: a dense index file
//! is **bit-for-bit identical** to what this module wrote before the
//! sparse backend existed, and older readers reject a sparse file with
//! their reserved-flag-bits check rather than misparsing it. The sparse
//! slot table is stored (so attach needs no rebuild pass over the code
//! list) but *validated* by exact reconstruction from the codes section
//! on every load — a corrupt or crafted table can therefore never cause
//! an unterminated probe chain or out-of-range row id, in either attach
//! mode.
//!
//! `masked_fraction` and `filter_code` describe how the index was
//! *prepared* (the mask itself is not persisted — steps 2–4 never consult
//! it), so a loader can refuse an index built under a different filter and
//! still report faithful masking statistics. `bank_hash` identifies the
//! *sequence data* the index was built over — `oris-core` refuses to
//! attach a loaded index to a bank whose content hash differs, catching
//! the stale-index trap (bank edited after `mkindex`, same length).
//!
//! ## Robustness
//!
//! [`read_index`] must never panic on hostile input: every header field is
//! validated before it sizes an allocation, sections are read through
//! bounded `take` readers (a truncated file errors out instead of
//! over-allocating), and the reassembled arrays go through the same
//! structural validation (`offsets` monotonicity, row ordering, bit-set
//! agreement) that protects step 2 from a corrupt index. The trailing
//! whole-stream checksum catches the corruptions structural validation
//! cannot — a flipped provenance flag, a perturbed position that still
//! happens to satisfy every invariant — so no random corruption can
//! silently change step 2's behaviour. Wrong magic, unknown version,
//! reserved flags, truncation, checksum mismatch and trailing bytes are
//! all distinct, typed errors. (A deliberately *crafted* file with a
//! recomputed checksum is outside this threat model; the one crafted lie
//! that could change output — a false `fully_indexed` claim — is
//! re-verified against the bank when the index is attached, see
//! `oris_core::PreparedBank::from_index`.)
//!
//! The mmap attach path ([`crate::mmap::map_index_file`]) runs the same
//! checksum and structural validation over the mapped bytes, so both
//! loaders reject exactly the same files (equivalence-tested).

use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;
use std::sync::Arc;

use crate::mask::MaskSet;
use crate::mmap::Mapping;
use crate::section::Section;
use crate::seedcode::MAX_SEED_LEN;
use crate::structure::{sparse_slot_count, BankIndex, RowIndex};

/// File magic, first 8 bytes of every index file.
pub const MAGIC: [u8; 8] = *b"ORISIDX\0";

/// Current format version (2: version 1 plus 8-byte section alignment,
/// see the module docs).
pub const FORMAT_VERSION: u32 = 2;

/// Bytes of the fixed header (everything before the first padding run).
const HEADER_BYTES: u64 = 76;

/// Header flag bit 0: the index is fully indexed (exclusion provenance).
const FLAG_FULLY_INDEXED: u32 = 1;

/// Header flag bit 1: the row lookup is the sparse populated-codes
/// backend (codes/row_offsets/slots sections instead of a dense offsets
/// array). Readers predating the sparse backend reject this bit as
/// reserved instead of misparsing the sections.
const FLAG_SPARSE: u32 = 2;

/// File-offset alignment of every array section.
const SECTION_ALIGN: u64 = 8;

/// Preparation provenance stored alongside the index arrays.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct IndexMeta {
    /// Fraction of bank positions the low-complexity filter masked when
    /// the index was built (0.0 when unfiltered).
    pub masked_fraction: f64,
    /// Caller-defined tag for the filter that produced the mask. The
    /// format does not interpret it; `oris-core` stores its `FilterKind`
    /// here so a loader can refuse an index prepared under a different
    /// filter than the run requests.
    pub filter_code: u32,
    /// [`fnv1a`] hash of the bank data the index was built over, or 0
    /// when not recorded. A loader that holds the bank should refuse the
    /// index when the hashes differ — same length is not same content.
    pub bank_hash: u64,
}

/// FNV-1a 64-bit hash — the content fingerprint used for
/// [`IndexMeta::bank_hash`] and the file checksum. Not cryptographic;
/// it detects accidents, not adversaries.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_fold(FNV_OFFSET_BASIS, bytes)
}

const FNV_OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// One FNV-1a folding step over a byte run — the single definition the
/// plain hash and both streaming wrappers share.
fn fnv1a_fold(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Forwards writes while folding every byte into an FNV-1a state and
/// counting bytes, so the trailing checksum covers the exact stream
/// written and padding can be sized from the running file offset.
struct HashingWriter<'w, W: Write> {
    inner: &'w mut W,
    hash: u64,
    written: u64,
}

impl<W: Write> Write for HashingWriter<'_, W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.hash = fnv1a_fold(self.hash, &buf[..n]);
        self.written += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// Forwards reads while folding every byte into an FNV-1a state and
/// counting bytes, so the checksum can be verified (and padding located)
/// without buffering the whole file.
struct HashingReader<'r, R: Read> {
    inner: &'r mut R,
    hash: u64,
    consumed: u64,
}

impl<R: Read> Read for HashingReader<'_, R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.hash = fnv1a_fold(self.hash, &buf[..n]);
        self.consumed += n as u64;
        Ok(n)
    }
}

/// Why an index file could not be loaded.
#[derive(Debug)]
pub enum PersistError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The file does not start with [`MAGIC`].
    BadMagic,
    /// The file's format version is not [`FORMAT_VERSION`].
    UnsupportedVersion(u32),
    /// The file is structurally invalid (truncated, inconsistent counts,
    /// or arrays violating an index invariant).
    Corrupt(String),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "i/o error: {e}"),
            PersistError::BadMagic => write!(f, "not an ORIS index file (bad magic)"),
            PersistError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported index format version {v} (expected {FORMAT_VERSION})"
                )
            }
            PersistError::Corrupt(msg) => write!(f, "corrupt index file: {msg}"),
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        // Preserve the I/O cause so callers (the database layer's retry
        // policy, `verifydb`) can distinguish a device error from
        // structural corruption without parsing display text.
        match self {
            PersistError::Io(e) => Some(e),
            PersistError::BadMagic
            | PersistError::UnsupportedVersion(_)
            | PersistError::Corrupt(_) => None,
        }
    }
}

impl From<io::Error> for PersistError {
    fn from(e: io::Error) -> PersistError {
        // A short read mid-structure means the file is cut off, not that
        // the device failed — classify it as corruption.
        if e.kind() == io::ErrorKind::UnexpectedEof {
            PersistError::Corrupt("truncated file".into())
        } else {
            PersistError::Io(e)
        }
    }
}

/// Zero bytes needed to advance file offset `at` to [`SECTION_ALIGN`].
fn padding_for(at: u64) -> u64 {
    (SECTION_ALIGN - at % SECTION_ALIGN) % SECTION_ALIGN
}

/// Serializes `idx` (with its preparation provenance) to `out`, ending
/// with the whole-stream checksum. Every array section starts on an
/// 8-byte file offset (zero padded) so a mapped file can hand out
/// aligned slices.
pub fn write_index(out: &mut impl Write, idx: &BankIndex, meta: &IndexMeta) -> io::Result<()> {
    let mut out = HashingWriter {
        inner: out,
        hash: FNV_OFFSET_BASIS,
        written: 0,
    };
    out.write_all(&MAGIC)?;
    out.write_all(&FORMAT_VERSION.to_le_bytes())?;
    out.write_all(
        &u32::try_from(idx.w())
            .expect("seed width fits u32")
            .to_le_bytes(),
    )?;
    out.write_all(
        &u32::try_from(idx.stride())
            .expect("stride fits u32")
            .to_le_bytes(),
    )?;
    let rows = idx.rows();
    let flags = u32::from(idx.is_fully_indexed())
        | match rows {
            RowIndex::Dense { .. } => 0,
            RowIndex::Sparse { .. } => FLAG_SPARSE,
        };
    out.write_all(&flags.to_le_bytes())?;
    out.write_all(&(idx.bank_len() as u64).to_le_bytes())?;
    out.write_all(&meta.masked_fraction.to_le_bytes())?;
    out.write_all(&meta.filter_code.to_le_bytes())?;
    out.write_all(&meta.bank_hash.to_le_bytes())?;
    // `num_offsets` counts the first u32 section: the dense offsets array
    // (4^w + 1 slots) or the sparse populated-codes list (k entries).
    let first_section = match rows {
        RowIndex::Dense { offsets } => offsets.len(),
        RowIndex::Sparse { codes, .. } => codes.len(),
    };
    out.write_all(&(first_section as u64).to_le_bytes())?;
    out.write_all(&(idx.positions().len() as u64).to_le_bytes())?;
    let words = idx.indexed_words();
    out.write_all(&(words.len() as u64).to_le_bytes())?;
    debug_assert_eq!(out.written, HEADER_BYTES);
    match rows {
        RowIndex::Dense { offsets } => {
            write_padding(&mut out)?;
            write_u32_section(&mut out, offsets)?;
        }
        RowIndex::Sparse {
            codes,
            row_offsets,
            slots,
        } => {
            write_padding(&mut out)?;
            write_u32_section(&mut out, codes)?;
            write_padding(&mut out)?;
            write_u32_section(&mut out, row_offsets)?;
            write_padding(&mut out)?;
            write_u32_section(&mut out, slots)?;
        }
    }
    write_padding(&mut out)?;
    write_u32_section(&mut out, idx.positions())?;
    write_padding(&mut out)?;
    write_u64_section(&mut out, words)?;
    // The checksum itself is written to the inner stream, outside its own
    // coverage.
    let checksum = out.hash;
    out.inner.write_all(&checksum.to_le_bytes())
}

fn write_padding<W: Write>(out: &mut HashingWriter<'_, W>) -> io::Result<()> {
    let pad = padding_for(out.written) as usize;
    out.write_all(&[0u8; SECTION_ALIGN as usize][..pad])
}

/// Scalars encoded per chunk of section output — one `write_all` per
/// ~64 KiB instead of one per scalar (the offsets section alone is
/// `4^W + 1` entries).
const SECTION_CHUNK: usize = 16 * 1024;

fn write_u32_section(out: &mut impl Write, values: &[u32]) -> io::Result<()> {
    let mut buf = Vec::with_capacity(SECTION_CHUNK.min(values.len()) * 4);
    for chunk in values.chunks(SECTION_CHUNK) {
        buf.clear();
        for &v in chunk {
            buf.extend_from_slice(&v.to_le_bytes());
        }
        out.write_all(&buf)?;
    }
    Ok(())
}

fn write_u64_section(out: &mut impl Write, values: &[u64]) -> io::Result<()> {
    let mut buf = Vec::with_capacity(SECTION_CHUNK.min(values.len()) * 8);
    for chunk in values.chunks(SECTION_CHUNK) {
        buf.clear();
        for &v in chunk {
            buf.extend_from_slice(&v.to_le_bytes());
        }
        out.write_all(&buf)?;
    }
    Ok(())
}

fn read_array<const B: usize>(r: &mut impl Read) -> Result<[u8; B], PersistError> {
    let mut buf = [0u8; B];
    r.read_exact(&mut buf)?;
    Ok(buf)
}

fn read_u32(r: &mut impl Read) -> Result<u32, PersistError> {
    Ok(u32::from_le_bytes(read_array::<4>(r)?))
}

fn read_u64(r: &mut impl Read) -> Result<u64, PersistError> {
    Ok(u64::from_le_bytes(read_array::<8>(r)?))
}

fn read_f64(r: &mut impl Read) -> Result<f64, PersistError> {
    Ok(f64::from_le_bytes(read_array::<8>(r)?))
}

/// Reads exactly `count` little-endian scalars of `S` bytes through a
/// bounded reader: allocation grows with the bytes actually present, so a
/// header lying about a section size cannot force a huge up-front
/// allocation — a short section is reported as truncation.
fn read_section<const S: usize, T>(
    r: &mut impl Read,
    count: usize,
    decode: impl Fn([u8; S]) -> T,
) -> Result<Vec<T>, PersistError> {
    let bytes = (count as u64) * (S as u64);
    let mut raw = Vec::new();
    r.take(bytes)
        .read_to_end(&mut raw)
        .map_err(PersistError::from)?;
    if (raw.len() as u64) < bytes {
        return Err(PersistError::Corrupt("truncated file".into()));
    }
    Ok(raw
        .chunks_exact(S)
        .map(|c| decode(c.try_into().expect("chunk size")))
        .collect())
}

/// The validated fixed header of an index file — the part both loaders
/// (streamed heap copy and mmap) parse identically before touching the
/// array sections.
struct Header {
    w: usize,
    stride: usize,
    fully_indexed: bool,
    sparse: bool,
    bank_len: usize,
    meta: IndexMeta,
    num_offsets: u64,
    num_positions: u64,
    num_words: u64,
}

impl Header {
    /// Element counts of the consecutive u32 sections, in file order:
    /// dense `[offsets, positions]`, sparse
    /// `[codes, row_offsets, slots, positions]` (the slot count is
    /// derived from `k`, never trusted from the file).
    fn u32_counts(&self) -> Vec<u64> {
        if self.sparse {
            let k = self.num_offsets;
            vec![
                k,
                k + 1,
                sparse_slot_count(k as usize) as u64,
                self.num_positions,
            ]
        } else {
            vec![self.num_offsets, self.num_positions]
        }
    }

    /// `(file offset, element count)` of every u32 section, each aligned
    /// to [`SECTION_ALIGN`] with zero padding before it.
    fn u32_sections(&self) -> Vec<(u64, u64)> {
        let mut at = HEADER_BYTES;
        let mut out = Vec::new();
        for count in self.u32_counts() {
            at += padding_for(at);
            out.push((at, count));
            at += 4 * count;
        }
        out
    }

    /// File offset of the bit-set section.
    fn bitset_at(&self) -> u64 {
        let (at, count) = *self.u32_sections().last().expect("at least one section");
        let end = at + 4 * count;
        end + padding_for(end)
    }

    /// Total file size including the trailing checksum.
    fn file_size(&self) -> u64 {
        self.bitset_at() + 8 * self.num_words + 8
    }
}

/// Parses and validates the fixed header: magic, version, and every
/// field-level invariant (sections are not touched here).
fn read_header(r: &mut impl Read) -> Result<Header, PersistError> {
    let magic = read_array::<8>(r)?;
    if magic != MAGIC {
        return Err(PersistError::BadMagic);
    }
    let version = read_u32(r)?;
    if version != FORMAT_VERSION {
        return Err(PersistError::UnsupportedVersion(version));
    }
    let w = read_u32(r)? as usize;
    if !(1..=MAX_SEED_LEN).contains(&w) {
        return Err(PersistError::Corrupt(format!(
            "seed length {w} outside 1..={MAX_SEED_LEN}"
        )));
    }
    let stride = read_u32(r)? as usize;
    if stride == 0 {
        return Err(PersistError::Corrupt("stride must be at least 1".into()));
    }
    let flags = read_u32(r)?;
    if flags & !(FLAG_FULLY_INDEXED | FLAG_SPARSE) != 0 {
        return Err(PersistError::Corrupt(format!(
            "reserved flag bits set ({flags:#x})"
        )));
    }
    let fully_indexed = flags & FLAG_FULLY_INDEXED != 0;
    let sparse = flags & FLAG_SPARSE != 0;
    let bank_len = read_u64(r)?;
    if bank_len >= u32::MAX as u64 {
        return Err(PersistError::Corrupt(format!(
            "bank length {bank_len} exceeds u32 position space"
        )));
    }
    let bank_len = bank_len as usize;
    let masked_fraction = read_f64(r)?;
    if !(0.0..=1.0).contains(&masked_fraction) {
        return Err(PersistError::Corrupt(format!(
            "masked fraction {masked_fraction} outside [0, 1]"
        )));
    }
    let filter_code = read_u32(r)?;
    let bank_hash = read_u64(r)?;

    let num_offsets = read_u64(r)?;
    let num_positions = read_u64(r)?;
    if num_positions > bank_len as u64 {
        return Err(PersistError::Corrupt(format!(
            "{num_positions} postings for a bank of {bank_len} positions"
        )));
    }
    if sparse {
        // `num_offsets` is k, the populated-code count: every listed code
        // owns at least one posting, and codes are distinct. Both bounds
        // are header-level so a lying count can never size a huge
        // allocation (k ≤ postings ≤ bank_len < u32::MAX).
        if num_offsets > num_positions {
            return Err(PersistError::Corrupt(format!(
                "{num_offsets} populated codes for {num_positions} postings"
            )));
        }
        if num_offsets > 1u64 << (2 * w) {
            return Err(PersistError::Corrupt(format!(
                "{num_offsets} populated codes exceed the 4^{w} code space"
            )));
        }
    } else {
        let expected_offsets = (1u64 << (2 * w)) + 1;
        if num_offsets != expected_offsets {
            return Err(PersistError::Corrupt(format!(
                "offsets section has {num_offsets} slots, expected 4^{w} + 1 = {expected_offsets}"
            )));
        }
    }
    let num_words = read_u64(r)?;
    if num_words != bank_len.div_ceil(64) as u64 {
        return Err(PersistError::Corrupt(format!(
            "bit-set section has {num_words} words, expected {}",
            bank_len.div_ceil(64)
        )));
    }
    Ok(Header {
        w,
        stride,
        fully_indexed,
        sparse,
        bank_len,
        meta: IndexMeta {
            masked_fraction,
            filter_code,
            bank_hash,
        },
        num_offsets,
        num_positions,
        num_words,
    })
}

/// Consumes (and requires zero) the padding run before the next section.
fn read_padding<R: Read>(r: &mut HashingReader<'_, R>) -> Result<(), PersistError> {
    let pad = padding_for(r.consumed) as usize;
    let mut buf = [0u8; SECTION_ALIGN as usize];
    r.read_exact(&mut buf[..pad])?;
    if buf[..pad].iter().any(|&b| b != 0) {
        return Err(PersistError::Corrupt("non-zero section padding".into()));
    }
    Ok(())
}

/// Deserializes an index written by [`write_index`], validating every
/// structural invariant and the trailing checksum. Never panics on
/// malformed input.
pub fn read_index(r: &mut impl Read) -> Result<(BankIndex, IndexMeta), PersistError> {
    let mut hashing = HashingReader {
        inner: r,
        hash: FNV_OFFSET_BASIS,
        consumed: 0,
    };
    let r = &mut hashing;
    let h = read_header(r)?;

    let (rows, positions) = if h.sparse {
        let k = h.num_offsets as usize;
        read_padding(r)?;
        let codes = read_section::<4, u32>(r, k, u32::from_le_bytes)?;
        read_padding(r)?;
        let row_offsets = read_section::<4, u32>(r, k + 1, u32::from_le_bytes)?;
        read_padding(r)?;
        let slots = read_section::<4, u32>(r, sparse_slot_count(k), u32::from_le_bytes)?;
        read_padding(r)?;
        let positions = read_section::<4, u32>(r, h.num_positions as usize, u32::from_le_bytes)?;
        (
            RowIndex::Sparse {
                codes: codes.into(),
                row_offsets: row_offsets.into(),
                slots: slots.into(),
            },
            positions,
        )
    } else {
        read_padding(r)?;
        let offsets = read_section::<4, u32>(r, h.num_offsets as usize, u32::from_le_bytes)?;
        read_padding(r)?;
        let positions = read_section::<4, u32>(r, h.num_positions as usize, u32::from_le_bytes)?;
        (
            RowIndex::Dense {
                offsets: offsets.into(),
            },
            positions,
        )
    };
    read_padding(r)?;
    let words = read_section::<8, u64>(r, h.num_words as usize, u64::from_le_bytes)?;
    let indexed = MaskSet::from_raw_words(words, h.bank_len)
        .ok_or_else(|| PersistError::Corrupt("bit-set has bits beyond the bank length".into()))?;

    // Verify the whole-stream checksum before trusting the arrays: a
    // flipped bit that survived every structural check (a provenance
    // flag, a position that is still sorted and in-bank) is caught here.
    let running = hashing.hash;
    let stored = u64::from_le_bytes(read_array::<8>(hashing.inner)?);
    if stored != running {
        return Err(PersistError::Corrupt(format!(
            "checksum mismatch (stored {stored:#018x}, computed {running:#018x})"
        )));
    }

    let index = BankIndex::from_raw_parts(
        h.w,
        h.stride,
        rows,
        positions.into(),
        indexed,
        h.fully_indexed,
        h.bank_len,
    )
    .map_err(PersistError::Corrupt)?;
    Ok((index, h.meta))
}

/// Builds an index from a whole-file [`Mapping`], referencing the offsets
/// and postings sections zero-copy (the bit-set, an order of magnitude
/// smaller, is copied to the heap). Runs the same checksum and
/// structural validation as [`read_index`], so both loaders accept and
/// reject exactly the same files. On a big-endian target, or when a
/// section is misaligned inside the mapping, the affected sections are
/// decoded into heap arrays instead — the result is always behaviourally
/// identical.
pub(crate) fn index_from_mapping(
    map: &Arc<Mapping>,
) -> Result<(BankIndex, IndexMeta), PersistError> {
    let bytes: &[u8] = map;
    let h = read_header(&mut { bytes })?;
    let size = h.file_size();
    if (bytes.len() as u64) < size {
        return Err(PersistError::Corrupt("truncated file".into()));
    }
    if bytes.len() as u64 > size {
        return Err(PersistError::Corrupt(
            "trailing bytes after the index".into(),
        ));
    }
    // Whole-stream checksum over everything but the trailing 8 bytes —
    // identical coverage to the streaming reader (padding included).
    let body = &bytes[..bytes.len() - 8];
    let stored = u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().expect("8 bytes"));
    let computed = fnv1a(body);
    if stored != computed {
        return Err(PersistError::Corrupt(format!(
            "checksum mismatch (stored {stored:#018x}, computed {computed:#018x})"
        )));
    }
    // Padding runs must be zero — identical to the streaming reader's
    // `read_padding` checks. Walk every gap between consecutive sections
    // (and before the bit-set).
    let sections = h.u32_sections();
    let mut prev_end = HEADER_BYTES;
    for &(at, count) in &sections {
        if bytes[prev_end as usize..at as usize]
            .iter()
            .any(|&b| b != 0)
        {
            return Err(PersistError::Corrupt("non-zero section padding".into()));
        }
        prev_end = at + 4 * count;
    }
    if bytes[prev_end as usize..h.bitset_at() as usize]
        .iter()
        .any(|&b| b != 0)
    {
        return Err(PersistError::Corrupt("non-zero section padding".into()));
    }

    let mapped = |i: usize| {
        let (at, count) = sections[i];
        mapped_u32_section(map, at as usize, count as usize)
    };
    let (rows, positions) = if h.sparse {
        (
            RowIndex::Sparse {
                codes: mapped(0),
                row_offsets: mapped(1),
                slots: mapped(2),
            },
            mapped(3),
        )
    } else {
        (RowIndex::Dense { offsets: mapped(0) }, mapped(1))
    };
    let word_bytes = &bytes[h.bitset_at() as usize..(h.bitset_at() + 8 * h.num_words) as usize];
    let words: Vec<u64> = word_bytes
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes")))
        .collect();
    let indexed = MaskSet::from_raw_words(words, h.bank_len)
        .ok_or_else(|| PersistError::Corrupt("bit-set has bits beyond the bank length".into()))?;

    let index = BankIndex::from_raw_parts(
        h.w,
        h.stride,
        rows,
        positions,
        indexed,
        h.fully_indexed,
        h.bank_len,
    )
    .map_err(PersistError::Corrupt)?;
    Ok((index, h.meta))
}

/// A zero-copy `u32` section over the mapping when the byte order and
/// alignment allow it, a decoded heap copy otherwise.
fn mapped_u32_section(map: &Arc<Mapping>, byte_off: usize, len: usize) -> Section<u32> {
    if cfg!(target_endian = "little") {
        if let Some(s) = Section::mapped(map, byte_off, len) {
            return s;
        }
    }
    let bytes = &map[byte_off..byte_off + 4 * len];
    bytes
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes(c.try_into().expect("4 bytes")))
        .collect::<Vec<u32>>()
        .into()
}

/// Writes `idx` to a new file at `path` (buffered).
pub fn write_index_file(
    path: impl AsRef<Path>,
    idx: &BankIndex,
    meta: &IndexMeta,
) -> io::Result<()> {
    let mut out = BufWriter::new(File::create(path)?);
    write_index(&mut out, idx, meta)?;
    out.flush()
}

/// Loads an index file written by [`write_index_file`] into fresh heap
/// arrays. Trailing bytes after the last section are rejected — an index
/// file contains exactly one index. (For the zero-copy alternative see
/// [`crate::mmap::map_index_file`].)
pub fn read_index_file(path: impl AsRef<Path>) -> Result<(BankIndex, IndexMeta), PersistError> {
    let mut r = BufReader::new(File::open(path).map_err(PersistError::Io)?);
    let result = read_index(&mut r)?;
    let mut probe = [0u8; 1];
    match r.read(&mut probe) {
        Ok(0) => Ok(result),
        Ok(_) => Err(PersistError::Corrupt(
            "trailing bytes after the index".into(),
        )),
        Err(e) => Err(PersistError::Io(e)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::structure::{IndexBackend, IndexConfig};
    use oris_seqio::{Bank, BankBuilder};
    use proptest::prelude::*;

    fn bank_of(seqs: &[&str]) -> Bank {
        let mut b = BankBuilder::new();
        for (i, s) in seqs.iter().enumerate() {
            b.push_str(&format!("s{i}"), s).unwrap();
        }
        b.finish()
    }

    fn to_bytes(idx: &BankIndex, meta: &IndexMeta) -> Vec<u8> {
        let mut buf = Vec::new();
        write_index(&mut buf, idx, meta).unwrap();
        buf
    }

    /// Recomputes the trailing whole-stream checksum after a deliberate
    /// corruption, so tests can reach the validation layers behind it.
    fn restamp_checksum(bytes: &mut [u8]) {
        let body = bytes.len() - 8;
        let h = fnv1a(&bytes[..body]);
        bytes[body..].copy_from_slice(&h.to_le_bytes());
    }

    fn assert_same_index(a: &BankIndex, b: &BankIndex) {
        assert_eq!(a.w(), b.w());
        assert_eq!(a.stride(), b.stride());
        assert_eq!(a.backend(), b.backend());
        assert_eq!(a.dense_offsets(), b.dense_offsets());
        assert_eq!(a.positions(), b.positions());
        assert_eq!(a.indexed_words(), b.indexed_words());
        assert_eq!(a.is_fully_indexed(), b.is_fully_indexed());
        assert_eq!(a.bank_len(), b.bank_len());
        assert_eq!(a.stats(), b.stats());
        for code in 0..a.coder().num_seeds() as u32 {
            assert_eq!(a.occurrences(code), b.occurrences(code));
        }
    }

    #[test]
    fn roundtrip_full_build() {
        let bank = bank_of(&["ACGTACGTTTGGCCAAACGTNACGT", "TTGGCCAA"]);
        let idx = BankIndex::build(&bank, IndexConfig::full(4));
        let meta = IndexMeta {
            masked_fraction: 0.0,
            filter_code: 1,
            bank_hash: fnv1a(bank.data()),
        };
        let bytes = to_bytes(&idx, &meta);
        let (loaded, lmeta) = read_index(&mut bytes.as_slice()).unwrap();
        assert_same_index(&idx, &loaded);
        assert_eq!(meta, lmeta);
        assert!(loaded.is_fully_indexed());
    }

    #[test]
    fn sections_are_eight_byte_aligned() {
        // The property the mmap attach rests on: each array section must
        // start on an 8-byte file offset regardless of W or bank size.
        for (w, seqs) in [(3usize, vec!["ACGTACG"]), (4, vec!["ACGTACGTTTGG", "CC"])] {
            let refs: Vec<&str> = seqs.to_vec();
            let bank = bank_of(&refs);
            let idx = BankIndex::build(
                &bank,
                IndexConfig::full(w).with_backend(IndexBackend::Dense),
            );
            let bytes = to_bytes(&idx, &IndexMeta::default());
            let num_offsets = (1u64 << (2 * w)) + 1;
            let offsets_at = 80u64; // header 76 + 4 padding
            let pos_at = {
                let end = offsets_at + 4 * num_offsets;
                end + (8 - end % 8) % 8
            };
            assert_eq!(offsets_at % 8, 0);
            assert_eq!(pos_at % 8, 0);
            // The first offsets slot is 0 (row 0 starts at postings 0).
            assert_eq!(
                &bytes[offsets_at as usize..offsets_at as usize + 4],
                &[0, 0, 0, 0]
            );
        }
    }

    #[test]
    fn roundtrip_masked_and_strided() {
        let bank = bank_of(&[&"ACGTTGCA".repeat(50)]);
        for (idx, frac) in [
            (
                BankIndex::build_filtered(&bank, IndexConfig::full(5), |p| p % 7 == 0),
                0.25,
            ),
            (BankIndex::build(&bank, IndexConfig::asymmetric(5)), 0.0),
        ] {
            let meta = IndexMeta {
                masked_fraction: frac,
                filter_code: 2,
                bank_hash: fnv1a(bank.data()),
            };
            let bytes = to_bytes(&idx, &meta);
            let (loaded, lmeta) = read_index(&mut bytes.as_slice()).unwrap();
            assert_same_index(&idx, &loaded);
            assert_eq!(meta, lmeta);
            assert!(!loaded.is_fully_indexed());
        }
    }

    #[test]
    fn roundtrip_empty_bank() {
        let bank = Bank::empty();
        let idx = BankIndex::build(&bank, IndexConfig::full(3));
        let bytes = to_bytes(&idx, &IndexMeta::default());
        let (loaded, _) = read_index(&mut bytes.as_slice()).unwrap();
        assert_same_index(&idx, &loaded);
    }

    #[test]
    fn every_truncation_errors() {
        let bank = bank_of(&["ACGTACGTACGTTTGG"]);
        let idx = BankIndex::build(&bank, IndexConfig::full(3));
        let bytes = to_bytes(&idx, &IndexMeta::default());
        for cut in 0..bytes.len() {
            let err = read_index(&mut &bytes[..cut]);
            assert!(err.is_err(), "prefix of {cut} bytes must not parse");
        }
    }

    #[test]
    fn wrong_magic_errors() {
        let bank = bank_of(&["ACGTACGT"]);
        let idx = BankIndex::build(&bank, IndexConfig::full(3));
        let mut bytes = to_bytes(&idx, &IndexMeta::default());
        bytes[0] ^= 0xff;
        assert!(matches!(
            read_index(&mut bytes.as_slice()),
            Err(PersistError::BadMagic)
        ));
    }

    #[test]
    fn wrong_version_errors() {
        let bank = bank_of(&["ACGTACGT"]);
        let idx = BankIndex::build(&bank, IndexConfig::full(3));
        let mut bytes = to_bytes(&idx, &IndexMeta::default());
        bytes[8] = 99; // version field
        assert!(matches!(
            read_index(&mut bytes.as_slice()),
            Err(PersistError::UnsupportedVersion(99))
        ));
        // Version-1 files (no section alignment) are refused too — there
        // is no compatibility shim, rebuild with mkindex.
        let mut v1 = to_bytes(&idx, &IndexMeta::default());
        v1[8] = 1;
        assert!(matches!(
            read_index(&mut v1.as_slice()),
            Err(PersistError::UnsupportedVersion(1))
        ));
    }

    #[test]
    fn reserved_flags_error() {
        let bank = bank_of(&["ACGTACGT"]);
        let idx = BankIndex::build(&bank, IndexConfig::full(3));
        let mut bytes = to_bytes(&idx, &IndexMeta::default());
        bytes[20] |= 0x80; // flags field (magic 8 + version 4 + w 4 + stride 4), a reserved bit
        assert!(matches!(
            read_index(&mut bytes.as_slice()),
            Err(PersistError::Corrupt(_))
        ));
    }

    #[test]
    fn corrupt_offsets_error() {
        let bank = bank_of(&["ACGTACGTACGT"]);
        let idx = BankIndex::build(&bank, IndexConfig::full(3));
        let bytes = to_bytes(&idx, &IndexMeta::default());
        // Header is 76 bytes, padded to 80; offsets follow. Overwrite the
        // first offset slot with a huge value AND recompute the trailing
        // checksum, so it is the structural validation (offsets[0] == 0)
        // that must trip, not the checksum.
        let mut corrupt = bytes.clone();
        corrupt[80..84].copy_from_slice(&u32::MAX.to_le_bytes());
        restamp_checksum(&mut corrupt);
        assert!(matches!(
            read_index(&mut corrupt.as_slice()),
            Err(PersistError::Corrupt(_))
        ));
    }

    #[test]
    fn nonzero_padding_errors() {
        let bank = bank_of(&["ACGTACGTACGT"]);
        let idx = BankIndex::build(&bank, IndexConfig::full(3));
        let mut bytes = to_bytes(&idx, &IndexMeta::default());
        // The 4 padding bytes between header (76) and offsets (80) must
        // be zero; a non-zero byte with a restamped checksum is caught by
        // the padding check itself.
        bytes[77] = 0xAB;
        restamp_checksum(&mut bytes);
        assert!(matches!(
            read_index(&mut bytes.as_slice()),
            Err(PersistError::Corrupt(_))
        ));
    }

    #[test]
    fn flipped_provenance_flag_is_caught() {
        // The dangerous single-bit corruption: flipping the fully_indexed
        // flag passes every structural check (the arrays are untouched)
        // but would silently switch step 2 onto the probe-free guard —
        // the whole-stream checksum must catch it.
        let bank = bank_of(&["ACGTACGTACGTTTGG"]);
        let idx = BankIndex::build_filtered(&bank, IndexConfig::full(3), |p| p == 2);
        assert!(!idx.is_fully_indexed());
        let mut bytes = to_bytes(&idx, &IndexMeta::default());
        bytes[20] ^= 1; // flags bit 0
        assert!(matches!(
            read_index(&mut bytes.as_slice()),
            Err(PersistError::Corrupt(_))
        ));
    }

    #[test]
    fn payload_bit_flip_is_caught_by_checksum() {
        // A position perturbed inside the postings can satisfy every
        // structural invariant; the checksum still rejects the file.
        let bank = bank_of(&["ACGTACGTACGTTTGGCCAA"]);
        let idx = BankIndex::build(&bank, IndexConfig::full(4));
        let clean = to_bytes(&idx, &IndexMeta::default());
        let mut tainted = clean.clone();
        let mid = clean.len() - 16; // inside the bitset section
        tainted[mid] ^= 0x10;
        assert!(read_index(&mut tainted.as_slice()).is_err());
    }

    #[test]
    fn file_roundtrip_and_trailing_bytes() {
        let bank = bank_of(&["ACGTACGTTTGGCCAA"]);
        let idx = BankIndex::build(&bank, IndexConfig::full(4));
        let dir = std::env::temp_dir().join("oris_persist_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.oidx");
        write_index_file(&path, &idx, &IndexMeta::default()).unwrap();
        let (loaded, _) = read_index_file(&path).unwrap();
        assert_same_index(&idx, &loaded);

        // The same file with junk appended must be rejected.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.push(0);
        let tainted = dir.join("trailing.oidx");
        std::fs::write(&tainted, &bytes).unwrap();
        assert!(matches!(
            read_index_file(&tainted),
            Err(PersistError::Corrupt(_))
        ));
    }

    fn sparse_idx(bank: &Bank, w: usize) -> BankIndex {
        BankIndex::build(
            bank,
            IndexConfig::full(w).with_backend(IndexBackend::Sparse),
        )
    }

    /// Header field offsets (see the module docs): num_offsets lives at
    /// bytes 52..60 and holds `k` for a sparse file.
    fn stored_k(bytes: &[u8]) -> usize {
        u64::from_le_bytes(bytes[52..60].try_into().unwrap()) as usize
    }

    /// File offsets of the sparse u32 sections
    /// (codes, row_offsets, slots, positions).
    fn sparse_section_offsets(k: usize) -> (usize, usize, usize, usize) {
        let align = |at: usize| at + (8 - at % 8) % 8;
        let codes_at = align(76);
        let row_at = align(codes_at + 4 * k);
        let slots_at = align(row_at + 4 * (k + 1));
        let pos_at = align(slots_at + 4 * sparse_slot_count(k));
        (codes_at, row_at, slots_at, pos_at)
    }

    #[test]
    fn sparse_roundtrip_and_header_shape() {
        let bank = bank_of(&["ACGTACGTTTGGCCAAACGTNACGT", "TTGGCCAA"]);
        let idx = sparse_idx(&bank, 4);
        let meta = IndexMeta {
            masked_fraction: 0.0,
            filter_code: 1,
            bank_hash: fnv1a(bank.data()),
        };
        let bytes = to_bytes(&idx, &meta);
        // flags carries the sparse bit, num_offsets carries k.
        let flags = u32::from_le_bytes(bytes[20..24].try_into().unwrap());
        assert_ne!(flags & 2, 0, "sparse flag must be set");
        assert_eq!(stored_k(&bytes), idx.distinct_codes());
        let (loaded, lmeta) = read_index(&mut bytes.as_slice()).unwrap();
        assert_same_index(&idx, &loaded);
        assert_eq!(loaded.backend(), IndexBackend::Sparse);
        assert_eq!(meta, lmeta);
    }

    #[test]
    fn dense_bytes_are_unchanged_by_the_backend_flag() {
        // A dense file must be bit-for-bit what the pre-sparse format
        // wrote: flags bit 1 clear, num_offsets = 4^w + 1, sections in
        // the original order — old files keep loading, new dense files
        // keep being readable by the old layout's expectations.
        let bank = bank_of(&["ACGTACGTTTGGCCAA"]);
        let idx = BankIndex::build(
            &bank,
            IndexConfig::full(3).with_backend(IndexBackend::Dense),
        );
        let bytes = to_bytes(&idx, &IndexMeta::default());
        let flags = u32::from_le_bytes(bytes[20..24].try_into().unwrap());
        assert_eq!(flags & !1, 0, "dense files use no new flag bits");
        assert_eq!(stored_k(&bytes), (1 << 6) + 1);
    }

    #[test]
    fn sparse_every_truncation_errors() {
        let bank = bank_of(&["ACGTACGTACGTTTGG"]);
        let idx = sparse_idx(&bank, 3);
        let bytes = to_bytes(&idx, &IndexMeta::default());
        for cut in 0..bytes.len() {
            let err = read_index(&mut &bytes[..cut]);
            assert!(err.is_err(), "prefix of {cut} bytes must not parse");
        }
    }

    #[test]
    fn sparse_payload_bit_flip_is_caught_by_checksum() {
        let bank = bank_of(&["ACGTACGTACGTTTGGCCAA"]);
        let idx = sparse_idx(&bank, 4);
        let clean = to_bytes(&idx, &IndexMeta::default());
        // Flip one bit at every offset: the checksum (or a structural /
        // header check) must reject each mutant outright.
        for at in 0..clean.len() - 8 {
            let mut tainted = clean.clone();
            tainted[at] ^= 0x10;
            assert!(
                read_index(&mut tainted.as_slice()).is_err(),
                "bit flip at {at} must not parse"
            );
        }
    }

    #[test]
    fn sparse_slot_table_corruption_is_structural() {
        // Corrupt the slot table and RESTAMP the checksum: the
        // rebuild-and-compare validation must still reject the file —
        // this is what guarantees probe termination on hostile input.
        let bank = bank_of(&["ACGTACGTACGTTTGGCCAA"]);
        let idx = sparse_idx(&bank, 4);
        let bytes = to_bytes(&idx, &IndexMeta::default());
        let k = stored_k(&bytes);
        assert!(k >= 2, "test bank must populate at least two codes");
        let (_, _, slots_at, _) = sparse_section_offsets(k);
        // Point every slot at row 0: lookups would mis-resolve (or loop,
        // were the table not validated).
        let mut tainted = bytes.clone();
        for s in (slots_at..slots_at + 4 * sparse_slot_count(k)).step_by(4) {
            tainted[s..s + 4].copy_from_slice(&0u32.to_le_bytes());
        }
        restamp_checksum(&mut tainted);
        assert!(matches!(
            read_index(&mut tainted.as_slice()),
            Err(PersistError::Corrupt(_))
        ));
        // Descending codes with a restamped checksum are structural too.
        let mut swapped = bytes.clone();
        let (codes_at, ..) = sparse_section_offsets(k);
        let (a, b) = (codes_at, codes_at + 4);
        let first: [u8; 4] = swapped[a..a + 4].try_into().unwrap();
        let second: [u8; 4] = swapped[b..b + 4].try_into().unwrap();
        swapped[a..a + 4].copy_from_slice(&second);
        swapped[b..b + 4].copy_from_slice(&first);
        restamp_checksum(&mut swapped);
        assert!(matches!(
            read_index(&mut swapped.as_slice()),
            Err(PersistError::Corrupt(_))
        ));
    }

    #[test]
    fn sparse_sections_are_eight_byte_aligned() {
        let bank = bank_of(&["ACGTACGTTTGG", "CC"]);
        let idx = sparse_idx(&bank, 4);
        let bytes = to_bytes(&idx, &IndexMeta::default());
        let k = stored_k(&bytes);
        let (codes_at, row_at, slots_at, pos_at) = sparse_section_offsets(k);
        for at in [codes_at, row_at, slots_at, pos_at] {
            assert_eq!(at % 8, 0);
        }
        // row_offsets[0] is 0 (row 0 starts at postings 0).
        assert_eq!(&bytes[row_at..row_at + 4], &[0, 0, 0, 0]);
        // File size agrees with the layout walk.
        let bit_at = {
            let end = pos_at + 4 * idx.indexed_positions();
            end + (8 - end % 8) % 8
        };
        let words = bank.data().len().div_ceil(64);
        assert_eq!(bytes.len(), bit_at + 8 * words + 8);
    }

    proptest! {
        /// Serialize → deserialize round-trips to an identical index for
        /// random banks, seed lengths, strides, masks and backends —
        /// `occurrences()` slices, `stats()` and `is_fully_indexed` all
        /// agree.
        #[test]
        fn roundtrip_preserves_everything(
            seqs in proptest::collection::vec("[ACGTN]{0,60}", 1..4),
            w in 2usize..7,
            stride in 1usize..3,
            mask_mod in 1usize..9,
            sparse_sel in 0usize..2,
        ) {
            let refs: Vec<&str> = seqs.iter().map(|s| s.as_str()).collect();
            let bank = bank_of(&refs);
            let sparse = sparse_sel == 1;
            let backend = if sparse { IndexBackend::Sparse } else { IndexBackend::Dense };
            let cfg = IndexConfig { stride, ..IndexConfig::full(w) }.with_backend(backend);
            // mask_mod == 1 masks nothing (p % 1 == 0 would mask all);
            // use it as the unmasked case.
            let masked = |p: usize| mask_mod > 1 && p.is_multiple_of(mask_mod);
            let idx = BankIndex::build_filtered(&bank, cfg, masked);
            let meta = IndexMeta { masked_fraction: 0.5, filter_code: 3, bank_hash: 7 };

            let bytes = to_bytes(&idx, &meta);
            let (loaded, lmeta) = read_index(&mut bytes.as_slice()).unwrap();
            prop_assert_eq!(loaded.backend(), backend);
            prop_assert_eq!(lmeta, meta);
            prop_assert_eq!(loaded.is_fully_indexed(), idx.is_fully_indexed());
            prop_assert_eq!(loaded.stats(), idx.stats());
            for code in 0..idx.coder().num_seeds() as u32 {
                prop_assert_eq!(loaded.occurrences(code), idx.occurrences(code));
            }
            for p in 0..bank.data().len() {
                prop_assert_eq!(loaded.is_indexed(p), idx.is_indexed(p));
            }
        }
    }
}
