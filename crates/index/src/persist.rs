//! Versioned on-disk format for the CSR bank index.
//!
//! The paper's premise is *intensive* comparison: one bank is indexed once
//! and amortized over a large stream of comparisons. This module makes the
//! amortization cross *processes*, not just calls — `mkindex` and `makedb`
//! write the index of a subject bank to a file, `scoris-n --index` and
//! `--db` (or any embedder via [`crate::map_index_file`] /
//! [`read_index_file`]) attach it and skip step 1 entirely. A loaded index
//! is behaviourally identical to a fresh build: same `occurrences()`
//! slices, same `stats()`, and the same [`BankIndex::is_fully_indexed`]
//! provenance, so step 2's guard auto-selection makes the same choice it
//! would have made in memory.
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
//! lets the mapped attach path (`oris_index::mmap`) reference the
//! offsets and postings sections **zero-copy from the mapped file**
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
//! an unterminated probe chain or out-of-range row id, mapped or not.
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
//! The format has one writer ([`write_index`]) and one reader: `decode`,
//! a walk over the whole file as a byte slice. Every way in runs it —
//! [`read_index`] (any `Read`, read to its end), [`read_index_file`]
//! (`fs::read`) and [`crate::map_index_file`] (the mapped file, which
//! `scoris-n --index` and `--db` both use) — and they differ only in
//! where the big sections end up: zero-copy views of a mapping, or decoded
//! heap copies. Which file is accepted, and the error a rejected one gets,
//! depend on the bytes alone (fuzz-tested over both backings below).
//!
//! The decoder must never panic on hostile input, and must not let a
//! lying header size an allocation. The order of checks is what
//! guarantees both: (1) the fixed header is parsed and every field
//! range-checked; (2) the section layout — a function of the header
//! counts alone — is summed to the exact file size the header implies and
//! compared with the bytes actually present, *before* any section is
//! touched, so a short file is "truncated", a long one has "trailing
//! bytes", and from here on every section offset is in bounds and
//! everything allocated is bounded by the file's own length; (3) the
//! trailing whole-stream checksum is verified; (4) the padding runs must
//! be zero; (5) the arrays go through the same structural validation
//! (`offsets` monotonicity, row ordering, slot-table reconstruction,
//! bit-set agreement) that protects step 2 from a corrupt index. The
//! checksum catches the corruptions structural validation cannot — a
//! flipped provenance flag, a perturbed position that still happens to
//! satisfy every invariant — so no random corruption can silently change
//! step 2's behaviour. Wrong magic, unknown version, reserved flags,
//! truncation, checksum mismatch and trailing bytes are all distinct,
//! typed errors. (A deliberately *crafted* file with a recomputed checksum
//! is outside this threat model; the one crafted lie that could change
//! output — a false `fully_indexed` claim — is re-verified against the
//! bank when the index is attached, see
//! `oris_core::PreparedBank::from_index`.)

use std::fs::File;
use std::io::{self, BufWriter, Read, Write};
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
/// plain hash and the writer's streaming wrapper share.
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

/// The validated fixed header of an index file: everything [`decode`]
/// needs to lay the array sections out before touching one of them.
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
    /// The section layout this header implies: one `(gap, start, end)`
    /// triple of file offsets per array section — the u32 sections in file
    /// order (dense `[offsets, positions]`, sparse `[codes, row_offsets,
    /// slots, positions]`, the slot count derived from `k`, never trusted
    /// from the file), then the bit-set. Each section starts on the next
    /// 8-byte offset after its predecessor ends; `gap..start` is its zero
    /// padding, and the checksum follows the last `end`.
    fn spans(&self) -> Vec<(u64, u64, u64)> {
        let k = self.num_offsets;
        let u32_counts = if self.sparse {
            let slots = sparse_slot_count(k as usize) as u64;
            vec![k, k + 1, slots, self.num_positions]
        } else {
            vec![k, self.num_positions]
        };
        let section_bytes = u32_counts.iter().map(|n| 4 * n);
        let mut at = HEADER_BYTES;
        section_bytes
            .chain([8 * self.num_words])
            .map(|len| {
                let gap = at;
                let start = gap + padding_for(gap);
                at = start + len;
                (gap, start, at)
            })
            .collect()
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
    if bank_len >= crate::MAX_BANK_LEN as u64 {
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

/// The read side of the format: the one decoder every loader runs.
/// `bytes` is the whole file. With `map` (the mapping `bytes`
/// derefs from) the `u32` sections are zero-copy views of it where the
/// target is little-endian and the section is aligned inside the mapping;
/// without it, or where a view is not possible, they are decoded heap
/// copies. The bit-set, an order of magnitude smaller, is always copied.
/// Either way the index is behaviourally identical and a file is accepted
/// or rejected — with the same error — on its bytes alone.
///
/// Never panics on malformed input, and allocates nothing sized by the
/// header until the header's layout has been checked against the bytes
/// actually present.
pub(crate) fn decode(
    bytes: &[u8],
    map: Option<&Arc<Mapping>>,
) -> Result<(BankIndex, IndexMeta), PersistError> {
    debug_assert!(map.is_none_or(|m| std::ptr::eq(&m[..], bytes)));
    let h = read_header(&mut { bytes })?;

    // Exact size first: every offset below is in bounds once it holds,
    // and nothing a lying count could inflate has been allocated yet.
    let spans = h.spans();
    let size = spans.last().expect("the bit-set span").2 + 8;
    if (bytes.len() as u64) < size {
        return Err(PersistError::Corrupt("truncated file".into()));
    }
    if bytes.len() as u64 > size {
        return Err(PersistError::Corrupt(
            "trailing bytes after the index".into(),
        ));
    }
    let spans: Vec<(usize, usize, usize)> = spans
        .into_iter()
        .map(|(gap, start, end)| (gap as usize, start as usize, end as usize))
        .collect();

    // Whole-stream checksum (padding included) before trusting the
    // arrays: a flipped bit that would survive every structural check (a
    // provenance flag, a position that is still sorted and in-bank) is
    // caught here.
    let (body, stored) = bytes.split_at(bytes.len() - 8);
    let stored = u64::from_le_bytes(stored.try_into().expect("8 bytes"));
    let computed = fnv1a(body);
    if stored != computed {
        return Err(PersistError::Corrupt(format!(
            "checksum mismatch (stored {stored:#018x}, computed {computed:#018x})"
        )));
    }
    if spans
        .iter()
        .any(|&(gap, start, _)| bytes[gap..start].iter().any(|&b| b != 0))
    {
        return Err(PersistError::Corrupt("non-zero section padding".into()));
    }

    let u32s = |i: usize| -> Section<u32> {
        let (_, start, end) = spans[i];
        if cfg!(target_endian = "little") {
            if let Some(s) = map.and_then(|m| Section::mapped(m, start, (end - start) / 4)) {
                return s;
            }
        }
        bytes[start..end]
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().expect("4 bytes")))
            .collect::<Vec<u32>>()
            .into()
    };
    let (rows, positions) = if h.sparse {
        (
            RowIndex::Sparse {
                codes: u32s(0),
                row_offsets: u32s(1),
                slots: u32s(2),
            },
            u32s(3),
        )
    } else {
        (RowIndex::Dense { offsets: u32s(0) }, u32s(1))
    };
    let &(_, start, end) = spans.last().expect("the bit-set span");
    let words: Vec<u64> = bytes[start..end]
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

/// Deserializes an index written by [`write_index`] into heap arrays:
/// reads `r` to its end and runs the decoder over the bytes, so every
/// structural invariant and the trailing checksum are validated and bytes
/// after the index are rejected. Never panics on malformed input.
pub fn read_index(r: &mut impl Read) -> Result<(BankIndex, IndexMeta), PersistError> {
    let mut bytes = Vec::new();
    r.read_to_end(&mut bytes)?;
    decode(&bytes, None)
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
/// arrays. (For the zero-copy alternative see
/// [`crate::mmap::map_index_file`] — same decoder, same errors.)
pub fn read_index_file(path: impl AsRef<Path>) -> Result<(BankIndex, IndexMeta), PersistError> {
    decode(&std::fs::read(path).map_err(PersistError::Io)?, None)
}

/// Recomputes the trailing whole-stream checksum after a deliberate
/// corruption, so tests can reach the validation layers behind it.
#[cfg(test)]
pub(crate) fn restamp_checksum(bytes: &mut [u8]) {
    let body = bytes.len() - 8;
    let h = fnv1a(&bytes[..body]);
    bytes[body..].copy_from_slice(&h.to_le_bytes());
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

    /// Decodes `bytes` on both backings — heap via [`read_index`], mapped
    /// via a temp file and [`crate::map_index_file`] — and holds them to
    /// one verdict: the same error message, or an index that the writer
    /// turns back into exactly `bytes` (the format has one encoding per
    /// index, so an accepted file is a canonical one). Returns the mapped
    /// result.
    fn decode_on_both_backings(
        bytes: &[u8],
        tmp: &std::path::Path,
    ) -> Result<(BankIndex, IndexMeta), String> {
        let heap = read_index(&mut &bytes[..]).map_err(|e| e.to_string());
        std::fs::write(tmp, bytes).unwrap();
        let mapped = crate::map_index_file(tmp).map_err(|e| e.to_string());
        match (&heap, &mapped) {
            (Ok((h, hm)), Ok((m, mm))) => {
                assert!(!h.is_mmap_backed());
                assert_eq!(m.is_mmap_backed(), cfg!(unix));
                assert_eq!(to_bytes(h, hm), bytes, "heap");
                assert_eq!(to_bytes(m, mm), bytes, "mapped");
            }
            (Err(h), Err(m)) => assert_eq!(h, m),
            _ => panic!("backings disagree: heap {heap:?}, mapped {mapped:?}"),
        }
        mapped
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// Structure-aware fuzz of the decoder, checksum restamped so the
        /// mutants reach the validation behind it: never a panic, one
        /// verdict from both backings, the size check ahead of every
        /// section, and an accepted file is exactly what the writer
        /// writes for the index it decodes to.
        #[test]
        fn mutated_files_get_one_bounded_verdict(
            seqs in proptest::collection::vec("[ACGTN]{0,60}", 1..4),
            w in 2usize..6,
            stride in 1usize..3,
            sparse_sel in 0usize..2,
            flips in proptest::collection::vec(0u64..=u64::MAX, 1..5),
            counts in proptest::collection::vec(0u64..=u64::MAX, 3),
            counts_hit in 0usize..12,
        ) {
            let refs: Vec<&str> = seqs.iter().map(|s| s.as_str()).collect();
            let bank = bank_of(&refs);
            let backend = [IndexBackend::Dense, IndexBackend::Sparse][sparse_sel];
            let cfg = IndexConfig { stride, ..IndexConfig::full(w) }.with_backend(backend);
            let mut bytes = to_bytes(&BankIndex::build(&bank, cfg), &IndexMeta::default());

            // 1–4 byte flips, one in four aimed at the first 128 bytes
            // (header, first padding run, head of the first section), where
            // every byte is load-bearing; the rest anywhere in the file.
            for v in &flips {
                let reach = if v >> 8 & 3 == 0 { bytes.len().min(128) } else { bytes.len() };
                let at = (v >> 10) as usize % reach;
                bytes[at] ^= (*v as u8).max(1);
            }
            // The three header counts (num_offsets, num_positions,
            // num_bitset_words at 52 / 60 / 68), in 7 cases of 12: an
            // arbitrary u64, or — odd draws — within ±4 of the stored one,
            // which tends to pass the range checks and move the layout.
            for (i, v) in counts.iter().enumerate() {
                if counts_hit < 8 && counts_hit >> i & 1 == 1 {
                    let field = 52 + 8 * i..60 + 8 * i;
                    let stored = u64::from_le_bytes(bytes[field.clone()].try_into().unwrap());
                    let n = if v & 1 == 1 { stored.wrapping_add((v >> 1) % 9).wrapping_sub(4) } else { *v };
                    bytes[field].copy_from_slice(&n.to_le_bytes());
                }
            }
            restamp_checksum(&mut bytes);

            let tmp = std::env::temp_dir()
                .join(format!("oris_persist_fuzz_{}.oidx", std::process::id()));
            let verdict = decode_on_both_backings(&bytes, &tmp);
            // A header whose layout disagrees with the bytes present is
            // refused on size alone: no section has been looked at, so
            // nothing the counts could inflate has been allocated.
            if let Ok(h) = read_header(&mut &bytes[..]) {
                let implied = h.spans().last().unwrap().2 + 8;
                if implied != bytes.len() as u64 {
                    let msg = verdict.as_ref().expect_err("size mismatch accepted");
                    prop_assert!(
                        msg.ends_with("truncated file")
                            || msg.ends_with("trailing bytes after the index"),
                        "size mismatch reported as {msg:?}"
                    );
                }
            }
            if let Ok((idx, _)) = verdict {
                for code in 0..idx.coder().num_seeds() as u32 {
                    prop_assert!(idx
                        .occurrences(code)
                        .iter()
                        .all(|&p| (p as usize) < idx.bank_len()));
                }
                let indexed = (0..idx.bank_len()).filter(|&p| idx.is_indexed(p)).count();
                prop_assert_eq!(indexed, idx.indexed_positions());
            }
            std::fs::remove_file(&tmp).unwrap();
        }
    }
}
