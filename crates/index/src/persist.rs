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
//! ## Format (version 5, all integers little-endian)
//!
//! ```text
//! magic             8 B   "ORISIDX\0"
//! version           u32   5
//! w                 u32   seed length
//! stride            u32   sampling stride (1 = full, 2 = asymmetric)
//! flags             u32   bit 0 = fully_indexed; bit 1 = sparse row map;
//!                         other bits reserved (must be 0)
//! bank_len          u64   global coordinate space of the bank
//! masked_fraction   f64   fraction of bank positions the filter masked
//! filter_code       u32   caller-defined filter tag (see [`IndexMeta`])
//! bank_hash         u64   FNV-1a of the bank data (0 = not recorded)
//! num_keys          u64   dense: presence-bitmap words, must equal ⌈4^w/64⌉;
//!                         sparse: code-list entries, must equal num_rows
//! num_rows          u64   k = number of populated codes
//! num_positions     u64   number of postings
//! num_bitset_words  u64   must equal bank_len.div_ceil(64)
//! num_wide          u64   starts kept by the wide row groups (≤ k)
//! -- then, dense (flags bit 1 clear):
//!    bitmap         num_keys × u64   bit c % 64 of word c / 64 set iff
//!                                    code c is populated
//! -- or, sparse (flags bit 1 set):
//!    codes          k × u32          ascending populated codes
//! -- then, either way, the row bounds (one start per row; row r ends
//!    where row r + 1 starts, the last at num_positions):
//!    row_rel        k × u16          start of row r less its group's anchor
//!    row_anchors    ⌈k/64⌉ × u32     per group of 64 rows: its first
//!                                    row's start, or bit 31 set and where
//!                                    its starts begin in row_wide
//!    row_wide       num_wide × u32   the starts of the groups whose rows
//!                                    span 2^16 postings or more
//!    positions      num_positions × u32
//!    bitset         num_bitset_words × u64
//!    checksum       u64   checksum() of every preceding byte of the stream
//! ```
//!
//! Every array section is preceded by zero padding to the next 8-byte
//! file offset. That alignment is what lets the mapped attach path
//! (`oris_index::mmap`) reference the big sections **zero-copy from the
//! mapped file** — a `&[u32]` view requires its byte offset to be
//! aligned, and an unaligned section would force the copy the mapping
//! exists to avoid.
//!
//! **The checksum** is [`checksum`]: four independent lanes of the step
//! `h = rotl((h ^ w)·K, 31)` (`K` odd) over the little-endian `u64` words
//! of each 32-byte block, then the lanes, the words of the last partial
//! block (zero-padded) and the byte length folded by the same step. The
//! step is a bijection of the word for a fixed state and of the state for
//! a fixed word, so a change confined to one aligned 8-byte word — every
//! single-byte flip — is detected with certainty, not with high
//! probability; the function's docs carry the argument. The lanes keep
//! four multiplies in flight, so the check runs at memory speed.
//!
//! **A file is its row map's keys and row bounds.** A dense file
//! stores the presence bitmap; the rank of each of its words is derived
//! at load in one pass over the words (`4^W/16` heap bytes, 256 KB at
//! W = 11) and never written. A sparse lookup searches the `codes`
//! section itself (a binary search, or step 2's forward cursor), so
//! nothing is derived from it at load. The three row-bound sections are
//! read as stored: row `r` starts at `row_anchors[r / 64] +
//! row_rel[r]`, or, where that anchor has bit 31 set, at `row_wide[a +
//! r % 64]` with `a` its other bits. Every section is checksummed and
//! mapped like the postings.
//!
//! Version 5 differs from version 4 in the row boundaries: v4 stored
//! `k + 1` `u32` boundaries, where v5 stores `k` two-byte starts over one
//! anchor per 64 rows (the `row_rel`, `row_anchors` and `row_wide`
//! sections, and the header's `num_wide`), about `2·k` bytes less. v4 in
//! turn replaced v3's dense `offsets[4^w + 1]` array (16.8 MB at W = 11)
//! with the bitmap, and v3 replaced v2's FNV-1a checksum and stored slot
//! table. Earlier versions are refused with
//! [`PersistError::UnsupportedVersion`], whose message says to rebuild
//! with `makedb` / `mkindex`: the format carries one decoder and no
//! compatibility shims.
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
//! (no bitmap bit past `4^w`, a bitmap popcount equal to the row count,
//! strictly ascending codes, row bounds strictly increasing inside their
//! groups' spans with every wide group inside its side array and the
//! last row ending at the postings' end, row ordering, bit-set
//! agreement) that protects step 2 from a corrupt
//! index. The checksum catches the corruptions structural
//! validation cannot — a flipped provenance flag, a perturbed position
//! that still happens to satisfy every invariant — so no random
//! corruption can silently change step 2's behaviour. Wrong magic,
//! unknown version, reserved flags, truncation, checksum mismatch and
//! trailing bytes are all distinct, typed errors. (A deliberately *crafted* file with a recomputed checksum
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
use crate::structure::{bitmap_words, BankIndex, BitmapRows, RowBounds, RowIndex, SparseRows};

/// File magic, first 8 bytes of every index file.
pub const MAGIC: [u8; 8] = *b"ORISIDX\0";

/// Current format version (5: the row boundaries are two-byte starts over
/// 64-row anchors, where version 4 stored `k + 1` `u32`s; see the module
/// docs).
pub const FORMAT_VERSION: u32 = 5;

/// Bytes of the fixed header (everything before the first padding run).
const HEADER_BYTES: u64 = 92;

/// Header flag bit 0: the index is fully indexed (exclusion provenance).
const FLAG_FULLY_INDEXED: u32 = 1;

/// Header flag bit 1: the row map is the sparse code list (a `codes`
/// section instead of the dense presence bitmap).
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
/// [`IndexMeta::bank_hash`] (and the database manifest's checksum). Not
/// cryptographic; it detects accidents, not adversaries. The index file's
/// own trailing checksum is the word-wide [`checksum`].
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Independent lanes of [`checksum`]: one 8-byte word each per block.
const LANES: usize = 4;

/// Bytes [`checksum`] folds per round, one word per lane.
const BLOCK: usize = 8 * LANES;

/// The odd multiplier of the checksum step (2^64/φ, rounded to odd).
const MIX_K: u64 = 0x9E37_79B9_7F4A_7C15;

/// Starting state of each checksum lane (hex digits of π), distinct so
/// that equal words in different lanes fold to different states.
const LANE_SEEDS: [u64; LANES] = [
    0x243F_6A88_85A3_08D3,
    0x1319_8A2E_0370_7344,
    0xA409_3822_299F_31D0,
    0x082E_FA98_EC4E_6C89,
];

/// The checksum step: `rotl((h ^ w)·K, 31)`. A bijection of `w` for a
/// fixed `h` and of `h` for a fixed `w` — XOR with a constant, a multiply
/// by an odd constant (invertible mod 2^64) and a rotation are each one.
#[inline(always)]
fn mix(h: u64, w: u64) -> u64 {
    (h ^ w).wrapping_mul(MIX_K).rotate_left(31)
}

/// Word-wide stream checksum — the trailing checksum of an index file.
///
/// The input is read as little-endian `u64` words. Whole 32-byte blocks
/// feed four independent lanes, word `j` of a block into lane `j`, each
/// lane stepping `h = rotl((h ^ w)·K, 31)` with `K` odd; the four chains
/// do not wait on each other, so the fold runs at memory speed where
/// byte-serial FNV-1a waits one multiply per byte. The result folds, by
/// the same step, into one state: the four lanes, then the words of the
/// 0–31 bytes past the last whole block (the last one zero-padded), then
/// the byte length.
///
/// **Certainty.** Each step is a bijection of its word for a fixed state
/// and of its state for a fixed word. Take two inputs of equal length
/// that differ only inside one aligned 8-byte word. That word enters
/// exactly one step, a lane step or a tail step, and the state entering
/// it is the same for both inputs; the step is injective in the word, so
/// the states leaving it differ. Every later step takes the same word for
/// both inputs and is injective in the state, so they still differ at
/// the end of the lane, after the lane is folded in, and in the output.
/// So every change confined to one aligned word — every single-byte flip
/// among them — changes the checksum with certainty, not with high
/// probability. Changes across two or more words are caught with the
/// usual 2^-64 odds, and the decoder checks a file's exact length before
/// it computes the checksum. Like [`fnv1a`], it detects accidents, not
/// adversaries.
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut sum = StreamChecksum::new();
    sum.update(bytes);
    sum.finish()
}

/// [`checksum`] over a stream that arrives in pieces: the state carries
/// at most one unfinished block (31 bytes) between [`StreamChecksum::update`]
/// calls, so any chunking gives the one-shot value.
struct StreamChecksum {
    lanes: [u64; LANES],
    /// The unfinished block's bytes, `pending[..pending_len]`.
    pending: [u8; BLOCK],
    pending_len: usize,
    /// Bytes seen so far.
    len: u64,
}

impl StreamChecksum {
    fn new() -> StreamChecksum {
        StreamChecksum {
            lanes: LANE_SEEDS,
            pending: [0; BLOCK],
            pending_len: 0,
            len: 0,
        }
    }

    fn update(&mut self, mut bytes: &[u8]) {
        self.len += bytes.len() as u64;
        if self.pending_len > 0 {
            let take = (BLOCK - self.pending_len).min(bytes.len());
            self.pending[self.pending_len..self.pending_len + take].copy_from_slice(&bytes[..take]);
            self.pending_len += take;
            bytes = &bytes[take..];
            if self.pending_len < BLOCK {
                return;
            }
            let block = self.pending;
            self.fold_blocks(&block);
            self.pending_len = 0;
        }
        let whole = bytes.len() - bytes.len() % BLOCK;
        self.fold_blocks(&bytes[..whole]);
        let rest = &bytes[whole..];
        self.pending[..rest.len()].copy_from_slice(rest);
        self.pending_len = rest.len();
    }

    /// Folds whole blocks into the lanes (`bytes.len()` a multiple of
    /// [`BLOCK`]).
    fn fold_blocks(&mut self, bytes: &[u8]) {
        let mut lanes = self.lanes;
        for block in bytes.chunks_exact(BLOCK) {
            for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
                *lane = mix(*lane, u64::from_le_bytes(word.try_into().expect("8 bytes")));
            }
        }
        self.lanes = lanes;
    }

    fn finish(&self) -> u64 {
        let mut h = self.lanes.iter().fold(0, |h, &lane| mix(h, lane));
        for word in self.pending[..self.pending_len].chunks(8) {
            let mut padded = [0u8; 8];
            padded[..word.len()].copy_from_slice(word);
            h = mix(h, u64::from_le_bytes(padded));
        }
        mix(h, self.len)
    }
}

/// Forwards writes while folding every byte into a [`StreamChecksum`],
/// so the trailing checksum covers the exact stream written and padding
/// can be sized from the running file offset.
struct HashingWriter<'w, W: Write> {
    inner: &'w mut W,
    sum: StreamChecksum,
}

impl<W: Write> HashingWriter<'_, W> {
    /// Bytes written so far: the running file offset.
    fn written(&self) -> u64 {
        self.sum.len
    }
}

impl<W: Write> Write for HashingWriter<'_, W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.sum.update(&buf[..n]);
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
            PersistError::UnsupportedVersion(v) => write!(
                f,
                "unsupported index format version {v} (expected {FORMAT_VERSION}): \
                 rebuild with makedb / mkindex"
            ),
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
        sum: StreamChecksum::new(),
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
            RowIndex::Dense(_) => 0,
            RowIndex::Sparse(_) => FLAG_SPARSE,
        };
    out.write_all(&flags.to_le_bytes())?;
    out.write_all(&(idx.bank_len() as u64).to_le_bytes())?;
    out.write_all(&meta.masked_fraction.to_le_bytes())?;
    out.write_all(&meta.filter_code.to_le_bytes())?;
    out.write_all(&meta.bank_hash.to_le_bytes())?;
    // `num_keys` counts the key section: the dense bitmap's words or the
    // sparse code list's entries.
    let keys = match rows {
        RowIndex::Dense(bitmap) => bitmap.bits().len(),
        RowIndex::Sparse(sparse) => sparse.codes().len(),
    };
    out.write_all(&(keys as u64).to_le_bytes())?;
    out.write_all(&(idx.distinct_codes() as u64).to_le_bytes())?;
    out.write_all(&(idx.positions().len() as u64).to_le_bytes())?;
    let words = idx.indexed_words();
    out.write_all(&(words.len() as u64).to_le_bytes())?;
    let (rel, anchors, wide) = rows.bounds().sections();
    out.write_all(&(wide.len() as u64).to_le_bytes())?;
    debug_assert_eq!(out.written(), HEADER_BYTES);
    match rows {
        RowIndex::Dense(bitmap) => write_section(&mut out, bitmap.bits(), u64::to_le_bytes)?,
        RowIndex::Sparse(sparse) => write_section(&mut out, sparse.codes(), u32::to_le_bytes)?,
    }
    write_section(&mut out, rel, u16::to_le_bytes)?;
    write_section(&mut out, anchors, u32::to_le_bytes)?;
    write_section(&mut out, wide, u32::to_le_bytes)?;
    write_section(&mut out, idx.positions(), u32::to_le_bytes)?;
    write_section(&mut out, words, u64::to_le_bytes)?;
    // The checksum itself is written to the inner stream, outside its own
    // coverage.
    let checksum = out.sum.finish();
    out.inner.write_all(&checksum.to_le_bytes())
}

/// Scalars encoded per chunk of section output — one `write_all` per
/// ~32–128 KiB instead of one per scalar (the postings of a Mnt bank are
/// millions of entries).
const SECTION_CHUNK: usize = 16 * 1024;

/// Writes one array section: zero padding to the next 8-byte file
/// offset, then `values` as `le` encodes them.
fn write_section<W: Write, T: Copy, const B: usize>(
    out: &mut HashingWriter<'_, W>,
    values: &[T],
    le: fn(T) -> [u8; B],
) -> io::Result<()> {
    let pad = padding_for(out.written()) as usize;
    out.write_all(&[0u8; SECTION_ALIGN as usize][..pad])?;
    let mut buf = Vec::with_capacity(SECTION_CHUNK.min(values.len()) * B);
    for chunk in values.chunks(SECTION_CHUNK) {
        buf.clear();
        for &v in chunk {
            buf.extend_from_slice(&le(v));
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
    num_keys: u64,
    num_rows: u64,
    num_positions: u64,
    num_words: u64,
    num_wide: u64,
}

impl Header {
    /// The section layout this header implies: one `(gap, start, end)`
    /// triple of file offsets per array section, in file order — keys
    /// (dense bitmap words or sparse codes), the three row-bound sections
    /// (`rel`, anchors, wide starts), positions, bit-set. Each section
    /// starts on the next 8-byte offset after its predecessor ends;
    /// `gap..start` is its zero padding, and the checksum follows the
    /// last `end`.
    fn spans(&self) -> [(u64, u64, u64); 6] {
        let key_bytes = if self.sparse { 4 } else { 8 } * self.num_keys;
        let mut at = HEADER_BYTES;
        [
            key_bytes,
            2 * self.num_rows,
            4 * self.num_rows.div_ceil(64),
            4 * self.num_wide,
            4 * self.num_positions,
            8 * self.num_words,
        ]
        .map(|len| {
            let gap = at;
            let start = gap + padding_for(gap);
            at = start + len;
            (gap, start, at)
        })
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

    let num_keys = read_u64(r)?;
    let num_rows = read_u64(r)?;
    let num_positions = read_u64(r)?;
    if num_positions > bank_len as u64 {
        return Err(PersistError::Corrupt(format!(
            "{num_positions} postings for a bank of {bank_len} positions"
        )));
    }
    // k, the populated-code count: every populated code owns at least one
    // posting, and codes are distinct. Both bounds are header-level so a
    // lying count can never size a huge allocation (k ≤ postings ≤
    // bank_len < u32::MAX).
    if num_rows > num_positions {
        return Err(PersistError::Corrupt(format!(
            "{num_rows} populated codes for {num_positions} postings"
        )));
    }
    if num_rows > 1u64 << (2 * w) {
        return Err(PersistError::Corrupt(format!(
            "{num_rows} populated codes exceed the 4^{w} code space"
        )));
    }
    if sparse {
        if num_keys != num_rows {
            return Err(PersistError::Corrupt(format!(
                "code list has {num_keys} entries for {num_rows} populated codes"
            )));
        }
    } else {
        let words = bitmap_words(1 << (2 * w)) as u64;
        if num_keys != words {
            return Err(PersistError::Corrupt(format!(
                "presence bitmap has {num_keys} words, expected ⌈4^{w}/64⌉ = {words}"
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
    let num_wide = read_u64(r)?;
    if num_wide > num_rows {
        return Err(PersistError::Corrupt(format!(
            "{num_wide} wide row starts for {num_rows} rows"
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
        num_keys,
        num_rows,
        num_positions,
        num_words,
        num_wide,
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
    let size = spans[5].2 + 8;
    if (bytes.len() as u64) < size {
        return Err(PersistError::Corrupt("truncated file".into()));
    }
    if bytes.len() as u64 > size {
        return Err(PersistError::Corrupt(
            "trailing bytes after the index".into(),
        ));
    }
    let spans = spans.map(|(gap, start, end)| (gap as usize, start as usize, end as usize));

    // Whole-stream checksum (padding included) before trusting the
    // arrays: a flipped bit that would survive every structural check (a
    // provenance flag, a position that is still sorted and in-bank) is
    // caught here.
    let (body, stored) = bytes.split_at(bytes.len() - 8);
    let stored = u64::from_le_bytes(stored.try_into().expect("8 bytes"));
    let computed = checksum(body);
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

    /// Section `span` as a view of the mapping, where the target is
    /// little-endian and the section aligned in it.
    fn view<T>(
        map: Option<&Arc<Mapping>>,
        (_, start, end): (usize, usize, usize),
    ) -> Option<Section<T>> {
        let len = (end - start) / std::mem::size_of::<T>();
        map.filter(|_| cfg!(target_endian = "little"))
            .and_then(|m| Section::mapped(m, start, len))
    }
    /// Section `span` as a view of the mapping where one is possible,
    /// else decoded from `bytes` by `le`.
    fn section<T, const B: usize>(
        bytes: &[u8],
        map: Option<&Arc<Mapping>>,
        span: (usize, usize, usize),
        le: fn([u8; B]) -> T,
    ) -> Section<T> {
        view(map, span).unwrap_or_else(|| {
            let (_, start, end) = span;
            bytes[start..end]
                .chunks_exact(B)
                .map(|c| le(c.try_into().expect("B bytes")))
                .collect::<Vec<T>>()
                .into()
        })
    }
    let bounds = RowBounds::from_raw_parts(
        section(bytes, map, spans[1], u16::from_le_bytes),
        section(bytes, map, spans[2], u32::from_le_bytes),
        section(bytes, map, spans[3], u32::from_le_bytes),
        h.num_positions as usize,
    )
    .map_err(PersistError::Corrupt)?;
    let rows = if h.sparse {
        let codes = section(bytes, map, spans[0], u32::from_le_bytes);
        RowIndex::Sparse(SparseRows::new(codes, bounds))
    } else {
        let bits = section(bytes, map, spans[0], u64::from_le_bytes);
        RowIndex::Dense(BitmapRows::new(bits, bounds))
    };
    let positions = section(bytes, map, spans[4], u32::from_le_bytes);
    let (_, start, end) = spans[5];
    let words = bytes[start..end]
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

/// Recomputes the trailing [`checksum`] of an index file's bytes after a
/// deliberate edit, so a test can reach the validation behind the
/// checksum (which is not a MAC: whoever edits a file can restamp it).
///
/// # Panics
/// Panics if `bytes` is shorter than the 8-byte checksum.
pub fn restamp_checksum(bytes: &mut [u8]) {
    let body = bytes.len() - 8;
    let h = checksum(&bytes[..body]);
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
        assert_eq!(a.rows().bounds().sections(), b.rows().bounds().sections());
        assert!(a.populated().eq(b.populated()));
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

    /// File offsets where each array section of `bytes` starts — keys,
    /// row `rel`s, row anchors, wide starts, positions, bit-set — from
    /// its header.
    fn section_offsets(bytes: &[u8]) -> [usize; 6] {
        let h = read_header(&mut &bytes[..]).unwrap();
        h.spans().map(|(_, start, _)| start as usize)
    }

    #[test]
    fn sections_are_eight_byte_aligned() {
        // The property the mmap attach rests on: each array section must
        // start on an 8-byte file offset regardless of W or bank size.
        for (w, seqs) in [
            (1usize, vec!["ACGTACG"]),
            (3, vec!["ACGTACG"]),
            (4, vec!["ACGTACGTTTGG", "CC"]),
        ] {
            let refs: Vec<&str> = seqs.to_vec();
            let bank = bank_of(&refs);
            let idx = BankIndex::build(
                &bank,
                IndexConfig::full(w).with_backend(IndexBackend::Dense),
            );
            let bytes = to_bytes(&idx, &IndexMeta::default());
            let at = section_offsets(&bytes);
            assert_eq!(at[0], 96); // header 92 + 4 padding
            assert!(at.iter().all(|a| a % 8 == 0));
            // The bitmap's first word, the first row's rel (0) and anchor
            // (row 0 starts at posting 0).
            let RowIndex::Dense(bitmap) = idx.rows() else {
                panic!("dense build")
            };
            assert_eq!(bytes[at[0]..at[0] + 8], bitmap.bits()[0].to_le_bytes());
            assert_eq!(&bytes[at[1]..at[1] + 2], &[0, 0]);
            assert_eq!(&bytes[at[2]..at[2] + 4], &[0, 0, 0, 0]);
            assert_eq!(at[4] - at[3], 0, "no wide starts");
            let words = bank.data().len().div_ceil(64);
            assert_eq!(bytes.len(), at[5] + 8 * words + 8);
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
        // Version-1 (no section alignment), version-2 (FNV-1a, stored
        // slot table), version-3 (dense `4^w + 1` offsets) and version-4
        // (`k + 1` u32 row boundaries) files are refused too, with the
        // rebuild hint: there is no compatibility shim.
        for old in [1u8, 2, 3, 4] {
            let mut bytes = to_bytes(&idx, &IndexMeta::default());
            bytes[8] = old;
            match read_index(&mut bytes.as_slice()) {
                Err(e @ PersistError::UnsupportedVersion(v)) if v == u32::from(old) => {
                    assert!(
                        e.to_string().contains("rebuild with makedb / mkindex"),
                        "{e}"
                    );
                }
                other => panic!("version {old} accepted as {other:?}"),
            }
        }
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
        // Overwrite the first row's rel with a huge value AND recompute
        // the trailing checksum, so it is the structural validation (a
        // group's first row starts at its anchor) that must trip, not the
        // checksum.
        let rel_at = section_offsets(&bytes)[1];
        let mut corrupt = bytes.clone();
        corrupt[rel_at..rel_at + 2].copy_from_slice(&u16::MAX.to_le_bytes());
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
        // The 4 padding bytes between header (92) and bitmap (96) must be
        // zero; a non-zero byte with a restamped checksum is caught by the
        // padding check itself.
        bytes[93] = 0xAB;
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

    /// Header field offsets (see the module docs): num_keys lives at
    /// bytes 52..60, num_rows (`k`) at 60..68.
    fn stored_keys(bytes: &[u8]) -> usize {
        u64::from_le_bytes(bytes[52..60].try_into().unwrap()) as usize
    }

    fn stored_k(bytes: &[u8]) -> usize {
        u64::from_le_bytes(bytes[60..68].try_into().unwrap()) as usize
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
        // flags carries the sparse bit, num_keys and num_rows carry k.
        let flags = u32::from_le_bytes(bytes[20..24].try_into().unwrap());
        assert_ne!(flags & 2, 0, "sparse flag must be set");
        assert_eq!(stored_k(&bytes), idx.distinct_codes());
        assert_eq!(stored_keys(&bytes), idx.distinct_codes());
        let (loaded, lmeta) = read_index(&mut bytes.as_slice()).unwrap();
        assert_same_index(&idx, &loaded);
        assert_eq!(loaded.backend(), IndexBackend::Sparse);
        assert_eq!(meta, lmeta);
    }

    #[test]
    fn dense_bytes_are_unchanged_by_the_backend_flag() {
        // A dense file leaves flags bit 1 clear; num_keys counts its
        // bitmap words, ⌈4^w/64⌉, and num_rows its populated codes.
        let bank = bank_of(&["ACGTACGTTTGGCCAA"]);
        for (w, words) in [(2, 1), (3, 1), (5, 16)] {
            let idx = BankIndex::build(
                &bank,
                IndexConfig::full(w).with_backend(IndexBackend::Dense),
            );
            let bytes = to_bytes(&idx, &IndexMeta::default());
            let flags = u32::from_le_bytes(bytes[20..24].try_into().unwrap());
            assert_eq!(flags & !1, 0, "dense files set no row-map flag");
            assert_eq!(stored_keys(&bytes), words);
            assert_eq!(stored_k(&bytes), idx.distinct_codes());
        }
    }

    #[test]
    fn dense_bitmap_corruption_is_structural() {
        // The bitmap decides which codes have rows, so the checks on it
        // stand between hostile bytes and the rank lookups: edit it and
        // RESTAMP the checksum, and each lie gets its own error.
        let bank = bank_of(&["ACGTACGTTTGGCCAA"]);
        let rejected = |tainted: &mut Vec<u8>, want: &str| {
            restamp_checksum(tainted);
            match read_index(&mut tainted.as_slice()) {
                Err(PersistError::Corrupt(msg)) => assert!(msg.contains(want), "{msg}"),
                other => panic!("accepted a corrupt {want}: {other:?}"),
            }
        };
        for w in [2usize, 3] {
            let idx = BankIndex::build(
                &bank,
                IndexConfig::full(w).with_backend(IndexBackend::Dense),
            );
            let bytes = to_bytes(&idx, &IndexMeta::default());
            let bits_at = section_offsets(&bytes)[0];
            let word = |b: &[u8]| u64::from_le_bytes(b[bits_at..bits_at + 8].try_into().unwrap());
            let set =
                |b: &mut Vec<u8>, v: u64| b[bits_at..bits_at + 8].copy_from_slice(&v.to_le_bytes());
            // A popcount that differs from the row count: one code fewer.
            let mut fewer = bytes.clone();
            let first = word(&bytes);
            set(&mut fewer, first & (first - 1));
            rejected(&mut fewer, "presence bitmap holds");
            // One code more, inside the code space.
            let mut more = bytes.clone();
            let absent = (!first).trailing_zeros();
            if absent < 1 << (2 * w) {
                set(&mut more, first | 1 << absent);
                rejected(&mut more, "presence bitmap holds");
            }
            // A bit past 4^w (W = 2: sixteen codes in a 64-bit word).
            if w == 2 {
                let mut past = bytes.clone();
                set(&mut past, first | 1 << 40);
                rejected(&mut past, "past the 4^2 code space");
            }
            // A wrong word count in the header.
            let mut count = bytes.clone();
            count[52..60].copy_from_slice(&2u64.to_le_bytes());
            rejected(&mut count, "presence bitmap has 2 words");
        }
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

    /// Swaps the little-endian u16 words at byte offsets `a` and `b`.
    fn swap_words(bytes: &mut [u8], a: usize, b: usize) {
        let first: [u8; 2] = bytes[a..a + 2].try_into().unwrap();
        let second: [u8; 2] = bytes[b..b + 2].try_into().unwrap();
        bytes[a..a + 2].copy_from_slice(&second);
        bytes[b..b + 2].copy_from_slice(&first);
    }

    #[test]
    fn sparse_code_list_corruption_is_structural() {
        // Lookups search the code list itself, so the checks on the lists
        // are what stand between hostile bytes and the lookups: edit a list and RESTAMP the checksum, and the
        // structural validation must still reject the file.
        let bank = bank_of(&["ACGTACGTACGTTTGGCCAA"]);
        let idx = sparse_idx(&bank, 4);
        let bytes = to_bytes(&idx, &IndexMeta::default());
        let k = stored_k(&bytes);
        assert!(k >= 3, "test bank must populate at least three codes");
        let [codes_at, rel_at, ..] = section_offsets(&bytes);
        let rejected = |tainted: &mut Vec<u8>, want: &str| {
            restamp_checksum(tainted);
            match read_index(&mut tainted.as_slice()) {
                Err(PersistError::Corrupt(msg)) => assert!(msg.contains(want), "{msg}"),
                other => panic!("accepted a corrupt {want}: {other:?}"),
            }
        };
        // Descending codes.
        let mut swapped = bytes.clone();
        let (a, b) = (codes_at, codes_at + 4);
        let first: [u8; 4] = swapped[a..a + 4].try_into().unwrap();
        let second: [u8; 4] = swapped[b..b + 4].try_into().unwrap();
        swapped[a..a + 4].copy_from_slice(&second);
        swapped[b..b + 4].copy_from_slice(&first);
        rejected(&mut swapped, "codes are not strictly ascending");
        // Row starts that stop increasing: rows 1 and 2 swap starts, so
        // row 1 runs backwards and a lookup would slice out of order.
        let mut rows = bytes.clone();
        swap_words(&mut rows, rel_at + 2, rel_at + 4);
        rejected(&mut rows, "row boundaries are not strictly increasing");
        // An empty row (a listed code owning no posting).
        let mut empty = bytes.clone();
        let second: [u8; 2] = empty[rel_at + 4..rel_at + 6].try_into().unwrap();
        empty[rel_at + 2..rel_at + 4].copy_from_slice(&second);
        rejected(&mut empty, "row boundaries are not strictly increasing");
    }

    #[test]
    fn sparse_sections_are_eight_byte_aligned() {
        let bank = bank_of(&["ACGTACGTTTGG", "CC"]);
        let idx = sparse_idx(&bank, 4);
        let bytes = to_bytes(&idx, &IndexMeta::default());
        let at = section_offsets(&bytes);
        assert!(at.iter().all(|a| a % 8 == 0));
        // Row 0 starts at posting 0, and the postings follow the row
        // bounds directly: no slot table.
        assert_eq!(&bytes[at[1]..at[1] + 2], &[0, 0]);
        assert_eq!(bytes[at[4]..at[4] + 4], idx.positions()[0].to_le_bytes());
        // File size agrees with the layout walk.
        let words = bank.data().len().div_ceil(64);
        assert_eq!(bytes.len(), at[5] + 8 * words + 8);
    }

    #[test]
    fn row_bound_corruption_is_structural() {
        // The row bounds slice the postings for every lookup, so each lie
        // about them — edited in and the checksum RESTAMPED — ends in a
        // typed error: a decreasing boundary, a rel beyond its group's
        // span, a wide flag past the side array, a last row that does not
        // end at the postings' end; and on a file with wide groups, a wide
        // start that decreases and a side-array count that disagrees.
        let rejected = |tainted: &mut Vec<u8>, want: &str| {
            restamp_checksum(tainted);
            match read_index(&mut tainted.as_slice()) {
                Err(PersistError::Corrupt(msg)) => assert!(msg.contains(want), "{msg}"),
                other => panic!("accepted a corrupt {want}: {other:?}"),
            }
        };
        let put16 =
            |b: &mut Vec<u8>, at: usize, v: u16| b[at..at + 2].copy_from_slice(&v.to_le_bytes());
        let put32 =
            |b: &mut Vec<u8>, at: usize, v: u32| b[at..at + 4].copy_from_slice(&v.to_le_bytes());
        let get16 = |b: &[u8], at: usize| u16::from_le_bytes(b[at..at + 2].try_into().unwrap());
        let mut dna = String::new();
        let mut state = 0x9E37_79B9u32;
        for _ in 0..3000 {
            state ^= state << 13;
            state ^= state >> 17;
            state ^= state << 5;
            dna.push(b"ACGT"[(state >> 7) as usize % 4] as char);
        }
        let bank = bank_of(&[&dna]);
        for backend in [IndexBackend::Dense, IndexBackend::Sparse] {
            let idx = BankIndex::build(&bank, IndexConfig::full(6).with_backend(backend));
            let bytes = to_bytes(&idx, &IndexMeta::default());
            let k = stored_k(&bytes);
            assert!(k > 2 * 64, "{k} rows: the test wants three groups");
            let [_, rel, anchors, ..] = section_offsets(&bytes);
            // Rows 5 and 6 swap starts.
            let mut down = bytes.clone();
            swap_words(&mut down, rel + 10, rel + 12);
            rejected(&mut down, "row boundaries are not strictly increasing");
            // Row 63 starts past group 1's anchor.
            let mut past = bytes.clone();
            put16(&mut past, rel + 2 * 63, u16::MAX);
            rejected(&mut past, "beyond its group's span");
            // Group 1 flagged wide, pointing past an empty side array.
            let mut wide = bytes.clone();
            put32(&mut wide, anchors + 4, (1 << 31) | 3);
            rejected(&mut wide, "run past the 0-entry side array");
            // The last row starting at or past the postings' end.
            let mut last = bytes.clone();
            let at = rel + 2 * (k - 1);
            put16(&mut last, at, get16(&bytes, at) + 3000);
            rejected(&mut last, "last row starts at");
        }
        // Poly-A ahead of ordinary sequence: group 0 spans 70 000
        // postings and keeps its starts in the side array.
        let bank = bank_of(&[&format!("{}{dna}", "A".repeat(70_000))]);
        let idx = BankIndex::build(
            &bank,
            IndexConfig::full(6).with_backend(IndexBackend::Dense),
        );
        let bytes = to_bytes(&idx, &IndexMeta::default());
        let [_, _, anchors, wide, ..] = section_offsets(&bytes);
        assert_eq!(
            u32::from_le_bytes(bytes[anchors..anchors + 4].try_into().unwrap()),
            1 << 31
        );
        assert_eq!(u64::from_le_bytes(bytes[84..92].try_into().unwrap()), 64);
        let (loaded, _) = read_index(&mut bytes.as_slice()).unwrap();
        assert_same_index(&idx, &loaded);
        let mut down = bytes.clone();
        put32(&mut down, wide + 4 * 9, 1);
        rejected(&mut down, "row boundaries are not strictly increasing");
        let mut count = bytes.clone();
        count[84..92].copy_from_slice(&0u64.to_le_bytes());
        rejected(&mut count, "trailing bytes");
    }

    /// Random buffers of every length 0..=200, so every tail length
    /// (0–31 bytes past the last whole block) occurs several times.
    fn checksum_buffers() -> impl Iterator<Item = Vec<u8>> {
        let mut state = 0x5EED_u64;
        (0..=200usize).map(move |len| {
            (0..len)
                .map(|_| {
                    state = state
                        .wrapping_mul(6_364_136_223_846_793_005)
                        .wrapping_add(1_442_695_040_888_963_407);
                    (state >> 56) as u8
                })
                .collect()
        })
    }

    #[test]
    fn checksum_detects_every_single_byte_change() {
        for buf in checksum_buffers() {
            let clean = checksum(&buf);
            for at in 0..buf.len() {
                // Every single-bit flip, and one whole-byte replacement.
                for mask in (0..8).map(|b| 1u8 << b).chain([buf[at] ^ 0xA5 | 1]) {
                    let mut tainted = buf.clone();
                    tainted[at] ^= mask;
                    assert_ne!(
                        checksum(&tainted),
                        clean,
                        "len {} byte {at} mask {mask:#x}",
                        buf.len()
                    );
                }
            }
        }
    }

    #[test]
    fn checksum_detects_every_change_inside_one_word() {
        let mut state = 7u64;
        for buf in checksum_buffers() {
            let clean = checksum(&buf);
            for start in (0..buf.len()).step_by(8) {
                let word = start..buf.len().min(start + 8);
                for round in 0..16 {
                    // A random non-zero XOR over the word's bytes; the
                    // first rounds flip its top bit alone and all bits.
                    let mut tainted = buf.clone();
                    let mut delta = match round {
                        0 => 1u64 << (8 * word.len() - 1),
                        1 => u64::MAX,
                        _ => {
                            state = state.wrapping_mul(MIX_K).rotate_left(29) ^ round;
                            state
                        }
                    };
                    if delta & (u64::MAX >> (64 - 8 * word.len())) == 0 {
                        delta = 1;
                    }
                    for (b, d) in tainted[word.clone()].iter_mut().zip(delta.to_le_bytes()) {
                        *b ^= d;
                    }
                    assert_ne!(
                        checksum(&tainted),
                        clean,
                        "len {} word at {start} delta {delta:#x}",
                        buf.len()
                    );
                }
            }
        }
    }

    #[test]
    fn hashing_writer_equals_the_one_shot_checksum_for_any_chunking() {
        let mut state = 11u64;
        for buf in checksum_buffers() {
            let mut chunkings: Vec<Vec<usize>> = [1, 7, 8, 31, 33]
                .iter()
                .map(|&n| vec![n; buf.len().div_ceil(n)])
                .collect();
            // Random split points, empty writes included.
            for _ in 0..4 {
                let mut sizes = vec![];
                let mut left = buf.len();
                while left > 0 {
                    state = state.wrapping_mul(MIX_K).rotate_left(17) ^ 1;
                    let n = (state % 70) as usize % (left + 1);
                    sizes.push(n);
                    left -= n;
                }
                chunkings.push(sizes);
            }
            for sizes in chunkings {
                let mut sink = Vec::new();
                let mut out = HashingWriter {
                    inner: &mut sink,
                    sum: StreamChecksum::new(),
                };
                let mut rest = &buf[..];
                for n in sizes {
                    let (chunk, tail) = rest.split_at(n.min(rest.len()));
                    out.write_all(chunk).unwrap();
                    assert!(out.sum.pending_len < BLOCK);
                    rest = tail;
                }
                assert_eq!(out.written(), buf.len() as u64);
                assert_eq!(out.sum.finish(), checksum(&buf), "len {}", buf.len());
                assert_eq!(sink, buf);
            }
        }
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
            counts in proptest::collection::vec(0u64..=u64::MAX, 5),
            counts_hit in 0usize..48,
            bounds_edit in 0u64..=u64::MAX,
        ) {
            let refs: Vec<&str> = seqs.iter().map(|s| s.as_str()).collect();
            let bank = bank_of(&refs);
            let backend = [IndexBackend::Dense, IndexBackend::Sparse][sparse_sel];
            let cfg = IndexConfig { stride, ..IndexConfig::full(w) }.with_backend(backend);
            let mut bytes = to_bytes(&BankIndex::build(&bank, cfg), &IndexMeta::default());

            // One word of the row bounds, in three cases of four: a `rel`,
            // an anchor or (where the file has one) a wide start, set
            // within ±4 of the stored value or — for an anchor, one draw
            // in four — flagged wide with a small side-array offset.
            let spans = read_header(&mut &bytes[..]).unwrap().spans();
            let (kind, pick, delta) = (bounds_edit & 3, (bounds_edit >> 8) as usize, (bounds_edit >> 2) % 9);
            let (_, start, end) = spans[kind as usize];
            let (start, end) = (start as usize, end as usize);
            if kind > 0 && end > start {
                let width = if kind == 1 { 2 } else { 4 };
                let at = start + width * (pick % ((end - start) / width));
                if width == 2 {
                    let v = u16::from_le_bytes(bytes[at..at + 2].try_into().unwrap());
                    let v = v.wrapping_add(delta as u16).wrapping_sub(4);
                    bytes[at..at + 2].copy_from_slice(&v.to_le_bytes());
                } else {
                    let v = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
                    let v = if kind == 2 && bounds_edit >> 6 & 3 == 0 {
                        (1 << 31) | delta as u32
                    } else {
                        v.wrapping_add(delta as u32).wrapping_sub(4)
                    };
                    bytes[at..at + 4].copy_from_slice(&v.to_le_bytes());
                }
            }
            // 1–4 byte flips, one in four aimed at the first 128 bytes
            // (header, first padding run, head of the first section), where
            // every byte is load-bearing; the rest anywhere in the file.
            for v in &flips {
                let reach = if v >> 8 & 3 == 0 { bytes.len().min(128) } else { bytes.len() };
                let at = (v >> 10) as usize % reach;
                bytes[at] ^= (*v as u8).max(1);
            }
            // The five header counts (num_keys, num_rows, num_positions,
            // num_bitset_words, num_wide at 52 / 60 / 68 / 76 / 84), in 31
            // cases of 48: an arbitrary u64, or — odd draws — within ±4
            // of the stored one, which tends to pass the range checks and
            // move the layout.
            for (i, v) in counts.iter().enumerate() {
                if counts_hit < 32 && counts_hit >> i & 1 == 1 {
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
                let implied = h.spans()[5].2 + 8;
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
