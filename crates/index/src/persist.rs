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
//! ## Format (version 8, all integers little-endian)
//!
//! ```text
//! magic             8 B   "ORISIDX\0"
//! version           u32   8
//! w                 u32   seed length
//! stride            u32   sampling stride (1 = full, 2 = asymmetric)
//! flags             u32   bit 0 = fully_indexed; other bits reserved
//!                         (must be 0)
//! bank_len          u64   global coordinate space of the bank
//! masked_fraction   f64   fraction of bank positions the filter masked
//! filter_code       u32   caller-defined filter tag (see [`IndexMeta`])
//! bank_hash         u64   FNV-1a of the bank data (0 = not recorded)
//! num_words         u64   stored bitmap words (≤ num_rows): the popcount
//!                         of the top level
//! num_rows          u64   k = number of populated codes
//! num_positions     u64   N = number of postings
//! num_bitset_words  u64   must equal bank_len.div_ceil(64)
//! posting_bits      u32   b = ⌈log2 bank_len⌉ (at least 1): the bits of
//!                         one posting, a function of bank_len
//! -- then the row map:
//!    top            ⌈4^w/4096⌉ × u64  bit j of word t set iff bitmap
//!                                     word 64·t + j is stored
//!    words          num_words × u64   the non-zero words of the presence
//!                                     bitmap (bit c % 64 of word c / 64
//!                                     set iff code c is populated),
//!                                     ascending
//! -- then the row starts, one Elias–Fano sequence (row r ends where row
//!    r + 1 starts, the last at N), l = ⌊log2(N/k)⌋ (0 for k = 0):
//!    high           ⌈((N >> l) + k)/64⌉ × u64  bit (start_r >> l) + r set
//!                                     for each row r, none past the
//!                                     (N >> l) + k-th
//!    low            ⌈l·k/64⌉ + 1 × u64, none at l = 0: the starts' low l
//!                                     bits, one bit stream as the
//!                                     postings are, then a zero word
//!    postings       ⌈b·num_positions/64⌉ + 1 × u64  the positions, each
//!                                     in b bits of one little-endian bit
//!                                     stream (bit j is bit j % 64 of word
//!                                     j / 64), then a zero word; no bit
//!                                     set past b·num_positions
//!    bitset         num_bitset_words × u64
//!    checksum       u64   checksum() of every preceding byte of the stream
//! ```
//!
//! The header is 88 bytes and every array section whole words, so each
//! section starts on an 8-byte file offset. That alignment is what lets
//! the mapped attach path (`oris_index::mmap`) reference the big sections
//! **zero-copy from the mapped file** — a `&[u64]` view requires its
//! byte offset to be aligned, and an unaligned section would force the
//! copy the mapping exists to avoid. The packed postings and the low
//! stream are read in place like the rest: a row is decoded only as step
//! 2 reads it.
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
//! **A file is its row map's two levels and its row starts.** The rank
//! of each top word and of each stored word is derived at load in one
//! pass over each level (4 bytes per word: 4 KB for the top level at
//! W = 11, and 256 KB more for a volume that stores all 65 536 bitmap
//! words) and never written; so are the row starts' select samples (4
//! bytes per 64 rows) and block ranks (4 bytes per 4 096 high bits), in
//! one pass over the high words. Every section is checksummed and mapped
//! like the postings.
//!
//! Version 8 differs from version 7 in the row starts: v7 stored two bytes
//! a row over a four-byte anchor per 64 rows, and the starts of a group
//! spanning 2^16 postings or more as `u32`s in a side array, where v8
//! stores one Elias–Fano sequence, `N + k` bits at `l = 0`; the header
//! lost v7's `num_wide`. Version 7 differs from version 6 in the
//! postings: v6 stored each as a `u32` (`4·num_positions` bytes), where
//! v7 packs it in the header's `posting_bits`. Version 6 differs from
//! version 5 in the row map: v5 stored either a presence bitmap of
//! `⌈4^w/64⌉` words or, under a header flag, a sorted list of the
//! populated codes, where v6 stores one two-level bitmap (the `top` and
//! `words` sections, and the header's `num_words`). v5 in turn stored `k`
//! two-byte row starts where v4 stored `k + 1` `u32` boundaries; v4
//! replaced v3's dense `offsets[4^w + 1]` array (16.8 MB at W = 11) with
//! the bitmap, and v3 replaced v2's FNV-1a checksum and stored slot
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
//! trailing whole-stream checksum is verified; (4) the arrays go through
//! the same structural validation (a stored word for every top bit and no
//! more, no stored word zero, no top or word bit past `4^w`, the stored
//! words' popcount equal to the row count, `k` high bits set and none
//! past the `(N >> l) + k`-th, no low bit past the last start's, row 0
//! starting at 0, no row empty and the last ending at the postings' end,
//! a posting width equal to the bank length's and
//! no bit set past the last posting, every posting inside the bank and
//! every row ascending — one streaming decode of the postings — and
//! bit-set agreement) that protects step 2 from a corrupt
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
use crate::postings::{bit_width, words_for, Packed};
use crate::section::Section;
use crate::seedcode::MAX_SEED_LEN;
use crate::structure::{high_len, low_bytes, low_width, top_words, BankIndex, RowBounds, RowMap};

/// File magic, first 8 bytes of every index file.
pub const MAGIC: [u8; 8] = *b"ORISIDX\0";

/// Current format version (8: the row starts are one Elias–Fano sequence,
/// where version 7 stored two bytes a row over an anchor per 64; see the
/// module docs).
pub const FORMAT_VERSION: u32 = 8;

/// Bytes of the fixed header (everything before the first section).
const HEADER_BYTES: u64 = 88;

/// Header flag bit 0: the index is fully indexed (exclusion provenance).
const FLAG_FULLY_INDEXED: u32 = 1;

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
/// so the trailing checksum covers the exact stream written.
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

/// Serializes `idx` (with its preparation provenance) to `out`, ending
/// with the whole-stream checksum. The header is 88 bytes and every array
/// section whole 64-bit words, so each section starts on an 8-byte file
/// offset and a mapped file can hand out aligned slices.
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
    let flags = u32::from(idx.is_fully_indexed());
    out.write_all(&flags.to_le_bytes())?;
    out.write_all(&(idx.bank_len() as u64).to_le_bytes())?;
    out.write_all(&meta.masked_fraction.to_le_bytes())?;
    out.write_all(&meta.filter_code.to_le_bytes())?;
    out.write_all(&meta.bank_hash.to_le_bytes())?;
    let (top, stored, bounds) = idx.rows().sections();
    out.write_all(&(stored.len() as u64).to_le_bytes())?;
    out.write_all(&(idx.distinct_codes() as u64).to_le_bytes())?;
    out.write_all(&(idx.indexed_positions() as u64).to_le_bytes())?;
    let words = idx.indexed_words();
    out.write_all(&(words.len() as u64).to_le_bytes())?;
    out.write_all(&idx.posting_bits().to_le_bytes())?;
    debug_assert_eq!(out.written(), HEADER_BYTES);
    let (high, low) = bounds.sections();
    write_section(&mut out, top, u64::to_le_bytes)?;
    write_section(&mut out, stored, u64::to_le_bytes)?;
    write_section(&mut out, high, u64::to_le_bytes)?;
    out.write_all(low)?;
    out.write_all(idx.packed().bytes())?;
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

/// Writes one array section: `values` as `le` encodes them.
fn write_section<W: Write, T: Copy, const B: usize>(
    out: &mut HashingWriter<'_, W>,
    values: &[T],
    le: fn(T) -> [u8; B],
) -> io::Result<()> {
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
    bank_len: usize,
    meta: IndexMeta,
    num_stored: u64,
    num_rows: u64,
    num_positions: u64,
    num_words: u64,
    posting_bits: u32,
}

impl Header {
    /// The section layout this header implies: the `(start, end)` file
    /// offsets of each array section, in file order — the top level, the
    /// stored bitmap words, the row starts' high words and low stream
    /// (none at `l = 0`), postings, bit-set. Each section is whole words
    /// and starts where its predecessor ends; the checksum follows the
    /// last `end`.
    fn spans(&self) -> [(u64, u64); 6] {
        let (rows, postings) = (self.num_rows as usize, self.num_positions as usize);
        let mut at = HEADER_BYTES;
        [
            8 * top_words(1 << (2 * self.w)) as u64,
            8 * self.num_stored,
            8 * high_len(postings, rows).div_ceil(64) as u64,
            low_bytes(rows, low_width(postings, rows)) as u64,
            8 * words_for(postings, self.posting_bits) as u64,
            8 * self.num_words,
        ]
        .map(|len| {
            at += len;
            (at - len, at)
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
    if flags & !FLAG_FULLY_INDEXED != 0 {
        return Err(PersistError::Corrupt(format!(
            "reserved flag bits set ({flags:#x})"
        )));
    }
    let fully_indexed = flags & FLAG_FULLY_INDEXED != 0;
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

    let num_stored = read_u64(r)?;
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
    // Every stored bitmap word holds a populated code.
    if num_stored > num_rows {
        return Err(PersistError::Corrupt(format!(
            "{num_stored} stored bitmap words for {num_rows} populated codes"
        )));
    }
    let num_words = read_u64(r)?;
    if num_words != bank_len.div_ceil(64) as u64 {
        return Err(PersistError::Corrupt(format!(
            "bit-set section has {num_words} words, expected {}",
            bank_len.div_ceil(64)
        )));
    }
    // One width per bank length: the bits its last position needs.
    let posting_bits = read_u32(r)?;
    if posting_bits != bit_width(bank_len) {
        return Err(PersistError::Corrupt(format!(
            "postings of {posting_bits} bits for a bank of {bank_len} positions, expected {}",
            bit_width(bank_len)
        )));
    }
    Ok(Header {
        w,
        stride,
        fully_indexed,
        bank_len,
        meta: IndexMeta {
            masked_fraction,
            filter_code,
            bank_hash,
        },
        num_stored,
        num_rows,
        num_positions,
        num_words,
        posting_bits,
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
    let size = spans[5].1 + 8;
    if (bytes.len() as u64) < size {
        return Err(PersistError::Corrupt("truncated file".into()));
    }
    if bytes.len() as u64 > size {
        return Err(PersistError::Corrupt(
            "trailing bytes after the index".into(),
        ));
    }
    let spans = spans.map(|(start, end)| (start as usize, end as usize));

    // Whole-stream checksum before trusting the
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

    /// Section `span` as a view of the mapping, where the target is
    /// little-endian and the section aligned in it.
    fn view<T>(map: Option<&Arc<Mapping>>, (start, end): (usize, usize)) -> Option<Section<T>> {
        let len = (end - start) / std::mem::size_of::<T>();
        map.filter(|_| cfg!(target_endian = "little"))
            .and_then(|m| Section::mapped(m, start, len))
    }
    /// Section `span` as a view of the mapping where one is possible,
    /// else decoded from `bytes` by `le`.
    fn section<T, const B: usize>(
        bytes: &[u8],
        map: Option<&Arc<Mapping>>,
        span: (usize, usize),
        le: fn([u8; B]) -> T,
    ) -> Section<T> {
        view(map, span).unwrap_or_else(|| {
            let (start, end) = span;
            bytes[start..end]
                .chunks_exact(B)
                .map(|c| le(c.try_into().expect("B bytes")))
                .collect::<Vec<T>>()
                .into()
        })
    }
    // The low stream and the packed postings are little-endian bytes
    // already: a view of the mapping, or one copy.
    let stream = |span: (usize, usize)| {
        view(map, span).unwrap_or_else(|| bytes[span.0..span.1].to_vec().into())
    };
    let bounds = RowBounds::from_raw_parts(
        section(bytes, map, spans[2], u64::from_le_bytes),
        stream(spans[3]),
        h.num_rows as usize,
        h.num_positions as usize,
    )
    .map_err(PersistError::Corrupt)?;
    let rows = RowMap::from_raw_parts(
        section(bytes, map, spans[0], u64::from_le_bytes),
        section(bytes, map, spans[1], u64::from_le_bytes),
        bounds,
        1 << (2 * h.w),
    )
    .map_err(PersistError::Corrupt)?;
    let postings =
        Packed::from_raw_parts(stream(spans[4]), h.posting_bits, h.num_positions as usize)
            .map_err(PersistError::Corrupt)?;
    let (start, end) = spans[5];
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
        postings,
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
    use crate::structure::IndexConfig;
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
        let ((at, aw, ab), (bt, bw, bb)) = (a.rows().sections(), b.rows().sections());
        assert_eq!((at, aw), (bt, bw));
        assert_eq!(ab.sections(), bb.sections());
        assert!(a.populated().eq(b.populated()));
        assert_eq!(a.postings(), b.postings());
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

    /// File offsets where each array section of `bytes` starts — top
    /// level, stored words, the row starts' high words and low stream,
    /// positions, bit-set — from its header.
    fn section_offsets(bytes: &[u8]) -> [usize; 6] {
        let h = read_header(&mut &bytes[..]).unwrap();
        h.spans().map(|(start, _)| start as usize)
    }

    #[test]
    fn sections_are_eight_byte_aligned() {
        // The property the mmap attach rests on: each array section must
        // start on an 8-byte file offset regardless of W or bank size.
        for (w, seqs) in [
            (1usize, vec!["ACGTACG"]),
            (3, vec!["ACGTACG"]),
            (4, vec!["ACGTACGTTTGG", "CC"]),
            (9, vec!["ACGTACGTTTGG", "CC"]),
        ] {
            let refs: Vec<&str> = seqs.to_vec();
            let bank = bank_of(&refs);
            let idx = BankIndex::build(&bank, IndexConfig::full(w));
            let bytes = to_bytes(&idx, &IndexMeta::default());
            let at = section_offsets(&bytes);
            assert_eq!(at[0], 88); // the header
            assert!(at.iter().all(|a| a % 8 == 0));
            // The top level's and the stored words' first words, and the
            // first high bit, row 0's (it starts at posting 0).
            let (top, words, _) = idx.rows().sections();
            assert_eq!(bytes[at[0]..at[0] + 8], top[0].to_le_bytes());
            assert_eq!(at[1] - at[0], 8 * top.len());
            assert_eq!(bytes[at[1]..at[1] + 8], words[0].to_le_bytes());
            assert_eq!(bytes[at[2]] & 1, 1);
            assert_eq!(at[4] - at[3], 0, "no low bits: under two postings a row");
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
        // slot table), version-3 (dense `4^w + 1` offsets), version-4
        // (`k + 1` u32 row boundaries), version-5 (a whole presence
        // bitmap or a code list), version-6 (`u32` postings) and
        // version-7 (two-byte row starts over anchors) files are refused
        // too, with the rebuild hint: there is no compatibility shim.
        for old in [1u8, 2, 3, 4, 5, 6, 7] {
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
        // Every flag bit but bit 0 is reserved — bit 1 included, the
        // version-5 code-list flag.
        for bit in [0x02u8, 0x80] {
            let mut bytes = to_bytes(&idx, &IndexMeta::default());
            bytes[20] |= bit; // flags field (magic 8 + version 4 + w 4 + stride 4)
            restamp_checksum(&mut bytes);
            assert!(matches!(
                read_index(&mut bytes.as_slice()),
                Err(PersistError::Corrupt(_))
            ));
        }
    }

    #[test]
    fn corrupt_offsets_error() {
        let bank = bank_of(&["ACGTACGTACGT"]);
        let idx = BankIndex::build(&bank, IndexConfig::full(3));
        let bytes = to_bytes(&idx, &IndexMeta::default());
        // Move row 0's high bit onto its first posting's AND recompute the
        // trailing checksum, so it is the structural validation (row 0
        // starts at posting 0) that must trip, not the checksum.
        let high_at = section_offsets(&bytes)[2];
        let mut corrupt = bytes.clone();
        corrupt[high_at] ^= 0b11;
        restamp_checksum(&mut corrupt);
        assert!(matches!(
            read_index(&mut corrupt.as_slice()),
            Err(PersistError::Corrupt(_))
        ));
    }

    #[test]
    fn nonzero_padding_errors() {
        // The zero word that ends each bit stream — the row starts' low
        // bits and the postings — must stay zero: every byte of either
        // set, with a restamped checksum, is refused on both backings.
        let bank = bank_of(&[&"ACGTACGTACGT".repeat(8)]);
        let idx = BankIndex::build(&bank, IndexConfig::full(3));
        let bytes = to_bytes(&idx, &IndexMeta::default());
        let spans = read_header(&mut &bytes[..]).unwrap().spans();
        let (low, postings) = (spans[3].1 as usize, spans[4].1 as usize);
        assert!(
            low > spans[3].0 as usize,
            "rows of four postings or more: low bits"
        );
        for end in [low, postings] {
            for at in end - 8..end {
                let mut padded = bytes.clone();
                padded[at] = 0xAB;
                refused(&mut padded, "non-zero bits past the last");
            }
        }
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

    /// An index populating a sliver of its code space: at W = 9 a short
    /// bank stores a handful of its 4 096 bitmap words.
    fn sparse_idx(bank: &Bank) -> BankIndex {
        BankIndex::build(bank, IndexConfig::full(9))
    }

    /// Header field offsets (see the module docs): num_words lives at
    /// bytes 52..60, num_rows (`k`) at 60..68.
    fn stored_words(bytes: &[u8]) -> usize {
        u64::from_le_bytes(bytes[52..60].try_into().unwrap()) as usize
    }

    fn stored_k(bytes: &[u8]) -> usize {
        u64::from_le_bytes(bytes[60..68].try_into().unwrap()) as usize
    }

    #[test]
    fn sparse_roundtrip_and_header_shape() {
        let bank = bank_of(&["ACGTACGTTTGGCCAAACGTNACGT", "TTGGCCAA"]);
        let idx = sparse_idx(&bank);
        let meta = IndexMeta {
            masked_fraction: 0.0,
            filter_code: 1,
            bank_hash: fnv1a(bank.data()),
        };
        let bytes = to_bytes(&idx, &meta);
        // No flag but provenance; num_words counts the stored words, one
        // per 64-code stretch the k codes populate, and num_rows k.
        let flags = u32::from_le_bytes(bytes[20..24].try_into().unwrap());
        assert_eq!(flags & !1, 0);
        let mut stretches: Vec<u32> = idx.populated().map(|(c, _)| c / 64).collect();
        stretches.dedup();
        assert_eq!(stored_words(&bytes), stretches.len());
        assert_eq!(stored_k(&bytes), idx.distinct_codes());
        let (loaded, lmeta) = read_index(&mut bytes.as_slice()).unwrap();
        assert_same_index(&idx, &loaded);
        assert_eq!(meta, lmeta);
    }

    #[test]
    fn dense_bytes_are_unchanged_by_the_backend_flag() {
        // A file's flags carry provenance alone, whatever the bank
        // populates; num_words counts the stored bitmap words — every
        // word of ⌈4^w/64⌉ this bank populates — and num_rows its codes.
        let bank = bank_of(&[&"ACGTACGTTTGGCCAA".repeat(40)]);
        for (w, words) in [(2, 1), (3, 1), (4, 4)] {
            let idx = BankIndex::build(&bank, IndexConfig::full(w));
            let bytes = to_bytes(&idx, &IndexMeta::default());
            let flags = u32::from_le_bytes(bytes[20..24].try_into().unwrap());
            assert_eq!(flags & !1, 0, "no row-map flag");
            assert_eq!(stored_words(&bytes), words);
            assert_eq!(stored_k(&bytes), idx.distinct_codes());
        }
    }

    /// Decodes `bytes`, its checksum RESTAMPED, on both backings and
    /// expects the corruption error naming `want`.
    fn refused(bytes: &mut Vec<u8>, want: &str) {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        restamp_checksum(bytes);
        let tmp = std::env::temp_dir().join(format!(
            "oris_persist_refused_{}_{}.oidx",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let verdict = decode_on_both_backings(bytes, &tmp);
        std::fs::remove_file(&tmp).ok();
        match (verdict, read_index(&mut bytes.as_slice())) {
            (Err(msg), Err(PersistError::Corrupt(_))) => {
                assert!(msg.contains(want), "{msg} (wanted {want})")
            }
            (verdict, heap) => panic!("accepted a corrupt {want}: {verdict:?} / {heap:?}"),
        }
    }

    #[test]
    fn dense_bitmap_corruption_is_structural() {
        // The two levels decide which codes have rows, so the checks on
        // them stand between hostile bytes and the rank lookups: edit
        // them and RESTAMP the checksum, and each lie gets its own typed
        // error on both backings.
        let bank = bank_of(&["ACGTACGTTTGGCCAA"]);
        for w in [2usize, 3, 4, 8] {
            let idx = BankIndex::build(&bank, IndexConfig::full(w));
            let bytes = to_bytes(&idx, &IndexMeta::default());
            let [top0, words_at, ..] = section_offsets(&bytes);
            let word = |b: &[u8], at: usize| u64::from_le_bytes(b[at..at + 8].try_into().unwrap());
            let set = |b: &mut Vec<u8>, at: usize, v: u64| {
                b[at..at + 8].copy_from_slice(&v.to_le_bytes())
            };
            // The first top word marking a stored word, and that word.
            let t = (0..).find(|t| word(&bytes, top0 + 8 * t) != 0).unwrap();
            let top_at = top0 + 8 * t;
            let (top, stored) = (word(&bytes, top_at), word(&bytes, words_at));
            let marked = stored_words(&bytes);
            let bitmap_words = (1usize << (2 * w)).div_ceil(64);
            // A top bit whose word is absent, where a bitmap word is free.
            let free = (!top).trailing_zeros() as usize;
            if 64 * t + free < bitmap_words {
                let mut absent = bytes.clone();
                set(&mut absent, top_at, top | 1 << free);
                refused(&mut absent, "a marked word is absent");
            }
            // Fewer top bits than stored words: a word count that differs
            // from the top level's popcount.
            let mut count = bytes.clone();
            set(&mut count, top_at, top & (top - 1));
            refused(&mut count, &format!("{marked} stored words for the"));
            // A stored word of zero.
            let mut zero = bytes.clone();
            set(&mut zero, words_at, 0);
            refused(&mut zero, "a stored bitmap word is zero");
            // A word popcount that differs from k: one code fewer, and
            // one more inside the code space.
            let mut fewer = bytes.clone();
            set(&mut fewer, words_at, stored & (stored - 1));
            if stored.count_ones() > 1 {
                refused(&mut fewer, "bitmap words hold");
            }
            let absent_code = (!stored).trailing_zeros();
            if absent_code < 1 << (2 * w).min(6) {
                let mut more = bytes.clone();
                set(&mut more, words_at, stored | 1 << absent_code);
                refused(&mut more, "bitmap words hold");
            }
            // A word bit past 4^w (W = 2: sixteen codes in one word), and
            // a top bit past the ⌈4^w/64⌉ bitmap words (W = 4: four).
            if w == 2 {
                let mut past = bytes.clone();
                set(&mut past, words_at, stored | 1 << 40);
                refused(&mut past, "past the 16-code space");
            }
            if w == 4 {
                let mut past = bytes.clone();
                set(&mut past, top_at, top | 1 << 10);
                refused(&mut past, "marks a word past the 256-code space");
            }
            // A header word count past the populated codes.
            let mut header = bytes.clone();
            let k = stored_k(&bytes) as u64;
            header[52..60].copy_from_slice(&(k + 1).to_le_bytes());
            refused(&mut header, "stored bitmap words for");
        }
    }

    #[test]
    fn sparse_every_truncation_errors() {
        let bank = bank_of(&["ACGTACGTACGTTTGG"]);
        let idx = sparse_idx(&bank);
        let bytes = to_bytes(&idx, &IndexMeta::default());
        for cut in 0..bytes.len() {
            let err = read_index(&mut &bytes[..cut]);
            assert!(err.is_err(), "prefix of {cut} bytes must not parse");
        }
    }

    #[test]
    fn sparse_payload_bit_flip_is_caught_by_checksum() {
        let bank = bank_of(&["ACGTACGTACGTTTGGCCAA"]);
        let idx = sparse_idx(&bank);
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
    fn packed_postings_corruption_is_structural() {
        // The packed postings are read wherever a row is, so each lie
        // about them — edited in and the checksum RESTAMPED — ends in a
        // typed error on both backings: a position at or past the bank's
        // length, a row that stops ascending, a bit past the last
        // posting (in its word and in the pad word), a header width other
        // than the bank length's, and a section cut short.
        let bank = bank_of(&["ACGTACGTTTGGCCAAACGTNACGT", "TTGGCCAAGT"]);
        let idx = BankIndex::build(&bank, IndexConfig::full(4));
        let bytes = to_bytes(&idx, &IndexMeta::default());
        let (n, b, len) = (
            idx.indexed_positions(),
            idx.posting_bits(),
            bank.data().len(),
        );
        assert_eq!(b, 6);
        assert!(len < 1 << b, "the width has room past the bank");
        let at = section_offsets(&bytes)[4];
        // Posting `i` of the stream set to `value`, a bit at a time.
        let with_posting = |i: usize, value: u64| {
            let mut bytes = bytes.clone();
            for j in 0..b as usize {
                let bit = i * b as usize + j;
                let (byte, mask) = (at + bit / 8, 1u8 << (bit % 8));
                bytes[byte] = bytes[byte] & !mask | (u8::from(value >> j & 1 == 1) * mask);
            }
            bytes
        };
        // The last posting of the first row of two or more, at and past
        // the bank's length; then set below the row's first.
        let mut first = 0;
        let row = idx
            .populated()
            .map(|(_, row)| row)
            .find(|row| {
                first += row.len();
                row.len() >= 2
            })
            .unwrap();
        let last = first - 1;
        for past in [len as u64, (1 << b) - 1] {
            refused(
                &mut with_posting(last, past),
                &format!("position {past} outside bank of {len}"),
            );
        }
        refused(
            &mut with_posting(last, u64::from(row.get(0))),
            "row positions are not strictly ascending",
        );
        // A stray bit just past the last posting, and one in the pad word.
        let bytes_in = idx.packed().bytes().len();
        for bit in [n * b as usize, 8 * bytes_in - 1] {
            let mut stray = bytes.clone();
            stray[at + bit / 8] |= 1 << (bit % 8);
            refused(&mut stray, "non-zero bits past the last");
        }
        // The header's width, one off either way.
        for lie in [b + 1, b - 1] {
            let mut header = bytes.clone();
            header[84..88].copy_from_slice(&lie.to_le_bytes());
            refused(
                &mut header,
                &format!("postings of {lie} bits for a bank of {len}"),
            );
        }
        // The section one word short.
        let mut short = bytes.clone();
        short.drain(at..at + 8);
        refused(&mut short, "truncated file");
    }

    /// `bytes` with bit `bit` of the section at byte `at` set to `on`.
    fn with_bit(bytes: &[u8], at: usize, bit: usize, on: bool) -> Vec<u8> {
        let mut bytes = bytes.to_vec();
        let (byte, mask) = (at + bit / 8, 1u8 << (bit % 8));
        bytes[byte] = bytes[byte] & !mask | (u8::from(on) * mask);
        bytes
    }

    /// The place of the `r`-th set bit of the section at byte `at`.
    fn set_bit(bytes: &[u8], at: usize, r: usize) -> usize {
        (0..)
            .filter(|&bit| bytes[at + bit / 8] >> (bit % 8) & 1 == 1)
            .nth(r)
            .unwrap()
    }

    #[test]
    fn sparse_word_corruption_is_structural() {
        // A sparsely populated index stores few bitmap words, and its
        // lookups rank through them: edit a word or a row and RESTAMP the
        // checksum, and the structural validation still rejects the file.
        let bank = bank_of(&["ACGTACGTACGTTTGGCCAA"]);
        let idx = sparse_idx(&bank);
        let bytes = to_bytes(&idx, &IndexMeta::default());
        let k = stored_k(&bytes);
        assert!(k >= 3, "test bank must populate at least three codes");
        let [_, words_at, high_at, ..] = section_offsets(&bytes);
        // Every stored word zeroed in turn, and each with a code added.
        for i in 0..stored_words(&bytes) {
            let at = words_at + 8 * i;
            let mut zero = bytes.clone();
            zero[at..at + 8].fill(0);
            refused(&mut zero, "a stored bitmap word is zero");
            let stored = u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
            let mut more = bytes.clone();
            let added = stored | 1 << (!stored).trailing_zeros();
            more[at..at + 8].copy_from_slice(&added.to_le_bytes());
            refused(&mut more, "bitmap words hold");
        }
        // Row 1's high bit moved onto row 0's posting: row 0 would slice
        // out no posting, and a lookup would hand row 1 row 0's.
        let row1 = set_bit(&bytes, high_at, 1);
        let moved = with_bit(&with_bit(&bytes, high_at, row1, false), high_at, 1, true);
        refused(&mut moved.clone(), "row 0 is empty");
        // Row 1's high bit taken away.
        refused(
            &mut with_bit(&bytes, high_at, row1, false),
            &format!("high bits set for {} rows, expected {k}", k - 1),
        );
    }

    #[test]
    fn sparse_sections_are_eight_byte_aligned() {
        let bank = bank_of(&["ACGTACGTTTGG", "CC"]);
        let idx = sparse_idx(&bank);
        let bytes = to_bytes(&idx, &IndexMeta::default());
        let at = section_offsets(&bytes);
        assert!(at.iter().all(|a| a % 8 == 0));
        // Row 0 starts at posting 0, and the postings follow the row
        // starts directly.
        assert_eq!(bytes[at[2]] & 1, 1);
        // The postings section is the packed stream, its first posting
        // the low bits of its first word.
        let first = u64::from_le_bytes(bytes[at[4]..at[4] + 8].try_into().unwrap());
        assert_eq!(first.to_le_bytes(), idx.packed().bytes()[..8]);
        let mask = (1u64 << idx.posting_bits()) - 1;
        assert_eq!(first & mask, u64::from(idx.postings().get(0)));
        // File size agrees with the layout walk.
        let words = bank.data().len().div_ceil(64);
        assert_eq!(bytes.len(), at[5] + 8 * words + 8);
    }

    #[test]
    fn row_bound_corruption_is_structural() {
        // The row starts slice the postings for every lookup, so each lie
        // about them — edited in and the checksum RESTAMPED — ends in a
        // typed error on both backings: a set bit taken away or added, an
        // empty row, row 0 off posting 0, the last row starting at N, a
        // bit past the high vector; and on a file with low bits (a
        // 70 000-nt poly-A row), a low bit past the last start's and the
        // last row's low bits raised past N.
        let mut dna = String::new();
        let mut state = 0x9E37_79B9u32;
        for _ in 0..3000 {
            state ^= state << 13;
            state ^= state >> 17;
            state ^= state << 5;
            dna.push(b"ACGT"[(state >> 7) as usize % 4] as char);
        }
        let bank = bank_of(&[&dna]);
        // Most of the bitmap words stored (W = 6), and few (W = 11).
        for w in [6, 11] {
            let idx = BankIndex::build(&bank, IndexConfig::full(w));
            let bytes = to_bytes(&idx, &IndexMeta::default());
            let (k, n) = (stored_k(&bytes), idx.indexed_positions());
            assert_eq!(low_width(n, k), 0, "{n} postings over {k} rows");
            let [_, _, high, low, postings, _] = section_offsets(&bytes);
            assert_eq!(low, postings, "no low stream at l = 0");
            let len = high_len(n, k);
            let (row1, last) = (set_bit(&bytes, high, 1), set_bit(&bytes, high, k - 1));
            refused(
                &mut with_bit(&bytes, high, last, false),
                &format!("high bits set for {} rows, expected {k}", k - 1),
            );
            refused(
                &mut with_bit(&bytes, high, 1, true),
                &format!("high bits set for {} rows", k + 1),
            );
            let empty = with_bit(&with_bit(&bytes, high, row1, false), high, 1, true);
            refused(&mut empty.clone(), "row 0 is empty");
            let off = with_bit(&with_bit(&bytes, high, 0, false), high, 1, true);
            refused(&mut off.clone(), "row 0 starts at 1, not 0");
            let at_end = with_bit(&with_bit(&bytes, high, last, false), high, len - 1, true);
            refused(&mut at_end.clone(), &format!("last row starts at {n}"));
            if !len.is_multiple_of(64) {
                refused(&mut with_bit(&bytes, high, len, true), "stray high bits");
            }
        }
        // Poly-A ahead of ordinary sequence: a row of 70 000 postings, so
        // N/k passes 2 and the starts keep low bits.
        let bank = bank_of(&[&format!("{}{dna}", "A".repeat(70_000))]);
        let idx = BankIndex::build(&bank, IndexConfig::full(6));
        let bytes = to_bytes(&idx, &IndexMeta::default());
        let (loaded, _) = read_index(&mut bytes.as_slice()).unwrap();
        assert_same_index(&idx, &loaded);
        let (k, n) = (idx.distinct_codes(), idx.indexed_positions());
        let l = low_width(n, k) as usize;
        assert!(l > 0, "{n} postings over {k} rows");
        let [_, _, high, low, ..] = section_offsets(&bytes);
        // A bit past the last start's, in its word or in the pad word.
        refused(
            &mut with_bit(&bytes, low, k * l, true),
            "low bits: non-zero bits past the last",
        );
        // The last row's set bit moved to the vector's end and its low
        // bits all set: it would start past N.
        let last = set_bit(&bytes, high, k - 1);
        let past = (n >> l << l) + (1 << l) - 1;
        assert!(past >= n);
        let mut raised = with_bit(&bytes, high, last, false);
        raised = with_bit(&raised, high, high_len(n, k) - 1, true);
        for j in 0..l {
            raised = with_bit(&raised, low, (k - 1) * l + j, true);
        }
        refused(&mut raised, &format!("last row starts at {past}"));
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
        /// random banks, seed lengths (up to a bitmap of 4 096 words),
        /// strides and masks — `occurrences()` slices, `stats()` and
        /// `is_fully_indexed` all agree.
        #[test]
        fn roundtrip_preserves_everything(
            seqs in proptest::collection::vec("[ACGTN]{0,60}", 1..4),
            w in 2usize..=9,
            stride in 1usize..3,
            mask_mod in 1usize..9,
        ) {
            let refs: Vec<&str> = seqs.iter().map(|s| s.as_str()).collect();
            let bank = bank_of(&refs);
            let cfg = IndexConfig { stride, ..IndexConfig::full(w) };
            // mask_mod == 1 masks nothing (p % 1 == 0 would mask all);
            // use it as the unmasked case.
            let masked = |p: usize| mask_mod > 1 && p.is_multiple_of(mask_mod);
            let idx = BankIndex::build_filtered(&bank, cfg, masked);
            let meta = IndexMeta { masked_fraction: 0.5, filter_code: 3, bank_hash: 7 };

            let bytes = to_bytes(&idx, &meta);
            let (loaded, lmeta) = read_index(&mut bytes.as_slice()).unwrap();
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
            w in 2usize..=7,
            stride in 1usize..3,
            flips in proptest::collection::vec(0u64..=u64::MAX, 1..5),
            counts in proptest::collection::vec(0u64..=u64::MAX, 4),
            counts_hit in 0usize..24,
            bounds_edit in 0u64..=u64::MAX,
        ) {
            let refs: Vec<&str> = seqs.iter().map(|s| s.as_str()).collect();
            let bank = bank_of(&refs);
            let cfg = IndexConfig { stride, ..IndexConfig::full(w) };
            let mut bytes = to_bytes(&BankIndex::build(&bank, cfg), &IndexMeta::default());

            // One word of the row map, the row starts or the postings, in
            // six cases of seven: a top-level or stored bitmap word, a high
            // word, a word of the low stream (where the file has one) or
            // of the packed postings with one bit flipped, or a high word
            // with one set bit moved to its clear neighbour, which keeps
            // the set-bit count and reaches the row checks.
            let spans = read_header(&mut &bytes[..]).unwrap().spans();
            let (kind, pick) = ((bounds_edit % 7) as usize, (bounds_edit >> 8) as usize);
            let (start, end) = spans[[0, 0, 1, 2, 2, 3, 4][kind]];
            let (start, end) = (start as usize, end as usize);
            if kind > 0 && end > start {
                let at = start + 8 * (pick % ((end - start) / 8));
                let v = u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
                let j = (bounds_edit >> 16) % 64;
                let v = match kind {
                    4 if j < 63 && (v >> j ^ v >> (j + 1)) & 1 == 1 => v ^ 3 << j,
                    _ => v ^ 1 << j,
                };
                bytes[at..at + 8].copy_from_slice(&v.to_le_bytes());
            }
            // 1–4 byte flips, one in four aimed at the first 128 bytes
            // (header, head of the first section), where every byte is
            // load-bearing; the rest anywhere in the file.
            for v in &flips {
                let reach = if v >> 8 & 3 == 0 { bytes.len().min(128) } else { bytes.len() };
                let at = (v >> 10) as usize % reach;
                bytes[at] ^= (*v as u8).max(1);
            }
            // The four header counts (num_words, num_rows, num_positions,
            // num_bitset_words at 52 / 60 / 68 / 76), in 15 cases of 24: an
            // arbitrary u64, or — odd draws — within ±4 of the stored one,
            // which tends to pass the range checks and move the layout.
            for (i, v) in counts.iter().enumerate() {
                if counts_hit < 16 && counts_hit >> i & 1 == 1 {
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
                let implied = h.spans()[5].1 + 8;
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
                        .all(|p| (p as usize) < idx.bank_len()));
                }
                let indexed = (0..idx.bank_len()).filter(|&p| idx.is_indexed(p)).count();
                prop_assert_eq!(indexed, idx.indexed_positions());
            }
            std::fs::remove_file(&tmp).unwrap();
        }
    }
}
