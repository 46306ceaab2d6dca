//! Read-only memory mapping of index files.
//!
//! A persisted index is attached, not loaded: [`map_index_file`] maps the
//! file once and runs the format's one decoder (`persist::decode`) over
//! the mapped bytes, which hands [`crate::BankIndex`] zero-copy views of
//! the big sections (row map and postings). Attaching costs one mapping
//! plus two heap pieces: the indexed-positions bit-set the order guard
//! probes is copied (`len/8` bytes, an order of magnitude below the
//! postings), and the row map's ranks are derived, 4 bytes per top-level
//! word and per stored bitmap word (4 KB at W = 11, plus up to 256 KB for
//! a volume storing all 65 536 words), as are the row starts' select
//! samples and block ranks (4 bytes per 64 rows and per 4 096 high bits);
//! the row map's two levels and the row starts are mapped like the
//! rest. A sharded database holds
//! many volumes this way, and
//! `scoris-n --index` attaches its one file the same way.
//! The exact-size check, the whole-stream checksum and every structural
//! invariant are verified at attach time by the same code
//! [`crate::read_index_file`] runs over a heap read, so a mapped index
//! gives the same corruption guarantees; the tests below are the mapped
//! leg of the decoder's corruption suite (`persist::tests` is the heap
//! leg, and its fuzz holds the two backings to one verdict).
//!
//! The mapping is implemented with direct `mmap(2)`/`munmap(2)` calls
//! (declared `extern "C"` — this build environment has no crates.io
//! access, and the platform C library already exports them). On
//! non-Unix targets, or if the kernel refuses the mapping,
//! [`map_index_file`] falls back to [`crate::read_index_file`]: the same
//! decoder over a heap read, its sections decoded copies. Callers always
//! get a working index, mapped when possible, and the choice is made from
//! what the code observes, never by an option.
//!
//! **Caveat** (inherent to file mappings, not this implementation): the
//! kernel does not snapshot the file. Truncating or rewriting an index
//! file while a process holds it mapped can deliver `SIGBUS` on access.
//! `makedb` and `mkindex` write a file once and never rewrite it in
//! place, which is the discipline this module assumes.

use std::fs::File;
use std::io;
use std::ops::Deref;
use std::path::Path;
use std::sync::Arc;

use crate::persist::PersistError;
use crate::structure::BankIndex;
use crate::IndexMeta;

/// A read-only, shared mapping of an entire file.
pub struct Mapping {
    ptr: *mut u8,
    len: usize,
}

// SAFETY: the mapping is read-only (`PROT_READ`) and never handed out
// mutably; see `Section`'s rationale.
unsafe impl Send for Mapping {}
// SAFETY: same rationale as `Send` above — all access is through `&self`
// into immutable pages, so concurrent shared references are sound.
unsafe impl Sync for Mapping {}

#[cfg(unix)]
mod sys {
    use std::os::unix::io::RawFd;

    // Minimal prototypes for the two calls used, matching the Linux/BSD
    // C library ABI. `mmap` takes a 6th `off_t` argument; declaring it
    // `i64` matches 64-bit `off_t` on the LP64 targets this runs on.
    extern "C" {
        pub fn mmap(
            addr: *mut core::ffi::c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: RawFd,
            offset: i64,
        ) -> *mut core::ffi::c_void;
        pub fn munmap(addr: *mut core::ffi::c_void, len: usize) -> i32;
    }

    pub const PROT_READ: i32 = 1;
    pub const MAP_PRIVATE: i32 = 2;
    pub const MAP_FAILED: *mut core::ffi::c_void = usize::MAX as *mut core::ffi::c_void;
}

impl Mapping {
    /// Maps `file` read-only in its entirety.
    ///
    /// Returns `Err` when the platform has no `mmap` (non-Unix) or the
    /// kernel refuses; callers are expected to fall back to a buffered
    /// read.
    #[cfg(unix)]
    pub fn of_file(file: &File) -> io::Result<Mapping> {
        use std::os::unix::io::AsRawFd;
        let len = file.metadata()?.len();
        if len == 0 {
            // A zero-length mmap is EINVAL; an empty file is simply an
            // empty byte slice.
            return Ok(Mapping {
                ptr: std::ptr::null_mut(),
                len: 0,
            });
        }
        let len = usize::try_from(len)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "file too large to map"))?;
        // SAFETY: a fresh PROT_READ/MAP_PRIVATE mapping of a file we hold
        // open; the result is checked against MAP_FAILED before use.
        let ptr = unsafe {
            sys::mmap(
                std::ptr::null_mut(),
                len,
                sys::PROT_READ,
                sys::MAP_PRIVATE,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr == sys::MAP_FAILED {
            return Err(io::Error::last_os_error());
        }
        Ok(Mapping {
            ptr: ptr.cast(),
            len,
        })
    }

    #[cfg(not(unix))]
    pub fn of_file(_file: &File) -> io::Result<Mapping> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "memory mapping is only implemented on Unix targets",
        ))
    }

    /// Number of mapped bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the mapping is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl Deref for Mapping {
    type Target = [u8];

    #[inline]
    fn deref(&self) -> &[u8] {
        if self.len == 0 {
            &[]
        } else {
            // SAFETY: `ptr` is a live PROT_READ mapping of `len` bytes,
            // unmapped only in Drop.
            unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
        }
    }
}

impl Drop for Mapping {
    fn drop(&mut self) {
        #[cfg(unix)]
        if self.len > 0 {
            // SAFETY: exactly the region mmap returned; errors at unmap
            // time are unreportable and ignored (the standard idiom).
            unsafe {
                sys::munmap(self.ptr.cast(), self.len);
            }
        }
    }
}

/// Maps an index file written by [`crate::write_index_file`] and decodes
/// it in place: the [`BankIndex`]'s row map and postings sections are
/// zero-copy views of the mapping. Where the platform cannot map the
/// file the same decoder runs over a heap read of it
/// ([`crate::read_index_file`]); either way a malformed file gets the same
/// typed error.
pub fn map_index_file(path: impl AsRef<Path>) -> Result<(BankIndex, IndexMeta), PersistError> {
    let path = path.as_ref();
    let file = File::open(path).map_err(PersistError::Io)?;
    match Mapping::of_file(&file) {
        Ok(map) => {
            let map = Arc::new(map);
            crate::persist::decode(&map, Some(&map))
        }
        // Unsupported platform / kernel refusal: same bytes, heap copy.
        Err(_) => crate::persist::read_index_file(path),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn tmp_file(name: &str, bytes: &[u8]) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("oris_mmap_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{}_{name}", std::process::id()));
        let mut f = File::create(&path).unwrap();
        f.write_all(bytes).unwrap();
        path
    }

    #[test]
    fn mapping_exposes_file_bytes() {
        let path = tmp_file("bytes", b"hello mapping");
        let map = Mapping::of_file(&File::open(&path).unwrap()).unwrap();
        assert_eq!(&*map, b"hello mapping");
        assert_eq!(map.len(), 13);
    }

    #[test]
    fn empty_file_maps_to_empty_slice() {
        let path = tmp_file("empty", b"");
        let map = Mapping::of_file(&File::open(&path).unwrap()).unwrap();
        assert!(map.is_empty());
        assert_eq!(&*map, b"");
    }

    fn bank_of(seqs: &[&str]) -> oris_seqio::Bank {
        let mut b = oris_seqio::BankBuilder::new();
        for (i, s) in seqs.iter().enumerate() {
            b.push_str(&format!("s{i}"), s).unwrap();
        }
        b.finish()
    }

    #[test]
    fn mmap_attach_equals_heap_copy() {
        use crate::structure::{BankIndex, IndexConfig};
        // The equivalence the database layer relies on: both loaders
        // produce behaviourally identical indexes — same occurrences
        // slices, stats, provenance — differing only in where the big
        // sections live. Covered for a row map storing most of its
        // bitmap words (W = 4) and few of them (W = 8).
        let bank = bank_of(&["ACGTACGTTTGGCCAAACGTNACGT", "TTGGCCAAGGTTACCA"]);
        for cfg in [
            IndexConfig::full(4),
            IndexConfig::asymmetric(5),
            IndexConfig::full(8),
        ] {
            let idx = BankIndex::build(&bank, cfg);
            let meta = IndexMeta {
                masked_fraction: 0.0,
                filter_code: 1,
                bank_hash: crate::persist::fnv1a(bank.data()),
            };
            let path = {
                let mut buf = Vec::new();
                crate::persist::write_index(&mut buf, &idx, &meta).unwrap();
                tmp_file(&format!("attach_w{}s{}", cfg.w, cfg.stride), &buf)
            };
            let (mapped, m_meta) = map_index_file(&path).unwrap();
            let (copied, c_meta) = crate::read_index_file(&path).unwrap();
            assert_eq!(m_meta, c_meta);
            assert_eq!(m_meta, meta);
            assert!(mapped.is_mmap_backed(), "unix target must really map");
            assert!(!copied.is_mmap_backed());
            assert!(mapped.populated().eq(copied.populated()));
            assert_eq!(mapped.postings(), copied.postings());
            assert_eq!(mapped.indexed_words(), copied.indexed_words());
            assert_eq!(mapped.is_fully_indexed(), copied.is_fully_indexed());
            assert_eq!(mapped.bank_len(), copied.bank_len());
            assert_eq!(mapped.distinct_codes(), copied.distinct_codes());
            for code in 0..mapped.coder().num_seeds() as u32 {
                assert_eq!(mapped.occurrences(code), copied.occurrences(code));
            }
            // The mapped index keeps the big sections off the heap.
            assert!(mapped.heap_bytes() < copied.heap_bytes());
            // A clone of a mapped index shares the mapping and stays
            // valid after the original is dropped.
            let cloned = mapped.clone();
            drop(mapped);
            assert_eq!(cloned.postings(), copied.postings());
            for code in 0..cloned.coder().num_seeds() as u32 {
                assert_eq!(cloned.occurrences(code), copied.occurrences(code));
            }
        }
    }

    #[test]
    fn both_loaders_reject_the_same_corruptions() {
        use crate::structure::{BankIndex, IndexConfig};
        let bank = bank_of(&["ACGTACGTACGTTTGGCCAA"]);
        for w in [4, 11] {
            let idx = BankIndex::build(&bank, IndexConfig::full(w));
            let mut clean = Vec::new();
            crate::persist::write_index(&mut clean, &idx, &IndexMeta::default()).unwrap();

            // Truncations, a payload flip, trailing junk and a restamped
            // non-zero header byte: the decoder must return an error
            // (never panic or accept) over mapped bytes exactly as
            // `persist::tests` shows it does over a heap buffer.
            let mut variants: Vec<Vec<u8>> = vec![];
            for cut in [0, 8, 40, clean.len() / 2, clean.len() - 1] {
                variants.push(clean[..cut].to_vec());
            }
            let mut flipped = clean.clone();
            let mid = clean.len() / 2;
            flipped[mid] ^= 0x04;
            variants.push(flipped);
            let mut trailing = clean.clone();
            trailing.push(0);
            variants.push(trailing);
            let mut reserved = clean.clone();
            reserved[21] = 0xAB; // a reserved flag byte (flags at 20..24)
            crate::persist::restamp_checksum(&mut reserved);
            variants.push(reserved);

            for (i, bytes) in variants.iter().enumerate() {
                let path = tmp_file(&format!("corrupt_w{w}_{i}"), bytes);
                assert!(
                    map_index_file(&path).is_err(),
                    "variant {i} must be rejected"
                );
            }
        }
    }

    /// An index populating a sliver of its code space — a few hundred
    /// codes at W = 8, so the row map stores few of its 1 024 bitmap
    /// words — written to a temp file: (fresh build, file path).
    fn sparse_fixture(name: &str) -> (BankIndex, std::path::PathBuf) {
        use crate::structure::IndexConfig;
        let bank = bank_of(&[
            &"ACGTTGCAAGGCTTACCGTA".repeat(8),
            "TTGGCCAAGGTTACCANACGTACGGATC",
        ]);
        let idx = BankIndex::build(&bank, IndexConfig::full(8));
        let mut bytes = Vec::new();
        crate::persist::write_index(&mut bytes, &idx, &IndexMeta::default()).unwrap();
        (idx, tmp_file(name, &bytes))
    }

    #[test]
    fn both_loaders_answer_every_code_as_the_build_does() {
        // Both loaders hand the index the file's two levels as they are,
        // and every lookup must answer as the fresh build does.
        let (built, path) = sparse_fixture("loaded_lookups");
        let (mapped, _) = map_index_file(&path).unwrap();
        let (heap, _) = crate::read_index_file(&path).unwrap();
        assert!(mapped.is_mmap_backed() && !heap.is_mmap_backed());
        assert!(built.distinct_codes() > 0);
        for idx in [&built, &mapped, &heap] {
            assert!(idx.populated().eq(built.populated()));
            for code in 0..built.coder().num_seeds() as u32 {
                assert_eq!(idx.occurrences(code), built.occurrences(code));
            }
        }
    }

    /// Byte range of the top level and of the stored bitmap words in an
    /// index file of seed length `w`: the top level starts at 88, after
    /// the header, and the words right after it.
    fn bitmap_bytes(bytes: &[u8], w: usize) -> std::ops::Range<usize> {
        let top = 8 * (1usize << (2 * w)).div_ceil(4096);
        let words = u64::from_le_bytes(bytes[52..60].try_into().unwrap()) as usize;
        88..88 + top + 8 * words
    }

    /// The row starts' derived arrays of `idx`, in `u32`s: a select
    /// sample per 64 rows and a rank per 64 high words and one more.
    fn derived_bounds(idx: &BankIndex) -> usize {
        let (n, k) = (idx.indexed_positions(), idx.distinct_codes());
        k.div_ceil(64) + crate::structure::high_len(n, k).div_ceil(64).div_ceil(64) + 1
    }

    #[test]
    fn both_loaders_refuse_every_bitmap_byte_flip() {
        // The two levels decide which codes have rows: every single-byte
        // change of the top level or of a stored word, mapped or read to
        // the heap, is refused (the checksum detects any change inside
        // one word).
        use crate::structure::IndexConfig;
        let bank = bank_of(&["ACGTTGCAAGGCTTACCGTANNACGTACGGATCTTGGCCAAGGTTACCA"]);
        for w in [2usize, 4, 6, 7] {
            let idx = BankIndex::build(&bank, IndexConfig::full(w));
            let mut clean = Vec::new();
            crate::persist::write_index(&mut clean, &idx, &IndexMeta::default()).unwrap();
            for at in bitmap_bytes(&clean, w) {
                for mask in [0x01u8, 0x80, 0xFF] {
                    let mut bytes = clean.clone();
                    bytes[at] ^= mask;
                    let path = tmp_file(&format!("bitmap_w{w}_{at}_{mask}"), &bytes);
                    assert!(map_index_file(&path).is_err(), "mapped: W {w} byte {at}");
                    assert!(
                        crate::read_index_file(&path).is_err(),
                        "heap: W {w} byte {at}"
                    );
                    std::fs::remove_file(&path).ok();
                }
            }
        }
    }

    #[test]
    fn mapped_dense_heap_is_its_ranks_and_bitset() {
        // A mapped attach holds the copied bit-set and what it derives
        // from the mapped sections: one u32 per top-level word and per
        // stored word, and the row starts' samples and block ranks; the
        // levels, row starts and postings stay in the mapping. This bank
        // stores every bitmap word of W = 4.
        use crate::structure::IndexConfig;
        let bank = bank_of(&[&"ACGTTGCAAGGCTTACCGTA".repeat(8)]);
        let idx = BankIndex::build(&bank, IndexConfig::full(4));
        assert_eq!(idx.rows().sections().1.len(), 4);
        let mut bytes = Vec::new();
        crate::persist::write_index(&mut bytes, &idx, &IndexMeta::default()).unwrap();
        let path = tmp_file("dense_heap_accounting", &bytes);
        let (mapped, _) = map_index_file(&path).unwrap();
        assert!(mapped.is_mmap_backed());
        let bitset_bytes = 8 * mapped.indexed_words().len();
        assert_eq!(
            mapped.heap_bytes(),
            bitset_bytes + 4 * (1 + 4) + 4 * derived_bounds(&idx)
        );
        assert!(idx.heap_bytes() > mapped.heap_bytes());
    }

    #[test]
    fn mapped_sparse_heap_is_its_bitset_and_ranks() {
        // What a mapped attach of a sparsely populated index really holds
        // on the heap: the copied bit-set, a rank per top-level word (16
        // at W = 8) and per stored word, and the row starts' samples and
        // block ranks. The levels, row starts and postings stay in the
        // mapping.
        let (built, path) = sparse_fixture("heap_accounting");
        let (mapped, _) = map_index_file(&path).unwrap();
        assert!(mapped.is_mmap_backed());
        let words = built.rows().sections().1.len();
        assert!(words < 1024 / 4, "{words} stored words");
        let bitset_bytes = 8 * mapped.indexed_words().len();
        assert_eq!(
            mapped.heap_bytes(),
            bitset_bytes + 4 * (16 + words) + 4 * derived_bounds(&built)
        );
        assert!(built.heap_bytes() > mapped.heap_bytes());
    }
}
