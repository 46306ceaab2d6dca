//! Backing storage for the CSR index arrays: owned heap vectors, or
//! zero-copy views into a memory-mapped index file.
//!
//! The postings and row-map sections dominate an index's footprint
//! (`4·indexed_positions` and ≈ `2·distinct + 4^W/8` bytes), and a
//! sharded database attaches many volumes per process: copying those
//! sections into heap arrays on every attach would multiply resident
//! memory by the volume count. A [`Section`] lets [`crate::BankIndex`]
//! hold either representation behind one `&[T]` view. Fresh builds own
//! their arrays; the index-file decoder (`persist::decode`) produces
//! mapped views when it is given the mapping its bytes come from and the
//! target allows a typed view (little-endian, section aligned), and owned
//! decoded copies otherwise. A mapped section's bytes stay in the
//! (shared, evictable) page cache and the heap holds only the `Arc` and a
//! fat pointer.

use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

use crate::mmap::Mapping;

/// One index array section: an owned `Vec<T>` or a typed view into a
/// shared read-only [`Mapping`].
pub(crate) enum Section<T: 'static> {
    Owned(Vec<T>),
    /// A view into `map`. The pointer/length pair is derived from the
    /// mapping's bytes (alignment and bounds validated by
    /// [`Section::mapped`]);
    /// holding the `Arc` keeps the mapping alive for as long as any
    /// section references it.
    Mapped {
        map: Arc<Mapping>,
        ptr: *const T,
        len: usize,
    },
}

// SAFETY: the mapped form is a read-only view into a private, read-only
// file mapping that lives as long as the `Arc<Mapping>`; no `&mut`
// access to the underlying bytes exists anywhere, so sharing across
// threads is sound (same reasoning as `Arc<Vec<T>>`).
unsafe impl<T: Send + Sync> Send for Section<T> {}
// SAFETY: same rationale as `Send` above — the view is immutable for its
// whole lifetime, so `&Section<T>` can cross threads freely.
unsafe impl<T: Send + Sync> Sync for Section<T> {}

impl<T> Section<T> {
    /// A zero-copy section over `map[byte_off .. byte_off + len*size_of::<T>()]`.
    ///
    /// Returns `None` when the range is out of bounds or misaligned for
    /// `T` — the decoder falls back to a heap copy instead of faulting.
    pub(crate) fn mapped(map: &Arc<Mapping>, byte_off: usize, len: usize) -> Option<Section<T>> {
        let bytes = len.checked_mul(std::mem::size_of::<T>())?;
        let end = byte_off.checked_add(bytes)?;
        if end > map.len() {
            return None;
        }
        let ptr = map[byte_off..].as_ptr();
        if !(ptr as usize).is_multiple_of(std::mem::align_of::<T>()) {
            return None;
        }
        Some(Section::Mapped {
            map: Arc::clone(map),
            ptr: ptr.cast(),
            len,
        })
    }

    /// Heap bytes this section owns: the vector's payload for the owned
    /// form, zero for a mapped view (the bytes belong to the page cache,
    /// not this process's heap).
    pub(crate) fn heap_bytes(&self) -> usize {
        match self {
            Section::Owned(v) => v.len() * std::mem::size_of::<T>(),
            Section::Mapped { .. } => 0,
        }
    }

    /// Whether this section is a view into a mapped file.
    pub(crate) fn is_mapped(&self) -> bool {
        matches!(self, Section::Mapped { .. })
    }
}

impl<T> Deref for Section<T> {
    type Target = [T];

    #[inline]
    fn deref(&self) -> &[T] {
        match self {
            Section::Owned(v) => v,
            // SAFETY: constructed only by `Section::mapped`, which bounds-
            // and alignment-checked the range against the mapping the
            // section still holds alive.
            Section::Mapped { ptr, len, .. } => unsafe { std::slice::from_raw_parts(*ptr, *len) },
        }
    }
}

impl<T> From<Vec<T>> for Section<T> {
    fn from(v: Vec<T>) -> Section<T> {
        Section::Owned(v)
    }
}

impl<T: Clone> Clone for Section<T> {
    fn clone(&self) -> Section<T> {
        match self {
            Section::Owned(v) => Section::Owned(v.clone()),
            Section::Mapped { map, ptr, len } => Section::Mapped {
                map: Arc::clone(map),
                ptr: *ptr,
                len: *len,
            },
        }
    }
}

impl<T: fmt::Debug> fmt::Debug for Section<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let tag = if self.is_mapped() { "Mapped" } else { "Owned" };
        write!(f, "Section::{tag}({} items)", self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn owned_section_derefs_and_counts_heap() {
        let s: Section<u32> = vec![1u32, 2, 3].into();
        assert_eq!(&*s, &[1, 2, 3]);
        assert!(s.heap_bytes() >= 12);
        assert!(!s.is_mapped());
    }
}
