//! Zero-filled byte regions that the kernel commits page by page on first
//! touch.
//!
//! Two per-rank allocations grow with the rank count: every rank's patch
//! of ARMCI segment memory (the task-queue slots dominate) and every
//! rank's fiber stack. A run touches a sliver of either, so both are
//! backed by [`ZeroedBytes`] instead of `vec![0u8; n]`: on Linux a part of
//! [`MAP_THRESHOLD`] bytes or more lives in an anonymous private mapping,
//! which reads as zero and costs a resident page only once something
//! writes to it. A heap `calloc` of the same size has to zero every byte
//! as soon as the allocator hands out reused memory.
//!
//! * [`ZeroedBytes::parts`] carves `count` equal parts out of **one**
//!   mapping (each part starts on a page boundary, so parts never share a
//!   page), so a collective segment costs one mapping whatever the rank
//!   count. Parts below the threshold stay on the heap: an 8-byte
//!   protocol word must not cost a page and a syscall.
//! * [`ZeroedBytes::guarded_parts`] does the same for stacks, with one
//!   `PROT_NONE` page below every part, so a stack overflow faults
//!   instead of writing into its neighbour (two mappings per part).
//! * [`ZeroedBytes::resident_pages`] counts a mapped part's resident
//!   pages with one `mincore` call, touching none of them.
//!
//! The system calls are declared against the C library `std` already
//! links; no crate is added. Other targets keep plain heap memory
//! (and stacks get no guard page there).

use std::ops::{Deref, DerefMut};
use std::ptr::NonNull;
use std::sync::Arc;

/// Parts of at least this many bytes are mapped; smaller ones stay on
/// the heap. A multiple of every page size Linux uses (4, 16, 64 KiB).
pub const MAP_THRESHOLD: usize = 64 * 1024;

/// A zero-initialized, fixed-length byte buffer. Derefs to `[u8]`.
pub struct ZeroedBytes(Repr);

enum Repr {
    Heap(Box<[u8]>),
    /// A page-aligned window of `len` bytes into a shared mapping; the
    /// `Arc` keeps the mapping alive until its last part drops.
    Mapped {
        ptr: NonNull<u8>,
        len: usize,
        _map: Arc<Mapping>,
    },
}

// SAFETY: a mapped part is a window no other part overlaps, so a
// `ZeroedBytes` owns its bytes exactly as a `Box<[u8]>` does: `&self`
// only reads them and `&mut self` is the sole writer.
unsafe impl Send for ZeroedBytes {}
// SAFETY: as for `Send`; shared references only ever read the window.
unsafe impl Sync for ZeroedBytes {}

impl ZeroedBytes {
    /// `count` zeroed buffers of `len` bytes each. When `len` is at least
    /// [`MAP_THRESHOLD`] (and the target supports it) they share one
    /// anonymous mapping and commit memory page by page as they are
    /// written; otherwise each is its own heap allocation.
    pub fn parts(count: usize, len: usize) -> Vec<ZeroedBytes> {
        if !sys::SUPPORTED || len < MAP_THRESHOLD {
            return (0..count).map(|_| Self::heap(len)).collect();
        }
        Self::carve(count, len, 0)
    }

    /// `count` zeroed stacks of `len` bytes rounded up to whole pages,
    /// each with an inaccessible guard page directly below it. Always
    /// mapped where supported; plain heap buffers (no guard) elsewhere.
    pub fn guarded_parts(count: usize, len: usize) -> Vec<ZeroedBytes> {
        if !sys::SUPPORTED {
            return (0..count).map(|_| Self::heap(len)).collect();
        }
        let page = sys::page_size();
        Self::carve(count, len.div_ceil(page) * page, page)
    }

    /// Pages of this buffer currently resident in memory, or `None` for a
    /// heap buffer. One `mincore` call; touches no page. Counts the
    /// pages the buffer overlaps, so a buffer that is not a whole number
    /// of pages may report up to one page more than its length.
    pub fn resident_pages(&self) -> Option<usize> {
        match &self.0 {
            Repr::Heap(_) => None,
            // SAFETY: the window is page-aligned and lies inside a live
            // mapping (held by `_map`), which is all mincore requires.
            Repr::Mapped { ptr, len, .. } => {
                Some(unsafe { sys::resident_pages(ptr.as_ptr(), *len) })
            }
        }
    }

    fn heap(len: usize) -> ZeroedBytes {
        ZeroedBytes(Repr::Heap(vec![0u8; len].into_boxed_slice()))
    }

    /// Map `count` parts of `len` bytes, each preceded by `guard` bytes
    /// (0 or one page) that are made inaccessible.
    fn carve(count: usize, len: usize, guard: usize) -> Vec<ZeroedBytes> {
        if count == 0 {
            return Vec::new();
        }
        let page = sys::page_size();
        let stride = guard + len.div_ceil(page) * page;
        let total = stride
            .checked_mul(count)
            .unwrap_or_else(|| panic!("zeroed mapping of {count} x {stride} bytes overflows"));
        let map = Arc::new(Mapping::new(total));
        (0..count)
            .map(|i| {
                let start = map.base + i * stride;
                if guard > 0 {
                    // SAFETY: `[start, start + guard)` is a page-aligned
                    // range inside the fresh mapping that no part covers.
                    unsafe { sys::protect_none(start as *mut u8, guard) };
                }
                let ptr = NonNull::new((start + guard) as *mut u8).expect("mapping is non-null");
                ZeroedBytes(Repr::Mapped {
                    ptr,
                    len,
                    _map: Arc::clone(&map),
                })
            })
            .collect()
    }
}

impl Deref for ZeroedBytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        match &self.0 {
            Repr::Heap(b) => b,
            // SAFETY: `ptr..ptr + len` is readable, zero-initialized by the
            // kernel, kept mapped by `_map`, and overlapped by no other
            // part; the borrow of `self` bounds the slice's lifetime.
            Repr::Mapped { ptr, len, .. } => unsafe {
                std::slice::from_raw_parts(ptr.as_ptr(), *len)
            },
        }
    }
}

impl DerefMut for ZeroedBytes {
    fn deref_mut(&mut self) -> &mut [u8] {
        match &mut self.0 {
            Repr::Heap(b) => b,
            // SAFETY: as in `deref`, and `&mut self` makes this the only
            // live reference into the window.
            Repr::Mapped { ptr, len, .. } => unsafe {
                std::slice::from_raw_parts_mut(ptr.as_ptr(), *len)
            },
        }
    }
}

/// One anonymous mapping, unmapped on drop. Holds the address as a plain
/// integer: the parts carry the pointers, this only releases the range.
struct Mapping {
    base: usize,
    len: usize,
}

impl Mapping {
    fn new(len: usize) -> Mapping {
        Mapping {
            base: sys::map(len) as usize,
            len,
        }
    }
}

impl Drop for Mapping {
    fn drop(&mut self) {
        // SAFETY: `base..base + len` is exactly the range `sys::map`
        // returned, and every part borrowing it has dropped (each holds
        // an `Arc` to this mapping).
        unsafe { sys::unmap(self.base as *mut u8, self.len) };
    }
}

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod sys {
    //! Linux system calls, with the flag values of x86_64 and aarch64.
    use std::ffi::{c_int, c_long, c_void};

    pub(super) const SUPPORTED: bool = true;

    const PROT_NONE: c_int = 0;
    const PROT_READ: c_int = 1;
    const PROT_WRITE: c_int = 2;
    const MAP_PRIVATE: c_int = 0x02;
    const MAP_ANONYMOUS: c_int = 0x20;
    /// Reserve no swap up front: most of a segment is never touched, and
    /// heuristic overcommit refuses one mapping larger than RAM + swap.
    const MAP_NORESERVE: c_int = 0x4000;
    /// Keep commit page-granular even where transparent huge pages are
    /// enabled for every mapping: one touched word must cost one page.
    const MADV_NOHUGEPAGE: c_int = 15;

    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            off: c_long,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> c_int;
        fn mprotect(addr: *mut c_void, len: usize, prot: c_int) -> c_int;
        fn madvise(addr: *mut c_void, len: usize, advice: c_int) -> c_int;
        fn mincore(addr: *mut c_void, len: usize, vec: *mut u8) -> c_int;
        fn getpagesize() -> c_int;
    }

    pub(super) fn page_size() -> usize {
        // SAFETY: getpagesize takes no arguments and cannot fail.
        unsafe { getpagesize() as usize }
    }

    /// Map `len` (> 0) zeroed, readable and writable bytes.
    pub(super) fn map(len: usize) -> *mut u8 {
        // SAFETY: an anonymous private mapping at a kernel-chosen address
        // aliases nothing; the result is checked before use.
        let p = unsafe {
            mmap(
                std::ptr::null_mut(),
                len,
                PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE,
                -1,
                0,
            )
        };
        if p as isize == -1 {
            panic!(
                "mmap of {len} zeroed bytes failed: {}",
                std::io::Error::last_os_error()
            );
        }
        // Advisory: a kernel without THP support rejects it harmlessly.
        // SAFETY: `p..p + len` is the mapping just created.
        unsafe { madvise(p, len, MADV_NOHUGEPAGE) };
        p.cast()
    }

    /// # Safety
    /// `p..p + len` must be a range returned by [`map`] that nothing
    /// references any more.
    pub(super) unsafe fn unmap(p: *mut u8, len: usize) {
        // Called from `Drop`, which must not panic; unmapping a range
        // `map` returned cannot fail, and a leak is the worst outcome.
        // SAFETY: upheld by the caller.
        unsafe { munmap(p.cast(), len) };
    }

    /// # Safety
    /// `p..p + len` must be page-aligned, inside a live mapping, and not
    /// referenced by any Rust value.
    pub(super) unsafe fn protect_none(p: *mut u8, len: usize) {
        // SAFETY: upheld by the caller.
        let rc = unsafe { mprotect(p.cast(), len, PROT_NONE) };
        assert_eq!(
            rc,
            0,
            "mprotect of a guard page failed: {}",
            std::io::Error::last_os_error()
        );
    }

    /// # Safety
    /// `p` must be page-aligned and `p..p + len` inside a live mapping.
    pub(super) unsafe fn resident_pages(p: *mut u8, len: usize) -> usize {
        let mut vec = vec![0u8; len.div_ceil(page_size())];
        // SAFETY: upheld by the caller; `vec` has one byte per page.
        let rc = unsafe { mincore(p.cast(), len, vec.as_mut_ptr()) };
        assert_eq!(rc, 0, "mincore failed: {}", std::io::Error::last_os_error());
        vec.iter().filter(|&&b| b & 1 != 0).count()
    }
}

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
mod sys {
    //! No mapping support: every buffer stays on the heap.

    pub(super) const SUPPORTED: bool = false;

    pub(super) fn page_size() -> usize {
        4096
    }

    pub(super) fn map(_len: usize) -> *mut u8 {
        unreachable!("page mapping is unsupported on this target")
    }

    pub(super) unsafe fn unmap(_p: *mut u8, _len: usize) {
        unreachable!("page mapping is unsupported on this target")
    }

    pub(super) unsafe fn protect_none(_p: *mut u8, _len: usize) {
        unreachable!("page mapping is unsupported on this target")
    }

    pub(super) unsafe fn resident_pages(_p: *mut u8, _len: usize) -> usize {
        unreachable!("page mapping is unsupported on this target")
    }
}

/// Size of a memory page on this host (4096 where mapping is unsupported).
pub fn page_size() -> usize {
    sys::page_size()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parts_are_zeroed_disjoint_and_sized() {
        for len in [
            0,
            24,
            MAP_THRESHOLD - 1,
            MAP_THRESHOLD,
            3 * MAP_THRESHOLD + 5,
        ] {
            let mut parts = ZeroedBytes::parts(3, len);
            assert_eq!(parts.len(), 3);
            for (i, p) in parts.iter_mut().enumerate() {
                assert_eq!(p.len(), len);
                assert!(p.iter().all(|&b| b == 0), "part {i} of {len} B not zeroed");
                p.fill(i as u8 + 1);
            }
            for (i, p) in parts.iter().enumerate() {
                assert!(
                    p.iter().all(|&b| b == i as u8 + 1),
                    "part {i} of {len} B overwritten"
                );
            }
        }
        assert!(ZeroedBytes::parts(0, MAP_THRESHOLD).is_empty());
    }

    #[test]
    fn only_parts_at_the_threshold_are_mapped() {
        let below = ZeroedBytes::parts(1, MAP_THRESHOLD - 1);
        assert_eq!(below[0].resident_pages(), None);
        let at = ZeroedBytes::parts(1, MAP_THRESHOLD);
        assert_eq!(at[0].resident_pages().is_some(), sys::SUPPORTED);
    }

    #[test]
    fn mapped_parts_commit_only_touched_pages() {
        if !sys::SUPPORTED {
            return;
        }
        let page = page_size();
        let mut parts = ZeroedBytes::parts(4, 64 * MAP_THRESHOLD);
        assert!(parts.iter().all(|p| p.resident_pages() == Some(0)));
        parts[2][0] = 1;
        parts[2][5 * page + 3] = 1;
        assert_eq!(parts[2].resident_pages(), Some(2));
        assert_eq!(parts[1].resident_pages(), Some(0));
        assert_eq!(parts[3].resident_pages(), Some(0));
    }

    #[test]
    fn guarded_parts_round_to_pages_and_outlive_siblings() {
        let page = page_size();
        let mut parts = ZeroedBytes::guarded_parts(3, 40 * 1024 + 1);
        let len = parts[0].len();
        if sys::SUPPORTED {
            assert_eq!(len % page, 0);
            assert!(len > 40 * 1024);
        }
        let last = len - 1;
        parts[1][last] = 7;
        // Dropping siblings must not unmap the survivor.
        let survivor = parts.swap_remove(1);
        drop(parts);
        assert_eq!(survivor[last], 7);
        assert!(survivor[..last].iter().all(|&b| b == 0));
    }
}
