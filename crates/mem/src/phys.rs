//! Word-addressable physical memory built on the buddy allocator.
//!
//! Page tables, TEAs and hash-based page tables (ECPT) all live *in*
//! simulated physical memory: every PTE has a real physical address, which
//! is what lets the cache hierarchy decide whether a given PTE fetch hits
//! in L2, LLC, or goes to DRAM. [`PhysMemory`] provides 8-byte word
//! reads/writes keyed by [`PhysAddr`] with lazily materialized frame
//! contents (frames that never hold translation data cost nothing).

use crate::addr::{Pfn, PhysAddr, ENTRIES_PER_TABLE, PAGE_SHIFT};
use crate::buddy::{BuddyAllocator, FrameKind};
use crate::Result;

/// Word-level access plus frame allocation: the interface page tables are
/// built against.
///
/// [`PhysMemory`] implements it directly (host physical memory); the
/// virtualization layer implements it for guest-physical views, so the
/// same radix page-table code can build guest page tables whose
/// storage is transparently redirected through the host mapping.
pub trait MemoryOps {
    /// Read the 8-byte word at `addr` (must be 8-byte aligned).
    fn read_word(&self, addr: PhysAddr) -> u64;
    /// Write the 8-byte word at `addr` (must be 8-byte aligned).
    fn write_word(&mut self, addr: PhysAddr, value: u64);
    /// Read the word at `addr` and, if the closure returns a new value,
    /// write it back. Implementations may fuse the two into a single
    /// page lookup; the provided default composes [`MemoryOps::read_word`]
    /// and [`MemoryOps::write_word`]. Returns the value read.
    fn rmw_word(&mut self, addr: PhysAddr, f: impl FnOnce(u64) -> Option<u64>) -> u64
    where
        Self: Sized,
    {
        let old = self.read_word(addr);
        if let Some(new) = f(old) {
            self.write_word(addr, new);
        }
        old
    }
    /// Allocate one zeroed frame for the given purpose.
    ///
    /// # Errors
    ///
    /// Returns an allocator error when memory is exhausted.
    fn alloc_zeroed_frame(&mut self, kind: FrameKind) -> Result<Pfn>;
    /// Free one frame.
    ///
    /// # Errors
    ///
    /// Returns an allocator error on invalid frees.
    fn free_frame(&mut self, pfn: Pfn) -> Result<()>;
    /// Copy a frame's full contents.
    fn copy_frame(&mut self, src: Pfn, dst: Pfn);
}

impl MemoryOps for PhysMemory {
    fn read_word(&self, addr: PhysAddr) -> u64 {
        PhysMemory::read_word(self, addr)
    }
    fn write_word(&mut self, addr: PhysAddr, value: u64) {
        PhysMemory::write_word(self, addr, value)
    }
    fn rmw_word(&mut self, addr: PhysAddr, f: impl FnOnce(u64) -> Option<u64>) -> u64 {
        PhysMemory::rmw_word(self, addr, f)
    }
    fn alloc_zeroed_frame(&mut self, kind: FrameKind) -> Result<Pfn> {
        PhysMemory::alloc_zeroed_frame(self, kind)
    }
    fn free_frame(&mut self, pfn: Pfn) -> Result<()> {
        PhysMemory::free_frame(self, pfn)
    }
    fn copy_frame(&mut self, src: Pfn, dst: Pfn) {
        PhysMemory::copy_frame(self, src, dst)
    }
}

/// Physical memory: a buddy allocator plus sparse 8-byte-word contents.
///
/// # Examples
///
/// ```
/// use dmt_mem::phys::PhysMemory;
/// use dmt_mem::buddy::FrameKind;
/// use dmt_mem::addr::PhysAddr;
/// # fn main() -> Result<(), dmt_mem::MemError> {
/// let mut pm = PhysMemory::new_frames(1024);
/// let frame = pm.alloc_frame(FrameKind::PageTable)?;
/// let slot = PhysAddr::from_pfn(frame) + 8 * 42;
/// pm.write_word(slot, 0xdead_beef);
/// assert_eq!(pm.read_word(slot), 0xdead_beef);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct PhysMemory {
    buddy: BuddyAllocator,
    /// Frame contents, materialized on first write.
    words: FrameTable,
}

impl PhysMemory {
    /// Create physical memory with the given number of 4 KiB frames.
    pub fn new_frames(frames: u64) -> Self {
        PhysMemory {
            buddy: BuddyAllocator::new(frames),
            words: FrameTable::new(frames),
        }
    }

    /// Create physical memory of the given byte size (rounded down to
    /// frames).
    pub fn new_bytes(bytes: u64) -> Self {
        Self::new_frames(bytes >> PAGE_SHIFT)
    }

    /// The underlying buddy allocator.
    pub fn buddy(&self) -> &BuddyAllocator {
        &self.buddy
    }

    /// Mutable access to the underlying buddy allocator.
    pub fn buddy_mut(&mut self) -> &mut BuddyAllocator {
        &mut self.buddy
    }

    /// Allocate one frame.
    ///
    /// # Errors
    ///
    /// Propagates [`crate::MemError::OutOfMemory`].
    pub fn alloc_frame(&mut self, kind: FrameKind) -> Result<Pfn> {
        self.buddy.alloc_order(0, kind)
    }

    /// Allocate a zeroed frame (used for fresh page-table pages).
    ///
    /// # Errors
    ///
    /// Propagates [`crate::MemError::OutOfMemory`].
    pub fn alloc_zeroed_frame(&mut self, kind: FrameKind) -> Result<Pfn> {
        let pfn = self.buddy.alloc_order(0, kind)?;
        self.words.clear(pfn.0);
        Ok(pfn)
    }

    /// Allocate `n` contiguous frames (the `alloc_contig_pages` analog).
    ///
    /// # Errors
    ///
    /// Propagates [`crate::MemError::NoContiguousRun`].
    pub fn alloc_contig(&mut self, n: u64, kind: FrameKind) -> Result<Pfn> {
        self.buddy.alloc_contig(n, kind)
    }

    /// Free one frame, dropping its contents.
    ///
    /// # Errors
    ///
    /// Propagates [`crate::MemError::InvalidFree`].
    pub fn free_frame(&mut self, pfn: Pfn) -> Result<()> {
        self.buddy.free_order(pfn, 0)?;
        self.words.clear(pfn.0);
        Ok(())
    }

    /// Free `n` contiguous frames, dropping their contents.
    ///
    /// # Errors
    ///
    /// Propagates [`crate::MemError::InvalidFree`].
    pub fn free_contig(&mut self, pfn: Pfn, n: u64) -> Result<()> {
        self.buddy.free_contig(pfn, n)?;
        for f in pfn.0..pfn.0 + n {
            self.words.clear(f);
        }
        Ok(())
    }

    /// Read the 8-byte word at a physical address (must be 8-byte aligned).
    ///
    /// Unwritten words read as zero, like freshly zeroed memory.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not 8-byte aligned.
    pub fn read_word(&self, addr: PhysAddr) -> u64 {
        assert_eq!(addr.0 % 8, 0, "unaligned word read at {addr}");
        let idx = (addr.page_offset() / 8) as usize;
        self.words.get(addr.pfn().0).map_or(0, |w| w[idx])
    }

    /// Write the 8-byte word at a physical address (must be 8-byte aligned).
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not 8-byte aligned.
    pub fn write_word(&mut self, addr: PhysAddr, value: u64) {
        assert_eq!(addr.0 % 8, 0, "unaligned word write at {addr}");
        let idx = (addr.page_offset() / 8) as usize;
        self.words.get_or_insert(addr.pfn().0)[idx] = value;
    }

    /// Fused read-modify-write: one frame lookup serves both the read
    /// and (when the closure asks for it) the write-back.
    /// Returns the value read; unwritten words read as zero.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not 8-byte aligned.
    pub fn rmw_word(&mut self, addr: PhysAddr, f: impl FnOnce(u64) -> Option<u64>) -> u64 {
        assert_eq!(addr.0 % 8, 0, "unaligned word rmw at {addr}");
        let pfn = addr.pfn().0;
        let idx = (addr.page_offset() / 8) as usize;
        match self.words.get_mut(pfn) {
            Some(w) => {
                let old = w[idx];
                if let Some(new) = f(old) {
                    w[idx] = new;
                }
                old
            }
            None => {
                if let Some(new) = f(0) {
                    self.words.get_or_insert(pfn)[idx] = new;
                }
                0
            }
        }
    }

    /// Zero a frame's contents (e.g. when recycling a guest frame whose
    /// backing host frame stays allocated).
    pub fn zero_frame(&mut self, pfn: Pfn) {
        self.words.clear(pfn.0);
    }

    /// Copy the full contents of one frame to another (TEA migration,
    /// compaction).
    pub fn copy_frame(&mut self, src: Pfn, dst: Pfn) {
        match self.words.get(src.0).copied() {
            Some(content) => *self.words.get_or_insert(dst.0) = content,
            None => self.words.clear(dst.0),
        }
    }

    /// Bytes of physical memory currently allocated for the given kind.
    pub fn bytes_of_kind(&self, kind: FrameKind) -> u64 {
        self.buddy.allocated_of_kind(kind) << PAGE_SHIFT
    }
}

/// One frame's content: 512 words.
type Frame = [u64; ENTRIES_PER_TABLE as usize];

/// Frames per directory of the [`FrameTable`].
const DIR_BITS: u32 = 9;
const DIR_LEN: usize = 1 << DIR_BITS;

/// One directory: a slot per frame, `None` until the frame is written.
type Dir = [Option<Box<Frame>>; DIR_LEN];

/// Sparse frame contents as a two-level table: a directory indexed by
/// `pfn >> 9`, then a frame slot indexed by `pfn & 511`. Directories and
/// frames are allocated on first write, and so is the list of
/// directories, which grows to the highest directory written, so a
/// lookup is two array loads and no hash — this sits under every PTE
/// read of every page walk. Frames without content read as zero, for
/// any frame number.
#[derive(Debug, Clone)]
struct FrameTable {
    dirs: Vec<Option<Box<Dir>>>,
    /// Directories that cover the managed frames: growth reserves no
    /// room past this many.
    max_dirs: usize,
}

impl FrameTable {
    fn new(frames: u64) -> Self {
        FrameTable {
            dirs: Vec::new(),
            max_dirs: frames.div_ceil(DIR_LEN as u64) as usize,
        }
    }

    #[inline]
    fn split(pfn: u64) -> (usize, usize) {
        ((pfn >> DIR_BITS) as usize, (pfn as usize) & (DIR_LEN - 1))
    }

    #[inline]
    fn get(&self, pfn: u64) -> Option<&Frame> {
        let (d, f) = Self::split(pfn);
        self.dirs.get(d)?.as_ref()?[f].as_deref()
    }

    #[inline]
    fn get_mut(&mut self, pfn: u64) -> Option<&mut Frame> {
        let (d, f) = Self::split(pfn);
        self.dirs.get_mut(d)?.as_mut()?[f].as_deref_mut()
    }

    /// The frame's content, materialized as zeros if absent.
    fn get_or_insert(&mut self, pfn: u64) -> &mut Frame {
        let (d, f) = Self::split(pfn);
        if d >= self.dirs.len() {
            if d >= self.dirs.capacity() {
                // Double as a `Vec` would, but never past the managed frames.
                let room = (2 * self.dirs.capacity()).min(self.max_dirs).max(d + 1);
                self.dirs.reserve_exact(room - self.dirs.len());
            }
            self.dirs.resize(d + 1, None);
        }
        let dir = self.dirs[d].get_or_insert_with(|| Box::new([const { None }; DIR_LEN]));
        dir[f].get_or_insert_with(|| Box::new([0; ENTRIES_PER_TABLE as usize]))
    }

    /// Drop the frame's content, so it reads as zero again.
    fn clear(&mut self, pfn: u64) {
        let (d, f) = Self::split(pfn);
        if let Some(Some(dir)) = self.dirs.get_mut(d) {
            dir[f] = None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::PhysAddr;

    #[test]
    fn words_default_to_zero() {
        let mut pm = PhysMemory::new_frames(16);
        let f = pm.alloc_frame(FrameKind::PageTable).unwrap();
        assert_eq!(pm.read_word(PhysAddr::from_pfn(f)), 0);
    }

    #[test]
    fn read_back_what_was_written() {
        let mut pm = PhysMemory::new_frames(16);
        let f = pm.alloc_frame(FrameKind::PageTable).unwrap();
        let base = PhysAddr::from_pfn(f);
        for i in 0..512u64 {
            pm.write_word(base + i * 8, i * 3);
        }
        for i in 0..512u64 {
            assert_eq!(pm.read_word(base + i * 8), i * 3);
        }
    }

    #[test]
    #[should_panic(expected = "unaligned")]
    fn unaligned_read_panics() {
        let pm = PhysMemory::new_frames(16);
        pm.read_word(PhysAddr(4));
    }

    #[test]
    fn freeing_drops_contents() {
        let mut pm = PhysMemory::new_frames(16);
        let f = pm.alloc_frame(FrameKind::PageTable).unwrap();
        let base = PhysAddr::from_pfn(f);
        pm.write_word(base, 99);
        pm.free_frame(f).unwrap();
        let f2 = pm.alloc_frame(FrameKind::PageTable).unwrap();
        // The recycled frame must read as zero.
        assert_eq!(pm.read_word(PhysAddr::from_pfn(f2)), 0);
    }

    #[test]
    fn copy_frame_duplicates_contents() {
        let mut pm = PhysMemory::new_frames(16);
        let a = pm.alloc_frame(FrameKind::Tea).unwrap();
        let b = pm.alloc_frame(FrameKind::Tea).unwrap();
        pm.write_word(PhysAddr::from_pfn(a) + 16, 7);
        pm.copy_frame(a, b);
        assert_eq!(pm.read_word(PhysAddr::from_pfn(b) + 16), 7);
        // Copying an empty frame clears the destination.
        let c = pm.alloc_frame(FrameKind::Tea).unwrap();
        pm.copy_frame(c, b);
        assert_eq!(pm.read_word(PhysAddr::from_pfn(b) + 16), 0);
    }

    #[test]
    fn frame_directory_grows_on_first_write_up_to_the_managed_frames() {
        // 11 directories' worth of frames, the last one holding one frame.
        let mut pm = PhysMemory::new_frames(10 * 512 + 1);
        let at = |d: u64| PhysAddr::from_pfn(Pfn(d * 512));
        assert_eq!(pm.words.dirs.capacity(), 0);
        pm.write_word(at(0), 1);
        assert_eq!(pm.words.dirs.len(), 1);
        pm.write_word(at(3), 2);
        assert_eq!(pm.words.dirs.len(), 4);
        pm.write_word(at(10), 3);
        assert_eq!(pm.words.dirs.len(), 11);
        assert!(pm.words.dirs.capacity() <= 11);
        // Frames past the managed ones still hold content.
        pm.write_word(at(40), 4);
        for (d, v) in [(0, 1), (3, 2), (10, 3), (40, 4), (20, 0)] {
            assert_eq!(pm.read_word(at(d)), v);
        }
    }

    #[test]
    fn kind_byte_accounting() {
        let mut pm = PhysMemory::new_bytes(1 << 20); // 256 frames
        pm.alloc_contig(10, FrameKind::Tea).unwrap();
        pm.alloc_frame(FrameKind::PageTable).unwrap();
        assert_eq!(pm.bytes_of_kind(FrameKind::Tea), 10 * 4096);
        assert_eq!(pm.bytes_of_kind(FrameKind::PageTable), 4096);
    }
}
