//! Free-memory fragmentation metrics and a controllable fragmenter.
//!
//! §6.3 of the paper measures DMT's management overhead on "a highly
//! fragmented memory (using a fragmentation tool ... with a free memory
//! fragmentation index of 0.99)". [`fragmentation_index`] is the Linux
//! `extfrag_index` analog and [`Fragmenter`] is the fragmentation tool.

use crate::buddy::{BuddyAllocator, FrameKind};
use crate::Result;

/// Free-memory fragmentation index for allocations of `2^order` frames.
///
/// Follows the kernel's `fragmentation_index`: with `F` free frames split
/// into `B` free blocks, the index for a request of `2^order` frames is
/// `1 - (F / 2^order) / B`. Values near 0 mean free memory is in large
/// blocks; values near 1 mean it is shattered into many small blocks, so a
/// contiguous allocation of that order is likely to fail.
///
/// Returns 0.0 when there are no free blocks at all (that is an
/// out-of-memory situation, not a fragmentation one — same convention as
/// the kernel).
///
/// # Examples
///
/// ```
/// use dmt_mem::buddy::BuddyAllocator;
/// use dmt_mem::frag::fragmentation_index;
/// let buddy = BuddyAllocator::new(1024);
/// // One giant free block: no fragmentation at any order it can satisfy.
/// assert!(fragmentation_index(&buddy, 9) < 0.01);
/// ```
pub fn fragmentation_index(buddy: &BuddyAllocator, order: u8) -> f64 {
    let blocks = buddy.free_block_count();
    if blocks == 0 {
        return 0.0;
    }
    let free = buddy.free_frames() as f64;
    let requested = (1u64 << order) as f64;
    let idx = 1.0 - (free / requested) / blocks as f64;
    idx.max(0.0)
}

/// Drives a [`BuddyAllocator`] into a controlled state of fragmentation by
/// allocating data frames and freeing isolated singletons.
///
/// After [`Fragmenter::fragment`], every free frame is an isolated order-0
/// block, which yields a fragmentation index of `1 - 2^-order` for any
/// order — 0.998 at the 2 MiB order, matching the paper's 0.99 setup.
#[derive(Debug)]
pub struct Fragmenter {
    held: Vec<crate::addr::Pfn>,
}

impl Fragmenter {
    /// Create a fragmenter holding no frames.
    pub fn new() -> Self {
        Fragmenter { held: Vec::new() }
    }

    /// Allocate all remaining memory as data frames, then free isolated
    /// frames until roughly `free_fraction` of memory is free again.
    ///
    /// Freed frames are spaced at least two apart so they can never merge,
    /// maximizing the fragmentation index.
    ///
    /// # Errors
    ///
    /// Propagates allocator errors (should not occur on a healthy
    /// allocator).
    pub fn fragment(&mut self, buddy: &mut BuddyAllocator, free_fraction: f64) -> Result<()> {
        assert!(
            (0.0..=0.5).contains(&free_fraction),
            "isolated singletons can cover at most half of memory"
        );
        while buddy.free_frames() > 0 {
            let order = buddy.largest_free_block().trailing_zeros() as u8;
            self.held.push(buddy.alloc_order(order, FrameKind::Data)?);
            // Immediately shatter large blocks into singles.
            if order > 0 {
                let head = *self.held.last().unwrap();
                buddy.free_order(head, order)?;
                self.held.pop();
                for f in 0..(1u64 << order) {
                    self.held
                        .push(buddy.reserve_single(head.0 + f, FrameKind::Data)?);
                }
            }
        }
        let target_free = (buddy.total_frames() as f64 * free_fraction) as u64;
        // Free every other frame (in sorted order) so freed frames can
        // never merge with a buddy.
        self.held.sort();
        let mut kept = Vec::with_capacity(self.held.len());
        let mut freed = 0u64;
        for (idx, pfn) in std::mem::take(&mut self.held).into_iter().enumerate() {
            if freed < target_free && idx % 2 == 0 {
                buddy.free_order(pfn, 0)?;
                freed += 1;
            } else {
                kept.push(pfn);
            }
        }
        self.held = kept;
        Ok(())
    }

    /// Release every frame the fragmenter holds.
    ///
    /// # Errors
    ///
    /// Propagates allocator errors.
    pub fn release_all(&mut self, buddy: &mut BuddyAllocator) -> Result<()> {
        for pfn in self.held.drain(..) {
            buddy.free_order(pfn, 0)?;
        }
        Ok(())
    }
}

impl Default for Fragmenter {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pristine_memory_has_low_index() {
        let buddy = BuddyAllocator::new(4096);
        assert!(fragmentation_index(&buddy, 0) <= 0.0 + 1e-9);
        assert!(fragmentation_index(&buddy, 9) < 0.01);
    }

    #[test]
    fn no_free_memory_reports_zero() {
        let mut buddy = BuddyAllocator::new(64);
        while buddy.free_frames() > 0 {
            buddy.alloc_order(0, FrameKind::Data).unwrap();
        }
        assert_eq!(fragmentation_index(&buddy, 9), 0.0);
    }

    #[test]
    fn fragmenter_reaches_high_index() {
        let mut buddy = BuddyAllocator::new(4096);
        let mut fr = Fragmenter::new();
        fr.fragment(&mut buddy, 0.25).unwrap();
        // Every free frame should be an isolated singleton.
        assert_eq!(buddy.free_block_count(), buddy.free_frames());
        let idx = fragmentation_index(&buddy, 9);
        assert!(idx > 0.99, "index was {idx}");
        // Contiguous allocation beyond one frame must now fail.
        assert!(buddy.alloc_contig(2, FrameKind::Tea).is_err());
    }

    #[test]
    fn release_restores_memory() {
        let mut buddy = BuddyAllocator::new(1024);
        let mut fr = Fragmenter::new();
        fr.fragment(&mut buddy, 0.1).unwrap();
        fr.release_all(&mut buddy).unwrap();
        assert_eq!(buddy.free_frames(), 1024);
        assert!(fragmentation_index(&buddy, 9) < 0.01);
    }
}
