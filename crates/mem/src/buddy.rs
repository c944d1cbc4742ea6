//! A binary buddy allocator over physical frames.
//!
//! This is the analog of the Linux buddy allocator that DMT-Linux builds on
//! (paper §4.3/§4.6.2): TEAs are carved out of it with
//! [`BuddyAllocator::alloc_contig`] (the `alloc_contig_pages` analog), page
//! tables and data pages come from ordinary order-0 allocations, and the
//! free-memory fragmentation index of §6.3 is computed over its free lists.
//!
//! Blocks are naturally aligned power-of-two runs of frames, split on demand
//! and eagerly merged with their buddy on free, exactly like the kernel's
//! allocator. Arbitrary (non power-of-two) contiguous ranges are supported
//! by carving them out of whatever free blocks cover them, which is how
//! `alloc_contig_range` behaves.

use crate::addr::Pfn;
use crate::{MemError, Result};
use std::collections::BTreeSet;

/// What an allocated frame is used for.
///
/// The distinction matters for two things in the paper: movability during
/// defragmentation (§4.3 — only data pages move; page tables and TEAs are
/// pinned) and the page-table memory-overhead accounting of §6.3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FrameKind {
    /// Application data page (movable by compaction).
    Data,
    /// A 2 MiB/1 GiB huge data page's frames. Not movable by the
    /// frame-granular compactor (a real kernel migrates the whole huge
    /// page; moving one constituent frame would shatter it).
    HugeData,
    /// An ordinary radix page-table page.
    PageTable,
    /// A page belonging to a Translation Entry Area.
    Tea,
    /// Firmware/kernel reserved (never movable, never freed).
    Reserved,
}

impl FrameKind {
    /// Whether compaction may relocate a frame of this kind.
    #[inline]
    pub const fn movable(self) -> bool {
        matches!(self, FrameKind::Data)
    }
}

/// Per-frame allocation state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameState {
    /// The frame is free (part of some free block).
    Free,
    /// The frame is allocated for the given purpose.
    Allocated(FrameKind),
}

/// Binary buddy allocator over a flat range of physical frames.
///
/// # Examples
///
/// ```
/// use dmt_mem::buddy::{BuddyAllocator, FrameKind};
/// let mut buddy = BuddyAllocator::new(1024);
/// let a = buddy.alloc_order(0, FrameKind::Data).unwrap();
/// let run = buddy.alloc_contig(100, FrameKind::Tea).unwrap();
/// buddy.free_contig(run, 100).unwrap();
/// buddy.free_order(a, 0).unwrap();
/// assert_eq!(buddy.free_frames(), 1024);
/// ```
#[derive(Debug, Clone)]
pub struct BuddyAllocator {
    /// Free block heads per order.
    free_lists: Vec<BTreeSet<u64>>,
    /// Per-frame state.
    state: Vec<FrameState>,
    /// Number of free frames (maintained incrementally).
    free_frames: u64,
    max_order: u8,
    /// Lifetime churn counters (telemetry only — deliberately excluded
    /// from [`state_hash`](Self::state_hash) and [`audit`](Self::audit)).
    splits: u64,
    merges: u64,
    compactions: u64,
}

/// Allocator churn counters for the telemetry layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocCounters {
    /// Blocks split in half on the alloc path.
    pub splits: u64,
    /// Buddy pairs coalesced on the free path.
    pub merges: u64,
    /// Successful `make_contig` compaction passes.
    pub compactions: u64,
}

/// Default maximum block order (2^10 frames = 4 MiB), matching Linux.
pub const MAX_ORDER: u8 = 10;

impl BuddyAllocator {
    /// Create an allocator managing `frames` frames, all initially free,
    /// with the default [`MAX_ORDER`].
    pub fn new(frames: u64) -> Self {
        Self::with_max_order(frames, MAX_ORDER)
    }

    /// Create an allocator with a custom maximum order.
    ///
    /// # Panics
    ///
    /// Panics if `frames` is zero or `max_order > 24`.
    pub fn with_max_order(frames: u64, max_order: u8) -> Self {
        assert!(frames > 0, "allocator needs at least one frame");
        assert!(max_order <= 24, "max order unreasonably large");
        let mut a = BuddyAllocator {
            free_lists: vec![BTreeSet::new(); max_order as usize + 1],
            state: vec![FrameState::Allocated(FrameKind::Reserved); frames as usize],
            free_frames: 0,
            max_order,
            splits: 0,
            merges: 0,
            compactions: 0,
        };
        a.add_free_range(0, frames);
        for f in 0..frames {
            a.state[f as usize] = FrameState::Free;
        }
        a.free_frames = frames;
        // Seeding the free lists is not churn.
        a.merges = 0;
        a
    }

    /// Lifetime split/merge/compaction counts (telemetry).
    pub fn alloc_counters(&self) -> AllocCounters {
        AllocCounters {
            splits: self.splits,
            merges: self.merges,
            compactions: self.compactions,
        }
    }

    /// Record one successful compaction pass (called by `compact`).
    pub(crate) fn note_compaction(&mut self) {
        self.compactions += 1;
    }

    /// Total number of frames managed.
    #[inline]
    pub fn total_frames(&self) -> u64 {
        self.state.len() as u64
    }

    /// Number of currently free frames.
    #[inline]
    pub fn free_frames(&self) -> u64 {
        self.free_frames
    }

    /// Number of free blocks across all orders.
    pub fn free_block_count(&self) -> u64 {
        self.free_lists.iter().map(|l| l.len() as u64).sum()
    }

    /// Number of free blocks of exactly the given order.
    pub fn free_blocks_of_order(&self, order: u8) -> u64 {
        self.free_lists
            .get(order as usize)
            .map_or(0, |l| l.len() as u64)
    }

    /// Size (in frames) of the largest free block.
    pub fn largest_free_block(&self) -> u64 {
        for order in (0..=self.max_order).rev() {
            if !self.free_lists[order as usize].is_empty() {
                return 1 << order;
            }
        }
        0
    }

    /// State of a frame.
    ///
    /// # Panics
    ///
    /// Panics if `pfn` is out of range.
    #[inline]
    pub fn frame_state(&self, pfn: Pfn) -> FrameState {
        self.state[pfn.0 as usize]
    }

    /// Count of allocated frames of a given kind (used by the §6.3
    /// page-table memory-overhead experiment).
    pub fn allocated_of_kind(&self, kind: FrameKind) -> u64 {
        self.state
            .iter()
            .filter(|s| **s == FrameState::Allocated(kind))
            .count() as u64
    }

    /// Allocate a naturally aligned block of `2^order` frames.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::OutOfMemory`] if no block of sufficient order is
    /// free.
    pub fn alloc_order(&mut self, order: u8, kind: FrameKind) -> Result<Pfn> {
        if order > self.max_order {
            return Err(MemError::OrderTooLarge {
                order,
                max: self.max_order,
            });
        }
        let mut found = None;
        for o in order..=self.max_order {
            if let Some(&head) = self.free_lists[o as usize].iter().next() {
                found = Some((o, head));
                break;
            }
        }
        let (mut o, head) = found.ok_or(MemError::OutOfMemory)?;
        self.free_lists[o as usize].remove(&head);
        // Split down to the requested order, returning upper halves to the
        // free lists.
        while o > order {
            o -= 1;
            let upper = head + (1 << o);
            self.free_lists[o as usize].insert(upper);
            self.splits += 1;
        }
        let n = 1u64 << order;
        for f in head..head + n {
            self.state[f as usize] = FrameState::Allocated(kind);
        }
        self.free_frames -= n;
        Ok(Pfn(head))
    }

    /// Free a block previously returned by [`alloc_order`](Self::alloc_order).
    ///
    /// # Errors
    ///
    /// Returns [`MemError::InvalidFree`] if the block is not fully allocated
    /// or is misaligned for its order.
    pub fn free_order(&mut self, pfn: Pfn, order: u8) -> Result<()> {
        let n = 1u64 << order;
        self.check_allocated_run(pfn, n)?;
        if pfn.0 & (n - 1) != 0 {
            return Err(MemError::InvalidFree { pfn: pfn.0 });
        }
        for f in pfn.0..pfn.0 + n {
            self.state[f as usize] = FrameState::Free;
        }
        self.free_frames += n;
        self.insert_and_merge(pfn.0, order);
        Ok(())
    }

    /// Allocate `n` physically contiguous frames (not necessarily a
    /// power-of-two block) — the `alloc_contig_pages` analog used for TEAs.
    ///
    /// First tries a buddy block of the covering order; if that fails, scans
    /// for any contiguous free run of length `n` and carves it out.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::NoContiguousRun`] when no free run of length `n`
    /// exists (the caller may compact and retry, or split the request —
    /// paper §4.2.2).
    pub fn alloc_contig(&mut self, n: u64, kind: FrameKind) -> Result<Pfn> {
        if n == 0 {
            return Err(MemError::ZeroSized);
        }
        if n > self.free_frames {
            return Err(MemError::NoContiguousRun { frames: n });
        }
        // Fast path: a single buddy block covers the request.
        let order = covering_order(n);
        if order <= self.max_order {
            if let Ok(head) = self.alloc_order(order, kind) {
                // Return the unused tail of the block.
                let excess = (1u64 << order) - n;
                if excess > 0 {
                    self.free_run_internal(head.0 + n, excess);
                }
                return Ok(head);
            }
        }
        // Slow path: scan for a free run of length n.
        let start = self
            .find_free_run(n)
            .ok_or(MemError::NoContiguousRun { frames: n })?;
        self.reserve_range(start, n, kind)?;
        Ok(Pfn(start))
    }

    /// Free `n` contiguous frames starting at `pfn`.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::InvalidFree`] if any frame in the run is not
    /// allocated.
    pub fn free_contig(&mut self, pfn: Pfn, n: u64) -> Result<()> {
        if n == 0 {
            return Err(MemError::ZeroSized);
        }
        self.check_allocated_run(pfn, n)?;
        for f in pfn.0..pfn.0 + n {
            self.state[f as usize] = FrameState::Free;
        }
        self.free_frames += n;
        self.free_run_internal_no_state(pfn.0, n);
        Ok(())
    }

    /// Try to grow an existing contiguous allocation in place by `extra`
    /// frames (TEA in-place expansion, paper §4.3).
    ///
    /// On success the frames `[pfn+n, pfn+n+extra)` become allocated with
    /// the given kind.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::NoContiguousRun`] if the frames just above the
    /// run are not all free.
    pub fn expand_in_place(&mut self, pfn: Pfn, n: u64, extra: u64, kind: FrameKind) -> Result<()> {
        let start = pfn.0 + n;
        let end = start + extra;
        if end > self.total_frames() {
            return Err(MemError::NoContiguousRun { frames: extra });
        }
        for f in start..end {
            if self.state[f as usize] != FrameState::Free {
                return Err(MemError::NoContiguousRun { frames: extra });
            }
        }
        self.reserve_range(start, extra, kind)
    }

    /// Whether every frame in `[pfn, pfn+n)` is free.
    pub fn range_is_free(&self, pfn: Pfn, n: u64) -> bool {
        let end = pfn.0 + n;
        end <= self.total_frames()
            && (pfn.0..end).all(|f| self.state[f as usize] == FrameState::Free)
    }

    /// Find the lowest free run of `n` frames, if any.
    pub fn find_free_run(&self, n: u64) -> Option<u64> {
        let total = self.total_frames();
        let mut run_start = 0u64;
        let mut run_len = 0u64;
        for f in 0..total {
            if self.state[f as usize] == FrameState::Free {
                if run_len == 0 {
                    run_start = f;
                }
                run_len += 1;
                if run_len >= n {
                    return Some(run_start);
                }
            } else {
                run_len = 0;
            }
        }
        None
    }

    /// Reserve an exact frame range that is currently free, carving it out
    /// of whatever free blocks cover it.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::RangeNotFree`] if any frame in the range is
    /// already allocated.
    pub fn reserve_range(&mut self, start: u64, n: u64, kind: FrameKind) -> Result<()> {
        let end = start + n;
        if end > self.total_frames() {
            return Err(MemError::RangeNotFree { pfn: start });
        }
        for f in start..end {
            if self.state[f as usize] != FrameState::Free {
                return Err(MemError::RangeNotFree { pfn: f });
            }
        }
        // Remove every free block overlapping [start, end); re-add the
        // portions that fall outside.
        let mut cursor = start;
        while cursor < end {
            let (head, order) = self
                .containing_free_block(cursor)
                .expect("frame marked free must belong to a free block");
            self.free_lists[order as usize].remove(&head);
            let block_end = head + (1 << order);
            if head < start {
                self.add_free_range(head, start - head);
            }
            if block_end > end {
                self.add_free_range(end, block_end - end);
            }
            cursor = block_end;
        }
        for f in start..end {
            self.state[f as usize] = FrameState::Allocated(kind);
        }
        self.free_frames -= n;
        Ok(())
    }

    /// Allocate one frame at a pseudo-random position (long-running
    /// systems do not hand out compact physical memory; guest physical
    /// layouts in particular are spread over all of RAM, which is what
    /// defeats gPA-indexed MMU caches at scale). Probes a few LCG
    /// positions and falls back to an ordinary allocation.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::OutOfMemory`] when no frame is free.
    pub fn alloc_single_spread(&mut self, kind: FrameKind, cursor: &mut u64) -> Result<Pfn> {
        let total = self.total_frames();
        for _ in 0..16 {
            *cursor = cursor
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let f = (*cursor >> 11) % total;
            if self.frame_state(Pfn(f)) == FrameState::Free {
                return self.reserve_single(f, kind);
            }
        }
        self.alloc_order(0, kind)
    }

    /// Allocate a naturally aligned `2^order` block at a pseudo-random
    /// position (see [`alloc_single_spread`](Self::alloc_single_spread)).
    ///
    /// # Errors
    ///
    /// Returns [`MemError::OutOfMemory`] when no block is free.
    pub fn alloc_block_spread(
        &mut self,
        order: u8,
        kind: FrameKind,
        cursor: &mut u64,
    ) -> Result<Pfn> {
        let n = 1u64 << order;
        let total = self.total_frames();
        if total >= n {
            for _ in 0..16 {
                *cursor = cursor
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let f = ((*cursor >> 11) % (total - n + 1)) & !(n - 1);
                if self.range_is_free(Pfn(f), n) {
                    self.reserve_range(f, n, kind)?;
                    return Ok(Pfn(f));
                }
            }
        }
        self.alloc_order(order, kind)
    }

    /// Reserve one specific free frame and return it.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::RangeNotFree`] if the frame is already allocated.
    pub fn reserve_single(&mut self, pfn: u64, kind: FrameKind) -> Result<Pfn> {
        self.reserve_range(pfn, 1, kind)?;
        Ok(Pfn(pfn))
    }

    /// Relocate a single movable frame: copy `src`'s role to a freshly
    /// allocated frame and free `src`. Returns the destination frame.
    ///
    /// The caller is responsible for updating any page tables that pointed
    /// at `src` (the OS layer keeps the reverse map).
    ///
    /// # Errors
    ///
    /// Returns [`MemError::NotMovable`] if `src` is free or pinned, or
    /// [`MemError::OutOfMemory`] if no destination frame exists.
    pub fn relocate_frame(&mut self, src: Pfn) -> Result<Pfn> {
        let kind = match self.frame_state(src) {
            FrameState::Allocated(k) if k.movable() => k,
            _ => return Err(MemError::NotMovable { pfn: src.0 }),
        };
        let dst = self.alloc_order(0, kind)?;
        self.free_order(src, 0)?;
        Ok(dst)
    }

    /// Check every structural invariant of the allocator and return a
    /// description of the first violation found.
    ///
    /// Audited invariants (the oracle's allocator layer):
    /// - the incremental `free_frames` counter matches the per-frame state;
    /// - every listed free block is in range, naturally aligned for its
    ///   order, and covers only `Free` frames;
    /// - no frame is covered by two listed free blocks (no overlap);
    /// - every `Free` frame belongs to exactly one listed free block
    ///   (free + used == total, with nothing leaked);
    /// - no two mergeable buddies are both listed at the same order
    ///   (eager merging actually happened).
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the violated invariant.
    pub fn audit(&self) -> std::result::Result<(), String> {
        let total = self.total_frames();
        let counted = self
            .state
            .iter()
            .filter(|s| **s == FrameState::Free)
            .count() as u64;
        if counted != self.free_frames {
            return Err(format!(
                "free_frames counter {} != {} frames marked Free",
                self.free_frames, counted
            ));
        }
        // 0 = uncovered, 1 = covered by one block.
        let mut covered = vec![false; total as usize];
        for (order, list) in self.free_lists.iter().enumerate() {
            let n = 1u64 << order;
            for &head in list {
                if head & (n - 1) != 0 {
                    return Err(format!("free block {head} misaligned for order {order}"));
                }
                if head + n > total {
                    return Err(format!(
                        "free block {head} order {order} extends past total {total}"
                    ));
                }
                for f in head..head + n {
                    if self.state[f as usize] != FrameState::Free {
                        return Err(format!(
                            "frame {f} in free block {head} order {order} is allocated"
                        ));
                    }
                    if covered[f as usize] {
                        return Err(format!("frame {f} covered by two free blocks"));
                    }
                    covered[f as usize] = true;
                }
                // Eager merging: the buddy of a listed block must not also
                // be listed at the same (mergeable) order.
                if (order as u8) < self.max_order {
                    let buddy = head ^ n;
                    if buddy + n <= total && list.contains(&buddy) && head < buddy {
                        return Err(format!(
                            "buddies {head} and {buddy} both free at order {order} (unmerged)"
                        ));
                    }
                }
            }
        }
        for f in 0..total {
            if (self.state[f as usize] == FrameState::Free) != covered[f as usize] {
                return Err(format!(
                    "frame {f}: state {:?} disagrees with free-list coverage {}",
                    self.state[f as usize], covered[f as usize]
                ));
            }
        }
        Ok(())
    }

    /// FNV-1a hash over the full per-frame state sequence — a cheap
    /// fingerprint of the allocator's end state, used by the seeded
    /// determinism tests (two identically seeded runs must agree).
    pub fn state_hash(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for s in &self.state {
            let byte: u8 = match s {
                FrameState::Free => 0,
                FrameState::Allocated(FrameKind::Data) => 1,
                FrameState::Allocated(FrameKind::HugeData) => 2,
                FrameState::Allocated(FrameKind::PageTable) => 3,
                FrameState::Allocated(FrameKind::Tea) => 4,
                FrameState::Allocated(FrameKind::Reserved) => 5,
            };
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    // ---- internals -----------------------------------------------------

    fn check_allocated_run(&self, pfn: Pfn, n: u64) -> Result<()> {
        let end = pfn.0 + n;
        if end > self.total_frames() {
            return Err(MemError::InvalidFree { pfn: pfn.0 });
        }
        for f in pfn.0..end {
            match self.state[f as usize] {
                FrameState::Allocated(FrameKind::Reserved) | FrameState::Free => {
                    return Err(MemError::InvalidFree { pfn: f })
                }
                FrameState::Allocated(_) => {}
            }
        }
        Ok(())
    }

    /// Find the free block (head, order) containing frame `f`.
    fn containing_free_block(&self, f: u64) -> Option<(u64, u8)> {
        for order in 0..=self.max_order {
            let head = f & !((1u64 << order) - 1);
            if self.free_lists[order as usize].contains(&head) {
                return Some((head, order));
            }
        }
        None
    }

    /// Mark an allocated run free in the free lists (state already updated).
    fn free_run_internal_no_state(&mut self, start: u64, n: u64) {
        self.add_free_range(start, n);
    }

    /// Free a run whose state still says allocated (internal trimming path).
    fn free_run_internal(&mut self, start: u64, n: u64) {
        for f in start..start + n {
            self.state[f as usize] = FrameState::Free;
        }
        self.free_frames += n;
        self.add_free_range(start, n);
    }

    /// Insert a free range as maximal naturally aligned blocks, merging
    /// buddies as we go.
    fn add_free_range(&mut self, mut start: u64, mut n: u64) {
        while n > 0 {
            let align_order = if start == 0 {
                self.max_order
            } else {
                (start.trailing_zeros() as u8).min(self.max_order)
            };
            let size_order = (63 - n.leading_zeros() as u8).min(self.max_order);
            let order = align_order.min(size_order);
            self.insert_and_merge(start, order);
            let sz = 1u64 << order;
            start += sz;
            n -= sz;
        }
    }

    /// Insert a block and merge it with its buddy while possible.
    fn insert_and_merge(&mut self, mut head: u64, mut order: u8) {
        while order < self.max_order {
            let buddy = head ^ (1u64 << order);
            if buddy + (1 << order) <= self.total_frames()
                && self.free_lists[order as usize].remove(&buddy)
            {
                head = head.min(buddy);
                order += 1;
                self.merges += 1;
            } else {
                break;
            }
        }
        self.free_lists[order as usize].insert(head);
    }
}

/// Smallest order whose block covers `n` frames.
#[inline]
pub fn covering_order(n: u64) -> u8 {
    debug_assert!(n > 0);
    if n == 1 {
        0
    } else {
        (64 - (n - 1).leading_zeros()) as u8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covering_order_values() {
        assert_eq!(covering_order(1), 0);
        assert_eq!(covering_order(2), 1);
        assert_eq!(covering_order(3), 2);
        assert_eq!(covering_order(4), 2);
        assert_eq!(covering_order(5), 3);
        assert_eq!(covering_order(1024), 10);
        assert_eq!(covering_order(1025), 11);
    }

    #[test]
    fn fresh_allocator_is_fully_free() {
        let a = BuddyAllocator::new(4096);
        assert_eq!(a.free_frames(), 4096);
        assert_eq!(a.largest_free_block(), 1024);
        assert_eq!(a.free_blocks_of_order(MAX_ORDER), 4);
    }

    #[test]
    fn non_power_of_two_total_builds_mixed_blocks() {
        let a = BuddyAllocator::new(1000);
        assert_eq!(a.free_frames(), 1000);
        // 1000 = 512 + 256 + 128 + 64 + 32 + 8
        assert_eq!(a.largest_free_block(), 512);
    }

    #[test]
    fn alloc_free_roundtrip_restores_blocks() {
        let mut a = BuddyAllocator::new(1024);
        let p = a.alloc_order(3, FrameKind::Data).unwrap();
        assert_eq!(a.free_frames(), 1024 - 8);
        a.free_order(p, 3).unwrap();
        assert_eq!(a.free_frames(), 1024);
        assert_eq!(a.free_blocks_of_order(MAX_ORDER), 1);
    }

    #[test]
    fn split_and_merge_sequence() {
        let mut a = BuddyAllocator::new(16);
        let p0 = a.alloc_order(0, FrameKind::Data).unwrap();
        let p1 = a.alloc_order(0, FrameKind::Data).unwrap();
        assert_ne!(p0, p1);
        a.free_order(p0, 0).unwrap();
        a.free_order(p1, 0).unwrap();
        // Everything should merge back into one block of order 4.
        assert_eq!(a.free_blocks_of_order(4), 1);
    }

    #[test]
    fn double_free_is_rejected() {
        let mut a = BuddyAllocator::new(64);
        let p = a.alloc_order(0, FrameKind::Data).unwrap();
        a.free_order(p, 0).unwrap();
        assert!(matches!(
            a.free_order(p, 0),
            Err(MemError::InvalidFree { .. })
        ));
    }

    #[test]
    fn misaligned_free_is_rejected() {
        let mut a = BuddyAllocator::new(64);
        let _ = a.alloc_order(2, FrameKind::Data).unwrap();
        assert!(matches!(
            a.free_order(Pfn(1), 2),
            Err(MemError::InvalidFree { .. })
        ));
    }

    #[test]
    fn contig_alloc_exact_run() {
        let mut a = BuddyAllocator::new(1024);
        let p = a.alloc_contig(100, FrameKind::Tea).unwrap();
        assert_eq!(a.free_frames(), 924);
        for f in p.0..p.0 + 100 {
            assert_eq!(a.frame_state(Pfn(f)), FrameState::Allocated(FrameKind::Tea));
        }
        a.free_contig(p, 100).unwrap();
        assert_eq!(a.free_frames(), 1024);
        assert_eq!(a.free_blocks_of_order(MAX_ORDER), 1);
    }

    #[test]
    fn contig_alloc_larger_than_max_order_block() {
        let mut a = BuddyAllocator::new(8192);
        // 3000 frames > 1024 (max-order block) forces the scan path.
        let p = a.alloc_contig(3000, FrameKind::Tea).unwrap();
        assert_eq!(a.free_frames(), 8192 - 3000);
        a.free_contig(p, 3000).unwrap();
        assert_eq!(a.free_frames(), 8192);
    }

    #[test]
    fn contig_alloc_fails_under_fragmentation() {
        let mut a = BuddyAllocator::new(64);
        // Allocate everything as single frames, then free every other one.
        let frames: Vec<_> = (0..64)
            .map(|_| a.alloc_order(0, FrameKind::Data).unwrap())
            .collect();
        for (i, p) in frames.iter().enumerate() {
            if i % 2 == 0 {
                a.free_order(*p, 0).unwrap();
            }
        }
        assert_eq!(a.free_frames(), 32);
        assert!(matches!(
            a.alloc_contig(2, FrameKind::Tea),
            Err(MemError::NoContiguousRun { .. })
        ));
        // Single frames still work.
        assert!(a.alloc_contig(1, FrameKind::Tea).is_ok());
    }

    #[test]
    fn expand_in_place_when_room_above() {
        let mut a = BuddyAllocator::new(1024);
        let p = a.alloc_contig(10, FrameKind::Tea).unwrap();
        a.expand_in_place(p, 10, 5, FrameKind::Tea).unwrap();
        for f in p.0..p.0 + 15 {
            assert_eq!(a.frame_state(Pfn(f)), FrameState::Allocated(FrameKind::Tea));
        }
        a.free_contig(p, 15).unwrap();
        assert_eq!(a.free_frames(), 1024);
    }

    #[test]
    fn expand_in_place_blocked_by_neighbor() {
        let mut a = BuddyAllocator::new(64);
        let p = a.alloc_contig(8, FrameKind::Tea).unwrap();
        // Allocate the frame right above the run.
        a.reserve_range(p.0 + 8, 1, FrameKind::Data).unwrap();
        assert!(matches!(
            a.expand_in_place(p, 8, 1, FrameKind::Tea),
            Err(MemError::NoContiguousRun { .. })
        ));
    }

    #[test]
    fn reserve_range_rejects_allocated_frames() {
        let mut a = BuddyAllocator::new(64);
        let p = a.alloc_order(0, FrameKind::Data).unwrap();
        assert!(matches!(
            a.reserve_range(p.0, 1, FrameKind::Tea),
            Err(MemError::RangeNotFree { .. })
        ));
    }

    #[test]
    fn relocate_moves_only_movable_frames() {
        let mut a = BuddyAllocator::new(64);
        let data = a.alloc_order(0, FrameKind::Data).unwrap();
        let tea = a.alloc_contig(1, FrameKind::Tea).unwrap();
        let dst = a.relocate_frame(data).unwrap();
        assert_ne!(dst, data);
        assert_eq!(a.frame_state(data), FrameState::Free);
        assert!(matches!(
            a.relocate_frame(tea),
            Err(MemError::NotMovable { .. })
        ));
    }

    #[test]
    fn kind_accounting() {
        let mut a = BuddyAllocator::new(256);
        a.alloc_contig(10, FrameKind::Tea).unwrap();
        a.alloc_order(0, FrameKind::PageTable).unwrap();
        a.alloc_order(0, FrameKind::PageTable).unwrap();
        assert_eq!(a.allocated_of_kind(FrameKind::Tea), 10);
        assert_eq!(a.allocated_of_kind(FrameKind::PageTable), 2);
        assert_eq!(a.allocated_of_kind(FrameKind::Data), 0);
    }

    #[test]
    fn audit_accepts_fresh_and_churned_allocators() {
        let mut a = BuddyAllocator::new(1000);
        a.audit().unwrap();
        let p = a.alloc_contig(100, FrameKind::Tea).unwrap();
        let q = a.alloc_order(3, FrameKind::Data).unwrap();
        a.audit().unwrap();
        a.free_order(q, 3).unwrap();
        a.free_contig(p, 100).unwrap();
        a.audit().unwrap();
    }

    #[test]
    fn audit_catches_counter_drift() {
        let mut a = BuddyAllocator::new(64);
        a.free_frames -= 1; // simulate a lost frame
        assert!(a.audit().unwrap_err().contains("free_frames counter"));
    }

    #[test]
    fn audit_catches_unmerged_buddies() {
        let mut a = BuddyAllocator::new(64);
        let p = a.alloc_order(1, FrameKind::Data).unwrap();
        // Free the two halves without merging (bypass insert_and_merge).
        a.state[p.0 as usize] = FrameState::Free;
        a.state[p.0 as usize + 1] = FrameState::Free;
        a.free_frames += 2;
        a.free_lists[0].insert(p.0);
        a.free_lists[0].insert(p.0 + 1);
        assert!(a.audit().unwrap_err().contains("unmerged"));
    }

    #[test]
    fn audit_catches_leaked_free_frame() {
        let mut a = BuddyAllocator::new(64);
        let p = a.alloc_order(0, FrameKind::Data).unwrap();
        // Frame marked free but in no free list.
        a.state[p.0 as usize] = FrameState::Free;
        a.free_frames += 1;
        assert!(a.audit().is_err());
    }

    #[test]
    fn state_hash_tracks_allocation_state() {
        let mut a = BuddyAllocator::new(256);
        let h0 = a.state_hash();
        let p = a.alloc_order(0, FrameKind::Data).unwrap();
        assert_ne!(a.state_hash(), h0);
        a.free_order(p, 0).unwrap();
        assert_eq!(a.state_hash(), h0);
        // Kind matters, not just allocated-ness.
        let _ = a.reserve_single(p.0, FrameKind::Tea).unwrap();
        let h_tea = a.state_hash();
        let mut b = BuddyAllocator::new(256);
        let _ = b.reserve_single(p.0, FrameKind::Data).unwrap();
        assert_ne!(b.state_hash(), h_tea);
    }

    #[test]
    fn alloc_counters_track_churn_but_not_state_hash() {
        let mut a = BuddyAllocator::new(256);
        assert_eq!(a.alloc_counters(), AllocCounters::default());
        let h0 = a.state_hash();
        // One order-0 alloc from a pristine max_order=8 block: 8 splits.
        let p = a.alloc_order(0, FrameKind::Data).unwrap();
        assert_eq!(a.alloc_counters().splits, 8);
        assert_eq!(a.alloc_counters().merges, 0);
        // Freeing it coalesces all the way back: 8 merges.
        a.free_order(p, 0).unwrap();
        assert_eq!(a.alloc_counters().merges, 8);
        // Counters are telemetry, not allocator state: the hash is back
        // to the pristine value even though the counters moved.
        assert_eq!(a.state_hash(), h0);
    }

    #[test]
    fn zero_sized_requests_error() {
        let mut a = BuddyAllocator::new(64);
        assert!(matches!(
            a.alloc_contig(0, FrameKind::Tea),
            Err(MemError::ZeroSized)
        ));
        assert!(matches!(a.free_contig(Pfn(0), 0), Err(MemError::ZeroSized)));
    }
}
