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
//!
//! Each order's free list is a bitmap with one bit per aligned block
//! head, so finding, adding and removing a free block are bit tests and
//! bit flips, and the lowest free block of an order (the one an
//! allocation takes) is three `trailing_zeros` away. Frame states are
//! bytes with free = 0, so a fresh allocator's state is one zeroed
//! allocation.

use crate::addr::Pfn;
use crate::{MemError, Result};

/// What an allocated frame is used for.
///
/// The distinction matters for two things in the paper: movability during
/// defragmentation (§4.3 — only data pages move; page tables and TEAs are
/// pinned) and the page-table memory-overhead accounting of §6.3.
///
/// The discriminant is the byte the allocator stores for a frame of this
/// kind (a free frame stores 0), and the byte
/// [`BuddyAllocator::state_hash`] hashes: changing it changes every
/// recorded allocator hash.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum FrameKind {
    /// Application data page (movable by compaction).
    Data = 1,
    /// A 2 MiB/1 GiB huge data page's frames. Not movable by the
    /// frame-granular compactor (a real kernel migrates the whole huge
    /// page; moving one constituent frame would shatter it).
    HugeData = 2,
    /// An ordinary radix page-table page.
    PageTable = 3,
    /// A page belonging to a Translation Entry Area.
    Tea = 4,
    /// Firmware/kernel reserved (never movable, never freed).
    Reserved = 5,
}

impl FrameKind {
    /// Whether compaction may relocate a frame of this kind.
    #[inline]
    pub const fn movable(self) -> bool {
        matches!(self, FrameKind::Data)
    }
}

/// The state byte of a free frame. Zero, so a fresh allocator's state is
/// one zeroed allocation.
const FREE: u8 = 0;

/// Frame kinds by state byte minus one.
const KINDS: [FrameKind; 5] = [
    FrameKind::Data,
    FrameKind::HugeData,
    FrameKind::PageTable,
    FrameKind::Tea,
    FrameKind::Reserved,
];

/// Per-frame allocation state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameState {
    /// The frame is free (part of some free block).
    Free,
    /// The frame is allocated for the given purpose.
    Allocated(FrameKind),
}

impl FrameState {
    #[inline]
    fn from_byte(b: u8) -> Self {
        match b {
            FREE => FrameState::Free,
            k => FrameState::Allocated(KINDS[k as usize - 1]),
        }
    }
}

/// log2 of the heads in one [`Leaf`].
const LEAF_SHIFT: u32 = 12;
/// Words in one [`Leaf`].
const LEAF_WORDS: usize = 1 << (LEAF_SHIFT - 6);

/// 4096 consecutive heads of one order: a bit per head, and a summary
/// bit per nonzero word.
#[derive(Debug, Clone)]
struct Leaf {
    /// Bit `w` is set iff `words[w]` is nonzero.
    summary: u64,
    words: [u64; LEAF_WORDS],
}

/// The free blocks of one order, as a set of head indexes (`head >>
/// order`).
///
/// Three levels: a word bit per head, a summary bit per nonzero word (in
/// the word's [`Leaf`]) and a `top` bit per leaf with a nonzero summary.
/// A leaf is allocated on first insert, so memory the allocator never
/// splits costs no bitmap: a large host that fills from the bottom
/// touches a few leaves per order, and the fixed cost is one pointer and
/// one `top` bit per 4096 heads.
#[derive(Debug, Clone)]
struct HeadSet {
    leaves: Vec<Option<Box<Leaf>>>,
    /// Bit `l % 64` of word `l / 64` is set iff leaf `l`'s summary is
    /// nonzero.
    top: Vec<u64>,
    /// Number of heads set.
    len: u64,
}

/// Split a head index into (leaf, word in leaf, bit in word).
#[inline]
fn split(i: u64) -> (usize, usize, u32) {
    (
        (i >> LEAF_SHIFT) as usize,
        ((i >> 6) as usize) & (LEAF_WORDS - 1),
        (i & 63) as u32,
    )
}

impl HeadSet {
    /// An empty set with room for head indexes `0..heads`.
    fn new(heads: u64) -> Self {
        let leaves = heads.div_ceil(1 << LEAF_SHIFT) as usize;
        HeadSet {
            leaves: vec![None; leaves],
            top: vec![0; leaves.div_ceil(64)],
            len: 0,
        }
    }

    #[inline]
    fn contains(&self, i: u64) -> bool {
        let (leaf, w, b) = split(i);
        self.leaves[leaf]
            .as_ref()
            .is_some_and(|l| l.words[w] >> b & 1 != 0)
    }

    #[inline]
    fn insert(&mut self, i: u64) {
        let (leaf, w, b) = split(i);
        let l = self.leaves[leaf].get_or_insert_with(|| {
            Box::new(Leaf {
                summary: 0,
                words: [0; LEAF_WORDS],
            })
        });
        debug_assert!(l.words[w] >> b & 1 == 0, "head {i} inserted twice");
        l.words[w] |= 1 << b;
        l.summary |= 1 << w;
        self.top[leaf / 64] |= 1 << (leaf % 64);
        self.len += 1;
    }

    /// Remove head `i`; false if it was not in the set.
    #[inline]
    fn remove(&mut self, i: u64) -> bool {
        let (leaf, w, b) = split(i);
        let Some(l) = self.leaves[leaf].as_mut() else {
            return false;
        };
        if l.words[w] >> b & 1 == 0 {
            return false;
        }
        l.words[w] &= !(1 << b);
        if l.words[w] == 0 {
            l.summary &= !(1 << w);
            if l.summary == 0 {
                self.top[leaf / 64] &= !(1 << (leaf % 64));
            }
        }
        self.len -= 1;
        true
    }

    /// The lowest head index in the set.
    #[inline]
    fn first(&self) -> Option<u64> {
        if self.len == 0 {
            return None;
        }
        let t = self.top.iter().position(|&t| t != 0)?;
        let leaf = t * 64 + self.top[t].trailing_zeros() as usize;
        let l = self.leaves[leaf].as_ref()?;
        let w = l.summary.trailing_zeros() as usize;
        let b = l.words.get(w)?.trailing_zeros();
        Some(((leaf as u64) << LEAF_SHIFT) | ((w as u64) << 6) | u64::from(b))
    }

    /// Every head index whose word bit is set, in increasing order (read
    /// from the words alone, so the audit sees heads a stale summary
    /// would hide).
    fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.leaves.iter().enumerate().flat_map(|(leaf, l)| {
            l.iter().flat_map(move |l| {
                l.words.iter().enumerate().flat_map(move |(w, &word)| {
                    let base = ((leaf as u64) << LEAF_SHIFT) | ((w as u64) << 6);
                    (0..64u64)
                        .filter(move |b| word >> b & 1 != 0)
                        .map(move |b| base | b)
                })
            })
        })
    }

    /// Check that every summary and top bit and the count agree with the
    /// words.
    fn check(&self) -> std::result::Result<(), String> {
        let mut count = 0u64;
        for (leaf, l) in self.leaves.iter().enumerate() {
            let mut nonzero = 0u64;
            if let Some(l) = l {
                for (w, &word) in l.words.iter().enumerate() {
                    if word != 0 {
                        nonzero |= 1 << w;
                    }
                    count += u64::from(word.count_ones());
                }
                if l.summary != nonzero {
                    return Err(format!(
                        "summary of leaf {leaf} is {:#x} but its nonzero words are {nonzero:#x}",
                        l.summary
                    ));
                }
            }
            let top = self.top[leaf / 64] >> (leaf % 64) & 1 != 0;
            if top != (nonzero != 0) {
                return Err(format!(
                    "top summary bit of leaf {leaf} is {top} but the leaf's words are {}",
                    if nonzero == 0 { "zero" } else { "nonzero" }
                ));
            }
        }
        let spare = self.leaves.len() % 64;
        if spare != 0 && self.top[self.leaves.len() / 64] >> spare != 0 {
            return Err("top summary bit set past the last leaf".to_string());
        }
        if count != self.len {
            return Err(format!("count {} != {count} heads set", self.len));
        }
        Ok(())
    }
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
    free_lists: Vec<HeadSet>,
    /// Per-frame state byte: [`FREE`] or the [`FrameKind`] discriminant.
    state: Vec<u8>,
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
            // Room for the aligned head of every frame at every order.
            free_lists: (0..=max_order)
                .map(|o| HeadSet::new(((frames - 1) >> o) + 1))
                .collect(),
            state: vec![FREE; frames as usize],
            free_frames: frames,
            max_order,
            splits: 0,
            merges: 0,
            compactions: 0,
        };
        a.add_free_range(0, frames);
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
        self.free_lists.iter().map(|l| l.len).sum()
    }

    /// Number of free blocks of exactly the given order.
    pub fn free_blocks_of_order(&self, order: u8) -> u64 {
        self.free_lists.get(order as usize).map_or(0, |l| l.len)
    }

    /// Size (in frames) of the largest free block.
    pub fn largest_free_block(&self) -> u64 {
        for order in (0..=self.max_order).rev() {
            if self.free_lists[order as usize].len != 0 {
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
        FrameState::from_byte(self.state[pfn.0 as usize])
    }

    /// Count of allocated frames of a given kind (used by the §6.3
    /// page-table memory-overhead experiment).
    pub fn allocated_of_kind(&self, kind: FrameKind) -> u64 {
        self.state.iter().filter(|&&s| s == kind as u8).count() as u64
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
        let (mut o, head) = (order..=self.max_order)
            .find_map(|o| Some((o, self.free_lists[o as usize].first()? << o)))
            .ok_or(MemError::OutOfMemory)?;
        self.free_lists[o as usize].remove(head >> o);
        // Split down to the requested order, returning upper halves to the
        // free lists.
        while o > order {
            o -= 1;
            self.free_lists[o as usize].insert((head >> o) | 1);
            self.splits += 1;
        }
        let n = 1u64 << order;
        self.fill(head, n, kind as u8);
        self.free_frames -= n;
        Ok(Pfn(head))
    }

    /// Free a block previously returned by [`alloc_order`](Self::alloc_order).
    ///
    /// # Errors
    ///
    /// Returns [`MemError::OrderTooLarge`] above the allocator's largest
    /// order, before touching any state, and [`MemError::InvalidFree`] if
    /// the block is not fully allocated or is misaligned for its order.
    pub fn free_order(&mut self, pfn: Pfn, order: u8) -> Result<()> {
        if order > self.max_order {
            return Err(MemError::OrderTooLarge {
                order,
                max: self.max_order,
            });
        }
        let n = 1u64 << order;
        self.check_allocated_run(pfn, n)?;
        if pfn.0 & (n - 1) != 0 {
            return Err(MemError::InvalidFree { pfn: pfn.0 });
        }
        self.fill(pfn.0, n, FREE);
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
                    self.free_run(head.0 + n, excess);
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
        self.free_run(pfn.0, n);
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
        if !self.range_is_free(Pfn(pfn.0 + n), extra) {
            return Err(MemError::NoContiguousRun { frames: extra });
        }
        self.reserve_range(pfn.0 + n, extra, kind)
    }

    /// Whether every frame in `[pfn, pfn+n)` is free.
    pub fn range_is_free(&self, pfn: Pfn, n: u64) -> bool {
        let end = pfn.0 + n;
        end <= self.total_frames()
            && self.state[pfn.0 as usize..end as usize]
                .iter()
                .all(|&s| s == FREE)
    }

    /// Find the lowest free run of `n` frames, if any.
    pub fn find_free_run(&self, n: u64) -> Option<u64> {
        let mut run_start = 0u64;
        let mut run_len = 0u64;
        for (f, &s) in (0u64..).zip(&self.state) {
            if s == FREE {
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
        if let Some(i) = self.state[start as usize..end as usize]
            .iter()
            .position(|&s| s != FREE)
        {
            return Err(MemError::RangeNotFree {
                pfn: start + i as u64,
            });
        }
        // Remove every free block overlapping [start, end); re-add the
        // portions that fall outside.
        let mut cursor = start;
        while cursor < end {
            let (head, order) = self
                .containing_free_block(cursor)
                .expect("frame marked free must belong to a free block");
            self.free_lists[order as usize].remove(head >> order);
            let block_end = head + (1 << order);
            if head < start {
                self.add_free_range(head, start - head);
            }
            if block_end > end {
                self.add_free_range(end, block_end - end);
            }
            cursor = block_end;
        }
        self.fill(start, n, kind as u8);
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
            if self.state[f as usize] == FREE {
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
    /// - every order's head bitmap is self-consistent: each summary bit
    ///   says whether its word (or leaf) is nonzero, and the order's block
    ///   count equals its set bits;
    /// - every listed free block is in range and covers only `Free` frames;
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
        let counted = self.state.iter().filter(|&&s| s == FREE).count() as u64;
        if counted != self.free_frames {
            return Err(format!(
                "free_frames counter {} != {} frames marked Free",
                self.free_frames, counted
            ));
        }
        let mut covered = vec![false; total as usize];
        for (order, list) in self.free_lists.iter().enumerate() {
            list.check().map_err(|e| format!("order {order}: {e}"))?;
            let n = 1u64 << order;
            for head in list.iter().map(|i| i << order) {
                if head + n > total {
                    return Err(format!(
                        "free block {head} order {order} extends past total {total}"
                    ));
                }
                for f in head..head + n {
                    if self.state[f as usize] != FREE {
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
                    if buddy + n <= total && head < buddy && list.contains(buddy >> order) {
                        return Err(format!(
                            "buddies {head} and {buddy} both free at order {order} (unmerged)"
                        ));
                    }
                }
            }
        }
        for (f, &s) in self.state.iter().enumerate() {
            if (s == FREE) != covered[f] {
                return Err(format!(
                    "frame {f}: state {:?} disagrees with free-list coverage {}",
                    FrameState::from_byte(s),
                    covered[f]
                ));
            }
        }
        Ok(())
    }

    /// FNV-1a hash over the full per-frame state sequence — a cheap
    /// fingerprint of the allocator's end state, used by the seeded
    /// determinism tests (two identically seeded runs must agree). It
    /// hashes the stored state bytes: 0 for a free frame, the
    /// [`FrameKind`] discriminant for an allocated one.
    pub fn state_hash(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &s in &self.state {
            h ^= u64::from(s);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    // ---- internals -----------------------------------------------------

    /// Set the state byte of frames `[start, start + n)`.
    #[inline]
    fn fill(&mut self, start: u64, n: u64, byte: u8) {
        self.state[start as usize..(start + n) as usize].fill(byte);
    }

    fn check_allocated_run(&self, pfn: Pfn, n: u64) -> Result<()> {
        let end = pfn.0 + n;
        if end > self.total_frames() {
            return Err(MemError::InvalidFree { pfn: pfn.0 });
        }
        match self.state[pfn.0 as usize..end as usize]
            .iter()
            .position(|&s| s == FREE || s == FrameKind::Reserved as u8)
        {
            Some(i) => Err(MemError::InvalidFree {
                pfn: pfn.0 + i as u64,
            }),
            None => Ok(()),
        }
    }

    /// Find the free block (head, order) containing frame `f`.
    #[inline]
    fn containing_free_block(&self, f: u64) -> Option<(u64, u8)> {
        (0..=self.max_order)
            .find(|&o| self.free_lists[o as usize].contains(f >> o))
            .map(|o| (f & !((1u64 << o) - 1), o))
    }

    /// Free an allocated run: mark it free and return it to the free lists.
    fn free_run(&mut self, start: u64, n: u64) {
        self.fill(start, n, FREE);
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
                && self.free_lists[order as usize].remove(buddy >> order)
            {
                head = head.min(buddy);
                order += 1;
                self.merges += 1;
            } else {
                break;
            }
        }
        self.free_lists[order as usize].insert(head >> order);
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
    fn free_above_max_order_is_rejected_untouched() {
        let mut a = BuddyAllocator::with_max_order(4, 0);
        let p = a.alloc_order(0, FrameKind::Data).unwrap();
        let q = a.alloc_order(0, FrameKind::Data).unwrap();
        assert_eq!((p, q), (Pfn(0), Pfn(1)));
        let before = a.state_hash();
        assert_eq!(
            a.free_order(p, 1),
            Err(MemError::OrderTooLarge { order: 1, max: 0 })
        );
        assert_eq!(a.state_hash(), before);
        assert_eq!(a.free_frames(), 2);
        assert!(a.audit().is_ok());
        a.free_order(p, 0).unwrap();
        a.free_order(q, 0).unwrap();
        assert_eq!(a.free_frames(), 4);
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
        // Free the two halves without merging: set both order-0 head bits
        // (bypassing insert_and_merge).
        a.fill(p.0, 2, FREE);
        a.free_frames += 2;
        a.free_lists[0].insert(p.0);
        a.free_lists[0].insert(p.0 + 1);
        assert!(a.audit().unwrap_err().contains("unmerged"));
    }

    #[test]
    fn audit_catches_leaked_free_frame() {
        let mut a = BuddyAllocator::new(64);
        let p = a.alloc_order(0, FrameKind::Data).unwrap();
        // Frame marked free but its head bit is set at no order.
        a.state[p.0 as usize] = FREE;
        a.free_frames += 1;
        assert!(a
            .audit()
            .unwrap_err()
            .contains("disagrees with free-list coverage"));
    }

    #[test]
    fn audit_catches_summary_bits_that_disagree_with_their_words() {
        // The fresh 64-frame allocator is one order-6 block: head bit 0 of
        // word 0 of leaf 0, so order 6 has summary 1 and top bit 1.
        let fresh = BuddyAllocator::new(64);
        fn summary(a: &mut BuddyAllocator) -> &mut u64 {
            &mut a.free_lists[6].leaves[0].as_mut().unwrap().summary
        }
        let mut a = fresh.clone();
        *summary(&mut a) = 0;
        assert!(a
            .audit()
            .unwrap_err()
            .contains("order 6: summary of leaf 0"));
        let mut a = fresh.clone();
        *summary(&mut a) = 0b11;
        assert!(a
            .audit()
            .unwrap_err()
            .contains("order 6: summary of leaf 0"));
        let mut a = fresh.clone();
        a.free_lists[6].top[0] = 0;
        assert!(a.audit().unwrap_err().contains("order 6: top summary bit"));
        let mut a = fresh;
        a.free_lists[3].top[0] = 1 << 1;
        assert!(a.audit().unwrap_err().contains("order 3: top summary bit"));
    }

    #[test]
    fn audit_catches_block_counts_that_disagree_with_their_bits() {
        let mut a = BuddyAllocator::new(64);
        a.free_lists[6].len += 1;
        assert!(a.audit().unwrap_err().contains("order 6: count 2 != 1"));
        let mut a = BuddyAllocator::new(64);
        a.free_lists[2].len = 1;
        assert!(a.audit().unwrap_err().contains("order 2: count 1 != 0"));
    }

    #[test]
    fn head_sets_allocate_leaves_on_first_insert() {
        // 25 free order-9 blocks span four order-0 leaves, none allocated
        // until a split reaches order 0 in the lowest one.
        let mut a = BuddyAllocator::with_max_order(25 * 512, 9);
        let allocated = |a: &BuddyAllocator| -> Vec<bool> {
            a.free_lists[0].leaves.iter().map(Option::is_some).collect()
        };
        assert_eq!(allocated(&a), vec![false; 4]);
        a.alloc_order(0, FrameKind::Data).unwrap();
        assert_eq!(allocated(&a), vec![true, false, false, false]);
        assert_eq!(a.free_lists[0].first(), Some(1));
        a.audit().unwrap();
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

    /// The frame-state codes are part of every recorded allocator hash:
    /// this sequence touches every kind and every allocation path, and
    /// its hash was recorded before the codes became the stored bytes.
    #[test]
    fn state_hash_encoding_is_pinned() {
        let mut a = BuddyAllocator::with_max_order(3 * 4096 + 7, 9);
        let mut cursor = 0x5eed;
        let d = a.alloc_order(0, FrameKind::Data).unwrap();
        let pt = a.alloc_order(3, FrameKind::PageTable).unwrap();
        let tea = a.alloc_contig(700, FrameKind::Tea).unwrap();
        a.expand_in_place(tea, 700, 30, FrameKind::Tea).unwrap();
        a.alloc_block_spread(9, FrameKind::HugeData, &mut cursor)
            .unwrap();
        let singles: Vec<Pfn> = (0..40)
            .map(|_| a.alloc_single_spread(FrameKind::Data, &mut cursor).unwrap())
            .collect();
        a.reserve_range(12_000, 50, FrameKind::Reserved).unwrap();
        a.relocate_frame(d).unwrap();
        a.free_order(pt, 3).unwrap();
        a.free_contig(Pfn(tea.0 + 100), 200).unwrap();
        for p in singles.iter().step_by(2) {
            a.free_order(*p, 0).unwrap();
        }
        assert_eq!(a.state_hash(), 0x9e89_6212_e74f_47b2);
        assert_eq!(
            a.alloc_counters(),
            AllocCounters {
                splits: 6,
                merges: 147,
                compactions: 0
            }
        );
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
