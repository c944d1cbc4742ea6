//! One guest-physical address space, the same for every guest modeled
//! here: a [`Vm`](crate::vm::Vm)'s guest memory and a
//! [`NestedMachine`](crate::nested::NestedMachine)'s L2 memory.
//!
//! `GuestMemory` holds the frame allocator and its spread cursor, the
//! backing map (one entry per backed page: the head frame one level
//! down), the hot-added frames and the lookup. Pages are backed lazily,
//! on first allocation, so setup cost scales with the pages a workload
//! touches. The level below supplies the only two things that differ
//! between owners: how a new page gets backed ([`Backer::back`]) and the
//! lower→host step ([`Lower::to_host`]). [`GuestView`] and
//! [`GuestViewRef`] are the [`MemoryOps`] views guest page tables are
//! built and walked through.

use crate::VirtError;
use dmt_mem::buddy::FrameKind;
use dmt_mem::{BuddyAllocator, FastMap, MemError, MemoryOps, PageSize, Pfn, PhysAddr, PhysMemory};

/// The level below a guest-physical space, as a read-only view needs it.
pub trait Lower {
    /// Host physical memory, where the bytes of every level live.
    fn pm(&self) -> &PhysMemory;
    /// The lower→host step: a lower-level physical address to host
    /// physical. The identity where the level below is host memory.
    fn to_host(&self, lower: PhysAddr) -> Option<PhysAddr> {
        Some(lower)
    }
}

/// The level below a guest-physical space, as a mutable view needs it.
pub trait Backer: Lower {
    /// Host physical memory, mutably.
    fn pm_mut(&mut self) -> &mut PhysMemory;
    /// Back the guest page of `size` at `gpa` with fresh lower memory and
    /// return the lower frame at its head.
    ///
    /// # Errors
    ///
    /// Propagates allocation and mapping failures one level down.
    fn back(&mut self, gpa: PhysAddr, size: PageSize) -> Result<Pfn, VirtError>;
}

/// Host memory is the bottom level: its step is the identity.
impl Lower for &PhysMemory {
    fn pm(&self) -> &PhysMemory {
        self
    }
}

/// A guest-physical address space: RAM backed one page at a time, plus
/// frames hot-added above it.
#[derive(Debug)]
pub(crate) struct GuestMemory {
    /// Guest-frame allocator over RAM.
    buddy: BuddyAllocator,
    /// LCG cursor for spread allocation.
    spread: u64,
    /// RAM in frames; hot-added frames start here.
    ram_frames: u64,
    /// The page size RAM is backed at.
    page_size: PageSize,
    /// log2 of the 4 KiB frames per page (0 or 9).
    shift: u32,
    /// RAM backing, one entry per backed page: page index
    /// (`gframe >> shift`) → the page's head lower frame.
    backing: FastMap<u64, u64>,
    /// Lower frames hot-added above RAM: guest frame `ram_frames + i` is
    /// backed by `hot[i]`.
    hot: Vec<u64>,
}

impl GuestMemory {
    /// An unbacked space of `ram_bytes` of RAM, backed at `page_size`,
    /// whose spread allocations start from cursor `spread`.
    pub(crate) fn new(ram_bytes: u64, page_size: PageSize, spread: u64) -> Self {
        GuestMemory {
            buddy: BuddyAllocator::new(ram_bytes >> 12),
            spread,
            ram_frames: ram_bytes >> 12,
            page_size,
            shift: page_size.shift() - PageSize::Size4K.shift(),
            backing: FastMap::default(),
            hot: Vec::new(),
        }
    }

    /// Size in frames: RAM plus hot-added frames.
    pub(crate) fn frames(&self) -> u64 {
        self.ram_frames + self.hot.len() as u64
    }

    /// The page size RAM is backed at.
    pub(crate) fn page_size(&self) -> PageSize {
        self.page_size
    }

    /// Backed RAM pages: one per backing-map entry.
    pub(crate) fn backed_pages(&self) -> usize {
        self.backing.len()
    }

    /// The frame allocator's state hash
    /// ([`BuddyAllocator::state_hash`]).
    pub(crate) fn state_hash(&self) -> u64 {
        self.buddy.state_hash()
    }

    /// The lower-level address backing `gpa`, if any (software, no
    /// cycles).
    pub(crate) fn lookup(&self, gpa: PhysAddr) -> Option<PhysAddr> {
        let g = gpa.raw() >> 12;
        let lower = match g.checked_sub(self.ram_frames) {
            None => self.backing.get(&(g >> self.shift))? + (g & ((1 << self.shift) - 1)),
            Some(i) => *self.hot.get(usize::try_from(i).ok()?)?,
        };
        Some(PhysAddr((lower << 12) | gpa.page_offset()))
    }

    /// The backed chunks `(gPA, lower PA, size)` in gPA order: one per
    /// backed RAM page, then one 4 KiB chunk per hot-added frame (runs
    /// of hot-adds need not be contiguous one level down).
    pub(crate) fn chunks(&self) -> Vec<(PhysAddr, PhysAddr, PageSize)> {
        let mut ram: Vec<(u64, u64)> = self.backing.iter().map(|(&c, &h)| (c, h)).collect();
        ram.sort_unstable();
        let ram = ram.into_iter().map(|(c, h)| {
            (
                PhysAddr(c << (self.shift + 12)),
                PhysAddr(h << 12),
                self.page_size,
            )
        });
        let hot = (self.ram_frames..)
            .zip(&self.hot)
            .map(|(g, &h)| (PhysAddr(g << 12), PhysAddr(h << 12), PageSize::Size4K));
        ram.chain(hot).collect()
    }

    /// Record `frames` lower frames from `lower_base` as hot-added at the
    /// top of the space, and return the gPA of the first. The owner maps
    /// them in whatever table mirrors the space.
    pub(crate) fn hot_add(&mut self, lower_base: Pfn, frames: u64) -> PhysAddr {
        let base = PhysAddr(self.frames() << 12);
        self.hot.extend(lower_base.0..lower_base.0 + frames);
        base
    }

    /// Allocate a `2^order`-frame block at a spread position (single
    /// frames through the buddy's single-frame probe). The cursor moves
    /// only when the allocation succeeds.
    ///
    /// # Errors
    ///
    /// Propagates guest allocator exhaustion.
    pub(crate) fn alloc_spread(&mut self, order: u8, kind: FrameKind) -> dmt_mem::Result<Pfn> {
        let mut cur = self.spread;
        let g = match order {
            0 => self.buddy.alloc_single_spread(kind, &mut cur)?,
            _ => self.buddy.alloc_block_spread(order, kind, &mut cur)?,
        };
        self.spread = cur;
        Ok(g)
    }

    /// The host address of `gpa`; panics when it is unbacked.
    fn host(&self, lower: &impl Lower, gpa: PhysAddr) -> PhysAddr {
        self.lookup(gpa)
            .and_then(|l| lower.to_host(l))
            .unwrap_or_else(|| panic!("unbacked guest physical address {gpa}"))
    }
}

/// Mutable guest-physical view: word accesses go through the backing
/// map and the lower→host step; frames come from the space's own
/// allocator and are backed on first use.
#[derive(Debug)]
pub struct GuestView<'a, L> {
    pub(crate) mem: &'a mut GuestMemory,
    pub(crate) lower: L,
}

impl<L: Backer> GuestView<'_, L> {
    /// Back the page holding guest frame `gframe` if it is not yet, and
    /// return the lower frame backing `gframe`.
    ///
    /// # Errors
    ///
    /// Propagates [`Backer::back`] failures.
    pub(crate) fn back(&mut self, gframe: u64) -> Result<Pfn, VirtError> {
        let page = gframe >> self.mem.shift;
        let offset = gframe & ((1 << self.mem.shift) - 1);
        if let Some(&head) = self.mem.backing.get(&page) {
            return Ok(Pfn(head + offset));
        }
        let gpa = PhysAddr(page << (self.mem.shift + 12));
        let head = self.lower.back(gpa, self.mem.page_size)?;
        self.mem.backing.insert(page, head.0);
        Ok(Pfn(head.0 + offset))
    }

    /// Back and zero the guest frames `[gframe, gframe + frames)`, one
    /// [`back`](Self::back) per page.
    fn back_zeroed(&mut self, gframe: u64, frames: u64) -> Result<(), VirtError> {
        let end = gframe + frames;
        let mut g = gframe;
        while g < end {
            let run = ((g | ((1 << self.mem.shift) - 1)) + 1).min(end) - g;
            let l = self.back(g)?;
            for k in 0..run {
                let h = self
                    .lower
                    .to_host(PhysAddr::from_pfn(Pfn(l.0 + k)))
                    .expect("just backed");
                self.lower.pm_mut().zero_frame(h.pfn());
            }
            g += run;
        }
        Ok(())
    }

    /// Allocate a `2^order`-frame block at a spread position, backed and
    /// zeroed.
    ///
    /// # Errors
    ///
    /// Propagates allocation failures in either space.
    pub(crate) fn alloc(&mut self, order: u8, kind: FrameKind) -> Result<Pfn, VirtError> {
        let g = self.mem.alloc_spread(order, kind)?;
        self.back_zeroed(g.0, 1 << order)?;
        Ok(g)
    }

    /// Allocate `frames` guest-physically contiguous frames, backed and
    /// zeroed (contiguous in this space, not necessarily below it).
    ///
    /// # Errors
    ///
    /// Propagates fragmentation and allocation failures.
    pub(crate) fn alloc_run(&mut self, frames: u64, kind: FrameKind) -> Result<Pfn, VirtError> {
        let g = self.mem.buddy.alloc_contig(frames, kind)?;
        self.back_zeroed(g.0, frames)?;
        Ok(g)
    }
}

impl<L: Backer> MemoryOps for GuestView<'_, L> {
    fn read_word(&self, addr: PhysAddr) -> u64 {
        self.lower.pm().read_word(self.mem.host(&self.lower, addr))
    }
    fn write_word(&mut self, addr: PhysAddr, value: u64) {
        let h = self.mem.host(&self.lower, addr);
        self.lower.pm_mut().write_word(h, value);
    }
    fn alloc_zeroed_frame(&mut self, kind: FrameKind) -> dmt_mem::Result<Pfn> {
        self.alloc(0, kind).map_err(|_| MemError::OutOfMemory)
    }
    fn free_frame(&mut self, pfn: Pfn) -> dmt_mem::Result<()> {
        self.mem.buddy.free_order(pfn, 0)
    }
    fn copy_frame(&mut self, src: Pfn, dst: Pfn) {
        let s = self.mem.host(&self.lower, PhysAddr::from_pfn(src)).pfn();
        let d = self.mem.host(&self.lower, PhysAddr::from_pfn(dst)).pfn();
        self.lower.pm_mut().copy_frame(s, d);
    }
}

/// Read-only guest-physical view; write and allocation operations panic.
/// It is itself a [`Lower`], so a space can sit on another's view.
#[derive(Debug)]
pub struct GuestViewRef<'a, L> {
    pub(crate) mem: &'a GuestMemory,
    pub(crate) lower: L,
}

impl<L: Lower> Lower for GuestViewRef<'_, L> {
    fn pm(&self) -> &PhysMemory {
        self.lower.pm()
    }
    fn to_host(&self, gpa: PhysAddr) -> Option<PhysAddr> {
        self.lower.to_host(self.mem.lookup(gpa)?)
    }
}

impl<L: Lower> MemoryOps for GuestViewRef<'_, L> {
    fn read_word(&self, addr: PhysAddr) -> u64 {
        self.lower.pm().read_word(self.mem.host(&self.lower, addr))
    }
    fn write_word(&mut self, _addr: PhysAddr, _value: u64) {
        unreachable!("read-only view")
    }
    fn alloc_zeroed_frame(&mut self, _kind: FrameKind) -> dmt_mem::Result<Pfn> {
        unreachable!("read-only view")
    }
    fn free_frame(&mut self, _pfn: Pfn) -> dmt_mem::Result<()> {
        unreachable!("read-only view")
    }
    fn copy_frame(&mut self, _src: Pfn, _dst: Pfn) {
        unreachable!("read-only view")
    }
}
