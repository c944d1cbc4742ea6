//! The two-dimensional (nested) page-table walk of Figure 2.
//!
//! A guest page table translates gVA→gPA but is itself stored in guest
//! physical memory, so fetching each guest entry first requires a host
//! walk (gPA→hPA) through the host page table. A cold 2D walk over two
//! 4-level trees therefore performs up to 24 sequential PTE fetches:
//! four groups of (4 host + 1 guest) for the guest levels, plus a final
//! 4-step host walk of the data page's gPA.
//!
//! Warm walks are shortened by two structures, both modeled here:
//! * the **nested PWC** accelerates each host sub-walk (keyed by gPA);
//! * the **guest PWC** caches, per gVA prefix, the *host-physical* base of
//!   the next guest table — a hit skips entire (host walk + guest fetch)
//!   groups, which is how real nested-paging MMU caches behave.
//!
//! [`nested_walk`] allocates nothing: it returns a `Copy`
//! [`WalkOutcome`] with the reference count kept inline and reports
//! every fetch, guest and host interleaved, to a [`StepSink`] — `()` on
//! the replay path, a `Vec<WalkStep>` for Figure 16's breakdown.

use crate::pte::Pte;
use crate::radix::RadixPageTable;
use crate::walk::{leaf_size, walk_dimension, StepSink, WalkDim, WalkOutcome, WalkStep};
use crate::PtError;
use dmt_cache::hierarchy::MemoryHierarchy;
use dmt_cache::pwc::PageWalkCache;
use dmt_mem::addr::{PAGE_SIZE, PTE_SIZE};
use dmt_mem::{MemoryOps, PhysAddr, VirtAddr};

/// MMU caches used by a 2D walk.
#[derive(Debug, Default)]
pub struct NestedCaches {
    /// Guest PWC: gVA prefix → host-physical base of next guest table.
    pub guest_pwc: Option<PageWalkCache>,
    /// Nested PWC: accelerates host sub-walks, keyed by gPA.
    pub nested_pwc: Option<PageWalkCache>,
}

impl NestedCaches {
    /// Both PWCs at Table 3's geometry.
    pub fn xeon_gold_6138() -> Self {
        NestedCaches {
            guest_pwc: Some(PageWalkCache::default()),
            nested_pwc: Some(PageWalkCache::default()),
        }
    }

    /// No MMU caches (cold-walk analysis).
    pub fn none() -> Self {
        NestedCaches::default()
    }
}

/// Perform a hardware 2D page walk translating `gva` to a host-physical
/// address, reporting every PTE fetch to `steps` in walk order (guest
/// and host interleaved exactly as in Figure 2). The outcome's `size`
/// is the guest mapping's page size.
///
/// `gpt` maps gVA→gPA and lives in guest physical memory; `hpt` maps
/// gPA→hPA and lives in host physical memory; `pm` is host physical
/// memory.
///
/// # Errors
///
/// Returns [`PtError::NotMapped`] if either dimension hits a non-present
/// entry.
pub fn nested_walk<M: MemoryOps>(
    gpt: &RadixPageTable,
    hpt: &RadixPageTable,
    pm: &mut M,
    gva: VirtAddr,
    hier: &mut MemoryHierarchy,
    caches: &mut NestedCaches,
    steps: &mut impl StepSink<WalkStep>,
) -> Result<WalkOutcome, PtError> {
    let mut cycles = 0u64;
    let mut refs = 0u64;

    let mut glevel = gpt.levels();
    // gPA of the current guest table (valid when table_hpa is None).
    let mut gtable_gpa = PhysAddr::from_pfn(gpt.root());
    // hPA of the current guest table, when known (gPWC hit or contiguity
    // within the 4 KiB table page).
    let mut table_hpa: Option<PhysAddr> = None;

    if let Some(gpwc) = caches.guest_pwc.as_mut() {
        cycles += gpwc.latency();
        if let Some((hit_level, next_table_hpa)) = gpwc.lookup_deepest(gva) {
            glevel = hit_level - 1;
            table_hpa = Some(next_table_hpa);
        }
    }

    // Guest dimension: one (host walk + guest fetch) group per level.
    let (data_gpa, guest_size) = loop {
        let entry_hpa = match table_hpa {
            Some(base) => base + gva.level_index(glevel) * PTE_SIZE,
            None => {
                let entry_gpa = gtable_gpa + gva.level_index(glevel) * PTE_SIZE;
                let host = walk_dimension(
                    hpt,
                    pm,
                    VirtAddr(entry_gpa.raw()),
                    WalkDim::Host,
                    hier,
                    caches.nested_pwc.as_mut(),
                    steps,
                )?;
                cycles += host.cycles;
                refs += host.refs;
                host.pa
            }
        };
        // Fill the guest PWC: we now know the hPA of this level's table.
        if let Some(gpwc) = caches.guest_pwc.as_mut() {
            if (2..=4).contains(&(glevel + 1)) && glevel < gpt.levels() {
                let tbl_base = PhysAddr(entry_hpa.raw() & !(PAGE_SIZE - 1));
                gpwc.fill(gva, glevel + 1, tbl_base);
            }
        }
        // Fetch the guest entry itself.
        let (_, cyc) = hier.access(entry_hpa.raw());
        cycles += cyc;
        refs += 1;
        steps.step(WalkStep {
            dim: WalkDim::Guest,
            level: glevel,
            pte_pa: entry_hpa,
            cycles: cyc,
        });
        let mut gpte = Pte::EMPTY;
        pm.rmw_word(entry_hpa, |w| {
            gpte = Pte(w);
            gpte.present().then(|| gpte.with_accessed().raw())
        });
        if !gpte.present() {
            return Err(PtError::NotMapped { va: gva.raw() });
        }
        if gpte.is_leaf_at(glevel) {
            let size = leaf_size(glevel).ok_or(PtError::NotMapped { va: gva.raw() })?;
            break (PhysAddr(gpte.phys_addr().raw() + gva.offset_in(size)), size);
        }
        gtable_gpa = gpte.phys_addr();
        table_hpa = None;
        glevel -= 1;
    };

    // Final host walk: data gPA → hPA (steps 21–24 of Figure 2).
    let host = walk_dimension(
        hpt,
        pm,
        VirtAddr(data_gpa.raw()),
        WalkDim::Host,
        hier,
        caches.nested_pwc.as_mut(),
        steps,
    )?;

    Ok(WalkOutcome {
        pa: host.pa,
        size: guest_size,
        cycles: cycles + host.cycles,
        refs: refs + host.refs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pte::PteFlags;
    use crate::walk::WalkDim;
    use dmt_mem::buddy::FrameKind;
    use dmt_mem::{PageSize, PhysMemory};

    /// Build a guest in host memory with a linear gPA→hPA offset mapping.
    ///
    /// Guest physical memory `[0, guest_bytes)` maps to host physical
    /// `[offset, offset + guest_bytes)` through real hPT entries, so the
    /// 2D walker genuinely walks both trees. Guest tables are written
    /// directly at their linear host locations.
    struct Harness {
        pm: PhysMemory,
        gpt: RadixPageTable,
        hpt: RadixPageTable,
        offset: u64,
    }

    /// A guest-physical view that redirects through the linear offset.
    struct GuestView<'a> {
        pm: &'a mut PhysMemory,
        offset: u64,
        /// Simple bump allocator of guest frames.
        next_gframe: &'a mut u64,
    }

    impl dmt_mem::MemoryOps for GuestView<'_> {
        fn read_word(&self, addr: PhysAddr) -> u64 {
            self.pm.read_word(PhysAddr(addr.raw() + self.offset))
        }
        fn write_word(&mut self, addr: PhysAddr, value: u64) {
            self.pm
                .write_word(PhysAddr(addr.raw() + self.offset), value);
        }
        fn alloc_zeroed_frame(&mut self, _kind: FrameKind) -> dmt_mem::Result<dmt_mem::Pfn> {
            let g = *self.next_gframe;
            *self.next_gframe += 1;
            Ok(dmt_mem::Pfn(g))
        }
        fn free_frame(&mut self, _pfn: dmt_mem::Pfn) -> dmt_mem::Result<()> {
            Ok(())
        }
        fn copy_frame(&mut self, src: dmt_mem::Pfn, dst: dmt_mem::Pfn) {
            let s = dmt_mem::Pfn(src.0 + (self.offset >> 12));
            let d = dmt_mem::Pfn(dst.0 + (self.offset >> 12));
            self.pm.copy_frame(s, d);
        }
    }

    fn build(guest_size: PageSize) -> (Harness, VirtAddr) {
        build_levels(guest_size, 4)
    }

    fn build_levels(guest_size: PageSize, levels: u8) -> (Harness, VirtAddr) {
        let mut pm = PhysMemory::new_bytes(64 << 20);
        let mut hpt = RadixPageTable::new(&mut pm, levels).unwrap();
        // Reserve a 16 MiB guest-physical region at host offset.
        let guest_frames = 4096u64;
        let base = pm.alloc_contig(guest_frames, FrameKind::Data).unwrap();
        let offset = base.0 << 12;
        // Host maps gPA x -> hPA x+offset with 4 KiB pages.
        for g in 0..guest_frames {
            hpt.map(
                &mut pm,
                VirtAddr(g << 12),
                PhysAddr((g << 12) + offset),
                PageSize::Size4K,
                PteFlags::WRITABLE,
            )
            .unwrap();
        }
        // Build the guest table through the guest view.
        let mut next_gframe = 16u64; // leave low gframes for data
        let gpt = {
            let mut view = GuestView {
                pm: &mut pm,
                offset,
                next_gframe: &mut next_gframe,
            };
            let mut gpt = RadixPageTable::new(&mut view, levels).unwrap();
            let gva = VirtAddr(0x7f00_0020_0000);
            let gpa = PhysAddr(0x20_0000); // guest frame 512
            gpt.map(&mut view, gva, gpa, guest_size, PteFlags::WRITABLE)
                .unwrap();
            gpt
        };
        (
            Harness {
                pm,
                gpt,
                hpt,
                offset,
            },
            VirtAddr(0x7f00_0020_0000),
        )
    }

    #[test]
    fn cold_2d_walk_takes_24_references() {
        let (mut h, gva) = build(PageSize::Size4K);
        let mut hier = MemoryHierarchy::default();
        let mut caches = NestedCaches::none();
        let mut steps = Vec::new();
        let out = nested_walk(
            &h.gpt,
            &h.hpt,
            &mut h.pm,
            gva,
            &mut hier,
            &mut caches,
            &mut steps,
        )
        .unwrap();
        assert_eq!(out.refs, 24, "Figure 2: 4 x (4 host + 1 guest) + 4");
        // Figure 2's ordering: steps 1-4 host, 5 guest, 6-9 host, 10 guest...
        let dims: Vec<WalkDim> = steps.iter().map(|s| s.dim).collect();
        for group in 0..4 {
            for i in 0..4 {
                assert_eq!(dims[group * 5 + i], WalkDim::Host);
            }
            assert_eq!(dims[group * 5 + 4], WalkDim::Guest);
        }
        for d in &dims[20..24] {
            assert_eq!(*d, WalkDim::Host);
        }
        // The translation is correct: gVA -> gPA 0x20_0000 -> hPA +offset.
        assert_eq!(out.pa, PhysAddr(0x20_0000 + h.offset));
        assert_eq!(out.size, PageSize::Size4K);
    }

    #[test]
    fn guest_huge_page_shortens_guest_dimension() {
        let (mut h, gva) = build(PageSize::Size2M);
        let mut hier = MemoryHierarchy::default();
        let mut caches = NestedCaches::none();
        let out = nested_walk(
            &h.gpt,
            &h.hpt,
            &mut h.pm,
            gva,
            &mut hier,
            &mut caches,
            &mut (),
        )
        .unwrap();
        // 3 guest groups (gL4..gL2) x 5 + final host walk of 4 = 19.
        assert_eq!(out.refs, 19);
        assert_eq!(out.size, PageSize::Size2M);
    }

    #[test]
    fn warm_pwcs_collapse_the_walk() {
        let (mut h, gva) = build(PageSize::Size4K);
        let mut hier = MemoryHierarchy::default();
        let mut caches = NestedCaches::xeon_gold_6138();
        let cold = nested_walk(
            &h.gpt,
            &h.hpt,
            &mut h.pm,
            gva,
            &mut hier,
            &mut caches,
            &mut (),
        )
        .unwrap();
        // Even the first walk is below 24: the nested PWC warms up across
        // the four host sub-walks because guest tables share gPA prefixes.
        assert!(
            cold.refs > 8 && cold.refs <= 24,
            "cold refs = {}",
            cold.refs
        );
        let warm = nested_walk(
            &h.gpt,
            &h.hpt,
            &mut h.pm,
            gva,
            &mut hier,
            &mut caches,
            &mut (),
        )
        .unwrap();
        // gPWC hit at gL2 leaves: 1 guest fetch (gL1, no host walk thanks
        // to table contiguity) + nested-PWC-shortened final host walk.
        assert!(warm.refs <= 3, "warm refs = {}", warm.refs);
        assert!(warm.cycles < cold.cycles / 3);
        assert_eq!(warm.pa, cold.pa);
    }

    #[test]
    fn vec_and_unit_sinks_walk_2d_identically() {
        // Two identical guests, warm PWCs: the traced and untraced 2D
        // walks agree on every outcome and on the hierarchy and PWC
        // statistics, and the trace has one step per reference.
        let (mut a, gva) = build(PageSize::Size4K);
        let (mut b, _) = build(PageSize::Size4K);
        let mut hier_a = MemoryHierarchy::default();
        let mut hier_b = MemoryHierarchy::default();
        let mut caches_a = NestedCaches::xeon_gold_6138();
        let mut caches_b = NestedCaches::xeon_gold_6138();
        let vas = [gva, gva + 0x123, VirtAddr(0x1000), gva + 0x1000, gva + 8];
        for va in vas {
            let mut steps = Vec::new();
            let x = nested_walk(
                &a.gpt,
                &a.hpt,
                &mut a.pm,
                va,
                &mut hier_a,
                &mut caches_a,
                &mut steps,
            );
            let y = nested_walk(
                &b.gpt,
                &b.hpt,
                &mut b.pm,
                va,
                &mut hier_b,
                &mut caches_b,
                &mut (),
            );
            assert_eq!(x, y, "{va:?}");
            if let Ok(out) = x {
                assert_eq!(out.refs, steps.len() as u64);
            }
        }
        assert_eq!(hier_a.stats(), hier_b.stats());
        for (pa, pb) in [
            (&caches_a.guest_pwc, &caches_b.guest_pwc),
            (&caches_a.nested_pwc, &caches_b.nested_pwc),
        ] {
            assert_eq!(pa.as_ref().unwrap().stats(), pb.as_ref().unwrap().stats());
        }
    }

    #[test]
    fn five_level_2d_walk_takes_35_references() {
        // §1/§2.1.1: with 5-level tables a nested translation takes up to
        // 35 sequential accesses: 5 guest groups x (5 host + 1 guest) + 5.
        let (mut h, gva) = build_levels(PageSize::Size4K, 5);
        let mut hier = MemoryHierarchy::default();
        let mut caches = NestedCaches::none();
        let out = nested_walk(
            &h.gpt,
            &h.hpt,
            &mut h.pm,
            gva,
            &mut hier,
            &mut caches,
            &mut (),
        )
        .unwrap();
        assert_eq!(out.refs, 35);
    }

    #[test]
    fn unmapped_guest_address_errors() {
        let (mut h, _) = build(PageSize::Size4K);
        let mut hier = MemoryHierarchy::default();
        let mut caches = NestedCaches::none();
        assert!(matches!(
            nested_walk(
                &h.gpt,
                &h.hpt,
                &mut h.pm,
                VirtAddr(0x1000),
                &mut hier,
                &mut caches,
                &mut ()
            ),
            Err(PtError::NotMapped { .. })
        ));
    }

    #[test]
    fn unmapped_gpa_in_host_errors() {
        let (mut h, gva) = build(PageSize::Size4K);
        // Map a second guest page whose data gPA exceeds host's mapping.
        {
            let mut next = 100u64;
            let mut view = GuestView {
                pm: &mut h.pm,
                offset: h.offset,
                next_gframe: &mut next,
            };
            let mut gpt = h.gpt.clone();
            gpt.map(
                &mut view,
                VirtAddr(gva.raw() + 0x1000),
                PhysAddr(1 << 30), // outside host's 16 MiB guest region
                PageSize::Size4K,
                PteFlags::default(),
            )
            .unwrap();
            h.gpt = gpt;
        }
        let mut hier = MemoryHierarchy::default();
        let mut caches = NestedCaches::none();
        assert!(nested_walk(
            &h.gpt,
            &h.hpt,
            &mut h.pm,
            VirtAddr(gva.raw() + 0x1000),
            &mut hier,
            &mut caches,
            &mut ()
        )
        .is_err());
    }
}
