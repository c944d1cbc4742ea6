//! The DMT fetcher: direct last-level-PTE fetch logic (Figure 10).
//!
//! On a TLB miss the fetcher checks whether any DMT register covers the
//! faulting address. If so it computes the PTE's physical location
//! arithmetically and fetches it — one memory reference per translation
//! dimension. If not, the request falls back to the ordinary x86 page
//! walker ([`DmtError::NotCovered`]).
//!
//! Four fetch paths are provided, matching the paper's deployment modes:
//!
//! * [`fetch_native`] — 1 reference (Figure 7);
//! * [`fetch_virt_pv`] — 2 references, gTEAs resolved through the gTEA
//!   table (§4.5.1);
//! * [`fetch_virt_unpv`] — 3 references, plain DMT in a VM without
//!   paravirtualization (§3.1);
//! * [`fetch_nested_pv`] — 3 references across L2/L1/L0 (§3.2), built on
//!   the generic [`fetch_chain`].
//!
//! When a VMA holds pages of several sizes the fetcher probes all of its
//! TEAs **in parallel** (Figure 12): latency is the maximum, not the sum,
//! of the probe latencies, and exactly one TEA holds a present PTE. The
//! one probe, `parallel_probe`, reads the candidates largest page size
//! first and stops at the first present PTE, so only the winner's read
//! and accessed-bit write (one fused [`MemoryOps::rmw_word`]) touch
//! memory.
//!
//! Every path allocates nothing: it returns a `Copy` [`WalkOutcome`]
//! with the reference count kept inline and reports each fetch to a
//! [`StepSink`] — `()` on the replay path, a `Vec<FetchStep>` for
//! Figure 16's breakdown and the unit tests.

use crate::gtea::GteaTable;
use crate::regfile::DmtRegisterFile;
use crate::vtmap::VmaTeaMapping;
use crate::DmtError;
use dmt_cache::hierarchy::MemoryHierarchy;
use dmt_mem::{MemoryOps, PageSize, PhysAddr, VirtAddr};
use dmt_pgtable::pte::Pte;
use dmt_pgtable::walk::{StepSink, WalkOutcome};

/// Which translation stage a fetch step served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FetchStage {
    /// The single native fetch, or the innermost (L2/guest) fetch.
    Guest,
    /// An intermediate (L1) fetch in nested virtualization.
    Middle,
    /// The host (L0) fetch.
    Host,
}

/// One PTE fetch performed by the DMT fetcher.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FetchStep {
    /// Stage of the fetch.
    pub stage: FetchStage,
    /// Host-physical address of the PTE that was read.
    pub slot: PhysAddr,
    /// Cycles charged (max over parallel same-stage probes).
    pub cycles: u64,
}

/// One translation level of a pvDMT fetch chain.
#[derive(Debug)]
pub struct LevelCtx<'a> {
    /// The level's DMT register set.
    pub regs: &'a DmtRegisterFile,
    /// gTEA table for resolving this level's TEAs into host physical
    /// memory (`None` for the host level, whose registers hold host PFNs
    /// directly).
    pub gtea: Option<&'a GteaTable>,
    /// Stage label for the step trace.
    pub stage: FetchStage,
}

/// Resolve the host-physical slot of the PTE for `addr` under `mapping`.
fn slot_for(
    mapping: &VmaTeaMapping,
    gtea: Option<&GteaTable>,
    addr: VirtAddr,
) -> Result<PhysAddr, DmtError> {
    match (mapping.gtea_id(), gtea) {
        (Some(id), Some(table)) => {
            let offset = mapping.pte_offset(addr).expect("caller checked coverage");
            table.resolve(id, offset)
        }
        (None, _) => Ok(mapping.pte_addr(addr).expect("caller checked coverage")),
        (Some(id), None) => Err(DmtError::InvalidGteaId { id }),
    }
}

/// Probe every size-mapping covering `addr` in parallel and return the
/// present PTE, its page size, its slot and the winning probe's latency.
///
/// Exactly one TEA holds a present PTE for any mapped page ("only one
/// PTE will be fetched", §4.4), so the fetch completes as soon as the
/// present PTE returns — losing probes are canceled and charged neither
/// latency nor cache insertion (their bandwidth cost is ignored; noted
/// in DESIGN.md). Should several be present, the largest page size
/// wins, so the probe reads the candidates largest-first and stops at
/// the first present PTE; skipped reads are uncharged and
/// side-effect-free, so nothing observable is lost. The winner's read
/// and accessed-bit write share one fused [`MemoryOps::rmw_word`].
fn parallel_probe<M: MemoryOps>(
    regs: &DmtRegisterFile,
    gtea: Option<&GteaTable>,
    pm: &mut M,
    hier: &mut MemoryHierarchy,
    addr: VirtAddr,
) -> Result<(Pte, PageSize, PhysAddr, u64), DmtError> {
    // At most one covering mapping per page size (Figure 12's parallel
    // comparators), ranked smallest-to-largest. Every slot is resolved
    // before any is read, so a forged gTEA ID faults whichever probe
    // carries it.
    let mut by_size: [Option<PhysAddr>; 3] = [None; 3];
    let mut first_slot = None;
    for m in regs.lookup(addr) {
        let slot = slot_for(m, gtea, addr)?;
        first_slot.get_or_insert(slot);
        by_size[m.page_size() as usize].get_or_insert(slot);
    }
    let Some(first_slot) = first_slot else {
        return Err(DmtError::NotCovered { addr: addr.raw() });
    };
    for (size, slot) in PageSize::ALL.into_iter().zip(by_size).rev() {
        let Some(slot) = slot else { continue };
        let mut pte = Pte::EMPTY;
        pm.rmw_word(slot, |w| {
            pte = Pte(w);
            pte.present().then(|| pte.with_accessed().raw())
        });
        if pte.present() {
            let (_, cyc) = hier.access(slot.raw());
            return Ok((pte, size, slot, cyc));
        }
    }
    // A fault still costs one fetch to discover.
    hier.access(first_slot.raw());
    Err(DmtError::PteNotPresent { addr: addr.raw() })
}

/// Generic pvDMT fetch chain: one parallel probe per level, each level's
/// PTE providing the address the next level translates. Each probe is
/// reported to `steps`; the outcome's `size` is the innermost level's.
///
/// # Errors
///
/// Returns [`DmtError::NotCovered`] when some level's registers do not
/// cover the (intermediate) address — the caller falls back to the
/// hardware walker — or an isolation fault from gTEA resolution.
pub fn fetch_chain<M: MemoryOps>(
    levels: &[LevelCtx<'_>],
    pm: &mut M,
    hier: &mut MemoryHierarchy,
    va: VirtAddr,
    steps: &mut impl StepSink<FetchStep>,
) -> Result<WalkOutcome, DmtError> {
    assert!(!levels.is_empty(), "fetch chain needs at least one level");
    let mut addr = va;
    let mut cycles = 0u64;
    let mut innermost_size = None;
    for ctx in levels {
        let (pte, size, slot, cyc) = parallel_probe(ctx.regs, ctx.gtea, pm, hier, addr)?;
        cycles += cyc;
        steps.step(FetchStep {
            stage: ctx.stage,
            slot,
            cycles: cyc,
        });
        innermost_size.get_or_insert(size);
        addr = VirtAddr(pte.phys_addr().raw() + addr.offset_in(size));
    }
    Ok(WalkOutcome {
        pa: PhysAddr(addr.raw()),
        size: innermost_size.expect("at least one level"),
        cycles,
        refs: levels.len() as u64,
    })
}

/// Native DMT: one memory reference (Figure 7).
///
/// # Errors
///
/// See [`fetch_chain`].
pub fn fetch_native<M: MemoryOps>(
    regs: &DmtRegisterFile,
    pm: &mut M,
    hier: &mut MemoryHierarchy,
    va: VirtAddr,
    steps: &mut impl StepSink<FetchStep>,
) -> Result<WalkOutcome, DmtError> {
    fetch_chain(
        &[LevelCtx {
            regs,
            gtea: None,
            stage: FetchStage::Guest,
        }],
        pm,
        hier,
        va,
        steps,
    )
}

/// pvDMT in a single-level VM: two references (§4.5.1) — the gPTE
/// (located through the gTEA table) and the hPTE.
///
/// # Errors
///
/// See [`fetch_chain`]; additionally surfaces gTEA isolation faults.
pub fn fetch_virt_pv<M: MemoryOps>(
    guest_regs: &DmtRegisterFile,
    gtea: &GteaTable,
    host_regs: &DmtRegisterFile,
    pm: &mut M,
    hier: &mut MemoryHierarchy,
    gva: VirtAddr,
    steps: &mut impl StepSink<FetchStep>,
) -> Result<WalkOutcome, DmtError> {
    fetch_chain(
        &[
            LevelCtx {
                regs: guest_regs,
                gtea: Some(gtea),
                stage: FetchStage::Guest,
            },
            LevelCtx {
                regs: host_regs,
                gtea: None,
                stage: FetchStage::Host,
            },
        ],
        pm,
        hier,
        gva,
        steps,
    )
}

/// Plain (non-paravirtualized) DMT in a VM: three references (§3.1).
///
/// The guest registers hold gTEA locations in *guest physical* memory, so
/// the fetcher must first translate the gPTE's gPA through the host
/// mapping, then fetch the gPTE, then translate the data gPA.
///
/// # Errors
///
/// See [`fetch_chain`].
pub fn fetch_virt_unpv<M: MemoryOps>(
    guest_regs: &DmtRegisterFile,
    host_regs: &DmtRegisterFile,
    pm: &mut M,
    hier: &mut MemoryHierarchy,
    gva: VirtAddr,
    steps: &mut impl StepSink<FetchStep>,
) -> Result<WalkOutcome, DmtError> {
    // Step 0 (arithmetic only): candidate gPTE gPAs, one per page-size
    // mapping covering the address (Figure 12's parallel probes).
    // Steps 1+2, parallel across candidates: host-translate each gPTE's
    // gPA (hPTE fetch), then fetch the gPTE. As in the native case, the
    // winner (the candidate whose gPTE is present) determines the cost;
    // losing probes are canceled. The winner is resolved by content
    // first, with no charges.
    let view_host = |pm: &M, gpa: PhysAddr| -> Option<PhysAddr> {
        let hm = host_regs.lookup(VirtAddr(gpa.raw())).next()?;
        let slot = hm.pte_addr(VirtAddr(gpa.raw()))?;
        let hpte = Pte(pm.read_word(slot));
        hpte.present().then(|| {
            PhysAddr(hpte.phys_addr().raw() + VirtAddr(gpa.raw()).offset_in(hm.page_size()))
        })
    };
    let mut covered = false;
    let mut winner: Option<(PageSize, PhysAddr)> = None;
    for gm in guest_regs.lookup(gva) {
        covered = true;
        let gpte_gpa = gm.pte_addr(gva).expect("covered");
        let present = view_host(pm, gpte_gpa).is_some_and(|hpa| Pte(pm.read_word(hpa)).present());
        if present && winner.is_none_or(|(size, _)| gm.page_size() > size) {
            winner = Some((gm.page_size(), gpte_gpa));
        }
    }
    if !covered {
        return Err(DmtError::NotCovered { addr: gva.raw() });
    }
    let (size, gpte_gpa) = winner.ok_or(DmtError::PteNotPresent { addr: gva.raw() })?;
    // Step 1 (charged): hPTE translating the winning gPTE's gPA.
    let (hpte1, hsize1, slot1, cyc1) =
        parallel_probe(host_regs, None, pm, hier, VirtAddr(gpte_gpa.raw()))?;
    steps.step(FetchStep {
        stage: FetchStage::Host,
        slot: slot1,
        cycles: cyc1,
    });
    // Step 2 (charged): the gPTE itself.
    let gpte_hpa = PhysAddr(hpte1.phys_addr().raw() + VirtAddr(gpte_gpa.raw()).offset_in(hsize1));
    let (_, cyc2) = hier.access(gpte_hpa.raw());
    steps.step(FetchStep {
        stage: FetchStage::Guest,
        slot: gpte_hpa,
        cycles: cyc2,
    });
    let gpte = Pte(pm.rmw_word(gpte_hpa, |w| Some(Pte(w).with_accessed().raw())));
    let data_gpa = PhysAddr(gpte.phys_addr().raw() + gva.offset_in(size));

    // Step 3: hPTE translating the data gPA.
    let (hpte2, hsize2, slot3, cyc3) =
        parallel_probe(host_regs, None, pm, hier, VirtAddr(data_gpa.raw()))?;
    steps.step(FetchStep {
        stage: FetchStage::Host,
        slot: slot3,
        cycles: cyc3,
    });
    Ok(WalkOutcome {
        pa: PhysAddr(hpte2.phys_addr().raw() + VirtAddr(data_gpa.raw()).offset_in(hsize2)),
        size,
        cycles: cyc1 + cyc2 + cyc3,
        refs: 3,
    })
}

/// pvDMT under nested virtualization: three references (§3.2, Figure 9).
///
/// # Errors
///
/// See [`fetch_chain`].
#[allow(clippy::too_many_arguments)] // the three levels' register files and gTEA tables are the hardware state
pub fn fetch_nested_pv<M: MemoryOps>(
    l2_regs: &DmtRegisterFile,
    l2_gtea: &GteaTable,
    l1_regs: &DmtRegisterFile,
    l1_gtea: &GteaTable,
    l0_regs: &DmtRegisterFile,
    pm: &mut M,
    hier: &mut MemoryHierarchy,
    va: VirtAddr,
    steps: &mut impl StepSink<FetchStep>,
) -> Result<WalkOutcome, DmtError> {
    fetch_chain(
        &[
            LevelCtx {
                regs: l2_regs,
                gtea: Some(l2_gtea),
                stage: FetchStage::Guest,
            },
            LevelCtx {
                regs: l1_regs,
                gtea: Some(l1_gtea),
                stage: FetchStage::Middle,
            },
            LevelCtx {
                regs: l0_regs,
                gtea: None,
                stage: FetchStage::Host,
            },
        ],
        pm,
        hier,
        va,
        steps,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmt_mem::buddy::FrameKind;
    use dmt_mem::{Pfn, PhysMemory};
    use dmt_pgtable::pte::PteFlags;

    /// Build a native setup: one VMA of `pages` 4 KiB pages at `base`,
    /// PTEs written directly into a TEA.
    fn native_setup(base: u64, pages: u64) -> (PhysMemory, DmtRegisterFile, VmaTeaMapping) {
        let mut pm = PhysMemory::new_bytes(64 << 20);
        let m = VmaTeaMapping::new(VirtAddr(base), pages * 4096, PageSize::Size4K, Pfn(0));
        let tea = pm.alloc_contig(m.tea_frames(), FrameKind::Tea).unwrap();
        let m = VmaTeaMapping::new(VirtAddr(base), pages * 4096, PageSize::Size4K, tea);
        for p in 0..pages {
            let va = VirtAddr(base + p * 4096);
            let slot = m.pte_addr(va).unwrap();
            pm.write_word(slot, Pte::leaf(Pfn(1000 + p), PteFlags::WRITABLE).raw());
        }
        let mut regs = DmtRegisterFile::new();
        regs.load(&[m]);
        (pm, regs, m)
    }

    #[test]
    fn native_fetch_is_one_reference() {
        let (mut pm, regs, _) = native_setup(0x40_0000, 64);
        let mut hier = MemoryHierarchy::default();
        let out = fetch_native(
            &regs,
            &mut pm,
            &mut hier,
            VirtAddr(0x40_0000 + 5 * 4096 + 7),
            &mut (),
        )
        .unwrap();
        assert_eq!(out.refs, 1);
        assert_eq!(out.pa, PhysAddr(((1000 + 5) << 12) + 7));
        assert_eq!(out.size, PageSize::Size4K);
        // Cold: single DRAM access.
        assert_eq!(out.cycles, 200);
    }

    #[test]
    fn uncovered_address_falls_back() {
        let (mut pm, regs, _) = native_setup(0x40_0000, 4);
        let mut hier = MemoryHierarchy::default();
        assert!(matches!(
            fetch_native(&regs, &mut pm, &mut hier, VirtAddr(0x1_0000_0000), &mut ()),
            Err(DmtError::NotCovered { .. })
        ));
    }

    #[test]
    fn unpopulated_pte_reports_not_present() {
        let (mut pm, regs, m) = native_setup(0x40_0000, 4);
        // An address inside the covered (table-span-rounded) region but
        // beyond the populated pages.
        let va = VirtAddr(0x40_0000 + 100 * 4096);
        assert!(m.covers(va));
        let mut hier = MemoryHierarchy::default();
        assert!(matches!(
            fetch_native(&regs, &mut pm, &mut hier, va, &mut ()),
            Err(DmtError::PteNotPresent { .. })
        ));
    }

    #[test]
    fn fetch_sets_accessed_bit() {
        let (mut pm, regs, m) = native_setup(0x40_0000, 4);
        let va = VirtAddr(0x40_0000);
        let mut hier = MemoryHierarchy::default();
        fetch_native(&regs, &mut pm, &mut hier, va, &mut ()).unwrap();
        let pte = Pte(pm.read_word(m.pte_addr(va).unwrap()));
        assert!(pte.flags().contains(PteFlags::ACCESSED));
    }

    /// Two parallel TEAs (4 KiB + 2 MiB): latency is the max, and the
    /// present PTE wins.
    #[test]
    fn parallel_probe_of_mixed_sizes() {
        let mut pm = PhysMemory::new_bytes(64 << 20);
        let base = VirtAddr(0x4000_0000);
        let tea4k = pm.alloc_contig(1, FrameKind::Tea).unwrap();
        let tea2m = pm.alloc_contig(1, FrameKind::Tea).unwrap();
        let m4 = VmaTeaMapping::new(base, 4 << 20, PageSize::Size4K, tea4k);
        let m2 = VmaTeaMapping::new(base, 4 << 20, PageSize::Size2M, tea2m);
        // Only the 2 MiB TEA has a present PTE for this region.
        let va = base + (2 << 20) + 0x123;
        let slot2 = m2.pte_addr(va).unwrap();
        pm.write_word(
            slot2,
            Pte::huge_leaf(Pfn(512 * 9), PteFlags::WRITABLE).raw(),
        );
        let mut regs = DmtRegisterFile::new();
        regs.load(&[m4, m2]);
        let mut hier = MemoryHierarchy::default();
        let out = fetch_native(&regs, &mut pm, &mut hier, va, &mut ()).unwrap();
        assert_eq!(out.refs, 1, "parallel probes count as one reference");
        assert_eq!(out.size, PageSize::Size2M);
        assert_eq!(out.pa, PhysAddr(((512 * 9) << 12) + 0x123));
        // Max-of-parallel: both probes were DRAM (200), so total is 200.
        assert_eq!(out.cycles, 200);
    }

    #[test]
    fn gigabyte_pages_fetch_through_an_l3_tea() {
        // 1 GiB pages: the TEA holds L3-level leaves, one per GiB, with
        // a 512 GiB table span.
        let mut pm = PhysMemory::new_bytes(64 << 20);
        let base = VirtAddr(0); // 512 GiB-aligned
        let tea = pm.alloc_contig(1, FrameKind::Tea).unwrap();
        let m = VmaTeaMapping::new(base, 8 << 30, PageSize::Size1G, tea);
        assert_eq!(m.tea_frames(), 1);
        let va = VirtAddr((5 << 30) + 0x1234_5678);
        let slot = m.pte_addr(va).unwrap();
        assert_eq!(slot, PhysAddr((tea.0 << 12) + 5 * 8));
        pm.write_word(slot, Pte::huge_leaf(Pfn(9 << 18), PteFlags::WRITABLE).raw());
        let mut regs = DmtRegisterFile::new();
        regs.load(&[m]);
        let mut hier = MemoryHierarchy::default();
        let out = fetch_native(&regs, &mut pm, &mut hier, va, &mut ()).unwrap();
        assert_eq!(out.refs, 1);
        assert_eq!(out.size, PageSize::Size1G);
        assert_eq!(out.pa, PhysAddr(((9u64 << 18) << 12) + 0x1234_5678));
    }

    #[test]
    fn pv_fetch_is_two_references_and_isolated() {
        let mut pm = PhysMemory::new_bytes(64 << 20);
        // Guest VMA at gVA 0x40_0000, 16 pages; gTEA in host memory.
        let gbase = VirtAddr(0x40_0000);
        let gtea_frames =
            VmaTeaMapping::new(gbase, 16 * 4096, PageSize::Size4K, Pfn(0)).tea_frames();
        let gtea_pfn = pm.alloc_contig(gtea_frames, FrameKind::Tea).unwrap();
        let mut gtea_table = GteaTable::new();
        let gid = gtea_table.register(gtea_pfn, gtea_frames);
        let gm = VmaTeaMapping::new(gbase, 16 * 4096, PageSize::Size4K, Pfn(0)).with_gtea_id(gid);
        // Host VMA covering guest physical [0, 32 MiB) with hTEA.
        let hm_proto = VmaTeaMapping::new(VirtAddr(0), 32 << 20, PageSize::Size4K, Pfn(0));
        let htea_pfn = pm
            .alloc_contig(hm_proto.tea_frames(), FrameKind::Tea)
            .unwrap();
        let hm = VmaTeaMapping::new(VirtAddr(0), 32 << 20, PageSize::Size4K, htea_pfn);
        // Populate: gVA page p -> gPA frame 100+p -> hPA frame 5000+.
        for p in 0..16u64 {
            let va = VirtAddr(gbase.raw() + p * 4096);
            let goff = gm.pte_offset(va).unwrap();
            let gslot = gtea_table.resolve(gid, goff).unwrap();
            pm.write_word(gslot, Pte::leaf(Pfn(100 + p), PteFlags::WRITABLE).raw());
            let hslot = hm.pte_addr(VirtAddr((100 + p) << 12)).unwrap();
            pm.write_word(hslot, Pte::leaf(Pfn(5000 + p), PteFlags::WRITABLE).raw());
        }
        let mut guest_regs = DmtRegisterFile::new();
        guest_regs.load(&[gm]);
        let mut host_regs = DmtRegisterFile::new();
        host_regs.load(&[hm]);
        let mut hier = MemoryHierarchy::default();
        let va = VirtAddr(gbase.raw() + 3 * 4096 + 0x21);
        let mut steps = Vec::new();
        let out = fetch_virt_pv(
            &guest_regs,
            &gtea_table,
            &host_regs,
            &mut pm,
            &mut hier,
            va,
            &mut steps,
        )
        .unwrap();
        assert_eq!(out.refs, 2, "pvDMT: gPTE + hPTE");
        assert_eq!(out.pa, PhysAddr(((5000 + 3) << 12) + 0x21));
        assert_eq!(steps[0].stage, FetchStage::Guest);
        assert_eq!(steps[1].stage, FetchStage::Host);

        // Isolation: a forged gTEA ID faults instead of reading host
        // memory.
        let forged =
            VmaTeaMapping::new(gbase, 16 * 4096, PageSize::Size4K, Pfn(0)).with_gtea_id(gid + 7);
        guest_regs.load(&[forged]);
        assert!(matches!(
            fetch_virt_pv(
                &guest_regs,
                &gtea_table,
                &host_regs,
                &mut pm,
                &mut hier,
                va,
                &mut ()
            ),
            Err(DmtError::InvalidGteaId { .. })
        ));
    }

    #[test]
    fn unpv_fetch_is_three_references() {
        let mut pm = PhysMemory::new_bytes(64 << 20);
        let gbase = VirtAddr(0x40_0000);
        // Guest TEA lives in guest physical memory at gPA 0x10_0000.
        // Host maps guest physical pages linearly: gPA frame g -> hPA
        // frame g + 2048, via the hTEA.
        const HOST_OFF: u64 = 2048;
        let gm = VmaTeaMapping::new(gbase, 16 * 4096, PageSize::Size4K, Pfn(0x100));
        let hm_proto = VmaTeaMapping::new(VirtAddr(0), 32 << 20, PageSize::Size4K, Pfn(0));
        let htea = pm
            .alloc_contig(hm_proto.tea_frames(), FrameKind::Tea)
            .unwrap();
        let hm = VmaTeaMapping::new(VirtAddr(0), 32 << 20, PageSize::Size4K, htea);
        for g in 0..4096u64 {
            let hslot = hm.pte_addr(VirtAddr(g << 12)).unwrap();
            pm.write_word(
                hslot,
                Pte::leaf(Pfn(g + HOST_OFF), PteFlags::WRITABLE).raw(),
            );
        }
        // Write guest PTEs at their *host* locations (gPA + offset).
        for p in 0..16u64 {
            let va = VirtAddr(gbase.raw() + p * 4096);
            let gpte_gpa = gm.pte_addr(va).unwrap();
            let gpte_hpa = PhysAddr(gpte_gpa.raw() + (HOST_OFF << 12));
            pm.write_word(gpte_hpa, Pte::leaf(Pfn(300 + p), PteFlags::WRITABLE).raw());
        }
        let mut guest_regs = DmtRegisterFile::new();
        guest_regs.load(&[gm]);
        let mut host_regs = DmtRegisterFile::new();
        host_regs.load(&[hm]);
        let mut hier = MemoryHierarchy::default();
        let va = VirtAddr(gbase.raw() + 2 * 4096 + 5 * 8);
        let out =
            fetch_virt_unpv(&guest_regs, &host_regs, &mut pm, &mut hier, va, &mut ()).unwrap();
        assert_eq!(out.refs, 3, "DMT without pv: hPTE + gPTE + hPTE");
        // data gPA frame = 300+2 -> hPA frame 300+2+HOST_OFF.
        assert_eq!(out.pa, PhysAddr(((300 + 2 + HOST_OFF) << 12) + 5 * 8));
    }

    #[test]
    fn nested_pv_fetch_is_three_references() {
        let mut pm = PhysMemory::new_bytes(64 << 20);
        let l2base = VirtAddr(0x40_0000);
        // L2 TEA (in L0 phys, via L2's gTEA table).
        let l2m_proto = VmaTeaMapping::new(l2base, 8 * 4096, PageSize::Size4K, Pfn(0));
        let l2tea = pm
            .alloc_contig(l2m_proto.tea_frames(), FrameKind::Tea)
            .unwrap();
        let mut l2_gtea = GteaTable::new();
        let l2id = l2_gtea.register(l2tea, l2m_proto.tea_frames());
        let l2m = l2m_proto.with_gtea_id(l2id);
        // L1 TEA translating L2PA -> L1PA.
        let l1m_proto = VmaTeaMapping::new(VirtAddr(0), 16 << 20, PageSize::Size4K, Pfn(0));
        let l1tea = pm
            .alloc_contig(l1m_proto.tea_frames(), FrameKind::Tea)
            .unwrap();
        let mut l1_gtea = GteaTable::new();
        let l1id = l1_gtea.register(l1tea, l1m_proto.tea_frames());
        let l1m = l1m_proto.with_gtea_id(l1id);
        // L0 TEA translating L1PA -> L0PA.
        let l0m_proto = VmaTeaMapping::new(VirtAddr(0), 16 << 20, PageSize::Size4K, Pfn(0));
        let l0tea = pm
            .alloc_contig(l0m_proto.tea_frames(), FrameKind::Tea)
            .unwrap();
        let l0m = VmaTeaMapping::new(VirtAddr(0), 16 << 20, PageSize::Size4K, l0tea);
        // Populate the three levels: L2VA page p -> L2PA 10+p -> L1PA
        // 20+p -> L0PA 30+p.
        for p in 0..8u64 {
            let va = VirtAddr(l2base.raw() + p * 4096);
            let s2 = l2_gtea.resolve(l2id, l2m.pte_offset(va).unwrap()).unwrap();
            pm.write_word(s2, Pte::leaf(Pfn(10 + p), PteFlags::WRITABLE).raw());
            let s1 = l1_gtea
                .resolve(l1id, l1m.pte_offset(VirtAddr((10 + p) << 12)).unwrap())
                .unwrap();
            pm.write_word(s1, Pte::leaf(Pfn(20 + p), PteFlags::WRITABLE).raw());
            let s0 = l0m.pte_addr(VirtAddr((20 + p) << 12)).unwrap();
            pm.write_word(s0, Pte::leaf(Pfn(30 + p), PteFlags::WRITABLE).raw());
        }
        let mut l2_regs = DmtRegisterFile::new();
        l2_regs.load(&[l2m]);
        let mut l1_regs = DmtRegisterFile::new();
        l1_regs.load(&[l1m]);
        let mut l0_regs = DmtRegisterFile::new();
        l0_regs.load(&[l0m]);
        let mut hier = MemoryHierarchy::default();
        let va = VirtAddr(l2base.raw() + 4 * 4096 + 9);
        let mut steps = Vec::new();
        let out = fetch_nested_pv(
            &l2_regs, &l2_gtea, &l1_regs, &l1_gtea, &l0_regs, &mut pm, &mut hier, va, &mut steps,
        )
        .unwrap();
        assert_eq!(out.refs, 3, "nested pvDMT: L2PTE + L1PTE + L0PTE");
        assert_eq!(out.pa, PhysAddr(((30 + 4) << 12) + 9));
        let stages: Vec<_> = steps.iter().map(|s| s.stage).collect();
        assert_eq!(
            stages,
            vec![FetchStage::Guest, FetchStage::Middle, FetchStage::Host]
        );
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(16))]

        /// The `Vec` sink and the `()` sink drive the same fetch: equal
        /// outcomes (errors included), hierarchy statistics and accessed
        /// bits on two identical machines, one step per reference.
        #[test]
        fn vec_and_unit_sinks_fetch_identically(
            probes in proptest::prop::collection::vec(0u64..160, 1..96),
        ) {
            // 64 populated pages of a 2 MiB-rounded TEA span: probes past
            // them are present-free (PteNotPresent) or uncovered.
            let (mut pm_a, regs_a, m) = native_setup(0x40_0000, 64);
            let (mut pm_b, regs_b, _) = native_setup(0x40_0000, 64);
            let mut hier_a = MemoryHierarchy::default();
            let mut hier_b = MemoryHierarchy::default();
            for &p in &probes {
                let base = if p >= 150 { 0x8000_0000 } else { 0x40_0000 };
                let va = VirtAddr(base + (p % 150) * 4096 + p);
                let mut steps = Vec::new();
                let a = fetch_native(&regs_a, &mut pm_a, &mut hier_a, va, &mut steps);
                let b = fetch_native(&regs_b, &mut pm_b, &mut hier_b, va, &mut ());
                proptest::prop_assert_eq!(a, b);
                if let Ok(out) = a {
                    proptest::prop_assert_eq!(out.refs, steps.len() as u64);
                    proptest::prop_assert_eq!(out.cycles, steps[0].cycles);
                }
            }
            proptest::prop_assert_eq!(hier_a.stats(), hier_b.stats());
            for p in 0..64u64 {
                let slot = m.pte_addr(VirtAddr(0x40_0000 + p * 4096)).unwrap();
                proptest::prop_assert_eq!(pm_a.read_word(slot), pm_b.read_word(slot));
            }
        }
    }

    #[test]
    fn not_present_probe_charges_the_discovery_fetch() {
        let (mut pm, regs, _) = native_setup(0x40_0000, 4);
        let mut hier = MemoryHierarchy::default();
        let before = hier.stats().total();
        assert!(matches!(
            fetch_native(
                &regs,
                &mut pm,
                &mut hier,
                VirtAddr(0x40_0000 + 100 * 4096),
                &mut ()
            ),
            Err(DmtError::PteNotPresent { .. })
        ));
        assert_eq!(hier.stats().total(), before + 1);
    }
}
