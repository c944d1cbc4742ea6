//! Elastic Cuckoo Page Tables (ECPT) — Skarlatos et al., ASPLOS'20, and
//! the nested variant of Stojkovic et al., ASPLOS'22.
//!
//! ECPT replaces the radix tree with d-ary cuckoo hash tables, one per
//! page size. A translation issues all `d × sizes` probes **in
//! parallel**: one sequential step natively, three sequentially for the
//! nested variant (guest probe → host probe for the guest entry → host
//! probe for the data), with up to 81 parallel accesses. Tables resize
//! ("elastically") when load exceeds a threshold.
//!
//! This implementation stores entries in simulated physical memory —
//! 16-byte `(tag, pte)` slots in per-way contiguous regions — so probe
//! latency is decided by the same cache hierarchy as every other design.

use crate::BaselineError;
use dmt_cache::hierarchy::MemoryHierarchy;
use dmt_cache::set_assoc::SetAssoc;
use dmt_mem::buddy::FrameKind;
use dmt_mem::{MemoryOps, PageSize, PhysAddr, PhysMemory, VirtAddr};
use dmt_pgtable::pte::Pte;

/// Number of cuckoo ways per table (the paper's d = 3).
pub const WAYS: usize = 3;
/// Cycles charged for the parallel hash computations per lookup step.
pub const HASH_CYCLES: u64 = 2;
/// Resize when a way exceeds this load factor.
const MAX_LOAD: f64 = 0.6;
/// Maximum cuckoo kicks before declaring the insert path full.
const MAX_KICKS: usize = 32;

/// Hash seeds per way.
const SEEDS: [u64; WAYS] = [
    0x9e37_79b9_7f4a_7c15,
    0xc2b2_ae3d_27d4_eb4f,
    0x1656_67b1_9e37_79f9,
];

fn hash(way: usize, vpn: u64, slots: u64) -> u64 {
    (vpn ^ SEEDS[way]).wrapping_mul(SEEDS[(way + 1) % WAYS]) % slots
}

/// Slot index for `vpn`: ECPT hashes at 8-page granularity so the 8
/// PTEs of consecutive pages share one cache line (the design packs a
/// full 64-byte line of PTEs per hash entry), preserving the spatial
/// locality radix tables get for free.
fn slot_index(way: usize, vpn: u64, slots: u64) -> u64 {
    let groups = (slots / 8).max(1);
    hash(way, vpn >> 3, groups) * 8 + (vpn & 7)
}

/// One page-size's cuckoo table: `WAYS` contiguous arrays of 16-byte
/// slots.
#[derive(Debug, Clone)]
struct CuckooTable {
    /// Base frame of each way's array.
    way_base: [PhysAddr; WAYS],
    /// Slots per way.
    slots: u64,
    /// Live entries.
    occupancy: u64,
    size: PageSize,
}

impl CuckooTable {
    fn new<M: MemoryOps>(
        pm: &mut M,
        alloc: &mut dyn FnMut(&mut M, u64) -> dmt_mem::Result<dmt_mem::Pfn>,
        slots: u64,
        size: PageSize,
    ) -> Result<Self, BaselineError> {
        let slots = slots.div_ceil(8) * 8;
        let frames_per_way = (slots * 16).div_ceil(4096);
        let mut way_base = [PhysAddr(0); WAYS];
        for w in way_base.iter_mut() {
            let base = alloc(pm, frames_per_way)?;
            *w = PhysAddr::from_pfn(base);
        }
        Ok(CuckooTable {
            way_base,
            slots,
            occupancy: 0,
            size,
        })
    }

    fn slot_addr(&self, way: usize, idx: u64) -> PhysAddr {
        self.way_base[way] + idx * 16
    }

    fn read_slot<M: MemoryOps>(&self, pm: &M, way: usize, idx: u64) -> (u64, Pte) {
        let a = self.slot_addr(way, idx);
        (pm.read_word(a), Pte(pm.read_word(a + 8)))
    }

    fn write_slot<M: MemoryOps>(&self, pm: &mut M, way: usize, idx: u64, tag: u64, pte: Pte) {
        let a = self.slot_addr(way, idx);
        pm.write_word(a, tag);
        pm.write_word(a + 8, pte.raw());
    }

    /// Tag encoding: vpn+1 so the empty slot (0) is never a valid tag.
    fn tag(vpn: u64) -> u64 {
        vpn + 1
    }

    /// Insert with cuckoo kicks; `Err` means the table needs a resize.
    fn insert<M: MemoryOps>(&mut self, pm: &mut M, vpn: u64, pte: Pte) -> Result<(), (u64, Pte)> {
        let (mut tag, mut pte) = (Self::tag(vpn), pte);
        let mut way = 0usize;
        for _ in 0..MAX_KICKS {
            let v = tag - 1;
            let idx = slot_index(way, v, self.slots);
            let (old_tag, old_pte) = self.read_slot(pm, way, idx);
            self.write_slot(pm, way, idx, tag, pte);
            if old_tag == 0 || old_tag == tag {
                if old_tag == 0 {
                    self.occupancy += 1;
                }
                return Ok(());
            }
            // Kick the evicted entry to its next way.
            tag = old_tag;
            pte = old_pte;
            way = (way + 1) % WAYS;
        }
        Err((tag, pte))
    }

    fn load(&self) -> f64 {
        self.occupancy as f64 / (self.slots * WAYS as u64) as f64
    }
}

/// Per-lookup-step cost: parallel probes resolved as max latency.
#[derive(Debug, Clone, Copy, Default)]
pub struct EcptStep {
    /// Parallel memory probes issued.
    pub parallel_refs: u64,
    /// Cycles (max of the parallel probes + hash).
    pub cycles: u64,
}

/// Result of an ECPT translation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EcptOutcome {
    /// Translated physical address.
    pub pa: PhysAddr,
    /// Page size of the mapping.
    pub size: PageSize,
    /// Total cycles (sum over sequential steps).
    pub cycles: u64,
    /// Sequential memory steps (1 native, 3 nested).
    pub refs: u64,
    /// Total parallel probes across all steps.
    pub parallel_refs: u64,
}

/// An elastic cuckoo page table set (one cuckoo table per page size),
/// with a Cuckoo Walk Cache (CWC) remembering which `(size, way)` holds
/// recently translated regions so warm lookups issue a single probe
/// instead of the full parallel set — the paper's designs rely on this.
#[derive(Debug, Clone)]
pub struct Ecpt {
    tables: Vec<CuckooTable>,
    resizes: u64,
    /// The CWC: 2 MiB region → index into `tables` (the page size to
    /// probe), held in its way; 64 entries, 4-way. Read and written only
    /// through [`cwc_predict`](Self::cwc_predict),
    /// [`cwc_learn`](Self::cwc_learn) and [`cwc_forget`](Self::cwc_forget).
    cwc: SetAssoc<u8>,
}

impl Ecpt {
    /// Create tables with `initial_slots` slots per way for the 4 KiB
    /// size (huge-page tables start smaller).
    ///
    /// # Errors
    ///
    /// Propagates contiguous-allocation failures (ECPT shares DMT's need
    /// for physical contiguity).
    pub fn new(pm: &mut PhysMemory, initial_slots: u64) -> Result<Self, BaselineError> {
        Self::new_in(
            pm,
            &mut |pm, frames| pm.alloc_contig(frames, FrameKind::PageTable),
            initial_slots,
        )
    }

    /// Create tables in an arbitrary address space (e.g. guest physical
    /// memory) with a caller-supplied contiguous allocator.
    ///
    /// # Errors
    ///
    /// Propagates allocation failures.
    pub fn new_in<M: MemoryOps>(
        pm: &mut M,
        alloc: &mut dyn FnMut(&mut M, u64) -> dmt_mem::Result<dmt_mem::Pfn>,
        initial_slots: u64,
    ) -> Result<Self, BaselineError> {
        Self::new_sized(pm, alloc, initial_slots, (initial_slots / 64).max(8))
    }

    /// Create tables with explicit 4 KiB and 2 MiB sizing (slots per
    /// way), for callers that know the page-size mix in advance.
    ///
    /// # Errors
    ///
    /// Propagates allocation failures.
    pub fn new_sized<M: MemoryOps>(
        pm: &mut M,
        alloc: &mut dyn FnMut(&mut M, u64) -> dmt_mem::Result<dmt_mem::Pfn>,
        slots_4k: u64,
        slots_2m: u64,
    ) -> Result<Self, BaselineError> {
        Ok(Ecpt {
            tables: vec![
                CuckooTable::new(pm, alloc, slots_4k.max(8), PageSize::Size4K)?,
                CuckooTable::new(pm, alloc, slots_2m.max(8), PageSize::Size2M)?,
                CuckooTable::new(pm, alloc, 8, PageSize::Size1G)?,
            ],
            resizes: 0,
            cwc: SetAssoc::with_capacity(64, 4),
        })
    }

    /// Number of elastic resizes performed.
    pub fn resizes(&self) -> u64 {
        self.resizes
    }

    /// Flush the Cuckoo Walk Cache, as a TLB-flush analog — the tables
    /// themselves are untouched. The sharded-replay epoch barrier relies
    /// on this to make warm-cache state a function of position in the
    /// trace (DESIGN.md §14).
    pub fn flush_walk_cache(&mut self) {
        self.cwc.flush();
    }

    /// CWC predict step: the index of the table the CWC remembers for
    /// `va`'s 2 MiB region, if any. A hit refreshes the entry's LRU rank.
    fn cwc_predict(&mut self, va: VirtAddr) -> Option<usize> {
        self.cwc.lookup_value(va.raw() >> 21).map(usize::from)
    }

    /// CWC learn step: remember that `size`'s table backs `va`'s region.
    fn cwc_learn(&mut self, va: VirtAddr, size: PageSize) {
        let ti = self.table_index(size) as u8;
        self.cwc.insert_value(va.raw() >> 21, ti);
    }

    /// CWC forget step: drop a stale prediction for `va`'s region.
    fn cwc_forget(&mut self, va: VirtAddr) {
        self.cwc.invalidate(va.raw() >> 21);
    }

    /// Map a page (software insert; resizes as needed).
    ///
    /// # Errors
    ///
    /// Propagates allocation failures during resize.
    pub fn map(
        &mut self,
        pm: &mut PhysMemory,
        va: VirtAddr,
        pa: PhysAddr,
        size: PageSize,
    ) -> Result<(), BaselineError> {
        self.map_in(
            pm,
            &mut |pm, frames| pm.alloc_contig(frames, FrameKind::PageTable),
            va,
            pa,
            size,
        )
    }

    /// Map a page in an arbitrary address space. Resizes allocate through
    /// `alloc`; old ways are leaked in that case (guest-space rigs size
    /// their tables to avoid resizing).
    ///
    /// # Errors
    ///
    /// Propagates allocation failures.
    pub fn map_in<M: MemoryOps>(
        &mut self,
        pm: &mut M,
        alloc: &mut dyn FnMut(&mut M, u64) -> dmt_mem::Result<dmt_mem::Pfn>,
        va: VirtAddr,
        pa: PhysAddr,
        size: PageSize,
    ) -> Result<(), BaselineError> {
        let ti = self.table_index(size);
        let vpn = va.vpn_for(size);
        let pte = if size == PageSize::Size4K {
            Pte::leaf(pa.pfn(), dmt_pgtable::pte::PteFlags::WRITABLE)
        } else {
            Pte::huge_leaf(pa.pfn(), dmt_pgtable::pte::PteFlags::WRITABLE)
        };
        // The kick chain writes the incoming entry immediately; what can
        // be left homeless after MAX_KICKS is the *last displaced* entry,
        // which must be re-inserted after the resize or it is lost.
        let mut pending = vec![(vpn, pte)];
        while let Some((v, p)) = pending.pop() {
            if self.tables[ti].load() > MAX_LOAD {
                self.resize(pm, alloc, ti)?;
            }
            if let Err((homeless_tag, homeless_pte)) = self.tables[ti].insert(pm, v, p) {
                self.resize(pm, alloc, ti)?;
                pending.push((homeless_tag - 1, homeless_pte));
            }
        }
        Ok(())
    }

    /// Grow table `ti` to twice the slots and rehash (the "elastic"
    /// operation; modeled as a stop-the-world rehash). Old ways are freed
    /// only when `M` is host physical memory — other spaces leak them,
    /// which oversizes guest tables slightly (noted in DESIGN.md).
    fn resize<M: MemoryOps>(
        &mut self,
        pm: &mut M,
        alloc: &mut dyn FnMut(&mut M, u64) -> dmt_mem::Result<dmt_mem::Pfn>,
        ti: usize,
    ) -> Result<(), BaselineError> {
        let old = self.tables[ti].clone();
        let mut fresh = CuckooTable::new(pm, alloc, old.slots * 2, old.size)?;
        for way in 0..WAYS {
            for idx in 0..old.slots {
                let (tag, pte) = old.read_slot(pm, way, idx);
                if tag != 0 {
                    fresh
                        .insert(pm, tag - 1, pte)
                        .map_err(|_| BaselineError::EcptFull)?;
                }
            }
        }
        self.tables[ti] = fresh;
        self.resizes += 1;
        Ok(())
    }

    fn table_index(&self, size: PageSize) -> usize {
        match size {
            PageSize::Size4K => 0,
            PageSize::Size2M => 1,
            PageSize::Size1G => 2,
        }
    }

    /// One hardware lookup step. On a Cuckoo Walk Cache hit a single slot
    /// is probed; otherwise all ways of all tables go in parallel and the
    /// CWC is refilled.
    pub fn probe_step<M: MemoryOps>(
        &mut self,
        pm: &M,
        hier: &mut MemoryHierarchy,
        va: VirtAddr,
    ) -> (Option<(Pte, PageSize)>, EcptStep) {
        // The CWC predicts which page *size* backs a 2 MiB region, so a
        // warm lookup probes one table's ways instead of all tables'.
        let predicted = self.cwc_predict(va);
        let tables = predicted.map_or(0..self.tables.len(), |ti| ti..ti + 1);
        let mut max_cycles = 0u64;
        let mut refs = 0u64;
        let mut hit = None;
        for ti in tables {
            let t = &self.tables[ti];
            let vpn = va.vpn_for(t.size);
            let want = CuckooTable::tag(vpn);
            for way in 0..WAYS {
                let idx = slot_index(way, vpn, t.slots);
                let (_, cyc) = hier.access(t.slot_addr(way, idx).raw());
                max_cycles = max_cycles.max(cyc);
                refs += 1;
                let (tag, pte) = t.read_slot(pm, way, idx);
                if tag == want && pte.present() && hit.is_none() {
                    hit = Some((pte, t.size));
                }
            }
        }
        if let (None, Some((_, size))) = (predicted, hit) {
            self.cwc_learn(va, size);
        }
        if hit.is_none() && predicted.is_some() {
            // Stale size prediction: invalidate and redo the full probe,
            // keeping the wasted probes' cost.
            self.cwc_forget(va);
            let (h, step) = self.probe_step(pm, hier, va);
            return (
                h,
                EcptStep {
                    parallel_refs: refs + step.parallel_refs,
                    cycles: max_cycles.max(step.cycles),
                },
            );
        }
        (
            hit,
            EcptStep {
                parallel_refs: refs,
                cycles: max_cycles + HASH_CYCLES,
            },
        )
    }

    /// Native translation: one sequential step (Table 6).
    ///
    /// # Errors
    ///
    /// Returns [`BaselineError::NotMapped`] on a missing entry.
    pub fn translate<M: MemoryOps>(
        &mut self,
        pm: &M,
        hier: &mut MemoryHierarchy,
        va: VirtAddr,
    ) -> Result<EcptOutcome, BaselineError> {
        let (hit, step) = self.probe_step(pm, hier, va);
        let (pte, size) = hit.ok_or(BaselineError::NotMapped { va: va.raw() })?;
        Ok(EcptOutcome {
            pa: PhysAddr(pte.phys_addr().raw() + va.offset_in(size)),
            size,
            cycles: step.cycles,
            refs: 1,
            parallel_refs: step.parallel_refs,
        })
    }
}

/// Nested ECPT: a guest ECPT (gVA→gPA) whose entries live in guest
/// physical memory, plus a host ECPT (gPA→hPA). Three sequential steps,
/// up to 81 parallel probes.
#[derive(Debug)]
pub struct NestedEcpt {
    /// Guest table (addresses within it are gPAs).
    pub guest: Ecpt,
    /// Host table (hPAs).
    pub host: Ecpt,
}

impl NestedEcpt {
    /// Translate a gVA: host-probe for the guest entry's location, probe
    /// the guest entry, host-probe for the data gPA.
    ///
    /// The guest table's slot addresses are gPAs; `gpa_to_hpa` supplies
    /// the software redirection for reading the slot contents, while the
    /// *cost* of locating them is the host probe step, as in the
    /// hardware design.
    ///
    /// # Errors
    ///
    /// Returns [`BaselineError::NotMapped`] on a miss in either
    /// dimension.
    pub fn translate<M: MemoryOps>(
        &mut self,
        pm: &M,
        hier: &mut MemoryHierarchy,
        gva: VirtAddr,
        gpa_to_hpa: impl Fn(PhysAddr) -> Option<PhysAddr>,
    ) -> Result<EcptOutcome, BaselineError> {
        // Which guest candidates to consider: all ways of all sizes, or
        // only the CWC-predicted size's ways.
        let predicted = self.guest.cwc_predict(gva);
        let tables = predicted.map_or(0..self.guest.tables.len(), |ti| ti..ti + 1);
        let candidates = || {
            tables
                .clone()
                .flat_map(|ti| (0..WAYS).map(move |w| (ti, w)))
        };
        // Step 1: host probes for each guest candidate slot (parallel;
        // up to guest ways x host ways = 81 with 3 sizes, 1 x host ways
        // on a CWC hit).
        let mut step1 = EcptStep::default();
        for (ti, way) in candidates() {
            let t = &self.guest.tables[ti];
            let vpn = gva.vpn_for(t.size);
            let idx = slot_index(way, vpn, t.slots);
            let slot_gpa = t.slot_addr(way, idx);
            let (_, hstep) = self.host.probe_step(pm, hier, VirtAddr(slot_gpa.raw()));
            step1.parallel_refs += hstep.parallel_refs;
            step1.cycles = step1.cycles.max(hstep.cycles);
        }
        // Step 2: fetch the guest entries themselves (parallel), reading
        // through the software redirection.
        let mut step2 = EcptStep::default();
        let mut ghit: Option<(Pte, PageSize)> = None;
        for (ti, way) in candidates() {
            let t = &self.guest.tables[ti];
            let size = t.size;
            let vpn = gva.vpn_for(size);
            let want = CuckooTable::tag(vpn);
            let idx = slot_index(way, vpn, t.slots);
            let slot_gpa = t.slot_addr(way, idx);
            let slot_hpa =
                gpa_to_hpa(slot_gpa).ok_or(BaselineError::NotMapped { va: gva.raw() })?;
            let (_, cyc) = hier.access(slot_hpa.raw());
            step2.parallel_refs += 1;
            step2.cycles = step2.cycles.max(cyc);
            let tag = pm.read_word(slot_hpa);
            let pte = Pte(pm.read_word(slot_hpa + 8));
            if tag == want && pte.present() && ghit.is_none() {
                ghit = Some((pte, size));
                if predicted.is_none() {
                    self.guest.cwc_learn(gva, size);
                }
            }
        }
        step2.cycles += HASH_CYCLES;
        let (gpte, gsize) = match ghit {
            Some(v) => v,
            None if predicted.is_some() => {
                // Stale CWC prediction: drop it and redo the full probe,
                // charging only the redo (the native path keeps the
                // wasted probes' cost).
                self.guest.cwc_forget(gva);
                return self.translate(pm, hier, gva, gpa_to_hpa);
            }
            None => return Err(BaselineError::NotMapped { va: gva.raw() }),
        };
        let data_gpa = PhysAddr(gpte.phys_addr().raw() + gva.offset_in(gsize));

        // Step 3: host probe for the data gPA.
        let (hhit, step3) = self.host.probe_step(pm, hier, VirtAddr(data_gpa.raw()));
        let (hpte, hsize) = hhit.ok_or(BaselineError::NotMapped { va: data_gpa.raw() })?;
        let pa = PhysAddr(hpte.phys_addr().raw() + VirtAddr(data_gpa.raw()).offset_in(hsize));

        Ok(EcptOutcome {
            pa,
            size: gsize,
            cycles: step1.cycles + step2.cycles + step3.cycles,
            refs: 3,
            parallel_refs: step1.parallel_refs + step2.parallel_refs + step3.parallel_refs,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmt_mem::Pfn;

    #[test]
    fn map_translate_roundtrip() {
        let mut pm = PhysMemory::new_bytes(64 << 20);
        let mut ecpt = Ecpt::new(&mut pm, 1024).unwrap();
        let mut hier = MemoryHierarchy::default();
        for i in 0..200u64 {
            ecpt.map(
                &mut pm,
                VirtAddr(0x10_0000_0000 + i * 4096),
                PhysAddr((5000 + i) << 12),
                PageSize::Size4K,
            )
            .unwrap();
        }
        for i in (0..200u64).step_by(13) {
            let out = ecpt
                .translate(&pm, &mut hier, VirtAddr(0x10_0000_0000 + i * 4096 + 0x77))
                .unwrap();
            assert_eq!(out.pa, PhysAddr(((5000 + i) << 12) + 0x77));
            assert_eq!(out.refs, 1, "native ECPT: one sequential step");
            // Cold regions probe 3 ways x 3 sizes; once the CWC predicts
            // the size, 3 ways of one table suffice.
            assert!(
                out.parallel_refs == 9 || out.parallel_refs == 3,
                "parallel refs {}",
                out.parallel_refs
            );
        }
    }

    #[test]
    fn walk_cache_narrows_a_learned_region_to_one_table() {
        let mut pm = PhysMemory::new_bytes(64 << 20);
        let mut ecpt = Ecpt::new(&mut pm, 1024).unwrap();
        let mut hier = MemoryHierarchy::default();
        let base = VirtAddr(0x10_0000_0000);
        for i in 0..4u64 {
            let va = VirtAddr(base.raw() + i * 4096);
            ecpt.map(&mut pm, va, PhysAddr((700 + i) << 12), PageSize::Size4K)
                .unwrap();
        }
        let every_table = (WAYS * ecpt.tables.len()) as u64;
        let probes = |ecpt: &mut Ecpt, hier: &mut MemoryHierarchy, page: u64| {
            let out = ecpt
                .translate(&pm, hier, VirtAddr(base.raw() + page * 4096))
                .unwrap();
            assert_eq!(out.pa, PhysAddr((700 + page) << 12));
            out.parallel_refs
        };
        // Cold: every table's ways. The hit teaches the CWC the region's
        // page size, so any page of the 2 MiB region then probes one
        // table's ways.
        assert_eq!(probes(&mut ecpt, &mut hier, 0), every_table);
        assert_eq!(probes(&mut ecpt, &mut hier, 0), WAYS as u64);
        assert_eq!(probes(&mut ecpt, &mut hier, 3), WAYS as u64);
        // A flush forgets the region; the next walk relearns it.
        ecpt.flush_walk_cache();
        assert_eq!(probes(&mut ecpt, &mut hier, 1), every_table);
        assert_eq!(probes(&mut ecpt, &mut hier, 2), WAYS as u64);
    }

    #[test]
    fn missing_entry_errors() {
        let mut pm = PhysMemory::new_bytes(16 << 20);
        let mut ecpt = Ecpt::new(&mut pm, 64).unwrap();
        let mut hier = MemoryHierarchy::default();
        assert!(matches!(
            ecpt.translate(&pm, &mut hier, VirtAddr(0x123000)),
            Err(BaselineError::NotMapped { .. })
        ));
    }

    #[test]
    fn elastic_resize_preserves_entries() {
        let mut pm = PhysMemory::new_bytes(128 << 20);
        let mut ecpt = Ecpt::new(&mut pm, 16).unwrap(); // tiny: forces resizes
        let mut hier = MemoryHierarchy::default();
        for i in 0..2_000u64 {
            ecpt.map(
                &mut pm,
                VirtAddr(i * 4096),
                PhysAddr((9000 + i) << 12),
                PageSize::Size4K,
            )
            .unwrap();
        }
        assert!(ecpt.resizes() > 0, "tiny table must have resized");
        for i in (0..2_000u64).step_by(97) {
            let out = ecpt.translate(&pm, &mut hier, VirtAddr(i * 4096)).unwrap();
            assert_eq!(out.pa, PhysAddr((9000 + i) << 12), "entry {i}");
        }
    }

    #[test]
    fn huge_pages_use_their_own_table() {
        let mut pm = PhysMemory::new_bytes(64 << 20);
        let mut ecpt = Ecpt::new(&mut pm, 256).unwrap();
        let mut hier = MemoryHierarchy::default();
        ecpt.map(&mut pm, VirtAddr(0), PhysAddr(0x20_0000), PageSize::Size2M)
            .unwrap();
        let out = ecpt.translate(&pm, &mut hier, VirtAddr(0x12_3456)).unwrap();
        assert_eq!(out.size, PageSize::Size2M);
        assert_eq!(out.pa, PhysAddr(0x20_0000 + 0x12_3456));
    }

    #[test]
    fn nested_ecpt_is_three_steps_many_parallel() {
        let mut pm = PhysMemory::new_bytes(256 << 20);
        // "Guest physical" = host physical + OFFSET, host ECPT maps it.
        const OFF: u64 = 64 << 20;
        let mut guest = Ecpt::new(&mut pm, 512).unwrap();
        let mut host = Ecpt::new(&mut pm, 4096).unwrap();
        // Host maps gPA x -> hPA x + OFF for the low 32 MiB.
        for g in 0..(32 << 20 >> 12) {
            host.map(
                &mut pm,
                VirtAddr(g << 12),
                PhysAddr((g << 12) + OFF),
                PageSize::Size4K,
            )
            .unwrap();
        }
        // The guest's own slot arrays were allocated in host memory; we
        // treat their addresses as gPAs, so guest contents must be
        // written at gPA+OFF. Rebuild the guest table through a shifted
        // view by writing entries manually: map() wrote them at the raw
        // (unshifted) location, so copy them over.
        for i in 0..64u64 {
            guest
                .map(
                    &mut pm,
                    VirtAddr(0x7f00_0000_0000 + i * 4096),
                    PhysAddr((100 + i) << 12),
                    PageSize::Size4K,
                )
                .unwrap();
        }
        // Relocate guest table contents to +OFF (simulating that the
        // guest wrote them in its own physical space).
        for t in &guest.tables {
            let frames = (t.slots * 16).div_ceil(4096);
            for w in 0..WAYS {
                for f in 0..frames {
                    let src = Pfn(t.way_base[w].pfn().0 + f);
                    let dst = Pfn(src.0 + (OFF >> 12));
                    pm.copy_frame(src, dst);
                }
            }
        }
        let mut nested = NestedEcpt { guest, host };
        let mut hier = MemoryHierarchy::default();
        let out = nested
            .translate(
                &pm,
                &mut hier,
                VirtAddr(0x7f00_0000_0000 + 7 * 4096),
                |gpa| Some(PhysAddr(gpa.raw() + OFF)),
            )
            .unwrap();
        assert_eq!(out.refs, 3, "Nested ECPT: three sequential steps");
        assert!(out.parallel_refs <= 81 + 9 + 9);
        assert!(out.parallel_refs >= 27, "parallel: {}", out.parallel_refs);
        assert_eq!(out.pa, PhysAddr(((100 + 7) << 12) + OFF));
    }
}
