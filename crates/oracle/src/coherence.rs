//! TLB / page-walk-cache shootdown coherence: after any unmap the
//! translation caches must hold no entry the live page table disagrees
//! with. The audits read the caches' resident entries (no LRU effects)
//! and replay each against the radix tree; the [`ShootdownHarness`]
//! drives mmap / touch / munmap scenarios with and without the shootdown
//! so tests can prove the audits bite.

use dmt_cache::pwc::{PageWalkCache, PwcConfig};
use dmt_cache::tlb::{Tlb, TlbConfig};
use dmt_mem::{PhysAddr, PhysMemory, VirtAddr};
use dmt_os::proc::{Process, ThpMode};
use dmt_os::vma::{VmaId, VmaKind};

/// Check every resident TLB entry against the live page table: the page
/// must still be mapped, the cached reach must not exceed the mapping's
/// leaf size (a 4 KiB entry inside a 2 MiB leaf is merely conservative;
/// the reverse over-claims), and the entry's frame must be where the
/// page table puts the entry's base now — a TLB hit charges its data
/// access at that frame.
pub fn audit_tlb(tlb: &Tlb, pm: &PhysMemory, proc_: &Process) -> Vec<String> {
    let mut out = Vec::new();
    for (va, size, frame) in tlb.entries() {
        match proc_.page_table().translate(pm, va) {
            None => out.push(format!(
                "TLB: stale {size:?} entry for {:#x}: page no longer mapped",
                va.raw()
            )),
            Some((_, got)) if got.bytes() < size.bytes() => out.push(format!(
                "TLB: entry for {:#x} claims {size:?} reach over a {got:?} mapping",
                va.raw()
            )),
            Some((pa, _)) if pa != frame => out.push(format!(
                "TLB: stale frame in {size:?} entry for {:#x}: cached {:#x}, page table maps {:#x}",
                va.raw(),
                frame.raw(),
                pa.raw()
            )),
            Some(_) => {}
        }
    }
    out
}

/// Check every resident PWC entry against the live page table: a cached
/// level-`L` entry's payload must still be the level-`L-1` table the
/// radix tree points at for that region.
pub fn audit_pwc(pwc: &PageWalkCache, pm: &PhysMemory, proc_: &Process) -> Vec<String> {
    let mut out = Vec::new();
    for (level, va, next_table) in pwc.entries() {
        match proc_.page_table().table_frame(pm, va, level - 1) {
            Some(pfn) if PhysAddr::from_pfn(pfn) == next_table => {}
            got => out.push(format!(
                "PWC: level-{level} entry for {:#x} caches table {:#x}, page table has {:?}",
                va.raw(),
                next_table.raw(),
                got
            )),
        }
    }
    out
}

/// A process plus the hardware translation caches a core would keep for
/// it, driven as one unit so shootdown protocols can be exercised (and
/// deliberately violated) under the coherence audits.
pub struct ShootdownHarness {
    /// Physical memory.
    pub pm: PhysMemory,
    /// The process (DMT-managed, so TEAs are in play).
    pub proc_: Process,
    /// The core's TLB.
    pub tlb: Tlb,
    /// The core's page-walk cache.
    pub pwc: PageWalkCache,
}

impl ShootdownHarness {
    /// A fresh harness over `bytes` of physical memory.
    ///
    /// # Errors
    ///
    /// Propagates process-creation failures as strings.
    pub fn new(bytes: u64, thp: ThpMode) -> Result<Self, String> {
        let mut pm = PhysMemory::new_bytes(bytes);
        let proc_ = Process::new(&mut pm, thp).map_err(|e| e.to_string())?;
        Ok(ShootdownHarness {
            pm,
            proc_,
            tlb: Tlb::new(TlbConfig::xeon_gold_6138()),
            pwc: PageWalkCache::new(PwcConfig::xeon_gold_6138()),
        })
    }

    /// `mmap` a region.
    ///
    /// # Errors
    ///
    /// Propagates OS errors as strings.
    pub fn mmap(&mut self, base: VirtAddr, len: u64) -> Result<VmaId, String> {
        self.proc_
            .mmap(&mut self.pm, base, len, VmaKind::Heap)
            .map_err(|e| e.to_string())
    }

    /// Touch `va`: demand-populate it, then model the hardware walk the
    /// access would do — fill the TLB with the leaf and its frame, and
    /// the PWC with every upper-level table on the path.
    ///
    /// # Errors
    ///
    /// Propagates populate failures as strings.
    pub fn touch(&mut self, va: VirtAddr) -> Result<(), String> {
        self.proc_
            .populate(&mut self.pm, va)
            .map_err(|e| e.to_string())?;
        let (pa, size) = self
            .proc_
            .page_table()
            .translate(&self.pm, va)
            .ok_or_else(|| format!("{:#x} not mapped after populate", va.raw()))?;
        self.tlb.fill_pa(va, size, pa);
        for level in 2..=4u8 {
            if let Some(pfn) = self.proc_.page_table().table_frame(&self.pm, va, level - 1) {
                self.pwc.fill(va, level, PhysAddr::from_pfn(pfn));
            }
        }
        Ok(())
    }

    /// The shootdown a correct OS performs on unmap: invalidate every
    /// TLB entry overlapping `[base, base+len)` and flush the PWC (the
    /// CR3-write analog — coarse but always sufficient).
    pub fn shootdown(&mut self, base: VirtAddr, len: u64) {
        let end = base.raw() + len;
        for (va, size, _) in self.tlb.entries() {
            if va.raw() < end && va.raw() + size.bytes() > base.raw() {
                self.tlb.invalidate(va, size);
            }
        }
        self.pwc.flush();
    }

    /// Unmap a VMA *with* the shootdown (the correct protocol).
    ///
    /// # Errors
    ///
    /// Propagates OS errors as strings.
    pub fn munmap(&mut self, id: VmaId, base: VirtAddr, len: u64) -> Result<(), String> {
        self.proc_
            .munmap(&mut self.pm, id)
            .map_err(|e| e.to_string())?;
        self.shootdown(base, len);
        Ok(())
    }

    /// Unmap a VMA *without* the shootdown — the buggy protocol the
    /// audits exist to catch.
    ///
    /// # Errors
    ///
    /// Propagates OS errors as strings.
    pub fn munmap_skipping_shootdown(&mut self, id: VmaId) -> Result<(), String> {
        self.proc_
            .munmap(&mut self.pm, id)
            .map_err(|e| e.to_string())
    }

    /// Run every coherence and structural audit.
    pub fn audit(&self) -> Vec<String> {
        let mut out = Vec::new();
        if let Err(e) = self.pm.buddy().audit() {
            out.push(format!("buddy: {e}"));
        }
        out.extend(self.proc_.audit(&self.pm));
        out.extend(audit_tlb(&self.tlb, &self.pm, &self.proc_));
        out.extend(audit_pwc(&self.pwc, &self.pm, &self.proc_));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmt_mem::PageSize;

    const MIB: u64 = 1 << 20;

    fn touched_harness() -> (ShootdownHarness, VmaId, VirtAddr, u64) {
        let mut h = ShootdownHarness::new(256 * MIB, ThpMode::Never).unwrap();
        let base = VirtAddr(1 << 30);
        let len = 4 * MIB;
        let id = h.mmap(base, len).unwrap();
        for i in 0..64 {
            h.touch(VirtAddr(base.raw() + i * PageSize::Size4K.bytes()))
                .unwrap();
        }
        (h, id, base, len)
    }

    #[test]
    fn correct_shootdown_keeps_caches_coherent() {
        let (mut h, id, base, len) = touched_harness();
        assert_eq!(h.audit(), Vec::<String>::new());
        assert!(!h.tlb.entries().is_empty());
        assert!(!h.pwc.entries().is_empty());
        h.munmap(id, base, len).unwrap();
        assert_eq!(h.audit(), Vec::<String>::new());
    }

    #[test]
    fn skipped_shootdown_is_caught() {
        let (mut h, id, _, _) = touched_harness();
        h.munmap_skipping_shootdown(id).unwrap();
        let violations = h.audit();
        assert!(
            violations.iter().any(|v| v.starts_with("TLB:")),
            "{violations:?}"
        );
    }

    #[test]
    fn stale_pwc_payload_is_caught() {
        let (mut h, _, base, _) = touched_harness();
        // Redirect one cached level-2 payload at the wrong table frame —
        // the model of a PWC that missed an upper-level update.
        let (level, va, table) = h.pwc.entries()[0];
        h.pwc.fill(va, level, PhysAddr(table.raw() ^ (1 << 12)));
        let violations = h.audit();
        assert!(
            violations.iter().any(|v| v.starts_with("PWC:")),
            "{violations:?} (planted at {:#x} level {level}, base {:#x})",
            va.raw(),
            base.raw()
        );
    }

    #[test]
    fn remap_without_shootdown_leaves_a_stale_frame() {
        let (mut h, id, base, len) = touched_harness();
        h.munmap_skipping_shootdown(id).unwrap();
        // Map the range again and populate it behind the TLB's back:
        // every page is mapped at its old size, but to a new frame (the
        // old data frames leak on unmap, so none is reused).
        h.mmap(base, len).unwrap();
        for i in 0..64 {
            let va = VirtAddr(base.raw() + i * PageSize::Size4K.bytes());
            h.proc_.populate(&mut h.pm, va).unwrap();
        }
        let violations = h.audit();
        assert!(
            violations.iter().any(|v| v.starts_with("TLB: stale frame")),
            "{violations:?}"
        );
        assert!(
            violations.iter().all(|v| !v.contains("no longer mapped")),
            "only the frame check can see this: {violations:?}"
        );
        h.shootdown(base, len);
        assert_eq!(h.audit(), Vec::<String>::new());
    }

    #[test]
    fn thp_promotion_leaves_stale_frames_until_shot_down() {
        let mut h = ShootdownHarness::new(256 * MIB, ThpMode::Never).unwrap();
        let base = VirtAddr(1 << 30);
        h.mmap(base, 4 * MIB).unwrap();
        for i in 0..512 {
            h.touch(VirtAddr(base.raw() + i * PageSize::Size4K.bytes()))
                .unwrap();
        }
        assert_eq!(h.audit(), Vec::<String>::new());
        // Promotion copies the data into a new 2 MiB block: a residual
        // 4 KiB entry no longer over-claims, but it still points at the
        // old 4 KiB frame, so it must be shot down.
        h.proc_.promote(&mut h.pm, base).unwrap();
        let violations = h.audit();
        assert!(
            violations.iter().any(|v| v.starts_with("TLB: stale frame")),
            "{violations:?}"
        );
        h.shootdown(base, PageSize::Size2M.bytes());
        assert_eq!(h.audit(), Vec::<String>::new());
        // A fresh touch caches the huge leaf, coherently.
        h.touch(base + 0x1234).unwrap();
        assert!(h
            .tlb
            .entries()
            .iter()
            .any(|&(va, size, _)| va == base && size == PageSize::Size2M));
        assert_eq!(h.audit(), Vec::<String>::new());
    }

    #[test]
    fn overclaiming_tlb_entry_is_caught() {
        let (mut h, _, base, _) = touched_harness();
        // Plant a 2 MiB entry over what is really a 4 KiB mapping.
        h.tlb
            .fill(base.align_down(PageSize::Size2M), PageSize::Size2M);
        let violations = h.audit();
        assert!(
            violations.iter().any(|v| v.contains("claims")),
            "{violations:?}"
        );
    }
}
