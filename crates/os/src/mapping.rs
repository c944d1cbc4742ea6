//! VMA-to-TEA mapping management (§4.2): merging, splitting, register
//! selection, and the clustering analysis behind Table 1 / Figure 5.
//!
//! The policy knobs are the ones the paper calls out: the bubble
//! threshold `t` (2% by default) that decides when adjacent VMAs are
//! clustered under one mapping, the register count (16), and the
//! largest-VMA-first register selection (large VMAs cause the page walks;
//! small hot VMAs rarely miss the TLB).

use crate::tea::{Tea, TeaManager, TeaMigration};
use crate::OsError;
use dmt_core::vtmap::VmaTeaMapping;
use dmt_mem::compact::Migration;
use dmt_mem::{PageSize, Pfn, PhysMemory, VirtAddr};
use dmt_pgtable::RadixPageTable;

/// Policy knobs for mapping management.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MappingPolicy {
    /// Maximum tolerated bubble fraction when clustering adjacent VMAs
    /// (the paper's `t`, default 0.02).
    pub bubble_threshold: f64,
    /// Number of hardware registers available (16 in the paper).
    pub registers: usize,
}

impl Default for MappingPolicy {
    fn default() -> Self {
        MappingPolicy {
            bubble_threshold: 0.02,
            registers: dmt_core::DMT_REGISTER_COUNT,
        }
    }
}

/// A mapping plus its backing TEA and bookkeeping.
#[derive(Debug, Clone, Copy)]
pub struct ManagedMapping {
    /// The register-visible mapping.
    pub mapping: VmaTeaMapping,
    /// Its TEA.
    pub tea: Tea,
    /// Bytes of VA inside the coverage that belong to no VMA (cluster
    /// bubbles plus alignment padding).
    pub bubble_bytes: u64,
}

/// Owner of all VMA-to-TEA mappings of one process (per page size).
#[derive(Debug, Default)]
pub struct MappingManager {
    policy: MappingPolicy,
    mappings: Vec<ManagedMapping>,
    /// An in-flight gradual TEA migration: the affected mapping's index
    /// and the migration state. While set, that mapping's register keeps
    /// its P bit clear (translations fall back to the x86 walker, §4.3).
    migrating: Option<(usize, TeaMigration)>,
}

impl MappingManager {
    /// Create a manager with the given policy.
    pub fn new(policy: MappingPolicy) -> Self {
        MappingManager {
            policy,
            mappings: Vec::new(),
            migrating: None,
        }
    }

    /// The policy in force.
    pub fn policy(&self) -> MappingPolicy {
        self.policy
    }

    /// All managed mappings.
    pub fn iter(&self) -> impl Iterator<Item = &ManagedMapping> {
        self.mappings.iter()
    }

    /// Number of managed mappings.
    pub fn len(&self) -> usize {
        self.mappings.len()
    }

    /// Whether no mappings exist.
    pub fn is_empty(&self) -> bool {
        self.mappings.is_empty()
    }

    /// The mapping covering `va` at `size`, if any.
    pub fn lookup(&self, va: VirtAddr, size: PageSize) -> Option<&ManagedMapping> {
        self.mappings
            .iter()
            .find(|m| m.mapping.page_size() == size && m.mapping.covers(va))
    }

    /// Register a new VMA region for direct translation at `size`,
    /// creating (or merging into) TEAs and installing the TEA pages as
    /// radix table pages so the x86 walker and the DMT fetcher share one
    /// copy of every PTE.
    ///
    /// Returns any data-page migrations the allocator's defragmentation
    /// performed (callers with data mapped must patch their tables —
    /// `Process` does this automatically).
    ///
    /// # Errors
    ///
    /// Returns [`OsError::TeaAllocFailed`] only when even recursive
    /// splitting down to single table pages cannot find memory.
    pub fn add_region(
        &mut self,
        pm: &mut PhysMemory,
        teas: &mut TeaManager,
        pt: &mut RadixPageTable,
        base: VirtAddr,
        len: u64,
        size: PageSize,
    ) -> Result<Vec<Migration>, OsError> {
        let proto = VmaTeaMapping::new(base, len, size, Pfn(0));

        // Already fully covered (e.g. second VMA inside an existing
        // cluster's padding): nothing to do.
        if let Some(owner) = self.find_containing(&proto) {
            let mm = &mut self.mappings[owner];
            mm.bubble_bytes = mm
                .bubble_bytes
                .saturating_sub(proto.covered_bytes().min(len));
            return Ok(Vec::new());
        }

        // Merge with an adjacent mapping when the bubble budget allows
        // (§4.2.1), otherwise stand alone.
        let merge_with = self.find_merge_candidate(&proto);
        match merge_with {
            Some(idx) => self.merge_into(pm, teas, pt, idx, proto, len),
            None => {
                let mut migrations = Vec::new();
                self.alloc_and_install(pm, teas, pt, proto, len, &mut migrations)?;
                Ok(migrations)
            }
        }
    }

    /// Drop every mapping whose coverage lies entirely within
    /// `[base, base+len)` (the munmap path), freeing their TEAs.
    ///
    /// # Errors
    ///
    /// Propagates TEA free errors.
    pub fn remove_region(
        &mut self,
        pm: &mut PhysMemory,
        teas: &mut TeaManager,
        base: VirtAddr,
        len: u64,
    ) -> Result<usize, OsError> {
        let end = base.raw() + len;
        let mut removed = 0;
        let mut i = 0;
        while i < self.mappings.len() {
            let m = &self.mappings[i].mapping;
            if m.base().raw() >= base.raw() && m.base().raw() + m.covered_bytes() <= end {
                let mm = self.mappings.swap_remove(i);
                teas.delete(pm, mm.tea)?;
                removed += 1;
            } else {
                i += 1;
            }
        }
        Ok(removed)
    }

    /// The largest-VMA-first register load (§4.2): mappings sorted by
    /// covered bytes, truncated to the register count. A mapping whose
    /// TEA is mid-migration is excluded — its register's P bit is clear
    /// until the background worker finishes (§4.3).
    pub fn select_registers(&self) -> Vec<VmaTeaMapping> {
        self.select_registers_by(|m| m.mapping.covered_bytes())
    }

    /// Begin a gradual migration of the mapping covering `va` at `size`
    /// into a TEA of `new_frames` frames (e.g. ahead of a merge or VMA
    /// growth that cannot expand in place).
    ///
    /// # Errors
    ///
    /// Returns [`OsError::NotInVma`] when no mapping covers `va`,
    /// [`OsError::TeaAllocFailed`] when the new TEA cannot be allocated,
    /// and [`OsError::BadRange`] if another migration is already pending
    /// (the paper's design has one background worker).
    pub fn begin_migration(
        &mut self,
        pm: &mut PhysMemory,
        teas: &mut TeaManager,
        va: VirtAddr,
        size: PageSize,
        new_frames: u64,
    ) -> Result<(), OsError> {
        if self.migrating.is_some() {
            return Err(OsError::BadRange {
                base: va.raw(),
                len: 0,
            });
        }
        let idx = self
            .mappings
            .iter()
            .position(|m| m.mapping.page_size() == size && m.mapping.covers(va))
            .ok_or(OsError::NotInVma { va: va.raw() })?;
        let mig = teas.begin_migration(pm, self.mappings[idx].tea, new_frames)?;
        self.migrating = Some((idx, mig));
        Ok(())
    }

    /// One background-worker step: copy one TEA page. Returns `true`
    /// while more pages remain; on the final step the radix tree is
    /// retargeted to the new TEA, the mapping updated, and the old TEA
    /// freed — after which the register may be reloaded with P set.
    ///
    /// # Errors
    ///
    /// Propagates page-table/allocator errors from the hand-over.
    pub fn migration_step(
        &mut self,
        pm: &mut PhysMemory,
        teas: &mut TeaManager,
        pt: &mut RadixPageTable,
    ) -> Result<bool, OsError> {
        let Some((idx, mut mig)) = self.migrating.take() else {
            return Ok(false);
        };
        let more = teas.migration_step(pm, &mut mig);
        if more {
            self.migrating = Some((idx, mig));
            return Ok(true);
        }
        // Hand-over: point the tree at the new pages and swap the
        // mapping's TEA.
        let old = self.mappings[idx];
        let size = old.mapping.page_size();
        let span = 512u64 << size.shift();
        for i in 0..old.tea.frames {
            let span_va = VirtAddr(old.mapping.base().raw() + i * span);
            let new_frame = Pfn(mig.to.base.0 + i);
            if pt
                .table_frame(pm, span_va, size.leaf_level())
                .is_some_and(|f| f.0 == old.tea.base.0 + i)
            {
                pt.retarget_table(pm, span_va, size.leaf_level(), new_frame)?;
            }
        }
        let new_tea = teas.finish_migration(pm, mig)?;
        let mut mapping = old.mapping;
        mapping.set_tea_base(new_tea.base);
        self.mappings[idx] = ManagedMapping {
            mapping,
            tea: new_tea,
            bubble_bytes: old.bubble_bytes,
        };
        Ok(false)
    }

    /// Whether a gradual migration is in flight.
    pub fn is_migrating(&self) -> bool {
        self.migrating.is_some()
    }

    /// Register selection with a custom priority key (used by the
    /// hot-VMA-first ablation).
    pub fn select_registers_by<K: Ord, F: Fn(&ManagedMapping) -> K>(
        &self,
        key: F,
    ) -> Vec<VmaTeaMapping> {
        let migrating_idx = self.migrating.as_ref().map(|(i, _)| *i);
        let mut sorted: Vec<(usize, &ManagedMapping)> = self.mappings.iter().enumerate().collect();
        sorted.sort_by_key(|(_, m)| std::cmp::Reverse(key(m)));
        sorted
            .into_iter()
            .filter(|(i, _)| Some(*i) != migrating_idx)
            .take(self.policy.registers)
            .map(|(_, m)| m.mapping)
            .collect()
    }

    // ---- internals -----------------------------------------------------

    fn find_containing(&self, proto: &VmaTeaMapping) -> Option<usize> {
        self.mappings.iter().position(|m| {
            m.mapping.page_size() == proto.page_size()
                && m.mapping.covers(proto.base())
                && m.mapping
                    .covers(VirtAddr(proto.base().raw() + proto.covered_bytes() - 1))
        })
    }

    /// An adjacent same-size mapping the new region can cluster with
    /// under the bubble threshold.
    fn find_merge_candidate(&self, proto: &VmaTeaMapping) -> Option<usize> {
        let new_start = proto.base().raw();
        let new_end = new_start + proto.covered_bytes();
        self.mappings.iter().position(|m| {
            if m.mapping.page_size() != proto.page_size() {
                return false;
            }
            let old_start = m.mapping.base().raw();
            let old_end = old_start + m.mapping.covered_bytes();
            if new_end < old_start {
                let gap = old_start - new_end;
                let span = old_end - new_start;
                (gap + m.bubble_bytes) as f64 / span as f64 <= self.policy.bubble_threshold
            } else if old_end <= new_start {
                let gap = new_start - old_end;
                let span = new_end - old_start;
                (gap + m.bubble_bytes) as f64 / span as f64 <= self.policy.bubble_threshold
            } else {
                // Overlapping coverage (e.g. Memcached slabs whose
                // table-span rounding collides): always merge — two
                // mappings must never own the same table page.
                true
            }
        })
    }

    /// Merge the new region into mapping `idx` (§4.2.1): expand the TEA in
    /// place when the merged coverage extends upward, otherwise allocate a
    /// merged TEA and migrate.
    fn merge_into(
        &mut self,
        pm: &mut PhysMemory,
        teas: &mut TeaManager,
        pt: &mut RadixPageTable,
        idx: usize,
        proto: VmaTeaMapping,
        new_vma_len: u64,
    ) -> Result<Vec<Migration>, OsError> {
        let old = self.mappings[idx];
        let merged_start = old.mapping.base().raw().min(proto.base().raw());
        let merged_end = (old.mapping.base().raw() + old.mapping.covered_bytes())
            .max(proto.base().raw() + proto.covered_bytes());
        let size = proto.page_size();
        let merged_proto = VmaTeaMapping::new(
            VirtAddr(merged_start),
            merged_end - merged_start,
            size,
            Pfn(0),
        );
        let merged_frames = merged_proto.tea_frames();
        let gap = merged_proto
            .covered_bytes()
            .saturating_sub(old.mapping.covered_bytes() + proto.covered_bytes());
        let bubbles = old.bubble_bytes + gap + proto.covered_bytes().saturating_sub(new_vma_len);

        let extends_up_only = merged_start == old.mapping.base().raw();
        let mut migrations = Vec::new();
        let extra = merged_frames - old.tea.frames;
        if extends_up_only && extra > 0 {
            let mut tea = old.tea;
            if teas.expand_in_place(pm, &mut tea, extra).is_ok() {
                let merged = VmaTeaMapping::new(
                    VirtAddr(merged_start),
                    merged_end - merged_start,
                    size,
                    tea.base,
                );
                // Install the newly covered table pages.
                self.install_coverage(pm, pt, &merged, old.tea.frames)?;
                self.mappings[idx] = ManagedMapping {
                    mapping: merged,
                    tea,
                    bubble_bytes: bubbles,
                };
                return Ok(migrations);
            }
        }
        // Relocate: allocate a merged TEA, move old pages to their new
        // offsets, retarget table entries, free the old TEA.
        let (new_tea, migs) = match teas.create(pm, merged_frames) {
            Ok(v) => v,
            Err(OsError::TeaAllocFailed { .. }) => {
                // Fall back: keep them separate (cannot merge under
                // fragmentation); allocate the new region standalone.
                self.alloc_and_install(pm, teas, pt, proto, new_vma_len, &mut migrations)?;
                return Ok(migrations);
            }
            Err(e) => return Err(e),
        };
        migrations.extend(migs);
        let merged = VmaTeaMapping::new(
            VirtAddr(merged_start),
            merged_end - merged_start,
            size,
            new_tea.base,
        );
        // Move the old TEA's pages into position.
        let span_bytes = 512u64 << size.shift();
        let old_offset_pages = (old.mapping.base().raw() - merged_start) / span_bytes;
        for i in 0..old.tea.frames {
            let src = Pfn(old.tea.base.0 + i);
            let dst = Pfn(new_tea.base.0 + old_offset_pages + i);
            pm.copy_frame(src, dst);
            let span_va = VirtAddr(old.mapping.base().raw() + i * span_bytes);
            // Retarget only if the tree actually points at the old page.
            if pt
                .table_frame(pm, span_va, size.leaf_level())
                .is_some_and(|f| f == src)
            {
                pt.retarget_table(pm, span_va, size.leaf_level(), dst)?;
            }
        }
        teas.delete(pm, old.tea)?;
        self.install_coverage(pm, pt, &merged, 0)?;
        self.mappings[idx] = ManagedMapping {
            mapping: merged,
            tea: new_tea,
            bubble_bytes: bubbles,
        };
        Ok(migrations)
    }

    /// Allocate a TEA for `proto`, splitting recursively on contiguity
    /// failure (§4.2.2), and install coverage.
    fn alloc_and_install(
        &mut self,
        pm: &mut PhysMemory,
        teas: &mut TeaManager,
        pt: &mut RadixPageTable,
        proto: VmaTeaMapping,
        vma_len: u64,
        migrations: &mut Vec<Migration>,
    ) -> Result<(), OsError> {
        match teas.create(pm, proto.tea_frames()) {
            Ok((tea, migs)) => {
                migrations.extend(migs);
                let mapping = VmaTeaMapping::new(
                    proto.base(),
                    proto.covered_bytes(),
                    proto.page_size(),
                    tea.base,
                );
                self.install_coverage(pm, pt, &mapping, 0)?;
                self.mappings.push(ManagedMapping {
                    mapping,
                    tea,
                    bubble_bytes: proto.covered_bytes().saturating_sub(vma_len),
                });
                Ok(())
            }
            Err(OsError::TeaAllocFailed { .. }) => match proto.split(Pfn(0)) {
                Some((lo, hi)) => {
                    self.alloc_and_install(pm, teas, pt, lo, lo.covered_bytes(), migrations)?;
                    self.alloc_and_install(pm, teas, pt, hi, hi.covered_bytes(), migrations)
                }
                None => Err(OsError::TeaAllocFailed {
                    frames: proto.tea_frames(),
                }),
            },
            Err(e) => Err(e),
        }
    }

    /// Install TEA pages `start_frame..` as radix table pages for the
    /// mapping's coverage.
    fn install_coverage(
        &self,
        pm: &mut PhysMemory,
        pt: &mut RadixPageTable,
        mapping: &VmaTeaMapping,
        start_frame: u64,
    ) -> Result<(), OsError> {
        pt.install_tea(
            pm,
            mapping.base(),
            mapping.page_size(),
            mapping.tea_base(),
            start_frame..mapping.tea_frames(),
        )?;
        Ok(())
    }
}

/// A cluster of adjacent VMAs (the Table 1 "Clusters" analysis).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cluster {
    /// First byte covered.
    pub base: u64,
    /// Covered span in bytes (VMAs plus bubbles).
    pub span: u64,
    /// Bubble bytes inside the span.
    pub bubbles: u64,
}

/// Greedily cluster sorted `(base, len)` spans, tolerating a bubble
/// fraction of at most `threshold` per cluster — the paper's 2% rule.
///
/// # Panics
///
/// Panics if the spans are not sorted by base or overlap.
pub fn cluster_spans(spans: &[(u64, u64)], threshold: f64) -> Vec<Cluster> {
    let mut clusters: Vec<Cluster> = Vec::new();
    for &(base, len) in spans {
        match clusters.last_mut() {
            Some(c) if base >= c.base + c.span => {
                let gap = base - (c.base + c.span);
                let new_span = base + len - c.base;
                let new_bubbles = c.bubbles + gap;
                if new_bubbles as f64 / new_span as f64 <= threshold {
                    c.span = new_span;
                    c.bubbles = new_bubbles;
                } else {
                    clusters.push(Cluster {
                        base,
                        span: len,
                        bubbles: 0,
                    });
                }
            }
            Some(_) => panic!("spans must be sorted and disjoint"),
            None => clusters.push(Cluster {
                base,
                span: len,
                bubbles: 0,
            }),
        }
    }
    clusters
}

/// Minimum number of VMAs (largest first) covering `frac` of the total
/// bytes — Table 1's "99% Cov." column.
pub fn min_vmas_for_coverage(spans: &[(u64, u64)], frac: f64) -> usize {
    let total: u64 = spans.iter().map(|(_, l)| l).sum();
    if total == 0 {
        return 0;
    }
    let mut sizes: Vec<u64> = spans.iter().map(|(_, l)| *l).collect();
    sizes.sort_unstable_by(|a, b| b.cmp(a));
    let target = (total as f64 * frac).ceil() as u64;
    let mut covered = 0u64;
    for (i, s) in sizes.iter().enumerate() {
        covered += s;
        if covered >= target {
            return i + 1;
        }
    }
    sizes.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmt_mem::buddy::FrameKind;

    fn setup() -> (PhysMemory, TeaManager, RadixPageTable, MappingManager) {
        let mut pm = PhysMemory::new_bytes(64 << 20);
        let pt = RadixPageTable::new(&mut pm, 4).unwrap();
        (
            pm,
            TeaManager::new(),
            pt,
            MappingManager::new(MappingPolicy::default()),
        )
    }

    #[test]
    fn add_region_installs_tea_pages_as_tables() {
        let (mut pm, mut teas, mut pt, mut mgr) = setup();
        mgr.add_region(
            &mut pm,
            &mut teas,
            &mut pt,
            VirtAddr(0x40_0000),
            8 << 20,
            PageSize::Size4K,
        )
        .unwrap();
        assert_eq!(mgr.len(), 1);
        let mm = mgr.lookup(VirtAddr(0x40_0000), PageSize::Size4K).unwrap();
        // Every table page in the coverage is a TEA frame.
        for i in 0..mm.tea.frames {
            let va = VirtAddr(0x40_0000 + i * (2 << 20));
            assert_eq!(
                pt.table_frame(&pm, va, 1),
                Some(Pfn(mm.tea.base.0 + i)),
                "span {i}"
            );
        }
    }

    #[test]
    fn fetcher_and_walker_share_ptes() {
        use dmt_pgtable::pte::PteFlags;
        let (mut pm, mut teas, mut pt, mut mgr) = setup();
        let base = VirtAddr(0x40_0000);
        mgr.add_region(&mut pm, &mut teas, &mut pt, base, 4 << 20, PageSize::Size4K)
            .unwrap();
        // Map a page through the ordinary radix path.
        pt.map(
            &mut pm,
            base,
            dmt_mem::PhysAddr(0x123000),
            PageSize::Size4K,
            PteFlags::WRITABLE,
        )
        .unwrap();
        // The DMT slot arithmetic sees the same PTE.
        let mm = mgr.lookup(base, PageSize::Size4K).unwrap();
        let slot = mm.mapping.pte_addr(base).unwrap();
        let pte = dmt_pgtable::pte::Pte(pm.read_word(slot));
        assert!(pte.present());
        assert_eq!(pte.phys_addr().raw(), 0x123000);
    }

    #[test]
    fn adjacent_regions_merge_under_threshold() {
        let (mut pm, mut teas, mut pt, mut mgr) = setup();
        // Two VMAs 2 MiB apart within a 100 MiB+ span: gap is < 2%.
        mgr.add_region(
            &mut pm,
            &mut teas,
            &mut pt,
            VirtAddr(0),
            100 << 20,
            PageSize::Size4K,
        )
        .unwrap();
        mgr.add_region(
            &mut pm,
            &mut teas,
            &mut pt,
            VirtAddr((102 << 20) as u64),
            20 << 20,
            PageSize::Size4K,
        )
        .unwrap();
        assert_eq!(mgr.len(), 1, "clustered into one mapping");
        let m = mgr.iter().next().unwrap();
        assert_eq!(m.mapping.covered_bytes(), 122 << 20);
        assert!(m.bubble_bytes >= 2 << 20);
    }

    #[test]
    fn distant_regions_stay_separate() {
        let (mut pm, mut teas, mut pt, mut mgr) = setup();
        mgr.add_region(
            &mut pm,
            &mut teas,
            &mut pt,
            VirtAddr(0),
            4 << 20,
            PageSize::Size4K,
        )
        .unwrap();
        mgr.add_region(
            &mut pm,
            &mut teas,
            &mut pt,
            VirtAddr(1 << 30),
            4 << 20,
            PageSize::Size4K,
        )
        .unwrap();
        assert_eq!(mgr.len(), 2, "gap far exceeds the 2% budget");
    }

    #[test]
    fn fragmentation_triggers_mapping_split() {
        let mut pm = PhysMemory::new_frames(4096);
        // Pin unmovable frames everywhere so only 2-frame runs remain.
        for f in (0..4096).step_by(3) {
            pm.buddy_mut()
                .reserve_range(f, 1, FrameKind::PageTable)
                .unwrap();
        }
        let mut pt = RadixPageTable::new(&mut pm, 4).unwrap();
        let mut teas = TeaManager::new();
        let mut mgr = MappingManager::new(MappingPolicy::default());
        // 16 MiB needs 8 TEA frames contiguously — impossible now.
        mgr.add_region(
            &mut pm,
            &mut teas,
            &mut pt,
            VirtAddr(0),
            16 << 20,
            PageSize::Size4K,
        )
        .unwrap();
        assert!(mgr.len() > 1, "mapping split into {} pieces", mgr.len());
        // Every 2 MiB span is still covered by exactly one mapping.
        for span in 0..8u64 {
            let va = VirtAddr(span * (2 << 20));
            let covering = mgr.iter().filter(|m| m.mapping.covers(va)).count();
            assert_eq!(covering, 1, "span {span}");
        }
    }

    #[test]
    fn remove_region_frees_teas() {
        let (mut pm, mut teas, mut pt, mut mgr) = setup();
        mgr.add_region(
            &mut pm,
            &mut teas,
            &mut pt,
            VirtAddr(0),
            4 << 20,
            PageSize::Size4K,
        )
        .unwrap();
        let tea_bytes = pm.bytes_of_kind(FrameKind::Tea);
        assert!(tea_bytes > 0);
        let removed = mgr
            .remove_region(&mut pm, &mut teas, VirtAddr(0), 4 << 20)
            .unwrap();
        assert_eq!(removed, 1);
        assert_eq!(pm.bytes_of_kind(FrameKind::Tea), 0);
    }

    #[test]
    fn register_selection_prefers_largest() {
        let (mut pm, mut teas, mut pt, mut mgr) = setup();
        // 20 small distant VMAs + 1 large one.
        for i in 0..20u64 {
            mgr.add_region(
                &mut pm,
                &mut teas,
                &mut pt,
                VirtAddr((i + 1) << 30),
                2 << 20,
                PageSize::Size4K,
            )
            .unwrap();
        }
        mgr.add_region(
            &mut pm,
            &mut teas,
            &mut pt,
            VirtAddr(100 << 30),
            32 << 20,
            PageSize::Size4K,
        )
        .unwrap();
        let regs = mgr.select_registers();
        assert_eq!(regs.len(), 16);
        assert_eq!(regs[0].covered_bytes(), 32 << 20, "largest VMA first");
    }

    #[test]
    fn cluster_analysis_matches_paper_rule() {
        // Three spans: two nearby, one distant.
        let spans = [
            (0u64, 100 << 20),
            (101 << 20, 50 << 20),
            (10 << 30, 1 << 20),
        ];
        let clusters = cluster_spans(&spans, 0.02);
        assert_eq!(clusters.len(), 2);
        assert_eq!(clusters[0].bubbles, 1 << 20);
        // With a zero threshold nothing clusters.
        assert_eq!(cluster_spans(&spans, 0.0).len(), 3);
    }

    #[test]
    fn coverage_analysis() {
        // One dominant VMA and nine tiny ones.
        let mut spans = vec![(0u64, 99 << 20)];
        for i in 0..9u64 {
            spans.push(((1 + i) << 30, 100 << 10));
        }
        assert_eq!(min_vmas_for_coverage(&spans, 0.90), 1);
        assert!(min_vmas_for_coverage(&spans, 0.999) > 1);
        assert_eq!(min_vmas_for_coverage(&[], 0.99), 0);
    }
}
