//! Two-level TLB model (L1 D-TLB per page size + shared L2 STLB).
//!
//! Geometry follows Table 3: 64-entry 4-way L1 D-TLB, 1536-entry 12-way L2
//! STLB. Entries are tagged by `(VPN at the page's own granularity, page
//! size)` so 4 KiB, 2 MiB and 1 GiB translations coexist, which is what
//! makes THP improve TLB reach in the experiments.
//!
//! As in hardware, an entry carries its frame: the physical address of
//! the page (or [`TransUnit`]) base, taken from the completed walk at
//! fill time ([`Tlb::fill_pa`], [`Tlb::fill_unit_pa`]) and stored inline
//! next to the tag. A hit returns `frame + offset` ([`Tlb::lookup_pa`]),
//! so the engine charges a hit's data access without any page walk. The
//! residency-only entry points ([`Tlb::fill`], [`Tlb::fill_unit`],
//! [`Tlb::lookup_any`], the probes) keep their meaning for callers that
//! never read a frame.

use crate::set_assoc::SetAssoc;
use dmt_mem::{PageSize, PhysAddr, TransUnit, VirtAddr};

/// Where a TLB lookup hit (a miss is `None`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TlbHit {
    /// L1 data TLB.
    L1,
    /// Shared second-level TLB.
    Stlb,
}

/// TLB geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbConfig {
    /// L1 D-TLB entries (per page size).
    pub l1_entries: u64,
    /// L1 D-TLB associativity.
    pub l1_ways: usize,
    /// Shared STLB entries.
    pub stlb_entries: u64,
    /// STLB associativity.
    pub stlb_ways: usize,
}

impl TlbConfig {
    /// Table 3's configuration: 64-entry 4-way L1D TLB, 1536-entry 12-way
    /// STLB.
    pub fn xeon_gold_6138() -> Self {
        TlbConfig {
            l1_entries: 64,
            l1_ways: 4,
            stlb_entries: 1536,
            stlb_ways: 12,
        }
    }

    /// Tiny TLB for unit tests.
    pub fn tiny() -> Self {
        TlbConfig {
            l1_entries: 4,
            l1_ways: 2,
            stlb_entries: 16,
            stlb_ways: 4,
        }
    }
}

impl Default for TlbConfig {
    fn default() -> Self {
        Self::xeon_gold_6138()
    }
}

/// TLB hit/miss counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TlbStats {
    /// Hits in the L1 TLB.
    pub l1_hits: u64,
    /// Hits in the STLB (after an L1 miss).
    pub stlb_hits: u64,
    /// Full misses (page walk required).
    pub misses: u64,
}

impl TlbStats {
    /// Total lookups.
    pub fn total(&self) -> u64 {
        self.l1_hits + self.stlb_hits + self.misses
    }

    /// Miss ratio over all lookups (0 when there were none).
    pub fn miss_ratio(&self) -> f64 {
        let t = self.total();
        if t == 0 {
            0.0
        } else {
            self.misses as f64 / t as f64
        }
    }
}

/// Untagged key bits: VPN-derived keys never reach bit 48, so the
/// address-space tag lives above them and tagging cannot alias or move
/// an entry to a different set (set counts are powers of two ≤ 2^48).
const ASID_SHIFT: u32 = 48;
const KEY_MASK: u64 = (1 << ASID_SHIFT) - 1;

/// Capacity of the fully-associative variable-reach unit array. Small
/// on purpose: a unit entry covers a whole VBI block or segmentation
/// VMA, so a handful give the same reach as thousands of page entries.
const UNIT_ENTRIES: usize = 16;

/// The page sizes in lookup order, largest reach first.
const SIZES: [PageSize; 3] = [PageSize::Size1G, PageSize::Size2M, PageSize::Size4K];

/// One variable-reach entry: a [`TransUnit`] tagged with its address
/// space, LRU-stamped for replacement within the unit array.
#[derive(Debug, Clone, Copy)]
struct UnitEntry {
    /// Address-space tag, pre-shifted (`asid << ASID_SHIFT`).
    tag: u64,
    /// The covered virtual reach.
    unit: TransUnit,
    /// Physical address of `unit.base` (the reach is PA-contiguous).
    frame: u64,
    /// LRU stamp (larger = more recently used).
    stamp: u64,
}

/// The physical address of `va` inside a `size` page whose frame (page
/// base PA) is `frame`.
#[inline]
fn page_pa(frame: u64, va: VirtAddr, size: PageSize) -> PhysAddr {
    PhysAddr(frame.wrapping_add(va.offset_in(size)))
}

/// A two-level TLB: per-page-size L1 arrays backed by a shared STLB,
/// each way holding its entry's frame next to its tag.
///
/// Entries are tagged with the current address-space id (ASID in native,
/// VMID in virtualized runs): a context switch on tagged hardware is
/// [`set_asid`](Self::set_asid) with no flush, and a departing tenant is
/// evicted with [`flush_asid`](Self::flush_asid). The default ASID is 0,
/// which makes single-address-space use bit-identical to an untagged
/// TLB.
#[derive(Debug, Clone)]
pub struct Tlb {
    l1_4k: SetAssoc<u64>,
    l1_2m: SetAssoc<u64>,
    l1_1g: SetAssoc<u64>,
    stlb: SetAssoc<u64>,
    /// Resident STLB entries per page size (indexed by
    /// [`PageSize::encode`]). The L1 arrays are size-segregated so their
    /// `occupied` counters already answer "any entry of this size?"; the
    /// shared STLB needs this breakdown so the block probe can skip
    /// whole per-size passes over a block when no entry of that size is
    /// resident (the common case: most workloads touch one page size).
    stlb_residency: [u64; 3],
    /// Fully-associative variable-reach entries (VBI blocks,
    /// segmentation VMAs). Empty unless a design calls
    /// [`fill_unit`](Self::fill_unit), and every consultation is guarded
    /// by that emptiness — fixed-page designs are bit-identical to the
    /// pre-unit TLB.
    units: Vec<UnitEntry>,
    /// Monotonic LRU clock for the unit array.
    unit_clock: u64,
    stats: TlbStats,
    asid: u16,
}

impl Tlb {
    /// Build a TLB from a configuration.
    pub fn new(config: TlbConfig) -> Self {
        let l1 = || SetAssoc::with_capacity(config.l1_entries, config.l1_ways);
        Tlb {
            l1_4k: l1(),
            l1_2m: l1(),
            l1_1g: l1(),
            stlb: SetAssoc::with_capacity(config.stlb_entries, config.stlb_ways),
            stlb_residency: [0; 3],
            units: Vec::new(),
            unit_clock: 0,
            stats: TlbStats::default(),
            asid: 0,
        }
    }

    fn l1_for(&mut self, size: PageSize) -> &mut SetAssoc<u64> {
        match size {
            PageSize::Size4K => &mut self.l1_4k,
            PageSize::Size2M => &mut self.l1_2m,
            PageSize::Size1G => &mut self.l1_1g,
        }
    }

    fn l1_ref(&self, size: PageSize) -> &SetAssoc<u64> {
        match size {
            PageSize::Size4K => &self.l1_4k,
            PageSize::Size2M => &self.l1_2m,
            PageSize::Size1G => &self.l1_1g,
        }
    }

    /// The tag mixed into every key for the current address space.
    fn tag(&self) -> u64 {
        (self.asid as u64) << ASID_SHIFT
    }

    /// L1 tag: per-size VPN plus the address-space tag.
    fn l1_key(&self, va: VirtAddr, size: PageSize) -> u64 {
        va.vpn_for(size) | self.tag()
    }

    /// STLB tag: page-granular VPN disambiguated by size (sizes share the
    /// STLB but cannot alias), plus the address-space tag.
    fn stlb_key(&self, va: VirtAddr, size: PageSize) -> u64 {
        (va.vpn_for(size) << 2) | size.encode() as u64 | self.tag()
    }

    /// Index of the current-tag unit entry containing `va`, if any.
    /// Same-tag entries never overlap ([`fill_unit`](Self::fill_unit)
    /// evicts overlaps), so at most one matches.
    fn unit_index(&self, va: VirtAddr) -> Option<usize> {
        let tag = self.tag();
        self.units
            .iter()
            .position(|e| e.tag == tag && e.unit.contains(va))
    }

    /// Install a variable-reach translation unit (a VBI block or a
    /// segmentation VMA) in the current address space, with no frame
    /// known: the entry records the identity frame (`unit.base`). For
    /// residency-only callers — the unit tests and the outside-in
    /// traced run in `perfbench/`, which charges data accesses through
    /// the rig's ground truth itself. The engine fills through
    /// [`fill_unit_pa`](Self::fill_unit_pa).
    pub fn fill_unit(&mut self, unit: TransUnit) {
        self.fill_unit_pa(unit, unit.base, PhysAddr(unit.base.raw()));
    }

    /// Install a variable-reach translation unit (a VBI block or a
    /// segmentation VMA) in the current address space. The walk put
    /// `va`, an address inside the reach, at `pa`; the reach is
    /// PA-contiguous (the emitting design's contract), so the entry's
    /// frame is `pa - (va - unit.base)`.
    ///
    /// Newer mappings win: any same-tag entry overlapping the new reach
    /// — including page-granular entries whose 4 KiB pages fall inside
    /// it — stays untouched in the per-size arrays (they describe the
    /// same mapping if the design is coherent), but any overlapping
    /// *unit* entry is evicted first, so a stale wide reach can never
    /// shadow a newer shorter one. When the array is full, the LRU
    /// entry is replaced.
    pub fn fill_unit_pa(&mut self, unit: TransUnit, va: VirtAddr, pa: PhysAddr) {
        debug_assert!(unit.contains(va), "the walked VA lies inside its unit");
        let frame = pa.raw().wrapping_sub(va - unit.base);
        let tag = self.tag();
        self.units
            .retain(|e| !(e.tag == tag && e.unit.overlaps(unit)));
        if self.units.len() >= UNIT_ENTRIES {
            let lru = self
                .units
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.stamp)
                .map(|(i, _)| i)
                .expect("array is full, hence non-empty");
            self.units.swap_remove(lru);
        }
        self.unit_clock += 1;
        self.units.push(UnitEntry {
            tag,
            unit,
            frame,
            stamp: self.unit_clock,
        });
    }

    /// Every resident unit entry with its address-space tag. Read-only;
    /// the coherence audits' window into the unit array.
    pub fn unit_entries_tagged(&self) -> Vec<(u16, TransUnit)> {
        self.units
            .iter()
            .map(|e| ((e.tag >> ASID_SHIFT) as u16, e.unit))
            .collect()
    }

    /// Switch the TLB to another address space. Resident entries stay;
    /// lookups only see entries whose tag matches (tagged-hardware
    /// context switch — no flush).
    pub fn set_asid(&mut self, asid: u16) {
        self.asid = asid;
    }

    /// The address space lookups currently match against.
    pub fn asid(&self) -> u16 {
        self.asid
    }

    /// Evict every entry tagged `asid` from both levels (tenant
    /// departure, ASID recycling, or a directed shootdown). Returns the
    /// number of entries invalidated. No lookup-stat effects.
    pub fn flush_asid(&mut self, asid: u16) -> u64 {
        let tag = (asid as u64) << ASID_SHIFT;
        let mut n = 0u64;
        if !self.units.is_empty() {
            let before = self.units.len();
            self.units.retain(|e| e.tag != tag);
            n += (before - self.units.len()) as u64;
        }
        for arr in [&mut self.l1_4k, &mut self.l1_2m, &mut self.l1_1g] {
            n += arr.retain(|key, _| key & !KEY_MASK != tag);
        }
        // The STLB pass additionally retires each victim's size from the
        // residency breakdown (the size tag travels in the key's low bits).
        let residency = &mut self.stlb_residency;
        n += self.stlb.retain(|key, _| {
            if key & !KEY_MASK != tag {
                return true;
            }
            residency[(key & 3) as usize] -= 1;
            false
        });
        n
    }

    /// Probe all page sizes at once, as hardware does when the mapping
    /// size is unknown. Counts a single lookup in the stats. On an STLB
    /// hit, the entry is promoted into the L1 array. Misses do *not*
    /// fill the TLB — call [`fill_pa`](Self::fill_pa) once the walk
    /// completes, as hardware does.
    pub fn lookup_any(&mut self, va: VirtAddr) -> Option<(TlbHit, PageSize)> {
        self.lookup_entry(va).map(|(hit, size, _)| (hit, size))
    }

    /// [`lookup_any`](Self::lookup_any) that returns the hit's physical
    /// address — the entry's frame plus `va`'s offset — instead of the
    /// page size: a hit needs no page walk. Same state transitions and
    /// stats as `lookup_any`.
    pub fn lookup_pa(&mut self, va: VirtAddr) -> Option<(TlbHit, PhysAddr)> {
        self.lookup_entry(va).map(|(hit, _, pa)| (hit, pa))
    }

    /// The one stateful lookup behind [`lookup_any`](Self::lookup_any)
    /// and [`lookup_pa`](Self::lookup_pa).
    #[inline]
    fn lookup_entry(&mut self, va: VirtAddr) -> Option<(TlbHit, PageSize, PhysAddr)> {
        // Variable-reach unit entries first (fully associative, so they
        // answer before any set scan — and the guard keeps fixed-page
        // designs, which never fill units, bit-identical). A unit hit
        // counts as an L1 hit; the reported size is nominal (callers
        // consume the size only on the fill path, never on hits).
        if !self.units.is_empty() {
            if let Some(i) = self.unit_index(va) {
                self.unit_clock += 1;
                let e = &mut self.units[i];
                e.stamp = self.unit_clock;
                self.stats.l1_hits += 1;
                let pa = PhysAddr(e.frame.wrapping_add(va - e.unit.base));
                return Some((TlbHit::L1, PageSize::Size4K, pa));
            }
        }
        // L1 arrays first (all sizes), then the STLB.
        for size in SIZES {
            let key = self.l1_key(va, size);
            if let Some(frame) = self.l1_for(size).lookup_value(key) {
                self.stats.l1_hits += 1;
                return Some((TlbHit::L1, size, page_pa(frame, va, size)));
            }
        }
        // A size with no resident STLB entry cannot hit; skipping its
        // set scan changes only the shared array's internal counters,
        // which nothing reads.
        for size in SIZES {
            if self.stlb_residency[size.encode() as usize] == 0 {
                continue;
            }
            let skey = self.stlb_key(va, size);
            if let Some(frame) = self.stlb.lookup_value(skey) {
                let key = self.l1_key(va, size);
                self.l1_for(size).insert_value(key, frame);
                self.stats.stlb_hits += 1;
                return Some((TlbHit::Stlb, size, page_pa(frame, va, size)));
            }
        }
        self.stats.misses += 1;
        None
    }

    /// Probe every page size without touching LRU state or counters —
    /// the read-only twin of [`lookup_any`](Self::lookup_any), and the
    /// element-wise reference [`probe_block`](Self::probe_block) is
    /// tested against.
    pub fn probe_any(&self, va: VirtAddr) -> bool {
        if !self.units.is_empty() && self.unit_index(va).is_some() {
            return true;
        }
        for size in SIZES {
            if self.l1_ref(size).contains(self.l1_key(va, size)) {
                return true;
            }
        }
        for size in SIZES {
            if self.stlb_residency[size.encode() as usize] == 0 {
                continue;
            }
            if self.stlb.contains(self.stlb_key(va, size)) {
                return true;
            }
        }
        false
    }

    /// Residency probe over a whole block of addresses: `hits[i]` is set
    /// to exactly what `probe_any(vas[i])` would return, without touching
    /// LRU state or counters. Equivalent to a loop of
    /// [`probe_any`](Self::probe_any) calls, but structured
    /// structure-major so each per-size pass is skipped outright when the
    /// array holds no entry of that size (`occupied` masks for the L1
    /// arrays, the per-size residency breakdown for the shared STLB).
    ///
    /// The engine no longer calls this; it stays because the outside-in
    /// traced run in `perfbench/` times it per block
    /// (`cache.tlb.probe_block_ns`), and the TLB reference model pins it.
    ///
    /// # Panics
    ///
    /// Panics (debug) if `vas` and `hits` differ in length.
    pub fn probe_block(&self, vas: &[VirtAddr], hits: &mut [bool]) {
        debug_assert_eq!(vas.len(), hits.len());
        hits.fill(false);
        // Unit pass first, entry-major: the array is tiny (≤ 16), so
        // one sweep per resident entry beats a per-VA linear scan.
        if !self.units.is_empty() {
            let tag = self.tag();
            for e in &self.units {
                if e.tag != tag {
                    continue;
                }
                for (i, &va) in vas.iter().enumerate() {
                    if !hits[i] && e.unit.contains(va) {
                        hits[i] = true;
                    }
                }
            }
        }
        for size in SIZES {
            let arr = self.l1_ref(size);
            if arr.occupancy() == 0 {
                continue;
            }
            for (i, &va) in vas.iter().enumerate() {
                if !hits[i] && arr.contains(self.l1_key(va, size)) {
                    hits[i] = true;
                }
            }
        }
        if self.stlb.occupancy() == 0 {
            return;
        }
        for size in SIZES {
            if self.stlb_residency[size.encode() as usize] == 0 {
                continue;
            }
            for (i, &va) in vas.iter().enumerate() {
                if !hits[i] && self.stlb.contains(self.stlb_key(va, size)) {
                    hits[i] = true;
                }
            }
        }
    }

    /// Install a translation with no frame known: the entry records the
    /// identity frame (the page's own base VA). For residency-only
    /// callers — the unit tests, the private walk loops of the
    /// experiments, and the outside-in traced run in `perfbench/`,
    /// which charge data accesses through the rig's ground truth
    /// themselves. The engine fills through [`fill_pa`](Self::fill_pa).
    pub fn fill(&mut self, va: VirtAddr, size: PageSize) {
        self.fill_pa(va, size, PhysAddr(va.raw()));
    }

    /// Install a translation after a completed page walk that put `va`
    /// at `pa` in a `size` page: the entry's frame is `pa` minus `va`'s
    /// offset in the page. Refilling a resident translation refreshes
    /// it and replaces its frame (newer mappings win).
    pub fn fill_pa(&mut self, va: VirtAddr, size: PageSize, pa: PhysAddr) {
        // Newer mappings win: a page-granular fill inside a resident
        // unit reach means the wide mapping was split or replaced, so
        // the stale unit must not keep shadowing the new entry.
        if !self.units.is_empty() {
            let tag = self.tag();
            let base = va.align_down(size);
            self.units
                .retain(|e| !(e.tag == tag && e.unit.overlaps_range(base, size.bytes())));
        }
        let frame = pa.raw().wrapping_sub(va.offset_in(size));
        let key = self.l1_key(va, size);
        let skey = self.stlb_key(va, size);
        self.l1_for(size).insert_value(key, frame);
        // `insert_value` returns None both on a refresh and on a fill
        // into an empty way; a read-only pre-probe disambiguates the two
        // so the per-size residency stays exact.
        let new_entry = !self.stlb.contains(skey);
        if let Some(victim) = self.stlb.insert_value(skey, frame) {
            let vsize =
                PageSize::decode((victim & 3) as u8).expect("STLB keys carry a valid size tag");
            self.stlb_residency[vsize.encode() as usize] -= 1;
            self.stlb_residency[size.encode() as usize] += 1;
        } else if new_entry {
            self.stlb_residency[size.encode() as usize] += 1;
        }
    }

    /// Invalidate one translation (e.g. on `munmap` or PTE change).
    /// Any current-tag unit reach overlapping the invalidated page is
    /// shot down with it — a unit entry must never outlive part of its
    /// mapping.
    pub fn invalidate(&mut self, va: VirtAddr, size: PageSize) {
        if !self.units.is_empty() {
            let tag = self.tag();
            let base = va.align_down(size);
            self.units
                .retain(|e| !(e.tag == tag && e.unit.overlaps_range(base, size.bytes())));
        }
        let key = self.l1_key(va, size);
        let skey = self.stlb_key(va, size);
        self.l1_for(size).invalidate(key);
        if self.stlb.invalidate(skey) {
            self.stlb_residency[size.encode() as usize] -= 1;
        }
    }

    /// Full flush (context switch without ASIDs / TLB shootdown).
    pub fn flush(&mut self) {
        self.l1_4k.flush();
        self.l1_2m.flush();
        self.l1_1g.flush();
        self.stlb.flush();
        self.stlb_residency = [0; 3];
        self.units.clear();
        self.unit_clock = 0;
    }

    /// Every resident translation as `(page base VA, size, frame)`,
    /// deduplicated across the L1 arrays and the STLB (copies whose
    /// frames disagree are both reported). Read-only (no LRU or counter
    /// effects) — used by the oracle's shootdown-coherence audit: after
    /// an `munmap` + `invalidate`, no entry for the unmapped range may
    /// remain, and every survivor's frame must match the page table.
    pub fn entries(&self) -> Vec<(VirtAddr, PageSize, PhysAddr)> {
        let mut out = Vec::new();
        for (_, va, size, frame) in self.resident() {
            if !out.contains(&(va, size, frame)) {
                out.push((va, size, frame));
            }
        }
        out
    }

    /// Every resident translation with its address-space tag, as
    /// `(asid, page base VA, size)`, deduplicated across the L1 arrays
    /// and the STLB — for per-tenant coherence audits on a shared TLB.
    pub fn entries_tagged(&self) -> Vec<(u16, VirtAddr, PageSize)> {
        let mut out = Vec::new();
        for (asid, va, size, _) in self.resident() {
            if !out.contains(&(asid, va, size)) {
                out.push((asid, va, size));
            }
        }
        out
    }

    /// Every resident page entry of both levels, one item per array
    /// copy, as `(asid, page base VA, size, frame)`.
    fn resident(&self) -> impl Iterator<Item = (u16, VirtAddr, PageSize, PhysAddr)> + '_ {
        let l1 = [
            (&self.l1_4k, PageSize::Size4K),
            (&self.l1_2m, PageSize::Size2M),
            (&self.l1_1g, PageSize::Size1G),
        ]
        .into_iter()
        .flat_map(|(arr, size)| {
            arr.entries().map(move |(key, frame)| {
                let va = VirtAddr((key & KEY_MASK) << size.shift());
                ((key >> ASID_SHIFT) as u16, va, size, PhysAddr(frame))
            })
        });
        let stlb = self.stlb.entries().map(|(key, frame)| {
            let asid = (key >> ASID_SHIFT) as u16;
            let key = key & KEY_MASK;
            let size = PageSize::decode((key & 3) as u8).expect("STLB keys carry a valid size tag");
            let va = VirtAddr((key >> 2) << size.shift());
            (asid, va, size, PhysAddr(frame))
        });
        l1.chain(stlb)
    }

    /// Counters.
    pub fn stats(&self) -> TlbStats {
        self.stats
    }

    /// Reset counters (contents kept).
    pub fn reset_stats(&mut self) {
        self.stats = TlbStats::default();
    }
}

impl Default for Tlb {
    fn default() -> Self {
        Self::new(TlbConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const L1_4K: Option<(TlbHit, PageSize)> = Some((TlbHit::L1, PageSize::Size4K));

    #[test]
    fn miss_then_fill_then_hit() {
        let mut t = Tlb::new(TlbConfig::tiny());
        let va = VirtAddr(0x7f00_0000_1000);
        assert_eq!(t.lookup_any(va), None);
        t.fill(va, PageSize::Size4K);
        assert_eq!(t.lookup_any(va), L1_4K);
        // Same 4 KiB page, different offset: still a hit.
        assert_eq!(t.lookup_any(va + 0xfff), L1_4K);
    }

    #[test]
    fn hits_return_the_filled_frame_plus_offset() {
        let mut t = Tlb::new(TlbConfig::tiny());
        // The walk put 0x7f00_0000_1234 at 0x5_6000_0234 (4 KiB page).
        let (va, pa) = (VirtAddr(0x7f00_0000_1234), PhysAddr(0x5_6000_0234));
        t.fill_pa(va, PageSize::Size4K, pa);
        assert_eq!(
            t.lookup_pa(VirtAddr(0x7f00_0000_1ff8)),
            Some((TlbHit::L1, PhysAddr(0x5_6000_0ff8)))
        );
        // A refill replaces the frame (newer mappings win).
        t.fill_pa(va, PageSize::Size4K, PhysAddr(0x9234));
        assert_eq!(
            t.lookup_pa(VirtAddr(0x7f00_0000_1010)),
            Some((TlbHit::L1, PhysAddr(0x9010)))
        );
        // 2 MiB page: the frame is the huge page's base.
        let (va, pa) = (VirtAddr(0x4012_3456), PhysAddr(0x80_0012_3456));
        t.fill_pa(va, PageSize::Size2M, pa);
        assert_eq!(
            t.lookup_pa(VirtAddr(0x4000_0008)),
            Some((TlbHit::L1, PhysAddr(0x80_0000_0008)))
        );
        // A unit's frame is its base's PA, whichever VA the walk hit.
        let u = TransUnit {
            base: VirtAddr(0x100_0000),
            len: 0x5000,
        };
        t.fill_unit_pa(u, VirtAddr(0x100_3008), PhysAddr(0x2_0000_3008));
        assert_eq!(
            t.lookup_pa(VirtAddr(0x100_4ff0)),
            Some((TlbHit::L1, PhysAddr(0x2_0000_4ff0)))
        );
    }

    #[test]
    fn stlb_hits_promote_the_frame_into_l1() {
        // L1: 2 sets x 2 ways. Four pages in L1 set 0; the 4-way STLB
        // keeps all of them.
        let mut t = Tlb::new(TlbConfig::tiny());
        for i in 0..4u64 {
            let frame = PhysAddr((i + 1) << 20);
            t.fill_pa(VirtAddr(i * 2 * 4096), PageSize::Size4K, frame);
        }
        assert_eq!(
            t.lookup_pa(VirtAddr(0x10)),
            Some((TlbHit::Stlb, PhysAddr((1 << 20) + 0x10)))
        );
        assert_eq!(
            t.lookup_pa(VirtAddr(0x20)),
            Some((TlbHit::L1, PhysAddr((1 << 20) + 0x20)))
        );
    }

    #[test]
    fn page_sizes_do_not_alias() {
        let mut t = Tlb::new(TlbConfig::tiny());
        t.fill(VirtAddr(0), PageSize::Size4K);
        // Another 4 KiB page of the same 2 MiB and 1 GiB regions misses:
        // the 4 KiB entry claims no wider reach.
        assert_eq!(t.lookup_any(VirtAddr(0x1000)), None);
        assert_eq!(t.lookup_any(VirtAddr(0)), L1_4K);
    }

    #[test]
    fn huge_pages_have_wider_reach() {
        let mut t = Tlb::new(TlbConfig::tiny());
        t.fill(VirtAddr(0), PageSize::Size2M);
        // Any address within the 2 MiB page hits.
        assert_eq!(
            t.lookup_any(VirtAddr(2 * 1024 * 1024 - 1)),
            Some((TlbHit::L1, PageSize::Size2M))
        );
        assert_eq!(t.lookup_any(VirtAddr(2 * 1024 * 1024)), None);
    }

    #[test]
    fn invalidate_removes_both_levels() {
        let mut t = Tlb::new(TlbConfig::tiny());
        let va = VirtAddr(0x1000);
        t.fill(va, PageSize::Size4K);
        t.invalidate(va, PageSize::Size4K);
        assert_eq!(t.lookup_any(va), None);
    }

    #[test]
    fn stats_track_levels() {
        let mut t = Tlb::new(TlbConfig::tiny());
        let va = VirtAddr(0x1000);
        t.lookup_any(va); // miss
        t.fill(va, PageSize::Size4K);
        t.lookup_any(va); // L1 hit
        let s = t.stats();
        assert_eq!(s.misses, 1);
        assert_eq!(s.l1_hits, 1);
        assert_eq!(s.total(), 2);
        assert!((s.miss_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn lookup_any_probes_all_sizes() {
        let mut t = Tlb::new(TlbConfig::tiny());
        let va = VirtAddr(0x12_3456_7000);
        assert_eq!(t.lookup_any(va), None);
        t.fill(va, PageSize::Size2M);
        let (hit, size) = t.lookup_any(va + 0xfff).unwrap();
        assert_eq!(hit, TlbHit::L1);
        assert_eq!(size, PageSize::Size2M);
        // Counted as one lookup each.
        assert_eq!(t.stats().total(), 2);
    }

    #[test]
    fn lookup_any_promotes_from_stlb() {
        let cfg = TlbConfig::tiny();
        let mut t = Tlb::new(cfg);
        for i in 0..4u64 {
            t.fill(VirtAddr(i * 2 * 4096), PageSize::Size4K);
        }
        let (hit, size) = t.lookup_any(VirtAddr(0)).unwrap();
        assert_eq!(hit, TlbHit::Stlb);
        assert_eq!(size, PageSize::Size4K);
        let (hit, _) = t.lookup_any(VirtAddr(0)).unwrap();
        assert_eq!(hit, TlbHit::L1, "promoted after the STLB hit");
    }

    #[test]
    fn entries_reports_resident_translations() {
        let mut t = Tlb::new(TlbConfig::tiny());
        t.fill(VirtAddr(0x1000), PageSize::Size4K);
        t.fill(VirtAddr(0x20_0000), PageSize::Size2M);
        let e = t.entries();
        let page = (VirtAddr(0x1000), PageSize::Size4K, PhysAddr(0x1000));
        assert!(e.contains(&page));
        assert!(e.contains(&(VirtAddr(0x20_0000), PageSize::Size2M, PhysAddr(0x20_0000))));
        assert_eq!(e.len(), 2, "L1 and STLB copies deduplicated");
        t.invalidate(VirtAddr(0x1000), PageSize::Size4K);
        assert!(!t.entries().contains(&page));
    }

    #[test]
    fn flush_clears_translations() {
        let mut t = Tlb::new(TlbConfig::tiny());
        t.fill(VirtAddr(0x1000), PageSize::Size4K);
        t.flush();
        assert_eq!(t.lookup_any(VirtAddr(0x1000)), None);
    }

    #[test]
    fn asids_isolate_address_spaces() {
        let mut t = Tlb::new(TlbConfig::tiny());
        let va = VirtAddr(0x1000);
        t.fill(va, PageSize::Size4K);
        // Same VA in another address space misses without any flush.
        t.set_asid(7);
        assert_eq!(t.lookup_any(va), None);
        t.fill(va, PageSize::Size4K);
        assert_eq!(t.lookup_any(va), L1_4K);
        // Switching back finds the original entry still resident.
        t.set_asid(0);
        assert_eq!(t.lookup_any(va), L1_4K);
    }

    #[test]
    fn flush_asid_evicts_only_the_tag() {
        let mut t = Tlb::new(TlbConfig::tiny());
        t.fill(VirtAddr(0x1000), PageSize::Size4K);
        t.set_asid(3);
        t.fill(VirtAddr(0x1000), PageSize::Size4K);
        t.fill(VirtAddr(0x20_0000), PageSize::Size2M);
        // Two tagged translations, each resident in L1 + STLB = 4 entries.
        assert_eq!(t.flush_asid(3), 4);
        assert_eq!(t.lookup_any(VirtAddr(0x1000)), None);
        t.set_asid(0);
        assert_eq!(t.lookup_any(VirtAddr(0x1000)), L1_4K);
        assert_eq!(t.flush_asid(9), 0, "unknown tag flushes nothing");
    }

    #[test]
    fn entries_tagged_reports_per_asid() {
        let mut t = Tlb::new(TlbConfig::tiny());
        t.fill(VirtAddr(0x1000), PageSize::Size4K);
        t.set_asid(5);
        t.fill(VirtAddr(0x2000), PageSize::Size4K);
        let e = t.entries_tagged();
        assert!(e.contains(&(0, VirtAddr(0x1000), PageSize::Size4K)));
        assert!(e.contains(&(5, VirtAddr(0x2000), PageSize::Size4K)));
        // The untagged view decodes the same VAs regardless of tag.
        let plain = t.entries();
        for va in [VirtAddr(0x1000), VirtAddr(0x2000)] {
            assert!(plain.contains(&(va, PageSize::Size4K, PhysAddr(va.raw()))));
        }
    }

    #[test]
    fn probe_any_is_read_only_and_tag_aware() {
        let mut t = Tlb::new(TlbConfig::tiny());
        t.fill(VirtAddr(0x1000), PageSize::Size4K);
        let stats_before = t.stats();
        assert!(t.probe_any(VirtAddr(0x1000)));
        assert!(t.probe_any(VirtAddr(0x1fff)), "same 4K page");
        assert!(!t.probe_any(VirtAddr(0x2000)));
        assert_eq!(t.stats(), stats_before, "probe_any must not count");
        // A resident entry of another address space is invisible.
        t.set_asid(7);
        assert!(!t.probe_any(VirtAddr(0x1000)));
        // And the stateful lookup agrees with the probe either way.
        assert!(t.lookup_any(VirtAddr(0x1000)).is_none());
        t.set_asid(0);
        assert!(t.lookup_any(VirtAddr(0x1000)).is_some());
    }

    #[test]
    fn probe_block_matches_probe_any_and_lookup_any() {
        let mut t = Tlb::new(TlbConfig::tiny());
        // Mixed sizes, L1/STLB evictions, an invalidation, a refresh and
        // an ASID flush: every residency transition the counters track.
        for i in 0..6u64 {
            t.fill(VirtAddr(i * 2 * 4096), PageSize::Size4K);
        }
        t.fill(VirtAddr(0x20_0000), PageSize::Size2M);
        t.fill(VirtAddr(0x20_0000), PageSize::Size2M); // refresh
        t.fill(VirtAddr(0x4000_0000), PageSize::Size1G);
        t.invalidate(VirtAddr(0x20_0000), PageSize::Size2M);
        t.set_asid(3);
        t.fill(VirtAddr(0x9000), PageSize::Size4K);
        t.set_asid(0);
        t.flush_asid(3);
        let vas: Vec<VirtAddr> = (0..16u64)
            .map(|i| VirtAddr(i * 4096))
            .chain([VirtAddr(0x20_0000), VirtAddr(0x4000_0000), VirtAddr(0x9000)])
            .collect();
        let mut hits = vec![true; vas.len()];
        let stats_before = t.stats();
        t.probe_block(&vas, &mut hits);
        assert_eq!(t.stats(), stats_before, "probe_block must not count");
        for (i, &va) in vas.iter().enumerate() {
            assert_eq!(hits[i], t.probe_any(va), "element {i} vs probe_any");
            // lookup_any ignores the residency breakdown entirely, so a
            // stale counter that hides a resident size would split these.
            assert_eq!(
                hits[i],
                t.clone().lookup_any(va).is_some(),
                "element {i} vs lookup_any"
            );
        }
        assert!(hits.iter().any(|&h| h));
        assert!(hits.iter().any(|&h| !h));
    }

    #[test]
    fn probe_block_on_an_empty_and_flushed_tlb() {
        let mut t = Tlb::new(TlbConfig::tiny());
        let vas: Vec<VirtAddr> = (0..64u64).map(|i| VirtAddr(i * 4096)).collect();
        let mut hits = vec![true; vas.len()];
        t.probe_block(&vas, &mut hits);
        assert!(hits.iter().all(|&h| !h), "empty TLB hits nothing");
        // Overflow the tiny STLB so evictions retire victim sizes, then
        // flush: the residency reset must leave no phantom entries.
        for &va in &vas {
            t.fill(va, PageSize::Size4K);
        }
        t.flush();
        t.probe_block(&vas, &mut hits);
        assert!(hits.iter().all(|&h| !h), "flush cleared everything");
    }

    #[test]
    fn unit_fill_hits_across_the_whole_reach() {
        let mut t = Tlb::new(TlbConfig::tiny());
        let u = TransUnit {
            base: VirtAddr(0x40_0000),
            len: 0x9000, // 9 pages — not a page-size-enumerable reach
        };
        assert!(t.lookup_any(VirtAddr(0x40_0000)).is_none());
        t.fill_unit(u);
        let (hit, _) = t.lookup_any(VirtAddr(0x40_0000)).unwrap();
        assert_eq!(hit, TlbHit::L1);
        assert!(t.probe_any(VirtAddr(0x40_8fff)), "last byte of the reach");
        assert!(!t.probe_any(VirtAddr(0x40_9000)), "one past the reach");
        assert!(!t.probe_any(VirtAddr(0x3f_f000)), "one page before");
        // Unit hits count as L1 hits.
        assert_eq!(t.stats().l1_hits, 1);
    }

    #[test]
    fn unit_entries_are_asid_tagged() {
        let mut t = Tlb::new(TlbConfig::tiny());
        let u = TransUnit {
            base: VirtAddr(0x10_0000),
            len: 0x4000,
        };
        t.fill_unit(u);
        t.set_asid(7);
        assert!(!t.probe_any(VirtAddr(0x10_0000)), "other address space");
        t.fill_unit(TransUnit {
            base: VirtAddr(0x10_0000),
            len: 0x2000,
        });
        assert_eq!(t.unit_entries_tagged().len(), 2, "tags do not collide");
        // flush_asid retires exactly the tagged unit and counts it.
        t.set_asid(0);
        assert_eq!(t.flush_asid(7), 1);
        assert!(t.probe_any(VirtAddr(0x10_0000)), "asid 0 entry survives");
        assert_eq!(t.flush_asid(0), 1);
        assert!(!t.probe_any(VirtAddr(0x10_0000)));
    }

    #[test]
    fn newer_mappings_evict_overlapping_unit_reaches() {
        let mut t = Tlb::new(TlbConfig::tiny());
        let wide = TransUnit {
            base: VirtAddr(0x20_0000),
            len: 0x10000,
        };
        t.fill_unit(wide);
        // A newer, shorter unit over part of the reach wins outright:
        // the wide entry may not shadow it.
        let narrow = TransUnit {
            base: VirtAddr(0x20_4000),
            len: 0x1000,
        };
        t.fill_unit(narrow);
        assert_eq!(t.unit_entries_tagged(), vec![(0, narrow)]);
        assert!(!t.probe_any(VirtAddr(0x20_0000)), "wide reach is gone");
        // A newer page-granular fill inside a unit reach also evicts it.
        t.fill_unit(wide);
        t.fill(VirtAddr(0x20_8000), PageSize::Size4K);
        assert!(t.unit_entries_tagged().is_empty());
        assert!(t.probe_any(VirtAddr(0x20_8000)), "page entry remains");
        assert!(!t.probe_any(VirtAddr(0x20_0000)));
        // And an invalidation shoots down the covering unit.
        t.fill_unit(wide);
        t.invalidate(VirtAddr(0x20_2000), PageSize::Size4K);
        assert!(t.unit_entries_tagged().is_empty());
    }

    #[test]
    fn unit_array_replaces_lru_when_full() {
        let mut t = Tlb::new(TlbConfig::tiny());
        for i in 0..UNIT_ENTRIES as u64 {
            t.fill_unit(TransUnit {
                base: VirtAddr((i + 1) << 30),
                len: 0x1000,
            });
        }
        // Touch entry 0 so entry 1 becomes the LRU victim.
        assert!(t.lookup_any(VirtAddr(1 << 30)).is_some());
        t.fill_unit(TransUnit {
            base: VirtAddr(0x123_0000),
            len: 0x1000,
        });
        assert_eq!(t.unit_entries_tagged().len(), UNIT_ENTRIES);
        assert!(t.probe_any(VirtAddr(1 << 30)), "recently used survives");
        assert!(!t.probe_any(VirtAddr(2 << 30)), "LRU entry replaced");
        assert!(t.probe_any(VirtAddr(0x123_0000)));
    }

    #[test]
    fn probe_block_matches_probe_any_over_mixed_reaches() {
        let mut t = Tlb::new(TlbConfig::tiny());
        t.fill(VirtAddr(0x1000), PageSize::Size4K);
        t.fill(VirtAddr(0x20_0000), PageSize::Size2M);
        t.fill_unit(TransUnit {
            base: VirtAddr(0x50_0000),
            len: 0x7000,
        });
        t.set_asid(5);
        t.fill_unit(TransUnit {
            base: VirtAddr(0x50_0000),
            len: 0x2000,
        });
        t.set_asid(0);
        let vas: Vec<VirtAddr> = (0..8u64)
            .map(|i| VirtAddr(0x50_0000 + i * 4096 - 4096))
            .chain([VirtAddr(0x1000), VirtAddr(0x2000), VirtAddr(0x20_1000)])
            .collect();
        let mut hits = vec![false; vas.len()];
        let stats_before = t.stats();
        t.probe_block(&vas, &mut hits);
        assert_eq!(t.stats(), stats_before, "probe_block must not count");
        for (i, &va) in vas.iter().enumerate() {
            assert_eq!(hits[i], t.probe_any(va), "element {i}");
        }
        assert!(hits.iter().any(|&h| h) && hits.iter().any(|&h| !h));
    }
}
