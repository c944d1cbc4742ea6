//! `Tlb` against a naive reference model.
//!
//! The model keeps every resident translation in one flat `Vec` per
//! kind — page entries (tagged with their level: an L1 array of one
//! size, or the STLB) and variable-reach unit entries — each carrying
//! its address space, its frame and an explicit last-use stamp from a
//! monotonic clock. A set-associative array is just "the entries of
//! one level whose key falls in the same set"; a fill into a full set
//! evicts the one with the smallest stamp, and a full unit array evicts
//! its smallest stamp. `Tlb` keeps no stamps (its arrays hold each set
//! most-recently-used first), per-size STLB residency counters and a
//! unit clock, so every return value — hit level, page size, the
//! physical address a hit resolves to — every counter and the resident
//! entry sets must agree with the model after every step of a random
//! operation sequence.

use dmt_cache::tlb::{Tlb, TlbConfig, TlbHit, TlbStats};
use dmt_mem::{PageSize, PhysAddr, TransUnit, VirtAddr};
use proptest::prelude::*;

/// Capacity of the fully associative unit array.
const UNIT_ENTRIES: usize = 16;
/// Address-space tag position in an array key.
const ASID_SHIFT: u32 = 48;
/// Lookup order: largest reach first, L1 arrays before the STLB.
const SIZES: [PageSize; 3] = [PageSize::Size1G, PageSize::Size2M, PageSize::Size4K];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Level {
    /// The L1 array of the entry's own size.
    L1,
    Stlb,
}

#[derive(Debug, Clone, Copy)]
struct Page {
    level: Level,
    asid: u16,
    size: PageSize,
    /// VPN at the entry's own page size.
    vpn: u64,
    /// Physical address of the page base.
    frame: u64,
    stamp: u64,
}

#[derive(Debug, Clone, Copy)]
struct Unit {
    asid: u16,
    unit: TransUnit,
    /// Physical address of `unit.base`.
    frame: u64,
    stamp: u64,
}

struct Model {
    cfg: TlbConfig,
    pages: Vec<Page>,
    units: Vec<Unit>,
    clock: u64,
    asid: u16,
    stats: TlbStats,
}

type Hit = Option<(TlbHit, PageSize, PhysAddr)>;

impl Model {
    fn new(cfg: TlbConfig) -> Self {
        Model {
            cfg,
            pages: Vec::new(),
            units: Vec::new(),
            clock: 0,
            asid: 0,
            stats: TlbStats::default(),
        }
    }

    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// The array key `Tlb` files an entry under; the set is the key
    /// modulo the level's set count.
    fn key(level: Level, asid: u16, size: PageSize, vpn: u64) -> u64 {
        let tag = (asid as u64) << ASID_SHIFT;
        match level {
            Level::L1 => vpn | tag,
            Level::Stlb => (vpn << 2) | size.encode() as u64 | tag,
        }
    }

    fn set_of(&self, level: Level, asid: u16, size: PageSize, vpn: u64) -> u64 {
        let (entries, ways) = match level {
            Level::L1 => (self.cfg.l1_entries, self.cfg.l1_ways),
            Level::Stlb => (self.cfg.stlb_entries, self.cfg.stlb_ways),
        };
        Self::key(level, asid, size, vpn) % (entries / ways as u64)
    }

    fn ways(&self, level: Level) -> usize {
        match level {
            Level::L1 => self.cfg.l1_ways,
            Level::Stlb => self.cfg.stlb_ways,
        }
    }

    fn find(&self, level: Level, asid: u16, size: PageSize, vpn: u64) -> Option<usize> {
        self.pages
            .iter()
            .position(|p| p.level == level && p.asid == asid && p.size == size && p.vpn == vpn)
    }

    fn find_unit(&self, va: VirtAddr) -> Option<usize> {
        self.units
            .iter()
            .position(|u| u.asid == self.asid && u.unit.contains(va))
    }

    /// Insert or refresh one page entry; a full set loses its LRU entry.
    fn insert(&mut self, level: Level, size: PageSize, vpn: u64, frame: u64) {
        let asid = self.asid;
        let stamp = self.tick();
        if let Some(i) = self.find(level, asid, size, vpn) {
            self.pages[i].frame = frame;
            self.pages[i].stamp = stamp;
            return;
        }
        let set = self.set_of(level, asid, size, vpn);
        let same_set = |p: &Page| {
            p.level == level
                && (level == Level::Stlb || p.size == size)
                && self.set_of(level, p.asid, p.size, p.vpn) == set
        };
        if self.pages.iter().filter(|p| same_set(p)).count() == self.ways(level) {
            let victim = (0..self.pages.len())
                .filter(|&i| same_set(&self.pages[i]))
                .min_by_key(|&i| self.pages[i].stamp)
                .expect("a full set is non-empty");
            self.pages.remove(victim);
        }
        self.pages.push(Page {
            level,
            asid,
            size,
            vpn,
            frame,
            stamp,
        });
    }

    fn drop_overlapping_units(&mut self, base: VirtAddr, len: u64) {
        let asid = self.asid;
        self.units
            .retain(|u| !(u.asid == asid && u.unit.overlaps_range(base, len)));
    }

    fn lookup(&mut self, va: VirtAddr) -> Hit {
        if let Some(i) = self.find_unit(va) {
            let stamp = self.tick();
            let u = &mut self.units[i];
            u.stamp = stamp;
            self.stats.l1_hits += 1;
            let pa = PhysAddr(u.frame + (va - u.unit.base));
            return Some((TlbHit::L1, PageSize::Size4K, pa));
        }
        for level in [Level::L1, Level::Stlb] {
            for size in SIZES {
                let Some(i) = self.find(level, self.asid, size, va.vpn_for(size)) else {
                    continue;
                };
                let stamp = self.tick();
                self.pages[i].stamp = stamp;
                let frame = self.pages[i].frame;
                let hit = if level == Level::L1 {
                    self.stats.l1_hits += 1;
                    TlbHit::L1
                } else {
                    self.insert(Level::L1, size, va.vpn_for(size), frame);
                    self.stats.stlb_hits += 1;
                    TlbHit::Stlb
                };
                return Some((hit, size, PhysAddr(frame + va.offset_in(size))));
            }
        }
        self.stats.misses += 1;
        None
    }

    fn probe(&self, va: VirtAddr) -> bool {
        self.find_unit(va).is_some()
            || self
                .pages
                .iter()
                .any(|p| p.asid == self.asid && p.vpn == va.vpn_for(p.size))
    }

    fn fill(&mut self, va: VirtAddr, size: PageSize, pa: PhysAddr) {
        self.drop_overlapping_units(va.align_down(size), size.bytes());
        let frame = pa.raw() - va.offset_in(size);
        self.insert(Level::L1, size, va.vpn_for(size), frame);
        self.insert(Level::Stlb, size, va.vpn_for(size), frame);
    }

    fn fill_unit(&mut self, unit: TransUnit, va: VirtAddr, pa: PhysAddr) {
        self.drop_overlapping_units(unit.base, unit.len);
        if self.units.len() == UNIT_ENTRIES {
            let victim = (0..self.units.len())
                .min_by_key(|&i| self.units[i].stamp)
                .expect("a full array is non-empty");
            self.units.remove(victim);
        }
        let stamp = self.tick();
        self.units.push(Unit {
            asid: self.asid,
            unit,
            frame: pa.raw() - (va - unit.base),
            stamp,
        });
    }

    fn invalidate(&mut self, va: VirtAddr, size: PageSize) {
        self.drop_overlapping_units(va.align_down(size), size.bytes());
        let (asid, vpn) = (self.asid, va.vpn_for(size));
        self.pages
            .retain(|p| !(p.asid == asid && p.size == size && p.vpn == vpn));
    }

    fn flush_asid(&mut self, asid: u16) -> u64 {
        let before = self.pages.len() + self.units.len();
        self.pages.retain(|p| p.asid != asid);
        self.units.retain(|u| u.asid != asid);
        (before - self.pages.len() - self.units.len()) as u64
    }

    fn flush(&mut self) {
        self.pages.clear();
        self.units.clear();
    }

    fn page_va(p: &Page) -> VirtAddr {
        VirtAddr(p.vpn << p.size.shift())
    }

    fn entries(&self) -> Vec<(VirtAddr, PageSize, PhysAddr)> {
        let mut out: Vec<_> = self
            .pages
            .iter()
            .map(|p| (Self::page_va(p), p.size, PhysAddr(p.frame)))
            .collect();
        sorted_dedup(&mut out);
        out
    }

    fn entries_tagged(&self) -> Vec<(u16, VirtAddr, PageSize)> {
        let mut out: Vec<_> = self
            .pages
            .iter()
            .map(|p| (p.asid, Self::page_va(p), p.size))
            .collect();
        sorted_dedup(&mut out);
        out
    }

    fn units_tagged(&self) -> Vec<(u16, TransUnit)> {
        let mut out: Vec<_> = self.units.iter().map(|u| (u.asid, u.unit)).collect();
        out.sort_unstable_by_key(|&(a, u)| (a, u.base, u.len));
        out
    }
}

fn sorted_dedup<T: Ord>(v: &mut Vec<T>) {
    v.sort_unstable();
    v.dedup();
}

/// A VA in a small space that makes sets, levels and sizes collide:
/// four 1 GiB regions, four 2 MiB regions in each, 48 4 KiB pages in
/// each of those, at a random offset.
fn va_of(raw: u64) -> VirtAddr {
    let gig = (raw >> 40) % 4;
    let huge = (raw >> 32) % 4;
    let page = (raw >> 16) % 48;
    VirtAddr((gig << 30) | (huge << 21) | (page << 12) | (raw & 0xfff))
}

fn size_of(raw: u64) -> PageSize {
    match (raw >> 56) % 8 {
        0 => PageSize::Size1G,
        1 | 2 => PageSize::Size2M,
        _ => PageSize::Size4K,
    }
}

/// Where the walk put `va`: a random 1 GiB-aligned region (never the
/// first) at `va`'s offset, so any entry size derives a frame from it.
fn pa_of(va: VirtAddr, raw: u64) -> PhysAddr {
    PhysAddr((((raw >> 3) & 0xfff_ffff) | 1) << 30 | va.offset_in(PageSize::Size1G))
}

/// A 1–8 page unit whose reach holds `va`.
fn unit_of(va: VirtAddr, raw: u64) -> TransUnit {
    let pages = 1 + (raw >> 60) % 8;
    let before = (raw >> 57) % pages;
    let base = VirtAddr(
        va.align_down(PageSize::Size4K)
            .raw()
            .saturating_sub(before << 12),
    );
    TransUnit {
        base,
        len: pages << 12,
    }
}

fn check(cfg: TlbConfig, ops: &[(u16, u64, u64)]) {
    let mut real = Tlb::new(cfg);
    let mut model = Model::new(cfg);
    for (step, &(op, raw, raw2)) in ops.iter().enumerate() {
        let va = va_of(raw);
        let what = match op {
            0..=179 => {
                let m = model.lookup(va);
                assert_eq!(
                    real.lookup_pa(va),
                    m.map(|(h, _, pa)| (h, pa)),
                    "step {step}"
                );
                "lookup_pa"
            }
            180..=259 => {
                let m = model.lookup(va);
                assert_eq!(
                    real.lookup_any(va),
                    m.map(|(h, s, _)| (h, s)),
                    "step {step}"
                );
                "lookup_any"
            }
            260..=319 => {
                assert_eq!(real.probe_any(va), model.probe(va), "step {step}");
                "probe_any"
            }
            320..=379 => {
                let vas: Vec<VirtAddr> = (0..1 + raw2 % 8)
                    .map(|k| va_of(raw.rotate_left(7 * k as u32) ^ raw2))
                    .collect();
                let mut hits = vec![true; vas.len()];
                real.probe_block(&vas, &mut hits);
                let want: Vec<bool> = vas.iter().map(|&v| model.probe(v)).collect();
                assert_eq!(hits, want, "step {step}");
                "probe_block"
            }
            380..=599 => {
                let (size, pa) = (size_of(raw2), pa_of(va, raw2));
                real.fill_pa(va, size, pa);
                model.fill(va, size, pa);
                "fill_pa"
            }
            600..=629 => {
                let size = size_of(raw2);
                real.fill(va, size);
                model.fill(va, size, PhysAddr(va.raw()));
                "fill"
            }
            630..=759 => {
                let (unit, pa) = (unit_of(va, raw2), pa_of(va, raw2));
                real.fill_unit_pa(unit, va, pa);
                model.fill_unit(unit, va, pa);
                "fill_unit_pa"
            }
            760..=779 => {
                let unit = unit_of(va, raw2);
                real.fill_unit(unit);
                model.fill_unit(unit, unit.base, PhysAddr(unit.base.raw()));
                "fill_unit"
            }
            780..=829 => {
                let size = size_of(raw2);
                real.invalidate(va, size);
                model.invalidate(va, size);
                "invalidate"
            }
            830..=939 => {
                let asid = (raw2 % 3) as u16;
                real.set_asid(asid);
                model.asid = asid;
                "set_asid"
            }
            940..=969 => {
                let asid = (raw2 % 3) as u16;
                assert_eq!(real.flush_asid(asid), model.flush_asid(asid), "step {step}");
                "flush_asid"
            }
            970..=997 => {
                real.reset_stats();
                model.stats = TlbStats::default();
                "reset_stats"
            }
            // Rare, so the arrays fill up between flushes.
            _ => {
                real.flush();
                model.flush();
                "flush"
            }
        };
        assert_eq!(
            real.stats(),
            model.stats,
            "stats after {what} at step {step}"
        );
        assert_eq!(real.asid(), model.asid);
        let mut entries = real.entries();
        entries.sort_unstable();
        assert_eq!(
            entries,
            model.entries(),
            "entries after {what} at step {step}"
        );
        let mut tagged = real.entries_tagged();
        tagged.sort_unstable();
        assert_eq!(
            tagged,
            model.entries_tagged(),
            "tags after {what} at step {step}"
        );
        let mut units = real.unit_entries_tagged();
        units.sort_unstable_by_key(|&(a, u)| (a, u.base, u.len));
        assert_eq!(
            units,
            model.units_tagged(),
            "units after {what} at step {step}"
        );
    }
}

fn ops(max: usize) -> impl Strategy<Value = Vec<(u16, u64, u64)>> {
    prop::collection::vec((0u16..1000, any::<u64>(), any::<u64>()), 1..max)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// 2-set 2-way L1 arrays over a 4-set 4-way STLB.
    #[test]
    fn matches_model_tiny(ops in ops(500)) {
        check(TlbConfig::tiny(), &ops);
    }

    /// Non-power-of-two set counts take the modulo indexing path, where
    /// the address-space tag bits reach the set index.
    #[test]
    fn matches_model_odd_sets(ops in ops(500)) {
        let cfg = TlbConfig {
            l1_entries: 6,
            l1_ways: 2,
            stlb_entries: 15,
            stlb_ways: 3,
        };
        check(cfg, &ops);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Table 3's geometry: the 16-set L1 arrays evict under a mostly
    /// resident STLB.
    #[test]
    fn matches_model_xeon(ops in ops(3000)) {
        check(TlbConfig::xeon_gold_6138(), &ops);
    }
}
