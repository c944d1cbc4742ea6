//! The data-cache hierarchy and DRAM latency model (Table 3 of the paper).
//!
//! Every memory reference in the simulation — data accesses and PTE fetches
//! alike — goes through [`MemoryHierarchy::access`]. That shared path is
//! what makes last-level PTEs "hard to cache" for big-footprint workloads:
//! data lines and PTE lines contend for the same L2/LLC capacity, exactly
//! as in the paper's DynamoRIO-based model.
//!
//! Each level is a private array of 32-bit set-relative tags (`line /
//! sets + 1`; the set index is implied by the tag's position, so nothing
//! is lost). Table 3's 22 MiB LLC then needs 1.375 MiB of host memory
//! where a [`SetAssoc`](crate::set_assoc::SetAssoc) (a `u64` per way plus
//! a length per set) needed 2.875 MiB, and all three levels fit in a
//! 2 MiB per-core host L2. The TLB and the walk caches keep `SetAssoc`:
//! their keys carry ASID and page-size bits that do not fit in 32 bits,
//! and the fully associative PWC arrays have no set index to imply. A
//! line whose tag would not fit panics (see [`MemoryHierarchy::access`]).

/// Log2 of the cache-line size (64 B).
pub const LINE_SHIFT: u32 = 6;

/// Which level of the hierarchy served an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum HitLevel {
    /// L1 data cache.
    L1,
    /// Unified L2.
    L2,
    /// Shared last-level cache.
    Llc,
    /// Main memory.
    Dram,
}

/// Geometry and round-trip latency of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LevelConfig {
    /// Total capacity in bytes.
    pub bytes: u64,
    /// Associativity.
    pub ways: usize,
    /// Round-trip latency in cycles when the access hits at this level.
    pub latency: u64,
}

/// An optional fast/slow split of main memory (tiered / hybrid DRAM).
///
/// The tier of a line is decided purely by physical placement: frames
/// below `fast_bytes` are the fast tier (served at the hierarchy's
/// `dram_latency`), frames at or above it are the slow tier (served at
/// `slow_latency`). Allocator placement — and page migration, e.g.
/// DMT's TEA compaction moving frames across the boundary — therefore
/// decides what each access costs. `None` (the default) is the flat
/// model and is bit-identical to the pre-tier code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramTiers {
    /// Physical bytes in the fast tier (addresses `< fast_bytes`).
    pub fast_bytes: u64,
    /// Round-trip latency in cycles of the slow tier.
    pub slow_latency: u64,
}

/// Configuration of the full hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HierarchyConfig {
    /// L1 data cache.
    pub l1: LevelConfig,
    /// Unified L2 cache.
    pub l2: LevelConfig,
    /// Shared last-level cache.
    pub llc: LevelConfig,
    /// Main-memory round-trip latency in cycles (the fast tier's, when
    /// [`tiers`](Self::tiers) is set).
    pub dram_latency: u64,
    /// Optional fast/slow DRAM tier split; `None` = flat DRAM.
    pub tiers: Option<DramTiers>,
}

impl HierarchyConfig {
    /// Table 3's simulated configuration (per-core slice of an Intel Xeon
    /// Gold 6138): 32 KiB 8-way L1D (4 cycles), 1 MiB 16-way L2 (14
    /// cycles), 22 MiB 11-way LLC (54 cycles), 200-cycle DRAM.
    pub fn xeon_gold_6138() -> Self {
        HierarchyConfig {
            l1: LevelConfig {
                bytes: 32 << 10,
                ways: 8,
                latency: 4,
            },
            l2: LevelConfig {
                bytes: 1 << 20,
                ways: 16,
                latency: 14,
            },
            llc: LevelConfig {
                bytes: 22 << 20,
                ways: 11,
                latency: 54,
            },
            dram_latency: 200,
            tiers: None,
        }
    }

    /// A tiny hierarchy for fast unit tests.
    pub fn tiny() -> Self {
        HierarchyConfig {
            l1: LevelConfig {
                bytes: 1 << 10,
                ways: 2,
                latency: 4,
            },
            l2: LevelConfig {
                bytes: 4 << 10,
                ways: 4,
                latency: 14,
            },
            llc: LevelConfig {
                bytes: 16 << 10,
                ways: 4,
                latency: 54,
            },
            dram_latency: 200,
            tiers: None,
        }
    }

    /// This configuration with a fast/slow DRAM split installed.
    pub fn with_tiers(mut self, tiers: DramTiers) -> Self {
        self.tiers = Some(tiers);
        self
    }
}

impl Default for HierarchyConfig {
    fn default() -> Self {
        Self::xeon_gold_6138()
    }
}

/// Per-level hit counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HierarchyStats {
    /// Hits in the L1 data cache.
    pub l1_hits: u64,
    /// Hits in the L2 cache.
    pub l2_hits: u64,
    /// Hits in the last-level cache.
    pub llc_hits: u64,
    /// Accesses served by DRAM.
    pub dram_accesses: u64,
    /// Of those, accesses served by the slow tier (0 when flat).
    pub dram_slow_accesses: u64,
}

impl HierarchyStats {
    /// Total number of accesses.
    pub fn total(&self) -> u64 {
        self.l1_hits + self.l2_hits + self.llc_hits + self.dram_accesses
    }
}

/// One cache level's true-LRU tag array: `sets × ways` tags flattened
/// as `set * ways + rank`, rank 0 the most recently used.
///
/// A hit moves its tag to rank 0. A miss shifts the whole set down one
/// rank and writes rank 0, which drops the last rank: the LRU victim
/// when the set is full, an empty way while it is not. Live tags are
/// never 0, so empty ways never match and no per-set length is kept.
#[derive(Debug, Clone)]
struct TagArray {
    sets: u64,
    ways: usize,
    tags: Vec<u32>,
}

impl TagArray {
    fn new(c: LevelConfig) -> Self {
        assert!(c.ways > 0, "cache geometry must be non-zero");
        let sets = (c.bytes >> LINE_SHIFT) / c.ways as u64;
        assert!(sets > 0, "cache geometry must be non-zero");
        TagArray {
            sets,
            ways: c.ways,
            // Zeroed, so the allocation's pages fault in on first touch.
            tags: vec![0; sets as usize * c.ways],
        }
    }

    /// The largest line whose tag fits in 32 bits.
    fn max_line(&self) -> u64 {
        u64::from(u32::MAX) * self.sets - 1
    }

    /// `line`'s set index and stored tag.
    #[inline]
    fn locate(&self, line: u64) -> (usize, u32) {
        // Every simulated memory reference lands here; dodge the 64-bit
        // divide for the (ubiquitous) power-of-two set counts.
        let (set, quot) = if self.sets.is_power_of_two() {
            (line & (self.sets - 1), line >> self.sets.trailing_zeros())
        } else {
            (line % self.sets, line / self.sets)
        };
        if quot >= u64::from(u32::MAX) {
            tag_range_exceeded(line, self.max_line());
        }
        (set as usize, quot as u32 + 1)
    }

    #[inline]
    fn set(&self, set: usize) -> &[u32] {
        &self.tags[set * self.ways..][..self.ways]
    }

    /// Refresh `line` to rank 0 if it is resident (returns `true`);
    /// otherwise fill it at rank 0, dropping the last rank.
    #[inline]
    fn access(&mut self, line: u64) -> bool {
        let (set, tag) = self.locate(line);
        // One pass: `line` goes to rank 0 and each way moves down one
        // rank until the pass meets `line`'s old rank (a hit) or drops
        // off the end (a miss, which evicts the last rank).
        let mut carry = tag;
        for way in &mut self.tags[set * self.ways..][..self.ways] {
            let old = std::mem::replace(way, carry);
            if old == tag {
                return true;
            }
            carry = old;
        }
        false
    }

    /// Whether `line` is resident (no LRU change).
    fn contains(&self, line: u64) -> bool {
        let (set, tag) = self.locate(line);
        self.set(set).contains(&tag)
    }

    fn flush(&mut self) {
        self.tags.fill(0);
    }
}

#[cold]
#[inline(never)]
fn tag_range_exceeded(line: u64, max_line: u64) -> ! {
    panic!("physical address beyond the cache model's tag range: line {line:#x} > {max_line:#x}")
}

/// Inclusive three-level cache hierarchy plus DRAM.
#[derive(Debug, Clone)]
pub struct MemoryHierarchy {
    l1: TagArray,
    l2: TagArray,
    llc: TagArray,
    config: HierarchyConfig,
    stats: HierarchyStats,
}

impl MemoryHierarchy {
    /// Build the hierarchy from a configuration.
    pub fn new(config: HierarchyConfig) -> Self {
        MemoryHierarchy {
            l1: TagArray::new(config.l1),
            l2: TagArray::new(config.l2),
            llc: TagArray::new(config.llc),
            config,
            stats: HierarchyStats::default(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &HierarchyConfig {
        &self.config
    }

    /// Access the cache line containing `paddr`; returns `(level, cycles)`.
    ///
    /// Misses fill all upper levels (inclusive hierarchy).
    ///
    /// # Panics
    ///
    /// Panics with "physical address beyond the cache model's tag
    /// range" if `paddr`'s line is too large for some level's 32-bit
    /// tags (from 16 TiB − 4 KiB on, under Table 3's geometry). The
    /// same holds for every other method taking a `paddr`.
    pub fn access(&mut self, paddr: u64) -> (HitLevel, u64) {
        // Every level either refreshes the line (hit) or fills it
        // (miss) — the inclusive fill of all upper levels — so each
        // level is one fused lookup-or-fill pass. Each level keeps its
        // own per-set recency order, so filling a level before probing
        // the next changes no observable result.
        let line = paddr >> LINE_SHIFT;
        if self.l1.access(line) {
            self.stats.l1_hits += 1;
            return (HitLevel::L1, self.config.l1.latency);
        }
        if self.l2.access(line) {
            self.stats.l2_hits += 1;
            return (HitLevel::L2, self.config.l2.latency);
        }
        if self.llc.access(line) {
            self.stats.llc_hits += 1;
            return (HitLevel::Llc, self.config.llc.latency);
        }
        self.stats.dram_accesses += 1;
        if let Some(t) = self.config.tiers {
            if paddr >= t.fast_bytes {
                self.stats.dram_slow_accesses += 1;
                return (HitLevel::Dram, t.slow_latency);
            }
        }
        (HitLevel::Dram, self.config.dram_latency)
    }

    /// Install the line containing `paddr` into L2 (and LLC) without
    /// charging latency — the ASAP prefetcher's injection path.
    pub fn prefetch_into_l2(&mut self, paddr: u64) {
        let line = paddr >> LINE_SHIFT;
        self.llc.access(line);
        self.l2.access(line);
    }

    /// Whether the line containing `paddr` currently resides at or above
    /// the given level (probe only; no state change).
    pub fn resident_at(&self, paddr: u64, level: HitLevel) -> bool {
        let line = paddr >> LINE_SHIFT;
        match level {
            HitLevel::L1 => self.l1.contains(line),
            HitLevel::L2 => self.l1.contains(line) || self.l2.contains(line),
            HitLevel::Llc => {
                self.l1.contains(line) || self.l2.contains(line) || self.llc.contains(line)
            }
            HitLevel::Dram => true,
        }
    }

    /// Per-level hit counters.
    pub fn stats(&self) -> HierarchyStats {
        self.stats
    }

    /// Reset counters (contents are kept, useful after warmup).
    pub fn reset_stats(&mut self) {
        self.stats = HierarchyStats::default();
    }

    /// Drop all cached lines and reset counters.
    pub fn flush(&mut self) {
        self.l1.flush();
        self.l2.flush();
        self.llc.flush();
        self.reset_stats();
    }
}

impl Default for MemoryHierarchy {
    fn default() -> Self {
        Self::new(HierarchyConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_touch_goes_to_dram_then_hits_l1() {
        let mut h = MemoryHierarchy::new(HierarchyConfig::tiny());
        let (lvl, cyc) = h.access(0x1000);
        assert_eq!(lvl, HitLevel::Dram);
        assert_eq!(cyc, 200);
        let (lvl, cyc) = h.access(0x1008); // same line
        assert_eq!(lvl, HitLevel::L1);
        assert_eq!(cyc, 4);
    }

    #[test]
    fn evicted_from_l1_hits_l2() {
        let cfg = HierarchyConfig::tiny(); // L1: 16 lines, 2-way, 8 sets
        let mut h = MemoryHierarchy::new(cfg);
        h.access(0);
        // Fill the set of line 0 (set = line % 8) with other lines.
        h.access(8 << LINE_SHIFT);
        h.access(16 << LINE_SHIFT);
        // Line 0 evicted from L1 but still in L2.
        let (lvl, cyc) = h.access(0);
        assert_eq!(lvl, HitLevel::L2);
        assert_eq!(cyc, 14);
    }

    #[test]
    fn prefetch_into_l2_is_visible() {
        let mut h = MemoryHierarchy::new(HierarchyConfig::tiny());
        h.prefetch_into_l2(0x4000);
        let (lvl, _) = h.access(0x4000);
        assert_eq!(lvl, HitLevel::L2);
        assert!(h.resident_at(0x4000, HitLevel::L1));
    }

    #[test]
    fn xeon_geometry_matches_table3() {
        let h = MemoryHierarchy::default();
        assert_eq!(h.config().l1.latency, 4);
        assert_eq!(h.config().l2.latency, 14);
        assert_eq!(h.config().llc.latency, 54);
        assert_eq!(h.config().dram_latency, 200);
    }

    #[test]
    fn stats_accumulate() {
        let mut h = MemoryHierarchy::new(HierarchyConfig::tiny());
        h.access(0);
        h.access(0);
        h.access(64);
        let s = h.stats();
        assert_eq!(s.dram_accesses, 2);
        assert_eq!(s.l1_hits, 1);
        assert_eq!(s.total(), 3);
        let mut h2 = h.clone();
        h2.reset_stats();
        assert_eq!(h2.stats().total(), 0);
    }

    #[test]
    fn flush_forgets_everything() {
        let mut h = MemoryHierarchy::new(HierarchyConfig::tiny());
        h.access(0);
        h.flush();
        let (lvl, _) = h.access(0);
        assert_eq!(lvl, HitLevel::Dram);
    }

    #[test]
    fn tiered_dram_charges_by_physical_placement() {
        let cfg = HierarchyConfig::tiny().with_tiers(DramTiers {
            fast_bytes: 1 << 20,
            slow_latency: 350,
        });
        let mut h = MemoryHierarchy::new(cfg);
        let (lvl, cyc) = h.access(0x1000); // fast tier
        assert_eq!((lvl, cyc), (HitLevel::Dram, 200));
        let (lvl, cyc) = h.access(2 << 20); // slow tier
        assert_eq!((lvl, cyc), (HitLevel::Dram, 350));
        let s = h.stats();
        assert_eq!(s.dram_accesses, 2);
        assert_eq!(s.dram_slow_accesses, 1);
        // Tier only changes the DRAM charge, never cache behavior:
        // the slow line hits L1 on re-access like any other.
        let (lvl, _) = h.access(2 << 20);
        assert_eq!(lvl, HitLevel::L1);
    }

    #[test]
    fn flat_dram_is_bit_identical_with_no_tier_config() {
        let mut flat = MemoryHierarchy::new(HierarchyConfig::tiny());
        let mut also_flat = MemoryHierarchy::new(HierarchyConfig::tiny());
        for line in 0..512u64 {
            let a = flat.access((line * 7919) << LINE_SHIFT);
            let b = also_flat.access((line * 7919) << LINE_SHIFT);
            assert_eq!(a, b);
        }
        assert_eq!(flat.stats(), also_flat.stats());
        assert_eq!(flat.stats().dram_slow_accesses, 0);
    }

    #[test]
    fn largest_tag_fits_and_the_next_line_panics() {
        for cfg in [HierarchyConfig::xeon_gold_6138(), HierarchyConfig::tiny()] {
            for level in [cfg.l1, cfg.l2, cfg.llc] {
                let mut t = TagArray::new(level);
                let max = t.max_line();
                assert_eq!(max / t.sets, u64::from(u32::MAX) - 1, "{level:?}");
                assert!(!t.access(max), "{level:?}: empty level hit");
                assert!(t.access(max), "{level:?}: largest line missed");
                assert!(t.contains(max));
                let past = std::panic::catch_unwind(move || t.access(max + 1))
                    .expect_err("the line past the tag range must panic");
                let msg = past.downcast_ref::<String>().expect("formatted message");
                assert!(
                    msg.starts_with("physical address beyond the cache model's tag range"),
                    "{msg}"
                );
            }
        }
        // Table 3's 64-set L1 sets the whole hierarchy's limit.
        let mut h = MemoryHierarchy::default();
        let limit = (u64::from(u32::MAX) * 64) << LINE_SHIFT;
        assert_eq!(limit, (16 << 40) - (4 << 10));
        assert_eq!(h.access(limit - 1).0, HitLevel::Dram);
        assert_eq!(h.access(limit - 1).0, HitLevel::L1);
        let past = std::panic::catch_unwind(move || h.access(limit));
        assert!(past.is_err());
    }

    #[test]
    fn tag_arrays_take_four_bytes_per_way() {
        let h = MemoryHierarchy::default();
        assert_eq!(h.llc.sets, 32_768);
        assert_eq!(std::mem::size_of_val(h.llc.tags.as_slice()), 1_441_792);
        assert_eq!(std::mem::size_of_val(h.l2.tags.as_slice()), 64 << 10);
        assert_eq!(std::mem::size_of_val(h.l1.tags.as_slice()), 2 << 10);
    }

    #[test]
    fn working_set_larger_than_llc_thrashes() {
        let mut h = MemoryHierarchy::new(HierarchyConfig::tiny()); // LLC 16 KiB
                                                                   // Stream 64 KiB twice: second pass still misses everywhere.
        for pass in 0..2 {
            let mut dram = 0;
            for line in 0..1024u64 {
                let (lvl, _) = h.access(line << LINE_SHIFT);
                if lvl == HitLevel::Dram {
                    dram += 1;
                }
            }
            if pass == 1 {
                assert_eq!(dram, 1024, "LRU streaming working set must thrash");
            }
        }
    }
}
