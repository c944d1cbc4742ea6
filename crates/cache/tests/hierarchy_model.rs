//! `MemoryHierarchy` against a reference built from three `SetAssoc`s.
//!
//! The reference is the textbook inclusive hierarchy: each level is a
//! `SetAssoc` keyed by the full line number (pinned against a stamp-based
//! LRU model by `set_assoc_model.rs`), an access looks a level up and, on
//! a miss, inserts the line there before going one level down. The real
//! hierarchy keeps 32-bit set-relative tags of its own, so every return
//! value, the counters and the residency of every line in play must
//! agree with the reference after every step of a random operation
//! sequence.

use dmt_cache::hierarchy::{
    DramTiers, HierarchyConfig, HierarchyStats, HitLevel, LevelConfig, MemoryHierarchy, LINE_SHIFT,
};
use dmt_cache::set_assoc::SetAssoc;
use proptest::prelude::*;

const LEVELS: [HitLevel; 4] = [HitLevel::L1, HitLevel::L2, HitLevel::Llc, HitLevel::Dram];

fn sets(c: LevelConfig) -> u64 {
    (c.bytes >> LINE_SHIFT) / c.ways as u64
}

struct Reference {
    levels: [(SetAssoc, HitLevel, u64); 3],
    config: HierarchyConfig,
    stats: HierarchyStats,
}

impl Reference {
    fn new(config: HierarchyConfig) -> Self {
        let level = |c: LevelConfig, at| (SetAssoc::new(sets(c), c.ways), at, c.latency);
        Reference {
            levels: [
                level(config.l1, HitLevel::L1),
                level(config.l2, HitLevel::L2),
                level(config.llc, HitLevel::Llc),
            ],
            config,
            stats: HierarchyStats::default(),
        }
    }

    fn access(&mut self, paddr: u64) -> (HitLevel, u64) {
        let line = paddr >> LINE_SHIFT;
        for (cache, at, latency) in &mut self.levels {
            if cache.lookup(line) {
                match at {
                    HitLevel::L1 => self.stats.l1_hits += 1,
                    HitLevel::L2 => self.stats.l2_hits += 1,
                    _ => self.stats.llc_hits += 1,
                }
                return (*at, *latency);
            }
            cache.insert(line);
        }
        self.stats.dram_accesses += 1;
        match self.config.tiers {
            Some(t) if paddr >= t.fast_bytes => {
                self.stats.dram_slow_accesses += 1;
                (HitLevel::Dram, t.slow_latency)
            }
            _ => (HitLevel::Dram, self.config.dram_latency),
        }
    }

    fn prefetch_into_l2(&mut self, paddr: u64) {
        let line = paddr >> LINE_SHIFT;
        self.levels[2].0.insert(line);
        self.levels[1].0.insert(line);
    }

    fn resident_at(&self, paddr: u64, level: HitLevel) -> bool {
        let line = paddr >> LINE_SHIFT;
        level == HitLevel::Dram
            || self
                .levels
                .iter()
                .any(|(c, at, _)| *at <= level && c.contains(line))
    }

    fn flush(&mut self) {
        for (cache, ..) in &mut self.levels {
            cache.flush();
        }
        self.stats = HierarchyStats::default();
    }
}

/// Drive both hierarchies through `ops` (`(selector, raw)` pairs) over
/// the lines `palette` picks, comparing everything observable after
/// every operation.
///
/// Every palette line is `hot + stride * q` with `hot` in `0..2` and
/// `stride` a multiple of every level's set count, so each half of the
/// palette shares one set at every level and the sets fill, hit and
/// evict. The quotients `q` come from the bottom of the tag range, its
/// top, a cluster of neighbours around a random base, and anywhere in
/// between; one op also touches a uniformly random line of the range.
fn check(config: HierarchyConfig, palette: &[u64], ops: &[(u16, u64)]) {
    let [s1, s2, s3] = [config.l1, config.l2, config.llc].map(sets);
    let stride = lcm(lcm(s1, s2), s3);
    // The largest line every level can tag: `line / sets + 1` fits in
    // 32 bits at the level with the fewest sets.
    let max_line = u64::from(u32::MAX) * s1.min(s2).min(s3) - 1;
    let max_q = (max_line - 1) / stride;
    let base = palette[0] % (max_q - 16);
    let lines: Vec<u64> = palette
        .iter()
        .enumerate()
        .map(|(i, &raw)| {
            let small = (raw >> 8) % 8;
            let q = match (i, (raw >> 1) % 4) {
                (0, _) => 0,
                (1, _) => max_q,
                (_, 0) => small,
                (_, 1) => max_q - small,
                (_, 2) => base + small,
                _ => (raw >> 8) % (max_q + 1),
            };
            (raw & 1) + stride * q
        })
        .collect();
    assert!(lines.iter().all(|&l| l <= max_line));

    let mut real = MemoryHierarchy::new(config);
    let mut model = Reference::new(config);
    for (step, &(op, raw)) in ops.iter().enumerate() {
        let line = lines[(raw % lines.len() as u64) as usize];
        let paddr = line << LINE_SHIFT | (raw >> 58);
        let what = match op {
            0..=549 => {
                assert_eq!(real.access(paddr), model.access(paddr), "step {step}");
                "access"
            }
            550..=599 => {
                let anywhere = ((raw >> 8) % (max_line + 1)) << LINE_SHIFT;
                assert_eq!(real.access(anywhere), model.access(anywhere), "step {step}");
                "access anywhere"
            }
            600..=749 => {
                real.prefetch_into_l2(paddr);
                model.prefetch_into_l2(paddr);
                "prefetch_into_l2"
            }
            750..=799 => {
                // A host-cache hint: no simulated state may change.
                real.prefetch(paddr);
                "prefetch"
            }
            800..=949 => {
                let level = LEVELS[(raw >> 40) as usize % 4];
                assert_eq!(
                    real.resident_at(paddr, level),
                    model.resident_at(paddr, level),
                    "step {step}"
                );
                "resident_at"
            }
            950..=989 => {
                real.reset_stats();
                model.stats = HierarchyStats::default();
                "reset_stats"
            }
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
        for &l in &lines {
            for level in LEVELS {
                assert_eq!(
                    real.resident_at(l << LINE_SHIFT, level),
                    model.resident_at(l << LINE_SHIFT, level),
                    "line {l:#x} at {level:?} after {what} at step {step}"
                );
            }
        }
    }
}

fn lcm(a: u64, b: u64) -> u64 {
    let (mut x, mut y) = (a, b);
    while y != 0 {
        (x, y) = (y, x % y);
    }
    a / x * b
}

fn palette() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(any::<u64>(), 6..40)
}

fn ops(max: usize) -> impl Strategy<Value = Vec<(u16, u64)>> {
    prop::collection::vec((0u16..1000, any::<u64>()), 1..max)
}

/// Set counts 7, 12 and 20: every level takes the modulo path, and the
/// L2's capacity is not a multiple of its associativity.
fn odd_sets() -> HierarchyConfig {
    let level = |bytes, ways, latency| LevelConfig {
        bytes,
        ways,
        latency,
    };
    HierarchyConfig {
        l1: level(7 * 2 * 64, 2, 4),
        l2: level(37 * 64, 3, 14),
        llc: level(20 * 11 * 64, 11, 54),
        dram_latency: 200,
        tiers: None,
    }
}

/// `tiny()` with the fast tier ending halfway up the tag range.
fn tiered() -> HierarchyConfig {
    HierarchyConfig::tiny().with_tiers(DramTiers {
        fast_bytes: (u64::from(u32::MAX) * 4) << LINE_SHIFT,
        slow_latency: 350,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn matches_reference_tiny(palette in palette(), ops in ops(600)) {
        check(HierarchyConfig::tiny(), &palette, &ops);
    }

    #[test]
    fn matches_reference_odd_sets(palette in palette(), ops in ops(600)) {
        check(odd_sets(), &palette, &ops);
    }

    #[test]
    fn matches_reference_tiered(palette in palette(), ops in ops(600)) {
        check(tiered(), &palette, &ops);
    }
}
