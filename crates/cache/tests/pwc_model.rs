//! `PageWalkCache` against a naive reference model.
//!
//! The model keeps each level's resident entries (L2, L3 and L4 PTEs)
//! in one `Vec` in explicit recency order, most recently used first,
//! each entry carrying its address-space tag, its VA prefix and its
//! payload (the next-level table base). A hit or a fill moves an entry
//! to the front, a refill of a resident entry replaces its payload, and
//! a fill into a full level drops the last entry. Every return value —
//! the hit level and base, the `flush_asid` count — the counters and
//! the resident entry set must agree with the model after every step of
//! a random operation sequence.

use dmt_cache::pwc::{PageWalkCache, PwcConfig, PwcStats};
use dmt_mem::addr::{LEVEL_BITS, PAGE_SHIFT};
use dmt_mem::{PhysAddr, VirtAddr};
use proptest::prelude::*;

#[derive(Debug, Clone, Copy)]
struct Entry {
    asid: u16,
    /// `va >> shift(level)`: the VA bits the cached entry translates.
    prefix: u64,
    next: PhysAddr,
}

struct Model {
    /// Index 0 holds L2 entries, 1 L3, 2 L4; each most recent first.
    levels: [Vec<Entry>; 3],
    caps: [usize; 3],
    asid: u16,
    stats: PwcStats,
}

/// Bits below the VA prefix a level-`level` entry covers.
fn shift(level: u8) -> u32 {
    PAGE_SHIFT + LEVEL_BITS * (level as u32 - 1)
}

impl Model {
    fn new(cfg: PwcConfig) -> Self {
        Model {
            levels: Default::default(),
            caps: [
                cfg.l2_entries as usize,
                cfg.l3_entries as usize,
                cfg.l4_entries as usize,
            ],
            asid: 0,
            stats: PwcStats::default(),
        }
    }

    fn find(&self, level: u8, va: VirtAddr) -> Option<usize> {
        let prefix = va.raw() >> shift(level);
        self.levels[level as usize - 2]
            .iter()
            .position(|e| e.asid == self.asid && e.prefix == prefix)
    }

    /// Move entry `i` of `level` to the front; return it.
    fn touch(&mut self, level: u8, i: usize) -> &mut Entry {
        let list = &mut self.levels[level as usize - 2];
        let e = list.remove(i);
        list.insert(0, e);
        &mut list[0]
    }

    fn lookup_deepest(&mut self, va: VirtAddr) -> Option<(u8, PhysAddr)> {
        for level in 2..=4u8 {
            if let Some(i) = self.find(level, va) {
                let next = self.touch(level, i).next;
                self.stats.hits += 1;
                match level {
                    2 => self.stats.l2_hits += 1,
                    3 => self.stats.l3_hits += 1,
                    _ => self.stats.l4_hits += 1,
                }
                return Some((level, next));
            }
        }
        self.stats.misses += 1;
        None
    }

    fn fill(&mut self, va: VirtAddr, level: u8, next: PhysAddr) {
        if let Some(i) = self.find(level, va) {
            self.touch(level, i).next = next;
            return;
        }
        let cap = self.caps[level as usize - 2];
        let list = &mut self.levels[level as usize - 2];
        if list.len() == cap {
            list.pop();
        }
        list.insert(
            0,
            Entry {
                asid: self.asid,
                prefix: va.raw() >> shift(level),
                next,
            },
        );
    }

    fn flush_asid(&mut self, asid: u16) -> u64 {
        let mut n = 0;
        for list in &mut self.levels {
            let before = list.len();
            list.retain(|e| e.asid != asid);
            n += (before - list.len()) as u64;
        }
        n
    }

    fn flush(&mut self) {
        for list in &mut self.levels {
            list.clear();
        }
    }

    fn entries(&self) -> Vec<(u8, VirtAddr, PhysAddr)> {
        let mut out: Vec<_> = (2..=4u8)
            .flat_map(|level| {
                self.levels[level as usize - 2]
                    .iter()
                    .map(move |e| (level, VirtAddr(e.prefix << shift(level)), e.next))
            })
            .collect();
        out.sort_unstable();
        out
    }
}

/// A VA in a small space that makes entries of every level collide:
/// three L4 regions, three 1 GiB regions in each, six 2 MiB regions in
/// each of those, at a random offset.
fn va_of(raw: u64) -> VirtAddr {
    let l4 = (raw >> 40) % 3;
    let l3 = (raw >> 32) % 3;
    let l2 = (raw >> 24) % 6;
    VirtAddr((l4 << 39) | (l3 << 30) | (l2 << 21) | (raw & 0x1f_ffff))
}

/// A random page-aligned table base.
fn table_of(raw: u64) -> PhysAddr {
    PhysAddr((raw & 0xff_ffff) << PAGE_SHIFT)
}

fn check(cfg: PwcConfig, ops: &[(u16, u64, u64)]) {
    let mut real = PageWalkCache::new(cfg);
    let mut model = Model::new(cfg);
    for (step, &(op, raw, raw2)) in ops.iter().enumerate() {
        let va = va_of(raw);
        let what = match op {
            0..=399 => {
                assert_eq!(
                    real.lookup_deepest(va),
                    model.lookup_deepest(va),
                    "step {step}"
                );
                "lookup_deepest"
            }
            400..=849 => {
                let level = 2 + (raw2 % 3) as u8;
                let next = table_of(raw2 >> 8);
                real.fill(va, level, next);
                model.fill(va, level, next);
                "fill"
            }
            850..=929 => {
                let asid = (raw2 % 3) as u16;
                real.set_asid(asid);
                model.asid = asid;
                "set_asid"
            }
            930..=969 => {
                let asid = (raw2 % 3) as u16;
                assert_eq!(real.flush_asid(asid), model.flush_asid(asid), "step {step}");
                "flush_asid"
            }
            970..=994 => {
                real.reset_stats();
                model.stats = PwcStats::default();
                "reset_stats"
            }
            // Rare, so the levels fill up between flushes.
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
    }
}

fn ops(max: usize) -> impl Strategy<Value = Vec<(u16, u64, u64)>> {
    prop::collection::vec((0u16..1000, any::<u64>(), any::<u64>()), 1..max)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Table 3's 2-4-32 geometry.
    #[test]
    fn matches_model_table3(ops in ops(600)) {
        check(PwcConfig::xeon_gold_6138(), &ops);
    }

    /// One or two entries per level, so nearly every fill evicts.
    #[test]
    fn matches_model_tiny(ops in ops(400)) {
        let cfg = PwcConfig {
            l4_entries: 1,
            l3_entries: 2,
            l2_entries: 2,
            latency: 1,
        };
        check(cfg, &ops);
    }
}
