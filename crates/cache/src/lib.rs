//! Hardware memory-system models for the DMT reproduction: the data-cache
//! hierarchy, TLBs, and page-walk caches of Table 3 in the paper.
//!
//! The translation structures are instances of one generic
//! set-associative LRU array ([`set_assoc::SetAssoc`]): [`tlb::Tlb`]
//! (per-page-size L1 D-TLB + shared STLB) and [`pwc::PageWalkCache`]
//! (2-4-32-entry upper-level PTE caches, also used as the nested PWC).
//! [`hierarchy::MemoryHierarchy`] (L1/L2/LLC/DRAM with round-trip
//! latencies) keeps its own 32-bit tag array per level.
//!
//! # Example
//!
//! ```
//! use dmt_cache::hierarchy::{MemoryHierarchy, HitLevel};
//! let mut mem = MemoryHierarchy::default();
//! let (level, cycles) = mem.access(0xdead_b000);
//! assert_eq!(level, HitLevel::Dram);
//! assert_eq!(cycles, 200);
//! let (level, cycles) = mem.access(0xdead_b000);
//! assert_eq!(level, HitLevel::L1);
//! assert_eq!(cycles, 4);
//! ```

pub mod hierarchy;
pub mod pwc;
pub mod set_assoc;
pub mod tlb;

pub use hierarchy::{HierarchyConfig, HitLevel, MemoryHierarchy};
pub use pwc::{PageWalkCache, PwcConfig};
pub use set_assoc::SetAssoc;
pub use tlb::{Tlb, TlbConfig, TlbHit};

#[cfg(test)]
mod proptests {
    use crate::set_assoc::SetAssoc;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Occupancy never exceeds capacity and a key just inserted is
        /// always resident.
        #[test]
        fn set_assoc_capacity_invariant(keys in prop::collection::vec(0u64..1000, 1..300)) {
            let mut c = SetAssoc::new(4, 3);
            for k in keys {
                c.insert(k);
                prop_assert!(c.contains(k));
                prop_assert!(c.occupancy() <= c.capacity());
            }
        }

        /// lookup() agrees with contains(); invalidation removes the key.
        #[test]
        fn set_assoc_lookup_consistency(keys in prop::collection::vec(0u64..100, 1..100)) {
            let mut c = SetAssoc::new(2, 2);
            for (i, k) in keys.iter().enumerate() {
                if i % 3 == 0 {
                    c.insert(*k);
                    prop_assert!(c.lookup(*k));
                } else if i % 3 == 1 {
                    let resident = c.contains(*k);
                    prop_assert_eq!(c.lookup(*k), resident);
                } else {
                    c.invalidate(*k);
                    prop_assert!(!c.contains(*k));
                }
            }
        }

        /// Per-level hit counts always sum to the number of accesses, and
        /// each level reports its configured latency.
        #[test]
        fn hierarchy_stats_conserve_accesses(addrs in prop::collection::vec(0u64..(1<<16), 1..500)) {
            use crate::hierarchy::{HierarchyConfig, MemoryHierarchy, HitLevel};
            let mut h = MemoryHierarchy::new(HierarchyConfig::tiny());
            for (n, a) in addrs.iter().enumerate() {
                let (lvl, cyc) = h.access(*a);
                let expected = match lvl {
                    HitLevel::L1 => 4,
                    HitLevel::L2 => 14,
                    HitLevel::Llc => 54,
                    HitLevel::Dram => 200,
                };
                prop_assert_eq!(cyc, expected);
                prop_assert_eq!(h.stats().total(), n as u64 + 1);
            }
        }
    }
}
