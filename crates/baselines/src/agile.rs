//! Agile Paging — Gandhi, Hill & Swift, ISCA'16.
//!
//! Agile paging starts a virtualized walk in the shadow page table (one
//! fetch per level, native-style) and switches to nested paging at a
//! configurable level, so frequently-changing lower levels avoid shadow
//! sync exits while stable upper levels avoid the 2D blow-up. A walk
//! costs between 4 (full shadow) and 24 (full nested) references
//! (Table 6). The residual VM-exit overhead — only upper-level guest
//! page-table changes trap — is exposed via [`agile_sync_events`].

use crate::BaselineError;
use dmt_cache::hierarchy::MemoryHierarchy;
use dmt_cache::pwc::PageWalkCache;
use dmt_mem::{MemoryOps, PageSize, PhysAddr, VirtAddr};
use dmt_pgtable::pte::Pte;
use dmt_pgtable::radix::RadixPageTable;
use dmt_pgtable::walk::{walk_dimension, WalkDim, WalkStep};

/// Result of an agile-paging walk.
#[derive(Debug, Clone)]
pub struct AgileOutcome {
    /// Translated host-physical address.
    pub pa: PhysAddr,
    /// Guest mapping size.
    pub size: PageSize,
    /// Total cycles.
    pub cycles: u64,
    /// All PTE fetches: shadow steps are tagged [`WalkDim::Native`].
    pub steps: Vec<WalkStep>,
}

impl AgileOutcome {
    /// Sequential memory references.
    pub fn refs(&self) -> u64 {
        self.steps.len() as u64
    }
}

/// Compute the guest-entry gPA chain for the unshadowed levels — the
/// caller's software-side preparation for [`agile_walk`] (in hardware
/// this address arithmetic is the walker's normal job; separating it
/// keeps the borrow structure simple).
pub fn guest_entry_chain<V: MemoryOps>(
    gpt: &RadixPageTable,
    gview: &V,
    gva: VirtAddr,
    start_level: u8,
) -> Vec<(u8, PhysAddr)> {
    let mut chain = Vec::new();
    for level in (1..=start_level).rev() {
        match gpt.entry_pa(gview, gva, level) {
            Some(pa) => chain.push((level, pa)),
            None => break,
        }
    }
    chain
}

/// Perform an agile-paging walk: the top `shadow_levels` levels are
/// fetched from the shadow table, the remaining guest levels go through
/// nested (2D) translation.
///
/// `spt` must hold the full gVA→hPA mapping (agile keeps it for the
/// shadowed portion); `guest_entries` is the per-level gPA chain from
/// [`guest_entry_chain`]; `hpt` maps gPA→hPA.
///
/// # Errors
///
/// Returns [`BaselineError::NotMapped`] when any dimension misses.
///
/// # Panics
///
/// Panics if `shadow_levels` is 0 or ≥ 4 (use plain shadow paging then).
#[allow(clippy::too_many_arguments)] // the walk spans three tables plus MMU caches
pub fn agile_walk<M: MemoryOps>(
    spt: &RadixPageTable,
    guest_entries: &[(u8, PhysAddr)],
    hpt: &RadixPageTable,
    pm: &mut M,
    gva: VirtAddr,
    hier: &mut MemoryHierarchy,
    mut npwc: Option<&mut PageWalkCache>,
    shadow_levels: u8,
) -> Result<AgileOutcome, BaselineError> {
    assert!(
        (1..=3).contains(&shadow_levels),
        "switch point must be 1..=3"
    );
    let mut cycles = 0u64;
    let mut steps = Vec::new();

    // Shadowed upper levels: native-style fetches from the sPT.
    for level in ((4 - shadow_levels + 1)..=4).rev() {
        let slot = spt
            .entry_pa(pm, gva, level)
            .ok_or(BaselineError::NotMapped { va: gva.raw() })?;
        let (_, cyc) = hier.access(slot.raw());
        cycles += cyc;
        steps.push(WalkStep {
            dim: WalkDim::Native,
            level,
            pte_pa: slot,
            cycles: cyc,
        });
        if !Pte(pm.read_word(slot)).present() {
            return Err(BaselineError::NotMapped { va: gva.raw() });
        }
    }

    // Nested lower levels: host walk per guest entry + the entry fetch.
    let mut entries = guest_entries
        .iter()
        .filter(|(l, _)| *l <= 4 - shadow_levels);
    let (data_gpa, gsize) = loop {
        let (glevel, entry_gpa) = *entries
            .next()
            .ok_or(BaselineError::NotMapped { va: gva.raw() })?;
        let host = walk_dimension(
            hpt,
            pm,
            VirtAddr(entry_gpa.raw()),
            WalkDim::Host,
            hier,
            npwc.as_deref_mut(),
        )?;
        cycles += host.cycles;
        steps.extend(host.steps);
        let (_, cyc) = hier.access(host.pa.raw());
        cycles += cyc;
        steps.push(WalkStep {
            dim: WalkDim::Guest,
            level: glevel,
            pte_pa: host.pa,
            cycles: cyc,
        });
        let gpte = Pte(pm.read_word(host.pa));
        if !gpte.present() {
            return Err(BaselineError::NotMapped { va: gva.raw() });
        }
        if gpte.is_leaf_at(glevel) {
            let size = match glevel {
                1 => PageSize::Size4K,
                2 => PageSize::Size2M,
                3 => PageSize::Size1G,
                _ => return Err(BaselineError::NotMapped { va: gva.raw() }),
            };
            break (PhysAddr(gpte.phys_addr().raw() + gva.offset_in(size)), size);
        }
    };

    // Final host walk for the data gPA.
    let host = walk_dimension(hpt, pm, VirtAddr(data_gpa.raw()), WalkDim::Host, hier, npwc)?;
    cycles += host.cycles;
    let pa = host.pa;
    steps.extend(host.steps);

    Ok(AgileOutcome {
        pa,
        size: gsize,
        cycles,
        steps,
    })
}

/// Agile paging's residual shadow-sync VM exits: only guest updates to
/// the shadowed upper levels trap. With `shadow_levels = 2`, that is one
/// exit per new L2 subtree — `faults / 512` of full shadow paging's
/// per-PTE exits, for 4 KiB faults.
pub fn agile_sync_events(total_faults: u64, shadow_levels: u8, guest_thp: bool) -> u64 {
    // The lowest shadowed level is 5 - shadow_levels; an entry there
    // changes once per new subtree below it.
    let faults_per_exit: u64 = if guest_thp {
        // Faults are 2 MiB pages (leaves at L2).
        512u64.pow(3u32.saturating_sub(shadow_levels as u32).max(1))
    } else {
        512u64.pow(4 - shadow_levels as u32)
    };
    total_faults.div_ceil(faults_per_exit)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sync_event_scaling() {
        // Shadow over L4+L3 (switch at L2): an exit per new L2 table,
        // i.e. per 512^2 = 262144 4 KiB faults.
        assert_eq!(agile_sync_events(1 << 20, 2, false), 4);
        // Shadow over L4 only: an exit per new L3 table (512^3 faults).
        assert_eq!(agile_sync_events(1 << 30, 1, false), 8);
        // Shadow down to L2: an exit per new L1 table (512 faults).
        assert_eq!(agile_sync_events(1 << 20, 3, false), 2048);
        // Always far fewer than shadow paging's one-per-fault.
        assert!(agile_sync_events(1 << 20, 2, false) < 1 << 20);
    }
}
