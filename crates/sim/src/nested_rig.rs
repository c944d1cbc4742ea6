//! The nested-virtualization environment: the L0/L1/L2
//! [`NestedMachine`] stack as a [`Machine`], and [`NestedRig`], the
//! generic shell over it, which delegates every design-specific
//! decision to the [`NestedBackend`] enum (Figure 17).

use crate::backends::{Machine, NestedBackend};
use crate::error::SimError;
use crate::rig::{Design, Env, MachineRig, RefEntry, Setup};
use crate::virt_rig::{flush_2d, walk_cache_counters};
use dmt_mem::{PhysMemory, VirtAddr};
use dmt_telemetry::ComponentCounters;
use dmt_virt::nested::NestedMachine;

/// A nested (L0/L1/L2) machine running one workload under one design.
pub type NestedRig = MachineRig<NestedMachine>;

impl Machine for NestedMachine {
    const ENV: Env = Env::Nested;
    type Backend = NestedBackend;

    fn host_bytes(thp: bool, setup: &Setup) -> u64 {
        let touched_bytes = (setup.pages.len() as u64) << (if thp { 21 } else { 12 });
        touched_bytes * 3 + setup.footprint() / 128 + (768 << 20)
    }

    /// Build the three-level stack and populate the L2 workload.
    fn build(
        pm: PhysMemory,
        design: Design,
        thp: bool,
        setup: &Setup,
    ) -> Result<(Self, NestedBackend), SimError> {
        let spec = NestedBackend::spec(design)?;
        let l2_bytes = setup.footprint() + (96 << 20);
        let l1_bytes = l2_bytes + (64 << 20);
        let mut m =
            NestedMachine::new_with_pm(pm, l1_bytes, l2_bytes, thp).map_err(SimError::setup)?;
        if spec.pv_mmap {
            for (base, len) in crate::rig::cluster_regions(&setup.regions, thp) {
                m.l2_mmap(base, len).map_err(SimError::setup)?;
            }
        }
        m.l2_populate_pages(setup.pages.iter().copied())
            .map_err(SimError::setup)?;
        let backend = NestedBackend::build(design, &mut m, setup)?;
        Ok((m, backend))
    }

    /// The cascaded software reference.
    fn ref_entry(&self, va: VirtAddr) -> Option<RefEntry> {
        self.translate_software(va).map(RefEntry::from)
    }

    fn faults(&self) -> u64 {
        NestedMachine::faults(self)
    }

    fn component_counters(&self) -> ComponentCounters {
        let pwcs = [
            self.nested_caches.guest_pwc.as_ref(),
            self.nested_caches.nested_pwc.as_ref(),
        ];
        walk_cache_counters(pwcs, &self.pm)
    }

    fn flush_walk_caches(&mut self) {
        flush_2d(&mut self.nested_caches);
    }

    fn phys(&self) -> &PhysMemory {
        &self.pm
    }

    fn phys_mut(&mut self) -> &mut PhysMemory {
        &mut self.pm
    }
}
