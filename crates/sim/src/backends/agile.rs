//! Agile paging (Gandhi et al., ISCA'16): upper levels shadowed, lower
//! levels nested — a walk starts in the shadow table and switches to 2D
//! at the configured level (virtualized only).

use super::{Translator, VirtBackend};
use crate::registry::{Registration, VirtSpec};
use crate::rig::{Design, Setup, Translation};
use dmt_baselines::agile::{agile_sync_events, agile_walk, guest_entry_chain};
use dmt_cache::hierarchy::MemoryHierarchy;
use dmt_mem::VirtAddr;
use dmt_virt::machine::{GuestTeaMode, VirtMachine};

/// Agile paging's switch point: L4 and L3 shadowed, L2/L1 nested.
const AGILE_SHADOW_LEVELS: u8 = 2;

pub(crate) const REGISTRATION: Registration = Registration {
    design: Design::Agile,
    native: None,
    virt: Some(VirtSpec {
        tea_mode: GuestTeaMode::None,
        arena_frames: None,
        pinned_exit_ratio: None,
        build: build_virt,
    }),
    nested: None,
    tiers: None,
};

fn build_virt(
    _m: &mut VirtMachine,
    _setup: &Setup,
    _arena: Option<crate::registry::Arena>,
) -> Result<VirtBackend, crate::error::SimError> {
    Ok(VirtBackend::Agile(VirtAgile))
}

/// Shadow-then-nested hybrid walk.
pub struct VirtAgile;

impl Translator<VirtMachine> for VirtAgile {
    fn translate(
        &mut self,
        m: &mut VirtMachine,
        va: VirtAddr,
        hier: &mut MemoryHierarchy,
    ) -> Translation {
        let chain = {
            let view = m.vm.guest_view_ref(&m.pm);
            guest_entry_chain(&m.gpt, &view, va, 4 - AGILE_SHADOW_LEVELS)
        };
        agile_walk(
            m.spt.table(),
            &chain,
            m.vm.hpt(),
            &mut m.pm,
            va,
            hier,
            m.nested_caches.nested_pwc.as_mut(),
            AGILE_SHADOW_LEVELS,
            &mut (),
        )
        .expect("populated")
        .into()
    }

    fn exits(&self, m: &VirtMachine) -> u64 {
        agile_sync_events(m.faults(), AGILE_SHADOW_LEVELS, m.guest_thp())
    }
}
