//! Agile paging (Gandhi et al., ISCA'16): upper levels shadowed, lower
//! levels nested — a walk starts in the shadow table and switches to 2D
//! at the configured level (virtualized only).

use super::{Arena, Translator, VirtSpec};
use crate::error::SimError;
use crate::rig::{Setup, Translation};
use dmt_baselines::agile::{agile_sync_events, agile_walk, guest_entry_chain};
use dmt_cache::hierarchy::MemoryHierarchy;
use dmt_mem::VirtAddr;
use dmt_virt::machine::{GuestTeaMode, VirtMachine};

/// Agile paging's switch point: L4 and L3 shadowed, L2/L1 nested.
const AGILE_SHADOW_LEVELS: u8 = 2;

/// Shadow-then-nested hybrid walk.
pub struct VirtAgile;

impl VirtAgile {
    /// A plain guest: agile paging needs no TEAs and no arena.
    pub const SPEC: VirtSpec = VirtSpec {
        tea_mode: GuestTeaMode::None,
        arena_frames: None,
        pinned_exit_ratio: None,
    };

    pub(crate) fn build(
        _m: &mut VirtMachine,
        _setup: &Setup,
        _arena: Option<Arena>,
    ) -> Result<Self, SimError> {
        Ok(VirtAgile)
    }
}

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
