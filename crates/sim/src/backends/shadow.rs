//! Shadow paging: the hypervisor maintains a merged VA→hPA table, so a
//! TLB miss costs one native-length walk — but every guest page-table
//! update exits to resync (virtualized only; Table 6 N/A elsewhere).

use super::{Arena, Translator, VirtSpec};
use crate::error::SimError;
use crate::rig::{Setup, Translation};
use dmt_cache::hierarchy::MemoryHierarchy;
use dmt_mem::VirtAddr;
use dmt_virt::machine::{GuestTeaMode, VirtMachine};

/// One-dimensional walk of the hypervisor-maintained shadow table.
pub struct VirtShadow;

impl VirtShadow {
    /// A plain guest: shadow paging needs no TEAs and no arena.
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
        Ok(VirtShadow)
    }
}

impl Translator<VirtMachine> for VirtShadow {
    fn translate(
        &mut self,
        m: &mut VirtMachine,
        va: VirtAddr,
        hier: &mut MemoryHierarchy,
    ) -> Translation {
        m.translate_shadow(va, hier, &mut ())
            .expect("populated")
            .into()
    }

    fn exits(&self, m: &VirtMachine) -> u64 {
        // One resync exit per guest table update (tracked as faults).
        m.faults()
    }
}
