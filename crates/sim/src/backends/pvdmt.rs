//! pvDMT: DMT with paravirtualized TEA placement — host-allocated,
//! host-contiguous arrays mediated by hypercalls. Native mode is
//! identical to plain DMT (the factory wraps the same
//! [`NativeDmt`](super::dmt::NativeDmt) state in the `PvDmt` variant);
//! the virtualized and nested modes add the hypercall-based exit
//! accounting.

use super::{NativeBackend, NativeMachine, NestedBackend, Translator, VirtBackend};
use crate::error::SimError;
use crate::registry::{Arena, NativeSpec, NestedSpec, Registration, TierSpec, VirtSpec};
use crate::rig::{Design, Setup, Translation};
use dmt_cache::hierarchy::MemoryHierarchy;
use dmt_core::DmtError;
use dmt_mem::VirtAddr;
use dmt_virt::machine::{GuestTeaMode, VirtMachine};
use dmt_virt::nested::NestedMachine;

pub(crate) const REGISTRATION: Registration = Registration {
    design: Design::PvDmt,
    // Identical to DMT on bare metal (no hypervisor to paravirtualize).
    native: Some(NativeSpec {
        dmt_managed: true,
        build: build_native,
    }),
    virt: Some(VirtSpec {
        tea_mode: GuestTeaMode::Pv,
        arena_frames: None,
        pinned_exit_ratio: None,
        build: build_virt,
    }),
    nested: Some(NestedSpec {
        pv_mmap: true,
        pinned_exit_ratio: None,
        build: build_nested,
    }),
    tiers: Some(TierSpec {
        fast_bytes: 32 << 20,
        slow_latency: 350,
    }),
};

/// Natively pvDMT *is* DMT: same state, its own enum variant.
fn build_native(_m: &mut NativeMachine, _setup: &Setup) -> Result<NativeBackend, SimError> {
    Ok(NativeBackend::PvDmt(super::dmt::NativeDmt::default()))
}

fn build_virt(
    _m: &mut VirtMachine,
    _setup: &Setup,
    _arena: Option<Arena>,
) -> Result<VirtBackend, SimError> {
    Ok(VirtBackend::PvDmt(VirtPvDmt {
        fetch_hits: 0,
        fallbacks: 0,
    }))
}

fn build_nested(_m: &mut NestedMachine, _setup: &Setup) -> Result<NestedBackend, SimError> {
    Ok(NestedBackend::PvDmt(NestedPvDmt {
        fetch_hits: 0,
        fallbacks: 0,
    }))
}

fn coverage(fetch_hits: u64, fallbacks: u64) -> f64 {
    let total = fetch_hits + fallbacks;
    if total == 0 {
        1.0
    } else {
        fetch_hits as f64 / total as f64
    }
}

/// Host-contiguous guest-TEA fetch with 2D-walk fallback.
pub struct VirtPvDmt {
    fetch_hits: u64,
    fallbacks: u64,
}

impl Translator<VirtMachine> for VirtPvDmt {
    fn translate(
        &mut self,
        m: &mut VirtMachine,
        va: VirtAddr,
        hier: &mut MemoryHierarchy,
    ) -> Translation {
        match m.translate_pvdmt(va, hier) {
            Ok(out) => {
                self.fetch_hits += 1;
                Translation {
                    pa: out.pa,
                    size: out.size,
                    cycles: out.cycles,
                    refs: out.refs(),
                    fallback: false,
                    unit: None,
                }
            }
            Err(DmtError::NotCovered { .. }) => {
                self.fallbacks += 1;
                let out = m.translate_nested(va, hier).expect("populated");
                Translation {
                    pa: out.pa,
                    size: out.guest_size,
                    cycles: out.cycles,
                    refs: out.refs(),
                    fallback: true,
                    unit: None,
                }
            }
            Err(e) => panic!("pvDMT fetch failed: {e}"),
        }
    }

    fn exits(&self, m: &VirtMachine) -> u64 {
        m.hypercalls.calls
    }

    fn coverage(&self) -> f64 {
        coverage(self.fetch_hits, self.fallbacks)
    }
}

/// Cascaded pvDMT through both hypervisor levels.
pub struct NestedPvDmt {
    fetch_hits: u64,
    fallbacks: u64,
}

impl Translator<NestedMachine> for NestedPvDmt {
    fn translate(
        &mut self,
        m: &mut NestedMachine,
        va: VirtAddr,
        hier: &mut MemoryHierarchy,
    ) -> Translation {
        match m.translate_pvdmt(va, hier) {
            Ok(out) => {
                self.fetch_hits += 1;
                Translation {
                    pa: out.pa,
                    size: out.size,
                    cycles: out.cycles,
                    refs: out.refs(),
                    fallback: false,
                    unit: None,
                }
            }
            Err(DmtError::NotCovered { .. }) => {
                self.fallbacks += 1;
                let out = m.translate_baseline(va, hier).expect("populated");
                Translation {
                    pa: out.pa,
                    size: out.guest_size,
                    cycles: out.cycles,
                    refs: out.refs(),
                    fallback: true,
                    unit: None,
                }
            }
            Err(e) => panic!("nested pvDMT fetch failed: {e}"),
        }
    }

    fn exits(&self, m: &NestedMachine) -> u64 {
        // pvDMT exits only for the cascaded TEA hypercalls.
        m.l2_mappings_count() as u64
    }

    fn coverage(&self) -> f64 {
        coverage(self.fetch_hits, self.fallbacks)
    }
}
