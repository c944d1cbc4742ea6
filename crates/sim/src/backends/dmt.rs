//! DMT: direct memory translation via register-file-resident TEA
//! mappings, falling back to the hardware walker for uncovered VAs.
//! Natively pvDMT is identical to DMT, so [`pvdmt`](super::pvdmt)
//! wraps the same [`NativeDmt`] state in its own enum variant.
//!
//! Both backends override `translate_fast`, the default engine's
//! per-miss call, and return the translation's own physical address as
//! the data PA instead of re-deriving it through the software walk. The
//! native fetch there goes through
//! [`fetch_native_lean`](fetcher::fetch_native_lean), which needs no
//! candidate or step-trace `Vec`s but issues the identical `hier`
//! charge, so results stay bit-identical to the scalar path
//! (DESIGN.md §13).

use super::{NativeBackend, NativeMachine, NativeTranslator, VirtBackend, VirtTranslator};
use crate::error::SimError;
use crate::registry::{Arena, NativeSpec, Registration, TierSpec, VirtSpec};
use crate::rig::{Design, Setup, Translation};
use dmt_cache::hierarchy::MemoryHierarchy;
use dmt_core::{fetcher, DmtError};
use dmt_mem::{PageSize, PhysAddr, VirtAddr};
use dmt_pgtable::walk::{walk_dimension, WalkDim};
use dmt_virt::machine::{GuestTeaMode, VirtMachine};

pub(crate) const REGISTRATION: Registration = Registration {
    design: Design::Dmt,
    native: Some(NativeSpec {
        dmt_managed: true,
        build: build_native,
    }),
    virt: Some(VirtSpec {
        tea_mode: GuestTeaMode::Unpv,
        arena_frames: None,
        pinned_exit_ratio: None,
        build: build_virt,
    }),
    nested: None,
    tiers: Some(TierSpec {
        fast_bytes: 32 << 20,
        slow_latency: 350,
    }),
};

/// The stock native DMT backend (PWC-assisted fallback walks).
fn build_native(_m: &mut NativeMachine, _setup: &Setup) -> Result<NativeBackend, SimError> {
    Ok(NativeBackend::Dmt(NativeDmt::default()))
}

fn build_virt(
    _m: &mut VirtMachine,
    _setup: &Setup,
    _arena: Option<Arena>,
) -> Result<VirtBackend, SimError> {
    Ok(VirtBackend::Dmt(VirtDmt {
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

/// Register-file fetch with hardware-walk fallback.
#[derive(Default)]
pub struct NativeDmt {
    fetch_hits: u64,
    fallbacks: u64,
}

impl NativeDmt {
    /// The translation for a register-file fetch's outcome — a hit's
    /// `(pa, size, cycles, refs)` or the fetch error — taking the
    /// fallback radix walk when no register covers `va`. Shared by
    /// `translate` and `translate_fast`, which differ only in the
    /// fetcher they call.
    fn finish(
        &mut self,
        m: &mut NativeMachine,
        va: VirtAddr,
        hier: &mut MemoryHierarchy,
        fetched: Result<(PhysAddr, PageSize, u64, u64), DmtError>,
    ) -> Translation {
        match fetched {
            Ok((pa, size, cycles, refs)) => {
                self.fetch_hits += 1;
                Translation {
                    pa,
                    size,
                    cycles,
                    refs,
                    fallback: false,
                    unit: None,
                }
            }
            Err(DmtError::NotCovered { .. }) => {
                self.fallbacks += 1;
                let out = walk_dimension(
                    m.proc_.page_table(),
                    &mut m.pm,
                    va,
                    WalkDim::Native,
                    hier,
                    Some(&mut m.pwc),
                )
                .expect("populated");
                Translation {
                    pa: out.pa,
                    size: out.size,
                    cycles: out.cycles,
                    refs: out.refs(),
                    fallback: true,
                    unit: None,
                }
            }
            Err(e) => panic!("DMT fetch failed unexpectedly: {e}"),
        }
    }
}

impl NativeTranslator for NativeDmt {
    fn translate(
        &mut self,
        m: &mut NativeMachine,
        va: VirtAddr,
        hier: &mut MemoryHierarchy,
    ) -> Translation {
        let fetched = fetcher::fetch_native(&m.regs, &mut m.pm, hier, va)
            .map(|o| (o.pa, o.size, o.cycles, o.refs()));
        self.finish(m, va, hier, fetched)
    }

    fn translate_fast(
        &mut self,
        m: &mut NativeMachine,
        va: VirtAddr,
        hier: &mut MemoryHierarchy,
    ) -> (Translation, PhysAddr) {
        let fetched = fetcher::fetch_native_lean(&m.regs, &mut m.pm, hier, va)
            .map(|o| (o.pa, o.size, o.cycles, o.refs));
        let tr = self.finish(m, va, hier, fetched);
        (tr, tr.pa)
    }

    fn coverage(&self) -> f64 {
        coverage(self.fetch_hits, self.fallbacks)
    }
}

/// Guest-TEA fetch with 2D-walk fallback (unparavirtualized: guest
/// TEAs are contiguous only in guest physical memory).
pub struct VirtDmt {
    fetch_hits: u64,
    fallbacks: u64,
}

impl VirtTranslator for VirtDmt {
    fn translate(
        &mut self,
        m: &mut VirtMachine,
        va: VirtAddr,
        hier: &mut MemoryHierarchy,
    ) -> Translation {
        match m.translate_dmt(va, hier) {
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
            Err(e) => panic!("DMT fetch failed: {e}"),
        }
    }

    fn translate_fast(
        &mut self,
        m: &mut VirtMachine,
        va: VirtAddr,
        hier: &mut MemoryHierarchy,
    ) -> (Translation, PhysAddr) {
        let tr = self.translate(m, va, hier);
        (tr, tr.pa)
    }

    fn coverage(&self) -> f64 {
        coverage(self.fetch_hits, self.fallbacks)
    }
}
