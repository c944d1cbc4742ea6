//! DMT: direct memory translation via register-file-resident TEA
//! mappings, falling back to the hardware walker for uncovered VAs.
//! Natively pvDMT is identical to DMT, so the native enum's `PvDmt`
//! arm holds the same [`NativeDmt`] state in its own variant. The
//! family's tiered-DRAM split, [`tier_spec`], is data here too.
//!
//! Every DMT and pvDMT backend serves a miss through one body,
//! `FetchOrWalk::fetch_or_walk`: the allocation-free fetcher (or, for
//! uncovered addresses, the allocation-free hardware walk) with a `()`
//! step sink. The translation's PA is the data PA the default engine
//! charges (DESIGN.md §13).

use super::{Arena, NativeMachine, NativeSpec, Translator, VirtSpec};
use crate::error::SimError;
use crate::rig::{Design, Setup, Translation};
use dmt_cache::hierarchy::MemoryHierarchy;
use dmt_core::{fetcher, DmtError};
use dmt_mem::VirtAddr;
use dmt_pgtable::walk::{walk_dimension, WalkDim, WalkOutcome};
use dmt_virt::machine::{GuestTeaMode, VirtMachine};

/// A two-tier DRAM split for a design that manages physical placement
/// (DMT's TEA migrations): PAs below `fast_bytes` are near-tier DRAM at
/// the hierarchy's configured latency, PAs at or above it pay
/// `slow_latency`. Opt-in via `RunnerBuilder::tiered`; a design without
/// a spec always runs flat.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TierSpec {
    /// Bytes of fast-tier DRAM, from PA 0.
    pub fast_bytes: u64,
    /// Cycles charged per access landing in the slow tier.
    pub slow_latency: u64,
}

/// The tiered-DRAM split for `design`: DMT and pvDMT, whose TEA
/// migrations can steer hot pages into the fast tier, carry one; every
/// other design runs flat.
pub fn tier_spec(design: Design) -> Option<TierSpec> {
    matches!(design, Design::Dmt | Design::PvDmt).then_some(TierSpec {
        fast_bytes: 32 << 20,
        slow_latency: 350,
    })
}

/// The DMT family's miss path and its coverage counters: a
/// register-file fetch, or — when no register covers the address — the
/// environment's hardware walk, flagged as a fallback. Every DMT and
/// pvDMT backend serves its misses through [`fetch_or_walk`](Self::fetch_or_walk).
#[derive(Default)]
pub(crate) struct FetchOrWalk {
    fetch_hits: u64,
    fallbacks: u64,
}

impl FetchOrWalk {
    /// Translate through `fetch`, falling back to `walk` on
    /// [`DmtError::NotCovered`]. Any other fetch error is a bug in the
    /// setup (every address the trace touches is populated).
    pub(crate) fn fetch_or_walk<M>(
        &mut self,
        m: &mut M,
        hier: &mut MemoryHierarchy,
        fetch: impl FnOnce(&mut M, &mut MemoryHierarchy) -> Result<WalkOutcome, DmtError>,
        walk: impl FnOnce(&mut M, &mut MemoryHierarchy) -> WalkOutcome,
    ) -> Translation {
        match fetch(m, hier) {
            Ok(out) => {
                self.fetch_hits += 1;
                out.into()
            }
            Err(DmtError::NotCovered { .. }) => {
                self.fallbacks += 1;
                Translation {
                    fallback: true,
                    ..walk(m, hier).into()
                }
            }
            Err(e) => panic!("DMT fetch failed: {e}"),
        }
    }

    /// Share of translations the fetcher served (1.0 before any).
    pub(crate) fn coverage(&self) -> f64 {
        let total = self.fetch_hits + self.fallbacks;
        if total == 0 {
            1.0
        } else {
            self.fetch_hits as f64 / total as f64
        }
    }
}

/// Register-file fetch with hardware-walk fallback. Natively pvDMT
/// *is* DMT: both designs' arms hold this type.
#[derive(Default)]
pub struct NativeDmt(FetchOrWalk);

impl NativeDmt {
    /// The TEA-aware process with its register file loaded.
    pub const SPEC: NativeSpec = NativeSpec { dmt_managed: true };

    pub(crate) fn build(_m: &mut NativeMachine, _setup: &Setup) -> Result<Self, SimError> {
        Ok(NativeDmt::default())
    }
}

impl Translator<NativeMachine> for NativeDmt {
    fn translate(
        &mut self,
        m: &mut NativeMachine,
        va: VirtAddr,
        hier: &mut MemoryHierarchy,
    ) -> Translation {
        self.0.fetch_or_walk(
            m,
            hier,
            |m, hier| fetcher::fetch_native(&m.regs, &mut m.pm, hier, va, &mut ()),
            |m, hier| {
                walk_dimension(
                    m.proc_.page_table(),
                    &mut m.pm,
                    va,
                    WalkDim::Native,
                    hier,
                    Some(&mut m.pwc),
                    &mut (),
                )
                .expect("populated")
            },
        )
    }

    fn coverage(&self) -> f64 {
        self.0.coverage()
    }
}

/// Guest-TEA fetch with 2D-walk fallback (unparavirtualized: guest
/// TEAs are contiguous only in guest physical memory).
#[derive(Default)]
pub struct VirtDmt(FetchOrWalk);

impl VirtDmt {
    /// Guest TEAs placed by the unmodified guest.
    pub const SPEC: VirtSpec = VirtSpec {
        tea_mode: GuestTeaMode::Unpv,
        arena_frames: None,
        pinned_exit_ratio: None,
    };

    pub(crate) fn build(
        _m: &mut VirtMachine,
        _setup: &Setup,
        _arena: Option<Arena>,
    ) -> Result<Self, SimError> {
        Ok(VirtDmt::default())
    }
}

impl Translator<VirtMachine> for VirtDmt {
    fn translate(
        &mut self,
        m: &mut VirtMachine,
        va: VirtAddr,
        hier: &mut MemoryHierarchy,
    ) -> Translation {
        self.0.fetch_or_walk(
            m,
            hier,
            |m, hier| m.translate_dmt(va, hier, &mut ()),
            |m, hier| m.translate_nested(va, hier, &mut ()).expect("populated"),
        )
    }

    fn coverage(&self) -> f64 {
        self.0.coverage()
    }
}
