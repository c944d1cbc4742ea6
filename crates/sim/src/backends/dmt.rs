//! DMT: direct memory translation via register-file-resident TEA
//! mappings, falling back to the hardware walker for uncovered VAs.
//! Natively pvDMT is identical to DMT, so [`pvdmt`](super::pvdmt)
//! wraps the same [`NativeDmt`] state in its own enum variant.
//!
//! Both backends override `translate_batch` with allocation-free fast
//! paths: the native fetch goes through
//! [`fetch_native_lean`](fetcher::fetch_native_lean) (no candidate or
//! step-trace `Vec`s) and the data access reuses the translation's own
//! physical address instead of re-deriving it through the software
//! radix walk — while issuing the identical `hier` charge sequence, so
//! outcomes and counters stay bit-identical to the scalar path
//! (DESIGN.md §13).

use super::{
    batch_each, NativeBackend, NativeMachine, NativeTranslator, VirtBackend, VirtTranslator,
};
use crate::error::SimError;
use crate::registry::{Arena, NativeSpec, Registration, TierSpec, VirtSpec};
use crate::rig::{pte_delta, Design, Outcome, Setup, Translation};
use dmt_cache::hierarchy::MemoryHierarchy;
use dmt_core::{fetcher, DmtError};
use dmt_mem::{PhysAddr, VirtAddr};
use dmt_pgtable::walk::{walk_dimension, WalkDim};
use dmt_virt::machine::{GuestTeaMode, VirtMachine};
use dmt_workloads::gen::Access;

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
fn build_native(
    _m: &mut NativeMachine,
    _setup: &Setup,
) -> Result<NativeBackend, SimError> {
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
    /// Reusable per-run scratch for the batched path's resolve phase.
    resolved: Vec<fetcher::Resolve>,
}

impl NativeDmt {
    /// The fallback radix walk, shared by the scalar and batched paths.
    fn fallback_walk(
        &mut self,
        m: &mut NativeMachine,
        va: VirtAddr,
        hier: &mut MemoryHierarchy,
    ) -> Translation {
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
}

impl NativeTranslator for NativeDmt {
    fn translate(
        &mut self,
        m: &mut NativeMachine,
        va: VirtAddr,
        hier: &mut MemoryHierarchy,
    ) -> Translation {
        match fetcher::fetch_native(&m.regs, &mut m.pm, hier, va) {
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
            Err(DmtError::NotCovered { .. }) => self.fallback_walk(m, va, hier),
            Err(e) => panic!("DMT fetch failed unexpectedly: {e}"),
        }
    }

    fn translate_batch(
        &mut self,
        m: &mut NativeMachine,
        accesses: &[Access],
        hier: &mut MemoryHierarchy,
        out: &mut [Outcome],
    ) {
        // The run is processed in two phases per chunk.
        //
        // Phase 1 resolves a chunk through the register file and page
        // map in one tight loop with no cache charges in between.
        // Page-map reads are uncharged and the accessed-bit writes are
        // idempotent and uncounted, so hoisting them ahead of the
        // element-ordered `hier` charges changes nothing observable —
        // while letting successive hash-map lookups overlap in the
        // pipeline instead of serializing against cache-model scans.
        // Since the resolve already yields the PTE slot and the data
        // PA, phase 1 also prefetches the host cache lines backing
        // each level's sets for both addresses — work the scalar path
        // must serialize because it only learns each address mid-chain.
        //
        // Phase 2 issues cache charges and outcomes in element order —
        // the per-structure op sequences are exactly the scalar
        // path's. Chunking keeps the prefetched footprint inside the
        // host caches between the two phases.
        const CHUNK: usize = 16;
        let mut resolved = std::mem::take(&mut self.resolved);
        for (c, accesses) in accesses.chunks(CHUNK).enumerate() {
            let base = c * CHUNK;
            resolved.clear();
            for a in accesses {
                let r = fetcher::resolve_native(&m.regs, &mut m.pm, a.va);
                if let fetcher::Resolve::Hit { slot, pte, size } = r {
                    hier.prefetch(slot.raw());
                    hier.prefetch(pte.phys_addr().raw() + a.va.offset_in(size));
                }
                resolved.push(r);
            }
            for (k, (a, r)) in accesses.iter().zip(resolved.iter()).enumerate() {
                let (tr, pte_fetches) = match *r {
                    fetcher::Resolve::Hit { slot, pte, size } => {
                        self.fetch_hits += 1;
                        // The fetch's only charge is this one slot
                        // access: one fetch at its hit level, no stats
                        // diff needed.
                        let (level, cycles) = hier.access(slot.raw());
                        let mut pte_fetches = [0; 4];
                        pte_fetches[level as usize] = 1;
                        let tr = Translation {
                            pa: PhysAddr(pte.phys_addr().raw() + a.va.offset_in(size)),
                            size,
                            cycles,
                            refs: 1,
                            fallback: false,
                            unit: None,
                        };
                        (tr, pte_fetches)
                    }
                    fetcher::Resolve::NotCovered => {
                        let before = hier.stats();
                        let tr = self.fallback_walk(m, a.va, hier);
                        (tr, pte_delta(before, hier.stats()))
                    }
                    fetcher::Resolve::NotPresent { .. } => {
                        panic!(
                            "DMT fetch failed unexpectedly: PTE not present at {:#x}",
                            a.va.raw()
                        )
                    }
                };
                // The translation *is* the data mapping: reuse its PA
                // instead of scalar's redundant software radix walk.
                let (data_level, data_cycles) = hier.access(tr.pa.raw());
                out[base + k] = Outcome {
                    tr,
                    data_level,
                    data_cycles,
                    pte: pte_fetches,
                };
            }
        }
        self.resolved = resolved;
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

impl VirtDmt {
    fn translate_one(
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
}

impl VirtTranslator for VirtDmt {
    fn translate(
        &mut self,
        m: &mut VirtMachine,
        va: VirtAddr,
        hier: &mut MemoryHierarchy,
    ) -> Translation {
        self.translate_one(m, va, hier)
    }

    fn translate_batch(
        &mut self,
        m: &mut VirtMachine,
        accesses: &[Access],
        hier: &mut MemoryHierarchy,
        out: &mut [Outcome],
    ) {
        // The unparavirtualized fetch allocates internally either way;
        // the batched win here is reusing the translated host PA for
        // the data access instead of scalar's full 2D software
        // translation per element.
        batch_each(accesses, hier, out, |va, hier| {
            let tr = self.translate_one(m, va, hier);
            (tr, tr.pa)
        });
    }

    fn coverage(&self) -> f64 {
        coverage(self.fetch_hits, self.fallbacks)
    }
}
