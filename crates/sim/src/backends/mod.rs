//! Design backends: the pluggable [`Translator`] layer behind the rigs.
//!
//! Each translation design's auxiliary-structure setup and per-access
//! translate path live in **one module per design** here, registered
//! in [`crate::registry`] keyed by (design, environment); the software
//! ground truth is the machine's ([`Machine::ref_entry`]), never the
//! design's. An environment is a [`Machine`] —
//! [`NativeMachine`], [`VirtMachine`] or [`NestedMachine`] — and one
//! generic shell, [`MachineRig`](crate::rig::MachineRig), owns a machine plus that
//! environment's backend enum ([`NativeBackend`], [`VirtBackend`],
//! [`NestedBackend`]) built by the registry, and delegates every
//! design-specific decision to it. A design implements
//! [`Translator<M>`](Translator) once per machine it runs on. The enums
//! are generated by `backend_enum!` as exhaustive matches over concrete
//! backend types, so the per-access dispatch is monomorphic (no vtable
//! on the hot path); an ablation is a design with its own registry
//! row. Nothing outside this directory and the registry matches on
//! [`Design`] to dispatch a translation;
//! `tests/design_dispatch_sites.rs` enforces that.
//!
//! Adding a design variant is one new module implementing
//! `Translator<M>` for each machine it supports, one arm per supported
//! environment in the `backend_enum!` invocations below, plus one
//! [`Registration`](crate::registry::Registration) row — see DESIGN.md
//! §11 for the worked example. Registry/enum drift fails the `registry`
//! tests and the CI grep lint.

pub mod agile;
pub mod asap;
pub mod dmt;
pub mod ecpt;
pub mod fpt;
pub mod pvdmt;
pub mod seg;
pub mod shadow;
pub mod vanilla;
pub mod vbi;

use crate::error::SimError;
use crate::rig::{Design, Env, RefEntry, Setup, Translation};
use dmt_cache::hierarchy::MemoryHierarchy;
use dmt_cache::pwc::PageWalkCache;
use dmt_core::regfile::DmtRegisterFile;
use dmt_mem::{PageSize, PhysAddr, PhysMemory, TransUnit, VirtAddr};
use dmt_os::proc::Process;
use dmt_telemetry::ComponentCounters;
use dmt_virt::machine::VirtMachine;
use dmt_virt::nested::NestedMachine;

/// The machine state a native rig owns, independent of the design under
/// test: physical memory, the process (VMAs, radix tables, TEAs), the
/// DMT register file, and the page-walk cache radix designs share.
pub struct NativeMachine {
    /// Physical memory.
    pub pm: PhysMemory,
    /// The process under test.
    pub proc_: Process,
    /// DMT register file (loaded iff the design is DMT-managed).
    pub regs: DmtRegisterFile,
    /// The page-walk cache the radix fallback/baseline walks share.
    pub pwc: PageWalkCache,
}

/// The touched page mappings `(page base VA, frame base PA, size)`,
/// one per leaf in first-touch order, where `leaf` is a software lookup
/// in the table the design mirrors (the native radix table, or the
/// guest table with guest-physical frames) — the raw material backends
/// build their auxiliary structures from.
pub(crate) fn collect_mappings(
    pages: &[VirtAddr],
    leaf: impl Fn(VirtAddr) -> Option<(PhysAddr, PageSize)>,
) -> Result<Vec<(VirtAddr, PhysAddr, PageSize)>, SimError> {
    let mut out = Vec::new();
    let mut seen = std::collections::HashSet::new();
    for &va in pages {
        let (pa, size) =
            leaf(va).ok_or_else(|| SimError::Setup(format!("page at {va} not populated")))?;
        let aligned = va.align_down(size);
        if seen.insert(aligned.raw()) {
            out.push((aligned, PhysAddr(pa.raw() & !(size.bytes() - 1)), size));
        }
    }
    Ok(out)
}

/// A maximal VA-sorted, PA-contiguous, equal-page-size run of touched
/// mappings — the translation unit the non-radix designs describe with
/// one descriptor (a VBI block, a segment). `pa = pa_base + (va -
/// base)` is exact across the run, so a descriptor's answer equals the
/// radix ground truth at every covered byte.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ContigRun {
    /// First VA the run covers.
    pub base: VirtAddr,
    /// Bytes the run covers.
    pub len: u64,
    /// PA of `base`; the run is PA-contiguous from here.
    pub pa_base: PhysAddr,
    /// Leaf page size of every mapping merged into the run (never
    /// overclaimed to the oracle).
    pub size: PageSize,
}

impl ContigRun {
    /// The run as a TLB-fillable translation unit.
    pub fn unit(&self) -> TransUnit {
        TransUnit {
            base: self.base,
            len: self.len,
        }
    }

    /// Ground-truth PA of `va` (must be inside the run).
    pub fn pa_of(&self, va: VirtAddr) -> PhysAddr {
        PhysAddr(self.pa_base.raw() + (va.raw() - self.base.raw()))
    }
}

/// Merge leaf mappings into maximal [`ContigRun`]s: adjacent in VA,
/// adjacent in PA, same page size.
pub(crate) fn merge_contiguous_runs(
    mut mappings: Vec<(VirtAddr, PhysAddr, PageSize)>,
) -> Vec<ContigRun> {
    mappings.sort_by_key(|(va, _, _)| va.raw());
    let mut runs: Vec<ContigRun> = Vec::new();
    for (va, pa, size) in mappings {
        if let Some(r) = runs.last_mut() {
            if r.size == size
                && r.base.raw() + r.len == va.raw()
                && r.pa_base.raw() + r.len == pa.raw()
            {
                r.len += size.bytes();
                continue;
            }
        }
        runs.push(ContigRun {
            base: va,
            len: size.bytes(),
            pa_base: pa,
            size,
        });
    }
    runs
}

/// Index of the run containing `va`, by binary search over the sorted,
/// disjoint run list.
pub(crate) fn find_run(runs: &[ContigRun], va: VirtAddr) -> Option<usize> {
    let i = runs.partition_point(|r| r.base.raw() + r.len <= va.raw());
    (i < runs.len() && runs[i].base.raw() <= va.raw()).then_some(i)
}

/// The machine state a rig owns, independent of the design under test
/// — [`NativeMachine`], [`VirtMachine`] or [`NestedMachine`]. The one
/// rig shell, [`MachineRig`](crate::rig::MachineRig), builds it and serves every
/// environment-level [`Rig`](crate::rig::Rig) call from it, the ground
/// truth included.
pub trait Machine: Sized {
    /// The environment this machine models.
    const ENV: Env;

    /// The environment's registry-built backend enum.
    type Backend: Translator<Self>;

    /// Bytes of host physical memory a standalone machine provisions
    /// for this setup — exposed so a multi-tenant node can size one
    /// shared memory as the sum over its tenants.
    fn host_bytes(thp: bool, setup: &Setup) -> u64;

    /// Build the machine inside `pm`: map and populate the setup's
    /// pages, then construct `design`'s backend over them.
    ///
    /// # Errors
    ///
    /// Propagates setup failures as typed [`SimError`]s;
    /// [`SimError::Unavailable`] if the registry has no backend for
    /// `design` in this environment.
    fn build(
        pm: PhysMemory,
        design: Design,
        thp: bool,
        setup: &Setup,
    ) -> Result<(Self, Self::Backend), SimError>;

    /// The reference leaf entry from the machine's software ground
    /// truth (no translation machinery charged): the one lookup behind
    /// both [`Rig::data_pa`] and [`Rig::ref_translate`].
    ///
    /// [`Rig::data_pa`]: crate::rig::Rig::data_pa
    /// [`Rig::ref_translate`]: crate::rig::Rig::ref_translate
    fn ref_entry(&self, va: VirtAddr) -> Option<RefEntry>;

    /// Page faults served during setup.
    fn faults(&self) -> u64;

    /// End-of-run page-walk-cache and allocator counters.
    fn component_counters(&self) -> ComponentCounters;

    /// Drop the walk caches the machine itself owns.
    fn flush_walk_caches(&mut self);

    /// The machine's (host) physical memory.
    fn phys(&self) -> &PhysMemory;

    /// Mutable access to the machine's (host) physical memory.
    fn phys_mut(&mut self) -> &mut PhysMemory;

    /// Exchange the machine's page-walk cache with `pwc`; `false`
    /// (leaving `pwc` untouched) when it keeps its walk caches
    /// internal.
    fn swap_pwc(&mut self, pwc: &mut PageWalkCache) -> bool {
        let _ = pwc;
        false
    }

    /// Unmap every VMA, returning the TLB shootdowns issued; 0 when the
    /// machine has no reclaim path.
    fn release_memory(&mut self) -> u64 {
        0
    }
}

/// A design's translate path in the environment whose machine is `M`.
/// The backend owns the design's auxiliary structures and counters; the
/// machine stays with the rig and is lent per call.
pub trait Translator<M: Machine> {
    /// Serve a TLB miss for `va`, charging `hier`; the translation's PA
    /// is `va`'s data PA ([`Rig::translate`]'s contract).
    ///
    /// [`Rig::translate`]: crate::rig::Rig::translate
    fn translate(&mut self, m: &mut M, va: VirtAddr, hier: &mut MemoryHierarchy) -> Translation;

    /// VM exits attributable to the design during setup + run (none by
    /// default).
    fn exits(&self, m: &M) -> u64 {
        let _ = m;
        0
    }

    /// DMT fetcher coverage so far (1.0 for non-DMT designs).
    fn coverage(&self) -> f64 {
        1.0
    }

    /// Flush any translation caches the backend itself keeps (e.g.
    /// FPT's upper-entry cache, ECPT's cuckoo walk cache) — the
    /// design's persistent structures are untouched. Part of the
    /// [`Rig::flush_translation_caches`] barrier (DESIGN.md §14); a
    /// backend with no such cache keeps the no-op default.
    ///
    /// [`Rig::flush_translation_caches`]: crate::rig::Rig::flush_translation_caches
    fn flush_caches(&mut self) {}
}

/// Generate one per-environment backend enum: a variant per registered
/// design holding the concrete backend type, and its
/// `Translator<$machine>` impl. Every method is an exhaustive match
/// calling the concrete type's trait method, so the hot path is
/// monomorphic — the compiler sees through the variant to the concrete
/// `translate` body.
///
/// Adding a design = one arm here + one registry row; a missing arm is
/// a compile error in the registry's build fn, and registry/enum drift
/// fails the `DESIGNS`-vs-availability test in [`crate::registry`].
macro_rules! backend_enum {
    (
        $(#[$meta:meta])*
        $name:ident over $machine:ty {
            $( $design:ident => $ty:ty ),+ $(,)?
        }
    ) => {
        $(#[$meta])*
        pub enum $name {
            $(
                #[doc = concat!("The ", stringify!($design), " design's backend.")]
                $design($ty),
            )+
        }

        impl $name {
            /// Every design this environment's enum has a variant for —
            /// by construction the registry's availability column;
            /// `crate::registry` tests assert they agree.
            pub const DESIGNS: &'static [Design] = &[ $( Design::$design, )+ ];

            /// The design of the active variant.
            pub fn design(&self) -> Design {
                match self {
                    $( Self::$design(_) => Design::$design, )+
                }
            }
        }

        impl Translator<$machine> for $name {
            #[inline]
            fn translate(
                &mut self,
                m: &mut $machine,
                va: VirtAddr,
                hier: &mut MemoryHierarchy,
            ) -> Translation {
                match self {
                    $( Self::$design(b) => <$ty as Translator<$machine>>::translate(b, m, va, hier), )+
                }
            }

            fn exits(&self, m: &$machine) -> u64 {
                match self {
                    $( Self::$design(b) => <$ty as Translator<$machine>>::exits(b, m), )+
                }
            }

            fn coverage(&self) -> f64 {
                match self {
                    $( Self::$design(b) => <$ty as Translator<$machine>>::coverage(b), )+
                }
            }

            fn flush_caches(&mut self) {
                match self {
                    $( Self::$design(b) => <$ty as Translator<$machine>>::flush_caches(b), )+
                }
            }
        }
    };
}

/// A small populated single-level guest (two 4 MiB regions, every
/// page touched) with no design structures built yet — the fixture the
/// arena-exhaustion tests hand undersized arenas.
#[cfg(test)]
pub(crate) fn populated_virt_machine() -> (VirtMachine, Setup) {
    use dmt_workloads::gen::{Access, Region};
    let regions: Vec<Region> = [1u64 << 30, 3 << 30]
        .iter()
        .map(|&base| Region {
            base: VirtAddr(base),
            len: 4 << 20,
            label: "heap",
        })
        .collect();
    let trace: Vec<Access> = regions
        .iter()
        .flat_map(|r| {
            (0..r.len >> 12).map(move |p| Access::read(VirtAddr(r.base.raw() + (p << 12))))
        })
        .collect();
    let setup = Setup::new(regions, &trace);
    // Vanilla builds no design structures over the populated guest.
    let pm = PhysMemory::new_bytes(VirtMachine::host_bytes(false, &setup));
    let (m, _) = VirtMachine::build(pm, Design::Vanilla, false, &setup).unwrap();
    (m, setup)
}

backend_enum! {
    /// The native-environment backend: one monomorphic variant per
    /// design Table 6 lists as available natively (Shadow and Agile
    /// are virtualization-only).
    NativeBackend over NativeMachine {
        Vanilla => vanilla::NativeVanilla,
        Fpt => fpt::NativeFpt,
        Ecpt => ecpt::NativeEcpt,
        Asap => asap::NativeAsap,
        Dmt => dmt::NativeDmt,
        PvDmt => dmt::NativeDmt,
        Vbi => vbi::NativeVbi,
        Seg => seg::NativeSeg,
    }
}

backend_enum! {
    /// The virtualized-environment backend: every design exists here
    /// (Table 6's full column).
    VirtBackend over VirtMachine {
        Vanilla => vanilla::VirtVanilla,
        Shadow => shadow::VirtShadow,
        Fpt => fpt::VirtFpt,
        Ecpt => ecpt::VirtEcpt,
        Agile => agile::VirtAgile,
        Asap => asap::VirtAsap,
        Dmt => dmt::VirtDmt,
        PvDmt => pvdmt::VirtPvDmt,
        Vbi => vbi::VirtVbi,
        Seg => seg::VirtSeg,
    }
}

backend_enum! {
    /// The nested-environment backend: only Vanilla (KVM-style nested
    /// paging) and pvDMT reach L2 (Figure 17).
    NestedBackend over NestedMachine {
        Vanilla => vanilla::NestedVanilla,
        PvDmt => pvdmt::NestedPvDmt,
    }
}
