//! Design backends: the pluggable [`Translator`] layer behind the rigs,
//! and the one record of which design exists in which environment.
//!
//! Each translation design's auxiliary-structure setup and per-access
//! translate path live in **one module per design** here; the software
//! ground truth is the machine's ([`Machine::ref_entry`]), never the
//! design's. An environment is a [`Machine`] —
//! [`NativeMachine`], [`VirtMachine`] or [`NestedMachine`] — and one
//! generic shell, [`MachineRig`](crate::rig::MachineRig), owns a machine plus that
//! environment's backend enum ([`NativeBackend`], [`VirtBackend`],
//! [`NestedBackend`]) and delegates every design-specific decision to
//! it. A design implements [`Translator<M>`](Translator) once per
//! machine it runs on. The enums are generated by `backend_enum!` as
//! exhaustive matches over concrete backend types, so the per-access
//! dispatch is monomorphic (no vtable on the hot path).
//!
//! The `backend_enum!` arms below are Table 6: a design exists in an
//! environment iff it has an arm there, and each backend type carries
//! that environment's machine knobs as an inherent `const SPEC`
//! ([`NativeSpec`], [`VirtSpec`], [`NestedSpec`]) and its factory as an
//! inherent `fn build`. Every enum's `spec`/`build` answer a design
//! without an arm with the typed [`SimError::Unavailable`]. An ablation
//! is a design with its own arms. Nothing outside this directory
//! matches on [`Design`] to dispatch a translation;
//! `tests/design_dispatch_sites.rs` enforces that.
//!
//! Adding a design is two steps: a [`Design`] variant (listed in
//! [`Design::ALL`]), then one new module here whose backend types
//! implement `Translator<M>` and carry `SPEC` and `build`, plus one arm
//! per supported environment in the `backend_enum!` invocations below
//! — see DESIGN.md §11 for the worked example.

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
use dmt_mem::{PageSize, Pfn, PhysAddr, PhysMemory, TransUnit, VirtAddr};
use dmt_os::proc::Process;
use dmt_telemetry::ComponentCounters;
use dmt_virt::machine::{GuestTeaMode, VirtMachine};
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

/// How a native backend type wants its machine stood up: its
/// inherent `SPEC`, read before the machine is built.
pub struct NativeSpec {
    /// Build the TEA-aware process and load the DMT register file.
    pub dmt_managed: bool,
}

/// How a virtualized backend type wants its machine stood up.
pub struct VirtSpec {
    /// Guest TEA placement the machine boots with.
    pub tea_mode: GuestTeaMode,
    /// When `Some`, the rig carves this many contiguous guest frames at
    /// boot and hands them to `build` as an [`Arena`].
    pub arena_frames: Option<fn(&Setup) -> u64>,
    /// When `Some`, the §5 perf model charges this exit ratio instead
    /// of the measured one — the design *is* the environment's
    /// normalization baseline (vanilla virt runs exit-free nested
    /// paging, ratio 0).
    pub pinned_exit_ratio: Option<f64>,
}

/// How a nested backend type wants its machine stood up.
pub struct NestedSpec {
    /// Pre-announce the workload VMAs to L2 via `l2_mmap` (the
    /// paravirtualized TEA-creation path).
    pub pv_mmap: bool,
    /// When `Some`, the §5 perf model charges this exit ratio instead
    /// of the measured one — vanilla nested carries the full shadow
    /// synchronization cost by definition (ratio 1).
    pub pinned_exit_ratio: Option<f64>,
}

/// A boot-time contiguous guest-frame arena, carved before data
/// allocations fragment guest physical memory (FPT/ECPT guest tables
/// need contiguity, like TEAs).
pub struct Arena {
    /// First frame of the carved range.
    pub base: Pfn,
    /// Frames in the range.
    pub frames: u64,
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

    /// The environment's backend enum.
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
    /// [`SimError::Unavailable`] if the environment's backend enum has
    /// no arm for `design`.
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

/// Generate one per-environment backend enum: a variant per design
/// the environment has, holding the concrete backend type, its
/// `Translator<$machine>` impl, and the `spec`/`build` pair the rig
/// stands the cell up with. Every method is an exhaustive match
/// calling the concrete type's own item, so the hot path is
/// monomorphic — the compiler sees through the variant to the concrete
/// `translate` body — and a factory can only build its own variant.
///
/// A design without an arm here is a Table 6 N/A cell: `spec` and
/// `build` return [`SimError::Unavailable`] for it.
macro_rules! backend_enum {
    // The `build` fn: its call arguments travel as one token tree so
    // every arm can repeat them.
    (@build $machine:ty, ($($param:tt)*), $args:tt, $($design:ident => $ty:ty),+) => {
        /// Build `design`'s backend over the populated machine with its
        /// backend type's `build`, in the design's own variant, or the
        /// typed [`SimError::Unavailable`] if `design` has no arm here.
        #[allow(unreachable_patterns)]
        pub fn build(design: Design, $($param)*) -> Result<Self, SimError> {
            match design {
                $( Design::$design => <$ty>::build $args .map(Self::$design), )+
                _ => Err(SimError::Unavailable { design, env: <$machine as Machine>::ENV }),
            }
        }
    };
    (
        $(#[$meta:meta])*
        $name:ident over $machine:ty, $spec:ty, build($($arg:ident: $argty:ty),*) {
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
            /// Every design this environment has an arm for: Table 6's
            /// availability column.
            pub const DESIGNS: &'static [Design] = &[ $( Design::$design, )+ ];

            /// The design of the active variant.
            pub fn design(&self) -> Design {
                match self {
                    $( Self::$design(_) => Design::$design, )+
                }
            }

            /// `design`'s machine knobs in this environment (its backend
            /// type's `SPEC`), or the typed [`SimError::Unavailable`] if
            /// `design` has no arm here.
            #[allow(unreachable_patterns)]
            pub fn spec(design: Design) -> Result<$spec, SimError> {
                match design {
                    $( Design::$design => Ok(<$ty>::SPEC), )+
                    _ => Err(SimError::Unavailable { design, env: <$machine as Machine>::ENV }),
                }
            }

            backend_enum!(@build $machine, ($($arg: $argty),*), ($($arg),*), $($design => $ty),+);
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
    NativeBackend over NativeMachine, NativeSpec,
    build(m: &mut NativeMachine, setup: &Setup) {
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
    VirtBackend over VirtMachine, VirtSpec,
    build(m: &mut VirtMachine, setup: &Setup, arena: Option<Arena>) {
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
    NestedBackend over NestedMachine, NestedSpec,
    build(m: &mut NestedMachine, setup: &Setup) {
        Vanilla => vanilla::NestedVanilla,
        PvDmt => pvdmt::NestedPvDmt,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_design_has_at_least_one_arm() {
        for d in Design::ALL {
            assert!(
                [
                    NativeBackend::DESIGNS,
                    VirtBackend::DESIGNS,
                    NestedBackend::DESIGNS
                ]
                .iter()
                .any(|arms| arms.contains(&d)),
                "{d:?} has no backend_enum! arm in any environment"
            );
        }
    }

    #[test]
    fn table6_availability_matrix() {
        // The paper's Table 6: Shadow and Agile are virt-only; nested
        // virtualization evaluates only the baseline and pvDMT.
        for d in Design::ALL {
            assert_eq!(
                d.available_in(Env::Native),
                !matches!(d, Design::Shadow | Design::Agile)
            );
            assert!(d.available_in(Env::Virt));
            assert_eq!(
                d.available_in(Env::Nested),
                matches!(d, Design::Vanilla | Design::PvDmt)
            );
        }
    }

    #[test]
    fn specs_type_the_na_cells() {
        assert!(matches!(
            NativeBackend::spec(Design::Shadow),
            Err(SimError::Unavailable {
                design: Design::Shadow,
                env: Env::Native
            })
        ));
        assert!(matches!(
            NestedBackend::spec(Design::Ecpt),
            Err(SimError::Unavailable {
                design: Design::Ecpt,
                env: Env::Nested
            })
        ));
        assert!(NativeBackend::spec(Design::Dmt).is_ok());
        assert!(VirtBackend::spec(Design::Shadow).is_ok());
        assert!(NestedBackend::spec(Design::PvDmt).is_ok());
    }

    #[test]
    fn tier_specs_mark_exactly_the_tea_migrating_designs() {
        for d in Design::ALL {
            let spec = dmt::tier_spec(d);
            assert_eq!(
                spec.is_some(),
                matches!(d, Design::Dmt | Design::PvDmt),
                "{d:?}"
            );
            if let Some(t) = spec {
                assert!(t.fast_bytes > 0);
                assert!(t.slow_latency > 0);
            }
        }
    }

    #[test]
    fn dmt_managed_designs_are_the_tea_users() {
        for d in Design::ALL {
            if let Ok(s) = NativeBackend::spec(d) {
                assert_eq!(
                    s.dmt_managed,
                    matches!(d, Design::Dmt | Design::PvDmt | Design::Asap),
                    "{d:?}"
                );
            }
        }
    }

    #[test]
    fn built_backends_report_their_own_design() {
        let setup = Setup {
            regions: vec![dmt_workloads::gen::Region {
                base: VirtAddr(0x10_0000),
                len: 1 << 20,
                label: "t",
            }],
            pages: vec![VirtAddr(0x10_0000)],
        };
        for &d in NativeBackend::DESIGNS {
            let pm = PhysMemory::new_bytes(NativeMachine::host_bytes(false, &setup));
            let (_, b) = NativeMachine::build(pm, d, false, &setup).expect("backend");
            assert_eq!(b.design(), d, "{d:?} native variant");
        }
        for &d in VirtBackend::DESIGNS {
            let pm = PhysMemory::new_bytes(VirtMachine::host_bytes(false, &setup));
            let (_, b) = VirtMachine::build(pm, d, false, &setup).expect("backend");
            assert_eq!(b.design(), d, "{d:?} virt variant");
        }
        for &d in NestedBackend::DESIGNS {
            let pm = PhysMemory::new_bytes(NestedMachine::host_bytes(false, &setup));
            let (_, b) = NestedMachine::build(pm, d, false, &setup).expect("backend");
            assert_eq!(b.design(), d, "{d:?} nested variant");
        }
    }
}
