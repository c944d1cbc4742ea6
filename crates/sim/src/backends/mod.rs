//! Design backends: the pluggable Translator layer behind the rigs.
//!
//! Each translation design's auxiliary-structure setup, per-access
//! translate path, and `ref_translate` ground truth live in **one
//! module per design** here, registered in [`crate::registry`] keyed by
//! (design, environment). The three rigs are thin environment shells:
//! they own machine state — [`NativeMachine`],
//! [`VirtMachine`], [`NestedMachine`] — and delegate
//! every design-specific decision to a per-environment backend enum
//! ([`NativeBackend`], [`VirtBackend`], [`NestedBackend`]) built by the
//! registry. The enums are generated by `backend_enum!` as exhaustive
//! matches over concrete backend types, so the per-access dispatch is
//! monomorphic (no vtable on the hot path); an ablation is a design
//! with its own registry row. Nothing outside this directory and
//! the registry matches on [`Design`] to dispatch a
//! translation; `tests/design_dispatch_sites.rs` enforces that.
//!
//! Adding a design variant is one new module implementing the
//! environment traits it supports, one arm per supported environment in
//! the `backend_enum!` invocations below, plus one
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
use crate::rig::{Design, RefEntry, Setup, Translation};
use dmt_cache::hierarchy::MemoryHierarchy;
use dmt_cache::pwc::PageWalkCache;
use dmt_core::regfile::DmtRegisterFile;
use dmt_mem::buddy::FrameKind;
use dmt_mem::{PageSize, PhysAddr, PhysMemory, TransUnit, VirtAddr};
use dmt_os::mapping::MappingPolicy;
use dmt_os::proc::{Process, ThpMode};
use dmt_os::vma::VmaKind;
use dmt_pgtable::pte::PteFlags;
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

impl NativeMachine {
    /// Bytes of host physical memory a standalone machine provisions
    /// for this setup — exposed so a multi-tenant node can size one
    /// shared memory as the sum over its tenants.
    pub fn host_bytes(thp: bool, setup: &Setup) -> u64 {
        let touched_bytes = (setup.pages.len() as u64) << (if thp { 21 } else { 12 });
        touched_bytes * 2 + setup.footprint() / 256 + (512 << 20)
    }

    /// Build the machine inside `pm`: map and fully populate the
    /// setup's regions over a `levels`-deep radix table (4, or 5 for
    /// the §2.1.1 five-level extension). `dmt_managed` selects the
    /// TEA-aware process and loads the register file — the per-design
    /// knob the registry's [`NativeSpec`](crate::registry::NativeSpec)
    /// carries.
    pub(crate) fn build_in(
        mut pm: PhysMemory,
        dmt_managed: bool,
        thp: bool,
        setup: &Setup,
        levels: u8,
    ) -> Result<Self, SimError> {
        let pages = &setup.pages;
        let thp_mode = if thp { ThpMode::Always } else { ThpMode::Never };
        let mut proc_ = Process::custom(
            &mut pm,
            thp_mode,
            MappingPolicy::default(),
            dmt_managed,
            levels,
        )
        .map_err(SimError::setup)?;

        for r in &setup.regions {
            proc_
                .mmap(&mut pm, r.base, r.len, VmaKind::Heap)
                .map_err(|e| SimError::Setup(format!("mmap {}: {e}", r.label)))?;
        }
        for &va in pages {
            proc_
                .populate(&mut pm, va)
                .map_err(|e| SimError::Setup(format!("populate {va}: {e}")))?;
        }

        let mut regs = DmtRegisterFile::new();
        if dmt_managed {
            proc_.load_registers(&mut regs);
        }
        Ok(NativeMachine {
            pm,
            proc_,
            regs,
            pwc: PageWalkCache::default(),
        })
    }

    /// Enumerate the touched page mappings `(page base VA, frame base
    /// PA, size)` from the ground-truth radix table — the raw material
    /// backends build their auxiliary structures from.
    pub fn collect_mappings(
        &self,
        pages: &[VirtAddr],
    ) -> Result<Vec<(VirtAddr, PhysAddr, PageSize)>, SimError> {
        let mut entries = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for &va in pages {
            let (pa, size) = self
                .proc_
                .page_table()
                .translate(&self.pm, va)
                .ok_or_else(|| SimError::Setup(format!("page at {va} not populated")))?;
            let aligned = va.align_down(size);
            if seen.insert(aligned.raw()) {
                entries.push((aligned, PhysAddr(pa.raw() & !(size.bytes() - 1)), size));
            }
        }
        Ok(entries)
    }

    /// Software ground-truth data PA (no translation machinery charged).
    pub fn data_pa(&self, va: VirtAddr) -> PhysAddr {
        self.proc_
            .page_table()
            .translate(&self.pm, va)
            .expect("populated")
            .0
    }

    /// The reference leaf entry from the ground-truth radix table —
    /// what [`NativeTranslator::ref_translate`] serves by default.
    pub fn ref_entry(&self, va: VirtAddr) -> Option<RefEntry> {
        let (pa, size, flags) = self.proc_.page_table().translate_entry(&self.pm, va)?;
        Some(RefEntry {
            pa,
            size,
            writable: flags.contains(PteFlags::WRITABLE),
            user: flags.contains(PteFlags::USER),
        })
    }

    pub(crate) fn component_counters(&self) -> ComponentCounters {
        let pwc = self.pwc.stats();
        let alloc = self.pm.buddy().alloc_counters();
        ComponentCounters {
            pwc_l2_hits: pwc.l2_hits,
            pwc_l3_hits: pwc.l3_hits,
            pwc_l4_hits: pwc.l4_hits,
            pwc_misses: pwc.misses,
            alloc_splits: alloc.splits,
            alloc_merges: alloc.merges,
            compactions: alloc.compactions,
            tea_migrations: self.proc_.tea_migrations(),
            shootdowns: self.proc_.shootdowns(),
        }
    }

    pub(crate) fn frag_sample(&self) -> Option<(f64, u64)> {
        let b = self.pm.buddy();
        let rss = b.allocated_of_kind(FrameKind::Data) + b.allocated_of_kind(FrameKind::HugeData);
        Some((dmt_mem::frag::fragmentation_index(b, 9), rss))
    }
}

/// The 2D reference path for a virtualized machine: guest leaf decides
/// size and permissions, the host mapping finishes the PA — the default
/// [`VirtTranslator::ref_translate`].
pub fn virt_ref_entry(m: &VirtMachine, va: VirtAddr) -> Option<RefEntry> {
    let view = m.vm.guest_view_ref(&m.pm);
    let (gpa, size, flags) = m.gpt.translate_entry(&view, va)?;
    let hpa = m.vm.gpa_to_hpa(gpa)?;
    Some(RefEntry {
        pa: hpa,
        size,
        writable: flags.contains(PteFlags::WRITABLE),
        user: flags.contains(PteFlags::USER),
    })
}

/// The cascaded software reference for a nested machine — the default
/// [`NestedTranslator::ref_translate`].
pub fn nested_ref_entry(m: &NestedMachine, va: VirtAddr) -> Option<RefEntry> {
    let (pa, size, flags) = m.translate_software_entry(va)?;
    Some(RefEntry {
        pa,
        size,
        writable: flags.contains(PteFlags::WRITABLE),
        user: flags.contains(PteFlags::USER),
    })
}

/// The backed guest-physical chunks `(gPA, hPA, size)`: 2 MiB where the
/// backing is a full aligned huge block, 4 KiB otherwise (e.g. inserted
/// TEA pages). Shared by the FPT and ECPT virt backends, which mirror
/// the backing in their host-dimension tables.
pub(crate) fn backed_chunks(m: &VirtMachine) -> Vec<(PhysAddr, PhysAddr, PageSize)> {
    let frames = m.vm.backed_gframes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < frames.len() {
        let g = frames[i];
        let gpa = PhysAddr(g << 12);
        let hpa = m.vm.gpa_to_hpa(gpa).expect("listed as backed");
        let huge = m.vm.host_page_size() == PageSize::Size2M
            && gpa.is_aligned(PageSize::Size2M)
            && hpa.is_aligned(PageSize::Size2M)
            && i + 512 <= frames.len()
            && frames[i + 511] == g + 511;
        if huge {
            out.push((gpa, hpa, PageSize::Size2M));
            i += 512;
        } else {
            out.push((gpa, hpa, PageSize::Size4K));
            i += 1;
        }
    }
    out
}

/// The touched guest mappings `(gva page, gpa frame, size)` — the raw
/// material for guest-dimension auxiliary tables (FPT/ECPT).
pub(crate) fn collect_guest_mappings(
    m: &VirtMachine,
    pages: &[VirtAddr],
) -> Result<Vec<(VirtAddr, PhysAddr, PageSize)>, SimError> {
    let view = m.vm.guest_view_ref(&m.pm);
    let mut out = Vec::new();
    let mut seen = std::collections::HashSet::new();
    for &va in pages {
        let (gpa, size) = m
            .gpt
            .translate(&view, va)
            .ok_or_else(|| SimError::Setup(format!("guest page {va} not populated")))?;
        let aligned = va.align_down(size);
        if seen.insert(aligned.raw()) {
            out.push((aligned, PhysAddr(gpa.raw() & !(size.bytes() - 1)), size));
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

/// A design's translate path in the native environment. The backend
/// owns the design's auxiliary structures and counters; the machine
/// (memory, process, registers, PWC) stays with the rig and is lent per
/// call.
pub trait NativeTranslator {
    /// Serve a translation for `va`, charging `hier`.
    fn translate(
        &mut self,
        m: &mut NativeMachine,
        va: VirtAddr,
        hier: &mut MemoryHierarchy,
    ) -> Translation;

    /// Serve a TLB miss for the default engine: the translation plus
    /// the data PA (see [`Rig::translate_fast`]'s contract, DESIGN.md
    /// §13). The default is [`translate`](Self::translate) plus the
    /// machine's ground truth; backends whose translation is the data
    /// mapping return its own PA.
    ///
    /// [`Rig::translate_fast`]: crate::rig::Rig::translate_fast
    fn translate_fast(
        &mut self,
        m: &mut NativeMachine,
        va: VirtAddr,
        hier: &mut MemoryHierarchy,
    ) -> (Translation, PhysAddr) {
        (self.translate(m, va, hier), m.data_pa(va))
    }

    /// Reference entry for the differential oracle. Defaults to the
    /// machine's radix ground truth.
    fn ref_translate(&self, m: &NativeMachine, va: VirtAddr) -> Option<RefEntry> {
        m.ref_entry(va)
    }

    /// VM exits attributable to the design (none natively by default).
    fn exits(&self, m: &NativeMachine) -> u64 {
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

/// A design's translate path in the single-level virtualized
/// environment, over the rig-owned [`VirtMachine`].
pub trait VirtTranslator {
    /// Serve a translation for `va`, charging `hier`.
    fn translate(
        &mut self,
        m: &mut VirtMachine,
        va: VirtAddr,
        hier: &mut MemoryHierarchy,
    ) -> Translation;

    /// Serve a TLB miss for the default engine; same contract as
    /// [`NativeTranslator::translate_fast`].
    fn translate_fast(
        &mut self,
        m: &mut VirtMachine,
        va: VirtAddr,
        hier: &mut MemoryHierarchy,
    ) -> (Translation, PhysAddr) {
        let tr = self.translate(m, va, hier);
        (tr, m.translate_software(va).expect("populated"))
    }

    /// Reference entry for the differential oracle. Defaults to the 2D
    /// software path ([`virt_ref_entry`]).
    fn ref_translate(&self, m: &VirtMachine, va: VirtAddr) -> Option<RefEntry> {
        virt_ref_entry(m, va)
    }

    /// VM exits attributable to the design during setup + run.
    fn exits(&self, m: &VirtMachine) -> u64 {
        let _ = m;
        0
    }

    /// DMT fetcher coverage so far (1.0 for non-DMT designs).
    fn coverage(&self) -> f64 {
        1.0
    }

    /// Flush any translation caches the backend itself keeps — see
    /// [`NativeTranslator::flush_caches`].
    fn flush_caches(&mut self) {}
}

/// Generate one per-environment backend enum: a variant per registered
/// design holding the concrete backend type. Every method is an
/// exhaustive match calling the concrete type's trait method, so the
/// hot path is monomorphic — the compiler sees through the variant to
/// the concrete `translate`/`translate_fast` body.
///
/// Adding a design = one arm here + one registry row; a missing arm is
/// a compile error in the registry's build fn, and registry/enum drift
/// fails the `DESIGNS`-vs-availability test in [`crate::registry`].
macro_rules! backend_enum {
    (
        $(#[$meta:meta])*
        $name:ident over $machine:ty, $trait:ident {
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

            /// Serve a translation for `va`, charging `hier`.
            #[inline]
            pub fn translate(
                &mut self,
                m: &mut $machine,
                va: VirtAddr,
                hier: &mut MemoryHierarchy,
            ) -> Translation {
                match self {
                    $( Self::$design(b) => $trait::translate(b, m, va, hier), )+
                }
            }

            /// Serve a TLB miss for the default engine: the
            /// translation plus the data PA, monomorphically dispatched.
            #[inline]
            pub fn translate_fast(
                &mut self,
                m: &mut $machine,
                va: VirtAddr,
                hier: &mut MemoryHierarchy,
            ) -> (Translation, PhysAddr) {
                match self {
                    $( Self::$design(b) => $trait::translate_fast(b, m, va, hier), )+
                }
            }

            /// Reference entry for the differential oracle.
            pub fn ref_translate(&self, m: &$machine, va: VirtAddr) -> Option<RefEntry> {
                match self {
                    $( Self::$design(b) => $trait::ref_translate(b, m, va), )+
                }
            }

            /// VM exits attributable to the design during setup + run.
            pub fn exits(&self, m: &$machine) -> u64 {
                match self {
                    $( Self::$design(b) => $trait::exits(b, m), )+
                }
            }

            /// DMT fetcher coverage so far (1.0 for non-DMT designs).
            pub fn coverage(&self) -> f64 {
                match self {
                    $( Self::$design(b) => $trait::coverage(b), )+
                }
            }

            /// Flush any translation caches the backend itself keeps.
            pub fn flush_caches(&mut self) {
                match self {
                    $( Self::$design(b) => $trait::flush_caches(b), )+
                }
            }
        }
    };
}

/// A design's translate path in the nested (L0/L1/L2) environment.
pub trait NestedTranslator {
    /// Serve a translation for `va`, charging `hier`.
    fn translate(
        &mut self,
        m: &mut NestedMachine,
        va: VirtAddr,
        hier: &mut MemoryHierarchy,
    ) -> Translation;

    /// Serve a TLB miss for the default engine; same contract as
    /// [`NativeTranslator::translate_fast`].
    fn translate_fast(
        &mut self,
        m: &mut NestedMachine,
        va: VirtAddr,
        hier: &mut MemoryHierarchy,
    ) -> (Translation, PhysAddr) {
        let tr = self.translate(m, va, hier);
        (tr, m.translate_software(va).expect("populated"))
    }

    /// Reference entry for the differential oracle. Defaults to the
    /// cascaded software path ([`nested_ref_entry`]).
    fn ref_translate(&self, m: &NestedMachine, va: VirtAddr) -> Option<RefEntry> {
        nested_ref_entry(m, va)
    }

    /// VM exits attributable to the design during setup + run.
    fn exits(&self, m: &NestedMachine) -> u64 {
        let _ = m;
        0
    }

    /// DMT fetcher coverage so far (1.0 for non-DMT designs).
    fn coverage(&self) -> f64 {
        1.0
    }

    /// Flush any translation caches the backend itself keeps — see
    /// [`NativeTranslator::flush_caches`].
    fn flush_caches(&mut self) {}
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
    let pm = PhysMemory::new_bytes(crate::virt_rig::VirtRig::host_bytes(false, &setup));
    let mut m = VirtMachine::new_with_pm(
        pm,
        setup.footprint() + (160 << 20),
        dmt_virt::machine::GuestTeaMode::None,
        false,
    )
    .unwrap();
    for r in &setup.regions {
        m.guest_mmap(r.base, r.len).unwrap();
    }
    for &va in &setup.pages {
        m.guest_populate(va).unwrap();
    }
    (m, setup)
}

backend_enum! {
    /// The native-environment backend: one monomorphic variant per
    /// design Table 6 lists as available natively (Shadow and Agile
    /// are virtualization-only).
    NativeBackend over NativeMachine, NativeTranslator {
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
    VirtBackend over VirtMachine, VirtTranslator {
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
    NestedBackend over NestedMachine, NestedTranslator {
        Vanilla => vanilla::NestedVanilla,
        PvDmt => pvdmt::NestedPvDmt,
    }
}
