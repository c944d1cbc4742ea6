//! The design registry: the single place that knows which translation
//! design exists in which environment, and how to build its backend.
//!
//! Each backend module exports one [`Registration`] const; the static
//! `REGISTRY` table is their concatenation. Everything downstream is
//! a query against it:
//!
//! * `Design::available_in` asks [`available`] — Table 6's N/A cells
//!   are `None` entries here, not scattered `match` arms;
//! * each environment's `Machine::build` asks [`native_spec`] /
//!   [`virt_spec`] / [`nested_spec`] for the machine-construction
//!   knobs and the factory that builds the per-environment backend
//!   enum, and gets a typed [`SimError::Unavailable`] for an N/A cell.
//!
//! Adding a design = one new backend module + one enum arm in
//! `backends::backend_enum!` per supported environment + one row here
//! (and a new `Design` variant). See DESIGN.md §11 for the walkthrough;
//! the tests below pin enum/registry agreement per environment.

use crate::backends::{self, NativeBackend, NativeMachine, NestedBackend, VirtBackend};
use crate::error::SimError;
use crate::rig::{Design, Env, Setup};
use dmt_mem::Pfn;
use dmt_virt::machine::{GuestTeaMode, VirtMachine};
use dmt_virt::nested::NestedMachine;

/// A boot-time contiguous guest-frame arena, carved before data
/// allocations fragment guest physical memory (FPT/ECPT guest tables
/// need contiguity, like TEAs).
pub struct Arena {
    /// First frame of the carved range.
    pub base: Pfn,
    /// Frames in the range.
    pub frames: u64,
}

/// Builds a native backend over a fully populated [`NativeMachine`],
/// returned as the monomorphic [`NativeBackend`] enum (the factory
/// wraps its concrete backend in the design's variant).
pub type NativeFactory = fn(&mut NativeMachine, &Setup) -> Result<NativeBackend, SimError>;

/// Builds a virt backend over a fully populated
/// [`VirtMachine`], handed the boot-time arena iff the spec requested
/// one via [`VirtSpec::arena_frames`].
pub type VirtFactory = fn(&mut VirtMachine, &Setup, Option<Arena>) -> Result<VirtBackend, SimError>;

/// Builds a nested backend over a fully populated
/// [`NestedMachine`].
pub type NestedFactory = fn(&mut NestedMachine, &Setup) -> Result<NestedBackend, SimError>;

/// How to stand a design up on bare metal.
pub struct NativeSpec {
    /// Build the TEA-aware process and load the DMT register file.
    pub dmt_managed: bool,
    /// Backend factory, run after the machine is populated.
    pub build: NativeFactory,
}

/// How to stand a design up in single-level virtualization.
pub struct VirtSpec {
    /// Guest TEA placement the machine boots with.
    pub tea_mode: GuestTeaMode,
    /// When `Some`, the rig carves this many contiguous guest frames at
    /// boot and hands them to the factory as an [`Arena`].
    pub arena_frames: Option<fn(&Setup) -> u64>,
    /// When `Some`, the §5 perf model charges this exit ratio instead
    /// of the measured one — the design *is* the environment's
    /// normalization baseline (vanilla virt runs exit-free nested
    /// paging, ratio 0).
    pub pinned_exit_ratio: Option<f64>,
    /// Backend factory, run after the guest is mapped and populated.
    pub build: VirtFactory,
}

/// How to stand a design up in nested virtualization.
pub struct NestedSpec {
    /// Pre-announce the workload VMAs to L2 via `l2_mmap` (the
    /// paravirtualized TEA-creation path).
    pub pv_mmap: bool,
    /// When `Some`, the §5 perf model charges this exit ratio instead
    /// of the measured one — vanilla nested carries the full shadow
    /// synchronization cost by definition (ratio 1).
    pub pinned_exit_ratio: Option<f64>,
    /// Backend factory, run after L2 is populated.
    pub build: NestedFactory,
}

/// A two-tier DRAM split for a design that manages physical placement
/// (DMT's TEA migrations): PAs below `fast_bytes` are near-tier DRAM at
/// the hierarchy's configured latency, PAs at or above it pay
/// `slow_latency`. Opt-in via `RunnerBuilder::tiered`; a row without a
/// spec always runs flat.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TierSpec {
    /// Bytes of fast-tier DRAM, from PA 0.
    pub fast_bytes: u64,
    /// Cycles charged per access landing in the slow tier.
    pub slow_latency: u64,
}

/// One design's row: a spec per environment it exists in, `None` for
/// each of its Table 6 N/A cells.
pub struct Registration {
    /// The design this row describes.
    pub design: Design,
    /// Bare-metal spec, if the design exists natively.
    pub native: Option<NativeSpec>,
    /// Single-level-virtualization spec.
    pub virt: Option<VirtSpec>,
    /// Nested-virtualization spec.
    pub nested: Option<NestedSpec>,
    /// Tiered-DRAM latency knob, for designs whose placement machinery
    /// (TEA migration) can steer hot pages into the fast tier.
    pub tiers: Option<TierSpec>,
}

/// Every registered design, in presentation order: this sequence — not
/// `Design::ALL` — decides Table 6/7 row order, so a new design lands
/// in the tables by adding its row here. Lookups go by the `design`
/// field, not position.
static REGISTRY: [Registration; 10] = [
    backends::vanilla::REGISTRATION,
    backends::shadow::REGISTRATION,
    backends::fpt::REGISTRATION,
    backends::ecpt::REGISTRATION,
    backends::agile::REGISTRATION,
    backends::asap::REGISTRATION,
    backends::dmt::REGISTRATION,
    backends::pvdmt::REGISTRATION,
    backends::vbi::REGISTRATION,
    backends::seg::REGISTRATION,
];

/// Every registered design in registry (presentation) order — what the
/// experiment tables iterate, decoupled from the `Design` enum's
/// declaration order.
pub fn designs() -> impl Iterator<Item = Design> {
    REGISTRY.iter().map(|r| r.design)
}

/// The tiered-DRAM spec for `design`, if its row opts in.
pub fn tier_spec(design: Design) -> Option<TierSpec> {
    lookup(design).tiers
}

/// The registry row for a design. Every `Design` variant has exactly
/// one row (the conformance suite checks this).
pub fn lookup(design: Design) -> &'static Registration {
    REGISTRY
        .iter()
        .find(|r| r.design == design)
        .expect("every Design variant has a registry row")
}

/// Whether `design` has a backend registered for `env` — the data
/// behind `Design::available_in` (Table 6's N/A cells).
pub fn available(design: Design, env: Env) -> bool {
    let r = lookup(design);
    match env {
        Env::Native => r.native.is_some(),
        Env::Virt => r.virt.is_some(),
        Env::Nested => r.nested.is_some(),
    }
}

/// The native spec for `design`, or a typed N/A error.
pub fn native_spec(design: Design) -> Result<&'static NativeSpec, SimError> {
    lookup(design).native.as_ref().ok_or(SimError::Unavailable {
        design,
        env: Env::Native,
    })
}

/// The virt spec for `design`, or a typed N/A error.
pub fn virt_spec(design: Design) -> Result<&'static VirtSpec, SimError> {
    lookup(design).virt.as_ref().ok_or(SimError::Unavailable {
        design,
        env: Env::Virt,
    })
}

/// The exit ratio the §5 perf model must charge `design` in `env`
/// instead of the measured one, when the registration pins one (the
/// environments' vanilla baselines). `None` for native (no VM exits to
/// normalize), for N/A cells, and for every design whose exits are
/// genuinely measured.
pub fn pinned_exit_ratio(design: Design, env: Env) -> Option<f64> {
    let r = lookup(design);
    match env {
        Env::Native => None,
        Env::Virt => r.virt.as_ref().and_then(|s| s.pinned_exit_ratio),
        Env::Nested => r.nested.as_ref().and_then(|s| s.pinned_exit_ratio),
    }
}

/// The nested spec for `design`, or a typed N/A error.
pub fn nested_spec(design: Design) -> Result<&'static NestedSpec, SimError> {
    lookup(design).nested.as_ref().ok_or(SimError::Unavailable {
        design,
        env: Env::Nested,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backends::Machine;

    const ALL: [Design; 10] = [
        Design::Vanilla,
        Design::Shadow,
        Design::Fpt,
        Design::Ecpt,
        Design::Agile,
        Design::Asap,
        Design::Dmt,
        Design::PvDmt,
        Design::Vbi,
        Design::Seg,
    ];

    #[test]
    fn every_design_has_exactly_one_row() {
        for d in ALL {
            assert_eq!(lookup(d).design, d);
            assert_eq!(REGISTRY.iter().filter(|r| r.design == d).count(), 1);
        }
    }

    #[test]
    fn table6_availability_matrix() {
        // The paper's Table 6: Shadow and Agile are virt-only; nested
        // virtualization evaluates only the baseline and pvDMT.
        for d in ALL {
            assert_eq!(
                available(d, Env::Native),
                !matches!(d, Design::Shadow | Design::Agile)
            );
            assert!(available(d, Env::Virt));
            assert_eq!(
                available(d, Env::Nested),
                matches!(d, Design::Vanilla | Design::PvDmt)
            );
        }
    }

    #[test]
    fn spec_getters_type_the_na_cells() {
        assert!(matches!(
            native_spec(Design::Shadow),
            Err(SimError::Unavailable {
                design: Design::Shadow,
                env: Env::Native
            })
        ));
        assert!(matches!(
            nested_spec(Design::Ecpt),
            Err(SimError::Unavailable {
                design: Design::Ecpt,
                env: Env::Nested
            })
        ));
        assert!(native_spec(Design::Dmt).is_ok());
        assert!(virt_spec(Design::Shadow).is_ok());
        assert!(nested_spec(Design::PvDmt).is_ok());
    }

    #[test]
    fn backend_enums_match_registry_availability() {
        // Satellite of the api_redesign PR: registry/enum drift is a
        // test failure, not a runtime surprise. Every `Design` variant
        // must have an enum arm exactly where the registry has a spec,
        // per environment.
        for d in Design::ALL {
            assert_eq!(
                NativeBackend::DESIGNS.contains(&d),
                available(d, Env::Native),
                "{d:?} native enum arm vs registry row"
            );
            assert_eq!(
                VirtBackend::DESIGNS.contains(&d),
                available(d, Env::Virt),
                "{d:?} virt enum arm vs registry row"
            );
            assert_eq!(
                NestedBackend::DESIGNS.contains(&d),
                available(d, Env::Nested),
                "{d:?} nested enum arm vs registry row"
            );
        }
        // And a built backend self-reports the design it was built for.
        let setup = crate::rig::Setup {
            regions: vec![dmt_workloads::gen::Region {
                base: dmt_mem::VirtAddr(0x10_0000),
                len: 1 << 20,
                label: "t",
            }],
            pages: vec![dmt_mem::VirtAddr(0x10_0000)],
        };
        for d in Design::ALL {
            if available(d, Env::Native) {
                let pm = dmt_mem::PhysMemory::new_bytes(NativeMachine::host_bytes(false, &setup));
                let (_, b) = NativeMachine::build(pm, d, false, &setup).expect("backend");
                assert_eq!(b.design(), d, "{d:?} native variant");
            }
        }
    }

    #[test]
    fn designs_iterates_registry_rows_in_presentation_order() {
        // Table 6/7 row order comes from here, not from `Design::ALL`:
        // the iterator must yield exactly the registry rows, in table
        // position, each design once.
        let order: Vec<Design> = designs().collect();
        assert_eq!(order.len(), REGISTRY.len());
        for (i, d) in order.iter().enumerate() {
            assert_eq!(REGISTRY[i].design, *d);
        }
        for d in Design::ALL {
            assert_eq!(order.iter().filter(|x| **x == d).count(), 1, "{d:?}");
        }
    }

    #[test]
    fn tier_specs_mark_exactly_the_tea_migrating_designs() {
        for d in ALL {
            let spec = tier_spec(d);
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
        for d in ALL {
            if let Ok(s) = native_spec(d) {
                assert_eq!(
                    s.dmt_managed,
                    matches!(d, Design::Dmt | Design::PvDmt | Design::Asap),
                    "{d:?}"
                );
            }
        }
    }
}
