//! Cross-design conformance suite: random mmap/access sequences driven
//! through every design × environment × page-size mode under the
//! differential oracle ([`dmt::oracle::Checked`]), with the structural
//! audits (buddy, VMA tree, TEA map, gTEA tables) riding along. Each
//! access goes through `translate`, the one miss call of both engines.
//!
//! The engine-driven path is exercised too: a runner built with the
//! oracle as its rig wrapper replays one cell per environment (see
//! `oracle_wrapper_wraps_runner_rigs`).

use dmt::cache::hierarchy::MemoryHierarchy;
use dmt::mem::{PageSize, VirtAddr};
use dmt::oracle::{audit_native, audit_nested, audit_virt, Checked};
use dmt::sim::native_rig::NativeRig;
use dmt::sim::nested_rig::NestedRig;
use dmt::sim::rig::Setup;
use dmt::sim::virt_rig::VirtRig;
use dmt::sim::{Design, Env, Rig};
use dmt::workloads::gen::{Access, Region};
use proptest::prelude::*;

/// Three fixed, table-span-aligned VMA slots: conformance inputs pick a
/// region and a page offset, so sequences exercise multi-VMA register
/// files without ever generating an invalid layout.
const REGION_BASES: [u64; 3] = [1 << 30, 3 << 30, 5 << 30];
const REGION_LEN: u64 = 4 << 20;

/// Map proptest-chosen `(region, page, offset)` triples to a setup plus
/// the access VAs.
fn build(ops: &[(u8, u16, u16)]) -> (Setup, Vec<VirtAddr>) {
    let regions: Vec<Region> = REGION_BASES
        .iter()
        .map(|&base| Region {
            base: VirtAddr(base),
            len: REGION_LEN,
            label: "conf",
        })
        .collect();
    let pages_per_region = REGION_LEN / PageSize::Size4K.bytes();
    let vas: Vec<VirtAddr> = ops
        .iter()
        .map(|&(r, p, off)| {
            let base = REGION_BASES[r as usize % REGION_BASES.len()];
            let page = (p as u64) % pages_per_region;
            VirtAddr(base + page * PageSize::Size4K.bytes() + (off as u64) % 4096)
        })
        .collect();
    let trace: Vec<Access> = vas.iter().map(|&va| Access::read(va)).collect();
    (Setup::new(regions, &trace), vas)
}

/// Drive every access through `translate` on a checked rig over its
/// own hierarchy. Returns the collected divergence renderings (empty =
/// conformant).
fn drive<R: Rig>(mut checked: Checked<R>, vas: &[VirtAddr]) -> Vec<String> {
    let mut hier = MemoryHierarchy::default();
    for &va in vas {
        checked.translate(va, &mut hier);
    }
    checked
        .divergences()
        .iter()
        .map(ToString::to_string)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Native: every native-capable design (radix and beyond-the-paper
    /// non-radix alike), 4 KiB and THP, PA/size/permission/fault
    /// agreement on every access plus the full structural audit.
    #[test]
    fn native_designs_conform(
        ops in prop::collection::vec((any::<u8>(), any::<u16>(), any::<u16>()), 16..48),
        thp in any::<bool>(),
    ) {
        let (setup, vas) = build(&ops);
        for design in Design::ALL {
            if !design.available_in(Env::Native) {
                continue;
            }
            let rig = NativeRig::with_setup(design, thp, &setup).unwrap();
            let checked = Checked::collecting(rig).with_audit(16, audit_native);
            let divergences = drive(checked, &vas);
            prop_assert!(
                divergences.is_empty(),
                "{design:?} thp={thp}: {divergences:?}"
            );
        }
    }

    /// Virtualized: every virt-capable design under the oracle, with
    /// the host buddy and gTEA/vTMAP audits.
    #[test]
    fn virt_designs_conform(
        ops in prop::collection::vec((any::<u8>(), any::<u16>(), any::<u16>()), 16..32),
        thp in any::<bool>(),
    ) {
        let (setup, vas) = build(&ops);
        for design in Design::ALL {
            if !design.available_in(Env::Virt) {
                continue;
            }
            let rig = VirtRig::with_setup(design, thp, &setup).unwrap();
            let checked = Checked::collecting(rig).with_audit(16, |r| audit_virt(r.machine()));
            let divergences = drive(checked, &vas);
            prop_assert!(
                divergences.is_empty(),
                "{design:?} thp={thp}: {divergences:?}"
            );
        }
    }

    /// Nested: both designs under the oracle, with the cascaded gTEA
    /// audit.
    #[test]
    fn nested_designs_conform(
        ops in prop::collection::vec((any::<u8>(), any::<u16>(), any::<u16>()), 16..32),
        thp in any::<bool>(),
    ) {
        let (setup, vas) = build(&ops);
        for design in Design::ALL {
            if !design.available_in(Env::Nested) {
                continue;
            }
            let rig = NestedRig::with_setup(design, thp, &setup).unwrap();
            let checked = Checked::collecting(rig).with_audit(16, |r| audit_nested(r.machine()));
            let divergences = drive(checked, &vas);
            prop_assert!(
                divergences.is_empty(),
                "{design:?} thp={thp}: {divergences:?}"
            );
        }
    }
}

/// The oracle's one entry point into the drivers: a runner built with
/// `rig_wrapper(oracle::wrapper())` wraps every rig it builds in a
/// panicking oracle — a one-cell sweep per environment then proves the
/// engine-driven path is conformant.
#[test]
fn oracle_wrapper_wraps_runner_rigs() {
    let runner = dmt::sim::Runner::builder()
        .rig_wrapper(dmt::oracle::wrapper())
        .build();
    for (env, design) in [
        (Env::Native, Design::Dmt),
        (Env::Virt, Design::PvDmt),
        (Env::Nested, Design::Vanilla),
    ] {
        let cfg = dmt::sim::SweepConfig {
            envs: vec![env],
            designs: vec![design],
            benchmarks: vec![2], // GUPS
            ..dmt::sim::SweepConfig::test()
        };
        let report = runner
            .sweep(&cfg)
            .unwrap_or_else(|e| panic!("{env:?}/{design:?}: {e}"));
        assert!(report.rows[0].stats.accesses > 0);
    }
}

/// The experiments that used to run private replay loops now replay
/// through the runner they are given, so the oracle and telemetry
/// reach them: under an oracle-wrapped, telemetry-capturing runner the
/// PWC sweep, the 5-level tables and the context-switch node run clean
/// and return exactly what a plain runner returns.
#[test]
fn moved_experiments_run_under_the_oracle() {
    use dmt::sim::ablation::pwc_sweep;
    use dmt::sim::experiments::{ext_5level, ext_context_switch};
    use dmt::sim::{Runner, Scale};

    let plain = Runner::builder().build();
    let checked = Runner::builder()
        .rig_wrapper(dmt::oracle::wrapper())
        .telemetry(true)
        .build();
    let scale = Scale::test();
    let sweep = |r: &Runner| -> Vec<f64> {
        pwc_sweep(r, 64 << 20, &[8, 32, 128, 512], scale.trace / 4)
            .unwrap()
            .iter()
            .map(|p| p.avg_walk_cycles)
            .collect()
    };
    assert_eq!(sweep(&checked), sweep(&plain));
    assert_eq!(
        ext_5level(&checked, scale).unwrap(),
        ext_5level(&plain, scale).unwrap()
    );
    assert_eq!(
        ext_context_switch(&checked, scale, 2_000).unwrap(),
        ext_context_switch(&plain, scale, 2_000).unwrap()
    );
}
