//! Table 6, asserted: the number of sequential memory references every
//! design performs in every environment, measured on cold machines with
//! MMU caches disabled where the paper's numbers are worst-case.

use dmt::cache::hierarchy::MemoryHierarchy;
use dmt::mem::VirtAddr;
use dmt::sim::native_rig::NativeRig;
use dmt::sim::nested_rig::NestedRig;
use dmt::sim::rig::{Design, Env};
use dmt::sim::virt_rig::VirtRig;
use dmt::sim::Runner;
use dmt::virt::machine::{GuestTeaMode, VirtMachine};
use dmt::virt::nested::NestedMachine;
use dmt::workloads::bench7::Gups;
use dmt::workloads::gen::Workload;

fn gups() -> Gups {
    Gups {
        table_bytes: 64 << 20,
    }
}

/// Steady-state sequential reference counts through the engine (warm
/// machines; DMT-family counts are exact, walker counts are ≤ the cold
/// worst case).
fn measured_refs(env: Env, design: Design) -> f64 {
    let w = gups();
    let trace = w.trace(4_000, 99);
    let stats = match env {
        Env::Native => {
            let mut rig = NativeRig::new(design, false, &w, &trace).unwrap();
            Runner::builder().build().replay(&mut rig, &trace, 500).0
        }
        Env::Virt => {
            let mut rig = VirtRig::new(design, false, &w, &trace).unwrap();
            Runner::builder().build().replay(&mut rig, &trace, 500).0
        }
        Env::Nested => {
            let mut rig = NestedRig::new(design, false, &w, &trace).unwrap();
            Runner::builder().build().replay(&mut rig, &trace, 500).0
        }
    };
    stats.avg_refs()
}

#[test]
fn pvdmt_is_1_2_3() {
    assert!((measured_refs(Env::Native, Design::PvDmt) - 1.0).abs() < 0.01);
    assert!((measured_refs(Env::Virt, Design::PvDmt) - 2.0).abs() < 0.01);
    assert!((measured_refs(Env::Nested, Design::PvDmt) - 3.0).abs() < 0.01);
}

#[test]
fn dmt_without_pv_is_1_3() {
    assert!((measured_refs(Env::Native, Design::Dmt) - 1.0).abs() < 0.01);
    assert!((measured_refs(Env::Virt, Design::Dmt) - 3.0).abs() < 0.01);
}

#[test]
fn ecpt_is_1_3_sequential() {
    assert!((measured_refs(Env::Native, Design::Ecpt) - 1.0).abs() < 0.01);
    assert!((measured_refs(Env::Virt, Design::Ecpt) - 3.0).abs() < 0.01);
}

#[test]
fn fpt_is_at_most_2_and_8() {
    // Table 6's 2 / 8 are the worst case; with its upper-entry cache
    // (the PWC analog) warm FPT walks are shorter but never exceed it.
    let native = measured_refs(Env::Native, Design::Fpt);
    let virt = measured_refs(Env::Virt, Design::Fpt);
    assert!((1.0..=2.0).contains(&native), "native {native}");
    assert!((3.0..=8.0).contains(&virt), "virt {virt}");
}

#[test]
fn radix_worst_case_is_4_24_24() {
    // Cold walks with MMU caches disabled hit the exact worst case.
    let mut m = VirtMachine::new(512 << 20, 64 << 20, GuestTeaMode::None, false).unwrap();
    let base = VirtAddr(0x7f00_0000_0000);
    m.guest_mmap(base, 4 << 20).unwrap();
    m.guest_populate_range(base, 4 << 20).unwrap();
    m.nested_caches = dmt::pgtable::nested::NestedCaches::none();
    let mut hier = MemoryHierarchy::default();
    let out = m.translate_nested(base, &mut hier).unwrap();
    assert_eq!(out.refs(), 24, "virtualized radix worst case");

    let mut n = NestedMachine::new(1 << 30, 256 << 20, 128 << 20, false).unwrap();
    n.l2_populate_range(base, 2 << 20).unwrap();
    n.nested_caches = dmt::pgtable::nested::NestedCaches::none();
    let out = n.translate_baseline(base, &mut hier).unwrap();
    assert_eq!(out.refs(), 24, "nested-virt baseline (L2PT x sPT)");
}

#[test]
fn agile_sits_between_shadow_and_nested() {
    let virt_agile = measured_refs(Env::Virt, Design::Agile);
    let virt_vanilla = measured_refs(Env::Virt, Design::Vanilla);
    assert!(virt_agile >= 4.0, "agile >= full-shadow walk: {virt_agile}");
    assert!(
        virt_agile <= 24.0,
        "agile <= full-nested worst case: {virt_agile}"
    );
    // At L4+L3 shadowed it's consistently shorter than... comparable to
    // the cached vanilla walk but bounded by the 2 + 2x5 + 4 = 16 shape.
    assert!(virt_agile <= 16.0, "{virt_agile}");
    let _ = virt_vanilla;
}

#[test]
fn asap_walk_length_equals_vanilla() {
    // ASAP prefetches but does not shorten the walk (Table 6: 4 / 24).
    let a = measured_refs(Env::Virt, Design::Asap);
    let v = measured_refs(Env::Virt, Design::Vanilla);
    assert!((a - v).abs() < 0.25, "asap {a} vs vanilla {v}");
}
