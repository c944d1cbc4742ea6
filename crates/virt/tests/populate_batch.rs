//! Batched guest demand paging against page-at-a-time population.
//!
//! [`VirtMachine::guest_populate_pages`] and
//! [`NestedMachine::l2_populate_pages`] walk a page list with one span
//! cursor per table (the guest or L2 table, and the shadow table), so
//! consecutive pages served by the same leaf table skip the root-to-leaf
//! descent. Two machines receive the same random operations; one
//! populates each batch in a single call, the other one page at a time
//! (and a range by the old loop: one page per step of the guest page
//! size). Batches come sorted, unsorted and with duplicates, inside and
//! outside the regions that have TEAs, across 2 MiB, 1 GiB and 512 GiB
//! span boundaries; `mmap`s run between them, with THP and DMT (pvDMT,
//! plain DMT, none) each on and off. After every operation both
//! machines must agree on:
//!
//! * the result (faults served, or the error) and the fault count;
//! * every frame allocator's `state_hash` and the backing chunks;
//! * the shadow table's sync count;
//! * every touched page's leaf in the guest (or L2) table and in the
//!   shadow table, and its software translation to host memory.

use dmt_mem::{PageSize, PhysAddr, VirtAddr};
use dmt_pgtable::pte::PteFlags;
use dmt_virt::machine::GuestTeaMode;
use dmt_virt::{NestedMachine, VirtError, VirtMachine};
use proptest::prelude::*;

const GIB: u64 = 1 << 30;
const MIB: u64 = 1 << 20;

/// The regions pages are drawn from, `(base, len)`: they straddle a
/// 1 GiB and a 512 GiB boundary, with bubbles between them.
const REGIONS: [(u64, u64); 4] = [
    (GIB - 6 * MIB, 7 * MIB + 4096),
    (GIB + 2 * MIB + 0x3000, 3 * MIB),
    (2 * GIB - 2 * MIB, 4 * MIB),
    (512 * GIB - 2 * MIB, 4 * MIB),
];

/// A page address for pick `x`: inside a region, or one in eight
/// anywhere in a window 1 MiB around it. Low bits stay random so the
/// page offset is carried through.
fn pick(x: u64) -> VirtAddr {
    let (base, len) = REGIONS[(x % REGIONS.len() as u64) as usize];
    let (base, len) = if x.is_multiple_of(8) {
        (base - MIB, len + 2 * MIB)
    } else {
        (base, len)
    };
    VirtAddr(base + (x >> 8) % len)
}

/// A batch from `picks`: sorted, as generated, or with every page twice.
fn batch(arg: u64, picks: &[u64]) -> Vec<VirtAddr> {
    let mut pages: Vec<VirtAddr> = picks.iter().map(|&x| pick(x)).collect();
    match arg % 3 {
        0 => pages.sort(),
        1 => {}
        _ => pages = pages.iter().chain(pages.iter().rev()).copied().collect(),
    }
    pages
}

/// The pages the old range loop visited: from `base`, one per step of
/// the guest page size, page-aligned after the first.
fn range_pages(base: VirtAddr, len: u64, thp: bool) -> Vec<VirtAddr> {
    let step = if thp {
        PageSize::Size2M
    } else {
        PageSize::Size4K
    };
    let mut pages = Vec::new();
    let mut va = base;
    while va.raw() < base.raw() + len {
        pages.push(va);
        va = VirtAddr(va.align_down(step).raw() + step.bytes());
    }
    pages
}

/// Page-at-a-time population through `populate`, stopping at the first
/// error as a batch does.
fn each(
    pages: &[VirtAddr],
    mut populate: impl FnMut(VirtAddr) -> Result<bool, VirtError>,
) -> Result<u64, VirtError> {
    let mut faults = 0;
    for &va in pages {
        faults += u64::from(populate(va)?);
    }
    Ok(faults)
}

type Leaf = Option<(PhysAddr, PageSize, PteFlags)>;

/// What a single-level machine shows of `probes`.
fn virt_image(m: &VirtMachine, probes: &[VirtAddr]) -> (Vec<u64>, Vec<(Leaf, Leaf, Leaf)>) {
    let view = m.vm.guest_view_ref(&m.pm);
    let counts = vec![
        m.pm.buddy().state_hash(),
        m.vm.guest_state_hash(),
        m.faults(),
        m.spt.sync_events(),
    ];
    let leaves = probes
        .iter()
        .map(|&va| {
            (
                m.gpt.translate_entry(&view, va),
                m.spt.table().translate_entry(&m.pm, va),
                m.translate_software(va),
            )
        })
        .collect();
    (counts, leaves)
}

fn run_virt(mode: GuestTeaMode, thp: bool, ops: &[(u8, u64, Vec<u64>)]) {
    let new = || {
        let mut m = VirtMachine::new(512 * MIB, 128 * MIB, mode, thp).unwrap();
        m.guest_mmap(VirtAddr(REGIONS[0].0), REGIONS[0].1).unwrap();
        m
    };
    let (mut a, mut b) = (new(), new());
    let mut mapped = 1;
    let mut probes = Vec::new();
    for (step, (op, arg, picks)) in ops.iter().enumerate() {
        let what = format!("op {step} ({op}, {arg:#x})");
        match op {
            0..=3 => {
                let pages = batch(*arg, picks);
                let got = a.guest_populate_pages(pages.iter().copied());
                let want = each(&pages, |va| b.guest_populate(va));
                assert_eq!(got, want, "{what}: batch result");
                probes.extend(pages);
            }
            4 => {
                let start = pick(*arg);
                let len = (arg >> 40) % (5 * MIB);
                let got = a.guest_populate_range(start, len);
                let pages = range_pages(start, len, thp);
                assert_eq!(got, each(&pages, |va| b.guest_populate(va)), "{what}");
                probes.extend(pages);
            }
            _ => {
                if mapped < REGIONS.len() {
                    let (base, len) = REGIONS[mapped];
                    let got = a.guest_mmap(VirtAddr(base), len);
                    assert_eq!(got, b.guest_mmap(VirtAddr(base), len), "{what}: mmap");
                    mapped += 1;
                }
            }
        }
        assert_eq!(a.vm.backed_chunks(), b.vm.backed_chunks(), "{what}");
        let (ia, ib) = (virt_image(&a, &probes), virt_image(&b, &probes));
        assert_eq!(ia.0, ib.0, "{what}: hashes, faults, syncs");
        for (k, (la, lb)) in ia.1.iter().zip(&ib.1).enumerate() {
            assert_eq!(la, lb, "{what}: leaves of {}", probes[k]);
        }
    }
}

/// What a nested machine shows of `probes`: the shadow table is keyed
/// by each page's L2PA.
fn nested_image(m: &NestedMachine, probes: &[VirtAddr]) -> (Vec<u64>, Vec<(Leaf, Leaf, Leaf)>) {
    let view = m.l2_view_ref();
    let counts = vec![
        m.pm.buddy().state_hash(),
        m.l1().guest_state_hash(),
        m.l2_state_hash(),
        m.faults(),
        m.sync_events(),
    ];
    let leaves = probes
        .iter()
        .map(|&va| {
            let l2 = m.l2pt.translate_entry(&view, va);
            let spt = l2.and_then(|(l2pa, _, _)| {
                m.spt.table().translate_entry(&m.pm, VirtAddr(l2pa.raw()))
            });
            (l2, spt, m.translate_software(va))
        })
        .collect();
    (counts, leaves)
}

fn run_nested(pv: bool, thp: bool, ops: &[(u8, u64, Vec<u64>)]) {
    let new = || {
        let mut m = NestedMachine::new(512 * MIB, 192 * MIB, 128 * MIB, thp).unwrap();
        if pv {
            m.l2_mmap(VirtAddr(REGIONS[0].0), REGIONS[0].1).unwrap();
        }
        m
    };
    let (mut a, mut b) = (new(), new());
    let mut mapped = 1;
    let mut probes = Vec::new();
    for (step, (op, arg, picks)) in ops.iter().enumerate() {
        let what = format!("op {step} ({op}, {arg:#x})");
        match op {
            0..=3 => {
                let pages = batch(*arg, picks);
                let got = a.l2_populate_pages(pages.iter().copied());
                let want = each(&pages, |va| b.l2_populate(va));
                assert_eq!(got, want, "{what}: batch result");
                probes.extend(pages);
            }
            4 => {
                let start = pick(*arg);
                let len = (arg >> 40) % (5 * MIB);
                let got = a.l2_populate_range(start, len);
                let pages = range_pages(start, len, thp);
                assert_eq!(got, each(&pages, |va| b.l2_populate(va)), "{what}");
                probes.extend(pages);
            }
            _ => {
                if pv && mapped < REGIONS.len() {
                    let (base, len) = REGIONS[mapped];
                    let got = a.l2_mmap(VirtAddr(base), len);
                    assert_eq!(got, b.l2_mmap(VirtAddr(base), len), "{what}: mmap");
                    mapped += 1;
                }
            }
        }
        assert_eq!(a.l1().backed_chunks(), b.l1().backed_chunks(), "{what}");
        assert_eq!(a.l2_backed_chunks(), b.l2_backed_chunks(), "{what}");
        let (ia, ib) = (nested_image(&a, &probes), nested_image(&b, &probes));
        assert_eq!(ia.0, ib.0, "{what}: hashes, faults, syncs");
        for (k, (la, lb)) in ia.1.iter().zip(&ib.1).enumerate() {
            assert_eq!(la, lb, "{what}: leaves of {}", probes[k]);
        }
    }
}

fn op() -> impl Strategy<Value = (u8, u64, Vec<u64>)> {
    (
        0u8..6,
        any::<u64>(),
        prop::collection::vec(any::<u64>(), 0..48),
    )
}

const MODES: [GuestTeaMode; 3] = [GuestTeaMode::Pv, GuestTeaMode::Unpv, GuestTeaMode::None];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn guest_batch_equals_page_at_a_time(
        mode in 0usize..3,
        thp in any::<bool>(),
        ops in prop::collection::vec(op(), 1..10),
    ) {
        run_virt(MODES[mode], thp, &ops);
    }

    #[test]
    fn l2_batch_equals_page_at_a_time(
        pv in any::<bool>(),
        thp in any::<bool>(),
        ops in prop::collection::vec(op(), 1..10),
    ) {
        run_nested(pv, thp, &ops);
    }
}

/// A fixed sequence over every mode, whatever the random draw.
fn fixed_ops() -> Vec<(u8, u64, Vec<u64>)> {
    let picks: Vec<u64> = (0..64u64)
        .map(|k| k.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1)
        .collect();
    vec![
        (0, 0, picks.clone()),
        (5, 0, Vec::new()),
        (1, 1, picks.clone()),
        (4, (3 << 40) | (5 << 8) | 1, Vec::new()),
        (5, 0, Vec::new()),
        (2, 2, picks),
    ]
}

#[test]
fn batch_equals_page_at_a_time_in_every_mode() {
    let ops = fixed_ops();
    for thp in [false, true] {
        for mode in MODES {
            run_virt(mode, thp, &ops);
        }
        for pv in [false, true] {
            run_nested(pv, thp, &ops);
        }
    }
}
