//! Batched demand paging against page-at-a-time population.
//!
//! [`Process::populate_pages`] walks a page list with one span cursor,
//! so consecutive pages served by the same leaf table skip the
//! root-to-leaf descent. Two processes on two identical physical
//! memories receive the same random operations; one populates each
//! batch in a single call, the other one page at a time (and
//! `populate_range` by the old loop: populate, then step by the size
//! the page table reports). Batches come sorted, unsorted and with
//! duplicates, cross VMA bubbles (stopping at `NotInVma`) and 2 MiB,
//! 1 GiB and 512 GiB span boundaries; `munmap`, `mmap`, `grow` and
//! `promote` run between them, with THP, DMT and five-level tables each
//! on and off. After every operation both sides must agree on:
//!
//! * the result (faults served, or the error);
//! * the buddy allocator's `state_hash` and the fault count;
//! * every touched page's leaf (`translate_entry`);
//!
//! and both `Process::audit`s must be empty.

use dmt_mem::{PageSize, PhysMemory, VirtAddr};
use dmt_os::{MappingPolicy, OsError, Process, ThpMode, VmaId, VmaKind};
use proptest::prelude::*;

const GIB: u64 = 1 << 30;
const MIB: u64 = 1 << 20;

/// The regions the cases map: `(base, len)`. They straddle a 1 GiB and a
/// 512 GiB boundary, leave bubbles between them, and two of them start
/// or end off a 2 MiB boundary, so THP maps some of their pages at
/// 4 KiB.
const REGIONS: [(u64, u64); 4] = [
    (GIB - 6 * MIB, 7 * MIB + 4096),
    (GIB + 2 * MIB + 0x3000, 3 * MIB),
    (2 * GIB - 2 * MIB, 4 * MIB),
    (512 * GIB - 2 * MIB, 4 * MIB),
];

/// One process and its physical memory.
struct Side {
    pm: PhysMemory,
    p: Process,
    ids: Vec<Option<VmaId>>,
}

impl Side {
    fn new(thp: bool, dmt: bool, levels: u8) -> Side {
        let mut pm = PhysMemory::new_bytes(256 * MIB);
        let thp = if thp { ThpMode::Always } else { ThpMode::Never };
        let mut p = Process::custom(&mut pm, thp, MappingPolicy::default(), dmt, levels).unwrap();
        let ids = REGIONS
            .iter()
            .map(|&(base, len)| Some(p.mmap(&mut pm, VirtAddr(base), len, VmaKind::Heap).unwrap()))
            .collect();
        Side { pm, p, ids }
    }

    /// Page-at-a-time population: stop at the first error, as the batch
    /// does.
    fn populate_each(&mut self, pages: &[VirtAddr]) -> Result<u64, OsError> {
        let mut faults = 0;
        for &va in pages {
            faults += u64::from(self.p.populate(&mut self.pm, va)?);
        }
        Ok(faults)
    }

    /// The page-at-a-time `populate_range`: populate, then step past the
    /// page the table now maps.
    fn populate_range_each(&mut self, base: VirtAddr, len: u64) -> Result<u64, OsError> {
        let mut faults = 0;
        let mut va = base;
        while va.raw() < base.raw() + len {
            faults += u64::from(self.p.populate(&mut self.pm, va)?);
            let size = self
                .p
                .page_table()
                .translate(&self.pm, va)
                .map_or(PageSize::Size4K, |(_, s)| s);
            va = VirtAddr(va.align_down(size).raw() + size.bytes());
        }
        Ok(faults)
    }
}

/// The current extent of region `i` (it may have grown).
fn extent(side: &Side, i: usize) -> Option<(u64, u64)> {
    let id = side.ids[i]?;
    side.p
        .address_space()
        .iter()
        .find(|v| v.id == id)
        .map(|v| (v.base.raw(), v.len))
}

/// A page address for pick `x`: mostly inside a live region, one in
/// sixteen anywhere in a window 1 MiB around a region (a bubble, a
/// removed region or a grown tail). Low bits stay random so the page
/// offset is carried through.
fn pick(side: &Side, x: u64) -> VirtAddr {
    let i = (x % REGIONS.len() as u64) as usize;
    let (base, len) = match extent(side, i) {
        Some(e) if !x.is_multiple_of(16) => e,
        _ => (REGIONS[i].0 - MIB, REGIONS[i].1 + 2 * MIB),
    };
    VirtAddr(base + (x >> 8) % len)
}

/// Both sides agree, and both pass their own audit.
fn agree(a: &Side, b: &Side, probes: &[VirtAddr], what: &str) {
    assert_eq!(
        a.pm.buddy().state_hash(),
        b.pm.buddy().state_hash(),
        "{what}: state hash"
    );
    assert_eq!(a.p.faults(), b.p.faults(), "{what}: faults");
    for &va in probes {
        assert_eq!(
            a.p.page_table().translate_entry(&a.pm, va),
            b.p.page_table().translate_entry(&b.pm, va),
            "{what}: leaf of {va}"
        );
    }
    assert_eq!(a.p.audit(&a.pm), b.p.audit(&b.pm), "{what}: audits differ");
    assert_eq!(
        a.p.audit(&a.pm),
        Vec::<String>::new(),
        "{what}: batch audit"
    );
    assert_eq!(
        b.p.audit(&b.pm),
        Vec::<String>::new(),
        "{what}: single audit"
    );
}

fn run(thp: bool, dmt: bool, levels: u8, ops: &[(u8, u64, Vec<u64>)]) {
    let (mut a, mut b) = (Side::new(thp, dmt, levels), Side::new(thp, dmt, levels));
    let mut probes = Vec::new();
    for (step, (op, arg, picks)) in ops.iter().enumerate() {
        let i = (arg % REGIONS.len() as u64) as usize;
        let what = format!("op {step} ({op}, {arg:#x})");
        match op {
            // A batch: sorted, as generated, or with every page twice.
            0..=3 => {
                let mut pages: Vec<VirtAddr> = picks.iter().map(|&x| pick(&a, x)).collect();
                match arg % 3 {
                    0 => pages.sort(),
                    1 => {}
                    _ => pages = pages.iter().chain(pages.iter().rev()).copied().collect(),
                }
                let got = a.p.populate_pages(&mut a.pm, pages.iter().copied());
                assert_eq!(got, b.populate_each(&pages), "{what}: batch result");
                probes.extend(pages);
            }
            // A range, from an unaligned start.
            4 => {
                if let Some((base, len)) = extent(&a, i) {
                    let start = VirtAddr(base + (arg >> 8) % len);
                    let n = (arg >> 40) % (3 * MIB);
                    let got = a.p.populate_range(&mut a.pm, start, n);
                    assert_eq!(got, b.populate_range_each(start, n), "{what}: range");
                    probes.extend((0..n.div_ceil(4096)).map(|k| start + k * 4096));
                }
            }
            5 => {
                if let Some(id) = a.ids[i].take() {
                    b.ids[i] = None;
                    a.p.munmap(&mut a.pm, id).unwrap();
                    b.p.munmap(&mut b.pm, id).unwrap();
                }
            }
            6 => {
                if a.ids[i].is_none() {
                    let (base, len) = REGIONS[i];
                    let va = VirtAddr(base);
                    let got = a.p.mmap(&mut a.pm, va, len, VmaKind::Heap);
                    assert_eq!(got, b.p.mmap(&mut b.pm, va, len, VmaKind::Heap), "{what}");
                    a.ids[i] = got.ok();
                    b.ids[i] = a.ids[i];
                }
            }
            7 => {
                if let Some(id) = a.ids[i] {
                    let delta = 4096 * (1 + (arg >> 8) % 768);
                    let got = a.p.grow(&mut a.pm, id, delta);
                    assert_eq!(got, b.p.grow(&mut b.pm, id, delta), "{what}: grow");
                }
            }
            // Fill a 2 MiB region (each side its own way), then promote.
            _ => {
                if let Some((base, len)) = extent(&a, i) {
                    let hbase = VirtAddr(base + (arg >> 8) % len).align_down(PageSize::Size2M);
                    let pages: Vec<VirtAddr> = (0..512).map(|k| hbase + k * 4096).collect();
                    let got = a.p.populate_pages(&mut a.pm, pages.iter().copied());
                    assert_eq!(got, b.populate_each(&pages), "{what}: fill");
                    let got = a.p.promote(&mut a.pm, hbase);
                    assert_eq!(got, b.p.promote(&mut b.pm, hbase), "{what}: promote");
                    probes.extend(pages);
                }
            }
        }
        agree(&a, &b, &probes, &what);
    }
    // Every page of every window, at the end.
    let all: Vec<VirtAddr> = REGIONS
        .iter()
        .flat_map(|&(base, len)| (base - MIB..base + len + 4 * MIB).step_by(4096))
        .map(VirtAddr)
        .collect();
    agree(&a, &b, &all, "final sweep");
}

fn op() -> impl Strategy<Value = (u8, u64, Vec<u64>)> {
    (
        0u8..9,
        any::<u64>(),
        prop::collection::vec(any::<u64>(), 0..64),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn batch_equals_page_at_a_time(
        thp in any::<bool>(),
        dmt in any::<bool>(),
        five in any::<bool>(),
        ops in prop::collection::vec(op(), 1..14),
    ) {
        run(thp, dmt, if five { 5 } else { 4 }, &ops);
    }
}

/// Every (THP, DMT) pair at least once, whatever the random draw.
#[test]
fn batch_equals_page_at_a_time_in_every_mode() {
    let picks: Vec<u64> = (0..96u64)
        .map(|k| k.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1)
        .collect();
    let ops = vec![
        (0, 0, picks.clone()),
        (8, 1 << 8, Vec::new()),
        (7, 5 << 8, Vec::new()),
        (1, 1, picks.clone()),
        (5, 2, Vec::new()),
        (2, 2, picks.clone()),
        (6, 2, Vec::new()),
        (4, (3 << 40) | (7 << 8), Vec::new()),
        (3, 3, picks),
    ];
    for thp in [false, true] {
        for dmt in [false, true] {
            run(thp, dmt, 4, &ops);
        }
    }
}
