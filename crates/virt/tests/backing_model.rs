//! Guest backing against the page tables it mirrors and against the
//! per-frame enumeration it replaced.
//!
//! `Vm` and `NestedMachine`'s L2 are one type, `GuestMemory`: it records
//! RAM backing once per page and keeps hot-added frames in a separate
//! list. Each owner supplies only how a new page gets backed (a host
//! page mapped in the hPT for a `Vm`; an L1 allocation, its L1 TEA PTE
//! and an sPT sync for L2) and the lower→host step. Random operation
//! sequences, with 4 KiB and 2 MiB pages, must keep:
//!
//! * every backed address's software translation equal to the page
//!   table the hardware walks (the hPT for a `Vm`, the shadow table for
//!   a `NestedMachine`), and every unbacked address untranslated;
//! * exactly the chunks the operations touched backed, with one map
//!   entry per backed page;
//! * for both owners, through the shared guest-physical views, fresh
//!   frames zeroed (for L2, the frames its view hands out and the data
//!   pages population maps, reused ones included) and markers written
//!   earlier untouched;
//! * `Vm::backed_chunks` equal to the model below: the old
//!   `Vm::backed_gframes` list (every backed guest frame, sorted) folded
//!   into `(gPA, hPA, size)` chunks by the old `backed_chunks` loop,
//!   except that hot-added frames are always 4 KiB chunks, as the hPT
//!   maps them.

use dmt_mem::buddy::FrameKind;
use dmt_mem::{MemoryOps, PageSize, Pfn, PhysAddr, PhysMemory, VirtAddr};
use dmt_virt::{NestedMachine, Vm};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

/// Guest RAM of the `Vm` cases: 16 host pages at 2 MiB.
const GUEST_BYTES: u64 = 32 << 20;
/// Probe offset inside each page, so offsets are carried through.
const PROBE: u64 = 0x5a8;

/// The old enumeration: list every backed guest frame in order, then
/// emit 2 MiB where a host-THP guest has a 2 MiB-aligned run of 512 RAM
/// frames starting at a 2 MiB-aligned hPA, 4 KiB otherwise. Frames at or
/// above `ram_frames` are hot-added and always 4 KiB.
fn model_chunks(vm: &Vm, ram_frames: u64) -> Vec<(PhysAddr, PhysAddr, PageSize)> {
    let frames: Vec<u64> = (0..vm.guest_frames())
        .filter(|&g| vm.gpa_to_hpa(PhysAddr(g << 12)).is_some())
        .collect();
    let mut out = Vec::new();
    let mut i = 0;
    while i < frames.len() {
        let g = frames[i];
        let gpa = PhysAddr(g << 12);
        let hpa = vm.gpa_to_hpa(gpa).expect("listed as backed");
        let huge = vm.host_page_size() == PageSize::Size2M
            && g + 512 <= ram_frames
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

/// Markers written through a guest-physical view: guest frame → the
/// marker in its first and last word. Both owners' views are held to the
/// same two properties: fresh frames read as zero, and a marker stays
/// until its frame is freed.
#[derive(Default)]
struct Marks(BTreeMap<u64, u64>);

impl Marks {
    /// Record `[g, g + frames)` as fresh: every frame must read zero
    /// (when the operation zeroes), then the range's first and last
    /// frames get a marker.
    fn fresh(&mut self, view: &mut impl MemoryOps, g: u64, frames: u64, zeroed: bool) {
        if zeroed {
            for f in g..g + frames {
                assert_eq!(view.read_word(PhysAddr(f << 12)), 0, "frame {f:#x}");
                assert_eq!(view.read_word(PhysAddr((f << 12) + 4088)), 0);
            }
        }
        for f in [g, g + frames - 1] {
            let mark = f | (1 << 63);
            view.write_word(PhysAddr(f << 12), mark);
            view.write_word(PhysAddr((f << 12) + 4088), mark);
            self.0.insert(f, mark);
        }
    }

    /// Every marker still reads back.
    fn check(&self, view: &impl MemoryOps) {
        for (&f, &mark) in &self.0 {
            assert_eq!(view.read_word(PhysAddr(f << 12)), mark, "frame {f:#x}");
            assert_eq!(view.read_word(PhysAddr((f << 12) + 4088)), mark);
        }
    }
}

/// What the operations say must be backed, and what was written.
struct VmModel {
    ram_frames: u64,
    host_pages: u64,
    /// Guest-RAM host pages (chunk indexes) that must be backed.
    chunks: BTreeSet<u64>,
    hot_frames: u64,
    marks: Marks,
    /// Single frames that may be freed again.
    singles: Vec<u64>,
}

impl VmModel {
    /// Record `[g, g + frames)` as fresh (see [`Marks::fresh`]) and
    /// backed.
    fn fresh(&mut self, vm: &mut Vm, pm: &mut PhysMemory, g: u64, frames: u64, zeroed: bool) {
        if g >= self.ram_frames {
            assert_eq!(g, self.ram_frames + self.hot_frames, "hot-adds append");
            self.hot_frames += frames;
        } else {
            for f in g..g + frames {
                self.chunks.insert(f / self.host_pages);
            }
        }
        self.marks.fresh(&mut vm.guest_view(pm), g, frames, zeroed);
    }

    fn check(&self, vm: &Vm, pm: &PhysMemory) {
        assert_eq!(vm.guest_frames(), self.ram_frames + self.hot_frames);
        for g in 0..vm.guest_frames() + 600 {
            let gpa = PhysAddr((g << 12) | PROBE);
            let soft = vm.gpa_to_hpa(gpa);
            let hw = vm
                .hpt()
                .translate(pm, VirtAddr(gpa.raw()))
                .map(|(pa, _)| pa);
            assert_eq!(soft, hw, "gPA {gpa} disagrees with the hPT");
            let backed = if g < self.ram_frames {
                self.chunks.contains(&(g / self.host_pages))
            } else {
                g < vm.guest_frames()
            };
            assert_eq!(soft.is_some(), backed, "gPA {gpa} backing");
        }
        assert_eq!(vm.backed_host_pages(), self.chunks.len());
        assert_eq!(vm.backed_chunks(), model_chunks(vm, self.ram_frames));
        self.marks.check(&vm.guest_view_ref(pm));
    }
}

fn run_vm(host: PageSize, ops: &[(u8, u64)]) {
    let mut pm = PhysMemory::new_bytes(512 << 20);
    let mut vm = Vm::new(&mut pm, GUEST_BYTES, host).unwrap();
    let mut model = VmModel {
        ram_frames: vm.guest_frames(),
        host_pages: host.base_pages(),
        chunks: BTreeSet::new(),
        hot_frames: 0,
        marks: Marks::default(),
        singles: Vec::new(),
    };
    for &(op, arg) in ops {
        match op % 7 {
            0 => {
                if let Ok(g) = vm.alloc_guest_frame(&mut pm, FrameKind::Data) {
                    model.fresh(&mut vm, &mut pm, g.0, 1, true);
                    model.singles.push(g.0);
                }
            }
            1 => {
                if let Ok(g) = vm.alloc_guest_huge(&mut pm, FrameKind::HugeData) {
                    model.fresh(&mut vm, &mut pm, g.0, 512, true);
                }
            }
            2 => {
                let frames = 1 + arg % 40;
                if let Ok(g) = vm.alloc_guest_contig(&mut pm, frames, FrameKind::Tea) {
                    model.fresh(&mut vm, &mut pm, g.0, frames, true);
                }
            }
            3 => {
                // Half the hot-adds come from a 4 MiB-aligned host block,
                // so 2 MiB-aligned hot-added runs of 512 frames occur.
                let frames = 1 + arg % 700;
                let host = if arg & (1 << 20) != 0 {
                    pm.buddy_mut().alloc_order(10, FrameKind::Tea).unwrap()
                } else {
                    pm.alloc_contig(frames, FrameKind::Tea).unwrap()
                };
                let gpa = vm.insert_host_pages(&mut pm, host, frames).unwrap();
                model.fresh(&mut vm, &mut pm, gpa.pfn().0, frames, false);
            }
            4 => {
                // Large requests fall back to hot-added host frames.
                let frames = 1 + arg % 2500;
                if let Ok(g) = vm
                    .guest_view(&mut pm)
                    .alloc_contig(frames, FrameKind::PageTable)
                {
                    model.fresh(&mut vm, &mut pm, g.0, frames, true);
                }
            }
            5 => {
                if let Ok(g) = vm
                    .guest_view(&mut pm)
                    .alloc_zeroed_frame(FrameKind::PageTable)
                {
                    model.fresh(&mut vm, &mut pm, g.0, 1, true);
                    model.singles.push(g.0);
                }
            }
            _ => {
                if !model.singles.is_empty() {
                    let i = (arg % model.singles.len() as u64) as usize;
                    let g = model.singles.swap_remove(i);
                    vm.guest_view(&mut pm).free_frame(Pfn(g)).unwrap();
                    model.marks.0.remove(&g);
                }
            }
        }
    }
    model.check(&vm, &pm);
}

/// L2 RAM of the nested cases: 16 L2 pages at 2 MiB.
const L2_BYTES: u64 = 32 << 20;
const L2_BASE: u64 = 0x7f00_0000_0000;

fn run_nested(thp: bool, ops: &[(u8, u64)]) {
    let mut m = NestedMachine::new(512 << 20, 96 << 20, L2_BYTES, thp).unwrap();
    let ram_frames = L2_BYTES >> 12;
    let page = if thp {
        PageSize::Size2M
    } else {
        PageSize::Size4K
    };
    let mut regions: Vec<(u64, u64)> = Vec::new();
    let mut populated = Vec::new();
    let mut marks = Marks::default();
    for &(op, arg) in ops {
        // At most 6 regions: THP gives each two TEAs, and the register
        // file holds 16.
        if regions.is_empty() || (op % 4 == 0 && regions.len() < 6) {
            let base = L2_BASE + ((regions.len() as u64) << 30);
            let len = (1 + arg % 4) << 20;
            m.l2_mmap(VirtAddr(base), len).unwrap();
            regions.push((base, len));
        } else {
            let (base, len) = regions[(arg % regions.len() as u64) as usize];
            let va = VirtAddr(base + (arg >> 8) % len);
            let fault = m.l2_populate(va);
            if fault.is_ok() {
                populated.push(va);
            }
            if fault == Ok(true) {
                // A new L2 data page reads zero, even where it reuses a
                // frame (under THP the 2 MiB TEA's install frees the PMD
                // table it replaces, and a later 2 MiB page can hold that
                // frame), and is then marked through the shared view.
                let (l2pa, _) = m.l2pt.translate(&m.l2_view_ref(), va).unwrap();
                let head = l2pa.align_down(page).pfn().0;
                marks.fresh(&mut m.l2_view(), head, page.base_pages(), true);
            }
        }
    }
    // Hot-added L2 frames: the L2 TEA pages, appended above L2 RAM.
    let hot: u64 = m.l2_mappings().iter().map(|t| t.tea_frames()).sum();
    if let Some(first) = m.l2_mappings().first() {
        assert_eq!(first.tea_base(), Pfn(ram_frames), "TEA pages sit above RAM");
    }
    let spt = m.spt.table();
    let mut chunks = BTreeSet::new();
    for g in 0..ram_frames + hot + 600 {
        let l2pa = PhysAddr((g << 12) | PROBE);
        let soft = m.l2pa_to_l0pa(l2pa);
        let hw = spt.translate(&m.pm, VirtAddr(l2pa.raw())).map(|(pa, _)| pa);
        assert_eq!(soft, hw, "L2PA {l2pa} disagrees with the sPT");
        if g >= ram_frames {
            assert_eq!(soft.is_some(), g < ram_frames + hot, "L2PA {l2pa}");
        } else if soft.is_some() {
            chunks.insert(g / page.base_pages());
        }
    }
    assert_eq!(m.backed_l2_pages(), chunks.len());
    // Every populated page still translates down to L0 through the
    // backing maps, keeping its page offset.
    for va in populated {
        let (l0, _, _) = m.translate_software(va).expect("populated page translates");
        assert_eq!(l0.page_offset(), va.page_offset());
    }
    // The shared view's own allocations and frees, driven by the same
    // operations: a frame it hands out reads as zero even when reused,
    // and no operation since a marker was written has touched it.
    let mut singles = Vec::new();
    for &(op, arg) in ops {
        let mut view = m.l2_view();
        if op % 2 == 0 || singles.is_empty() {
            let g = view.alloc_zeroed_frame(FrameKind::PageTable).unwrap();
            marks.fresh(&mut view, g.0, 1, true);
            singles.push(g.0);
        } else {
            let g = singles.swap_remove((arg % singles.len() as u64) as usize);
            view.free_frame(Pfn(g)).unwrap();
            marks.0.remove(&g);
        }
    }
    marks.check(&m.l2_view_ref());
}

fn ops(max: usize) -> impl Strategy<Value = Vec<(u8, u64)>> {
    prop::collection::vec((any::<u8>(), any::<u64>()), 0..max)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn vm_backing_matches_hpt_and_model_4k(ops in ops(60)) {
        run_vm(PageSize::Size4K, &ops);
    }

    #[test]
    fn vm_backing_matches_hpt_and_model_2m(ops in ops(60)) {
        run_vm(PageSize::Size2M, &ops);
    }

    #[test]
    fn nested_backing_matches_spt_4k(ops in ops(40)) {
        run_nested(false, &ops);
    }

    #[test]
    fn nested_backing_matches_spt_2m(ops in ops(40)) {
        run_nested(true, &ops);
    }
}

/// A hot-added run of 512 frames at a 2 MiB-aligned gPA and hPA is 512
/// 4 KiB chunks under host THP, like the frames after it: the hPT maps
/// every hot-added frame at 4 KiB.
#[test]
fn hot_added_aligned_run_is_4k_chunks() {
    let mut pm = PhysMemory::new_bytes(128 << 20);
    let mut vm = Vm::new(&mut pm, GUEST_BYTES, PageSize::Size2M).unwrap();
    let g = vm.alloc_guest_huge(&mut pm, FrameKind::HugeData).unwrap();
    let host = pm.buddy_mut().alloc_order(10, FrameKind::Tea).unwrap();
    let gpa = vm.insert_host_pages(&mut pm, host, 600).unwrap();
    assert!(gpa.is_aligned(PageSize::Size2M));
    let chunks = vm.backed_chunks();
    assert_eq!(chunks.len(), 1 + 600);
    assert_eq!(
        chunks[0],
        (
            PhysAddr::from_pfn(g),
            vm.gpa_to_hpa(PhysAddr::from_pfn(g)).unwrap(),
            PageSize::Size2M
        )
    );
    for (i, &chunk) in chunks[1..].iter().enumerate() {
        let i = i as u64;
        assert_eq!(
            chunk,
            (
                gpa + (i << 12),
                PhysAddr((host.0 + i) << 12),
                PageSize::Size4K
            )
        );
    }
    assert_eq!(chunks, model_chunks(&vm, GUEST_BYTES >> 12));
    assert_eq!(vm.backed_host_pages(), 1);
}

/// Two hot-adds of 300 frames, each from its own 4 MiB-aligned host
/// block, into an 8 MiB host-THP guest: the first starts a 2 MiB-aligned
/// run in both spaces, but the second call's frames come from the other
/// block, so gPA 0x92c000 (the second call's first frame) must resolve
/// to that block through the software map, the hPT and the chunk list
/// alike.
#[test]
fn hot_adds_from_two_host_blocks_resolve_alike_everywhere() {
    let mut pm = PhysMemory::new_bytes(128 << 20);
    let mut vm = Vm::new(&mut pm, 8 << 20, PageSize::Size2M).unwrap();
    let first = pm.buddy_mut().alloc_order(10, FrameKind::Tea).unwrap();
    let second = pm.buddy_mut().alloc_order(10, FrameKind::Tea).unwrap();
    assert_eq!(
        vm.insert_host_pages(&mut pm, first, 300).unwrap(),
        PhysAddr(0x80_0000)
    );
    assert_eq!(
        vm.insert_host_pages(&mut pm, second, 300).unwrap(),
        PhysAddr(0x92_c000)
    );
    assert!(PhysAddr::from_pfn(first).is_aligned(PageSize::Size2M));
    for gpa in [0x80_0000, 0x92_b000, 0x92_c000, 0x92_c5a8, 0xa5_7000] {
        let gpa = PhysAddr(gpa);
        let soft = vm.gpa_to_hpa(gpa).expect("hot-added frame is backed");
        let hw = vm
            .hpt()
            .translate(&pm, VirtAddr(gpa.raw()))
            .map(|(pa, _)| pa);
        let listed = vm
            .backed_chunks()
            .into_iter()
            .find(|&(g, _, size)| g <= gpa && gpa.raw() < g.raw() + size.bytes())
            .map(|(g, h, _)| PhysAddr(h.raw() + (gpa.raw() - g.raw())));
        assert_eq!(Some(soft), hw, "gPA {gpa}: software map vs hPT");
        assert_eq!(Some(soft), listed, "gPA {gpa}: software map vs chunks");
    }
    assert_eq!(
        vm.gpa_to_hpa(PhysAddr(0x92_c000)),
        Some(PhysAddr::from_pfn(second))
    );
    assert_eq!(vm.backed_chunks(), model_chunks(&vm, 8 << 20 >> 12));
}
