//! Physical memory costs heap for what is allocated, not for what is
//! managed.
//!
//! A counting global allocator keeps the live heap bytes of this thread
//! and their peak. A 1 TiB `PhysMemory` (2^28 frames) is built, a few
//! hundred order-0 and order-9 blocks are allocated in it, spread over
//! the whole range and contiguous from the bottom, and the contiguous
//! frames get page-table contents. The live heap must stay under the
//! sum of what each structure can hold for that, worked out below from
//! the chunk sizes: a dense state byte per frame (256 MiB) or a
//! frame-content directory sized for every frame (4 MiB) would each
//! break it.

use dmt_mem::addr::PhysAddr;
use dmt_mem::buddy::FrameKind;
use dmt_mem::phys::PhysMemory;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// `System` plus this thread's live heap bytes and their peak.
struct CountingAlloc;

thread_local! {
    // Signed: a thread may free what another one allocated.
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

fn grew(bytes: usize) {
    // `try_with`: the allocator also runs while thread locals are torn
    // down, when there is nothing left to count into.
    let _ = LIVE.try_with(|l| {
        l.set(l.get() + bytes as isize);
        let _ = PEAK.try_with(|p| p.set(p.get().max(l.get())));
    });
}

fn shrank(bytes: usize) {
    let _ = LIVE.try_with(|l| l.set(l.get() - bytes as isize));
}

// SAFETY: every method forwards to `System` with the caller's layout
// and pointer unchanged; the counters are const-initialised thread
// locals that never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            shrank(layout.size());
            grew(new_size);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) };
        shrank(layout.size());
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// This thread's live heap bytes.
fn live() -> isize {
    LIVE.with(Cell::get)
}

/// This thread's peak live heap bytes since [`reset_peak`].
fn peak() -> isize {
    PEAK.with(Cell::get)
}

fn reset_peak() {
    PEAK.with(|p| p.set(live()));
}

/// 1 TiB of 4 KiB frames.
const FRAMES: u64 = 1 << 28;
/// Frames (and state bytes) per allocator state chunk; also heads per
/// free-list leaf.
const CHUNK: u64 = 4096;
/// Bytes of one free-list leaf: a summary word and 64 head words.
const LEAF: u64 = 8 + 64 * 8;
/// Orders of the default allocator: 0 to 10.
const ORDERS: u64 = 11;
/// Bytes of a frame's contents and of a 512-slot frame directory.
const FRAME: u64 = 4096;

/// The fixed cost of a fresh allocator: the free list of every order
/// (two vector headers and a count, 56 bytes), a 4-byte slot per state
/// chunk, one pointer per free-list leaf and one summary word per 64
/// leaves at every order, and the leaves of the order-10 list, whose
/// heads are all set. No state chunk and no frame-content directory
/// yet.
fn fresh_bound() -> u64 {
    let chunk_slots = FRAMES / CHUNK;
    let (mut leaf_ptrs, mut top_words) = (0, 0);
    for o in 0..ORDERS {
        let leaves = (FRAMES >> o).div_ceil(CHUNK);
        leaf_ptrs += leaves;
        top_words += leaves.div_ceil(64);
    }
    let max_order_leaves = (FRAMES >> (ORDERS - 1)).div_ceil(CHUNK);
    ORDERS * 56 + 4 * chunk_slots + 8 * (leaf_ptrs + top_words) + max_order_leaves * LEAF
}

#[test]
fn a_terabyte_host_costs_heap_for_what_it_allocates() {
    const CONTIG_0: u64 = 256;
    const CONTIG_9: u64 = 64;
    const SPREAD_0: u64 = 256;
    const SPREAD_9: u64 = 64;
    let mut tables = Vec::with_capacity(CONTIG_0 as usize);
    let before = live();
    reset_peak();
    let mut pm = PhysMemory::new_bytes(FRAMES << 12);
    let fresh = (live() - before) as u64;
    assert!(
        fresh <= fresh_bound(),
        "a fresh 1 TiB host holds {fresh} heap bytes, bound {}",
        fresh_bound()
    );

    // Page tables and huge pages from the bottom, then frames and huge
    // pages spread over the whole terabyte.
    for _ in 0..CONTIG_0 {
        tables.push(pm.alloc_zeroed_frame(FrameKind::PageTable).unwrap());
    }
    let mut top = 0;
    for _ in 0..CONTIG_9 {
        let p = pm.buddy_mut().alloc_order(9, FrameKind::HugeData).unwrap();
        top = top.max(p.0 + 512);
    }
    for (i, t) in (0..).zip(&tables) {
        top = top.max(t.0 + 1);
        pm.write_word(PhysAddr::from_pfn(*t) + 8 * (i % 512), i);
    }
    assert!(top < 16 * CHUNK, "contiguous allocations reach frame {top}");
    let mut cursor = 0x5eed;
    for _ in 0..SPREAD_0 {
        pm.buddy_mut()
            .alloc_single_spread(FrameKind::Data, &mut cursor)
            .unwrap();
    }
    for _ in 0..SPREAD_9 {
        pm.buddy_mut()
            .alloc_block_spread(9, FrameKind::HugeData, &mut cursor)
            .unwrap();
    }
    assert_eq!(
        pm.buddy().free_frames(),
        FRAMES - (CONTIG_0 + SPREAD_0) - 512 * (CONTIG_9 + SPREAD_9)
    );

    // What the allocations may add:
    // - state chunks: those below `top`, which the contiguous ones fill,
    //   and one per spread frame or order-9 block (512 divides 4096), in
    //   a slab that doubles as it grows;
    // - free-list leaves: the contiguous allocations split blocks into
    //   the lowest leaf of each order, and splitting a spread
    //   allocation's order-10 block inserts the other pieces into at
    //   most one new leaf at each order below 10;
    // - frame contents: one frame per page table, and the frames below
    //   `top` need `top / 512` directories, found through a list of
    //   pointers that doubles as it grows.
    let spread = SPREAD_0 + SPREAD_9;
    let chunks = top.div_ceil(CHUNK) + spread;
    let state = chunks.next_power_of_two() * CHUNK;
    let leaves = ORDERS * LEAF + spread * (ORDERS - 1) * LEAF;
    let contents = CONTIG_0 * FRAME + top.div_ceil(512) * (FRAME + 2 * 8);
    let bound = fresh_bound() + state + leaves + contents;
    let used = (live() - before) as u64;
    let high = (peak() - before) as u64;
    assert!(
        used <= bound,
        "a 1 TiB host holds {used} heap bytes after {} allocations, bound {bound}",
        CONTIG_0 + CONTIG_9 + SPREAD_0 + SPREAD_9
    );
    assert!(high <= bound, "peak {high} heap bytes, bound {bound}");
    // A few MiB, where one state byte per frame alone is 256 MiB.
    assert!(bound < 8 << 20, "bound {bound}");
    drop(pm);
}
