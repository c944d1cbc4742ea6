//! `BuddyAllocator::state_hash` against byte-serial FNV-1a.
//!
//! The hash skips runs of free frames with one multiplication by a power
//! of the FNV prime. On allocators of at least 2^22 frames (so runs span
//! millions of frames and the exponent needs every squaring step), it
//! must equal FNV-1a taken one state byte at a time: all free, all
//! allocated, runs at unaligned frames and on chunk edges, and a free
//! run that ends on the last frame.

use dmt_mem::buddy::{BuddyAllocator, FrameKind, FrameState};
use dmt_mem::Pfn;

/// FNV-1a over the state bytes, one byte at a time.
fn byte_serial(a: &BuddyAllocator) -> u64 {
    (0..a.total_frames()).fold(0xcbf2_9ce4_8422_2325, |h, f| {
        let s = match a.frame_state(Pfn(f)) {
            FrameState::Free => 0,
            FrameState::Allocated(k) => k as u8,
        };
        (h ^ u64::from(s)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// 2^22 frames and a ragged tail of 13, fewer than the 64 frames the
/// hash skips at a time.
const FRAMES: u64 = (1 << 22) + 13;

#[test]
fn all_free_and_all_allocated() {
    let mut a = BuddyAllocator::new(FRAMES);
    assert_eq!(a.state_hash(), byte_serial(&a));
    a.reserve_range(0, FRAMES, FrameKind::Data).unwrap();
    assert_eq!(a.state_hash(), byte_serial(&a));
}

#[test]
fn unaligned_runs_and_a_free_tail() {
    let mut a = BuddyAllocator::new(FRAMES);
    let runs = [
        (1, 1, FrameKind::Data),
        (7, 13, FrameKind::PageTable),
        (63, 2, FrameKind::Tea),
        (127, 1, FrameKind::HugeData),
        (4093, 700, FrameKind::Reserved),
        ((1 << 20) - 1, 3, FrameKind::Data),
        ((1 << 21) + 9, 64, FrameKind::Tea),
    ];
    for (start, n, kind) in runs {
        a.reserve_range(start, n, kind).unwrap();
        assert_eq!(a.state_hash(), byte_serial(&a), "after {start}+{n}");
    }
    // The last frame alone allocated; then free runs to the end, from
    // inside the ragged tail and from the chunk before it.
    a.reserve_range(FRAMES - 1, 1, FrameKind::Data).unwrap();
    assert_eq!(a.state_hash(), byte_serial(&a), "last frame allocated");
    a.free_contig(Pfn(FRAMES - 1), 1).unwrap();
    a.reserve_range(FRAMES - 12, 3, FrameKind::Data).unwrap();
    assert_eq!(a.state_hash(), byte_serial(&a), "free run in the tail");
    a.free_contig(Pfn(FRAMES - 12), 3).unwrap();
    a.reserve_range(FRAMES - 70, 3, FrameKind::Data).unwrap();
    assert_eq!(a.state_hash(), byte_serial(&a), "free run past the tail");
}

/// A value recorded before the hash skipped free runs.
#[test]
fn fresh_allocator_hash_is_pinned() {
    let a = BuddyAllocator::new((3 << 20) + 5);
    assert_eq!(a.state_hash(), 0xb1f8_ad05_f06b_e94f);
}
