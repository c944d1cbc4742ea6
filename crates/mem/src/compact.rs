//! Movable-page compaction (defragmentation) in service of contiguous
//! allocations.
//!
//! DMT-Linux "instructs the memory allocator to defragment the memory to
//! resolve moveable fragmentations" when a TEA allocation fails (§4.3).
//! [`make_contig`] finds a window of frames containing only free or movable
//! pages, migrates the movable ones out, and reserves the window. The
//! resulting [`Migration`] list lets the OS layer patch any page-table
//! entries that pointed at moved frames.

use crate::addr::Pfn;
use crate::buddy::{BuddyAllocator, FrameKind, FrameState};
use crate::{MemError, Result};

/// A single page migration performed during compaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Migration {
    /// Frame the contents moved from (now free or reserved for the caller).
    pub src: Pfn,
    /// Frame the contents moved to.
    pub dst: Pfn,
}

/// Result of a successful [`make_contig`] call.
#[derive(Debug, Clone)]
pub struct CompactionResult {
    /// First frame of the newly reserved contiguous run.
    pub start: Pfn,
    /// Migrations the caller must reflect in its page tables.
    pub migrations: Vec<Migration>,
}

/// Create a contiguous allocation of `n` frames by migrating movable pages
/// out of the cheapest eligible window, then reserving that window with the
/// given kind.
///
/// # Errors
///
/// Returns [`MemError::NoContiguousRun`] when no window of `n` frames exists
/// in which every frame is free or movable, or when there is not enough free
/// memory elsewhere to absorb the displaced pages.
pub fn make_contig(
    buddy: &mut BuddyAllocator,
    n: u64,
    kind: FrameKind,
) -> Result<CompactionResult> {
    if n == 0 {
        return Err(MemError::ZeroSized);
    }
    let total = buddy.total_frames();
    if n > total {
        return Err(MemError::NoContiguousRun { frames: n });
    }
    let start = find_window(buddy, n).ok_or(MemError::NoContiguousRun { frames: n })?;
    let end = start + n;

    // Collect movable frames that must leave the window.
    let movers: Vec<Pfn> = (start..end)
        .map(Pfn)
        .filter(|p| matches!(buddy.frame_state(*p), FrameState::Allocated(k) if k.movable()))
        .collect();

    // Check feasibility: free frames outside the window must absorb them.
    let free_inside = (start..end)
        .filter(|f| buddy.frame_state(Pfn(*f)) == FrameState::Free)
        .count() as u64;
    let free_outside = buddy.free_frames() - free_inside;
    if (movers.len() as u64) > free_outside {
        return Err(MemError::NoContiguousRun { frames: n });
    }

    let mut migrations = Vec::with_capacity(movers.len());
    // Frames we allocated but that landed inside the window; returned later.
    let mut parked = Vec::new();
    for src in movers {
        let dst = loop {
            let cand = buddy.alloc_order(0, FrameKind::Data)?;
            if cand.0 >= start && cand.0 < end {
                parked.push(cand);
            } else {
                break cand;
            }
        };
        buddy.free_order(src, 0)?;
        migrations.push(Migration { src, dst });
    }
    for p in parked {
        buddy.free_order(p, 0)?;
    }
    buddy.reserve_range(start, n, kind)?;
    buddy.note_compaction();
    Ok(CompactionResult {
        start: Pfn(start),
        migrations,
    })
}

/// Find the lowest window of `n` frames containing no unmovable allocations.
fn find_window(buddy: &BuddyAllocator, n: u64) -> Option<u64> {
    let total = buddy.total_frames();
    let mut run_start = 0u64;
    let mut run_len = 0u64;
    for f in 0..total {
        let eligible = match buddy.frame_state(Pfn(f)) {
            FrameState::Free => true,
            FrameState::Allocated(k) => k.movable(),
        };
        if eligible {
            if run_len == 0 {
                run_start = f;
            }
            run_len += 1;
            if run_len >= n {
                return Some(run_start);
            }
        } else {
            run_len = 0;
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Build a checkerboard of movable data frames (even pfns allocated).
    fn checkerboard(frames: u64) -> BuddyAllocator {
        let mut buddy = BuddyAllocator::new(frames);
        let mut held = Vec::new();
        while buddy.free_frames() > 0 {
            held.push(buddy.alloc_order(0, FrameKind::Data).unwrap());
        }
        held.sort();
        for p in held.iter().skip(1).step_by(2) {
            buddy.free_order(*p, 0).unwrap();
        }
        buddy
    }

    #[test]
    fn compaction_creates_contiguity_from_checkerboard() {
        let mut buddy = checkerboard(256);
        assert!(buddy.alloc_contig(16, FrameKind::Tea).is_err());
        let res = make_contig(&mut buddy, 16, FrameKind::Tea).unwrap();
        assert!(!res.migrations.is_empty());
        for f in res.start.0..res.start.0 + 16 {
            assert_eq!(
                buddy.frame_state(Pfn(f)),
                FrameState::Allocated(FrameKind::Tea)
            );
        }
        // Every migration's destination lies outside the reserved window.
        for m in &res.migrations {
            assert!(m.dst.0 < res.start.0 || m.dst.0 >= res.start.0 + 16);
        }
    }

    #[test]
    fn compaction_respects_unmovable_frames() {
        let mut buddy = BuddyAllocator::new(64);
        // Pin a page-table frame every 8 frames: no window of 16 exists.
        for f in (0..64).step_by(8) {
            buddy.reserve_range(f, 1, FrameKind::PageTable).unwrap();
        }
        assert!(matches!(
            make_contig(&mut buddy, 16, FrameKind::Tea),
            Err(MemError::NoContiguousRun { .. })
        ));
        // A window of 7 fits between pins.
        let res = make_contig(&mut buddy, 7, FrameKind::Tea).unwrap();
        assert!(res.migrations.is_empty());
    }

    #[test]
    fn compaction_fails_when_memory_truly_full() {
        let mut buddy = BuddyAllocator::new(32);
        while buddy.free_frames() > 0 {
            buddy.alloc_order(0, FrameKind::Data).unwrap();
        }
        assert!(make_contig(&mut buddy, 4, FrameKind::Tea).is_err());
    }

    #[test]
    fn free_frame_count_is_conserved() {
        let mut buddy = checkerboard(128);
        let free_before = buddy.free_frames();
        let _res = make_contig(&mut buddy, 8, FrameKind::Tea).unwrap();
        // Movers swap 1:1 with free frames, so the free pool shrinks by
        // exactly the window size.
        assert_eq!(buddy.free_frames(), free_before - 8);
    }
}
