//! `BuddyAllocator::audit` against the per-frame audit it replaced.
//!
//! The reference is that audit as it stood, with a `Vec<bool>` marking
//! every frame a listed block covers and a final pass over all frames.
//! Allocators of the `buddy_model.rs` shapes are driven by random
//! operations, then given one random corruption (a state byte flipped
//! between free and allocated, a head bit set inside or around a listed
//! block, a head bit dropped, the free counter bumped, or a block split
//! into two unmerged buddies), and the two audits must agree: `Err`
//! exactly when the reference says so, with the same message.

use dmt_mem::buddy::{BuddyAllocator, FrameKind, FrameState};
use dmt_mem::Pfn;
use proptest::prelude::*;

/// The per-frame audit, reading the allocator through its test hooks.
/// Each order's bitmap self-check runs first in the real audit; the
/// hooks keep summary bits and counts consistent, so it passes on every
/// allocator here and is left out.
fn reference_audit(a: &BuddyAllocator, max_order: u8) -> Result<(), String> {
    let total = a.total_frames();
    let state = |f: u64| a.frame_state(Pfn(f));
    let counted = (0..total).filter(|&f| state(f) == FrameState::Free).count() as u64;
    if counted != a.free_frames() {
        return Err(format!(
            "free_frames counter {} != {} frames marked Free",
            a.free_frames(),
            counted
        ));
    }
    let mut covered = vec![false; total as usize];
    for order in 0..=max_order {
        let n = 1u64 << order;
        let heads = ((total - 1) >> order) + 1;
        for head in (0..heads)
            .filter(|&i| a.is_listed(order, i))
            .map(|i| i << order)
        {
            if head + n > total {
                return Err(format!(
                    "free block {head} order {order} extends past total {total}"
                ));
            }
            for f in head..head + n {
                if state(f) != FrameState::Free {
                    return Err(format!(
                        "frame {f} in free block {head} order {order} is allocated"
                    ));
                }
                if covered[f as usize] {
                    return Err(format!("frame {f} covered by two free blocks"));
                }
                covered[f as usize] = true;
            }
            if order < max_order {
                let buddy = head ^ n;
                if buddy + n <= total && head < buddy && a.is_listed(order, buddy >> order) {
                    return Err(format!(
                        "buddies {head} and {buddy} both free at order {order} (unmerged)"
                    ));
                }
            }
        }
    }
    for f in 0..total {
        let s = state(f);
        if (s == FrameState::Free) != covered[f as usize] {
            return Err(format!(
                "frame {f}: state {s:?} disagrees with free-list coverage {}",
                covered[f as usize]
            ));
        }
    }
    Ok(())
}

/// The shapes of `buddy_model.rs`: `(frames, max_order)`.
const SHAPES: [(u64, u8); 6] = [
    (1, 10),
    (1000, 10),
    (3 * 4096 + 7, 9),
    (3 * 4096 + 7, 13),
    (777, 3),
    (2 * 4096 + 5, 0),
];

const KINDS: [FrameKind; 5] = [
    FrameKind::Data,
    FrameKind::HugeData,
    FrameKind::PageTable,
    FrameKind::Tea,
    FrameKind::Reserved,
];

/// Every listed block as `(order, head)`.
fn listed(a: &BuddyAllocator, max_order: u8) -> Vec<(u8, u64)> {
    let total = a.total_frames();
    (0..=max_order)
        .flat_map(|o| {
            (0..((total - 1) >> o) + 1)
                .filter(move |&i| a.is_listed(o, i))
                .map(move |i| (o, i << o))
        })
        .collect()
}

/// Drive a fresh allocator of `shape` with `ops` (allocations of
/// orders, runs and spread frames, and frees), ignoring failures.
fn churned(shape: usize, ops: &[(u8, u64)]) -> BuddyAllocator {
    let (frames, max_order) = SHAPES[shape];
    let mut a = BuddyAllocator::with_max_order(frames, max_order);
    let mut cursor = 0x5eed;
    let mut live: Vec<(u64, u64)> = Vec::new();
    for &(op, arg) in ops {
        let kind = KINDS[(arg >> 40) as usize % KINDS.len()];
        match op % 5 {
            0 => {
                let order = (arg % u64::from(max_order + 1)) as u8;
                if let Ok(p) = a.alloc_order(order, kind) {
                    live.push((p.0, 1 << order));
                }
            }
            1 => {
                let n = 1 + arg % (frames / 4 + 1);
                if let Ok(p) = a.alloc_contig(n, kind) {
                    live.push((p.0, n));
                }
            }
            2 => {
                if let Ok(p) = a.alloc_single_spread(kind, &mut cursor) {
                    live.push((p.0, 1));
                }
            }
            _ if !live.is_empty() => {
                let (start, n) = live.swap_remove((arg >> 8) as usize % live.len());
                // Reserved frames are never freed: that free fails.
                let _ = a.free_contig(Pfn(start), n);
            }
            _ => {}
        }
    }
    a
}

/// Apply corruption `kind` (0 to 5), choosing where from `pick`. Returns
/// false when the allocator has nothing the corruption applies to.
fn corrupt(a: &mut BuddyAllocator, max_order: u8, kind: u8, pick: u64) -> bool {
    let total = a.total_frames();
    let blocks = listed(a, max_order);
    match kind % 6 {
        // Flip a state byte between free and allocated.
        0 => {
            let s = a.state_byte_mut(pick % total);
            *s = if *s == 0 {
                1 + (pick >> 32) as u8 % 5
            } else {
                0
            };
        }
        // Set a head bit at a lower order inside a listed block.
        1 => {
            let inner: Vec<_> = blocks.iter().filter(|&&(o, _)| o > 0).collect();
            let Some(&&(o, head)) = inner.get((pick >> 8) as usize % inner.len().max(1)) else {
                return false;
            };
            let u = (pick % u64::from(o)) as u8;
            let at = head + (((pick >> 32) % (1 << (o - u))) << u);
            a.set_listed(u, at >> u, true);
        }
        // Set a head bit at a higher order around a listed block.
        2 => {
            let outer: Vec<_> = blocks.iter().filter(|&&(o, _)| o < max_order).collect();
            let Some(&&(o, head)) = outer.get((pick >> 8) as usize % outer.len().max(1)) else {
                return false;
            };
            let u = o + 1 + (pick % u64::from(max_order - o)) as u8;
            a.set_listed(u, head >> u, true);
        }
        // Drop a head bit.
        3 => {
            let Some(&(o, head)) = blocks.get((pick >> 8) as usize % blocks.len().max(1)) else {
                return false;
            };
            a.set_listed(o, head >> o, false);
        }
        // Bump the free counter.
        4 => {
            let c = a.free_frames_mut();
            *c = if pick & 1 == 0 {
                *c + 1 + (pick >> 1) % 3
            } else {
                c.saturating_sub(1 + (pick >> 1) % 3)
            };
        }
        // Split a listed block into two unmerged buddies.
        _ => {
            let inner: Vec<_> = blocks.iter().filter(|&&(o, _)| o > 0).collect();
            let Some(&&(o, head)) = inner.get((pick >> 8) as usize % inner.len().max(1)) else {
                return false;
            };
            a.set_listed(o, head >> o, false);
            a.set_listed(o - 1, head >> (o - 1), true);
            a.set_listed(o - 1, (head >> (o - 1)) | 1, true);
        }
    }
    true
}

fn check(a: &BuddyAllocator, max_order: u8, when: &str) {
    assert_eq!(a.audit(), reference_audit(a, max_order), "{when}");
}

fn ops(max: usize) -> impl Strategy<Value = Vec<(u8, u64)>> {
    prop::collection::vec((any::<u8>(), any::<u64>()), 0..max)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn one_corruption_gives_the_per_frame_audit_verdict(
        shape in 0..SHAPES.len(),
        ops in ops(60),
        kind in any::<u8>(),
        pick in any::<u64>(),
    ) {
        let max_order = SHAPES[shape].1;
        let mut a = churned(shape, &ops);
        check(&a, max_order, "before corruption");
        prop_assert!(a.audit().is_ok());
        if corrupt(&mut a, max_order, kind, pick) {
            check(&a, max_order, &format!("corruption {}", kind % 6));
        }
    }

    #[test]
    fn two_corruptions_give_the_per_frame_audit_verdict(
        shape in 0..SHAPES.len(),
        ops in ops(60),
        kinds in (any::<u8>(), any::<u8>()),
        picks in (any::<u64>(), any::<u64>()),
    ) {
        let max_order = SHAPES[shape].1;
        let mut a = churned(shape, &ops);
        corrupt(&mut a, max_order, kinds.0, picks.0);
        corrupt(&mut a, max_order, kinds.1, picks.1);
        check(&a, max_order, &format!("corruptions {} and {}", kinds.0 % 6, kinds.1 % 6));
    }
}

/// On a fixed churned allocator, the corruptions reach every message of
/// the audit but the bitmap self-check's, and each time the two audits
/// agree.
#[test]
fn corruptions_reach_every_violation() {
    let ops: Vec<(u8, u64)> = (0..40u64)
        .map(|i| ((i * 7 % 5) as u8, i.wrapping_mul(0x9e37_79b9_7f4a_7c15)))
        .collect();
    let base = churned(2, &ops);
    let expect = [
        (0, "free_frames counter"),
        (1, "covered by two free blocks"),
        (2, "covered by two free blocks"),
        (2, "is allocated"),
        (2, "extends past total"),
        (2, "(unmerged)"),
        (3, "disagrees with free-list coverage false"),
        (4, "free_frames counter"),
        (5, "(unmerged)"),
    ];
    for (kind, needle) in expect {
        let hit = (0..256u64).any(|i| {
            let mut a = base.clone();
            let pick = i.wrapping_mul(0xd1b5_4a32_d192_ed03);
            corrupt(&mut a, 9, kind, pick) && {
                let e = a.audit();
                assert_eq!(
                    e,
                    reference_audit(&a, 9),
                    "corruption {kind} pick {pick:#x}"
                );
                e.is_err_and(|e| e.contains(needle))
            }
        });
        assert!(hit, "no corruption {kind} reported {needle:?}");
    }
}

/// A block spanning several leaves of a lower order's bitmap, with a
/// lower head listed in the second: the fresh `(3 * 4096 + 7, 13)`
/// allocator is one order-13 block at frame 0 plus its tail, and no
/// order-0 head below frame 12288 was ever listed.
#[test]
fn a_lower_head_past_an_empty_leaf_is_found() {
    let (frames, max_order) = SHAPES[3];
    let mut a = BuddyAllocator::with_max_order(frames, max_order);
    a.set_listed(0, 4096 + 5, true);
    let e = a.audit();
    assert_eq!(e, Err("frame 4101 covered by two free blocks".to_string()));
    assert_eq!(e, reference_audit(&a, max_order));
}
