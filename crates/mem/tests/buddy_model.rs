//! `BuddyAllocator` against the `BTreeSet` allocator it replaced.
//!
//! The model is the allocator as it stood before its free lists became
//! head bitmaps and its frame states bytes: one `BTreeSet<u64>` of block
//! heads per order and one `FrameState` per frame. Random operation
//! sequences, over frame counts that are not multiples of 1024 and
//! several maximum orders, must give the same return value on every
//! operation (so the same frames, in the same order, and the same
//! errors), the same free-list shape, runs, churn counters and state
//! hash after every operation, and an allocator whose `audit` passes.

use dmt_mem::buddy::{covering_order, AllocCounters, BuddyAllocator, FrameKind, FrameState};
use dmt_mem::{MemError, Pfn};
use proptest::prelude::*;
use std::collections::BTreeSet;

type Result<T> = std::result::Result<T, MemError>;

/// The `BTreeSet` buddy allocator, copied with the parts the operations
/// below reach.
struct Model {
    free_lists: Vec<BTreeSet<u64>>,
    state: Vec<FrameState>,
    free_frames: u64,
    max_order: u8,
    splits: u64,
    merges: u64,
}

impl Model {
    fn new(frames: u64, max_order: u8) -> Self {
        let mut a = Model {
            free_lists: vec![BTreeSet::new(); max_order as usize + 1],
            state: vec![FrameState::Free; frames as usize],
            free_frames: frames,
            max_order,
            splits: 0,
            merges: 0,
        };
        a.add_free_range(0, frames);
        a.merges = 0;
        a
    }

    fn total(&self) -> u64 {
        self.state.len() as u64
    }

    fn free_blocks_of_order(&self, order: u8) -> u64 {
        self.free_lists
            .get(order as usize)
            .map_or(0, |l| l.len() as u64)
    }

    fn free_block_count(&self) -> u64 {
        self.free_lists.iter().map(|l| l.len() as u64).sum()
    }

    fn largest_free_block(&self) -> u64 {
        (0..=self.max_order)
            .rev()
            .find(|&o| !self.free_lists[o as usize].is_empty())
            .map_or(0, |o| 1 << o)
    }

    fn alloc_order(&mut self, order: u8, kind: FrameKind) -> Result<Pfn> {
        if order > self.max_order {
            return Err(MemError::OrderTooLarge {
                order,
                max: self.max_order,
            });
        }
        let mut found = None;
        for o in order..=self.max_order {
            if let Some(&head) = self.free_lists[o as usize].iter().next() {
                found = Some((o, head));
                break;
            }
        }
        let (mut o, head) = found.ok_or(MemError::OutOfMemory)?;
        self.free_lists[o as usize].remove(&head);
        while o > order {
            o -= 1;
            self.free_lists[o as usize].insert(head + (1 << o));
            self.splits += 1;
        }
        let n = 1u64 << order;
        self.set(head, n, FrameState::Allocated(kind));
        self.free_frames -= n;
        Ok(Pfn(head))
    }

    fn free_order(&mut self, pfn: Pfn, order: u8) -> Result<()> {
        if order > self.max_order {
            return Err(MemError::OrderTooLarge {
                order,
                max: self.max_order,
            });
        }
        let n = 1u64 << order;
        self.check_allocated_run(pfn, n)?;
        if pfn.0 & (n - 1) != 0 {
            return Err(MemError::InvalidFree { pfn: pfn.0 });
        }
        self.set(pfn.0, n, FrameState::Free);
        self.free_frames += n;
        self.insert_and_merge(pfn.0, order);
        Ok(())
    }

    fn alloc_contig(&mut self, n: u64, kind: FrameKind) -> Result<Pfn> {
        if n == 0 {
            return Err(MemError::ZeroSized);
        }
        if n > self.free_frames {
            return Err(MemError::NoContiguousRun { frames: n });
        }
        let order = covering_order(n);
        if order <= self.max_order {
            if let Ok(head) = self.alloc_order(order, kind) {
                let excess = (1u64 << order) - n;
                if excess > 0 {
                    self.set(head.0 + n, excess, FrameState::Free);
                    self.free_frames += excess;
                    self.add_free_range(head.0 + n, excess);
                }
                return Ok(head);
            }
        }
        let start = self
            .find_free_run(n)
            .ok_or(MemError::NoContiguousRun { frames: n })?;
        self.reserve_range(start, n, kind)?;
        Ok(Pfn(start))
    }

    fn free_contig(&mut self, pfn: Pfn, n: u64) -> Result<()> {
        if n == 0 {
            return Err(MemError::ZeroSized);
        }
        self.check_allocated_run(pfn, n)?;
        self.set(pfn.0, n, FrameState::Free);
        self.free_frames += n;
        self.add_free_range(pfn.0, n);
        Ok(())
    }

    fn expand_in_place(&mut self, pfn: Pfn, n: u64, extra: u64, kind: FrameKind) -> Result<()> {
        let start = pfn.0 + n;
        let end = start + extra;
        if end > self.total() {
            return Err(MemError::NoContiguousRun { frames: extra });
        }
        for f in start..end {
            if self.state[f as usize] != FrameState::Free {
                return Err(MemError::NoContiguousRun { frames: extra });
            }
        }
        self.reserve_range(start, extra, kind)
    }

    fn range_is_free(&self, pfn: Pfn, n: u64) -> bool {
        let end = pfn.0 + n;
        end <= self.total() && (pfn.0..end).all(|f| self.state[f as usize] == FrameState::Free)
    }

    fn find_free_run(&self, n: u64) -> Option<u64> {
        let mut run_start = 0u64;
        let mut run_len = 0u64;
        for f in 0..self.total() {
            if self.state[f as usize] == FrameState::Free {
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

    fn reserve_range(&mut self, start: u64, n: u64, kind: FrameKind) -> Result<()> {
        let end = start + n;
        if end > self.total() {
            return Err(MemError::RangeNotFree { pfn: start });
        }
        for f in start..end {
            if self.state[f as usize] != FrameState::Free {
                return Err(MemError::RangeNotFree { pfn: f });
            }
        }
        let mut cursor = start;
        while cursor < end {
            let (head, order) = self
                .containing_free_block(cursor)
                .expect("frame marked free must belong to a free block");
            self.free_lists[order as usize].remove(&head);
            let block_end = head + (1 << order);
            if head < start {
                self.add_free_range(head, start - head);
            }
            if block_end > end {
                self.add_free_range(end, block_end - end);
            }
            cursor = block_end;
        }
        self.set(start, n, FrameState::Allocated(kind));
        self.free_frames -= n;
        Ok(())
    }

    fn alloc_single_spread(&mut self, kind: FrameKind, cursor: &mut u64) -> Result<Pfn> {
        let total = self.total();
        for _ in 0..16 {
            *cursor = cursor
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let f = (*cursor >> 11) % total;
            if self.state[f as usize] == FrameState::Free {
                self.reserve_range(f, 1, kind)?;
                return Ok(Pfn(f));
            }
        }
        self.alloc_order(0, kind)
    }

    fn alloc_block_spread(&mut self, order: u8, kind: FrameKind, cursor: &mut u64) -> Result<Pfn> {
        let n = 1u64 << order;
        let total = self.total();
        if total >= n {
            for _ in 0..16 {
                *cursor = cursor
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let f = ((*cursor >> 11) % (total - n + 1)) & !(n - 1);
                if self.range_is_free(Pfn(f), n) {
                    self.reserve_range(f, n, kind)?;
                    return Ok(Pfn(f));
                }
            }
        }
        self.alloc_order(order, kind)
    }

    fn relocate_frame(&mut self, src: Pfn) -> Result<Pfn> {
        let kind = match self.state[src.0 as usize] {
            FrameState::Allocated(k) if k.movable() => k,
            _ => return Err(MemError::NotMovable { pfn: src.0 }),
        };
        let dst = self.alloc_order(0, kind)?;
        self.free_order(src, 0)?;
        Ok(dst)
    }

    /// FNV-1a over the frame states, with the byte per state written out.
    fn state_hash(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for s in &self.state {
            let byte: u8 = match s {
                FrameState::Free => 0,
                FrameState::Allocated(FrameKind::Data) => 1,
                FrameState::Allocated(FrameKind::HugeData) => 2,
                FrameState::Allocated(FrameKind::PageTable) => 3,
                FrameState::Allocated(FrameKind::Tea) => 4,
                FrameState::Allocated(FrameKind::Reserved) => 5,
            };
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    fn set(&mut self, start: u64, n: u64, s: FrameState) {
        for f in start..start + n {
            self.state[f as usize] = s;
        }
    }

    fn check_allocated_run(&self, pfn: Pfn, n: u64) -> Result<()> {
        let end = pfn.0 + n;
        if end > self.total() {
            return Err(MemError::InvalidFree { pfn: pfn.0 });
        }
        for f in pfn.0..end {
            match self.state[f as usize] {
                FrameState::Allocated(FrameKind::Reserved) | FrameState::Free => {
                    return Err(MemError::InvalidFree { pfn: f })
                }
                FrameState::Allocated(_) => {}
            }
        }
        Ok(())
    }

    fn containing_free_block(&self, f: u64) -> Option<(u64, u8)> {
        for order in 0..=self.max_order {
            let head = f & !((1u64 << order) - 1);
            if self.free_lists[order as usize].contains(&head) {
                return Some((head, order));
            }
        }
        None
    }

    fn add_free_range(&mut self, mut start: u64, mut n: u64) {
        while n > 0 {
            let align_order = if start == 0 {
                self.max_order
            } else {
                (start.trailing_zeros() as u8).min(self.max_order)
            };
            let size_order = (63 - n.leading_zeros() as u8).min(self.max_order);
            let order = align_order.min(size_order);
            self.insert_and_merge(start, order);
            start += 1u64 << order;
            n -= 1u64 << order;
        }
    }

    fn insert_and_merge(&mut self, mut head: u64, mut order: u8) {
        while order < self.max_order {
            let buddy = head ^ (1u64 << order);
            if buddy + (1 << order) <= self.total()
                && self.free_lists[order as usize].remove(&buddy)
            {
                head = head.min(buddy);
                order += 1;
                self.merges += 1;
            } else {
                break;
            }
        }
        self.free_lists[order as usize].insert(head);
    }
}

/// `(frames, max_order)` of the allocators under test: one frame, a
/// total below one default max-order block, three 4096-frame spans plus
/// a ragged tail, and maximum orders on both sides of the default 10.
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

/// A live allocation: `(start, frames, order)`, with `order` set when it
/// came whole from an order allocation.
type Live = (u64, u64, Option<u8>);

fn assert_same(a: &BuddyAllocator, m: &Model, probe: u64, when: &str) {
    assert_eq!(a.total_frames(), m.total(), "{when}");
    assert_eq!(a.free_frames(), m.free_frames, "{when}: free frames");
    for o in 0..=m.max_order + 1 {
        assert_eq!(
            a.free_blocks_of_order(o),
            m.free_blocks_of_order(o),
            "{when}: free blocks of order {o}"
        );
    }
    assert_eq!(a.free_block_count(), m.free_block_count(), "{when}");
    assert_eq!(a.largest_free_block(), m.largest_free_block(), "{when}");
    for n in [1, 2, 3, 17, 1 + probe % 700] {
        assert_eq!(a.find_free_run(n), m.find_free_run(n), "{when}: run {n}");
    }
    assert_eq!(
        a.alloc_counters(),
        AllocCounters {
            splits: m.splits,
            merges: m.merges,
            compactions: 0
        },
        "{when}: counters"
    );
    assert_eq!(a.state_hash(), m.state_hash(), "{when}: state hash");
    if let Err(e) = a.audit() {
        panic!("{when}: audit: {e}");
    }
}

fn run(shape: usize, ops: &[(u8, u64)]) {
    let (frames, max_order) = SHAPES[shape % SHAPES.len()];
    let mut a = BuddyAllocator::with_max_order(frames, max_order);
    let mut m = Model::new(frames, max_order);
    let (mut cur_a, mut cur_m) = (0x5eed_1234u64, 0x5eed_1234u64);
    let mut live: Vec<Live> = Vec::new();
    assert_same(&a, &m, 0, "fresh");
    for (step, &(op, arg)) in ops.iter().enumerate() {
        let kind = KINDS[(arg >> 40) as usize % KINDS.len()];
        let pick = |live: &Vec<Live>| (arg >> 8) as usize % live.len();
        let when = format!("step {step}: op {op} arg {arg:#x}");
        match op % 10 {
            0 => {
                let order = (arg % u64::from(max_order + 2)) as u8;
                let r = a.alloc_order(order, kind);
                assert_eq!(r, m.alloc_order(order, kind), "{when}");
                if let Ok(p) = r {
                    live.push((p.0, 1 << order, Some(order)));
                }
            }
            1 if !live.is_empty() => {
                let (start, n, order) = live.swap_remove(pick(&live));
                let r = match order {
                    Some(o) => a.free_order(Pfn(start), o),
                    None => a.free_contig(Pfn(start), n),
                };
                let rm = match order {
                    Some(o) => m.free_order(Pfn(start), o),
                    None => m.free_contig(Pfn(start), n),
                };
                assert_eq!(r, rm, "{when}");
            }
            2 => {
                let n = 1 + arg % (frames / 3 + 2);
                let r = a.alloc_contig(n, kind);
                assert_eq!(r, m.alloc_contig(n, kind), "{when}");
                if let Ok(p) = r {
                    live.push((p.0, n, None));
                }
            }
            3 => {
                let start = arg % frames;
                let n = 1 + (arg >> 16) % 64;
                let r = a.reserve_range(start, n, kind);
                assert_eq!(r, m.reserve_range(start, n, kind), "{when}");
                if r.is_ok() {
                    live.push((start, n, None));
                }
            }
            4 if !live.is_empty() => {
                let i = pick(&live);
                let (start, n, _) = live[i];
                let extra = 1 + arg % 40;
                let r = a.expand_in_place(Pfn(start), n, extra, kind);
                assert_eq!(r, m.expand_in_place(Pfn(start), n, extra, kind), "{when}");
                if r.is_ok() {
                    live[i] = (start, n + extra, None);
                }
            }
            5 => {
                let r = a.alloc_single_spread(kind, &mut cur_a);
                assert_eq!(r, m.alloc_single_spread(kind, &mut cur_m), "{when}");
                assert_eq!(cur_a, cur_m, "{when}: cursor");
                if let Ok(p) = r {
                    live.push((p.0, 1, Some(0)));
                }
            }
            6 => {
                let order = (arg % u64::from(max_order.min(9) + 1)) as u8;
                let r = a.alloc_block_spread(order, kind, &mut cur_a);
                assert_eq!(r, m.alloc_block_spread(order, kind, &mut cur_m), "{when}");
                assert_eq!(cur_a, cur_m, "{when}: cursor");
                if let Ok(p) = r {
                    live.push((p.0, 1 << order, Some(order)));
                }
            }
            7 => {
                // A live single frame, or any frame (pinned, free or part
                // of a larger allocation: the errors must agree too).
                let singles: Vec<usize> = (0..live.len()).filter(|&i| live[i].1 == 1).collect();
                let (src, slot) = if arg & 1 == 0 && !singles.is_empty() {
                    let i = singles[(arg >> 8) as usize % singles.len()];
                    (live[i].0, Some(i))
                } else {
                    ((arg >> 8) % frames, None)
                };
                let r = a.relocate_frame(Pfn(src));
                assert_eq!(r, m.relocate_frame(Pfn(src)), "{when}");
                if let (Ok(dst), Some(i)) = (r, slot) {
                    live[i] = (dst.0, 1, Some(0));
                }
            }
            8 => {
                // Frees of arbitrary frames: mostly invalid or misaligned,
                // at every order up to one past the largest.
                let pfn = Pfn((arg >> 8) % (frames + 2));
                let order = (arg % u64::from(max_order + 2)) as u8;
                let r = a.free_order(pfn, order);
                assert_eq!(r, m.free_order(pfn, order), "{when}");
                if r.is_ok() {
                    live.retain(|&(s, _, _)| s != pfn.0);
                }
            }
            _ => {
                let n = arg % 3;
                let pfn = Pfn((arg >> 8) % frames);
                let r = a.free_contig(pfn, n);
                assert_eq!(r, m.free_contig(pfn, n), "{when}");
                if r.is_ok() {
                    live.retain(|&(s, _, _)| s != pfn.0);
                }
            }
        }
        assert_same(&a, &m, arg, &when);
    }
    for f in 0..frames {
        assert_eq!(a.frame_state(Pfn(f)), m.state[f as usize], "frame {f}");
    }
}

fn ops(max: usize) -> impl Strategy<Value = Vec<(u8, u64)>> {
    prop::collection::vec((any::<u8>(), any::<u64>()), 0..max)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn bitmap_allocator_matches_the_btreeset_model(shape in 0..SHAPES.len(), ops in ops(80)) {
        run(shape, &ops);
    }
}

/// Long single-frame churn on an allocator large enough to span several
/// leaves at every low order: spread allocations, frees in a shuffled
/// order and relocations, as a guest build and teardown do. The total is
/// a multiple of 8, so buddy pairs of orders 0 to 2 end exactly at the
/// last frame.
#[test]
fn long_spread_churn_matches_the_model() {
    let frames = 5 * 4096 + 8;
    let mut a = BuddyAllocator::new(frames);
    let mut m = Model::new(frames, 10);
    let (mut cur_a, mut cur_m) = (7u64, 7u64);
    let mut held = Vec::new();
    for i in 0..6000u64 {
        let r = a.alloc_single_spread(FrameKind::Data, &mut cur_a);
        assert_eq!(r, m.alloc_single_spread(FrameKind::Data, &mut cur_m));
        held.push(r.unwrap());
        if i % 3 == 2 {
            let victim = held.swap_remove((i as usize * 7919) % held.len());
            assert_eq!(a.free_order(victim, 0), m.free_order(victim, 0));
        }
        if i % 97 == 0 {
            let j = (i as usize) % held.len();
            let r = a.relocate_frame(held[j]);
            assert_eq!(r, m.relocate_frame(held[j]));
            held[j] = r.unwrap();
        }
        if i % 500 == 0 {
            assert_same(&a, &m, i, &format!("spread {i}"));
        }
    }
    for p in held {
        assert_eq!(a.free_order(p, 0), m.free_order(p, 0));
    }
    assert_same(&a, &m, 0, "drained");
    assert_eq!(a.free_frames(), frames);
}
