//! `PhysMemory` against a plain per-word reference map.
//!
//! The model is a `BTreeMap` from word address to value: absent words
//! read as zero, freeing or zeroing a frame drops its words, and
//! copying a frame replaces the destination's words with the source's.
//! Random operation sequences must give the same result on every
//! operation, and every word of every touched frame must agree at the
//! end — both for the memory that ran the whole sequence and for a
//! `Clone` taken part-way through, which later operations must not
//! reach.

use dmt_mem::{FrameKind, Pfn, PhysAddr, PhysMemory};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Frames in the memory under test: three full directories of the
/// frame table plus a partial fourth.
const FRAMES: u64 = 3 * 512 + 3;
const WORDS: u64 = 512;

/// Frames the word operations target: the first and last frames,
/// directory edges, frames whose low bits match (a table indexed with
/// too few bits would alias them), and frames past the end of memory
/// (which read as zero until written, like any other).
const POOL: [u64; 11] = [
    0,
    1,
    256,
    511,
    512,
    513,
    FRAMES / 2,
    FRAMES - 2,
    FRAMES - 1,
    FRAMES + 3,
    40 * 512 + 7,
];

/// Word slots the word operations target, so reads meet earlier writes.
const SLOTS: [u64; 6] = [0, 1, 2, 255, 510, 511];

#[derive(Clone, Default)]
struct Model {
    words: BTreeMap<u64, u64>,
}

impl Model {
    fn read(&self, addr: u64) -> u64 {
        self.words.get(&addr).copied().unwrap_or(0)
    }

    fn zero(&mut self, pfn: u64) {
        let base = pfn << 12;
        let dead: Vec<u64> = self
            .words
            .range(base..base + 4096)
            .map(|(&a, _)| a)
            .collect();
        for a in dead {
            self.words.remove(&a);
        }
    }

    fn copy(&mut self, src: u64, dst: u64) {
        let content: Vec<(u64, u64)> = self
            .words
            .range(src << 12..(src + 1) << 12)
            .map(|(&a, &v)| (a - (src << 12), v))
            .collect();
        self.zero(dst);
        for (off, v) in content {
            self.words.insert((dst << 12) + off, v);
        }
    }
}

fn assert_same(pm: &PhysMemory, model: &Model, frames: &[u64], when: &str) {
    for &f in frames {
        for w in 0..WORDS {
            let addr = (f << 12) + 8 * w;
            assert_eq!(
                pm.read_word(PhysAddr(addr)),
                model.read(addr),
                "{when}: frame {f:#x} word {w}"
            );
        }
    }
}

fn run(ops: &[(u8, u64, u64)], clone_at: usize) {
    let mut pm = PhysMemory::new_frames(FRAMES);
    let mut model = Model::default();
    let mut singles: Vec<Pfn> = Vec::new();
    let mut runs: Vec<(Pfn, u64)> = Vec::new();
    let mut touched: Vec<u64> = POOL.to_vec();
    let mut snapshot = None;
    for (step, &(op, a, b)) in ops.iter().enumerate() {
        if step == clone_at {
            snapshot = Some((pm.clone(), model.clone()));
        }
        // A target frame: the fixed pool or a frame we allocated.
        let frame = |x: u64| {
            let i = (x % (POOL.len() + singles.len()) as u64) as usize;
            POOL.get(i)
                .copied()
                .unwrap_or_else(|| singles[i - POOL.len()].0)
        };
        let addr = |x: u64| (frame(x) << 12) + 8 * SLOTS[(x >> 32) as usize % SLOTS.len()];
        match op {
            0..=24 => {
                let at = addr(a);
                pm.write_word(PhysAddr(at), b);
                model.words.insert(at, b);
            }
            25..=44 => {
                let at = addr(a);
                assert_eq!(pm.read_word(PhysAddr(at)), model.read(at), "step {step}");
            }
            45..=57 => {
                let at = addr(a);
                let f = |old: u64| (b & 1 == 0).then_some(old ^ b);
                let old = model.read(at);
                assert_eq!(pm.rmw_word(PhysAddr(at), f), old, "step {step}");
                if let Some(new) = f(old) {
                    model.words.insert(at, new);
                }
            }
            58..=62 => {
                let f = frame(a);
                pm.zero_frame(Pfn(f));
                model.zero(f);
            }
            63..=69 => {
                let (src, dst) = (frame(a), frame(b));
                pm.copy_frame(Pfn(src), Pfn(dst));
                model.copy(src, dst);
            }
            70..=77 => {
                if let Ok(f) = pm.alloc_zeroed_frame(FrameKind::PageTable) {
                    model.zero(f.0);
                    singles.push(f);
                    touched.push(f.0);
                }
            }
            78..=83 => {
                if !singles.is_empty() {
                    let f = singles.swap_remove(a as usize % singles.len());
                    pm.free_frame(f).expect("freeing an allocated frame");
                    model.zero(f.0);
                }
            }
            84..=87 => {
                let n = 1 + a % 8;
                if let Ok(f) = pm.alloc_contig(n, FrameKind::Tea) {
                    // Contiguous allocation does not zero; the run's
                    // frames keep whatever they held.
                    runs.push((f, n));
                    touched.extend(f.0..f.0 + n);
                }
            }
            88..=91 => {
                if !runs.is_empty() {
                    let (f, n) = runs.swap_remove(a as usize % runs.len());
                    pm.free_contig(f, n).expect("freeing an allocated run");
                    for g in f.0..f.0 + n {
                        model.zero(g);
                    }
                }
            }
            _ => {
                // Any aligned address at all reads as the model says.
                let at = a & !7;
                assert_eq!(pm.read_word(PhysAddr(at)), model.read(at), "step {step}");
            }
        }
    }
    assert_same(&pm, &model, &touched, "end of sequence");
    if let Some((pm, model)) = snapshot {
        assert_same(&pm, &model, &touched, "clone");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn phys_memory_matches_per_word_model(
        ops in prop::collection::vec((0u8..100, any::<u64>(), any::<u64>()), 1..400),
        clone_at in 0usize..400,
    ) {
        run(&ops, clone_at);
    }
}

/// Writes to the first and last word of memory, and a clone that must
/// not see later writes.
#[test]
fn edge_frames_and_clone_independence() {
    let mut pm = PhysMemory::new_frames(FRAMES);
    let first = PhysAddr(0);
    let last = PhysAddr((FRAMES << 12) - 8);
    pm.write_word(first, 1);
    pm.write_word(last, 2);
    let snap = pm.clone();
    pm.write_word(first, 3);
    pm.zero_frame(Pfn(FRAMES - 1));
    assert_eq!((pm.read_word(first), pm.read_word(last)), (3, 0));
    assert_eq!((snap.read_word(first), snap.read_word(last)), (1, 2));
    // The highest aligned address of all.
    assert_eq!(pm.read_word(PhysAddr(!7)), 0);
}
