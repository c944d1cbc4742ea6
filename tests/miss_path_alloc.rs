//! A TLB miss allocates nothing: every walker and fetcher returns a
//! `Copy` outcome and reports its steps to a `()` sink on the replay
//! path, so heap traffic during a replay does not grow with its length.
//!
//! A counting global allocator keeps one count per thread. For every
//! registered (env, design) cell under both THP modes, a freshly built
//! rig replays the first N accesses of a walk-bound trace (GUPS, at a
//! footprint well past the TLB's reach for the page size, so most
//! accesses miss) and a second fresh rig replays all 2N. The longer
//! replay must not allocate more often than the shorter one: whatever a
//! replay allocates (the span buffer, the cache hierarchy, walk-cache
//! tables reaching their steady size) is paid once, not per miss. No
//! design's tables grow during replay, so no cell is exempt.

use dmt::sim::{Design, Env, Runner, Setup};
use dmt::workloads::bench7::nth_benchmark;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// `System` plus a per-thread count of allocation calls.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the allocator also runs while thread locals are torn
    // down, when there is nothing left to count into.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's layout
// and pointer unchanged; the counter is a const-initialised thread
// local that never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

const ENVS: [Env; 3] = [Env::Native, Env::Virt, Env::Nested];

/// Accesses in the shorter replay.
const N: usize = 3_000;

/// GUPS footprint multiplier (256 MiB each) per THP mode: 4 KiB pages
/// outgrow the TLB at once, 2 MiB pages only past its 3 GiB reach.
fn gups_mult(thp: bool) -> u64 {
    if thp {
        32
    } else {
        1
    }
}

#[test]
fn replay_allocations_do_not_grow_with_trace_length() {
    let runner = Runner::builder().build();
    let mut cells = 0;
    for thp in [false, true] {
        let w = nth_benchmark(2, gups_mult(thp)).expect("GUPS");
        let trace = w.trace(2 * N, 1);
        let setup = Setup::of_workload(w.as_ref(), &trace);
        for env in ENVS {
            for design in Design::ALL {
                if !design.available_in(env) {
                    continue;
                }
                let cell = format!("{env:?}/{design:?} thp={thp}");
                let mut counts = [0u64; 2];
                let mut walks = [0u64; 2];
                for (k, len) in [N, 2 * N].into_iter().enumerate() {
                    let mut rig = runner.build_rig(env, design, thp, &setup).unwrap();
                    let before = allocs();
                    let (stats, _) = runner.replay(rig.as_mut(), &trace[..len], 0);
                    counts[k] = allocs() - before;
                    walks[k] = stats.walks;
                }
                assert!(
                    walks[1] > walks[0] + N as u64 / 2,
                    "{cell}: the trace must be walk-bound ({walks:?} walks)"
                );
                assert!(
                    counts[1] <= counts[0],
                    "{cell}: {} allocations replaying {} accesses, {} replaying {N}",
                    counts[1],
                    2 * N,
                    counts[0]
                );
                cells += 1;
            }
        }
    }
    assert_eq!(
        cells,
        2 * (8 + 10 + 2),
        "every registered cell, both THP modes"
    );
}
