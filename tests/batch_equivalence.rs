//! Scalar-vs-default engine equivalence: the hard correctness gate
//! behind the fast path (DESIGN.md §13).
//!
//! Both engines run one loop body per access, and a TLB miss is one
//! `Rig::translate` on both. They differ only in where the miss's data
//! access is charged: the scalar reference charges the ground truth
//! `Rig::data_pa`, the default engine the translation's own PA. For any
//! trace, every design, every environment, both THP modes, the two must
//! produce bit-identical `RunStats` and bit-identical telemetry
//! (histograms, counters, series). Every replay samples the
//! fragmentation series every [`SAMPLE_EVERY`] measured accesses, so the
//! `on_measured` hook's firing order is compared too.
//! `translate_pa_equals_data_pa` checks the per-miss contract itself,
//! call by call.
//!
//! Property inputs are random multi-region access sequences whose
//! lengths straddle 256 (the span length a streamed replay buffers) and
//! whose warmup cut lands anywhere, so partial spans and warmup
//! transitions are exercised.

use dmt::cache::hierarchy::MemoryHierarchy;
use dmt::mem::{PageSize, VirtAddr};
use dmt::sim::report::telemetry_json;
use dmt::sim::rig::Setup;
use dmt::sim::{Design, Engine, Env, Runner};
use dmt::workloads::gen::{Access, Region};
use proptest::prelude::*;

const ALL_DESIGNS: [Design; 10] = [
    Design::Vanilla,
    Design::Shadow,
    Design::Fpt,
    Design::Ecpt,
    Design::Agile,
    Design::Asap,
    Design::Dmt,
    Design::PvDmt,
    Design::Vbi,
    Design::Seg,
];

const ENVS: [Env; 3] = [Env::Native, Env::Virt, Env::Nested];

/// Series sampling interval: prime and far below the 256-access span,
/// so samples land at every offset inside a span.
const SAMPLE_EVERY: u64 = 7;

/// Table-span-aligned VMA slots (same layout discipline as
/// `tests/conformance.rs`): inputs pick a region and a page, so every
/// generated sequence is a valid multi-VMA workload.
const REGION_BASES: [u64; 3] = [1 << 30, 3 << 30, 5 << 30];
const REGION_LEN: u64 = 4 << 20;

fn build(ops: &[(u8, u16, u16)]) -> (Setup, Vec<Access>) {
    let regions: Vec<Region> = REGION_BASES
        .iter()
        .map(|&base| Region {
            base: VirtAddr(base),
            len: REGION_LEN,
            label: "equiv",
        })
        .collect();
    let pages_per_region = REGION_LEN / PageSize::Size4K.bytes();
    let trace: Vec<Access> = ops
        .iter()
        .map(|&(r, p, off)| {
            let base = REGION_BASES[r as usize % REGION_BASES.len()];
            let page = (p as u64) % pages_per_region;
            Access::read(VirtAddr(
                base + page * PageSize::Size4K.bytes() + (off as u64) % 4096,
            ))
        })
        .collect();
    let setup = Setup::new(regions, &trace);
    (setup, trace)
}

/// Replay `trace` through one (env, design, thp) cell with both
/// engines (telemetry on, series sampled) and fail on the first field
/// that differs.
fn assert_cell_equivalent(
    env: Env,
    design: Design,
    thp: bool,
    setup: &Setup,
    trace: &[Access],
    warmup: usize,
) -> Result<(), String> {
    let scalar = Runner::builder()
        .engine(Engine::Scalar)
        .telemetry(true)
        .build();
    let batched = Runner::builder().telemetry(true).build();
    let mut runs = Vec::new();
    for (label, runner) in [("scalar", &scalar), ("batched", &batched)] {
        let mut rig = runner
            .build_rig(env, design, thp, setup)
            .map_err(|e| format!("{env:?}/{design:?} thp={thp}: build: {e}"))?;
        let (stats, telemetry) = runner.replay_sampled(rig.as_mut(), trace, warmup, SAMPLE_EVERY);
        let t = telemetry.ok_or_else(|| format!("{label}: telemetry runner must capture"))?;
        runs.push((label, stats, telemetry_json(&t).to_string()));
    }
    let (_, s_stats, s_tel) = &runs[0];
    let (_, b_stats, b_tel) = &runs[1];
    if s_stats != b_stats {
        return Err(format!(
            "{env:?}/{design:?} thp={thp} warmup={warmup} len={}: RunStats diverged\n  scalar: {s_stats:?}\n batched: {b_stats:?}",
            trace.len()
        ));
    }
    if s_tel != b_tel {
        return Err(format!(
            "{env:?}/{design:?} thp={thp} warmup={warmup} len={}: telemetry diverged",
            trace.len()
        ));
    }
    Ok(())
}

fn assert_all_cells(trace_ops: &[(u8, u16, u16)], warmup: usize) -> Result<(), String> {
    let (setup, trace) = build(trace_ops);
    let warmup = warmup % trace.len().max(1);
    for env in ENVS {
        for design in ALL_DESIGNS {
            if !design.available_in(env) {
                continue;
            }
            for thp in [false, true] {
                assert_cell_equivalent(env, design, thp, &setup, &trace, warmup)?;
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    /// Random traces straddling the 256-access span boundary, random
    /// warmup cut: every available cell, both engines, bit-identical
    /// stats and telemetry.
    #[test]
    fn all_cells_scalar_and_batched_agree(
        ops in prop::collection::vec((any::<u8>(), any::<u16>(), any::<u16>()), 200..640),
        warmup in any::<u16>(),
    ) {
        if let Err(msg) = assert_all_cells(&ops, warmup as usize) {
            prop_assert!(false, "{}", msg);
        }
    }
}

/// A pseudo-random but fixed op stream of `n` ops.
fn fixed_ops(n: usize) -> Vec<(u8, u16, u16)> {
    let mut x = 0x9E3779B97F4A7C15u64;
    (0..n)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x as u8, (x >> 8) as u16, (x >> 24) as u16)
        })
        .collect()
}

/// Deterministic span-boundary sweep: trace lengths one either side of
/// 256 (and multiples), with the warmup cut landing exactly on, before,
/// and after a boundary. Narrower than the property above but pinned,
/// so a boundary regression fails by name.
#[test]
fn block_boundary_lengths_agree() {
    // Long enough for every prefix.
    let ops = fixed_ops(513);
    for len in [255usize, 256, 257, 511, 512, 513] {
        for warmup in [0usize, 1, 255, 256, 257] {
            if warmup >= len {
                continue;
            }
            let (setup, trace) = build(&ops[..len]);
            for (env, design) in [
                (Env::Native, Design::Vanilla),
                (Env::Native, Design::Dmt),
                (Env::Virt, Design::Dmt),
                (Env::Native, Design::Vbi),
                (Env::Virt, Design::Seg),
            ] {
                assert_cell_equivalent(env, design, false, &setup, &trace, warmup)
                    .unwrap_or_else(|msg| panic!("len={len} warmup={warmup}: {msg}"));
            }
        }
    }
}

/// The per-miss contract, call by call: for every registered (env,
/// design) cell, both THP modes, and every VA of the trace in order,
/// `translate`'s PA is exactly `data_pa(va)` — the address the default
/// engine charges a miss's data access at, where the scalar reference
/// charges the ground truth. Each access then charges the hierarchy, as
/// the engine would.
#[test]
fn translate_pa_equals_data_pa() {
    let (setup, trace) = build(&fixed_ops(513));
    let runner = Runner::builder().build();
    for env in ENVS {
        for design in ALL_DESIGNS {
            if !design.available_in(env) {
                continue;
            }
            for thp in [false, true] {
                let cell = format!("{env:?}/{design:?} thp={thp}");
                let mut rig = runner.build_rig(env, design, thp, &setup).unwrap();
                let mut hier = MemoryHierarchy::default();
                for (i, a) in trace.iter().enumerate() {
                    let tr = rig.translate(a.va, &mut hier);
                    let truth = rig.data_pa(a.va);
                    assert_eq!(tr.pa, truth, "{cell}: PA of access {i} at {}", a.va);
                    hier.access(tr.pa.raw());
                }
            }
        }
    }
}
