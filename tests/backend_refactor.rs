//! Bit-identity harness for the design-backend refactor: every
//! available `(env, design, thp)` cell of the matrix is swept over one
//! shared GUPS trace at test scale — with telemetry capture on and the
//! differential oracle wrapped around every rig — and the deterministic
//! outcome (`RunStats`, coverage bits, telemetry) is pinned against a
//! golden snapshot generated *before* the rigs were split into
//! registry-dispatched backends. Any behavioural drift in a backend's
//! setup order, translate path, or exit accounting shows up as a byte
//! diff here.
//!
//! To regenerate after an intentional behaviour change:
//!
//! ```sh
//! DMT_REGEN_GOLDEN=1 cargo test --test backend_refactor
//! ```
//!
//! then commit the updated `tests/golden/backend_cells.json`.

use dmt::sim::report::{telemetry_json, Json};
use dmt::sim::{Design, Engine, Env, Runner, SweepConfig};
use dmt::sim::{Setup, SimError};

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

/// The full availability matrix over one benchmark (GUPS), both THP
/// modes, at test scale.
fn cells() -> SweepConfig {
    SweepConfig {
        envs: vec![Env::Native, Env::Virt, Env::Nested],
        designs: ALL_DESIGNS.to_vec(),
        thp: vec![false, true],
        benchmarks: vec![2], // GUPS
        ..SweepConfig::test()
    }
}

fn golden_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("backend_cells.json")
}

/// Sweep the full matrix under `runner` and render the deterministic
/// outcome snapshot (schema `dmt-backend-cells-v1`).
fn sweep_snapshot(runner: &Runner) -> String {
    let report = runner.sweep(&cells()).expect("sweep runs");

    // Only the deterministic outcome goes into the snapshot — no host
    // wall-clock fields (cf. `SweepRow::outcome`).
    let rows: Vec<Json> = report
        .rows
        .iter()
        .map(|r| {
            Json::obj()
                .set("workload", Json::Str(r.workload.clone()))
                .set("env", Json::Str(r.env.name().into()))
                .set("design", Json::Str(r.design.name().into()))
                .set("thp", Json::Bool(r.thp))
                .set("accesses", Json::U64(r.stats.accesses))
                .set("walks", Json::U64(r.stats.walks))
                .set("walk_cycles", Json::U64(r.stats.walk_cycles))
                .set("walk_refs", Json::U64(r.stats.walk_refs))
                .set("data_cycles", Json::U64(r.stats.data_cycles))
                .set("fallbacks", Json::U64(r.stats.fallbacks))
                .set("exits", Json::U64(r.stats.exits))
                .set("faults", Json::U64(r.stats.faults))
                .set("coverage_bits", Json::U64(r.coverage.to_bits()))
                .set(
                    "telemetry",
                    telemetry_json(r.telemetry.as_ref().expect("telemetry on")),
                )
        })
        .collect();
    let snapshot = Json::obj()
        .set("schema", Json::Str("dmt-backend-cells-v1".into()))
        .set("rows", Json::Arr(rows));
    format!("{snapshot}\n")
}

#[test]
fn per_cell_outcomes_match_pre_refactor_golden() {
    // Oracle + telemetry on: the pinned snapshot covers the hooks too
    // (a backend that drifted only under the wrapper would still fail).
    // The runner default engine serves every TLB miss with one
    // `translate` call, which the oracle checks, and charges the data
    // access at its PA, so this pins each backend's miss path against
    // the scalar-era snapshot.
    let runner = Runner::builder()
        .telemetry(true)
        .rig_wrapper(dmt::oracle::wrapper())
        .build();
    let rendered = sweep_snapshot(&runner);

    let path = golden_path();
    if std::env::var("DMT_REGEN_GOLDEN")
        .map(|v| v == "1")
        .unwrap_or(false)
    {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &rendered).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); regenerate with DMT_REGEN_GOLDEN=1",
            path.display()
        )
    });
    assert_eq!(
        rendered,
        golden,
        "per-cell outcome drifted from the pre-refactor snapshot {}; a backend \
         changed behaviour (if intentional, regenerate with DMT_REGEN_GOLDEN=1)",
        path.display()
    );
}

/// The scalar reference engine must reproduce the *same* golden file as
/// the default engine: the snapshot pins not just each engine against
/// history but both engines against each other at the full matrix.
#[test]
fn scalar_engine_cells_match_the_same_golden() {
    let runner = Runner::builder()
        .engine(Engine::Scalar)
        .telemetry(true)
        .rig_wrapper(dmt::oracle::wrapper())
        .build();
    let rendered = sweep_snapshot(&runner);

    let path = golden_path();
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); regenerate with DMT_REGEN_GOLDEN=1",
            path.display()
        )
    });
    assert_eq!(
        rendered,
        golden,
        "scalar reference engine drifted from the shared snapshot {}; the batched \
         and scalar engines no longer agree at the full matrix",
        path.display()
    );
}

/// A tiny setup sufficient to build any rig: one 4 MiB region, a handful
/// of touched pages.
fn tiny_setup() -> Setup {
    use dmt::workloads::gen::{Access, Region};
    let base = 1u64 << 30;
    let regions = vec![Region {
        base: dmt::mem::VirtAddr(base),
        len: 4 << 20,
        label: "cell",
    }];
    let trace: Vec<Access> = (0..16)
        .map(|i| Access::read(dmt::mem::VirtAddr(base + i * 4096)))
        .collect();
    Setup::new(regions, &trace)
}

/// Every `(Design, Env)` cell constructs iff the registry (and therefore
/// `Design::available_in`) says it exists; unavailable cells fail with
/// the *typed* N/A error, not a panic or a stringly message.
#[test]
fn registry_cells_construct_iff_available() {
    use dmt::sim::native_rig::NativeRig;
    use dmt::sim::nested_rig::NestedRig;
    use dmt::sim::virt_rig::VirtRig;

    let setup = tiny_setup();
    for design in ALL_DESIGNS {
        for env in [Env::Native, Env::Virt, Env::Nested] {
            let available = design.available_in(env);
            let result: Result<Box<dyn dmt::sim::Rig>, SimError> = match env {
                Env::Native => {
                    NativeRig::with_setup(design, false, &setup).map(|r| Box::new(r) as _)
                }
                Env::Virt => VirtRig::with_setup(design, false, &setup).map(|r| Box::new(r) as _),
                Env::Nested => {
                    NestedRig::with_setup(design, false, &setup).map(|r| Box::new(r) as _)
                }
            };
            match (available, result) {
                (true, Ok(rig)) => {
                    use dmt::sim::Rig;
                    assert_eq!(rig.design(), design, "{design:?}/{env:?}");
                    assert_eq!(rig.env(), env, "{design:?}/{env:?}");
                }
                (true, Err(e)) => {
                    panic!("{design:?}/{env:?} is available but failed to build: {e}")
                }
                (false, Ok(_)) => {
                    panic!("{design:?}/{env:?} is a Table 6 N/A cell but built a rig")
                }
                (false, Err(e)) => assert_eq!(
                    e,
                    SimError::Unavailable { design, env },
                    "{design:?}/{env:?} must fail with the typed N/A error, got: {e}"
                ),
            }
        }
    }
}
