//! Golden images of what a rig build produces. For every
//! `Scale::test()` cell — each bench7 workload, both THP modes, every
//! available (env, design) pair — the machine is built and its state
//! after population is reduced to a few numbers:
//!
//! * the buddy `state_hash` of every physical space (host; guest; L1
//!   and L2 when nested) and the fault count;
//! * a digest of the guest backing chunks (`Vm::backed_chunks`, and
//!   L2's `(L2PA, L1PA, size)` chunks when nested);
//! * a digest of each touched page's leaf — size, physical address and
//!   flags, or its absence — in every table the build fills: the native
//!   radix table; the guest table and the shadow table (keyed by gVA);
//!   the L2 table and the shadow table (keyed by the page's L2PA); plus
//!   the shadow table's sync-event count.
//!
//! The snapshot pins table population order (which frame each table
//! page and data page gets), so any change to how pages are populated
//! that is meant to be bit-identical must leave it unchanged.
//!
//! To regenerate after an intentional change to what builds produce:
//!
//! ```sh
//! DMT_REGEN_GOLDEN=1 cargo test --release --test rig_images
//! ```
//!
//! then commit the updated `tests/golden/rig_images.json`.

use dmt::mem::{PageSize, PhysAddr, VirtAddr};
use dmt::pgtable::pte::PteFlags;
use dmt::sim::experiments::scaled_benchmark;
use dmt::sim::native_rig::NativeRig;
use dmt::sim::nested_rig::NestedRig;
use dmt::sim::report::Json;
use dmt::sim::virt_rig::VirtRig;
use dmt::sim::{Design, Env, Rig, Scale, Setup};
use dmt::virt::{NestedMachine, VirtMachine};

/// An order-sensitive 64-bit digest of a sequence of words.
#[derive(Default)]
struct Digest(u64);

impl Digest {
    fn word(&mut self, x: u64) {
        self.0 = (self.0.rotate_left(7) ^ x).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    /// One leaf: its size, physical address and flags, or a marker for
    /// an absent translation.
    fn leaf(&mut self, leaf: Option<(PhysAddr, PageSize, PteFlags)>) {
        match leaf {
            Some((pa, size, flags)) => {
                self.word(size.bytes());
                self.word(pa.raw());
                self.word(flags.0);
            }
            None => self.word(u64::MAX),
        }
    }

    fn chunks(&mut self, chunks: &[(PhysAddr, PhysAddr, PageSize)]) {
        self.word(chunks.len() as u64);
        for &(g, l, size) in chunks {
            self.word(g.raw());
            self.word(l.raw());
            self.word(size.bytes());
        }
    }

    fn hex(&self) -> Json {
        Json::Str(format!("{:016x}", self.0))
    }
}

fn hash(x: u64) -> Json {
    Json::Str(format!("{x:016x}"))
}

fn native_image(setup: &Setup, design: Design, thp: bool) -> Json {
    let rig = NativeRig::with_setup(design, thp, setup).expect("native rig builds");
    let m = rig.machine();
    let mut leaves = Digest::default();
    for &va in &setup.pages {
        leaves.leaf(m.proc_.page_table().translate_entry(&m.pm, va));
    }
    Json::obj()
        .set("host_hash", hash(m.pm.buddy().state_hash()))
        .set("faults", Json::U64(rig.faults()))
        .set("native_leaves", leaves.hex())
}

fn virt_image(setup: &Setup, design: Design, thp: bool) -> Json {
    let rig = VirtRig::with_setup(design, thp, setup).expect("virt rig builds");
    let m: &VirtMachine = rig.machine();
    let view = m.vm.guest_view_ref(&m.pm);
    let (mut guest, mut spt) = (Digest::default(), Digest::default());
    for &va in &setup.pages {
        guest.leaf(m.gpt.translate_entry(&view, va));
        spt.leaf(m.spt.table().translate_entry(&m.pm, va));
    }
    let mut chunks = Digest::default();
    chunks.chunks(&m.vm.backed_chunks());
    Json::obj()
        .set("host_hash", hash(m.pm.buddy().state_hash()))
        .set("guest_hash", hash(m.vm.guest_state_hash()))
        .set("faults", Json::U64(rig.faults()))
        .set("chunks", chunks.hex())
        .set("guest_leaves", guest.hex())
        .set("spt_leaves", spt.hex())
        .set("spt_syncs", Json::U64(m.spt.sync_events()))
}

fn nested_image(setup: &Setup, design: Design, thp: bool) -> Json {
    let rig = NestedRig::with_setup(design, thp, setup).expect("nested rig builds");
    let m: &NestedMachine = rig.machine();
    let view = m.l2_view_ref();
    let (mut l2, mut spt) = (Digest::default(), Digest::default());
    for &va in &setup.pages {
        let leaf = m.l2pt.translate_entry(&view, va);
        l2.leaf(leaf);
        // The shadow table maps L2PA -> L0PA: look the page's L2PA up.
        spt.leaf(
            leaf.and_then(|(l2pa, _, _)| {
                m.spt.table().translate_entry(&m.pm, VirtAddr(l2pa.raw()))
            }),
        );
    }
    let mut chunks = Digest::default();
    chunks.chunks(&m.l1().backed_chunks());
    chunks.chunks(&m.l2_backed_chunks());
    Json::obj()
        .set("host_hash", hash(m.pm.buddy().state_hash()))
        .set("l1_hash", hash(m.l1().guest_state_hash()))
        .set("l2_hash", hash(m.l2_state_hash()))
        .set("faults", Json::U64(rig.faults()))
        .set("chunks", chunks.hex())
        .set("l2_leaves", l2.hex())
        .set("spt_leaves", spt.hex())
        .set("spt_syncs", Json::U64(m.sync_events()))
}

/// Every cell's image, in matrix order (env, THP, benchmark, design).
fn snapshot() -> String {
    let scale = Scale::test();
    let mut rows = Vec::new();
    for env in [Env::Native, Env::Virt, Env::Nested] {
        for thp in [false, true] {
            for bench in 0..7 {
                let w = scaled_benchmark(bench, scale, thp).expect("bench7 index");
                let trace = w.trace(scale.total(), 0x5eed ^ bench as u64);
                let setup = Setup::of_workload(w.as_ref(), &trace);
                for design in Design::ALL {
                    if !design.available_in(env) {
                        continue;
                    }
                    let image = match env {
                        Env::Native => native_image(&setup, design, thp),
                        Env::Virt => virt_image(&setup, design, thp),
                        Env::Nested => nested_image(&setup, design, thp),
                    };
                    rows.push(
                        Json::obj()
                            .set("workload", Json::Str(w.name().into()))
                            .set("env", Json::Str(env.name().into()))
                            .set("design", Json::Str(design.name().into()))
                            .set("thp", Json::Bool(thp))
                            .set("pages", Json::U64(setup.pages.len() as u64))
                            .set("image", image),
                    );
                }
            }
        }
    }
    let snapshot = Json::obj()
        .set("schema", Json::Str("dmt-rig-images-v1".into()))
        .set("rows", Json::Arr(rows));
    format!("{snapshot}\n")
}

fn golden_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("rig_images.json")
}

#[test]
fn every_cell_builds_the_pinned_image() {
    let rendered = snapshot();
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
        "a rig build produced a different machine than the snapshot {} \
         (if intentional, regenerate with DMT_REGEN_GOLDEN=1)",
        path.display()
    );
}
