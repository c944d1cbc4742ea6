//! The oracle checks the miss call the default engine makes: under
//! `Engine::Batched` every TLB miss is one `Rig::translate`, whose PA is
//! where the engine charges the data access. A rig whose translation
//! PA disagrees with its ground truth is replayed through the default
//! engine under a `Checked` wrapper, and every miss must diverge.

use dmt_cache::hierarchy::MemoryHierarchy;
use dmt_mem::{PageSize, PhysAddr, VirtAddr};
use dmt_oracle::{Checked, DivergenceKind};
use dmt_sim::native_rig::NativeRig;
use dmt_sim::{Design, Env, RefEntry, Rig, Runner, Setup, Translation};
use dmt_workloads::gen::{Access, Region};

/// Forwards every call to the inner rig, but flips bit 12 of every
/// `translate`'s PA: a translation that disagrees with the ground truth
/// exactly where the default engine charges the data access.
struct CorruptPa<R: Rig>(R);

impl<R: Rig> Rig for CorruptPa<R> {
    fn design(&self) -> Design {
        self.0.design()
    }
    fn env(&self) -> Env {
        self.0.env()
    }
    fn thp(&self) -> bool {
        self.0.thp()
    }
    fn translate(&mut self, va: VirtAddr, hier: &mut MemoryHierarchy) -> Translation {
        let tr = self.0.translate(va, hier);
        Translation {
            pa: PhysAddr(tr.pa.raw() ^ (1 << 12)),
            ..tr
        }
    }
    fn data_pa(&self, va: VirtAddr) -> PhysAddr {
        self.0.data_pa(va)
    }
    fn ref_translate(&self, va: VirtAddr) -> Option<RefEntry> {
        self.0.ref_translate(va)
    }
    fn exits(&self) -> u64 {
        self.0.exits()
    }
    fn faults(&self) -> u64 {
        self.0.faults()
    }
    fn coverage(&self) -> f64 {
        self.0.coverage()
    }
    fn component_counters(&self) -> dmt_telemetry::ComponentCounters {
        self.0.component_counters()
    }
    fn frag_sample(&self) -> (f64, u64) {
        self.0.frag_sample()
    }
    fn swap_phys(&mut self, pm: &mut dmt_mem::PhysMemory) {
        self.0.swap_phys(pm)
    }
    fn swap_pwc(&mut self, pwc: &mut dmt_cache::PageWalkCache) -> bool {
        self.0.swap_pwc(pwc)
    }
    fn release_memory(&mut self) -> u64 {
        self.0.release_memory()
    }
    fn flush_translation_caches(&mut self) {
        self.0.flush_translation_caches()
    }
    fn alloc_state_hash(&self) -> Option<u64> {
        self.0.alloc_state_hash()
    }
}

#[test]
fn default_engine_miss_call_is_checked() {
    // 16 reads, each on its own page: every access is a TLB miss the
    // default engine serves with one `translate`.
    let base = 1u64 << 30;
    let region = Region {
        base: VirtAddr(base),
        len: 16 * PageSize::Size4K.bytes(),
        label: "probe",
    };
    let vas: Vec<VirtAddr> = (0..16)
        .map(|i| VirtAddr(base + i * PageSize::Size4K.bytes() + 8))
        .collect();
    let trace: Vec<Access> = vas.iter().map(|&va| Access::read(va)).collect();
    let setup = Setup::new(vec![region], &trace);
    let rig = NativeRig::with_setup(Design::Vanilla, false, &setup).unwrap();
    let mut checked = Checked::collecting(CorruptPa(rig));
    let (stats, _) = Runner::builder().build().replay(&mut checked, &trace, 0);
    assert_eq!(stats.walks, vas.len() as u64);
    let ds = checked.divergences();
    assert_eq!(ds.len(), vas.len(), "one divergence per miss: {ds:?}");
    for (i, d) in ds.iter().enumerate() {
        assert_eq!((d.access, d.va), (i as u64, vas[i]));
        assert!(
            matches!(d.kind, DivergenceKind::Pa { got, want }
                if got.raw() ^ want.raw() == 1 << 12),
            "{d:?}"
        );
    }
}
