//! The differential oracle wrapper: replay every translation through the
//! rig's reference walk and assert agreement, plus the [`BitFlip`]
//! mutation rig the conformance suite uses to prove the oracle bites.

use dmt_cache::hierarchy::MemoryHierarchy;
use dmt_mem::{PhysAddr, VirtAddr};
use dmt_sim::{Design, Env, RefEntry, Rig, Translation};

use crate::divergence::{Divergence, DivergenceKind};

/// A rig wrapped by the differential oracle.
///
/// Every [`translate`](Rig::translate) — the one miss call of both
/// engines — is checked against the inner rig's software ground truth
/// ([`data_pa`](Rig::data_pa) and, when available, the full
/// [`ref_translate`](Rig::ref_translate) leaf):
///
/// * **PA agreement** — the design's final PA equals the ground truth
///   (the default engine charges the data access there).
/// * **Reference self-consistency** — the reference walk agrees with the
///   data-access ground truth.
/// * **Size agreement** — the design never installs a TLB reach larger
///   than the reference leaf (smaller is conservative, never wrong).
/// * **Permission agreement** — reference leaves carry the OS template
///   (writable + user).
/// * **Offset preservation** — the reference PA carries the VA's offset
///   within the leaf.
/// * **Fault agreement** — translating a populated page never faults.
///
/// Violations become [`Divergence`] records: by default the wrapper
/// panics with the rendered divergence (tests and runners built with
/// `rig_wrapper(dmt_oracle::wrapper())`); [`Checked::collecting`]
/// accumulates instead, for tests
/// that assert on the records themselves.
///
/// An optional structural audit (buddy allocator, VMA tree, TEA map)
/// runs every `audit_every` accesses via [`Checked::with_audit`].
///
/// The wrapper forwards all simulation-facing calls unchanged — cycle
/// and reference counts are untouched, so a checked run's `RunStats`
/// are bit-identical to an unchecked run's.
pub struct Checked<R: Rig> {
    inner: R,
    index: u64,
    panic_on_divergence: bool,
    divergences: Vec<Divergence>,
    audit: Option<(AuditFn<R>, u64)>,
}

type AuditFn<R> = Box<dyn Fn(&R) -> Vec<String>>;

impl<R: Rig> Checked<R> {
    /// Wrap `inner`, panicking on the first divergence.
    pub fn new(inner: R) -> Self {
        Checked {
            inner,
            index: 0,
            panic_on_divergence: true,
            divergences: Vec::new(),
            audit: None,
        }
    }

    /// Wrap `inner`, collecting divergences instead of panicking.
    pub fn collecting(inner: R) -> Self {
        Checked {
            panic_on_divergence: false,
            ..Checked::new(inner)
        }
    }

    /// Run `audit` over the inner rig every `every` translations (and on
    /// the very first one); each returned message becomes an
    /// [`DivergenceKind::Invariant`] divergence.
    ///
    /// # Panics
    ///
    /// Panics if `every` is zero.
    pub fn with_audit(mut self, every: u64, audit: impl Fn(&R) -> Vec<String> + 'static) -> Self {
        assert!(every > 0, "audit period must be non-zero");
        self.audit = Some((Box::new(audit), every));
        self
    }

    /// The wrapped rig.
    pub fn inner(&self) -> &R {
        &self.inner
    }

    /// Unwrap.
    pub fn into_inner(self) -> R {
        self.inner
    }

    /// Divergences collected so far (empty in panic mode — the first one
    /// aborts).
    pub fn divergences(&self) -> &[Divergence] {
        &self.divergences
    }

    /// Number of translations checked.
    pub fn accesses_checked(&self) -> u64 {
        self.index
    }

    fn report(&mut self, access: u64, va: VirtAddr, kind: DivergenceKind) {
        let d = Divergence {
            access,
            va,
            design: self.inner.design(),
            env: self.inner.env(),
            kind,
        };
        if self.panic_on_divergence {
            panic!("translation oracle: {d}");
        }
        self.divergences.push(d);
    }

    /// Check one served translation.
    fn check(&mut self, idx: u64, va: VirtAddr, tr: &Translation, faults_before: u64) {
        let truth = self.inner.data_pa(va);
        if tr.pa != truth {
            self.report(
                idx,
                va,
                DivergenceKind::Pa {
                    got: tr.pa,
                    want: truth,
                },
            );
        }
        if let Some(re) = self.inner.ref_translate(va) {
            self.check_ref(idx, va, tr, truth, re);
        }
        let after = self.inner.faults();
        if after != faults_before {
            self.report(
                idx,
                va,
                DivergenceKind::Fault {
                    before: faults_before,
                    after,
                },
            );
        }
        let audit_msgs: Vec<String> = match &self.audit {
            Some((f, every)) if idx.is_multiple_of(*every) => f(&self.inner),
            _ => Vec::new(),
        };
        for detail in audit_msgs {
            self.report(idx, va, DivergenceKind::Invariant { detail });
        }
    }

    fn check_ref(
        &mut self,
        idx: u64,
        va: VirtAddr,
        tr: &Translation,
        truth: PhysAddr,
        re: RefEntry,
    ) {
        if re.pa != truth {
            self.report(
                idx,
                va,
                DivergenceKind::RefDisagreement {
                    walk: re.pa,
                    data: truth,
                },
            );
        }
        if tr.size.bytes() > re.size.bytes() {
            self.report(
                idx,
                va,
                DivergenceKind::SizeOverclaim {
                    got: tr.size,
                    want: re.size,
                },
            );
        }
        if !re.writable || !re.user {
            self.report(
                idx,
                va,
                DivergenceKind::Permission {
                    writable: re.writable,
                    user: re.user,
                },
            );
        }
        let mask = re.size.bytes() - 1;
        if re.pa.raw() & mask != va.raw() & mask {
            self.report(
                idx,
                va,
                DivergenceKind::OffsetLost {
                    pa: re.pa,
                    size: re.size,
                },
            );
        }
    }
}

impl<R: Rig> Rig for Checked<R> {
    fn design(&self) -> Design {
        self.inner.design()
    }

    fn env(&self) -> Env {
        self.inner.env()
    }

    fn thp(&self) -> bool {
        self.inner.thp()
    }

    fn translate(&mut self, va: VirtAddr, hier: &mut MemoryHierarchy) -> Translation {
        let idx = self.index;
        self.index += 1;
        let faults_before = self.inner.faults();
        let tr = self.inner.translate(va, hier);
        self.check(idx, va, &tr, faults_before);
        tr
    }

    fn data_pa(&self, va: VirtAddr) -> PhysAddr {
        self.inner.data_pa(va)
    }

    fn ref_translate(&self, va: VirtAddr) -> Option<RefEntry> {
        self.inner.ref_translate(va)
    }

    fn exits(&self) -> u64 {
        self.inner.exits()
    }

    fn faults(&self) -> u64 {
        self.inner.faults()
    }

    fn coverage(&self) -> f64 {
        self.inner.coverage()
    }

    fn component_counters(&self) -> dmt_telemetry::ComponentCounters {
        self.inner.component_counters()
    }

    fn frag_sample(&self) -> (f64, u64) {
        self.inner.frag_sample()
    }

    fn swap_phys(&mut self, pm: &mut dmt_mem::PhysMemory) {
        self.inner.swap_phys(pm)
    }

    fn swap_pwc(&mut self, pwc: &mut dmt_cache::PageWalkCache) -> bool {
        self.inner.swap_pwc(pwc)
    }

    fn release_memory(&mut self) -> u64 {
        self.inner.release_memory()
    }

    fn flush_translation_caches(&mut self) {
        self.inner.flush_translation_caches()
    }

    fn alloc_state_hash(&self) -> Option<u64> {
        self.inner.alloc_state_hash()
    }
}

/// A mutation rig: forwards everything to the wrapped rig but flips one
/// bit of the translation PA produced by the `at`-th
/// [`translate`](Rig::translate) call. The design's
/// ground truth ([`data_pa`](Rig::data_pa), [`ref_translate`](Rig::ref_translate))
/// stays honest, so a [`Checked`] wrapper around a `BitFlip` must report
/// exactly that access — the conformance suite's proof that the oracle
/// actually bites.
pub struct BitFlip<R: Rig> {
    inner: R,
    at: u64,
    bit: u32,
    seen: u64,
}

impl<R: Rig> BitFlip<R> {
    /// Flip `bit` of the PA returned by translate call number `at`
    /// (zero-based).
    pub fn new(inner: R, at: u64, bit: u32) -> Self {
        assert!(bit < 64);
        BitFlip {
            inner,
            at,
            bit,
            seen: 0,
        }
    }

    /// The wrapped rig.
    pub fn inner(&self) -> &R {
        &self.inner
    }

    /// Count one translate call, flipping the PA if it is call `at`.
    fn flip(&mut self, mut tr: Translation) -> Translation {
        if self.seen == self.at {
            tr.pa = PhysAddr(tr.pa.raw() ^ (1u64 << self.bit));
        }
        self.seen += 1;
        tr
    }
}

impl<R: Rig> Rig for BitFlip<R> {
    fn design(&self) -> Design {
        self.inner.design()
    }

    fn env(&self) -> Env {
        self.inner.env()
    }

    fn thp(&self) -> bool {
        self.inner.thp()
    }

    fn translate(&mut self, va: VirtAddr, hier: &mut MemoryHierarchy) -> Translation {
        let tr = self.inner.translate(va, hier);
        self.flip(tr)
    }

    fn data_pa(&self, va: VirtAddr) -> PhysAddr {
        self.inner.data_pa(va)
    }

    fn ref_translate(&self, va: VirtAddr) -> Option<RefEntry> {
        self.inner.ref_translate(va)
    }

    fn exits(&self) -> u64 {
        self.inner.exits()
    }

    fn faults(&self) -> u64 {
        self.inner.faults()
    }

    fn coverage(&self) -> f64 {
        self.inner.coverage()
    }

    fn component_counters(&self) -> dmt_telemetry::ComponentCounters {
        self.inner.component_counters()
    }

    fn frag_sample(&self) -> (f64, u64) {
        self.inner.frag_sample()
    }

    fn swap_phys(&mut self, pm: &mut dmt_mem::PhysMemory) {
        self.inner.swap_phys(pm)
    }

    fn swap_pwc(&mut self, pwc: &mut dmt_cache::PageWalkCache) -> bool {
        self.inner.swap_pwc(pwc)
    }

    fn release_memory(&mut self) -> u64 {
        self.inner.release_memory()
    }

    fn flush_translation_caches(&mut self) {
        self.inner.flush_translation_caches()
    }

    fn alloc_state_hash(&self) -> Option<u64> {
        self.inner.alloc_state_hash()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmt_mem::PageSize;
    use dmt_sim::native_rig::NativeRig;
    use dmt_sim::rig::Setup;
    use dmt_workloads::gen::{Access, Region};

    /// A tiny single-region setup plus the page-stride VAs that touch it.
    fn tiny_setup(pages: u64) -> (Setup, Vec<VirtAddr>) {
        let base = VirtAddr(1 << 30);
        let region = Region {
            base,
            len: pages * PageSize::Size4K.bytes(),
            label: "probe",
        };
        let vas: Vec<VirtAddr> = (0..pages)
            .map(|i| VirtAddr(base.raw() + i * PageSize::Size4K.bytes() + 8))
            .collect();
        let trace: Vec<Access> = vas.iter().map(|&va| Access::read(va)).collect();
        (Setup::new(vec![region], &trace), vas)
    }

    const NATIVE_DESIGNS: [Design; 8] = [
        Design::Vanilla,
        Design::Fpt,
        Design::Ecpt,
        Design::Asap,
        Design::Dmt,
        Design::PvDmt,
        Design::Vbi,
        Design::Seg,
    ];

    #[test]
    fn clean_rigs_have_no_divergences() {
        for design in NATIVE_DESIGNS {
            let (setup, vas) = tiny_setup(16);
            let rig = NativeRig::with_setup(design, false, &setup).unwrap();
            let mut checked = Checked::collecting(rig);
            let mut hier = MemoryHierarchy::default();
            for &va in &vas {
                checked.translate(va, &mut hier);
            }
            assert!(
                checked.divergences().is_empty(),
                "{design:?}: {:?}",
                checked.divergences()
            );
            assert_eq!(checked.accesses_checked(), vas.len() as u64);
        }
    }

    #[test]
    fn bit_flip_is_caught_at_the_exact_access() {
        for design in NATIVE_DESIGNS {
            let (setup, vas) = tiny_setup(16);
            let rig = NativeRig::with_setup(design, false, &setup).unwrap();
            let mut checked = Checked::collecting(BitFlip::new(rig, 5, 12));
            let mut hier = MemoryHierarchy::default();
            for &va in &vas {
                checked.translate(va, &mut hier);
            }
            let ds = checked.divergences();
            assert!(!ds.is_empty(), "{design:?}: flipped PA not caught");
            assert!(
                ds.iter().all(|d| d.access == 5),
                "{design:?}: spurious divergences {ds:?}"
            );
            assert_eq!(ds[0].va, vas[5], "{design:?}");
            assert!(
                matches!(ds[0].kind, DivergenceKind::Pa { got, want }
                    if got.raw() ^ want.raw() == 1 << 12),
                "{design:?}: {:?}",
                ds[0]
            );
            assert!(ds[0].to_string().contains("access #5"), "{}", ds[0]);
        }
    }

    #[test]
    #[should_panic(expected = "translation oracle")]
    fn panic_mode_aborts_on_first_divergence() {
        let (setup, vas) = tiny_setup(4);
        let rig = NativeRig::with_setup(Design::Vanilla, false, &setup).unwrap();
        let mut checked = Checked::new(BitFlip::new(rig, 0, 13));
        let mut hier = MemoryHierarchy::default();
        checked.translate(vas[0], &mut hier);
    }

    #[test]
    fn audit_hook_reports_invariant_divergences() {
        let (setup, vas) = tiny_setup(8);
        let rig = NativeRig::with_setup(Design::Dmt, false, &setup).unwrap();
        let mut checked =
            Checked::collecting(rig).with_audit(4, |_r| vec!["synthetic violation".to_string()]);
        let mut hier = MemoryHierarchy::default();
        for &va in &vas {
            checked.translate(va, &mut hier);
        }
        // Fires on accesses 0 and 4.
        let invariants: Vec<_> = checked
            .divergences()
            .iter()
            .filter(|d| {
                matches!(&d.kind, DivergenceKind::Invariant { detail }
                if detail == "synthetic violation")
            })
            .collect();
        assert_eq!(invariants.len(), 2, "{:?}", checked.divergences());
        assert_eq!(invariants[0].access, 0);
        assert_eq!(invariants[1].access, 4);
    }

    #[test]
    fn checked_forwards_translation_results_unchanged() {
        let (setup, vas) = tiny_setup(8);
        let mut bare = NativeRig::with_setup(Design::Dmt, false, &setup).unwrap();
        let rig = NativeRig::with_setup(Design::Dmt, false, &setup).unwrap();
        let mut checked = Checked::new(rig);
        let mut h1 = MemoryHierarchy::default();
        let mut h2 = MemoryHierarchy::default();
        for &va in &vas {
            let a = bare.translate(va, &mut h1);
            let b = checked.translate(va, &mut h2);
            assert_eq!(
                (a.pa, a.size, a.cycles, a.refs),
                (b.pa, b.size, b.cycles, b.refs)
            );
        }
        assert_eq!(bare.coverage(), checked.coverage());
    }
}
