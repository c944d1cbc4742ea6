//! pvDMT isolation (§4.5.2), exercised across the full stack: a guest
//! that manipulates its DMT registers can never read host memory outside
//! its own gTEAs.

use dmt::cache::hierarchy::MemoryHierarchy;
use dmt::core::fetcher;
use dmt::core::regfile::DmtRegisterFile;
use dmt::core::vtmap::VmaTeaMapping;
use dmt::core::DmtError;
use dmt::mem::{PageSize, Pfn, VirtAddr};
use dmt::virt::machine::{GuestTeaMode, VirtMachine};

fn machine() -> VirtMachine {
    let mut m = VirtMachine::new(256 << 20, 32 << 20, GuestTeaMode::Pv, false).unwrap();
    let base = VirtAddr(0x7f00_0000_0000);
    m.guest_mmap(base, 4 << 20).unwrap();
    m.guest_populate_range(base, 4 << 20).unwrap();
    m
}

#[test]
fn forged_gtea_id_faults() {
    let mut m = machine();
    let gva = VirtAddr(0x7f00_0000_0000);
    let legit = m.guest_mappings()[0];
    // Rewrite the guest register with a never-issued ID.
    let forged = VmaTeaMapping::new(
        legit.base(),
        legit.covered_bytes(),
        PageSize::Size4K,
        Pfn(0),
    )
    .with_gtea_id(4242);
    let mut regs = DmtRegisterFile::new();
    regs.load(&[forged]);
    let mut hier = MemoryHierarchy::default();
    let err = fetcher::fetch_virt_pv(
        &regs,
        &m.gtea_table,
        &m.host_regs,
        &mut m.pm,
        &mut hier,
        gva,
    );
    assert!(matches!(err, Err(DmtError::InvalidGteaId { id: 4242 })));
}

#[test]
fn out_of_bounds_offset_faults() {
    let mut m = machine();
    let legit = m.guest_mappings()[0];
    let id = legit.gtea_id().unwrap();
    // A register claiming a coverage far larger than the granted gTEA:
    // offsets beyond the grant must fault, not read host memory.
    let oversized =
        VmaTeaMapping::new(legit.base(), 1 << 30, PageSize::Size4K, Pfn(0)).with_gtea_id(id);
    let mut regs = DmtRegisterFile::new();
    regs.load(&[oversized]);
    let far = VirtAddr(legit.base().raw() + (512 << 20));
    let mut hier = MemoryHierarchy::default();
    let err = fetcher::fetch_virt_pv(
        &regs,
        &m.gtea_table,
        &m.host_regs,
        &mut m.pm,
        &mut hier,
        far,
    );
    assert!(
        matches!(err, Err(DmtError::GteaOutOfBounds { .. })),
        "got {err:?}"
    );
}

#[test]
fn guest_cannot_point_registers_at_raw_host_frames() {
    let mut m = machine();
    let gva = VirtAddr(0x7f00_0000_0000);
    // A register with a raw host PFN but no gTEA ID: the pv fetch path
    // must refuse (the hardware only dereferences via the gTEA table).
    let legit = m.guest_mappings()[0];
    let raw = VmaTeaMapping::new(
        legit.base(),
        legit.covered_bytes(),
        PageSize::Size4K,
        Pfn(0x1234),
    );
    assert_eq!(raw.gtea_id(), None);
    let mut regs = DmtRegisterFile::new();
    regs.load(&[raw]);
    let mut hier = MemoryHierarchy::default();
    // Without a gTEA ID the fetch treats tea_base as guest-meaningless
    // host PFN — in the pv configuration that read would land in the
    // guest's *own* address space resolution and must not return data
    // from host frame 0x1234. We assert the outcome is a fault or a
    // translation that differs from the host frame the guest hoped for.
    match fetcher::fetch_virt_pv(
        &regs,
        &m.gtea_table,
        &m.host_regs,
        &mut m.pm,
        &mut hier,
        gva,
    ) {
        Err(_) => {}
        Ok(out) => assert_ne!(
            out.pa.raw() >> 12,
            0x1234,
            "guest must not dereference arbitrary host frames"
        ),
    }
}

#[test]
fn revoked_gtea_faults_after_removal() {
    let mut m = machine();
    let gva = VirtAddr(0x7f00_0000_0000);
    let legit = m.guest_mappings()[0];
    let id = legit.gtea_id().unwrap();
    // Host revokes the gTEA (e.g. VM teardown path).
    m.gtea_table.remove(id).unwrap();
    let mut regs = DmtRegisterFile::new();
    regs.load(&[legit]);
    let mut hier = MemoryHierarchy::default();
    let err = fetcher::fetch_virt_pv(
        &regs,
        &m.gtea_table,
        &m.host_regs,
        &mut m.pm,
        &mut hier,
        gva,
    );
    assert!(matches!(err, Err(DmtError::InvalidGteaId { .. })));
}
