//! Multi-tenant behaviour: two guests on one host, each with its own
//! gTEA table — the EPTP-switching-style isolation of §4.5.2 means a
//! VM's gTEA IDs are meaningless under the other VM's table, and context
//! switches between processes reload the DMT registers.

use dmt::cache::hierarchy::MemoryHierarchy;
use dmt::cache::tlb::Tlb;
use dmt::core::fetcher;
use dmt::core::regfile::DmtRegisterFile;
use dmt::mem::{PhysMemory, VirtAddr};
use dmt::os::proc::{Process, ThpMode};
use dmt::os::vma::VmaKind;
use dmt::virt::machine::{GuestTeaMode, VirtMachine};

#[test]
fn gtea_ids_do_not_leak_across_vms() {
    // Two pv guests with their own gTEA tables.
    let mut a = VirtMachine::new(256 << 20, 16 << 20, GuestTeaMode::Pv, false).unwrap();
    let mut b = VirtMachine::new(256 << 20, 16 << 20, GuestTeaMode::Pv, false).unwrap();
    let base = VirtAddr(0x7f00_0000_0000);
    a.guest_mmap(base, 4 << 20).unwrap();
    a.guest_populate_range(base, 4 << 20).unwrap();
    b.guest_mmap(base, 4 << 20).unwrap();
    b.guest_populate_range(base, 4 << 20).unwrap();

    // Guest A's register contents presented against Guest B's gTEA table
    // (as if the hypervisor forgot to switch tables): the translation
    // must not read A's PTE bytes out of B's machine. With per-VM
    // tables the resolved region is B's own gTEA — never host memory of
    // A — and typically the translation simply differs.
    let a_mapping = a.guest_mappings()[0];
    let mut regs = DmtRegisterFile::new();
    regs.load(&[a_mapping]);
    let mut hier = MemoryHierarchy::default();
    let a_pa = a.translate_pvdmt(base, &mut hier, &mut ()).unwrap().pa;
    match fetcher::fetch_virt_pv(
        &regs,
        &b.gtea_table,
        &b.host_regs,
        &mut b.pm,
        &mut hier,
        base,
        &mut (),
    ) {
        // Fault is fine (ID not issued / bounds exceeded in B).
        Err(_) => {}
        // If B happens to have a same-numbered gTEA, the fetch resolves
        // entirely within B's memory: it cannot produce A's translation.
        Ok(out) => {
            assert_eq!(out.pa, b.translate_software(base).unwrap());
            let _ = a_pa;
        }
    }
}

#[test]
fn context_switch_reloads_registers_and_flushes_tlb() {
    let mut pm = PhysMemory::new_bytes(256 << 20);
    let heap_a = VirtAddr(0x10_0000_0000);
    let heap_b = VirtAddr(0x20_0000_0000);
    let mut proc_a = Process::new(&mut pm, ThpMode::Never).unwrap();
    proc_a
        .mmap(&mut pm, heap_a, 8 << 20, VmaKind::Heap)
        .unwrap();
    proc_a.populate_range(&mut pm, heap_a, 8 << 20).unwrap();
    let mut proc_b = Process::new(&mut pm, ThpMode::Never).unwrap();
    proc_b
        .mmap(&mut pm, heap_b, 8 << 20, VmaKind::Heap)
        .unwrap();
    proc_b.populate_range(&mut pm, heap_b, 8 << 20).unwrap();

    let mut regs = DmtRegisterFile::new();
    let mut tlb = Tlb::default();
    let mut hier = MemoryHierarchy::default();

    // Run on A.
    proc_a.load_registers(&mut regs);
    let pa_a = fetcher::fetch_native(&regs, &mut pm, &mut hier, heap_a, &mut ())
        .unwrap()
        .pa;
    assert_eq!(pa_a, proc_a.page_table().translate(&pm, heap_a).unwrap().0);
    assert!(!regs.covers(heap_b), "A's registers do not cover B");

    // Context switch: reload registers (part of task state, §4.1) and
    // flush the TLB (no ASIDs modeled).
    proc_b.load_registers(&mut regs);
    tlb.flush();
    assert!(regs.covers(heap_b));
    assert!(!regs.covers(heap_a), "B's registers do not cover A");
    let pa_b = fetcher::fetch_native(&regs, &mut pm, &mut hier, heap_b, &mut ())
        .unwrap()
        .pa;
    assert_eq!(pa_b, proc_b.page_table().translate(&pm, heap_b).unwrap().0);

    // The two processes' translations are disjoint physical frames even
    // though both came from the same buddy allocator.
    assert_ne!(pa_a.raw() >> 12, pa_b.raw() >> 12);
}

#[test]
fn two_guests_share_host_memory_without_interference() {
    // Populate both VMs and check every translation stays inside the
    // respective machine's view.
    let mut a = VirtMachine::new(256 << 20, 16 << 20, GuestTeaMode::Pv, false).unwrap();
    let mut b = VirtMachine::new(256 << 20, 16 << 20, GuestTeaMode::Unpv, false).unwrap();
    let base = VirtAddr(0x7f00_0000_0000);
    for m in [&mut a, &mut b] {
        m.guest_mmap(base, 2 << 20).unwrap();
        m.guest_populate_range(base, 2 << 20).unwrap();
    }
    let mut hier = MemoryHierarchy::default();
    for p in 0..(2u64 << 20 >> 12) {
        let va = VirtAddr(base.raw() + p * 4096);
        let pa_a = a.translate_pvdmt(va, &mut hier, &mut ()).unwrap().pa;
        let pa_b = b.translate_dmt(va, &mut hier, &mut ()).unwrap().pa;
        assert_eq!(pa_a, a.translate_software(va).unwrap());
        assert_eq!(pa_b, b.translate_software(va).unwrap());
    }
}
