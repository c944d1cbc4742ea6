//! Quickstart: Direct Memory Translation in five minutes.
//!
//! Builds a process under DMT-Linux, loads the DMT registers, and shows
//! the headline property: translations that took the x86 walker four
//! sequential PTE fetches take the DMT fetcher exactly one.
//!
//! Run with: `cargo run --release --example quickstart`

use dmt::cache::hierarchy::MemoryHierarchy;
use dmt::core::fetcher;
use dmt::core::regfile::DmtRegisterFile;
use dmt::mem::{PhysMemory, VirtAddr};
use dmt::os::proc::{Process, ThpMode};
use dmt::os::vma::VmaKind;
use dmt::pgtable::walk::{walk_dimension, WalkDim};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1 GiB of simulated physical memory.
    let mut pm = PhysMemory::new_bytes(1 << 30);

    // A process with one 64 MiB heap VMA. DMT-Linux eagerly allocates a
    // contiguous TEA (64 MiB / 512 = 128 KiB) holding the VMA's
    // last-level PTEs in order, and installs the TEA pages as the radix
    // table's L1 pages — one copy of every PTE, visible to both walkers.
    let mut proc = Process::new(&mut pm, ThpMode::Never)?;
    let heap = VirtAddr(0x4000_0000);
    proc.mmap(&mut pm, heap, 64 << 20, VmaKind::Heap)?;
    proc.populate_range(&mut pm, heap, 64 << 20)?;

    // Context switch: the OS loads the VMA-to-TEA mappings into the 16
    // DMT registers.
    let mut regs = DmtRegisterFile::new();
    proc.load_registers(&mut regs);
    println!("DMT registers loaded: {} mapping(s)", regs.occupancy());

    // Translate an address both ways through a cold cache hierarchy.
    let va = heap + 5 * 4096 + 0x123;
    let mut hier = MemoryHierarchy::default();
    let walk = walk_dimension(
        proc.page_table(),
        &mut pm,
        va,
        WalkDim::Native,
        &mut hier,
        None,
    )?;
    let mut hier = MemoryHierarchy::default();
    let fetch = fetcher::fetch_native(&regs, &mut pm, &mut hier, va)?;

    println!(
        "x86 radix walk : {} sequential PTE fetches, {} cycles",
        walk.refs(),
        walk.cycles
    );
    println!(
        "DMT fetch      : {} sequential PTE fetch,  {} cycles",
        fetch.refs(),
        fetch.cycles
    );
    assert_eq!(
        walk.pa, fetch.pa,
        "both mechanisms agree on the translation"
    );
    println!("translated {va} -> {} under both mechanisms", fetch.pa);
    Ok(())
}
