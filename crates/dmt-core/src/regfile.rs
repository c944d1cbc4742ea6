//! The per-hardware-thread DMT register file (§4.1, §4.6.1).
//!
//! Each translation context owns 16 registers, each holding one
//! VMA-to-TEA mapping. Three sets exist per core — native/host, guest,
//! and nested (L2) — and the OS reloads them on context switches; the DMT
//! fetcher consults the set(s) appropriate to the current virtualization
//! level and falls back to the x86 walker when no mapping covers the
//! address.

use crate::register::DmtRegister;
use crate::vtmap::VmaTeaMapping;
use dmt_mem::{PageSize, VirtAddr};

/// Number of DMT registers per set (the paper's implementation choice).
pub const DMT_REGISTER_COUNT: usize = 16;

/// One set of 16 DMT registers.
///
/// # Examples
///
/// ```
/// use dmt_core::regfile::DmtRegisterFile;
/// use dmt_core::vtmap::VmaTeaMapping;
/// use dmt_mem::{PageSize, Pfn, VirtAddr};
/// let mut rf = DmtRegisterFile::new();
/// rf.load(&[VmaTeaMapping::new(VirtAddr(0), 2 << 20, PageSize::Size4K, Pfn(5))]);
/// assert!(rf.lookup(VirtAddr(0x1000)).next().is_some());
/// assert!(rf.lookup(VirtAddr(4 << 20)).next().is_none());
/// ```
#[derive(Debug, Clone, Default)]
pub struct DmtRegisterFile {
    regs: [DmtRegister; DMT_REGISTER_COUNT],
    /// Unpacked cache of the packed registers (what the fetcher's
    /// comparators see).
    mappings: [Option<VmaTeaMapping>; DMT_REGISTER_COUNT],
}

impl DmtRegisterFile {
    /// An empty register file (every P bit clear).
    pub fn new() -> Self {
        Self::default()
    }

    /// Load up to 16 mappings, clearing the rest of the file. This models
    /// the OS writing the registers on a context switch (§4.1).
    ///
    /// # Panics
    ///
    /// Panics if more than [`DMT_REGISTER_COUNT`] mappings are supplied —
    /// selecting which 16 to load is OS policy (`dmt-os`), not hardware.
    pub fn load(&mut self, mappings: &[VmaTeaMapping]) {
        assert!(
            mappings.len() <= DMT_REGISTER_COUNT,
            "register file holds at most {DMT_REGISTER_COUNT} mappings"
        );
        self.clear();
        for (i, m) in mappings.iter().enumerate() {
            self.regs[i] = DmtRegister::pack(m);
            self.mappings[i] = Some(*m);
        }
    }

    /// Clear every register.
    pub fn clear(&mut self) {
        self.regs = [DmtRegister::EMPTY; DMT_REGISTER_COUNT];
        self.mappings = [None; DMT_REGISTER_COUNT];
    }

    /// Write a single register (raw MSR write).
    ///
    /// # Panics
    ///
    /// Panics if `idx >= DMT_REGISTER_COUNT`.
    pub fn write_register(&mut self, idx: usize, reg: DmtRegister) {
        self.regs[idx] = reg;
        self.mappings[idx] = reg.unpack();
    }

    /// Read a single register (raw MSR read).
    ///
    /// # Panics
    ///
    /// Panics if `idx >= DMT_REGISTER_COUNT`.
    pub fn read_register(&self, idx: usize) -> DmtRegister {
        self.regs[idx]
    }

    /// All present mappings covering `va` (at most one per page size —
    /// the parallel probes of Figure 12).
    pub fn lookup(&self, va: VirtAddr) -> impl Iterator<Item = &VmaTeaMapping> {
        self.mappings.iter().flatten().filter(move |m| m.covers(va))
    }

    /// The covering mapping for a specific page size, if any.
    pub fn lookup_size(&self, va: VirtAddr, size: PageSize) -> Option<&VmaTeaMapping> {
        self.lookup(va).find(|m| m.page_size() == size)
    }

    /// Whether any register covers `va`.
    pub fn covers(&self, va: VirtAddr) -> bool {
        self.lookup(va).next().is_some()
    }

    /// Number of present registers.
    pub fn occupancy(&self) -> usize {
        self.mappings.iter().flatten().count()
    }

    /// Iterate over the present mappings.
    pub fn iter(&self) -> impl Iterator<Item = &VmaTeaMapping> {
        self.mappings.iter().flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmt_mem::Pfn;

    fn m4k(base: u64, len: u64, tea: u64) -> VmaTeaMapping {
        VmaTeaMapping::new(VirtAddr(base), len, PageSize::Size4K, Pfn(tea))
    }

    #[test]
    fn load_and_lookup() {
        let mut rf = DmtRegisterFile::new();
        rf.load(&[m4k(0, 2 << 20, 1), m4k(1 << 30, 4 << 20, 2)]);
        assert_eq!(rf.occupancy(), 2);
        assert!(rf.covers(VirtAddr(0x1000)));
        assert!(rf.covers(VirtAddr((1 << 30) + 0x5000)));
        assert!(!rf.covers(VirtAddr(1 << 29)));
    }

    #[test]
    fn reload_replaces_previous_contents() {
        let mut rf = DmtRegisterFile::new();
        rf.load(&[m4k(0, 2 << 20, 1)]);
        rf.load(&[m4k(1 << 30, 2 << 20, 2)]);
        assert_eq!(rf.occupancy(), 1);
        assert!(!rf.covers(VirtAddr(0x1000)));
    }

    #[test]
    #[should_panic(expected = "at most 16")]
    fn overloading_panics() {
        let mut rf = DmtRegisterFile::new();
        let mappings: Vec<_> = (0..17).map(|i| m4k(i << 30, 2 << 20, i)).collect();
        rf.load(&mappings);
    }

    #[test]
    fn multiple_sizes_cover_same_va() {
        let mut rf = DmtRegisterFile::new();
        let m4 = m4k(0, 2 << 20, 1);
        let m2 = VmaTeaMapping::new(VirtAddr(0), 2 << 20, PageSize::Size2M, Pfn(2));
        rf.load(&[m4, m2]);
        let hits: Vec<_> = rf.lookup(VirtAddr(0x1000)).collect();
        assert_eq!(hits.len(), 2, "one probe per page size (Figure 12)");
        assert_eq!(
            rf.lookup_size(VirtAddr(0x1000), PageSize::Size2M)
                .unwrap()
                .tea_base(),
            Pfn(2)
        );
    }

    #[test]
    fn raw_register_writes_take_effect() {
        let mut rf = DmtRegisterFile::new();
        let m = m4k(0, 2 << 20, 7);
        rf.write_register(5, crate::register::DmtRegister::pack(&m));
        assert!(rf.covers(VirtAddr(0)));
        assert_eq!(rf.read_register(5).unpack(), Some(m));
        let mut cleared = rf.read_register(5);
        cleared.clear_present();
        rf.write_register(5, cleared);
        assert!(!rf.covers(VirtAddr(0)), "P bit gates the comparator");
    }
}
