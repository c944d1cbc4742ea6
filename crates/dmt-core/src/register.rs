//! The architectural DMT register layout (Figure 13).
//!
//! Each register holds one VMA-to-TEA mapping in 192 bits (three 64-bit
//! words). The packed format exists so the hardware contract of Figure 13
//! is explicit and testable; the rest of the crate works with the typed
//! [`VmaTeaMapping`] and converts at load/store time, the way an OS reads
//! and writes MSRs.
//!
//! Word layout (low to high):
//!
//! * **word 0** — bit 0: `P` (present); bits 2..=1: `SZ` (page size);
//!   bits 12..=3: reserved; bits 63..=13: VMA base VPN (4 KiB granularity,
//!   table-span aligned so only bits ≥ 9 of the VPN are meaningful).
//! * **word 1** — bits 47..=0: TEA base PFN; bits 63..=48: gTEA ID
//!   (pvDMT; all-ones when unused).
//! * **word 2** — VMA size in pages of `SZ` granularity.
//!
//! The gTEA *table* base of Figure 13 is identical across all 16
//! registers of a set, so it is held once per register file (see
//! [`crate::regfile`]) rather than duplicated per register.

use crate::vtmap::VmaTeaMapping;
use dmt_mem::{PageSize, Pfn, VirtAddr};

/// Sentinel in the gTEA-ID field meaning "no gTEA" (native / host use).
const NO_GTEA: u16 = u16::MAX;

/// One packed DMT register (192 bits).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DmtRegister {
    words: [u64; 3],
}

impl DmtRegister {
    /// The cleared (not-present) register.
    pub const EMPTY: DmtRegister = DmtRegister { words: [0; 3] };

    /// Pack a mapping into register format.
    pub fn pack(mapping: &VmaTeaMapping) -> Self {
        let base_vpn = mapping.base().vpn().0;
        let word0 = 1u64 // P
            | ((mapping.page_size().encode() as u64) << 1)
            | (base_vpn << 13);
        let gtea = mapping.gtea_id().unwrap_or(NO_GTEA) as u64;
        let word1 = (mapping.tea_base().0 & ((1 << 48) - 1)) | (gtea << 48);
        let pages = mapping.covered_bytes() >> mapping.page_size().shift();
        DmtRegister {
            words: [word0, word1, pages],
        }
    }

    /// Unpack into a typed mapping; `None` when the P bit is clear or the
    /// SZ encoding is reserved.
    pub fn unpack(&self) -> Option<VmaTeaMapping> {
        if !self.present() {
            return None;
        }
        let size = PageSize::decode(((self.words[0] >> 1) & 0b11) as u8)?;
        let base = VirtAddr((self.words[0] >> 13) << 12);
        let tea_base = Pfn(self.words[1] & ((1 << 48) - 1));
        let pages = self.words[2];
        if pages == 0 {
            return None;
        }
        let mut m = VmaTeaMapping::new(base, pages << size.shift(), size, tea_base);
        let gtea = (self.words[1] >> 48) as u16;
        if gtea != NO_GTEA {
            m = m.with_gtea_id(gtea);
        }
        Some(m)
    }

    /// The P (present) bit. When clear, the DMT fetcher ignores this
    /// register and the request falls back to the x86 walker (§4.6.1).
    #[inline]
    pub fn present(&self) -> bool {
        self.words[0] & 1 != 0
    }

    /// Clear the P bit (e.g. during asynchronous TEA migration, §4.3).
    pub fn clear_present(&mut self) {
        self.words[0] &= !1;
    }

    /// Raw words (the MSR view).
    pub fn raw(&self) -> [u64; 3] {
        self.words
    }

    /// Construct from raw words.
    pub fn from_raw(words: [u64; 3]) -> Self {
        DmtRegister { words }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_register_is_not_present() {
        assert!(!DmtRegister::EMPTY.present());
        assert_eq!(DmtRegister::EMPTY.unpack(), None);
    }

    #[test]
    fn pack_unpack_roundtrips() {
        let m = VmaTeaMapping::new(
            VirtAddr(0x7f00_0020_0000),
            64 << 20,
            PageSize::Size4K,
            Pfn(0x1234),
        );
        let reg = DmtRegister::pack(&m);
        assert!(reg.present());
        assert_eq!(reg.unpack(), Some(m));
    }

    #[test]
    fn pack_unpack_roundtrips_with_gtea() {
        let m = VmaTeaMapping::new(VirtAddr(0), 2 << 20, PageSize::Size4K, Pfn(77)).with_gtea_id(3);
        let reg = DmtRegister::pack(&m);
        let back = reg.unpack().unwrap();
        assert_eq!(back.gtea_id(), Some(3));
        assert_eq!(back, m);
    }

    #[test]
    fn pack_unpack_roundtrips_huge_pages() {
        for size in [PageSize::Size2M, PageSize::Size1G] {
            let m = VmaTeaMapping::new(VirtAddr(0), 4 << 30, size, Pfn(9));
            assert_eq!(DmtRegister::pack(&m).unpack(), Some(m), "{size}");
        }
    }

    #[test]
    fn clearing_present_disables_mapping() {
        let m = VmaTeaMapping::new(VirtAddr(0), 2 << 20, PageSize::Size4K, Pfn(1));
        let mut reg = DmtRegister::pack(&m);
        reg.clear_present();
        assert!(!reg.present());
        assert_eq!(reg.unpack(), None);
    }

    #[test]
    fn reserved_size_encoding_unpacks_to_none() {
        // P set, SZ = 3 (reserved).
        let reg = DmtRegister::from_raw([1 | (3 << 1), 0, 512]);
        assert_eq!(reg.unpack(), None);
    }

    #[test]
    fn sz_field_occupies_bits_2_1() {
        let m = VmaTeaMapping::new(VirtAddr(0), 4 << 30, PageSize::Size1G, Pfn(0));
        let raw = DmtRegister::pack(&m).raw();
        assert_eq!((raw[0] >> 1) & 0b11, 2); // 1 GiB encoding
        assert_eq!(raw[0] & 1, 1); // P bit
    }
}
