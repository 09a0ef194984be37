//! Address newtypes and page/line arithmetic.
//!
//! The simulator distinguishes three address spaces:
//!
//! - [`VirtAddr`]: the application's virtual address, produced by workload
//!   generators. Translated by the TLB/MMU into a physical address.
//! - [`PhysAddr`]: the GPU physical address whose bit layout encodes the
//!   memory channel (paper Fig. 2, "partition-aware address map").
//! - [`LineAddr`]: a cache-line-granular physical address (the unit tags,
//!   MSHRs and replication operate on).
//!
//! All addresses are 64-bit; pages are 4 KB by default (2 MB in the
//! sensitivity study) and cache lines are 128 B throughout, matching the
//! paper's Table 1.

use core::fmt;

/// Cache-line size in bytes (both L1 and LLC use 128 B lines, Table 1).
pub const LINE_BYTES: u64 = 128;

/// Default page size in bytes (4 KB; the paper also studies 2 MB pages).
pub const DEFAULT_PAGE_BYTES: u64 = 4096;

/// A virtual address as seen by a kernel running on an SM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VirtAddr(pub u64);

/// A physical address; its bit layout is defined by
/// [`AddressMapping`](crate::mapping::AddressMapping).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PhysAddr(pub u64);

/// A cache-line-aligned physical address (the low `log2(LINE_BYTES)` bits
/// are guaranteed zero).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct LineAddr(pub u64);

/// A virtual page number (virtual address divided by the page size).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PageNum(pub u64);

impl VirtAddr {
    /// The virtual page containing this address for a given page size,
    /// which must be a power of two ([`GpuConfig::validate`] rejects
    /// any other with a typed error, so the per-access path does not
    /// re-prove it).
    ///
    /// [`GpuConfig::validate`]: crate::GpuConfig::validate
    #[inline]
    pub fn page(self, page_bytes: u64) -> PageNum {
        PageNum(self.0 >> page_bytes.trailing_zeros())
    }

    /// Byte offset within the page for a given (power-of-two) page
    /// size; always below `page_bytes`.
    #[inline]
    pub fn page_offset(self, page_bytes: u64) -> u64 {
        self.0 & (page_bytes - 1)
    }

    /// The address advanced by `bytes`.
    #[inline]
    #[must_use]
    pub fn offset(self, bytes: u64) -> VirtAddr {
        VirtAddr(self.0.wrapping_add(bytes))
    }
}

impl PhysAddr {
    /// The cache line containing this address.
    #[inline]
    pub fn line(self) -> LineAddr {
        LineAddr(self.0 & !(LINE_BYTES - 1))
    }

    /// Byte offset within the cache line.
    #[inline]
    pub fn line_offset(self) -> u64 {
        self.0 & (LINE_BYTES - 1)
    }
}

impl LineAddr {
    /// Construct from a raw value, aligning downwards to the line size.
    #[inline]
    pub fn containing(raw: u64) -> LineAddr {
        LineAddr(raw & !(LINE_BYTES - 1))
    }

    /// The line index (address divided by the line size). Useful as a
    /// compact key for tag comparison.
    #[inline]
    pub fn index(self) -> u64 {
        self.0 >> LINE_BYTES.trailing_zeros()
    }

    /// Reconstitute a [`PhysAddr`] pointing at the first byte of the line.
    #[inline]
    pub fn base(self) -> PhysAddr {
        PhysAddr(self.0)
    }
}

impl PageNum {
    /// First virtual address of the page for a given page size.
    #[inline]
    pub fn base(self, page_bytes: u64) -> VirtAddr {
        VirtAddr(self.0 * page_bytes)
    }
}

impl fmt::Display for VirtAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v:{:#x}", self.0)
    }
}

impl fmt::Display for PhysAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p:{:#x}", self.0)
    }
}

impl fmt::Display for LineAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "l:{:#x}", self.0)
    }
}

impl fmt::Display for PageNum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pg:{}", self.0)
    }
}

impl From<u64> for VirtAddr {
    fn from(v: u64) -> Self {
        VirtAddr(v)
    }
}

impl From<u64> for PhysAddr {
    fn from(v: u64) -> Self {
        PhysAddr(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_math_4k() {
        let a = VirtAddr(0x1234_5678);
        assert_eq!(a.page(4096), PageNum(0x1234_5678 >> 12));
        assert_eq!(a.page_offset(4096), 0x678);
        assert_eq!(a.page(4096).base(4096).0, 0x1234_5000);
    }

    #[test]
    fn page_math_2m() {
        let a = VirtAddr(0x1234_5678);
        assert_eq!(a.page(2 << 20), PageNum(0x1234_5678 >> 21));
        assert_eq!(a.page_offset(2 << 20), 0x1234_5678 & ((2 << 20) - 1));
    }

    #[test]
    fn line_alignment() {
        let p = PhysAddr(0x1000 + 130);
        assert_eq!(p.line().0, 0x1000 + 128);
        assert_eq!(p.line_offset(), 2);
        assert_eq!(p.line().base().line_offset(), 0);
    }

    #[test]
    fn line_index_roundtrip() {
        let l = LineAddr::containing(0x4567);
        assert_eq!(l.0 % LINE_BYTES, 0);
        assert_eq!(l.index() * LINE_BYTES, l.0);
    }

    #[test]
    fn virt_offset_wraps() {
        let a = VirtAddr(u64::MAX);
        assert_eq!(a.offset(1), VirtAddr(0));
    }

    #[test]
    fn display_forms() {
        assert_eq!(VirtAddr(0x10).to_string(), "v:0x10");
        assert_eq!(PhysAddr(0x10).to_string(), "p:0x10");
        assert_eq!(LineAddr::containing(0x80).to_string(), "l:0x80");
        assert_eq!(PageNum(3).to_string(), "pg:3");
    }
}
