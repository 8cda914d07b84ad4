//! TLB model with configurable page size and LRU replacement.
//!
//! The paper's Figure 1 analysis shows that the T3D exhibits *no*
//! TLB-attributable latency rise — the designers chose very large pages —
//! while the DEC workstation shows a clear inflection at a stride of 8 KB
//! (its page size). Both behaviours fall out of this one model under the
//! two configurations in [`crate::config`].
//!
//! Because the DTB-Annex index occupies high virtual-address bits on the
//! T3D, remote segments occupy TLB entries of their own; with huge pages,
//! 32 entries comfortably cover all 32 annex segments, which is how the
//! paper resolves its concern in Section 3.4.
//!
//! A hit on the most recently used page leaves the LRU order unchanged,
//! so [`Tlb::access`] checks that page first and skips the LRU scan and
//! reorder; with huge pages that covers nearly every access. Costs and
//! hit/miss counts are those of a plain LRU list.

use crate::config::TlbConfig;

/// An LRU TLB.
///
/// # Example
///
/// ```
/// use t3d_memsys::{MemConfig, Tlb};
///
/// let mut tlb = Tlb::new(MemConfig::dec_workstation().tlb);
/// assert!(tlb.access(0) > 0, "cold access misses");
/// assert_eq!(tlb.access(4096), 0, "same 8 KB page hits");
/// ```
#[derive(Debug, Clone)]
pub struct Tlb {
    cfg: TlbConfig,
    /// Resident page numbers, most recently used last.
    pages: Vec<u64>,
    /// `log2(page_bytes)` when the page size is a power of two (it is in
    /// every shipped configuration), so translation is a shift instead
    /// of a division.
    page_shift: Option<u32>,
    misses: u64,
    hits: u64,
}

impl Tlb {
    /// Creates an empty TLB.
    pub fn new(cfg: TlbConfig) -> Self {
        assert!(cfg.entries > 0, "TLB must have at least one entry");
        Tlb {
            cfg,
            pages: Vec::with_capacity(cfg.entries),
            page_shift: (cfg.page_bytes.is_power_of_two()).then(|| cfg.page_bytes.trailing_zeros()),
            misses: 0,
            hits: 0,
        }
    }

    /// The configuration this TLB was built with.
    pub fn config(&self) -> &TlbConfig {
        &self.cfg
    }

    /// Page number containing the given address.
    pub fn page_of(&self, pa: u64) -> u64 {
        match self.page_shift {
            Some(s) => pa >> s,
            None => pa / self.cfg.page_bytes,
        }
    }

    /// Translates one access, returning its cost in cycles (0 on a hit,
    /// [`TlbConfig::miss_cy`] on a miss).
    pub fn access(&mut self, pa: u64) -> u64 {
        let page = self.page_of(pa);
        // A hit on the most recent page needs no reorder (module docs).
        if self.pages.last() == Some(&page) {
            self.hits += 1;
            return 0;
        }
        if let Some(pos) = self.pages.iter().position(|&p| p == page) {
            self.pages.remove(pos);
            self.pages.push(page);
            self.hits += 1;
            0
        } else {
            if self.pages.len() == self.cfg.entries {
                self.pages.remove(0);
            }
            self.pages.push(page);
            self.misses += 1;
            self.cfg.miss_cy
        }
    }

    /// Total misses observed.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Total hits observed.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Drops all translations and resets counters.
    pub fn reset(&mut self) {
        self.pages.clear();
        self.misses = 0;
        self.hits = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MemConfig;

    #[test]
    fn t3d_huge_pages_make_misses_negligible() {
        let mut tlb = Tlb::new(MemConfig::t3d().tlb);
        // Stream over 8 MB — the largest array in Figure 1 — at 8 KB stride.
        let mut cost = 0;
        for i in 0..1024u64 {
            cost += tlb.access(i * 8192);
        }
        // 8 MB / 4 MB pages = 2 compulsory misses only.
        assert_eq!(tlb.misses(), 2);
        assert_eq!(cost, 2 * MemConfig::t3d().tlb.miss_cy);
    }

    #[test]
    fn workstation_pages_thrash_at_large_stride() {
        let cfg = MemConfig::dec_workstation().tlb;
        let mut tlb = Tlb::new(cfg);
        // 64 pages touched round-robin exceed the 32 entries: every access
        // misses, which is the 8 KB-stride inflection in Figure 1 (right).
        for round in 0..3 {
            for i in 0..64u64 {
                let cost = tlb.access(i * cfg.page_bytes);
                if round > 0 {
                    assert_eq!(cost, cfg.miss_cy, "LRU thrash must miss every time");
                }
            }
        }
    }

    #[test]
    fn small_strides_amortize_misses() {
        let cfg = MemConfig::dec_workstation().tlb;
        let mut tlb = Tlb::new(cfg);
        for i in 0..1024u64 {
            tlb.access(i * 32); // 256 accesses per page
        }
        assert_eq!(tlb.misses(), 4, "only compulsory misses");
        assert_eq!(tlb.hits(), 1020);
    }

    #[test]
    fn lru_keeps_hot_page() {
        let mut tlb = Tlb::new(TlbConfig {
            entries: 2,
            page_bytes: 4096,
            miss_cy: 10,
        });
        tlb.access(0); // page 0
        tlb.access(4096); // page 1
        tlb.access(0); // touch page 0 again
        tlb.access(8192); // page 2 evicts page 1 (LRU)
        assert_eq!(tlb.access(0), 0, "page 0 survived");
        assert_eq!(tlb.access(4096), 10, "page 1 was evicted");
    }

    #[test]
    fn reset_clears_state() {
        let mut tlb = Tlb::new(MemConfig::t3d().tlb);
        tlb.access(0);
        tlb.reset();
        assert_eq!(tlb.misses(), 0);
        assert!(tlb.access(0) > 0);
    }
}
