//! The per-CPU pageset (PCP) cache model.
//!
//! Order-0 allocations and frees in Linux flow through a per-CPU cache of
//! free pages in front of the buddy lists. §4.2.3 of the paper names the
//! PCP as one of the noise sources the EPT-spraying step must drain
//! before released sub-blocks are reused, so the cache is modelled
//! explicitly (single CPU — the paper's attack pins one vCPU anyway).

use crate::free_list::FreeList;
use crate::MigrateType;

/// PCP sizing parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PcpConfig {
    /// High watermark: pages cached beyond this are drained to the buddy
    /// lists in `batch`-sized chunks.
    pub high: usize,
    /// Refill/drain chunk size.
    pub batch: usize,
}

impl PcpConfig {
    /// Typical values for a desktop zone.
    pub fn standard() -> Self {
        Self {
            high: 512,
            batch: 64,
        }
    }

    /// Disables the cache entirely (ablation `ablation_pcp`).
    pub fn disabled() -> Self {
        Self { high: 0, batch: 0 }
    }
}

impl Default for PcpConfig {
    fn default() -> Self {
        Self::standard()
    }
}

/// The cache itself: one LIFO list per migration type.
#[derive(Debug, Clone)]
pub(crate) struct PcpCache {
    config: PcpConfig,
    lists: [FreeList; 2],
}

impl PcpCache {
    pub fn new(config: PcpConfig) -> Self {
        Self {
            config,
            lists: Default::default(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.config.batch > 0
    }

    /// The sizing parameters the cache was built with (snapshot hook).
    pub fn config(&self) -> PcpConfig {
        self.config
    }

    /// Whether `base` is parked in the given lane (snapshot decoding
    /// rejects duplicate entries before pushing them).
    pub fn contains(&self, mt: MigrateType, base: u64) -> bool {
        self.lists[mt.index()].contains(base)
    }

    pub fn batch(&self) -> usize {
        self.config.batch
    }

    pub fn pop(&mut self, mt: MigrateType) -> Option<u64> {
        self.lists[mt.index()].pop()
    }

    pub fn push_free(&mut self, mt: MigrateType, base: u64) {
        self.lists[mt.index()].push(base);
    }

    /// How many pages to [`pop`](Self::pop) back to the buddy lists
    /// once the high watermark is crossed: one batch, or nothing.
    pub fn overflow(&self, mt: MigrateType) -> usize {
        let len = self.lists[mt.index()].len();
        if len > self.config.high {
            self.config.batch.min(len)
        } else {
            0
        }
    }

    /// The cached pages of one migratetype lane, head-to-tail — the
    /// order [`free_state_digest`](crate::BuddyAllocator::free_state_digest)
    /// folds them in.
    pub fn lane_iter(&self, mt: MigrateType) -> impl Iterator<Item = u64> + '_ {
        self.lists[mt.index()].iter()
    }

    pub fn pages(&self, mt: MigrateType) -> u64 {
        self.lists[mt.index()].len() as u64
    }

    pub fn total_pages(&self) -> u64 {
        self.lists.iter().map(|l| l.len() as u64).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_config_reports_disabled() {
        assert!(!PcpCache::new(PcpConfig::disabled()).enabled());
        assert!(PcpCache::new(PcpConfig::standard()).enabled());
    }

    #[test]
    fn overflow_drains_in_batches() {
        let mut pcp = PcpCache::new(PcpConfig { high: 4, batch: 2 });
        for i in 0..5 {
            pcp.push_free(MigrateType::Movable, i);
        }
        assert_eq!(pcp.overflow(MigrateType::Movable), 2);
        assert_eq!(pcp.pop(MigrateType::Movable), Some(4));
        assert_eq!(pcp.pop(MigrateType::Movable), Some(3));
        assert_eq!(pcp.pages(MigrateType::Movable), 3);
        assert_eq!(pcp.overflow(MigrateType::Movable), 0);
    }

    #[test]
    fn types_are_separate() {
        let mut pcp = PcpCache::new(PcpConfig::standard());
        pcp.push_free(MigrateType::Unmovable, 1);
        assert_eq!(pcp.pop(MigrateType::Movable), None);
        assert_eq!(pcp.pop(MigrateType::Unmovable), Some(1));
    }
}
