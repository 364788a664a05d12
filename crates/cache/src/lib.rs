//! # forhdc-cache
//!
//! Disk-controller cache organizations from *Improving Disk Throughput
//! in Data-Intensive Servers* (Carrera & Bianchini, HPCA 2004):
//!
//! * [`SegmentCache`] — the conventional organization: the cache is
//!   divided into fixed-count segments, each holding one sequential
//!   stream; the whole victim segment is replaced at once (LRU by
//!   default; FIFO/random/round-robin for ablation, after
//!   [Soloviev 94, Ganger 95, Shriver 97]).
//! * [`BlockCache`] — the paper's block-based organization: blocks are
//!   assigned to streams on demand from a free pool and replaced
//!   individually (MRU for FOR, per §4; LRU available for ablation).
//! * [`HdcRegion`] — the host-guided portion of the controller cache:
//!   pinned, non-replaceable blocks with dirty tracking and the
//!   `pin_blk()` / `unpin_blk()` / `flush_hdc()` command set of §5.
//! * [`ProbeMap`] — the fixed-size map from `u64` the block cache, the
//!   HDC region and the system simulation's pending requests use.
//!
//! Both read-ahead caches implement the common [`ControllerCache`]
//! trait so the system simulation can swap organizations freely.

pub mod block;
pub mod fx;
pub mod hdc;
pub mod list;
pub mod probe;
pub mod segment;
pub mod stats;

pub use block::{BlockCache, BlockReplacement};
pub use hdc::{HdcRegion, HdcStats, PinError};
pub use probe::ProbeMap;
pub use segment::{SegmentCache, SegmentReplacement};
pub use stats::CacheStats;

use forhdc_sim::PhysBlock;

/// Common interface of the read-ahead portion of a controller cache.
///
/// An *extent* is a contiguous run of physical blocks; a read request
/// hits only if **every** block of its extent is cached (a partial hit
/// still needs the media, so the controller treats it as a miss).
pub trait ControllerCache: std::fmt::Debug {
    /// Whether `block` is currently cached (no recency update, no stats).
    fn contains(&self, block: PhysBlock) -> bool;

    /// Looks up one block, updating recency and per-block stats.
    /// Returns `true` on a hit.
    fn touch(&mut self, block: PhysBlock) -> bool;

    /// Inserts a run of `nblocks` blocks starting at `start`. The first
    /// `requested` blocks were demanded by the host; the remainder are
    /// speculative read-ahead (tracked separately in the stats).
    fn insert_run(&mut self, start: PhysBlock, nblocks: u32, requested: u32);

    /// Capacity in blocks.
    fn capacity_blocks(&self) -> u32;

    /// Blocks currently resident.
    fn resident_blocks(&self) -> u32;

    /// Accumulated statistics.
    fn stats(&self) -> &CacheStats;

    /// Looks up a whole extent: touches every block, returns `true` only
    /// if all were hits, and records one extent-level lookup.
    fn lookup_extent(&mut self, start: PhysBlock, nblocks: u32) -> bool {
        let mut all = true;
        for i in 0..nblocks as u64 {
            if !self.touch(start.offset(i)) {
                all = false;
            }
        }
        self.record_extent(all);
        all
    }

    /// Records an extent-level lookup outcome (implementation hook for
    /// [`ControllerCache::lookup_extent`]).
    fn record_extent(&mut self, hit: bool);
}

#[cfg(test)]
mod trait_tests {
    use super::*;

    fn exercise(cache: &mut dyn ControllerCache) {
        assert_eq!(cache.resident_blocks(), 0);
        cache.insert_run(PhysBlock::new(100), 8, 4);
        assert!(cache.contains(PhysBlock::new(100)));
        assert!(cache.contains(PhysBlock::new(107)));
        assert!(!cache.contains(PhysBlock::new(108)));
        assert!(cache.lookup_extent(PhysBlock::new(100), 8));
        assert!(!cache.lookup_extent(PhysBlock::new(100), 9));
        assert_eq!(cache.stats().extent_lookups, 2);
        assert_eq!(cache.stats().extent_hits, 1);
    }

    #[test]
    fn block_cache_satisfies_trait_contract() {
        let mut c = BlockCache::new(64, BlockReplacement::Mru);
        exercise(&mut c);
    }

    #[test]
    fn segment_cache_satisfies_trait_contract() {
        let mut c = SegmentCache::new(4, 32, SegmentReplacement::Lru);
        exercise(&mut c);
    }
}
