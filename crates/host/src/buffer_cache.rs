//! An LRU file-system buffer cache with hit and miss totals.
//!
//! The buffer cache is what makes disk-controller caches so peculiar:
//! any block with temporal locality is absorbed here, so the accesses
//! that reach the disk have almost none (§2.1). HDC inverts this:
//! the host *knows* which blocks keep missing in this cache, and pins
//! exactly those in the controller memories (§5). The HDC planners
//! count those misses from the disk-level trace this cache derives
//! (`Trace::block_access_counts`).
//!
//! Recency is one slab-backed intrusive LRU list
//! ([`forhdc_cache::list`]): every access, install, and eviction is
//! O(1), replacing the original `BTreeSet<(stamp, block)>` ordering
//! whose O(log n) churn sat on the per-I/O hot path (DESIGN.md §6.2).

use forhdc_cache::fx::{fx_map_with_capacity, FxHashMap};
use forhdc_cache::list::{List, Slab};
use forhdc_sim::{LogicalBlock, ReadWrite};

/// Outcome of one buffer-cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BufferAccess {
    /// Served from memory; the disk is not involved.
    Hit,
    /// The block must be read from (or, for a write in write-through
    /// accounting, written to) the disk.
    Miss,
}

impl BufferAccess {
    /// Returns `true` for [`BufferAccess::Hit`].
    pub fn is_hit(self) -> bool {
        matches!(self, BufferAccess::Hit)
    }
}

/// Pre-sizing is capped so a pathological capacity (the field is a
/// `u64`) cannot make construction allocate gigabytes up front.
const PRESIZE_CAP: u64 = 1 << 20;

/// A fixed-capacity LRU buffer cache over logical blocks.
///
/// # Example
///
/// ```
/// use forhdc_host::BufferCache;
/// use forhdc_sim::{LogicalBlock, ReadWrite};
///
/// let mut bc = BufferCache::new(2);
/// assert!(!bc.access(LogicalBlock::new(1), ReadWrite::Read).is_hit());
/// assert!(bc.access(LogicalBlock::new(1), ReadWrite::Read).is_hit());
/// ```
#[derive(Debug)]
pub struct BufferCache {
    map: FxHashMap<LogicalBlock, u32>,
    nodes: Slab<LogicalBlock>,
    /// Head = most recently used; tail = eviction victim.
    lru: List,
    capacity: u64,
    hits: u64,
    misses: u64,
}

impl BufferCache {
    /// Creates an empty cache of `capacity` blocks, pre-sized so the
    /// steady state never rehashes.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: u64) -> Self {
        assert!(capacity > 0, "buffer cache capacity must be positive");
        let presize = capacity.min(PRESIZE_CAP) as usize;
        BufferCache {
            map: fx_map_with_capacity(presize),
            nodes: Slab::with_capacity(presize),
            lru: List::new(),
            capacity,
            hits: 0,
            misses: 0,
        }
    }

    /// Moves a resident node to the MRU position.
    fn promote(&mut self, idx: u32) {
        self.nodes.remove(&mut self.lru, idx);
        self.nodes.push_front(&mut self.lru, idx);
    }

    /// Evicts the LRU block when the cache is full, then links `block`
    /// at the MRU position.
    fn insert_new(&mut self, block: LogicalBlock) {
        if self.map.len() as u64 >= self.capacity {
            if let Some(victim_idx) = self.nodes.tail(&self.lru) {
                let victim = *self.nodes.get(victim_idx);
                self.nodes.remove(&mut self.lru, victim_idx);
                self.nodes.release(victim_idx);
                self.map.remove(&victim);
            }
        }
        let idx = self.nodes.alloc(block);
        self.nodes.push_front(&mut self.lru, idx);
        self.map.insert(block, idx);
    }

    /// Accesses one block; on a miss the block is brought in (evicting
    /// the LRU block if needed) and the miss total increments.
    /// Reads and writes are treated alike for residency (a write miss
    /// allocates), which matches the paper's logs containing both.
    pub fn access(&mut self, block: LogicalBlock, kind: ReadWrite) -> BufferAccess {
        let _ = kind;
        if let Some(&idx) = self.map.get(&block) {
            self.promote(idx);
            self.hits += 1;
            return BufferAccess::Hit;
        }
        self.misses += 1;
        self.insert_new(block);
        BufferAccess::Miss
    }

    /// Inserts a block without counting a miss (used for prefetched
    /// blocks: the disk access is charged to the prefetch, not to the
    /// later demand access).
    pub fn install(&mut self, block: LogicalBlock) {
        if let Some(&idx) = self.map.get(&block) {
            self.promote(idx);
            return;
        }
        self.insert_new(block);
    }

    /// Deep structural validation for checked mode (DESIGN.md §6.5):
    /// LRU list ↔ map agreement (every listed node maps back to its
    /// slab index, every resident block is listed exactly once) and
    /// occupancy ≤ capacity. O(residents) — called only from audit
    /// points behind `Auditor::enabled()`.
    pub fn check_coherence(&self) -> Result<(), String> {
        if self.map.len() as u64 > self.capacity {
            return Err(format!(
                "occupancy {} exceeds capacity {}",
                self.map.len(),
                self.capacity
            ));
        }
        let mut listed = 0usize;
        for idx in self.nodes.iter(&self.lru) {
            let block = *self.nodes.get(idx);
            if self.map.get(&block) != Some(&idx) {
                return Err(format!(
                    "block {block} on the LRU list maps to {:?}, not node {idx}",
                    self.map.get(&block)
                ));
            }
            listed += 1;
        }
        if listed != self.map.len() {
            return Err(format!(
                "{} resident blocks but {listed} LRU nodes",
                self.map.len()
            ));
        }
        Ok(())
    }

    /// Whether `block` is resident.
    pub fn contains(&self, block: LogicalBlock) -> bool {
        self.map.contains_key(&block)
    }

    /// Resident block count.
    pub fn len(&self) -> u64 {
        self.map.len() as u64
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Capacity in blocks.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Total hits.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Total misses.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Hit rate in `[0, 1]` (0 before any access).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(n: u64) -> LogicalBlock {
        LogicalBlock::new(n)
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = BufferCache::new(2);
        c.access(b(1), ReadWrite::Read);
        c.access(b(2), ReadWrite::Read);
        c.access(b(1), ReadWrite::Read); // 1 is now MRU
        c.access(b(3), ReadWrite::Read); // evicts 2
        assert!(c.contains(b(1)));
        assert!(!c.contains(b(2)));
        assert!(c.contains(b(3)));
    }

    #[test]
    fn miss_counts_accumulate_per_block() {
        let mut c = BufferCache::new(1);
        c.access(b(1), ReadWrite::Read); // miss
        c.access(b(2), ReadWrite::Read); // miss, evicts 1
        c.access(b(1), ReadWrite::Read); // miss again
        assert_eq!(c.misses(), 3);
        assert_eq!(c.hits(), 0);
    }

    #[test]
    fn install_does_not_count_misses() {
        let mut c = BufferCache::new(4);
        c.install(b(5));
        assert!(c.contains(b(5)));
        assert_eq!(c.misses(), 0);
        assert!(c.access(b(5), ReadWrite::Read).is_hit());
        assert_eq!(c.hit_rate(), 1.0);
    }

    #[test]
    fn install_refreshes_recency() {
        let mut c = BufferCache::new(2);
        c.access(b(1), ReadWrite::Read);
        c.access(b(2), ReadWrite::Read);
        c.install(b(1)); // 1 becomes MRU without a miss
        c.access(b(3), ReadWrite::Read); // evicts 2
        assert!(c.contains(b(1)));
        assert!(!c.contains(b(2)));
    }

    #[test]
    fn writes_allocate() {
        let mut c = BufferCache::new(4);
        assert!(!c.access(b(7), ReadWrite::Write).is_hit());
        assert!(c.access(b(7), ReadWrite::Read).is_hit());
    }

    #[test]
    fn capacity_is_respected() {
        let mut c = BufferCache::new(8);
        for i in 0..100 {
            c.access(b(i), ReadWrite::Read);
            assert!(c.len() <= 8);
        }
        assert_eq!(c.len(), 8);
        assert_eq!(c.capacity(), 8);
        assert!(!c.is_empty());
    }

    #[test]
    fn hit_rate_zero_before_accesses() {
        assert_eq!(BufferCache::new(1).hit_rate(), 0.0);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = BufferCache::new(0);
    }
}
