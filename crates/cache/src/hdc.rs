//! The Host-guided Device Caching (HDC) region of section 5.
//!
//! The host controls part of each controller cache through three
//! commands: `pin_blk()` reads a block and marks it non-replaceable,
//! `unpin_blk()` clears the flag, and `flush_hdc()` writes all dirty
//! pinned blocks to the media. Dirty pinned blocks are *not* updated on
//! disk automatically — the host decides when to sync (e.g. the Unix
//! 30-second policy, whose throughput effect the paper measured at
//! under 1 %).

use std::fmt;

use forhdc_sim::PhysBlock;

use crate::probe::{fib_hash, ProbeMap};

/// Counters for the HDC region.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HdcStats {
    /// Read lookups that found a pinned block.
    pub read_hits: u64,
    /// Read lookups that missed.
    pub read_misses: u64,
    /// Writes absorbed by a pinned block (marked dirty, no media op).
    pub write_hits: u64,
    /// Writes that missed.
    pub write_misses: u64,
    /// Blocks pinned over the region's lifetime.
    pub pins: u64,
    /// Blocks unpinned.
    pub unpins: u64,
    /// Dirty blocks written back by flushes.
    pub flushed: u64,
}

impl HdcStats {
    /// Total lookups (reads + writes).
    pub fn lookups(&self) -> u64 {
        self.read_hits + self.read_misses + self.write_hits + self.write_misses
    }

    /// Overall hit rate (reads and writes) in `[0, 1]`, as the paper
    /// reports it: "accesses (reads and writes) that hit in the HDC
    /// caches divided by the total number of accesses".
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.lookups();
        if lookups == 0 {
            0.0
        } else {
            (self.read_hits + self.write_hits) as f64 / lookups as f64
        }
    }

    /// Merges another region's counters (array-wide aggregation).
    pub fn merge(&mut self, other: &HdcStats) {
        self.read_hits += other.read_hits;
        self.read_misses += other.read_misses;
        self.write_hits += other.write_hits;
        self.write_misses += other.write_misses;
        self.pins += other.pins;
        self.unpins += other.unpins;
        self.flushed += other.flushed;
    }
}

impl fmt::Display for HdcStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "HDC hits {}/{} ({:.1}%), {} pinned over lifetime, {} flushed",
            self.read_hits + self.write_hits,
            self.lookups(),
            100.0 * self.hit_rate(),
            self.pins,
            self.flushed
        )
    }
}

/// Error returned by [`HdcRegion::pin`] when the region is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PinError {
    /// The configured capacity that was exhausted.
    pub capacity: u32,
}

impl fmt::Display for PinError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "HDC region full ({} blocks)", self.capacity)
    }
}

impl std::error::Error for PinError {}

/// The host-managed, non-replaceable portion of one controller cache.
///
/// # Example
///
/// ```
/// use forhdc_cache::HdcRegion;
/// use forhdc_sim::PhysBlock;
///
/// let mut hdc = HdcRegion::new(512); // 2 MB of 4-KByte blocks
/// hdc.pin(PhysBlock::new(42))?;
/// assert!(hdc.read(PhysBlock::new(42)));
/// assert!(hdc.write(PhysBlock::new(42))); // absorbed, marked dirty
/// assert_eq!(hdc.flush(), vec![PhysBlock::new(42)]);
/// # Ok::<(), forhdc_cache::PinError>(())
/// ```
#[derive(Debug)]
pub struct HdcRegion {
    pinned: ProbeMap<bool>, // value = dirty
    /// One bit per hash of a block ever pinned since the last rebuild:
    /// a clear bit proves the block is not pinned, so most misses skip
    /// the map. Sized at 32 bits per pinnable block, a power of two.
    filter: Box<[u64]>,
    /// 64 − log2 of the filter's bit count.
    filter_shift: u32,
    /// Unpins since the last rebuild: an upper bound on the bits set
    /// for no pinned block.
    stale: u32,
    /// Blocks appended as their dirty bit turns on, so a flush visits
    /// only dirty candidates instead of sweeping every pinned block.
    /// May hold stale entries (a block unpinned, or unpinned and
    /// re-dirtied, since the append); the flush filters against the
    /// live dirty bits.
    dirty_list: Vec<PhysBlock>,
    /// Live dirty-block count (kept exact; `dirty_list` may over-count).
    dirty: u32,
    capacity: u32,
    stats: HdcStats,
    /// Clean→dirty transitions over the region's lifetime. Every such
    /// transition must end as a flushed write-back, a dirty unpin
    /// (caller-owned write-back), or a lost write under fault
    /// injection — the conservation invariant the property tests hold.
    dirtied: u64,
    /// Dirty blocks handed back to the caller by [`HdcRegion::unpin`].
    dirty_unpins: u64,
}

impl HdcRegion {
    /// Creates an empty region able to pin `capacity` blocks.
    /// A zero capacity creates a permanently empty region (HDC off).
    pub fn new(capacity: u32) -> Self {
        let bits = (capacity as usize * 32).max(64).next_power_of_two();
        HdcRegion {
            pinned: ProbeMap::new(capacity as usize),
            filter: vec![0; bits / 64].into_boxed_slice(),
            filter_shift: 64 - bits.trailing_zeros(),
            stale: 0,
            dirty_list: Vec::new(),
            dirty: 0,
            capacity,
            stats: HdcStats::default(),
            dirtied: 0,
            dirty_unpins: 0,
        }
    }

    /// Pins `block` into the region (the `pin_blk()` command). Pinning
    /// an already pinned block is a no-op that preserves its dirty bit.
    ///
    /// The caller is responsible for the media read that loads the
    /// block's contents (the system simulation charges it).
    ///
    /// # Errors
    ///
    /// Returns [`PinError`] if the region is at capacity.
    pub fn pin(&mut self, block: PhysBlock) -> Result<(), PinError> {
        if self.contains(block) {
            return Ok(());
        }
        if self.pinned.len() as u32 >= self.capacity {
            return Err(PinError {
                capacity: self.capacity,
            });
        }
        self.pinned.insert(block.index(), false);
        let (w, m) = self.bit(block.index());
        self.filter[w] |= m;
        self.stats.pins += 1;
        Ok(())
    }

    /// The filter word and bit of `key`.
    #[inline]
    fn bit(&self, key: u64) -> (usize, u64) {
        let h = fib_hash(key, self.filter_shift);
        (h / 64, 1 << (h % 64))
    }

    /// Whether `block` may be pinned: false proves it is not.
    #[inline]
    fn may_hold(&self, block: PhysBlock) -> bool {
        let (w, m) = self.bit(block.index());
        self.filter[w] & m != 0
    }

    /// Unpins `block` (the `unpin_blk()` command). Returns the dirty
    /// bit if the block was pinned — a dirty unpinned block must be
    /// written back by the caller.
    pub fn unpin(&mut self, block: PhysBlock) -> Option<bool> {
        let dirty = self.pinned.remove(block.index());
        if dirty.is_some() {
            self.stats.unpins += 1;
            // The block's bit stays set: a stale bit costs one probe.
            // Rebuilding once stale bits outnumber the capacity keeps
            // the rebuild amortised O(1) per unpin.
            self.stale += 1;
            if self.stale > self.capacity {
                self.rebuild_filter();
            }
        }
        if dirty == Some(true) {
            // The block's `dirty_list` entry goes stale; the flush
            // filter discards it.
            self.dirty -= 1;
            self.dirty_unpins += 1;
        }
        dirty
    }

    /// Clears the filter and sets the bits of the pinned blocks only.
    fn rebuild_filter(&mut self) {
        self.filter.fill(0);
        for (key, _) in self.pinned.iter() {
            let (w, m) = self.bit(key);
            self.filter[w] |= m;
        }
        self.stale = 0;
    }

    /// Whether `block` is pinned (no stats update).
    #[inline]
    pub fn contains(&self, block: PhysBlock) -> bool {
        self.may_hold(block) && self.pinned.contains_key(block.index())
    }

    /// Read lookup: returns `true` (and counts a hit) when pinned.
    pub fn read(&mut self, block: PhysBlock) -> bool {
        if self.contains(block) {
            self.stats.read_hits += 1;
            true
        } else {
            self.stats.read_misses += 1;
            false
        }
    }

    /// Batched miss accounting: counts `reads` read lookups and
    /// `writes` write lookups that all missed. The controller's
    /// empty-region fast path uses this to keep [`HdcStats`] identical
    /// to per-block lookups without paying a hash probe per block.
    pub fn note_misses(&mut self, reads: u64, writes: u64) {
        self.stats.read_misses += reads;
        self.stats.write_misses += writes;
    }

    /// Write lookup: when pinned, absorbs the write (marks the block
    /// dirty) and returns `true`; the media is not touched until
    /// [`HdcRegion::flush`].
    pub fn write(&mut self, block: PhysBlock) -> bool {
        let entry = if self.may_hold(block) {
            self.pinned.get_mut(block.index())
        } else {
            None
        };
        if let Some(dirty) = entry {
            if !*dirty {
                *dirty = true;
                self.dirty += 1;
                self.dirtied += 1;
                self.dirty_list.push(block);
            }
            self.stats.write_hits += 1;
            true
        } else {
            self.stats.write_misses += 1;
            false
        }
    }

    /// The `flush_hdc()` command: clears all dirty bits and returns the
    /// blocks that must be written to the media, in ascending order
    /// (deterministic).
    pub fn flush(&mut self) -> Vec<PhysBlock> {
        let mut out = Vec::new();
        self.flush_into(&mut out);
        out
    }

    /// Allocation-free [`HdcRegion::flush`]: clears `out` and fills it
    /// with the dirty blocks, ascending. Cost is proportional to the
    /// dirty set, not the pinned set.
    pub fn flush_into(&mut self, out: &mut Vec<PhysBlock>) {
        out.clear();
        for b in self.dirty_list.drain(..) {
            if let Some(d) = self.pinned.get_mut(b.index()) {
                // Clearing the bit as we go also drops duplicate list
                // entries from unpin/re-pin/re-dirty cycles.
                if *d {
                    *d = false;
                    out.push(b);
                }
            }
        }
        out.sort_unstable();
        self.dirty = 0;
        self.stats.flushed += out.len() as u64;
    }

    /// Undoes a failed flush write-back: the media never received
    /// `blocks`, so their "flushed" accounting is reverted and each
    /// block still pinned is re-marked dirty for a later flush. Blocks
    /// unpinned since the flush drained them have nowhere to live —
    /// their count is returned as *lost writes*.
    pub fn unflush(&mut self, blocks: &[PhysBlock]) -> u64 {
        self.stats.flushed = self.stats.flushed.saturating_sub(blocks.len() as u64);
        let mut lost = 0;
        for &b in blocks {
            match self.pinned.get_mut(b.index()) {
                Some(dirty) => {
                    if !*dirty {
                        *dirty = true;
                        self.dirty += 1;
                        // Not a new clean→dirty transition: `dirtied`
                        // already counted this write when it happened.
                        self.dirty_list.push(b);
                    } else {
                        // The host re-dirtied the block while its flush
                        // was in flight: the flush's (older) version is
                        // superseded in memory and never reached media,
                        // so that data version is a lost write.
                        lost += 1;
                    }
                }
                None => lost += 1,
            }
        }
        lost
    }

    /// Controller power loss: volatile contents vanish, so every dirty
    /// pinned block's unsynced data is gone. Clears all dirty bits
    /// (the pins themselves survive — the host re-loads them) and
    /// returns the number of lost dirty blocks.
    pub fn discard_dirty(&mut self) -> u64 {
        let mut lost = 0;
        for b in self.dirty_list.drain(..) {
            if let Some(d) = self.pinned.get_mut(b.index()) {
                if *d {
                    *d = false;
                    lost += 1;
                }
            }
        }
        self.dirty = 0;
        lost
    }

    /// Deep structural validation for checked mode (DESIGN.md §6.5):
    /// occupancy ≤ capacity, the O(1) dirty counter matching the live
    /// dirty bits, every pinned block's filter bit set (so a lookup
    /// cannot miss it), every dirty pinned block reachable through
    /// `dirty_list` (so a flush cannot strand one), and the local
    /// conservation bound `dirtied ≥ flushed + dirty-unpins + dirty`
    /// (the remainder is lost writes, tallied by the caller under
    /// fault injection). O(pinned + dirty-list) — called only from
    /// audit points behind `Auditor::enabled()`.
    pub fn check_coherence(&self) -> Result<(), String> {
        if self.pinned.len() as u32 > self.capacity {
            return Err(format!(
                "{} pinned blocks exceed capacity {}",
                self.pinned.len(),
                self.capacity
            ));
        }
        let live_dirty = self.pinned.iter().filter(|&(_, d)| d).count() as u32;
        if live_dirty != self.dirty {
            return Err(format!(
                "dirty counter {} but {live_dirty} dirty bits set",
                self.dirty
            ));
        }
        for (key, dirty) in self.pinned.iter() {
            let block = PhysBlock::new(key);
            if !self.may_hold(block) {
                return Err(format!("pinned block {block} missing from the filter"));
            }
            if dirty && !self.dirty_list.contains(&block) {
                return Err(format!("dirty block {block} missing from the flush list"));
            }
        }
        let accounted = self.stats.flushed + self.dirty_unpins + self.dirty as u64;
        if self.dirtied < accounted {
            return Err(format!(
                "dirtied {} < flushed {} + dirty-unpins {} + still-dirty {}",
                self.dirtied, self.stats.flushed, self.dirty_unpins, self.dirty
            ));
        }
        Ok(())
    }

    /// Clean→dirty transitions over the region's lifetime.
    pub fn dirtied(&self) -> u64 {
        self.dirtied
    }

    /// Dirty blocks returned to the caller by unpins.
    pub fn dirty_unpins(&self) -> u64 {
        self.dirty_unpins
    }

    /// Number of blocks currently pinned.
    pub fn len(&self) -> u32 {
        self.pinned.len() as u32
    }

    /// Whether nothing is pinned.
    pub fn is_empty(&self) -> bool {
        self.pinned.is_empty()
    }

    /// Number of currently dirty blocks (O(1)).
    pub fn dirty_count(&self) -> u32 {
        self.dirty
    }

    /// Configured capacity in blocks.
    pub fn capacity(&self) -> u32 {
        self.capacity
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &HdcStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(n: u64) -> PhysBlock {
        PhysBlock::new(n)
    }

    #[test]
    fn pin_read_write_flush_cycle() {
        let mut h = HdcRegion::new(4);
        h.pin(b(1)).unwrap();
        h.pin(b(2)).unwrap();
        assert!(h.read(b(1)));
        assert!(!h.read(b(3)));
        assert!(h.write(b(2)));
        assert!(!h.write(b(3)));
        assert_eq!(h.dirty_count(), 1);
        assert_eq!(h.flush(), vec![b(2)]);
        assert_eq!(h.dirty_count(), 0);
        assert_eq!(h.stats().flushed, 1);
    }

    #[test]
    fn capacity_enforced() {
        let mut h = HdcRegion::new(2);
        h.pin(b(1)).unwrap();
        h.pin(b(2)).unwrap();
        assert_eq!(h.pin(b(3)), Err(PinError { capacity: 2 }));
        // Re-pinning an existing block is fine even at capacity.
        assert_eq!(h.pin(b(1)), Ok(()));
        assert_eq!(h.len(), 2);
    }

    #[test]
    fn repin_preserves_dirty_bit() {
        let mut h = HdcRegion::new(2);
        h.pin(b(1)).unwrap();
        h.write(b(1));
        h.pin(b(1)).unwrap();
        assert_eq!(h.dirty_count(), 1);
    }

    #[test]
    fn unpin_returns_dirty_state() {
        let mut h = HdcRegion::new(2);
        h.pin(b(1)).unwrap();
        h.pin(b(2)).unwrap();
        h.write(b(2));
        assert_eq!(h.unpin(b(1)), Some(false));
        assert_eq!(h.unpin(b(2)), Some(true));
        assert_eq!(h.unpin(b(9)), None);
        assert!(h.is_empty());
    }

    #[test]
    fn zero_capacity_region_rejects_everything() {
        let mut h = HdcRegion::new(0);
        assert!(h.pin(b(1)).is_err());
        assert!(!h.read(b(1)));
        assert_eq!(h.stats().read_misses, 1);
    }

    #[test]
    fn hit_rate_counts_reads_and_writes() {
        let mut h = HdcRegion::new(4);
        h.pin(b(1)).unwrap();
        h.read(b(1)); // hit
        h.read(b(2)); // miss
        h.write(b(1)); // hit
        h.write(b(3)); // miss
        assert!((h.stats().hit_rate() - 0.5).abs() < 1e-12);
        assert_eq!(h.stats().lookups(), 4);
    }

    #[test]
    fn flush_is_sorted_and_repeatable() {
        let mut h = HdcRegion::new(8);
        for i in [5u64, 3, 7, 1] {
            h.pin(b(i)).unwrap();
            h.write(b(i));
        }
        assert_eq!(h.flush(), vec![b(1), b(3), b(5), b(7)]);
        assert!(h.flush().is_empty());
    }

    #[test]
    fn unpin_repin_redirty_flushes_once() {
        // The dirty list may carry duplicates through an
        // unpin/re-pin/re-dirty cycle; the flush must not.
        let mut h = HdcRegion::new(4);
        h.pin(b(1)).unwrap();
        h.write(b(1));
        h.unpin(b(1));
        assert_eq!(h.dirty_count(), 0);
        h.pin(b(1)).unwrap();
        h.write(b(1));
        h.pin(b(2)).unwrap();
        h.write(b(2));
        h.unpin(b(2)); // dirty entry goes stale
        assert_eq!(h.dirty_count(), 1);
        assert_eq!(h.flush(), vec![b(1)]);
        assert_eq!(h.stats().flushed, 1);
        assert_eq!(h.dirty_count(), 0);
    }

    #[test]
    fn flush_into_reuses_buffer() {
        let mut h = HdcRegion::new(4);
        h.pin(b(3)).unwrap();
        h.write(b(3));
        let mut buf = vec![b(99)]; // stale content must be cleared
        h.flush_into(&mut buf);
        assert_eq!(buf, vec![b(3)]);
        h.flush_into(&mut buf);
        assert!(buf.is_empty());
    }

    #[test]
    fn unflush_re_dirties_and_reverts_accounting() {
        let mut h = HdcRegion::new(4);
        h.pin(b(1)).unwrap();
        h.pin(b(2)).unwrap();
        h.write(b(1));
        h.write(b(2));
        assert_eq!(h.dirtied(), 2);
        let flushed = h.flush();
        assert_eq!(h.stats().flushed, 2);
        // The write-back failed: both blocks still pinned, so nothing
        // is lost and both are dirty again for the next flush.
        assert_eq!(h.unflush(&flushed), 0);
        assert_eq!(h.stats().flushed, 0);
        assert_eq!(h.dirty_count(), 2);
        assert_eq!(h.dirtied(), 2); // not re-counted
        assert_eq!(h.flush(), vec![b(1), b(2)]);
        assert_eq!(h.stats().flushed, 2);
        // Conservation: dirtied == flushed + lost + dirty unpins.
        assert_eq!(h.dirtied(), h.stats().flushed + h.dirty_unpins());
    }

    #[test]
    fn unflush_counts_unpinned_blocks_as_lost() {
        let mut h = HdcRegion::new(4);
        h.pin(b(1)).unwrap();
        h.pin(b(2)).unwrap();
        h.write(b(1));
        h.write(b(2));
        let flushed = h.flush();
        h.unpin(b(2)); // clean at unpin time: not a dirty unpin
        assert_eq!(h.unflush(&flushed), 1);
        assert_eq!(h.dirty_count(), 1);
        assert_eq!(h.dirtied(), h.stats().flushed + h.dirty_count() as u64 + 1);
    }

    #[test]
    fn discard_dirty_loses_unsynced_writes_but_keeps_pins() {
        let mut h = HdcRegion::new(4);
        h.pin(b(1)).unwrap();
        h.pin(b(2)).unwrap();
        h.write(b(1));
        assert_eq!(h.discard_dirty(), 1);
        assert_eq!(h.dirty_count(), 0);
        assert_eq!(h.len(), 2); // pins survive the power cycle
        assert!(h.flush().is_empty());
        // Re-dirtying after the loss is a fresh transition.
        h.write(b(1));
        assert_eq!(h.dirtied(), 2);
    }

    #[test]
    fn stats_merge() {
        let mut a = HdcStats {
            read_hits: 1,
            ..HdcStats::default()
        };
        let b = HdcStats {
            read_hits: 2,
            write_misses: 3,
            ..HdcStats::default()
        };
        a.merge(&b);
        assert_eq!(a.read_hits, 3);
        assert_eq!(a.write_misses, 3);
    }
}
