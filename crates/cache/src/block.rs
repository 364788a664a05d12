//! The block-based controller-cache organization of section 4.
//!
//! Blocks are assigned to streams on demand from a pool of free blocks;
//! when the pool runs dry, individual blocks are replaced. The paper's
//! FOR technique replaces blocks **MRU** — and the recency that matters
//! is the *host's* accesses: controller caches have almost no temporal
//! locality (§2.1), so a block the host just consumed is the least
//! likely to be needed again (the host now caches it itself), while a
//! prefetched block that has *not* been consumed yet is exactly the
//! data a live stream is about to demand. Eviction therefore prefers
//! consumed blocks (most recently consumed first) and falls back to the
//! stalest unconsumed prefetch only when every resident block is still
//! awaiting its first use.
//!
//! Replacement is per block, but the bookkeeping is per **run**: blocks
//! `start..start + len` whose recency stamps are consecutive too
//! (`stamp..stamp + len`, so the top block is the run's most recent).
//! A FOR miss installs its demanded blocks and read-ahead as one run,
//! evicts its victims a run at a time, and a sequential hit moves its
//! blocks to the consumed list as one run. Runs sit on two
//! slab-backed intrusive lists ([`crate::list`]) — consumed ("used")
//! and never-consumed — most recent first. Eviction order is
//! observably identical to a per-block cache with `BTreeSet<(stamp,
//! block)>` recency sets (DESIGN.md §6.2, §6.12).

use forhdc_sim::PhysBlock;

use crate::list::{List, Slab};
use crate::probe::ProbeMap;
use crate::stats::CacheStats;
use crate::ControllerCache;

/// Replacement policy for [`BlockCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BlockReplacement {
    /// Evict consumed blocks first, most recently consumed first; fall
    /// back to the oldest unconsumed prefetch (the paper's FOR choice).
    #[default]
    Mru,
    /// Evict the least recently inserted-or-touched block (ablation).
    Lru,
}

/// Resident blocks `start..start + len`, all on one recency list, with
/// block `start + i` stamped `stamp + i`.
#[derive(Debug, Clone, Copy)]
struct Run {
    start: u64,
    len: u32,
    /// Stamp of the bottom block. Stamps come from one monotonic clock,
    /// so no two resident blocks share one.
    stamp: u64,
    /// Blocks at offsets `ra_from..len` were inserted by read-ahead and
    /// not yet demanded. Always `<= len`, and `== len` on the `used`
    /// list: a consumed block's provenance no longer counts.
    ra_from: u32,
    /// Whether the run is on the `used` list.
    used: bool,
}

impl Run {
    /// One past the top block.
    fn end(&self) -> u64 {
        self.start + self.len as u64
    }

    fn top(&self) -> u64 {
        self.end() - 1
    }

    /// Stamp of the top block, the run's most recent.
    fn top_stamp(&self) -> u64 {
        self.stamp + self.len as u64 - 1
    }

    /// Read-ahead blocks among offsets `lo..hi`.
    fn ra_in(&self, lo: u32, hi: u32) -> u32 {
        hi.saturating_sub(lo.max(self.ra_from))
    }
}

/// Index of the list of runs the host has demanded.
const USED: usize = 1;
/// Index of the list of runs never demanded since insertion.
const UNUSED: usize = 0;

/// A bitmap over block numbers, grown on demand.
#[derive(Debug, Default)]
struct Bits(Vec<u64>);

impl Bits {
    #[inline]
    fn get(&self, i: u64) -> bool {
        self.0
            .get((i / 64) as usize)
            .is_some_and(|w| w & (1u64 << (i % 64)) != 0)
    }

    /// Makes bits below `end` addressable.
    fn grow(&mut self, end: u64) {
        let words = end.div_ceil(64) as usize;
        if words > self.0.len() {
            self.0.resize(words, 0);
        }
    }

    #[inline]
    fn set(&mut self, i: u64) {
        self.0[(i / 64) as usize] |= 1u64 << (i % 64);
    }

    #[inline]
    fn clear(&mut self, i: u64) {
        self.0[(i / 64) as usize] &= !(1u64 << (i % 64));
    }

    /// Sets (`on`) or clears bits `lo..hi`, a word at a time.
    fn fill(&mut self, lo: u64, hi: u64, on: bool) {
        let mut i = lo;
        while i < hi {
            let w = (i / 64) as usize;
            let bit = i % 64;
            let n = (hi - i).min(64 - bit);
            let mask = (u64::MAX >> (64 - n)) << bit;
            if on {
                self.0[w] |= mask;
            } else {
                self.0[w] &= !mask;
            }
            i += n;
        }
    }

    /// The first set bit in `i..limit`, or `limit` when there is none.
    #[inline]
    fn next_set(&self, i: u64, limit: u64) -> u64 {
        let mut w = (i / 64) as usize;
        let mut word = match self.0.get(w) {
            Some(x) => x & (u64::MAX << (i % 64)),
            None => return limit,
        };
        loop {
            if word != 0 {
                return (w as u64 * 64 + word.trailing_zeros() as u64).min(limit);
            }
            w += 1;
            if w as u64 * 64 >= limit {
                return limit;
            }
            match self.0.get(w) {
                Some(&x) => word = x,
                None => return limit,
            }
        }
    }

    fn count(&self) -> u64 {
        self.0.iter().map(|w| w.count_ones() as u64).sum()
    }
}

/// One past the highest block the cache can hold: `insert_run` panics
/// at or past it, so a wild block number fails loudly instead of
/// growing the bitmaps.
/// Real disks sit far below it (a few million blocks); each bitmap
/// covering the whole range would take 16 MiB.
const FILTER_LIMIT: u64 = 1 << 27;

/// A pool of individually replaceable cache blocks.
///
/// # Example
///
/// ```
/// use forhdc_cache::{BlockCache, BlockReplacement, ControllerCache};
/// use forhdc_sim::PhysBlock;
///
/// let mut c = BlockCache::new(4, BlockReplacement::Mru);
/// c.insert_run(PhysBlock::new(0), 4, 4);
/// c.touch(PhysBlock::new(0)); // host consumes block 0
/// // Inserting one more evicts the consumed block, not the live data.
/// c.insert_run(PhysBlock::new(100), 1, 1);
/// assert!(!c.contains(PhysBlock::new(0)));
/// assert!(c.contains(PhysBlock::new(3)));
/// ```
#[derive(Debug)]
pub struct BlockCache {
    /// Residency bitmap: bit `b` is set iff block `b` is resident.
    /// Controller caches are miss-dominated (§2.1), and this keeps
    /// every per-block miss one word read.
    present: Bits,
    /// Bit `b` is set iff block `b` is the top block of a run. Runs do
    /// not overlap, so a resident block belongs to the run whose top
    /// is the first set bit at or after it.
    tops: Bits,
    /// Run top block → run node.
    by_top: ProbeMap<u32>,
    nodes: Slab<Run>,
    /// The recency lists, indexed by a run's `used` flag:
    /// `lists[USED]` holds runs the host has demanded, head = most
    /// recently consumed; `lists[UNUSED]` runs never demanded since
    /// insertion, head = most recently inserted, tail = stalest
    /// prefetch.
    lists: [List; 2],
    resident: u32,
    capacity: u32,
    policy: BlockReplacement,
    clock: u64,
    stats: CacheStats,
}

impl BlockCache {
    /// Creates an empty cache of `capacity` blocks.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: u32, policy: BlockReplacement) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        BlockCache {
            present: Bits::default(),
            tops: Bits::default(),
            // Runs never outnumber resident blocks, except for the one
            // an insertion links before it evicts.
            by_top: ProbeMap::new(capacity as usize + 1),
            nodes: Slab::with_capacity(capacity as usize + 1),
            lists: [List::new(); 2],
            resident: 0,
            capacity,
            policy,
            clock: 0,
            stats: CacheStats::new(),
        }
    }

    /// The replacement policy in force.
    pub fn policy(&self) -> BlockReplacement {
        self.policy
    }

    /// Looks up blocks `start..start + nblocks` in order, exactly as
    /// that many [`ControllerCache::touch`] calls would, and reports
    /// each block's outcome to `each`. A hit's blocks leave their run
    /// a run at a time, not a block at a time.
    pub fn touch_extent(
        &mut self,
        start: PhysBlock,
        nblocks: u32,
        mut each: impl FnMut(PhysBlock, bool),
    ) {
        self.stats.block_lookups += nblocks as u64;
        // The clock advances on misses too: block `start + i` is
        // stamped `stamp0 + i` whether or not it hits.
        let stamp0 = self.clock + 1;
        self.clock += nblocks as u64;
        let first = start.index();
        let end = first + nblocks as u64;
        let mut b = first;
        while b < end {
            if !self.present.get(b) {
                each(PhysBlock::new(b), false);
                b += 1;
                continue;
            }
            // A hit: it and the blocks after it in its run move as one.
            let idx = self.run_of(b);
            let run = *self.nodes.get(idx);
            let lo = (b - run.start) as u32;
            let hi = (end.min(run.end()) - run.start) as u32;
            let len = hi - lo;
            self.stats.block_hits += len as u64;
            self.stats.ra_used += run.ra_in(lo, hi) as u64;
            self.relink(idx, lo, hi, true, stamp0 + (b - first), len);
            for x in b..b + len as u64 {
                each(PhysBlock::new(x), true);
            }
            b += len as u64;
        }
    }

    /// The run holding resident block `block`.
    #[inline]
    fn run_of(&self, block: u64) -> u32 {
        self.by_top
            .get(self.tops.next_set(block, u64::MAX))
            .expect("a resident block's run top is indexed")
    }

    fn index(&mut self, top: u64, idx: u32) {
        self.tops.set(top);
        self.by_top.insert(top, idx);
    }

    fn unindex(&mut self, top: u64) {
        self.tops.clear(top);
        self.by_top.remove(top);
    }

    /// Moves offsets `lo..hi` of run `idx`, restamped from `stamp`, to
    /// the front of a list: a hit's blocks to `used`, a refresh's to
    /// `unused`, read-ahead from offset `ra_from` of the moved blocks.
    #[inline(always)]
    fn relink(&mut self, idx: u32, lo: u32, hi: u32, used: bool, stamp: u64, ra_from: u32) {
        let run = *self.nodes.get(idx);
        let piece = Run {
            start: run.start + lo as u64,
            len: hi - lo,
            stamp,
            ra_from,
            used,
        };
        let head = self.continued_head(&piece);
        if lo == 0 && hi == run.len {
            // The whole run moves; its node and its top go with it.
            self.nodes.remove(&mut self.lists[run.used as usize], idx);
            if head.is_none() {
                *self.nodes.get_mut(idx) = piece;
                self.nodes
                    .push_front(&mut self.lists[piece.used as usize], idx);
                return;
            }
            self.nodes.release(idx);
        } else {
            // A top piece takes over the run's top key; the run is
            // re-keyed at its new top.
            self.shrink(idx, lo, hi, hi < run.len);
        }
        self.attach(piece, head, hi == run.len);
    }

    /// The head run of `piece`'s list, if `piece` continues its blocks
    /// and its stamps (and read-ahead stays a suffix of the two).
    #[inline]
    fn continued_head(&self, piece: &Run) -> Option<u32> {
        let h = self.nodes.head(&self.lists[piece.used as usize])?;
        let head = self.nodes.get(h);
        (head.end() == piece.start
            && head.top_stamp() + 1 == piece.stamp
            && (head.ra_from == head.len || piece.ra_from == 0))
            .then_some(h)
    }

    /// Grows run `h` by `piece`, which continues it, and unindexes its
    /// old top; the caller indexes the new one.
    fn extend(&mut self, h: u32, piece: &Run) {
        let r = self.nodes.get_mut(h);
        let old_top = r.top();
        if r.ra_from == r.len {
            r.ra_from += piece.ra_from;
        }
        r.len += piece.len;
        self.unindex(old_top);
    }

    /// Links blocks no run holds: onto `head` (from
    /// [`BlockCache::continued_head`]) or as a new head run. `keyed`
    /// says `piece`'s top is already in the index, under a stale node.
    fn attach(&mut self, piece: Run, head: Option<u32>, keyed: bool) {
        let idx = match head {
            Some(h) => {
                self.extend(h, &piece);
                h
            }
            None => {
                let idx = self.nodes.alloc(piece);
                self.nodes
                    .push_front(&mut self.lists[piece.used as usize], idx);
                idx
            }
        };
        if keyed {
            self.by_top.insert(piece.top(), idx);
        } else {
            self.index(piece.top(), idx);
        }
    }

    /// Takes offsets `lo..hi`, not the whole run, out of run `idx`; the
    /// rest keeps its place on its list. Cutting the top re-keys the
    /// run, and `unindex` says whether to drop its old top's entry.
    fn shrink(&mut self, idx: u32, lo: u32, hi: u32, unindex: bool) {
        let run = *self.nodes.get(idx);
        if hi == run.len {
            // The bottom stays: only the top, and so the key, moves.
            let r = self.nodes.get_mut(idx);
            r.len = lo;
            r.ra_from = run.ra_from.min(lo);
            if unindex {
                self.unindex(run.top());
            }
            self.index(run.start + lo as u64 - 1, idx);
            return;
        }
        // The top stays in the node, under the same key.
        let r = self.nodes.get_mut(idx);
        r.start += hi as u64;
        r.stamp += hi as u64;
        r.len -= hi;
        r.ra_from = run.ra_from.saturating_sub(hi);
        if lo > 0 {
            // A mid-way cut: the bottom becomes a run of its own,
            // directly behind (staler than) the top.
            let below = self.nodes.alloc(Run {
                len: lo,
                ra_from: run.ra_from.min(lo),
                ..run
            });
            self.nodes
                .insert_after(&mut self.lists[run.used as usize], idx, below);
            self.index(run.start + lo as u64 - 1, below);
        }
    }

    /// Evicts offsets `lo..hi` of run `idx`, a top or a bottom slice.
    fn evict_slice(&mut self, idx: u32, lo: u32, hi: u32) {
        let run = *self.nodes.get(idx);
        self.present
            .fill(run.start + lo as u64, run.start + hi as u64, false);
        if lo == 0 && hi == run.len {
            self.nodes.remove(&mut self.lists[run.used as usize], idx);
            self.nodes.release(idx);
            self.unindex(run.top());
        } else {
            self.shrink(idx, lo, hi, true);
        }
        self.resident -= hi - lo;
        self.stats.evictions += (hi - lo) as u64;
    }

    /// Evicts `count` blocks in the order a per-block cache would pick
    /// them one insertion at a time. New blocks only ever enter at the
    /// front of `unused` and victims only leave from list ends, so
    /// taking them all after the insertion picks the same blocks
    /// (DESIGN.md §6.12).
    fn evict(&mut self, mut count: u32) {
        while count > 0 {
            let (idx, from_top) = match self.policy {
                // Most recently consumed blocks (the top of the used
                // head), else the stalest prefetches.
                BlockReplacement::Mru => match self.nodes.head(&self.lists[USED]) {
                    Some(h) => (h, true),
                    None => (
                        self.nodes.tail(&self.lists[UNUSED]).expect("over capacity"),
                        false,
                    ),
                },
                // Globally least recent: each tail run's bottom block
                // is its list's oldest. Stamps are unique, so the
                // staler tail run is wholly older than the other's
                // bottom.
                BlockReplacement::Lru => {
                    let tail = match (
                        self.nodes.tail(&self.lists[USED]),
                        self.nodes.tail(&self.lists[UNUSED]),
                    ) {
                        (Some(a), Some(b)) => {
                            if self.nodes.get(a).stamp < self.nodes.get(b).stamp {
                                a
                            } else {
                                b
                            }
                        }
                        (a, b) => a.or(b).expect("over capacity"),
                    };
                    (tail, false)
                }
            };
            let len = self.nodes.get(idx).len;
            let take = count.min(len);
            if from_top {
                self.evict_slice(idx, len - take, len);
            } else {
                self.evict_slice(idx, 0, take);
            }
            count -= take;
        }
    }

    /// Deep structural validation for checked mode (DESIGN.md §6.5):
    /// runs are non-empty, never overlap, and sit on the list their
    /// `used` flag names; the top index and both bitmaps agree with
    /// the lists exactly; stamps strictly decrease front to back along
    /// each list; occupancy ≤ capacity. O(residents + bitmap words) —
    /// called only from audit points behind `Auditor::enabled()`.
    pub fn check_coherence(&self) -> Result<(), String> {
        if self.resident > self.capacity {
            return Err(format!(
                "occupancy {} exceeds capacity {}",
                self.resident, self.capacity
            ));
        }
        let mut spans = Vec::with_capacity(self.by_top.len());
        let mut blocks = 0u64;
        for (list, name) in [(USED, "used"), (UNUSED, "unused")] {
            let used = list == USED;
            let mut prev_stamp: Option<u64> = None;
            for idx in self.nodes.iter(&self.lists[list]) {
                let run = self.nodes.get(idx);
                if run.len == 0 {
                    return Err(format!(
                        "empty run at block {} on the {name} list",
                        run.start
                    ));
                }
                if run.used != used {
                    return Err(format!(
                        "run at block {} on the {name} list has used={}",
                        run.start, run.used
                    ));
                }
                if run.ra_from > run.len || (used && run.ra_from != run.len) {
                    return Err(format!(
                        "run at block {} on the {name} list has read-ahead from offset {} of {}",
                        run.start, run.ra_from, run.len
                    ));
                }
                if prev_stamp.is_some_and(|p| run.top_stamp() >= p) {
                    return Err(format!(
                        "{name} list not in recency order at block {} (stamp {})",
                        run.top(),
                        run.top_stamp()
                    ));
                }
                prev_stamp = Some(run.stamp);
                if run.end() > FILTER_LIMIT {
                    return Err(format!("run at block {} passes the block limit", run.start));
                }
                if self.by_top.get(run.top()) != Some(idx) || !self.tops.get(run.top()) {
                    return Err(format!(
                        "run topped at block {} is indexed as {:?}, not node {idx}",
                        run.top(),
                        self.by_top.get(run.top())
                    ));
                }
                if let Some(b) = (run.start..run.end()).find(|&b| !self.present.get(b)) {
                    return Err(format!("resident block {b} missing from the filter"));
                }
                spans.push((run.start, run.end()));
                blocks += run.len as u64;
            }
        }
        if blocks != self.resident as u64 {
            return Err(format!(
                "{} resident blocks but {blocks} blocks in runs",
                self.resident
            ));
        }
        let tops = self.tops.count();
        if self.by_top.len() != spans.len() || tops != spans.len() as u64 {
            return Err(format!(
                "{} runs but {} index entries and {tops} top bits",
                spans.len(),
                self.by_top.len()
            ));
        }
        spans.sort_unstable();
        if let Some(w) = spans.windows(2).find(|w| w[0].1 > w[1].0) {
            return Err(format!("runs {:?} and {:?} overlap", w[0], w[1]));
        }
        let set = self.present.count();
        if set != blocks {
            return Err(format!(
                "residency filter holds {set} bits for {blocks} resident blocks"
            ));
        }
        Ok(())
    }
}

impl ControllerCache for BlockCache {
    fn contains(&self, block: PhysBlock) -> bool {
        self.present.get(block.index())
    }

    fn touch(&mut self, block: PhysBlock) -> bool {
        let mut hit = false;
        self.touch_extent(block, 1, |_, h| hit = h);
        hit
    }

    fn lookup_extent(&mut self, start: PhysBlock, nblocks: u32) -> bool {
        let mut all = true;
        self.touch_extent(start, nblocks, |_, hit| all &= hit);
        self.record_extent(all);
        all
    }

    /// Installs each maximal non-resident stretch of the run as one
    /// run, then evicts its overflow in bulk; resident stretches are
    /// refreshed, restamped and unconsumed again.
    ///
    /// # Panics
    ///
    /// Panics if the run reaches block `FILTER_LIMIT` (2^27).
    fn insert_run(&mut self, start: PhysBlock, nblocks: u32, requested: u32) {
        debug_assert!(requested <= nblocks);
        let first = start.index();
        let end = first + nblocks as u64;
        assert!(
            end <= FILTER_LIMIT,
            "block cache holds blocks below {FILTER_LIMIT}; run {start}+{nblocks} passes it"
        );
        self.present.grow(end);
        self.tops.grow(end);
        let stamp0 = self.clock + 1;
        self.clock += nblocks as u64;
        let mut b = first;
        while b < end {
            let pos = (b - first) as u32;
            // Offset, from `b`, of the first read-ahead block.
            let ra_from = requested.max(pos) - pos;
            let stamp = stamp0 + pos as u64;
            if self.present.get(b) {
                // Re-read of resident blocks: refresh them. A fresh
                // media read means a new stream wants them, so they
                // re-enter the unconsumed state, and the speculative
                // ones are re-counted so that a later demand keeps
                // `ra_used <= ra_inserted`.
                let idx = self.run_of(b);
                let run = *self.nodes.get(idx);
                let lo = (b - run.start) as u32;
                let len = (end.min(run.end()) - b) as u32;
                let ra_from = ra_from.min(len);
                self.stats.ra_inserted += (len - ra_from) as u64;
                self.relink(idx, lo, lo + len, false, stamp, ra_from);
                b += len as u64;
            } else {
                let stop = self.present.next_set(b, end);
                let len = (stop - b) as u32;
                let ra_from = ra_from.min(len);
                self.present.fill(b, stop, true);
                let piece = Run {
                    start: b,
                    len,
                    stamp,
                    ra_from,
                    used: false,
                };
                self.attach(piece, self.continued_head(&piece), false);
                self.resident += len;
                self.stats.insertions += len as u64;
                self.stats.ra_inserted += (len - ra_from) as u64;
                if self.resident > self.capacity {
                    self.evict(self.resident - self.capacity);
                }
                self.stats.note_occupancy(self.resident as u64);
                // Eviction may have taken `stop`: the next pass
                // re-reads its residency.
                b = stop;
            }
        }
    }

    fn capacity_blocks(&self) -> u32 {
        self.capacity
    }

    fn resident_blocks(&self) -> u32 {
        self.resident
    }

    fn stats(&self) -> &CacheStats {
        &self.stats
    }

    fn record_extent(&mut self, hit: bool) {
        self.stats.extent_lookups += 1;
        if hit {
            self.stats.extent_hits += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(n: u64) -> PhysBlock {
        PhysBlock::new(n)
    }

    #[test]
    fn mru_evicts_consumed_blocks_first() {
        let mut c = BlockCache::new(3, BlockReplacement::Mru);
        c.insert_run(b(0), 3, 3);
        c.touch(b(0));
        c.touch(b(1)); // 1 is the most recently consumed
        c.insert_run(b(10), 1, 1);
        assert!(c.contains(b(0)));
        assert!(!c.contains(b(1)));
        assert!(c.contains(b(2))); // unconsumed: protected
        assert!(c.contains(b(10)));
    }

    #[test]
    fn mru_falls_back_to_oldest_unconsumed() {
        let mut c = BlockCache::new(3, BlockReplacement::Mru);
        c.insert_run(b(0), 3, 3); // nothing consumed
        c.insert_run(b(10), 1, 1);
        assert!(!c.contains(b(0))); // oldest prefetch goes
        assert!(c.contains(b(1)));
        assert!(c.contains(b(2)));
    }

    #[test]
    fn full_cache_run_insert_does_not_self_destruct() {
        // The pathology the naive insert-stamp MRU exhibits: inserting a
        // run into a full cache must not evict the run's own blocks.
        let mut c = BlockCache::new(32, BlockReplacement::Mru);
        c.insert_run(b(0), 32, 32);
        for i in 0..32 {
            c.touch(b(i)); // consume everything
        }
        c.insert_run(b(100), 32, 8);
        for i in 100..132 {
            assert!(c.contains(b(i)), "run block {i} missing");
        }
    }

    #[test]
    fn lru_evicts_least_recent_overall() {
        let mut c = BlockCache::new(3, BlockReplacement::Lru);
        c.insert_run(b(0), 3, 3);
        c.touch(b(0)); // refresh block 0; LRU victim becomes block 1
        c.insert_run(b(10), 1, 1);
        assert!(c.contains(b(0)));
        assert!(!c.contains(b(1)));
        assert!(c.contains(b(2)));
    }

    #[test]
    fn ra_usage_tracked_once() {
        let mut c = BlockCache::new(8, BlockReplacement::Mru);
        c.insert_run(b(0), 4, 2); // blocks 2,3 are read-ahead
        assert_eq!(c.stats().ra_inserted, 2);
        c.touch(b(2));
        c.touch(b(2));
        c.touch(b(3));
        assert_eq!(c.stats().ra_used, 2); // counted on first demand only
    }

    #[test]
    fn reinsert_refreshes_instead_of_duplicating() {
        let mut c = BlockCache::new(4, BlockReplacement::Mru);
        c.insert_run(b(0), 2, 2);
        c.insert_run(b(0), 2, 2);
        assert_eq!(c.resident_blocks(), 2);
        assert_eq!(c.stats().insertions, 2);
    }

    #[test]
    fn reinsert_resets_consumed_state() {
        let mut c = BlockCache::new(2, BlockReplacement::Mru);
        c.insert_run(b(0), 2, 2);
        c.touch(b(0));
        c.insert_run(b(0), 1, 1); // fresh media read of block 0
                                  // Block 1 untouched (unconsumed), block 0 unconsumed again: with
                                  // no consumed blocks the oldest unconsumed (block 1) goes.
        c.insert_run(b(5), 1, 1);
        assert!(c.contains(b(0)));
        assert!(!c.contains(b(1)));
    }

    #[test]
    fn demand_reinsert_clears_ra_provenance() {
        let mut c = BlockCache::new(4, BlockReplacement::Mru);
        c.insert_run(b(0), 2, 0); // both RA
        c.insert_run(b(0), 1, 1); // block 0 now demanded
        c.touch(b(0));
        assert_eq!(
            c.stats().ra_used,
            0,
            "demanded reinsert should clear RA flag"
        );
        c.touch(b(1));
        assert_eq!(c.stats().ra_used, 1);
    }

    #[test]
    fn never_exceeds_capacity() {
        let mut c = BlockCache::new(16, BlockReplacement::Mru);
        for i in 0..100 {
            c.insert_run(b(i * 3), 3, 1);
            c.touch(b(i * 3));
            assert!(c.resident_blocks() <= 16);
        }
        assert_eq!(c.resident_blocks(), 16);
    }

    #[test]
    fn internal_orders_stay_consistent() {
        let mut c = BlockCache::new(8, BlockReplacement::Mru);
        for i in 0..50u64 {
            c.insert_run(b(i % 12), 1, if i % 3 == 0 { 0 } else { 1 });
            c.touch(b((i * 7) % 12));
        }
        let blocks = |list: &List| -> u32 { c.nodes.iter(list).map(|i| c.nodes.get(i).len).sum() };
        assert_eq!(
            c.resident_blocks(),
            blocks(&c.lists[USED]) + blocks(&c.lists[UNUSED])
        );
        // Each list is stamp-ordered, most recent first: a run's blocks
        // top to bottom, then the next run's.
        for list in [&c.lists[USED], &c.lists[UNUSED]] {
            let stamps: Vec<u64> = c
                .nodes
                .iter(list)
                .flat_map(|i| {
                    let r = c.nodes.get(i);
                    (r.stamp..r.stamp + r.len as u64).rev()
                })
                .collect();
            assert!(stamps.windows(2).all(|w| w[0] > w[1]), "{stamps:?}");
        }
    }

    /// `(start, len, used)` of every run, used list first, each list
    /// front to back.
    fn runs(c: &BlockCache) -> Vec<(u64, u32, bool)> {
        [&c.lists[USED], &c.lists[UNUSED]]
            .into_iter()
            .flat_map(|list| c.nodes.iter(list))
            .map(|i| {
                let r = c.nodes.get(i);
                (r.start, r.len, r.used)
            })
            .collect()
    }

    #[test]
    fn a_for_miss_is_one_run_and_a_sequential_hit_moves_as_one() {
        let mut c = BlockCache::new(64, BlockReplacement::Mru);
        c.insert_run(b(10), 9, 1);
        assert_eq!(runs(&c), vec![(10, 9, false)]);
        // Consuming 10..13 takes the run's bottom in place.
        assert!(c.lookup_extent(b(10), 3));
        assert_eq!(runs(&c), vec![(10, 3, true), (13, 6, false)]);
        assert_eq!(c.stats().ra_used, 2);
        // The next block continues the used head's blocks and stamps.
        assert!(c.touch(b(13)));
        assert_eq!(runs(&c), vec![(10, 4, true), (14, 5, false)]);
        // A mid-way hit splits its run; the bottom sits behind the top.
        assert!(c.touch(b(16)));
        assert_eq!(
            runs(&c),
            vec![(16, 1, true), (10, 4, true), (17, 2, false), (14, 2, false)]
        );
        c.check_coherence().unwrap();
    }

    #[test]
    fn bulk_eviction_takes_the_used_head_top_first() {
        let mut c = BlockCache::new(8, BlockReplacement::Mru);
        c.insert_run(b(0), 8, 8);
        assert!(c.lookup_extent(b(0), 4)); // used: 0..4, top 3 most recent
        c.insert_run(b(100), 3, 1);
        assert_eq!(runs(&c), vec![(0, 1, true), (100, 3, false), (4, 4, false)]);
        assert_eq!(c.stats().evictions, 3);
        c.check_coherence().unwrap();
    }

    #[test]
    #[should_panic(expected = "block cache holds blocks below")]
    fn blocks_past_the_limit_panic_on_insert() {
        let mut c = BlockCache::new(8, BlockReplacement::Mru);
        c.insert_run(b(FILTER_LIMIT - 1), 2, 2);
    }

    #[test]
    fn probes_past_the_limit_miss_without_allocating() {
        let mut c = BlockCache::new(8, BlockReplacement::Mru);
        c.insert_run(b(0), 2, 2);
        assert!(!c.touch(b(FILTER_LIMIT + 5)));
        assert!(!c.contains(b(u64::MAX / 2)));
        assert_eq!(c.present.0.len(), 1);
        assert_eq!(c.tops.0.len(), 1);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = BlockCache::new(0, BlockReplacement::Mru);
    }
}
