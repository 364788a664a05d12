//! Property-based invariants of the cache organizations: arbitrary
//! operation sequences never violate capacity, residency, or stats
//! consistency; the HDC region tracks a reference model exactly; and
//! the list/index-based [`BlockCache`] and [`SegmentCache`] are
//! differentially checked, op by op, against executable specifications
//! that keep the original `BTreeSet`-stamp and linear-scan bookkeeping;
//! and [`ProbeMap`] and the HDC membership filter answer exactly as
//! `std` collections do.

use std::collections::{BTreeSet, HashMap, HashSet};

use proptest::prelude::*;

use forhdc_cache::{
    BlockCache, BlockReplacement, CacheStats, ControllerCache, HdcRegion, ProbeMap, SegmentCache,
    SegmentReplacement,
};
use forhdc_sim::PhysBlock;

/// The pre-optimization [`BlockCache`] bookkeeping, kept verbatim as an
/// executable specification: recency in `BTreeSet<(stamp, block)>`
/// sets, eviction by set extrema. The production cache must be
/// observably indistinguishable from this.
#[derive(Debug)]
struct RefBlockCache {
    map: HashMap<u64, RefBlockMeta>,
    /// Consumed blocks, ordered by stamp.
    used: BTreeSet<(u64, u64)>,
    /// Never-consumed blocks, ordered by stamp.
    unused: BTreeSet<(u64, u64)>,
    capacity: u32,
    mru: bool,
    clock: u64,
    stats: CacheStats,
}

#[derive(Debug, Clone, Copy)]
struct RefBlockMeta {
    stamp: u64,
    read_ahead: bool,
    used: bool,
}

impl RefBlockCache {
    fn new(capacity: u32, mru: bool) -> Self {
        RefBlockCache {
            map: HashMap::new(),
            used: BTreeSet::new(),
            unused: BTreeSet::new(),
            capacity,
            mru,
            clock: 0,
            stats: CacheStats::new(),
        }
    }

    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    fn evict_victim(&mut self) {
        let victim = if self.mru {
            // Most recently consumed, else the stalest prefetch.
            self.used
                .iter()
                .next_back()
                .or_else(|| self.unused.iter().next())
                .copied()
        } else {
            // Globally least recent across both sets.
            match (self.used.first(), self.unused.first()) {
                (Some(&a), Some(&b)) => Some(if a.0 < b.0 { a } else { b }),
                (a, b) => a.or(b).copied(),
            }
        };
        if let Some((stamp, block)) = victim {
            self.used.remove(&(stamp, block));
            self.unused.remove(&(stamp, block));
            self.map.remove(&block);
            self.stats.evictions += 1;
        }
    }

    fn insert_one(&mut self, block: u64, read_ahead: bool) {
        let stamp = self.tick();
        if let Some(meta) = self.map.get_mut(&block) {
            if read_ahead {
                self.stats.ra_inserted += 1;
            }
            if meta.used {
                self.used.remove(&(meta.stamp, block));
            } else {
                self.unused.remove(&(meta.stamp, block));
            }
            meta.stamp = stamp;
            meta.used = false;
            meta.read_ahead = read_ahead;
            self.unused.insert((stamp, block));
            return;
        }
        if self.map.len() as u32 >= self.capacity {
            self.evict_victim();
        }
        self.map.insert(
            block,
            RefBlockMeta {
                stamp,
                read_ahead,
                used: false,
            },
        );
        self.unused.insert((stamp, block));
        self.stats.insertions += 1;
        if read_ahead {
            self.stats.ra_inserted += 1;
        }
        self.stats.note_occupancy(self.map.len() as u64);
    }
}

impl ControllerCache for RefBlockCache {
    fn contains(&self, block: PhysBlock) -> bool {
        self.map.contains_key(&block.index())
    }

    fn touch(&mut self, block: PhysBlock) -> bool {
        self.stats.block_lookups += 1;
        let stamp = self.tick();
        let b = block.index();
        let Some(meta) = self.map.get_mut(&b) else {
            return false;
        };
        self.stats.block_hits += 1;
        if meta.read_ahead && !meta.used {
            self.stats.ra_used += 1;
        }
        if meta.used {
            self.used.remove(&(meta.stamp, b));
        } else {
            self.unused.remove(&(meta.stamp, b));
        }
        meta.used = true;
        meta.stamp = stamp;
        self.used.insert((stamp, b));
        true
    }

    fn insert_run(&mut self, start: PhysBlock, nblocks: u32, requested: u32) {
        for i in 0..nblocks as u64 {
            self.insert_one(start.index() + i, i >= requested as u64);
        }
    }

    fn capacity_blocks(&self) -> u32 {
        self.capacity
    }

    fn resident_blocks(&self) -> u32 {
        self.map.len() as u32
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

/// The pre-optimization [`SegmentCache`]: linear first-match scans over
/// the slot vector and `min_by_key` victim sweeps.
#[derive(Debug)]
struct RefSegmentCache {
    segments: Vec<Option<RefSeg>>,
    seg_blocks: u32,
    lru: bool,
    clock: u64,
    stats: CacheStats,
}

#[derive(Debug, Clone, Copy)]
struct RefSeg {
    start: u64,
    len: u32,
    created: u64,
    last_used: u64,
    ra_mask: u128,
    used_mask: u128,
}

impl RefSeg {
    fn covers(&self, block: u64) -> Option<u32> {
        if block >= self.start && block < self.start + self.len as u64 {
            Some((block - self.start) as u32)
        } else {
            None
        }
    }
}

impl RefSegmentCache {
    fn new(segments: u32, seg_blocks: u32, lru: bool) -> Self {
        RefSegmentCache {
            segments: vec![None; segments as usize],
            seg_blocks,
            lru,
            clock: 0,
            stats: CacheStats::new(),
        }
    }

    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    fn slot_for(&self, start: u64, nblocks: u32) -> usize {
        let run_end = start + nblocks as u64;
        if let Some(slot) = self.segments.iter().position(|s| {
            s.is_some_and(|seg| start <= seg.start + seg.len as u64 && run_end >= seg.start)
        }) {
            return slot;
        }
        if let Some(free) = self.segments.iter().position(Option::is_none) {
            return free;
        }
        self.segments
            .iter()
            .enumerate()
            .filter_map(|(i, s)| {
                s.map(|seg| (if self.lru { seg.last_used } else { seg.created }, i))
            })
            .min()
            .expect("no free slot means all occupied")
            .1
    }
}

impl ControllerCache for RefSegmentCache {
    fn contains(&self, block: PhysBlock) -> bool {
        self.segments
            .iter()
            .flatten()
            .any(|s| s.covers(block.index()).is_some())
    }

    fn touch(&mut self, block: PhysBlock) -> bool {
        self.stats.block_lookups += 1;
        let stamp = self.tick();
        let b = block.index();
        let Some(seg) = self
            .segments
            .iter_mut()
            .flatten()
            .find(|s| s.covers(b).is_some())
        else {
            return false;
        };
        let i = seg.covers(b).expect("just matched");
        self.stats.block_hits += 1;
        seg.last_used = stamp;
        let bit = 1u128 << i;
        if seg.ra_mask & bit != 0 && seg.used_mask & bit == 0 {
            self.stats.ra_used += 1;
        }
        seg.used_mask |= bit;
        true
    }

    fn insert_run(&mut self, start: PhysBlock, nblocks: u32, requested: u32) {
        let (start, nblocks, requested) = if nblocks > self.seg_blocks {
            let drop = (nblocks - self.seg_blocks) as u64;
            (
                start.index() + drop,
                self.seg_blocks,
                requested.saturating_sub(drop as u32),
            )
        } else {
            (start.index(), nblocks, requested)
        };
        let slot = self.slot_for(start, nblocks);
        let stamp = self.tick();
        if let Some(old) = self.segments[slot] {
            self.stats.evictions += old.len as u64;
        }
        let mut ra_mask = 0u128;
        for i in requested..nblocks {
            ra_mask |= 1u128 << i;
        }
        self.stats.insertions += nblocks as u64;
        self.stats.ra_inserted += (nblocks - requested) as u64;
        self.segments[slot] = Some(RefSeg {
            start,
            len: nblocks,
            created: stamp,
            last_used: stamp,
            ra_mask,
            used_mask: 0,
        });
        let resident: u64 = self.segments.iter().flatten().map(|s| s.len as u64).sum();
        self.stats.note_occupancy(resident);
    }

    fn capacity_blocks(&self) -> u32 {
        self.segments.len() as u32 * self.seg_blocks
    }

    fn resident_blocks(&self) -> u32 {
        self.segments.iter().flatten().map(|s| s.len).sum()
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

/// One step of an arbitrary cache workout.
#[derive(Debug, Clone)]
enum Op {
    Insert {
        start: u64,
        n: u32,
        requested: u32,
    },
    Touch(u64),
    Lookup {
        start: u64,
        n: u32,
    },
    /// A stream consuming `start..start + n` one block at a time.
    Consume {
        start: u64,
        n: u32,
    },
}

/// Longest inserted run: longer than the smallest caches, so one
/// insertion can evict its own blocks.
const MAX_RUN: u32 = 64;

fn op_strategy(space: u64) -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..space, 1..MAX_RUN + 1)
            .prop_flat_map(|(start, n)| (Just(start), Just(n), 0..n + 1))
            .prop_map(|(start, n, requested)| Op::Insert {
                start,
                n,
                requested,
            }),
        (0..space).prop_map(Op::Touch),
        (0..space, 1u32..8).prop_map(|(start, n)| Op::Lookup { start, n }),
        (0..space, 1u32..24).prop_map(|(start, n)| Op::Consume { start, n }),
    ]
}

fn apply(cache: &mut dyn ControllerCache, op: &Op) {
    match *op {
        Op::Insert {
            start,
            n,
            requested,
        } => cache.insert_run(PhysBlock::new(start), n, requested),
        Op::Touch(b) => {
            cache.touch(PhysBlock::new(b));
        }
        Op::Lookup { start, n } => {
            cache.lookup_extent(PhysBlock::new(start), n);
        }
        Op::Consume { start, n } => {
            for b in start..start + n as u64 {
                cache.touch(PhysBlock::new(b));
            }
        }
    }
}

fn workout(cache: &mut dyn ControllerCache, ops: &[Op]) {
    for op in ops {
        apply(cache, op);
    }
}

/// Drives the production cache and its reference specification through
/// the same op sequence, comparing every observable along the way:
/// per-op results, residency, structural coherence after every op,
/// final stats, and the exact resident set.
fn drive_and_compare<C: ControllerCache>(
    real: &mut C,
    coherent: fn(&C) -> Result<(), String>,
    spec: &mut dyn ControllerCache,
    ops: &[Op],
    space: u64,
) {
    for (step, op) in ops.iter().enumerate() {
        match *op {
            Op::Insert { .. } => {
                apply(real, op);
                apply(spec, op);
            }
            Op::Touch(b) => {
                assert_eq!(
                    real.touch(PhysBlock::new(b)),
                    spec.touch(PhysBlock::new(b)),
                    "touch({b}) diverged at step {step}"
                );
            }
            Op::Lookup { start, n } => {
                assert_eq!(
                    real.lookup_extent(PhysBlock::new(start), n),
                    spec.lookup_extent(PhysBlock::new(start), n),
                    "lookup_extent({start}, {n}) diverged at step {step}"
                );
            }
            Op::Consume { start, n } => {
                for b in start..start + n as u64 {
                    assert_eq!(
                        real.touch(PhysBlock::new(b)),
                        spec.touch(PhysBlock::new(b)),
                        "consume touch({b}) diverged at step {step}"
                    );
                }
            }
        }
        assert_eq!(
            real.resident_blocks(),
            spec.resident_blocks(),
            "residency diverged at step {step}"
        );
        if let Err(e) = coherent(real) {
            panic!("incoherent after step {step} ({op:?}): {e}");
        }
    }
    assert_eq!(real.stats(), spec.stats(), "stats diverged");
    // Insert starts go up to `space` and runs extend by at most MAX_RUN.
    for b in 0..space + MAX_RUN as u64 {
        assert_eq!(
            real.contains(PhysBlock::new(b)),
            spec.contains(PhysBlock::new(b)),
            "resident set diverged at block {b}"
        );
    }
}

/// Runs `ops` through a fresh [`BlockCache`] and [`RefBlockCache`] in
/// lockstep and returns the production cache for further checks.
fn matches_reference(capacity: u32, mru: bool, ops: &[Op]) -> BlockCache {
    let policy = if mru {
        BlockReplacement::Mru
    } else {
        BlockReplacement::Lru
    };
    let mut real = BlockCache::new(capacity, policy);
    let mut spec = RefBlockCache::new(capacity, mru);
    drive_and_compare(&mut real, BlockCache::check_coherence, &mut spec, ops, 200);
    real
}

fn insert(start: u64, n: u32, requested: u32) -> Op {
    Op::Insert {
        start,
        n,
        requested,
    }
}

fn resident(c: &BlockCache, blocks: std::ops::Range<u64>) -> Vec<u64> {
    blocks.filter(|&b| c.contains(PhysBlock::new(b))).collect()
}

#[test]
fn run_longer_than_capacity_keeps_its_top() {
    // Nothing consumed: the run's own bottom blocks are the stalest
    // prefetches, evicted while the run goes in.
    let c = matches_reference(4, true, &[insert(0, 10, 3)]);
    assert_eq!(resident(&c, 0..10), vec![6, 7, 8, 9]);
    assert_eq!(c.stats().evictions, 6);
    let c = matches_reference(4, false, &[insert(0, 10, 3)]);
    assert_eq!(resident(&c, 0..10), vec![6, 7, 8, 9]);
}

#[test]
fn eviction_can_take_a_later_block_of_the_same_run() {
    // Block 5 is the stalest prefetch when the run 3..7 arrives: the
    // run's first stretch (3, 4) evicts it, so it goes back in as a
    // new block rather than being refreshed.
    let ops = [insert(5, 1, 0), insert(100, 3, 3), insert(3, 4, 4)];
    for mru in [true, false] {
        let c = matches_reference(4, mru, &ops);
        assert_eq!(resident(&c, 0..10), vec![3, 4, 5, 6]);
        assert_eq!(c.stats().insertions, 8);
        assert_eq!(c.stats().ra_inserted, 1);
    }
}

#[test]
fn refresh_in_the_middle_of_a_run() {
    let ops = [
        insert(0, 8, 2),
        insert(3, 3, 1), // refreshes 3..6: 3 demanded, 4 and 5 read-ahead
        Op::Lookup { start: 0, n: 8 },
        insert(50, 4, 4),
        insert(60, 4, 0),
    ];
    for mru in [true, false] {
        let c = matches_reference(10, mru, &ops);
        assert_eq!(c.stats().ra_inserted, 6 + 2 + 4);
        // Block 3 lost its read-ahead mark to the demanded refresh.
        assert_eq!(c.stats().ra_used, 5);
    }
}

#[test]
fn back_to_back_runs_keep_their_read_ahead_marks() {
    // The second run continues the first's blocks and stamps, but its
    // demanded blocks follow the first's read-ahead: the two must not
    // share one read-ahead boundary.
    let ops = [
        insert(0, 4, 2),
        insert(4, 2, 2),
        Op::Consume { start: 0, n: 6 },
        insert(6, 3, 0),
        insert(9, 3, 3),
        Op::Lookup { start: 6, n: 6 },
    ];
    for mru in [true, false] {
        let c = matches_reference(32, mru, &ops);
        assert_eq!(c.stats().ra_used, 2 + 3);
    }
}

#[test]
fn lru_eviction_alternates_between_the_tails() {
    // Interleave consumption with insertion so the stalest block
    // alternates between the used and unused lists, then flush
    // everything with one long run.
    let ops = [
        insert(0, 3, 3),
        insert(10, 3, 0),
        Op::Touch(1),
        insert(20, 3, 1),
        Op::Touch(11),
        Op::Consume { start: 20, n: 2 },
        insert(30, 2, 2),
        Op::Touch(0),
        insert(100, 9, 1),
        insert(120, 12, 4),
    ];
    let c = matches_reference(12, false, &ops);
    assert_eq!(c.resident_blocks(), 12);
    assert_eq!(c.stats().insertions, 32);
    assert_eq!(c.stats().evictions, 20);
}

/// Keys for a [`ProbeMap`] of `bound`: eight that share the last slot
/// as their home, so their probe runs wrap past the table's end, eight
/// that share slot 0, and eight spread ones.
fn probe_keys(bound: usize) -> Vec<u64> {
    let m = ProbeMap::<u32>::new(bound);
    let last = m.slots() - 1;
    let mut keys: Vec<u64> = (0..).filter(|&k| m.home(k) == last).take(8).collect();
    keys.extend((0..).filter(|&k| m.home(k) == 0).take(8));
    keys.extend((0..8u64).map(|k| k * 1_000_003 + 17));
    keys
}

#[test]
#[should_panic(expected = "probe map holds 3 keys")]
fn probe_map_insert_past_its_bound_panics() {
    let mut m = ProbeMap::new(3);
    for k in 0..3 {
        m.insert(k, ());
    }
    // Replacing a present key is not an insert past the bound.
    assert_eq!(m.insert(1, ()), Some(()));
    m.insert(3, ());
}

/// Pin/unpin churn of a full region: every unpin leaves a stale
/// filter bit, so the filter is rebuilt every `capacity + 1` unpins;
/// across several rebuilds no pinned block is ever missed.
#[test]
fn hdc_filter_survives_rebuilds() {
    let capacity = 8u64;
    let mut hdc = HdcRegion::new(capacity as u32);
    for round in 0..6 {
        let live = round * capacity..(round + 1) * capacity;
        for b in live.clone() {
            hdc.pin(PhysBlock::new(b)).unwrap();
        }
        for b in 0..(round + 2) * capacity {
            assert_eq!(
                hdc.contains(PhysBlock::new(b)),
                live.contains(&b),
                "block {b}"
            );
        }
        hdc.check_coherence().unwrap();
        for b in live {
            assert_eq!(hdc.unpin(PhysBlock::new(b)), Some(false));
        }
    }
    assert_eq!(hdc.stats().unpins, 6 * capacity);
}

fn check_invariants(cache: &dyn ControllerCache) {
    assert!(cache.resident_blocks() <= cache.capacity_blocks());
    let s = cache.stats();
    assert!(s.block_hits <= s.block_lookups);
    assert!(s.extent_hits <= s.extent_lookups);
    assert!(s.ra_used <= s.ra_inserted);
    assert!(s.insertions >= s.evictions || cache.resident_blocks() > 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn block_cache_invariants(
        ops in prop::collection::vec(op_strategy(500), 1..300),
        capacity in 1u32..128,
        mru in any::<bool>(),
    ) {
        let policy = if mru { BlockReplacement::Mru } else { BlockReplacement::Lru };
        let mut cache = BlockCache::new(capacity, policy);
        workout(&mut cache, &ops);
        check_invariants(&cache);
        // A final insert-then-contains always holds for the demanded
        // block (it was just placed or refreshed).
        cache.insert_run(PhysBlock::new(9_999), 1, 1);
        prop_assert!(cache.contains(PhysBlock::new(9_999)));
    }

    #[test]
    fn segment_cache_invariants(
        ops in prop::collection::vec(op_strategy(500), 1..300),
        segments in 1u32..32,
        seg_blocks in 1u32..64,
    ) {
        let mut cache = SegmentCache::new(segments, seg_blocks, SegmentReplacement::Lru);
        workout(&mut cache, &ops);
        check_invariants(&cache);
    }

    /// The list-based block cache is observably identical to the
    /// original `BTreeSet<(stamp, block)>` bookkeeping, under both
    /// replacement policies.
    #[test]
    fn block_cache_matches_btreeset_reference(
        ops in prop::collection::vec(op_strategy(300), 1..400),
        capacity in 1u32..96,
        mru in any::<bool>(),
    ) {
        let policy = if mru { BlockReplacement::Mru } else { BlockReplacement::Lru };
        let mut real = BlockCache::new(capacity, policy);
        let mut spec = RefBlockCache::new(capacity, mru);
        drive_and_compare(&mut real, BlockCache::check_coherence, &mut spec, &ops, 300);
    }

    /// The extent-indexed, list-ordered segment cache is observably
    /// identical to the original linear-scan implementation, including
    /// first-match semantics under overlapping segments.
    #[test]
    fn segment_cache_matches_linear_scan_reference(
        ops in prop::collection::vec(op_strategy(300), 1..400),
        segments in 1u32..24,
        seg_blocks in 1u32..64,
        lru in any::<bool>(),
    ) {
        let policy = if lru { SegmentReplacement::Lru } else { SegmentReplacement::Fifo };
        let mut real = SegmentCache::new(segments, seg_blocks, policy);
        let mut spec = RefSegmentCache::new(segments, seg_blocks, lru);
        drive_and_compare(&mut real, SegmentCache::check_coherence, &mut spec, &ops, 300);
    }

    /// Hit after insert: any block of a freshly inserted run is
    /// resident until the next insertion.
    #[test]
    fn freshly_inserted_runs_are_resident(
        start in 0u64..1_000,
        n in 1u32..32,
    ) {
        let mut cache = BlockCache::new(64, BlockReplacement::Mru);
        let n = n.min(64);
        cache.insert_run(PhysBlock::new(start), n, n);
        for i in 0..n as u64 {
            prop_assert!(cache.contains(PhysBlock::new(start + i)));
        }
    }

    /// Structural coherence under checked mode: the deep validators
    /// the auditor runs (DESIGN.md §6.5) hold after every single
    /// operation of an arbitrary workout, for both cache organizations
    /// and both replacement policies each.
    #[test]
    fn caches_stay_coherent_under_arbitrary_ops(
        ops in prop::collection::vec(op_strategy(400), 1..300),
        capacity in 1u32..96,
        segments in 1u32..24,
        seg_blocks in 1u32..64,
        mru in any::<bool>(),
    ) {
        let bpolicy = if mru { BlockReplacement::Mru } else { BlockReplacement::Lru };
        let spolicy = if mru { SegmentReplacement::Lru } else { SegmentReplacement::Fifo };
        let mut block = BlockCache::new(capacity, bpolicy);
        let mut seg = SegmentCache::new(segments, seg_blocks, spolicy);
        for (step, op) in ops.iter().enumerate() {
            for cache in [&mut block as &mut dyn ControllerCache, &mut seg] {
                apply(cache, op);
            }
            if let Err(e) = block.check_coherence() {
                prop_assert!(false, "block cache, step {}: {}", step, e);
            }
            if let Err(e) = seg.check_coherence() {
                prop_assert!(false, "segment cache, step {}: {}", step, e);
            }
        }
    }

    /// The HDC region's structural validator holds after every
    /// operation, including the flush/unflush recovery round-trip and
    /// the degraded-mode dirty discard.
    #[test]
    fn hdc_stays_coherent_under_arbitrary_ops(
        ops in prop::collection::vec((0u8..7, 0u64..64), 1..250),
        capacity in 1u32..32,
    ) {
        let mut hdc = HdcRegion::new(capacity);
        for (step, &(kind, block)) in ops.iter().enumerate() {
            let b = PhysBlock::new(block);
            match kind {
                0 => {
                    let _ = hdc.pin(b);
                }
                1 => {
                    hdc.unpin(b);
                }
                2 => {
                    hdc.read(b);
                }
                3 => {
                    hdc.write(b);
                }
                4 => {
                    hdc.flush();
                }
                5 => {
                    // A failed flush is rolled back immediately: every
                    // drained block is still pinned and clean, so the
                    // rollback re-dirties all of them and loses none.
                    let drained = hdc.flush();
                    let lost = hdc.unflush(&drained);
                    prop_assert_eq!(lost, 0);
                }
                _ => {
                    hdc.discard_dirty();
                }
            }
            if let Err(e) = hdc.check_coherence() {
                prop_assert!(false, "hdc, step {}: {}", step, e);
            }
            prop_assert!(hdc.dirty_count() <= hdc.len());
            prop_assert!(hdc.len() <= hdc.capacity());
        }
    }

    /// The HDC region behaves exactly like a bounded map with dirty
    /// bits.
    #[test]
    fn hdc_matches_reference_model(
        ops in prop::collection::vec((0u8..5, 0u64..64), 1..200),
        capacity in 1u32..32,
    ) {
        let mut hdc = HdcRegion::new(capacity);
        let mut model: HashMap<u64, bool> = HashMap::new();
        for (kind, block) in ops {
            let b = PhysBlock::new(block);
            match kind {
                0 => {
                    let ok = hdc.pin(b).is_ok();
                    let model_ok =
                        model.contains_key(&block) || (model.len() as u32) < capacity;
                    prop_assert_eq!(ok, model_ok);
                    if ok {
                        model.entry(block).or_insert(false);
                    }
                }
                1 => {
                    let got = hdc.unpin(b);
                    let expect = model.remove(&block);
                    prop_assert_eq!(got, expect);
                }
                2 => {
                    prop_assert_eq!(hdc.read(b), model.contains_key(&block));
                }
                3 => {
                    let hit = hdc.write(b);
                    prop_assert_eq!(hit, model.contains_key(&block));
                    if hit {
                        model.insert(block, true);
                    }
                }
                _ => {
                    let mut dirty: Vec<u64> = model
                        .iter()
                        .filter_map(|(&k, &d)| d.then_some(k))
                        .collect();
                    dirty.sort();
                    let flushed: Vec<u64> =
                        hdc.flush().into_iter().map(|p| p.index()).collect();
                    prop_assert_eq!(flushed, dirty);
                    for v in model.values_mut() {
                        *v = false;
                    }
                }
            }
            prop_assert_eq!(hdc.len() as usize, model.len());
            prop_assert_eq!(
                hdc.dirty_count() as usize,
                model.values().filter(|&&d| d).count()
            );
        }
    }

    /// `ProbeMap` answers every insert, get, `get_mut`, remove and
    /// iteration as `HashMap` does, over keys that collide on one home
    /// slot and runs that wrap past the table's end, so removals shift
    /// chains back across the wrap.
    #[test]
    fn probe_map_matches_hashmap(
        ops in prop::collection::vec((0u8..4, 0usize..24, 0u32..1_000), 1..400),
        bound in 1usize..24,
    ) {
        let keys = probe_keys(bound);
        let mut real = ProbeMap::new(bound);
        let mut model: HashMap<u64, u32> = HashMap::new();
        for (kind, k, v) in ops {
            let key = keys[k];
            match kind {
                0 => {
                    if model.len() < bound || model.contains_key(&key) {
                        prop_assert_eq!(real.insert(key, v), model.insert(key, v));
                    }
                }
                1 => prop_assert_eq!(real.remove(key), model.remove(&key)),
                2 => {
                    let got = real.get_mut(key).map(|x| {
                        *x = x.wrapping_add(v);
                        *x
                    });
                    let want = model.get_mut(&key).map(|x| {
                        *x = x.wrapping_add(v);
                        *x
                    });
                    prop_assert_eq!(got, want);
                }
                _ => {
                    prop_assert_eq!(real.get(key), model.get(&key).copied());
                    prop_assert_eq!(real.contains_key(key), model.contains_key(&key));
                }
            }
            prop_assert_eq!(real.len(), model.len());
            for &key in &keys {
                prop_assert_eq!(real.get(key), model.get(&key).copied());
            }
        }
        let mut got: Vec<(u64, u32)> = real.iter().collect();
        let mut want: Vec<(u64, u32)> = model.into_iter().collect();
        got.sort_unstable();
        want.sort_unstable();
        prop_assert_eq!(got, want);
    }

    /// Pin/unpin churn through many filter rebuilds: `contains`,
    /// `read` and `write` always equal a `HashSet` of the pinned
    /// blocks (the filter never hides one), and the validator, which
    /// checks every pinned block's filter bit, holds throughout. The
    /// blocks are scattered, so some share a filter bit.
    #[test]
    fn hdc_filter_has_no_false_negatives(
        ops in prop::collection::vec((0u8..5, 0usize..48), 1..600),
        capacity in 1u32..12,
    ) {
        let blocks: Vec<u64> = (0..48u64).map(|i| i * i * 7_919 + i * 104_729).collect();
        let mut hdc = HdcRegion::new(capacity);
        let mut pinned: HashSet<u64> = HashSet::new();
        for (step, (kind, i)) in ops.into_iter().enumerate() {
            let block = blocks[i];
            let b = PhysBlock::new(block);
            match kind {
                0 | 1 => {
                    if hdc.pin(b).is_ok() {
                        pinned.insert(block);
                    }
                }
                2 => {
                    prop_assert_eq!(hdc.unpin(b).is_some(), pinned.remove(&block));
                }
                3 => prop_assert_eq!(hdc.read(b), pinned.contains(&block)),
                _ => prop_assert_eq!(hdc.write(b), pinned.contains(&block)),
            }
            for &x in &blocks {
                prop_assert_eq!(hdc.contains(PhysBlock::new(x)), pinned.contains(&x));
            }
            if let Err(e) = hdc.check_coherence() {
                prop_assert!(false, "hdc, step {}: {}", step, e);
            }
        }
    }
}
