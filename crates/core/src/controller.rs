//! One disk's controller: read-ahead cache + HDC region + the
//! read-ahead decision.
//!
//! The controller checks its cache *before queuing* a request (§6.1).
//! A read whose blocks are all resident (in the HDC region or the
//! read-ahead cache) is served over the bus without a mechanical
//! operation; a write whose blocks are all pinned is absorbed into the
//! HDC region (marked dirty, synced by `flush_hdc()`). Everything else
//! queues for the media, and on a read miss the serviced extent is
//! extended by the active read-ahead discipline.

use forhdc_cache::{
    BlockCache, BlockReplacement, CacheStats, ControllerCache, HdcRegion, HdcStats, SegmentCache,
    SegmentReplacement,
};
use forhdc_layout::ForBitmap;
use forhdc_sim::{DiskConfig, PhysBlock, ReadWrite};

use crate::policy::ReadAheadKind;

/// The controller's decision for an arriving extent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControllerDecision {
    /// Served from controller memory: only a bus transfer is needed.
    CacheHit,
    /// Write absorbed by pinned HDC blocks: bus transfer, no media op.
    HdcWriteAbsorbed,
    /// Needs the media; the op to schedule (read-ahead already applied
    /// for reads).
    Media {
        /// First block of the media operation.
        start: PhysBlock,
        /// Total blocks to move, including read-ahead.
        nblocks: u32,
        /// Of `nblocks`, how many were speculative read-ahead.
        read_ahead: u32,
    },
}

#[derive(Debug)]
enum CacheOrg {
    Segment(SegmentCache),
    Block(BlockCache),
}

impl CacheOrg {
    fn as_cache_ref(&self) -> &dyn ControllerCache {
        match self {
            CacheOrg::Segment(c) => c,
            CacheOrg::Block(c) => c,
        }
    }

    // Statically dispatched per-block operations: these run once per
    // block of every request, and through a `&mut dyn ControllerCache`
    // each would be an indirect call the optimizer cannot inline.

    /// Touches `start..start + nblocks` in order, reporting each
    /// block's hit or miss to `each`. The block cache moves a hit's
    /// blocks a run at a time.
    #[inline]
    fn touch_extent(
        &mut self,
        start: PhysBlock,
        nblocks: u32,
        mut each: impl FnMut(PhysBlock, bool),
    ) {
        match self {
            CacheOrg::Segment(c) => {
                for i in 0..nblocks as u64 {
                    let b = start.offset(i);
                    each(b, c.touch(b));
                }
            }
            CacheOrg::Block(c) => c.touch_extent(start, nblocks, each),
        }
    }

    #[inline]
    fn contains(&self, block: PhysBlock) -> bool {
        match self {
            CacheOrg::Segment(c) => c.contains(block),
            CacheOrg::Block(c) => c.contains(block),
        }
    }

    #[inline]
    fn insert_run(&mut self, start: PhysBlock, nblocks: u32, requested: u32) {
        match self {
            CacheOrg::Segment(c) => c.insert_run(start, nblocks, requested),
            CacheOrg::Block(c) => c.insert_run(start, nblocks, requested),
        }
    }

    #[inline]
    fn record_extent(&mut self, hit: bool) {
        match self {
            CacheOrg::Segment(c) => c.record_extent(hit),
            CacheOrg::Block(c) => c.record_extent(hit),
        }
    }
}

/// One disk's controller state.
///
/// # Example
///
/// ```
/// use forhdc_core::{DiskController, ReadAheadKind};
/// use forhdc_sim::{DiskConfig, PhysBlock, ReadWrite};
/// use forhdc_core::controller::ControllerDecision;
///
/// let cfg = DiskConfig::default();
/// let mut ctl = DiskController::new(&cfg, ReadAheadKind::BlindSegment, 0, None);
/// // Cold cache: a 4-block read misses and is extended to a whole
/// // 32-block segment by blind read-ahead.
/// match ctl.on_request(ReadWrite::Read, PhysBlock::new(1000), 4) {
///     ControllerDecision::Media { nblocks, read_ahead, .. } => {
///         assert_eq!(nblocks, 32);
///         assert_eq!(read_ahead, 28);
///     }
///     other => panic!("expected media op, got {other:?}"),
/// }
/// ```
#[derive(Debug)]
pub struct DiskController {
    cache: CacheOrg,
    hdc: HdcRegion,
    policy: ReadAheadKind,
    bitmap: Option<ForBitmap>,
    max_ra_blocks: u32,
    capacity_blocks: u64,
    blocks_per_track: u32,
    bitmap_scans: u64,
}

impl DiskController {
    /// Creates a controller for a disk described by `cfg`, running
    /// `policy`, with `hdc_blocks` of the cache handed to the host and
    /// the rest organized as the policy's read-ahead cache.
    ///
    /// `bitmap` must be `Some` iff the policy is FOR.
    ///
    /// # Panics
    ///
    /// Panics if the HDC region leaves no read-ahead cache, or if the
    /// bitmap presence does not match the policy.
    pub fn new(
        cfg: &DiskConfig,
        policy: ReadAheadKind,
        hdc_blocks: u32,
        bitmap: Option<ForBitmap>,
    ) -> Self {
        assert_eq!(
            bitmap.is_some(),
            policy.needs_bitmap(),
            "FOR needs a continuation bitmap; other policies must not carry one"
        );
        let total = cfg.cache_blocks();
        // The FOR bitmap itself consumes controller memory (Table 1:
        // 546 KB); charge it to the read-ahead cache.
        let bitmap_blocks = bitmap
            .as_ref()
            .map(|b| (b.size_bytes().div_ceil(cfg.block_bytes() as u64)) as u32)
            .unwrap_or(0);
        assert!(
            hdc_blocks + bitmap_blocks < total,
            "HDC region ({hdc_blocks}) + bitmap ({bitmap_blocks}) leaves no read-ahead cache of {total}"
        );
        let ra_blocks = total - hdc_blocks - bitmap_blocks;
        let cache = if policy.uses_block_cache() {
            CacheOrg::Block(BlockCache::new(ra_blocks, BlockReplacement::Mru))
        } else {
            // Segment cache scaled down proportionally when HDC takes
            // memory: fewer whole segments.
            let seg_blocks = cfg.segment_blocks();
            let segments = (ra_blocks / seg_blocks).clamp(1, cfg.segments);
            CacheOrg::Segment(SegmentCache::new(
                segments,
                seg_blocks,
                SegmentReplacement::Lru,
            ))
        };
        DiskController {
            cache,
            hdc: HdcRegion::new(hdc_blocks),
            policy,
            bitmap,
            max_ra_blocks: cfg.segment_blocks(),
            capacity_blocks: cfg.geometry.capacity_blocks(),
            blocks_per_track: cfg.geometry.blocks_per_track(),
            bitmap_scans: 0,
        }
    }

    /// Replaces the default replacement policies (ablation hook). Only
    /// meaningful before traffic flows.
    pub fn with_replacement(
        mut self,
        block: BlockReplacement,
        segment: SegmentReplacement,
    ) -> Self {
        self.cache = match self.cache {
            CacheOrg::Block(c) => CacheOrg::Block(BlockCache::new(c.capacity_blocks(), block)),
            CacheOrg::Segment(c) => CacheOrg::Segment(SegmentCache::new(
                c.segment_count(),
                c.segment_blocks(),
                segment,
            )),
        };
        self
    }

    /// The active read-ahead discipline.
    pub fn policy(&self) -> ReadAheadKind {
        self.policy
    }

    /// Whether every block of the extent is resident (HDC or
    /// read-ahead cache), without touching recency or statistics —
    /// used for mirrored read-replica selection ("closest copy").
    pub fn covers(&self, start: PhysBlock, nblocks: u32) -> bool {
        (0..nblocks as u64).all(|i| {
            let b = start.offset(i);
            self.hdc.contains(b) || self.cache.contains(b)
        })
    }

    /// Handles an arriving extent: classifies it as a cache hit, an
    /// absorbed HDC write, or a media operation (read-ahead applied).
    pub fn on_request(
        &mut self,
        kind: ReadWrite,
        start: PhysBlock,
        nblocks: u32,
    ) -> ControllerDecision {
        debug_assert!(nblocks > 0);
        match kind {
            ReadWrite::Read => {
                // Account HDC and RA-cache lookups per block; a hit
                // needs every block in the union of the two regions.
                // With nothing pinned (the common non-HDC configs) the
                // per-block HDC probes are all misses — count them in
                // bulk and probe only the read-ahead cache.
                let mut all = true;
                if self.hdc.is_empty() {
                    self.hdc.note_misses(nblocks as u64, 0);
                    self.cache.touch_extent(start, nblocks, |_, hit| all &= hit);
                } else {
                    let hdc = &mut self.hdc;
                    self.cache.touch_extent(start, nblocks, |b, in_cache| {
                        let in_hdc = hdc.read(b);
                        all &= in_hdc || in_cache;
                    });
                }
                self.cache.record_extent(all);
                if all {
                    return ControllerDecision::CacheHit;
                }
                let read_ahead = self.read_ahead_for(start, nblocks);
                ControllerDecision::Media {
                    start,
                    nblocks: nblocks + read_ahead,
                    read_ahead,
                }
            }
            ReadWrite::Write => {
                // A write absorbed by HDC requires every block pinned.
                let all_pinned = (0..nblocks as u64).all(|i| self.hdc.contains(start.offset(i)));
                if all_pinned && nblocks > 0 {
                    for i in 0..nblocks as u64 {
                        self.hdc.write(start.offset(i));
                    }
                    return ControllerDecision::HdcWriteAbsorbed;
                }
                // Media write; keep cached copies fresh (touch) but do
                // not insert new blocks, and count the HDC misses.
                if self.hdc.is_empty() {
                    self.hdc.note_misses(0, nblocks as u64);
                    self.cache.touch_extent(start, nblocks, |_, _| {});
                } else {
                    let hdc = &mut self.hdc;
                    self.cache.touch_extent(start, nblocks, |b, _| {
                        hdc.write(b);
                    });
                }
                ControllerDecision::Media {
                    start,
                    nblocks,
                    read_ahead: 0,
                }
            }
        }
    }

    /// Read-ahead extension for a miss at `[start, start+nblocks)`,
    /// clipped to the disk capacity.
    fn read_ahead_for(&mut self, start: PhysBlock, nblocks: u32) -> u32 {
        let want = match self.policy {
            ReadAheadKind::None => 0,
            ReadAheadKind::BlindSegment | ReadAheadKind::BlindBlock => {
                // Fill a segment's worth starting at the miss.
                self.max_ra_blocks.saturating_sub(nblocks)
            }
            ReadAheadKind::For => {
                let last = start.offset(nblocks as u64 - 1);
                let max = self.max_ra_blocks.saturating_sub(nblocks);
                let bitmap = self.bitmap.as_ref().expect("FOR carries a bitmap");
                let n = bitmap.run_ahead(last, max);
                self.bitmap_scans += n as u64 + 1;
                n
            }
            ReadAheadKind::PartialTrack => {
                // Read to the end of the current track, capped by the
                // segment-sized read-ahead limit.
                let end = start.index() + nblocks as u64;
                let track_left = self.blocks_per_track as u64 - end % self.blocks_per_track as u64;
                let track_left = if track_left == self.blocks_per_track as u64 {
                    0
                } else {
                    track_left
                };
                (track_left as u32).min(self.max_ra_blocks.saturating_sub(nblocks))
            }
        };
        let end = start.index() + nblocks as u64 + want as u64;
        if end > self.capacity_blocks {
            want - (end - self.capacity_blocks) as u32
        } else {
            want
        }
    }

    /// Installs the blocks a completed media operation moved. Reads
    /// populate the read-ahead cache (demanded prefix + read-ahead
    /// suffix); writes leave the cache untouched (copies were already
    /// refreshed at classification time).
    pub fn on_media_complete(
        &mut self,
        kind: ReadWrite,
        start: PhysBlock,
        nblocks: u32,
        requested: u32,
    ) {
        if kind.is_read() {
            self.cache.insert_run(start, nblocks, requested);
        }
    }

    /// Pins `block` into the HDC region (host `pin_blk()`), reporting
    /// whether it succeeded (region not full).
    pub fn pin(&mut self, block: PhysBlock) -> bool {
        self.hdc.pin(block).is_ok()
    }

    /// Unpins `block` (host `unpin_blk()`), returning its dirty bit if
    /// it was pinned. Victim-cache entries are clean by construction,
    /// so callers rarely need the flag.
    pub fn unpin(&mut self, block: PhysBlock) -> Option<bool> {
        self.hdc.unpin(block)
    }

    /// Flushes dirty HDC blocks (host `flush_hdc()`), returning the
    /// blocks to write back.
    pub fn flush_hdc(&mut self) -> Vec<PhysBlock> {
        self.hdc.flush()
    }

    /// [`DiskController::flush_hdc`] into a caller-owned buffer, so the
    /// periodic flush path allocates nothing per cycle.
    pub fn flush_hdc_into(&mut self, out: &mut Vec<PhysBlock>) {
        self.hdc.flush_into(out);
    }

    /// Undoes a failed flush write-back: re-marks `blocks` dirty where
    /// still pinned, reverts their flushed accounting, and returns how
    /// many were lost (unpinned in the meantime). See
    /// [`HdcRegion::unflush`].
    pub fn unflush_hdc(&mut self, blocks: &[PhysBlock]) -> u64 {
        self.hdc.unflush(blocks)
    }

    /// Controller power loss: volatile cache contents vanish. The
    /// read-ahead cache only ever holds clean copies, so its loss is
    /// invisible to correctness; the HDC region's dirty blocks are
    /// *lost writes*, returned as a count. Pins survive (the host
    /// re-loads them).
    pub fn discard_dirty_hdc(&mut self) -> u64 {
        self.hdc.discard_dirty()
    }

    /// Clean→dirty HDC transitions over the controller's lifetime
    /// (conservation accounting).
    pub fn hdc_dirtied(&self) -> u64 {
        self.hdc.dirtied()
    }

    /// Dirty HDC blocks handed back by unpins.
    pub fn hdc_dirty_unpins(&self) -> u64 {
        self.hdc.dirty_unpins()
    }

    /// Read-ahead cache statistics.
    pub fn cache_stats(&self) -> &CacheStats {
        self.cache.as_cache_ref().stats()
    }

    /// HDC region statistics.
    pub fn hdc_stats(&self) -> &HdcStats {
        self.hdc.stats()
    }

    /// Blocks currently pinned.
    pub fn hdc_resident(&self) -> u32 {
        self.hdc.len()
    }

    /// Pinned blocks currently dirty (conservation accounting).
    pub fn hdc_dirty_count(&self) -> u32 {
        self.hdc.dirty_count()
    }

    /// Total FOR bitmap bits examined (the "new functionality" cost the
    /// simulation charges).
    pub fn bitmap_scans(&self) -> u64 {
        self.bitmap_scans
    }

    /// Read-ahead cache capacity in blocks (after HDC and bitmap
    /// carve-outs).
    pub fn ra_capacity_blocks(&self) -> u32 {
        self.cache.as_cache_ref().capacity_blocks()
    }

    /// Blocks currently resident in the read-ahead cache (occupancy
    /// sampling).
    pub fn ra_resident_blocks(&self) -> u32 {
        self.cache.as_cache_ref().resident_blocks()
    }

    /// Checked-mode structural validation of this controller
    /// (DESIGN.md §6.5): the read-ahead cache's and HDC region's own
    /// `check_coherence()` plus the cross-region occupancy bound —
    /// resident read-ahead blocks never exceed the capacity left after
    /// the HDC hand-off. O(cache + pinned); called only from audit
    /// points behind `Auditor::enabled()`.
    pub fn audit(&self) -> Result<(), String> {
        match &self.cache {
            CacheOrg::Segment(c) => c
                .check_coherence()
                .map_err(|e| format!("segment cache: {e}"))?,
            CacheOrg::Block(c) => c
                .check_coherence()
                .map_err(|e| format!("block cache: {e}"))?,
        }
        self.hdc
            .check_coherence()
            .map_err(|e| format!("HDC region: {e}"))?;
        let ra = self.cache.as_cache_ref();
        if ra.resident_blocks() > ra.capacity_blocks() {
            return Err(format!(
                "read-ahead cache holds {} blocks over its {}-block share",
                ra.resident_blocks(),
                ra.capacity_blocks()
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use forhdc_sim::DiskConfig;

    fn cfg() -> DiskConfig {
        DiskConfig::default()
    }

    fn bitmap_all_continuing(n: u64) -> ForBitmap {
        let mut bm = ForBitmap::new(n);
        for i in 1..n {
            bm.set(PhysBlock::new(i), true);
        }
        bm
    }

    #[test]
    fn blind_segment_reads_whole_segment() {
        let mut c = DiskController::new(&cfg(), ReadAheadKind::BlindSegment, 0, None);
        match c.on_request(ReadWrite::Read, PhysBlock::new(100), 4) {
            ControllerDecision::Media {
                start,
                nblocks,
                read_ahead,
            } => {
                assert_eq!(start, PhysBlock::new(100));
                assert_eq!(nblocks, 32);
                assert_eq!(read_ahead, 28);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn no_ra_reads_exactly_the_request() {
        let mut c = DiskController::new(&cfg(), ReadAheadKind::None, 0, None);
        match c.on_request(ReadWrite::Read, PhysBlock::new(100), 4) {
            ControllerDecision::Media {
                nblocks,
                read_ahead,
                ..
            } => {
                assert_eq!(nblocks, 4);
                assert_eq!(read_ahead, 0);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn for_stops_at_file_boundary() {
        let mut bm = ForBitmap::new(1000);
        // Blocks 101..104 continue block 100; 104 starts another file.
        for i in 101..104 {
            bm.set(PhysBlock::new(i), true);
        }
        let mut c = DiskController::new(&cfg(), ReadAheadKind::For, 0, Some(bm));
        match c.on_request(ReadWrite::Read, PhysBlock::new(100), 1) {
            ControllerDecision::Media {
                nblocks,
                read_ahead,
                ..
            } => {
                assert_eq!(nblocks, 4); // 1 demanded + 3 continuations
                assert_eq!(read_ahead, 3);
            }
            other => panic!("{other:?}"),
        }
        assert!(c.bitmap_scans() > 0);
    }

    #[test]
    fn for_respects_max_read_ahead() {
        let bm = bitmap_all_continuing(10_000);
        let mut c = DiskController::new(&cfg(), ReadAheadKind::For, 0, Some(bm));
        match c.on_request(ReadWrite::Read, PhysBlock::new(0), 2) {
            ControllerDecision::Media { nblocks, .. } => assert_eq!(nblocks, 32),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn partial_track_stops_at_track_end() {
        let mut c = DiskController::new(&cfg(), ReadAheadKind::PartialTrack, 0, None);
        let bpt = cfg().geometry.blocks_per_track(); // 55 on the default drive
                                                     // A miss 3 blocks before the track end reads exactly to it.
        let start = PhysBlock::new(bpt as u64 - 4);
        match c.on_request(ReadWrite::Read, start, 1) {
            ControllerDecision::Media {
                nblocks,
                read_ahead,
                ..
            } => {
                assert_eq!(read_ahead, 3);
                assert_eq!(nblocks, 4);
            }
            other => panic!("{other:?}"),
        }
        // A miss ending exactly at a track boundary reads nothing ahead.
        match c.on_request(ReadWrite::Read, PhysBlock::new(2 * bpt as u64 - 1), 1) {
            ControllerDecision::Media { read_ahead, .. } => assert_eq!(read_ahead, 0),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn read_hit_after_install() {
        let mut c = DiskController::new(&cfg(), ReadAheadKind::BlindBlock, 0, None);
        let d = c.on_request(ReadWrite::Read, PhysBlock::new(50), 4);
        let ControllerDecision::Media {
            start,
            nblocks,
            read_ahead,
        } = d
        else {
            panic!("{d:?}")
        };
        c.on_media_complete(ReadWrite::Read, start, nblocks, nblocks - read_ahead);
        // The demanded blocks and the read-ahead both hit now.
        assert_eq!(
            c.on_request(ReadWrite::Read, PhysBlock::new(50), 4),
            ControllerDecision::CacheHit
        );
        assert_eq!(
            c.on_request(ReadWrite::Read, PhysBlock::new(54), 8),
            ControllerDecision::CacheHit
        );
    }

    #[test]
    fn read_ahead_clipped_at_disk_end() {
        let mut c = DiskController::new(&cfg(), ReadAheadKind::BlindSegment, 0, None);
        let cap = cfg().geometry.capacity_blocks();
        match c.on_request(ReadWrite::Read, PhysBlock::new(cap - 2), 2) {
            ControllerDecision::Media {
                nblocks,
                read_ahead,
                ..
            } => {
                assert_eq!(nblocks, 2);
                assert_eq!(read_ahead, 0);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn hdc_absorbs_fully_pinned_writes_only() {
        let mut c = DiskController::new(&cfg(), ReadAheadKind::BlindSegment, 512, None);
        assert!(c.pin(PhysBlock::new(10)));
        assert!(c.pin(PhysBlock::new(11)));
        assert_eq!(
            c.on_request(ReadWrite::Write, PhysBlock::new(10), 2),
            ControllerDecision::HdcWriteAbsorbed
        );
        // Partially pinned: goes to the media.
        match c.on_request(ReadWrite::Write, PhysBlock::new(10), 3) {
            ControllerDecision::Media { nblocks, .. } => assert_eq!(nblocks, 3),
            other => panic!("{other:?}"),
        }
        assert_eq!(c.flush_hdc(), vec![PhysBlock::new(10), PhysBlock::new(11)]);
    }

    #[test]
    fn hdc_serves_pinned_reads() {
        let mut c =
            DiskController::new(&cfg(), ReadAheadKind::For, 512, Some(ForBitmap::new(1000)));
        c.pin(PhysBlock::new(7));
        assert_eq!(
            c.on_request(ReadWrite::Read, PhysBlock::new(7), 1),
            ControllerDecision::CacheHit
        );
        assert_eq!(c.hdc_stats().read_hits, 1);
        assert_eq!(c.hdc_resident(), 1);
    }

    #[test]
    fn hdc_shrinks_read_ahead_cache() {
        let full = DiskController::new(&cfg(), ReadAheadKind::BlindBlock, 0, None);
        let carved = DiskController::new(&cfg(), ReadAheadKind::BlindBlock, 512, None);
        assert_eq!(full.ra_capacity_blocks(), 1024);
        assert_eq!(carved.ra_capacity_blocks(), 512);
    }

    #[test]
    fn for_pays_bitmap_memory() {
        let c = DiskController::new(
            &cfg(),
            ReadAheadKind::For,
            0,
            Some(ForBitmap::new(cfg().geometry.capacity_blocks())),
        );
        // ~549 KB of bitmap = 135 blocks carved out of 1024.
        assert!(c.ra_capacity_blocks() < 1024);
        assert!(c.ra_capacity_blocks() > 850);
    }

    #[test]
    fn segment_count_shrinks_with_hdc() {
        let c = DiskController::new(&cfg(), ReadAheadKind::BlindSegment, 512, None);
        // 512 remaining blocks / 32-block segments = 16 segments.
        assert_eq!(c.ra_capacity_blocks(), 16 * 32);
    }

    #[test]
    #[should_panic(expected = "continuation bitmap")]
    fn for_without_bitmap_panics() {
        let _ = DiskController::new(&cfg(), ReadAheadKind::For, 0, None);
    }

    #[test]
    #[should_panic(expected = "leaves no read-ahead cache")]
    fn oversized_hdc_panics() {
        let _ = DiskController::new(&cfg(), ReadAheadKind::BlindBlock, 1024, None);
    }
}
