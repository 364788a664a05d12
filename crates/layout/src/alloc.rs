//! Laying files onto the logical block space with controllable
//! fragmentation.
//!
//! Fragmentation is modeled per within-file block boundary: each of a
//! file's `f − 1` internal boundaries independently *breaks* with
//! probability `q`, splitting the file into `1 + (f−1)·q` expected
//! physically scattered runs. The runs of all files are then placed in
//! a deterministic shuffled order, so broken runs land far from their
//! predecessors — exactly the "logically consecutive but not physically
//! consecutive" blocks of section 4.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use forhdc_sim::LogicalBlock;

use crate::filemap::{Extent, FileMap};

/// Builder for [`FileMap`] layouts.
///
/// # Example
///
/// ```
/// use forhdc_layout::LayoutBuilder;
///
/// // 5%-fragmented layout of a thousand 8-block files.
/// let sizes = vec![8u32; 1000];
/// let map = LayoutBuilder::new().fragmentation(0.05).seed(7).build(&sizes);
/// assert_eq!(map.file_count(), 1000);
/// assert_eq!(map.total_blocks(), 8000);
/// ```
#[derive(Debug, Clone)]
pub struct LayoutBuilder {
    fragmentation: f64,
    seed: u64,
    align_blocks: u32,
    spacing_blocks: u64,
}

impl LayoutBuilder {
    /// Creates a builder with no fragmentation, no alignment, no
    /// spacing, seed 0.
    pub fn new() -> Self {
        LayoutBuilder {
            fragmentation: 0.0,
            seed: 0,
            align_blocks: 1,
            spacing_blocks: 0,
        }
    }

    /// Sets the per-boundary break probability `q ∈ [0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]` or not finite.
    pub fn fragmentation(mut self, q: f64) -> Self {
        assert!(
            q.is_finite() && (0.0..=1.0).contains(&q),
            "fragmentation must be in [0,1]"
        );
        self.fragmentation = q;
        self
    }

    /// Sets the deterministic RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Makes the allocator boundary-aware: a run that fits within one
    /// `align`-block span never straddles an `align` boundary (the
    /// cursor skips to the next boundary instead, leaving a gap).
    ///
    /// The paper's synthetic evaluation pairs the striping unit with
    /// the largest sequential access "to avoid fragmentation that could
    /// increase the FOR gains"; aligning file starts the same way keeps
    /// each small file on one disk.
    ///
    /// # Panics
    ///
    /// Panics if `align` is zero.
    pub fn align_blocks(mut self, align: u32) -> Self {
        assert!(align > 0, "alignment must be positive");
        self.align_blocks = align;
        self
    }

    /// Leaves an unallocated gap of `gap` blocks after every placed
    /// run. Used to build *sparse* layouts whose files are "located
    /// randomly on a disk" (the paper's §6.1 validation
    /// micro-benchmarks) — dense layouts make random seeks artificially
    /// short.
    pub fn spacing_blocks(mut self, gap: u64) -> Self {
        self.spacing_blocks = gap;
        self
    }

    /// Lays out one file of `file_sizes[i]` blocks per entry and
    /// returns the resulting map. Sizes of zero are allowed (empty
    /// files own no blocks).
    pub fn build(&self, file_sizes: &[u32]) -> FileMap {
        self.build_with_frontier(file_sizes, &[])
    }

    /// Lays out `file_sizes` as [`build`](Self::build) does, then
    /// appends one file per entry of `frontier` as
    /// [`FileMap::append_files`] does: contiguously, right after the
    /// footprint. The map's vectors are sized once for both, from the
    /// expected number of broken boundaries plus a margin, so none of
    /// them grows by doubling; the unused margin is released in place.
    pub fn build_with_frontier(&self, file_sizes: &[u32], frontier: &[u32]) -> FileMap {
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0xF0_4D_15_C0);
        // A non-empty file is one run plus one per broken boundary, and
        // a non-empty frontier file one run: room for the expected
        // count, with a sixteenth of the breaks as margin.
        let non_empty = |sizes: &[u32]| sizes.iter().filter(|&&s| s > 0).count();
        let appended = non_empty(frontier);
        let boundaries: u64 = file_sizes.iter().map(|&s| s.saturating_sub(1) as u64).sum();
        let breaks = boundaries as f64 * self.fragmentation;
        let room = non_empty(file_sizes) + (breaks * 1.0625).ceil() as usize + 64 + appended;
        // 1. Split each file into runs at broken boundaries. The runs
        //    come out grouped by file in file-offset order, which is
        //    the map's extent order; only their starts are left to set.
        let mut extents: Vec<Extent> = Vec::with_capacity(room);
        let mut extent_file: Vec<u32> = Vec::with_capacity(room);
        let mut file_start: Vec<u32> = Vec::with_capacity(file_sizes.len() + frontier.len() + 1);
        for (fi, &size) in file_sizes.iter().enumerate() {
            file_start.push(extents.len() as u32);
            let mut run_start = 0u32;
            for b in 1..=size {
                // The file's last block always ends a run.
                if b == size || (self.fragmentation > 0.0 && rng.gen_bool(self.fragmentation)) {
                    extents.push(Extent {
                        start: LogicalBlock::new(0),
                        len: b - run_start,
                        file_offset: run_start,
                    });
                    extent_file.push(fi as u32);
                    run_start = b;
                }
            }
        }
        file_start.push(extents.len() as u32);
        // 2. Place runs. With no fragmentation the order is file order
        //    (contiguous files back-to-back); with fragmentation the
        //    runs are shuffled so broken pieces scatter. Placement
        //    order is start order.
        let mut order: Vec<u32> = Vec::with_capacity(extents.len() + appended);
        order.extend(0..extents.len() as u32);
        if self.fragmentation > 0.0 {
            order.shuffle(&mut rng);
        }
        let mut cursor = 0u64;
        let align = self.align_blocks as u64;
        for &i in &order {
            let e = &mut extents[i as usize];
            let len = e.len as u64;
            if align > 1 && len <= align {
                let span_left = align - cursor % align;
                if len > span_left {
                    cursor += span_left; // skip to the next boundary
                }
            }
            e.start = LogicalBlock::new(cursor);
            cursor += len + self.spacing_blocks;
        }
        let mut map = FileMap::from_placement(extents, file_start, extent_file, order);
        map.append_files(frontier);
        map.shrink_to_fit();
        map
    }
}

impl Default for LayoutBuilder {
    fn default() -> Self {
        LayoutBuilder::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filemap::FileId;

    #[test]
    fn unfragmented_layout_is_contiguous() {
        let map = LayoutBuilder::new().build(&[3, 5, 2]);
        assert_eq!(map.extents(FileId::new(0)).len(), 1);
        assert_eq!(map.extents(FileId::new(1)).len(), 1);
        assert_eq!(map.extents(FileId::new(1))[0].start, LogicalBlock::new(3));
        assert_eq!(map.total_blocks(), 10);
        // All internal boundaries are continuations.
        for b in [1u64, 2, 4, 5, 6, 7, 9] {
            assert!(map.is_continuation(LogicalBlock::new(b)), "block {b}");
        }
        for b in [0u64, 3, 8] {
            assert!(!map.is_continuation(LogicalBlock::new(b)), "block {b}");
        }
    }

    #[test]
    fn full_fragmentation_breaks_every_boundary() {
        let map = LayoutBuilder::new()
            .fragmentation(1.0)
            .seed(3)
            .build(&[8; 50]);
        for f in 0..50 {
            assert_eq!(map.extents(FileId::new(f)).len(), 8);
        }
        // With single-block runs shuffled, continuations are vanishingly
        // rare (only if two consecutive offsets of one file land adjacent
        // by chance, in the right order).
        let cont = (1..map.total_blocks())
            .filter(|&b| map.is_continuation(LogicalBlock::new(b)))
            .count();
        assert!(cont < 10, "expected near-zero continuations, got {cont}");
    }

    #[test]
    fn layout_conserves_blocks_under_fragmentation() {
        let sizes: Vec<u32> = (1..40).collect();
        let total: u64 = sizes.iter().map(|&s| s as u64).sum();
        for q in [0.0, 0.05, 0.3, 0.9] {
            let map = LayoutBuilder::new().fragmentation(q).seed(11).build(&sizes);
            assert_eq!(map.total_blocks(), total);
            for (i, &s) in sizes.iter().enumerate() {
                assert_eq!(
                    map.file_blocks(FileId::new(i as u32)),
                    s as u64,
                    "q={q} file {i}"
                );
            }
        }
    }

    #[test]
    fn deterministic_for_same_seed() {
        let a = LayoutBuilder::new()
            .fragmentation(0.2)
            .seed(9)
            .build(&[16; 100]);
        let b = LayoutBuilder::new()
            .fragmentation(0.2)
            .seed(9)
            .build(&[16; 100]);
        for f in 0..100 {
            assert_eq!(a.extents(FileId::new(f)), b.extents(FileId::new(f)));
        }
        let c = LayoutBuilder::new()
            .fragmentation(0.2)
            .seed(10)
            .build(&[16; 100]);
        let differs = (0..100).any(|f| a.extents(FileId::new(f)) != c.extents(FileId::new(f)));
        assert!(differs, "different seeds should differ");
    }

    #[test]
    fn frontier_build_equals_build_then_append() {
        for q in [0.0, 0.3] {
            let builder = LayoutBuilder::new().fragmentation(q).seed(5);
            let sizes: Vec<u32> = (0..60).map(|i| i % 9).collect();
            let frontier = [4, 0, 7, 1];
            let mut want = builder.build(&sizes);
            want.append_files(&frontier);
            let got = builder.build_with_frontier(&sizes, &frontier);
            assert_eq!(got.file_count(), want.file_count());
            assert_eq!(got.total_blocks(), want.total_blocks());
            for f in 0..want.file_count() {
                let f = FileId::new(f);
                assert_eq!(got.extents(f), want.extents(f), "q={q} {f}");
            }
            assert!(got.extents_by_start().eq(want.extents_by_start()));
            assert!(got.heap_bytes() <= want.heap_bytes());
        }
    }

    #[test]
    fn empty_and_zero_sized_files() {
        let map = LayoutBuilder::new().build(&[0, 3, 0]);
        assert_eq!(map.file_blocks(FileId::new(0)), 0);
        assert_eq!(map.file_blocks(FileId::new(1)), 3);
        assert_eq!(map.total_blocks(), 3);
    }

    #[test]
    fn spacing_spreads_files() {
        let map = LayoutBuilder::new().spacing_blocks(100).build(&[2, 2]);
        assert_eq!(map.extents(FileId::new(0))[0].start, LogicalBlock::new(0));
        assert_eq!(map.extents(FileId::new(1))[0].start, LogicalBlock::new(102));
        // The gap is unowned.
        assert_eq!(map.owner(LogicalBlock::new(50)), None);
    }

    #[test]
    fn alignment_prevents_straddling() {
        // 3-block files with 4-block alignment: a file that would cross
        // a boundary skips to the next one.
        let map = LayoutBuilder::new().align_blocks(4).build(&[3, 3, 3]);
        for f in 0..3u32 {
            let e = map.extents(FileId::new(f))[0];
            let first_unit = e.start.index() / 4;
            let last_unit = (e.end().index() - 1) / 4;
            assert_eq!(first_unit, last_unit, "file {f} straddles");
        }
    }

    #[test]
    #[should_panic(expected = "fragmentation must be in [0,1]")]
    fn bad_fragmentation_panics() {
        let _ = LayoutBuilder::new().fragmentation(1.5);
    }
}
